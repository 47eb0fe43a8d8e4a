"""Ranking metrics against brute-force enumeration and hand examples."""

import csv
import json
import math
import tempfile
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import (count_calls, float_bits, make_dataset, make_schema,
                      random_dataset)
from ctrbias import evaluation, numeric, training
from ctrbias.data import Dataset, ingest_csv
from ctrbias.errors import ConfigError, MetricError
from ctrbias.evaluation import (EvalReport, UserBlocks, blocks_of, evaluate,
                                group_stats, ndcg_at_k, pair_auc, ranked_auc,
                                reo_at_k, user_auc, users_with_both_labels)


def random_instance(rng, coarse=True, **kwargs):
    """Random dataset plus scores; coarse scores force plenty of ties."""
    kwargs.setdefault("n_users", int(rng.integers(2, 6)))
    kwargs.setdefault("n_items", int(rng.integers(4, 10)))
    kwargs.setdefault("n_groups", int(rng.integers(2, 5)))
    kwargs.setdefault("n_rows", int(rng.integers(4, 60)))
    ds = random_dataset(rng, **kwargs)
    if coarse:
        scores = rng.integers(0, 4, size=len(ds)).astype(np.float64) / 2.0
    else:
        scores = rng.normal(size=len(ds))
    return ds, scores


# one of: tie-heavy (four levels), signed zeros and infinities, continuous
SCORE_KINDS = st.sampled_from((
    st.integers(0, 3).map(lambda v: v / 2.0),
    st.sampled_from((0.0, -0.0, math.inf, -math.inf, 1.0)),
    st.floats(-4.0, 4.0, allow_nan=False)))


def shuffled_log(draw, rows, n_users, n_items, n_groups):
    """(dataset, scores) of (user, item, group, label, score) rows, in an
    order drawn at random."""
    schema = make_schema(n_users, n_items, n_groups)
    ds = make_dataset(schema, [
        ([u, n_users + i, n_users + n_items + g], np.ones(3), y, f"u{u}",
         f"i{i}", t) for t, (u, i, g, y, _) in enumerate(rows)])
    scores = np.array([r[4] for r in rows], dtype=np.float64)
    perm = np.array(draw(st.permutations(range(len(rows)))))
    return ds.subset(perm), scores[perm]


@st.composite
def ranking_logs(draw, max_users=5, max_rows=40):
    """(dataset, scores) in arbitrary row order; scores of one SCORE_KINDS
    kind, and a few rows may repeat exactly."""
    n_users = draw(st.integers(1, max_users))
    n_items = draw(st.integers(1, 8))
    n_groups = draw(st.integers(2, 4))
    score = draw(SCORE_KINDS)
    rows = draw(st.lists(
        st.tuples(st.integers(0, n_users - 1), st.integers(0, n_items - 1),
                  st.integers(0, n_groups - 1), st.integers(0, 1), score),
        min_size=1, max_size=max_rows))
    rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    return shuffled_log(draw, rows, n_users, n_items, n_groups)


@st.composite
def pair_logs(draw, dense):
    """(dataset, scores) whose user blocks hold 1-6 rows, so at most 1.5
    pairs per row, or, when dense, 40-60 rows with at least a third of
    each label, so at least 8.9 pairs per row."""
    sizes = draw(st.lists(st.integers(40, 60) if dense else st.integers(1, 6),
                          min_size=1, max_size=3 if dense else 25))
    score = draw(SCORE_KINDS)
    rows = []
    for u, size in enumerate(sizes):
        n_pos = draw(st.integers(size // 3, size - size // 3))
        rows += [(u, draw(st.integers(0, 7)), draw(st.integers(0, 2)),
                  int(j < n_pos), draw(score)) for j in range(size)]
    return shuffled_log(draw, rows, len(sizes), 8, 3)


def same_or_both_nan(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


class TestOracleProperties:
    """The one-sort metrics equal the brute-force loops bit for bit."""

    # up to 25 users, so the per-user means add more than 8 values, where
    # np.sum would switch to its pairwise reduction
    @settings(max_examples=150, deadline=None)
    @given(ranking_logs(max_users=25, max_rows=100))
    def test_user_auc(self, log):
        ds, scores = log
        got = user_auc(ds.user_ids, scores, ds.labels)
        want = oracles.uauc_brute(oracles.users_of(ds), scores, ds.labels)
        assert got[1] == want[1]
        assert same_or_both_nan(got[0], want[0])

    @settings(max_examples=150, deadline=None)
    @given(ranking_logs(max_users=25, max_rows=100), st.integers(1, 7))
    def test_ndcg(self, log, k):
        ds, scores = log
        got = ndcg_at_k(ds.user_ids, scores, ds.labels, ds.item_ids, k)
        want = oracles.ndcg_brute(oracles.users_of(ds), scores, ds.labels,
                                  oracles.items_of(ds), k)
        assert got[1] == want[1]
        assert same_or_both_nan(got[0], want[0])

    @settings(max_examples=60, deadline=None)
    @given(ranking_logs(max_users=2, max_rows=80), st.integers(8, 40))
    def test_ndcg_long_lists(self, log, k):
        # long user lists: each DCG sums 8+ gains, pairwise in np.sum
        ds, scores = log
        got = ndcg_at_k(ds.user_ids, scores, ds.labels, ds.item_ids, k)
        want = oracles.ndcg_brute(oracles.users_of(ds), scores, ds.labels,
                                  oracles.items_of(ds), k)
        assert got[1] == want[1]
        assert same_or_both_nan(got[0], want[0])

    @settings(max_examples=100, deadline=None)
    @given(ranking_logs(), st.integers(1, 7))
    def test_evaluate(self, log, k):
        ds, scores = log
        report = evaluate(ds, scores, k)
        uauc, uauc_skipped = oracles.uauc_brute(oracles.users_of(ds), scores, ds.labels)
        ndcg, ndcg_skipped = oracles.ndcg_brute(oracles.users_of(ds), scores, ds.labels,
                                                oracles.items_of(ds), k)
        assert same_or_both_nan(report.uauc, uauc)
        assert report.uauc_skipped_users == uauc_skipped
        assert same_or_both_nan(report.ndcg, ndcg)
        assert report.ndcg_skipped_users == ndcg_skipped
        assert report.n_users == len(set(ds.user_ids))
        np.testing.assert_array_equal(report.group_tpr,
                                      oracles.tpr_brute(ds, scores, k))
        np.testing.assert_array_equal(report.group_ehr,
                                      oracles.ehr_brute(ds, scores))


class TestManyUsers:
    """About 150 users: each mean adds far more than 8 per-user values."""

    def instance(self, rng, coarse):
        return random_instance(rng, coarse=coarse, n_users=150, n_items=40,
                               n_rows=1200)

    @pytest.mark.parametrize("coarse", [True, False])
    def test_user_auc(self, rng, coarse):
        ds, scores = self.instance(rng, coarse)
        assert user_auc(ds.user_ids, scores, ds.labels) == \
            oracles.uauc_brute(oracles.users_of(ds), scores, ds.labels)

    @pytest.mark.parametrize("k", [3, 7, 12])
    def test_ndcg(self, rng, k):
        ds, scores = self.instance(rng, coarse=False)
        assert ndcg_at_k(ds.user_ids, scores, ds.labels, ds.item_ids, k) == \
            oracles.ndcg_brute(oracles.users_of(ds), scores, ds.labels,
                               oracles.items_of(ds), k)

    def test_ndcg_mixed_depths(self, rng):
        # few users, so one DCG's last bit survives the mean: a short list
        # next to a long one must not be summed as if padded with zeros
        for _ in range(150):
            ds, scores = random_instance(rng, coarse=False, n_users=3,
                                         n_rows=int(rng.integers(12, 60)))
            k = int(rng.integers(8, 41))
            assert ndcg_at_k(ds.user_ids, scores, ds.labels, ds.item_ids,
                             k) == oracles.ndcg_brute(
                oracles.users_of(ds), scores, ds.labels, oracles.items_of(ds), k)


class TestRankingStructure:
    def test_no_per_user_rank_calls(self, rng, monkeypatch):
        calls = count_calls(monkeypatch, numeric, "average_ranks")
        ds, scores = random_instance(rng, n_rows=50)
        user_auc(ds.user_ids, scores, ds.labels)
        evaluate(ds, scores, k=3)
        assert calls == []

    def test_nan_scores_are_rejected(self, rng):
        ds, scores = random_instance(rng, n_rows=10)
        scores[3] = np.nan
        with pytest.raises(ConfigError):
            user_auc(ds.user_ids, scores, ds.labels)
        with pytest.raises(ConfigError):
            ndcg_at_k(ds.user_ids, scores, ds.labels, ds.item_ids)
        with pytest.raises(ConfigError):
            evaluate(ds, scores)


def assert_same_ranking(got, want):
    fields = [(got, "order"), (got, "scores"), (got, "labels")] + [
        (got.blocks, name) for name in ("user_starts", "users", "sizes", "n_pos")]
    for frame, name in fields:
        a, b = getattr(frame, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b)


def constant_key(n):
    """A tie key that leaves tied rows in input order."""
    return np.zeros(n, dtype=np.int8)


class TestRankUsers:
    @settings(max_examples=200, deadline=None)
    @given(ranking_logs(max_users=25, max_rows=100), st.booleans(),
           st.booleans())
    def test_equals_lexsort_referee(self, log, codes, with_items):
        ds, scores = log
        users, items = oracles.users_of(ds), oracles.items_of(ds)
        if codes:
            users = np.unique(users, return_inverse=True)[1]
            items = np.unique(items, return_inverse=True)[1]
        items = items if with_items else None
        key = constant_key(len(users)) if items is None else items
        assert_same_ranking(
            UserBlocks(users, ds.labels, key).rank(scores),
            oracles.rank_users_reference(users, scores, ds.labels, items))

    @pytest.mark.parametrize("score", [0.0, -0.0, math.inf, -math.inf])
    @pytest.mark.parametrize("users, items", [
        (["u"], None), (["u"], ["i"]), ([3], None), ([3], [7])])
    def test_one_row(self, score, users, items):
        labels = np.array([1], dtype=np.int8)
        key = constant_key(1) if items is None else items
        assert_same_ranking(
            UserBlocks(users, labels, key).rank([score]),
            oracles.rank_users_reference(users, [score], labels, items))

    def test_frozen_example(self):
        users = ["b", "a", "a", "b", "a"]
        scores = [1.0, 2.0, 5.0, 3.0, 2.0]
        items = ["i9", "i5", "i1", "i2", "i3"]
        labels = [0, 1, 1, 0, 0]
        blocks = UserBlocks(users, labels, items)
        assert list(blocks.users) == ["a", "b"]
        assert blocks.user_starts.tolist() == [0, 3, 5]
        assert blocks.sizes.tolist() == [3, 2]
        assert blocks.n_pos.tolist() == [2, 0]
        assert blocks.both_labels.tolist() == [True, False]
        assert blocks.n_users == 2
        assert blocks.offsets.tolist() == [0, 0, 0, 5, 5]
        # user a: 2 positives in a block ending at 3, 1 negative
        assert blocks.auc_offset.tolist() == [2 * 3 - 3]
        assert blocks.auc_pairs.tolist() == [2]
        ranked = blocks.rank(scores)
        assert ranked.blocks is blocks
        # user a: i1(5.0), then the 2.0 tie broken i3 < i5; user b: 3.0, 1.0
        assert ranked.order.tolist() == [2, 4, 1, 3, 0]
        assert ranked.scores.tolist() == [5.0, 2.0, 2.0, 3.0, 1.0]
        assert ranked.labels.tolist() == [1, 0, 1, 0, 0]

    def test_order_is_permutation_with_sorted_blocks(self, rng):
        ds, scores = random_instance(rng, n_rows=50)
        ranked = UserBlocks(ds.user_ids, ds.labels, ds.item_ids).rank(scores)
        assert sorted(ranked.order.tolist()) == list(range(50))
        for rows in np.split(ranked.order, ranked.blocks.user_starts[1:-1]):
            assert len(set(ds.user_ids[rows])) == 1
            for a, b in zip(rows, rows[1:]):
                assert scores[a] > scores[b] or (
                    scores[a] == scores[b]
                    and oracles.items_of(ds)[a] <= oracles.items_of(ds)[b])

    def test_empty_and_mismatched_inputs(self):
        with pytest.raises(ConfigError):
            UserBlocks([], [], [])
        with pytest.raises(ConfigError):
            UserBlocks(["a"], [1], ["i", "j"])
        with pytest.raises(ConfigError):
            UserBlocks(["a"], [1], ["i"]).rank([1.0, 2.0])

    @pytest.mark.parametrize("labels", [[], [1], [0, 1, 1]])
    def test_labels_of_another_length(self, labels):
        with pytest.raises(ConfigError):
            UserBlocks(["a", "b"], labels, ["i", "j"])

    @pytest.mark.parametrize("labels", [[0.5, 1], [-1, 1], [1, -1], [0, 2],
                                        [math.nan, 1]])
    def test_labels_other_than_0_1_are_rejected(self, labels):
        # once read as an AUC of 0.1667 ([0.5, 1]) and as (nan, 1), the
        # user skipped, for +-1 labels
        with pytest.raises(ConfigError, match="0/1"):
            UserBlocks([0, 0], labels, [0, 1])
        with pytest.raises(ConfigError, match="0/1"):
            user_auc([0, 0], [0.1, 0.2], labels)
        with pytest.raises(ConfigError, match="0/1"):
            ndcg_at_k([0, 0], [0.1, 0.2], labels, [0, 1])

    def test_float_and_bool_labels_count_like_ints(self):
        users, items = [0, 0, 1, 1, 1], [0, 1, 2, 3, 4]
        scores = [0.3, 0.1, 0.2, 0.2, 0.5]
        ints = [1, 0, 0, 1, 1]
        want = (user_auc(users, scores, ints),
                ndcg_at_k(users, scores, ints, items, 2))
        for labels in (np.array(ints, dtype=float),
                       np.array(ints, dtype=bool)):
            assert UserBlocks(users, labels, items).n_pos.tolist() == [1, 2]
            assert (user_auc(users, scores, labels),
                    ndcg_at_k(users, scores, labels, items, 2)) == want


class TestUserAuc:
    def test_hand_example(self):
        # one user: positives at scores 3 and 1, negative at 2 -> 1 win of 2
        value, skipped = user_auc(["u"] * 3, [3.0, 2.0, 1.0], [1, 0, 1])
        assert value == 0.5
        assert skipped == 0

    def test_tie_counts_half(self):
        value, _ = user_auc(["u", "u"], [1.0, 1.0], [1, 0])
        assert value == 0.5

    def test_matches_pair_counting_exactly(self, rng):
        for _ in range(60):
            ds, scores = random_instance(rng)
            got, got_skip = user_auc(ds.user_ids, scores, ds.labels)
            want, want_skip = oracles.uauc_brute(oracles.users_of(ds), scores, ds.labels)
            assert got_skip == want_skip
            if math.isnan(want):
                assert math.isnan(got)
            else:
                assert got == want  # bitwise: same rational arithmetic

    def test_single_class_users_are_skipped(self):
        users = ["a", "a", "b", "b"]
        value, skipped = user_auc(users, [4.0, 1.0, 2.0, 3.0], [1, 1, 0, 1])
        assert skipped == 1
        assert value == 1.0

    def test_all_skipped_returns_nan(self):
        value, skipped = user_auc(["a", "b"], [1.0, 2.0], [1, 1])
        assert math.isnan(value)
        assert skipped == 2

    def test_row_permutation_invariant_even_with_ties(self, rng):
        ds, scores = random_instance(rng, n_rows=50)
        a, _ = user_auc(ds.user_ids, scores, ds.labels)
        perm = rng.permutation(len(ds))
        b, _ = user_auc(ds.user_ids[perm], scores[perm], ds.labels[perm])
        assert a == b


class TestPairAuc:
    """pair_auc counts pairs and equals the ranked AUC bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.booleans())
    def test_equals_ranked_auc_and_the_pair_loop(self, data, dense):
        ds, scores = data.draw(pair_logs(dense))
        blocks = blocks_of(ds)
        assert blocks.few_pairs != dense
        got = pair_auc(blocks, scores)
        for want in (ranked_auc(blocks.rank(scores)),
                     oracles.uauc_brute(oracles.users_of(ds), scores,
                                        ds.labels)):
            assert float_bits(got[0]) == float_bits(want[0])
            assert got[1] == want[1]

    def test_hand_pairs(self):
        # rows 0-2 are user a's (labels 1, 0, 0), rows 3-5 user b's (1, 1, 0);
        # user c has no negative and no pair
        blocks = UserBlocks(["b", "a", "a", "b", "c", "a", "b"],
                            [1, 1, 0, 1, 1, 0, 0], [0, 1, 2, 3, 4, 5, 6])
        pos, neg, place = blocks.pair_rows()
        assert list(zip(pos.tolist(), neg.tolist(), place.tolist())) == [
            (1, 2, 0), (1, 5, 0), (0, 6, 1), (3, 6, 1)]
        assert blocks.pair_rows() is blocks.pair_rows()  # built once
        scores = [2.0, 0.0, -0.0, 2.0, 9.0, -math.inf, math.inf]
        # a: 0 ties -0 (half), beats -inf; b: both lose to +inf
        assert pair_auc(blocks, scores) == ((0.75 + 0.0) / 2, 1)

    def test_nan_and_wrong_length_raise(self):
        blocks = UserBlocks(["a", "a"], [1, 0], [0, 1])
        with pytest.raises(ConfigError, match="NaN"):
            pair_auc(blocks, [0.5, math.nan])
        with pytest.raises(ConfigError, match="length"):
            pair_auc(blocks, [0.5])


class TestNdcg:
    def test_hand_example(self):
        # positives ranked 1st and 3rd of one user, k = 3
        users = ["u"] * 3
        value, _ = ndcg_at_k(users, [3.0, 2.0, 1.0], [1, 0, 1],
                             ["a", "b", "c"], k=3)
        dcg = 1.0 + 1.0 / math.log2(4)
        idcg = 1.0 + 1.0 / math.log2(3)
        assert value == pytest.approx(dcg / idcg, abs=1e-15)

    def test_matches_brute_force_exactly(self, rng):
        for _ in range(40):
            ds, scores = random_instance(rng)
            k = int(rng.integers(1, 8))
            got, got_skip = ndcg_at_k(ds.user_ids, scores, ds.labels,
                                      ds.item_ids, k)
            want, want_skip = oracles.ndcg_brute(oracles.users_of(ds), scores,
                                                 ds.labels, oracles.items_of(ds), k)
            assert got_skip == want_skip
            if math.isnan(want):
                assert math.isnan(got)
            else:
                assert got == want

    def test_k_beyond_list_length_is_fine(self):
        value, _ = ndcg_at_k(["u", "u"], [2.0, 1.0], [0, 1], ["a", "b"], k=50)
        assert value == pytest.approx(1.0 / math.log2(3), abs=1e-15)

    def test_users_without_positives_are_skipped(self):
        value, skipped = ndcg_at_k(["a", "b"], [1.0, 1.0], [0, 1],
                                   ["x", "y"], 5)
        assert skipped == 1
        assert value == 1.0

    def test_invalid_k(self):
        with pytest.raises(ConfigError):
            ndcg_at_k(["u"], [1.0], [1], ["i"], k=0)


class TestGroupMetrics:
    def test_ehr_matches_brute_force(self, rng):
        for _ in range(40):
            ds, scores = random_instance(rng, multi_group_prob=0.3)
            got = np.asarray(evaluate(ds, scores).group_ehr)
            want = oracles.ehr_brute(ds, scores)
            np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
            ok = ~np.isnan(want)
            np.testing.assert_allclose(got[ok], want[ok], rtol=0, atol=0)

    def test_tpr_matches_brute_force(self, rng):
        for _ in range(40):
            ds, scores = random_instance(rng, multi_group_prob=0.3)
            k = [None, 1, 3, 5][int(rng.integers(4))]
            # k = len(ds) reaches past every user's list: the whole list
            got = np.asarray(evaluate(ds, scores, k or len(ds)).group_tpr)
            want = oracles.tpr_brute(ds, scores, k)
            np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
            ok = ~np.isnan(want)
            np.testing.assert_allclose(got[ok], want[ok], rtol=0, atol=0)

    def test_full_list_tpr_is_one_where_defined(self, rng):
        ds, scores = random_instance(rng, n_rows=30)
        for v in evaluate(ds, scores, k=len(ds)).group_tpr:
            assert math.isnan(v) or v == 1.0

    def test_invalid_k(self, rng):
        ds, scores = random_instance(rng, n_rows=10)
        with pytest.raises(ConfigError):
            evaluate(ds, scores, k=0)

    def test_ehr_hand_example(self):
        # one user, groups 0,0,1,1; labels 1,0,1,0; scores rank as listed.
        # prefix = top-2 rows (two positives overall), both carrying group 0.
        schema = make_schema(1, 4, 2)
        ds = make_dataset(schema, [
            ([0, 1 + i, 5 + g], [1.0, 1.0, 1.0], y, "u0", f"i{i}", i)
            for i, (g, y) in enumerate([(0, 1), (0, 0), (1, 1), (1, 0)])])
        ehr = evaluate(ds, np.array([4.0, 3.0, 2.0, 1.0])).group_ehr
        # group 0: both prefix exposures (incl. the negative) over 1 positive
        assert ehr == [2.0, 0.0]

    def test_multi_group_rows_count_for_both_groups(self):
        schema = make_schema(1, 2, 2)
        ds = make_dataset(schema, [
            ([0, 1, 3, 4], [1.0, 1.0, 0.5, 0.5], 1, "u0", "i0", 0),
            ([0, 2, 3], [1.0, 1.0, 1.0], 0, "u0", "i1", 1),
        ])
        tpr = evaluate(ds, np.array([2.0, 1.0]), k=1).group_tpr
        # the positive row sits in the top-1 and belongs to both groups
        assert tpr == [1.0, 1.0]


class TestReo:
    def test_matches_std_over_mean(self, rng):
        for _ in range(20):
            ds, scores = random_instance(rng)
            report = evaluate(ds, scores, 3)
            tpr = np.asarray(report.group_tpr)
            finite = [v for v in tpr if math.isfinite(v)]
            if not finite or sum(finite) == 0:
                with pytest.raises(MetricError):
                    reo_at_k(tpr)
                assert report.reo is None
                continue
            got = reo_at_k(tpr)
            assert report.reo == got
            assert got == pytest.approx(oracles.reo_brute(tpr), rel=1e-12)

    def test_hand_example(self):
        got = reo_at_k(np.array([0.5, 0.5, 1.0]))
        mean = 2.0 / 3.0
        std = math.sqrt((2 * (0.5 - mean) ** 2 + (1.0 - mean) ** 2) / 3)
        assert got == pytest.approx(std / mean, rel=1e-15)

    def test_equal_tprs_give_zero(self):
        assert reo_at_k(np.array([0.7, 0.7, np.nan])) == 0.0

    def test_undefined_cases_raise(self):
        with pytest.raises(MetricError):
            reo_at_k(np.array([np.nan, np.nan]))
        with pytest.raises(MetricError):
            reo_at_k(np.array([0.0, 0.0]))


class TestPerfectRanker:
    """Scoring by the true label must saturate every metric."""

    def test_saturation(self, rng):
        for _ in range(10):
            ds, _ = random_instance(rng, n_rows=40, multi_group_prob=0.2)
            scores = ds.labels.astype(np.float64)
            uauc, _ = user_auc(ds.user_ids, scores, ds.labels)
            if not math.isnan(uauc):
                assert uauc == 1.0
            ndcg, _ = ndcg_at_k(ds.user_ids, scores, ds.labels, ds.item_ids, 5)
            if not math.isnan(ndcg):
                assert ndcg == 1.0
            for v in evaluate(ds, scores).group_ehr:
                assert math.isnan(v) or v == 1.0
            whole_list = evaluate(ds, scores, k=len(ds))
            if np.isfinite(whole_list.group_tpr).any():
                assert whole_list.reo == 0.0


class TestPermutationInvariance:
    def test_all_metrics_survive_row_shuffling(self, rng):
        # continuous scores: tie-free, so the ranking is fully determined
        ds, scores = random_instance(rng, coarse=False, n_rows=50,
                                     multi_group_prob=0.3)
        perm = rng.permutation(len(ds))
        shuffled = ds.subset(perm)
        a = evaluate(ds, scores, k=3)
        b = evaluate(shuffled, scores[perm], k=3)
        assert a.uauc == b.uauc
        assert a.ndcg == b.ndcg
        assert a.reo == b.reo
        assert a.group_tpr == b.group_tpr
        assert a.group_ehr == b.group_ehr
        assert a.group_exposures == b.group_exposures
        assert a.group_positives == b.group_positives


# ids whose code order must follow string order: "u10" < "u9", non-ASCII
# letters, and ids that CSV has to quote
ID_POOL = ("u9", "u10", "u1", "U2", "é", "ü10", "日本", "a,b", '"q"', "x\ny", "")


@st.composite
def id_logs(draw):
    """(dataset, scores, k) with user and item ids drawn from ID_POOL and
    from short random text; scores tie often."""
    ids = st.lists(st.sampled_from(ID_POOL) | st.text("aé,\"\r9", max_size=3),
                   min_size=1, max_size=7, unique=True)
    users, items = draw(ids), draw(ids)
    n_groups = draw(st.integers(2, 4))
    rows = draw(st.lists(
        st.tuples(st.integers(0, len(users) - 1), st.integers(0, len(items) - 1),
                  st.integers(0, n_groups - 1), st.integers(0, 1),
                  st.integers(0, 3)),
        min_size=1, max_size=40))
    n_u, n_i = len(users), len(items)
    ds = make_dataset(make_schema(n_u, n_i, n_groups), [
        ([u, n_u + i, n_u + n_i + g], np.ones(3), y, users[u], items[i], t)
        for t, (u, i, g, y, _) in enumerate(rows)])
    scores = np.array([r[4] for r in rows], dtype=np.float64) / 2.0
    return ds, scores, draw(st.integers(1, 5))


class TestIdCodes:
    """Codes stand in for the id strings: every order, byte and metric is
    that of the strings."""

    @settings(max_examples=100, deadline=None)
    @given(id_logs(), st.data())
    def test_codes_act_as_strings(self, log, draw):
        ds, scores, k = log
        users, items = oracles.users_of(ds), oracles.items_of(ds)
        np.testing.assert_array_equal(blocks_of(ds).base, np.lexsort((items, users)))

        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp, "a.csv"), Path(tmp, "b.csv")
            ds.to_csv(first)
            back = ingest_csv(first, ds.schema)
            back.to_csv(second)
            assert first.read_bytes() == second.read_bytes()
        np.testing.assert_array_equal(oracles.users_of(back), users)
        np.testing.assert_array_equal(oracles.items_of(back), items)

        rows = np.array(draw.draw(st.lists(st.integers(0, len(ds) - 1),
                                           min_size=1, max_size=len(ds))))
        sub, sub_scores = ds.subset(rows), scores[rows]
        report = evaluate(sub, sub_scores, k)
        uauc = oracles.uauc_brute(users[rows], sub_scores, sub.labels)
        ndcg = oracles.ndcg_brute(users[rows], sub_scores, sub.labels, items[rows], k)
        assert float_bits(report.uauc) == float_bits(uauc[0])
        assert report.uauc_skipped_users == uauc[1]
        assert float_bits(report.ndcg) == float_bits(ndcg[0])
        assert report.ndcg_skipped_users == ndcg[1]
        np.testing.assert_array_equal(report.group_tpr,
                                      oracles.tpr_brute(sub, sub_scores, k))
        np.testing.assert_array_equal(report.group_ehr,
                                      oracles.ehr_brute(sub, sub_scores))


class TestEvaluate:
    def test_report_fields_and_errors(self, rng):
        ds, scores = random_instance(rng, n_rows=40)
        report = evaluate(ds, scores, k=3)
        assert isinstance(report, EvalReport)
        assert report.n_samples == 40
        assert report.k == 3
        assert report.split_tag == ds.split_tag
        assert report.n_users == len(set(ds.user_ids))
        assert report.group_labels == ds.bias_labels
        assert len(report.group_tpr) == ds.schema.num_groups
        rows, groups = ds.bias_memberships()
        assert report.group_exposures == np.bincount(
            groups, minlength=ds.schema.num_groups).tolist()
        for i, n_pos in enumerate(report.group_positives):
            if n_pos == 0:
                label = ds.bias_labels[i]
                assert any(f"group {label}" in e for e in report.errors)
        json.dumps(report.to_json_dict())

    def test_input_validation(self, rng):
        ds, scores = random_instance(rng, n_rows=10)
        with pytest.raises(ConfigError):
            evaluate(ds, scores[:-1])
        with pytest.raises(ConfigError):
            evaluate(ds.subset(np.array([], dtype=int)), np.array([]))

    def test_group_csv_round_trips(self, rng, tmp_path):
        ds, scores = random_instance(rng, n_rows=40)
        report = evaluate(ds, scores, k=3)
        path = tmp_path / "groups.csv"
        report.write_group_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["group", "exposures", "positives", "tpr_at_3", "ehr"]
        assert len(rows) == 1 + ds.schema.num_groups
        for i, row in enumerate(rows[1:]):
            assert row[0] == ds.bias_labels[i]
            assert int(row[1]) == report.group_exposures[i]
            assert int(row[2]) == report.group_positives[i]
            for col, value in ((3, report.group_tpr[i]),
                               (4, report.group_ehr[i])):
                if row[col] == "":
                    assert math.isnan(value)
                else:
                    assert float(row[col]) == value

    def test_group_csv_quotes_labels_like_to_csv(self, rng, tmp_path):
        # csv.writer with a "\n" terminator leaves a lone CR unquoted before
        # Python 3.13; with "\r\n" it quotes one on every Python
        ds, scores = random_instance(rng, n_rows=40, n_groups=4)
        labels = ("a\rb", "c\nd", "e,f", 'g"h')
        report = replace(evaluate(ds, scores, k=3), group_labels=labels)
        path = tmp_path / "groups.csv"
        report.write_group_csv(path)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert [row[0] for row in rows[1:]] == list(labels)
        records = []
        writer = csv.writer(SimpleNamespace(write=records.append), lineterminator="\r\n")
        writer.writerow(["group", "exposures", "positives", "tpr_at_3", "ehr"])
        writer.writerows(zip(labels, report.group_exposures, report.group_positives, *(
            ["" if math.isnan(x) else repr(x) for x in rates]
            for rates in (report.group_tpr, report.group_ehr))))
        assert path.read_bytes().decode() == "".join(r[:-2] + "\n" for r in records)


class TestBlocksCache:
    """A Dataset sorts its ids once; every later ranking of it reuses them."""

    def test_evaluate_twice_builds_blocks_once(self, rng, monkeypatch):
        ds, scores = random_instance(rng, n_users=12, n_items=15, n_rows=80)
        builds = count_calls(monkeypatch, UserBlocks, "__init__")
        first = evaluate(ds, scores, k=3)
        second = evaluate(ds, scores[::-1], k=3)
        assert len(builds) == 1
        # a fresh Dataset over the same rows sorts its own ids
        fresh = ds.subset(np.arange(len(ds)))
        assert as_dict(evaluate(fresh, scores, k=3)) == as_dict(first)
        assert as_dict(evaluate(fresh, scores[::-1], k=3)) == as_dict(second)
        assert len(builds) == 2

    def test_subset_gets_its_own_blocks(self, rng):
        ds, scores = random_instance(rng, n_users=12, n_items=15, n_rows=80)
        blocks = blocks_of(ds)
        rows = rng.permutation(len(ds))[:50]
        sub = ds.subset(rows)
        assert blocks_of(sub) is not blocks
        assert blocks_of(ds) is blocks
        assert_same_ranking(
            blocks_of(sub).rank(scores[rows]),
            oracles.rank_users_reference(sub.user_ids, scores[rows],
                                         sub.labels, sub.item_ids))

    @pytest.mark.parametrize("ties", ["all-equal", "one-decimal"])
    def test_validation_auc_ignores_the_item_tie_break(self, rng, monkeypatch,
                                                       ties):
        # training's validation AUC ranks on the item-broken cached blocks;
        # user_auc keeps tied rows in input order
        for _ in range(20):
            ds, scores = random_instance(rng, coarse=False, n_users=25,
                                         n_items=8, n_rows=200)
            scores = (np.full(len(ds), 0.25) if ties == "all-equal"
                      else np.round(scores, 1))
            monkeypatch.setattr(training, "predict", lambda *_: scores)
            got = training._val_uauc(None, ds)
            assert float_bits(got) == float_bits(
                user_auc(ds.user_ids, scores, ds.labels)[0])
            assert float_bits(got) == float_bits(
                oracles.uauc_brute(oracles.users_of(ds), scores, ds.labels)[0])

    def test_mixed_cutoffs_build_one_ndcg_plan_each(self, rng, monkeypatch):
        ds, _ = random_instance(rng, n_users=5, n_items=12, n_rows=70)
        largest = int(blocks_of(ds).sizes.max())
        assert 5 < largest < 50
        plans = count_calls(monkeypatch, evaluation.NdcgPlan, "__init__")
        rounded = np.round(rng.normal(size=len(ds)), 1)
        signed_zeros = np.where(rng.random(len(ds)) < 0.5, 0.0, -0.0)
        vectors = [rounded, signed_zeros,
                   np.where(rng.random(len(ds)) < 0.4, signed_zeros, rounded),
                   rng.integers(0, 3, size=len(ds)) / 2.0]
        users, items = oracles.users_of(ds), oracles.items_of(ds)
        for k in (5, 1, 50, 3, 1, 50, 5, 3):
            for scores in vectors:
                got = evaluate(ds, scores, k)
                fresh = evaluate(ds.subset(np.arange(len(ds))), scores, k)
                assert as_dict(got) == as_dict(fresh)
                uauc = oracles.uauc_brute(users, scores, ds.labels)
                ndcg = oracles.ndcg_brute(users, scores, ds.labels, items,
                                          min(k, largest))
                assert float_bits(got.uauc) == float_bits(uauc[0])
                assert float_bits(got.ndcg) == float_bits(ndcg[0])
                assert float_bits(got.group_tpr) == float_bits(
                    oracles.tpr_brute(ds, scores, k))
                assert float_bits(got.group_ehr) == float_bits(
                    oracles.ehr_brute(ds, scores))
        frame = blocks_of(ds)
        built = [args[2] for args, _ in plans if args[1] is frame]
        assert sorted(built) == [1, 3, 5, largest]

    def test_users_with_both_labels(self, rng):
        for _ in range(20):
            ds, _ = random_instance(rng, n_rows=int(rng.integers(1, 30)))
            want = sum(len(set(ds.labels[ds.user_ids == u])) == 2
                       for u in set(ds.user_ids))
            assert users_with_both_labels(ds) == want


class TestGroupStatsCache:
    """A Dataset counts its groups once; each call gets its own table."""

    def test_counts_once_and_names_groups_by_current_labels(self, rng,
                                                             monkeypatch):
        ds, _ = random_instance(rng, n_groups=3, n_rows=40)
        # the same rows under a schema without vocabularies
        ds = Dataset(replace(ds.schema, categories={}), ds.indices, ds.values,
                     ds.labels, ds.user_ids, ds.item_ids, ds.timestamps,
                     user_vocab=ds.user_vocab, item_vocab=ds.item_vocab)
        first = group_stats(ds)
        memberships = count_calls(monkeypatch, type(ds), "bias_memberships")
        # as a later file ingested through the same index names a group
        ds.index.index_of("group", "x", create=True)
        second = group_stats(ds)
        assert memberships == []
        assert first.labels == ("group:0", "group:1", "group:2")
        assert second.labels == ("x", "group:1", "group:2")
        np.testing.assert_array_equal(second.n_pos, first.n_pos)
        np.testing.assert_array_equal(second.n_neg, first.n_neg)
        assert evaluate(ds, np.zeros(len(ds))).group_labels == second.labels

    def test_returned_arrays_do_not_alias_the_counts(self, rng):
        ds, _ = random_instance(rng, n_groups=3, n_rows=40)
        first = group_stats(ds)
        want = (first.n_pos.copy(), first.n_neg.copy(), first.global_ratio)
        first.n_pos += 7
        first.n_neg[:] = -1
        first.global_ratio = 2.0
        again = group_stats(ds)
        np.testing.assert_array_equal(again.n_pos, want[0])
        np.testing.assert_array_equal(again.n_neg, want[1])
        assert again.global_ratio == want[2]

    def test_subset_gets_its_own_counts(self, rng):
        ds, _ = random_instance(rng, n_groups=3, n_rows=60)
        whole = group_stats(ds)
        rows = np.flatnonzero(ds.labels == 1)
        sub = group_stats(ds.subset(rows))
        assert sub.n_neg.sum() == 0
        np.testing.assert_array_equal(sub.n_pos, whole.n_pos)
        assert sub.global_ratio == 1.0
        assert group_stats(ds).global_ratio == whole.global_ratio


def as_dict(report):
    return json.dumps(report.to_json_dict(), sort_keys=True)
