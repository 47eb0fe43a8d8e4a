"""Weight reduction and reconstruction, including the coefficient search."""

import json
import math
import warnings

import numpy as np
import pytest

import oracles
from conftest import (count_calls, float_bits, make_dataset, make_schema,
                      random_dataset, random_params)
from ctrbias import evaluation, models
from ctrbias.analysis import bias_chain_report, ols_fit
from ctrbias.data import Dataset
from ctrbias.debias import (DEFAULT_GRID, DebiasConfig, fit_weight_residuals,
                            grid_search_reconstruction, reconstruct_weights,
                            reduce_weights)
from ctrbias.errors import ConfigError, NumericalError
from ctrbias.evaluation import evaluate, group_stats, ndcg_at_k, user_auc
from ctrbias.models import model_digest, predict, prediction_parts, rescore


def build_log(schema, rows_spec, split_tag="train"):
    """rows_spec: (user, item, group or [groups], label) tuples."""
    n_users = schema.cardinality("user")
    n_items = schema.cardinality("item")
    rows = []
    for t, (u, i, g, y) in enumerate(rows_spec):
        groups = g if isinstance(g, list) else [g]
        g_idx = [n_users + n_items + j for j in sorted(groups)]
        g_val = [1.0 / len(groups)] * len(groups)
        rows.append(([u, n_users + i] + g_idx, [1.0, 1.0] + g_val, y,
                     f"u{u}", f"i{i}", t))
    return make_dataset(schema, rows, split_tag=split_tag)


@pytest.fixture
def schema():
    return make_schema(3, 6, 3)


@pytest.fixture
def train_ds(schema):
    # all three groups exposed with distinct positive ratios 1/2, 1/3, 2/3
    spec = [(0, 0, 0, 1), (1, 1, 0, 0),
            (0, 2, 1, 1), (1, 3, 1, 0), (2, 4, 1, 0),
            (0, 5, 2, 1), (1, 0, 2, 1), (2, 1, 2, 0)]
    return build_log(schema, spec)


class TestDebiasConfig:
    def test_defaults(self):
        cfg = DebiasConfig()
        assert not hasattr(cfg, "alpha")  # reduction strength is not a config
        assert cfg.beta_grid == DEFAULT_GRID
        assert cfg.gamma_grid == DEFAULT_GRID
        assert cfg.variant == "vanilla"
        assert cfg.k == 5

    @pytest.mark.parametrize("kwargs", [
        {"beta_grid": (float("-inf"), 1.0)}, {"gamma_grid": (float("nan"),)},
        {"variant": "nonsense"},
        {"beta_grid": ()}, {"gamma_grid": ()},
        {"beta_grid": (1.0, float("nan"))},
        {"gamma_grid": (float("inf"),)},
        {"k": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            DebiasConfig(**kwargs)


class TestReduceWeights:
    def test_scales_only_the_bias_block(self, rng, schema):
        params = random_params(rng, schema.n, 4)
        lo, hi = schema.bias_range
        before = params.copy()
        out = reduce_weights(params, (lo, hi), 0.25)
        np.testing.assert_array_equal(out.w[lo:hi], before.w[lo:hi] * 0.25)
        np.testing.assert_array_equal(out.w[:lo], before.w[:lo])
        np.testing.assert_array_equal(out.V, before.V)
        assert out.w0 == before.w0
        # the source model is untouched
        np.testing.assert_array_equal(params.w, before.w)

    def test_alpha_one_is_identity_on_weights(self, rng, schema):
        params = random_params(rng, schema.n, 4)
        out = reduce_weights(params, schema.bias_range, 1.0)
        np.testing.assert_array_equal(out.w, params.w)

    def test_alpha_zero_clears_the_block(self, rng, schema):
        params = random_params(rng, schema.n, 4)
        lo, hi = schema.bias_range
        out = reduce_weights(params, (lo, hi), 0.0)
        assert (out.w[lo:hi] == 0.0).all()

    def test_reductions_compose(self, rng, schema):
        params = random_params(rng, schema.n, 4)
        r = schema.bias_range
        twice = reduce_weights(reduce_weights(params, r, 0.8), r, 0.5)
        once = reduce_weights(params, r, 0.4)
        np.testing.assert_array_equal(twice.w, once.w)

    def test_provenance(self, rng, schema):
        params = random_params(rng, schema.n, 4)
        source = model_digest(params)
        out = reduce_weights(params, schema.bias_range, 0.5)
        assert out.provenance == {"created_by": "reduce", "alpha": 0.5,
                                  "source_digest": source}

    def test_validation(self, rng, schema):
        params = random_params(rng, schema.n, 4)
        with pytest.raises(ConfigError):
            reduce_weights(params, schema.bias_range, 1.5)
        with pytest.raises(ConfigError):
            reduce_weights(params, schema.bias_range, -0.1)
        with pytest.raises(ConfigError):
            reduce_weights(params, (5, 5), 0.5)
        with pytest.raises(ConfigError):
            reduce_weights(params, (0, schema.n + 1), 0.5)


class TestUnbiasedRatios:
    """The grid's unbiased ratios are group_stats' filled ratios."""

    def test_hand_counts(self, schema):
        spec = [(0, 0, 0, 1), (1, 1, 0, 1), (2, 2, 0, 0),
                (0, 3, 1, 0), (1, 4, 1, 0)]
        stats = group_stats(build_log(schema, spec))
        assert stats.exposures.tolist() == [3, 2, 0]
        assert stats.n_pos.tolist() == [2, 0, 0]
        assert stats.global_ratio == 2.0 / 5.0
        assert stats.filled_ratio[0] == 2.0 / 3.0
        assert stats.filled_ratio[1] == 0.0
        assert stats.filled_ratio[2] == stats.global_ratio  # fallback
        assert stats.fallback_labels == ("g2",)

    def test_multi_group_rows_count_for_each(self, schema):
        spec = [(0, 0, [0, 1], 1), (1, 1, 2, 0)]
        stats = group_stats(build_log(schema, spec))
        assert stats.exposures.tolist() == [1, 1, 1]
        assert stats.filled_ratio.tolist() == [1.0, 1.0, 0.0]

    def test_empty_dataset_has_no_ratio(self, rng):
        ds = random_dataset(rng, n_rows=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stats = group_stats(ds.subset(np.array([], dtype=int)))
        assert math.isnan(stats.global_ratio)
        assert stats.fallback_labels == ds.bias_labels
        assert np.isnan(stats.filled_ratio).all()


def residuals_of(params, train_ds):
    lo, hi = train_ds.schema.bias_range
    return fit_weight_residuals(params.w[lo:hi], group_stats(train_ds))


class TestWeightResiduals:
    def test_residual_formula(self, rng, schema, train_ds):
        params = random_params(rng, schema.n, 4)
        lo, hi = schema.bias_range
        stats = group_stats(train_ds)
        residuals = fit_weight_residuals(params.w[lo:hi], stats)
        fit = ols_fit(stats.ratio, params.w[lo:hi])
        predicted = fit.intercept + fit.coef[0] * stats.filled_ratio
        np.testing.assert_array_equal(residuals, params.w[lo:hi] - predicted)
        assert stats.fallback_labels == ()
        # with every group exposed, the regressor is the group train ratio
        np.testing.assert_allclose(stats.filled_ratio, [0.5, 1 / 3, 2 / 3],
                                   atol=1e-15)
        # OLS residuals over the fitted groups sum to ~zero
        assert abs(residuals.sum()) < 1e-9

    def test_fallback_regressor_is_global_ratio(self, rng, schema):
        spec = [(0, 0, 0, 1), (1, 1, 0, 0), (0, 2, 1, 1), (1, 3, 1, 1)]
        ds = build_log(schema, spec)
        params = random_params(rng, schema.n, 4)
        lo, hi = schema.bias_range
        stats = group_stats(ds)
        residuals = fit_weight_residuals(params.w[lo:hi], stats)
        assert stats.fallback_labels == ("g2",)
        assert stats.filled_ratio[2] == 3.0 / 4.0
        fit = ols_fit(stats.ratio[:2], params.w[lo:hi - 1])
        assert residuals[2] == params.w[hi - 1] - (
            fit.intercept + fit.coef[0] * (3.0 / 4.0))

    def test_single_defined_group_raises(self, rng, schema):
        spec = [(0, 0, 0, 1), (1, 1, 0, 0), (2, 2, 0, 1)]
        ds = build_log(schema, spec)
        params = random_params(rng, schema.n, 4)
        lo, hi = schema.bias_range
        with pytest.raises(ConfigError, match="at least two groups"):
            fit_weight_residuals(params.w[lo:hi], group_stats(ds))


class TestOneGroupTable:
    """Every per-group count and fallback in the package is group_stats'."""

    # g0 and g1 share two rows; no row carries g2
    SPEC = [(0, 0, [0, 1], 1), (0, 1, 0, 0), (0, 2, 1, 0),
            (1, 3, 0, 1), (1, 4, [0, 1], 0), (1, 5, 1, 1),
            (2, 0, 1, 0), (2, 1, 0, 1), (2, 2, 0, 0)]

    def test_counts_fallbacks_and_the_unexposed_weight(self, rng, schema):
        log = build_log(schema, self.SPEC)
        stats = group_stats(log)
        assert stats.n_pos.tolist() == [3, 2, 0]
        assert stats.n_neg.tolist() == [3, 3, 0]
        assert stats.global_ratio == 4.0 / 9.0
        assert stats.fallback_labels == ("g2",)
        params = random_params(rng, schema.n, 4)

        report = evaluate(log, predict(params, log.indices, log.values))
        assert report.group_exposures == stats.exposures.tolist()
        assert report.group_positives == stats.n_pos.tolist()
        chain = bias_chain_report(params, log, eval_ds=log)
        assert chain.train_stats.labels == stats.labels
        np.testing.assert_array_equal(chain.train_stats.n_pos, stats.n_pos)
        np.testing.assert_array_equal(chain.train_stats.n_neg, stats.n_neg)

        best, result = grid_search_reconstruction(params, log, log)
        assert result.ratio_fallback_labels == stats.fallback_labels
        assert result.residual_fallback_labels == stats.fallback_labels
        lo, hi = schema.bias_range
        w = params.w[lo:hi]
        fit = ols_fit(stats.ratio[:2], w[:2])
        residual = w[2] - (fit.intercept + fit.coef[0] * stats.global_ratio)
        assert best.w[hi - 1] == (result.best.beta * stats.global_ratio
                                  + result.best.gamma * residual)


class TestReconstructWeights:
    def test_exact_formula_and_isolation(self, rng, schema):
        params = random_params(rng, schema.n, 4)
        lo, hi = schema.bias_range
        ratios = rng.normal(size=hi - lo)
        residuals = rng.normal(size=hi - lo)
        before = params.copy()
        out = reconstruct_weights(params, (lo, hi), ratios, residuals,
                                  beta=3.0, gamma=0.5)
        np.testing.assert_array_equal(out.w[lo:hi],
                                      3.0 * ratios + 0.5 * residuals)
        np.testing.assert_array_equal(out.w[:lo], before.w[:lo])
        np.testing.assert_array_equal(out.V, before.V)
        np.testing.assert_array_equal(params.w, before.w)
        assert out.provenance == {
            "created_by": "reconstruct", "beta": 3.0, "gamma": 0.5,
            "source_digest": model_digest(before)}

    def test_shape_checks(self, rng, schema):
        params = random_params(rng, schema.n, 4)
        lo, hi = schema.bias_range
        good = np.zeros(hi - lo)
        with pytest.raises(ConfigError):
            reconstruct_weights(params, (lo, hi), np.zeros(hi - lo + 1),
                                good, 1.0, 1.0)
        with pytest.raises(ConfigError):
            reconstruct_weights(params, (lo, hi), good,
                                np.zeros(hi - lo - 1), 1.0, 1.0)
        with pytest.raises(ConfigError):
            reconstruct_weights(params, (0, params.n + 1), good, good, 1.0, 1.0)


def unbiased_log(schema, group_of_item=None):
    """Balanced per-user log over all items with alternating labels."""
    spec = []
    for u in range(3):
        for i in range(6):
            g = (i % 3) if group_of_item is None else group_of_item(i)
            spec.append((u, i, g, (i + u) % 2))
    return build_log(schema, spec, split_tag="unbiased-val")


class TestGridSearch:
    def test_variant_grids(self, rng, schema, train_ds):
        params = random_params(rng, schema.n, 4)
        unbiased = unbiased_log(schema)
        cfg_kw = {"beta_grid": (2.0, 1.0, 2.0), "gamma_grid": (4.0, 3.0)}
        _, vanilla = grid_search_reconstruction(
            params, train_ds, unbiased, DebiasConfig(**cfg_kw))
        assert [(p.beta, p.gamma) for p in vanilla.table] == [
            (1.0, 3.0), (1.0, 4.0), (2.0, 3.0), (2.0, 4.0)]
        _, wo_ratio = grid_search_reconstruction(
            params, train_ds, unbiased,
            DebiasConfig(variant="wo_ratio", **cfg_kw))
        assert [(p.beta, p.gamma) for p in wo_ratio.table] == [
            (0.0, 3.0), (0.0, 4.0)]
        _, wo_residual = grid_search_reconstruction(
            params, train_ds, unbiased,
            DebiasConfig(variant="wo_residual", **cfg_kw))
        assert [(p.beta, p.gamma) for p in wo_residual.table] == [
            (1.0, 0.0), (2.0, 0.0)]

    def test_best_is_argmax_with_lex_smallest_tie_break(self, rng, schema,
                                                        train_ds):
        params = random_params(rng, schema.n, 4)
        unbiased = unbiased_log(schema)
        _, result = grid_search_reconstruction(params, train_ds, unbiased)
        best_uauc = max(p.uauc for p in result.table)
        assert result.best.uauc == best_uauc
        ties = [(p.beta, p.gamma) for p in result.table if p.uauc == best_uauc]
        assert (result.best.beta, result.best.gamma) == min(ties)
        assert len(result.table) == len(DEFAULT_GRID) ** 2

    def test_single_group_exposure_ties_resolve_to_smallest(self, rng, schema,
                                                            train_ds):
        # every unbiased row carries group 0, so changing group weights
        # shifts each user's scores by a constant: all grid points tie
        params = random_params(rng, schema.n, 4)
        unbiased = unbiased_log(schema, group_of_item=lambda i: 0)
        best, result = grid_search_reconstruction(params, train_ds, unbiased)
        assert {p.uauc for p in result.table} == {result.best.uauc}
        assert (result.best.beta, result.best.gamma) == (1.0, 1.0)
        assert result.ratio_fallback_labels == ("g1", "g2")

    def test_best_params_match_reported_coefficients(self, rng, schema,
                                                     train_ds):
        params = random_params(rng, schema.n, 4)
        unbiased = unbiased_log(schema)
        digest_before = model_digest(params)
        best, result = grid_search_reconstruction(params, train_ds, unbiased)
        ratios = group_stats(unbiased).filled_ratio
        residuals = residuals_of(params, train_ds)
        lo, hi = schema.bias_range
        np.testing.assert_array_equal(
            best.w[lo:hi],
            result.best.beta * ratios + result.best.gamma * residuals)
        np.testing.assert_array_equal(best.V, params.V)
        np.testing.assert_array_equal(best.w[:lo], params.w[:lo])
        assert best.provenance == {
            "created_by": "reconstruct", "variant": "vanilla",
            "beta": result.best.beta, "gamma": result.best.gamma,
            "source_digest": digest_before}
        # the search must not touch its input model
        assert model_digest(params) == digest_before
        json.dumps(result.to_json_dict())

    def test_all_users_single_class_raises(self, rng, schema, train_ds):
        params = random_params(rng, schema.n, 4)
        spec = [(u, i, i % 3, 1) for u in range(3) for i in range(4)]
        degenerate = build_log(schema, spec, split_tag="unbiased-val")
        with pytest.raises(ConfigError, match="both a positive and a negative"):
            grid_search_reconstruction(params, train_ds, degenerate)

    def test_empty_unbiased_split_rejected(self, rng, schema, train_ds):
        params = random_params(rng, schema.n, 4)
        empty = train_ds.subset(np.array([], dtype=int))
        with pytest.raises(ConfigError):
            grid_search_reconstruction(params, train_ds, empty)

    def test_ndcg_is_recorded_but_not_the_criterion(self, rng, schema,
                                                    train_ds):
        params = random_params(rng, schema.n, 4)
        unbiased = unbiased_log(schema)
        _, result = grid_search_reconstruction(params, train_ds, unbiased,
                                               DebiasConfig(k=2))
        for p in result.table:
            assert math.isfinite(p.ndcg)


class TestRescoreCorrected:
    """A correction changes only linear weights, so the base model's
    high-order part rescored on a corrected model is predict() on it."""

    @pytest.mark.parametrize("chunk", [1, 3, 1024])
    @pytest.mark.parametrize("arch", ["fm", "nfm"])
    def test_equals_predict_bit_for_bit(self, rng, monkeypatch, arch, chunk):
        monkeypatch.setattr(models, "PREDICT_CHUNK", chunk)
        ds = random_dataset(rng, n_users=6, n_items=9, n_groups=4, n_rows=40,
                            multi_group_prob=0.3)
        base = random_params(rng, ds.schema.n, 3, arch=arch)
        bias_range = ds.schema.bias_range
        k = bias_range[1] - bias_range[0]
        high = prediction_parts(base, ds.indices, ds.values).high_order
        for corrected in (reduce_weights(base, bias_range, 0.3),
                          reconstruct_weights(base, bias_range, rng.random(k),
                                              rng.normal(size=k), 4.0, 0.5)):
            _, logits = rescore(corrected, high, ds.indices, ds.values)
            assert float_bits(logits) == float_bits(
                predict(corrected, ds.indices, ds.values))


class TestGridScoresMatchPredict:
    """Each grid row scores exactly what predict() gives the rebuilt model."""

    GRID = (0.5, 1.0, 3.0)

    def search(self, rng, arch):
        kw = dict(n_users=6, n_items=9, n_groups=4)
        train_ds = random_dataset(rng, n_rows=120, **kw)
        unbiased = random_dataset(rng, n_rows=90, multi_group_prob=0.3,
                                  split_tag="unbiased-val", **kw)
        params = random_params(rng, train_ds.schema.n, 3, arch=arch)
        cfg = DebiasConfig(beta_grid=self.GRID, gamma_grid=self.GRID, k=3)
        return params, train_ds, unbiased, grid_search_reconstruction(
            params, train_ds, unbiased, cfg)

    @pytest.mark.parametrize("arch", ["fm", "nfm"])
    def test_every_row_equals_rescoring(self, rng, arch, monkeypatch):
        scored = count_calls(monkeypatch, evaluation.UserBlocks, "rank")
        params, train_ds, unbiased, (best, result) = self.search(rng, arch)
        ratios = group_stats(unbiased).filled_ratio
        residuals = residuals_of(params, train_ds)
        assert len(result.table) == len(scored) == len(self.GRID) ** 2
        for point, (args, _) in zip(result.table, scored):
            rebuilt = reconstruct_weights(params, train_ds.schema.bias_range,
                                          ratios, residuals, point.beta,
                                          point.gamma)
            scores = predict(rebuilt, unbiased.indices, unbiased.values)
            np.testing.assert_array_equal(args[1], scores)
            assert point.uauc == user_auc(unbiased.user_ids, scores,
                                          unbiased.labels)[0]
            assert point.ndcg == ndcg_at_k(unbiased.user_ids, scores,
                                           unbiased.labels, unbiased.item_ids,
                                           3)[0]
        scores = predict(best, unbiased.indices, unbiased.values)
        assert result.best.uauc == user_auc(unbiased.user_ids, scores,
                                            unbiased.labels)[0]

    def test_wide_rows_best_equals_evaluate(self, rng, monkeypatch):
        # 8 bias cells a row make 10 entries, which numpy's row sum adds
        # pairwise: adding the columns one at a time would round otherwise.
        # Each (user, item) pair repeats with both labels and its cells in
        # another column order, so any such rounding moves a tie.
        n_users, n_items, n_groups = 5, 8, 10
        schema = make_schema(n_users, n_items, n_groups)

        def log(n_pairs, split_tag):
            rows = []
            for _ in range(n_pairs):
                u, i = int(rng.integers(n_users)), int(rng.integers(n_items))
                groups = rng.choice(n_groups, size=8, replace=False)
                for y in (0, 1):
                    cells = [n_users + n_items + g
                             for g in rng.permutation(groups)]
                    rows.append(([u, n_users + i] + cells,
                                 [1.0, 1.0] + [0.125] * 8, y, f"u{u}",
                                 f"i{i}", len(rows)))
            return make_dataset(schema, rows, split_tag=split_tag)

        train_ds, unbiased = log(60, "train"), log(80, "unbiased-val")
        assert unbiased.indices.shape[1] == 10
        params = random_params(rng, schema.n, 3)
        scored = count_calls(monkeypatch, evaluation.UserBlocks, "rank")
        cfg = DebiasConfig(beta_grid=self.GRID, gamma_grid=self.GRID, k=3)
        best, result = grid_search_reconstruction(params, train_ds, unbiased,
                                                  cfg)
        scores = predict(best, unbiased.indices, unbiased.values)
        at_best = next(args[1] for point, (args, _)
                       in zip(result.table, scored) if point is result.best)
        assert float_bits(at_best) == float_bits(scores)
        assert float_bits(result.best.uauc) == float_bits(
            evaluate(unbiased, scores, 3).uauc)

    def test_search_builds_blocks_once_and_ranks_once_per_point(
            self, rng, monkeypatch):
        builds = count_calls(monkeypatch, evaluation.UserBlocks, "__init__")
        ranks = count_calls(monkeypatch, evaluation.UserBlocks, "rank")
        aucs = count_calls(monkeypatch, evaluation, "user_auc")
        ndcgs = count_calls(monkeypatch, evaluation, "ndcg_at_k")
        _, _, unbiased, (best, result) = self.search(rng, "fm")
        assert len(builds) == 1
        assert len(ranks) == len(self.GRID) ** 2
        assert len(result.table) + len(result.errors) == len(ranks)
        assert aucs == ndcgs == []
        # evaluating on the searched split reuses the search's blocks
        evaluate(unbiased, predict(best, unbiased.indices, unbiased.values))
        assert len(builds) == 1

    @pytest.mark.parametrize("arch", ["fm", "nfm"])
    def test_string_ids_give_the_interned_ids_table(self, rng, arch):
        # as strings u10 < u2 and i10 < i2, so codes follow that order;
        # recoding into a wider vocabulary moves every code but no order
        kw = dict(n_users=12, n_items=15, n_groups=4)
        train_ds = random_dataset(rng, n_rows=150, **kw)
        unbiased = random_dataset(rng, n_rows=200, multi_group_prob=0.3,
                                  split_tag="unbiased-val", **kw)

        def widened(vocab):
            return np.sort(np.concatenate([vocab, np.char.add(vocab, "~")]))

        user_vocab = widened(unbiased.user_vocab)
        item_vocab = widened(unbiased.item_vocab)
        coded = Dataset(unbiased.schema, unbiased.indices, unbiased.values,
                        unbiased.labels,
                        np.searchsorted(user_vocab, oracles.users_of(unbiased)),
                        np.searchsorted(item_vocab, oracles.items_of(unbiased)),
                        unbiased.timestamps, split_tag=unbiased.split_tag,
                        user_vocab=user_vocab, item_vocab=item_vocab)
        assert not np.array_equal(coded.user_ids, unbiased.user_ids)
        params = random_params(rng, train_ds.schema.n, 3, arch=arch)
        cfg = DebiasConfig(beta_grid=self.GRID, gamma_grid=self.GRID, k=3)
        by_strings = grid_search_reconstruction(params, train_ds, unbiased, cfg)
        by_codes = grid_search_reconstruction(params, train_ds, coded, cfg)
        assert by_strings[1].to_json_dict() == by_codes[1].to_json_dict()
        assert model_digest(by_strings[0]) == model_digest(by_codes[0])

    def test_nan_scores_raise_numerical_error(self, rng):
        kw = dict(n_users=6, n_items=9, n_groups=4)
        train_ds = random_dataset(rng, n_rows=120, **kw)
        unbiased = random_dataset(rng, n_rows=90, split_tag="unbiased-val",
                                  **kw)
        params = random_params(rng, train_ds.schema.n, 3)
        params.V[int(unbiased.indices[0, 0])] = np.nan  # one user's factor
        with pytest.raises(NumericalError, match="not finite"):
            grid_search_reconstruction(params, train_ds, unbiased)

    def test_search_scores_the_model_once(self, rng, monkeypatch):
        predicts = count_calls(monkeypatch, models, "predict")
        parts = count_calls(monkeypatch, models, "prediction_parts")
        self.search(rng, "nfm")
        assert predicts == []
        assert len(parts) == 1
