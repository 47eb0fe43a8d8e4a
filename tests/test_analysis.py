"""Statistical helpers against scipy, mpmath, and hand-worked examples."""

import json
import math

import mpmath
import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from conftest import (float_bits, make_dataset, make_schema, random_dataset,
                      random_params)
from ctrbias import numeric
from ctrbias.analysis import (BiasChainReport, CorrelationResult,
                              RegressionFit, VarianceDecomposition,
                              bias_chain_report, ols_fit, pearson, spearman,
                              variance_decomposition)
from ctrbias.errors import (ConfigError, MetricError, NumericalError,
                            UndefinedCorrelationError)
from ctrbias.evaluation import GroupStats, evaluate, group_stats
from ctrbias.models import PredictionParts, predict
from ctrbias.numeric import regularized_incomplete_beta, student_t_two_sided_p
from ctrbias.synth import SynthConfig, generate

AB_GRID = [0.5, 1.0, 2.5, 7.0, 30.0]
X_GRID = [0.001, 0.02, 0.1, 0.3, 0.5, 0.62, 0.77, 0.9, 0.98, 0.999]


class TestIncompleteBeta:
    def test_matches_scipy_on_grid(self):
        for a in AB_GRID:
            for b in AB_GRID:
                for x in X_GRID:
                    got = regularized_incomplete_beta(a, b, x)
                    want = float(scipy.special.betainc(a, b, x))
                    assert got == pytest.approx(want, rel=1e-10, abs=1e-13), \
                        (a, b, x)

    def test_matches_mpmath_spot_checks(self):
        mpmath.mp.dps = 50
        for a, b, x in [(0.5, 0.5, 0.25), (3.0, 2.0, 0.7), (14.5, 0.5, 0.93),
                        (100.0, 0.5, 0.999), (2.0, 40.0, 0.01)]:
            want = float(mpmath.betainc(a, b, 0, x, regularized=True))
            got = regularized_incomplete_beta(a, b, x)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15), (a, b, x)

    def test_endpoints_are_exact(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_complement_symmetry(self):
        # I_x(a, b) + I_{1-x}(b, a) = 1
        for a, b, x in [(2.0, 5.0, 0.3), (0.7, 0.9, 0.6), (11.0, 3.0, 0.85)]:
            total = (regularized_incomplete_beta(a, b, x)
                     + regularized_incomplete_beta(b, a, 1.0 - x))
            assert total == pytest.approx(1.0, abs=1e-13)

    def test_equals_the_two_step_continued_fraction(self, monkeypatch):
        # one Lentz step per coefficient, looped over term m's even and odd
        # coefficients, rounds exactly as the two steps written out
        cases = [(regularized_incomplete_beta, (a, b, x))
                 for a in (0.5, 1.0, 2.5, 7.0, 30.0, 120.0, 900.0, 5000.0)
                 for b in (0.5, 1.0, 3.0, 11.0, 40.0, 300.0)
                 for x in np.linspace(0.0005, 0.9995, 57)]
        cases += [(student_t_two_sided_p, (t, dof)) for dof in range(1, 200)
                  for t in (0.05, 0.4, 1.0, 1.7, 2.5, 4.0, 9.0, 60.0)]
        got = [float_bits(fn(*args)) for fn, args in cases]
        monkeypatch.setattr(numeric, "_betacf", oracles.betacf_two_step_reference)
        assert [float_bits(fn(*args)) for fn, args in cases] == got

    @pytest.mark.parametrize("a,b,x", [
        (0.0, 1.0, 0.5), (-1.0, 2.0, 0.5), (1.0, 0.0, 0.5),
        (1.0, 1.0, -0.1), (1.0, 1.0, 1.1),
    ])
    def test_domain_errors(self, a, b, x):
        with pytest.raises(NumericalError):
            regularized_incomplete_beta(a, b, x)


class TestStudentT:
    def test_matches_scipy_tail(self):
        for dof in [1, 2, 3.5, 10, 100, 2000]:
            for t in [0.0, 0.3, 1.0, 2.5, 7.0, 30.0, 1e3]:
                got = student_t_two_sided_p(t, dof)
                want = 2.0 * float(scipy.stats.t.sf(abs(t), dof))
                assert got == pytest.approx(want, rel=1e-10, abs=1e-14), (t, dof)

    def test_zero_statistic_gives_one(self):
        assert student_t_two_sided_p(0.0, 5) == 1.0

    def test_symmetric_in_sign(self):
        assert student_t_two_sided_p(-2.5, 7) == student_t_two_sided_p(2.5, 7)

    def test_infinite_statistic_gives_zero(self):
        assert student_t_two_sided_p(float("inf"), 3) == 0.0

    def test_invalid_dof(self):
        with pytest.raises(NumericalError):
            student_t_two_sided_p(1.0, 0)


class TestPearson:
    def test_matches_scipy(self, rng):
        for _ in range(25):
            n = int(rng.integers(5, 40))
            x = rng.normal(size=n)
            y = 0.5 * x + rng.normal(size=n)
            got = pearson(x, y)
            want_r, want_p = scipy.stats.pearsonr(x, y)
            assert got.r == pytest.approx(float(want_r), abs=1e-12)
            assert got.p_value == pytest.approx(float(want_p), rel=1e-9,
                                               abs=1e-13)
            assert got.n == n
            assert got.method == "pearson"

    def test_two_points_have_nan_p(self):
        res = pearson([0.0, 1.0], [3.0, 5.0])
        assert res.r == pytest.approx(1.0, abs=1e-12)
        assert math.isnan(res.p_value)

    def test_perfect_correlation_has_zero_p(self):
        # centered x has unit sum of squares, so r is computed exactly
        x = np.array([0.0, 0.0, 1.0, 1.0])
        plus = pearson(x, x)
        assert plus.r == 1.0 and plus.p_value == 0.0
        minus = pearson(x, 1.0 - x)
        assert minus.r == -1.0 and minus.p_value == 0.0

    @settings(max_examples=150, deadline=None)
    @given(values=st.lists(st.integers(-10**6, 10**6), min_size=3, max_size=30),
           sign=st.sampled_from([1.0, -1.0]), k=st.integers(-300, 300))
    def test_matches_scipy_at_unit_r(self, values, sign, k):
        # inputs whose centred forms differ by a power of two: r is +-1
        # exactly and p is 0, where the rounded norms left r an ulp short
        x = np.array(values, dtype=np.float64) / 1e6
        assume(len(set(x)) > 1)
        y = sign * np.ldexp(x, k)
        got = pearson(x, y)
        want = scipy.stats.pearsonr(x, y)
        assert float_bits(got.r) == float_bits(sign) and got.p_value == 0.0
        assert got.r == pytest.approx(float(want.statistic), abs=1e-12)

    def test_r_stays_in_unit_interval(self, rng):
        for _ in range(20):
            x = rng.normal(size=6)
            res = pearson(x, 3.0 * x + 1e-9 * rng.normal(size=6))
            assert -1.0 <= res.r <= 1.0

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_huge_and_tiny_inputs_keep_their_correlation(self, scale):
        # squaring raw deviations overflowed at 1e200 (r = 0 with a
        # warning) and underflowed at 1e-200 (refused as constant)
        x = [1.0 * scale, 2.0 * scale, 3.5 * scale]
        res = pearson(x, [1.0, 2.0, 3.0])
        want = scipy.stats.pearsonr(x, [1.0, 2.0, 3.0])
        assert round(res.r, 5) == 0.99340
        assert res.r == pytest.approx(float(want.statistic), abs=1e-12)
        assert res.p_value == pytest.approx(float(want.pvalue), rel=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(pairs=st.lists(st.tuples(st.integers(-10**6, 10**6),
                                    st.integers(-10**6, 10**6)),
                          min_size=3, max_size=30),
           ex=st.integers(-300, 300), ey=st.integers(-300, 300))
    def test_matches_scipy_at_any_scale(self, pairs, ex, ey):
        x, y = (np.array(v, dtype=np.float64) / 1e6 for v in zip(*pairs))
        assume(len(set(x)) > 1 and len(set(y)) > 1)
        x, y = x * 10.0 ** ex, y * 10.0 ** ey
        got = pearson(x, y)
        want = scipy.stats.pearsonr(x, y)
        assert got.r == pytest.approx(float(want.statistic), abs=1e-12)
        if abs(want.statistic) < 1.0 - 1e-6:  # p is ill-conditioned at |r| = 1
            assert got.p_value == pytest.approx(float(want.pvalue), rel=1e-8,
                                               abs=1e-13)

    @settings(max_examples=100, deadline=None)
    @given(pairs=st.lists(st.tuples(st.integers(-10**6, 10**6),
                                    st.integers(-10**6, 10**6)),
                          min_size=3, max_size=30),
           kx=st.integers(-900, 900), ky=st.integers(-900, 900))
    def test_power_of_two_scaling_moves_no_bit(self, pairs, kx, ky):
        x, y = (np.array(v, dtype=np.float64) / 1e6 for v in zip(*pairs))
        assume(len(set(x)) > 1 and len(set(y)) > 1)
        got = pearson(np.ldexp(x, kx), np.ldexp(y, ky))
        want = pearson(x, y)
        assert float_bits(got.r) == float_bits(want.r)
        assert float_bits(got.p_value) == float_bits(want.p_value)

    def test_error_paths(self):
        with pytest.raises(UndefinedCorrelationError):
            pearson([1.0], [2.0])
        with pytest.raises(UndefinedCorrelationError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(UndefinedCorrelationError):
            pearson([1.0, float("nan"), 3.0], [1.0, 2.0, 3.0])
        with pytest.raises(ConfigError):
            pearson([1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(ConfigError):
            pearson(np.zeros((2, 2)), np.zeros((2, 2)))


class TestSpearman:
    def test_matches_scipy_with_ties(self, rng):
        for _ in range(25):
            n = int(rng.integers(5, 40))
            x = rng.integers(0, 6, size=n).astype(np.float64)
            y = x + rng.integers(0, 4, size=n)
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            got = spearman(x, y)
            want = scipy.stats.spearmanr(x, y)
            assert got.r == pytest.approx(float(want.statistic), abs=1e-12)
            assert got.p_value == pytest.approx(float(want.pvalue), rel=1e-9,
                                               abs=1e-13)
            assert got.method == "spearman"

    def test_invariant_under_monotone_transform(self, rng):
        x = rng.integers(-5, 6, size=20).astype(np.float64)
        y = rng.normal(size=20)
        if len(set(x)) < 2:
            x[0], x[1] = -7.0, 7.0
        base = spearman(x, y)
        cubed = spearman(x ** 3, y)
        assert base.r == cubed.r and base.p_value == cubed.p_value

    @settings(max_examples=100, deadline=None)
    @given(pairs=st.lists(st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
                          min_size=3, max_size=30),
           ex=st.integers(-300, 300), ey=st.integers(-300, 300))
    def test_matches_scipy_at_any_scale(self, pairs, ex, ey):
        x, y = (np.array(v, dtype=np.float64) * 10.0 ** e
                for v, e in zip(zip(*pairs), (ex, ey)))
        assume(len(set(x)) > 1 and len(set(y)) > 1)
        got = spearman(x, y)
        want = scipy.stats.spearmanr(x, y)
        assert got.r == pytest.approx(float(want.statistic), abs=1e-12)
        if abs(want.statistic) < 1.0 - 1e-6:  # p is ill-conditioned at |r| = 1
            assert got.p_value == pytest.approx(float(want.pvalue), rel=1e-8,
                                               abs=1e-13)

    def test_equal_ranks_give_unit_r_and_zero_p(self):
        # r was 0.9999999999999998 and p 1.3e-8 here; scipy gives 1 and 0
        for x, y, r in (([2, 3, 1], [2, 3, 1], 1.0), ([2, 3, 1], [-2, -3, -1], -1.0)):
            res = spearman(x, y)
            want = scipy.stats.spearmanr(x, y)
            assert (res.r, res.p_value) == (r, 0.0) == (want.statistic, want.pvalue)

    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(st.integers(-20, 20), min_size=3, max_size=30),
           sign=st.sampled_from([1, -1]))
    def test_matches_scipy_at_unit_r(self, values, sign):
        # a monotone map keeps the ranks, ties included; negating reverses
        # them, and the reversed ranks can fall in another binade
        x = np.array(values, dtype=np.float64)
        assume(len(set(x)) > 1)
        y = sign * (x ** 3 + 5.0)
        got = spearman(x, y)
        want = scipy.stats.spearmanr(x, y)
        assert got.r == sign and got.p_value == 0.0
        assert got.r == pytest.approx(float(want.statistic), abs=1e-12)

    def test_non_finite_rejected_before_ranking(self):
        with pytest.raises(UndefinedCorrelationError):
            spearman([1.0, float("inf")], [1.0, 2.0])

    def test_unequal_or_non_1d_inputs_rejected(self):
        with pytest.raises(ConfigError):
            spearman([1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(ConfigError):
            spearman(np.zeros((2, 2)), np.zeros((2, 2)))


class TestOls:
    def test_residual_orthogonality(self, rng):
        x = rng.normal(size=30)
        y = 1.5 * x + rng.normal(size=30)
        fit = ols_fit(x, y)
        assert isinstance(fit, RegressionFit)
        assert abs(fit.residuals.sum()) < 1e-9
        assert abs(fit.residuals @ x) < 1e-9
        np.testing.assert_allclose(fit.fitted + fit.residuals, y, atol=1e-12)

    def test_matches_polyfit(self, rng):
        x = rng.normal(size=25)
        y = -0.7 * x + 0.3 + 0.1 * rng.normal(size=25)
        fit = ols_fit(x, y)
        slope, intercept = np.polyfit(x, y, 1)
        assert fit.coef[0] == pytest.approx(float(slope), rel=1e-8)
        assert fit.intercept == pytest.approx(float(intercept), rel=1e-8)

    def test_exact_line_is_recovered(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        fit = ols_fit(x, 3.0 + 2.0 * x)
        assert fit.intercept == pytest.approx(3.0, abs=1e-10)
        assert fit.coef[0] == pytest.approx(2.0, abs=1e-10)
        np.testing.assert_allclose(fit.residuals, 0.0, atol=1e-10)

    def test_multi_column(self, rng):
        X = rng.normal(size=(40, 3))
        y = X @ np.array([1.0, -2.0, 0.5]) + 4.0 + rng.normal(size=40)
        fit = ols_fit(X, y)
        assert fit.coef.shape == (3,)
        assert abs(fit.residuals.sum()) < 1e-8
        for j in range(3):
            assert abs(fit.residuals @ X[:, j]) < 1e-8

    def test_validation(self):
        with pytest.raises(ConfigError):
            ols_fit(np.zeros((3, 2)), np.zeros(4))
        with pytest.raises(ConfigError):
            ols_fit(np.zeros(3), np.zeros((3, 1)))
        with pytest.raises(ConfigError):
            ols_fit([1.0], [2.0])


class TestGroupStats:
    def test_matches_row_enumeration(self, rng):
        ds = random_dataset(rng, n_rows=60, multi_group_prob=0.3)
        stats = group_stats(ds)
        g = ds.schema.num_groups
        n_pos = np.zeros(g, dtype=np.int64)
        n_neg = np.zeros(g, dtype=np.int64)
        for i in range(len(ds)):
            for j in oracles.bias_entries(ds, i):
                if ds.labels[i] == 1:
                    n_pos[j] += 1
                else:
                    n_neg[j] += 1
        np.testing.assert_array_equal(stats.n_pos, n_pos)
        np.testing.assert_array_equal(stats.n_neg, n_neg)
        np.testing.assert_array_equal(stats.diff, n_pos - n_neg)
        for j in range(g):
            total = n_pos[j] + n_neg[j]
            if total == 0:
                assert math.isnan(stats.ratio[j])
            else:
                assert stats.ratio[j] == n_pos[j] / total
        json.dumps(stats.to_json_dict())

    def test_hand_example_with_empty_group(self):
        schema = make_schema(2, 3, 3)
        stats = group_stats(make_dataset(schema, [
            ([0, 2, 5], [1.0, 1.0, 1.0], 1, "u0", "i0", 0),
            ([1, 3, 5], [1.0, 1.0, 1.0], 0, "u1", "i1", 1),
            ([0, 4, 6], [1.0, 1.0, 1.0], 1, "u0", "i2", 2),
        ]))
        assert stats.n_pos.tolist() == [1, 1, 0]
        assert stats.n_neg.tolist() == [1, 0, 0]
        assert stats.ratio[0] == 0.5
        assert stats.ratio[1] == 1.0
        assert math.isnan(stats.ratio[2])


def vd_brute(ds, linear, high_order):
    """Per-label variance of group means by explicit enumeration."""
    g = ds.schema.num_groups
    out = {"linear": [0.0, 0.0], "high_order": [0.0, 0.0]}
    for name, arr in (("linear", linear), ("high_order", high_order)):
        for y in (0, 1):
            groups = {}
            for i in range(len(ds)):
                if ds.labels[i] != y:
                    continue
                for j in oracles.bias_entries(ds, i):
                    groups.setdefault(j, []).append(float(arr[i]))
            if len(groups) < 2:
                return None
            means = [sum(v) / len(v) for v in groups.values()]
            mu = sum(means) / len(means)
            out[name][y] = sum((m - mu) ** 2 for m in means) / len(means)
    return out


class TestVarianceDecomposition:
    def make_parts(self, linear, high_order):
        linear = np.asarray(linear, dtype=np.float64)
        high_order = np.asarray(high_order, dtype=np.float64)
        return PredictionParts(logits=linear + high_order, linear=linear,
                               high_order=high_order)

    def test_hand_example(self):
        schema = make_schema(1, 4, 2)
        ds = make_dataset(schema, [
            ([0, 1 + i, 5 + g], [1.0, 1.0, 1.0], y, "u0", f"i{i}", i)
            for i, (g, y) in enumerate([(0, 1), (0, 0), (1, 1), (1, 0)])])
        parts = self.make_parts([1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 10.0, 10.0])
        vd = variance_decomposition(ds, parts)
        assert vd.linear == (1.0, 1.0)
        assert vd.high_order == (25.0, 25.0)
        json.dumps(vd.to_json_dict())

    def test_matches_enumeration(self, rng):
        done = 0
        while done < 10:
            ds = random_dataset(rng, n_users=4, n_items=6, n_groups=3,
                                n_rows=60, multi_group_prob=0.3)
            linear = rng.normal(size=len(ds))
            high = rng.normal(size=len(ds))
            want = vd_brute(ds, linear, high)
            if want is None:
                with pytest.raises(MetricError):
                    variance_decomposition(ds, self.make_parts(linear, high))
                continue
            got = variance_decomposition(ds, self.make_parts(linear, high))
            for y in (0, 1):
                assert got.linear[y] == pytest.approx(want["linear"][y],
                                                      rel=1e-12, abs=1e-15)
                assert got.high_order[y] == pytest.approx(
                    want["high_order"][y], rel=1e-12, abs=1e-15)
            done += 1

    def test_single_group_label_raises(self):
        schema = make_schema(1, 4, 2)
        layout = [(0, 1), (1, 1), (0, 0), (0, 0)]  # label 0 only in group 0
        ds = make_dataset(schema, [
            ([0, 1 + i, 5 + g], [1.0, 1.0, 1.0], y, "u0", f"i{i}", i)
            for i, (g, y) in enumerate(layout)])
        parts = self.make_parts(np.arange(4.0), np.arange(4.0))
        with pytest.raises(MetricError):
            variance_decomposition(ds, parts)


def dataset_without_group(rng, n_groups=4, n_rows=40, used_groups=3):
    """Interaction log whose last groups never occur."""
    schema = make_schema(3, 4, n_groups)
    rows = []
    for t in range(n_rows):
        u = int(rng.integers(3))
        i = int(rng.integers(4))
        g = t % used_groups
        rows.append(([u, 3 + i, 7 + g], [1.0, 1.0, 1.0],
                     int(rng.integers(2)), f"u{u}", f"i{i}", t))
    return make_dataset(schema, rows)


class TestBiasChainReport:
    def test_fields_and_json(self, rng):
        ds = random_dataset(rng, n_rows=80, split_tag="train")
        params = random_params(rng, ds.schema.n, 4)
        report = bias_chain_report(params, ds, eval_ds=ds)
        assert isinstance(report, BiasChainReport)
        lo, hi = ds.schema.bias_range
        np.testing.assert_array_equal(report.bias_weights, params.w[lo:hi])
        assert isinstance(report.train_stats, GroupStats)
        assert isinstance(report.weight_ratio_pearson, CorrelationResult)
        assert isinstance(report.weight_ratio_spearman, CorrelationResult)
        assert report.weight_ratio_spearman.method == "spearman"
        assert isinstance(report.score_ratio_pearson, CorrelationResult)
        assert isinstance(report.weight_on_ratio_fit, RegressionFit)
        assert isinstance(report.variances, VarianceDecomposition)
        json.dumps(report.to_json_dict())

    def test_ehr_link_reads_evaluate(self, rng):
        world = generate(SynthConfig(n_users=60, n_items=40, n_groups=5,
                                     exposures_per_user=30, seed=5))
        train, test = world.train, world.test
        params = random_params(rng, train.schema.n, 4)
        report = bias_chain_report(params, train, eval_ds=test)
        ratio = group_stats(train).ratio
        ehr = np.asarray(evaluate(
            test, predict(params, test.indices, test.values)).group_ehr)
        both = np.isfinite(ratio) & np.isfinite(ehr)
        assert both.sum() >= 2
        assert report.ehr_ratio_spearman == spearman(ratio[both], ehr[both])

    @pytest.mark.parametrize("labels, error", [
        ((1, 1, 1), "ehr-vs-ratio spearman: correlation undefined for constant input"),
        ((1, 0, 0), "ehr-vs-ratio spearman: fewer than two measurable groups"),
    ], ids=["every EHR is 1", "one group with positives"])
    def test_ehr_link_recorded_not_raised(self, rng, labels, error):
        train = random_dataset(rng, n_rows=80, split_tag="train")
        # each user sees every group once, with that group's label
        rows = [([u, 4 + g, 10 + g], [1.0, 1.0, 1.0], labels[g], f"u{u}",
                 f"i{g}", 3 * u + g) for u in range(2) for g in range(3)]
        params = random_params(rng, train.schema.n, 4)
        report = bias_chain_report(params, train,
                                   eval_ds=make_dataset(train.schema, rows))
        assert report.ehr_ratio_spearman is None
        assert error in report.errors

    def test_without_eval_split(self, rng):
        ds = random_dataset(rng, n_rows=60, split_tag="train")
        params = random_params(rng, ds.schema.n, 4)
        report = bias_chain_report(params, ds)
        assert report.variances is None
        assert report.ehr_ratio_spearman is None

    def test_empty_eval_split_raises(self, rng):
        ds = random_dataset(rng, n_rows=60, split_tag="train")
        params = random_params(rng, ds.schema.n, 4)
        with pytest.raises(ConfigError, match="cannot evaluate an empty dataset"):
            bias_chain_report(params, ds, eval_ds=ds.subset(np.arange(0)))

    def test_unexposed_group_is_reported(self, rng):
        ds = dataset_without_group(rng)
        params = random_params(rng, ds.schema.n, 4)
        report = bias_chain_report(params, ds)
        assert any("no training exposure" in e for e in report.errors)
        assert report.weight_ratio_pearson.n == 3

    def test_constant_ratio_recorded_not_raised(self):
        schema = make_schema(1, 6, 3)
        rows = []
        for g in range(3):
            for y in (0, 1):
                i = 2 * g + y
                rows.append(([0, 1 + i, 7 + g], [1.0, 1.0, 1.0], y, "u0",
                             f"i{i}", i))
        ds = make_dataset(schema, rows)
        params = random_params(np.random.default_rng(11),
                               schema.n, 4)
        report = bias_chain_report(params, ds)
        assert report.weight_ratio_pearson is None
        assert any("weight-vs-ratio pearson" in e for e in report.errors)
        assert report.weight_on_ratio_fit is not None
