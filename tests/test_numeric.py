"""Numerical helpers against closed forms and scipy references."""

import json
import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ctrbias.analysis import CorrelationResult
from ctrbias.numeric import (average_ranks, bce_loss, log1pexp, run_edges, sigmoid,
                             to_jsonable)
from conftest import float_bits
from oracles import sigmoid_reference


def nan_with(sign, payload):
    bits = (sign << 63) | (0x7FF << 52) | (1 << 51) | payload
    return np.array([bits], dtype=np.uint64).view(np.float64)[0]


EDGE_CASES = np.array([
    np.inf, -np.inf, nan_with(0, 0), nan_with(1, 0), nan_with(0, 0x123),
    nan_with(1, 0x123), 0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308,
    30.0, -30.0, 36.8, -36.8, 709.8, -709.8, 745.1, -745.1, 746.0, -746.0,
    1e300, -1e300, np.finfo(np.float64).max, -np.finfo(np.float64).max,
])


class TestSigmoid:
    def test_matches_naive_form_in_safe_range(self):
        z = np.linspace(-30, 30, 401)
        naive = 1.0 / (1.0 + np.exp(-z))
        assert np.abs(sigmoid(z) - naive).max() < 1e-15

    def test_extreme_arguments_do_not_overflow(self):
        with np.errstate(over="raise"):
            assert sigmoid(800.0) == 1.0
            assert sigmoid(-800.0) == 0.0

    def test_scalar_in_scalar_out(self):
        out = sigmoid(0.0)
        assert isinstance(out, float)
        assert out == 0.5

    def test_symmetry(self):
        z = np.linspace(-20, 20, 101)
        assert np.abs(sigmoid(z) + sigmoid(-z) - 1.0).max() < 1e-15

    def test_monotone(self):
        z = np.linspace(-40, 40, 301)
        assert np.all(np.diff(sigmoid(z)) >= 0)

    @pytest.mark.parametrize("reps", [1, 3, 17])
    def test_edge_cases_bit_equal_to_reference(self, reps):
        # repeated so SIMD loops see each case at several lane offsets
        z = np.tile(EDGE_CASES, reps)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            got = sigmoid(z)
        assert float_bits(got) == float_bits(sigmoid_reference(z))

    @pytest.mark.parametrize("z", EDGE_CASES.tolist())
    def test_zero_dim_input_bit_equal_to_reference(self, z):
        for arg in (z, np.float64(z), np.array(z)):
            got = sigmoid(arg)
            assert isinstance(got, float)
            assert float_bits(got) == float_bits(sigmoid_reference(arg))

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, max_side=40),
                      elements=st.floats(width=64) | st.sampled_from(EDGE_CASES.tolist())))
    def test_bit_equal_to_reference(self, z):
        assert float_bits(sigmoid(z)) == float_bits(sigmoid_reference(z))


class TestLog1pExp:
    def test_matches_naive_form_in_safe_range(self):
        z = np.linspace(-30, 30, 401)
        assert np.abs(log1pexp(z) - np.log1p(np.exp(z))).max() < 1e-13

    def test_large_positive_is_identity(self):
        with np.errstate(over="raise"):
            assert log1pexp(1000.0) == pytest.approx(1000.0, abs=1e-12)

    def test_large_negative_is_zero(self):
        assert log1pexp(np.array([-1000.0]))[0] == 0.0


class TestBceLoss:
    def test_matches_probability_form(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=50) * 3
        labels = rng.integers(2, size=50).astype(float)
        p = sigmoid(logits)
        direct = -(labels * np.log(p) + (1 - labels) * np.log(1 - p))
        assert np.abs(bce_loss(logits, labels) - direct).max() < 1e-12

    def test_zero_logit_is_log_two(self):
        assert bce_loss(np.zeros(3), np.array([0, 1, 0]))[0] == pytest.approx(math.log(2))

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=100) * 10
        labels = rng.integers(2, size=100)
        assert (bce_loss(logits, labels) >= 0).all()

    def test_confident_correct_is_small_confident_wrong_is_large(self):
        assert bce_loss(np.array([20.0]), np.array([1]))[0] < 1e-8
        assert bce_loss(np.array([20.0]), np.array([0]))[0] > 19


# small pools, so draws hold long runs; the floats hold NaN and both zeros
RUN_VALUES = st.one_of(
    st.lists(st.integers(-2, 2), max_size=30).map(
        lambda v: np.array(v, dtype=np.int64)),
    st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.5, math.nan, math.inf]),
             max_size=30).map(lambda v: np.array(v, dtype=np.float64)),
)


def run_edges_loop(x, starts):
    """A run starts at 0, at each of starts and where a value differs from
    its left neighbour (Python floats: NaN differs from itself, 0.0 and
    -0.0 do not); then len(x)."""
    values = x.tolist()
    return [i for i in range(len(values))
            if i == 0 or i in starts or values[i] != values[i - 1]] + [len(values)]


class TestRunEdges:
    @settings(max_examples=300, deadline=None)
    @given(RUN_VALUES, st.data())
    def test_matches_a_loop_over_neighbours(self, x, data):
        starts = data.draw(st.lists(st.integers(0, len(x) - 1), max_size=8)
                           if len(x) else st.just([]))
        expected = run_edges_loop(x, starts)
        for given_starts in (starts, tuple(starts), np.asarray(starts, dtype=np.int64)):
            assert run_edges(x, given_starts).tolist() == expected
        if not starts:
            assert run_edges(x).tolist() == expected

    def test_nan_ends_every_run_and_signed_zeros_share_one(self):
        assert run_edges(np.array([np.nan, np.nan, 0.0, -0.0, 1.0])).tolist() == [0, 1, 2, 4, 5]
        assert run_edges(np.array([])).tolist() == [0]
        assert run_edges(np.array([3, 3, 3]), ()).tolist() == [0, 3]


class TestAverageRanks:
    def test_matches_scipy_on_mixed_ties(self):
        cases = [
            [3.0, 1.0, 2.0],
            [1.0, 1.0, 1.0],
            [2.0, 2.0, 1.0, 3.0, 3.0, 3.0],
            [5.0],
            [-1.0, -1.0, 0.0, 0.0, 0.0, 7.5],
            list(np.random.default_rng(2).normal(size=40)),
        ]
        for a in cases:
            expected = scipy.stats.rankdata(a, method="average")
            assert np.array_equal(average_ranks(np.asarray(a)), expected)

    def test_sum_of_ranks_is_triangular(self):
        a = np.random.default_rng(3).normal(size=25)
        assert average_ranks(a).sum() == pytest.approx(25 * 26 / 2)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=30))
    def test_matches_scipy_on_integer_lists(self, xs):
        a = np.asarray(xs, dtype=np.float64)
        assert np.array_equal(average_ranks(a), scipy.stats.rankdata(a, method="average"))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                              min_value=-1e6, max_value=1e6),
                    min_size=1, max_size=30),
           st.randoms(use_true_random=False))
    def test_permutation_equivariance(self, xs, pyrandom):
        a = np.asarray(xs, dtype=np.float64)
        perm = list(range(len(a)))
        pyrandom.shuffle(perm)
        perm = np.asarray(perm)
        assert np.array_equal(average_ranks(a[perm]), average_ranks(a)[perm])


class TestToJsonable:
    def test_numpy_types_become_plain_python(self):
        obj = {
            "arr": np.array([1.5, 2.5]),
            "int": np.int64(7),
            "float": np.float64(1.25),
            "bool": np.bool_(True),
            "nested": (np.array([1, 2]), {"x": np.float32(0.5)}),
        }
        out = to_jsonable(obj)
        assert out["arr"] == [1.5, 2.5]
        assert out["int"] == 7 and isinstance(out["int"], int)
        assert out["float"] == 1.25 and isinstance(out["float"], float)
        assert out["bool"] is True
        assert out["nested"] == [[1, 2], {"x": 0.5}]
        json.dumps(out)

    def test_nan_becomes_none(self):
        out = to_jsonable({"a": float("nan"), "b": np.array([1.0, np.nan])})
        assert out["a"] is None
        assert out["b"] == [1.0, None]

    def test_infinities_become_none(self):
        out = to_jsonable({"a": float("inf"), "b": np.array([1.0, -np.inf]),
                           "c": np.float32(np.inf)})
        assert out == {"a": None, "b": [1.0, None], "c": None}

    def test_report_with_infinity_is_standard_json(self):
        report = CorrelationResult(r=1.0, p_value=float("inf"), n=3,
                                   method="pearson")
        text = json.dumps(to_jsonable(report), allow_nan=False)
        assert json.loads(text)["p_value"] is None

    def test_plain_values_pass_through(self):
        assert to_jsonable({"s": "x", "n": None, "i": 3}) == {"s": "x", "n": None, "i": 3}

    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(st.sampled_from([np.float64, np.float32, np.int64, np.int8,
                                       np.uint16, np.bool_]),
                      hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5)))
    def test_arrays_convert_as_element_by_element(self, arr):
        # the whole-array tolist() shortcut against one element at a time;
        # JSON text tells 1 from 1.0 and true
        def elementwise(v):
            if isinstance(v, list):
                return [elementwise(x) for x in v]
            return None if isinstance(v, float) and not math.isfinite(v) else v

        got = json.dumps(to_jsonable(arr), allow_nan=False)
        assert got == json.dumps(elementwise(arr.tolist()), allow_nan=False)
