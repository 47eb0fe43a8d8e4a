"""Scoring, gradients, and the binary weight format.

Gradient checks run central finite differences over every coordinate of
every tensor; the FM fast path is compared against the quadratic pairwise
sum; the serializer is attacked with byte flips and truncations at every
byte offset.
"""

import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import float_bits, random_params
from oracles import (forward_reference, loss_and_grads_reference,
                     pairwise_logit_reference)
from ctrbias import models
from ctrbias.debias import reduce_weights
from ctrbias.errors import ConfigError, ModelFormatError, NumericalError
from ctrbias.models import (ARCH_TAGS, ModelParams, deserialize,
                            forward, init_params, load_model, loss_and_grads,
                            model_digest, predict,
                            prediction_parts, rescore, save_model, serialize)
from ctrbias.numeric import bce_loss


def random_batch(rng, n, width, batch):
    """Sparse rows with strictly increasing indices and positive values."""
    indices = np.stack([
        np.sort(rng.choice(n, size=width, replace=False)) for _ in range(batch)
    ])
    values = rng.uniform(0.2, 1.0, size=(batch, width))
    return indices, values


def traced_peak(fn):
    """Bytes fn() holds at its peak, as tracemalloc sees them."""
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def param_slots(params):
    """(container, attribute) pairs covering every trainable tensor."""
    slots = [(params, "w0"), (params, "w"), (params, "V")]
    if params.mlp is not None:
        slots += [(params.mlp, "W1"), (params.mlp, "b1"),
                  (params.mlp, "w_out"), (params.mlp, "b_out")]
    return slots


GRAD_KEY = {"w0": "w0", "w": "w", "V": "V",
            "W1": "W1", "b1": "b1", "w_out": "w_out", "b_out": "b_out"}


def finite_difference_grads(params, indices, values, labels, l2, h=1e-6):
    """Central differences of the batch loss for every coordinate."""
    def loss_at():
        loss, _, _ = loss_and_grads(params, indices, values, labels, l2=l2)
        return loss

    out = {}
    for holder, name in param_slots(params):
        current = getattr(holder, name)
        if np.isscalar(current):
            setattr(holder, name, current + h)
            up = loss_at()
            setattr(holder, name, current - h)
            down = loss_at()
            setattr(holder, name, current)
            out[GRAD_KEY[name]] = (up - down) / (2 * h)
        else:
            g = np.zeros_like(current)
            it = np.nditer(current, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                orig = current[ix]
                current[ix] = orig + h
                up = loss_at()
                current[ix] = orig - h
                down = loss_at()
                current[ix] = orig
                g[ix] = (up - down) / (2 * h)
            out[GRAD_KEY[name]] = g
    return out


class TestForward:
    def test_fm_fast_path_matches_pairwise_sum(self, rng):
        for _ in range(60):
            n, d, width = int(rng.integers(4, 20)), int(rng.integers(1, 6)), 3
            params = random_params(rng, n, d)
            idx, val = random_batch(rng, n, min(width, n), 1)
            fast = forward(params, idx, val).logits[0]
            slow = pairwise_logit_reference(params, idx[0], val[0])
            assert abs(fast - slow) < 1e-10

    def test_nfm_matches_dense_hand_computation(self, rng):
        params = random_params(rng, 8, 3, arch="nfm", hidden=4)
        idx, val = random_batch(rng, 8, 4, 5)
        logits = forward(params, idx, val).logits
        for b in range(5):
            bi = np.zeros(3)
            for i in range(4):
                for j in range(i + 1, 4):
                    bi += (params.V[idx[b, i]] * params.V[idx[b, j]]
                           * val[b, i] * val[b, j])
            a1 = np.maximum(bi @ params.mlp.W1 + params.mlp.b1, 0.0)
            expected = (params.w0 + (params.w[idx[b]] * val[b]).sum()
                        + a1 @ params.mlp.w_out + params.mlp.b_out)
            assert abs(logits[b] - expected) < 1e-12

    def test_pairwise_reference_rejects_nfm(self, rng):
        params = random_params(rng, 5, 2, arch="nfm")
        with pytest.raises(ConfigError):
            pairwise_logit_reference(params, [0, 1], [1.0, 1.0])

    def test_padding_is_inert(self, rng):
        for arch in ("fm", "nfm"):
            params = random_params(rng, 10, 3, arch=arch)
            idx, val = random_batch(rng, 10, 4, 6)
            padded_idx = np.concatenate([idx, np.zeros((6, 2), np.int64)], axis=1)
            padded_val = np.concatenate([val, np.zeros((6, 2))], axis=1)
            a = forward(params, idx, val).logits
            b = forward(params, padded_idx, padded_val).logits
            assert np.array_equal(a, b)


class TestPredict:
    def test_components_add_up(self, rng):
        for arch in ("fm", "nfm"):
            params = random_params(rng, 12, 3, arch=arch)
            idx, val = random_batch(rng, 12, 4, 9)
            parts = prediction_parts(params, idx, val)
            scores = predict(params, idx, val)
            assert scores.tobytes() == forward(params, idx, val).logits.tobytes()
            assert scores.tobytes() == parts.logits.tobytes()
            rebuilt = (params.w0 + parts.linear) + parts.high_order
            assert scores.tobytes() == rebuilt.tobytes()
            linear = np.array([(params.w[idx[b]] * val[b]).sum()
                               for b in range(9)])
            assert parts.linear.tobytes() == linear.tobytes()

    @pytest.mark.parametrize("arch", ["fm", "nfm"])
    def test_rescore_gives_the_linear_part_and_logits(self, rng, arch):
        params = random_params(rng, 15, 3, arch=arch)
        idx, val = random_batch(rng, 15, 4, 23)
        parts = prediction_parts(params, idx, val)
        linear, logits = rescore(params, parts.high_order, idx, val)
        assert float_bits(linear) == float_bits(parts.linear)
        assert float_bits(logits) == float_bits(parts.logits)

    def test_chunked_equals_single_shot(self, rng, monkeypatch):
        # The NFM head runs through BLAS, whose kernels for 1-3 rows may
        # round differently from larger blocks, and whose split of a block
        # across threads can move a row's last bit, so only FM and the
        # linear part are bit-exact across chunk sizes.
        for arch in ("fm", "nfm"):
            params = random_params(rng, 15, 3, arch=arch)
            idx, val = random_batch(rng, 15, 4, 23)
            monkeypatch.setattr(models, "PREDICT_CHUNK", 10_000)
            whole = prediction_parts(params, idx, val)
            for chunk in (1, 4):
                monkeypatch.setattr(models, "PREDICT_CHUNK", chunk)
                parts = prediction_parts(params, idx, val)
                assert parts.linear.tobytes() == whole.linear.tobytes()
                for name in ("logits", "high_order"):
                    got, want = getattr(parts, name), getattr(whole, name)
                    if arch == "fm":
                        assert got.tobytes() == want.tobytes(), (chunk, name)
                    else:
                        np.testing.assert_allclose(got, want, rtol=1e-12,
                                                   atol=1e-15)

    def test_peak_is_one_chunk_of_temporaries(self, rng):
        # Bound: forward's traced peak on a 2048-row block, twice over (a
        # chunk's forward runs while the previous chunk's cache is still
        # held). A PREDICT_CHUNK past ~2048 rows exceeds it.
        n, width = 20_000, 3
        params = random_params(rng, 50, 16, arch="nfm", hidden=64)
        idx = rng.integers(0, 50, size=(n, width))
        val = np.ones((n, width))
        one_block = traced_peak(lambda: forward(params, idx[:2048], val[:2048]))
        scoring = traced_peak(lambda: prediction_parts(params, idx, val))
        assert scoring - 3 * n * 8 <= 2 * one_block  # minus the three outputs

    def test_nfm_scoring_holds_no_spare_temporaries(self, rng):
        # A study-size test split (26k one-hot rows, 3 fields, 3712
        # features, d = 16, 64 hidden units). Past the three outputs,
        # scoring holds 1.93 MB with one gather per field and the squared
        # rows, bi, + b1 and the ReLU built in place; 2.19 MB with one
        # (rows, fields, d) gather, and 3.63 MB with a fresh array for each.
        n, width = 26_000, 3
        params = random_params(rng, 3712, 16, arch="nfm", hidden=64)
        idx = rng.integers(0, params.n, size=(n, width))
        val = np.ones((n, width))
        prediction_parts(params, idx, val)  # warm-up
        scoring = traced_peak(lambda: prediction_parts(params, idx, val))
        assert scoring - 3 * n * 8 <= 2.1e6

    def test_prediction_parts_decomposition(self, rng):
        for arch in ("fm", "nfm"):
            params = random_params(rng, 12, 3, arch=arch)
            idx, val = random_batch(rng, 12, 4, 9)
            parts = prediction_parts(params, idx, val)
            assert np.allclose(parts.logits,
                               params.w0 + parts.linear + parts.high_order,
                               atol=1e-12)
            assert np.allclose(parts.logits, predict(params, idx, val), atol=1e-12)
            # The bias field's share of the linear term is what zeroing its
            # weights takes away; the interaction part does not move.
            unbiased = prediction_parts(reduce_weights(params, (7, 11), 0.0),
                                        idx, val)
            manual_bias = np.array([
                sum(params.w[i] * v for i, v in zip(idx[b], val[b]) if 7 <= i < 11)
                for b in range(9)
            ])
            assert np.allclose(parts.linear - unbiased.linear, manual_bias,
                               atol=1e-12)
            assert parts.high_order.tobytes() == unbiased.high_order.tobytes()

    @pytest.mark.parametrize("arch", ["fm", "nfm"])
    @pytest.mark.parametrize("weight", [1e200, np.nan])
    def test_non_finite_score_raises_naming_its_first_row(self, rng, monkeypatch,
                                                          arch, weight):
        # rows 5 and 7 hold feature 14, whose factors overflow the square
        # (or are NaN); no RuntimeWarning escapes, in any chunking
        params = random_params(rng, 15, 3, arch=arch)
        idx, val = random_batch(rng, 14, 4, 23)
        idx[[5, 7], 0] = 14
        params.V[14] = weight
        for chunk in (1, 4, 1024):
            monkeypatch.setattr(models, "PREDICT_CHUNK", chunk)
            for call in (predict, prediction_parts):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(NumericalError,
                                       match="scores row 5 as .*not finite") as e:
                        call(params, idx, val)
                assert "\n" not in str(e.value)

    def test_empty_batch(self, rng):
        params = random_params(rng, 6, 2)
        scores = predict(params, np.zeros((0, 3), np.int64), np.zeros((0, 3)))
        assert scores.shape == (0,)

    @pytest.mark.parametrize("bad", [-1, 5])
    def test_out_of_range_index_raises_one_line(self, rng, bad):
        # before the check, -1 wrapped to index 4 and 5 escaped as IndexError
        params = random_params(rng, 5, 2)
        for call in (predict, prediction_parts):
            with pytest.raises(ConfigError, match=f"feature index {bad} is outside") as e:
                call(params, [[0, 1], [0, bad]], [[1.0, 1.0], [1.0, 1.0]])
            assert "\n" not in str(e.value)


class TestGradients:
    def test_fm_gradients_match_finite_differences(self, rng):
        for _ in range(4):
            n, d = int(rng.integers(5, 12)), int(rng.integers(1, 5))
            params = random_params(rng, n, d)
            idx, val = random_batch(rng, n, min(4, n), 6)
            labels = rng.integers(2, size=6)
            l2 = float(rng.choice([0.0, 0.01]))
            _, grads, _ = loss_and_grads(params, idx, val, labels, l2=l2)
            fd = finite_difference_grads(params, idx, val, labels, l2)
            for key in fd:
                np.testing.assert_allclose(grads[key], fd[key],
                                           rtol=1e-5, atol=1e-7, err_msg=key)

    def test_nfm_gradients_match_finite_differences(self, rng):
        done = 0
        while done < 3:
            params = random_params(rng, 8, 3, arch="nfm", hidden=4)
            idx, val = random_batch(rng, 8, 4, 5)
            labels = rng.integers(2, size=5)
            z1 = forward(params, idx, val).bi_used @ params.mlp.W1 + params.mlp.b1
            if np.abs(z1).min() <= 1e-3:
                continue  # too close to a ReLU kink for finite differences
            l2 = float(rng.choice([0.0, 0.01]))
            _, grads, _ = loss_and_grads(params, idx, val, labels, l2=l2)
            fd = finite_difference_grads(params, idx, val, labels, l2)
            for key in fd:
                np.testing.assert_allclose(grads[key], fd[key],
                                           rtol=1e-5, atol=1e-7, err_msg=key)
            done += 1

    def test_loss_is_mean_bce_plus_penalty(self, rng):
        params = random_params(rng, 10, 3)
        idx, val = random_batch(rng, 10, 4, 7)
        labels = rng.integers(2, size=7)
        loss, _, cache = loss_and_grads(params, idx, val, labels, l2=0.01)
        expected = float(np.mean(bce_loss(cache.logits, labels)))
        expected += 0.01 * params.l2_norm_sq()
        assert loss == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("arch", ["fm", "nfm"])
    def test_l2_tail_adds_to_the_data_gradient(self, rng, arch):
        # dw + 2*l2*w exactly: no other grouping of the penalty term
        params = random_params(rng, 12, 3, arch=arch)
        idx, val = random_batch(rng, 12, 4, 9)
        labels = rng.integers(2, size=9)
        _, bare, _ = loss_and_grads(params, idx, val, labels, l2=0.0)
        for l2 in (1e-6, 1e-3, 0.37):
            _, grads, _ = loss_and_grads(params, idx, val, labels, l2=l2)
            for key in ("w", "V"):
                want = bare[key] + 2.0 * l2 * getattr(params, key)
                assert grads[key].tobytes() == want.tobytes(), (key, l2)

    def test_global_bias_is_exempt_from_l2(self, rng):
        params = random_params(rng, 6, 2)
        before = params.l2_norm_sq()
        params.w0 += 100.0
        assert params.l2_norm_sq() == before


class TestBroadcastReferee:
    """forward and loss_and_grads against their broadcast-and-scatter forms,
    byte for byte: any regrouping of a sum would show in the last bits."""

    # half the draws are one-hot, so the general path keeps its 300 examples
    @settings(max_examples=600, deadline=None)
    @given(st.data())
    def test_bit_equal_to_broadcast_reference(self, data):
        arch = data.draw(st.sampled_from(["fm", "nfm"]), label="arch")
        d = data.draw(st.sampled_from([1, 2, 3, 16]), label="d")
        width = data.draw(st.integers(1, 9), label="fields")
        n = data.draw(st.integers(1, 6), label="n")  # few features: heavy duplicates
        batch = data.draw(st.integers(1, 40), label="batch")
        one_hot = data.draw(st.booleans(), label="every value 1.0, no padding")
        pad_share = data.draw(st.sampled_from([0.0, 0.3, 0.9]), label="padding")
        zero_share = data.draw(st.sampled_from([0.0, 0.5]), label="signed zeros in V, w")
        dropout = data.draw(st.sampled_from([(0.0, 0.0), (0.3, 0.0), (0.0, 0.4),
                                             (0.3, 0.4)]), label="dropout")
        l2 = data.draw(st.sampled_from([0.0, 1e-3]), label="l2")
        seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        params = random_params(rng, n, d, arch=arch, hidden=5)
        zeros = rng.random(params.V.shape) < zero_share
        params.V[zeros] = np.copysign(0.0, rng.normal(size=params.V.shape))[zeros]
        zeros = rng.random(n) < zero_share
        params.w[zeros] = np.copysign(0.0, rng.normal(size=n))[zeros]
        indices = rng.integers(0, n, size=(batch, width))
        values = rng.uniform(0.05, 1.0, size=(batch, width))
        pad = rng.random((batch, width)) < pad_share
        if one_hot:  # the per-field adds of forward
            values[:] = 1.0
        else:
            indices[pad] = 0
            values[pad] = 0.0
        assert models._one_hot(values) == one_hot
        labels = rng.integers(0, 2, size=batch)

        loss, grads, cache = loss_and_grads(
            params, indices, values, labels, l2=l2, train=True, dropout=dropout,
            rng=np.random.default_rng(seed))
        ref_loss, ref_grads, ref = loss_and_grads_reference(
            params, indices, values, labels, l2=l2, train=True, dropout=dropout,
            rng=np.random.default_rng(seed))
        assert list(grads) == list(ref_grads)
        got = {"loss": loss, "logits": cache.logits, "linear": cache.linear,
               "sum_v": cache.sum_v, "bi": cache.bi, **grads}
        want = {"loss": ref_loss, "logits": ref.logits, "linear": ref.linear,
                "sum_v": ref.sum_v, "bi": ref.bi, **ref_grads}
        if d > 1 or width <= 2 or (one_hot and width < 8):
            for key in want:
                assert float_bits(got[key]) == float_bits(want[key]), key
            return
        # At d = 1 the axis-1 sum is a pairwise sum over a row's entries. The
        # einsum of a batch that is not one-hot adds them in SIMD lanes, and
        # the per-field adds of a one-hot batch add them in order, which is
        # the pairwise sum's own order only below 8 entries: two orders of the
        # same products, each within (width - 1) rounding units of their
        # absolute sum. Each path is still pinned to its own order.
        if one_hot:
            own_order = np.zeros((batch, d))
            for column in indices.T:
                own_order += params.V[column]
        else:
            own_order = np.einsum("bf,bfd->bd", values, params.V[indices])
        assert float_bits(cache.sum_v) == float_bits(own_order)
        bound = 2 * (width - 1) * 2.0 ** -53 * np.einsum(
            "bf,bfd->bd", np.abs(values), np.abs(params.V[indices]))
        assert (np.abs(cache.sum_v - ref.sum_v) <= bound).all()
        for key in want:
            np.testing.assert_allclose(got[key], want[key], rtol=1e-9, atol=1e-12,
                                       err_msg=key)


class TestOneHotPath:
    """Which batches take the one-hot fast path, and the row sums of rescore."""

    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(np.float64, st.tuples(st.integers(0, 20), st.integers(0, 12)),
                      elements=st.sampled_from([0.0, -0.0])
                      | st.floats(1e-8, 1e8).flatmap(lambda x: st.sampled_from([x, -x]))))
    def test_row_sums_equal_numpy_sums(self, a):
        # column adds below 8 entries, numpy's pairwise sum from 8 on
        assert float_bits(models._row_sums(a)) == float_bits(a.sum(axis=1))

    @pytest.mark.parametrize("values, one_hot", [
        (np.ones((4, 3)), True),
        (np.ones((1, 1)), True),
        (np.ones((0, 3)), False),  # an empty batch
        (np.ones((4, 0)), False),  # zero-width rows
        (np.array([[1.0, 1.0], [1.0, 0.5]]), False),
        (np.array([[1.0, 1.0], [0.0, 1.0]]), False),  # one padding entry
    ])
    def test_which_batches_are_one_hot(self, values, one_hot):
        assert models._one_hot(values) is one_hot

    @pytest.mark.parametrize("arch", ["fm", "nfm"])
    @pytest.mark.parametrize("odd_value", [0.5, 0.0])
    def test_one_odd_value_keeps_the_reference_bits(self, rng, arch, odd_value):
        # a single 0.5 or padding entry sends the batch down the general path
        params = random_params(rng, 6, 3, arch=arch)
        indices = rng.integers(0, 6, size=(5, 3))
        values = np.ones((5, 3))
        values[2, 1] = odd_value
        labels = rng.integers(0, 2, size=5)
        loss, grads, cache = loss_and_grads(params, indices, values, labels)
        ref_loss, ref_grads, ref = loss_and_grads_reference(params, indices, values,
                                                            labels)
        assert float_bits(loss) == float_bits(ref_loss)
        for key in ref_grads:
            assert float_bits(grads[key]) == float_bits(ref_grads[key]), key
        for key in ("logits", "linear", "sum_v", "bi"):
            assert float_bits(getattr(cache, key)) == float_bits(getattr(ref, key)), key

    @pytest.mark.parametrize("arch", ["fm", "nfm"])
    @pytest.mark.parametrize("shape", [(5, 0), (0, 0), (0, 3)])
    def test_zero_width_and_empty_batches_keep_the_reference(self, rng, arch, shape):
        # zero-width rows have no column to start a sum from: their linear
        # part and sum_v are zeros, and they score w0 + the head's bias alone
        params = random_params(rng, 6, 3, arch=arch)
        indices, values = np.zeros(shape, np.int64), np.ones(shape)
        cache = forward(params, indices, values)
        ref = forward_reference(params, indices, values)
        for key in ("logits", "linear", "sum_v", "bi"):
            got, want = getattr(cache, key), getattr(ref, key)
            assert got.shape == want.shape, key
            assert float_bits(got) == float_bits(want), key
        assert not cache.linear.any() and not cache.sum_v.any()
        parts = prediction_parts(params, indices, values)
        assert float_bits(parts.logits) == float_bits(cache.logits)
        if not shape[0]:
            return
        # no entry to scatter: bincount counts in int64, the gradients must
        # still be float64
        labels = rng.integers(0, 2, size=shape[0])
        for l2 in (0.0, 1e-3):
            loss, grads, _ = loss_and_grads(params, indices, values, labels, l2=l2)
            ref_loss, ref_grads, _ = loss_and_grads_reference(params, indices, values,
                                                              labels, l2=l2)
            assert float_bits(loss) == float_bits(ref_loss)
            assert grads["w"].dtype == grads["V"].dtype == np.float64
            for key in ref_grads:
                assert float_bits(grads[key]) == float_bits(ref_grads[key]), key


class TestDropout:
    def test_eval_mode_ignores_dropout(self, rng):
        params = random_params(rng, 10, 3, arch="nfm")
        idx, val = random_batch(rng, 10, 4, 6)
        a = forward(params, idx, val, train=False, dropout=(0.5, 0.5)).logits
        b = forward(params, idx, val).logits
        assert np.array_equal(a, b)

    def test_train_mode_requires_rng(self, rng):
        idx, val = random_batch(rng, 10, 4, 6)
        for arch, dropout in (("fm", (0.5, 0.0)), ("nfm", (0.0, 0.5))):
            params = random_params(rng, 10, 3, arch=arch)
            with pytest.raises(ConfigError, match="random generator"):
                forward(params, idx, val, train=True, dropout=dropout)

    def test_inverted_masks_take_expected_values(self, rng):
        params = random_params(rng, 10, 3, arch="nfm")
        idx, val = random_batch(rng, 10, 4, 50)
        cache = forward(params, idx, val, train=True, dropout=(0.25, 0.5),
                        rng=np.random.default_rng(0))
        assert set(np.unique(cache.mask_bi)) <= {0.0, 1.0 / 0.75}
        assert set(np.unique(cache.mask_hidden)) <= {0.0, 2.0}
        kept = (cache.mask_bi > 0).mean()
        assert 0.6 < kept < 0.9  # around 1 - p = 0.75

    def test_negligible_dropout_reproduces_clean_gradients(self, rng):
        params = random_params(rng, 10, 3, arch="nfm")
        idx, val = random_batch(rng, 10, 4, 6)
        labels = rng.integers(2, size=6)
        _, clean, _ = loss_and_grads(params, idx, val, labels)
        _, noisy, _ = loss_and_grads(params, idx, val, labels, train=True,
                                     dropout=(1e-12, 1e-12),
                                     rng=np.random.default_rng(1))
        for key in clean:
            np.testing.assert_allclose(noisy[key], clean[key], rtol=1e-9,
                                       atol=1e-12)

    def test_dropout_gradients_are_deterministic_given_seed(self, rng):
        params = random_params(rng, 10, 3, arch="nfm")
        idx, val = random_batch(rng, 10, 4, 6)
        labels = rng.integers(2, size=6)
        outs = []
        for _ in range(2):
            _, grads, _ = loss_and_grads(params, idx, val, labels, train=True,
                                         dropout=(0.3, 0.3),
                                         rng=np.random.default_rng(42))
            outs.append(grads)
        for key in outs[0]:
            assert np.array_equal(outs[0][key], outs[1][key])


class TestParamsBasics:
    def test_init_shapes_and_provenance(self):
        params = init_params(10, 4, "nfm", seed=3, hidden=6, schema_digest="a" * 64)
        assert params.w.shape == (10,) and not params.w.any()
        assert params.V.shape == (10, 4)
        assert params.mlp.W1.shape == (4, 6)
        assert params.mlp.w_out.shape == (6,)
        assert params.provenance == {"created_by": "init", "seed": 3}
        assert params.schema_digest == "a" * 64
        assert init_params(10, 4, "nfm", seed=3, hidden=6).w0 == 0.0

    def test_init_is_seed_deterministic(self):
        a = init_params(8, 3, "fm", seed=9)
        b = init_params(8, 3, "fm", seed=9)
        assert np.array_equal(a.V, b.V)
        assert not np.array_equal(a.V, init_params(8, 3, "fm", seed=10).V)

    def test_validation(self):
        with pytest.raises(ConfigError):
            init_params(0, 4, "fm", seed=0)
        with pytest.raises(ConfigError):
            ModelParams("bogus", 0.0, np.zeros(3), np.zeros((3, 2)))
        with pytest.raises(ConfigError):
            ModelParams("nfm", 0.0, np.zeros(3), np.zeros((3, 2)))  # no mlp
        with pytest.raises(ConfigError):
            ModelParams("fm", 0.0, np.zeros((3, 1)), np.zeros((3, 2)))

    @pytest.mark.parametrize("arch, part", [
        *(("fm", part) for part in ("w", "V", "w0", "provenance")),
        *(("nfm", part) for part in ("w", "V", "w0", "provenance", "mlp.W1",
                                     "mlp.b1", "mlp.w_out", "mlp.b_out")),
    ])
    def test_copy_is_deep_for_arrays(self, rng, arch, part):
        params = random_params(rng, 6, 2, arch=arch)
        params.provenance = {"created_by": "train", "history": [1, 2]}
        source = serialize(params)
        dup = params.copy()
        assert serialize(dup) == source
        owner, _, name = part.rpartition(".")
        owner = dup.mlp if owner else dup
        value = getattr(owner, name)
        if isinstance(value, np.ndarray):
            value += 1.0
        elif isinstance(value, dict):
            value["history"].append(3)
        else:
            setattr(owner, name, value + 1.0)
        assert serialize(dup) != source
        assert serialize(params) == source


class TestSerialization:
    @pytest.mark.parametrize("arch", ["fm", "nfm"])
    def test_round_trip(self, rng, arch):
        params = random_params(rng, 7, 3, arch=arch)
        params.schema_digest = "ab" * 32
        params.provenance = {"created_by": "train", "seed": 1}
        back = deserialize(serialize(params))
        assert back.arch == params.arch
        assert back.w0 == params.w0
        assert np.array_equal(back.w, params.w)
        assert np.array_equal(back.V, params.V)
        assert back.schema_digest == params.schema_digest
        assert back.provenance == params.provenance
        if arch == "nfm":
            assert np.array_equal(back.mlp.W1, params.mlp.W1)
            assert np.array_equal(back.mlp.b1, params.mlp.b1)
            assert np.array_equal(back.mlp.w_out, params.mlp.w_out)
            assert back.mlp.b_out == params.mlp.b_out

    def test_equal_params_serialize_identically(self, rng):
        params = random_params(rng, 5, 2)
        assert serialize(params) == serialize(params.copy())

    def test_digest_reacts_to_any_change(self, rng):
        params = random_params(rng, 5, 2, arch="nfm")
        base = model_digest(params)
        for mutate in (
            lambda p: setattr(p, "w0", p.w0 + 1.0),
            lambda p: p.w.__setitem__(0, p.w[0] + 1.0),
            lambda p: p.V.__setitem__((2, 1), p.V[2, 1] + 1.0),
            lambda p: p.mlp.b1.__setitem__(0, p.mlp.b1[0] + 1.0),
            lambda p: p.provenance.__setitem__("seed", 999),
        ):
            changed = params.copy()
            mutate(changed)
            assert model_digest(changed) != base

    @pytest.mark.parametrize("arch", ["fm", "nfm"])
    def test_every_truncation_is_detected(self, rng, arch):
        params = random_params(rng, 4, 2, arch=arch, hidden=3)
        buf = serialize(params)
        for cut in range(len(buf)):
            with pytest.raises(ModelFormatError):
                deserialize(buf[:cut])

    def test_trailing_bytes_are_detected(self, rng):
        buf = serialize(random_params(rng, 4, 2))
        with pytest.raises(ModelFormatError, match="trailing"):
            deserialize(buf + b"\x00")

    def test_bad_magic_version_arch_provenance(self, rng):
        buf = bytearray(serialize(random_params(rng, 4, 2)))
        bad_magic = bytes(buf[:])
        bad_magic = b"XXXX" + bad_magic[4:]
        with pytest.raises(ModelFormatError, match="magic"):
            deserialize(bad_magic)
        bad_version = bytes(buf[:4]) + (99).to_bytes(4, "little") + bytes(buf[8:])
        with pytest.raises(ModelFormatError, match="version"):
            deserialize(bad_version)
        bad_arch = bytes(buf[:40]) + b"\x07" + bytes(buf[41:])
        assert buf[40] in ARCH_TAGS.values()
        with pytest.raises(ModelFormatError, match="architecture"):
            deserialize(bad_arch)
        head = bytes(buf[:41]) + (3).to_bytes(4, "little") + b"{x}"
        with pytest.raises(ModelFormatError, match="provenance"):
            deserialize(head)

    def test_serialize_rejects_malformed_digest(self, rng):
        params = random_params(rng, 4, 2)
        params.schema_digest = "zz" * 32
        with pytest.raises(ConfigError):
            serialize(params)
        params.schema_digest = "ab"
        with pytest.raises(ConfigError):
            serialize(params)

    def test_save_load_with_schema_check(self, rng, tmp_path):
        params = random_params(rng, 4, 2)
        params.schema_digest = "cd" * 32
        path = tmp_path / "m.bin"
        save_model(params, path)
        loaded = load_model(path, expected_schema_digest="cd" * 32)
        assert np.array_equal(loaded.w, params.w)
        with pytest.raises(ModelFormatError, match="different feature schema"):
            load_model(path, expected_schema_digest="ef" * 32)

    @pytest.mark.parametrize("arch", ["fm", "nfm"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_are_refused_naming_the_file(self, rng, arch,
                                                           value):
        params = random_params(rng, 4, 2, arch=arch, hidden=3)
        for holder, name in param_slots(params):
            bad = params.copy()
            holder = bad if holder is params else bad.mlp
            if np.isscalar(getattr(holder, name)):
                setattr(holder, name, value)
            else:
                getattr(holder, name).flat[-1] = value
            with pytest.raises(ModelFormatError,
                               match=f"^m.bin: {name} holds NaN or infinity$"):
                deserialize(serialize(bad), origin="m.bin")

    def test_empty_provenance_defaults_to_digest_of_zeroes(self):
        params = init_params(3, 2, "fm", seed=0)
        assert params.schema_digest == ""
        back = deserialize(serialize(params))
        assert back.schema_digest == "0" * 64


def fuzz_model_bytes(arch):
    params = random_params(np.random.default_rng(11), 4, 2, arch=arch, hidden=3)
    params.schema_digest = "ab" * 32
    params.provenance = {"created_by": "train", "seed": 1}
    return serialize(params)


FUZZ_MODELS = {arch: fuzz_model_bytes(arch) for arch in ("fm", "nfm")}


def splice(buf, provenance=None, shape=None):
    """The model file with its provenance bytes or its (n, d) replaced."""
    (prov_len,) = struct.unpack("<I", buf[41:45])
    head, tail = buf[:41], buf[45 + prov_len:]
    prov = buf[45:45 + prov_len] if provenance is None else provenance
    if shape is not None:
        tail = struct.pack("<QQ", *shape) + tail[16:]
    return head + struct.pack("<I", len(prov)) + prov + tail


class TestModelFileFuzz:
    """Corrupted model files: only ModelFormatError may escape deserialize."""

    @pytest.mark.parametrize("arch", ["fm", "nfm"])
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_byte_flips_then_every_truncation(self, arch, data):
        buf = bytearray(FUZZ_MODELS[arch])
        flips = data.draw(st.lists(
            st.tuples(st.integers(0, len(buf) - 1), st.integers(1, 255)),
            min_size=1, max_size=4))
        for pos, mask in flips:
            buf[pos] ^= mask
        for cut in range(len(buf) + 1):
            try:
                back = deserialize(bytes(buf[:cut]))
            except ModelFormatError:
                continue
            # whatever loads must copy and write back like any model
            assert serialize(back.copy()) == serialize(back)

    @pytest.mark.parametrize("arch", ["fm", "nfm"])
    @pytest.mark.parametrize("payload", [
        b"[1,2]", b'"train"', b"null", b"3",      # JSON, but not an object
        b"[" * 100_000 + b"]" * 100_000,          # nested past the parser
        b"1" * 5000,                              # int too long to convert
    ], ids=["list", "string", "null", "number", "deep", "long_int"])
    def test_provenance_must_be_a_json_object(self, arch, payload):
        with pytest.raises(ModelFormatError, match="provenance"):
            deserialize(splice(FUZZ_MODELS[arch], provenance=payload))

    @pytest.mark.parametrize("arch", ["fm", "nfm"])
    @pytest.mark.parametrize("shape", [(0, 2), (4, 0), (0, 2 ** 63),
                                       (0, 2 ** 64 - 1)],
                             ids=["n0", "d0", "n0_d2e63", "n0_dmax"])
    def test_empty_weight_shape_is_rejected(self, arch, shape):
        with pytest.raises(ModelFormatError, match="empty weight shape"):
            deserialize(splice(FUZZ_MODELS[arch], shape=shape))
