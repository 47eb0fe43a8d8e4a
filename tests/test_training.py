"""Optimizers, the update law, early stopping, ablation, divergence."""

import math

import numpy as np
import pytest

from ctrbias.data import Dataset, Sample
from ctrbias.errors import ConfigError, DivergenceError
from ctrbias.models import init_params, loss_and_grads, predict
from ctrbias.numeric import sigmoid
from ctrbias.synth import SynthConfig, generate
from ctrbias.training import Adam, TrainConfig, TrainReport, train
from conftest import make_schema
from oracles import sgd_step_reference

TINY = SynthConfig(n_users=30, n_items=20, n_groups=3, exposures_per_user=12,
                   unbiased_val_per_user=1, unbiased_test_per_user=2,
                   realized_tol=0.5, seed=3)


@pytest.fixture(scope="module")
def tiny():
    return generate(TINY)


def adam_reference(grad_seq, lr, beta1=0.9, beta2=0.999, eps=1e-8, t_start=1):
    """Scalar Adam recursion written independently of the package."""
    m = v = 0.0
    out = []
    for t, g in enumerate(grad_seq, start=t_start):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        out.append(lr * m_hat / (math.sqrt(v_hat) + eps))
    return out


class TestAdam:
    def test_matches_scalar_recursion(self):
        opt = Adam(lr=0.1)
        grads = [1.0, -0.5, 0.25, 2.0, -3.0]
        got = [opt.step({"x": g})["x"] for g in grads]
        expected = adam_reference(grads, lr=0.1)
        assert got == pytest.approx(expected, rel=1e-15)

    def test_arrays_update_elementwise(self):
        opt = Adam(lr=0.01)
        g1 = np.array([1.0, -2.0, 0.5])
        g2 = np.array([0.3, 0.3, -0.1])
        d1 = opt.step({"x": g1})["x"]
        d2 = opt.step({"x": g2})["x"]
        for j in range(3):
            expected = adam_reference([g1[j], g2[j]], lr=0.01)
            assert d1[j] == pytest.approx(expected[0], rel=1e-15)
            assert d2[j] == pytest.approx(expected[1], rel=1e-15)

    def test_step_counter_is_shared_across_keys(self):
        opt = Adam(lr=0.1)
        opt.step({"a": 1.0})
        delta_b = opt.step({"a": 1.0, "b": 4.0})["b"]
        # b's first observed gradient lands at t = 2
        expected = adam_reference([4.0], lr=0.1, t_start=2)[0]
        assert delta_b == pytest.approx(expected, rel=1e-15)

    def test_first_step_is_lr_times_sign(self):
        opt = Adam(lr=0.05)
        delta = opt.step({"x": np.array([3.0, -7.0])})["x"]
        assert delta == pytest.approx([0.05, -0.05], rel=1e-6)


def one_sample_dataset(y=1, timestamp=0):
    schema = make_schema(2, 2, 2)
    s = Sample(np.array([0, 2, 4]), np.array([1.0, 1.0, 1.0]), y, "u0", "i0",
               timestamp)
    return Dataset.from_samples(schema, [s])


class TestPlainSgd:
    def test_single_step_matches_update_law(self):
        for y in (0, 1):
            ds = one_sample_dataset(y)
            cfg = TrainConfig(optimizer="plain_sgd", lr=0.3, batch_size=1,
                              l2=0.0, max_epochs=1, seed=11)
            params, _ = train(ds, None, cfg)
            fresh = init_params(ds.schema.n, cfg.embedding_dim, "fm", cfg.seed,
                                schema_digest=ds.schema.digest())
            logit0 = float(predict(fresh, ds.indices, ds.values)[0])
            for j, x_j in ((0, 1.0), (2, 1.0), (4, 1.0)):
                expected = sgd_step_reference(float(fresh.w[j]), 0.3,
                                              float(y), logit0, x_j)
                assert abs(params.w[j] - expected) < 1e-12
            untouched = [1, 3, 5]
            assert np.array_equal(params.w[untouched], fresh.w[untouched])

    def test_positive_sample_raises_weight_negative_lowers_it(self):
        up, _ = train(one_sample_dataset(1),
                      None, TrainConfig(optimizer="plain_sgd", lr=0.3,
                                        batch_size=1, l2=0.0, max_epochs=1))
        down, _ = train(one_sample_dataset(0),
                        None, TrainConfig(optimizer="plain_sgd", lr=0.3,
                                          batch_size=1, l2=0.0, max_epochs=1))
        assert up.w[0] > 0.0
        assert down.w[0] < 0.0

    def test_epoch_replays_batches_in_file_order(self, tiny):
        cfg = TrainConfig(optimizer="plain_sgd", lr=0.05, batch_size=32,
                          l2=0.0, max_epochs=1, seed=4)
        params, _ = train(tiny.train, None, cfg)
        replay = init_params(tiny.train.schema.n, cfg.embedding_dim, "fm",
                             cfg.seed, schema_digest=tiny.train.schema.digest())
        n = len(tiny.train)
        for lo in range(0, n, 32):
            rows = np.arange(lo, min(lo + 32, n))
            _, grads, _ = loss_and_grads(replay, tiny.train.indices[rows],
                                         tiny.train.values[rows],
                                         tiny.train.labels[rows], l2=0.0)
            replay.w0 = float(replay.w0 - cfg.lr * grads["w0"])
            replay.w -= cfg.lr * grads["w"]
            replay.V -= cfg.lr * grads["V"]
        assert np.allclose(params.w, replay.w, atol=1e-14)
        assert np.allclose(params.V, replay.V, atol=1e-14)
        assert params.w0 == pytest.approx(replay.w0, abs=1e-14)


class TestTrainLoop:
    def test_same_seed_reproduces_weights(self, tiny):
        cfg = TrainConfig(max_epochs=3, seed=8)
        a, ra = train(tiny.train, tiny.val, cfg)
        b, rb = train(tiny.train, tiny.val, cfg)
        assert np.array_equal(a.w, b.w)
        assert np.array_equal(a.V, b.V)
        assert ra.train_loss == rb.train_loss
        assert ra.val_uauc == rb.val_uauc

    def test_different_seed_changes_weights(self, tiny):
        a, _ = train(tiny.train, tiny.val, TrainConfig(max_epochs=2, seed=8))
        b, _ = train(tiny.train, tiny.val, TrainConfig(max_epochs=2, seed=9))
        assert not np.array_equal(a.V, b.V)

    def test_best_snapshot_is_restored(self, tiny):
        cfg = TrainConfig(max_epochs=8, patience=2, seed=8)
        best_params, report = train(tiny.train, tiny.val, cfg)
        k = report.best_epoch
        assert report.val_uauc[k] == report.best_val_uauc
        assert report.best_val_uauc == max(report.val_uauc)
        # a run truncated right after the best epoch ends with those weights
        rerun, _ = train(tiny.train, None,
                         TrainConfig(max_epochs=k + 1, patience=2, seed=8))
        assert np.array_equal(best_params.w, rerun.w)
        assert np.array_equal(best_params.V, rerun.V)
        assert best_params.w0 == rerun.w0

    def test_early_stopping_respects_patience(self, tiny):
        cfg = TrainConfig(max_epochs=40, patience=1, seed=8)
        _, report = train(tiny.train, tiny.val, cfg)
        if report.stopped_early:
            assert report.epochs_run < 40
            assert report.epochs_run == len(report.val_uauc)
            tail = report.val_uauc[report.best_epoch + 1:]
            assert len(tail) == 1  # stopped after one non-improving epoch

    def test_no_validation_returns_final_weights(self, tiny):
        params, report = train(tiny.train, None, TrainConfig(max_epochs=2, seed=8))
        assert report.n_val == 0
        assert report.val_uauc == []
        assert math.isnan(report.best_val_uauc)
        assert report.best_epoch == report.epochs_run - 1
        assert params.provenance["created_by"] == "train"

    def test_report_shape_and_json_form(self, tiny):
        _, report = train(tiny.train, tiny.val, TrainConfig(max_epochs=3, seed=8))
        assert isinstance(report, TrainReport)
        assert len(report.train_loss) == report.epochs_run
        assert report.n_train == len(tiny.train)
        assert report.wall_seconds > 0
        d = report.to_json_dict()
        assert "wall_seconds" not in d
        assert d["arch"] == "fm" and d["optimizer"] == "adam"

    def test_loss_decreases_on_average(self, tiny):
        _, report = train(tiny.train, None, TrainConfig(max_epochs=5, seed=8))
        assert report.train_loss[-1] < report.train_loss[0]

    def test_empty_train_raises(self, tiny):
        empty = tiny.train.subset(np.array([], dtype=int))
        with pytest.raises(ConfigError):
            train(empty, None, TrainConfig())


class TestUnawareAblation:
    def test_bias_parameters_stay_exactly_zero(self, tiny):
        cfg = TrainConfig(max_epochs=3, seed=8, ablation="unaware")
        params, _ = train(tiny.train, tiny.val, cfg)
        lo, hi = tiny.schema.bias_range
        assert not params.w[lo:hi].any()
        assert not params.V[lo:hi].any()
        assert params.w[:lo].any()  # the rest did train

    def test_scores_ignore_the_bias_field(self, tiny):
        cfg = TrainConfig(max_epochs=2, seed=8, ablation="unaware")
        params, _ = train(tiny.train, tiny.val, cfg)
        ds = tiny.test
        full = predict(params, ds.indices, ds.values)
        no_bias = predict(params, ds.indices, ds.values, "zero_bias_linear",
                          tiny.schema.bias_range)
        assert np.array_equal(full, no_bias)


class TestDivergence:
    def test_huge_learning_rate_raises_with_diagnostics(self, tiny):
        cfg = TrainConfig(optimizer="plain_sgd", lr=1e6, batch_size=8,
                          l2=0.0, max_epochs=50, seed=0)
        with pytest.raises(DivergenceError) as e:
            train(tiny.train, None, cfg)
        assert e.value.epoch >= 0
        assert e.value.batch >= 0
        assert e.value.max_abs_logit > 0


class TestTrainConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"arch": "cnn"},
        {"optimizer": "sgdm"},
        {"ablation": "blind"},
        {"embedding_dim": 0},
        {"hidden": 0},
        {"lr": 0.0},
        {"batch_size": 0},
        {"l2": -1e-9},
        {"dropout_interaction": 1.0},
        {"dropout_hidden": -0.1},
        {"max_epochs": 0},
        {"patience": -1},
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)
