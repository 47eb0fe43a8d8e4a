"""Optimizers, the update law, early stopping, ablation, divergence."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrbias import evaluation, models, synth
from ctrbias.debias import reduce_weights
from ctrbias.errors import ConfigError, DivergenceError, NumericalError
from ctrbias.models import init_params, loss_and_grads, predict, serialize
from ctrbias.synth import SynthConfig, generate
from ctrbias.training import Adam, TrainConfig, TrainReport, train
from conftest import count_calls, float_bits, make_dataset, make_schema
from oracles import AdamReference, sgd_step_reference, sigmoid_reference

TINY = SynthConfig(n_users=30, n_items=20, n_groups=3, exposures_per_user=12,
                   unbiased_val_per_user=1, unbiased_test_per_user=2, seed=3)


@pytest.fixture(scope="module")
def tiny():
    # so few exposures miss their target ratios by more than the default
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(synth, "REALIZED_TOL", 0.5)
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


GRAD_VALUES = (
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300])
    | st.floats(-10.0, 10.0)
    | st.floats(1e-300, 1e300).flatmap(lambda x: st.sampled_from([x, -x]))
)


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

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_bit_equal_to_allocating_reference(self, data):
        lr = data.draw(st.sampled_from([1e-3, 0.1, 3.0]), label="lr")
        betas = data.draw(st.sampled_from([(0.9, 0.999), (0.5, 0.75)]), label="betas")
        shapes = {"w0": (), "b_out": (), "w": (5,), "V": (3, 2)}
        # a key joins at its first step and stays, as in training; one may
        # join late, so its moments start at a shared counter t > 1
        first = {key: data.draw(st.integers(0, 3), label=f"first {key}")
                 for key in shapes}
        n_steps = data.draw(st.integers(1, 6), label="steps")
        opt, ref = Adam(lr, *betas), AdamReference(lr, *betas)
        for t in range(n_steps):
            grads = {}
            for key, shape in shapes.items():
                if t < first[key]:
                    continue
                cells = data.draw(st.lists(GRAD_VALUES, min_size=int(np.prod(shape)),
                                           max_size=int(np.prod(shape))), label=key)
                grads[key] = float(cells[0]) if shape == () else \
                    np.array(cells, dtype=np.float64).reshape(shape)
            with np.errstate(all="ignore"):
                got, want = opt.step(grads), ref.step(grads)
            assert list(got) == list(want)
            for key in want:
                assert float_bits(got[key]) == float_bits(want[key]), key
            for key in ref.m:
                assert float_bits(opt.m[key]) == float_bits(ref.m[key]), key
                assert float_bits(opt.v[key]) == float_bits(ref.v[key]), key

    def test_returns_a_fresh_delta_each_step(self):
        opt = Adam(lr=0.1)
        g = np.array([1.0, -2.0])
        d1 = opt.step({"x": g})["x"]
        d2 = opt.step({"x": g})["x"]
        assert d1 is not d2
        assert not np.shares_memory(d1, opt.m["x"])
        assert not np.shares_memory(d1, opt.v["x"])
        assert np.array_equal(g, [1.0, -2.0])  # the gradient is read, not written


def one_sample_dataset(y=1, timestamp=0):
    return make_dataset(make_schema(2, 2, 2),
                        [([0, 2, 4], [1.0, 1.0, 1.0], y, "u0", "i0", timestamp)])


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
        assert report.stopped_early
        assert report.epochs_run < 40
        assert report.epochs_run == len(report.val_uauc)
        tail = report.val_uauc[report.best_epoch + 1:]
        assert len(tail) == 1  # stopped after one non-improving epoch

    def test_a_tie_is_no_improvement_and_stops_on_the_last_epoch(self, tiny):
        params, report = train(tiny.train, tiny.val,
                               TrainConfig(max_epochs=2, patience=1, seed=8))
        assert report.val_uauc[0] == report.val_uauc[1]
        # the stop falls on the last epoch, so epochs_run cannot tell it
        assert report.stopped_early
        assert (report.epochs_run, report.best_epoch) == (2, 0)
        assert report.best_val_uauc == report.val_uauc[0]
        assert params.provenance == {
            "created_by": "train", "arch": "fm", "optimizer": "adam",
            "ablation": "none", "seed": 8, "epochs_run": 2, "best_epoch": 0}
        for key in ("arch", "optimizer", "ablation", "seed", "epochs_run",
                    "best_epoch"):
            assert params.provenance[key] == getattr(report, key)

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
        d = report.to_json_dict()
        assert d["arch"] == "fm" and d["optimizer"] == "adam"

    def test_loss_decreases_on_average(self, tiny):
        _, report = train(tiny.train, None, TrainConfig(max_epochs=5, seed=8))
        assert report.train_loss[-1] < report.train_loss[0]

    def test_empty_train_raises(self, tiny):
        empty = tiny.train.subset(np.array([], dtype=int))
        with pytest.raises(ConfigError):
            train(empty, None, TrainConfig())

    @pytest.mark.parametrize("label", [0, 1])
    def test_one_class_validation_raises_before_training(self, tiny, label,
                                                         monkeypatch):
        steps = count_calls(monkeypatch, models, "loss_and_grads")
        one_class = tiny.val.subset(np.flatnonzero(tiny.val.labels == label))
        with pytest.raises(ConfigError, match="both a positive and a negative"):
            train(tiny.train, one_class,
                  TrainConfig(max_epochs=8, patience=3, seed=8))
        assert steps == []

    def test_one_user_with_both_labels_is_enough(self, tiny):
        val = tiny.val
        mixed = [u for u in np.unique(val.user_ids)
                 if len(set(val.labels[val.user_ids == u])) == 2]
        keep = (val.user_ids == mixed[0]) | (val.labels == 1)
        _, report = train(tiny.train, val.subset(np.flatnonzero(keep)),
                          TrainConfig(max_epochs=2, seed=8))
        assert report.epochs_run == 2
        assert all(math.isfinite(v) for v in report.val_uauc)

    def test_validation_sorts_its_ids_once(self, tiny, monkeypatch):
        val = tiny.val.subset(np.arange(len(tiny.val)))
        builds = count_calls(monkeypatch, evaluation.UserBlocks, "__init__")
        _, report = train(tiny.train, val, TrainConfig(max_epochs=3, seed=8))
        assert report.epochs_run == 3 and len(builds) == 1
        train(tiny.train, val, TrainConfig(max_epochs=2, seed=8))
        assert len(builds) == 1


def replay_train(ds, cfg):
    """train() without early stopping, written as the plain loop: a fresh
    permutation per epoch, fancy-indexed batches, the allocating reference
    Adam and the reference sigmoid, and updates applied as train() does."""
    schema = ds.schema
    params = init_params(schema.n, cfg.embedding_dim, cfg.arch, cfg.seed,
                         hidden=cfg.hidden, schema_digest=schema.digest())
    lo, hi = schema.bias_range
    if cfg.ablation == "unaware":
        params.V[lo:hi, :] = 0.0
    opt = AdamReference(cfg.lr)
    rng = np.random.default_rng([cfg.seed, 1])
    n = len(ds)
    for _ in range(cfg.max_epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            rows = order[start:start + cfg.batch_size]
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                _, grads, _ = loss_and_grads(
                    params, ds.indices[rows], ds.values[rows], ds.labels[rows],
                    l2=cfg.l2,
                    dropout=(cfg.dropout_interaction, cfg.dropout_hidden), rng=rng)
            if cfg.ablation == "unaware":
                grads["w"][lo:hi] = 0.0
                grads["V"][lo:hi, :] = 0.0
            for key, delta in opt.step(grads).items():
                if key == "w0":
                    params.w0 = float(params.w0 - delta)
                elif key == "b_out":
                    params.mlp.b_out = float(params.mlp.b_out - delta)
                elif key in ("w", "V"):
                    setattr(params, key, getattr(params, key) - delta)
                else:
                    setattr(params.mlp, key, getattr(params.mlp, key) - delta)
    params.provenance = {
        "created_by": "train", "arch": cfg.arch, "optimizer": cfg.optimizer,
        "ablation": cfg.ablation, "seed": cfg.seed,
        "epochs_run": cfg.max_epochs, "best_epoch": cfg.max_epochs - 1,
    }
    return params


class TestReplay:
    @pytest.mark.parametrize("ablation", ["none", "unaware"])
    @pytest.mark.parametrize("dropout", [(0.0, 0.0), (0.2, 0.3)])
    @pytest.mark.parametrize("l2", [0.0, 1e-3])
    @pytest.mark.parametrize("arch", ["fm", "nfm"])
    def test_train_serializes_like_the_plain_loop(self, tiny, monkeypatch, arch,
                                                  l2, dropout, ablation):
        cfg = TrainConfig(arch=arch, embedding_dim=4, hidden=6, lr=0.01,
                          batch_size=40, l2=l2, dropout_interaction=dropout[0],
                          dropout_hidden=dropout[1], max_epochs=3,
                          ablation=ablation, seed=5)
        params, _ = train(tiny.train, None, cfg)
        monkeypatch.setattr(models, "sigmoid", sigmoid_reference)
        assert serialize(params) == serialize(replay_train(tiny.train, cfg))


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
        zeroed = reduce_weights(params, tiny.schema.bias_range, 0.0)
        assert np.array_equal(full, predict(zeroed, ds.indices, ds.values))


class TestDivergence:
    def test_huge_learning_rate_raises_with_diagnostics(self, tiny):
        cfg = TrainConfig(optimizer="plain_sgd", lr=1e6, batch_size=8,
                          l2=0.0, max_epochs=50, seed=0)
        with pytest.raises(DivergenceError) as e:
            train(tiny.train, None, cfg)
        assert e.value.epoch >= 0
        assert e.value.batch >= 0
        assert e.value.max_abs_logit > 0

    def test_non_finite_validation_scores_raise_naming_the_epoch(self, tiny):
        # one batch per epoch: its loss is finite, but the step it takes
        # overflows every validation score
        cfg = TrainConfig(lr=1e200, batch_size=len(tiny.train), max_epochs=3)
        with pytest.raises(NumericalError) as e:
            train(tiny.train, tiny.val, cfg)
        assert str(e.value) == "non-finite validation scores at epoch 0"

    def test_non_finite_training_scores_raise_without_validation(self, tiny):
        # the same step, with no validation split to score after it
        cfg = TrainConfig(lr=1e200, batch_size=len(tiny.train), max_epochs=1)
        with pytest.raises(NumericalError) as e:
            train(tiny.train, None, cfg)
        assert str(e.value) == "non-finite training scores at epoch 0"


class TestTrainConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"arch": "cnn"},
        {"optimizer": "sgdm"},
        {"ablation": "blind"},
        {"embedding_dim": 0},
        {"hidden": 0},
        {"lr": 0.0},
        {"lr": float("nan")},
        {"lr": float("inf")},
        {"batch_size": 0},
        {"l2": -1e-9},
        {"l2": float("nan")},
        {"l2": float("inf")},
        {"dropout_interaction": 1.0},
        {"dropout_hidden": -0.1},
        {"max_epochs": 0},
        {"patience": -1},
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)
