"""Acceptance gate: ten end-to-end checks, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` so the per-criterion
lines are visible. Criteria 4-7 share one synthetic study (260k biased
exposures, 12 groups, FM trained with Adam) built once per session.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import oracles
from conftest import make_dataset, make_schema, random_dataset, random_params
from ctrbias.analysis import ols_fit, pearson, spearman
from ctrbias.cli import main as cli_main
from ctrbias.debias import (VARIANTS, DebiasConfig, grid_search_reconstruction,
                            reduce_weights)
from ctrbias.evaluation import evaluate, group_stats, ndcg_at_k, reo_at_k, user_auc
from ctrbias.models import init_params, loss_and_grads, predict, prediction_parts
from ctrbias.numeric import sigmoid
from ctrbias.synth import SynthConfig, generate
from ctrbias.training import TrainConfig, train
from ctrbias.analysis import variance_decomposition

_printed = set()


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    _printed.add(num)
    suffix = f"  ({detail})" if detail else ""
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {desc}{suffix}")
    assert ok, f"criterion {num}: {desc}{suffix}"


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except BaseException as exc:
        if num not in _printed:
            _printed.add(num)
            print(f"\n[criterion {num:2d}] FAIL  {desc}  "
                  f"(raised {type(exc).__name__}: {exc})")
        raise


# --- criteria 1-3: model mathematics ---------------------------------------


def _draw_instance(rng, arch):
    """Random model plus one sample; NFM draws too close to a ReLU kink are
    rejected because central differences straddle the non-smooth point."""
    n = int(rng.integers(5, 31))
    d = int(rng.integers(2, 9))
    params = random_params(rng, n, d, arch, hidden=5, scale=0.6)
    m = int(rng.integers(2, min(6, n) + 1))
    idx = np.sort(rng.choice(n, size=m, replace=False)).astype(np.int64)
    val = rng.uniform(0.2, 1.0, size=m)
    y = float(rng.integers(2))
    if arch == "nfm":
        xv = val[:, None] * params.V[idx]
        bi = 0.5 * (xv.sum(0) ** 2 - (xv ** 2).sum(0))
        z1 = bi @ params.mlp.W1 + params.mlp.b1
        if np.abs(z1).min() <= 1e-3:
            return None
    return params, idx[None, :], val[None, :], np.array([y])


def _fd_max_relerr(params, idx, val, y, h=1e-5):
    """Largest relative gap between analytic and central-difference grads."""

    def loss_now():
        loss, _, _ = loss_and_grads(params, idx, val, y)
        return loss

    def rel(a, b):
        return abs(a - b) / max(1.0, abs(a), abs(b))

    _, grads, _ = loss_and_grads(params, idx, val, y)
    worst = 0.0
    scalars = [("w0", lambda: params.w0,
                lambda v: setattr(params, "w0", v))]
    arrays = {"w": params.w, "V": params.V}
    if params.arch == "nfm":
        scalars.append(("b_out", lambda: params.mlp.b_out,
                        lambda v: setattr(params.mlp, "b_out", v)))
        arrays.update({"W1": params.mlp.W1, "b1": params.mlp.b1,
                       "w_out": params.mlp.w_out})
    for name, get, put in scalars:
        base = get()
        put(base + h)
        up = loss_now()
        put(base - h)
        down = loss_now()
        put(base)
        worst = max(worst, rel(float(grads[name]), (up - down) / (2 * h)))
    for name, arr in arrays.items():
        g = grads[name]
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            i = it.multi_index
            orig = arr[i]
            arr[i] = orig + h
            up = loss_now()
            arr[i] = orig - h
            down = loss_now()
            arr[i] = orig
            worst = max(worst, rel(float(g[i]), (up - down) / (2 * h)))
    return worst


def test_criterion_01_gradients():
    desc = "analytic gradients match central finite differences"
    with criterion(1, desc):
        t0 = time.perf_counter()
        rng = np.random.default_rng(41)
        draws = 0
        worst = 0.0
        for arch, want in (("fm", 12), ("nfm", 8)):
            accepted = 0
            attempts = 0
            while accepted < want:
                attempts += 1
                assert attempts < 200, "rejection sampling stuck"
                drawn = _draw_instance(rng, arch)
                if drawn is None:
                    continue
                worst = max(worst, _fd_max_relerr(*drawn))
                accepted += 1
                draws += 1
        elapsed = time.perf_counter() - t0
        ok = draws >= 20 and worst < 1e-4 and elapsed < 10.0
        _report(1, desc, ok,
                f"{draws} draws, max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_fm_oracle():
    desc = "fast FM scorer equals the pairwise reference"
    with criterion(2, desc):
        t0 = time.perf_counter()
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(4, 31))
            d = int(rng.integers(1, 9))
            params = random_params(rng, n, d, "fm", scale=0.7)
            m = int(rng.integers(2, min(8, n) + 1))
            idx = np.sort(rng.choice(n, size=m, replace=False)).astype(np.int64)
            val = rng.uniform(0.1, 1.0, size=m)
            fast = float(predict(params, idx[None, :], val[None, :])[0])
            slow = oracles.pairwise_logit_reference(params, idx, val)
            worst = max(worst, abs(fast - slow))
        elapsed = time.perf_counter() - t0
        ok = worst <= 1e-10 and elapsed < 5.0
        _report(2, desc, ok, f"max |diff| {worst:.2e}, {elapsed:.2f}s")


def test_criterion_03_update_law():
    desc = "plain SGD step follows the single-sample update law"
    with criterion(3, desc):
        t0 = time.perf_counter()
        schema = make_schema(2, 2, 2)
        lr = 0.05
        worst = 0.0
        signs_ok = True
        for y in (1, 0):
            ds = make_dataset(schema, [([0, 2, 4, 5], [1.0, 1.0, 0.5, 0.5],
                                        y, "u0", "i0", 0)])
            cfg = TrainConfig(arch="fm", embedding_dim=3, lr=lr, batch_size=1,
                              l2=0.0, max_epochs=1, optimizer="plain_sgd",
                              seed=123)
            fitted, _ = train(ds, None, cfg)
            start = init_params(schema.n, 3, "fm", seed=123)
            logit0 = float(predict(start, ds.indices, ds.values)[0])
            for j, x_j in zip(ds.indices[0], ds.values[0]):
                expected = start.w[j] + lr * (y - sigmoid(logit0)) * x_j
                worst = max(worst, abs(float(fitted.w[j]) - expected))
                moved = float(fitted.w[j]) - float(start.w[j])
                signs_ok &= (moved > 0) if y == 1 else (moved < 0)
        elapsed = time.perf_counter() - t0
        ok = worst <= 1e-12 and signs_ok and elapsed < 1.0
        _report(3, desc, ok, f"max |diff| {worst:.1e}, signs "
                             f"{'ok' if signs_ok else 'wrong'}, {elapsed:.2f}s")


# --- criteria 4-7: the synthetic bias study ---------------------------------


@pytest.fixture(scope="module")
def study():
    t0 = time.perf_counter()
    scfg = SynthConfig(
        n_users=2500, n_items=1200, n_groups=12,
        rho=tuple(np.linspace(0.1, 0.9, 12)),
        exposures_per_user=104,
        unbiased_val_per_user=4, unbiased_test_per_user=12,
        pref_dim=8, pref_scale=1.5, item_offset_scale=0.4,
        group_freq_decay=0.9, temp_low=0.2, temp_high=4.0,
        seed=7,
    )
    res = generate(scfg)
    tcfg = TrainConfig(arch="fm", embedding_dim=16, lr=1e-3, batch_size=256,
                       l2=1.5e-4, max_epochs=20, patience=3,
                       optimizer="adam", seed=8)
    params, report = train(res.train, res.val, tcfg)
    return {"res": res, "params": params, "report": report,
            "elapsed": time.perf_counter() - t0}


def test_criterion_04_bias_chain(study):
    desc = "bias-field weights track train positive ratios"
    with criterion(4, desc):
        res, params = study["res"], study["params"]
        ratios = np.asarray(res.truth["rho_target"], dtype=np.float64)
        scale_ok = (res.schema.num_groups >= 10
                    and len(res.train) >= 200_000
                    and ratios.min() == 0.1 and ratios.max() == 0.9)
        lo, hi = res.schema.bias_range
        sp = spearman(group_stats(res.train).ratio, params.w[lo:hi])
        ok = (scale_ok and sp.r >= 0.8 and sp.p_value < 1e-3
              and study["elapsed"] < 180.0)
        _report(4, desc, ok,
                f"n_train={len(res.train)}, groups={res.schema.num_groups}, "
                f"spearman={sp.r:.4f}, p={sp.p_value:.2e}, "
                f"study took {study['elapsed']:.1f}s")


def test_criterion_05_variance_split(study):
    desc = "linear part carries the group-level score variance"
    with criterion(5, desc):
        res, params = study["res"], study["params"]
        parts = prediction_parts(params, res.test.indices, res.test.values)
        vd = variance_decomposition(res.test, parts)
        ok = (vd.linear[0] > vd.high_order[0]
              and vd.linear[1] > vd.high_order[1])
        _report(5, desc, ok,
                f"linear=({vd.linear[0]:.3f}, {vd.linear[1]:.3f}) vs "
                f"high_order=({vd.high_order[0]:.3f}, {vd.high_order[1]:.3f})")


def test_criterion_06_reduction(study):
    desc = "zeroing group weights cuts REO@5 at small UAUC cost"
    with criterion(6, desc):
        t0 = time.perf_counter()
        res, params = study["res"], study["params"]
        base = evaluate(res.test, predict(params, res.test.indices,
                                          res.test.values), k=5)
        reduced = reduce_weights(params, res.schema.bias_range, 0.0)
        after = evaluate(res.test, predict(reduced, res.test.indices,
                                           res.test.values), k=5)
        reo_drop = (base.reo - after.reo) / base.reo
        uauc_drop = (base.uauc - after.uauc) / base.uauc
        elapsed = time.perf_counter() - t0
        ok = reo_drop >= 0.10 and uauc_drop <= 0.03 and elapsed < 60.0
        _report(6, desc, ok,
                f"REO {base.reo:.4f}->{after.reo:.4f} ({reo_drop:+.1%}), "
                f"UAUC {base.uauc:.4f}->{after.uauc:.4f} "
                f"({uauc_drop:+.2%}), {elapsed:.1f}s")


def test_criterion_07_reconstruction(study):
    desc = "reconstruction beats both ablations on unbiased data"
    with criterion(7, desc):
        t0 = time.perf_counter()
        res, params = study["res"], study["params"]
        ubt = res.unbiased_test
        size_ok = len(res.unbiased_val) == 10_000
        base, _ = user_auc(ubt.user_ids,
                           predict(params, ubt.indices, ubt.values),
                           ubt.labels)
        uauc = {}
        for variant in ("vanilla", "wo_residual", "wo_ratio"):
            best, _ = grid_search_reconstruction(
                params, res.train, res.unbiased_val,
                DebiasConfig(variant=variant))
            scores = predict(best, ubt.indices, ubt.values)
            uauc[variant], _ = user_auc(ubt.user_ids, scores, ubt.labels)
        gain = (uauc["vanilla"] - base) / base
        order_ok = (uauc["vanilla"] > uauc["wo_residual"]
                    > uauc["wo_ratio"] > base)
        elapsed = time.perf_counter() - t0
        ok = size_ok and gain >= 0.02 and order_ok and elapsed < 180.0
        _report(7, desc, ok,
                f"base={base:.4f}, vanilla={uauc['vanilla']:.4f} "
                f"({gain:+.2%}), wo_residual={uauc['wo_residual']:.4f}, "
                f"wo_ratio={uauc['wo_ratio']:.4f}, {elapsed:.1f}s")


# --- criteria 8-10: oracles and determinism ---------------------------------


def test_criterion_08_metric_oracles():
    desc = "ranking metrics equal brute-force enumeration"
    with criterion(8, desc):
        t0 = time.perf_counter()
        rng = np.random.default_rng(20260823)
        bad = []
        for trial in range(50):
            ds = random_dataset(
                rng, n_users=int(rng.integers(2, 7)),
                n_items=int(rng.integers(4, 11)),
                n_groups=int(rng.integers(2, 5)),
                n_rows=int(rng.integers(5, 101)),
                multi_group_prob=0.25)
            scores = rng.integers(0, 5, size=len(ds)).astype(np.float64) / 2.0
            got_u, _ = user_auc(ds.user_ids, scores, ds.labels)
            want_u, _ = oracles.uauc_brute(oracles.users_of(ds), scores, ds.labels)
            if not (got_u == want_u
                    or (math.isnan(got_u) and math.isnan(want_u))):
                bad.append(f"trial {trial}: uauc {got_u} != {want_u}")
            got_n, _ = ndcg_at_k(ds.user_ids, scores, ds.labels,
                                 ds.item_ids, 5)
            want_n, _ = oracles.ndcg_brute(oracles.users_of(ds), scores, ds.labels,
                                           oracles.items_of(ds), 5)
            if not (got_n == want_n
                    or (math.isnan(got_n) and math.isnan(want_n))):
                bad.append(f"trial {trial}: ndcg {got_n} != {want_n}")
            report = evaluate(ds, scores, 5)
            tpr = np.asarray(report.group_tpr)
            for name, got_g, want_g in (
                    ("ehr", np.asarray(report.group_ehr),
                     oracles.ehr_brute(ds, scores)),
                    ("tpr", tpr, oracles.tpr_brute(ds, scores, 5))):
                same_nan = np.array_equal(np.isnan(got_g), np.isnan(want_g))
                mask = ~np.isnan(want_g)
                if not (same_nan and (got_g[mask] == want_g[mask]).all()):
                    bad.append(f"trial {trial}: {name} mismatch")
            finite = [v for v in tpr if math.isfinite(v)]
            if finite and sum(finite) > 0:
                got_r = reo_at_k(tpr)
                want_r = oracles.reo_brute(tpr)
                if not math.isclose(got_r, want_r, rel_tol=1e-12,
                                    abs_tol=1e-15):
                    bad.append(f"trial {trial}: reo {got_r} != {want_r}")
        # a ranker that scores by the true label saturates everything
        for trial in range(5):
            ds = random_dataset(rng, n_rows=60, multi_group_prob=0.2)
            scores = ds.labels.astype(np.float64)
            u, _ = user_auc(ds.user_ids, scores, ds.labels)
            if not math.isnan(u) and u != 1.0:
                bad.append(f"perfect {trial}: uauc {u}")
            n, _ = ndcg_at_k(ds.user_ids, scores, ds.labels, ds.item_ids, 5)
            if not math.isnan(n) and n != 1.0:
                bad.append(f"perfect {trial}: ndcg {n}")
            for v in evaluate(ds, scores).group_ehr:
                if not math.isnan(v) and v != 1.0:
                    bad.append(f"perfect {trial}: ehr {v}")
            whole_list = evaluate(ds, scores, k=len(ds))
            if np.isfinite(whole_list.group_tpr).any() and whole_list.reo != 0.0:
                bad.append(f"perfect {trial}: reo@inf nonzero")
        elapsed = time.perf_counter() - t0
        ok = not bad and elapsed < 10.0
        _report(8, desc, ok,
                bad[0] if bad else f"50 random + 5 perfect-ranker instances "
                                   f"exact, {elapsed:.1f}s")


def test_criterion_09_statistics_oracles():
    desc = "correlations and OLS match the reference stats"
    with criterion(9, desc):
        import scipy.stats

        x = np.array([1.0, 2.0, 2.0, 3.0, 4.0, 5.0, 5.0, 5.0, 7.0, 9.0])
        y = np.array([2.0, 1.0, 3.0, 3.0, 5.0, 4.0, 6.0, 5.0, 8.0, 9.0])
        x2 = np.array([-1.3, -0.4, 0.0, 0.2, 0.9, 1.7, 2.4, 3.1])
        y2 = np.array([-0.9, -0.6, 0.4, -0.1, 1.2, 1.1, 2.6, 2.2])
        bad = []
        for xs, ys in ((x, y), (x2, y2)):
            got = pearson(xs, ys)
            ref_r, ref_p = scipy.stats.pearsonr(xs, ys)
            if abs(got.r - float(ref_r)) > 1e-6:
                bad.append(f"pearson r {got.r} vs {ref_r}")
            if abs(got.p_value - float(ref_p)) > 1e-6:
                bad.append(f"pearson p {got.p_value} vs {ref_p}")
            got_s = spearman(xs, ys)
            ref = scipy.stats.spearmanr(xs, ys)
            if abs(got_s.r - float(ref.statistic)) > 1e-6:
                bad.append(f"spearman r {got_s.r} vs {ref.statistic}")
            if abs(got_s.p_value - float(ref.pvalue)) > 1e-6:
                bad.append(f"spearman p {got_s.p_value} vs {ref.pvalue}")
        fit = ols_fit(x, y)
        if abs(float(fit.residuals.sum())) > 1e-9:
            bad.append(f"residual sum {fit.residuals.sum()}")
        if abs(pearson(fit.residuals, x).r) > 1e-9:
            bad.append(f"residual-x correlation {pearson(fit.residuals, x).r}")
        _report(9, desc, not bad, bad[0] if bad else
                "pearson/spearman r and p within 1e-6; OLS residuals clean")


PIPELINE_FILES = [
    "schema.json", "truth.json",
    "train.csv", "val.csv", "test.csv",
    "unbiased_val.csv", "unbiased_test.csv",
    "model_base.bin", "train_report.json", "analysis.json",
    *(f"model_reduced_{a}.bin" for a in ("1", "0.8", "0.6", "0.4", "0.2", "0")),
    *(f"model_reconstructed_{v}.bin" for v in VARIANTS),
    *(f"grid_{v}.json" for v in VARIANTS),
    "eval_summary.json",
]


def test_criterion_10_determinism(tmp_path):
    desc = "pipeline rerun with the same seed is byte-identical"
    with criterion(10, desc):
        import json

        flags = ["--users", "60", "--items", "30", "--groups", "3",
                 "--exposures-per-user", "24",
                 "--unbiased-val-per-user", "2",
                 "--unbiased-test-per-user", "3",
                 "--embedding-dim", "8", "--max-epochs", "3",
                 "--batch-size", "64", "--seed", "0"]
        a, b = tmp_path / "a", tmp_path / "b"
        rc_a = cli_main(["pipeline", *flags, "--out", str(a)])
        rc_b = cli_main(["pipeline", *flags, "--out", str(b)])
        differing = [name for name in PIPELINE_FILES
                     if (a / name).read_bytes() != (b / name).read_bytes()]
        with open(a / "manifest.json") as fh:
            ma = json.load(fh)
        with open(b / "manifest.json") as fh:
            mb = json.load(fh)
        for m in (ma, mb):
            m.pop("wall_seconds")
            m["arguments"].pop("out")
        ok = rc_a == 0 and rc_b == 0 and not differing and ma == mb
        _report(10, desc, ok,
                f"differing files: {differing}" if differing else
                f"{len(PIPELINE_FILES)} artifacts byte-identical, "
                f"manifests equal modulo wall time")
