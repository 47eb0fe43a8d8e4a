"""The three benchmark workloads: inputs, timed chain, output checks.

Every call into ctrbias goes through a module attribute (``training.train``,
``models.predict``, ...) so that the tracer's wrappers see it.

Each workload object offers
    setup(seed, size, workdir) -> state     untimed; counts toward setup_s
    run(state, stage, tag) -> outputs       the timed section; stage is a
                                            tracing.Stages timer
    check(state, outputs) -> [(name, ok)]   output checks, hold for any seed
    digests(outputs) -> {output: sha256}    deterministic outputs only
    uauc(outputs) -> float                  the unbiased_uauc metric
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from ctrbias import analysis, cli, data, debias, evaluation, models, synth, training
from ctrbias.numeric import to_jsonable

VARIANTS = ("vanilla", "wo_residual", "wo_ratio")
ALPHAS = (1.0, 0.8, 0.6, 0.4, 0.2, 0.0)  # scripts/sweep_reduction_strength.py
K = 5

# World sizes. "full" is the scripts/run_synthetic_study.py default world
# (208k biased train rows); "toy" only proves that the harness runs.
SIZES = {
    "full": dict(n_users=2500, n_items=1200, n_groups=12, exposures_per_user=104,
                 unbiased_val_per_user=4, unbiased_test_per_user=12),
    "toy": dict(n_users=150, n_items=60, n_groups=4, exposures_per_user=40,
                unbiased_val_per_user=4, unbiased_test_per_user=6),
}
WORLD = dict(pref_scale=1.5, item_offset_scale=0.4, temp_high=4.0)
L2 = 1.5e-4

# Epoch counts are fixed so that every seed does the same amount of work:
# with patience 3 (the default), a 4-epoch run cannot stop early, yet the
# per-epoch validation and best-snapshot restore still run.
STUDY_EPOCHS = 4
NFM_EPOCHS = 1
CLI_EPOCHS = 1


def grid_size(variant: str) -> int:
    n = len(set(debias.DEFAULT_GRID))
    return n * n if variant == "vanilla" else n


def sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def json_digest(obj) -> str:
    return sha256(json.dumps(to_jsonable(obj), sort_keys=True).encode())


def world_config(seed: int, size: str) -> synth.SynthConfig:
    dims = SIZES[size]
    return synth.SynthConfig(
        rho=tuple(np.linspace(0.1, 0.9, dims["n_groups"])), seed=seed,
        **dims, **WORLD)


def rescored_uauc(params, ds) -> float:
    return evaluation.user_auc(
        ds.user_ids, models.predict(params, ds.indices, ds.values), ds.labels)[0]


def grid_checks(grids: dict, unbiased_val) -> list[tuple[str, bool]]:
    out = []
    for variant, (best, result) in grids.items():
        out.append((f"grid.{variant}.rescore_equals_best",
                    rescored_uauc(best, unbiased_val) == result.best.uauc))
        out.append((f"grid.{variant}.one_row_per_point",
                    len(result.table) == grid_size(variant)
                    and not result.errors))
    return out


def grid_digests(grids: dict) -> dict[str, str]:
    out = {}
    for variant, (best, result) in grids.items():
        out[f"grid.{variant}"] = json_digest(result.to_json_dict())
        out[f"model.recon_{variant}"] = sha256(models.serialize(best))
    return out


def spearman_defined(corr) -> bool:
    return corr is not None and math.isfinite(corr.r)


class Study:
    """In-memory chain at the run_synthetic_study.py world, FM d=16."""

    name = "study"

    def setup(self, seed, size, workdir):
        world = synth.generate(world_config(seed, size))
        cfg = training.TrainConfig(arch="fm", embedding_dim=16, l2=L2,
                                   max_epochs=STUDY_EPOCHS, seed=seed + 1)
        return SimpleNamespace(world=world, cfg=cfg)

    def run(self, state, stage, tag):
        w = state.world
        out = SimpleNamespace(grids={}, unbiased={})
        with stage("train"):
            out.params, out.report = training.train(w.train, w.val, state.cfg)
        with stage("bias_chain_report"):
            out.chain = analysis.bias_chain_report(out.params, w.train,
                                                   eval_ds=w.test)
        with stage("reduce_evaluate"):
            reduced = debias.reduce_weights(out.params, w.schema.bias_range, 0.0)
            out.reduced_eval = evaluation.evaluate(
                w.test, models.predict(reduced, w.test.indices, w.test.values), K)
        with stage("grid_search"):
            for variant in VARIANTS:
                out.grids[variant] = debias.grid_search_reconstruction(
                    out.params, w.train, w.unbiased_val,
                    debias.DebiasConfig(variant=variant, k=K))
        with stage("evaluate_unbiased"):
            ubt = w.unbiased_test
            models_to_score = {"base": out.params}
            models_to_score.update({v: best for v, (best, _) in out.grids.items()})
            for label, params in models_to_score.items():
                out.unbiased[label] = evaluation.evaluate(
                    ubt, models.predict(params, ubt.indices, ubt.values), K)
        return out

    def check(self, state, out):
        return grid_checks(out.grids, state.world.unbiased_val) + [
            ("bias_chain.weight_ratio_spearman_defined",
             spearman_defined(out.chain.weight_ratio_spearman)),
            ("unbiased_uauc_finite", math.isfinite(self.uauc(out))),
        ]

    def digests(self, out):
        d = {
            "model.base": sha256(models.serialize(out.params)),
            "train_report": json_digest(out.report.to_json_dict()),
            "bias_chain_report": json_digest(out.chain.to_json_dict()),
            "eval.test.reduced": json_digest(out.reduced_eval.to_json_dict()),
        }
        d.update(grid_digests(out.grids))
        for label, rep in out.unbiased.items():
            d[f"eval.unbiased_test.{label}"] = json_digest(rep.to_json_dict())
        return d

    def uauc(self, out):
        return out.unbiased["vanilla"].uauc


class TuneNfm:
    """The correction stage alone, on an NFM base model built in set-up."""

    name = "tune_nfm"

    def setup(self, seed, size, workdir):
        world = synth.generate(world_config(seed, size))
        cfg = training.TrainConfig(arch="nfm", embedding_dim=16, l2=L2,
                                   max_epochs=NFM_EPOCHS, seed=seed + 1)
        params, _ = training.train(world.train, world.val, cfg)
        return SimpleNamespace(world=world, params=params)

    def run(self, state, stage, tag):
        w, params = state.world, state.params
        ubt = w.unbiased_test
        out = SimpleNamespace(grids={}, winners={}, sweep={})
        with stage("grid_search"):
            for variant in VARIANTS:
                out.grids[variant] = debias.grid_search_reconstruction(
                    params, w.train, w.unbiased_val,
                    debias.DebiasConfig(variant=variant, k=K))
        with stage("evaluate_winners"):
            for variant, (best, _) in out.grids.items():
                out.winners[variant] = evaluation.evaluate(
                    ubt, models.predict(best, ubt.indices, ubt.values), K)
        with stage("alpha_sweep"):
            for alpha in ALPHAS:
                reduced = debias.reduce_weights(params, w.schema.bias_range, alpha)
                out.sweep[alpha] = evaluation.evaluate(
                    w.test, models.predict(reduced, w.test.indices,
                                           w.test.values), K)
        return out

    def check(self, state, out):
        return grid_checks(out.grids, state.world.unbiased_val) + [
            ("unbiased_uauc_finite", math.isfinite(self.uauc(out))),
            ("alpha_sweep_uauc_finite",
             all(math.isfinite(rep.uauc) for rep in out.sweep.values())),
        ]

    def digests(self, out):
        d = grid_digests(out.grids)
        for variant, rep in out.winners.items():
            d[f"eval.unbiased_test.{variant}"] = json_digest(rep.to_json_dict())
        for alpha, rep in out.sweep.items():
            d[f"eval.test.alpha_{alpha:g}"] = json_digest(rep.to_json_dict())
        return d

    def uauc(self, out):
        return out.winners["vanilla"].uauc


class CommandFailed(RuntimeError):
    pass


def file_sha256(path) -> str:
    return sha256(Path(path).read_bytes())


class CliFiles:
    """The file-based chain through ctrbias.cli.main, one process."""

    name = "cli_files"

    def setup(self, seed, size, workdir):
        return SimpleNamespace(seed=seed, size=size, workdir=workdir)

    def run(self, state, stage, tag):
        root = state.workdir / tag
        d, m = root / "data", root / "model"
        m.mkdir(parents=True)
        dims = SIZES[state.size]
        schema = ["--schema", str(d / "schema.json")]
        synth_flags = ["--users", dims["n_users"], "--items", dims["n_items"],
                       "--groups", dims["n_groups"],
                       "--exposures-per-user", dims["exposures_per_user"],
                       "--unbiased-val-per-user", dims["unbiased_val_per_user"],
                       "--unbiased-test-per-user", dims["unbiased_test_per_user"],
                       "--pref-scale", WORLD["pref_scale"],
                       "--item-offset-scale", WORLD["item_offset_scale"],
                       "--temp-high", WORLD["temp_high"]]
        commands = [
            ("synth", ["synth", *synth_flags, "--seed", state.seed, "--out", d]),
            ("train", ["train", *schema, "--train", d / "train.csv",
                       "--val", d / "val.csv", "--l2", L2,
                       "--max-epochs", CLI_EPOCHS, "--seed", state.seed + 1,
                       "--out", m / "base.bin"]),
            ("analyze", ["analyze", *schema, "--model", m / "base.bin",
                         "--train", d / "train.csv", "--eval", d / "test.csv",
                         "--out", m / "analysis.json"]),
            ("debias_reconstruct", [
                "debias", *schema, "--model", m / "base.bin",
                "--mode", "reconstruct", "--variant", "wo_ratio",
                "--train", d / "train.csv", "--unbiased", d / "unbiased_val.csv",
                "--out", m / "recon.bin"]),
            ("debias_reduce", ["debias", *schema, "--model", m / "base.bin",
                               "--mode", "reduce", "--alpha", "0.5",
                               "--out", m / "reduced.bin"]),
            ("eval", ["eval", *schema, "--model", m / "recon.bin",
                      "--data", d / "unbiased_test.csv",
                      "--out", m / "eval.json"]),
        ]
        for step, argv in commands:
            with stage(step):
                code = cli.main([str(a) for a in argv])
            if code != 0:
                raise CommandFailed(f"ctrbias {argv[0]} exited {code}")
        return SimpleNamespace(root=root, data=d, model=m)

    def check(self, state, out):
        d, m = out.data, out.model
        schema = data.FieldSchema.load(d / "schema.json")

        def load(name):
            return data.ingest_csv(d / name, schema, data.FeatureIndex(schema))

        recon = models.load_model(m / "recon.bin")
        grid = json.loads((m / "recon.bin.grid.json").read_text())
        report = json.loads((m / "eval.json").read_text())
        chain = json.loads((m / "analysis.json").read_text())
        ubt = load("unbiased_test.csv")
        in_memory = evaluation.evaluate(
            ubt, models.predict(recon, ubt.indices, ubt.values), K)
        spearman = chain["weight_ratio_spearman"]
        return [
            ("manifest_digests_match", self._manifests_match(out.root)),
            ("grid.wo_ratio.rescore_equals_best",
             rescored_uauc(recon, load("unbiased_val.csv"))
             == grid["best"]["uauc"]),
            ("grid.wo_ratio.one_row_per_point",
             len(grid["table"]) == grid_size("wo_ratio") and not grid["errors"]),
            ("bias_chain.weight_ratio_spearman_defined",
             spearman is not None and spearman["r"] is not None),
            ("eval_uauc_equals_in_memory", report["uauc"] == in_memory.uauc),
        ]

    @staticmethod
    def _manifests_match(root: Path) -> bool:
        manifests = sorted(root.rglob("*manifest.json"))
        if len(manifests) != 6:
            return False
        for path in manifests:
            manifest = json.loads(path.read_text())
            for name, digest in {**manifest["inputs"],
                                 **manifest["outputs"]}.items():
                target = Path(name)
                if not target.is_absolute():
                    target = path.parent / target
                if file_sha256(target) != digest:
                    return False
        return True

    def digests(self, out):
        return {str(p.relative_to(out.root)): file_sha256(p)
                for p in sorted(out.root.rglob("*"))
                if p.is_file() and not p.name.endswith("manifest.json")}

    def uauc(self, out):
        return json.loads((out.model / "eval.json").read_text())["uauc"]


WORKLOADS = {w.name: w for w in (Study(), CliFiles(), TuneNfm())}
