"""Command-line front end.

Subcommands mirror the library stages: synth (generate data), train,
analyze (bias chain report), debias (reduce or reconstruct weights), eval
(metrics for one model on one split), and pipeline (all stages in memory
on synthetic data).

The settings flags of synth, train and pipeline are the fields of
SynthConfig and TrainConfig with dashes for underscores
(--exposures-per-user sets exposures_per_user), each with its field's
type and default. --users, --items and --groups set n_users, n_items and
n_groups, and --rho-min and --rho-max span rho evenly over the groups.

Each command returns where its manifest goes and the files it wrote; main
times the command and writes that manifest, recording the arguments, the
digest of every file named by a path flag, the output digests, and the
wall time. Wall time lives only in the manifest so all other artifacts
are byte-stable across reruns with the same seed.

Exit codes: 0 success, 2 configuration/input errors, 3 numerical failures.
"""

from __future__ import annotations

import argparse
import hashlib
import re
import sys
import time
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import __version__
from .analysis import bias_chain_report
from .data import FeatureIndex, FieldSchema, ingest_csv
from .debias import VARIANTS, DebiasConfig, grid_search_reconstruction, reduce_weights
from .errors import ConfigError, CtrBiasError, NumericalError
from .evaluation import DEFAULT_K, evaluate
from .models import (ARCH_TAGS, load_model, predict, prediction_parts, rescore,
                     save_model)
from .numeric import write_json
from .synth import SynthConfig, generate
from .training import ABLATIONS, OPTIMIZERS, TrainConfig, train


def _file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# Path flags whose files a manifest digests as inputs, when given.
INPUT_FLAGS = ("schema", "model", "train", "val", "eval", "unbiased", "data")


def _write_manifest(path, args: argparse.Namespace, outputs, t0: float) -> None:
    base = Path(path).resolve().parent
    inputs = [p for p in (getattr(args, flag, None) for flag in INPUT_FLAGS) if p]

    def rel(p) -> str:
        resolved = Path(p).resolve()
        try:
            return str(resolved.relative_to(base))
        except ValueError:
            return str(p)

    manifest = {
        "command": args.command,
        "version": __version__,
        "arguments": {k: v for k, v in vars(args).items() if k != "func"},
        "inputs": {rel(p): _file_digest(p) for p in inputs},
        "outputs": {rel(p): _file_digest(p) for p in outputs},
        "wall_seconds": time.perf_counter() - t0,
    }
    write_json(path, manifest)


def _parse_grid(text: str | None, flag: str):
    if text is None:
        return None
    try:
        values = tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise ConfigError(f"{flag} must be comma-separated numbers, got {text!r}")
    if not values:
        raise ConfigError(f"{flag} must contain at least one value")
    return values


# Config fields whose flags go by a shorter name, and those that take choices.
SHORT_FLAGS = {"n_users": "users", "n_items": "items", "n_groups": "groups"}
CHOICES = {"arch": tuple(ARCH_TAGS), "optimizer": OPTIMIZERS, "ablation": ABLATIONS}


def _add_config_flags(p: argparse.ArgumentParser, cls, skip=()) -> None:
    """One flag per field of the config class cls, bar those in skip, with
    the field's type and default. SynthConfig.rho is spanned by --rho-min
    and --rho-max, whose defaults are the ends of the default rho."""
    hints = get_type_hints(cls)
    for f in fields(cls):
        if f.name == "rho":
            lo, *_, hi = SynthConfig().resolved_rho()
            p.add_argument("--rho-min", type=float, default=float(lo))
            p.add_argument("--rho-max", type=float, default=float(hi))
        elif f.name not in skip:
            flag = SHORT_FLAGS.get(f.name, f.name).replace("_", "-")
            p.add_argument(f"--{flag}", type=hints[f.name], default=f.default,
                           choices=CHOICES.get(f.name))


def _config(cls, args, **given):
    """A cls whose fields, bar those given, come from their flags in args;
    rho spans --rho-min..--rho-max evenly over the groups."""
    for f in fields(cls):
        if f.name == "rho":
            # SynthConfig rejects a count under 2 or over --items before it reads rho
            count = max(min(args.groups, args.items), 0)
            given["rho"] = tuple(np.linspace(args.rho_min, args.rho_max, count))
        elif f.name not in given:
            given[f.name] = getattr(args, SHORT_FLAGS.get(f.name, f.name))
    return cls(**given)


def _write_synth(result, outdir: Path) -> list:
    outdir.mkdir(parents=True, exist_ok=True)
    outputs = [outdir / "schema.json"]
    result.schema.save(outputs[0])
    for name, ds in result.splits.items():
        outputs.append(outdir / f"{name}.csv")
        ds.to_csv(outputs[-1])
    outputs.append(outdir / "truth.json")
    # the user and item factors are ~95% of the truth's bytes and nothing
    # reads them from the file; they stay in result.truth
    write_json(outputs[-1], {key: value for key, value in result.truth.items()
                             if key not in ("user_factors", "item_factors")})
    return outputs


def _load(args, *csv_flags):
    """The schema; the model when --model is given (checked against the
    schema's digest), else None; and one Dataset per named CSV flag, None
    where the flag is absent. The CSVs are ingested through one
    FeatureIndex in the order named, each tagged with its file's stem;
    every Dataset keeps that index, so all name their categories as the
    last file leaves it.
    """
    schema = FieldSchema.load(args.schema)
    model = getattr(args, "model", None)
    params = (load_model(model, expected_schema_digest=schema.digest())
              if model else None)
    index = FeatureIndex(schema)
    datasets = [ingest_csv(p, schema, index, split_tag=Path(p).stem) if p else None
                for p in (getattr(args, flag) for flag in csv_flags)]
    return schema, params, datasets


def cmd_synth(args):
    result = generate(_config(SynthConfig, args))
    outdir = Path(args.out)
    return outdir / "manifest.json", _write_synth(result, outdir)


def cmd_train(args):
    _, _, (train_ds, val_ds) = _load(args, "train", "val")
    cfg = _config(TrainConfig, args)
    params, report = train(train_ds, val_ds, cfg)
    save_model(params, args.out)
    report_path = Path(args.report) if args.report else Path(str(args.out) + ".report.json")
    write_json(report_path, report.to_json_dict())
    return Path(str(args.out) + ".manifest.json"), [args.out, report_path]


def cmd_analyze(args):
    _, params, (train_ds, eval_ds) = _load(args, "train", "eval")
    report = bias_chain_report(params, train_ds, eval_ds)
    write_json(args.out, report.to_json_dict())
    return Path(str(args.out) + ".manifest.json"), [args.out]


def cmd_debias(args):
    outputs = [args.out]
    if args.mode == "reduce":
        for flag, value in (("--unbiased", args.unbiased), ("--train", args.train),
                            ("--variant", args.variant),
                            ("--beta-grid", args.beta_grid),
                            ("--gamma-grid", args.gamma_grid),
                            ("--grid-report", args.grid_report)):
            if value is not None:
                raise ConfigError(f"{flag} does not apply to reduction")
        alpha = 0.0 if args.alpha is None else args.alpha
        schema, params, _ = _load(args)
        adjusted = reduce_weights(params, schema.bias_range, alpha)
    else:
        if args.alpha is not None:
            raise ConfigError("--alpha only applies to reduction")
        if not args.train or not args.unbiased:
            raise ConfigError("reconstruction requires --train and --unbiased")
        cfg = DebiasConfig(
            beta_grid=_parse_grid(args.beta_grid, "--beta-grid") or DebiasConfig().beta_grid,
            gamma_grid=_parse_grid(args.gamma_grid, "--gamma-grid") or DebiasConfig().gamma_grid,
            variant=args.variant or "vanilla",
            k=args.k,
        )
        _, params, (train_ds, unbiased_ds) = _load(args, "train", "unbiased")
        adjusted, result = grid_search_reconstruction(params, train_ds, unbiased_ds, cfg)
        grid_path = Path(args.grid_report) if args.grid_report else Path(str(args.out) + ".grid.json")
        write_json(grid_path, result.to_json_dict())
        outputs.append(grid_path)
    save_model(adjusted, args.out)
    return Path(str(args.out) + ".manifest.json"), outputs


def cmd_eval(args):
    _, params, (ds,) = _load(args, "data")
    report = evaluate(ds, predict(params, ds.indices, ds.values), args.k)
    write_json(args.out, report.to_json_dict())
    outputs = [args.out]
    if args.group_csv:
        report.write_group_csv(args.group_csv)
        outputs.append(args.group_csv)
    return Path(str(args.out) + ".manifest.json"), outputs


def cmd_pipeline(args):
    """synth -> train -> analyze -> every correction -> eval, in memory.

    One trained model is reduced at each --alpha strength and
    reconstructed with each of the debias.VARIANTS. A correction changes
    only linear weights, so the base model scores test and unbiased_test
    once each, and every model is evaluated by rescoring its linear part
    on the base's high-order part, which gives its predict() bit for bit.
    Stage seeds derive from --seed (synth uses it directly, training uses
    seed + 1) so one flag pins the whole run. Every setting is checked
    before synthesis and nothing is written until training returns, so a
    bad setting or a failed training leaves no run directory behind.
    Reduced models of strengths this run does not write are deleted, so
    the directory holds exactly the models its manifest lists.
    """
    alphas = {}  # artifact name -> strength; equal strengths are duplicates
    for alpha in _parse_grid(args.alpha, "--alpha"):
        if not 0.0 <= alpha <= 1.0:
            raise ConfigError(f"--alpha values must be in [0, 1], got {alpha}")
        name = f"{alpha + 0.0:g}"  # -0 names the model of 0
        if alphas.setdefault(name, alpha) != alpha:
            raise ConfigError(f"--alpha values {alphas[name]!r} and {alpha!r} "
                              f"would share model_reduced_{name}.bin")
    if args.unbiased_val_per_user < 2:
        # a user needs both labels for a per-user AUC to select a grid point
        raise ConfigError("--unbiased-val-per-user must be >= 2, got "
                          f"{args.unbiased_val_per_user}")
    if args.unbiased_test_per_user < 1:
        # the corrected models are evaluated on the unbiased test split
        raise ConfigError("--unbiased-test-per-user must be >= 1, got "
                          f"{args.unbiased_test_per_user}")
    debias_cfgs = [DebiasConfig(variant=v, k=args.k) for v in VARIANTS]
    tcfg = _config(TrainConfig, args, optimizer="adam", ablation="none",
                   seed=args.seed + 1)
    outdir = Path(args.out)
    result = generate(_config(SynthConfig, args))
    params, report = train(result.train, result.val, tcfg)
    outputs = _write_synth(result, outdir)

    def artifact(name: str) -> Path:
        outputs.append(outdir / name)
        return outputs[-1]

    save_model(params, artifact("model_base.bin"))
    write_json(artifact("train_report.json"), report.to_json_dict())
    chain = bias_chain_report(params, result.train, eval_ds=result.test)
    write_json(artifact("analysis.json"), chain.to_json_dict())
    high = {split: prediction_parts(params, ds.indices, ds.values).high_order
            for split, ds in (("test", result.test),
                              ("unbiased_test", result.unbiased_test))}

    def evaluated(model, split: str):
        ds = result.splits[split]
        _, scores = rescore(model, high[split], ds.indices, ds.values)
        return evaluate(ds, scores, args.k)

    summary = {"base_test": evaluated(params, "test"),
               "base_unbiased_test": evaluated(params, "unbiased_test")}

    for name, alpha in alphas.items():
        reduced = reduce_weights(params, result.schema.bias_range, alpha)
        save_model(reduced, artifact(f"model_reduced_{name}.bin"))
        summary[f"reduced_{name}_test"] = evaluated(reduced, "test")
    for path in outdir.glob("model_reduced_*.bin"):  # an earlier run's strengths
        if path not in outputs:
            path.unlink()

    for cfg in debias_cfgs:
        best, grid = grid_search_reconstruction(
            params, result.train, result.unbiased_val, cfg)
        save_model(best, artifact(f"model_reconstructed_{cfg.variant}.bin"))
        write_json(artifact(f"grid_{cfg.variant}.json"), grid.to_json_dict())
        summary[f"reconstructed_{cfg.variant}_unbiased_test"] = evaluated(
            best, "unbiased_test")

    write_json(artifact("eval_summary.json"),
               {k: v.to_json_dict() for k, v in summary.items()})
    return outdir / "manifest.json", outputs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctrbias",
        description="Train CTR models, trace feature-level bias, and correct it.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic biased/unbiased splits")
    _add_config_flags(p, SynthConfig)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="fit a model on CSV splits")
    p.add_argument("--schema", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--val")
    _add_config_flags(p, TrainConfig)
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--report", help="training report path (default <out>.report.json)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("analyze", help="report the ratio->weight->score chain")
    p.add_argument("--schema", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--eval", help="evaluation split for variance/exposure links")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("debias", help="adjust bias-field weights of a model")
    p.add_argument("--schema", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--mode", choices=("reduce", "reconstruct"), required=True)
    p.add_argument("--alpha", type=float, help="reduction strength (reduce only)")
    p.add_argument("--train", help="training CSV (reconstruct only)")
    p.add_argument("--unbiased", help="unbiased CSV (reconstruct only)")
    p.add_argument("--variant", choices=VARIANTS)
    p.add_argument("--beta-grid", help="comma-separated ratio coefficients")
    p.add_argument("--gamma-grid", help="comma-separated residual coefficients")
    p.add_argument("--k", type=int, default=DEFAULT_K)
    p.add_argument("--out", required=True)
    p.add_argument("--grid-report", help="grid table path (default <out>.grid.json)")
    p.set_defaults(func=cmd_debias)

    p = sub.add_parser("eval", help="score a model on a split and report metrics")
    p.add_argument("--schema", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--k", type=int, default=DEFAULT_K)
    p.add_argument("--out", required=True)
    p.add_argument("--group-csv", help="also write per-group metrics as CSV")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("pipeline", help="run every stage on synthetic data")
    _add_config_flags(p, SynthConfig)
    _add_config_flags(p, TrainConfig, skip=("optimizer", "ablation", "seed"))
    p.add_argument("--alpha", default="1.0,0.8,0.6,0.4,0.2,0.0",
                   help="comma-separated reduction strengths in [0, 1]")
    p.add_argument("--k", type=int, default=DEFAULT_K)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_pipeline)

    return parser


# List flags whose first value may be negative. argparse reads "-1,2" as
# an option, so main passes "--beta-grid -1,2" on as "--beta-grid=-1,2".
LIST_FLAGS = ("--beta-grid", "--gamma-grid", "--alpha")


def _joined_lists(argv) -> list:
    out = []
    for token in argv:
        if out and out[-1] in LIST_FLAGS and re.match(r"-[\d.]", token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_joined_lists(argv))
    t0 = time.perf_counter()
    try:
        manifest, outputs = args.func(args)
        _write_manifest(manifest, args, outputs, t0)
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except CtrBiasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    return 0
