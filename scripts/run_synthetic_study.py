#!/usr/bin/env python3
"""End-to-end study on synthetic data: `ctrbias pipeline` on the study
world, then its bias-chain and correction tables.

The exposure log over-samples some groups and under-samples others, so
their training positive ratios diverge from the unbiased click rates.
The tables show how far that imbalance travels into the linear weights
and rankings, and what each correction buys back: reduction at every
--alpha strength on the biased test split (deltas are relative to the
untouched model), reconstruction by each variant on the unbiased one.

Any `ctrbias pipeline` flag may follow; flags override the preset, e.g.
`run_synthetic_study.py --alpha 0.5,0 --out runs/other`. Every number
printed is read back from the run directory's JSON files.
"""

import json
import math
import sys
from pathlib import Path

from ctrbias import cli

PRESET = [
    "--users", "2500", "--items", "1200", "--groups", "12",
    "--exposures-per-user", "104",
    "--unbiased-val-per-user", "4", "--unbiased-test-per-user", "12",
    "--pref-scale", "1.5", "--item-offset-scale", "0.4", "--temp-high", "4.0",
    "--l2", "1.5e-4", "--seed", "7", "--out", "runs/study",
]


def fmt(v, width=9, prec=4):
    if v is None or not math.isfinite(v):
        return " " * (width - 3) + "n/a"
    return f"{v:{width}.{prec}f}"


def delta(a, b):
    if a is None or b is None or b == 0:
        return "     n/a"
    return f"{(a - b) / b:+8.2%}"


def print_tables(run: Path, n_unbiased_val: int) -> None:
    def load(name):
        return json.loads((run / name).read_text(encoding="utf-8"))

    report, chain, summary = (load("train_report.json"), load("analysis.json"),
                              load("eval_summary.json"))
    base, base_ub = summary["base_test"], summary["base_unbiased_test"]
    print(f"synthetic log: {report['n_train']} train / {report['n_val']} val / "
          f"{base['n_samples']} test biased rows, "
          f"{n_unbiased_val} + {base_ub['n_samples']} unbiased")
    print(f"trained {report['arch']}: {report['epochs_run']} epochs, "
          f"best val UAUC {report['best_val_uauc']:.4f} "
          f"at epoch {report['best_epoch']}")

    print("\nper-group view (train split):")
    print("  group      n_pos    n_neg    ratio    weight")
    stats = chain["train_stats"]
    for label, n_pos, n_neg, ratio, weight in zip(
            chain["group_labels"], stats["n_pos"], stats["n_neg"],
            stats["ratio"], chain["bias_weights"]):
        print(f"  {label:<8s} {n_pos:8d} {n_neg:8d} "
              f"{fmt(ratio, 8)} {fmt(weight, 9, 4)}")

    print("\nchain correlations against train positive ratios:")
    for name, key in (("weight pearson", "weight_ratio_pearson"),
                      ("weight spearman", "weight_ratio_spearman"),
                      ("mean score pearson", "score_ratio_pearson"),
                      ("test EHR spearman", "ehr_ratio_spearman")):
        corr = chain[key]
        if corr is None:
            print(f"  {name:<20s} undefined")
        else:
            print(f"  {name:<20s} r={corr['r']:+.4f}  p={corr['p_value']:.3e}")
    if chain["variances"] is not None:
        lin, high = chain["variances"]["linear"], chain["variances"]["high_order"]
        print("\ngroup-mean score variance on test (linear vs high-order):")
        for label in (0, 1):
            print(f"  label {label}: {lin[f'label_{label}']:.4f} vs "
                  f"{high[f'label_{label}']:.4f}")
    for err in chain["errors"]:
        print(f"  note: {err}")

    print(f"\nbiased test split, reduction sweep (k={base['k']}):")
    print(f"  {'model':<12s} {'UAUC':>8s} {'dUAUC':>8s} "
          f"{'NDCG':>8s} {'dNDCG':>8s} {'REO':>8s} {'dREO':>8s}")
    reduced = sorted(((float(key[len("reduced_"):-len("_test")]), rep)
                      for key, rep in summary.items()
                      if key.startswith("reduced_")),
                     key=lambda pair: pair[0], reverse=True)
    for name, rep in [("base", base)] + [(f"alpha={a:g}", r) for a, r in reduced]:
        print(f"  {name:<12s} {fmt(rep['uauc'], 8)} {delta(rep['uauc'], base['uauc'])} "
              f"{fmt(rep['ndcg'], 8)} {delta(rep['ndcg'], base['ndcg'])} "
              f"{fmt(rep['reo'], 8)} {delta(rep['reo'], base['reo'])}")

    print(f"\nunbiased test split (k={base_ub['k']}):")
    print(f"  {'model':<22s} {'UAUC':>9s} {'NDCG':>9s}")
    print(f"  {'base':<22s} {fmt(base_ub['uauc'])} {fmt(base_ub['ndcg'])}")
    for key, rep in summary.items():
        if not key.startswith("reconstructed_"):
            continue
        variant = key[len("reconstructed_"):-len("_unbiased_test")]
        best = load(f"grid_{variant}.json")["best"]
        print(f"  {'recon ' + variant:<22s} {fmt(rep['uauc'])} {fmt(rep['ndcg'])}")
        print(f"  {'':<22s} beta={best['beta']:g} gamma={best['gamma']:g} "
              f"({delta(rep['uauc'], base_ub['uauc']).strip()} UAUC vs base)")


def main(argv=None) -> int:
    argv = [*PRESET, *(sys.argv[1:] if argv is None else argv)]
    code = cli.main(["pipeline", *argv])
    if code == 0:
        args = cli.build_parser().parse_args(["pipeline", *argv])
        # synth draws exactly this many unbiased validation rows
        print_tables(Path(args.out), args.users * args.unbiased_val_per_user)
    return code


if __name__ == "__main__":
    sys.exit(main())
