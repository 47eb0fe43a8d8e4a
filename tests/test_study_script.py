"""scripts/run_synthetic_study.py: a preset over `ctrbias pipeline` plus a
printer whose every number comes from the run directory's JSON."""

import importlib.util
import json
from pathlib import Path

import pytest

from ctrbias.debias import VARIANTS

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_synthetic_study.py"
TOY = ["--users", "150", "--items", "60", "--groups", "4",
       "--exposures-per-user", "40", "--max-epochs", "2", "--seed", "3",
       "--unbiased-val-per-user", "4", "--unbiased-test-per-user", "6"]


@pytest.fixture(scope="module")
def study():
    spec = importlib.util.spec_from_file_location("run_synthetic_study", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def read_json(path):
    return json.loads(Path(path).read_text())


def f4(v):
    return f"{v:.4f}"


def test_bad_input_exits_2_with_one_line(study, tmp_path, capsys):
    out = tmp_path / "run"
    assert study.main(["--groups", "1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: need at least 2 groups\n"
    assert captured.out == ""
    assert not out.exists()


def test_toy_run_prints_what_the_json_holds(study, tmp_path, capsys):
    out = tmp_path / "run"
    assert study.main([*TOY, "--alpha", "0.5,1,0", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = {}
    for line in lines:
        words = line.split()
        if words:
            rows.setdefault(words[0], []).append(words[1:])
    report = read_json(out / "train_report.json")
    chain = read_json(out / "analysis.json")
    summary = read_json(out / "eval_summary.json")

    assert lines[0] == (
        f"synthetic log: {report['n_train']} train / {report['n_val']} val / "
        f"{summary['base_test']['n_samples']} test biased rows, "
        f"{150 * 4} + {summary['base_unbiased_test']['n_samples']} unbiased")
    assert rows["trained"] == [[
        "fm:", f"{report['epochs_run']}", "epochs,", "best", "val", "UAUC",
        f4(report["best_val_uauc"]), "at", "epoch", f"{report['best_epoch']}"]]

    stats = chain["train_stats"]
    for i, label in enumerate(chain["group_labels"]):
        assert rows[label] == [[f"{stats['n_pos'][i]}", f"{stats['n_neg'][i]}",
                                f4(stats["ratio"][i]), f4(chain["bias_weights"][i])]]

    for key in ("weight_ratio_pearson", "weight_ratio_spearman",
                "score_ratio_pearson", "ehr_ratio_spearman"):
        corr = chain[key]
        assert sum(f"r={corr['r']:+.4f}  p={corr['p_value']:.3e}" in line
                   for line in lines) >= 1, key
    lin, high = chain["variances"]["linear"], chain["variances"]["high_order"]
    assert rows["label"] == [
        [f"{g}:", f4(lin[f"label_{g}"]), "vs", f4(high[f"label_{g}"])] for g in (0, 1)]

    base, base_ub = summary["base_test"], summary["base_unbiased_test"]
    assert rows["base"] == [
        [f4(base["uauc"]), "+0.00%", f4(base["ndcg"]), "+0.00%",
         f4(base["reo"]), "+0.00%"],
        [f4(base_ub["uauc"]), f4(base_ub["ndcg"])]]

    # one row per alpha, strongest reduction last; deltas against the base
    alpha_rows = [line.split() for line in lines
                  if line.lstrip().startswith("alpha=")]
    assert [r[0] for r in alpha_rows] == ["alpha=1", "alpha=0.5", "alpha=0"]
    for row in alpha_rows:
        rep = summary[f"reduced_{row[0].removeprefix('alpha=')}_test"]
        for i, metric in enumerate(("uauc", "ndcg", "reo")):
            assert row[1 + 2 * i] == f4(rep[metric])
            assert row[2 + 2 * i] == f"{(rep[metric] - base[metric]) / base[metric]:+.2%}"

    # one row per variant, each followed by its grid's best point
    recon = rows["recon"]
    assert sorted(r[0] for r in recon) == sorted(VARIANTS)
    for row in recon:
        rep = summary[f"reconstructed_{row[0]}_unbiased_test"]
        assert row[1:] == [f4(rep["uauc"]), f4(rep["ndcg"])]
    best_lines = [line.split() for line in lines if line.lstrip().startswith("beta=")]
    for row, best_line in zip(recon, best_lines):
        best = read_json(out / f"grid_{row[0]}.json")["best"]
        rep = summary[f"reconstructed_{row[0]}_unbiased_test"]
        gain = (rep["uauc"] - base_ub["uauc"]) / base_ub["uauc"]
        assert best_line == [f"beta={best['beta']:g}", f"gamma={best['gamma']:g}",
                             f"({gain:+.2%}", "UAUC", "vs", "base)"]
