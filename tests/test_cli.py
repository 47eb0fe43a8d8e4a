"""End-to-end command-line runs: artifacts, exit codes, determinism."""

import csv
import hashlib
import json
import os
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import ctrbias
from conftest import count_calls
from ctrbias import cli, models, synth, training
from ctrbias.analysis import ols_fit
from ctrbias.cli import _config, build_parser, main
from ctrbias.data import FeatureIndex, FieldSchema, ingest_csv
from ctrbias.debias import VARIANTS, DebiasConfig, grid_search_reconstruction
from ctrbias.evaluation import DEFAULT_K, evaluate, group_stats
from ctrbias.models import load_model, predict, save_model
from ctrbias.numeric import to_jsonable
from ctrbias.synth import SynthConfig
from ctrbias.training import TrainConfig

SYNTH_FLAGS = [
    "--users", "60", "--items", "30", "--groups", "3",
    "--exposures-per-user", "24",
    "--unbiased-val-per-user", "2", "--unbiased-test-per-user", "3",
    "--seed", "0",
]
TRAIN_FLAGS = ["--embedding-dim", "8", "--max-epochs", "3", "--batch-size", "64"]

SPLIT_NAMES = ("train", "val", "test", "unbiased_val", "unbiased_test")


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """One synthetic corpus plus one trained model, shared by the tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert main(["synth", *SYNTH_FLAGS, "--out", str(data)]) == 0
    model = root / "model.bin"
    rc = main([
        "train", "--schema", str(data / "schema.json"),
        "--train", str(data / "train.csv"), "--val", str(data / "val.csv"),
        *TRAIN_FLAGS, "--seed", "1", "--out", str(model),
    ])
    assert rc == 0
    return {"root": root, "data": data, "model": model,
            "schema": data / "schema.json"}


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def as_json(obj):
    """obj as it reads back from a JSON artifact."""
    return json.loads(json.dumps(to_jsonable(obj)))


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def filtered_copy(src, dst, column, keep):
    """Copy the CSV at src to dst keeping only the rows whose `column` cell
    passes keep."""
    with open(src, newline="") as fh:
        header, *rows = csv.reader(fh)
    col = header.index(column)
    with open(dst, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(r for r in rows if keep(r[col]))
    return dst


def one_class_copy(src, dst, label):
    """Copy the CSV at src to dst keeping only the rows with this label."""
    return filtered_copy(src, dst, "label", lambda y: y == label)


def assert_manifest_lists(out, inputs, outputs):
    """<out>.manifest.json digests exactly these input and output files."""
    path = Path(str(out) + ".manifest.json")
    manifest = read_json(path)
    for section, files in (("inputs", inputs), ("outputs", outputs)):
        listed = {(path.parent / name).resolve(): digest
                  for name, digest in manifest[section].items()}
        assert listed == {Path(f).resolve(): sha256(f) for f in files}, section


class TestSynth:
    def test_artifacts(self, corpus):
        data = corpus["data"]
        for name in SPLIT_NAMES:
            assert (data / f"{name}.csv").exists()
        schema = FieldSchema.load(data / "schema.json")
        assert schema.num_groups == 3
        ds = ingest_csv(data / "train.csv", schema, FeatureIndex(schema))
        assert len(ds) == int(round(60 * 24 * 0.8))
        truth = read_json(data / "truth.json")
        assert len(truth["rho_target"]) == 3
        assert "user_factors" not in truth and "item_factors" not in truth

    def test_manifest_digests(self, corpus):
        data = corpus["data"]
        manifest = read_json(data / "manifest.json")
        assert manifest["command"] == "synth"
        assert "wall_seconds" in manifest
        # paths are relative to the manifest's directory
        digest = manifest["outputs"]["train.csv"]
        raw = hashlib.sha256((data / "train.csv").read_bytes()).hexdigest()
        assert digest == raw

    @pytest.mark.parametrize("flags, group, ratio", [
        # preferences so strong that no offset in the bisection bounds
        # brings g0's clicks down to its ratio
        (["--pref-scale", "1000", "--users", "20", "--items", "10"], "g0", 0.1),
        # one exposure in all: g1 has no training row to calibrate on
        (["--users", "1", "--items", "2", "--exposures-per-user", "1",
          "--unbiased-val-per-user", "0", "--unbiased-test-per-user", "0"], "g1", 0.9),
    ])
    def test_calibration_failure_exits_3_before_any_output(self, tmp_path, capsys,
                                                            flags, group, ratio):
        out = tmp_path / "data"
        assert main(["synth", *flags, "--groups", "2", "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"numerical error: cannot calibrate group {group!r} to positive ratio {ratio}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, value, message", [
        ("synth", "--pref-dim", "1000000000000", "cannot allocate the synthetic world: "),
        ("synth", "--exposures-per-user", "1000000000000",
         "cannot allocate the synthetic world: "),
        ("synth", "--pref-dim", str(10**17), "cannot allocate the synthetic world: "),
        ("synth", "--exposures-per-user", str(10**19), "cannot allocate the synthetic world: "),
        # refused before the rho span over that many groups is built
        ("synth", "--groups", "100000000000000", "need at least one item per group"),
        ("pipeline", "--pref-dim", "1000000000000", "cannot allocate the synthetic world: "),
        ("synth", "--items", "2000000000000", "cannot allocate the synthetic world: "),
        ("synth", "--users", "2000000000000", "cannot allocate the synthetic world: "),
    ])
    def test_world_too_large_exits_2_with_one_line(self, tmp_path, capsys, monkeypatch,
                                                   command, flag, value, message):
        # numpy refuses each array of these sizes without allocating it, and
        # no id string is built for a world that cannot be held
        build = synth._id_strings

        def bounded(prefix, count):
            assert count < 10**6, f"{count} ids built before the allocation guard"
            return build(prefix, count)

        monkeypatch.setattr(synth, "_id_strings", bounded)
        out = tmp_path / "data"
        assert main([command, flag, value, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: {message}")
        assert not out.exists()


class TestTrain:
    def test_model_and_report(self, corpus):
        schema = FieldSchema.load(corpus["schema"])
        params = load_model(corpus["model"],
                            expected_schema_digest=schema.digest())
        assert params.n == schema.n
        report = read_json(str(corpus["model"]) + ".report.json")
        assert report["epochs_run"] >= 1
        assert report["arch"] == "fm"
        assert "wall_seconds" not in report
        manifest = read_json(str(corpus["model"]) + ".manifest.json")
        assert manifest["command"] == "train"

    def test_missing_schema_exits_2(self, tmp_path, capsys):
        rc = main(["train", "--schema", str(tmp_path / "nope.json"),
                   "--train", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "m.bin")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_divergence_exits_3(self, corpus, tmp_path, capsys):
        rc = main([
            "train", "--schema", str(corpus["schema"]),
            "--train", str(corpus["data"] / "train.csv"),
            "--optimizer", "plain_sgd", "--lr", "1e6",
            "--max-epochs", "5", "--batch-size", "8",
            "--embedding-dim", "8", "--out", str(tmp_path / "m.bin"),
        ])
        assert rc == 3
        assert "numerical error" in capsys.readouterr().err

    def test_non_finite_scores_without_validation_exit_3(self, tmp_path, capsys):
        # the one step leaves the batch loss finite but every weight near
        # 1e200, which no later command could score
        data, model = tmp_path / "d", tmp_path / "m.bin"
        assert main(["synth", "--users", "30", "--items", "12", "--groups", "3",
                     "--exposures-per-user", "10", "--seed", "1",
                     "--out", str(data)]) == 0
        rc = main(["train", "--schema", str(data / "schema.json"),
                   "--train", str(data / "train.csv"), "--lr", "1e200",
                   "--max-epochs", "1", "--out", str(model)])
        assert rc == 3
        assert capsys.readouterr().err == (
            "numerical error: non-finite training scores at epoch 0\n")
        assert not model.exists()

    @pytest.mark.parametrize("key, value, message", [
        ("label_threshold", "abc",
         "label_threshold must be a finite number or null, got 'abc'"),
        ("label_threshold", float("nan"),
         "label_threshold must be a finite number or null, got nan"),
        ("field.cardinality", "abc", "field 'user' has invalid cardinality 'abc'"),
        ("field.cardinality", 60.7, "field 'user' has invalid cardinality 60.7"),
        ("field.cardinality", True, "field 'user' has invalid cardinality True"),
        ("field.name", ["user"], "field name ['user'] is not a string"),
        ("field.name", "\udcff", "field name '\\udcff' cannot be written as UTF-8"),
        ("bias_field", ["group"], "bias field ['group'] is not a declared field"),
        ("categories", ["x"], "schema categories must be an object of string arrays"),
        ("categories", {"user": 5},
         "schema categories must be an object of string arrays"),
        ("categories", {"group": "g0"},
         "schema categories must be an object of string arrays"),
        ("categories", {"group": ["\udcff", "b"]},
         "field 'group': category '\\udcff' cannot round-trip through CSV; "
         "categories must be non-empty UTF-8 strings without '|'"),
        ("categoires", {}, "unknown schema key 'categoires'"),
        ("field.cardinalty", 60, "unknown schema key 'cardinalty'"),
    ], ids=["threshold-text", "threshold-nan", "cardinality-text",
            "cardinality-float", "cardinality-bool", "name-list", "name-surrogate",
            "bias-field-list", "categories-list", "categories-number",
            "categories-string", "categories-surrogate",
            "unknown-key", "unknown-field-key"])
    def test_malformed_schema_exits_2_with_one_line(self, corpus, tmp_path, capsys,
                                                    key, value, message):
        schema = read_json(corpus["schema"])
        # "field.<key>" is a key of the first field entry, the user field
        entry, _, key = key.rpartition(".")
        (schema["fields"][0] if entry else schema)[key] = value
        bad = tmp_path / "schema.json"
        bad.write_text(json.dumps(schema))
        rc = main(["train", "--schema", str(bad),
                   "--train", str(corpus["data"] / "train.csv"),
                   "--out", str(tmp_path / "m.bin")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"
        assert not (tmp_path / "m.bin").exists()

    @pytest.mark.parametrize("cardinality", [10**14, 10**20])
    def test_oversized_schema_exits_2_with_one_line(self, corpus, tmp_path,
                                                    capsys, cardinality):
        # 10**14 users need 11.4 PiB of embeddings; 10**20 passes int64.
        # numpy refuses either size without allocating.
        schema = read_json(corpus["schema"])
        schema["fields"][0]["cardinality"] = cardinality
        big = tmp_path / "schema.json"
        big.write_text(json.dumps(schema))
        rc = main(["train", "--schema", str(big),
                   "--train", str(corpus["data"] / "train.csv"),
                   "--out", str(tmp_path / "m.bin")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        if cardinality == 10**14:
            assert err.startswith("error: cannot allocate the weight tables "
                                  f"for n={cardinality + 30 + 3} features of "
                                  "dimension d=16: ")
        else:
            assert err.startswith(f"error: {big}: schema declares ")
        assert not (tmp_path / "m.bin").exists()

    @pytest.mark.parametrize("hidden", [2**62, 10**14])
    def test_oversized_nfm_head_exits_2_with_one_line(self, corpus, tmp_path, capsys,
                                                      hidden):
        # numpy refuses a (16, hidden) table of either size without allocating
        rc = main(["train", "--schema", str(corpus["schema"]),
                   "--train", str(corpus["data"] / "train.csv"), "--arch", "nfm",
                   "--hidden", str(hidden), "--out", str(tmp_path / "m.bin")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: cannot allocate the weight tables for n=")
        assert f"features of dimension d=16 and {hidden} hidden units: " in err
        assert not (tmp_path / "m.bin").exists()


    def test_schema_with_a_bom_trains_the_same_model(self, corpus, tmp_path,
                                                    capsys):
        raw = corpus["schema"].read_bytes()
        bom = tmp_path / "schema.json"
        bom.write_bytes(b"\xef\xbb\xbf" + raw)
        assert FieldSchema.load(bom) == FieldSchema.load(corpus["schema"])
        rc = main(["train", "--schema", str(bom),
                   "--train", str(corpus["data"] / "train.csv"),
                   "--val", str(corpus["data"] / "val.csv"),
                   *TRAIN_FLAGS, "--seed", "1", "--out", str(tmp_path / "m.bin")])
        assert rc == 0
        assert (tmp_path / "m.bin").read_bytes() == corpus["model"].read_bytes()
        # a byte that is not UTF-8 is named at its offset in the file
        at = raw.index(b'"') + 1
        bom.write_bytes(b"\xef\xbb\xbf" + raw[:at] + b"\xff" + raw[at:])
        rc = main(["train", "--schema", str(bom),
                   "--train", str(corpus["data"] / "train.csv"),
                   "--out", str(tmp_path / "m2.bin")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            f"error: {bom}: byte 0xff at offset {at + 3} is not UTF-8")

    @pytest.mark.parametrize("label", ["0", "1"])
    def test_one_class_validation_exits_2_with_one_line(self, corpus, tmp_path,
                                                        capsys, label):
        val = one_class_copy(corpus["data"] / "val.csv", tmp_path / "val.csv",
                             label)
        rc = main(["train", "--schema", str(corpus["schema"]),
                   "--train", str(corpus["data"] / "train.csv"),
                   "--val", str(val), *TRAIN_FLAGS,
                   "--out", str(tmp_path / "m.bin")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: no validation user has both a positive and a negative "
            "sample, so early stopping has no per-user AUC to watch\n")
        assert not (tmp_path / "m.bin").exists()


class TestAnalyze:
    def test_report(self, corpus, tmp_path):
        out = tmp_path / "analysis.json"
        rc = main([
            "analyze", "--schema", str(corpus["schema"]),
            "--model", str(corpus["model"]),
            "--train", str(corpus["data"] / "train.csv"),
            "--eval", str(corpus["data"] / "test.csv"),
            "--out", str(out),
        ])
        assert rc == 0
        report = read_json(out)
        assert len(report["group_labels"]) == 3
        assert report["weight_ratio_spearman"]["method"] == "spearman"
        assert report["variances"] is not None

    def test_header_only_training_log(self, corpus, tmp_path):
        train = filtered_copy(corpus["data"] / "train.csv",
                              tmp_path / "train.csv", "label", lambda y: False)
        out = tmp_path / "analysis.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main([
                "analyze", "--schema", str(corpus["schema"]),
                "--model", str(corpus["model"]), "--train", str(train),
                "--out", str(out),
            ])
        assert rc == 0
        report = read_json(out)
        assert report["train_stats"]["n_pos"] == [0, 0, 0]
        assert report["errors"][0] == "3 group(s) have no training exposure"

    def test_header_only_eval_log_exits_2(self, corpus, tmp_path, capsys):
        empty = filtered_copy(corpus["data"] / "test.csv", tmp_path / "empty.csv",
                              "label", lambda y: False)
        out = tmp_path / "analysis.json"
        rc = main([
            "analyze", "--schema", str(corpus["schema"]),
            "--model", str(corpus["model"]),
            "--train", str(corpus["data"] / "train.csv"),
            "--eval", str(empty), "--out", str(out),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "cannot evaluate an empty dataset" in err
        assert not out.exists()

    def test_schema_mismatch_exits_2(self, corpus, tmp_path, capsys):
        other = tmp_path / "other"
        assert main(["synth", "--users", "40", "--items", "20",
                     "--groups", "4", "--exposures-per-user", "20",
                     "--unbiased-val-per-user", "1",
                     "--unbiased-test-per-user", "1",
                     "--seed", "1", "--out", str(other)]) == 0
        rc = main([
            "analyze", "--schema", str(other / "schema.json"),
            "--model", str(corpus["model"]),
            "--train", str(other / "train.csv"),
            "--out", str(tmp_path / "a.json"),
        ])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestEval:
    def test_report_and_group_csv(self, corpus, tmp_path):
        out = tmp_path / "eval.json"
        group_csv = tmp_path / "groups.csv"
        rc = main([
            "eval", "--schema", str(corpus["schema"]),
            "--model", str(corpus["model"]),
            "--data", str(corpus["data"] / "test.csv"),
            "--k", "3", "--out", str(out), "--group-csv", str(group_csv),
        ])
        assert rc == 0
        report = read_json(out)
        assert 0.0 <= report["uauc"] <= 1.0
        assert report["k"] == 3
        with open(group_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][3] == "tpr_at_3"
        assert len(rows) == 4

    def test_group_csv_is_utf8_under_an_ascii_locale(self, tmp_path):
        # the C locale with UTF-8 mode and locale coercion off makes ASCII
        # the default text encoding
        schema = FieldSchema((("user", 2), ("group", 2)), "group")
        schema.save(tmp_path / "schema.json")
        log = tmp_path / "log.csv"
        log.write_text("user_id,item_id,label,timestamp,user,group\n" + "".join(
            f"{u},i{j},{y},{t},{u},{g}\n" for t, (u, j, y, g) in enumerate([
                ("u1", 1, 1, "blau"), ("u1", 2, 0, "grün"),
                ("u2", 1, 0, "blau"), ("u2", 2, 1, "grün")])),
            encoding="utf-8")
        s = ["--schema", str(tmp_path / "schema.json")]
        model = tmp_path / "m.bin"
        assert main(["train", *s, "--train", str(log), "--max-epochs", "1",
                     "--out", str(model)]) == 0
        src = str(Path(ctrbias.__file__).parents[1])
        env = {**os.environ, "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
               "LC_ALL": "C", "PYTHONPATH": os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([
            sys.executable, "-m", "ctrbias", "eval", *s, "--model", str(model),
            "--data", str(log), "--out", str(tmp_path / "e.json"),
            "--group-csv", str(tmp_path / "g.csv"),
        ], env=env, capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr.decode(errors="replace")
        rows = (tmp_path / "g.csv").read_bytes().decode("utf-8").splitlines()
        assert [row.split(",")[0] for row in rows[1:]] == ["blau", "grün"]

    def test_report_is_tagged_with_the_file_stem(self, corpus, tmp_path):
        out = tmp_path / "eval.json"
        rc = main([
            "eval", "--schema", str(corpus["schema"]),
            "--model", str(corpus["model"]),
            "--data", str(corpus["data"] / "unbiased_test.csv"),
            "--out", str(out),
        ])
        assert rc == 0
        assert read_json(out)["split_tag"] == "unbiased_test"

    def test_undecodable_csv_exits_2_with_one_line(self, corpus, tmp_path,
                                                   capsys):
        lines = (corpus["data"] / "test.csv").read_bytes().splitlines(keepends=True)
        lines[4] = lines[4].replace(b",", b"\xff,", 1)
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"".join(lines))
        rc = main([
            "eval", "--schema", str(corpus["schema"]),
            "--model", str(corpus["model"]), "--data", str(bad),
            "--out", str(tmp_path / "eval.json"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: {bad}:5: byte 0xff is not UTF-8")

    def test_timestamp_beyond_int64_exits_2_with_one_line(self, corpus, tmp_path,
                                                           capsys):
        lines = (corpus["data"] / "test.csv").read_text().splitlines(keepends=True)
        cells = lines[4].split(",")
        cells[3] = "99999999999999999999"
        lines[4] = ",".join(cells)
        bad = tmp_path / "bad.csv"
        bad.write_text("".join(lines))
        rc = main([
            "eval", "--schema", str(corpus["schema"]),
            "--model", str(corpus["model"]), "--data", str(bad),
            "--out", str(tmp_path / "eval.json"),
        ])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {bad}:5: timestamp '99999999999999999999' is outside "
            "the int64 range\n")

    def test_undecodable_schema_exits_2_with_one_line(self, corpus, tmp_path,
                                                      capsys):
        raw = corpus["schema"].read_bytes()
        bad = tmp_path / "schema.json"
        bad.write_bytes(raw.replace(b'"', b'"\xff', 1))
        rc = main([
            "eval", "--schema", str(bad), "--model", str(corpus["model"]),
            "--data", str(corpus["data"] / "test.csv"),
            "--out", str(tmp_path / "eval.json"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: {bad}: byte 0xff at offset ")
        assert "is not UTF-8" in err


    def test_k_beyond_every_user_block_equals_the_largest_block(
            self, corpus, tmp_path):
        # any cutoff at or past the largest user block selects every row
        data = corpus["data"] / "test.csv"
        n_rows = len(data.read_text().splitlines()) - 1
        reports = {}
        for k in (n_rows, 10 ** 20):
            out = tmp_path / f"eval_{k}.json"
            assert main([
                "eval", "--schema", str(corpus["schema"]),
                "--model", str(corpus["model"]), "--data", str(data),
                "--k", str(k), "--out", str(out),
            ]) == 0
            reports[k] = read_json(out)
        assert reports[10 ** 20].pop("k") == 10 ** 20
        assert reports[n_rows].pop("k") == n_rows
        assert reports[10 ** 20] == reports[n_rows]
        for k in (n_rows, 10 ** 20):
            assert main([
                "debias", "--schema", str(corpus["schema"]),
                "--model", str(corpus["model"]), "--mode", "reconstruct",
                "--train", str(corpus["data"] / "train.csv"),
                "--unbiased", str(corpus["data"] / "unbiased_val.csv"),
                "--k", str(k), "--out", str(tmp_path / f"recon_{k}.bin"),
            ]) == 0
        for suffix in ("", ".grid.json"):
            assert ((tmp_path / f"recon_{n_rows}.bin{suffix}").read_bytes()
                    == (tmp_path / f"recon_{10 ** 20}.bin{suffix}").read_bytes())


class TestDebias:
    def test_reduce_scales_weights(self, corpus, tmp_path):
        out = tmp_path / "reduced.bin"
        rc = main([
            "debias", "--schema", str(corpus["schema"]),
            "--model", str(corpus["model"]), "--mode", "reduce",
            "--alpha", "0.5", "--out", str(out),
        ])
        assert rc == 0
        schema = FieldSchema.load(corpus["schema"])
        base = load_model(corpus["model"])
        reduced = load_model(out)
        lo, hi = schema.bias_range
        np.testing.assert_array_equal(reduced.w[lo:hi], base.w[lo:hi] * 0.5)
        np.testing.assert_array_equal(reduced.w[:lo], base.w[:lo])
        assert reduced.provenance["created_by"] == "reduce"

    def test_reduce_defaults_to_alpha_zero(self, corpus, tmp_path):
        out = tmp_path / "zeroed.bin"
        rc = main([
            "debias", "--schema", str(corpus["schema"]),
            "--model", str(corpus["model"]), "--mode", "reduce",
            "--out", str(out),
        ])
        assert rc == 0
        schema = FieldSchema.load(corpus["schema"])
        lo, hi = schema.bias_range
        assert (load_model(out).w[lo:hi] == 0.0).all()

    @pytest.mark.parametrize("flag, value", [
        ("--unbiased", "u.csv"), ("--train", "t.csv"), ("--variant", "vanilla"),
        ("--beta-grid", "0,1"), ("--gamma-grid", "0,1"), ("--grid-report", "g.json"),
    ])
    def test_reduce_rejects_reconstruction_flags(self, corpus, tmp_path, capsys,
                                                 flag, value):
        rc = main([
            "debias", "--schema", str(corpus["schema"]),
            "--model", str(corpus["model"]), "--mode", "reduce",
            flag, value, "--out", str(tmp_path / "x.bin"),
        ])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {flag} does not apply to reduction\n"
        assert not any(tmp_path.iterdir())

    def test_reduce_rejects_bad_alpha(self, corpus, tmp_path, capsys):
        rc = main([
            "debias", "--schema", str(corpus["schema"]),
            "--model", str(corpus["model"]), "--mode", "reduce",
            "--alpha", "1.5", "--out", str(tmp_path / "x.bin"),
        ])
        assert rc == 2
        capsys.readouterr()

    def test_non_object_provenance_exits_2_with_one_line(self, corpus,
                                                         tmp_path, capsys):
        params = load_model(corpus["model"])
        params.provenance = [1, 2]
        bad = tmp_path / "listprov.bin"
        save_model(params, bad)
        rc = main([
            "debias", "--schema", str(corpus["schema"]), "--model", str(bad),
            "--mode", "reduce", "--out", str(tmp_path / "x.bin"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err == f"error: {bad}: provenance record is not a JSON object\n"

    def test_reconstruct_writes_model_and_grid(self, corpus, tmp_path):
        out = tmp_path / "recon.bin"
        rc = main([
            "debias", "--schema", str(corpus["schema"]),
            "--model", str(corpus["model"]), "--mode", "reconstruct",
            "--train", str(corpus["data"] / "train.csv"),
            "--unbiased", str(corpus["data"] / "unbiased_val.csv"),
            "--beta-grid", "1,2", "--gamma-grid", "0.5,1",
            "--out", str(out),
        ])
        assert rc == 0
        params = load_model(out)
        assert params.provenance["created_by"] == "reconstruct"
        grid = read_json(str(out) + ".grid.json")
        assert grid["variant"] == "vanilla"
        assert len(grid["table"]) == 4
        assert grid["best"]["uauc"] == max(p["uauc"] for p in grid["table"])

    def test_reconstruct_variant_flag(self, corpus, tmp_path):
        out = tmp_path / "recon.bin"
        rc = main([
            "debias", "--schema", str(corpus["schema"]),
            "--model", str(corpus["model"]), "--mode", "reconstruct",
            "--train", str(corpus["data"] / "train.csv"),
            "--unbiased", str(corpus["data"] / "unbiased_val.csv"),
            "--variant", "wo_ratio", "--gamma-grid", "1,2",
            "--out", str(out),
        ])
        assert rc == 0
        grid = read_json(str(out) + ".grid.json")
        assert grid["variant"] == "wo_ratio"
        assert all(p["beta"] == 0.0 for p in grid["table"])

    def test_reconstruct_requires_both_csvs(self, corpus, tmp_path, capsys):
        rc = main([
            "debias", "--schema", str(corpus["schema"]),
            "--model", str(corpus["model"]), "--mode", "reconstruct",
            "--train", str(corpus["data"] / "train.csv"),
            "--out", str(tmp_path / "x.bin"),
        ])
        assert rc == 2
        assert "requires --train and --unbiased" in capsys.readouterr().err

    def test_reconstruct_rejects_alpha(self, corpus, tmp_path, capsys):
        rc = main([
            "debias", "--schema", str(corpus["schema"]),
            "--model", str(corpus["model"]), "--mode", "reconstruct",
            "--train", str(corpus["data"] / "train.csv"),
            "--unbiased", str(corpus["data"] / "unbiased_val.csv"),
            "--alpha", "0.5", "--out", str(tmp_path / "x.bin"),
        ])
        assert rc == 2
        capsys.readouterr()

    @pytest.mark.parametrize("label", ["0", "1"])
    def test_one_class_unbiased_log_exits_2_with_one_line(
            self, corpus, tmp_path, capsys, label):
        unbiased = one_class_copy(corpus["data"] / "unbiased_val.csv",
                                  tmp_path / "unbiased.csv", label)
        rc = main([
            "debias", "--schema", str(corpus["schema"]),
            "--model", str(corpus["model"]), "--mode", "reconstruct",
            "--train", str(corpus["data"] / "train.csv"),
            "--unbiased", str(unbiased), "--out", str(tmp_path / "x.bin"),
        ])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: no user of the unbiased split has both a positive and a "
            "negative sample, so no grid point has a per-user AUC\n")
        assert list(tmp_path.iterdir()) == [unbiased]

    def test_unexposed_unbiased_group_takes_the_global_ratio(self, corpus,
                                                             tmp_path):
        unbiased = filtered_copy(corpus["data"] / "unbiased_val.csv",
                                 tmp_path / "unbiased.csv", "group",
                                 lambda g: g != "g0")
        out = tmp_path / "recon.bin"
        rc = main([
            "debias", "--schema", str(corpus["schema"]),
            "--model", str(corpus["model"]), "--mode", "reconstruct",
            "--train", str(corpus["data"] / "train.csv"),
            "--unbiased", str(unbiased), "--out", str(out),
        ])
        assert rc == 0
        grid = read_json(str(out) + ".grid.json")
        assert grid["ratio_fallback_labels"] == ["g0"]
        assert grid["residual_fallback_labels"] == []
        with open(unbiased, newline="") as fh:
            labels = [int(r["label"]) for r in csv.DictReader(fh)]
        global_ratio = sum(labels) / len(labels)
        schema = FieldSchema.load(corpus["schema"])
        train_ds = ingest_csv(corpus["data"] / "train.csv", schema,
                              FeatureIndex(schema))
        lo, hi = schema.bias_range
        w = load_model(corpus["model"]).w[lo:hi]
        ratio = group_stats(train_ds).ratio
        fit = ols_fit(ratio, w)
        residual = w[0] - (fit.intercept + fit.coef[0] * ratio[0])
        beta, gamma = grid["best"]["beta"], grid["best"]["gamma"]
        assert load_model(out).w[lo] == beta * global_ratio + gamma * residual

    def test_training_log_with_one_group_exits_2_with_one_line(
            self, corpus, tmp_path, capsys):
        train = filtered_copy(corpus["data"] / "train.csv",
                              tmp_path / "train.csv", "group",
                              lambda g: g == "g0")
        rc = main([
            "debias", "--schema", str(corpus["schema"]),
            "--model", str(corpus["model"]), "--mode", "reconstruct",
            "--train", str(train),
            "--unbiased", str(corpus["data"] / "unbiased_val.csv"),
            "--out", str(tmp_path / "x.bin"),
        ])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: need at least two groups with training exposure to fit "
            "weights on ratios\n")
        assert list(tmp_path.iterdir()) == [train]

    def test_groups_a_later_file_adds_are_named_in_every_file(self, tmp_path):
        # no vocabulary: the index names C only when the second file is read
        schema = FieldSchema((("user", 4), ("group", 3)), "group")
        schema.save(tmp_path / "schema.json")
        head = "user_id,item_id,label,timestamp,user,group\n"
        (tmp_path / "tr.csv").write_text(head + "".join(
            f"{u},i{j},{y},{t},{u},{g}\n" for t, (u, j, y, g) in enumerate([
                ("u1", 1, 1, "A"), ("u1", 2, 0, "B"), ("u2", 1, 0, "A"),
                ("u2", 2, 1, "B"), ("u1", 3, 1, "B"), ("u2", 3, 0, "A")])))
        (tmp_path / "ub.csv").write_text(head + "".join(
            f"{u},i{j},{y},{t},{u},{g}\n" for t, (u, j, y, g) in enumerate([
                ("u1", 1, 1, "A"), ("u1", 4, 0, "C"), ("u2", 2, 1, "B"),
                ("u2", 4, 0, "C")])))
        s = ["--schema", str(tmp_path / "schema.json")]
        train, unbiased = str(tmp_path / "tr.csv"), str(tmp_path / "ub.csv")
        model = str(tmp_path / "m.bin")
        assert main(["train", *s, "--train", train, "--max-epochs", "1",
                     "--out", model]) == 0
        assert main(["debias", *s, "--model", model, "--mode", "reconstruct",
                     "--train", train, "--unbiased", unbiased,
                     "--out", str(tmp_path / "r.bin")]) == 0
        grid = read_json(tmp_path / "r.bin.grid.json")
        assert grid["residual_fallback_labels"] == ["C"]
        assert main(["analyze", *s, "--model", model, "--train", train,
                     "--eval", unbiased,
                     "--out", str(tmp_path / "analysis.json")]) == 0
        assert read_json(tmp_path / "analysis.json")["group_labels"] == [
            "A", "B", "C"]

    def test_bad_grid_text_exits_2(self, corpus, tmp_path, capsys):
        for grid, message in (("1,x", "comma-separated"),
                              (",", "at least one value")):
            rc = main([
                "debias", "--schema", str(corpus["schema"]),
                "--model", str(corpus["model"]), "--mode", "reconstruct",
                "--train", str(corpus["data"] / "train.csv"),
                "--unbiased", str(corpus["data"] / "unbiased_val.csv"),
                "--beta-grid", grid, "--out", str(tmp_path / "x.bin"),
            ])
            assert rc == 2
            assert message in capsys.readouterr().err


def scoring_commands(corpus, model, out):
    """argv of analyze, eval and both debias modes on model, keyed by name;
    each writes under the directory out."""
    s = ["--schema", str(corpus["schema"]), "--model", str(model)]
    data = corpus["data"]
    return {
        "analyze": ["analyze", *s, "--train", str(data / "train.csv"),
                    "--eval", str(data / "test.csv"), "--out", str(out / "a.json")],
        "eval": ["eval", *s, "--data", str(data / "test.csv"),
                 "--out", str(out / "e.json")],
        "reconstruct": ["debias", *s, "--mode", "reconstruct",
                        "--train", str(data / "train.csv"),
                        "--unbiased", str(data / "unbiased_val.csv"),
                        "--out", str(out / "c.bin")],
        "reduce": ["debias", *s, "--mode", "reduce", "--out", str(out / "r.bin")],
    }


class TestModelsThatCannotScore:
    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_weights_exit_2_at_load(self, corpus, tmp_path, capsys,
                                               value):
        # reduce used to write another such model, and the scoring commands
        # failed at ranking, after their work
        params = load_model(corpus["model"])
        params.w[0] = value
        model = tmp_path / "bad.bin"
        save_model(params, model)
        for name, argv in scoring_commands(corpus, model, tmp_path).items():
            assert main(argv) == 2, name
            assert capsys.readouterr().err == (
                f"error: {model}: w holds NaN or infinity\n"), name
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.bin"]

    def test_huge_weights_exit_3_from_every_command_that_scores(self, corpus,
                                                                 tmp_path):
        # finite weights near 1e200 overflow every score; the commands run in
        # fresh processes that turn any RuntimeWarning into an error
        params = load_model(corpus["model"])
        for table in (params.w, params.V):
            table *= 1e200
        model = tmp_path / "huge.bin"
        save_model(params, model)
        src = str(Path(ctrbias.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        for name, argv in scoring_commands(corpus, model, tmp_path).items():
            done = subprocess.run(
                [sys.executable, "-W", "error::RuntimeWarning", "-m", "ctrbias",
                 *argv], env=env, capture_output=True, text=True, timeout=120)
            if name == "reduce":  # scores nothing, so writes the reduced model
                assert done.returncode == 0, done.stderr
                continue
            assert done.returncode == 3, (name, done.stderr)
            assert done.stderr.startswith("numerical error: the model scores row ")
            assert done.stderr.count("\n") == 1, (name, done.stderr)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "huge.bin", "r.bin", "r.bin.manifest.json"]


class TestManifests:
    """Each manifest digests the files its path flags name and the files
    its command wrote, and nothing else."""

    def test_train_with_val(self, corpus):
        data, model = corpus["data"], corpus["model"]
        assert_manifest_lists(
            model, [corpus["schema"], data / "train.csv", data / "val.csv"],
            [model, str(model) + ".report.json"])

    def test_analyze_with_eval(self, corpus, tmp_path):
        data, out = corpus["data"], tmp_path / "analysis.json"
        assert main(["analyze", "--schema", str(corpus["schema"]),
                     "--model", str(corpus["model"]),
                     "--train", str(data / "train.csv"),
                     "--eval", str(data / "test.csv"), "--out", str(out)]) == 0
        assert_manifest_lists(
            out, [corpus["schema"], corpus["model"], data / "train.csv",
                  data / "test.csv"], [out])

    def test_debias_reduce(self, corpus, tmp_path):
        out = tmp_path / "reduced.bin"
        assert main(["debias", "--schema", str(corpus["schema"]),
                     "--model", str(corpus["model"]), "--mode", "reduce",
                     "--out", str(out)]) == 0
        assert_manifest_lists(out, [corpus["schema"], corpus["model"]], [out])

    def test_debias_reconstruct(self, corpus, tmp_path):
        data, out = corpus["data"], tmp_path / "recon.bin"
        grid = tmp_path / "grid.json"
        assert main(["debias", "--schema", str(corpus["schema"]),
                     "--model", str(corpus["model"]), "--mode", "reconstruct",
                     "--train", str(data / "train.csv"),
                     "--unbiased", str(data / "unbiased_val.csv"),
                     "--beta-grid", "1", "--gamma-grid", "1",
                     "--grid-report", str(grid), "--out", str(out)]) == 0
        assert_manifest_lists(
            out, [corpus["schema"], corpus["model"], data / "train.csv",
                  data / "unbiased_val.csv"], [out, grid])

    def test_eval_with_group_csv(self, corpus, tmp_path):
        out, groups = tmp_path / "eval.json", tmp_path / "groups.csv"
        data = corpus["data"] / "test.csv"
        assert main(["eval", "--schema", str(corpus["schema"]),
                     "--model", str(corpus["model"]), "--data", str(data),
                     "--out", str(out), "--group-csv", str(groups)]) == 0
        assert_manifest_lists(out, [corpus["schema"], corpus["model"], data],
                              [out, groups])


ALPHA_NAMES = ("1", "0.8", "0.6", "0.4", "0.2", "0")
PIPELINE_FILES = [
    "schema.json", "truth.json", "manifest.json",
    "train.csv", "val.csv", "test.csv",
    "unbiased_val.csv", "unbiased_test.csv",
    "model_base.bin", "train_report.json", "analysis.json",
    *(f"model_reduced_{a}.bin" for a in ALPHA_NAMES),
    *(f"model_reconstructed_{v}.bin" for v in VARIANTS),
    *(f"grid_{v}.json" for v in VARIANTS),
    "eval_summary.json",
]
SUMMARY_KEYS = {"base_test", "base_unbiased_test",
                *(f"reduced_{a}_test" for a in ALPHA_NAMES),
                *(f"reconstructed_{v}_unbiased_test" for v in VARIANTS)}


def run_pipeline(outdir, *extra):
    return main([
        "pipeline", *SYNTH_FLAGS, *TRAIN_FLAGS, *extra,
        "--out", str(outdir),
    ])


class TestPipeline:
    def test_full_artifact_set(self, tmp_path):
        out = tmp_path / "run"
        assert run_pipeline(out) == 0
        present = sorted(p.name for p in out.iterdir())
        assert present == sorted(PIPELINE_FILES)
        summary = read_json(out / "eval_summary.json")
        assert set(summary) == SUMMARY_KEYS
        for report in summary.values():
            assert 0.0 <= report["uauc"] <= 1.0
        manifest = read_json(out / "manifest.json")
        assert manifest["command"] == "pipeline"
        assert set(manifest["outputs"]) == set(PIPELINE_FILES) - {"manifest.json"}

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_pipeline(a) == 0
        assert run_pipeline(b) == 0
        for name in PIPELINE_FILES:
            if name == "manifest.json":
                continue
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        ma, mb = read_json(a / "manifest.json"), read_json(b / "manifest.json")
        for m in (ma, mb):
            m.pop("wall_seconds")
            m["arguments"].pop("out")
        assert ma == mb

    def test_summary_and_grids_match_the_saved_files(self, tmp_path):
        out = tmp_path / "run"
        assert run_pipeline(out, "--alpha", "0.5,0,0.5", "--k", "3") == 0
        assert sorted(p.name for p in out.glob("model_reduced_*")) == [
            "model_reduced_0.5.bin", "model_reduced_0.bin"]
        schema = FieldSchema.load(out / "schema.json")

        def load(split, tag="train"):
            return ingest_csv(out / f"{split}.csv", schema, FeatureIndex(schema),
                              split_tag=tag)

        summary = read_json(out / "eval_summary.json")
        assert set(summary) == {"base_test", "base_unbiased_test",
                                "reduced_0.5_test", "reduced_0_test",
                                *(f"reconstructed_{v}_unbiased_test"
                                  for v in VARIANTS)}
        for key, saved in summary.items():
            stem = key.removesuffix("_test")
            split = tag = "test"
            if stem.endswith("_unbiased"):
                stem = stem.removesuffix("_unbiased")
                split = tag = "unbiased_test"
            params = load_model(out / f"model_{stem}.bin")
            ds = load(split, tag)
            report = evaluate(ds, predict(params, ds.indices, ds.values), k=3)
            assert saved == as_json(report.to_json_dict()), key

        base = load_model(out / "model_base.bin")
        train_ds, unbiased_val = load("train"), load("unbiased_val")
        for variant in VARIANTS:
            _, grid = grid_search_reconstruction(
                base, train_ds, unbiased_val, DebiasConfig(variant=variant, k=3))
            assert read_json(out / f"grid_{variant}.json") == as_json(
                grid.to_json_dict()), variant

    def test_eval_of_the_test_file_equals_base_test(self, tmp_path):
        out = tmp_path / "run"
        assert run_pipeline(out) == 0
        report = tmp_path / "eval.json"
        assert main([
            "eval", "--schema", str(out / "schema.json"),
            "--model", str(out / "model_base.bin"),
            "--data", str(out / "test.csv"), "--out", str(report),
        ]) == 0
        assert read_json(report) == read_json(out / "eval_summary.json")["base_test"]

    def test_rerun_into_same_directory_drops_other_strengths(self, tmp_path):
        out = tmp_path / "run"
        assert run_pipeline(out) == 0
        assert run_pipeline(out, "--alpha", "0.5") == 0
        manifest = read_json(out / "manifest.json")
        on_disk = sorted(p.name for p in out.glob("model_reduced_*"))
        assert on_disk == sorted(name for name in manifest["outputs"]
                                 if name.startswith("model_reduced_"))
        assert on_disk == ["model_reduced_0.5.bin"]

    @pytest.mark.parametrize("bad", [
        ["--alpha", "1.5"], ["--alpha", "nan"], ["--alpha", "0.5,-0.1"],
        ["--alpha", "0.5,x"], ["--k", "0"],
        ["--unbiased-val-per-user", "1"], ["--unbiased-val-per-user", "0"],
        ["--unbiased-test-per-user", "0"],
        ["--item-offset-scale", "nan"], ["--temp-high", "inf"],
        ["--lr", "nan"], ["--l2", "inf"], ["--rho-min", "nan"],
        ["--pref-scale", "nan"], ["--pref-dim", "0"], ["--groups", "-1"],
        # weight tables numpy refuses to allocate
        ["--embedding-dim", "1000000000000"],
        ["--arch", "nfm", "--hidden", "100000000000000"],
    ])
    def test_bad_setting_exits_2_before_any_output(self, tmp_path, capsys, bad):
        out = tmp_path / "run"
        assert run_pipeline(out, *bad) == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert not out.exists()

    def test_each_split_is_scored_once_per_base_model(self, tmp_path,
                                                      monkeypatch):
        # every correction is evaluated on the base model's high-order part
        def kept(fn, results):
            def call(*args):
                results.append(fn(*args))
                return results[-1]
            return call

        worlds, trained = [], []
        monkeypatch.setattr(cli, "generate", kept(synth.generate, worlds))
        monkeypatch.setattr(cli, "train", kept(training.train, trained))
        parts = count_calls(monkeypatch, models, "prediction_parts")
        predicts = count_calls(monkeypatch, models, "predict")
        assert run_pipeline(tmp_path / "run") == 0
        base, report = trained[0]
        splits = worlds[0].splits

        def scored(calls, model_is_base):
            return sorted(next(name for name, ds in splits.items()
                               if args[1] is ds.indices)
                          for args, _ in calls if (args[0] is base) == model_is_base)

        assert scored(parts, model_is_base=False) == ["val"] * report.epochs_run
        assert scored(parts, model_is_base=True) == sorted([
            "train", "test",                       # bias_chain_report
            "test", "unbiased_test",               # the pipeline's evaluations
            *["unbiased_val"] * len(VARIANTS)])    # one per grid search
        assert scored(predicts, model_is_base=True) == ["train"]

    def test_diverged_training_exits_3_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_pipeline(out, "--lr", "1e200") == 3
        assert capsys.readouterr().err.count("\n") == 1
        assert not out.exists()


# What each command parses when given only its required flags: dest -> value,
# whose type is pinned too (1 and 1.0 differ). Manifests record these
# arguments, and scripts and the benchmark pass these flags, so renaming a
# config field must not rename its flag, and a moved default must show here.
SYNTH_NAMESPACE = {
    "users": 400, "items": 240, "groups": 8, "rho_min": 0.1, "rho_max": 0.9,
    "exposures_per_user": 50, "unbiased_val_per_user": 2,
    "unbiased_test_per_user": 6, "pref_dim": 8, "pref_scale": 1.0,
    "item_offset_scale": 0.0, "group_freq_decay": 0.9, "temp_low": 0.2,
    "temp_high": 3.0, "seed": 0,
}
TRAIN_NAMESPACE = {
    "arch": "fm", "embedding_dim": 16, "hidden": 64, "lr": 0.001,
    "batch_size": 256, "l2": 1e-06, "dropout_interaction": 0.0,
    "dropout_hidden": 0.0, "max_epochs": 20, "patience": 3,
}
REQUIRED_FLAGS_NAMESPACES = [
    (["synth", "--out", "x"],
     {"command": "synth", "out": "x", **SYNTH_NAMESPACE}),
    (["train", "--schema", "s", "--train", "t", "--out", "m"],
     {"command": "train", "schema": "s", "train": "t", "val": None,
      **TRAIN_NAMESPACE, "optimizer": "adam", "ablation": "none", "seed": 0,
      "out": "m", "report": None}),
    (["pipeline", "--out", "x"],
     {"command": "pipeline", **SYNTH_NAMESPACE, **TRAIN_NAMESPACE,
      "alpha": "1.0,0.8,0.6,0.4,0.2,0.0", "k": 5, "out": "x"}),
    (["analyze", "--schema", "s", "--model", "m", "--train", "t", "--out", "o"],
     {"command": "analyze", "schema": "s", "model": "m", "train": "t",
      "eval": None, "out": "o"}),
    (["debias", "--schema", "s", "--model", "m", "--mode", "reduce", "--out", "o"],
     {"command": "debias", "schema": "s", "model": "m", "mode": "reduce",
      "alpha": None, "train": None, "unbiased": None, "variant": None,
      "beta_grid": None, "gamma_grid": None, "k": 5, "out": "o",
      "grid_report": None}),
    (["eval", "--schema", "s", "--model", "m", "--data", "d", "--out", "o"],
     {"command": "eval", "schema": "s", "model": "m", "data": "d", "k": 5,
      "out": "o", "group_csv": None}),
]


def typed(namespace: dict) -> dict:
    return {k: (type(v), v) for k, v in namespace.items()}


@pytest.mark.parametrize("argv, expected", REQUIRED_FLAGS_NAMESPACES,
                         ids=[argv[0] for argv, _ in REQUIRED_FLAGS_NAMESPACES])
def test_each_command_parses_to_its_pinned_namespace(argv, expected):
    parsed = vars(build_parser().parse_args(argv))
    del parsed["func"]
    assert typed(parsed) == typed(expected)


# A value other than its default for every config field that has a flag, and
# the flags not named after their field.
NON_DEFAULTS = {
    "n_users": 7, "n_items": 9, "n_groups": 3, "exposures_per_user": 5,
    "unbiased_val_per_user": 3, "unbiased_test_per_user": 4, "pref_dim": 2,
    "pref_scale": 0.5, "item_offset_scale": 0.25, "group_freq_decay": 0.5,
    "temp_low": 0.5, "temp_high": 2.0, "seed": 11, "arch": "nfm",
    "embedding_dim": 4, "hidden": 5, "lr": 0.01, "batch_size": 32, "l2": 0.001,
    "dropout_interaction": 0.1, "dropout_hidden": 0.2, "max_epochs": 2,
    "patience": 1, "optimizer": "plain_sgd", "ablation": "unaware",
}
SHORT_FLAGS = {"n_users": "--users", "n_items": "--items", "n_groups": "--groups"}


def test_config_flags_default_to_the_config_defaults():
    """A flag left out gives the library's default for the field it feeds,
    and a value given reaches that field, in every command with the flag."""
    parse = build_parser().parse_args
    rho = SynthConfig().resolved_rho()
    for command in ("synth", "pipeline"):
        args = parse([command, "--out", "x"])
        assert (args.rho_min, args.rho_max) == (rho[0], rho[-1])
        assert replace(_config(SynthConfig, args), rho=()) == SynthConfig()
    args = parse(["train", "--schema", "s", "--train", "t", "--out", "m"])
    assert _config(TrainConfig, args) == TrainConfig()
    args = parse(["pipeline", "--out", "x"])
    assert _config(TrainConfig, args, optimizer="adam", ablation="none",
                   seed=args.seed) == TrainConfig()
    for argv in (["debias", "--schema", "s", "--model", "m", "--mode", "reduce"],
                 ["eval", "--schema", "s", "--model", "m", "--data", "d"],
                 ["pipeline"]):
        assert parse(argv + ["--out", "x"]).k == DebiasConfig().k == DEFAULT_K

    def given(cls, skip=()):
        return [arg for f in fields(cls) if f.name != "rho" and f.name not in skip
                for arg in (SHORT_FLAGS.get(f.name, "--" + f.name.replace("_", "-")),
                            str(NON_DEFAULTS[f.name]))]

    def held(cfg, **fixed):
        expected = {f.name: fixed.get(f.name, NON_DEFAULTS.get(f.name))
                    for f in fields(cfg) if f.name != "rho"}
        assert typed({k: getattr(cfg, k) for k in expected}) == typed(expected)

    span = ["--rho-min", "0.2", "--rho-max", "0.6"]
    for argv in (["synth", *given(SynthConfig), *span],
                 ["pipeline", *given(SynthConfig),
                  *given(TrainConfig, skip=("optimizer", "ablation", "seed")), *span]):
        args = parse(argv + ["--out", "x"])
        cfg = _config(SynthConfig, args)
        held(cfg)
        assert cfg.rho == tuple(np.linspace(0.2, 0.6, 3))
    # args is the pipeline's, whose training seed follows the synth seed
    held(_config(TrainConfig, args, optimizer="adam", ablation="none",
                 seed=args.seed + 1),
         optimizer="adam", ablation="none", seed=12)
    args = parse(["train", "--schema", "s", "--train", "t", "--out", "m",
                  *given(TrainConfig)])
    held(_config(TrainConfig, args))


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_unknown_command_exits_via_argparse():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
