#!/usr/bin/env python3
"""Benchmark of the ctrbias train -> trace -> correct loop.

    python3 bench/run.py --workload study --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; ctrbias is imported from ./src.
The metric names, units and workloads are those of BENCHMARK.json.

--trace 0 measures the end-to-end metrics. Set-up (imports in a fresh
interpreter, plus input generation) runs SETUP_REPEATS times; the timed
chain then repeats until --seconds is used up, at least once, and each
timing is reported as the median over set-ups or iterations. Only the
train and grid-search calls are wrapped, to time the two rates.

--trace 1 measures the per-layer metrics: one set-up and one iteration
with every layer wrapped, after one untraced iteration that gives the
tracing overhead. It ignores --seconds so that its counts repeat exactly
at a fixed seed. Spans are written to .bench_out/.

Every iteration's outputs are checked; a failed check, an exception or a
non-zero CLI exit counts as a failed operation. The last line of standard
output is the JSON result; the line before it holds the environment, the
output digests and, with --trace 1, the counts.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import LAYER_TARGETS, RATE_TARGETS, Stages, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
IMPORTS = "import numpy, ctrbias, ctrbias.cli"
# Printed and recorded, but not in BENCHMARK.json: their short timing
# windows (one epoch, a 7-point grid on cli_files) spread too widely across
# runs on a shared machine for any bound to hold.
UNGATED = {"train_samples_per_s": "samples/s", "grid_points_per_s": "points/s"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "toy"), default="full",
                   help="toy shrinks every input, for the harness smoke test")
    return p.parse_args(argv)


def import_seconds() -> float:
    """Wall time of a fresh interpreter that imports numpy and ctrbias."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORTS], cwd=ROOT, env=env,
                   check=True, stdout=subprocess.DEVNULL, timeout=120)
    return time.perf_counter() - t0


def git_commit() -> str | None:
    """HEAD of the checkout if it is a git repository, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": NPROC,
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Tally:
    """Operations attempted and failed, with the names of the failures."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)


def run_iteration(wl, state, tracer, tag, tally, digests):
    """One timed chain plus its checks; returns (wall, outputs, stages).

    tracer is None for an iteration with nothing wrapped.
    """
    stage = Stages()
    if tracer is not None:
        tracer.run = tag
    try:
        with tracer or contextlib.nullcontext():
            t0 = time.perf_counter()
            out = wl.run(state, stage, tag)
            wall = time.perf_counter() - t0
    except Exception:
        traceback.print_exc()
        # one operation per step begun, the one that raised included
        tally.attempted += max(len(stage.seconds), 1) - 1
        tally.record(f"{tag}: step raised", False)
        return None
    tally.attempted += len(stage.seconds)
    try:
        for name, ok in wl.check(state, out):
            tally.record(f"{tag}: {name}", ok)
        got = wl.digests(out)
    except Exception:
        traceback.print_exc()
        tally.record(f"{tag}: checks raised", False)
        return None
    if digests:
        tally.record(f"{tag}: outputs equal the first iteration's",
                     got == digests)
    else:
        digests.update(got)
    return wall, out, stage.seconds


def rates(tracer) -> dict[str, float]:
    """Training and grid rates from the spans of one phase, then clear."""
    out = {}
    train_s = tracer.seconds("training.train")
    grid_s = tracer.seconds("debias.grid_search_reconstruction")
    if train_s > 0:
        out["train_samples_per_s"] = tracer.counts["training.train.samples"] / train_s
    if grid_s > 0:
        out["grid_points_per_s"] = tracer.counts["debias.grid_points"] / grid_s
    tracer.clear()
    return out


def measure_end_to_end(args, wl, workdir, tally, digests):
    imports = [import_seconds() for _ in range(SETUP_REPEATS)]
    timers = Tracer(RATE_TARGETS)
    phase_rates: dict[str, list[float]] = {}

    def keep_rates():
        for name, value in rates(timers).items():
            phase_rates.setdefault(name, []).append(value)

    setups = []
    state = None
    for i in range(SETUP_REPEATS):
        state = None  # free the previous inputs before building new ones
        timers.run = f"setup{i}"
        with timers:
            t0 = time.perf_counter()
            state = wl.setup(args.seed, args.size, workdir)
            setups.append(time.perf_counter() - t0)
        keep_rates()

    walls, stages, uauc = [], [], None
    start = time.perf_counter()
    last = 0.0
    while not walls or time.perf_counter() - start + last <= args.seconds:
        t0 = time.perf_counter()
        done = run_iteration(wl, state, timers, f"iter{len(walls)}", tally,
                             digests)
        if done is None:
            break
        wall, out, seconds = done
        walls.append(wall)
        stages.append(seconds)
        keep_rates()
        if uauc is None:
            uauc = wl.uauc(out)
        del out
        last = time.perf_counter() - t0
    if not walls:
        return None
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(imports) + statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "unbiased_uauc": uauc,
    }
    detail = {
        **{name: statistics.median(phase_rates[name]) for name in UNGATED},
        "iterations": len(walls),
        "wall_s_all": walls,
        "setup_s_all": {"imports": imports, "inputs": setups},
        "stage_s_median": {k: statistics.median(s[k] for s in stages)
                           for k in stages[0]},
    }
    return metrics, detail


def measure_layers(args, wl, workdir, tally, digests):
    tracer = Tracer(LAYER_TARGETS)
    tracer.run = "setup"
    with tracer:
        state = wl.setup(args.seed, args.size, workdir)
    plain = run_iteration(wl, state, None, "untraced", tally, digests)
    traced = run_iteration(wl, state, tracer, "traced", tally, digests)
    if plain is None or traced is None:
        return None
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")

    metrics = tracer.layer_metrics()
    own = tracer.self_seconds()
    # The CLI layer's own time: cli.main and each cli.<command>, minus the
    # library calls beneath them (argparse, manifest hashing, JSON writes).
    metrics["cli.main.self_s"] = sum(
        (t for span, t in zip(tracer.spans, own) if span[0].startswith("cli.")),
        0.0)
    top = sum(end - start for _, start, end, parent, run in tracer.spans
              if parent < 0 and run == "traced")
    metrics["trace.coverage"] = top / traced[0]
    metrics["trace.overhead_s"] = traced[0] - plain[0]
    detail = {
        "wall_s_untraced": plain[0],
        "wall_s_traced": traced[0],
        "counts": {k: v for k, v in sorted(metrics.items())
                   if isinstance(v, int)},
    }
    return metrics, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ.setdefault(var, str(NPROC))
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "ctrbias" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from the root of a ctrbias checkout "
              f"(no src/ctrbias or BENCHMARK.json under {ROOT})", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ctrbias
    from workloads import WORKLOADS

    if Path(ctrbias.__file__).resolve().parent != (SRC / "ctrbias").resolve():
        print(f"error: ctrbias imported from {ctrbias.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    tally, digests = Tally(), {}
    measure = measure_layers if args.trace else measure_end_to_end
    try:
        measured = measure(args, wl, workdir, tally, digests)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if measured is None:
        print("error: no iteration completed", file=sys.stderr)
        return 1
    values, detail = measured

    failed = len(tally.failures)
    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"trace {args.trace}")
    for m in wanted:
        print(f"  {m['name']:<40s} {values[m['name']]:>16.6g} {m['unit']}")
    for name, unit in UNGATED.items():
        if name in detail:
            print(f"  {name:<40s} {detail[name]:>16.6g} {unit} (not gated)")
    print(f"  {'failed_share':<40s} {failed / tally.attempted:>16.6g} ratio "
          f"({failed} of {tally.attempted} operations)")
    for name in tally.failures:
        print(f"  FAILED {name}")
    detail.update(env=environment(args), digests=digests,
                  failures=tally.failures)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
