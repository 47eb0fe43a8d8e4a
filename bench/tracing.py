"""Spans around calls into ctrbias, recorded from outside the package.

A Tracer replaces each target function with a wrapper in every ctrbias
module namespace that holds it, so a call is caught wherever callers look
the name up (``ctrbias.training.user_auc``, ``ctrbias.debias.predict``,
...). Each wrapped call records one span: name, start, end, parent span
and run id. Spans stay in memory until the caller writes them out.

A target marked ``count_only`` records a call count and no span: it is
called too often (``average_ranks`` runs once per user) for a span per
call to stay cheap.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    name: str                  # span name, also the metric prefix
    module: str                # defining module, e.g. "ctrbias.models"
    attr: str                  # "predict" or "Dataset.to_csv"
    measure: Callable | None = None  # (args, kwargs, result) -> {metric: n}
    quantities: tuple[str, ...] = ()  # the metric names measure returns
    count_only: bool = False


def _train_work(args, kwargs, result):
    epochs = result[1].epochs_run
    return {"training.train.epochs": epochs,
            "training.train.samples": epochs * len(args[0])}


def _grid_points(args, kwargs, result):
    res = result[1]
    return {"debias.grid_points": len(res.table) + len(res.errors)}


def _ingest_work(args, kwargs, result):
    return {"data.ingest_csv.rows": len(result),
            "data.ingest_csv.bytes": os.path.getsize(args[0])}


# Train and grid timers feed the end-to-end rates, so the untraced run
# installs these two and nothing else.
RATE_TARGETS = (
    Target("training.train", "ctrbias.training", "train", _train_work,
           ("training.train.epochs", "training.train.samples")),
    Target("debias.grid_search_reconstruction", "ctrbias.debias",
           "grid_search_reconstruction", _grid_points,
           ("debias.grid_points",)),
)

LAYER_TARGETS = RATE_TARGETS + (
    Target("synth.generate", "ctrbias.synth", "generate",
           lambda a, k, r: {"synth.generate.rows":
                            sum(len(ds) for ds in r.splits.values())},
           ("synth.generate.rows",)),
    Target("data.Dataset.to_csv", "ctrbias.data", "Dataset.to_csv",
           lambda a, k, r: {"data.Dataset.to_csv.rows": len(a[0])},
           ("data.Dataset.to_csv.rows",)),
    Target("data.ingest_csv", "ctrbias.data", "ingest_csv", _ingest_work,
           ("data.ingest_csv.rows", "data.ingest_csv.bytes")),
    Target("models.loss_and_grads", "ctrbias.models", "loss_and_grads"),
    Target("models.predict", "ctrbias.models", "predict",
           lambda a, k, r: {"models.predict.rows": len(r)},
           ("models.predict.rows",)),
    Target("models.prediction_parts", "ctrbias.models", "prediction_parts"),
    Target("models.save_model", "ctrbias.models", "save_model"),
    Target("models.load_model", "ctrbias.models", "load_model"),
    Target("training.Adam.step", "ctrbias.training", "Adam.step"),
    Target("evaluation.user_auc", "ctrbias.evaluation", "user_auc",
           lambda a, k, r: {"evaluation.user_auc.rows": len(a[0])},
           ("evaluation.user_auc.rows",)),
    Target("evaluation.ndcg_at_k", "ctrbias.evaluation", "ndcg_at_k"),
    Target("evaluation.evaluate", "ctrbias.evaluation", "evaluate"),
    Target("numeric.average_ranks", "ctrbias.numeric", "average_ranks",
           count_only=True),
    Target("analysis.bias_chain_report", "ctrbias.analysis",
           "bias_chain_report"),
    Target("debias.reduce_weights", "ctrbias.debias", "reduce_weights"),
    Target("cli.main", "ctrbias.cli", "main"),
) + tuple(Target(f"cli.{cmd}", "ctrbias.cli", f"cmd_{cmd}")
          for cmd in ("synth", "train", "analyze", "debias", "eval"))


class Stages:
    """Wall seconds per named step of one iteration."""

    def __init__(self):
        self.seconds: dict[str, float] = {}

    @contextmanager
    def __call__(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = (self.seconds.get(name, 0.0)
                                  + time.perf_counter() - t0)


class Tracer:
    """Installs wrappers for a set of targets and keeps their spans.

    A span is ``(name, start, end, parent, run)`` where parent is the index
    of the enclosing span in ``spans`` or -1, and run labels the phase of
    the benchmark (a set-up or one iteration) the span belongs to.
    """

    def __init__(self, targets):
        self.targets = tuple(targets)
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.run = ""
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, target: Target, fn):
        clock, spans, stack, counts = (time.perf_counter, self.spans,
                                       self._stack, self.counts)
        calls = f"{target.name}.calls"

        if target.count_only:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[calls] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(i)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[i] = (target.name, start, end, parent, self.run)
                counts[calls] += 1
            if target.measure is not None:
                counts.update(target.measure(args, kwargs, result))
            return result
        return traced

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "ctrbias"
                                         or name.startswith("ctrbias."))]
        for target in self.targets:
            owner = importlib.import_module(target.module)
            *path, attr = target.attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(target, original)
            if path:  # a method: patch the class attribute only
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)

    def _patch(self, owner, name, wrapper) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def clear(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def seconds(self, name: str) -> float:
        return sum(end - start for n, start, end, _, _ in self.spans
                   if n == name)

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the time its direct children cover.

        Calls run one at a time, so children never overlap and their
        durations add up to the time they cover.
        """
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Totals per target: ``.s``, ``.self_s``, ``.calls`` plus counts."""
        metrics: dict[str, float] = {}
        for target in self.targets:
            if not target.count_only:
                metrics[f"{target.name}.s"] = 0.0
                metrics[f"{target.name}.self_s"] = 0.0
            metrics[f"{target.name}.calls"] = 0
            metrics.update(dict.fromkeys(target.quantities, 0))
        for (name, start, end, _, _), own in zip(self.spans,
                                                 self.self_seconds()):
            metrics[f"{name}.s"] += end - start
            metrics[f"{name}.self_s"] += own
        metrics.update(self.counts)
        return metrics

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, run) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "run": run,
                                     "name": name, "start": start,
                                     "end": end}) + "\n")
