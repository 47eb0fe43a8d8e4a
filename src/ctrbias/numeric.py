"""Small numerical helpers shared by several modules."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from .errors import NumericalError

_CF_MAX_ITER = 300
_CF_EPS = 3e-14
_CF_FPMIN = 1e-300


def sigmoid(z):
    """Numerically stable logistic function, scalar or array.

    No exp() argument exceeds 0: e = exp(min(z, -z)), and the result is
    1 / (1 + e) where z >= 0 and e / (1 + e) elsewhere, the numerator
    picked as max(e, z >= 0) since e <= 1, with no masked select. So it
    is exact for |z| > 30 where the naive form would overflow. min(z, -z)
    and max(e, False) return a NaN operand as it is, so a NaN passes
    through with its sign bit and payload, which -|z| would not keep.
    """
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(np.minimum(z, -z))
    out = np.maximum(e, z >= 0) / (1.0 + e)
    if out.ndim == 0:
        return float(out)
    return out


def log1pexp(z):
    """log(1 + exp(z)) without overflow: max(z, 0) + log1p(exp(-|z|))."""
    z = np.asarray(z, dtype=np.float64)
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def bce_loss(logits, labels):
    """Per-sample binary cross entropy from raw logits."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    return log1pexp(logits) - labels * logits


def run_edges(x, starts=()):
    """The one scan for runs of equal values: where each run of equal
    neighbours of the 1-D array x starts, and each index in starts, then
    len(x). NaN equals nothing; 0.0 equals -0.0."""
    new_run = np.ones(len(x), dtype=bool)
    new_run[1:] = x[1:] != x[:-1]
    new_run[np.asarray(starts, dtype=np.intp)] = True
    return np.append(np.flatnonzero(new_run), len(x))


def average_ranks(a):
    """1-based ranks of `a`, ties assigned the mean of their positions."""
    a = np.asarray(a)
    order = np.argsort(a, kind="stable")
    edges = run_edges(a[order])
    ranks = np.empty(len(a), dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (edges[:-1] + edges[1:] + 1), np.diff(edges))
    return ranks


def to_jsonable(obj):
    """Recursively convert numpy containers/scalars for json.dump.

    An object with a to_json_dict method becomes what that returns, any
    other dataclass instance its fields. NaN and +-inf become None, so the
    output is standard JSON (json.dumps would otherwise write the
    non-standard NaN and Infinity tokens).
    """
    if isinstance(obj, dict):
        return {k: to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind in "biu" or (obj.dtype.kind == "f" and np.isfinite(obj).all()):
            return obj.tolist()  # nothing to replace: no per-element pass
        return to_jsonable(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if np.isfinite(v) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if hasattr(obj, "to_json_dict"):
        return obj.to_json_dict()
    if dataclasses.is_dataclass(obj):
        return to_jsonable(obj.__dict__)
    return obj


def write_json(path, obj) -> None:
    """The one writer of JSON files: to_jsonable(obj), indented, keys sorted."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(to_jsonable(obj), indent=2, sort_keys=True) + "\n")


class JsonRecord:
    """Base of the report records: a record's JSON form is its fields."""

    def to_json_dict(self) -> dict:
        return to_jsonable(self.__dict__)


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta, modified Lentz method."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_FPMIN:
        d = _CF_FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < _CF_FPMIN:
                d = _CF_FPMIN
            c = 1.0 + aa / c
            if abs(c) < _CF_FPMIN:
                c = _CF_FPMIN
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise NumericalError(
        f"incomplete beta continued fraction failed to converge "
        f"(a={a}, b={b}, x={x})"
    )


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1], accurate to ~1e-14."""
    if a <= 0 or b <= 0:
        raise NumericalError(f"beta parameters must be positive, got a={a} b={b}")
    if not 0.0 <= x <= 1.0:
        raise NumericalError(f"x must lie in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return x
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    # the continued fraction converges fast only on one side of the mean
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_two_sided_p(t: float, dof: float) -> float:
    """P(|T| >= t) for Student-t with dof degrees of freedom."""
    if dof <= 0:
        raise NumericalError(f"degrees of freedom must be positive, got {dof}")
    if math.isinf(t):
        return 0.0
    x = dof / (dof + t * t)
    return regularized_incomplete_beta(dof / 2.0, 0.5, x)
