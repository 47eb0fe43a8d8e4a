"""Diagnosing how group-level label imbalance reaches the model's output.

The chain under study: groups differ in their positive-sample ratio on
the training log; the model stores that difference almost entirely in the
linear weights of the group features; those weights then shift scores for
every exposure of the group. This module quantifies each link with the
group counts of evaluation.group_stats, correlation tests, a per-label
variance decomposition of the score's linear vs higher-order parts, and an
OLS fit of weights on ratios.

Correlation p-values use the exact two-sided Student-t tail of
numeric.student_t_two_sided_p; no statistics package is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import ConfigError, MetricError, UndefinedCorrelationError
from .evaluation import GroupStats, _per_group_rate, evaluate, group_stats
from .models import ModelParams, PredictionParts, predict, prediction_parts
from .numeric import (JsonRecord, average_ranks, sigmoid, student_t_two_sided_p,
                      to_jsonable)


@dataclass(frozen=True)
class CorrelationResult:
    r: float
    p_value: float
    n: int
    method: str


def _paired(x, y) -> tuple[np.ndarray, np.ndarray]:
    """x and y as float arrays, refused unless 1-d and of equal length."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ConfigError("correlation inputs must be 1-d arrays of equal length")
    return x, y


def _centred(x: np.ndarray) -> np.ndarray:
    """x less its mean, both before and after centring scaled by the power
    of two that brings its largest magnitude into [0.5, 1): exact short of
    a subnormal, so r keeps its bits, and the squares and sums of any finite
    input stay in range. Inputs whose centred forms differ by a power of
    two (ranks of x and of -x, say) come out equal or negated."""
    x = np.ldexp(x, -np.frexp(np.abs(x).max())[1])
    x = x - x.mean()
    return np.ldexp(x, -np.frexp(np.abs(x).max())[1])


def pearson(x, y) -> CorrelationResult:
    """Pearson r with the exact two-sided t-test p-value.

    Raises UndefinedCorrelationError for fewer than two points or constant
    input; p is NaN when n < 3 (no degrees of freedom for the test). When
    the centred inputs are equal, or one is the other negated, r is exactly
    +-1 and p is 0, where the rounded norms could leave r an ulp short.
    """
    x, y = _paired(x, y)
    n = len(x)
    if n < 2:
        raise UndefinedCorrelationError(f"need at least 2 points, got {n}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise UndefinedCorrelationError("correlation inputs contain non-finite values")
    xm = _centred(x)
    ym = _centred(y)
    sx = float(np.sqrt((xm ** 2).sum()))
    sy = float(np.sqrt((ym ** 2).sum()))
    if sx == 0.0 or sy == 0.0:
        raise UndefinedCorrelationError("correlation undefined for constant input")
    if np.array_equal(xm, ym):
        r = 1.0
    elif np.array_equal(xm, -ym):
        r = -1.0
    else:
        r = max(-1.0, min(1.0, float(xm @ ym) / (sx * sy)))
    if n < 3:
        p = float("nan")
    elif 1.0 - r * r <= 0.0:
        p = 0.0
    else:
        t = abs(r) * math.sqrt((n - 2) / (1.0 - r * r))
        p = student_t_two_sided_p(t, n - 2)
    return CorrelationResult(r, p, n, "pearson")


def spearman(x, y) -> CorrelationResult:
    """Rank correlation: Pearson over average ranks, t-based p-value."""
    x, y = _paired(x, y)
    if len(x) and not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise UndefinedCorrelationError("correlation inputs contain non-finite values")
    base = pearson(average_ranks(x), average_ranks(y))
    return CorrelationResult(base.r, base.p_value, base.n, "spearman")


@dataclass
class RegressionFit:
    """Ordinary least squares y ~ intercept + X."""

    intercept: float
    coef: np.ndarray
    fitted: np.ndarray
    residuals: np.ndarray


def ols_fit(x, y) -> RegressionFit:
    """Least-squares fit with intercept; x may be (n,) or (n, k)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
        raise ConfigError("ols needs x of shape (n,) or (n, k) and y of shape (n,)")
    if len(y) < 2:
        raise ConfigError("ols needs at least 2 points")
    design = np.concatenate([np.ones((len(y), 1)), x], axis=1)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ coef
    return RegressionFit(float(coef[0]), coef[1:], fitted, y - fitted)


@dataclass
class VarianceDecomposition:
    """Population variance of group means, split by label and score part.

    linear[y] and high_order[y] hold the variance over per-group means of
    the respective score component among samples with label y.
    """

    linear: tuple[float, float]
    high_order: tuple[float, float]

    def to_json_dict(self) -> dict:
        return to_jsonable({
            "linear": {"label_0": self.linear[0], "label_1": self.linear[1]},
            "high_order": {"label_0": self.high_order[0],
                           "label_1": self.high_order[1]},
        })


def variance_decomposition(ds: Dataset, parts: PredictionParts) -> VarianceDecomposition:
    """Variance over group means of the linear and high-order score parts.

    Computed separately for negative and positive samples; a label with
    fewer than two non-empty groups makes the variance meaningless and
    raises MetricError.
    """
    stats = group_stats(ds)
    out = {"linear": [0.0, 0.0], "high_order": [0.0, 0.0]}
    for part_name, arr in (("linear", parts.linear), ("high_order", parts.high_order)):
        for y, counts in ((0, stats.n_neg), (1, stats.n_pos)):
            nonempty = counts > 0
            if int(nonempty.sum()) < 2:
                raise MetricError(
                    f"label {y}: fewer than two groups have samples, "
                    f"group-mean variance is undefined"
                )
            # the other label's rows add +0.0, which leaves each sum as is
            means = _per_group_rate(ds, np.where(ds.labels == y, arr, 0.0),
                                    counts)[nonempty]
            out[part_name][y] = float(np.mean((means - means.mean()) ** 2))
    return VarianceDecomposition(tuple(out["linear"]), tuple(out["high_order"]))


@dataclass
class BiasChainReport(JsonRecord):
    """Every link of the ratio -> weight -> prediction chain in one record."""

    group_labels: tuple[str, ...]
    train_stats: GroupStats
    bias_weights: np.ndarray
    weight_ratio_pearson: CorrelationResult | None
    weight_ratio_spearman: CorrelationResult | None
    score_ratio_pearson: CorrelationResult | None
    ehr_ratio_spearman: CorrelationResult | None
    variances: VarianceDecomposition | None
    weight_on_ratio_fit: RegressionFit | None
    errors: list[str] = field(default_factory=list)


def bias_chain_report(params: ModelParams, train_ds: Dataset,
                      eval_ds: Dataset | None = None) -> BiasChainReport:
    """Trace training-ratio bias through the weights into the scores.

    Weight and score correlations run against per-group training positive
    ratios; the variance decomposition and the exposure-hit-rate link use
    eval_ds when given. Undefined correlations are recorded, not raised;
    an empty eval_ds raises ConfigError (from evaluate).
    """
    stats = group_stats(train_ds)
    lo, hi = train_ds.schema.bias_range
    w_bias = params.w[lo:hi].copy()
    ratio = stats.ratio
    errors: list[str] = []

    defined = np.isfinite(ratio)
    if not defined.all():
        errors.append(f"{int((~defined).sum())} group(s) have no training exposure")

    def guarded(fn, x, y, rows, label):
        try:
            return fn(np.asarray(x)[rows], np.asarray(y)[rows])
        except UndefinedCorrelationError as exc:
            errors.append(f"{label}: {exc}")
            return None

    wr_pearson = guarded(pearson, ratio, w_bias, defined, "weight-vs-ratio pearson")
    wr_spearman = guarded(spearman, ratio, w_bias, defined, "weight-vs-ratio spearman")

    probs = sigmoid(predict(params, train_ds.indices, train_ds.values))
    mean_score = _per_group_rate(train_ds, probs, stats.exposures)
    sr_pearson = guarded(pearson, ratio, mean_score, defined, "score-vs-ratio pearson")

    fit = None
    if defined.sum() >= 2:
        fit = ols_fit(ratio[defined], w_bias[defined])

    variances = None
    ehr_spearman = None
    if eval_ds is not None:
        parts = prediction_parts(params, eval_ds.indices, eval_ds.values)
        try:
            variances = variance_decomposition(eval_ds, parts)
        except MetricError as exc:
            errors.append(f"variance decomposition: {exc}")
        ehr = np.asarray(evaluate(eval_ds, parts.logits).group_ehr)
        both = defined & np.isfinite(ehr)
        if both.sum() >= 2:
            ehr_spearman = guarded(spearman, ratio, ehr, both, "ehr-vs-ratio spearman")
        else:
            errors.append("ehr-vs-ratio spearman: fewer than two measurable groups")

    return BiasChainReport(
        group_labels=train_ds.bias_labels,
        train_stats=stats,
        bias_weights=w_bias,
        weight_ratio_pearson=wr_pearson,
        weight_ratio_spearman=wr_spearman,
        score_ratio_pearson=sr_pearson,
        ehr_ratio_spearman=ehr_spearman,
        variances=variances,
        weight_on_ratio_fit=fit,
        errors=errors,
    )
