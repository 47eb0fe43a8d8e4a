"""Post-training correction of bias-field linear weights.

Two strategies, both touching only the linear weights of the bias field
and leaving every other parameter alone:

* reduction: w_j <- alpha * w_j with alpha in [0, 1]. alpha = 1 keeps the
  model, alpha = 0 removes the group offsets entirely.
* reconstruction: w_j <- beta * s_j + gamma * r_j, where s_j is the
  group's positive ratio measured on an unbiased exposure log and r_j is
  the residual of regressing the trained weights on the (biased) training
  ratios. The residual keeps whatever the weight learned beyond the
  exposure bias; the ratio term re-anchors the group ordering to unbiased
  ground truth. beta and gamma come from a grid search that maximizes
  per-user AUC on an unbiased validation split.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .analysis import RegressionFit, group_stats, ols_fit
from .data import Dataset
from .errors import ConfigError, MetricError
from .evaluation import (DEFAULT_K, blocks_of, ranked_auc, ranked_ndcg,
                         users_with_both_labels)
from .models import ModelParams, model_digest, prediction_parts
from .numeric import to_jsonable

DEFAULT_GRID = (1.0, 2.0, 4.0, 8.0, 12.0, 16.0, 20.0)
VARIANTS = ("vanilla", "wo_ratio", "wo_residual")


@dataclass(frozen=True)
class DebiasConfig:
    beta_grid: tuple[float, ...] = DEFAULT_GRID
    gamma_grid: tuple[float, ...] = DEFAULT_GRID
    variant: str = "vanilla"
    k: int = DEFAULT_K

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        for name in ("beta_grid", "gamma_grid"):
            grid = getattr(self, name)
            if not grid:
                raise ConfigError(f"{name} must not be empty")
            if not all(np.isfinite(v) for v in grid):
                raise ConfigError(f"{name} must contain finite values")
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")


def reduce_weights(params: ModelParams, bias_range: tuple[int, int],
                   alpha: float) -> ModelParams:
    """Scale the bias-field linear weights by alpha in [0, 1]."""
    if not (0.0 <= alpha <= 1.0):
        raise ConfigError(f"alpha must be in [0, 1], got {alpha}")
    lo, hi = bias_range
    if not (0 <= lo < hi <= params.n):
        raise ConfigError(f"bias range {bias_range} outside parameter space")
    out = params.copy()
    out.w[lo:hi] *= alpha
    out.provenance = {
        "created_by": "reduce",
        "alpha": alpha,
        "source_digest": model_digest(params),
    }
    return out


@dataclass
class UnbiasedRatios:
    """Per-group positive ratios from an unbiased exposure log.

    Groups the log never touched fall back to the global positive ratio;
    their labels are recorded so callers can judge the estimate.
    """

    values: np.ndarray
    exposures: np.ndarray
    positives: np.ndarray
    global_ratio: float
    fallback_labels: tuple[str, ...]


def estimate_unbiased_ratios(ds: Dataset) -> UnbiasedRatios:
    """Positive ratio per group on ds, which should be unbiased exposure."""
    if len(ds) == 0:
        raise ConfigError("cannot estimate ratios from an empty dataset")
    stats = group_stats(ds)
    exposures = stats.n_pos + stats.n_neg
    global_ratio = float(ds.labels.mean())
    with np.errstate(invalid="ignore"):
        values = np.where(exposures > 0, stats.n_pos / np.maximum(exposures, 1),
                          global_ratio)
    fallback = tuple(lbl for lbl, e in zip(stats.labels, exposures) if e == 0)
    return UnbiasedRatios(values.astype(np.float64), exposures, stats.n_pos,
                          global_ratio, fallback)


@dataclass
class WeightResidualFit:
    """OLS of trained bias weights on training positive ratios.

    residuals[j] = w_j - (intercept + slope * ratio_used[j]); groups with
    no training exposure use the global training ratio as regressor value.
    """

    ratio_used: np.ndarray
    residuals: np.ndarray
    fit: RegressionFit
    fallback_labels: tuple[str, ...]


def fit_weight_residuals(params: ModelParams, train_ds: Dataset) -> WeightResidualFit:
    stats = group_stats(train_ds)
    lo, hi = train_ds.schema.bias_range
    w_bias = params.w[lo:hi]
    ratio = stats.ratio
    defined = np.isfinite(ratio)
    if int(defined.sum()) < 2:
        raise MetricError("need at least two groups with training exposure "
                          "to fit weights on ratios")
    global_ratio = float(train_ds.labels.mean())
    ratio_used = np.where(defined, ratio, global_ratio)
    fit = ols_fit(ratio_used[defined], w_bias[defined])
    predicted = fit.intercept + fit.coef[0] * ratio_used
    residuals = w_bias - predicted
    fallback = tuple(lbl for lbl, ok in zip(stats.labels, defined) if not ok)
    return WeightResidualFit(ratio_used, residuals, fit, fallback)


def reconstruct_weights(params: ModelParams, bias_range: tuple[int, int],
                        ratios: np.ndarray, residuals: np.ndarray,
                        beta: float, gamma: float) -> ModelParams:
    """Replace bias-field weights with beta * ratio + gamma * residual."""
    lo, hi = bias_range
    if not (0 <= lo < hi <= params.n):
        raise ConfigError(f"bias range {bias_range} outside parameter space")
    ratios = np.asarray(ratios, dtype=np.float64)
    residuals = np.asarray(residuals, dtype=np.float64)
    if ratios.shape != (hi - lo,) or residuals.shape != (hi - lo,):
        raise ConfigError("ratios and residuals must cover the bias range exactly")
    out = params.copy()
    out.w[lo:hi] = beta * ratios + gamma * residuals
    out.provenance = {
        "created_by": "reconstruct",
        "beta": beta,
        "gamma": gamma,
        "source_digest": model_digest(params),
    }
    return out


@dataclass
class GridPoint:
    beta: float
    gamma: float
    uauc: float
    ndcg: float


@dataclass
class GridSearchResult:
    """Winning coefficients plus the full evaluation table.

    `errors` lists grid points whose metrics were undefined. The search
    rejects a split that would leave any point undefined, so it is empty;
    grid files keep the key.
    """

    variant: str
    best: GridPoint
    table: list[GridPoint] = field(default_factory=list)
    ratio_fallback_labels: tuple[str, ...] = ()
    residual_fallback_labels: tuple[str, ...] = ()
    errors: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return to_jsonable({
            "variant": self.variant,
            "best": self.best.__dict__,
            "table": [p.__dict__ for p in self.table],
            "ratio_fallback_labels": self.ratio_fallback_labels,
            "residual_fallback_labels": self.residual_fallback_labels,
            "errors": self.errors,
        })


def _grid_for(cfg: DebiasConfig):
    beta = tuple(sorted(set(float(b) for b in cfg.beta_grid)))
    gamma = tuple(sorted(set(float(g) for g in cfg.gamma_grid)))
    if cfg.variant == "wo_ratio":
        return tuple(product((0.0,), gamma))
    if cfg.variant == "wo_residual":
        return tuple(product(beta, (0.0,)))
    return tuple(product(beta, gamma))


def grid_search_reconstruction(params: ModelParams, train_ds: Dataset,
                               unbiased_ds: Dataset,
                               cfg: DebiasConfig | None = None
                               ) -> tuple[ModelParams, GridSearchResult]:
    """Pick (beta, gamma) maximizing per-user AUC on the unbiased split.

    The grid is scanned in ascending (beta, gamma) order and only strict
    improvements replace the incumbent, so ties resolve to the smallest
    coefficients. NDCG@k is recorded for every point but does not drive
    the choice.

    Only the bias-field linear weights change across the grid, so the
    interaction (FM) or MLP (NFM) term is scored once per search with
    prediction_parts. Each point then rebuilds just the linear term and
    adds the pieces in forward's logit order, (w0 + linear) + high_order,
    so its scores equal predict() on the reconstructed model bit for bit.

    Only the scores change between points, so the ranking's id part is
    the unbiased split's own UserBlocks (blocks_of), built once per
    Dataset and shared with evaluate(). Each point ranks its scores once,
    and AUC and NDCG share that RankedData, exactly as in evaluate(). Only
    the winning model is built, at the end, by reconstruct_weights.

    A split where no user has both labels leaves every point's AUC
    undefined, so it raises ConfigError before any point is scored; past
    that check every point's AUC is defined and `errors` stays empty.
    """
    cfg = cfg or DebiasConfig()
    if len(unbiased_ds) == 0:
        raise ConfigError("grid search needs a non-empty unbiased split")
    if users_with_both_labels(unbiased_ds) == 0:
        raise ConfigError("no user of the unbiased split has both a positive "
                          "and a negative sample, so no grid point has a "
                          "per-user AUC")
    ratios = estimate_unbiased_ratios(unbiased_ds)
    residual_fit = fit_weight_residuals(params, train_ds)
    bias_range = train_ds.schema.bias_range
    lo, hi = bias_range

    ds = unbiased_ds
    indices, values = ds.indices, ds.values
    high = prediction_parts(params, indices, values).high_order
    blocks = blocks_of(ds)
    w = params.w.copy()

    best: GridPoint | None = None
    table: list[GridPoint] = []
    for beta, gamma in _grid_for(cfg):
        w[lo:hi] = beta * ratios.values + gamma * residual_fit.residuals
        # forward's logit order: (w0 + linear) + high_order
        scores = (params.w0 + (w[indices] * values).sum(axis=1)) + high
        ranked = blocks.rank(scores)
        uauc, _ = ranked_auc(ranked, scores, ds.labels)
        ndcg, _ = ranked_ndcg(ranked, ds.labels, cfg.k)
        point = GridPoint(beta, gamma, float(uauc), float(ndcg))
        table.append(point)
        if best is None or point.uauc > best.uauc:
            best = point
    best_params = reconstruct_weights(params, bias_range, ratios.values,
                                      residual_fit.residuals, best.beta,
                                      best.gamma)
    best_params.provenance["variant"] = cfg.variant
    result = GridSearchResult(
        variant=cfg.variant,
        best=best,
        table=table,
        ratio_fallback_labels=ratios.fallback_labels,
        residual_fallback_labels=residual_fit.fallback_labels,
    )
    return best_params, result
