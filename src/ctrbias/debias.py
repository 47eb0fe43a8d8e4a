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

Both ratio vectors are evaluation.group_stats' filled ratios: a group a
log never exposed takes that log's global positive ratio and is named in
the grid report's ratio_ or residual_fallback_labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import product

import numpy as np

from .analysis import ols_fit
from .data import Dataset
from .errors import ConfigError
from .evaluation import (DEFAULT_K, GroupStats, blocks_of, group_stats,
                         ranked_auc, ranked_ndcg, users_with_both_labels)
from .models import ModelParams, model_digest, prediction_parts, rescore
from .numeric import JsonRecord

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


def _corrected(params: ModelParams, bias_range: tuple[int, int],
               weights: np.ndarray, record: dict) -> ModelParams:
    """A copy of params with `weights` as its bias-field linear weights,
    whose provenance is the correction's record plus the source's digest."""
    lo, hi = bias_range
    if not (0 <= lo < hi <= params.n):
        raise ConfigError(f"bias range {bias_range} outside parameter space")
    out = params.copy()
    out.w[lo:hi] = weights
    out.provenance = {**record, "source_digest": model_digest(params)}
    return out


def reduce_weights(params: ModelParams, bias_range: tuple[int, int],
                   alpha: float) -> ModelParams:
    """Scale the bias-field linear weights by alpha in [0, 1]."""
    if not (0.0 <= alpha <= 1.0):
        raise ConfigError(f"alpha must be in [0, 1], got {alpha}")
    lo, hi = bias_range
    return _corrected(params, bias_range, params.w[lo:hi] * alpha,
                      {"created_by": "reduce", "alpha": alpha})


def fit_weight_residuals(w_bias: np.ndarray, train_stats: GroupStats) -> np.ndarray:
    """Residuals of an OLS fit of trained bias weights on training ratios.

    residuals[j] = w_j - (intercept + slope * filled_ratio[j]), the fit
    running over the groups with training exposure; a group without takes
    the global training ratio as its regressor value.
    """
    defined = train_stats.exposures > 0
    if int(defined.sum()) < 2:
        raise ConfigError("need at least two groups with training exposure "
                          "to fit weights on ratios")
    ratio = train_stats.filled_ratio
    fit = ols_fit(ratio[defined], w_bias[defined])
    # not fit.residuals: it rounds differently from this form
    return w_bias - (fit.intercept + fit.coef[0] * ratio)


def reconstruct_weights(params: ModelParams, bias_range: tuple[int, int],
                        ratios: np.ndarray, residuals: np.ndarray,
                        beta: float, gamma: float) -> ModelParams:
    """Replace bias-field weights with beta * ratio + gamma * residual."""
    lo, hi = bias_range
    ratios = np.asarray(ratios, dtype=np.float64)
    residuals = np.asarray(residuals, dtype=np.float64)
    if ratios.shape != (hi - lo,) or residuals.shape != (hi - lo,):
        raise ConfigError("ratios and residuals must cover the bias range exactly")
    return _corrected(params, bias_range, beta * ratios + gamma * residuals,
                      {"created_by": "reconstruct", "beta": beta, "gamma": gamma})


@dataclass
class GridPoint:
    beta: float
    gamma: float
    uauc: float
    ndcg: float


@dataclass
class GridSearchResult(JsonRecord):
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

    The grid is scanned in ascending (beta, gamma) order and the winner is
    the first maximum of the table, so ties resolve to the smallest
    coefficients. NDCG@k is recorded for every point but does not drive
    the choice.

    Only the bias-field linear weights change across the grid, so the
    interaction (FM) or MLP (NFM) term is scored once per search with
    prediction_parts. Each point then writes its weights into a model
    that shares every other table with params and rescores it on that
    high-order part, so its scores equal predict() on the reconstructed
    model bit for bit.

    Only the scores change between points, so everything the metrics read
    of ids and labels is the unbiased split's own UserBlocks (blocks_of),
    with its NDCG plan, and both splits' group counts (group_stats): each
    is built once per Dataset and shared with evaluate(). Each point ranks
    its scores once, and AUC and NDCG share that RankedData, exactly as in
    evaluate(). Only the winning model is built, at the end, by
    reconstruct_weights.

    A split where no user has both labels leaves every point's AUC
    undefined and a training split with fewer than two exposed groups
    leaves no residual fit, so each raises ConfigError before any point is
    scored; past those checks every point's AUC is defined and `errors`
    stays empty.
    """
    cfg = cfg or DebiasConfig()
    if len(unbiased_ds) == 0:
        raise ConfigError("grid search needs a non-empty unbiased split")
    if users_with_both_labels(unbiased_ds) == 0:
        raise ConfigError("no user of the unbiased split has both a positive "
                          "and a negative sample, so no grid point has a "
                          "per-user AUC")
    bias_range = train_ds.schema.bias_range
    lo, hi = bias_range
    train_stats = group_stats(train_ds)
    residuals = fit_weight_residuals(params.w[lo:hi], train_stats)
    unbiased_stats = group_stats(unbiased_ds)
    ratios = unbiased_stats.filled_ratio

    indices, values = unbiased_ds.indices, unbiased_ds.values
    high = prediction_parts(params, indices, values).high_order
    blocks = blocks_of(unbiased_ds)
    point_params = replace(params, w=params.w.copy())

    table: list[GridPoint] = []
    for beta, gamma in _grid_for(cfg):
        point_params.w[lo:hi] = beta * ratios + gamma * residuals
        _, scores = rescore(point_params, high, indices, values)
        ranked = blocks.rank(scores)
        uauc, _ = ranked_auc(ranked)
        ndcg, _ = ranked_ndcg(ranked, cfg.k)
        table.append(GridPoint(beta, gamma, float(uauc), float(ndcg)))
    best = max(table, key=lambda point: point.uauc)
    best_params = reconstruct_weights(params, bias_range, ratios, residuals,
                                      best.beta, best.gamma)
    best_params.provenance["variant"] = cfg.variant
    result = GridSearchResult(
        variant=cfg.variant,
        best=best,
        table=table,
        ratio_fallback_labels=unbiased_stats.fallback_labels,
        residual_fallback_labels=train_stats.fallback_labels,
    )
    return best_params, result
