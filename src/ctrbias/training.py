"""Mini-batch training for FM/NFM with Adam or plain SGD.

Adam follows the standard bias-corrected moment recursion with dense
updates. Its moments live in buffers updated in place across steps, and
only the delta it returns for each array is a fresh array; the IEEE
operations and their order are fixed, so every parameter is bitwise
identical to the textbook allocate-per-step form. Each epoch gathers the
shuffled rows once into buffers allocated per train() call, and every
batch is a slice of them.

The plain-SGD path skips shuffling and momentum entirely so a single step
is exactly

    w_j <- w_j + lr * (y - sigmoid(logit)) * x_j

(for l2 = 0), which keeps the update law directly checkable.

Early stopping watches per-user AUC on the validation split and restores
the best snapshot; only a strict improvement counts, and training stops
once an epoch without one is `patience` epochs past the best. train()
fills the TrainReport it returns epoch by epoch, and the model's
provenance is read from it. The optional "unaware" ablation pins the bias
field to zero influence: its linear weights and embedding rows start at
zero and their gradients are dropped every step, so those features never
touch the model's output.

A batch loss that is not finite raises DivergenceError here; a split's
scores are checked where they are made, in models.prediction_parts, and
train names the split and the epoch in that NumericalError.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import ConfigError, DivergenceError, NumericalError
from .evaluation import blocks_of, ranked_auc, users_with_both_labels
from .models import (ARCH_TAGS, DEFAULT_HIDDEN, ModelParams, init_params,
                     loss_and_grads, predict)
from .numeric import JsonRecord

ABLATIONS = ("none", "unaware")
OPTIMIZERS = ("adam", "plain_sgd")


@dataclass(frozen=True)
class TrainConfig:
    arch: str = "fm"
    embedding_dim: int = 16
    hidden: int = DEFAULT_HIDDEN
    lr: float = 1e-3
    batch_size: int = 256
    l2: float = 1e-6
    dropout_interaction: float = 0.0
    dropout_hidden: float = 0.0
    max_epochs: int = 20
    patience: int = 3
    optimizer: str = "adam"
    ablation: str = "none"
    seed: int = 0

    def __post_init__(self):
        if self.arch not in ARCH_TAGS:
            raise ConfigError(f"unknown architecture {self.arch!r}")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if self.ablation not in ABLATIONS:
            raise ConfigError(f"unknown ablation {self.ablation!r}")
        if self.embedding_dim < 1 or self.hidden < 1:
            raise ConfigError("embedding_dim and hidden must be >= 1")
        if not 0 < self.lr < np.inf:
            raise ConfigError("lr must be positive and finite")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not 0 <= self.l2 < np.inf:
            raise ConfigError("l2 must be finite and >= 0")
        for name in ("dropout_interaction", "dropout_hidden"):
            p = getattr(self, name)
            if not (0.0 <= p < 1.0):
                raise ConfigError(f"{name} must be in [0, 1)")
        if self.max_epochs < 1 or self.patience < 0:
            raise ConfigError("max_epochs must be >= 1 and patience >= 0")


@dataclass
class TrainReport(JsonRecord):
    """Per-epoch history and the stopping decision."""

    arch: str
    optimizer: str
    ablation: str
    seed: int
    n_train: int
    n_val: int
    epochs_run: int = 0
    best_epoch: int = 0
    train_loss: list[float] = field(default_factory=list)
    val_uauc: list[float] = field(default_factory=list)
    best_val_uauc: float = float("nan")
    stopped_early: bool = False


class Adam:
    """Dense Adam with bias correction; one shared step counter for all keys.

    For each key (0-d for w0 and b_out) the moments m and v, and one
    scratch buffer, persist across steps and are updated in place; the
    delta returned is the only fresh array. The operations and their order
    are fixed for bit parity with the textbook form

        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * (g * g)
        delta = lr * (m / c1) / (sqrt(v / c2) + eps)

    with c1 = 1 - b1**t and c2 = 1 - b2**t: only commuted factors and
    addends differ, which IEEE arithmetic rounds identically. Reassociating
    any of them (say, lr / c1 * m) changes the last bits of the parameters.
    """

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m: dict = {}
        self.v: dict = {}
        self._scratch: dict = {}

    def step(self, grads: dict) -> dict:
        """Deltas to subtract from each parameter, given this step's grads."""
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        out = {}
        for key, g in grads.items():
            if key not in self.m:
                self.m[key] = np.zeros_like(g, dtype=np.float64)
                self.v[key] = np.zeros_like(g, dtype=np.float64)
                self._scratch[key] = np.empty_like(g, dtype=np.float64)
            m, v, tmp = self.m[key], self.v[key], self._scratch[key]
            m *= b1
            np.multiply(g, 1.0 - b1, out=tmp)
            m += tmp
            np.multiply(g, g, out=tmp)
            tmp *= 1.0 - b2
            v *= b2
            v += tmp
            delta = m / c1
            delta *= self.lr
            np.divide(v, c2, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += self.eps
            delta /= tmp
            out[key] = delta
        return out


def _apply(params: ModelParams, deltas: dict) -> None:
    for key, delta in deltas.items():
        if key == "w0":
            params.w0 = float(params.w0 - delta)
        elif key == "b_out":
            params.mlp.b_out = float(params.mlp.b_out - delta)
        elif key in ("w", "V"):
            getattr(params, key).__isub__(delta)
        else:
            getattr(params.mlp, key).__isub__(delta)


def _val_uauc(params: ModelParams, val_ds: Dataset) -> float:
    # blocks_of breaks ties by item id; AUC does not depend on tie order
    scores = predict(params, val_ds.indices, val_ds.values)
    return ranked_auc(blocks_of(val_ds).rank(scores))[0]


def train(train_ds: Dataset, val_ds: Dataset | None,
          cfg: TrainConfig) -> tuple[ModelParams, TrainReport]:
    """Fit a model on train_ds; early-stop on val_ds per-user AUC if given.

    Raises DivergenceError as soon as a batch loss stops being finite,
    NumericalError when a validation score does (or, without validation,
    a training score after the last epoch), and ConfigError before
    the first epoch when a non-empty val_ds has no user with both labels.
    Returns the best-validation snapshot (or the final weights when no
    validation split is supplied) and the TrainReport the epochs filled.
    """
    schema = train_ds.schema
    params = init_params(schema.n, cfg.embedding_dim, cfg.arch, cfg.seed,
                         hidden=cfg.hidden, schema_digest=schema.digest())
    bias_lo, bias_hi = schema.bias_range
    if cfg.ablation == "unaware":
        params.V[bias_lo:bias_hi, :] = 0.0

    opt = Adam(cfg.lr) if cfg.optimizer == "adam" else None
    shuffle = cfg.optimizer == "adam"
    rng = np.random.default_rng([cfg.seed, 1])
    dropout = (cfg.dropout_interaction, cfg.dropout_hidden)

    n = len(train_ds)
    if n == 0:
        raise ConfigError("cannot train on an empty dataset")
    have_val = val_ds is not None and len(val_ds) > 0
    if have_val and users_with_both_labels(val_ds) == 0:
        raise ConfigError("no validation user has both a positive and a "
                          "negative sample, so early stopping has no "
                          "per-user AUC to watch")

    report = TrainReport(cfg.arch, cfg.optimizer, cfg.ablation, cfg.seed, n_train=n,
                         n_val=len(val_ds) if val_ds is not None else 0)
    best: ModelParams | None = None

    # One epoch's rows in shuffled order, refilled in place each epoch so a
    # batch is a slice view. Every order is a permutation of range(n), so
    # mode="clip" never clips; it spares the temporary copy that take()
    # makes with out= under mode="raise".
    labels = train_ds.labels.astype(np.float64)
    epoch_idx = np.empty_like(train_ds.indices)
    epoch_val = np.empty_like(train_ds.values)
    epoch_lab = np.empty_like(labels)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(cfg.max_epochs):
            order = rng.permutation(n) if shuffle else np.arange(n)
            np.take(train_ds.indices, order, axis=0, out=epoch_idx, mode="clip")
            np.take(train_ds.values, order, axis=0, out=epoch_val, mode="clip")
            np.take(labels, order, out=epoch_lab, mode="clip")
            batch_losses = []
            for b, lo in enumerate(range(0, n, cfg.batch_size)):
                hi = lo + cfg.batch_size
                loss, grads, cache = loss_and_grads(
                    params, epoch_idx[lo:hi], epoch_val[lo:hi], epoch_lab[lo:hi],
                    l2=cfg.l2, train=True, dropout=dropout, rng=rng,
                )
                if not np.isfinite(loss):
                    logits = cache.logits[np.isfinite(cache.logits)]
                    peak = float(np.abs(logits).max()) if len(logits) else float("inf")
                    raise DivergenceError(epoch, b, peak)
                if cfg.ablation == "unaware":
                    grads["w"][bias_lo:bias_hi] = 0.0
                    grads["V"][bias_lo:bias_hi, :] = 0.0
                deltas = opt.step(grads) if opt else {k: cfg.lr * g
                                                     for k, g in grads.items()}
                _apply(params, deltas)
                batch_losses.append(loss)
            report.train_loss.append(float(np.mean(batch_losses)))
            report.epochs_run = epoch + 1

            try:  # predict refuses a score that is not finite
                if have_val:
                    uauc = _val_uauc(params, val_ds)
                elif epoch == cfg.max_epochs - 1:
                    predict(params, train_ds.indices, train_ds.values)
            except NumericalError:
                split = "validation" if have_val else "training"
                raise NumericalError(f"non-finite {split} scores at epoch {epoch}") from None
            if have_val:
                report.val_uauc.append(uauc)
                # best_val_uauc starts as NaN, which no uauc exceeds
                if best is None or uauc > report.best_val_uauc:
                    best = params.copy()
                    report.best_val_uauc = float(uauc)
                    report.best_epoch = epoch
                elif epoch - report.best_epoch >= cfg.patience:
                    report.stopped_early = True
                    break

    if best is not None:
        params = best
    else:
        report.best_epoch = report.epochs_run - 1

    params.provenance = {"created_by": "train", **{
        key: getattr(report, key) for key in (
            "arch", "optimizer", "ablation", "seed", "epochs_run", "best_epoch")}}
    return params, report
