"""Synthetic CTR data with a controllable group-level exposure bias.

The generator builds a latent-preference world (user and item factor
vectors), assigns items to groups round-robin, and draws two kinds of
exposure logs:

* a *biased* log, where the exposure policy over-serves some groups
  (frequency weights ``pi``) and, within a group, favors items the user
  already likes (per-group softmax temperature ``tau``);
* *unbiased* holdouts, where each user is shown uniformly random items.

Click probability is sigmoid(a_u . b_i + e_i + c_j) with a per-item
popularity offset e_i and a per-group offset c_j. The group offsets are
calibrated by bisection so the positive ratio of each group on the biased
training portion hits a configured target. Because the
temperatures are assigned to groups in seeded-random order, the group
ranking by training positive ratio and the ranking by unbiased positive
ratio deliberately disagree: models that copy the training ratios into
their weights mis-rank groups on unbiased traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, FeatureIndex, FieldSchema
from .errors import CalibrationError, ConfigError
from .evaluation import group_stats
from .numeric import sigmoid

BISECT_LO = -50.0
BISECT_HI = 50.0
BISECT_TOL = 1e-12
# shares of the biased log, in stamp order, that become train, val and test
SPLIT_FRACTIONS = (0.8, 0.1, 0.1)
# block sizes of generate's exposure draw (rows) and holdout permutation
# (users): they bound its temporaries and change no draw
EXPOSURE_BLOCK_ROWS = 4096
HOLDOUT_BLOCK_USERS = 256
# largest gap allowed between a group's realized training positive ratio
# and its target
REALIZED_TOL = 0.05


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the synthetic world and the two exposure policies.

    ``rho`` holds the per-group target positive ratios on the biased
    training split; empty means linspace(0.1, 0.9, n_groups). ``tau``
    temperatures between temp_low and temp_high control how strongly the
    biased policy matches items to user preference within each group;
    ``group_freq_decay`` < 1 skews how often each group is served at all.
    """

    n_users: int = 400
    n_items: int = 240
    n_groups: int = 8
    rho: tuple[float, ...] = ()
    exposures_per_user: int = 50
    unbiased_val_per_user: int = 2
    unbiased_test_per_user: int = 6
    pref_dim: int = 8
    pref_scale: float = 1.0
    item_offset_scale: float = 0.0
    group_freq_decay: float = 0.9
    temp_low: float = 0.2
    temp_high: float = 3.0
    seed: int = 0

    def __post_init__(self):
        if self.n_groups < 2:
            raise ConfigError("need at least 2 groups")
        if self.n_items < self.n_groups:
            raise ConfigError("need at least one item per group")
        if self.n_users < 1 or self.exposures_per_user < 1:
            raise ConfigError("need at least one user and one exposure per user")
        if self.unbiased_val_per_user < 0 or self.unbiased_test_per_user < 0:
            raise ConfigError("unbiased exposure counts must be >= 0")
        if self.unbiased_val_per_user + self.unbiased_test_per_user > self.n_items:
            raise ConfigError("unbiased exposures per user exceed catalog size")
        if self.pref_dim < 1:
            raise ConfigError("pref_dim must be >= 1")
        if not np.isfinite(self.pref_scale):
            raise ConfigError("pref_scale must be finite")
        if not 0 <= self.item_offset_scale < np.inf:
            raise ConfigError("item_offset_scale must be finite and >= 0")
        if not 0 < self.temp_low <= self.temp_high < np.inf:
            raise ConfigError("need 0 < temp_low <= temp_high, both finite")
        if not (0 < self.group_freq_decay <= 1):
            raise ConfigError("group_freq_decay must be in (0, 1]")
        rho = self.resolved_rho()
        if len(rho) != self.n_groups:
            raise ConfigError(f"rho has {len(rho)} entries for {self.n_groups} groups")
        if not np.all((rho > 0) & (rho < 1)):
            raise ConfigError("target ratios must lie strictly inside (0, 1)")

    def resolved_rho(self) -> np.ndarray:
        if self.rho:
            return np.asarray(self.rho, dtype=np.float64)
        return np.linspace(0.1, 0.9, self.n_groups)


@dataclass
class SynthResult:
    """Datasets plus the generating ground truth for diagnostics."""

    schema: FieldSchema
    train: Dataset
    val: Dataset
    test: Dataset
    unbiased_val: Dataset
    unbiased_test: Dataset
    truth: dict = field(default_factory=dict)

    @property
    def splits(self) -> dict[str, Dataset]:
        return {
            "train": self.train,
            "val": self.val,
            "test": self.test,
            "unbiased_val": self.unbiased_val,
            "unbiased_test": self.unbiased_test,
        }


def _id_strings(prefix: str, count: int) -> np.ndarray:
    """prefix + zero-padded 0..count-1: index order is string order."""
    width = len(str(max(count - 1, 1)))
    return np.array([f"{prefix}{i:0{width}d}" for i in range(count)])


def _calibrate_offset(d: np.ndarray, target: float, group_label: str) -> float:
    """Bisect c so that mean(sigmoid(d + c)) == target. Monotone in c."""
    lo, hi = BISECT_LO, BISECT_HI
    if not (np.mean(sigmoid(d + lo)) < target < np.mean(sigmoid(d + hi))):
        raise CalibrationError(group_label, target)
    while hi - lo > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if np.mean(sigmoid(d + mid)) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def generate(cfg: SynthConfig) -> SynthResult:
    """Draw the full five-way split (biased train/val/test, unbiased val/test).

    All randomness comes from one generator seeded with cfg.seed, so equal
    configs produce identical results. Raises CalibrationError when a group
    offset cannot reach its target ratio or the realized training ratio
    lands more than REALIZED_TOL away from it.
    """
    rng = np.random.default_rng(cfg.seed)
    rho = cfg.resolved_rho()

    try:  # numpy refuses an array it cannot hold before allocating it
        pref = np.empty((cfg.n_users, cfg.n_items))  # before any other work
        users_b = np.repeat(np.arange(cfg.n_users), cfg.exposures_per_user)
        A = rng.normal(size=(cfg.n_users, cfg.pref_dim))
        B = rng.normal(size=(cfg.n_items, cfg.pref_dim))
        np.matmul(A, B.T, out=pref)
    except (MemoryError, OverflowError, ValueError) as exc:
        raise ConfigError(f"cannot allocate the synthetic world: {exc}") from None
    # the ids draw nothing, so they wait until the world is known to fit
    user_labels = _id_strings("u", cfg.n_users)
    item_labels = _id_strings("i", cfg.n_items)
    group_labels = _id_strings("g", cfg.n_groups)
    schema = FieldSchema(
        fields=(("user", cfg.n_users), ("item", cfg.n_items), ("group", cfg.n_groups)),
        bias_field="group",
        categories={
            "user": tuple(user_labels),
            "item": tuple(item_labels),
            "group": tuple(group_labels),
        },
    )
    index = FeatureIndex(schema)  # the five splits share one

    item_offset = rng.normal(0.0, cfg.item_offset_scale, size=cfg.n_items) \
        if cfg.item_offset_scale > 0 else np.zeros(cfg.n_items)
    pref *= cfg.pref_scale / np.sqrt(cfg.pref_dim)
    group_of = np.arange(cfg.n_items) % cfg.n_groups

    tau = rng.permutation(np.linspace(cfg.temp_low, cfg.temp_high, cfg.n_groups))
    pi = cfg.group_freq_decay ** np.arange(cfg.n_groups, dtype=np.float64)
    pi = pi / pi.sum()

    # biased exposure log: group by pi, item within group by softmax(tau * pref)
    n_b = len(users_b)
    groups_b = np.searchsorted(np.cumsum(pi), rng.random(n_b), side="right")
    groups_b = np.minimum(groups_b, cfg.n_groups - 1)
    items_b = np.empty(n_b, dtype=np.int64)
    for j in range(cfg.n_groups):
        members = np.nonzero(group_of == j)[0]
        logits = tau[j] * pref[:, members]
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        p /= p.sum(axis=1, keepdims=True)
        cum = np.cumsum(p, axis=1)
        mask = groups_b == j
        draws = rng.random(int(mask.sum()))
        users_j = users_b[mask]
        pos = np.empty(len(draws), dtype=np.int64)
        for lo in range(0, len(draws), EXPOSURE_BLOCK_ROWS):
            hi = lo + EXPOSURE_BLOCK_ROWS
            pos[lo:hi] = (cum[users_j[lo:hi]] < draws[lo:hi, None]).sum(axis=1)
        items_b[mask] = members[np.minimum(pos, len(members) - 1)]
    stamps_b = rng.permutation(n_b)
    # label odds combine preference, popularity, and the group offset; the
    # biased exposure policy above tilts by preference only
    dots = pref
    dots += item_offset
    del pref

    # train holds the first round(n*f_train) stamps and val the stamps up to
    # round(n*(f_train + f_val)); calibrate offsets on exactly the train set
    f_train, f_val, _ = SPLIT_FRACTIONS
    cuts = [int(round(n_b * f_train)), int(round(n_b * (f_train + f_val)))]
    in_train = stamps_b < cuts[0]
    c = np.empty(cfg.n_groups)
    for j in range(cfg.n_groups):
        sel = in_train & (groups_b == j)
        if not sel.any():
            raise CalibrationError(str(group_labels[j]), float(rho[j]))
        c[j] = _calibrate_offset(dots[users_b[sel], items_b[sel]], float(rho[j]),
                                 str(group_labels[j]))

    p_b = sigmoid(dots[users_b, items_b] + c[groups_b])
    labels_b = (rng.random(n_b) < p_b).astype(np.int8)

    def split(tag, users, items, labels, stamps):
        indices = np.empty((len(users), 3), dtype=np.int64)
        indices[:, 0] = users
        indices[:, 1] = cfg.n_users + items
        indices[:, 2] = cfg.n_users + cfg.n_items + group_of[items]
        # zero-padded labels sort like their indices, so the indices are
        # the id codes
        return Dataset(schema, indices, np.ones(indices.shape), labels, users, items,
                       stamps, split_tag=tag, index=index,
                       user_vocab=user_labels, item_vocab=item_labels)

    # unbiased holdouts: uniform items without replacement per user, val and
    # test disjoint within each user. Each user's order is the argsort of one
    # row of random numbers; consecutive row blocks read the same stream as
    # one full draw, and only the first k_v + k_t positions are kept.
    k_v, k_t = cfg.unbiased_val_per_user, cfg.unbiased_test_per_user
    perm = np.empty((cfg.n_users, k_v + k_t), dtype=np.int64)
    for lo in range(0, cfg.n_users, HOLDOUT_BLOCK_USERS):
        hi = min(lo + HOLDOUT_BLOCK_USERS, cfg.n_users)
        perm[lo:hi] = np.argsort(rng.random((hi - lo, cfg.n_items)), axis=1)[:, :k_v + k_t]
    unbiased = {}
    offsets = {"unbiased_val": (0, k_v), "unbiased_test": (k_v, k_v + k_t)}
    next_stamp = n_b
    for tag, (a, b) in offsets.items():
        items_u = perm[:, a:b].ravel()
        users_u = np.repeat(np.arange(cfg.n_users), b - a)
        p_u = sigmoid(dots[users_u, items_u] + c[group_of[items_u]])
        labels_u = (rng.random(len(users_u)) < p_u).astype(np.int8)
        stamps_u = next_stamp + np.arange(len(users_u), dtype=np.int64)
        next_stamp += len(users_u)
        unbiased[tag] = split(tag, users_u, items_u, labels_u, stamps_u)

    s_uniform = np.array([
        float(sigmoid(dots[:, group_of == j] + c[j]).mean()) for j in range(cfg.n_groups)
    ])
    # the biased splits come last, once the n_users x n_items matrix is gone;
    # they draw no random numbers. The stamps are distinct, so their order
    # alone is the chronological one.
    del dots, p_b
    train, val, test = (
        split(tag, users_b[rows], items_b[rows], labels_b[rows], stamps_b[rows])
        for tag, rows in zip(("train", "val", "test"),
                             np.split(np.argsort(stamps_b), cuts)))
    train_ratio = group_stats(train).ratio  # every group has training rows
    for j in range(cfg.n_groups):
        if abs(train_ratio[j] - rho[j]) > REALIZED_TOL:
            raise CalibrationError(str(group_labels[j]), float(rho[j]))
    truth = {
        "rho_target": rho,
        "rho_train_realized": train_ratio,
        "unbiased_expected_ratio": s_uniform,
        "c": c,
        "tau": tau,
        "pi": pi,
        "group_of_item": group_of,
        "item_offset": item_offset,
        "user_factors": A,
        "item_factors": B,
    }
    return SynthResult(schema, train, val, test,
                       unbiased["unbiased_val"], unbiased["unbiased_test"], truth)
