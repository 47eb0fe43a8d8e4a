"""Ranking metrics over per-user score lists, with group-level exposure views.

Every metric starts from one ranking, in (user asc, score desc, item_id
asc) order, so each user's samples form a contiguous block in ranking
order. evaluate() is the one entry that turns a split's scores into group
metrics: it shares one RankedData across AUC, NDCG, TPR@k, EHR and REO.
A UserBlocks is a split's ranking frame, built once from its ids and
labels (which must be 0/1): the rows sorted by (user, item, input
position), the user blocks with their sizes and positive counts, and the
labels. A ranking moves rows only inside their user's block, so the
frame also computes up front what its metrics read from ids and labels
alone, per user rather than per row: AUC's per-user offset and pair
count and, on first use per clamped k, an NdcgPlan (the ranked positions
of each top k and their discounts, the ideal DCG of each user with a
positive, and those users grouped by depth). A score vector then costs
only its own work. rank() sorts it with two argsorts: an unstable one
that turns the scores into dense integer ranks, and a stable one of
block * n + dense rank. Equal scores (0.0 and -0.0 among them) get equal
dense ranks, so the unstable sort's tie order cannot show, and the stable
sort keeps the base order inside a tie: the result is the three-key
lexsort exactly. The RankedData it returns holds the scores and labels in
that order, so a metric reads the ranking alone. blocks_of() keeps one
UserBlocks per Dataset, so evaluate(), the grid search and training's
validation share one frame per split. Per-user quantities then come from
block and run boundaries and np.add.reduceat, with no Python loop over
users:

* AUC gives each run of tied scores inside a user the mean of the run's
  positions, so a user's positive rank sum, n_pos * block end less the
  positives' mean positions, is a sum of exact half-integers. A sum of
  such values below 2**53 is exact in any order, so AUC is the same on the
  item-tie-broken order as on any other order of the ties.
* NDCG lays the top-d gains of the users at one depth d out as the rows
  of a (users x d) table; a row sum reduces exactly like the 1-D sum over
  that user's gains.
* The per-user values enter each mean in user order through sequential
  adds (a cumulative sum), the order a loop over users adds them in.

So every result equals, bit for bit, that of a per-user loop; the loops in
tests/oracles.py are the reference. The item-id tie-break makes the top-k
metrics independent of row order only while no (user, item) pair repeats:
a repeated pair's copies tie and keep their input order, so NDCG, TPR@k
and REO can move when the rows are permuted. user_auc() ranks on one
constant tie key; AUC reads no tie order.

Group-level metrics key off the bias field: a sample counts for group j
when its feature vector has positive mass on that group's feature.
group_stats() is the one per-group table of a split (counts, ratios and
the global-ratio fallback of an unexposed group) that every group count
in the package reads, counted once per Dataset like its frame.

Undefined values (a user with no positives, a group with no positive
samples) are skipped or reported as NaN rather than silently treated as
zero; the evaluate() driver collects them into an error list. NaN scores
have no rank and are rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, quote_cells
from .errors import ConfigError, MetricError
from .numeric import JsonRecord, run_edges, to_jsonable

DEFAULT_K = 5


class UserBlocks:
    """One split's ranking frame, built once for many score vectors.

    `base` sorts the rows by (user, item, input position). `user_starts`
    and `users` are the user blocks along it, `sizes` their row counts,
    `n_pos` their positive counts and `both_labels` marks the users with a
    defined AUC. `offsets` is block number * n for each base position. A
    ranking moves rows only inside their block, so the blocks hold for
    every ranked order too. `auc_offset` and `auc_pairs` are, per user with
    both labels, n_pos * block end - n_pos (n_pos + 1) / 2 and
    n_pos * n_neg.
    """

    def __init__(self, user_ids, labels, item_ids):
        user_ids = np.asarray(user_ids)
        self.labels = labels = np.asarray(labels)
        n = len(user_ids)
        if len(labels) != n or len(item_ids) != n:
            raise ConfigError("user_ids, labels, item_ids must have equal length")
        if n == 0:
            raise ConfigError("cannot rank an empty sample list")
        is_pos = labels == 1
        if not (is_pos | (labels == 0)).all():
            raise ConfigError("labels must be 0/1")
        self.base = np.lexsort((np.asarray(item_ids), user_ids))
        sorted_users = user_ids[self.base]
        self.user_starts = run_edges(sorted_users)
        self.users = sorted_users[self.user_starts[:-1]]
        self.n_users = len(self.users)
        self.sizes = np.diff(self.user_starts)
        self.n_pos = np.add.reduceat(is_pos[self.base], self.user_starts[:-1],
                                     dtype=np.int64)
        self.both_labels = (self.n_pos > 0) & (self.n_pos < self.sizes)
        p = self.n_pos[self.both_labels].astype(np.float64)
        self.auc_offset = (p * self.user_starts[1:][self.both_labels]
                           - p * (p + 1) / 2.0)
        self.auc_pairs = p * (self.sizes[self.both_labels] - p)
        # block * n + dense rank stays below n**2, which fits int64 for
        # n < 3e9
        self.offsets = np.repeat(np.arange(self.n_users, dtype=np.int64) * n,
                                 self.sizes)
        self._ndcg_plans: dict[int, NdcgPlan] = {}

    def ndcg_plan(self, k: int) -> NdcgPlan:
        """The NdcgPlan at cutoff k, built on first use per clamped k."""
        if k < 1:
            raise ConfigError(f"k must be >= 1, got {k}")
        # a deeper cutoff ranks the same rows
        k = min(k, int(self.sizes.max()))
        if k not in self._ndcg_plans:
            self._ndcg_plans[k] = NdcgPlan(self, k)
        return self._ndcg_plans[k]

    def rank(self, scores) -> RankedData:
        """Rows by (user asc, score desc), tied scores in base order."""
        scores = np.asarray(scores, dtype=np.float64)
        if len(scores) != len(self.base):
            raise ConfigError("scores length does not match the dataset")
        if np.isnan(scores).any():
            raise ConfigError("scores contain NaN, which has no rank")
        neg = -scores[self.base]
        by_score = np.argsort(neg)
        ascending = neg[by_score]
        dense = np.empty(len(neg), dtype=np.int64)
        dense[by_score[0]] = 0
        dense[by_score[1:]] = np.cumsum(ascending[1:] != ascending[:-1])
        order = self.base[np.argsort(self.offsets + dense, kind="stable")]
        return RankedData(self, order, scores[order], self.labels[order])


class NdcgPlan:
    """What NDCG@k reads of a UserBlocks at one clamped cutoff k.

    The users with a positive are grouped by depth d = min(block size, k):
    per depth, `depth_groups` holds d, the group's places among those
    users and the (group users x d) int32 ranked positions of their top d
    rows. `discounts` are 1/log2(place + 2) and `idcg` each such user's
    ideal DCG.
    """

    def __init__(self, blocks: UserBlocks, k: int):
        self.discounts = 1.0 / np.log2(np.arange(2, k + 2))
        has_pos = blocks.n_pos > 0
        starts = blocks.user_starts[:-1][has_pos]
        ideal_depth = np.minimum(blocks.n_pos[has_pos], k)
        self.idcg = np.empty(len(starts))
        for d in np.unique(ideal_depth):
            self.idcg[ideal_depth == d] = self.discounts[:d].sum()
        depth = np.minimum(blocks.sizes[has_pos], k)
        self.depth_groups = []
        for d in np.unique(depth):
            places = np.flatnonzero(depth == d)
            top = (starts[places, None] + np.arange(d)).astype(np.int32)
            self.depth_groups.append((d, places, top))


@dataclass
class RankedData:
    """One score vector's ranking of a UserBlocks, with its scores and labels."""

    blocks: UserBlocks
    order: np.ndarray
    scores: np.ndarray
    labels: np.ndarray


def blocks_of(ds: Dataset) -> UserBlocks:
    """The UserBlocks of ds, built on first use and kept on ds: a Dataset
    never changes its rows, and subset() returns a new Dataset. It sorts
    the id codes, which sort like the ids."""
    if ds._blocks is None:
        ds._blocks = UserBlocks(ds.user_ids, ds.labels, ds.item_ids)
    return ds._blocks


def users_with_both_labels(ds: Dataset) -> int:
    """How many users of a non-empty ds have both a positive and a negative
    sample, i.e. a defined per-user AUC."""
    return int(blocks_of(ds).both_labels.sum())


def _by_row(ranked: RankedData, position_sets) -> np.ndarray:
    """Boolean per original row: the row sits at a ranked position of one
    of the position arrays."""
    by_row = np.zeros(len(ranked.order), dtype=bool)
    for positions in position_sets:
        by_row[ranked.order[positions]] = True
    return by_row


def _mean_in_user_order(values: np.ndarray, n_users: int) -> tuple[float, int]:
    """Mean of the defined per-user values, and how many users were skipped.

    A cumulative sum adds the values one at a time in user order, as a loop
    over users would; np.sum's pairwise reduction would round differently.
    """
    if len(values) == 0:
        return float("nan"), n_users
    return float(np.cumsum(values)[-1] / len(values)), n_users - len(values)


def ranked_auc(ranked: RankedData) -> tuple[float, int]:
    blocks = ranked.blocks
    starts = blocks.user_starts[:-1]
    # a run of tied scores inside one user shares the mean of its positions
    edges = run_edges(ranked.scores, starts)
    run_pos = np.diff(np.cumsum(ranked.labels)[edges[1:] - 1], prepend=0)
    # blocks run by descending score: in a block ending at e, a run over
    # positions [a, b) gives each of its positives the ascending 1-based rank
    # e - (a + b - 1) / 2, so a user's positive rank sum is n_pos * e less
    # half the integer sum of run_pos * (a + b - 1) over its runs
    twice_mid = np.add.reduceat(run_pos * (edges[:-1] + edges[1:] - 1),
                                np.searchsorted(edges, starts))
    return _mean_in_user_order(
        (blocks.auc_offset - 0.5 * twice_mid[blocks.both_labels])
        / blocks.auc_pairs, blocks.n_users)


def ranked_ndcg(ranked: RankedData, k: int) -> tuple[float, int]:
    plan = ranked.blocks.ndcg_plan(k)
    dcg = np.empty(len(plan.idcg))
    # a row of a (users x d) gain table sums like the 1-D sum of that
    # user's d gains, so users are grouped by depth, with no zero padding
    for d, places, top in plan.depth_groups:
        dcg[places] = (ranked.labels[top] * plan.discounts[:d]).sum(axis=1)
    return _mean_in_user_order(dcg / plan.idcg, ranked.blocks.n_users)


@dataclass
class GroupStats:
    """Per-group sample counts and the positive ratio N_p / (N_p + N_n).

    global_ratio is the split's positive share over its rows (nan if it has
    none). A group with no exposure has a nan `ratio`, takes global_ratio
    in `filled_ratio` and is named in `fallback_labels`.
    """

    labels: tuple[str, ...]
    n_pos: np.ndarray
    n_neg: np.ndarray
    global_ratio: float

    @property
    def exposures(self) -> np.ndarray:
        return self.n_pos + self.n_neg

    @property
    def diff(self) -> np.ndarray:
        return self.n_pos - self.n_neg

    @property
    def ratio(self) -> np.ndarray:
        total = self.exposures
        with np.errstate(invalid="ignore"):
            return np.where(total > 0, self.n_pos / total, np.nan)

    @property
    def filled_ratio(self) -> np.ndarray:
        return np.where(self.exposures > 0, self.ratio, self.global_ratio)

    @property
    def fallback_labels(self) -> tuple[str, ...]:
        return tuple(lbl for lbl, e in zip(self.labels, self.exposures) if e == 0)

    def to_json_dict(self) -> dict:
        return to_jsonable({
            "labels": self.labels,
            "n_pos": self.n_pos,
            "n_neg": self.n_neg,
            "diff": self.diff,
            "ratio": self.ratio,
        })


def group_stats(ds: Dataset) -> GroupStats:
    """Count positives and negatives per bias group over one split.

    The counts are made on first use and kept on ds, as blocks_of keeps its
    frame. Each call returns a new GroupStats over copies of them, named
    by ds.index as it is at the call (ds.bias_labels).
    """
    if ds._group_counts is None:
        rows, groups = ds.bias_memberships()
        g = ds.schema.num_groups
        is_pos = ds.labels[rows] == 1
        ds._group_counts = (
            np.bincount(groups[is_pos], minlength=g).astype(np.int64),
            np.bincount(groups[~is_pos], minlength=g).astype(np.int64),
            float(ds.labels.mean()) if len(ds) else float("nan"))
    n_pos, n_neg, global_ratio = ds._group_counts
    return GroupStats(ds.bias_labels, n_pos.copy(), n_neg.copy(), global_ratio)


def _per_group_rate(ds: Dataset, row_weights: np.ndarray,
                    counts: np.ndarray) -> np.ndarray:
    """Per group, the sum of row_weights over its member rows (added in row
    order) divided by its count; nan for a group whose count is 0."""
    rows, groups = ds.bias_memberships()
    sums = np.bincount(groups, weights=row_weights.astype(np.float64)[rows],
                       minlength=ds.schema.num_groups)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(counts > 0, sums / counts, np.nan)


def user_auc(user_ids, scores, labels) -> tuple[float, int]:
    """Mean per-user AUC; ties count half. Users without both classes are
    skipped; returns (nan, n_users) when every user is skipped.

    Ranks on one constant tie key, so tied scores keep their input order,
    which only a tie-invariant metric such as AUC can accept.
    """
    no_items = np.zeros(len(user_ids), dtype=np.int8)
    return ranked_auc(UserBlocks(user_ids, labels, no_items).rank(scores))


def ndcg_at_k(user_ids, scores, labels, item_ids, k: int = DEFAULT_K) -> tuple[float, int]:
    """Mean NDCG@k with binary gains and 1/log2(rank+1) discounts.

    Users with no positive samples are skipped.
    """
    return ranked_ndcg(UserBlocks(user_ids, labels, item_ids).rank(scores), k)


def reo_at_k(tpr) -> float:
    """Ranking equal opportunity: population std over group TPRs divided by
    their mean. Groups without positives (NaN) are excluded; all-zero TPRs
    or no measurable group at all raise MetricError."""
    values = [float(p) for p in tpr if math.isfinite(p)]
    if not values:
        raise MetricError("no group has positive samples, equal-opportunity "
                          "spread is undefined")
    mean = sum(values) / len(values)
    if mean == 0.0:
        raise MetricError("all group TPRs are zero, relative spread is undefined")
    var = sum((p - mean) ** 2 for p in values) / len(values)
    return math.sqrt(var) / mean


@dataclass
class EvalReport(JsonRecord):
    """All metrics of one split at one cutoff, plus undefined-value notes."""

    split_tag: str
    k: int
    n_samples: int
    n_users: int
    uauc: float
    uauc_skipped_users: int
    ndcg: float
    ndcg_skipped_users: int
    reo: float | None
    group_labels: tuple[str, ...]
    group_tpr: list[float]
    group_ehr: list[float]
    group_exposures: list[int]
    group_positives: list[int]
    errors: list[str] = field(default_factory=list)

    def write_group_csv(self, path) -> None:
        rates = [["" if math.isnan(x) else repr(x) for x in column]
                 for column in (self.group_tpr, self.group_ehr)]
        rows = zip(quote_cells(list(self.group_labels)), map(str, self.group_exposures),
                   map(str, self.group_positives), *rates)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(f"group,exposures,positives,tpr_at_{self.k},ehr\n")
            fh.writelines(",".join(row) + "\n" for row in rows)


def evaluate(ds: Dataset, scores, k: int = DEFAULT_K) -> EvalReport:
    """Compute every supported metric for one split with one score vector,
    from a single ranking of its rows."""
    if len(ds) == 0:
        raise ConfigError("cannot evaluate an empty dataset")
    blocks = blocks_of(ds)
    ranked = blocks.rank(scores)
    errors: list[str] = []
    uauc, uauc_skipped = ranked_auc(ranked)
    if math.isnan(uauc):
        errors.append("uauc undefined: no user has both a positive and a negative")
    ndcg, ndcg_skipped = ranked_ndcg(ranked, k)
    if math.isnan(ndcg):
        errors.append("ndcg undefined: no user has a positive sample")
    stats = group_stats(ds)
    # TPR@k: the positives in each user's top k, which the NDCG plan lists
    # for every user with a positive; sums of ones are exact in float64
    in_topk = _by_row(ranked, (top for _, _, top in
                               blocks.ndcg_plan(k).depth_groups))
    tpr = _per_group_rate(ds, in_topk & (ds.labels == 1), stats.n_pos)
    # EHR counts the exposures of any label in each user's top-|positives|;
    # the i-th such row is at i + its block's start - the earlier blocks'
    # positives
    before = np.cumsum(blocks.n_pos) - blocks.n_pos
    prefix = np.arange(blocks.n_pos.sum()) + np.repeat(
        blocks.user_starts[:-1] - before, blocks.n_pos)
    in_prefix = _by_row(ranked, [prefix])
    ehr = _per_group_rate(ds, in_prefix, stats.n_pos)
    try:
        reo = reo_at_k(tpr)
    except MetricError as exc:
        errors.append(f"reo undefined: {exc}")
        reo = None
    for i, label in enumerate(stats.labels):
        if stats.n_pos[i] == 0:
            errors.append(f"group {label}: no positive samples, tpr/ehr undefined")
    return EvalReport(
        split_tag=ds.split_tag,
        k=k,
        n_samples=len(ds),
        n_users=blocks.n_users,
        uauc=uauc,
        uauc_skipped_users=uauc_skipped,
        ndcg=ndcg,
        ndcg_skipped_users=ndcg_skipped,
        reo=reo,
        group_labels=stats.labels,
        group_tpr=[float(x) for x in tpr],
        group_ehr=[float(x) for x in ehr],
        group_exposures=[int(x) for x in stats.exposures],
        group_positives=[int(x) for x in stats.n_pos],
        errors=errors,
    )
