"""Brute-force reference implementations of scoring, updates, metrics
and CSV I/O, the allocate-per-step forms of Adam and the sigmoid, the
broadcast-and-scatter form of the model's forward and backward pass, the
one-shot form of the synthetic generator, and the two-step form of the
incomplete beta's continued fraction.

Everything here is written in the most literal way possible (python loops,
explicit pair enumeration, one CSV row at a time) so the vectorized package
code can be checked against an independently derived answer. Arithmetic mirrors the package's
accumulation order so exact comparisons are meaningful.
"""

import codecs
import csv
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from ctrbias import numeric, synth
from ctrbias.data import RESERVED_COLUMNS, Dataset, FeatureIndex, FieldSchema
from ctrbias.errors import (CalibrationError, ConfigError, CsvParseError, LabelError,
                            NumericalError)
from ctrbias.models import ForwardCache
from ctrbias.numeric import bce_loss, sigmoid
from ctrbias.synth import (SPLIT_FRACTIONS, SynthResult, _calibrate_offset,
                           _id_strings)


def betacf_two_step_reference(a, b, x):
    """The incomplete beta's continued fraction with term m's even and odd
    Lentz steps written out one after the other."""
    fpmin = numeric._CF_FPMIN
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, numeric._CF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < numeric._CF_EPS:
            return h
    raise NumericalError(f"no convergence (a={a}, b={b}, x={x})")


def pairwise_logit_reference(params, sample_indices, sample_values):
    """Quadratic-time FM score for one sample, for checking the fast path.

    Only valid for arch == "fm"; sums w_i x_i and all i < j pairwise
    dot-product interactions explicitly.
    """
    if params.arch != "fm":
        raise ConfigError("reference scorer only covers fm")
    idx = np.asarray(sample_indices, dtype=np.int64)
    val = np.asarray(sample_values, dtype=np.float64)
    total = params.w0
    for i in range(len(idx)):
        total += params.w[idx[i]] * val[i]
    for i in range(len(idx)):
        for j in range(i + 1, len(idx)):
            total += float(params.V[idx[i]] @ params.V[idx[j]]) * val[i] * val[j]
    return float(total)


def forward_reference(params, indices, values, dropout=(0.0, 0.0), rng=None):
    """models.forward with the field sums as broadcast products summed over
    axis 1. The referee for the einsum sums, which must match it bit for
    bit for d >= 2, and for the per-field adds of a one-hot batch, which
    must match it at any d for rows of fewer than 8 entries."""
    indices = np.asarray(indices, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    linear = (params.w[indices] * values).sum(axis=1)
    gathered = params.V[indices]
    sum_v = (values[..., None] * gathered).sum(axis=1)
    sum_sq = ((values ** 2)[..., None] * gathered ** 2).sum(axis=1)
    bi = 0.5 * (sum_v * sum_v - sum_sq)

    p_bi, p_h = dropout
    mask_bi = mask_hidden = None
    bi_used = bi
    if p_bi > 0:
        mask_bi = (rng.random(bi.shape) >= p_bi) / (1.0 - p_bi)
        bi_used = bi * mask_bi

    if params.arch == "fm":
        high = bi_used.sum(axis=1)
        a1 = a1_used = None
    else:
        mlp = params.mlp
        z1 = bi_used @ mlp.W1 + mlp.b1
        a1 = np.maximum(z1, 0.0)
        a1_used = a1
        if p_h > 0:
            mask_hidden = (rng.random(a1.shape) >= p_h) / (1.0 - p_h)
            a1_used = a1 * mask_hidden
        high = a1_used @ mlp.w_out + mlp.b_out

    logits = (params.w0 + linear) + high
    return ForwardCache(indices, values, sum_v, bi, bi_used,
                        a1, a1_used, mask_bi, mask_hidden, linear, high, logits)


def loss_and_grads_reference(params, indices, values, labels, l2=0.0,
                             dropout=(0.0, 0.0), rng=None):
    """models.loss_and_grads over forward_reference, with the per-entry
    contributions built by broadcasting and scattered by 2-D np.add.at.
    The referee for the flat bincount scatters."""
    labels = np.asarray(labels, dtype=np.float64)
    cache = forward_reference(params, indices, values, dropout=dropout, rng=rng)
    m = len(labels)
    loss = float(np.mean(bce_loss(cache.logits, labels))) + l2 * params.l2_norm_sq()

    dlogit = (sigmoid(cache.logits) - labels) / m
    grads = {"w0": float(dlogit.sum())}
    dw = np.zeros_like(params.w)
    np.add.at(dw, cache.indices.ravel(), (dlogit[:, None] * cache.values).ravel())

    if params.arch == "fm":
        dbi_used = np.broadcast_to(dlogit[:, None], cache.bi.shape)
    else:
        mlp = params.mlp
        da1_used = dlogit[:, None] * mlp.w_out
        da1 = da1_used if cache.mask_hidden is None else da1_used * cache.mask_hidden
        z1 = cache.bi_used @ mlp.W1 + mlp.b1  # the pre-activation, recomputed
        dz1 = da1 * (z1 > 0)
        grads["W1"] = cache.bi_used.T @ dz1 + 2.0 * l2 * mlp.W1
        grads["b1"] = dz1.sum(axis=0) + 2.0 * l2 * mlp.b1
        grads["w_out"] = cache.a1_used.T @ dlogit + 2.0 * l2 * mlp.w_out
        grads["b_out"] = float(dlogit.sum()) + 2.0 * l2 * mlp.b_out
        dbi_used = dz1 @ mlp.W1.T

    dbi = dbi_used if cache.mask_bi is None else dbi_used * cache.mask_bi
    val = cache.values
    contrib = (val[..., None] * (dbi[:, None, :] * cache.sum_v[:, None, :])
               - (val ** 2)[..., None] * dbi[:, None, :] * params.V[cache.indices])
    dV = np.zeros_like(params.V)
    np.add.at(dV, cache.indices.ravel(), contrib.reshape(-1, params.d))

    dw += 2.0 * l2 * params.w
    dV += 2.0 * l2 * params.V
    grads["w"] = dw
    grads["V"] = dV
    return loss, grads, cache


class AdamReference:
    """Adam that allocates fresh m, v and temporaries on every step from
    the textbook expressions. The referee for training.Adam, which must
    match it bit for bit."""

    def __init__(self, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {}
        self.v = {}

    def step(self, grads):
        self.t += 1
        out = {}
        for key, g in grads.items():
            m = self.beta1 * self.m.get(key, 0.0) + (1.0 - self.beta1) * g
            v = self.beta2 * self.v.get(key, 0.0) + (1.0 - self.beta2) * (g * g)
            self.m[key] = m
            self.v[key] = v
            m_hat = m / (1.0 - self.beta1 ** self.t)
            v_hat = v / (1.0 - self.beta2 ** self.t)
            out[key] = self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
        return out


def sigmoid_reference(z):
    """Logistic function by boolean scatter: exp(-z) where z >= 0, exp(z)
    elsewhere, each branch on its own subset. The referee for
    numeric.sigmoid, which must match it bit for bit."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    if out.ndim == 0:
        return float(out)
    return out


def sgd_step_reference(w_j, lr, y, logit, x_j):
    """Closed-form single-weight SGD update for a one-sample batch, l2 = 0."""
    return w_j + lr * (y - sigmoid(logit)) * x_j


def bias_entries(ds, i):
    """Group locals of sample i, read straight off the sparse row."""
    lo, hi = ds.schema.bias_range
    out = []
    for j in range(ds.indices.shape[1]):
        if ds.values[i, j] > 0 and lo <= ds.indices[i, j] < hi:
            out.append(int(ds.indices[i, j]) - lo)
    return out


def coded(ids):
    """(codes, sorted vocabulary) of an id column, as a Dataset holds it:
    the ids as one '<U' column, coded through its sorted distinct values."""
    vocab, codes = np.unique(np.asarray(ids, dtype=str), return_inverse=True)
    return codes, vocab


def users_of(ds):
    """Each row's user id string: ds holds codes into its vocabulary."""
    return ds.user_vocab[ds.user_ids]


def items_of(ds):
    """Each row's item id string."""
    return ds.item_vocab[ds.item_ids]


def rank_users_reference(user_ids, scores, labels, item_ids=None):
    """The (user asc, score desc[, item asc]) ranking as one np.lexsort,
    with the user blocks, their sizes and positive counts counted one user
    at a time. The referee for UserBlocks and its rank(), whose fields
    must equal these exactly."""
    user_ids = np.asarray(user_ids)
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    keys = (-scores, user_ids)
    if item_ids is not None:
        keys = (np.asarray(item_ids),) + keys
    order = np.lexsort(keys)
    sorted_users = user_ids[order]
    new_user = np.flatnonzero(sorted_users[1:] != sorted_users[:-1]) + 1
    user_starts = np.concatenate([[0], new_user, [len(order)]])
    users = sorted_users[user_starts[:-1]]
    sizes = np.array([np.sum(user_ids == u) for u in users], dtype=np.int64)
    n_pos = np.array([np.sum(labels[user_ids == u]) for u in users],
                     dtype=np.int64)
    return SimpleNamespace(order=order, scores=scores[order],
                           labels=labels[order], user_starts=user_starts,
                           users=users, sizes=sizes, n_pos=n_pos)


def ordered_rows_by_user(user_ids, scores, item_ids):
    """Row indices grouped per user, ordered by (score desc, item asc)."""
    users = sorted(set(str(u) for u in user_ids))
    blocks = {}
    for u in users:
        rows = [i for i in range(len(scores)) if str(user_ids[i]) == u]
        rows.sort(key=lambda i: (-float(scores[i]), str(item_ids[i])))
        blocks[u] = rows
    return users, blocks


def uauc_brute(user_ids, scores, labels):
    """Mean per-user AUC by explicit pair counting; ties count half."""
    users = sorted(set(str(u) for u in user_ids))
    total = 0.0
    valid = 0
    skipped = 0
    for u in users:
        rows = [i for i in range(len(scores)) if str(user_ids[i]) == u]
        pos = [i for i in rows if labels[i] == 1]
        neg = [i for i in rows if labels[i] == 0]
        if not pos or not neg:
            skipped += 1
            continue
        wins = 0.0
        for p in pos:
            for q in neg:
                if scores[p] > scores[q]:
                    wins += 1.0
                elif scores[p] == scores[q]:
                    wins += 0.5
        total += wins / (len(pos) * len(neg))
        valid += 1
    if valid == 0:
        return float("nan"), skipped
    return total / valid, skipped


def ndcg_brute(user_ids, scores, labels, item_ids, k):
    """Mean NDCG@k, binary gains, 1/log2(rank+1) discounts, loop form."""
    users, blocks = ordered_rows_by_user(user_ids, scores, item_ids)
    discounts = 1.0 / np.log2(np.arange(2, k + 2))
    total = 0.0
    valid = 0
    skipped = 0
    for u in users:
        rows = blocks[u]
        n_pos = sum(1 for i in rows if labels[i] == 1)
        if n_pos == 0:
            skipped += 1
            continue
        y = np.array([labels[i] for i in rows[:k]], dtype=np.float64)
        dcg = float((y * discounts[: len(y)]).sum())
        idcg = float(discounts[: min(k, n_pos)].sum())
        total += dcg / idcg
        valid += 1
    if valid == 0:
        return float("nan"), skipped
    return total / valid, skipped


def prefix_rows_brute(ds, scores, cutoff_of_user):
    """Set of rows inside each user's top-`cutoff` by the ranking order."""
    users, blocks = ordered_rows_by_user(users_of(ds), scores, items_of(ds))
    chosen = set()
    for u in users:
        rows = blocks[u]
        chosen.update(rows[: cutoff_of_user(u, rows)])
    return chosen


def ehr_brute(ds, scores):
    """EHR per group: prefix = each user's top-|positives| rows; the
    numerator counts every prefix row carrying the group, any label."""
    def cutoff(u, rows):
        return sum(1 for i in rows if ds.labels[i] == 1)

    prefix = prefix_rows_brute(ds, scores, cutoff)
    g = ds.schema.num_groups
    num = np.zeros(g)
    den = np.zeros(g)
    for i in range(len(ds)):
        for j in bias_entries(ds, i):
            if i in prefix:
                num[j] += 1.0
            if ds.labels[i] == 1:
                den[j] += 1.0
    return np.where(den > 0, num / np.maximum(den, 1), np.nan)


def tpr_brute(ds, scores, k):
    """Share of each group's positives inside the per-user top-k."""
    if k is None:
        prefix = set(range(len(ds)))
    else:
        prefix = prefix_rows_brute(ds, scores, lambda u, rows: k)
    g = ds.schema.num_groups
    num = np.zeros(g)
    den = np.zeros(g)
    for i in range(len(ds)):
        if ds.labels[i] != 1:
            continue
        for j in bias_entries(ds, i):
            den[j] += 1.0
            if i in prefix:
                num[j] += 1.0
    return np.where(den > 0, num / np.maximum(den, 1), np.nan)


def reo_brute(tpr):
    """Population std over defined group TPRs divided by their mean."""
    vals = [float(t) for t in tpr if math.isfinite(t)]
    mean = sum(vals) / len(vals)
    var = sum((v - mean) ** 2 for v in vals) / len(vals)
    return math.sqrt(var) / mean


def to_csv_reference(ds, path):
    """Dataset.to_csv as a row loop: one searchsorted and join per row.

    Rows are written with a "\\r\\n" terminator, which makes csv.writer
    quote a field holding a lone CR on every Python, and each record's
    "\\r\\n" is then cut to "\\n"."""
    start_of = {name: ds.schema.offset(name) for name, _ in ds.schema.fields}
    labels_of = {name: ds.index.labels(name) for name in ds.schema.field_names}
    bounds = ds.schema.boundaries
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(
            SimpleNamespace(write=lambda record: fh.write(record[:-2] + "\n")),
            lineterminator="\r\n")
        writer.writerow(list(RESERVED_COLUMNS) + list(ds.schema.field_names))
        for i in range(len(ds)):
            live = ds.values[i] > 0
            idx = ds.indices[i][live]
            field_of = np.searchsorted(bounds, idx, side="right") - 1
            cells = []
            for f, name in enumerate(ds.schema.field_names):
                local = idx[field_of == f] - start_of[name]
                cells.append("|".join(labels_of[name][j] for j in local))
            writer.writerow(
                [ds.user_vocab[ds.user_ids[i]], ds.item_vocab[ds.item_ids[i]],
                 int(ds.labels[i]),
                 int(ds.timestamps[i])] + cells
            )


def _parse_label_reference(cell, threshold, path, line_no):
    if threshold is not None:
        try:
            value = float(cell)
        except ValueError:
            value = math.nan
        if math.isnan(value):
            raise CsvParseError(path, line_no, f"non-numeric label {cell!r}")
        return 1 if value > threshold else 0
    if cell in ("0", "1"):
        return int(cell)
    raise LabelError(
        f"{path}:{line_no}: label {cell!r} is not binary and no threshold is configured"
    )


def _lines_reference(path):
    """The file's physical lines after a leading byte-order mark, split at
    '\\n', '\\r\\n' and a lone '\\r', each decoded on its own when it is
    reached; a byte that is not UTF-8 raises CsvParseError at its line."""
    raw = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    for line_no, line in enumerate(raw.splitlines(keepends=True), 1):
        try:
            text = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CsvParseError(
                path, line_no, f"byte {line[exc.start]:#04x} is not UTF-8 ({exc.reason})")
        yield text


def _records_reference(path):
    """The file's records one at a time, each with the line it starts on;
    a csv.Error raises CsvParseError at the line its record starts on."""
    reader = csv.reader(_lines_reference(path))
    while True:
        line_no = reader.line_num + 1
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise CsvParseError(path, line_no, str(exc))
        yield line_no, row


def ingest_csv_reference(path, schema, index=None, split_tag="train"):
    """ingest_csv as a row loop: index_of per category, argsort per row."""
    path = Path(path)
    if index is None:
        index = FeatureIndex(schema)
    expected_header = list(RESERVED_COLUMNS) + list(schema.field_names)
    samples_idx, samples_val = [], []
    labels, users, items, stamps = [], [], [], []
    reader = _records_reference(path)
    try:
        _, header = next(reader)
    except StopIteration:
        raise CsvParseError(path, 1, "empty file")
    if header != expected_header:
        raise CsvParseError(
            path, 1, f"header {header!r} does not match declared fields {expected_header!r}"
        )
    for line_no, row in reader:
        if len(row) != len(expected_header):
            raise CsvParseError(
                path, line_no,
                f"expected {len(expected_header)} columns, got {len(row)}",
            )
        user, item, label_cell, ts_cell = row[:4]
        try:
            ts = int(ts_cell)
        except ValueError:
            raise CsvParseError(path, line_no, f"non-integer timestamp {ts_cell!r}")
        if not -2 ** 63 <= ts < 2 ** 63:
            raise CsvParseError(
                path, line_no, f"timestamp {ts_cell!r} is outside the int64 range")
        label = _parse_label_reference(label_cell, schema.label_threshold, path, line_no)
        idx_list, val_list = [], []
        for cell, (fname, _) in zip(row[4:], schema.fields):
            parts = cell.split("|") if cell else []
            if not parts:
                raise CsvParseError(path, line_no, f"empty cell for field {fname!r}")
            if len(set(parts)) != len(parts):
                raise CsvParseError(path, line_no, f"duplicate category in field {fname!r}")
            v = 1.0 / len(parts)
            for cat in parts:
                idx_list.append(index.index_of(fname, cat, create=True))
                val_list.append(v)
        order = np.argsort(idx_list)
        samples_idx.append(np.asarray(idx_list, dtype=np.int64)[order])
        samples_val.append(np.asarray(val_list, dtype=np.float64)[order])
        labels.append(label)
        users.append(user)
        items.append(item)
        stamps.append(ts)
    n = len(labels)
    width = max((len(a) for a in samples_idx), default=0)
    indices = np.zeros((n, width), dtype=np.int64)
    values = np.zeros((n, width), dtype=np.float64)
    for i, (ia, va) in enumerate(zip(samples_idx, samples_val)):
        indices[i, : len(ia)] = ia
        values[i, : len(va)] = va
    (user_ids, user_vocab), (item_ids, item_vocab) = coded(users), coded(items)
    return Dataset(
        schema, indices, values,
        np.asarray(labels, dtype=np.int8),
        user_ids, item_ids,
        np.asarray(stamps, dtype=np.int64),
        split_tag=split_tag,
        index=index,
        user_vocab=user_vocab, item_vocab=item_vocab,
    )


def generate_reference(cfg):
    """synth.generate with every n_users x n_items temporary whole: the
    preference and label-odds matrices side by side, the exposure draw as
    one rows x members comparison per group, and the holdout permutation
    as the argsort of one full n_users x n_items draw. The referee for the
    row-blocked generator, whose splits and truth must equal it byte for
    byte."""
    rng = np.random.default_rng(cfg.seed)
    rho = cfg.resolved_rho()

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

    A = rng.normal(size=(cfg.n_users, cfg.pref_dim))
    B = rng.normal(size=(cfg.n_items, cfg.pref_dim))
    item_offset = rng.normal(0.0, cfg.item_offset_scale, size=cfg.n_items) \
        if cfg.item_offset_scale > 0 else np.zeros(cfg.n_items)
    pref = (A @ B.T) * (cfg.pref_scale / np.sqrt(cfg.pref_dim))
    dots = pref + item_offset
    group_of = np.arange(cfg.n_items) % cfg.n_groups

    tau = rng.permutation(np.linspace(cfg.temp_low, cfg.temp_high, cfg.n_groups))
    pi = cfg.group_freq_decay ** np.arange(cfg.n_groups, dtype=np.float64)
    pi = pi / pi.sum()

    n_b = cfg.n_users * cfg.exposures_per_user
    users_b = np.repeat(np.arange(cfg.n_users), cfg.exposures_per_user)
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
        pos = (cum[users_b[mask]] < draws[:, None]).sum(axis=1)
        items_b[mask] = members[np.minimum(pos, len(members) - 1)]
    stamps_b = rng.permutation(n_b)

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
    train_ratio = np.array([
        float(labels_b[in_train & (groups_b == j)].mean()) for j in range(cfg.n_groups)
    ])
    for j in range(cfg.n_groups):
        if abs(train_ratio[j] - rho[j]) > synth.REALIZED_TOL:
            raise CalibrationError(str(group_labels[j]), float(rho[j]))

    def split(tag, users, items, labels, stamps):
        indices = np.empty((len(users), 3), dtype=np.int64)
        indices[:, 0] = users
        indices[:, 1] = cfg.n_users + items
        indices[:, 2] = cfg.n_users + cfg.n_items + group_of[items]
        return Dataset(schema, indices, np.ones(indices.shape), labels, users, items,
                       stamps, split_tag=tag, user_vocab=user_labels,
                       item_vocab=item_labels)

    train, val, test = (
        split(tag, users_b[rows], items_b[rows], labels_b[rows], stamps_b[rows])
        for tag, rows in zip(("train", "val", "test"),
                             np.split(np.argsort(stamps_b), cuts)))

    k_v, k_t = cfg.unbiased_val_per_user, cfg.unbiased_test_per_user
    perm = np.argsort(rng.random((cfg.n_users, cfg.n_items)), axis=1)
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
