"""FM and NFM models over sparse field features, with exact gradients.

Both architectures share the scoring form

    logit(x) = w0 + sum_i w_i x_i + f(x)

where f is the second-order part. The pairwise interactions are computed
through the sum-square identity

    bi_k(x) = 0.5 * [(sum_i x_i V_ik)^2 - sum_i x_i^2 V_ik^2]

which is linear in the number of live features. FM scores f = sum_k bi_k;
NFM feeds the bi-interaction vector through one ReLU hidden layer and a
linear readout. Padded entries (value 0) contribute nothing to any term.

forward gathers the embedding rows with np.take and squares them in place
once sum_v has read them; bi and the NFM hidden layer are each built in
one buffer. Every IEEE operation and BLAS call is the one the out-of-place
expressions make, so training and scoring keep their bits. The cache holds
neither the gathered rows (loss_and_grads gathers its batch again) nor the
hidden pre-activation (the ReLU mask is read off its output).

The field sums are einsum contractions and the gradient scatters are flat
np.bincount calls, each a single pass over the batch. They add in the
same order as a broadcast product summed over the entry axis and a 2-D
np.add.at (the reference forms the tests compare against): einsum
accumulates a row's entries into a zeroed output one entry after
another along the d axis, and bincount adds its weights in input order
onto zeros, so every float comes out bit for bit the same. The one
exception is d = 1, where an axis-1 sum is a pairwise sum over a row's
entries and einsum adds them in SIMD lanes instead; with three or more
entries a row's sums can differ there in the last bits.

A batch is one-hot when it is non-empty and every value is 1.0 (no
padding), as every synth world and single-valued log is. Then x * 1.0 is
x, so forward builds sum_v and sum_sq from one np.take per field, added
in field order onto zeros: einsum's own order at d >= 2, and the axis-1
sum's at d = 1 for rows of fewer than 8 entries. Any other batch takes
the einsum. rescore multiplies by the values on every batch and sums
rows of fewer than 8 entries by column adds onto zeros, numpy's own
order below 8 entries, and wider rows with .sum(axis=1).

Whole datasets are scored PREDICT_CHUNK rows at a time: a chunk's
temporaries, not the outputs, set the peak memory of scoring (the
constant's comment holds the measurements). A chunk boundary can move an
NFM logit in its last bit, as OpenBLAS splits a block across its threads
by size; FM logits and the linear part never move.

prediction_parts is the scoring path for whole datasets and the one place
that refuses a score that is not finite (NumericalError). Training's
batches go through forward alone; their loss is checked in training.

Serialization is a fixed little-endian binary layout with a schema digest
and a provenance record, so downstream tools can refuse weight files that
do not match the feature space they expect, and a weight that is NaN or
infinite is refused at load (ModelFormatError).
"""

from __future__ import annotations

import copy
import hashlib
import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ModelFormatError, NumericalError
from .numeric import bce_loss, sigmoid

MAGIC = b"CTRB"
FORMAT_VERSION = 1
ARCH_TAGS = {"fm": 0, "nfm": 1}
ARCH_NAMES = {v: k for k, v in ARCH_TAGS.items()}
DEFAULT_HIDDEN = 64
# Rows per forward pass when scoring a whole dataset. A chunk's temporaries
# set the peak of a predict call: on one-hot rows of 3 fields an NFM with
# d = 16 and 64 hidden units holds ~1.9 KB a row (the chunk's forward and
# the previous chunk's cache), 15.3 MB traced at 8192 rows against 1.9 MB at
# 1024; an FM ~0.85 KB. Scoring 26k such rows in a fresh process on a 2-CPU
# VM, after a warm-up call, took per call (minor faults from getrusage): NFM
# 8.6-9.5 ms and ~2.0k faults at 8192 rows, 7.2-7.9 ms and ~1.8k at 1024;
# FM 4.8-5.2 ms and ~1.2k, 2.8-4.6 ms and none. On the tune_nfm bench peak
# RSS fell from ~121 to ~97 MiB going from 8192 to 1024 rows; 2048 rows
# read ~97.3 MiB and a slower wall_s.
PREDICT_CHUNK = 1024


@dataclass
class MlpParams:
    """One hidden ReLU layer and a linear readout for the NFM head."""

    W1: np.ndarray
    b1: np.ndarray
    w_out: np.ndarray
    b_out: float

    def l2_norm_sq(self) -> float:
        return float((self.W1 ** 2).sum() + (self.b1 ** 2).sum()
                     + (self.w_out ** 2).sum() + self.b_out ** 2)


@dataclass
class ModelParams:
    """All weights of one model plus identity metadata.

    schema_digest ties the weight vector to the feature space it was
    trained on; provenance records how the weights were produced (training
    run, or a post-hoc adjustment of another model).
    """

    arch: str
    w0: float
    w: np.ndarray
    V: np.ndarray
    mlp: MlpParams | None = None
    schema_digest: str = ""
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.arch not in ARCH_TAGS:
            raise ConfigError(f"unknown architecture {self.arch!r}")
        if self.arch == "nfm" and self.mlp is None:
            raise ConfigError("nfm requires mlp parameters")
        if self.w.ndim != 1 or self.V.ndim != 2 or self.V.shape[0] != self.w.shape[0]:
            raise ConfigError("w must be (n,) and V (n, d)")

    @property
    def n(self) -> int:
        return self.w.shape[0]

    @property
    def d(self) -> int:
        return self.V.shape[1]

    def copy(self) -> "ModelParams":
        """A copy that shares no array, dict or MlpParams with this one."""
        return copy.deepcopy(self)

    def l2_norm_sq(self) -> float:
        """Squared norm of all regularized weights; the global bias is exempt."""
        total = float((self.w ** 2).sum() + (self.V ** 2).sum())
        if self.mlp is not None:
            total += self.mlp.l2_norm_sq()
        return total


def init_params(n: int, d: int, arch: str, seed: int, hidden: int = DEFAULT_HIDDEN,
                schema_digest: str = "") -> ModelParams:
    """Fresh weights: zero linear part, small normal embeddings, He-init MLP."""
    if n < 1 or d < 1:
        raise ConfigError(f"need n >= 1 and d >= 1, got n={n} d={d}")
    rng = np.random.default_rng(seed)
    try:  # numpy refuses a table it cannot hold before allocating it
        V, w = rng.normal(0.0, 0.01, size=(n, d)), np.zeros(n)
        mlp = None if arch != "nfm" else MlpParams(
            W1=rng.normal(0.0, np.sqrt(2.0 / d), size=(d, hidden)),
            b1=np.zeros(hidden),
            w_out=rng.normal(0.0, np.sqrt(2.0 / hidden), size=hidden),
            b_out=0.0,
        )
    except (MemoryError, ValueError) as exc:
        head = f" and {hidden} hidden units" if arch == "nfm" else ""
        raise ConfigError(f"cannot allocate the weight tables for n={n} "
                          f"features of dimension d={d}{head}: {exc}") from None
    return ModelParams(arch, 0.0, w, V, mlp, schema_digest,
                       provenance={"created_by": "init", "seed": seed})


@dataclass
class ForwardCache:
    """One batch's logit parts (as in PredictionParts) and backward intermediates.

    a1 is the NFM hidden layer after the ReLU and before dropout: a1 > 0
    exactly where the pre-activation is > 0, NaN and -0.0 included, so the
    backward pass reads its ReLU mask off a1.
    """

    indices: np.ndarray
    values: np.ndarray
    sum_v: np.ndarray
    bi: np.ndarray
    bi_used: np.ndarray
    a1: np.ndarray | None
    a1_used: np.ndarray | None
    mask_bi: np.ndarray | None
    mask_hidden: np.ndarray | None
    linear: np.ndarray
    high_order: np.ndarray
    logits: np.ndarray


@dataclass
class PredictionParts:
    """Per-sample decomposition of the logit into its additive pieces.

    linear excludes the global bias w0; logits = (w0 + linear) + high_order.
    """

    logits: np.ndarray
    linear: np.ndarray
    high_order: np.ndarray


def _dropout(x: np.ndarray, p: float, rng: np.random.Generator | None):
    """Inverted dropout: (x * mask, mask). A rate not > 0 draws nothing."""
    if not p > 0:
        return x, None
    if rng is None:
        raise ConfigError("dropout requires a random generator")
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    return x * mask, mask


def _one_hot(values: np.ndarray) -> bool:
    """Whether every entry of a non-empty batch has value 1.0 (no padding)."""
    return bool(values.size) and bool((values == 1.0).all())


def _row_sums(a: np.ndarray) -> np.ndarray:
    """a.sum(axis=1) bit for bit: under 8 entries numpy adds a row's entries
    in order onto 0.0, which column adds do without its per-row loop."""
    if a.shape[1] >= 8:
        return a.sum(axis=1)
    total = np.zeros(a.shape[0])
    for column in a.T:
        total += column
    return total


def rescore(params: ModelParams, high_order: np.ndarray, indices, values):
    """(linear, logits) of a batch: the one logit sum, on any high-order part."""
    weights = np.take(params.w, indices)
    weights *= values
    linear = _row_sums(weights)
    return linear, (params.w0 + linear) + high_order


def forward(params: ModelParams, indices, values, train: bool = False,
            dropout: tuple[float, float] = (0.0, 0.0),
            rng: np.random.Generator | None = None) -> ForwardCache:
    """Score a batch, keeping intermediates. Dropout only fires when train=True.

    dropout = (p_interaction, p_hidden); inverted scaling keeps expected
    activations unchanged, so evaluation needs no compensation. sum_v and
    sum_sq are per-field adds on a one-hot batch and einsum contractions
    over the entry axis otherwise (see the module docstring for how both
    match the broadcast sums, and for the buffers built in place).
    """
    indices = np.asarray(indices, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if _one_hot(values):
        sum_v = np.zeros((len(indices), params.d))
        sum_sq = np.zeros_like(sum_v)
        for column in indices.T:
            rows = np.take(params.V, column, axis=0)
            sum_v += rows
            sum_sq += np.square(rows, out=rows)
    else:
        gathered = np.take(params.V, indices, axis=0)
        sum_v = np.einsum("bf,bfd->bd", values, gathered)
        sum_sq = np.einsum("bf,bfd->bd", values ** 2, np.square(gathered, out=gathered))
    bi = sum_v * sum_v
    bi -= sum_sq
    bi *= 0.5

    p_bi, p_h = dropout if train else (0.0, 0.0)
    bi_used, mask_bi = _dropout(bi, p_bi, rng)
    if params.arch == "fm":
        high = bi_used.sum(axis=1)
        a1 = a1_used = mask_hidden = None
    else:
        mlp = params.mlp
        z1 = bi_used @ mlp.W1
        z1 += mlp.b1
        a1 = np.maximum(z1, 0.0, out=z1)
        a1_used, mask_hidden = _dropout(a1, p_h, rng)
        high = a1_used @ mlp.w_out
        high += mlp.b_out

    linear, logits = rescore(params, high, indices, values)
    return ForwardCache(indices, values, sum_v, bi, bi_used,
                        a1, a1_used, mask_bi, mask_hidden, linear, high, logits)


def prediction_parts(params: ModelParams, indices, values) -> PredictionParts:
    """Eval-mode forward over a dataset-sized batch, PREDICT_CHUNK rows at a time.

    Every index, padding included, must lie in [0, n): a negative one would
    wrap around to the end of the weight table. This is where every
    dataset is scored, and the one place that checks its scores: a logit
    that is not finite (overflow is silent here) raises NumericalError
    naming its row. A finite logit has finite parts, as it is their sum.
    """
    indices = np.asarray(indices, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if indices.size:
        low, high = int(indices.min()), int(indices.max())
        if low < 0 or high >= params.n:
            raise ConfigError(f"feature index {low if low < 0 else high} is outside "
                              f"[0, {params.n}) of the model")
    parts = PredictionParts(*(np.empty(len(indices)) for _ in range(3)))
    chunk = PREDICT_CHUNK
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(indices), chunk):
            rows = slice(lo, lo + chunk)
            cache = forward(params, indices[rows], values[rows])
            parts.logits[rows] = cache.logits
            parts.linear[rows] = cache.linear
            parts.high_order[rows] = cache.high_order
    finite = np.isfinite(parts.logits)
    if not finite.all():
        row = int(np.argmin(finite))
        raise NumericalError(f"the model scores row {row} as {parts.logits[row]}, "
                             "which is not finite")
    return parts


def predict(params: ModelParams, indices, values) -> np.ndarray:
    """Logits for a dataset-sized batch, computed in bounded-memory chunks."""
    return prediction_parts(params, indices, values).logits


def loss_and_grads(params: ModelParams, indices, values, labels, l2: float = 0.0,
                   train: bool = False, dropout: tuple[float, float] = (0.0, 0.0),
                   rng: np.random.Generator | None = None):
    """Mean BCE plus L2 penalty, and its exact gradient for every weight.

    Returns (loss, grads, cache) with grads keyed "w0", "w", "V" and, for
    NFM, "W1", "b1", "w_out", "b_out". The L2 term covers w, V and the MLP
    but not the global bias w0.

    The per-entry contributions to dV are einsum outer products, one
    rounding per product as in the broadcast form. dw and dV are each one
    flat np.bincount: an entry's d contributions land on cells
    index * d + k of the flattened table, added in entry order as
    np.add.at does. bincount rejects negative indices where fancy indexing
    would wrap them; Dataset refuses any index outside [0, n).
    """
    labels = np.asarray(labels, dtype=np.float64)
    cache = forward(params, indices, values, train=train, dropout=dropout, rng=rng)
    m = len(labels)
    loss = float(np.mean(bce_loss(cache.logits, labels))) + l2 * params.l2_norm_sq()

    dlogit = (sigmoid(cache.logits) - labels) / m
    grads: dict[str, np.ndarray | float] = {}
    grads["w0"] = float(dlogit.sum())
    dw = np.bincount(cache.indices.ravel(), (dlogit[:, None] * cache.values).ravel(),
                     minlength=params.n)

    if params.arch == "fm":
        dbi_used = np.repeat(dlogit[:, None], params.d, axis=1)  # unit-stride for einsum
    else:
        mlp = params.mlp
        da1_used = dlogit[:, None] * mlp.w_out
        da1 = da1_used if cache.mask_hidden is None else da1_used * cache.mask_hidden
        dz1 = da1 * (cache.a1 > 0)
        grads["W1"] = cache.bi_used.T @ dz1 + 2.0 * l2 * mlp.W1
        grads["b1"] = dz1.sum(axis=0) + 2.0 * l2 * mlp.b1
        grads["w_out"] = cache.a1_used.T @ dlogit + 2.0 * l2 * mlp.w_out
        grads["b_out"] = float(dlogit.sum()) + 2.0 * l2 * mlp.b_out
        dbi_used = dz1 @ mlp.W1.T

    dbi = dbi_used if cache.mask_bi is None else dbi_used * cache.mask_bi
    # d bi_k / d V_jk = x_j * sum_v_k - x_j^2 * V_jk, scattered per live entry
    val = cache.values
    contrib = np.einsum("bj,bk->bjk", val ** 2, dbi)
    contrib *= np.take(params.V, cache.indices, axis=0)
    np.subtract(np.einsum("bj,bk->bjk", val, dbi * cache.sum_v), contrib, out=contrib)
    n, d = params.V.shape
    cells = (cache.indices * d)[..., None] + np.arange(d)
    dV = np.bincount(cells.ravel(), contrib.ravel(), minlength=n * d).reshape(n, d)

    # the scatters are added onto the L2 terms, which keeps both gradients
    # float64 where bincount over no entries counts in int64
    grads["w"] = 2.0 * l2 * params.w
    grads["w"] += dw
    grads["V"] = 2.0 * l2 * params.V
    grads["V"] += dV
    return loss, grads, cache


def serialize(params: ModelParams) -> bytes:
    """Fixed binary layout; equal params always produce equal bytes."""
    digest_hex = params.schema_digest or "0" * 64
    try:
        digest_raw = bytes.fromhex(digest_hex)
    except ValueError:
        raise ConfigError(f"schema digest is not hex: {params.schema_digest!r}")
    if len(digest_raw) != 32:
        raise ConfigError("schema digest must be 32 bytes of hex")
    prov = json.dumps(params.provenance, sort_keys=True,
                      separators=(",", ":")).encode()
    out = bytearray()
    out += MAGIC
    out += struct.pack("<I", FORMAT_VERSION)
    out += digest_raw
    out += struct.pack("<B", ARCH_TAGS[params.arch])
    out += struct.pack("<I", len(prov))
    out += prov
    out += struct.pack("<QQ", params.n, params.d)
    out += struct.pack("<d", params.w0)
    out += np.ascontiguousarray(params.w, dtype="<f8").tobytes()
    out += np.ascontiguousarray(params.V, dtype="<f8").tobytes()
    if params.arch == "nfm":
        mlp = params.mlp
        hidden = mlp.b1.shape[0]
        out += struct.pack("<Q", hidden)
        out += np.ascontiguousarray(mlp.W1, dtype="<f8").tobytes()
        out += np.ascontiguousarray(mlp.b1, dtype="<f8").tobytes()
        out += np.ascontiguousarray(mlp.w_out, dtype="<f8").tobytes()
        out += struct.pack("<d", mlp.b_out)
    return bytes(out)


class _Cursor:
    def __init__(self, buf: bytes, origin: str):
        self.buf = buf
        self.pos = 0
        self.origin = origin

    def take(self, count: int) -> bytes:
        if self.pos + count > len(self.buf):
            raise ModelFormatError(
                f"{self.origin}: truncated, needed {count} bytes at offset {self.pos}"
            )
        chunk = self.buf[self.pos:self.pos + count]
        self.pos += count
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def floats(self, count: int) -> np.ndarray:
        return np.frombuffer(self.take(8 * count), dtype="<f8").astype(np.float64)


def deserialize(buf: bytes, origin: str = "<bytes>") -> ModelParams:
    cur = _Cursor(buf, origin)
    if cur.take(4) != MAGIC:
        raise ModelFormatError(f"{origin}: bad magic, not a model file")
    (version,) = cur.unpack("<I")
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"{origin}: unsupported format version {version}")
    digest_hex = cur.take(32).hex()
    (arch_tag,) = cur.unpack("<B")
    if arch_tag not in ARCH_NAMES:
        raise ModelFormatError(f"{origin}: unknown architecture tag {arch_tag}")
    arch = ARCH_NAMES[arch_tag]
    (prov_len,) = cur.unpack("<I")
    try:
        provenance = json.loads(cur.take(prov_len).decode())
    except (ValueError, RecursionError) as exc:  # bad UTF-8/JSON, huge int, nesting
        raise ModelFormatError(f"{origin}: corrupt provenance record: {exc}")
    if not isinstance(provenance, dict):
        raise ModelFormatError(f"{origin}: provenance record is not a JSON object")
    n, d = cur.unpack("<QQ")
    if n < 1 or d < 1:
        raise ModelFormatError(f"{origin}: empty weight shape n={n} d={d}")
    (w0,) = cur.unpack("<d")
    weights = {"w0": w0, "w": cur.floats(n), "V": cur.floats(n * d).reshape(n, d)}
    mlp = None
    if arch == "nfm":
        (hidden,) = cur.unpack("<Q")
        W1 = cur.floats(d * hidden).reshape(d, hidden)
        b1 = cur.floats(hidden)
        w_out = cur.floats(hidden)
        (b_out,) = cur.unpack("<d")
        mlp = MlpParams(W1, b1, w_out, float(b_out))
        weights.update(vars(mlp))
    if cur.pos != len(buf):
        raise ModelFormatError(f"{origin}: {len(buf) - cur.pos} trailing bytes")
    for name, value in weights.items():
        if not np.isfinite(value).all():
            raise ModelFormatError(f"{origin}: {name} holds NaN or infinity")
    return ModelParams(arch, float(w0), weights["w"], weights["V"], mlp,
                       digest_hex, provenance)


def save_model(params: ModelParams, path) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize(params))


def load_model(path, expected_schema_digest: str | None = None) -> ModelParams:
    with open(path, "rb") as fh:
        params = deserialize(fh.read(), origin=str(path))
    if (expected_schema_digest is not None
            and params.schema_digest != expected_schema_digest):
        raise ModelFormatError(
            f"{path}: model was trained on a different feature schema "
            f"({params.schema_digest[:12]}... != {expected_schema_digest[:12]}...)"
        )
    return params


def model_digest(params: ModelParams) -> str:
    return hashlib.sha256(serialize(params)).hexdigest()
