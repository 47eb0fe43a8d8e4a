"""Sparse field-structured datasets: schema and CSV I/O.

A dataset row is a sparse feature vector over a fixed set of categorical
fields, plus a binary click label, the interacting user/item ids, and a
timestamp. One designated field (the *bias field*) partitions items into
groups; all bias diagnostics key off it. Within every field the feature
values of a sample sum to one: a single-valued field contributes one entry
of value 1, a cell with m categories contributes m entries of value 1/m.

A Dataset stores no per-row strings. Its user and item ids are int32 codes
into sorted vocabularies of the distinct ids, so sorting codes sorts the
ids, and every ranking and tie break reads codes only.

CSV I/O works column by column, never row by row, in one dialect: every CSV
written is cells quoted by `quote_cells`, joined with ',' and '\\n'.
`Dataset.to_csv` quotes the label table over the global feature index and
each id vocabulary once, and writes CSV_BLOCK_ROWS rows as one string.
`ingest_csv` reads blocks of CSV_BLOCK_ROWS lines and converts each from one
layout: the block's UTF-8 bytes in a numpy array and the start and end
offset of every cell. A UTF-8 block without '"' or NUL whose every line
holds one comma fewer than the header's columns, no field longer than
csv.field_size_limit(), is cut at the commas and line ends ('\\n', '\\r\\n'
or a lone '\\r') one scan finds, where the csv module would cut it. Any
other block goes through csv.reader a line at a time up to the end of its
last record, its cells laid out the same way. Id and category cells are
byte keys, matched a column at a time against sorted tables built once per
file; only an unseen key goes through Python, once. Ids are coded in id
order once the file is read. Timestamps of digits and 0/1 labels parse
from their bytes; other timestamps, labels under a threshold and cells
holding a '|' go cell by cell. A malformed file raises the error a row
loop would meet first: the earliest bad record, and within it its bytes
and column count, the timestamp, the label, then the cells in field order.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from dataclasses import dataclass, field
from itertools import chain, islice, repeat
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, CsvParseError, LabelError, SchemaError
from .numeric import write_json

FIELD_SUM_TOL = 1e-12
RESERVED_COLUMNS = ("user_id", "item_id", "label", "timestamp")
CSV_BLOCK_ROWS = 16384  # rows per block when reading or writing CSV
_INT64 = np.iinfo(np.int64)
_SURROGATE = re.compile("[\ud800-\udfff]").search  # a str holding one has no UTF-8 form


@dataclass(frozen=True)
class FieldSchema:
    """Ordered categorical fields mapped onto one global feature index space.

    Field i occupies the half-open index interval
    [offset_i, offset_i + cardinality_i) with offsets following declaration
    order, so every global index belongs to exactly one field.

    Attributes:
        fields: (name, cardinality) pairs in declaration order.
        bias_field: name of the field whose categories define item groups.
        categories: optional per-field ordered category vocabularies; category
            j of a field maps to local index j. Vocabularies may be partial,
            ingestion assigns fresh local indices to unseen categories.
        label_threshold: if set (a finite number), ingestion binarizes
            numeric labels as (value > threshold), rejecting NaN; otherwise
            labels must already be 0/1.
    """

    fields: tuple[tuple[str, int], ...]
    bias_field: str
    categories: dict[str, tuple[str, ...]] = field(default_factory=dict)
    label_threshold: float | None = None

    def __post_init__(self):
        if not self.fields:
            raise ConfigError("schema declares no fields")
        for name, card in self.fields:
            if not isinstance(name, str):
                raise ConfigError(f"field name {name!r} is not a string")
            if _SURROGATE(name):
                raise ConfigError(f"field name {name!r} cannot be written as UTF-8")
            if not isinstance(card, int) or isinstance(card, bool) or card < 1:
                raise ConfigError(f"field {name!r} has invalid cardinality {card!r}")
        if self.n > _INT64.max:
            raise ConfigError(f"schema declares {self.n} features, more than int64 holds")
        by_name = dict(self.fields)
        if len(by_name) != len(self.fields):
            raise ConfigError("duplicate field names in schema")
        if not isinstance(self.bias_field, str) or self.bias_field not in by_name:
            raise ConfigError(f"bias field {self.bias_field!r} is not a declared field")
        if by_name[self.bias_field] < 2:
            raise ConfigError("bias field must have cardinality >= 2")
        for name, cats in self.categories.items():
            if name not in by_name:
                raise ConfigError(f"categories declared for unknown field {name!r}")
            if len(cats) > by_name[name]:
                raise SchemaError(
                    f"field {name!r}: {len(cats)} categories exceed cardinality {by_name[name]}"
                )
            for cat in cats:
                if not isinstance(cat, str) or not cat or "|" in cat or _SURROGATE(cat):
                    raise ConfigError(
                        f"field {name!r}: category {cat!r} cannot round-trip through "
                        "CSV; categories must be non-empty UTF-8 strings without '|'"
                    )
            if len(set(cats)) != len(cats):
                raise ConfigError(f"duplicate categories for field {name!r}")
        t = self.label_threshold
        if t is not None and (isinstance(t, bool) or not isinstance(t, (int, float))
                              or not math.isfinite(t)):
            raise ConfigError(f"label_threshold must be a finite number or null, got {t!r}")

    @property
    def n(self) -> int:
        """Total number of global features (sum of cardinalities)."""
        return sum(card for _, card in self.fields)

    @property
    def field_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.fields)

    @property
    def boundaries(self) -> np.ndarray:
        """Cumulative field offsets, length len(fields)+1; last entry is n."""
        return np.concatenate([[0], np.cumsum([card for _, card in self.fields])])

    def offset(self, name: str) -> int:
        off = 0
        for fname, card in self.fields:
            if fname == name:
                return off
            off += card
        raise ConfigError(f"unknown field {name!r}")

    def cardinality(self, name: str) -> int:
        for fname, card in self.fields:
            if fname == name:
                return card
        raise ConfigError(f"unknown field {name!r}")

    @property
    def bias_range(self) -> tuple[int, int]:
        """Half-open global index interval covered by the bias field."""
        start = self.offset(self.bias_field)
        return start, start + self.cardinality(self.bias_field)

    @property
    def num_groups(self) -> int:
        return self.cardinality(self.bias_field)

    def digest(self) -> str:
        """sha256 over the canonical schema structure (vocabularies included)."""
        payload = {
            "fields": [[name, card] for name, card in self.fields],
            "bias_field": self.bias_field,
            "categories": {k: list(v) for k, v in sorted(self.categories.items())},
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
        return hashlib.sha256(blob).hexdigest()

    def to_json_dict(self) -> dict:
        return {
            "fields": [{"name": name, "cardinality": card} for name, card in self.fields],
            "bias_field": self.bias_field,
            "categories": {k: list(v) for k, v in self.categories.items()},
            "label_threshold": self.label_threshold,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "FieldSchema":
        try:
            fields = tuple((f["name"], f["cardinality"]) for f in d["fields"])
            bias_field = d["bias_field"]
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"malformed schema declaration: {exc}") from exc
        # a misspelt key would otherwise be dropped without a word
        unknown = [k for k in d if k not in ("fields", "bias_field", "categories",
                                             "label_threshold")]
        unknown += [k for f in d["fields"] for k in f if k not in ("name", "cardinality")]
        if unknown:
            raise ConfigError(f"unknown schema key {unknown[0]!r}")
        categories = d.get("categories", {})
        if not (isinstance(categories, dict)
                and all(isinstance(v, list) for v in categories.values())):
            raise ConfigError("schema categories must be an object of string arrays")
        categories = {k: tuple(v) for k, v in categories.items()}
        return cls(fields, bias_field, categories, d.get("label_threshold"))

    def save(self, path) -> None:
        write_json(path, self.to_json_dict())

    @classmethod
    def load(cls, path) -> "FieldSchema":
        data = Path(path).read_bytes()
        try:
            raw = json.loads(data.decode("utf-8-sig"))
        except UnicodeDecodeError as exc:
            at = exc.start + len(data) - len(exc.object)  # the codec drops a BOM
            raise ConfigError(
                f"{path}: byte {exc.object[exc.start]:#04x} at offset {at} "
                f"is not UTF-8 ({exc.reason})") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
        try:
            return cls.from_json_dict(raw)
        except ConfigError as exc:
            raise type(exc)(f"{path}: {exc}") from exc


class FeatureIndex:
    """Mutable (field, category) -> global feature index assignment.

    Seeded from the schema's declared vocabularies; unseen categories get the
    next free local index of their field. Overflow past the declared
    cardinality is a hard error, bias diagnostics depend on exact identity.
    """

    def __init__(self, schema: FieldSchema):
        self.schema = schema
        self._maps: dict[str, dict[str, int]] = {
            name: {c: i for i, c in enumerate(schema.categories.get(name, ()))}
            for name, _ in schema.fields
        }

    def index_of(self, field_name: str, category: str, create: bool = False) -> int:
        m = self._maps.get(field_name)
        if m is None:
            raise SchemaError(f"unknown field {field_name!r}")
        local = m.get(category)
        if local is None:
            if not create:
                raise SchemaError(f"unknown category {category!r} in field {field_name!r}")
            local = len(m)
            if local >= self.schema.cardinality(field_name):
                raise SchemaError(
                    f"field {field_name!r}: category {category!r} overflows "
                    f"declared cardinality {self.schema.cardinality(field_name)}"
                )
            m[category] = local
        return self.schema.offset(field_name) + local

    def labels(self, field_name: str) -> tuple[str, ...]:
        """Category label per local index: the declared or first-seen
        category, or the placeholder `field_name:j` while slot j is free."""
        out = [f"{field_name}:{j}" for j in range(self.schema.cardinality(field_name))]
        for cat, local in self._maps[field_name].items():
            out[local] = cat
        return tuple(out)


class Dataset:
    """Immutable collection of samples stored columnar for fast batch math.

    ``indices``/``values`` are (N, E) arrays padded with index 0 / value 0.0;
    padding entries are inert because every model term multiplies by the
    value. ``user_ids``/``item_ids`` are int32 codes into ``user_vocab``/
    ``item_vocab``, sorted arrays of distinct id strings, so codes sort
    like the ids they stand for. ``index`` is the FeatureIndex the
    features were assigned through (None: a fresh one over the schema),
    which names every category as it stands at the time of use. Subsets
    share their parent's index and vocabularies; codes of unrelated
    Datasets do not compare. Construction validates schema conformance
    once; subsets inherit it without re-checking.
    """

    def __init__(self, schema, indices, values, labels, user_ids, item_ids,
                 timestamps, split_tag="train", index=None, *, user_vocab,
                 item_vocab, _validate=True):
        self.schema = schema
        self.indices = np.asarray(indices, dtype=np.int64)
        self.values = np.asarray(values, dtype=np.float64)
        self.labels = np.asarray(labels, dtype=np.int8)
        self.user_ids = np.asarray(user_ids, dtype=np.int32)
        self.item_ids = np.asarray(item_ids, dtype=np.int32)
        self.user_vocab = np.asarray(user_vocab, dtype=str)
        self.item_vocab = np.asarray(item_vocab, dtype=str)
        self.timestamps = np.asarray(timestamps, dtype=np.int64)
        self.split_tag = split_tag
        self.index = FeatureIndex(schema) if index is None else index
        self._memberships = None
        self._blocks = None  # evaluation.blocks_of fills it
        self._group_counts = None  # evaluation.group_stats fills it
        if _validate:
            self._validate()

    def _validate(self):
        if self.index.schema != self.schema:
            raise ConfigError("the feature index was built over another schema")
        n = len(self.labels)
        for name, arr in (("indices", self.indices), ("values", self.values)):
            if arr.ndim != 2 or arr.shape[0] != n:
                raise ConfigError(f"{name} must be (N, E) with N = number of samples")
        if self.values.shape != self.indices.shape:
            raise ConfigError("indices and values must have the same (N, E) shape")
        for name, arr in (("user_ids", self.user_ids), ("item_ids", self.item_ids),
                          ("timestamps", self.timestamps)):
            if arr.shape != (n,):
                raise ConfigError(f"{name} must have shape (N,)")
        for name, codes, vocab in (("user", self.user_ids, self.user_vocab),
                                   ("item", self.item_ids, self.item_vocab)):
            if vocab.ndim != 1 or (vocab[1:] <= vocab[:-1]).any():
                raise ConfigError(f"{name}_vocab must be sorted distinct ids")
            if codes.size and (codes.min() < 0 or codes.max() >= len(vocab)):
                raise ConfigError(f"{name}_ids must be codes into {name}_vocab")
        if not np.isin(self.labels, (0, 1)).all():
            raise ConfigError("labels must be 0/1")
        # padding too: the models gather and scatter at every index
        if self.indices.size and (self.indices.min() < 0
                                  or self.indices.max() >= self.schema.n):
            raise ConfigError("feature index out of schema range")
        # the models multiply by every value, so padding must be exactly 0
        if not (self.values >= 0).all():  # NaN fails this too
            raise ConfigError("feature values must be >= 0 (padding is 0)")
        # per-field value sums must be 1 for every sample; one flat bincount
        # over the (row, field) cells, padding entries adding 0. Each step
        # works in place, so at most two (N, E)-sized arrays are alive.
        if n:
            n_fields = len(self.schema.fields)
            cells = np.searchsorted(self.schema.boundaries, self.indices, side="right")
            cells += (np.arange(n) * n_fields - 1)[:, None]
            gap = np.bincount(cells.ravel(), self.values.ravel(),
                              minlength=n * n_fields).reshape(n, n_fields)
            del cells
            gap -= 1.0
            np.abs(gap, out=gap)
            if gap.max() > FIELD_SUM_TOL:
                bad = int(np.argmax(gap.max(axis=1)))
                raise ConfigError(
                    f"sample {bad}: per-field feature values do not sum to 1"
                )

    def __len__(self):
        return len(self.labels)

    @property
    def bias_labels(self) -> tuple[str, ...]:
        """Category name per bias group, as the index names them now."""
        return self.index.labels(self.schema.bias_field)

    def subset(self, rows, split_tag=None) -> "Dataset":
        rows = np.asarray(rows)
        return Dataset(
            self.schema,
            self.indices[rows],
            self.values[rows],
            self.labels[rows],
            self.user_ids[rows],
            self.item_ids[rows],
            self.timestamps[rows],
            split_tag=split_tag or self.split_tag,
            index=self.index,
            user_vocab=self.user_vocab,
            item_vocab=self.item_vocab,
            _validate=False,
        )

    def bias_memberships(self) -> tuple[np.ndarray, np.ndarray]:
        """COO pairs (sample_rows, group_locals) of bias-field membership.

        A sample with several bias categories appears once per group.
        """
        if self._memberships is None:
            start, end = self.schema.bias_range
            live = (self.values > 0) & (self.indices >= start) & (self.indices < end)
            rows, cols = np.nonzero(live)
            self._memberships = (rows, self.indices[rows, cols] - start)
        return self._memberships

    def to_csv(self, path) -> None:
        """Write the canonical CSV form (header, '|'-joined multi-values).

        Each category is written under its name in the index. Columnar:
        the label table over the global feature index is quoted once, and
        a block of CSV_BLOCK_ROWS rows is built as columns of finished
        cells, joined with ',' per row and '\\n' per line, and written as
        one string. A field's cells are a direct take from the
        quoted table where every row of the block has exactly one live
        entry in the field; otherwise each row's labels are '|'-joined in
        column order and the joined cell is quoted. Each vocabulary entry
        is quoted once, and the id cells are a take by code. All quoting is
        quote_cells', so the bytes are those of csv.writer writing row by
        row, except that a cell or header name holding a lone '\\r' is
        quoted on every Python, so that ingest_csv reads it back.
        """
        schema = self.schema
        table = [label for name in schema.field_names
                 for label in self.index.labels(name)]
        quoted = np.array(quote_cells(table), dtype=object)
        table = np.array(table, dtype=object)
        users, items = (np.array(quote_cells(vocab.tolist()), dtype=object)
                        for vocab in (self.user_vocab, self.item_vocab))
        bounds = schema.boundaries
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(quote_cells(list(RESERVED_COLUMNS)
                                          + list(schema.field_names))) + "\n")
            for lo in range(0, len(self), CSV_BLOCK_ROWS):
                block = slice(lo, lo + CSV_BLOCK_ROWS)
                idx = self.indices[block]
                field_of = np.searchsorted(bounds, idx, side="right") - 1
                field_of[~(self.values[block] > 0)] = -1
                cols = [users[self.user_ids[block]].tolist(),
                        items[self.item_ids[block]].tolist(),
                        list(map(str, self.labels[block].tolist())),
                        list(map(str, self.timestamps[block].tolist()))]
                cols += [_cell_column(table, quoted, idx, field_of == f)
                         for f in range(len(schema.fields))]
                fh.write("\n".join(map(",".join, zip(*cols))) + "\n")


def quote_cells(values: list[str]) -> list[str]:
    """Each string as csv.writer writes it inside a row of several fields.

    Quoting only lengthens a field, so when the writer's row of the
    distinct values is their plain ','-join, no value needs quotes;
    otherwise each distinct value is written once as a record of its own.
    """
    distinct = list(dict.fromkeys(values))
    records: list[str] = []
    # the writer quotes a field holding any character of its terminator, so
    # "\r\n" quotes a lone CR on every Python (before 3.13, "\n" does not)
    writer = csv.writer(SimpleNamespace(write=records.append), lineterminator="\r\n")
    writer.writerow(distinct)
    row = records.pop()
    if row == ",".join(distinct) + "\r\n":
        return values
    writer.writerows(zip(distinct, repeat("")))  # one "<cell>,\r\n" record each
    form = dict(zip(distinct, [record[:-3] for record in records]))
    return list(map(form.__getitem__, values))


def _cell_column(table, quoted, idx, member) -> list[str]:
    """One field's CSV cells: labels of each row's member entries,
    '|'-joined, then quoted."""
    counts = member.sum(axis=1)
    if (counts == 1).all():
        return quoted[idx[member]].tolist()
    labels = table[idx[member]].tolist()  # row-major: rows in order
    ends = np.cumsum(counts).tolist()
    return quote_cells(["|".join(labels[s:e]) for s, e in zip([0] + ends[:-1], ends)])


def _utf8_lines(lines):
    """The lines, read with errors="surrogateescape"; at the first that
    holds a byte that is not UTF-8, the decoder's UnicodeDecodeError."""
    for line in lines:
        if not line.isascii():
            line.encode(errors="surrogateescape").decode()
        yield line


def _take_rows(reader, stop, path, lines_before=0):
    """The records of a csv.reader over _utf8_lines until it has read `stop`
    lines (the last record may run on past them), the line each starts on,
    and the CsvParseError that stopped reading early (or None): a csv.Error
    names the line its record starts on, a byte that is not UTF-8 its own.
    `lines_before` counts the file's lines before the reader's first."""
    rows: list[list[str]] = []
    lines: list[int] = []
    start = lines_before + reader.line_num + 1
    try:
        for row in reader:
            rows.append(row)
            lines.append(start)
            start = lines_before + reader.line_num + 1
            if reader.line_num >= stop:
                break
    except UnicodeDecodeError as exc:  # line_num counts the lines before it
        return rows, lines, CsvParseError(
            path, lines_before + reader.line_num + 1,
            f"byte {exc.object[exc.start]:#04x} is not UTF-8 ({exc.reason})")
    except csv.Error as exc:
        return rows, lines, CsvParseError(path, start, str(exc))
    return rows, lines, None


# A block's token layout is (buf, starts, ends): its cells' UTF-8 bytes in one
# uint8 array followed by _PAD zero bytes, and per (row, column) the offset of
# the cell's first byte and of the byte after its last.
_PAD = 24  # so every 8-byte key word and 19-byte digit window stays in buf
_DIGITS = 19  # up to this many digits fit uint64
_POW10 = 10 ** np.arange(_DIGITS, dtype=np.uint64)


def _padded(raw: bytes) -> np.ndarray:
    return np.frombuffer(raw + bytes(_PAD), dtype=np.uint8)


def _line_tokens(lines, width):
    """The token layout of a block of physical lines cut at every ',' and
    line end, or None when the csv module must read the block.

    Exact where no line holds '"' or NUL, every line holds width - 1 commas
    and no field is longer than csv.field_size_limit(): the csv module then
    cuts each line at its commas, drops its line end ('\\n', '\\r\\n' or a
    lone '\\r', the only places a '\\r' can be) and rejects no field. A
    block that is not UTF-8 (the strict encode fails) goes to it too.
    """
    text = "".join(lines)
    if not text:  # the end of a file whose last block was full
        return _padded(b""), *np.zeros((2, 0, width), dtype=np.int64)
    if '"' in text or "\0" in text:
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    if not text.endswith("\n"):
        text += "\n"
    try:
        buf = _padded(text.encode())
    except UnicodeEncodeError:
        return None
    seps = np.flatnonzero((buf == ord(",")) | (buf == ord("\n")))
    if len(seps) != len(lines) * width:
        return None
    ends = seps.reshape(len(lines), width)
    if (buf[ends[:, -1]] != ord("\n")).any():  # else every other one is a ','
        return None
    starts = np.concatenate(([0], seps[:-1] + 1)).reshape(ends.shape)
    if (ends - starts).max() > csv.field_size_limit():  # bytes >= characters
        return None
    return buf, starts, ends


def _record_tokens(rows, width, lines, path, failure):
    """The token layout of the csv.reader records before the first whose
    column count is not width, and the failure of the record after them:
    that count, the reader's `failure` that ended the rows, or None."""
    failure = None if failure is None else (len(rows), 0, failure)
    if set(map(len, rows)) - {width}:
        bad = next(i for i, row in enumerate(rows) if len(row) != width)
        failure = (bad, 0, CsvParseError(
            path, lines[bad], f"expected {width} columns, got {len(rows[bad])}"))
        rows = rows[:bad]
    cells = [cell.encode() for cell in chain.from_iterable(rows)]
    sizes = np.fromiter(map(len, cells), dtype=np.int64, count=len(cells))
    ends = np.cumsum(sizes).reshape(len(rows), width)
    return (_padded(b"".join(cells)), ends - sizes.reshape(ends.shape), ends), failure


def _by_width(lengths):
    """(width, positions) per distinct value of lengths."""
    for width in np.flatnonzero(np.bincount(lengths)).tolist():
        yield width, np.flatnonzero(lengths == width)


def _fixed(buf, starts, width):
    """The width-byte keys at starts as sortable fixed-width values: a
    uint64 up to 8 bytes, else an 'S' string. Keys are only compared with
    keys of the same width, so both forms are exact, NUL bytes included."""
    if width <= 8:
        words = np.ndarray(len(buf) - 7, dtype="<u8", buffer=buf, strides=(1,))
        return words[starts] & np.uint64(2 ** (8 * width) - 1)
    return sliding_window_view(buf, width)[starts].view(f"S{width}").ravel()


class _Keys:
    """Byte string -> int code, looked up a column of tokens at a time.

    Keys are kept sorted per byte length as _fixed values, so a column
    maps with one argsort and one searchsorted per key length. The unseen
    keys of a column go to `assign` once, as one list in order of first
    appearance; it returns their codes and None, or the codes of the keys
    before the first it refused and that SchemaError. Assigned keys are
    merged into their tables.
    """

    def __init__(self, assign, keys=(), codes=()):
        self.assign = assign
        self._tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        sizes = np.fromiter(map(len, keys), dtype=np.int64, count=len(keys))
        buf, codes = _padded(b"".join(keys)), np.asarray(codes, dtype=np.int64)
        for width, at in _by_width(sizes):
            fixed = _fixed(buf, np.cumsum(sizes)[at] - width, width)
            order = np.argsort(fixed)
            self._tables[width] = fixed[order], codes[at][order]

    def codes(self, buf, starts, lengths):
        """Each token's code, and (position, error) of the first unseen key
        that assign refused with SchemaError, or None. After a refusal the
        codes of unseen keys are -1."""
        out = np.empty(len(starts), dtype=np.int64)
        unseen = []  # per width: its sorted keys and runs, and where the new ones go
        for width, at in _by_width(lengths):
            keys = _fixed(buf, starts[at], width)
            order = np.argsort(keys)
            keys, at = keys[order], at[order]
            head = np.concatenate(([True], keys[1:] != keys[:-1]))  # starts a run
            distinct, run = keys[head], np.cumsum(head) - 1
            code = np.full(len(distinct), -1, dtype=np.int64)
            slot = np.zeros(len(distinct), dtype=np.int64)  # where each is or would go
            if width in self._tables:
                table, codes = self._tables[width]
                slot = np.searchsorted(table, distinct)
                pos = slot.clip(max=len(table) - 1)
                known = table[pos] == distinct
                code[known] = codes[pos[known]]
            out[at] = code[run]
            new = np.flatnonzero(code < 0)
            if new.size:
                unseen.append((width, distinct, code, slot, run, at, new,
                               np.minimum.reduceat(at, np.flatnonzero(head))[new]))
        if not unseen:
            return out, None
        firsts = np.concatenate([group[-1] for group in unseen])
        order = np.argsort(firsts)
        raw, firsts = buf.tobytes(), firsts[order]
        got, refused = self.assign([raw[start:start + size] for start, size in
                                    zip(starts[firsts].tolist(), lengths[firsts].tolist())])
        if refused is not None:
            return out, (int(firsts[len(got)]), refused)
        assigned = np.empty(len(firsts), dtype=np.int64)
        assigned[order] = got
        done = 0
        for width, distinct, code, slot, run, at, new, _ in unseen:
            code[new] = assigned[done:done + len(new)]
            done += len(new)
            out[at] = code[run]
            table, codes = self._tables.get(width, (distinct[:0], code[:0]))
            self._tables[width] = (np.insert(table, slot[new], distinct[new]),
                                   np.insert(codes, slot[new], code[new]))
        return out, None


def _field_keys(index, name):
    """The _Keys of a field's categories in `index`; unseen ones are added
    to the index."""
    seen = index._maps[name]
    offset = index.schema.offset(name)

    def assign(keys):
        codes = []
        try:
            for key in keys:
                codes.append(index.index_of(name, key.decode(), create=True) - offset)
        except SchemaError as exc:
            return codes, exc
        return codes, None

    return _Keys(assign, [category.encode() for category in seen], list(seen.values()))


class _Ids(list):
    """Distinct ids in order of first appearance; an id's position is its
    code until the file is read."""

    def add(self, keys: list[bytes]):
        """Append ids given as UTF-8 bytes; their codes, and no refusal."""
        self.extend(map(bytes.decode, keys))
        return range(len(self) - len(keys), len(self)), None

    def sorted_codes(self, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """codes renumbered in the sort order of their ids, and the sorted
        vocabulary. Ids that one '<U' array cannot tell apart (trailing
        NULs) share a code."""
        vocab, rank = np.unique(np.array(self, dtype=str), return_inverse=True)
        return rank.astype(np.int32)[codes], vocab


def _texts(buf, starts, ends) -> list[str]:
    """The cells at starts/ends as the csv module reads them."""
    raw = buf.tobytes()
    return [raw[a:b].decode() for a, b in zip(starts.tolist(), ends.tolist())]


def _parse_block(tokens, lines, schema, keys, path, failure=None):
    """Arrays of one block of data records given as a token layout, or
    raise its first error. `lines` holds each record's first line in the
    file and `keys` the _Keys of the user ids, the item ids and each field.

    Every check records the first row it fails on with a rank that orders
    the checks within a row (column count, timestamp, label, then per field
    in declaration order: an empty cell or a duplicate category, then
    overflow), and the (row, rank)-smallest failure is raised, as a row
    loop would. `failure` is the failure of the record just after the
    given rows (its column count, or the reader's error), if there is one.

    Returns (indices, values, timestamps, labels, user codes, item codes).
    """
    buf, starts, ends = tokens
    n, width = starts.shape
    failures: list[tuple[int, int, Exception]] = [] if failure is None else [failure]

    # an int64 written as an optional '-' and 1 to _DIGITS digits parses
    # from its bytes, left-aligned in a window as wide as the longest
    at, size = starts[:, 3], ends[:, 3] - starts[:, 3]
    minus = buf[at] == ord("-")
    at, size = at + minus, size - minus
    wide = int(size.clip(1, _DIGITS).max(initial=1))
    digits = sliding_window_view(buf, wide)[at] - np.uint8(ord("0"))  # 0-9 if a digit
    digits *= np.arange(wide) < size[:, None]
    value = digits @ _POW10[wide - 1::-1] // _POW10[wide - size.clip(1, wide)]
    plain = ((size >= 1) & (size <= _DIGITS) & (value <= np.uint64(_INT64.max) + minus)
             & (digits <= 9).all(axis=1))
    stamps = value.astype(np.int64)
    stamps[minus] *= -1  # wraps 2**63 to -2**63 as it should
    odd = np.flatnonzero(~plain)  # any other form goes through int()
    for row, cell in zip(odd.tolist(), _texts(buf, starts[odd, 3], ends[odd, 3])):
        try:
            ts = int(cell)
        except ValueError:
            failures.append((row, 1, CsvParseError(
                path, lines[row], f"non-integer timestamp {cell!r}")))
            break
        if not _INT64.min <= ts <= _INT64.max:
            failures.append((row, 1, CsvParseError(
                path, lines[row], f"timestamp {cell!r} is outside the int64 range")))
            break
        stamps[row] = ts

    threshold = schema.label_threshold
    if threshold is None:
        labels = buf[starts[:, 2]] - np.uint8(ord("0"))
        bad = np.flatnonzero((ends[:, 2] - starts[:, 2] != 1) | (labels > 1))
        if bad.size:
            row = int(bad[0])
            cell = buf[starts[row, 2]:ends[row, 2]].tobytes().decode()
            failures.append((row, 2, LabelError(
                f"{path}:{lines[row]}: label {cell!r} is not binary "
                "and no threshold is configured")))
    else:
        labels = []
        for row, cell in enumerate(_texts(buf, starts[:, 2], ends[:, 2])):
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if math.isnan(value):
                failures.append((row, 2, CsvParseError(
                    path, lines[row], f"non-numeric label {cell!r}")))
                break
            labels.append(value > threshold)

    pipes = np.flatnonzero(buf == ord("|"))
    owner = np.searchsorted(starts.ravel(), pipes, side="right") - 1  # each lies in one cell
    fields = []  # (offset, counts, local indices) per field
    for f, (name, _) in enumerate(schema.fields):
        col, rank = 4 + f, 3 + 2 * f
        at, end = starts[:, col], ends[:, col]
        if (end == at).any():
            row = int(np.argmax(end == at))
            failures.append((row, rank, CsvParseError(
                path, lines[row], f"empty cell for field {name!r}")))
        counts = np.ones(n, dtype=np.int64)
        inner = owner % width == col
        if inner.any():  # cut the '|' cells into parts, which must differ
            rows = owner[inner] // width
            counts += np.bincount(rows, minlength=n)
            for row in np.unique(rows).tolist():
                parts = buf[at[row]:end[row]].tobytes().split(b"|")
                if len(set(parts)) < len(parts):
                    failures.append((row, rank, CsvParseError(
                        path, lines[row], f"duplicate category in field {name!r}")))
                    break
            at, end = (np.sort(np.concatenate(pair))
                       for pair in ((at, pipes[inner] + 1), (pipes[inner], end)))
        local, refused = keys[2 + f].codes(buf, at, end - at)
        if refused is not None:
            pos, exc = refused
            row = int(np.searchsorted(np.cumsum(counts), pos, side="right"))
            failures.append((row, rank + 1, exc))
        if not failures:
            fields.append((schema.offset(name), counts, local))
    if failures:
        raise min(failures, key=lambda fail: fail[:2])[2]

    total = sum(counts for _, counts, _ in fields)
    indices = np.zeros((n, int(total.max(initial=0))), dtype=np.int64)
    values = np.zeros(indices.shape, dtype=np.float64)
    start = np.zeros(n, dtype=np.int64)  # first column of the field in each row
    for offset, counts, local in fields:
        row_of = np.repeat(np.arange(n), counts)
        first = np.cumsum(counts) - counts  # first entry of each row in `local`
        if len(local) > n:  # some multi-valued cell: sort each row's entries
            local = local[np.lexsort((local, row_of))]
        pos = np.arange(len(local)) + np.repeat(start - first, counts)
        indices[row_of, pos] = offset + local
        values[row_of, pos] = np.repeat(1.0 / counts, counts)
        start += counts
    users, items = (table.codes(buf, starts[:, k], ends[:, k] - starts[:, k])[0]
                    for k, table in enumerate(keys[:2]))
    return indices, values, stamps, np.asarray(labels, dtype=np.int8), users, items


def ingest_csv(path, schema: FieldSchema, index: FeatureIndex | None = None,
               split_tag: str = "train") -> Dataset:
    """Read a CSV interaction log into a Dataset.

    Expected header: user_id,item_id,label,timestamp,<field...> with fields in
    schema declaration order. Multi-valued cells use '|' separators and are
    normalized to value 1/m per category. Pass a shared FeatureIndex when
    ingesting several files so category assignment stays consistent; the
    Dataset keeps the index, which must be built over `schema`.

    The file is read once as UTF-8, after an optional byte-order mark, in
    blocks of CSV_BLOCK_ROWS lines, never whole; bad bytes are escaped, so
    the text layer's lines are the one line count. A UTF-8 block with no '"'
    or NUL, whose every line holds one comma fewer than the header has
    columns and whose every field is at most csv.field_size_limit() bytes,
    is one record per line, cut at the commas and line ends one numpy scan
    finds: the dialect `quote_cells` writes quotes with '"' and ends records
    where the text layer ends lines ('\\n', '\\r\\n', a lone '\\r'), so it
    cuts such lines at the same places. A block that fails this test is
    read by csv.reader, which meets a bad byte at its line, up to the end
    of its last record and laid out alike; the next block is tested anew.

    Each block is then converted column by column from its bytes. Id and
    category cells are byte keys, matched with one argsort and
    searchsorted per key length against tables built once per call from
    the index and the ids met so far; only an unseen key goes through
    Python, once, and categories are assigned in order of first
    appearance. Timestamps written as an optional '-' and digits, and
    0/1 labels, parse from their bytes. Cell by cell go only: other
    timestamps, through int(); labels under a threshold, through float();
    '|' cells, whose parts are checked for duplicates; and the cells an
    error message quotes. Fields occupy increasing index ranges, so rows
    come out sorted. Once the file is read, the distinct user and item
    ids are sorted and coded in that order.

    Errors: the first bad record in file order raises, named by the
    physical line of the file it starts on (a csv.Error too; a byte that
    is not UTF-8 by its own line); within a record its bytes and column
    count are checked first, then the timestamp, the label, and the cells
    in field order (empty, then duplicate, then overflow).
    Malformed records (a timestamp that is not an integer or lies outside
    int64, and under a label threshold a label that is not a number or is
    NaN, among them) and undecodable bytes raise CsvParseError with the
    line number, a non-binary label LabelError, and an overflowing
    vocabulary SchemaError. An index over another schema raises ConfigError
    before the file is read. The state of a shared FeatureIndex after an
    error is unspecified: it may hold categories of any record in the
    failing block.
    """
    path = Path(path)
    if index is None:
        index = FeatureIndex(schema)
    elif index.schema != schema:
        raise ConfigError("the feature index was built over another schema")
    expected_header = list(RESERVED_COLUMNS) + list(schema.field_names)
    width = len(expected_header)
    blocks = []
    ids = (_Ids(), _Ids())
    keys = [_Keys(ids[0].add), _Keys(ids[1].add)]
    keys += [_field_keys(index, name) for name in schema.field_names]
    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
        reader = csv.reader(_utf8_lines(fh))
        header, _, failure = _take_rows(reader, 1, path)
        if failure is not None:
            raise failure
        if not header:
            raise CsvParseError(path, 1, "empty file")
        if header[0] != expected_header:
            raise CsvParseError(
                path, 1, f"header {header[0]!r} does not match declared fields {expected_header!r}"
            )
        lines_read = reader.line_num  # physical lines before the next block
        while True:  # failure stays None: _parse_block raises any it is given
            lines = list(islice(fh, CSV_BLOCK_ROWS))
            tokens = _line_tokens(lines, width)
            if tokens is None:  # its records; the last may run on past the block
                reader = csv.reader(_utf8_lines(chain(lines, fh)))
                rows, starts, failure = _take_rows(reader, len(lines), path, lines_read)
                tokens, failure = _record_tokens(rows, width, starts, path, failure)
                lines_read += reader.line_num
            else:  # one record per line
                starts = range(lines_read + 1, lines_read + 1 + len(lines))
                lines_read += len(lines)
            blocks.append(_parse_block(tokens, starts, schema, keys, path, failure))
            if len(lines) < CSV_BLOCK_ROWS:
                break
    indices, values, stamps, labels, users, items = zip(*blocks)
    width = max(block.shape[1] for block in indices)
    user_ids, user_vocab = ids[0].sorted_codes(np.concatenate(users))
    item_ids, item_vocab = ids[1].sorted_codes(np.concatenate(items))
    return Dataset(
        schema,
        np.concatenate([np.pad(a, ((0, 0), (0, width - a.shape[1]))) for a in indices]),
        np.concatenate([np.pad(a, ((0, 0), (0, width - a.shape[1]))) for a in values]),
        np.concatenate(labels), user_ids, item_ids, np.concatenate(stamps),
        split_tag=split_tag,
        index=index,
        user_vocab=user_vocab,
        item_vocab=item_vocab,
    )
