"""Schema and CSV I/O against hand-built oracles."""

import csv
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (count_calls, dataset, make_schema, per_row_strings,
                      random_dataset)
from ctrbias import data
from ctrbias.data import Dataset, FeatureIndex, FieldSchema, ingest_csv
from ctrbias.errors import (ConfigError, CsvParseError, LabelError,
                            SchemaError)
from ctrbias.evaluation import blocks_of
from oracles import ingest_csv_reference, to_csv_reference, users_of


class TestFieldSchema:
    def test_layout_properties(self):
        s = make_schema(4, 6, 3)
        assert s.n == 13
        assert s.field_names == ("user", "item", "group")
        assert list(s.boundaries) == [0, 4, 10, 13]
        assert s.offset("item") == 4
        assert s.cardinality("group") == 3
        assert s.bias_range == (10, 13)
        assert s.num_groups == 3
        for lookup in (s.offset, s.cardinality):
            with pytest.raises(ConfigError, match="unknown field 'nope'"):
                lookup("nope")

    def test_validation_rejects_bad_declarations(self):
        with pytest.raises(ConfigError):
            FieldSchema(fields=(), bias_field="g")
        with pytest.raises(ConfigError):
            FieldSchema(fields=(("a", 2), ("a", 3)), bias_field="a")
        with pytest.raises(ConfigError):
            FieldSchema(fields=(("a", 0),), bias_field="a")
        with pytest.raises(ConfigError):
            FieldSchema(fields=(("a", 2),), bias_field="missing")
        with pytest.raises(ConfigError):
            FieldSchema(fields=(("a", 1),), bias_field="a")  # cardinality < 2
        with pytest.raises(ConfigError):
            FieldSchema(fields=(("a", 2),), bias_field="a",
                        categories={"other": ("x",)})
        with pytest.raises(SchemaError):
            FieldSchema(fields=(("a", 2),), bias_field="a",
                        categories={"a": ("x", "y", "z")})
        with pytest.raises(ConfigError):
            FieldSchema(fields=(("a", 2),), bias_field="a",
                        categories={"a": ("x", "x")})

    @pytest.mark.parametrize("bad", ["a|b", "|", "", 1, None, "\udcff"])
    def test_rejects_categories_that_cannot_round_trip_csv(self, bad):
        with pytest.raises(ConfigError, match="round-trip"):
            FieldSchema(fields=(("a", 3),), bias_field="a",
                        categories={"a": ("x", bad)})

    def test_labels_are_vocabulary_then_placeholders(self):
        s = FieldSchema(fields=(("a", 3), ("g", 2)), bias_field="g",
                        categories={"a": ("x, y", "\"q\"")})
        assert FeatureIndex(s).labels("a") == ("x, y", "\"q\"", "a:2")
        assert FeatureIndex(s).labels("g") == ("g:0", "g:1")

    def test_digest_frozen_value(self):
        s = FieldSchema(
            fields=(("user", 3), ("item", 4), ("group", 2)),
            bias_field="group",
            categories={"group": ("g0", "g1")},
        )
        assert s.digest() == ("9d2a00f35b70b99e6b7542639e754682"
                              "d9677041ad401d222021ddf4efb64487")

    def test_digest_tracks_feature_space_not_threshold(self):
        base = FieldSchema(fields=(("g", 2),), bias_field="g")
        relabeled = FieldSchema(fields=(("g", 2),), bias_field="g",
                                categories={"g": ("a", "b")})
        rethresholded = FieldSchema(fields=(("g", 2),), bias_field="g",
                                    label_threshold=3.0)
        assert base.digest() != relabeled.digest()
        assert base.digest() == rethresholded.digest()

    def test_json_round_trip(self, tmp_path):
        s = make_schema()
        s = FieldSchema(s.fields, s.bias_field, s.categories, label_threshold=3.5)
        path = tmp_path / "schema.json"
        s.save(path)
        loaded = FieldSchema.load(path)
        assert loaded == s
        assert loaded.digest() == s.digest()

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            FieldSchema.load(path)
        path.write_text("{\"fields\": 3}")
        with pytest.raises(ConfigError):
            FieldSchema.load(path)


class TestFeatureIndex:
    def test_seeded_from_declared_vocabulary(self):
        idx = FeatureIndex(make_schema())
        assert idx.index_of("user", "u2") == 2
        assert idx.index_of("group", "g1") == 4 + 6 + 1

    def test_create_assigns_next_free_local(self):
        schema = FieldSchema(fields=(("f", 3), ("g", 2)), bias_field="g")
        idx = FeatureIndex(schema)
        assert idx.index_of("f", "first", create=True) == 0
        assert idx.index_of("f", "second", create=True) == 1
        assert idx.index_of("f", "first", create=True) == 0  # stable
        assert idx.index_of("f", "third", create=True) == 2
        with pytest.raises(SchemaError):
            idx.index_of("f", "fourth", create=True)

    def test_unknown_without_create_raises(self):
        idx = FeatureIndex(make_schema())
        with pytest.raises(SchemaError):
            idx.index_of("user", "someone-new")
        with pytest.raises(SchemaError):
            idx.index_of("nope", "x")

    def test_labels_fill_placeholders(self):
        schema = FieldSchema(fields=(("f", 3), ("g", 2)), bias_field="g")
        idx = FeatureIndex(schema)
        idx.index_of("f", "seen", create=True)
        assert idx.labels("f") == ("seen", "f:1", "f:2")


def live_entries(ds, i):
    """Row i's (index, value) entries without the zero padding."""
    live = ds.values[i] > 0
    return ds.indices[i][live], ds.values[i][live]


class TestDataset:
    def test_validation_rejects_bad_field_sums(self):
        schema = make_schema(2, 2, 2)
        with pytest.raises(ConfigError, match="sum to 1"):
            dataset(schema, np.array([[0, 2, 4], [0, 2, 4]]),
                    np.array([[1.0, 1.0, 1.0], [1.0, 0.7, 1.0]]),
                    [0, 1], ["u0", "u0"], ["i0", "i0"], [0, 1])

    def test_validation_rejects_out_of_range_indices(self):
        schema = make_schema(2, 2, 2)
        with pytest.raises(ConfigError, match="out of schema range"):
            dataset(schema, np.array([[0, 2, 99]]), np.array([[1.0, 1.0, 1.0]]),
                    [0], ["u0"], ["i0"], [0])

    @pytest.mark.parametrize("pad_index", [99, 6, -1, -7], ids=["far", "n", "-1", "-n"])
    def test_validation_rejects_out_of_range_padding(self, pad_index):
        # padding is index 0 by contract; the models gather and scatter at
        # padded entries too, so any other out-of-range index must not pass
        schema = make_schema(2, 2, 2)
        with pytest.raises(ConfigError, match="out of schema range"):
            dataset(schema, np.array([[0, 2, 4, pad_index]]),
                    np.array([[1.0, 1.0, 1.0, 0.0]]), [0], ["u0"], ["i0"], [0])

    @pytest.mark.parametrize("pad_value", [-0.5, float("nan")], ids=["negative", "nan"])
    def test_validation_rejects_non_inert_padding_values(self, pad_value):
        # a padded entry with a nonzero value would still move every score
        schema = make_schema(2, 2, 2)
        with pytest.raises(ConfigError, match=">= 0"):
            dataset(schema, np.array([[0, 2, 4, 5]]),
                    np.array([[1.0, 1.0, 1.0, pad_value]]), [0], ["u0"], ["i0"], [0])

    def test_validation_rejects_mismatched_values_shape(self):
        schema = make_schema(2, 2, 2)
        with pytest.raises(ConfigError, match="same"):
            dataset(schema, np.array([[0, 2, 4]]), np.array([[1.0, 1.0, 1.0, 0.0]]),
                    [0], ["u0"], ["i0"], [0])

    @pytest.mark.parametrize("change, message", [
        ({"indices": [0, 2, 4]}, "indices must be"),
        ({"values": [[1.0, 1.0, 1.0]] * 2}, "values must be"),
        ({"user_ids": [0, 0]}, "user_ids must have shape"),
        ({"timestamps": [[0]]}, "timestamps must have shape"),
        ({"user_vocab": ["u1", "u0"]}, "user_vocab must be sorted distinct"),
        ({"item_vocab": ["i0", "i0"]}, "item_vocab must be sorted distinct"),
        ({"user_ids": [1]}, "user_ids must be codes"),
        ({"item_ids": [-1]}, "item_ids must be codes"),
    ], ids=["indices 1-d", "values rows", "user_ids shape", "timestamps shape",
            "unsorted vocabulary", "repeated id", "code past vocabulary",
            "negative code"])
    def test_validation_rejects_malformed_columns(self, change, message):
        columns = {"indices": [[0, 2, 4]], "values": [[1.0, 1.0, 1.0]],
                   "labels": [0], "user_ids": [0], "item_ids": [0],
                   "timestamps": [0], "user_vocab": ["u0"], "item_vocab": ["i0"]}
        schema = make_schema(2, 2, 2)
        Dataset(schema, **columns)
        with pytest.raises(ConfigError, match=message):
            Dataset(schema, **{**columns, **change})

    def test_validation_rejects_non_binary_labels(self):
        schema = make_schema(2, 2, 2)
        with pytest.raises(ConfigError, match="labels"):
            dataset(schema, np.array([[0, 2, 4]]), np.array([[1.0, 1.0, 1.0]]),
                    [3], ["u0"], ["i0"], [0])

    def test_bias_memberships_coo(self, rng):
        ds = random_dataset(rng, n_rows=40, multi_group_prob=0.5)
        rows, groups = ds.bias_memberships()
        lo, hi = ds.schema.bias_range
        expected = []
        for i in range(len(ds)):
            for j in range(ds.indices.shape[1]):
                if ds.values[i, j] > 0 and lo <= ds.indices[i, j] < hi:
                    expected.append((i, int(ds.indices[i, j]) - lo))
        assert sorted(zip(rows.tolist(), groups.tolist())) == sorted(expected)
        assert any(np.bincount(rows) > 1)  # multi-group rows really occur

    def test_subset_keeps_metadata(self, rng):
        ds = random_dataset(rng, n_rows=10)
        sub = ds.subset([3, 1], split_tag="other")
        assert sub.split_tag == "other"
        assert sub.bias_labels == ds.bias_labels
        assert list(sub.user_ids) == [ds.user_ids[3], ds.user_ids[1]]
        assert sub.user_vocab is ds.user_vocab and sub.item_vocab is ds.item_vocab

    def test_default_bias_labels_use_vocabulary_then_placeholders(self):
        schema = FieldSchema(fields=(("g", 3),), bias_field="g",
                             categories={"g": ("alpha",)})
        ds = dataset(schema, np.array([[0]]), np.array([[1.0]]), [1], ["u"], ["i"], [0])
        assert ds.bias_labels == ("alpha", "g:1", "g:2")

    def test_rejects_an_index_over_another_schema(self):
        with pytest.raises(ConfigError, match="another schema"):
            dataset(make_schema(2, 2, 2), [[0, 2, 4]], [[1.0, 1.0, 1.0]], [0],
                    ["u0"], ["i0"], [0], index=FeatureIndex(make_schema(2, 2, 3)))


class TestCsvRoundTrip:
    def test_to_csv_then_ingest_is_identity(self, rng, tmp_path):
        ds = random_dataset(rng, n_rows=25, multi_group_prob=0.4)
        path = tmp_path / "log.csv"
        ds.to_csv(path)
        back = ingest_csv(path, ds.schema, split_tag=ds.split_tag)
        assert np.array_equal(back.labels, ds.labels)
        assert np.array_equal(back.user_ids, ds.user_ids)
        assert np.array_equal(back.item_ids, ds.item_ids)
        assert np.array_equal(back.timestamps, ds.timestamps)
        for i in range(len(ds)):
            (ia, va), (ib, vb) = live_entries(ds, i), live_entries(back, i)
            assert np.array_equal(ia, ib)
            assert np.allclose(va, vb, atol=0, rtol=1e-15)

    def test_ingested_ids_are_codes(self, rng, tmp_path):
        ds = random_dataset(rng, n_users=12, n_rows=60)
        ds.to_csv(tmp_path / "log.csv")
        back = ingest_csv(tmp_path / "log.csv", ds.schema)
        blocks_of(back)
        assert per_row_strings(back) == []
        assert back.user_ids.dtype == back.item_ids.dtype == np.int32
        # "u10" < "u2": codes follow the sorted strings
        assert back.user_vocab.tolist() == sorted(set(users_of(ds).tolist()))
        np.testing.assert_array_equal(users_of(back), users_of(ds))

    def test_lone_cr_in_ids_labels_and_header_round_trips(self, tmp_path):
        schema = FieldSchema(fields=(("f\r", 3), ("g", 2)), bias_field="g",
                             categories={"f\r": ("x\ry", "z"), "g": ("a\r",)})
        ds = dataset(schema, [[0, 3], [1, 4]], [[1.0, 1.0], [1.0, 1.0]], [1, 0],
                     np.array(["a\rb", "u"]), np.array(["i\r", "\r"]), [0, 1])
        ds.to_csv(tmp_path / "log.csv")
        assert_same_outcome(ingest_csv(tmp_path / "log.csv", schema, split_tag="x"),
                            ds.subset(np.arange(2), split_tag="x"))

    def test_multi_valued_cell_gets_fractional_values(self, tmp_path):
        schema = FieldSchema(fields=(("g", 4),), bias_field="g")
        path = tmp_path / "log.csv"
        path.write_text("user_id,item_id,label,timestamp,g\n"
                        "u,i,1,5,a|b|c\n")
        ds = ingest_csv(path, schema)
        indices, values = live_entries(ds, 0)
        assert np.array_equal(indices, [0, 1, 2])
        assert np.allclose(values, [1 / 3] * 3)

    def test_shared_index_keeps_categories_aligned_across_files(self, tmp_path):
        schema = FieldSchema(fields=(("g", 3),), bias_field="g")
        (tmp_path / "a.csv").write_text(
            "user_id,item_id,label,timestamp,g\nu,i,1,0,x\n")
        (tmp_path / "b.csv").write_text(
            "user_id,item_id,label,timestamp,g\nu,i,0,1,y\nu,i,1,2,x\n")
        index = FeatureIndex(schema)
        a = ingest_csv(tmp_path / "a.csv", schema, index)
        b = ingest_csv(tmp_path / "b.csv", schema, index)
        assert a.indices[0, 0] == 0       # x -> 0
        assert b.indices[0, 0] == 1       # y -> 1
        assert b.indices[1, 0] == 0       # x stays 0
        assert b.bias_labels == ("x", "y", "g:2")

    @pytest.mark.parametrize("categories", [{}, {"user": ("bob",), "group": ("B",)}],
                             ids=["no-vocabulary", "partial-vocabulary"])
    def test_ingest_write_ingest_keeps_undeclared_names(self, tmp_path, categories):
        schema = FieldSchema(fields=(("user", 3), ("group", 2)), bias_field="group",
                             categories=categories)
        log = ("user_id,item_id,label,timestamp,user,group\n"
               "u1,i1,1,1,alice,A\nu2,i2,0,2,bob,B\nu3,i1,1,3,carol,A|B\n")
        (tmp_path / "log.csv").write_text(log)
        first = ingest_csv(tmp_path / "log.csv", schema)
        first.to_csv(tmp_path / "new.csv")
        to_csv_reference(first, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        back = ingest_csv(tmp_path / "new.csv", schema)
        assert_same_outcome(back, first)
        for name in schema.field_names:
            assert back.index.labels(name) == first.index.labels(name)
        assert sorted(back.index.labels("user")) == ["alice", "bob", "carol"]
        assert sorted(back.bias_labels) == ["A", "B"]
        if not categories:  # categories were met in index order
            assert (tmp_path / "new.csv").read_text() == log

    def test_label_threshold_binarizes(self, tmp_path):
        schema = FieldSchema(fields=(("g", 2),), bias_field="g",
                             label_threshold=3.0)
        path = tmp_path / "r.csv"
        path.write_text("user_id,item_id,label,timestamp,g\n"
                        "u,i,4.5,0,a\nu,i,3.0,1,a\nu,i,1,2,b\n"
                        "u,i,inf,3,a\nu,i,-inf,4,b\nu,i,+Infinity,5,b\n")
        ds = ingest_csv(path, schema)
        assert list(ds.labels) == [1, 0, 0, 1, 0, 1]

    @pytest.mark.parametrize("cell", ["nan", "NaN", "-nan"])
    def test_label_threshold_rejects_nan(self, tmp_path, cell):
        schema = FieldSchema(fields=(("g", 2),), bias_field="g",
                             label_threshold=3.0)
        path = tmp_path / "r.csv"
        path.write_text("user_id,item_id,label,timestamp,g\n"
                        f"u,i,4.5,0,a\nu,i,{cell},1,a\n")
        with pytest.raises(CsvParseError, match=f"non-numeric label '{cell}'") as e:
            ingest_csv(path, schema)
        assert e.value.line_no == 3


class TestIngestErrors:
    def _write(self, tmp_path, body):
        path = tmp_path / "bad.csv"
        path.write_text(body)
        return path

    def test_empty_file(self, tmp_path):
        path = self._write(tmp_path, "")
        with pytest.raises(CsvParseError, match="empty file") as e:
            ingest_csv(path, make_schema())
        assert e.value.line_no == 1

    def test_wrong_header(self, tmp_path):
        path = self._write(tmp_path, "user,item,label,ts,user,item,group\n")
        with pytest.raises(CsvParseError, match="header") as e:
            ingest_csv(path, make_schema())
        assert e.value.line_no == 1

    def test_wrong_column_count_reports_line(self, tmp_path):
        path = self._write(
            tmp_path,
            "user_id,item_id,label,timestamp,user,item,group\n"
            "u0,i0,1,0,u0,i0,g0\n"
            "u0,i0,1,1,u0,i0\n")
        with pytest.raises(CsvParseError, match="columns") as e:
            ingest_csv(path, make_schema())
        assert e.value.line_no == 3

    def test_bad_timestamp_reports_line(self, tmp_path):
        path = self._write(
            tmp_path,
            "user_id,item_id,label,timestamp,user,item,group\n"
            "u0,i0,1,soon,u0,i0,g0\n")
        with pytest.raises(CsvParseError, match="timestamp") as e:
            ingest_csv(path, make_schema())
        assert e.value.line_no == 2

    def test_non_binary_label_without_threshold(self, tmp_path):
        path = self._write(
            tmp_path,
            "user_id,item_id,label,timestamp,user,item,group\n"
            "u0,i0,4,0,u0,i0,g0\n")
        with pytest.raises(LabelError, match="label"):
            ingest_csv(path, make_schema())

    def test_non_numeric_label_with_threshold(self, tmp_path):
        schema = FieldSchema(fields=(("g", 2),), bias_field="g", label_threshold=0.5)
        path = self._write(tmp_path, "user_id,item_id,label,timestamp,g\nu,i,x,0,a\n")
        with pytest.raises(CsvParseError, match="label") as e:
            ingest_csv(path, schema)
        assert e.value.line_no == 2

    def test_empty_cell(self, tmp_path):
        path = self._write(
            tmp_path,
            "user_id,item_id,label,timestamp,user,item,group\n"
            "u0,i0,1,0,u0,,g0\n")
        with pytest.raises(CsvParseError, match="empty cell") as e:
            ingest_csv(path, make_schema())
        assert e.value.line_no == 2

    def test_duplicate_category_in_cell(self, tmp_path):
        path = self._write(
            tmp_path,
            "user_id,item_id,label,timestamp,user,item,group\n"
            "u0,i0,1,0,u0,i0,g0|g0\n")
        with pytest.raises(CsvParseError, match="duplicate") as e:
            ingest_csv(path, make_schema())
        assert e.value.line_no == 2

    def test_vocabulary_overflow_propagates(self, tmp_path):
        schema = FieldSchema(fields=(("g", 2),), bias_field="g")
        path = self._write(
            tmp_path,
            "user_id,item_id,label,timestamp,g\nu,i,1,0,a\nu,i,1,1,b\nu,i,1,2,c\n")
        with pytest.raises(SchemaError, match="overflow"):
            ingest_csv(path, schema)

    def test_undecodable_byte_reports_its_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"user_id,item_id,label,timestamp,user,item,group\n"
                         b"u0,i0,1,0,u0,i0,g0\n"
                         b"u1,i\xff,1,1,u1,i1,g1\n")
        with pytest.raises(CsvParseError, match="0xff is not UTF-8") as e:
            ingest_csv(path, make_schema())
        assert e.value.line_no == 3

    def test_index_over_a_schema_without_the_field(self, tmp_path):
        path = self._write(tmp_path, "user_id,item_id,label,timestamp,user,item,group\n"
                                     "u0,i0,1,0,u0,i0,g0\n")
        index = FeatureIndex(FieldSchema(fields=(("g", 2),), bias_field="g"))
        with pytest.raises(ConfigError, match="another schema"):
            ingest_csv(path, make_schema(), index)

    def test_index_over_other_vocabularies_is_refused_before_reading(self, tmp_path):
        path = self._write(tmp_path, "user_id,item_id,label,timestamp,user,item,group\n"
                                     "u0,i0,1,0,new,i0,g0\n")
        schema = make_schema()
        other = FieldSchema(schema.fields, schema.bias_field,
                            {**schema.categories, "user": ("someone",)})
        index = FeatureIndex(other)
        with pytest.raises(ConfigError, match="another schema"):
            ingest_csv(path, schema, index)
        assert index.labels("user") == ("someone", "user:1", "user:2", "user:3")

    def test_csv_module_error_reports_its_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("user_id,item_id,label,timestamp,user,item,group\n"
                        "u0,i0,1,0,u0,i0,g0\n"
                        f"u0,{'x' * (csv.field_size_limit() + 1)},1,1,u0,i0,g0\n")
        with pytest.raises(CsvParseError, match="field limit") as e:
            ingest_csv(path, make_schema())
        assert e.value.line_no == 3


# --- columnar CSV I/O against the row loops in tests/oracles.py -----------

LETTERS = st.sampled_from(list('ab,;" \'é\n\r'))
CATEGORY = st.text(LETTERS, min_size=1, max_size=3)


@st.composite
def schemas(draw):
    """1-3 fields, some multi-valued, partial vocabularies, odd characters."""
    fields, categories, multi = [], {}, []
    for f in range(draw(st.integers(1, 3))):
        name, card = f"f{f}", draw(st.integers(2, 5))
        fields.append((name, card))
        multi.append(draw(st.booleans()))
        vocab = draw(st.lists(CATEGORY, max_size=card, unique=True))
        if vocab:
            categories[name] = tuple(vocab)
    threshold = draw(st.one_of(st.none(), st.sampled_from([0.5, 2.0])))
    schema = FieldSchema(tuple(fields), "f0", categories, threshold)
    return schema, multi


@st.composite
def datasets(draw):
    """Valid datasets whose rows hold live entries in any column order,
    with padding between them and widths that differ from row to row."""
    schema, multi = draw(schemas())
    n = draw(st.integers(0, 9))
    rows = []
    for _ in range(n):
        entries = []
        for (name, card), many in zip(schema.fields, multi):
            m = draw(st.integers(1, min(3, card) if many else 1))
            for local in draw(st.lists(st.integers(0, card - 1), min_size=m,
                                       max_size=m, unique=True)):
                entries.append((schema.offset(name) + local, 1.0 / m))
        entries += [(0, 0.0)] * draw(st.integers(0, 2))
        rows.append(draw(st.permutations(entries)))
    width = max((len(r) for r in rows), default=0)
    indices = np.zeros((n, width), dtype=np.int64)
    values = np.zeros((n, width))
    for i, row in enumerate(rows):
        for j, (index, value) in enumerate(row):
            indices[i, j], values[i, j] = index, value
    ids = st.lists(st.text(LETTERS, max_size=3), min_size=n, max_size=n)
    return dataset(schema, indices, values,
                   draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
                   draw(ids), draw(ids),
                   draw(st.lists(st.integers(-2 ** 40, 2 ** 40), min_size=n,
                                 max_size=n)))


def cell_text(draw, schema, name, many, spill):
    """A cell of 1-3 categories from the vocabulary and unseen ones, with
    one more than the field holds if `spill`; '|'-joined in random order."""
    vocab = schema.categories.get(name, ())
    spare = schema.cardinality(name) - len(vocab)
    pool = list(vocab) + [f"{name}n{j}" for j in range(spare + spill)]
    m = draw(st.integers(1, min(3, len(pool)) if many else 1))
    return "|".join(draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m,
                                  unique=True)))


@st.composite
def csv_logs(draw, schema, multi):
    """CSV text for `schema`, rows in arbitrary order, labels per threshold."""
    label_cells = (["0", "1"] if schema.label_threshold is None
                   else ["0", "1", "2.5", "-1", "7e0"])
    spill = draw(st.booleans())
    rows = [[draw(st.text(LETTERS, max_size=3)), draw(st.text(LETTERS, max_size=3)),
             draw(st.sampled_from(label_cells)), str(draw(st.integers(-99, 99)))]
            + [cell_text(draw, schema, name, many, spill)
               for (name, _), many in zip(schema.fields, multi)]
            for _ in range(draw(st.integers(0, 9)))]
    return rows, draw(st.sampled_from(["\n", "\r\n", "\r"]))


def write_rows(path, schema, rows, terminator="\n"):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator=terminator)
        writer.writerow(list(data.RESERVED_COLUMNS) + list(schema.field_names))
        writer.writerows(rows)


def outcome(read, path, schema, index):
    """The Dataset read, or the (class, message) of the exception raised."""
    try:
        return read(path, schema, index, split_tag="x")
    except (ConfigError, OverflowError) as exc:
        return type(exc), str(exc)


def assert_same_outcome(got, want):
    if isinstance(want, tuple) or isinstance(got, tuple):
        assert got == want
        return
    for name in ("indices", "values", "labels", "user_ids", "item_ids", "timestamps",
                 "user_vocab", "item_vocab"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(a, b), name
    assert got.bias_labels == want.bias_labels
    assert got.split_tag == want.split_tag


IO_SETTINGS = settings(max_examples=80, deadline=None,
                       suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestColumnarCsvAgainstRowLoops:
    @IO_SETTINGS
    @given(datasets(), st.integers(1, 4))
    def test_to_csv_bytes_equal_oracle(self, tmp_path, ds, block):
        with mock.patch.object(data, "CSV_BLOCK_ROWS", block):
            ds.to_csv(tmp_path / "new.csv")
        to_csv_reference(ds, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @IO_SETTINGS
    @given(datasets(), st.integers(1, 4))
    def test_to_csv_round_trip_equals_oracle_ingest(self, tmp_path, ds, block):
        path = tmp_path / "log.csv"
        to_csv_reference(ds, path)
        with mock.patch.object(data, "CSV_BLOCK_ROWS", block):
            got = outcome(ingest_csv, path, ds.schema, FeatureIndex(ds.schema))
        want = outcome(ingest_csv_reference, path, ds.schema, FeatureIndex(ds.schema))
        assert_same_outcome(got, want)

    @IO_SETTINGS
    @given(st.data(), st.integers(1, 4))
    def test_ingest_two_files_equals_oracle(self, tmp_path, draw, block):
        schema, multi = draw.draw(schemas())
        paths = []
        for name in ("a.csv", "b.csv"):
            rows, terminator = draw.draw(csv_logs(schema, multi))
            paths.append(tmp_path / name)
            write_rows(paths[-1], schema, rows, terminator)
        new, old = FeatureIndex(schema), FeatureIndex(schema)
        for path in paths:
            with mock.patch.object(data, "CSV_BLOCK_ROWS", block):
                got = outcome(ingest_csv, path, schema, new)
            want = outcome(ingest_csv_reference, path, schema, old)
            assert_same_outcome(got, want)
            if isinstance(want, tuple):
                return  # index state after an error is unspecified
        assert new._maps == old._maps
        assert [list(m) for m in new._maps.values()] == \
            [list(m) for m in old._maps.values()]

    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    def test_rows_across_block_boundaries(self, tmp_path, rng, block, monkeypatch):
        ds = random_dataset(rng, n_rows=23, multi_group_prob=0.3)
        # multi-valued rows only in some blocks, so block widths differ
        ds = ds.subset(np.argsort(ds.values.min(axis=1) < 1, kind="stable"))
        monkeypatch.setattr(data, "CSV_BLOCK_ROWS", block)
        ds.to_csv(tmp_path / "new.csv")
        to_csv_reference(ds, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        assert_same_outcome(
            ingest_csv(tmp_path / "new.csv", ds.schema, split_tag="x"),
            ingest_csv_reference(tmp_path / "new.csv", ds.schema, split_tag="x"))

    def test_to_csv_non_string_ids_equal_oracle(self, tmp_path):
        ds = dataset(make_schema(), [[0, 4, 10]] * 3, [[1.0, 1.0, 1.0]] * 3, [1, 0, 1],
                     np.array([7, 8, 7]), np.array([0.5, "a,b", 0.5], dtype=object),
                     [0, 1, 2])
        ds.to_csv(tmp_path / "new.csv")
        to_csv_reference(ds, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_int64_boundary_timestamps_ingest(self, tmp_path):
        schema = make_schema()
        # digits with an optional '-' parse from their bytes, any other
        # form that int() accepts goes through int()
        stamps = {str(-2 ** 63): -2 ** 63, str(2 ** 63 - 1): 2 ** 63 - 1, "0": 0,
                  "+5": 5, " 5": 5, "5 ": 5, "007": 7, "1_000": 1000, "-0": 0,
                  "9" * 18: 10 ** 18 - 1, "-" + "9" * 18: 1 - 10 ** 18,
                  "1" + "0" * 18: 10 ** 18, "-1" + "0" * 18: -10 ** 18, "\u0663": 3}
        rows = [["u", "i", "1", cell, "u0", "i0", "g0"] for cell in stamps]
        write_rows(tmp_path / "t.csv", schema, rows)
        got = ingest_csv(tmp_path / "t.csv", schema, split_tag="x")
        assert got.timestamps.tolist() == list(stamps.values())
        assert_same_outcome(
            got, ingest_csv_reference(tmp_path / "t.csv", schema, split_tag="x"))

    @pytest.mark.parametrize("block", [1, 3, data.CSV_BLOCK_ROWS])
    def test_keys_wider_than_eight_bytes_equal_oracle(self, tmp_path, monkeypatch, block):
        # ids and categories of 1 to 30 bytes, multi-byte UTF-8 among them,
        # and pairs that differ only after their eighth byte
        rng = np.random.default_rng(5)
        ids = [f"{k:020x}" for k in rng.integers(2 ** 62, size=6)]
        ids += ["é" * 9, "abcdefgh-1", "abcdefgh-2", "abcdefgh", "u"]
        tags = ["catégorie-longue", "catégorie-longuf", "tag-0123456789-abcdef",
                "x", "ab", "12345678", "123456789", "ü" * 15]
        schema = FieldSchema(fields=(("tag", 9), ("g", 3)), bias_field="g",
                             categories={"tag": ("123456789",),
                                         "g": ("group-é-one", "g2")})
        rows = []
        for k in range(40):
            picked = rng.choice(len(tags), size=rng.integers(1, 4), replace=False)
            rows.append([ids[rng.integers(len(ids))], ids[rng.integers(len(ids))],
                         str(k % 2), str(k), "|".join(tags[j] for j in picked),
                         ["group-é-one", "g2", "group-é-two"][k % 3]])
        monkeypatch.setattr(data, "CSV_BLOCK_ROWS", block)
        for name, quoting in (("plain.csv", csv.QUOTE_MINIMAL), ("quoted.csv", csv.QUOTE_ALL)):
            path = tmp_path / name
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh, lineterminator="\n", quoting=quoting)
                writer.writerow(list(data.RESERVED_COLUMNS) + list(schema.field_names))
                writer.writerows(rows)
            new, old = FeatureIndex(schema), FeatureIndex(schema)
            assert_same_outcome(ingest_csv(path, schema, new, split_tag="x"),
                                ingest_csv_reference(path, schema, old, split_tag="x"))
            assert [list(m) for m in new._maps.values()] == \
                [list(m) for m in old._maps.values()]

    def test_nul_bytes_keep_keys_apart(self, tmp_path):
        # from Python 3.11 the csv module reads NUL bytes, and a key with a
        # trailing NUL is another category than the key without it, at any
        # width; before 3.11 both readers refuse the line alike
        tags = ["ab", "ab\0", "a\0b", "abcdefghijk", "abcdefghijk\0", "abcdefghij\0k",
                "abcdefghij\0\0"]
        schema = FieldSchema(fields=(("tag", len(tags)), ("g", 2)), bias_field="g")
        path = tmp_path / "nul.csv"
        path.write_text("".join(["user_id,item_id,label,timestamp,tag,g\n"]
                                + [f"u,i,1,{k},{tag},g\n" for k, tag in enumerate(tags * 2)]),
                        encoding="utf-8")
        new, old = FeatureIndex(schema), FeatureIndex(schema)
        got = outcome(ingest_csv, path, schema, new)
        assert_same_outcome(got, outcome(ingest_csv_reference, path, schema, old))
        if not isinstance(got, tuple):
            assert new.labels("tag") == tuple(tags)
            assert got.indices[:, 0].tolist() == list(range(len(tags))) * 2

    def test_byte_order_mark_is_skipped(self, tmp_path, rng):
        ds = random_dataset(rng, n_rows=30, multi_group_prob=0.3)
        ds.to_csv(tmp_path / "log.csv")
        (tmp_path / "bom.csv").write_bytes(b"\xef\xbb\xbf" + (tmp_path / "log.csv").read_bytes())
        got = ingest_csv(tmp_path / "bom.csv", ds.schema, split_tag="x")
        assert_same_outcome(got, ingest_csv(tmp_path / "log.csv", ds.schema, split_tag="x"))
        assert_same_outcome(got, ingest_csv_reference(tmp_path / "bom.csv", ds.schema,
                                                      split_tag="x"))

    def test_empty_log_keeps_row_loop_dtypes(self, tmp_path):
        schema = make_schema()
        write_rows(tmp_path / "e.csv", schema, [])
        assert_same_outcome(ingest_csv(tmp_path / "e.csv", schema, split_tag="x"),
                            ingest_csv_reference(tmp_path / "e.csv", schema, split_tag="x"))


HEADER = "user_id,item_id,label,timestamp,a,g\n"
BAD = "\udcff"  # the byte 0xff, which is not UTF-8, as errors="surrogateescape" reads it
ERROR_CASES = {
    "empty file": "",
    "wrong header": "user_id,item_id,label,timestamp,g,a\n",
    "too few columns": HEADER + "u,i,1,0,x,p\nu,i,1,1,x\n",
    "too many columns": HEADER + "u,i,1,0,x,p,extra\n",
    "timestamp": HEADER + "u,i,1,0,x,p\nu,i,1,1.5,x,p\n",
    "huge timestamp": HEADER + "u,i,1,99999999999999999999,x,p\n",
    "label": HEADER + "u,i,x,0,x,p\n",
    "NaN label": HEADER + "u,i,1,0,x,p\nu,i,nan,1,x,p\n",
    "empty cell, first field": HEADER + "u,i,1,0,,p\n",
    "empty cell, multi-valued field": HEADER + "u,i,1,0,x|y,p\nu,i,1,1,x,\n",
    "bare separator": HEADER + "u,i,1,0,|,p\n",
    "duplicate": HEADER + "u,i,1,0,x|y|x,p\n",
    "overflow": HEADER + "u,i,1,0,x,p\nu,i,1,1,y,p\nu,i,1,2,z,p\nu,i,1,3,w,p\n",
    "overflow in a multi-valued cell": HEADER + "u,i,1,0,x|y,p\nu,i,1,1,z|w,p\n",
    # two different errors on different lines: the earlier line wins
    "count before timestamp": HEADER + "u,i,1,0,x\nu,i,1,t,x,p\n",
    "timestamp before count": HEADER + "u,i,1,t,x,p\nu,i,1,0,x\n",
    "empty before overflow": HEADER + "u,i,1,0,x,\nu,i,1,1,y|z|w,p\n",
    "overflow before label": HEADER + "u,i,1,0,x|y|z|w,p\nu,i,x,1,x,p\n",
    "duplicate before count": HEADER + "u,i,1,0,x,p|p\nu,i,1,1\n",
    "label before empty": HEADER + "u,i,x,0,x,p\nu,i,1,1,,p\n",
    "far apart": HEADER + "u,i,1,0,x,p\n" * 5 + "u,i,1,5,x,\n" + "u,i,1,6,x,p\n" * 3
                 + "u,i,1,t,x,p\n",
    # two errors on one line: column count, timestamp, label, cells by field
    "timestamp and label": HEADER + "u,i,x,t,x,p\n",
    "label and empty cell": HEADER + "u,i,x,0,,p\n",
    "empty cell in second field and overflow in first": HEADER
        + "u,i,1,0,x|y|z,p\nu,i,1,1,w,\n",
    "duplicate in first field and overflow in second": HEADER
        + "u,i,1,0,x,p|q\nu,i,1,1,x|x,r\n",
    "duplicate cell holding the overflow": HEADER + "u,i,1,0,x|y|z,p\nu,i,1,1,w|w,p\n",
    "huge timestamp then bad line": HEADER + "u,i,1,99999999999999999999,x,p\nu,i,1,1\n",
    "timestamp just above int64": HEADER + "u,i,1,9223372036854775808,x,p\n",
    "timestamp just below int64": HEADER + "u,i,1,0,x,p\nu,i,1,-9223372036854775809,x,p\n",
    "huge timestamp before non-integer": HEADER
        + "u,i,1,0,x,p\nu,i,1,99999999999999999999,x,p\nu,i,1,t,x,p\n",
    "non-integer before huge timestamp": HEADER
        + "u,i,1,t,x,p\nu,i,1,99999999999999999999,x,p\n",
    "huge timestamp and label": HEADER + "u,i,x,99999999999999999999,x,p\n",
    # short and long lines whose commas add up to the header's count per line
    "short line then long line": HEADER + "u,i,1,0,x\nu,i,1,1,x,p,q\n",
    "long line then short line": HEADER + "u,i,1,0,x,p,q\nu,i,1,1,x\n",
    "short line between good and long lines": HEADER
        + "u,i,1,0,x,p\nu,i,1,1\nu,i,1,2,x,p,q,r\n",
    # records the csv module reads after quote-free ones; a record counts
    # from the physical line it starts on
    "error after a multi-line quoted record": HEADER
        + 'u,i,1,0,x,p\n"u\nv",i,1,1,x,p\nu,i,1,t,x,p\n',
    "label after a record over two lines": HEADER + '"u\nv",i,1,0,x,p\nu,i,x,1,x,p\n',
    "field over the size limit after a record over two lines": HEADER
        + '"u\nv",i,1,0,x,p\nu,i,1,1,' + "x" * (csv.field_size_limit() + 1) + ",p\n",
    "field over the size limit in a record over two lines": HEADER
        + '"u\nv",i,1,0,' + "x" * (csv.field_size_limit() + 1) + ",p\n",
    # the data start after the header's last line
    "label after a header over two lines": 'user_id,item_id,label,timestamp,"a\nb",g\n'
        + "u,i,x,0,x,p\n",
    "blank line": HEADER + "u,i,1,0,x,p\n\nu,i,1,1,x,p\n",
    "error after CRLF lines": HEADER + "u,i,1,0,x,p\nu,i,1,1,x,p\r\nu,i,1,t,x,p\r\n",
    "error after a lone CR": HEADER + "u,i,1,0,x,p\nu,i,1,1,x,p\ru,i,1,t,x,p\n",
    # a byte that is not UTF-8 is named at its own line, ranked in file order
    "label after two lone-CR records": HEADER + "u,i,1,0,x,p\ru,i,1,1,x,p\ru,i,x,2,x,p\n",
    "0xff after two lone-CR records": HEADER
        + "u,i,1,0,x,p\ru,i,1,1,x,p\ru,i,1,2,x" + BAD + ",p\n",
    "label before 0xff": HEADER + "u,i,x,0,x,p\nu,i,1,1,x" + BAD + ",p\n",
    "0xff on the second line of a record": HEADER + 'u,i,1,0,x,p\n"u\nv' + BAD
        + '",i,1,1,x,p\n',
    "0xff in the header": "user_id,item_id,label,timestamp,a" + BAD + ",g\nu,i,1,0,x,p\n",
}
# the line of the file each error over a multi-line record or header, or at
# a byte that is not UTF-8, names
ERROR_LINES = {
    "error after a multi-line quoted record": 5,
    "label after a record over two lines": 4,
    "field over the size limit after a record over two lines": 4,
    "field over the size limit in a record over two lines": 2,
    "label after a header over two lines": 3,
    "label after two lone-CR records": 4,
    "0xff after two lone-CR records": 4,
    "label before 0xff": 2,
    "0xff on the second line of a record": 4,
    "0xff in the header": 1,
}
LINE_END_VARIANTS = {"lone CR": "\r", "CRLF": "\r\n"}
for _case in list(ERROR_LINES):  # each again with every line ended by a lone CR or CRLF
    for _variant, _end in LINE_END_VARIANTS.items():
        ERROR_CASES[f"{_case}, {_variant}"] = ERROR_CASES[_case].replace("\n", _end)
        ERROR_LINES[f"{_case}, {_variant}"] = ERROR_LINES[_case]


@pytest.mark.parametrize("block", [1, 2, 3, data.CSV_BLOCK_ROWS])
@pytest.mark.parametrize("threshold", [None, 0.5])
@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_error_parity_with_row_loop(tmp_path, monkeypatch, case, threshold, block):
    first = "a\nb" if "header over two lines" in case else "a"
    variant = case.rpartition(", ")[2]
    first = first.replace("\n", LINE_END_VARIANTS.get(variant, "\n"))
    schema = FieldSchema(fields=((first, 3), ("g", 2)), bias_field="g",
                         label_threshold=threshold)
    path = tmp_path / "bad.csv"
    path.write_bytes(ERROR_CASES[case].encode("utf-8", "surrogateescape"))
    want = outcome(ingest_csv_reference, path, schema, FeatureIndex(schema))
    assert isinstance(want, tuple), "every case is malformed"
    if case in ERROR_LINES:
        assert f"{path}:{ERROR_LINES[case]}: " in want[1]
    monkeypatch.setattr(data, "CSV_BLOCK_ROWS", block)
    assert outcome(ingest_csv, path, schema, FeatureIndex(schema)) == want


# --- quote-free blocks are cut at their separators, the rest by the csv module

HAND_OVER_SCHEMA = FieldSchema(fields=(("a", 8), ("g", 3)), bias_field="g",
                               categories={"g": ("p",)})
# what follows block + 1 quote-free records, so it starts a later block; the
# CRLF and lone-CR cases stay on the numpy path, the rest go to the csv module
HAND_OVER = {
    "quoted comma": b'u,i,1,7,"x,y",p\nu,i,0,8,x1,p\n',
    "quoted quote": b'u,i,1,7,"x""y",p\nu,i,0,8,x1,p\n',
    "quoted newline": b'"u\nv",i,1,7,x1,"p"\nu,i,0,8,x1,p\n',
    "error after a multi-line quoted record": b'u,i,1,7,"x\ny",p\nu,i,1,t,x1,p\n',
    "CRLF from mid-file": b"u,i,1,7,x1,p\r\nu,i,0,8,x2,p\r\n",
    "lone CR mid-file": b"u,i,1,7,x1,p\ru,i,0,8,x2,p\n",
    "NUL byte": b"u,i,1,7,x\0,p\nu,i,0,8,x1,p\n",
    "blank line": b"u,i,1,7,x1,p\n\nu,i,0,8,x1,p\n",
    "no final newline": b"u,i,1,7,x1,p\nu,i,0,8,x1,p",
    "bad UTF-8": b"u,i,1,7,x1,p\nu,i\xff,0,8,x1,p\n",
    "extra comma": b"u,i,1,7,x1,p,\n",
    "missing comma": b"u,i,1,7,x1\n",
}
HAND_OVER_ERRORS = {  # the error each malformed case must raise, if any
    "error after a multi-line quoted record": "non-integer timestamp 't'",
    "blank line": "expected 6 columns, got 0",
    "bad UTF-8": "0xff is not UTF-8",
    "extra comma": "expected 6 columns, got 7",
    "missing comma": "expected 6 columns, got 5",
}


def quote_free_records(n):
    return b"".join(b"u%d,i%d,%d,%d,x%d,p\n" % (k, k, k % 2, k, k % 4) for k in range(n))


def assert_hand_over_equals_row_loop(path, monkeypatch, block):
    schema = HAND_OVER_SCHEMA
    want = outcome(ingest_csv_reference, path, schema, FeatureIndex(schema))
    monkeypatch.setattr(data, "CSV_BLOCK_ROWS", block)
    assert_same_outcome(outcome(ingest_csv, path, schema, FeatureIndex(schema)), want)
    return want


@pytest.mark.parametrize("block", [2, data.CSV_BLOCK_ROWS])
@pytest.mark.parametrize("quoted", [False, True], ids=["quote-free", "quoted"])
@pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["LF", "CRLF", "CR"])
def test_only_quoted_logs_reach_the_csv_module(tmp_path, monkeypatch, end, quoted, block):
    # every line end the text layer knows is cut on the numpy path; a quote
    # is the csv module's to read
    log = HEADER.encode() + quote_free_records(5) + b'"u",i,0,9,"x1",p'
    if not quoted:
        log = log.replace(b'"', b"")
    path = tmp_path / "log.csv"
    path.write_bytes(log.replace(b"\n", end))
    calls = count_calls(monkeypatch, data, "_record_tokens")
    assert not isinstance(assert_hand_over_equals_row_loop(path, monkeypatch, block), tuple)
    assert len(calls) == quoted  # the quoted record's block alone


QUOTED_ONCE = {  # logs whose one quoted record lies in one block at block sizes 2 and 3
    "quoted first record": HEADER.encode() + b'"u",i,0,9,x1,p\n' + quote_free_records(9),
    # lines 7-8: it starts on the last line of a block at either size
    "quoted record over a block end": HEADER.encode() + quote_free_records(5)
    + b'"u\nv",i,1,7,x1,p\n' + quote_free_records(3),
}


@pytest.mark.parametrize("block", [2, 3])
@pytest.mark.parametrize("case", sorted(QUOTED_ONCE))
def test_only_the_quoted_block_reaches_the_csv_module(tmp_path, monkeypatch, case, block):
    # the blocks after a quoted one go back to the numpy path
    path = tmp_path / "log.csv"
    path.write_bytes(QUOTED_ONCE[case])
    calls = count_calls(monkeypatch, data, "_record_tokens")
    assert not isinstance(assert_hand_over_equals_row_loop(path, monkeypatch, block), tuple)
    assert len(calls) == 1


@pytest.mark.parametrize("block", [1, 2, 3, data.CSV_BLOCK_ROWS])
@pytest.mark.parametrize("case", sorted(HAND_OVER))
def test_hand_over_to_csv_module_equals_row_loop(tmp_path, monkeypatch, case, block):
    path = tmp_path / "log.csv"
    path.write_bytes(b"user_id,item_id,label,timestamp,a,g\n"
                     + quote_free_records(block + 1) + HAND_OVER[case])
    want = assert_hand_over_equals_row_loop(path, monkeypatch, block)
    if case in HAND_OVER_ERRORS:
        assert HAND_OVER_ERRORS[case] in want[1]


@pytest.fixture
def field_limit_25():
    old = csv.field_size_limit(25)
    yield
    csv.field_size_limit(old)


@pytest.mark.parametrize("block", [1, 2, 3, data.CSV_BLOCK_ROWS])
@pytest.mark.parametrize("tail, error", [
    (b"u,i,1,7," + b"x" * 26 + b",p\n", "field larger than field limit (25)"),
    (b"u" * 25 + b",i,1,7,x1,p\n", None),  # the line is over the limit, no field is
])
def test_hand_over_at_the_field_size_limit(tmp_path, monkeypatch, field_limit_25,
                                           block, tail, error):
    path = tmp_path / "log.csv"
    path.write_bytes(b"user_id,item_id,label,timestamp,a,g\n"
                     + quote_free_records(4) + tail + quote_free_records(2))
    want = assert_hand_over_equals_row_loop(path, monkeypatch, block)
    if error is None:
        assert not isinstance(want, tuple)
    else:
        assert want == (CsvParseError, f"{path}:6: {error}")



# --- seeded random logs of mixed line ends and bad bytes against the row loop

LINE_ENDS = [b"\n", b"\r", b"\r\n"]
NOT_UTF8 = [b"\xff", b"\xe2\x82", b"\xed\xb2\x80"]  # bad start, truncated, a surrogate


def random_log(rng):
    """A header and up to 11 records, each line ended by LF, CR or CRLF:
    most valid, some with a quoted id over two lines, a byte that is not
    UTF-8 in any cell, or a bad label; the last line end may be missing."""
    out = [b"user_id,item_id,label,timestamp,a,g" + LINE_ENDS[rng.integers(3)]]
    for k in range(rng.integers(12)):
        cells = [b"u%d" % rng.integers(3), b"i%d\xc3\xa9" % k, b"%d" % rng.integers(2),
                 b"%d" % k, b"x%d" % rng.integers(4), b"p"]
        roll, col = rng.random(), rng.integers(6)
        if roll < 0.15:
            cells[col % 2] = b'"%s%sv"' % (cells[col % 2], LINE_ENDS[rng.integers(3)])
        elif roll < 0.22:
            cells[col] += NOT_UTF8[rng.integers(3)]
        elif roll < 0.26:
            cells[2] = b"x"
        out.append(b",".join(cells) + LINE_ENDS[rng.integers(3)])
    if rng.random() < 0.2:
        out[-1] = out[-1].rstrip(b"\r\n")
    return b"".join(out)


@pytest.mark.parametrize("seed", range(100))
def test_random_byte_logs_equal_row_loop(tmp_path, monkeypatch, seed):
    path = tmp_path / "log.csv"
    path.write_bytes(random_log(np.random.default_rng(seed)))
    schema = HAND_OVER_SCHEMA
    want = outcome(ingest_csv_reference, path, schema, FeatureIndex(schema))
    for block in (1, 3, data.CSV_BLOCK_ROWS):
        monkeypatch.setattr(data, "CSV_BLOCK_ROWS", block)
        assert_same_outcome(outcome(ingest_csv, path, schema, FeatureIndex(schema)), want)
