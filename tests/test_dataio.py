"""Schema handling, CSV parsing, encoding, and the split/subsample rules."""

import math
import os
import warnings
from dataclasses import replace

import numpy as np
import pytest

from flowcl import dataio
from flowcl.dataio import (
    DatasetSchema,
    Feature,
    PreprocessorState,
    UNLABELED,
    UnseenCategoryWarning,
    as_table,
    encode_dataset,
    fit_preprocessor,
    load_csv,
    load_encoded,
    load_schema,
    load_state,
    packaged_schema,
    random_split,
    save_encoded,
    save_schema,
    save_state,
    schema_from_dict,
    schema_to_dict,
    stratified_split,
    stratified_subsample,
    task_rows,
)
from flowcl.errors import (
    ConfigError,
    EmptyDatasetError,
    MissingLabelError,
    RowParseError,
    SchemaMismatchError,
    UnknownClassError,
)

from flowcl.synth import Record, blob_schema
from flowcl.synth import write_csv as synth_write_csv

from oracles import DenseDataset, binarize, encode_dense, filter_classes, naive_encode


PACKAGED = sorted(name[:-len(".json")] for name in
                  os.listdir(os.path.join(os.path.dirname(dataio.__file__), "schemas")))


def tiny_schema() -> DatasetSchema:
    return DatasetSchema(
        (Feature("size", "numeric"),
         Feature("proto", "categorical", ("tcp", "udp", "icmp")),
         Feature("rate", "numeric")),
        label_column="verdict",
        class_names=("ok", "bad"),
    )


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestSchema:
    def test_encoded_width_is_computable_without_data(self):
        assert tiny_schema().encoded_width == 1 + 3 + 1

    def test_block_spans_tile_the_width(self):
        assert tiny_schema().layout().spans() == [(0, 1), (1, 4), (4, 5)]

    def test_duplicate_feature_names_rejected(self):
        with pytest.raises(SchemaMismatchError):
            DatasetSchema((Feature("a", "numeric"), Feature("A", "numeric")),
                          "y", ("p", "q"))

    def test_duplicate_vocabulary_rejected(self):
        with pytest.raises(SchemaMismatchError):
            Feature("p", "categorical", ("tcp", "TCP"))

    def test_label_column_cannot_be_a_feature(self):
        with pytest.raises(SchemaMismatchError):
            DatasetSchema((Feature("a", "numeric"),), "a", ("p", "q"))

    def test_label_alias_resolves_to_canonical_class(self):
        schema = DatasetSchema((Feature("a", "numeric"),), "y", ("ok", "bad"),
                               label_aliases=(("nasty", "bad"),))
        assert schema.class_index("nasty") == 1
        assert schema.class_index("OK") == 0  # case-insensitive

    def test_unknown_label_rejected(self):
        with pytest.raises(UnknownClassError):
            tiny_schema().class_index("meh")

    def test_json_roundtrip_preserves_fingerprint(self, tmp_path):
        schema = tiny_schema()
        path = str(tmp_path / "s.json")
        save_schema(path, schema)
        loaded = load_schema(path)
        assert loaded == schema
        assert loaded.fingerprint() == schema.fingerprint()

    def test_unknown_keys_rejected(self):
        doc = schema_to_dict(tiny_schema())
        doc["surprise"] = 1
        with pytest.raises(SchemaMismatchError):
            schema_from_dict(doc)

    def test_packaged_unsw_smaller_has_width_196(self):
        schema = packaged_schema("unsw_nb15_smaller")
        assert schema.encoded_width == 196
        assert len(schema.class_names) == 10
        assert schema.class_index("DoS") == schema.class_names.index("Dos")
        assert schema.class_index("Backdoor") == schema.class_names.index("Backdoors")


def parse(tmp_path, rows, unseen=None):
    """load_csv of (size, proto, rate, verdict) rows under tiny_schema; a None verdict is empty."""
    path = str(tmp_path / "rows.csv")
    synth_write_csv(path, tiny_schema(), [Record(row[:3], row[3]) for row in rows])
    return load_csv(path, tiny_schema(), unseen)


class TestLoadCsv:
    def test_well_formed_file(self, tmp_path):
        path = write_csv(tmp_path / "d.csv",
                         "size,proto,rate,verdict\n"
                         "1.0,tcp,0.5,ok\n"
                         "2.0,udp,0.25,bad\n"
                         "3.0,icmp,0.125,ok\n")
        table = load_csv(path, tiny_schema())
        assert len(table) == 3
        np.testing.assert_array_equal(table.numeric, [[1.0, 0.5], [2.0, 0.25], [3.0, 0.125]])
        np.testing.assert_array_equal(table.codes, [[0], [1], [2]])
        np.testing.assert_array_equal(table.labels, [0, 1, 0])

    def test_header_order_is_irrelevant(self, tmp_path):
        path = write_csv(tmp_path / "d.csv",
                         "verdict,rate,proto,size\nok,0.5,tcp,1.0\n")
        table = load_csv(path, tiny_schema())
        np.testing.assert_array_equal(table.numeric, [[1.0, 0.5]])
        np.testing.assert_array_equal(table.codes, [[0]])

    def test_extra_columns_ignored(self, tmp_path):
        path = write_csv(tmp_path / "d.csv",
                         "id,size,proto,rate,verdict\n7,1.0,tcp,0.5,ok\n")
        assert len(load_csv(path, tiny_schema())) == 1

    def test_repeated_header_name_reads_the_first_column(self, tmp_path):
        path = write_csv(tmp_path / "d.csv",
                         "size,proto,Size,rate,verdict\n1.0,tcp,9.0,0.5,ok\n")
        np.testing.assert_array_equal(load_csv(path, tiny_schema()).numeric, [[1.0, 0.5]])

    def test_missing_label_column_rejected(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "size,proto,rate\n1.0,tcp,0.5\n")
        with pytest.raises(SchemaMismatchError):
            load_csv(path, tiny_schema())

    def test_missing_feature_column_rejected(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "size,rate,verdict\n1.0,0.5,ok\n")
        with pytest.raises(SchemaMismatchError):
            load_csv(path, tiny_schema())

    def test_malformed_numeric_names_the_row(self, tmp_path):
        path = write_csv(tmp_path / "d.csv",
                         "size,proto,rate,verdict\n1.0,tcp,0.5,ok\nzap,tcp,0.5,ok\n")
        with pytest.raises(RowParseError) as err:
            load_csv(path, tiny_schema())
        assert err.value.row == 2

    @pytest.mark.parametrize("block_rows", [1, 2, 3, 512])
    def test_first_bad_row_is_named_across_blocks(self, tmp_path, monkeypatch, block_rows):
        """Row numbers count blank lines; an earlier bad cell beats a later short row."""
        monkeypatch.setattr(dataio, "PARSE_BLOCK_ROWS", block_rows)
        path = write_csv(tmp_path / "d.csv",
                         "size,proto,rate,verdict\n1.0,tcp,0.5,ok\n\n"
                         "2.0,tcp,0.5,ok\n3.0,tcp,inf,ok\nzap,tcp,0.5,ok\n4.0,tcp\n")
        with pytest.raises(RowParseError, match="row 4: feature rate: 'inf'"):
            load_csv(path, tiny_schema())
        path = write_csv(tmp_path / "d.csv", "size,proto,rate,verdict\n1.0,tcp,0.5,ok\n"
                         "\n2.0,tcp,0.5,ok\n4.0,tcp\nzap,tcp,0.5,ok\n")
        with pytest.raises(RowParseError, match="row 4: expected 4 fields"):
            load_csv(path, tiny_schema())
        path = write_csv(tmp_path / "d.csv", "size,proto,rate,verdict\n"
                         + "".join(f"{k}.0,udp,0.5,bad\n" for k in range(7)))
        table = load_csv(path, tiny_schema())
        np.testing.assert_array_equal(table.numeric[:, 0], np.arange(7.0))
        assert table.codes.ravel().tolist() == [1] * 7 and table.labels.tolist() == [1] * 7

    def test_non_utf8_text_names_the_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"size,proto,rate,verdict\n1.0,tcp,0.5,Web Attack \x96 XSS\n")
        with pytest.raises(SchemaMismatchError, match="d.csv is not UTF-8 text: byte 0x96"):
            load_csv(str(path), tiny_schema())

    def test_csv_module_error_names_the_line(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "size,proto,rate,verdict\n1.0,tcp,0.5,ok\n"
                         + "2.0,tcp,0.5," + "x" * 131073 + "\n")
        with pytest.raises(SchemaMismatchError, match="d.csv, line 3: field larger"):
            load_csv(path, tiny_schema())

    def test_empty_label_is_unlabeled(self, tmp_path):
        assert parse(tmp_path, [(1.0, "tcp", 0.5, None)]).labels.tolist() == [UNLABELED]

    def test_unknown_label_rejected_at_parse(self, tmp_path):
        with pytest.raises(UnknownClassError, match="'meh'"):
            parse(tmp_path, [(1.0, "tcp", 0.5, "ok"), (1.0, "tcp", 0.5, "meh")])

    def test_unknown_label_names_the_file_and_line(self, tmp_path):
        labels = ["ok"] * (dataio.PARSE_BLOCK_ROWS + 2) + ["meh"]
        rows = "".join(f"1.0,tcp,0.5,{label}\n" for label in labels)
        path = write_csv(tmp_path / "d.csv", "size,proto,rate,verdict\n\n" + rows)
        # Header on line 1, a blank line 2, then the rows: 'meh' is in the second block.
        with pytest.raises(UnknownClassError,
                           match=f"d.csv, line {dataio.PARSE_BLOCK_ROWS + 5}: label 'meh'"):
            load_csv(path, tiny_schema())

    def test_categories_coded_case_insensitively_with_mask(self, tmp_path):
        table = parse(tmp_path, [(1.0, " UDP ", 0.5, "ok"), (1.0, "-", 0.5, "BAD")])
        assert table.codes.ravel().tolist() == [1, -1]
        assert table.labels.tolist() == [0, 1]

    def test_unseen_categories_coded_and_tallied_at_parse(self, tmp_path):
        unseen = {}
        with pytest.warns(UnseenCategoryWarning, match="unseen category"):
            table = parse(tmp_path, [(1.0, "gre", 15.0, "ok"), (1.0, "GRE", 15.0, "ok")],
                          unseen)
        assert table.codes.ravel().tolist() == [-1, -1]
        assert unseen == {"proto": 2}


class TestPreprocessor:
    def test_min_max_fit(self, tmp_path):
        table = parse(tmp_path, [(v, "tcp", v + 1.0, "ok") for v in (4.0, 2.0, 10.0)])
        state = fit_preprocessor(table, tiny_schema())
        assert state.minima[0] == 2.0 and state.maxima[0] == 10.0

    def test_constant_feature_flagged_degenerate(self, tmp_path):
        table = parse(tmp_path, [(5.0, "tcp", 1.0, "ok"), (5.0, "udp", 2.0, "ok")])
        with pytest.warns(UserWarning, match="constant"):
            state = fit_preprocessor(table, tiny_schema())
        assert state.degenerate_features() == ("size",)

    def test_single_record_is_all_degenerate(self, tmp_path):
        with pytest.warns(UserWarning):
            state = fit_preprocessor(parse(tmp_path, [(1.0, "tcp", 2.0, "ok")]), tiny_schema())
        assert set(state.degenerate_features()) == {"size", "rate"}

    def test_empty_input_rejected(self, tmp_path):
        with pytest.raises(EmptyDatasetError):
            fit_preprocessor(parse(tmp_path, []), tiny_schema())


def dense(table):
    """Every row of a table, built dense."""
    return table.dense(np.arange(len(table)))


def encode_one(tmp_path, row, state):
    """encode_dataset on a one-row table: (dense encoded row, class index)."""
    ds = encode_dataset(parse(tmp_path, [row]), state)
    return dense(ds)[0], int(ds.labels[0])


class TestTransform:
    @pytest.fixture()
    def state(self, tmp_path):
        table = parse(tmp_path, [(0.0, "tcp", 10.0, "ok"), (4.0, "udp", 30.0, "bad")])
        return fit_preprocessor(table, tiny_schema())

    def test_endpoints_map_to_zero_and_one(self, tmp_path, state):
        lo, _ = encode_one(tmp_path, (0.0, "tcp", 10.0, "ok"), state)
        hi, _ = encode_one(tmp_path, (4.0, "tcp", 30.0, "ok"), state)
        assert lo[0] == 0.0 and hi[0] == 1.0
        assert lo[4] == 0.0 and hi[4] == 1.0

    def test_midpoint_maps_to_half(self, tmp_path, state):
        mid, _ = encode_one(tmp_path, (2.0, "tcp", 20.0, "ok"), state)
        assert mid[0] == 0.5 and mid[4] == 0.5

    def test_out_of_range_values_clipped(self, tmp_path, state):
        row, _ = encode_one(tmp_path, (-3.0, "tcp", 99.0, "ok"), state)
        assert row[0] == 0.0 and row[4] == 1.0

    def test_one_hot_block(self, tmp_path, state):
        row, label = encode_one(tmp_path, (1.0, "udp", 15.0, "bad"), state)
        np.testing.assert_array_equal(row[1:4], [0.0, 1.0, 0.0])
        assert label == 1

    def test_dash_masks_categorical_block(self, tmp_path, state):
        row, _ = encode_one(tmp_path, (1.0, "-", 15.0, "ok"), state)
        np.testing.assert_array_equal(row[1:4], [0.0, 0.0, 0.0])

    def test_unseen_category_masked_and_counted(self, tmp_path, state):
        unseen = {}
        with pytest.warns(UnseenCategoryWarning):
            ds = encode_dataset(parse(tmp_path, [(1.0, "gre", 15.0, "ok")], unseen), state)
        np.testing.assert_array_equal(dense(ds)[0, 1:4], [0.0, 0.0, 0.0])
        assert unseen == {"proto": 1}

    def test_degenerate_feature_encodes_to_zero(self, tmp_path):
        table = parse(tmp_path, [(5.0, "tcp", 1.0, "ok"), (5.0, "tcp", 3.0, "ok")])
        with pytest.warns(UserWarning):
            state = fit_preprocessor(table, tiny_schema())
        row, _ = encode_one(tmp_path, (7.0, "tcp", 2.0, "ok"), state)
        assert row[0] == 0.0

    def test_deterministic_and_in_unit_box(self, tmp_path, state):
        rng = np.random.default_rng(3)
        table = parse(tmp_path, [(float(rng.normal(2, 5)), "udp", float(rng.normal(20, 30)), "ok")
                                 for _ in range(25)])
        a, b = dense(encode_dataset(table, state)), dense(encode_dataset(table, state))
        np.testing.assert_array_equal(a, b)
        assert a.min() >= 0.0 and a.max() <= 1.0

    def test_fit_then_transform_spans_unit_interval(self, tmp_path):
        rng = np.random.default_rng(11)
        table = parse(tmp_path, [(float(rng.uniform(-5, 5)), "tcp", float(rng.uniform(0, 9)), "ok")
                                 for _ in range(40)])
        x = dense(encode_dataset(table, fit_preprocessor(table, tiny_schema())))
        assert x[:, 0].min() == 0.0 and x[:, 0].max() == 1.0
        assert x[:, 4].min() == 0.0 and x[:, 4].max() == 1.0

    def test_matches_per_record_reference_bit_for_bit(self, tmp_path):
        inf, nan = float("inf"), float("nan")
        schema = DatasetSchema(
            (Feature("size", "numeric"),
             Feature("proto", "categorical", ("tcp", "UDP", "icmp")),
             Feature("rate", "numeric")),
            label_column="label", class_names=("ok", "bad"),
            label_aliases=(("malicious", "bad"),))
        # Hand-set finite extrema, which the target rows below overshoot both ways.
        state = PreprocessorState(schema, np.array([0.0, -2.0]), np.array([4.0, 8.0]))
        cells = [-0.0, 0.0, nan, inf, -inf, -5.0, 9.0, 2.0, 1e308, -1e308]
        protos = ["tcp", "udp", "Udp", "ICMP", "-", "gre", "Tcp", "GRE", "x", "udp"]
        labels = ["ok", "bad", "Malicious", None, "OK", "malicious", "bad", None, "ok", "Bad"]
        records = [Record((size, proto, rate), label)
                   for size, proto, rate, label in zip(
                       cells, protos, reversed(cells), labels)]
        records += [Record((-0.0, "-", -0.0), None), Record((nan, "tcp", -inf), "ok")]
        records *= 8  # long enough columns for numpy's vectorised loops
        # load_csv rejects non-finite cells: the CSV carries 0.0 in their place,
        # and the table gets the true numerics directly.
        path = str(tmp_path / "cells.csv")
        synth_write_csv(path, schema, [
            Record(tuple(v if not isinstance(v, float) or math.isfinite(v) else 0.0
                         for v in rec.values), rec.label) for rec in records])
        numeric = np.array([[rec.values[0], rec.values[2]] for rec in records])
        got_unseen, want_unseen = {}, {}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            table = replace(load_csv(path, schema, got_unseen), numeric=numeric)
            got = encode_dataset(table, state)
            want = [naive_encode(rec, state, want_unseen) for rec in records]
        want_x = np.array([row for row, _ in want])
        assert dense(got).tobytes() == want_x.tobytes()
        assert got.labels.tolist() == [label for _, label in want]
        assert got_unseen == want_unseen == {"proto": 24}


def labeled_dataset(counts: dict[int, int], n_classes=3, width=4, seed=0) -> DenseDataset:
    rng = np.random.default_rng(seed)
    labels = np.concatenate([np.full(n, c, dtype=np.int64) for c, n in counts.items()])
    x = rng.uniform(size=(labels.size, width))
    names = tuple(f"c{i}" for i in range(n_classes))
    return DenseDataset(x, labels, names)


class TestStratifiedSubsample:
    def test_fraction_one_is_identity(self):
        ds = labeled_dataset({0: 10, 1: 5})
        idx = stratified_subsample(ds.labels, 1.0, seed=1)
        np.testing.assert_array_equal(idx, np.arange(len(ds)))

    def test_five_percent_of_200_is_10(self):
        ds = labeled_dataset({0: 200, 1: 40})
        idx = stratified_subsample(ds.labels, 0.05, seed=2)
        assert int(np.sum(ds.labels[idx] == 0)) == 10

    def test_minimum_of_one_per_class(self):
        ds = labeled_dataset({0: 40, 1: 200})
        labels = ds.labels[stratified_subsample(ds.labels, 0.01, seed=3)]
        assert int(np.sum(labels == 0)) == 1
        assert int(np.sum(labels == 1)) == 2

    def test_deterministic_under_seed(self):
        ds = labeled_dataset({0: 50, 1: 50, 2: 50})
        a = stratified_subsample(ds.labels, 0.2, seed=9)
        b = stratified_subsample(ds.labels, 0.2, seed=9)
        np.testing.assert_array_equal(a, b)
        assert np.all(np.diff(a) > 0)
        c = stratified_subsample(ds.labels, 0.2, seed=10)
        assert not np.array_equal(a, c)

    def test_unlabeled_rows_rejected(self):
        ds = labeled_dataset({0: 5, 1: 5})
        ds.labels[3] = UNLABELED
        with pytest.raises(MissingLabelError):
            stratified_subsample(ds.labels, 0.5, seed=1)
        with pytest.raises(MissingLabelError):
            stratified_split(ds.labels, 0.5, seed=1)

    def test_invalid_spec_rejected(self):
        """All three splits refuse a fraction outside (0, 1] with one ConfigError."""
        labels = labeled_dataset({0: 5, 1: 5}).labels
        for fraction in (0.0, -0.5, 1.5, math.nan):
            for split in (lambda: stratified_subsample(labels, fraction, seed=1),
                          lambda: stratified_split(labels, fraction, seed=1),
                          lambda: random_split(labels.size, fraction, seed=1)):
                with pytest.raises(ConfigError, match=r"fraction must lie in \(0, 1\]"):
                    split()


class TestSplits:
    def test_stratified_split_partitions_everything(self):
        ds = labeled_dataset({0: 30, 1: 20, 2: 10})
        train, test = stratified_split(ds.labels, 0.8, seed=4)
        assert sorted(np.concatenate([train, test]).tolist()) == list(range(60))
        train_labels = ds.labels[train]
        assert int(np.sum(train_labels == 0)) == 24
        assert int(np.sum(train_labels == 2)) == 8

    def test_random_split_sizes(self):
        a, b = random_split(50, 0.8, seed=5)
        assert len(a) == 40 and len(b) == 10
        assert sorted(np.concatenate([a, b]).tolist()) == list(range(50))

    def test_random_split_deterministic(self):
        a1, _ = random_split(30, 0.5, seed=6)
        a2, _ = random_split(30, 0.5, seed=6)
        np.testing.assert_array_equal(a1, a2)


def restricted(ds: DenseDataset, task: str, classes=None, normal_class="Normal",
               oracle: DenseDataset | None = None) -> DenseDataset:
    """task_rows' rows gathered from ds, checked against the copying oracle's dataset."""
    got = task_rows(ds.labels, ds.class_names, task, classes, normal_class)
    out = DenseDataset(ds.x[got.rows], got.labels, got.class_names)
    assert out.class_names == oracle.class_names
    assert out.labels.dtype == oracle.labels.dtype == np.int64
    np.testing.assert_array_equal(out.labels, oracle.labels)
    assert out.x.tobytes() == oracle.x.tobytes()
    return out


class TestClassFiltering:
    def test_keep_all_is_identity_up_to_relabeling(self):
        ds = labeled_dataset({0: 4, 1: 4, 2: 4})
        out = restricted(ds, "multiclass", "c2,c0,c1",
                         oracle=filter_classes(ds, ["c2", "c0", "c1"]))
        assert out.class_names == ("c2", "c0", "c1")
        assert len(out) == 12
        np.testing.assert_array_equal(out.labels[ds.labels[:] == 2][:1], [0])
        every = restricted(ds, "multiclass", oracle=filter_classes(ds, ds.class_names))
        np.testing.assert_array_equal(every.labels, ds.labels)

    def test_keep_one_class(self):
        ds = labeled_dataset({0: 4, 1: 3, 2: 2})
        out = restricted(ds, "multiclass", " c1 ", oracle=filter_classes(ds, ["c1"]))
        assert len(out) == 3
        assert set(out.labels.tolist()) == {0}

    def test_unknown_class_rejected(self):
        ds = labeled_dataset({0: 4})
        with pytest.raises(UnknownClassError):
            filter_classes(ds, ["nope"])
        with pytest.raises(UnknownClassError):
            task_rows(ds.labels, ds.class_names, "multiclass", "nope")

    def test_duplicate_class_rejected(self):
        ds = labeled_dataset({0: 4, 1: 4})
        with pytest.raises(UnknownClassError):
            filter_classes(ds, ["c0", "c0"])
        with pytest.raises(UnknownClassError):
            task_rows(ds.labels, ds.class_names, "multiclass", "c0,c0")

    def test_reordered_keep_list_with_unlabeled_rows(self):
        labels = np.array([3, -1, 0, 2, 3, 1, -1, 0, 3], dtype=np.int64)
        x = np.arange(len(labels), dtype=np.float64)[:, None]
        ds = DenseDataset(x, labels, ("c0", "c1", "c2", "c3"))
        out = restricted(ds, "multiclass", "c3,c0,c2",
                         oracle=filter_classes(ds, ["c3", "c0", "c2"]))
        assert out.class_names == ("c3", "c0", "c2")
        np.testing.assert_array_equal(out.x[:, 0], [0, 2, 3, 4, 7, 8])
        np.testing.assert_array_equal(out.labels, [0, 1, 2, 0, 1, 0])

    def test_binarize_normal_vs_rest(self):
        ds = DenseDataset(np.arange(12.0).reshape(6, 2),
                          np.array([0, 1, 2, 2, 1, 0], dtype=np.int64),
                          ("Normal", "probe", "flood"))
        out = restricted(ds, "binary", oracle=binarize(ds))
        assert out.class_names == ("Normal", "attack")
        np.testing.assert_array_equal(out.labels, [0, 1, 1, 1, 1, 0])

    def test_binary_keeps_unlabeled_rows_for_the_split_to_reject(self):
        ds = DenseDataset(np.zeros((4, 1)), np.array([1, -1, 0, 1], dtype=np.int64),
                          ("probe", "benign"))
        out = restricted(ds, "binary", normal_class="benign",
                         oracle=binarize(ds, normal_class="benign"))
        np.testing.assert_array_equal(out.labels, [0, UNLABELED, 1, 0])
        with pytest.raises(MissingLabelError):
            stratified_split(out.labels, 0.5, seed=1)

    def test_binarize_requires_known_normal_class(self):
        ds = labeled_dataset({0: 3})
        with pytest.raises(UnknownClassError):
            binarize(ds, normal_class="Normal")
        with pytest.raises(UnknownClassError):
            task_rows(ds.labels, ds.class_names, "binary", normal_class="Normal")

    def test_unknown_task_is_a_config_error(self):
        ds = labeled_dataset({0: 3})
        with pytest.raises(ConfigError):
            task_rows(ds.labels, ds.class_names, "ternary")

    def test_gather_copies_the_task_rows_at_the_given_positions(self):
        labels = np.array([2, 0, 1, 2, 0], dtype=np.int64)
        ds = DenseDataset(np.arange(5.0)[:, None], labels, ("c0", "c1", "c2"))
        task = task_rows(ds.labels, ds.class_names, "multiclass", "c2,c0")
        part = task.gather(as_table(ds.x), np.array([1, 3]))
        np.testing.assert_array_equal(dense(part)[:, 0], [1, 4])
        np.testing.assert_array_equal(part.labels, [1, 1])
        assert part.class_names == ("c2", "c0")


class TestArtifacts:
    def test_state_roundtrip_is_exact(self, tmp_path):
        table = parse(tmp_path, [(v, "tcp", v * np.pi, "ok") for v in (0.1, 0.7, 1e-9)])
        schema = tiny_schema()
        state = fit_preprocessor(table, schema)
        path = str(tmp_path / "state.json")
        save_state(path, state)
        loaded = load_state(path, schema)
        np.testing.assert_array_equal(loaded.minima, state.minima)
        np.testing.assert_array_equal(loaded.maxima, state.maxima)

    def test_state_rejects_wrong_schema(self, tmp_path):
        schema = tiny_schema()
        state = fit_preprocessor(parse(tmp_path, [(1.0, "tcp", 2.0, "ok"),
                                                  (2.0, "tcp", 4.0, "ok")]), schema)
        path = str(tmp_path / "state.json")
        save_state(path, state)
        other = DatasetSchema((Feature("size", "numeric"),), "verdict", ("ok", "bad"))
        with pytest.raises(SchemaMismatchError):
            load_state(path, other)

    def test_encoded_dataset_roundtrip(self, tmp_path):
        table = parse(tmp_path, [(1.0, "udp", 0.5, "ok"), (3.0, "-", 0.25, None),
                                 (2.0, "icmp", 0.75, "bad")])
        ds = encode_dataset(table, fit_preprocessor(table, tiny_schema()))
        path = str(tmp_path / "enc.npz")
        save_encoded(path, ds, schema_fingerprint="abc")
        loaded, meta = load_encoded(path)
        for name in ("numeric", "codes", "labels"):
            assert getattr(loaded, name).tobytes() == getattr(ds, name).tobytes()
        assert loaded.class_names == ds.class_names
        assert dense(loaded).tobytes() == dense(ds).tobytes()
        assert meta["schema_fingerprint"] == "abc"
        assert meta["layout"] == {"width": 5, "numeric": [0, 4], "starts": [1], "widths": [3]}


def cells_table(schema, n_rows, seed):
    """Numerics with -0.0, NaN, infinities and out-of-range values; codes with -1."""
    rng = np.random.default_rng(seed)
    k = schema.layout().numeric.size
    numeric = np.where(rng.random((n_rows, k)) < 0.5, rng.normal(2.0, 4.0, size=(n_rows, k)),
                       rng.choice([-0.0, 0.0, np.nan, np.inf, -np.inf, -5.0, 9.0, 1e308, -1e308],
                                  size=(n_rows, k)))
    codes = np.stack([rng.integers(-1, f.width, size=n_rows)
                      for f in schema.features if f.kind == "categorical"], axis=1)
    return dataio.FlowTable(numeric, codes, rng.integers(-1, len(schema.class_names), n_rows),
                            schema.class_names, schema.layout())


class TestDenseBuilder:
    """FlowTable.dense against the whole-matrix one-hot encoder, bit for bit."""

    @pytest.mark.parametrize("name", ["unsw_nb15_smaller", "cidds_001"])
    def test_rows_equal_the_dense_oracle(self, name):
        schema = packaged_schema(name)
        table = cells_table(schema, 300, seed=4)
        k = schema.layout().numeric.size
        minima, maxima = np.full(k, -2.0), np.full(k, 8.0)
        maxima[::3] = minima[::3]  # degenerate features encode as +0.0
        state = PreprocessorState(schema, minima, maxima)
        got, want = encode_dataset(table, state), encode_dense(table, state)
        order = np.random.default_rng(5).integers(0, 300, size=500)  # repeats, any order
        assert got.dense(order).tobytes() == want.x[order].tobytes()
        assert got.dense(slice(64, 128)).tobytes() == want.x[64:128].tobytes()
        assert dense(got).tobytes() == want.x.tobytes()
        np.testing.assert_array_equal(got.labels, want.labels)

    def test_dash_and_unseen_values_give_all_zero_blocks(self, tmp_path):
        with pytest.warns(UnseenCategoryWarning):
            table = parse(tmp_path, [(1.0, "-", 0.5, "ok"), (2.0, "gre", 0.25, "ok"),
                                     (3.0, "icmp", 0.75, "bad")])
        state = fit_preprocessor(table, tiny_schema())
        got = encode_dataset(table, state)
        assert got.codes.ravel().tolist() == [-1, -1, 2]
        assert dense(got).tobytes() == encode_dense(table, state).x.tobytes()
        np.testing.assert_array_equal(dense(got)[:, 1:4], [[0, 0, 0], [0, 0, 0], [0, 0, 1]])

    def test_a_dense_matrix_reads_back_bit_for_bit(self):
        x = np.array([[-0.0, np.nan, 3.5], [1e-300, -np.inf, 0.0]])
        table = as_table(x)
        assert table.dense(np.array([1, 0, 1])).tobytes() == x[[1, 0, 1]].tobytes()
        assert table.labels.tolist() == [UNLABELED] * 2


class TestEncodedFileFormat:
    """load_encoded checks what an encoded file declares before any row is built dense."""

    @pytest.fixture()
    def saved(self, tmp_path):
        table = parse(tmp_path, [(1.0, "udp", 0.5, "ok"), (3.0, "-", 0.25, "bad")])
        path = str(tmp_path / "enc.npz")
        save_encoded(path, encode_dataset(table, fit_preprocessor(table, tiny_schema())))
        return path

    def rewrite(self, path, arrays=None, **meta_changes):
        loaded, meta = dataio.load_arrays(path)
        loaded.update(arrays or {})
        meta.update(meta_changes)
        dataio.save_arrays(path, loaded, meta=meta)
        return path

    def test_dense_format_file_says_to_rerun_preprocess(self, tmp_path):
        path = str(tmp_path / "old.npz")
        dataio.save_arrays(path, {"x": np.zeros((2, 5)), "labels": np.zeros(2, dtype=np.int64)},
                           meta={"kind": "encoded-dataset", "class_names": ["ok", "bad"]})
        with pytest.raises(SchemaMismatchError, match="old.npz holds dense one-hot rows.*"
                                                      "re-run preprocess"):
            load_encoded(path)

    @pytest.mark.parametrize("code", [3, 4, -2])
    def test_code_outside_its_block_is_rejected(self, saved, code):
        """Code 3 of a 3-wide block would otherwise set the next feature's position."""
        codes = load_encoded(saved)[0].codes.copy()
        codes[0, 0] = code
        with pytest.raises(SchemaMismatchError, match="category codes must lie in"):
            load_encoded(self.rewrite(saved, {"codes": codes}))

    @pytest.mark.parametrize("value", [np.nan, -0.5, 1.5, np.inf])
    def test_numeric_outside_the_unit_box_is_rejected(self, saved, value):
        numeric = load_encoded(saved)[0].numeric.copy()
        numeric[1, 1] = value
        with pytest.raises(SchemaMismatchError, match="min-max scaled"):
            load_encoded(self.rewrite(saved, {"numeric": numeric}))

    @pytest.mark.parametrize("label", [-2, 2])
    def test_label_outside_the_classes_is_rejected(self, saved, label):
        with pytest.raises(SchemaMismatchError, match="labels must lie in"):
            load_encoded(self.rewrite(saved, {"labels": np.array([0, label])}))

    def test_a_file_without_rows_is_rejected(self, saved):
        """preprocess never writes one; a head split of no labels would fail inside numpy."""
        table = load_encoded(saved)[0]
        empty = {"numeric": table.numeric[:0], "codes": table.codes[:0], "labels": table.labels[:0]}
        with pytest.raises(SchemaMismatchError, match="enc.npz holds no rows"):
            load_encoded(self.rewrite(saved, empty))

    @pytest.mark.parametrize("layout", [
        {"width": 6, "numeric": [0, 4], "starts": [1], "widths": [3]},
        {"width": 5, "numeric": [0, 3], "starts": [1], "widths": [3]},
        {"width": 5, "numeric": [0, 4], "starts": [1], "widths": [3, 1]},
        {"width": 5, "numeric": [0, 4], "starts": [1], "widths": [0]},
        {"width": 2**40, "numeric": [0, 4], "starts": [1, 5], "widths": [3, 2**40 - 5]},
        {"width": 5, "numeric": [0, 4], "starts": [1]},
        {"width": 5, "numeric": [0, True], "starts": [1], "widths": [3]},
        [5]], ids=["wide", "overlap", "unpaired", "empty-block", "huge", "missing", "bool",
                   "list"])
    def test_layout_must_tile_its_width(self, saved, layout):
        with pytest.raises(SchemaMismatchError, match="layout"):
            load_encoded(self.rewrite(saved, layout=layout))

    @pytest.mark.parametrize("schema", [packaged_schema(name) for name in PACKAGED]
                             + [blob_schema(16)], ids=PACKAGED + ["blobs"])
    def test_layout_spans_are_the_schema_blocks(self, schema, tmp_path):
        """The spans of a schema's layout, and of a file's, are its features' blocks."""
        stops = np.cumsum([f.width for f in schema.features]).tolist()
        blocks = list(zip([0] + stops[:-1], stops))
        layout = schema.layout()
        assert layout.spans() == blocks
        table = dataio.FlowTable(np.zeros((1, layout.numeric.size)),
                                 np.full((1, layout.starts.size), -1), np.zeros(1, dtype=np.int64),
                                 schema.class_names, layout)
        save_encoded(str(tmp_path / "one.npz"), table)
        assert load_encoded(str(tmp_path / "one.npz"))[0].layout.spans() == blocks

    def test_layout_must_match_the_columns(self, saved):
        layout = {"width": 4, "numeric": [0, 1, 2, 3], "starts": [], "widths": []}
        with pytest.raises(SchemaMismatchError, match="enc.npz: numeric, codes and labels must"):
            load_encoded(self.rewrite(saved, layout=layout))
