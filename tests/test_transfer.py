"""Schema alignment and frozen-encoder transfer."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from flowcl.dataio import (
    DatasetSchema,
    DegenerateFeatureWarning,
    Feature,
    FlowTable,
    Layout,
    PreprocessorState,
    encode_dataset,
    fit_preprocessor,
    load_csv,
    packaged_schema,
    task_rows,
)
from flowcl.errors import ConfigError, InvalidShapeError, NoSharedFeaturesError
from flowcl.model import Conv, EncoderConfig, MaxPool, build_encoder
from flowcl.sscl import ContrastiveConfig, HeadConfig, pretrain, run_head_stage
from flowcl.synth import blob_schema, generate_blobs, subset_schema, write_csv
from flowcl.transfer import (
    FeatureAlignmentMap,
    build_alignment,
    encode_aligned,
    parse_alias_table,
)

from oracles import fit_pin_encode_align


def mixed_schema():
    return DatasetSchema(
        (Feature("dur", "numeric"),
         Feature("proto", "categorical", ("tcp", "udp", "icmp")),
         Feature("bytes", "numeric")),
        label_column="y",
        class_names=("ok", "bad"),
    )


class TestBuildAlignment:
    def test_identical_schemas_map_everything(self):
        schema = mixed_schema()
        amap = build_alignment(schema, schema)
        np.testing.assert_array_equal(amap.source_positions, np.arange(5))
        assert amap.mapped == 5 and amap.masked == 0 and amap.omitted == 0

    def test_missing_numeric_masks_exactly_its_position(self):
        target = DatasetSchema(
            (Feature("dur", "numeric"),
             Feature("proto", "categorical", ("tcp", "udp", "icmp"))),
            "y", ("ok", "bad"))
        amap = build_alignment(mixed_schema(), target)
        assert amap.masked == 1
        assert amap.source_positions[4] == -1  # the "bytes" slot
        assert amap.source_positions[0] == 0

    def test_extra_target_features_are_omitted(self):
        target = DatasetSchema(
            (Feature("alpha", "numeric"),
             Feature("dur", "numeric"),
             Feature("proto", "categorical", ("tcp", "udp", "icmp")),
             Feature("bytes", "numeric"),
             Feature("beta", "numeric"),
             Feature("gamma", "numeric")),
            "y", ("ok", "bad"))
        amap = build_alignment(mixed_schema(), target)
        assert amap.mapped == 5 and amap.masked == 0 and amap.omitted == 3

    def test_vocabulary_matched_per_category(self):
        # Same proto feature, different category order, one category missing.
        target = DatasetSchema(
            (Feature("proto", "categorical", ("udp", "tcp")),),
            "y", ("ok", "bad"))
        amap = build_alignment(mixed_schema(), target)
        # original block spans positions 1..3 as (tcp, udp, icmp)
        np.testing.assert_array_equal(amap.source_positions, [-1, 1, 0, -1, -1])

    def test_name_matching_is_case_insensitive(self):
        target = DatasetSchema(
            (Feature("DUR", "numeric"), Feature("Bytes", "numeric")),
            "y", ("ok", "bad"))
        amap = build_alignment(mixed_schema(), target)
        assert amap.source_positions[0] == 0
        assert amap.source_positions[4] == 1

    def test_kind_mismatch_is_masked_not_matched(self):
        target = DatasetSchema(
            (Feature("dur", "categorical", ("a", "b")), Feature("bytes", "numeric")),
            "y", ("ok", "bad"))
        amap = build_alignment(mixed_schema(), target)
        assert amap.source_positions[0] == -1
        assert amap.mapped == 1

    def test_alias_renames_a_feature(self):
        target = DatasetSchema(
            (Feature("duration_ms", "numeric"),),
            "y", ("ok", "bad"))
        with pytest.raises(NoSharedFeaturesError):
            build_alignment(mixed_schema(), target)
        amap = build_alignment(mixed_schema(), target,
                               aliases=(("dur", "duration_ms"),))
        assert amap.source_positions[0] == 0

    def test_zero_overlap_rejected(self):
        target = DatasetSchema((Feature("zzz", "numeric"),), "y", ("ok", "bad"))
        with pytest.raises(NoSharedFeaturesError):
            build_alignment(mixed_schema(), target)

    def test_omitted_counts_each_target_position_once(self):
        # Two aliases read f00's column as well: three originals, one target position.
        original = blob_schema(4)
        target = subset_schema(original, ["f00", "f01"])
        amap = build_alignment(original, target, (("f02", "f00"), ("f03", "f00")))
        np.testing.assert_array_equal(amap.source_positions, [0, 1, 0, 0])
        assert amap.mapped == 4 and amap.masked == 0 and amap.omitted == 0
        amap = build_alignment(original, target, (("f02", "f00"),))
        assert amap.mapped == 3 and amap.masked == 1 and amap.omitted == 0

    @pytest.mark.parametrize("aliases, message", [
        ((("dur", "duration"),), "alias 'dur = duration': the target schema has no "
                                 "feature 'duration'"),
        ((("duration", "dur"),), "alias 'duration = dur': the original schema has no "
                                 "feature 'duration'"),
        ((("dur", "bytes"), ("DUR", "dur")), "alias 'DUR = dur': 'DUR' is already renamed"),
    ], ids=["unknown-target", "unknown-original", "repeated-original"])
    def test_alias_must_name_features_once(self, aliases, message):
        with pytest.raises(ConfigError) as err:
            build_alignment(mixed_schema(), mixed_schema(), aliases)
        assert str(err.value) == message

    @pytest.mark.parametrize("aliases, message", [
        ((("dur", "proto"),), "alias 'dur = proto': 'dur' is numeric but 'proto' is "
                              "categorical"),
        ((("proto", "bytes"),), "alias 'proto = bytes': 'proto' is categorical but "
                                "'bytes' is numeric"),
    ], ids=["numeric-to-categorical", "categorical-to-numeric"])
    def test_alias_must_pair_features_of_one_kind(self, aliases, message):
        # Without the check the first alias masked dur silently: positions [-1, 2].
        original = DatasetSchema((Feature("dur", "numeric"), Feature("bytes", "numeric")),
                                 "y", ("ok", "bad"))
        target = DatasetSchema(
            (Feature("proto", "categorical", ("tcp", "udp")), Feature("bytes", "numeric")),
            "y", ("ok", "bad"))
        if aliases[0][0] == "proto":
            original, target = target, original
        with pytest.raises(ConfigError) as err:
            build_alignment(original, target, aliases)
        assert str(err.value) == message


def encode_target(table, target_schema, original_state, aliases=()):
    """Target rows through build_alignment and encode_aligned, built dense."""
    amap = build_alignment(original_state.schema, target_schema, aliases)
    return dense(encode_aligned(table, target_schema, original_state, amap))


def dense(table):
    """Every row of a table, built dense."""
    return table.dense(np.arange(len(table)))


MIXED_STATE = PreprocessorState(mixed_schema(), np.array([0.0, 100.0]), np.array([10.0, 300.0]))


class TestAlignSample:
    """Target rows rewritten into the original layout by encode_aligned."""

    def test_identity_map_is_identity(self):
        table = _table([(5.0, 150.0), (-1.0, 900.0), (10.0, 300.0)], codes=[(0,), (2,), (-1,)])
        plain = encode_dataset(table, MIXED_STATE)
        got = encode_aligned(table, mixed_schema(), MIXED_STATE,
                             build_alignment(mixed_schema(), mixed_schema()))
        assert dense(got).tobytes() == dense(plain).tobytes()
        np.testing.assert_array_equal(got.labels, plain.labels)
        assert got.class_names == plain.class_names

    def test_all_masked_map_yields_zero_vector(self):
        schema = blob_schema(4)
        state = PreprocessorState(schema, np.full(4, -2.0), np.full(4, 3.0))
        target = subset_schema(schema, ["f00", "f01", "f02"])
        amap = FeatureAlignmentMap(np.full(4, -1, dtype=np.int64), target_width=3)
        x = dense(encode_aligned(_table([(1.0, 2.0, 3.0)] * 2), target, state, amap))
        np.testing.assert_array_equal(x, np.zeros((2, 4)))
        assert not np.signbit(x).any()

    def test_half_overlap_copies_then_zeroes(self):
        original = DatasetSchema(
            tuple(Feature(f"f{i}", "numeric") for i in range(4)), "y", ("a", "b"))
        state = PreprocessorState(original, np.zeros(4), np.full(4, 10.0))
        target = subset_schema(original, ["f0", "f1"])
        x = encode_target(_table([(3.0, 9.0)]), target, state)
        np.testing.assert_array_equal(x, [[0.3, 0.9, 0.0, 0.0]])

    def test_width_mismatch_rejected(self):
        table = _table([(1.0, 2.0)], codes=[(0,)])
        with pytest.raises(InvalidShapeError):
            encode_aligned(table, mixed_schema(), MIXED_STATE,
                           FeatureAlignmentMap(np.arange(4), target_width=5))
        with pytest.raises(InvalidShapeError):
            encode_aligned(table, mixed_schema(), MIXED_STATE,
                           FeatureAlignmentMap(np.arange(5), target_width=6))

    def test_matrix_form_matches_rowwise(self):
        # Nothing is fitted on the target, so a row encodes the same alone or in a table.
        target = subset_schema_mixed()
        rng = np.random.default_rng(0)
        table = _table(rng.uniform(-50.0, 400.0, size=(6, 1)),
                       codes=rng.integers(-1, 3, size=(6, 1)))
        got = encode_target(table, target, MIXED_STATE)
        for i in range(6):
            row = replace(table, numeric=table.numeric[i:i + 1], codes=table.codes[i:i + 1],
                          labels=table.labels[i:i + 1])
            np.testing.assert_array_equal(got[i], encode_target(row, target, MIXED_STATE)[0])

    def test_never_invents_values(self):
        # Every value is a one-hot bit, a masked zero, or a target cell on the original scale.
        target = subset_schema_mixed()
        rng = np.random.default_rng(1)
        table = _table(rng.uniform(150.0, 250.0, size=(5, 1)),
                       codes=rng.integers(0, 3, size=(5, 1)))
        got = encode_target(table, target, MIXED_STATE)
        scaled = [(v - 100.0) / 200.0 for v in table.numeric[:, 0]]
        assert all(v in (0.0, 1.0) or v in scaled for v in got.ravel())
        np.testing.assert_array_equal(got[:, 4], scaled)

    def test_categories_match_through_the_target_vocabulary(self):
        # Target proto is (udp, gre, tcp): gre has no original slot, icmp no target one.
        target = DatasetSchema(
            (Feature("proto", "categorical", ("UDP", "gre", "tcp")),), "y", ("ok", "bad"))
        x = encode_target(_table([()] * 4, codes=[(0,), (1,), (2,), (-1,)]), target,
                          MIXED_STATE)
        np.testing.assert_array_equal(x[:, 1:4], [[0, 1, 0], [0, 0, 0], [1, 0, 0], [0, 0, 0]])
        np.testing.assert_array_equal(x[:, [0, 4]], np.zeros((4, 2)))

    def test_masked_block_is_all_zero(self):
        target = DatasetSchema(
            (Feature("bytes", "numeric"), Feature("proto", "categorical", ("gre", "sctp"))),
            "y", ("ok", "bad"))
        x = encode_target(_table([(200.0,), (300.0,)], codes=[(0,), (1,)]), target,
                          MIXED_STATE)
        np.testing.assert_array_equal(x, [[0, 0, 0, 0, 0.5], [0, 0, 0, 0, 1.0]])


def subset_schema_mixed():
    return DatasetSchema(
        (Feature("proto", "categorical", ("tcp", "udp", "icmp")),
         Feature("bytes", "numeric")),
        "y", ("ok", "bad"))


class TestAliasTable:
    def test_parse_lines_and_comments(self):
        text = "# renames\n dur = duration_ms \n\nbytes=octets # tail note\n"
        assert parse_alias_table(text) == (("dur", "duration_ms"), ("bytes", "octets"))

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError):
            parse_alias_table("dur duration_ms\n")
        with pytest.raises(ConfigError):
            parse_alias_table("a = b = c\n")
        with pytest.raises(ConfigError):
            parse_alias_table("a =\n")


class TestTransferPreprocessor:
    """Target numerics encode under the original preprocessor state; nothing is fitted."""

    def test_shared_numerics_keep_original_scale(self, tmp_path):
        schema = blob_schema(3)
        original_table = blob_table(tmp_path, schema, 50, seed=1)
        original_state = fit_preprocessor(original_table, schema)
        target_schema = subset_schema(schema, ["f00", "f01"])
        target_table = replace(original_table, numeric=original_table.numeric[:, :2],
                               layout=target_schema.layout())
        x = encode_target(target_table, target_schema, original_state)
        plain = dense(encode_dataset(original_table, original_state))
        np.testing.assert_array_equal(x[:, :2], plain[:, :2])
        np.testing.assert_array_equal(x[:, 2], 0.0)

    def test_alias_applies_to_scale_pinning(self):
        original = DatasetSchema((Feature("dur", "numeric"),), "y", ("a", "b"))
        original_state = fit_preprocessor(_table([(0.0,), (10.0,)]), original)
        target = DatasetSchema((Feature("duration_ms", "numeric"),), "y", ("a", "b"))
        x = encode_target(_table([(3.0,), (4.0,)]), target, original_state,
                          (("dur", "duration_ms"),))
        np.testing.assert_array_equal(x, [[0.3], [0.4]])

    def test_pins_exactly_what_the_alignment_maps(self):
        # Reordered numerics, a categorical in between, and a kind clash on "dur".
        target = DatasetSchema(
            (Feature("bytes", "numeric"), Feature("alpha", "numeric"),
             Feature("proto", "categorical", ("udp", "tcp")),
             Feature("dur", "categorical", ("short", "long"))),
            "y", ("ok", "bad"))
        x = encode_target(_table([(150.0, 7.0), (250.0, 9.0)], codes=[(1, 0), (0, 1)]),
                          target, MIXED_STATE)
        np.testing.assert_array_equal(x, [[0, 1, 0, 0, 0.25], [0, 0, 1, 0, 0.75]])

    def test_constant_mapped_column_encodes_on_the_original_scale(self):
        # A fit on these target rows would call dur degenerate and encode it as 0.
        table = _table([(5.0, 120.0), (5.0, 280.0)], codes=[(0,), (1,)])
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegenerateFeatureWarning)
            x = encode_target(table, mixed_schema(), MIXED_STATE)
        np.testing.assert_array_equal(x[:, 0], [0.5, 0.5])


def random_table(schema, n_rows, rng, spread):
    """Heavy-tailed numerics with exact and negative zeros, codes with -1, any labels."""
    width = len(schema.starts("numeric"))
    numeric = np.exp(rng.normal(2.0, spread, size=(n_rows, width)))
    numeric[rng.random((n_rows, width)) < 0.2] = 0.0
    numeric[rng.random((n_rows, width)) < 0.05] = -0.0
    numeric[rng.random((n_rows, width)) < 0.05] *= -1.0
    codes = np.array([rng.integers(-1, f.width, size=n_rows)
                      for f in schema.features if f.kind == "categorical"],
                     dtype=np.int64).reshape(-1, n_rows).T
    labels = rng.integers(-1, len(schema.class_names), size=n_rows)
    return FlowTable(numeric, codes, labels, schema.class_names, schema.layout())


class TestMatchesFormerPipeline:
    """encode_aligned's rows, built dense, against fit -> pin -> encode -> align, byte for byte."""

    def check(self, table, target, original_state, amap):
        got = encode_aligned(table, target, original_state, amap)
        want = fit_pin_encode_align(table, target, original_state, amap)
        assert dense(got).tobytes() == want.x.tobytes()
        assert got.labels.tobytes() == want.labels.tobytes()
        assert got.class_names == want.class_names == target.class_names

    @pytest.mark.parametrize("original_name, target_name", [
        ("unsw_nb15_smaller", "unsw_nb15_larger"),
        ("unsw_nb15_larger", "unsw_nb15_smaller"),
        ("unsw_nb15_smaller", "unsw_nb15_smaller"),
        ("unsw_nb15_smaller", "bot_iot"),
        ("unsw_nb15_smaller", "cidds_001"),
    ])
    def test_packaged_schema_pairs(self, original_name, target_name):
        original, target = packaged_schema(original_name), packaged_schema(target_name)
        rng = np.random.default_rng(7)
        original_state = fit_preprocessor(random_table(original, 3000, rng, 1.5), original)
        # A wider spread, so target values fall outside the original extrema.
        table = random_table(target, 3000, rng, 2.5)
        self.check(table, target, original_state, build_alignment(original, target))

    def test_constant_mapped_column(self):
        table = _table([(5.0, 150.0), (5.0, 90.0), (5.0, 700.0)], codes=[(0,), (-1,), (2,)])
        self.check(table, mixed_schema(), MIXED_STATE,
                   build_alignment(mixed_schema(), mixed_schema()))

    def test_masked_numeric_and_partly_mapped_block(self):
        # dur is masked; of proto's block only udp and tcp have a target category.
        target = DatasetSchema(
            (Feature("bytes", "numeric"), Feature("proto", "categorical", ("UDP", "gre", "tcp"))),
            "y", ("ok", "bad"))
        table = _table([(-0.0,), (150.0,), (900.0,), (300.0,)], codes=[(0,), (1,), (2,), (-1,)])
        self.check(table, target, MIXED_STATE, build_alignment(mixed_schema(), target))


def _table(numeric, codes=None):
    """A table built directly: numeric rows, optional categorical codes, class 0 labels.

    Its layout fits its own shape (numerics first, each block as wide as its
    codes need): encode_aligned and fit_preprocessor read only the columns.
    """
    n = len(numeric)
    numeric = np.array(numeric, dtype=np.float64).reshape(n, -1)
    codes = np.array(codes if codes is not None else np.zeros((n, 0)), dtype=np.int64)
    k, widths = numeric.shape[1], np.maximum(codes.max(axis=0, initial=0) + 1, 1)
    starts = k + np.cumsum(widths) - widths
    layout = Layout(int(k + widths.sum()), np.arange(k), starts, widths)
    return FlowTable(numeric, codes, np.zeros(n, dtype=np.int64), ("ok", "bad"), layout)


def blob_table(root, schema, n_per_class, seed):
    """Blob rows written with write_csv and parsed back with load_csv."""
    path = str(root / f"blobs-{seed}.csv")
    write_csv(path, schema, generate_blobs(schema, n_per_class, seed=seed))
    return load_csv(path, schema)


@pytest.fixture(scope="module")
def trained_pipeline(tmp_path_factory):
    """One pretrained tiny encoder over 300 blob records, shared by the suite."""
    schema = blob_schema(16)
    table = blob_table(tmp_path_factory.mktemp("blobs"), schema, 150, seed=3)
    state = fit_preprocessor(table, schema)
    dataset = encode_dataset(table, state)
    config = EncoderConfig((Conv(8), MaxPool(2), Conv(16)), 16, context_dim=8)
    encoder, projector = build_encoder(config, seed=4)
    pretrain(encoder, projector, dataset, ContrastiveConfig(batch_size=16, epochs=15, seed=5))
    return schema, table, state, dataset, encoder, projector


HEAD = HeadConfig(epochs=40, lr=0.05, seed=6)


def head_stage(encoder, projector, dataset, config):
    """run_head_stage on every class of an encoded dataset."""
    task = task_rows(dataset.labels, dataset.class_names, "multiclass")
    return run_head_stage(encoder, projector, dataset, task, config)


class TestTransferEvaluate:
    """encode_aligned followed by the shared run_head_stage protocol."""

    def test_identity_transfer_reproduces_plain_metrics_exactly(self, trained_pipeline):
        schema, table, state, dataset, encoder, projector = trained_pipeline
        plain = head_stage(encoder, projector, dataset, HEAD)
        amap = build_alignment(schema, schema)
        target = encode_aligned(table, schema, state, amap)
        result = head_stage(encoder, projector, target, HEAD)
        assert result.report == plain.report
        assert amap.mapped == 16 and amap.masked == 0
        assert result.train_count == plain.train_count

    def test_dropping_a_fifth_of_features_stays_close(self, trained_pipeline):
        schema, table, state, dataset, encoder, projector = trained_pipeline
        baseline = head_stage(encoder, projector, dataset, HEAD).report.accuracy
        keep = [f.name for f in schema.features][:13]  # drop 3 of 16
        target_schema = subset_schema(schema, keep)
        amap = build_alignment(schema, target_schema)
        target_table = replace(table, numeric=table.numeric[:, :13],
                               layout=target_schema.layout())
        target = encode_aligned(target_table, target_schema, state, amap)
        result = head_stage(encoder, projector, target, HEAD)
        assert amap.masked == 3
        assert abs(result.report.accuracy - baseline) <= 0.10

    def test_degradation_is_graceful_as_masking_grows(self, trained_pipeline):
        schema, table, state, dataset, encoder, projector = trained_pipeline
        names = [f.name for f in schema.features]
        accuracies = []
        for n_masked in (0, 2, 5, 8):
            target_schema = subset_schema(schema, names[:16 - n_masked])
            amap = build_alignment(schema, target_schema)
            target_table = replace(table, numeric=table.numeric[:, :16 - n_masked],
                                   layout=target_schema.layout())
            target = encode_aligned(target_table, target_schema, state, amap)
            result = head_stage(encoder, projector, target, HEAD)
            assert amap.masked == n_masked
            accuracies.append(result.report.accuracy)
        for earlier, later in zip(accuracies, accuracies[1:]):
            assert later <= earlier + 0.02

    def test_label_fraction_shrinks_the_training_side(self, trained_pipeline):
        schema, table, state, _, encoder, projector = trained_pipeline
        target = encode_aligned(table, schema, state, build_alignment(schema, schema))
        full = head_stage(encoder, projector, target, HEAD)
        tiny = head_stage(encoder, projector, target, replace(HEAD, label_fraction=0.05))
        assert full.train_count == 240 and full.test_count == 60
        assert tiny.train_count == 12  # 5% of 120 per class, both classes
