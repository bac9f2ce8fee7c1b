"""Schema alignment and frozen-encoder transfer."""

from dataclasses import replace

import numpy as np
import pytest

from flowcl.dataio import (
    DatasetSchema,
    Feature,
    ParsedTable,
    encode_dataset,
    fit_preprocessor,
    load_csv,
)
from flowcl.errors import ConfigError, InvalidShapeError, NoSharedFeaturesError
from flowcl.model import Conv, EncoderConfig, MaxPool, build_encoder
from flowcl.sscl import ContrastiveConfig, HeadConfig, pretrain, run_head_stage
from flowcl.synth import blob_schema, generate_blobs, subset_schema, write_csv
from flowcl.transfer import (
    FeatureAlignmentMap,
    align_matrix,
    build_alignment,
    fit_transfer_preprocessor,
    parse_alias_table,
    transfer_evaluate,
)


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


def align_sample(x, amap):
    """One encoded target sample through align_matrix."""
    return align_matrix(np.asarray(x)[None], amap)[0]


class TestAlignSample:
    def test_identity_map_is_identity(self):
        schema = mixed_schema()
        amap = build_alignment(schema, schema)
        x = np.array([0.5, 1.0, 0.0, 0.0, 0.25])
        np.testing.assert_array_equal(align_sample(x, amap), x)

    def test_all_masked_map_yields_zero_vector(self):
        amap = FeatureAlignmentMap(np.full(4, -1, dtype=np.int64), target_width=3)
        np.testing.assert_array_equal(align_sample(np.ones(3), amap), np.zeros(4))

    def test_half_overlap_copies_then_zeroes(self):
        original = DatasetSchema(
            tuple(Feature(f"f{i}", "numeric") for i in range(4)), "y", ("a", "b"))
        target = subset_schema(original, ["f0", "f1"])
        amap = build_alignment(original, target)
        out = align_sample(np.array([0.3, 0.9]), amap)
        np.testing.assert_array_equal(out, [0.3, 0.9, 0.0, 0.0])

    def test_width_mismatch_rejected(self):
        amap = FeatureAlignmentMap(np.array([0, 1]), target_width=2)
        with pytest.raises(InvalidShapeError):
            align_sample(np.ones(3), amap)
        with pytest.raises(InvalidShapeError):
            align_matrix(np.ones(2), amap)

    def test_matrix_form_matches_rowwise(self):
        schema = mixed_schema()
        target = subset_schema_mixed()
        amap = build_alignment(schema, target)
        rng = np.random.default_rng(0)
        x = rng.uniform(size=(6, target.encoded_width))
        got = align_matrix(x, amap)
        for i in range(6):
            np.testing.assert_array_equal(got[i], align_sample(x[i], amap))

    def test_never_invents_values(self):
        schema = mixed_schema()
        target = subset_schema_mixed()
        amap = build_alignment(schema, target)
        x = np.random.default_rng(1).uniform(0.5, 1.0, size=target.encoded_width)
        out = align_sample(x, amap)
        assert all(v == 0.0 or v in x for v in out)


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
    def test_shared_numerics_keep_original_scale(self, tmp_path):
        schema = blob_schema(3)
        original_table = blob_table(tmp_path, schema, 50, seed=1)
        original_state = fit_preprocessor(original_table, schema)
        target_schema = subset_schema(schema, ["f00", "f01"])
        target_table = replace(original_table, numeric=original_table.numeric[:, :2])
        state = fit_transfer_preprocessor(original_state, target_table, target_schema,
                                          build_alignment(schema, target_schema))
        np.testing.assert_array_equal(state.minima, original_state.minima[:2])
        np.testing.assert_array_equal(state.maxima, original_state.maxima[:2])

    def test_alias_applies_to_scale_pinning(self):
        original = DatasetSchema((Feature("dur", "numeric"),), "y", ("a", "b"))
        original_state = fit_preprocessor(_table([(0.0,), (10.0,)]), original)
        target = DatasetSchema((Feature("duration_ms", "numeric"),), "y", ("a", "b"))
        state = fit_transfer_preprocessor(
            original_state, _table([(3.0,), (4.0,)]), target,
            build_alignment(original, target, (("dur", "duration_ms"),)))
        assert state.minima[0] == 0.0 and state.maxima[0] == 10.0


    def test_pins_exactly_what_the_alignment_maps(self):
        # Reordered numerics, a categorical in between, and a kind clash on "dur".
        original_state = fit_preprocessor(
            _table([(0.0, 100.0), (10.0, 300.0)], codes=[(0,), (1,)]), mixed_schema())
        target = DatasetSchema(
            (Feature("bytes", "numeric"), Feature("alpha", "numeric"),
             Feature("proto", "categorical", ("udp", "tcp")),
             Feature("dur", "categorical", ("short", "long"))),
            "y", ("ok", "bad"))
        amap = build_alignment(mixed_schema(), target)
        state = fit_transfer_preprocessor(
            original_state, _table([(150.0, 7.0), (250.0, 9.0)], codes=[(1, 0), (0, 1)]),
            target, amap)
        np.testing.assert_array_equal(state.minima, [100.0, 7.0])
        np.testing.assert_array_equal(state.maxima, [300.0, 9.0])


def _table(numeric, codes=None):
    """A table built directly: numeric rows, optional categorical codes, class 0 labels."""
    n = len(numeric)
    return ParsedTable(np.array(numeric, dtype=np.float64),
                       np.array(codes if codes is not None else np.zeros((n, 0)), dtype=np.int64),
                       np.zeros(n, dtype=np.int64))


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
    pretrain(encoder, projector, dataset.x,
             ContrastiveConfig(batch_size=16, epochs=15, seed=5))
    return schema, table, state, dataset, encoder, projector


HEAD = HeadConfig(epochs=40, lr=0.05, seed=6)


class TestTransferEvaluate:
    def test_identity_transfer_reproduces_plain_metrics_exactly(self, trained_pipeline):
        schema, _, _, dataset, encoder, projector = trained_pipeline
        plain = run_head_stage(encoder, projector, dataset, HEAD)
        amap = build_alignment(schema, schema)
        result = transfer_evaluate(encoder, projector, amap, dataset, HEAD)
        assert result.report == plain.report
        assert amap.mapped == 16 and amap.masked == 0
        assert result.train_count == plain.train_count

    def test_dropping_a_fifth_of_features_stays_close(self, trained_pipeline):
        schema, table, state, dataset, encoder, projector = trained_pipeline
        baseline = run_head_stage(encoder, projector, dataset, HEAD).report.accuracy
        keep = [f.name for f in schema.features][:13]  # drop 3 of 16
        target_schema = subset_schema(schema, keep)
        amap = build_alignment(schema, target_schema)
        target_table = replace(table, numeric=table.numeric[:, :13])
        target_state = fit_transfer_preprocessor(state, target_table, target_schema, amap)
        target = encode_dataset(target_table, target_state)
        result = transfer_evaluate(encoder, projector, amap, target, HEAD)
        assert amap.masked == 3
        assert abs(result.report.accuracy - baseline) <= 0.10

    def test_degradation_is_graceful_as_masking_grows(self, trained_pipeline):
        schema, table, state, dataset, encoder, projector = trained_pipeline
        names = [f.name for f in schema.features]
        accuracies = []
        for n_masked in (0, 2, 5, 8):
            target_schema = subset_schema(schema, names[:16 - n_masked])
            amap = build_alignment(schema, target_schema)
            target_table = replace(table, numeric=table.numeric[:, :16 - n_masked])
            target_state = fit_transfer_preprocessor(state, target_table, target_schema, amap)
            target = encode_dataset(target_table, target_state)
            result = transfer_evaluate(encoder, projector, amap, target, HEAD)
            assert amap.masked == n_masked
            accuracies.append(result.report.accuracy)
        for earlier, later in zip(accuracies, accuracies[1:]):
            assert later <= earlier + 0.02

    def test_label_fraction_shrinks_the_training_side(self, trained_pipeline):
        schema, _, _, dataset, encoder, projector = trained_pipeline
        amap = build_alignment(schema, schema)
        full = transfer_evaluate(encoder, projector, amap, dataset, HEAD)
        tiny = transfer_evaluate(encoder, projector, amap, dataset,
                                 replace(HEAD, label_fraction=0.05))
        assert full.train_count == 240 and full.test_count == 60
        assert tiny.train_count == 12  # 5% of 120 per class, both classes
