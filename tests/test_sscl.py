"""Contrastive loss math and both training loops."""

import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import flowcl

from flowcl import sscl
from flowcl.augment import MaskingConfig, mask_view
from flowcl.errors import (
    ConfigError,
    DegenerateVectorError,
    InsufficientDataError,
    InvalidBatchError,
    InvalidLabelError,
    InvalidShapeError,
    MissingLabelError,
    NonFiniteGradientError,
)
from flowcl import numgrad
from flowcl.dataio import random_split
from flowcl.model import (
    Conv,
    EncoderConfig,
    MaxPool,
    build_classification_head,
    build_encoder,
    encode,
    preset_config,
    project,
)
from flowcl.numgrad import Tape, Tensor, backward
from flowcl.seeding import substream
from flowcl.sscl import (
    FEATURE_CHUNK_ROWS,
    ContrastiveConfig,
    HeadConfig,
    batch_loss,
    evaluate_head,
    holdout_loss,
    predict,
    pretrain,
    representation_features,
    train_head,
)

from oracles import (
    InvalidPairError,
    fd_gradient,
    naive_nt_xent,
    pair_loss,
    rel_error,
    similarity_matrix,
    taped_train_head,
)


def random_latents(rng, n_views, dim):
    z = rng.normal(size=(n_views, dim))
    z += np.sign(z.sum(axis=1, keepdims=True)) * 0.5  # keep norms away from 0
    return z


class TestSimilarityMatrix:
    def test_diagonal_is_one(self):
        z = random_latents(np.random.default_rng(0), 4, 3)
        s = similarity_matrix(z)
        np.testing.assert_allclose(np.diag(s.values), 1.0, atol=1e-12)

    def test_symmetric_and_bounded(self):
        z = random_latents(np.random.default_rng(1), 6, 5)
        s = similarity_matrix(z)
        np.testing.assert_allclose(s.values, s.values.T, atol=1e-12)
        assert s.values.min() >= -1.0 and s.values.max() <= 1.0

    def test_zero_vector_rejected(self):
        z = np.ones((4, 3))
        z[2] = 0.0
        with pytest.raises(DegenerateVectorError):
            similarity_matrix(z)

    def test_odd_batch_rejected(self):
        with pytest.raises(InvalidBatchError):
            similarity_matrix(np.ones((3, 2)))


class TestPairLoss:
    def test_single_pair_is_exactly_zero(self):
        z = random_latents(np.random.default_rng(2), 2, 4)
        s = similarity_matrix(z)
        assert pair_loss(0, 1, s, temperature=0.5) == 0.0
        assert pair_loss(1, 0, s, temperature=0.5) == 0.0

    def test_two_pair_unit_vector_case(self):
        # e1,e1,e2,e2: brute-force the formula with scalar math.
        z = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        s = similarity_matrix(z)
        tau = 0.5
        # Row 0: positive sim 1, the two negatives sim 0.
        want = -np.log(np.exp(1 / tau) / (np.exp(1 / tau) + 2 * np.exp(0.0)))
        np.testing.assert_allclose(pair_loss(0, 1, s, tau), want, rtol=1e-12)

    def test_all_equal_similarities_collapse_to_log(self):
        for n_pairs in (2, 3, 5):
            views = 2 * n_pairs
            s = similarity_matrix(np.ones((views, 3)))
            for i in range(views):
                got = pair_loss(i, i ^ 1, s, temperature=0.7)
                np.testing.assert_allclose(got, np.log(views - 1), rtol=1e-12)

    def test_self_pair_rejected(self):
        s = similarity_matrix(random_latents(np.random.default_rng(3), 4, 3))
        with pytest.raises(InvalidPairError):
            pair_loss(2, 2, s, 0.5)

    def test_out_of_range_rejected(self):
        s = similarity_matrix(random_latents(np.random.default_rng(3), 4, 3))
        with pytest.raises(InvalidPairError):
            pair_loss(0, 4, s, 0.5)


class TestBatchLoss:
    def test_single_pair_is_zero(self):
        z = random_latents(np.random.default_rng(4), 2, 8)
        loss = batch_loss(Tensor(z), 0.5)
        assert float(loss.data) == 0.0

    @pytest.mark.parametrize("n_pairs,dim", [(2, 2), (3, 5), (4, 16), (8, 7)])
    def test_matches_naive_oracle(self, n_pairs, dim):
        rng = np.random.default_rng(100 + n_pairs * dim)
        for _ in range(20):
            z = random_latents(rng, 2 * n_pairs, dim)
            got = float(batch_loss(Tensor(z), 0.5).data)
            want = naive_nt_xent(z, 0.5)
            assert abs(got - want) < 1e-9

    def test_scale_invariance_per_vector(self):
        rng = np.random.default_rng(5)
        z = random_latents(rng, 8, 6)
        scales = rng.uniform(0.1, 10.0, size=(8, 1))
        a = float(batch_loss(Tensor(z), 0.5).data)
        b = float(batch_loss(Tensor(z * scales), 0.5).data)
        np.testing.assert_allclose(a, b, rtol=1e-10)

    def test_swapping_views_within_pairs_is_neutral(self):
        rng = np.random.default_rng(6)
        z = random_latents(rng, 8, 4)
        swapped = z.copy()
        for k in range(4):
            swapped[[2 * k, 2 * k + 1]] = swapped[[2 * k + 1, 2 * k]]
        np.testing.assert_allclose(float(batch_loss(Tensor(z), 0.5).data),
                                   float(batch_loss(Tensor(swapped), 0.5).data),
                                   rtol=1e-12)

    def test_permuting_whole_pairs_is_neutral(self):
        rng = np.random.default_rng(7)
        z = random_latents(rng, 10, 4)
        pair_order = rng.permutation(5)
        permuted = np.vstack([z[2 * k:2 * k + 2] for k in pair_order])
        np.testing.assert_allclose(float(batch_loss(Tensor(z), 0.5).data),
                                   float(batch_loss(Tensor(permuted), 0.5).data),
                                   rtol=1e-12)

    def test_nonnegative_and_positive_beyond_one_pair(self):
        rng = np.random.default_rng(8)
        for n_pairs in (2, 3, 6):
            z = random_latents(rng, 2 * n_pairs, 5)
            val = float(batch_loss(Tensor(z), 0.5).data)
            assert val > 0.0

    def test_odd_count_rejected(self):
        with pytest.raises(InvalidBatchError):
            batch_loss(Tensor(np.ones((5, 3))), 0.5)

    def test_latents_must_be_a_matrix(self):
        with pytest.raises(InvalidShapeError, match=r"expected \[views, dim\] latents"):
            batch_loss(Tensor(np.ones(4)), 0.5)

    def test_zero_row_rejected(self):
        z = np.ones((4, 3))
        z[1] = 0.0
        with pytest.raises(DegenerateVectorError):
            batch_loss(Tensor(z), 0.5)

    def test_bad_temperature_rejected(self):
        with pytest.raises(ConfigError):
            batch_loss(Tensor(np.ones((2, 2))), 0.0)

    @pytest.mark.parametrize("n_pairs,dim,tau", [(2, 3, 0.5), (3, 4, 0.2), (4, 6, 1.0)])
    def test_gradient_matches_finite_differences(self, n_pairs, dim, tau):
        rng = np.random.default_rng(40 + n_pairs)
        z0 = random_latents(rng, 2 * n_pairs, dim)
        zt = Tensor(z0.copy(), requires_grad=True)
        with Tape() as tape:
            loss = batch_loss(zt, tau)
        backward(loss, tape)
        numeric = fd_gradient(lambda flat: float(batch_loss(
            Tensor(flat.reshape(z0.shape)), tau).data), z0.copy().ravel())
        assert rel_error(zt.grad.ravel(), numeric) < 1e-6


def blob_data(rng, n_per_class, width=16):
    lo = rng.uniform(-0.1, 0.1, size=(n_per_class, width)) + 0.3
    hi = rng.uniform(-0.1, 0.1, size=(n_per_class, width)) + 0.7
    x = np.vstack([lo, hi]).clip(0.0, 1.0)
    y = np.concatenate([np.zeros(n_per_class, dtype=np.int64),
                        np.ones(n_per_class, dtype=np.int64)])
    return x, y


def tiny_encoder(seed=0, width=16):
    config = EncoderConfig((Conv(8), MaxPool(2), Conv(16)), width, context_dim=8)
    return build_encoder(config, seed=seed)


def param_checksum(*blocks):
    return [t.data.copy() for b in blocks for t in b.parameters()]


class TestPretrain:
    def test_zero_epochs_changes_nothing(self):
        encoder, projector = tiny_encoder()
        before = param_checksum(encoder, projector)
        x, _ = blob_data(np.random.default_rng(0), 20)
        history = pretrain(encoder, projector, x,
                           ContrastiveConfig(batch_size=8, epochs=0, seed=1))
        assert history == []
        for old, t in zip(before, [p for b in (encoder, projector) for p in b.parameters()]):
            np.testing.assert_array_equal(old, t.data)

    def test_too_few_samples_rejected(self):
        encoder, projector = tiny_encoder()
        x, _ = blob_data(np.random.default_rng(0), 3)
        with pytest.raises(InsufficientDataError):
            pretrain(encoder, projector, x, ContrastiveConfig(batch_size=8, epochs=1))

    def test_fixed_seed_reproduces_history_bitwise(self):
        x, _ = blob_data(np.random.default_rng(1), 16)
        config = ContrastiveConfig(batch_size=8, epochs=3, seed=5,
                                   masking=MaskingConfig(ratio=0.3))
        enc_a, proj_a = tiny_encoder(seed=2)
        hist_a = pretrain(enc_a, proj_a, x, config)
        enc_b, proj_b = tiny_encoder(seed=2)
        hist_b = pretrain(enc_b, proj_b, x, config)
        assert hist_a == hist_b
        for ta, tb in zip(param_checksum(enc_a, proj_a), param_checksum(enc_b, proj_b)):
            np.testing.assert_array_equal(ta, tb)

    def test_one_view_stream_per_batch_keyed_by_its_offset(self, monkeypatch):
        labels, real = [], sscl.substream
        monkeypatch.setattr(sscl, "substream",
                            lambda seed, *path: labels.append(path) or real(seed, *path))
        x, _ = blob_data(np.random.default_rng(4), 20)
        # 30 training rows make batches at 0, 8 and 16; 10 held-out rows at 0 and 8.
        config = ContrastiveConfig(batch_size=8, epochs=2, seed=5, holdout_fraction=0.25)
        pretrain(*tiny_encoder(seed=1), x, config)
        assert [path for path in labels if path[0] != "pretrain-shuffle"] == [
            (label, epoch, start) for epoch in (0, 1)
            for label, starts in (("augment", (0, 8, 16)), ("holdout-augment", (0, 8)))
            for start in starts]

    @pytest.mark.parametrize("fraction", [0.0, 0.03, 0.3], ids=["none", "one-row", "30pc"])
    def test_holdout_split_equals_the_gathered_protocol(self, fraction):
        """Splitting by row index inside pretrain changes no number or parameter.

        The reference gathers both sides of `random_split` first, pretrains on
        the training rows and takes `holdout_loss` over the held-out ones after
        each epoch (a run of epoch + 1 epochs ends at that epoch's parameters).
        One held-out row gives no holdout loss.
        """
        x, _ = blob_data(np.random.default_rng(6), 20)
        config = ContrastiveConfig(batch_size=8, epochs=3, seed=5, holdout_fraction=fraction,
                                   masking=MaskingConfig(ratio=0.3))
        encoder, projector = tiny_encoder(seed=2)
        history = pretrain(encoder, projector, x, config)
        train_idx, hold_idx = random_split(len(x), 1.0 - fraction, config.seed)
        gathered = replace(config, holdout_fraction=0.0)
        expected = []
        for epoch in range(config.epochs):
            ref_enc, ref_proj = tiny_encoder(seed=2)
            entry = pretrain(ref_enc, ref_proj, x[train_idx],
                             replace(gathered, epochs=epoch + 1))[-1]
            if hold_idx.size >= 2:
                entry["holdout_loss"] = holdout_loss(ref_enc, ref_proj, x[hold_idx],
                                                     gathered, epoch)
            expected.append(entry)
        assert history == expected
        assert all(("holdout_loss" in entry) == (hold_idx.size >= 2) for entry in history)
        for got, want in zip(param_checksum(encoder, projector),
                             param_checksum(ref_enc, ref_proj)):
            np.testing.assert_array_equal(got, want)

    def test_holdout_loss_drops_a_trailing_one_row_batch(self):
        """A last batch of one held-out row has no pair to contrast, so it is left out:
        17 rows at batch 8 give the 16-row number, and one row gives none."""
        x, _ = blob_data(np.random.default_rng(7), 10)
        config = ContrastiveConfig(batch_size=8, seed=5, masking=MaskingConfig(ratio=0.3))
        encoder, projector = tiny_encoder(seed=3)
        full = holdout_loss(encoder, projector, x[:16], config, 0)
        assert np.isfinite(full)
        assert holdout_loss(encoder, projector, x[:17], config, 0) == full
        assert holdout_loss(encoder, projector, x, config, 0, held=np.arange(17)) == full
        assert holdout_loss(encoder, projector, x[:1], config, 0) is None

    @pytest.mark.parametrize("field, value", [
        ("holdout_fraction", -0.1), ("holdout_fraction", 1.0), ("holdout_fraction", np.nan),
        ("temperature", 0.0), ("temperature", np.inf), ("temperature", np.nan),
        ("lr", 0.0), ("lr", np.inf), ("lr", np.nan),
        ("weight_decay", -0.01), ("weight_decay", np.inf), ("weight_decay", np.nan)])
    def test_out_of_range_values_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            ContrastiveConfig(**{field: value})

    @pytest.mark.parametrize("field, value, message", [
        ("batch_size", 0, "batch_size must be a positive int"),
        ("batch_size", 2.0, "batch_size must be a positive int"),
        ("epochs", -1, "epochs must be a non-negative int"),
        ("masking", 0.3, "masking must be a MaskingConfig")])
    def test_mistyped_fields_rejected(self, field, value, message):
        with pytest.raises(ConfigError, match=message):
            ContrastiveConfig(**{field: value})

    def test_range_edges_accepted(self):
        config = ContrastiveConfig(holdout_fraction=0.99, weight_decay=0.0)
        assert (config.holdout_fraction, config.weight_decay) == (0.99, 0.0)
        assert ContrastiveConfig().holdout_fraction == 0.0

    def test_views_interleave_the_batch_pair(self):
        x, _ = blob_data(np.random.default_rng(5), 4)
        config = ContrastiveConfig(batch_size=8, seed=5)
        views = sscl._paired_views(x, config, "augment", 3, 16, None)
        rng = substream(5, "augment", 3, 16)
        np.testing.assert_array_equal(views[0::2], mask_view(x, config.masking, rng))
        np.testing.assert_array_equal(views[1::2], mask_view(x, config.masking, rng))

    def test_loss_history_shape_and_lr_decay(self):
        x, _ = blob_data(np.random.default_rng(2), 16)
        config = ContrastiveConfig(batch_size=8, epochs=3, lr=2e-4, lr_gamma=0.99)
        encoder, projector = tiny_encoder(seed=3)
        history = pretrain(encoder, projector, x, config)
        assert [h["epoch"] for h in history] == [0, 1, 2]
        np.testing.assert_allclose(history[1]["lr"], 2e-4 * 0.99)
        assert all(np.isfinite(h["loss"]) for h in history)

    def test_separable_blobs_cluster_in_hidden_space(self):
        # After pretraining, same-cluster h vectors should be more aligned
        # than cross-cluster ones, and the epoch-mean loss should drop.
        rng = np.random.default_rng(3)
        x, y = blob_data(rng, 32)
        encoder, projector = tiny_encoder(seed=4)
        config = ContrastiveConfig(batch_size=16, epochs=20, seed=6,
                                   masking=MaskingConfig(ratio=0.3))
        history = pretrain(encoder, projector, x, config)
        assert history[-1]["loss"] < history[0]["loss"]
        h = encode(encoder, x).data
        unit = h / np.linalg.norm(h, axis=1, keepdims=True)
        sims = unit @ unit.T
        same = y[:, None] == y[None, :]
        off_diag = ~np.eye(len(y), dtype=bool)
        intra = sims[same & off_diag].mean()
        inter = sims[~same].mean()
        assert intra > inter


class TestHeadStage:
    def test_separable_features_reach_high_accuracy(self):
        # Hand the head an easy problem: h is already linearly separable.
        rng = np.random.default_rng(9)
        x, y = blob_data(rng, 32)
        encoder, projector = tiny_encoder(seed=7)
        head = train_head(encoder, projector, x, y, 2,
                          HeadConfig(epochs=50, lr=0.05, seed=8))
        preds = predict(encoder, projector, head, x, "hidden")
        assert (preds == y).mean() >= 0.99

    def test_encoder_untouched_by_head_training(self):
        rng = np.random.default_rng(10)
        x, y = blob_data(rng, 16)
        encoder, projector = tiny_encoder(seed=11)
        before = param_checksum(encoder, projector)
        stats_before = [(l.running_mean.copy(), l.running_var.copy()) for l in encoder.convs]
        train_head(encoder, projector, x, y, 2, HeadConfig(epochs=5, seed=12))
        for old, t in zip(before, [p for b in (encoder, projector) for p in b.parameters()]):
            np.testing.assert_array_equal(old, t.data)
        for layer, (rm, rv) in zip(encoder.convs, stats_before):
            np.testing.assert_array_equal(layer.running_mean, rm)
            np.testing.assert_array_equal(layer.running_var, rv)

    def test_context_representation_has_projection_width(self):
        rng = np.random.default_rng(13)
        x, y = blob_data(rng, 8)
        encoder, projector = tiny_encoder(seed=14)
        head = train_head(encoder, projector, x, y, 2,
                          HeadConfig(representation="context", epochs=2, seed=15))
        assert head.input_dim == projector.context_dim == 8

    @pytest.mark.parametrize("fractions", [{"split_fraction": 0.0}, {"split_fraction": 1.0},
                                           {"label_fraction": 0.0}, {"label_fraction": 1.5}],
                             ids=["split-0", "split-1", "label-0", "label-1.5"])
    def test_out_of_range_fractions_rejected(self, fractions):
        with pytest.raises(ConfigError, match=next(iter(fractions))):
            HeadConfig(**fractions)

    @pytest.mark.parametrize("field, value", [("lr", 0.0), ("lr", np.inf), ("lr", np.nan),
                                              ("weight_decay", -0.01),
                                              ("weight_decay", np.inf),
                                              ("weight_decay", np.nan)])
    def test_non_finite_or_negative_rates_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be a finite number"):
            HeadConfig(**{field: value})

    def test_unknown_representation_rejected(self):
        with pytest.raises(ConfigError, match="representation must be 'hidden' or 'context'"):
            HeadConfig(representation="z")

    def test_unlabeled_sample_rejected(self):
        rng = np.random.default_rng(16)
        x, y = blob_data(rng, 8)
        y[3] = -1
        encoder, projector = tiny_encoder(seed=17)
        with pytest.raises(MissingLabelError):
            train_head(encoder, projector, x, y, 2, HeadConfig(epochs=1))

    def test_one_label_per_sample_required(self):
        x, y = blob_data(np.random.default_rng(16), 8)
        encoder, projector = tiny_encoder(seed=17)
        with pytest.raises(InvalidShapeError, match="16 samples but 15 labels"):
            train_head(encoder, projector, x, y[:15], 2, HeadConfig(epochs=1))
        with pytest.raises(InsufficientDataError, match="no labeled samples"):
            train_head(encoder, projector, x[:0], y[:0], 2, HeadConfig(epochs=1))

    def test_same_seed_same_head(self):
        rng = np.random.default_rng(18)
        x, y = blob_data(rng, 8)
        encoder, projector = tiny_encoder(seed=19)
        a = train_head(encoder, projector, x, y, 2, HeadConfig(epochs=3, seed=20))
        b = train_head(encoder, projector, x, y, 2, HeadConfig(epochs=3, seed=20))
        np.testing.assert_array_equal(a.weight.data, b.weight.data)
        np.testing.assert_array_equal(a.bias.data, b.bias.data)

    def test_evaluate_head_reports_metrics(self):
        rng = np.random.default_rng(21)
        x, y = blob_data(rng, 16)
        encoder, projector = tiny_encoder(seed=22)
        head = train_head(encoder, projector, x, y, 2,
                          HeadConfig(epochs=50, lr=0.05, seed=23))
        report = evaluate_head(encoder, projector, head, x, y, "hidden")
        assert report.accuracy >= 0.95
        assert abs(report.recall - report.accuracy) < 1e-12

    def test_evaluate_rejects_unlabeled(self):
        rng = np.random.default_rng(24)
        x, y = blob_data(rng, 4)
        encoder, projector = tiny_encoder(seed=25)
        head = train_head(encoder, projector, x, y, 2, HeadConfig(epochs=1, seed=26))
        y[0] = -1
        with pytest.raises(MissingLabelError):
            evaluate_head(encoder, projector, head, x, y, "hidden")


# (rows, classes, HeadConfig overrides): ragged and sub-batch row counts, K = 5,
# the context representation and non-default optimizer settings.
_TAPED_CASES = {
    "k2": (64, 2, {}),
    "k5": (64, 5, {}),
    "ragged-last-batch": (45, 2, {}),
    "fewer-rows-than-one-batch": (7, 3, {}),
    "context": (40, 2, {"representation": "context"}),
    "lr-and-decay": (50, 4, {"lr": 0.003, "weight_decay": 0.2, "batch_size": 16}),
}


class TestHeadStep:
    """`train_head`'s untaped step against the taped loop in `oracles`."""

    @pytest.mark.parametrize("case", list(_TAPED_CASES))
    def test_same_bytes_as_taped_loop(self, case):
        rows, k, overrides = _TAPED_CASES[case]
        rng = np.random.default_rng(30)
        x = rng.uniform(size=(rows, 16))
        y = rng.integers(0, k, size=rows)
        y[:k] = np.arange(k)
        encoder, projector = tiny_encoder(seed=31)
        config = HeadConfig(epochs=4, seed=32, **overrides)
        got = train_head(encoder, projector, x, y, k, config)
        features = representation_features(encoder, projector, x, config.representation)
        want = taped_train_head(features, y, k, config)
        assert got.weight.data.tobytes() == want.weight.data.tobytes()
        assert got.bias.data.tobytes() == want.bias.data.tobytes()

    def test_label_equal_to_class_count_rejected(self):
        rng = np.random.default_rng(33)
        x, y = blob_data(rng, 8)
        y[5] = 2
        encoder, projector = tiny_encoder(seed=34)
        with pytest.raises(InvalidLabelError, match=r"\[0, 2\)"):
            train_head(encoder, projector, x, y, 2, HeadConfig(epochs=1))

    def test_bad_label_rejected_without_any_step(self):
        rng = np.random.default_rng(35)
        x, y = blob_data(rng, 8)
        y[0] = 7
        encoder, projector = tiny_encoder(seed=36)
        with pytest.raises(InvalidLabelError):
            train_head(encoder, projector, x, y, 2, HeadConfig(epochs=0))

    def test_nan_features_raise_before_the_head_moves(self, monkeypatch):
        rng = np.random.default_rng(37)
        x, y = blob_data(rng, 8)
        x[3, 4] = np.nan
        encoder, projector = tiny_encoder(seed=38)
        built = []

        def build(*args):
            built.append(build_classification_head(*args))
            return built[-1]

        monkeypatch.setattr(sscl, "build_classification_head", build)
        with pytest.raises(NonFiniteGradientError):
            train_head(encoder, projector, x, y, 2, HeadConfig(epochs=2, seed=39))
        fresh = build_classification_head(built[0].input_dim, 2, 39)
        assert built[0].weight.data.tobytes() == fresh.weight.data.tobytes()
        assert built[0].bias.data.tobytes() == fresh.bias.data.tobytes()

    def test_records_no_tape_entries(self, monkeypatch):
        """Neither a Tape nor `record_op` is touched while the head trains."""
        rng = np.random.default_rng(40)
        x, y = blob_data(rng, 24)
        encoder, projector = tiny_encoder(seed=41)
        config = HeadConfig(epochs=2, seed=42)
        features = representation_features(encoder, projector, x, config.representation)
        # Encoding calls record_op (untaped); only the training loop is under test.
        monkeypatch.setattr(sscl, "representation_features", lambda *args: features)
        calls = []
        record_op = numgrad.tensor.record_op

        def counted_record_op(*args):
            calls.append("record_op")
            return record_op(*args)

        for module in (numgrad, numgrad.ops, numgrad.tensor):
            monkeypatch.setattr(module, "record_op", counted_record_op)
        enter = Tape.__enter__

        def counted_enter(self):
            calls.append("Tape.__enter__")
            return enter(self)

        monkeypatch.setattr(Tape, "__enter__", counted_enter)
        train_head(encoder, projector, x, y, 2, config)
        assert calls == []
        taped_train_head(features, y, 2, config)  # the counters do see a taped loop
        assert "Tape.__enter__" in calls and "record_op" in calls


# Prints the peak RSS (KB) of frozen features over argv[1] rows; with a
# second argument "policy", after applying the CLI's allocator policy first.
_FEATURE_RSS_SCRIPT = """
import resource, sys
import numpy as np
from flowcl.cli import _keep_freed_pages
from flowcl.model import Conv, EncoderConfig, build_encoder
from flowcl.sscl import representation_features
if sys.argv[2:] == ["policy"]:
    _keep_freed_pages()
rows = int(sys.argv[1])
encoder, projector = build_encoder(EncoderConfig((Conv(16), Conv(32)), 64, 8), seed=0)
x = np.random.default_rng(0).uniform(size=(rows, 64))
representation_features(encoder, projector, x, "hidden")
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


class TestRepresentationFeatures:
    @pytest.mark.parametrize("preset", ["smaller-pack", "larger-pack"])
    def test_chunked_features_equal_one_batch_bytes(self, preset):
        encoder, projector = build_encoder(preset_config(preset, 40), seed=3)
        rng = np.random.default_rng(27)
        encode(encoder, rng.uniform(size=(8, 40)), training=True)  # move the BN stats
        x = rng.uniform(size=(600, 40))  # ten chunks of 64 rows, the last one partial
        assert len(x) // FEATURE_CHUNK_ROWS >= 2 and len(x) % FEATURE_CHUNK_ROWS
        h = encode(encoder, x, training=False)
        got = representation_features(encoder, projector, x, "hidden")
        assert got.tobytes() == h.data.tobytes()
        got = representation_features(encoder, projector, x, "context")
        assert got.tobytes() == project(projector, h).data.tobytes()

    def test_peak_memory_is_bounded_in_rows(self):
        """Ten times the rows must not double peak RSS (a child process per size)."""
        assert _feature_peak_kb(10_000) < 2 * _feature_peak_kb(1_000)

    def test_peak_memory_is_bounded_in_rows_with_allocator_policy(self):
        """The same bound when freed pages stay in the process, as under the CLI."""
        assert _feature_peak_kb(10_000, "policy") < 2 * _feature_peak_kb(1_000, "policy")


def _feature_peak_kb(rows: int, *extra: str) -> int:
    src = os.path.dirname(os.path.dirname(flowcl.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", _FEATURE_RSS_SCRIPT, str(rows), *extra],
                          env=env, capture_output=True, text=True, check=True, timeout=300)
    return int(done.stdout.split()[-1])


class TestStreamedPredict:
    """`predict` turns each feature chunk into logits and an argmax."""

    @pytest.mark.parametrize("rows", [600, 641], ids=["ragged", "one-row-tail"])
    @pytest.mark.parametrize("k", [2, 5])
    @pytest.mark.parametrize("representation", ["hidden", "context"])
    def test_equals_argmax_over_one_feature_matrix(self, representation, k, rows):
        encoder, projector = build_encoder(preset_config("smaller-pack", 40), seed=5)
        rng = np.random.default_rng(43)
        encode(encoder, rng.uniform(size=(8, 40)), training=True)  # move the BN stats
        x = rng.uniform(size=(rows, 40))
        assert rows % FEATURE_CHUNK_ROWS in (24, 1)
        features = representation_features(encoder, projector, x, representation)
        head = build_classification_head(features.shape[1], k, seed=44)
        logits = head.logits(Tensor(features)).data
        # Chunked logits may differ from one GEMM in the last bits; a clear
        # top-two gap on every row keeps a routing bug from hiding in a tie.
        top_two = np.sort(logits, axis=1)[:, -2:]
        assert np.min(top_two[:, 1] - top_two[:, 0]) > 1e-9
        preds = predict(encoder, projector, head, x, representation)
        assert preds.dtype == np.int64
        np.testing.assert_array_equal(preds, np.argmax(logits, axis=1))

    def test_peak_memory_keeps_no_feature_matrix(self):
        """8,192 rows of 512 `hidden` features would be a 32 MiB matrix."""
        rows, hidden = 8192, 512
        encoder, projector = build_encoder(EncoderConfig((Conv(hidden),), 4, 8), seed=6)
        head = build_classification_head(hidden, 2, seed=7)
        x = np.random.default_rng(45).uniform(size=(rows, 4))
        tracemalloc.start()
        try:
            predict(encoder, projector, head, x, "hidden")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < rows * hidden * 8 / 2
