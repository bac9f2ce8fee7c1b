"""Encoder construction, shape algebra, parameter counts, checkpoints."""

import tracemalloc

import numpy as np
import pytest

from flowcl.errors import CheckpointError, ConfigError, InvalidShapeError
from flowcl.model import (
    ClassificationHead,
    Conv,
    EncoderConfig,
    MaxPool,
    build_classification_head,
    build_encoder,
    config_from_dict,
    config_to_dict,
    count_parameters,
    encode,
    load_encoder,
    load_head,
    preset_config,
    project,
    save_encoder,
    save_head,
)
from flowcl.numgrad import AdamW, Tape, Tensor, backward, load_arrays, save_arrays
from flowcl.sscl import batch_loss

from oracles import composed_encode


def small_config(width=12):
    return EncoderConfig((Conv(4), MaxPool(2), Conv(8)), width, context_dim=5)


class TestConfig:
    def test_smaller_pack_dims(self):
        config = preset_config("smaller-pack", 196)
        assert config.hidden_dim == 512
        assert config.context_dim == 256

    def test_larger_pack_dims(self):
        config = preset_config("larger-pack", 200)
        assert config.hidden_dim == 256
        assert config.context_dim == 128

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError):
            preset_config("mega-pack", 100)

    def test_smaller_pack_minimum_width_is_36(self):
        preset_config("smaller-pack", 36)
        with pytest.raises(InvalidShapeError):
            preset_config("smaller-pack", 35)

    def test_error_names_the_failing_layer(self):
        with pytest.raises(InvalidShapeError, match="Pool3"):
            preset_config("smaller-pack", 5)
        with pytest.raises(InvalidShapeError, match="Pool4"):
            preset_config("smaller-pack", 35)
        with pytest.raises(InvalidShapeError, match="Conv128"):
            preset_config("smaller-pack", 3)

    def test_dict_roundtrip(self):
        config = preset_config("larger-pack", 200)
        assert config_from_dict(config_to_dict(config)) == config

    def test_bad_layer_specs_rejected(self):
        with pytest.raises(ConfigError):
            Conv(0)
        with pytest.raises(ConfigError):
            MaxPool(1)
        with pytest.raises(ConfigError):
            EncoderConfig((MaxPool(2),), 10, 4)


class TestParameterCounts:
    def test_single_affine_2_to_3(self):
        head = build_classification_head(2, 3, seed=0)
        assert count_parameters(head) == 9

    def test_single_conv_with_bn(self):
        config = EncoderConfig((Conv(32),), 4, context_dim=2)
        block, _ = build_encoder(config, seed=0)
        assert count_parameters(block) == 160  # 1*32*2 + 32 weights/bias, 2*32 BN

    def test_smaller_pack_total_is_482528(self):
        block, proj = build_encoder(preset_config("smaller-pack", 196), seed=0)
        assert count_parameters(block, proj) == 482528

    def test_larger_pack_total(self):
        # A circulated count for this stack is 121456; the layer specs as
        # written imply 121720 (the difference is a few hundred parameters
        # of bias/batch-norm bookkeeping). We count what the specs build.
        block, proj = build_encoder(preset_config("larger-pack", 200), seed=0)
        assert count_parameters(block, proj) == 121720

    @pytest.mark.parametrize("config", [small_config(), preset_config("smaller-pack", 196),
                                        preset_config("larger-pack", 200)],
                             ids=["small", "smaller-pack", "larger-pack"])
    def test_config_count_matches_the_built_encoder(self, config):
        assert config.parameter_count() == count_parameters(*build_encoder(config, seed=0))

    @pytest.mark.parametrize("size", [2**40, 2**63], ids=["2**40", "2**63"])
    @pytest.mark.parametrize("where", ["conv", "context_dim"])
    def test_absurd_size_is_a_config_error(self, size, where):
        """Refused from the shape algebra, before numpy is asked for the memory."""
        layers = (Conv(size),) if where == "conv" else (Conv(4),)
        context_dim = size if where == "context_dim" else 4
        with pytest.raises(ConfigError, match="parameters"):
            EncoderConfig(layers, 8, context_dim)


class TestBuildAndEncode:
    def test_output_shape_batch32_width196(self):
        block, _ = build_encoder(preset_config("smaller-pack", 196), seed=1)
        x = np.random.default_rng(0).uniform(size=(32, 196))
        h = encode(block, x)
        assert h.data.shape == (32, 512)

    def test_hidden_width_independent_of_input_width(self):
        for width in (36, 64, 196):
            block, _ = build_encoder(preset_config("smaller-pack", width), seed=1)
            h = encode(block, np.zeros((2, width)))
            assert h.data.shape == (2, 512)

    @pytest.mark.parametrize("preset, width, read", [("smaller-pack", 196, 180),
                                                     ("larger-pack", 200, 199)])
    def test_eval_features_read_only_the_receptive_field(self, preset, width, read):
        """Valid width-2 convs and floor pooling leave the positions from `read` on unread.

        At width 196 those are the last 16 unsw_nb15_smaller numerics (smean ...
        is_sm_ips_ports).
        """
        block, _ = build_encoder(preset_config(preset, width), seed=1)
        x = np.random.default_rng(0).uniform(size=(4, width))
        h = encode(block, x).data
        tail = x.copy()
        tail[:, read:] = 1.0 - tail[:, read:]
        assert encode(block, tail).data.tobytes() == h.tobytes()
        last = x.copy()
        last[:, read - 1] = 1.0 - last[:, read - 1]
        assert not np.array_equal(encode(block, last).data, h)

    def test_zero_input_is_finite(self):
        block, _ = build_encoder(small_config(), seed=2)
        h = encode(block, np.zeros((3, 12)))
        assert np.all(np.isfinite(h.data))

    def test_identical_rows_encode_identically_in_eval(self):
        block, _ = build_encoder(small_config(), seed=3)
        x = np.random.default_rng(1).uniform(size=(1, 12))
        batch = np.vstack([x, x, x])
        h = encode(block, batch, training=False)
        np.testing.assert_array_equal(h.data[0], h.data[1])
        np.testing.assert_array_equal(h.data[0], h.data[2])

    def test_eval_mode_is_pure(self):
        block, _ = build_encoder(small_config(), seed=4)
        before = [(l.running_mean.copy(), l.running_var.copy()) for l in block.convs]
        encode(block, np.random.default_rng(2).uniform(size=(5, 12)), training=False)
        for layer, (rm, rv) in zip(block.convs, before):
            np.testing.assert_array_equal(layer.running_mean, rm)
            np.testing.assert_array_equal(layer.running_var, rv)

    def test_train_mode_updates_running_stats(self):
        block, _ = build_encoder(small_config(), seed=4)
        before = block.convs[0].running_mean.copy()
        encode(block, np.random.default_rng(2).uniform(size=(5, 12)), training=True)
        assert not np.array_equal(block.convs[0].running_mean, before)

    def test_same_seed_same_weights(self):
        a, pa = build_encoder(small_config(), seed=7)
        b, pb = build_encoder(small_config(), seed=7)
        np.testing.assert_array_equal(a.convs[0].kernel.data, b.convs[0].kernel.data)
        np.testing.assert_array_equal(pa.weight.data, pb.weight.data)
        c, _ = build_encoder(small_config(), seed=8)
        assert not np.array_equal(a.convs[0].kernel.data, c.convs[0].kernel.data)

    def test_width_mismatch_rejected(self):
        block, _ = build_encoder(small_config(width=12), seed=5)
        with pytest.raises(InvalidShapeError):
            encode(block, np.zeros((2, 13)))

    @pytest.mark.parametrize("shape", [(12,), (2, 12, 1)])
    def test_only_a_matrix_is_encoded(self, shape):
        block, _ = build_encoder(small_config(width=12), seed=5)
        with pytest.raises(InvalidShapeError, match="expected a \\[batch, width\\] input"):
            encode(block, np.zeros(shape))

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_empty_batch_rejected(self, training):
        block, _ = build_encoder(small_config(width=12), seed=5)
        with pytest.raises(InvalidShapeError, match="empty batch"):
            encode(block, np.zeros((0, 12)), training=training)

    def test_gradient_reaches_all_encoder_parameters(self):
        block, proj = build_encoder(small_config(), seed=6)
        x = np.random.default_rng(3).uniform(size=(4, 12))
        with Tape() as tape:
            z = project(proj, encode(block, x, training=True))
            loss = _sum_all(z)
        backward(loss, tape)
        for p in list(block.parameters()) + list(proj.parameters()):
            assert p.grad is not None
            assert np.all(np.isfinite(p.grad))

    def test_eval_mode_has_no_gradient(self):
        block, proj = build_encoder(small_config(), seed=6)
        x = Tensor(np.random.default_rng(3).uniform(size=(4, 12)), requires_grad=True)
        with Tape() as tape:
            loss = _sum_all(project(proj, encode(block, x, training=False)))
        with pytest.raises(ConfigError, match="eval-mode batch norm has no gradient"):
            backward(loss, tape)


def _built(encode_fn, config, x, data_stats=False, bn_params=()):
    """The encoder and projector of seed 5, with `bn_params` and `data_stats` applied.

    `bn_params` replaces the (gamma, beta) of the first convs. With
    `data_stats`, untaped train-mode passes over x first carry the
    running statistics from their initial (0, 1) to x's own: at momentum 0.1
    one pass moves them a tenth of the way, and 50 leave 0.9**50 < 1% of
    the start.
    """
    block, proj = build_encoder(config, seed=5)
    for layer, (gamma, beta) in zip(block.convs, bn_params):
        layer.gamma.data[:] = gamma
        layer.beta.data[:] = beta
    for _ in range(50 if data_stats else 0):
        encode_fn(block, x, training=True)
    return block, proj


def _running_stats(block):
    return [s.copy() for layer in block.convs for s in (layer.running_mean, layer.running_var)]


def _taped_pass(encode_fn, config, x, bn_params=()):
    """Train mode: h, loss, the input and parameter gradients, the BN running stats."""
    block, proj = _built(encode_fn, config, x, bn_params=bn_params)
    xt = Tensor(x, requires_grad=True)
    with Tape() as tape:
        h = encode_fn(block, xt, training=True)
        loss = batch_loss(project(proj, h), 0.5)
    backward(loss, tape)
    grads = {"x": xt.grad, "proj_w": proj.weight.grad, "proj_b": proj.bias.grad}
    for i, layer in enumerate(block.convs):
        for name in ("kernel", "bias", "gamma", "beta"):
            grads[f"{name}{i}"] = getattr(layer, name).grad
    return h.data, float(loss.data), grads, _running_stats(block), len(tape)


def _eval_pass(encode_fn, config, x, data_stats, bn_params=()):
    """Eval mode, untaped: h and the BN running stats, which it must leave untouched."""
    block, _ = _built(encode_fn, config, x, data_stats, bn_params)
    before = _running_stats(block)
    h = encode_fn(block, x, training=False)
    stats = _running_stats(block)
    for got, want in zip(stats, before):
        np.testing.assert_array_equal(got, want)
    return h.data, stats


def _assert_scaled_close(got, want, what):
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= 1e-10 * scale, what


# Pool windows 2, 3 and 4 each with a width remainder (66 -> 65 -> 32 r1 ->
# 31 -> 10 r1 -> 9 -> 2 r1 -> 1), a one-channel conv feeding another, a pool
# before the first conv, a pool after a fused conv and pool (23 -> 22 -> 11
# -> 5 r1 -> 4 -> 1 r1), ties in every pool window, signed gammas, and a full
# preset.
FUSED_CASES = {
    "ties": EncoderConfig((Conv(3), MaxPool(2)), 5, context_dim=2),
    "pools-2-3-4": EncoderConfig((Conv(4), MaxPool(2), Conv(6), MaxPool(3), Conv(5),
                                  MaxPool(4), Conv(3)), 66, context_dim=4),
    "one-channel": EncoderConfig((Conv(1), Conv(3), MaxPool(2), Conv(2)), 9, context_dim=3),
    "pool-first": EncoderConfig((MaxPool(3), Conv(4), MaxPool(2), Conv(3)), 20, context_dim=3),
    "pool-after-pool": EncoderConfig((Conv(4), MaxPool(2), MaxPool(2), Conv(3), MaxPool(3)),
                                     23, context_dim=3),
    "signed-gamma": EncoderConfig((Conv(4), MaxPool(3), Conv(4), MaxPool(2), Conv(3)), 30,
                                  context_dim=3),
    "smaller-pack": preset_config("smaller-pack", 40),
}


# (gamma, beta) of the first convs of "signed-gamma", per channel: a zero
# gamma makes a constant channel, live (beta > 0) or dead (beta < 0), whose
# pool windows all tie; a negative gamma flips which tap is each window's
# maximum; a negative beta leaves whole windows negative before the ReLU,
# and beta -50 leaves a channel dead everywhere.
SIGNED_GAMMA_BN = (
    ([1.2, 0.0, -0.7, 0.9], [0.1, 0.3, -1.0, -50.0]),
    ([-1.0, 0.5, 0.0, 1.1], [-0.8, 0.2, -0.1, 0.0]),
)


def _assert_paths_match(case, training, data_stats=False):
    config = FUSED_CASES[case]
    x = np.random.default_rng(8).uniform(size=(6, config.input_width))
    if case == "ties":
        # A constant row makes every conv output of that row equal, so
        # both pools see ties and both paths must pick the same maximum.
        x[:] = x[:, :1]
    bn_params = SIGNED_GAMMA_BN if case == "signed-gamma" else ()
    if not training:
        # Eval mode is forward-only: h and the untouched running statistics.
        h, stats = _eval_pass(encode, config, x, data_stats, bn_params)
        h_ref, stats_ref = _eval_pass(composed_encode, config, x, data_stats, bn_params)
        _assert_scaled_close(h, h_ref, "h")
        for i, (got, want) in enumerate(zip(stats, stats_ref)):
            _assert_scaled_close(got, want, f"running stat {i}")
        return
    h, loss, grads, stats, entries = _taped_pass(encode, config, x, bn_params)
    h_ref, loss_ref, grads_ref, stats_ref, _ = _taped_pass(composed_encode, config, x,
                                                           bn_params)
    # One entry per pool before the first conv, one for the whole conv stack
    # with the pools after its convs and the global pool, the projection
    # and the loss.
    leading = next(i for i, spec in enumerate(config.layers) if isinstance(spec, Conv))
    assert entries == leading + 3
    if case == "smaller-pack":
        assert entries == 3  # 8 with one entry per conv unit, 11 per conv and per pool
    _assert_scaled_close(h, h_ref, "h")
    assert abs(loss - loss_ref) <= 1e-10 * abs(loss_ref)
    for i, (got, want) in enumerate(zip(stats, stats_ref)):
        _assert_scaled_close(got, want, f"running stat {i}")
    for name, want in grads_ref.items():
        got = grads[name]
        if _analytically_zero(case, name):
            # Both gradients are rounding noise next to the layer's kernel's.
            layer = name[len(name.rstrip("0123456789")):]
            kernel_scale = np.max(np.abs(grads_ref["kernel" + layer]))
            assert np.max(np.abs(got)) <= 1e-10 * kernel_scale, name
            assert np.max(np.abs(want)) <= 1e-10 * kernel_scale, name
        else:
            _assert_scaled_close(got, want, name)


def _analytically_zero(case, name):
    """Train-mode gradients that are exactly 0 whatever the parameters."""
    if name.startswith("bias"):
        # Train-mode BN subtracts the batch mean, which cancels the conv bias.
        return True
    # In pools-2-3-4, every pooled unit of layer 2 is positive, so beta2
    # moves Conv3's whole width-2 input by a per-channel constant. Each input
    # position feeds the single output once per tap, so that is a per-channel
    # constant on Conv3's output, which its train-mode BN cancels.
    return case == "pools-2-3-4" and name == "beta2"


class TestFusedEncoder:
    """`encode` against the composed (batch, channels, width) primitives."""

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("case", sorted(FUSED_CASES))
    def test_matches_composed_primitives(self, case, training):
        _assert_paths_match(case, training)

    @pytest.mark.parametrize("case", sorted(FUSED_CASES))
    def test_eval_with_data_statistics_matches_composed_primitives(self, case):
        # Eval mode folds batch norm into the conv GEMM; running statistics
        # taken from data give every channel its own scale and shift.
        _assert_paths_match(case, training=False, data_stats=True)


class TestTrainStepMemory:
    """What a taped smaller-pack step at UNSW width keeps alive (tracemalloc)."""

    def test_forward_keeps_only_what_backward_reads_until_it_runs(self):
        # The conv stack is one tape entry. Each pooled unit keeps its
        # centred conv output in the conv's padded buffer, its output and a
        # bool routing mask; the unpooled units 1-2 keep only their batch
        # mean and scale, and the global max is folded into the last unit's
        # pool: about 40 MB for 64 views at width 196 (49 MB while units 1-2
        # kept their buffers, 60 MB with one entry per unit). The backward
        # replays units 1-2 from the input and writes each unit's conv
        # output gradient over its buffer and its input gradient over its
        # input: the step peaks at about 46 MB (55 MB while units 1-2 kept
        # their buffers, 72 MB while each rule allocated its input gradient,
        # 83 MB while each unit's backward also allocated a padded gradient,
        # 93 and 113 MB while each unit also kept its im2col rows, about
        # 130 MB forward while pooled units kept their pool input and pooled
        # max). The consumed tape then holds nothing.
        encoder, projector = build_encoder(preset_config("smaller-pack", 196), seed=0)
        opt = AdamW(list(encoder.parameters()) + list(projector.parameters()))
        x = np.random.default_rng(0).uniform(size=(64, 196))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with Tape() as tape:
                loss = batch_loss(project(projector, encode(encoder, x, training=True)), 0.5)
            saved = tracemalloc.get_traced_memory()[0] - before
            backward(loss, tape)
            opt.step()
            opt.zero_grad()
            left, peak = (m - before for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert len(tape) == 3  # the conv stack, the projection and the loss
        assert saved <= 42 * 2**20, f"the forward left {saved / 2**20:.1f} MB"
        assert peak <= 48 * 2**20, f"the step peaked at {peak / 2**20:.1f} MB"
        assert abs(left) <= 2 * 2**20, f"the step left {left / 2**20:.1f} MB"


class TestProjectAndHead:
    def test_project_dims(self):
        block, proj = build_encoder(preset_config("smaller-pack", 36), seed=0)
        h = encode(block, np.zeros((2, 36)))
        z = project(proj, h)
        assert z.data.shape == (2, 256)

    def test_identity_like_projection_truncates(self):
        proj_w = np.zeros((3, 5))
        proj_w[:, :3] = np.eye(3)
        head = ClassificationHead(Tensor(proj_w), Tensor(np.zeros(3)))
        h = np.arange(10.0).reshape(2, 5)
        out = head.logits(Tensor(h))
        np.testing.assert_array_equal(out.data, h[:, :3])

    def test_zero_h_gives_bias(self):
        head = build_classification_head(8, 3, seed=1)
        out = head.logits(Tensor(np.zeros((2, 8))))
        np.testing.assert_allclose(out.data, np.tile(head.bias.data, (2, 1)))

    def test_head_needs_two_classes(self):
        with pytest.raises(ConfigError):
            build_classification_head(8, 1, seed=0)


class TestCheckpoints:
    def test_encoder_roundtrip_reproduces_outputs_bitwise(self, tmp_path):
        block, proj = build_encoder(small_config(), seed=9)
        # Take a train-mode pass first so running stats are non-trivial.
        encode(block, np.random.default_rng(4).uniform(size=(6, 12)), training=True)
        x = np.random.default_rng(5).uniform(size=(4, 12))
        want = project(proj, encode(block, x)).data
        path = str(tmp_path / "enc.npz")
        save_encoder(path, block, proj, extra_meta={"root_seed": 9})
        loaded_block, loaded_proj, meta = load_encoder(path)
        got = project(loaded_proj, encode(loaded_block, x)).data
        np.testing.assert_array_equal(got, want)
        assert meta["root_seed"] == 9
        assert loaded_block.config == block.config

    def test_head_roundtrip(self, tmp_path):
        head = build_classification_head(6, 4, seed=2)
        path = str(tmp_path / "head.npz")
        save_head(path, head, extra_meta={"task": "multiclass"})
        loaded, meta = load_head(path)
        np.testing.assert_array_equal(loaded.weight.data, head.weight.data)
        np.testing.assert_array_equal(loaded.bias.data, head.bias.data)
        assert meta["task"] == "multiclass"

    def test_kind_mixups_rejected(self, tmp_path):
        head = build_classification_head(6, 4, seed=2)
        head_path = str(tmp_path / "head.npz")
        save_head(head_path, head)
        with pytest.raises(CheckpointError):
            load_encoder(head_path)
        block, proj = build_encoder(small_config(), seed=9)
        enc_path = str(tmp_path / "enc.npz")
        save_encoder(enc_path, block, proj)
        with pytest.raises(CheckpointError):
            load_head(enc_path)

    @staticmethod
    def saved_arrays(tmp_path, config, seed=9):
        path = str(tmp_path / "source.npz")
        save_encoder(path, *build_encoder(config, seed=seed))
        return load_arrays(path)

    def test_arrays_of_another_config_rejected(self, tmp_path):
        """Conv6-Pool2-Conv10 arrays under a Conv4-Pool2-Conv8 config: kernel0 is named."""
        arrays, _ = self.saved_arrays(tmp_path, EncoderConfig((Conv(6), MaxPool(2), Conv(10)),
                                                              12, context_dim=5))
        _, meta = self.saved_arrays(tmp_path, small_config())
        path = str(tmp_path / "mixed.npz")
        save_arrays(path, arrays, meta=meta)
        with pytest.raises(CheckpointError, match=r"array 'kernel0' has shape \(6, 1, 2\), "
                                                  r"its config needs \(4, 1, 2\)"):
            load_encoder(path)

    def test_truncated_running_stat_rejected(self, tmp_path):
        arrays, meta = self.saved_arrays(tmp_path, small_config())
        arrays["rvar1"] = arrays["rvar1"][:-1]
        path = str(tmp_path / "short.npz")
        save_arrays(path, arrays, meta=meta)
        with pytest.raises(CheckpointError, match=r"'rvar1' has shape \(7,\)"):
            load_encoder(path)

    def test_missing_array_named(self, tmp_path):
        arrays, meta = self.saved_arrays(tmp_path, small_config())
        del arrays["beta1"]
        path = str(tmp_path / "missing.npz")
        save_arrays(path, arrays, meta=meta)
        with pytest.raises(CheckpointError, match="lacks array 'beta1'"):
            load_encoder(path)

    @pytest.mark.parametrize("preset", ["smaller-pack", "larger-pack"])
    def test_save_load_save_is_byte_identical(self, tmp_path, preset):
        block, proj = build_encoder(preset_config(preset, 40), seed=2)
        encode(block, np.random.default_rng(3).uniform(size=(5, 40)), training=True)
        first, second = str(tmp_path / "first.npz"), str(tmp_path / "second.npz")
        save_encoder(first, block, proj, extra_meta={"root_seed": 2})
        loaded_block, loaded_proj, meta = load_encoder(first)
        save_encoder(second, loaded_block, loaded_proj, extra_meta=meta)
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()

    @pytest.mark.parametrize("weight, bias", [((6,), (1,)), ((4, 6), (3,)), ((4, 6), (4, 1))],
                             ids=["1d-weight", "short-bias", "2d-bias"])
    def test_inconsistent_head_rejected(self, tmp_path, weight, bias):
        path = str(tmp_path / "head.npz")
        save_arrays(path, {"weight": np.zeros(weight), "bias": np.zeros(bias)},
                    meta={"kind": "head"})
        with pytest.raises(CheckpointError, match="do not make a head"):
            load_head(path)


def _sum_all(t: Tensor) -> Tensor:
    """Differentiable sum over every element, as a scalar loss for tests."""
    from flowcl.numgrad import record_op

    out = Tensor(np.array(t.data.sum()))
    return record_op(out, [t], lambda g: (np.broadcast_to(g, t.data.shape),))
