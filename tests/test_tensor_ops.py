"""Unit tests for the autodiff ops: forward values, shapes, and gradients."""

import tracemalloc

import numpy as np
import pytest

from flowcl.errors import (
    ConfigError,
    DegenerateVectorError,
    InvalidLabelError,
    InvalidShapeError,
)
from flowcl.model import Conv, EncoderConfig, MaxPool, build_encoder, encode, preset_config
from flowcl.numgrad import (
    Tape,
    Tensor,
    affine,
    backward,
    batchnorm1d,
    conv1d,
    cosine_similarity,
    global_maxpool1d,
    maxpool1d,
    record_op,
    relu,
    softmax_cross_entropy,
)
from flowcl.numgrad import ops
from flowcl.numgrad.ops import BN_EPS

from oracles import (
    conv_bn_relu,
    fd_gradient,
    global_maxpool_cl,
    naive_conv1d,
    rel_error,
    spread_values,
    unit_chain_encode,
)


class TestTapeMechanics:
    def test_sum_gradient_is_all_ones(self):
        x = Tensor(np.array([[1.0, -2.0, 3.0, 0.5]]), requires_grad=True)
        with Tape() as tape:
            loss = affine(x, Tensor(np.ones((1, 4))), Tensor(np.zeros(1)))
        backward(loss, tape)
        np.testing.assert_array_equal(x.grad, np.ones((1, 4)))

    def test_quadratic_form_gradient_is_2x(self):
        # x used as both the input and the weight of one affine: x.x.
        x = Tensor(np.array([[0.5, -1.0, 2.0]]), requires_grad=True)
        with Tape() as tape:
            loss = affine(x, x, Tensor(np.zeros(1)))
        backward(loss, tape)
        np.testing.assert_allclose(x.grad, 2.0 * x.data, rtol=0, atol=0)

    def test_fan_out_accumulates_by_sum(self):
        x = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        w = Tensor(np.ones((1, 2)))
        b = Tensor(np.zeros(1))
        with Tape() as tape:
            a = affine(x, w, b)
            c = affine(x, w, b)
            loss = affine(_stack2(a, c), Tensor(np.ones((1, 2))), b)
        backward(loss, tape)
        np.testing.assert_array_equal(x.grad, 2.0 * np.ones((1, 2)))

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones((1, 3)), requires_grad=True)
        with Tape() as tape:
            y = relu(x)
        with pytest.raises(InvalidShapeError):
            backward(y, tape)

    def test_grad_accumulates_across_backward_calls(self):
        x = Tensor(np.array([[1.0, 1.0]]), requires_grad=True)
        for _ in range(2):
            with Tape() as tape:
                loss = affine(x, Tensor(np.ones((1, 2))), Tensor(np.zeros(1)))
            backward(loss, tape)
        np.testing.assert_array_equal(x.grad, 2.0 * np.ones((1, 2)))

    def test_untracked_inputs_get_no_grad(self):
        x = Tensor(np.ones((1, 2)))  # requires_grad defaults to False
        w = Tensor(np.ones((1, 2)), requires_grad=True)
        with Tape() as tape:
            loss = affine(x, w, Tensor(np.zeros(1)))
        backward(loss, tape)
        assert x.grad is None
        np.testing.assert_array_equal(w.grad, np.ones((1, 2)))

    def test_no_tape_means_no_recording(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        y = relu(x)
        assert y.grad is None and x.grad is None

    def test_second_backward_on_a_tape_raises(self):
        # Rules may overwrite what they saved, so a tape takes one backward.
        x = Tensor(np.array([[1.0, -2.0, 3.0]]), requires_grad=True)
        with Tape() as tape:
            loss = affine(relu(x), Tensor(np.ones((1, 3))), Tensor(np.zeros(1)))
        backward(loss, tape)
        first = x.grad.copy()
        with pytest.raises(ConfigError, match="consumed by an earlier backward"):
            backward(loss, tape)
        np.testing.assert_array_equal(x.grad, first)

    def test_tape_is_consumed_when_a_rule_raises_part_way(self):
        # The pool and affine rules run before the eval-mode unit's rule raises.
        rng = np.random.default_rng(3)
        params = [Tensor(rng.normal(size=shape), requires_grad=True)
                  for shape in ((1, 5, 1), (3, 1, 2), (3,), (3,), (3,))]
        with Tape() as tape:
            h = global_maxpool_cl(conv_bn_relu(*params, np.zeros(3), np.ones(3),
                                               training=False))
            loss = affine(h, Tensor(np.ones((1, 3))), Tensor(np.zeros(1)))
        with pytest.raises(ConfigError, match="eval-mode batch norm has no gradient"):
            backward(loss, tape)
        with pytest.raises(ConfigError, match="consumed by an earlier backward"):
            backward(loss, tape)

    def test_op_that_never_reaches_the_loss_is_skipped(self):
        x = Tensor(np.array([[1.0, -2.0]]), requires_grad=True)
        with Tape() as tape:
            record_op(Tensor(3.0 * x.data), (x,), lambda g: pytest.fail("a dead op's rule ran"))
            loss = affine(x, Tensor(np.ones((1, 2))), Tensor(np.zeros(1)))
        backward(loss, tape)
        np.testing.assert_array_equal(x.grad, np.ones((1, 2)))

    def test_len_counts_recorded_entries_after_backward(self):
        x = Tensor(np.array([[1.0, -2.0]]), requires_grad=True)
        with Tape() as tape:
            loss = affine(relu(relu(x)), Tensor(np.ones((1, 2))), Tensor(np.zeros(1)))
        assert len(tape) == 3
        backward(loss, tape)
        assert len(tape) == 3


def _stack2(a: Tensor, b: Tensor) -> Tensor:
    """Differentiable concat of two (1,1) tensors into (1,2), for fan-out tests."""
    from flowcl.numgrad.tensor import record_op

    out = Tensor(np.concatenate([a.data, b.data], axis=1))

    def rule(g):
        return g[:, :1], g[:, 1:]

    return record_op(out, (a, b), rule)


class TestConv1d:
    def test_spec_example_values(self):
        out = conv1d(Tensor(np.array([[[1.0, 2.0, 3.0]]])),
                     Tensor(np.array([[[1.0, 1.0]]])),
                     Tensor(np.zeros(1)))
        np.testing.assert_allclose(out.data, [[[3.0, 5.0]]])

    def test_left_tap_identity_kernel(self):
        out = conv1d(Tensor(np.array([[[5.0, 7.0, 9.0]]])),
                     Tensor(np.array([[[1.0, 0.0]]])),
                     Tensor(np.zeros(1)))
        np.testing.assert_allclose(out.data, [[[5.0, 7.0]]])

    def test_zero_kernel_passes_bias(self):
        out = conv1d(Tensor(np.ones((1, 1, 4))),
                     Tensor(np.zeros((1, 1, 2))),
                     Tensor(np.array([2.5])))
        np.testing.assert_allclose(out.data, np.full((1, 1, 3), 2.5))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_naive_loop(self, seed):
        rng = np.random.default_rng(1000 + seed)
        batch, cin, cout, width = (int(rng.integers(1, 5)) for _ in range(4))
        width += 2
        x = rng.normal(size=(batch, cin, width))
        k = rng.normal(size=(cout, cin, 2))
        b = rng.normal(size=cout)
        out = conv1d(Tensor(x), Tensor(k), Tensor(b))
        np.testing.assert_allclose(out.data, naive_conv1d(x, k, b), rtol=1e-12, atol=1e-12)

    def test_width_one_rejected(self):
        with pytest.raises(InvalidShapeError):
            conv1d(Tensor(np.ones((1, 1, 1))), Tensor(np.ones((1, 1, 2))), Tensor(np.zeros(1)))

    def test_channel_mismatch_rejected(self):
        with pytest.raises(InvalidShapeError):
            conv1d(Tensor(np.ones((1, 3, 5))), Tensor(np.ones((2, 2, 2))), Tensor(np.zeros(2)))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        x0 = rng.normal(size=(2, 3, 6))
        k0 = rng.normal(size=(4, 3, 2))
        b0 = rng.normal(size=4)
        weight = rng.normal(size=(2, 4, 5))  # fixed projection to a scalar

        def run(x, k, b):
            return float((conv1d(Tensor(x), Tensor(k), Tensor(b)).data * weight).sum())

        x_t = Tensor(x0, requires_grad=True)
        k_t = Tensor(k0, requires_grad=True)
        b_t = Tensor(b0, requires_grad=True)
        with Tape() as tape:
            out = conv1d(x_t, k_t, b_t)
            loss = _weighted_sum(out, weight)
        backward(loss, tape)
        assert rel_error(x_t.grad, fd_gradient(lambda v: run(v, k0, b0), x0.copy())) < 1e-6
        assert rel_error(k_t.grad, fd_gradient(lambda v: run(x0, v, b0), k0.copy())) < 1e-6
        assert rel_error(b_t.grad, fd_gradient(lambda v: run(x0, k0, v), b0.copy())) < 1e-6


def _weighted_sum(t: Tensor, weight: np.ndarray) -> Tensor:
    """Differentiable scalar sum(t * weight) for gradient tests."""
    from flowcl.numgrad.tensor import record_op

    out = Tensor(float((t.data * weight).sum()))

    def rule(g):
        return (float(g) * weight,)

    return record_op(out, (t,), rule)


class TestMaxPool1d:
    def test_spec_example_values(self):
        out = maxpool1d(Tensor(np.array([[[1.0, 5.0, 2.0, 4.0, 3.0, 9.0]]])), 3)
        np.testing.assert_allclose(out.data, [[[5.0, 9.0]]])

    def test_window_one_is_identity(self):
        x = np.arange(8.0).reshape(1, 2, 4)
        out = maxpool1d(Tensor(x), 1)
        np.testing.assert_array_equal(out.data, x)

    def test_trailing_remainder_dropped(self):
        out = maxpool1d(Tensor(np.array([[[1.0, 2.0, 3.0, 4.0, 5.0]]])), 2)
        np.testing.assert_allclose(out.data, [[[2.0, 4.0]]])

    @pytest.mark.parametrize("width,window", [(6, 2), (7, 3), (12, 4), (5, 5)])
    def test_output_length_is_floor_division(self, width, window):
        rng = np.random.default_rng(width * 10 + window)
        out = maxpool1d(Tensor(rng.normal(size=(2, 3, width))), window)
        assert out.shape == (2, 3, width // window)

    def test_window_larger_than_width_rejected(self):
        with pytest.raises(InvalidShapeError):
            maxpool1d(Tensor(np.ones((1, 1, 3))), 4)

    def test_gradient_routes_to_argmax_only(self):
        x = Tensor(np.array([[[1.0, 5.0, 2.0, 4.0, 3.0, 9.0]]]), requires_grad=True)
        with Tape() as tape:
            out = maxpool1d(x, 3)
            loss = _weighted_sum(out, np.array([[[1.0, 10.0]]]))
        backward(loss, tape)
        np.testing.assert_array_equal(x.grad, [[[0.0, 1.0, 0.0, 0.0, 0.0, 10.0]]])

    def test_ties_route_to_the_first_maximum(self):
        x = Tensor(np.array([[[3.0, 3.0, 1.0, 2.0, 2.0, 2.0, 2.0]]]), requires_grad=True)
        with Tape() as tape:
            loss = _weighted_sum(maxpool1d(x, 3), np.array([[[1.0, 10.0]]]))
        backward(loss, tape)
        np.testing.assert_array_equal(x.grad, [[[1.0, 0.0, 0.0, 10.0, 0.0, 0.0, 0.0]]])
        y = Tensor(np.array([[[1.0, 4.0, 4.0]]]), requires_grad=True)
        with Tape() as tape:
            loss = _weighted_sum(global_maxpool1d(y), np.array([[5.0]]))
        backward(loss, tape)
        np.testing.assert_array_equal(y.grad, [[[0.0, 5.0, 0.0]]])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        x0 = spread_values(rng, (2, 3, 9), scale=2.0)
        weight = rng.normal(size=(2, 3, 3))

        def run(x):
            return float((maxpool1d(Tensor(x), 3).data * weight).sum())

        x_t = Tensor(x0, requires_grad=True)
        with Tape() as tape:
            loss = _weighted_sum(maxpool1d(x_t, 3), weight)
        backward(loss, tape)
        assert rel_error(x_t.grad, fd_gradient(run, x0.copy())) < 1e-6


class TestGlobalMaxPool1d:
    def test_reduces_to_channel_vector(self):
        x = np.array([[[1.0, 7.0, 3.0], [4.0, -1.0, 2.0]]])
        out = global_maxpool1d(Tensor(x))
        np.testing.assert_array_equal(out.data, [[7.0, 4.0]])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        x0 = spread_values(rng, (3, 4, 5))
        weight = rng.normal(size=(3, 4))

        def run(x):
            return float((global_maxpool1d(Tensor(x)).data * weight).sum())

        x_t = Tensor(x0, requires_grad=True)
        with Tape() as tape:
            loss = _weighted_sum(global_maxpool1d(x_t), weight)
        backward(loss, tape)
        assert rel_error(x_t.grad, fd_gradient(run, x0.copy())) < 1e-6


class TestBatchNorm1d:
    def _stats(self, ch):
        return np.zeros(ch), np.ones(ch)

    def test_constant_input_returns_beta(self):
        rm, rv = self._stats(2)
        out = batchnorm1d(Tensor(np.full((3, 2, 4), 5.0)),
                          Tensor(np.array([3.0, -1.0])), Tensor(np.array([0.25, 2.0])),
                          rm, rv, training=True)
        np.testing.assert_allclose(out.data[:, 0, :], 0.25)
        np.testing.assert_allclose(out.data[:, 1, :], 2.0)

    def test_two_point_input_normalizes_to_unit_spread(self):
        rm, rv = self._stats(1)
        out = batchnorm1d(Tensor(np.array([[[-1.0, 1.0]]])),
                          Tensor(np.ones(1)), Tensor(np.zeros(1)), rm, rv, training=True)
        np.testing.assert_allclose(out.data, [[[-1.0, 1.0]]], atol=1e-4)

    def test_eval_mode_uses_running_stats(self):
        rm, rv = np.zeros(1), np.ones(1)
        out = batchnorm1d(Tensor(np.full((1, 1, 1), 3.0)),
                          Tensor(np.array([2.0])), Tensor(np.array([1.0])),
                          rm, rv, training=False)
        np.testing.assert_allclose(out.data, 7.0, atol=1e-4)

    def test_eval_mode_leaves_running_stats_alone(self):
        rm, rv = np.array([1.5]), np.array([2.5])
        batchnorm1d(Tensor(np.ones((2, 1, 3))), Tensor(np.ones(1)), Tensor(np.zeros(1)),
                    rm, rv, training=False)
        np.testing.assert_array_equal(rm, [1.5])
        np.testing.assert_array_equal(rv, [2.5])

    def test_train_mode_updates_running_stats_by_ema(self):
        rng = np.random.default_rng(17)
        x = rng.normal(loc=2.0, size=(4, 2, 5))
        rm, rv = np.zeros(2), np.ones(2)
        batchnorm1d(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                    rm, rv, training=True)
        np.testing.assert_allclose(rm, 0.1 * x.mean(axis=(0, 2)), rtol=1e-12)
        np.testing.assert_allclose(rv, 0.9 + 0.1 * x.var(axis=(0, 2)), rtol=1e-12)

    def test_eval_mode_has_no_gradient(self):
        rm, rv = self._stats(2)
        x = Tensor(np.ones((2, 2, 3)), requires_grad=True)
        with Tape() as tape:
            out = batchnorm1d(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), rm, rv,
                              training=False)
            loss = _weighted_sum(out, np.ones(out.shape))
        with pytest.raises(ConfigError, match="eval-mode batch norm has no gradient"):
            backward(loss, tape)

    def test_single_element_train_rejected(self):
        rm, rv = self._stats(1)
        with pytest.raises(InvalidShapeError):
            batchnorm1d(Tensor(np.ones((1, 1, 1))), Tensor(np.ones(1)), Tensor(np.zeros(1)),
                        rm, rv, training=True)

    # Train mode only: eval mode is forward-only (see test_eval_mode_has_no_gradient).
    @pytest.mark.parametrize("training", [True])
    def test_gradients_match_finite_differences(self, training):
        rng = np.random.default_rng(19)
        x0 = rng.normal(size=(3, 2, 4))
        g0 = rng.normal(size=2) + 1.5
        b0 = rng.normal(size=2)
        weight = rng.normal(size=(3, 2, 4))
        rm0 = rng.normal(size=2)
        rv0 = rng.uniform(0.5, 2.0, size=2)

        def run(x, g, b):
            out = batchnorm1d(Tensor(x), Tensor(g), Tensor(b),
                              rm0.copy(), rv0.copy(), training=training)
            return float((out.data * weight).sum())

        x_t = Tensor(x0, requires_grad=True)
        g_t = Tensor(g0, requires_grad=True)
        b_t = Tensor(b0, requires_grad=True)
        with Tape() as tape:
            out = batchnorm1d(x_t, g_t, b_t, rm0.copy(), rv0.copy(), training=training)
            loss = _weighted_sum(out, weight)
        backward(loss, tape)
        assert rel_error(x_t.grad, fd_gradient(lambda v: run(v, g0, b0), x0.copy())) < 1e-6
        assert rel_error(g_t.grad, fd_gradient(lambda v: run(x0, v, b0), g0.copy())) < 1e-6
        assert rel_error(b_t.grad, fd_gradient(lambda v: run(x0, g0, v), b0.copy())) < 1e-6


class TestConvBnRelu:
    """Train-mode gradients of one unit against central differences."""

    @pytest.mark.parametrize("gamma,pool", [
        pytest.param(None, None, id="True"),
        # The pool runs before the shift and the ReLU: width 4 pools to 2
        # (window 2) or to 1 with a remainder (window 3). A zero gamma would
        # make its channel's windows tie, where max has no derivative.
        pytest.param(None, 2, id="True-pool2"),
        pytest.param([-0.8, 0.6, -1.2, 0.7], 3, id="True-negative-gamma-pool3"),
    ])
    def test_gradients_match_finite_differences(self, gamma, pool):
        rng = np.random.default_rng(29)
        x0 = rng.normal(size=(3, 5, 2))  # channels-last (batch, width, ch)
        k0 = rng.normal(size=(4, 2, 2))
        kb0 = rng.normal(size=4)
        g0 = rng.uniform(0.5, 1.5, size=4)
        if gamma is not None:
            g0 = np.array(gamma)
        be0 = rng.normal(size=4)
        rm0 = rng.normal(size=4)
        rv0 = rng.uniform(0.5, 2.0, size=4)
        weight = rng.normal(size=(3, 4 // (pool or 1), 4))
        values = [x0, k0, kb0, g0, be0]

        def forward(*args):
            return conv_bn_relu(*args, rm0.copy(), rv0.copy(), training=True, pool=pool)

        # Central differences are only valid away from the ReLU kink and,
        # with a pool, away from a tie for a window's maximum.
        pre = batchnorm1d(conv1d(Tensor(x0.transpose(0, 2, 1)), Tensor(k0), Tensor(kb0)),
                          Tensor(g0), Tensor(be0), rm0.copy(), rv0.copy(), training=True)
        if pool is None:
            assert np.min(np.abs(pre.data)) > 1e-3
        else:
            windows = np.sort(pre.data[:, :, :pool * (4 // pool)].reshape(3, 4, -1, pool))
            assert np.min(np.abs(windows[..., -1])) > 1e-3
            assert np.min(windows[..., -1] - windows[..., -2]) > 1e-3

        params = [Tensor(v, requires_grad=True) for v in values]
        with Tape() as tape:
            loss = _weighted_sum(forward(*params), weight)
        backward(loss, tape)
        for i, (p, v) in enumerate(zip(params, values)):
            def run(trial, i=i):
                args = [Tensor(a) for a in values]
                args[i] = Tensor(trial)
                return float((forward(*args).data * weight).sum())

            numeric = fd_gradient(run, v.copy())
            if i == 2:
                # Train-mode batch norm cancels the conv bias exactly.
                assert np.max(np.abs(p.grad)) < 1e-12 and np.max(np.abs(numeric)) < 1e-8
            else:
                assert rel_error(p.grad, numeric) < 1e-6, f"input {i}"

    @pytest.mark.parametrize("pool", [None, 2])
    def test_eval_mode_has_no_gradient(self, pool):
        rng = np.random.default_rng(29)
        params = [Tensor(rng.normal(size=shape), requires_grad=True)
                  for shape in ((3, 5, 2), (4, 2, 2), (4,), (4,), (4,))]
        with Tape() as tape:
            out = conv_bn_relu(*params, np.zeros(4), np.ones(4), training=False, pool=pool)
            loss = _weighted_sum(out, np.ones(out.shape))
        with pytest.raises(ConfigError, match="eval-mode batch norm has no gradient"):
            backward(loss, tape)
        assert all(p.grad is None for p in params)


def _composed_unit(x, kernel, bias, gamma, beta, running_mean, running_var, training, pool):
    """conv1d, batchnorm1d, relu and maxpool1d on the (batch, ch, width) layout."""
    out = conv1d(_transposed(x), kernel, bias)
    out = relu(batchnorm1d(out, gamma, beta, running_mean, running_var, training=training))
    return _transposed(out if pool is None else maxpool1d(out, pool))


def _transposed(t: Tensor) -> Tensor:
    """Differentiable swap of the last two axes of a 3-D tensor."""
    from flowcl.numgrad.tensor import record_op

    return record_op(Tensor(t.data.transpose(0, 2, 1)), (t,),
                     lambda g: (g.transpose(0, 2, 1),))


class TestConvBnReluPool:
    """`conv_bn_relu(pool=k)` against the composed (batch, ch, width) primitives.

    Per channel: gamma 0 with a live beta makes a constant channel, so every
    pool window ties; negative gammas flip which tap is each window's
    maximum; a negative beta leaves whole windows negative before the ReLU,
    and beta -50 leaves a channel dead everywhere. "ties" also makes every
    row constant along the width, so every window ties in every channel.
    """

    GAMMA = np.array([1.2, 0.0, -0.7, 0.9, -1.5])
    BETA = np.array([0.1, 0.3, -1.0, -50.0, 0.4])

    @pytest.mark.parametrize("data", ["random", "ties"])
    @pytest.mark.parametrize("window,width", [(2, 10), (3, 12), (4, 15)])
    @pytest.mark.parametrize("training", [True, False])
    def test_matches_composed_primitives(self, training, window, width, data):
        rng = np.random.default_rng(31)
        x0 = rng.normal(size=(6, width, 3))
        if data == "ties":
            x0[:] = x0[:, :1]
        kernel = rng.normal(size=(5, 3, 2))
        bias = rng.normal(size=5)
        if training:
            running_mean, running_var = rng.normal(size=5), rng.uniform(0.5, 2.0, size=5)
        else:
            # Eval mode with statistics of the data: every channel gets its
            # own scale and shift, and the windows straddle zero.
            z = conv1d(Tensor(x0.transpose(0, 2, 1)), Tensor(kernel), Tensor(bias)).data
            running_mean, running_var = z.mean(axis=(0, 2)), z.var(axis=(0, 2)) + 0.1
        values = [x0, kernel, bias, self.GAMMA, self.BETA]
        if not training:
            # Eval mode is forward-only: the output, and running statistics
            # left untouched.
            def untaped(unit):
                stats = [running_mean.copy(), running_var.copy()]
                out = unit(*(Tensor(v) for v in values), *stats, training=False, pool=window)
                np.testing.assert_array_equal(stats[0], running_mean)
                np.testing.assert_array_equal(stats[1], running_var)
                return out.data

            out = untaped(conv_bn_relu)
            assert np.any(out[:, :, 2] == 0.0) and np.all(out[:, :, 3] == 0.0)
            _assert_close_to_scale(out, untaped(_composed_unit), "output")
            return
        weight = rng.normal(size=(6, (width - 1) // window, 5))

        def taped(unit):
            params = [Tensor(v, requires_grad=True) for v in values]
            stats = [running_mean.copy(), running_var.copy()]
            with Tape() as tape:
                out = unit(*params, *stats, training=True, pool=window)
                loss = _weighted_sum(out, weight)
            backward(loss, tape)
            return out.data, [p.grad for p in params], stats, len(tape)

        out, grads, stats, entries = taped(conv_bn_relu)
        out_ref, grads_ref, stats_ref, _ = taped(_composed_unit)
        assert entries == 2  # the fused unit and the weighted sum
        assert np.any(out[:, :, 2] == 0.0) and np.all(out[:, :, 3] == 0.0)
        _assert_close_to_scale(out, out_ref, "output")
        for i, (got, want) in enumerate(zip(stats, stats_ref)):
            _assert_close_to_scale(got, want, f"running stat {i}")
        for i, (got, want) in enumerate(zip(grads, grads_ref)):
            if i == 2:
                # Train-mode batch norm cancels the conv bias: the fused unit
                # returns exact zeros, the composed chain rounding noise.
                assert np.all(got == 0.0)
                assert np.max(np.abs(want)) <= 1e-10 * np.max(np.abs(grads_ref[1]))
            else:
                _assert_close_to_scale(got, want, f"input {i}")


def _assert_close_to_scale(got, want, what):
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want)), what


class TestConvBnReluPadding:
    """The unit's conv rule reads x through a zero-padded output gradient.

    In flat (batch * width) rows, each batch row's last position of the
    padded gradient is zero, so the rows that pair across a batch boundary
    add nothing. These shapes make those zero rows a large share: a conv
    output of width 1, a pool that drops a remainder, one input channel and
    one batch row.
    """

    @pytest.mark.parametrize("batch,width,in_ch,pool", [
        (3, 2, 3, None),  # conv output width 1
        (4, 2, 2, 1),
        (5, 9, 2, 3),  # conv output 8: two windows of 3, two positions dropped
        (4, 7, 1, 4),  # one input channel; conv output 6, two positions dropped
        (1, 9, 1, 3),  # one batch row
        (1, 6, 3, None),
    ])
    def test_gradients_match_composed_primitives(self, batch, width, in_ch, pool):
        rng = np.random.default_rng(37)
        values = [rng.normal(size=(batch, width, in_ch)), rng.normal(size=(4, in_ch, 2)),
                  rng.normal(size=4), np.array([1.1, -0.8, 0.6, 1.4]), rng.normal(size=4)]
        stats = rng.normal(size=4), rng.uniform(0.5, 2.0, size=4)
        out_w = (width - 1) // (pool or 1)
        weight = rng.normal(size=(batch, out_w, 4))

        def taped(unit, track_x=True):
            params = [Tensor(v, requires_grad=track_x or i > 0) for i, v in enumerate(values)]
            with Tape() as tape:
                out = unit(*params, *(s.copy() for s in stats), training=True, pool=pool)
                loss = _weighted_sum(out, weight)
            backward(loss, tape)
            return out.data, [p.grad for p in params]

        out, grads = taped(conv_bn_relu)
        out_ref, grads_ref = taped(_composed_unit)
        _assert_close_to_scale(out, out_ref, "output")
        for i, (got, want) in enumerate(zip(grads, grads_ref)):
            if i == 2:
                assert np.all(got == 0.0)  # batch norm cancels the conv bias
            else:
                _assert_close_to_scale(got, want, f"input {i}")
        # An untracked input, such as the encoder's, gets no gradient, and
        # skipping it leaves the parameters' gradients exactly as they were.
        _, untracked = taped(conv_bn_relu, track_x=False)
        assert untracked[0] is None
        for got, want in zip(untracked[1:], grads[1:]):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("pool", [None, 2, 3])
    def test_taped_unit_keeps_no_im2col_rows(self, pool):
        """A taped unit keeps its centred conv output, its output and its pool mask.

        The centred output lives in the conv's buffer, with one pad position
        per batch row and one zero row before the first. The im2col rows a
        unit used to keep were twice the size of its input, as large again
        as all three here.
        """
        rng = np.random.default_rng(41)
        batch, width, in_ch, out_ch = 16, 101, 32, 32
        x = Tensor(rng.normal(size=(batch, width, in_ch)), requires_grad=True)
        params = [Tensor(rng.normal(size=shape), requires_grad=True)
                  for shape in ((out_ch, in_ch, 2), (out_ch,), (out_ch,), (out_ch,))]
        stats = np.zeros(out_ch), np.ones(out_ch)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with Tape() as tape:
                conv_bn_relu(x, *params, *stats, training=True, pool=pool)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(tape) == 1
        out_w = (width - 1) // (pool or 1)
        centred = (batch * width + 1) * out_ch * 8
        out = batch * out_w * out_ch * 8
        mask = 0 if pool is None else batch * out_w * pool * out_ch  # one byte per bool
        assert kept <= centred + out + mask + 16 * 2**10, f"the unit kept {kept} bytes"


def _im2col_unit(x, kernel, bias, gamma, beta, running_mean, running_var, pool):
    """An eval-mode unit with its conv as np.concatenate im2col rows and one GEMM.

    The folded eval path's float64 operations in the same order: the
    kernel scaled by gamma / sqrt(running_var + BN_EPS), the pool, the
    shift and the ReLU.
    """
    scale = gamma * (1.0 / np.sqrt(running_var + BN_EPS))
    shift = (bias - running_mean) * scale
    shift += beta
    x = x if x.ndim == 3 else x[:, :, None]
    batch, width, in_ch = x.shape
    k2 = (kernel * scale[:, None, None]).transpose(2, 1, 0).reshape(2 * in_ch, -1)
    rows = np.concatenate((x[:, :-1], x[:, 1:]), axis=2).reshape(-1, 2 * in_ch)
    z = (rows @ k2).reshape(batch, width - 1, -1)
    if pool is not None:
        out_w = (width - 1) // pool
        z = z[:, : out_w * pool].reshape(batch, out_w, pool, -1).max(axis=2)
    return np.maximum(z + shift, 0.0)


def _im2col_encode(block, x):
    """`model.encode` in eval mode with every unit an `_im2col_unit`."""
    out = x
    convs = iter(block.convs)
    specs = tuple(block.config.layers)
    for prev, spec, nxt in zip((None,) + specs[:-1], specs, specs[1:] + (None,)):
        if isinstance(spec, Conv):
            layer = next(convs)
            out = _im2col_unit(out, *(t.data for t in (layer.kernel, layer.bias, layer.gamma,
                                                       layer.beta)),
                               layer.running_mean, layer.running_var,
                               nxt.window if isinstance(nxt, MaxPool) else None)
        elif not isinstance(prev, Conv):
            out_w = out.shape[1] // spec.window
            out = out[:, : out_w * spec.window].reshape(len(out), out_w, spec.window, -1).max(axis=2)
    return out.max(axis=1)


def _random_statistics(block, rng):
    """Give each conv layer of block random batch-norm parameters and running statistics."""
    for layer in block.convs:
        ch = layer.gamma.data.size
        layer.gamma.data[...] = rng.normal(size=ch)
        layer.beta.data[...] = rng.normal(size=ch)
        layer.bias.data[...] = rng.normal(size=ch)
        layer.running_mean[...] = rng.normal(size=ch)
        layer.running_var[...] = rng.uniform(0.5, 2.0, size=ch)


class TestConvPairRows:
    """The conv reads its input in place: output row r pairs flat input rows r and r+1.

    Eval-mode outputs must equal an im2col reference bit for bit, at the
    shapes where the pairing has edges: an odd or even number of flat rows
    (B*W), a conv output of width 1, one input channel, one batch row and a
    pool that drops a remainder.
    """

    @pytest.mark.parametrize("batch,width,in_ch,pool", [
        (3, 5, 2, None),  # B*W odd
        (4, 5, 3, None),  # B*W even
        (3, 2, 3, None),  # conv output width 1
        (5, 2, 1, None),  # conv output width 1, one input channel, B*W odd
        (4, 9, 1, 3),  # one input channel; conv output 8, two positions dropped
        (1, 9, 2, 3),  # one batch row; conv output 8, two positions dropped
        (1, 2, 1, None),  # one batch row of one output position
        (2, 8, 4, 2),  # conv output 7, one position dropped
        (6, 37, 8, 3),
    ])
    def test_eval_unit_matches_im2col(self, batch, width, in_ch, pool):
        rng = np.random.default_rng(43)
        shape = (batch, width) if in_ch == 1 else (batch, width, in_ch)
        x = rng.normal(size=shape)
        params = [rng.normal(size=(5, in_ch, 2)), rng.normal(size=5), rng.normal(size=5),
                  rng.normal(size=5)]
        stats = rng.normal(size=5), rng.uniform(0.5, 2.0, size=5)
        out = conv_bn_relu(*(Tensor(v) for v in [x] + params), *stats, training=False,
                           pool=pool)
        np.testing.assert_array_equal(out.data, _im2col_unit(x, *params, *stats, pool))

    @pytest.mark.parametrize("preset,width", [("smaller-pack", 196), ("smaller-pack", 37),
                                              ("larger-pack", 200)])
    def test_eval_encode_matches_im2col(self, preset, width):
        rng = np.random.default_rng(47)
        block, _ = build_encoder(preset_config(preset, width), seed=1)
        _random_statistics(block, rng)
        x = rng.uniform(size=(5, width))
        np.testing.assert_array_equal(encode(block, x).data, _im2col_encode(block, x))

    # GEMM_BLOCK 60 makes each pair GEMM 4 rows in dx (out_ch 5, blocks of 8
    # flat rows over B*W rows) and 8, 12 or 28 rows in the forward with 3, 2
    # or 1 input channels (blocks of 16, 24 or 28 over B*W - 1 rows).
    @pytest.mark.parametrize("batch,width,in_ch", [
        (3, 11, 2),  # forward 32 rows in 24 + 8; dx 33 rows, a one-row tail
        (2, 9, 3),  # forward 17 rows, a one-row tail; dx 18 rows, a two-row tail
        (4, 9, 1),  # one input channel: forward 35 rows in 28 + 7; dx 36, a four-row block
        (3, 11, 1),  # forward 32 rows, a four-row block; dx 33 rows, a one-row tail
        (1, 3, 2),  # one block shorter than 4 rows
    ])
    def test_row_blocks_match_one_call(self, monkeypatch, batch, width, in_ch):
        """Row-blocked pair GEMMs give the bits of one GEMM over all the rows.

        A tail shorter than 4 rows joins the block before it, since a
        one-row GEMM rounds differently; the dx GEMMs with one input
        channel are matrix-vector calls, whose rows go 4 at a time.
        """
        rng = np.random.default_rng(61)
        x0 = rng.normal(size=(batch, width, in_ch))
        params = [rng.normal(size=(5, in_ch, 2)), rng.normal(size=5),
                  np.array([1.1, -0.8, 0.6, 1.4, 0.9]), rng.normal(size=5)]
        stats = rng.normal(size=5), rng.uniform(0.5, 2.0, size=5)
        weight = rng.normal(size=(batch, width - 1, 5))

        def passes():
            buf = ops._conv(x0, params[0])[0][1:]
            evaluated = conv_bn_relu(*(Tensor(v) for v in [x0] + params), *stats,
                                     training=False).data
            x = Tensor(x0.copy(), requires_grad=True)
            with Tape() as tape:
                out = conv_bn_relu(x, *(Tensor(v) for v in params),
                                   *(s.copy() for s in stats), training=True)
                loss = _weighted_sum(out, weight)
            backward(loss, tape)
            return buf, evaluated, out.data, x.grad

        one_call = passes()
        monkeypatch.setattr(ops, "GEMM_BLOCK", 60)
        for what, got, want in zip(("conv buffer", "eval output", "train output", "dx"),
                                   passes(), one_call):
            np.testing.assert_array_equal(got, want, err_msg=what)

    def test_eval_chunk_builds_no_im2col_rows(self):
        """A 64-row eval chunk at UNSW width peaks at about 22 MB.

        It peaked at 30.4 MB while each conv built im2col rows beside its
        output.
        """
        block, _ = build_encoder(preset_config("smaller-pack", 196), seed=0)
        x = np.random.default_rng(0).uniform(size=(64, 196))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            encode(block, x)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 25 * 2**20, f"the eval chunk peaked at {peak / 2**20:.1f} MB"


class TestConvStack:
    """`model.encode`'s one `conv_stack` entry against the chain of one-unit ops.

    The chain (`unit_chain_encode`) is one `conv_bn_relu` per conv with the
    pool right after it, a `maxpool_cl` for every other pool and
    `global_maxpool_cl`. The stack composes each conv's pools into one
    window, folds the global max into the last unit's, keeps nothing of an
    unpooled unit but the last beyond its batch mean and scale, replays such
    units in the backward from the nearest pooled unit's output or the
    input, and writes gradients over dead activations. Eval features, train
    outputs and running statistics must be bit-identical; gradients may
    differ by rounding. The cases: both presets at their UNSW widths
    (larger-pack has three leading unpooled units, replayed from the
    input), the desk-pipeline encoder, two pools in a row, a pool before the
    first conv, and an unpooled unit after a pooled one, replayed from that
    unit's output.
    """

    CASES = {
        "smaller-pack-196": preset_config("smaller-pack", 196),
        "larger-pack-200": preset_config("larger-pack", 200),
        "desk-16": EncoderConfig((Conv(16), MaxPool(2), Conv(32), MaxPool(2), Conv(64)), 16,
                                 context_dim=32),
        "two-pools": EncoderConfig((Conv(4), MaxPool(2), MaxPool(3), Conv(5), MaxPool(2)), 40,
                                   context_dim=3),
        "leading-pool": EncoderConfig((MaxPool(2), Conv(4), Conv(3), MaxPool(2), Conv(5)), 30,
                                      context_dim=3),
        "unpooled-after-pool": EncoderConfig((Conv(4), MaxPool(2), Conv(5), Conv(6), MaxPool(3),
                                              Conv(3)), 40, context_dim=3),
    }

    @staticmethod
    def _block(config):
        block, _ = build_encoder(config, seed=2)
        _random_statistics(block, np.random.default_rng(59))
        return block

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_chain_of_units(self, case):
        config = self.CASES[case]
        rng = np.random.default_rng(53)
        x0 = rng.uniform(size=(12, config.input_width))
        block = self._block(config)
        np.testing.assert_array_equal(encode(block, x0).data,
                                      unit_chain_encode(block, x0).data)
        weight = rng.normal(size=(12, config.hidden_dim))

        def taped(encode_fn):
            block = self._block(config)
            x = Tensor(x0.copy(), requires_grad=True)
            with Tape() as tape:
                h = encode_fn(block, x, training=True)
                loss = _weighted_sum(h, weight)
            h_before = h.data.copy()
            stats = [s for layer in block.convs for s in (layer.running_mean, layer.running_var)]
            stats_before = [s.copy() for s in stats]
            backward(loss, tape)
            # Neither path writes into its input or its output, and the
            # backward's replay leaves the running statistics as the forward did.
            np.testing.assert_array_equal(x.data, x0)
            np.testing.assert_array_equal(h.data, h_before)
            for got, want in zip(stats, stats_before):
                np.testing.assert_array_equal(got, want)
            grads = [x.grad] + [p.grad for p in block.parameters()]
            return h.data, grads, stats, len(tape)

        h, grads, stats, entries = taped(encode)
        h_ref, grads_ref, stats_ref, _ = taped(unit_chain_encode)
        # A maxpool_cl per pool before the first conv, the stack, the weighted sum.
        leading = next(i for i, spec in enumerate(config.layers) if isinstance(spec, Conv))
        assert entries == leading + 2
        np.testing.assert_array_equal(h, h_ref)
        for got, want in zip(stats, stats_ref):
            np.testing.assert_array_equal(got, want)
        for i, (got, want) in enumerate(zip(grads, grads_ref)):
            # Both paths return exact zeros for the conv biases, which
            # train-mode batch norm cancels.
            _assert_close_to_scale(got, want, f"gradient {i}")

    def test_taped_forward_keeps_no_buffer_of_unpooled_units(self):
        """A taped smaller-pack forward keeps the buffers, masks and outputs of units 3-5 only.

        Units 1-2 have no pool, so they keep only their batch mean and
        scale: their conv buffers, 3.2 and 6.4 MB for 64 views at width 196,
        are not in what the forward leaves.
        """
        block, _ = build_encoder(preset_config("smaller-pack", 196), seed=0)
        x = np.random.default_rng(0).uniform(size=(64, 196))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with Tape() as tape:
                encode(block, x, training=True)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(tape) == 1
        # Units 3-5 of (Conv(32), Conv(64), Conv(128), MaxPool(3), Conv(256),
        # MaxPool(2), Conv(512), MaxPool(4)) read inputs 194, 64 and 31 wide;
        # the last unit's window is the global max over its 28 pooled
        # positions, so its output is one position wide. The 1 MB of slack
        # is under a third of unit 1's 3.2 MB buffer.
        expected = 0
        for width_in, ch, window, out_w in ((194, 128, 3, 64), (64, 256, 2, 31),
                                            (31, 512, 28, 1)):
            buf = (64 * width_in + 1) * ch * 8
            mask = 64 * out_w * window * ch  # one byte per bool
            expected += buf + mask + 64 * out_w * ch * 8
        assert kept <= expected + 2**20, \
            f"the forward kept {kept / 2**20:.1f} MB, {expected / 2**20:.1f} MB expected"


class TestRelu:
    def test_spec_example_values(self):
        out = relu(Tensor(np.array([-1.0, 0.0, 2.0])))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_positive_input_unchanged_negative_zeroed(self):
        x = np.array([0.1, 3.0, 7.5])
        np.testing.assert_array_equal(relu(Tensor(x)).data, x)
        np.testing.assert_array_equal(relu(Tensor(-x)).data, np.zeros(3))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(23)
        x0 = rng.normal(size=(4, 6))
        x0 += np.where(x0 >= 0, 0.05, -0.05)  # keep clear of the kink at 0
        weight = rng.normal(size=(4, 6))

        def run(x):
            return float((relu(Tensor(x)).data * weight).sum())

        x_t = Tensor(x0, requires_grad=True)
        with Tape() as tape:
            loss = _weighted_sum(relu(x_t), weight)
        backward(loss, tape)
        assert rel_error(x_t.grad, fd_gradient(run, x0.copy())) < 1e-6


class TestAffine:
    def test_identity_weight_zero_bias(self):
        x = np.array([[1.0, -2.0, 0.5]])
        out = affine(Tensor(x), Tensor(np.eye(3)), Tensor(np.zeros(3)))
        np.testing.assert_array_equal(out.data, x)

    def test_zero_weight_passes_bias(self):
        out = affine(Tensor(np.ones((2, 3))), Tensor(np.zeros((4, 3))),
                     Tensor(np.array([1.0, 2.0, 3.0, 4.0])))
        np.testing.assert_array_equal(out.data, np.tile([1.0, 2.0, 3.0, 4.0], (2, 1)))

    def test_spec_example_values(self):
        out = affine(Tensor(np.array([[1.0, 2.0]])),
                     Tensor(np.array([[1.0, 1.0], [1.0, -1.0]])),
                     Tensor(np.zeros(2)))
        np.testing.assert_allclose(out.data, [[3.0, -1.0]])

    def test_dim_mismatch_rejected(self):
        with pytest.raises(InvalidShapeError):
            affine(Tensor(np.ones((1, 3))), Tensor(np.ones((2, 4))), Tensor(np.zeros(2)))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(29)
        x0 = rng.normal(size=(3, 5))
        w0 = rng.normal(size=(2, 5))
        b0 = rng.normal(size=2)
        weight = rng.normal(size=(3, 2))

        def run(x, w, b):
            return float((affine(Tensor(x), Tensor(w), Tensor(b)).data * weight).sum())

        x_t = Tensor(x0, requires_grad=True)
        w_t = Tensor(w0, requires_grad=True)
        b_t = Tensor(b0, requires_grad=True)
        with Tape() as tape:
            loss = _weighted_sum(affine(x_t, w_t, b_t), weight)
        backward(loss, tape)
        assert rel_error(x_t.grad, fd_gradient(lambda v: run(v, w0, b0), x0.copy())) < 1e-6
        assert rel_error(w_t.grad, fd_gradient(lambda v: run(x0, v, b0), w0.copy())) < 1e-6
        assert rel_error(b_t.grad, fd_gradient(lambda v: run(x0, w0, v), b0.copy())) < 1e-6


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_give_log_k(self):
        out = softmax_cross_entropy(Tensor(np.zeros((3, 4))), [0, 1, 2])
        np.testing.assert_allclose(float(out.data), np.log(4.0), rtol=1e-12)

    def test_saturated_logits_stay_finite(self):
        out = softmax_cross_entropy(Tensor(np.array([[1000.0, -1000.0]])), [0])
        assert np.isfinite(float(out.data))
        np.testing.assert_allclose(float(out.data), 0.0, atol=1e-12)

    def test_hand_computed_value(self):
        out = softmax_cross_entropy(Tensor(np.array([[1.0, 2.0, 3.0]])), [2])
        expected = -np.log(np.exp(3) / (np.exp(1) + np.exp(2) + np.exp(3)))
        np.testing.assert_allclose(float(out.data), expected, rtol=1e-12)
        np.testing.assert_allclose(float(out.data), 0.4076, atol=5e-5)

    def test_out_of_range_label_rejected(self):
        with pytest.raises(InvalidLabelError):
            softmax_cross_entropy(Tensor(np.zeros((2, 3))), [0, 3])
        with pytest.raises(InvalidLabelError):
            softmax_cross_entropy(Tensor(np.zeros((2, 3))), [-1, 0])

    @pytest.mark.parametrize("labels", [[0], [0, 1, 2], [[0, 1]]])
    def test_one_label_per_row_required(self, labels):
        with pytest.raises(InvalidLabelError, match=r"labels must be \(2,\)"):
            softmax_cross_entropy(Tensor(np.zeros((2, 3))), labels)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(31)
        z0 = rng.normal(size=(5, 4))
        labels = rng.integers(0, 4, size=5)

        def run(z):
            return float(softmax_cross_entropy(Tensor(z), labels).data)

        z_t = Tensor(z0, requires_grad=True)
        with Tape() as tape:
            loss = softmax_cross_entropy(z_t, labels)
        backward(loss, tape)
        assert rel_error(z_t.grad, fd_gradient(run, z0.copy())) < 1e-6

    def test_gradient_rows_sum_to_zero(self):
        rng = np.random.default_rng(37)
        z_t = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        with Tape() as tape:
            loss = softmax_cross_entropy(z_t, [0, 5, 2, 2])
        backward(loss, tape)
        np.testing.assert_allclose(z_t.grad.sum(axis=1), np.zeros(4), atol=1e-14)


class TestCosineSimilarity:
    def test_self_similarity_is_one(self):
        a = Tensor(np.array([3.0, -4.0, 1.0]))
        np.testing.assert_allclose(float(cosine_similarity(a, a).data), 1.0, atol=1e-12)

    def test_orthogonal_vectors_give_zero(self):
        out = cosine_similarity(Tensor(np.array([1.0, 0.0])), Tensor(np.array([0.0, 2.0])))
        np.testing.assert_allclose(float(out.data), 0.0, atol=1e-15)

    def test_hand_computed_value(self):
        out = cosine_similarity(Tensor(np.array([1.0, 0.0])), Tensor(np.array([1.0, 1.0])))
        np.testing.assert_allclose(float(out.data), 1.0 / np.sqrt(2.0), rtol=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(41)
        a = rng.normal(size=6)
        b = rng.normal(size=6)
        base = float(cosine_similarity(Tensor(a), Tensor(b)).data)
        scaled = float(cosine_similarity(Tensor(3.7 * a), Tensor(0.002 * b)).data)
        np.testing.assert_allclose(scaled, base, rtol=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateVectorError):
            cosine_similarity(Tensor(np.zeros(3)), Tensor(np.ones(3)))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(43)
        a0 = rng.normal(size=5)
        b0 = rng.normal(size=5)

        def run_a(a):
            return float(cosine_similarity(Tensor(a), Tensor(b0)).data)

        def run_b(b):
            return float(cosine_similarity(Tensor(a0), Tensor(b)).data)

        a_t = Tensor(a0, requires_grad=True)
        b_t = Tensor(b0, requires_grad=True)
        with Tape() as tape:
            loss = cosine_similarity(a_t, b_t)
        backward(loss, tape)
        assert rel_error(a_t.grad, fd_gradient(run_a, a0.copy())) < 1e-6
        assert rel_error(b_t.grad, fd_gradient(run_b, b0.copy())) < 1e-6


class TestCompositeGradient:
    def test_bn_conv_relu_pool_affine_ce_chain(self):
        """Full encoder-style chain against finite differences.

        Normalization sits before the convolution: a conv bias feeding a
        train-mode batchnorm has an exactly-zero gradient (the mean
        subtraction absorbs it), which would make the relative-error
        comparison vacuous for that parameter.
        """
        rng = np.random.default_rng(47)
        x0 = rng.normal(size=(4, 2, 10))
        g0 = rng.uniform(0.5, 1.5, size=2)
        be0 = rng.normal(size=2) * 0.1
        k0 = rng.normal(size=(3, 2, 2)) * 0.5
        kb0 = rng.normal(size=3) * 0.1
        w0 = rng.normal(size=(5, 3)) * 0.5
        wb0 = rng.normal(size=5) * 0.1
        labels = rng.integers(0, 5, size=4)
        values = [g0, be0, k0, kb0, w0, wb0]

        def forward(g, be, k, kb, w, wb):
            h = batchnorm1d(Tensor(x0), as_of(g), as_of(be),
                            np.zeros(2), np.ones(2), training=True)
            h = conv1d(h, as_of(k), as_of(kb))
            h = relu(h)
            h = maxpool1d(h, 3)
            h = global_maxpool1d(h)
            return softmax_cross_entropy(affine(h, as_of(w), as_of(wb)), labels)

        def as_of(v):
            return v if isinstance(v, Tensor) else Tensor(v)

        params = [Tensor(v, requires_grad=True) for v in values]
        with Tape() as tape:
            loss = forward(*params)
        backward(loss, tape)

        for i, (p, v) in enumerate(zip(params, values)):
            def run(x, i=i):
                args = list(values)
                args[i] = x
                return float(forward(*args).data)

            assert rel_error(p.grad, fd_gradient(run, v.copy())) < 1e-5, f"param {i}"
