"""AdamW update math and the exponential learning-rate schedule of `pretrain`."""

import tracemalloc

import numpy as np
import pytest

from flowcl.errors import ConfigError, NonFiniteGradientError
from flowcl.model import Conv, EncoderConfig, build_encoder
from flowcl.numgrad import AdamW, Tensor
from flowcl.numgrad.optim import ADAMW_BLOCK
from flowcl.sscl import ContrastiveConfig, pretrain


def pretrain_lrs(epochs, **config):
    """The per-epoch learning rates that `pretrain` records in its history."""
    encoder, projector = build_encoder(EncoderConfig((Conv(4),), 6, context_dim=4), seed=0)
    x = np.random.default_rng(0).uniform(size=(8, 6))
    history = pretrain(encoder, projector, x,
                       ContrastiveConfig(batch_size=8, epochs=epochs, **config))
    return [entry["lr"] for entry in history]


class TestExponentialLr:
    """lr(epoch) = lr * lr_gamma ** epoch, as `pretrain` applies it."""

    def test_epoch_zero_returns_base_lr(self):
        assert pretrain_lrs(1) == [0.0002]

    def test_gamma_one_is_constant(self):
        assert pretrain_lrs(3, lr=0.01, lr_gamma=1.0) == [0.01, 0.01, 0.01]

    def test_two_epochs_of_default_decay(self):
        np.testing.assert_allclose(pretrain_lrs(3)[2], 0.00019602, rtol=1e-12)

    def test_strictly_positive_and_decreasing(self):
        assert pretrain_lrs(4, lr=0.1, lr_gamma=0.5) == [0.1, 0.05, 0.025, 0.0125]

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ConfigError):
            ContrastiveConfig(lr_gamma=0.0)
        with pytest.raises(ConfigError):
            ContrastiveConfig(lr_gamma=1.5)


def naive_adamw(w0, grads, lr, beta1, beta2, eps, wd):
    """Textbook reference trajectory for a single parameter array."""
    w = w0.copy()
    m = np.zeros_like(w)
    v = np.zeros_like(w)
    out = []
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        w = w - lr * (m_hat / (np.sqrt(v_hat) + eps) + wd * w)
        out.append(w.copy())
    return out


class TestAdamW:
    def test_zero_gradient_applies_pure_decay(self):
        p = Tensor(np.array([2.0, -3.0]), requires_grad=True)
        opt = AdamW([p], lr=0.1, weight_decay=0.5)
        p.grad = np.zeros(2)
        opt.step()
        np.testing.assert_allclose(p.data, np.array([2.0, -3.0]) * (1 - 0.1 * 0.5), rtol=1e-15)

    def test_first_step_moves_by_lr_times_sign(self):
        p = Tensor(np.array([1.0, 1.0]), requires_grad=True)
        opt = AdamW([p], lr=0.01, weight_decay=0.0)
        p.grad = np.array([5.0, -0.3])
        opt.step()
        np.testing.assert_allclose(p.data, [1.0 - 0.01, 1.0 + 0.01], atol=1e-8)

    def test_identical_params_get_identical_updates(self):
        rng = np.random.default_rng(5)
        w0 = rng.normal(size=4)
        g = rng.normal(size=4)
        p1 = Tensor(w0.copy(), requires_grad=True)
        p2 = Tensor(w0.copy(), requires_grad=True)
        opt = AdamW([p1, p2], lr=0.05)
        for _ in range(3):
            p1.grad = g.copy()
            p2.grad = g.copy()
            opt.step()
        np.testing.assert_array_equal(p1.data, p2.data)

    def test_matches_reference_trajectory(self):
        rng = np.random.default_rng(9)
        w0 = rng.normal(size=(3, 2))
        grads = [rng.normal(size=(3, 2)) for _ in range(7)]
        p = Tensor(w0.copy(), requires_grad=True)
        opt = AdamW([p], lr=0.02, weight_decay=0.01)
        expected = naive_adamw(w0, grads, 0.02, 0.9, 0.999, 1e-8, 0.01)
        for g, want in zip(grads, expected):
            p.grad = g
            opt.step()
            np.testing.assert_allclose(p.data, want, rtol=1e-13, atol=1e-15)

    def test_bytes_match_per_parameter_reference(self):
        """60 random steps over parameters of mixed shapes: every update is bit-exact.

        The reference updates each parameter on its own, with the float64
        operations of `AdamW.step`'s formula in the order the flat update uses.
        The second set's 16389, 16383 and 8193 elements make three blocks of
        the update, the last one ragged, and its first two parameters each
        cross a block boundary.
        """
        for shapes in ([(3, 4), (5,), (2, 2, 2), (1,)],
                       [(ADAMW_BLOCK + 5,), (3, ADAMW_BLOCK // 3), (ADAMW_BLOCK // 2 + 1,)]):
            self._assert_bytes_match_reference(shapes)

    def test_step_gathers_gradients_into_its_own_buffer(self):
        """C-ordered gradients are copied once, into a buffer made at construction.

        The non-finite check's bool mask, an eighth of the gradients' bytes,
        is the step's largest allocation; the gather used to allocate a
        gradient-sized array every step.
        """
        rng = np.random.default_rng(13)
        ps = [Tensor(rng.normal(size=s), requires_grad=True) for s in ((64, 512, 2), (512,))]
        opt = AdamW(ps)
        for p in ps:
            p.grad = rng.normal(size=p.shape)
        tracemalloc.start()
        try:
            opt.step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= opt._w.nbytes // 4, f"the step allocated {peak} bytes"

    @staticmethod
    def _assert_bytes_match_reference(shapes):
        rng = np.random.default_rng(11)
        ps = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
        opt = AdamW(ps, lr=0.03, weight_decay=0.02)
        ref = [{"w": p.data.copy(), "m": np.zeros(p.shape), "v": np.zeros(p.shape)}
               for p in ps]
        for t in range(1, 61):
            for p, r in zip(ps, ref):
                p.grad = rng.normal(size=p.shape) * 10.0 ** rng.integers(-6, 6)
                g = p.grad
                r["m"] = r["m"] * 0.9 + g * (1.0 - 0.9)
                r["v"] = r["v"] * 0.999 + (g * g) * (1.0 - 0.999)
                den = np.sqrt(r["v"] / (1.0 - 0.999**t)) + 1e-8
                upd = (r["m"] / (1.0 - 0.9**t)) / den + r["w"] * 0.02
                r["w"] = r["w"] - upd * 0.03
            opt.step()
            for p, r in zip(ps, ref):
                assert p.data.tobytes() == r["w"].tobytes()

    @staticmethod
    def _state(opt):
        return (opt.step_count, opt._m.tobytes(), opt._v.tobytes(),
                [p.data.tobytes() for p in opt.params])

    def test_missing_gradient_raises_and_changes_nothing(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        q = Tensor(np.array([3.0]), requires_grad=True)
        opt = AdamW([p, q], lr=0.1, weight_decay=0.5)
        p.grad, q.grad = np.array([0.5, 1.0]), np.array([2.0])
        opt.step()
        before = self._state(opt)
        p.grad, q.grad = np.array([0.5, 1.0]), None
        with pytest.raises(ConfigError, match=r"shape \(1,\)"):
            opt.step()
        assert self._state(opt) == before

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejected_step_leaves_the_next_one_unchanged(self, bad):
        """After a non-finite gradient the next step is a fresh optimizer's first."""
        def fresh():
            return AdamW([Tensor(np.array([1.0, 2.0]), requires_grad=True)], lr=0.1)

        rejected, clean = fresh(), fresh()
        before = self._state(rejected)
        rejected.params[0].grad = np.array([bad, 1.0])
        with pytest.raises(NonFiniteGradientError):
            rejected.step()
        assert self._state(rejected) == before
        for opt in (rejected, clean):
            opt.params[0].grad = np.array([1.0, -1.0])
            opt.step()
        assert self._state(rejected) == self._state(clean)

    def test_non_finite_gradient_rejected(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = AdamW([p])
        p.grad = np.array([np.nan])
        with pytest.raises(NonFiniteGradientError):
            opt.step()
        p.grad = np.array([np.inf])
        with pytest.raises(NonFiniteGradientError):
            opt.step()

    def test_zero_grad_clears_all(self):
        p = Tensor(np.ones(2), requires_grad=True)
        opt = AdamW([p])
        p.grad = np.ones(2)
        opt.zero_grad()
        assert p.grad is None

    def test_step_counter_increments(self):
        p = Tensor(np.ones(1), requires_grad=True)
        opt = AdamW([p])
        for want in (1, 2, 3):
            p.grad = np.ones(1)
            opt.step()
            assert opt.step_count == want

    def test_invalid_hyperparameters_rejected(self):
        p = Tensor(np.ones(1), requires_grad=True)
        with pytest.raises(ConfigError):
            AdamW([p], lr=-0.1)
        with pytest.raises(ConfigError):
            AdamW([p], weight_decay=-1e-3)
        with pytest.raises(ConfigError):
            AdamW([])

    @pytest.mark.parametrize("field,value", [
        ("lr", float("nan")), ("lr", float("inf")), ("lr", -float("inf")),
        ("weight_decay", float("nan")), ("weight_decay", float("inf")),
    ])
    def test_non_finite_rate_rejected(self, field, value):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        with pytest.raises(ConfigError, match=f"{field} must be a finite number"):
            AdamW([p], **{field: value})
        np.testing.assert_array_equal(p.data, [1.0, 2.0])
