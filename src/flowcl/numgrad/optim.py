"""AdamW with decoupled weight decay."""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, NonFiniteGradientError
from .tensor import Tensor

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class AdamW:
    """Holds the moment state of a fixed list of Tensors in flat buffers.

    At construction the optimizer copies every parameter into one flat
    float64 buffer and makes each Tensor's `data` a view of its slice, so a
    step is one elementwise update over all parameters, and the first and
    second moments are one array each. Parameters whose .grad is None at
    step() time are left untouched (weight decay included), matching the
    convention that a frozen or unused parameter is simply skipped: the same
    update then runs on the slices of the others.
    """

    def __init__(self, params, lr: float = 2e-4, weight_decay: float = 0.01):
        self.params: list[Tensor] = list(params)
        if not self.params:
            raise ConfigError("optimizer needs at least one parameter")
        if lr <= 0:
            raise ConfigError(f"lr must be positive, got {lr}")
        if weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {weight_decay}")
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self._w = np.concatenate([p.data.ravel() for p in self.params])
        ends = np.cumsum([p.data.size for p in self.params]).tolist()
        self._slices = [slice(lo, hi) for lo, hi in zip([0] + ends[:-1], ends)]
        for p, s in zip(self.params, self._slices):
            p.data = self._w[s].reshape(p.data.shape)
        self._m = np.zeros_like(self._w)
        self._v = np.zeros_like(self._w)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        """One decoupled-weight-decay Adam update of every parameter with a gradient.

        w <- w - lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * w)
        with bias-corrected moments m_hat = m/(1-b1^t), v_hat = v/(1-b2^t).
        A non-finite gradient raises before any parameter moves.
        """
        self.step_count += 1
        live = [(p, s) for p, s in zip(self.params, self._slices) if p.grad is not None]
        if len(live) == len(self.params):
            g = np.concatenate([p.grad.ravel() for p in self.params])
            spans = [slice(None)]
        else:
            g = np.zeros_like(self._w)  # skipped slices stay finite
            for p, s in live:
                g[s] = p.grad.ravel()
            spans = [s for _, s in live]
        if not np.isfinite(g).all():
            bad = next(p for p, s in live if not np.isfinite(g[s]).all())
            raise NonFiniteGradientError(
                f"non-finite gradient for parameter of shape {bad.shape}")
        scratch = np.empty_like(g)
        for s in spans:
            self._update(self._w[s], g[s], self._m[s], self._v[s], scratch[s])

    def _update(self, w: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray,
                scratch: np.ndarray) -> None:
        """`step`'s update of one span, in place, overwriting g and scratch.

        Each element sees the same float64 operations as the formula in
        `step`'s docstring, in the same order.
        """
        m *= ADAM_BETA1
        np.multiply(g, 1.0 - ADAM_BETA1, out=scratch)
        m += scratch
        v *= ADAM_BETA2
        np.multiply(g, g, out=scratch)
        scratch *= 1.0 - ADAM_BETA2
        v += scratch
        np.divide(v, 1.0 - ADAM_BETA2**self.step_count, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += ADAM_EPS
        np.divide(m, 1.0 - ADAM_BETA1**self.step_count, out=g)
        np.divide(g, scratch, out=scratch)
        np.multiply(w, self.weight_decay, out=g)
        scratch += g
        scratch *= self.lr
        w -= scratch
