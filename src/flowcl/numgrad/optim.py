"""AdamW with decoupled weight decay."""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, NonFiniteGradientError, check_finite
from .tensor import Tensor

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Elements per block of the update: a block of the flat buffers and the
# scratch (5 x 128 KB) stays in L2 across the formula's passes.
ADAMW_BLOCK = 16384


class AdamW:
    """Holds the moment state of a fixed list of Tensors in flat buffers.

    At construction the optimizer copies every parameter into one flat
    float64 buffer and makes each Tensor's `data` a view of its slice, so a
    step is one elementwise update over all parameters, run one block of
    ADAMW_BLOCK elements at a time, and the first and second moments are one
    array each. A step gathers the gradients into one flat buffer made at
    construction, one copy per C-ordered gradient. Every parameter needs a
    gradient at step() time: a missing one raises ConfigError rather than
    leaving that parameter silently untrained.
    """

    def __init__(self, params, lr: float = 2e-4, weight_decay: float = 0.01):
        self.params: list[Tensor] = list(params)
        if not self.params:
            raise ConfigError("optimizer needs at least one parameter")
        check_finite(lr, "lr")
        check_finite(weight_decay, "weight_decay", zero_ok=True)
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self._w = np.concatenate([p.data.ravel() for p in self.params])
        ends = np.cumsum([p.data.size for p in self.params]).tolist()
        for p, lo, hi in zip(self.params, [0] + ends[:-1], ends):
            p.data = self._w[lo:hi].reshape(p.data.shape)
        self._m = np.zeros_like(self._w)
        self._v = np.zeros_like(self._w)
        self._g = np.empty_like(self._w)
        # Per block: its slice, views of w, m and v, and the scratch it uses.
        scratch = np.empty(min(self._w.size, ADAMW_BLOCK))
        self._blocks = []
        for lo in range(0, self._w.size, ADAMW_BLOCK):
            block = slice(lo, lo + ADAMW_BLOCK)
            w = self._w[block]
            self._blocks.append((block, w, self._m[block], self._v[block], scratch[:w.size]))

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        """One decoupled-weight-decay Adam update of every parameter.

        w <- w - lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * w)
        with bias-corrected moments m_hat = m/(1-b1^t), v_hat = v/(1-b2^t).
        A missing or non-finite gradient raises before any state changes.
        """
        for p in self.params:
            if p.grad is None:
                raise ConfigError(f"no gradient for parameter of shape {p.shape}")
        g = np.concatenate([p.grad.ravel() for p in self.params], out=self._g)
        if not np.isfinite(g).all():
            bad = next(p for p in self.params if not np.isfinite(p.grad).all())
            raise NonFiniteGradientError(
                f"non-finite gradient for parameter of shape {bad.shape}")
        self.step_count += 1
        bias1 = 1.0 - ADAM_BETA1**self.step_count
        bias2 = 1.0 - ADAM_BETA2**self.step_count
        # In place over each block of the flat buffers, overwriting g and the
        # scratch; each element sees the formula's float64 operations in the
        # same order.
        for block, w, m, v, scratch in self._blocks:
            gb = g[block]
            m *= ADAM_BETA1
            np.multiply(gb, 1.0 - ADAM_BETA1, out=scratch)
            m += scratch
            v *= ADAM_BETA2
            np.multiply(gb, gb, out=scratch)
            scratch *= 1.0 - ADAM_BETA2
            v += scratch
            np.divide(v, bias2, out=scratch)
            np.sqrt(scratch, out=scratch)
            scratch += ADAM_EPS
            np.divide(m, bias1, out=gb)
            np.divide(gb, scratch, out=scratch)
            np.multiply(w, self.weight_decay, out=gb)
            scratch += gb
            scratch *= self.lr
            w -= scratch
