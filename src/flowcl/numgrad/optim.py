"""AdamW with decoupled weight decay."""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, NonFiniteGradientError
from .tensor import Tensor

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class AdamW:
    """Holds per-parameter moment state over a fixed list of Tensors.

    Parameters whose .grad is None at step() time are left untouched
    (weight decay included), matching the convention that a frozen or
    unused parameter is simply skipped.
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
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        """One decoupled-weight-decay Adam update of every parameter with a gradient.

        w <- w - lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * w)
        with bias-corrected moments m_hat = m/(1-b1^t), v_hat = v/(1-b2^t).
        """
        self.step_count += 1
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad
            if g is None:
                continue
            if not np.all(np.isfinite(g)):
                raise NonFiniteGradientError(
                    f"non-finite gradient for parameter of shape {p.shape}")
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            m_hat = m / (1.0 - ADAM_BETA1**self.step_count)
            v_hat = v / (1.0 - ADAM_BETA2**self.step_count)
            w = p.data
            w -= self.lr * (m_hat / (np.sqrt(v_hat) + ADAM_EPS) + self.weight_decay * w)
