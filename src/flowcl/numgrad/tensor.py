"""Reverse-mode autodiff core: Tensor values and the gradient Tape.

The engine is deliberately small. Operations (see `ops`) compute their
forward result in NumPy float64 and, while a Tape is active, append a record
holding the output, the inputs, and a closure that turns the output gradient
into input gradients. Records are appended in execution order, which is
already a topological order, so one reverse sweep over the tape is a complete
backward pass. The sweep consumes the tape: it drops each record once its
rule has run, so what an operation saved for its backward dies as soon as
its gradient is out, and a rule may overwrite the arrays it saved.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..errors import ConfigError, InvalidShapeError

# Gradient rule: maps dL/d(output) to one dL/d(input) per input (None = skip).
BackwardRule = Callable[[np.ndarray], Sequence[np.ndarray | None]]


class Tensor:
    """Shape-tagged float64 array participating in automatic differentiation.

    Operations never mutate `data` of their inputs. `grad` is filled in by
    `backward` for tensors created with `requires_grad=True` and accumulates
    across backward calls until `zero_grad` style resets (assign None).
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape


def as_tensor(value) -> Tensor:
    """Wrap arrays or scalars as a constant (non-differentiable) Tensor."""
    return value if isinstance(value, Tensor) else Tensor(value)


class Tape:
    """Ordered record of differentiable operations for one backward pass.

    Use as a context manager around the forward computation:

        with Tape() as tape:
            loss = some_ops(...)
        backward(loss, tape)

    Only operations whose inputs are grad-connected (a `requires_grad` leaf
    or the output of an earlier recorded operation) are recorded. `backward`
    consumes the tape, so it takes one backward pass; `len` stays the number
    of operations recorded.
    """

    def __init__(self):
        self._entries: list[tuple[Tensor, tuple[Tensor, ...], BackwardRule]] = []
        self._connected: set[int] = set()
        self._recorded = 0
        self._consumed = False

    def __len__(self) -> int:
        return self._recorded

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _TAPE_STACK.pop()
        assert popped is self, "tapes must be exited in LIFO order"

    def tracks(self, t: Tensor) -> bool:
        return t.requires_grad or id(t) in self._connected

    def record(self, output: Tensor, inputs: tuple[Tensor, ...], rule: BackwardRule) -> None:
        self._entries.append((output, inputs, rule))
        self._connected.add(id(output))
        self._recorded += 1


_TAPE_STACK: list[Tape] = []


def active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def tracked(t: Tensor) -> bool:
    """Whether the active tape, if any, tracks t: a rule recorded now needs t's gradient."""
    tape = active_tape()
    return tape is not None and tape.tracks(t)


def record_op(output: Tensor, inputs: Sequence[Tensor], rule: BackwardRule) -> Tensor:
    """Attach a backward rule to `output` on the active tape, if any.

    Called by every differentiable operation after computing its forward
    value. A no-op when no tape is active or no input is grad-connected,
    which makes plain evaluation free of bookkeeping.
    """
    tape = active_tape()
    if tape is not None and any(tape.tracks(t) for t in inputs):
        tape.record(output, tuple(inputs), rule)
    return output


def backward(loss: Tensor, tape: Tape) -> None:
    """Populate `grad` on every requires_grad tensor reachable from `loss`.

    Walks the tape once in reverse and consumes it: each record is dropped
    as its rule runs, and a rule may overwrite the arrays it saved, so a
    second backward over the same tape raises ConfigError, even after a rule
    raised part-way. Gradients fan-in by summation: a tensor consumed by
    several operations accumulates one contribution per use. Gradients are
    held by reference and every sum is a new array, so no rule may mutate
    the gradient it receives or the ones it returns.
    """
    if loss.data.size != 1:
        raise InvalidShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    if tape._consumed:
        raise ConfigError("this tape was consumed by an earlier backward; "
                          "record a new one")
    tape._consumed = True
    # id -> (tensor, accumulated gradient); keyed by identity because the
    # same value object can appear as input to many recorded operations.
    pending: dict[int, tuple[Tensor, np.ndarray]] = {
        id(loss): (loss, np.ones_like(loss.data))
    }
    entries = tape._entries
    while entries:
        output, inputs, rule = entries.pop()
        got = pending.pop(id(output), None)
        if got is None:
            continue  # this output never influenced the loss
        _, grad_out = got
        for t, grad_in in zip(inputs, rule(grad_out)):
            if grad_in is None or not tape.tracks(t):
                continue
            held = pending.get(id(t))
            if held is None:
                pending[id(t)] = (t, np.asarray(grad_in, dtype=np.float64))
            else:
                pending[id(t)] = (t, held[1] + grad_in)
    for t, g in pending.values():
        if t.requires_grad:
            t.grad = g if t.grad is None else t.grad + g
