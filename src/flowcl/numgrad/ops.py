"""Differentiable operations: the layer and loss primitives of the package.

Forward math is plain vectorized NumPy in float64; each op hands `record_op`
a closure mapping the output gradient to input gradients. Inputs are never
mutated (batchnorm's running statistics, which are explicitly state, are the
one documented exception).

The encoder's conv, batch norm and max pool math exists once, as kernels over
channels-last activations: (batch, width, channels) arrays whose rows are
contiguous channel vectors, so the width-2 conv is one flat GEMM and batch
norm reduces over rows. The encoder runs in units: `conv_bn_relu` is one
conv, batch norm and ReLU plus an optional max pool, one tape entry each,
and `maxpool_cl` and `global_maxpool_cl` cover the pools with no conv just
before them. The (batch, channels, width) primitives `conv1d`,
`batchnorm1d`, `maxpool1d` and `global_maxpool1d` are transposing wrappers
over the same kernels.

Adding a per-channel shift and ReLU both preserve order, so a unit pools
first and shifts and rectifies the pooled array. Train-mode batch norm
leaves out the conv bias, which the batch mean cancels, keeps the centred
conv output, and folds gamma / sqrt(var + BN_EPS) into the backward GEMMs'
small operands. A train-mode unit keeps no im2col rows: its conv rule reads
the unit's input, which the tape keeps anyway (the previous unit's output),
and takes both taps' gradients from a zero-padded output gradient, one zero
position per batch row, so the flat rows pair with no copies. The unit's
per-channel sums, the batch mean and dbeta, are ones-vector GEMVs, several
times faster than numpy's axis-0 reduction.

Eval mode, which every frozen-feature pass uses, folds batch norm into the
conv: `_bn_eval_map` turns the running statistics, gamma, beta and the conv
bias into one per-channel scale and shift, so the unit runs one GEMM
against the scaled kernel. Eval mode is forward-only: a
backward that reaches an eval-mode unit raises ConfigError, since only
pretraining takes gradients and it tapes training-mode passes. A train-mode
unit builds its pool's first-maximum routing in the forward, while the pool
input is hot in cache, and keeps only that bool mask for its backward, not
the pool input or the pooled max. Eval units and the standalone pools keep
only the running max; the standalone pools' rules find each window's first
maximum from the input they hold, so an untaped pass builds no routing
arrays. Each backward rule runs once, as `backward` consumes its tape, so
the train-mode batch-norm rule writes its centring term over the centred
conv output it saved, once that is dead. No rule writes into its own
output: the next unit's conv rule reads it as that unit's input.

The linear head's math likewise exists once: `_affine` and
`_softmax_ce_grad` serve the taped `affine` and `softmax_cross_entropy` and
also `softmax_regression_grads`, the untaped closed-form gradient that head
training takes once per step.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, DegenerateVectorError, InvalidLabelError, InvalidShapeError
from .tensor import Tensor, as_tensor, record_op, tracked


BN_MOMENTUM = 0.1
BN_EPS = 1e-5


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise InvalidShapeError(message)


def _channels_last(data: np.ndarray) -> np.ndarray:
    """(B, W, C) as is; a (B, W) batch is one input channel, viewed as (B, W, 1)."""
    _require(data.ndim in (2, 3), f"expected (batch, width[, ch]) activations, got {data.shape}")
    return data if data.ndim == 3 else data[:, :, None]


def _conv(x: np.ndarray, kernel: np.ndarray):
    """Width-2 valid conv of channels-last x (B, W, Cin) as one flat GEMM, no bias.

    Returns z (B, W-1, Cout) and the rule (d, scale, need_dx) -> (dx, dkernel).
    The rule keeps x, not the im2col rows, and reads the output gradient
    dz = u * scale from a zero-padded buffer d (B, W, Cout): u at the first
    W-1 positions and zeros at the last. In flat (B*W, C) rows, X[r+1]
    then pairs with D[r] and dx[r+1] with D[r] with no copies, and a pair
    that straddles two batch rows meets a zero row of D. The per-output-
    channel scale is folded into the GEMMs' small operands instead of a pass
    over d. dx is None when need_dx is false.
    """
    _require(kernel.ndim == 3 and kernel.shape[2] == 2,
             f"conv1d kernel must be (out_ch, in_ch, 2), got {kernel.shape}")
    batch, width, in_ch = x.shape
    out_ch = kernel.shape[0]
    _require(width >= 2, f"conv1d needs width >= 2, got {width}")
    _require(kernel.shape[1] == in_ch,
             f"conv1d channel mismatch: input has {in_ch}, kernel expects {kernel.shape[1]}")

    # im2col: row (b, t) of x2 is x[b, t] then x[b, t+1], and the GEMM's
    # (2 * in_ch, out_ch) kernel operand holds kernel[o, i, tap] at row tap * in_ch + i.
    # The rule does not need x2, so it dies here.
    x2 = np.concatenate((x[:, :-1], x[:, 1:]), axis=2).reshape(-1, 2 * in_ch)
    z = x2 @ kernel.transpose(2, 1, 0).reshape(2 * in_ch, out_ch)

    def back(d: np.ndarray, scale=1.0, need_dx: bool = True):
        d = d.reshape(-1, out_ch)
        rows = x.reshape(-1, in_ch)
        dk = np.empty((2, in_ch, out_ch))
        np.matmul(rows.T, d, out=dk[0])
        np.matmul(rows[1:].T, d[:-1], out=dk[1])
        dk *= scale
        dk = dk.transpose(2, 1, 0)
        if not need_dx:
            return None, dk
        # The scaled taps as C-ordered (out_ch, in_ch) operands.
        kt = np.multiply(kernel.transpose(2, 0, 1), np.reshape(scale, (-1, 1)), order="C")
        dx = d @ kt[0]
        dx[1:] += d[:-1] @ kt[1]
        return dx.reshape(x.shape), dk

    return z.reshape(batch, width - 1, out_ch), back


def _padded_grad(batch: int, width: int, ch: int):
    """The conv rule's dz buffer d (B, W+1, C), zero at each batch row's last
    position, and the view d[:, :-1] of the positions the conv output has."""
    d = np.empty((batch, width + 1, ch))
    d[:, -1] = 0.0
    return d, d[:, :-1]


def _column_sums(a: np.ndarray) -> np.ndarray:
    """Per-channel sums of a (..., C) as one ones-vector GEMV over its rows.

    Several times faster than numpy's axis-0 reduction at the encoder's
    (B*W, C) shapes. A C-ordered a is summed with no copy.
    """
    rows = a.reshape(-1, a.shape[-1])
    return np.ones(len(rows)) @ rows


def _bn_eval_map(gamma: np.ndarray, beta: np.ndarray, running_mean: np.ndarray,
                 running_var: np.ndarray, bias: np.ndarray):
    """Eval-mode batch norm of z + bias as one per-channel map, z * scale + shift.

    Returns scale = gamma * inv_std and shift = (bias - running_mean) * scale
    + beta, with inv_std = 1 / sqrt(running_var + BN_EPS).
    """
    _require(gamma.shape == beta.shape == bias.shape == running_mean.shape == running_var.shape,
             f"batchnorm1d affine params must be {running_mean.shape}")
    inv_std = 1.0 / np.sqrt(running_var + BN_EPS)
    scale = gamma * inv_std
    shift = (bias - running_mean) * scale
    shift += beta
    return scale, shift


def _no_eval_gradient(g: np.ndarray):
    """The rule every eval-mode batch norm records: eval mode is forward-only."""
    raise ConfigError("eval-mode batch norm has no gradient; tape a training-mode pass")


def _tiled(a: np.ndarray, v: np.ndarray):
    """a (B, W, C) viewed as (B, W*C), and the per-channel v tiled to W*C.

    An elementwise op between the two is one flat pass; broadcasting v over
    the (B*W, C) rows costs up to twice as much at C <= 128.
    """
    return a.reshape(len(a), -1), np.tile(v, a.shape[1])


def _batchnorm(z: np.ndarray, gamma: np.ndarray, bias: np.ndarray,
               running_mean: np.ndarray, running_var: np.ndarray):
    """Train-mode batch norm of z + bias over the rows of z (B, W, C), before beta.

    The batch mean cancels the per-channel bias, so the bias only enters the
    running mean. z is centred in place and kept; the output is
    z * scale with scale = gamma * inv_std, and the caller adds beta (after
    any max pool, which commutes with adding a per-channel constant).
    Returns the output, scale and the rule (dy, dbeta) -> dgamma, which
    writes u with dz = u * scale over dy, so the caller folds scale into its
    conv GEMMs. dy is a (B, W, C) array the caller owns, and may be a
    strided view whose rows are C-ordered; the rule also writes its
    centring term over z, so it runs once.
    """
    batch, width, ch = z.shape
    n = batch * width
    _require(gamma.shape == bias.shape == (ch,), f"batchnorm1d affine params must be ({ch},)")
    _require(n >= 2, "batchnorm1d train mode needs >= 2 elements per channel")
    rows = z.reshape(n, ch)
    mean = _column_sums(rows) / n
    flat, tiled = _tiled(z, mean)
    flat -= tiled
    var = np.einsum("ij,ij->j", rows, rows) / n
    running_mean *= 1.0 - BN_MOMENTUM
    running_mean += BN_MOMENTUM * (mean + bias)
    running_var *= 1.0 - BN_MOMENTUM
    running_var += BN_MOMENTUM * var
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    scale = gamma * inv_std
    out = np.multiply(*_tiled(z, scale))

    def back(dy: np.ndarray, dbeta: np.ndarray):
        # With xhat = z * inv_std: dgamma = sum(dy * xhat) and
        # dz = scale * (dy - dbeta / n - xhat * dgamma / n).
        dgamma = np.einsum("bwc,bwc->c", dy, z)
        dgamma *= inv_std
        # z is dead once dgamma is out, so the centring term takes its buffer.
        flat, tiled = _tiled(z, dgamma * inv_std / n)
        flat *= tiled
        flat += _tiled(z, dbeta / n)[1]
        dy -= z
        return dgamma

    return out.reshape(z.shape), scale, back


def _first_max(tiles: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Bool mask over tiles (B, W', window, C) of each window's first maximum.

    Every tap that equals its window's maximum, then only the first: free
    marks the slots no earlier tap has taken; a tap's hits are within free,
    so xor clears the slots it takes.
    """
    hit = tiles == out[:, :, None]
    free = np.ones(out.shape, dtype=bool)
    for j in range(tiles.shape[2]):
        hit[:, :, j] &= free
        free ^= hit[:, :, j]
    return hit


def _routed(g: np.ndarray, hit: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """The pool's dx (B, W, C), written into dx: g at each window's first maximum, else 0."""
    used = hit.shape[1] * hit.shape[2]
    np.multiply(g[:, :, None], hit, out=dx[:, :used].reshape(hit.shape))
    dx[:, used:] = 0.0
    return dx


def _maxpool(x: np.ndarray, window: int, route: bool = False):
    """Non-overlapping max pool over the width of channels-last x (B, W, C).

    Stride == window, trailing remainder dropped; the gradient goes to each
    window's first maximum (ties go to the first, as with argmax). With
    `route`, the forward also builds that routing as a bool mask while x is
    hot in cache, and the rule keeps only the mask. Without it the forward
    keeps only the running max and the rule g -> dx finds the routing from
    x and the max when it runs, so a pass without a tape builds none. The
    routed rule (g, dx) -> dx instead writes into the caller's dx (B, W, C),
    which may be a view whose rows are C-ordered. Returns (B, W // window, C)
    and the rule.
    """
    batch, width, ch = shape = x.shape
    _require(window >= 1, f"pool window must be >= 1, got {window}")
    _require(window <= width, f"pool window {window} exceeds width {width}")
    out_w = width // window
    tiles = x[:, : out_w * window].reshape(batch, out_w, window, ch)
    out = tiles[:, :, 0].copy()
    for j in range(1, window):
        np.maximum(out, tiles[:, :, j], out=out)
    if route:
        # Neither x nor the max: the rule closes over the mask alone.
        hit = _first_max(tiles, out)
        return out, lambda g, dx: _routed(g, hit, dx)
    return out, lambda g: _routed(g, _first_max(tiles, out), np.empty(shape))


def conv_bn_relu(
    x: Tensor,
    kernel: Tensor,
    bias: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    pool: int | None = None,
) -> Tensor:
    """One encoder unit, relu(batchnorm1d(conv1d(x))), then an optional max pool.

    Channels-last: x (B, W, C_in), or (B, W) as one input channel, maps to
    (B, W-1, C_out), or to (B, (W-1) // pool, C_out) with a pool window. Same
    semantics as the primitives in sequence, running statistics included,
    and one tape entry. The pool runs on the conv output scaled by
    gamma / sqrt(var + BN_EPS) (the batch's variance in train mode, the
    running one in eval mode); the per-channel shift and ReLU then apply to
    the pooled array. Eval mode is forward-only. The train-mode backward
    keeps the centred conv output, the pool's routing mask and the output;
    it reads x, which the tape keeps as an input, in place of im2col rows.
    It returns no gradient for an x the tape does not track when the unit
    is recorded, such as the encoder's input.
    """
    x, kernel, bias, gamma, beta = (as_tensor(t) for t in (x, kernel, bias, gamma, beta))
    if training:
        z, conv_back = _conv(_channels_last(x.data), kernel.data)
        _require(beta.shape == (z.shape[2],), f"batchnorm1d affine params must be ({z.shape[2]},)")
        y, scale, bn_back = _batchnorm(z, gamma.data, bias.data, running_mean, running_var)
        shift = beta.data
    else:
        scale, shift = _bn_eval_map(gamma.data, beta.data, running_mean, running_var, bias.data)
        _require(kernel.data.ndim == 3 and kernel.shape[0] == scale.size,
                 f"conv1d kernel must be ({scale.size}, in_ch, 2), got {kernel.shape}")
        # The conv of the scaled kernel, shifted below.
        y, _ = _conv(_channels_last(x.data), kernel.data * scale[:, None, None])

    if pool is None:
        out = y
        flat, tiled = _tiled(out, shift)
        flat += tiled
    else:
        pooled, pool_back = _maxpool(y, pool, route=training)
        out = pooled + shift
    np.maximum(out, 0.0, out=out)
    if not training:
        return record_op(Tensor(out), (x, kernel, bias, gamma, beta), _no_eval_gradient)
    batch, width, ch = y.shape
    need_dx = tracked(x)

    def rule(g: np.ndarray):
        # Batch norm's output gradient dy goes into the conv rule's padded
        # buffer, and batch norm's rule turns it into u there.
        d, dy = _padded_grad(batch, width, ch)
        if pool is None:
            np.multiply(g, out > 0, out=dy)
            dshift = _column_sums(d)
        else:
            g = g * (out > 0)
            dshift = _column_sums(g)
            pool_back(g, dy)
        dgamma = bn_back(dy, dshift)
        dx, dk = conv_back(d, scale, need_dx)
        # The train-mode output does not depend on the bias at all.
        return (None if dx is None else dx.reshape(x.shape)), dk, np.zeros(ch), dgamma, dshift

    return record_op(Tensor(out), (x, kernel, bias, gamma, beta), rule)


def maxpool_cl(x: Tensor, window: int) -> Tensor:
    """`maxpool1d` on channels-last x (B, W, C), or (B, W) as one channel."""
    x = as_tensor(x)
    out, back = _maxpool(_channels_last(x.data), window)
    return record_op(Tensor(out), (x,), lambda g: (back(g).reshape(x.shape),))


def global_maxpool_cl(x: Tensor) -> Tensor:
    """`global_maxpool1d` on channels-last x: (B, W, C) -> (B, C)."""
    x = as_tensor(x)
    _require(x.data.ndim == 3, f"global_maxpool_cl input must be 3-D, got {x.shape}")
    out, back = _maxpool(x.data, x.shape[1])
    return record_op(Tensor(out[:, 0]), (x,), lambda g: (back(g[:, None]),))


def conv1d(x: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """Width-2 valid convolution along the last axis, stride 1.

    x (B, C_in, W) -> (B, C_out, W-1) with
    out[b,o,t] = sum_i k[o,i,0]*x[b,i,t] + k[o,i,1]*x[b,i,t+1] + bias[o].
    """
    x, kernel, bias = as_tensor(x), as_tensor(kernel), as_tensor(bias)
    _require(x.data.ndim == 3, f"conv1d input must be (batch, ch, width), got {x.shape}")
    z, back = _conv(x.data.transpose(0, 2, 1), kernel.data)
    _require(bias.shape == (z.shape[2],), f"conv1d bias must be ({z.shape[2]},), got {bias.shape}")
    z += bias.data
    batch, width, out_ch = z.shape
    need_dx = tracked(x)

    def rule(g: np.ndarray):
        d, dz = _padded_grad(batch, width, out_ch)
        dz[...] = g.transpose(0, 2, 1)
        dx, dk = back(d, need_dx=need_dx)
        return (None if dx is None else dx.transpose(0, 2, 1)), dk, _column_sums(d)

    return record_op(Tensor(z.transpose(0, 2, 1)), (x, kernel, bias), rule)


def maxpool1d(x: Tensor, window: int) -> Tensor:
    """Non-overlapping max pooling: stride == window, trailing remainder dropped."""
    x = as_tensor(x)
    _require(x.data.ndim == 3, f"maxpool1d input must be (batch, ch, width), got {x.shape}")
    out, back = _maxpool(x.data.transpose(0, 2, 1), window)
    return record_op(Tensor(out.transpose(0, 2, 1)), (x,),
                     lambda g: (back(g.transpose(0, 2, 1)).transpose(0, 2, 1),))


def global_maxpool1d(x: Tensor) -> Tensor:
    """Collapse the spatial axis entirely: (B, C, W) -> (B, C) by max."""
    x = as_tensor(x)
    _require(x.data.ndim == 3, f"global_maxpool1d input must be 3-D, got {x.shape}")
    _require(x.shape[2] >= 1, "global_maxpool1d needs width >= 1")
    out, back = _maxpool(x.data.transpose(0, 2, 1), x.shape[2])
    return record_op(Tensor(out[:, 0]), (x,),
                     lambda g: (back(g[:, None]).transpose(0, 2, 1),))


def batchnorm1d(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
) -> Tensor:
    """Per-channel batch normalization with affine scale/shift.

    x (B, C, W). Train mode normalizes by the batch's per-channel mean and
    (population) variance and folds them into the running estimates by
    exponential moving average, in place. Eval mode reads the running
    estimates, mutates nothing and is forward-only.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    _require(x.data.ndim == 3, f"batchnorm1d input must be (batch, ch, width), got {x.shape}")
    batch, ch, width = x.shape
    _require(gamma.shape == (ch,) and beta.shape == (ch,),
             f"batchnorm1d affine params must be ({ch},)")
    # A C-order (B, W, C) copy: the train-mode kernel centres it in place.
    rows = np.array(x.data.transpose(0, 2, 1), order="C")
    if not training:
        scale, shift = _bn_eval_map(gamma.data, beta.data, running_mean, running_var,
                                    np.zeros(ch))
        out = rows * scale
        out += shift
        return record_op(Tensor(out.transpose(0, 2, 1)), (x, gamma, beta), _no_eval_gradient)
    out, scale, bn_back = _batchnorm(rows, gamma.data, np.zeros(ch), running_mean, running_var)
    out += beta.data

    def rule(g: np.ndarray):
        # A C-order (B, W, C) copy, which bn_back overwrites with u.
        dy = np.array(g.transpose(0, 2, 1), order="C")
        dbeta = _column_sums(dy)
        dgamma = bn_back(dy, dbeta)
        dy *= scale
        return dy.transpose(0, 2, 1), dgamma, dbeta

    return record_op(Tensor(out.transpose(0, 2, 1)), (x, gamma, beta), rule)


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x)."""
    x = as_tensor(x)
    out = Tensor(np.maximum(x.data, 0.0))

    def rule(g: np.ndarray):
        return (g * (x.data > 0),)

    return record_op(out, (x,), rule)


def _affine(x: np.ndarray, weight: np.ndarray, bias: np.ndarray):
    """out = x @ weight.T + bias and the rule g -> (dweight, dbias) of the parameters."""
    def back(g: np.ndarray):
        return g.T @ x, g.sum(axis=0)

    return x @ weight.T + bias, back


def _row_shift(z: np.ndarray):
    """Each row's max m (batch, 1) and z - m, so exp never overflows."""
    m = z.max(axis=1, keepdims=True)
    return m, z - m


def _softmax_ce_grad(shifted: np.ndarray, labels: np.ndarray, scale: float) -> np.ndarray:
    """scale * (softmax - one_hot(labels)) from row-shifted logits, as a new array.

    With scale = 1 / batch this is the gradient of the mean cross entropy
    with respect to the logits. Labels are not checked here.
    """
    p = np.exp(shifted)
    p /= p.sum(axis=1, keepdims=True)
    p[np.arange(len(labels)), labels] -= 1.0
    p *= scale
    return p


def affine(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """out = x @ weight.T + bias; x (B, In), weight (Out, In), bias (Out,)."""
    x, weight, bias = as_tensor(x), as_tensor(weight), as_tensor(bias)
    _require(x.data.ndim == 2, f"affine input must be (batch, in_dim), got {x.shape}")
    _require(weight.data.ndim == 2, f"affine weight must be (out_dim, in_dim), got {weight.shape}")
    _require(x.shape[1] == weight.shape[1],
             f"affine dim mismatch: input {x.shape[1]} vs weight {weight.shape[1]}")
    _require(bias.shape == (weight.shape[0],),
             f"affine bias must be ({weight.shape[0]},), got {bias.shape}")
    out, back = _affine(x.data, weight.data, bias.data)

    def rule(g: np.ndarray):
        return (g @ weight.data, *back(g))

    return record_op(Tensor(out), (x, weight, bias), rule)


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log softmax probability at integer labels.

    Log-sum-exp stabilized, so arbitrarily large logits stay finite.
    """
    logits = as_tensor(logits)
    _require(logits.data.ndim == 2, f"logits must be (batch, classes), got {logits.shape}")
    batch, k = logits.shape
    y = np.asarray(labels, dtype=np.int64)
    if y.shape != (batch,):
        raise InvalidLabelError(f"labels must be ({batch},), got {y.shape}")
    if y.size and (y.min() < 0 or y.max() >= k):
        raise InvalidLabelError(f"labels must lie in [0, {k})")

    z = logits.data
    m, shifted = _row_shift(z)
    lse = m[:, 0] + np.log(np.exp(shifted).sum(axis=1))
    picked = z[np.arange(batch), y]
    out = Tensor(np.mean(lse - picked))

    def rule(g: np.ndarray):
        return (_softmax_ce_grad(shifted, y, float(g) / batch),)

    return record_op(out, (logits,), rule)


def softmax_regression_grads(x: np.ndarray, weight: np.ndarray, bias: np.ndarray,
                             labels: np.ndarray):
    """(dweight, dbias) of softmax_cross_entropy(affine(x, weight, bias), labels).

    The taped pair's float64 operations in the same order, so the gradients
    are bit-identical, but with no tape, no loss value and no gradient for x.
    Labels must already lie in [0, classes): they are not checked here.
    """
    z, back = _affine(x, weight, bias)
    _, shifted = _row_shift(z)
    return back(_softmax_ce_grad(shifted, labels, 1.0 / len(labels)))


def cosine_similarity(a: Tensor, b: Tensor) -> Tensor:
    """a.b / (|a||b|) for 1-D vectors, as a differentiable scalar in [-1, 1]."""
    a, b = as_tensor(a), as_tensor(b)
    _require(a.data.ndim == 1 and b.data.ndim == 1,
             f"cosine_similarity takes 1-D vectors, got {a.shape} and {b.shape}")
    _require(a.shape == b.shape, f"dim mismatch: {a.shape} vs {b.shape}")
    na = float(np.linalg.norm(a.data))
    nb = float(np.linalg.norm(b.data))
    if na == 0.0 or nb == 0.0:
        raise DegenerateVectorError("cosine similarity of a zero-norm vector is undefined")
    c = float(np.clip(a.data @ b.data / (na * nb), -1.0, 1.0))
    out = Tensor(c)

    def rule(g: np.ndarray):
        s = float(g)
        a_hat = a.data / na
        b_hat = b.data / nb
        return s * (b_hat - c * a_hat) / na, s * (a_hat - c * b_hat) / nb

    return record_op(out, (a, b), rule)
