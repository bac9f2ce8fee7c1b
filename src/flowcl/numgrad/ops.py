"""Differentiable operations: the layer and loss primitives of the package.

Forward math is plain vectorized NumPy in float64; each op hands `record_op`
a closure mapping the output gradient to input gradients. Inputs are never
mutated (batchnorm's running statistics, which are explicitly state, are the
one documented exception).

The encoder's conv, batch norm and max pool math exists once, as kernels over
channels-last activations: (batch, width, channels) arrays whose rows are
contiguous channel vectors, so batch norm reduces over rows. The encoder
runs in units: `conv_bn_relu` is one conv, batch norm and ReLU plus an
optional max pool, one tape entry each, and `maxpool_cl` and
`global_maxpool_cl` cover the pools with no conv just before them. The
(batch, channels, width) primitives `conv1d`, `batchnorm1d`, `maxpool1d` and
`global_maxpool1d` are transposing wrappers over the same kernels.

The width-2 conv reads its input in place, in every pass. In a C-ordered
(B, W, C_in) input, flat rows r and r+1 are adjacent, so the im2col row of
position r is a (2 * C_in)-long run of the input itself: two GEMMs over two
overlapping views write the conv output into a (B, W, C_out) buffer whose
last position in each batch row is a zero pad (`_conv`). No pass builds
im2col rows. The same buffer is the conv rule's output gradient: the pads
make each flat-row pair that straddles two batch rows add nothing, in the
kernel gradient and in dx, which is the same pair trick in reverse.

Adding a per-channel shift and ReLU both preserve order, so a unit pools
first and shifts and rectifies the pooled array. Train-mode batch norm
leaves out the conv bias, which the batch mean cancels, keeps the centred
conv output in the conv's buffer, with its statistics taken over the
positions that are not pads, and folds gamma / sqrt(var + BN_EPS) into the
backward GEMMs' small operands. A train-mode unit's backward writes
u = dy - z * a - b, its conv output gradient over the scale, over that
centred output, so the conv rule allocates no gradient buffer: a pooled
unit takes dgamma from the pooled gradient, the pool's routing mask and the
centred output in one einsum and then adds the routed gradient into the
buffer one pool tap at a time, with no routed copy. The unit's per-channel
sums, the batch mean and dbeta, are ones-vector GEMVs, several times faster
than numpy's axis-0 reduction.

Eval mode, which every frozen-feature pass uses, folds batch norm into the
conv: `_bn_eval_map` turns the running statistics, gamma, beta and the conv
bias into one per-channel scale and shift, so the unit runs the conv of the
scaled kernel. Eval mode is forward-only: a backward that reaches an
eval-mode unit raises ConfigError, since only pretraining takes gradients
and it tapes training-mode passes. A train-mode unit builds its pool's
first-maximum routing in the forward, while the pool input is hot in cache,
and keeps only that bool mask for its backward, not the pool input or the
pooled max. Eval units and the standalone pools keep only the running max;
the standalone pools' rules find each window's first maximum from the input
they hold, so an untaped pass builds no routing arrays. Each backward rule
runs once, as `backward` consumes its tape, so a rule may write over the
arrays it saved once they are dead. No rule writes into its own output: the
next unit's conv rule reads it as that unit's input.

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


def _pair_gemm(flat: np.ndarray, k2: np.ndarray, rows: np.ndarray) -> None:
    """rows[r] = flat[r*c : (r+2)*c] @ k2 for every row r, with c = len(k2) // 2.

    flat is a 1-D C-ordered run of at least len(rows) + 1 rows of c values,
    so rows r and r+1 are adjacent: the pairs that start at an even r are
    flat viewed as (., 2c) rows, and those at an odd r the same view shifted
    by c. Two GEMMs write into the even and the odd rows of rows, which may
    be a strided view whose rows are C-ordered. Nothing is copied.
    """
    c = len(k2) // 2
    even, odd = (len(rows) + 1) // 2, len(rows) // 2
    np.matmul(flat[: 2 * c * even].reshape(even, 2 * c), k2, out=rows[0::2])
    np.matmul(flat[c: c + 2 * c * odd].reshape(odd, 2 * c), k2, out=rows[1::2])


def _conv(x: np.ndarray, kernel: np.ndarray):
    """Width-2 valid conv of channels-last x (B, W, Cin), no bias, read in place.

    Returns z (B, W, Cout) and the rule (scale, need_dx) -> (dx, dkernel).
    z[:, :W-1] is the conv output and z[:, W-1] is zero, one pad position
    per batch row: in flat (B*W, Cout) rows, output row r pairs input rows
    r and r+1 (`_pair_gemm`), so the pair that straddles two batch rows
    lands on a pad, which is then zeroed.

    z is the rule's buffer too. Before the rule runs, the caller writes u
    over z's first W-1 positions, where the output gradient is
    dz = u * scale, and leaves the pads at zero. The rule keeps x and folds
    the per-output-channel scale into the GEMMs' small operands. In flat
    rows, X[r+1] pairs with U[r], and dx[r] is the pair (U[r-1], U[r])
    times the scaled taps stacked in (1, 0) order; a pair across two batch
    rows meets a pad, and row 0's pair a zero row kept just before z. dx is
    None when need_dx is false.
    """
    _require(kernel.ndim == 3 and kernel.shape[2] == 2,
             f"conv1d kernel must be (out_ch, in_ch, 2), got {kernel.shape}")
    x = np.ascontiguousarray(x)
    batch, width, in_ch = x.shape
    out_ch = kernel.shape[0]
    _require(width >= 2, f"conv1d needs width >= 2, got {width}")
    _require(kernel.shape[1] == in_ch,
             f"conv1d channel mismatch: input has {in_ch}, kernel expects {kernel.shape[1]}")
    n = batch * width
    buf = np.empty((n + 1, out_ch))
    z = buf[1:].reshape(batch, width, out_ch)
    # The (2 * in_ch, out_ch) kernel operand holds kernel[o, i, tap] at row
    # tap * in_ch + i, the order of an im2col row's values.
    _pair_gemm(x.reshape(-1), kernel.transpose(2, 1, 0).reshape(2 * in_ch, out_ch), buf[1:-1])
    z[:, -1] = 0.0

    def back(scale=1.0, need_dx: bool = True):
        u = buf[1:]
        rows = x.reshape(-1, in_ch)
        dk = np.empty((2, in_ch, out_ch))
        np.matmul(rows.T, u, out=dk[0])
        np.matmul(rows[1:].T, u[:-1], out=dk[1])
        dk *= scale
        dk = dk.transpose(2, 1, 0)
        if not need_dx:
            return None, dk
        buf[0] = 0.0
        kt = np.multiply(kernel.transpose(2, 0, 1)[::-1], np.reshape(scale, (-1, 1)), order="C")
        dx = np.empty((n, in_ch))
        _pair_gemm(buf.reshape(-1), kt.reshape(2 * out_ch, in_ch), dx)
        return dx.reshape(x.shape), dk

    return z, back


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
    the (B*W, C) rows costs up to twice as much at C <= 128. a may be a view
    whose rows are C-ordered, such as a padded buffer's first W positions.
    The tiling is `repeat` on a one-row view, several times cheaper than
    `np.tile` at the encoder's sizes.
    """
    return a.reshape(len(a), -1), v.reshape(1, -1).repeat(a.shape[1], axis=0).reshape(-1)


def _batchnorm(z: np.ndarray, gamma: np.ndarray, bias: np.ndarray,
               running_mean: np.ndarray, running_var: np.ndarray):
    """Train-mode batch norm of z + bias over z's rows but the pads, before beta.

    z (B, W+1, C) is a C-ordered buffer whose last position in each batch
    row is a zero pad, as `_conv` makes it. The batch mean cancels the
    per-channel bias, so the bias only enters the running mean. z's
    (B, W, C) positions are centred in place and kept; the output is a new
    (B, W, C) array z * scale with scale = gamma * inv_std, and the caller
    adds beta (after any max pool, which commutes with adding a per-channel
    constant). Returns the output, scale and the rule (dyz, dbeta) -> dgamma,
    which takes sum(dy * z) and sum(dy) per channel and writes
    -(z * a + b) over z's positions, leaving the pads at zero, so that the
    caller's adding dy there makes u with dz = u * scale. The rule runs once.
    """
    batch, width, ch = z.shape
    n = batch * (width - 1)
    _require(gamma.shape == bias.shape == (ch,), f"batchnorm1d affine params must be ({ch},)")
    _require(n >= 2, "batchnorm1d train mode needs >= 2 elements per channel")
    rows = z.reshape(-1, ch)
    mean = _column_sums(rows) / n
    # Whole-buffer passes, then the pads again: a strided in-place pass over
    # the positions alone costs up to twice as much at the encoder's sizes.
    flat, tiled = _tiled(z, mean)
    flat -= tiled
    z[:, -1] = 0.0
    var = np.einsum("ij,ij->j", rows, rows) / n
    running_mean *= 1.0 - BN_MOMENTUM
    running_mean += BN_MOMENTUM * (mean + bias)
    running_var *= 1.0 - BN_MOMENTUM
    running_var += BN_MOMENTUM * var
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    scale = gamma * inv_std
    valid = z[:, :-1]
    out = np.multiply(*_tiled(valid, scale))

    def back(dyz: np.ndarray, dbeta: np.ndarray):
        # With xhat = z * inv_std: dgamma = sum(dy * xhat) and
        # dz = scale * (dy - dbeta / n - xhat * dgamma / n) = scale * (dy - z * a - b).
        dgamma = dyz * inv_std
        flat, tiled = _tiled(z, -(dgamma * inv_std / n))
        flat *= tiled
        flat -= _tiled(z, dbeta / n)[1]
        z[:, -1] = 0.0
        return dgamma

    return out.reshape(valid.shape), scale, back


def _first_max(tiles: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Bool mask over tiles (B, W', window, C) of each window's first maximum.

    Every tap that equals its window's maximum, then only the first: free
    marks the slots no earlier tap has taken, which after the first tap are
    those it missed; a tap's hits are within free, so xor clears the slots
    it takes.
    """
    hit = tiles == out[:, :, None]
    free = ~hit[:, :, 0]
    for j in range(1, tiles.shape[2]):
        hit[:, :, j] &= free
        free ^= hit[:, :, j]
    return hit


def _tiles(x: np.ndarray, window: int) -> np.ndarray:
    """x (B, W, C) viewed as (B, W // window, window, C), the remainder dropped."""
    batch, width, ch = x.shape
    return x[:, : width // window * window].reshape(batch, width // window, window, ch)


def _maxpool(x: np.ndarray, window: int, route: bool = False):
    """Non-overlapping max pool over the width of channels-last x (B, W, C).

    Stride == window, trailing remainder dropped; the gradient goes to each
    window's first maximum (ties go to the first, as with argmax). Returns
    (B, W // window, C) and, with `route`, that routing as a bool mask over
    `_tiles(x, window)`, built while x is hot in cache; the caller keeps the
    mask alone. Without it the forward keeps only the running max, and
    returns the rule g -> dx, which finds the routing from x and the max when
    it runs, so a pass without a tape builds none.
    """
    _require(window >= 1, f"pool window must be >= 1, got {window}")
    _require(window <= x.shape[1], f"pool window {window} exceeds width {x.shape[1]}")
    tiles = _tiles(x, window)
    out = tiles[:, :, 0].copy()
    for j in range(1, window):
        np.maximum(out, tiles[:, :, j], out=out)
    if route:
        return out, _first_max(tiles, out)

    def back(g: np.ndarray):
        dx = np.zeros(x.shape)
        np.multiply(g[:, :, None], _first_max(tiles, out), out=_tiles(dx, window))
        return dx

    return out, back


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
    keeps the centred conv output in the conv's padded buffer, the pool's
    routing mask and the output, and writes its conv output gradient over
    that buffer; the conv rule reads x, which the tape keeps as an input.
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
        # The conv of the scaled kernel, shifted below; its pads are left out.
        y = _conv(_channels_last(x.data), kernel.data * scale[:, None, None])[0][:, :-1]

    if pool is None:
        # Train mode's y is a new array of its own; eval mode's is a view of
        # the conv buffer, so the output is a new C-ordered array there.
        flat, tiled = _tiled(y, shift)
        out = np.add(flat, tiled, out=flat if training else None).reshape(y.shape)
    else:
        out, hit = _maxpool(y, pool, route=training)
        out += shift
    np.maximum(out, 0.0, out=out)
    if not training:
        return record_op(Tensor(out), (x, kernel, bias, gamma, beta), _no_eval_gradient)
    ch = out.shape[2]
    need_dx = tracked(x)

    def rule(g: np.ndarray):
        # Batch norm's output gradient dy goes into the conv buffer, where
        # batch norm's rule has left -(z * a + b), to make u there.
        centred = z[:, :-1]
        if pool is None:
            dy = g * (out > 0)
            dshift = _column_sums(dy)
            dgamma = bn_back(np.einsum("bwc,bwc->c", dy, centred), dshift)
            centred += dy
        else:
            g = g * (out > 0)
            dshift = _column_sums(g)
            tiles = _tiles(centred, pool)
            dgamma = bn_back(np.einsum("bwc,bwjc,bwjc->c", g, hit, tiles), dshift)
            for j in range(pool):
                tiles[:, :, j] += g * hit[:, :, j]
        dx, dk = conv_back(scale, need_dx)
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
    # A new output array: the conv buffer is the rule's to write.
    out = z[:, :-1] + bias.data
    need_dx = tracked(x)

    def rule(g: np.ndarray):
        z[:, :-1] = g.transpose(0, 2, 1)
        dx, dk = back(need_dx=need_dx)
        return (None if dx is None else dx.transpose(0, 2, 1)), dk, _column_sums(z)

    return record_op(Tensor(out.transpose(0, 2, 1)), (x, kernel, bias), rule)


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
    rows = x.data.transpose(0, 2, 1)
    if not training:
        scale, shift = _bn_eval_map(gamma.data, beta.data, running_mean, running_var,
                                    np.zeros(ch))
        out = rows * scale
        out += shift
        return record_op(Tensor(out.transpose(0, 2, 1)), (x, gamma, beta), _no_eval_gradient)
    # A padded C-order (B, W+1, C) copy, laid out as `_conv` leaves its
    # output: the train-mode kernel centres it in place.
    z = np.zeros((batch, width + 1, ch))
    z[:, :-1] = rows
    out, scale, bn_back = _batchnorm(z, gamma.data, np.zeros(ch), running_mean, running_var)
    out += beta.data

    def rule(g: np.ndarray):
        dy = np.array(g.transpose(0, 2, 1), order="C")
        dbeta = _column_sums(dy)
        centred = z[:, :-1]
        dgamma = bn_back(np.einsum("bwc,bwc->c", dy, centred), dbeta)
        centred += dy
        return (centred * scale).transpose(0, 2, 1), dgamma, dbeta

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
