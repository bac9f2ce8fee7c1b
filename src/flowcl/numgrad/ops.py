"""Differentiable operations: the layer and loss primitives of the package.

Forward math is plain vectorized NumPy in float64; each op hands `record_op`
a closure mapping the output gradient to input gradients. Inputs are never
mutated (batchnorm's running statistics, which are explicitly state, are the
one documented exception).

The encoder's conv, batch norm and max pool math exists once, as kernels over
channels-last activations: (batch, width, channels) arrays whose rows are
contiguous channel vectors, so batch norm reduces over rows. The encoder's
conv stack is one op and one tape entry, `conv_stack`: a run of units, each
one conv, batch norm and ReLU plus an optional max pool, optionally ending in
a global max pool; `maxpool_cl` covers a pool with no conv just before it.
The (batch, channels, width) primitives `conv1d`, `batchnorm1d`,
`maxpool1d` and `global_maxpool1d` are transposing wrappers over the same
kernels.

The width-2 conv reads its input in place, in every pass. In a C-ordered
(B, W, C_in) input, flat rows r and r+1 are adjacent, so the im2col row of
position r is a (2 * C_in)-long run of the input itself: two GEMMs over two
overlapping views write the conv output into a (B, W, C_out) buffer whose
last position in each batch row is a zero pad (`_conv`). No pass builds
im2col rows; a conv with one input channel makes its 2-value pair rows and
runs one GEMM. The same buffer is the conv rule's output gradient: the pads
make each flat-row pair that straddles two batch rows add nothing, in the
kernel gradient and in dx, which is the same pair trick in reverse. The pair
GEMMs of the forward and of dx run over blocks of rows, each left operand
about GEMM_BLOCK elements: on more than one thread, OpenBLAS packs the whole
tall operand of a call, so one call over a whole activation grows the
process by about that operand's size. Unit 3's dx half GEMM at
`smaller-pack` width 196, (6208, 256) @ (256, 64), grew it by 15.7 MiB on
two BLAS threads as one call and by 4.6 MiB as 512-row calls (3.5 MiB
either way on one thread). A GEMM's rows do not depend on the other rows of
its call, so the blocks give the bits of one call. The kernel gradient's
GEMMs sum over the rows, so each stays one call.

Adding a per-channel shift and ReLU both preserve order, so a unit pools
first and shifts and rectifies the pooled array. Non-overlapping max pools
compose: the pools after one conv are one window of their product, and a
global max after the last unit widens that unit's window over the whole
pooled width, the same function with the same first-of-equals routing.
Train-mode batch norm leaves out the conv bias, which the batch mean
cancels, keeps the centred conv output in the conv's buffer, with its
statistics taken over the positions that are not pads, and folds
gamma / sqrt(var + BN_EPS) into the backward GEMMs' small operands. A
pooled train-mode unit scales and pools that buffer a block of batch rows at
a time (POOL_BLOCK elements) through one scratch array, so no full-size
scaled copy is made. A unit's backward writes u = dy - z * a - b, its conv
output gradient over the scale, over that centred output, so the conv rule
allocates no gradient buffer: a pooled unit takes dgamma from the pooled
gradient, the pool's routing mask and the centred output in one einsum and
then adds the routed gradient into the buffer one pool tap at a time, with
no routed copy. The unit's per-channel sums, the batch mean and dbeta, are
ones-vector GEMVs, several times faster than numpy's axis-0 reduction. The
kernel gradient comes back C-ordered in the kernel's layout, so AdamW
gathers it with one copy.

What a taped stack keeps is, for each pooled unit and the last unit, the
conv buffer, the output and a pooled unit's bool routing mask; these are its
checkpoints. Any other unit keeps only its batch mean and scale, and its
buffer and output are dropped in the forward (activation checkpointing,
Chen et al. 2016). The first backward turn that reads such a unit's output
replays it and the dropped units before it from the nearest checkpoint, or
from the op's input: each conv again, centred by the kept mean, with the
forward's float64 operations and the same bits, and no running statistic
touched. The replay costs an unpooled unit's conv and centring pass once
more; at `smaller-pack` width 196 that is units 1-2, 9.6 MB less kept for 64
views. Once a unit has its kernel gradient, it writes its input gradient
over its input, the previous unit's output, which is dead by then, and
applies that unit's ReLU mask in place, so no unit but the first allocates
an input gradient.

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
arrays it saved once they are dead. No rule writes into its own input or
output, which other ops' rules or the caller may still read.

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
# Elements per block of a train-mode unit's scale-and-pool pass, which
# takes whole batch rows (one at least): the block's scaled conv output
# stands in for a full-size scaled copy.
POOL_BLOCK = 1 << 17
# Elements of the left operand of each pair GEMM call (`_pair_gemm`): on
# more than one thread OpenBLAS packs the whole tall operand of a call, so a
# call over a whole activation grows the process by about that operand's size.
GEMM_BLOCK = 1 << 17


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
    be a strided view whose rows are C-ordered. Nothing is copied, except
    with c == 1: there two GEMMs that each write every other row take about
    3.5x one GEMM into contiguous rows, so the (n, 2) pair rows are made
    (16 bytes a row) and multiplied in one GEMM.

    The GEMMs run over blocks of rows, each call a multiple of 4 rows of
    at most GEMM_BLOCK elements (4 rows at least), so each row gets the
    bits of one call on all of rows: a GEMM's rows do not depend on each
    other, and a matrix-vector call (one output column) takes rows 4 at a
    time from its first. A block shorter than 4 rows would make a one-row
    call, which numpy hands to GEMV, with other rounding, so a tail that
    short joins the block before it.
    """
    c = len(k2) // 2
    n = len(rows)
    step = max(4, GEMM_BLOCK // (2 * c) // 4 * 4) * (1 if c == 1 else 2)
    for lo in range(0, max(n - 3, 1), step):
        hi = lo + step if lo + step + 3 < n else n
        src, out = flat[lo * c:], rows[lo:hi]
        if c == 1:
            np.matmul(np.stack((src[: hi - lo], src[1: hi - lo + 1]), axis=1), k2, out=out)
            continue
        even, odd = (hi - lo + 1) // 2, (hi - lo) // 2
        np.matmul(src[: 2 * c * even].reshape(even, 2 * c), k2, out=out[0::2])
        np.matmul(src[c: c + 2 * c * odd].reshape(odd, 2 * c), k2, out=out[1::2])


def _conv(x: np.ndarray, kernel: np.ndarray):
    """Width-2 valid conv of channels-last x (B, W, Cin), no bias, read in place.

    Returns the (B*W + 1, Cout) buffer and z, its rows after the first
    viewed as (B, W, Cout). z[:, :W-1] is the conv output and z[:, W-1] is
    zero, one pad position per batch row: in flat (B*W, Cout) rows, output
    row r pairs input rows r and r+1 (`_pair_gemm`), so the pair that
    straddles two batch rows lands on a pad, which is then zeroed. The
    buffer is the conv rule's too (`_conv_grads`).
    """
    _require(kernel.ndim == 3 and kernel.shape[2] == 2,
             f"conv1d kernel must be (out_ch, in_ch, 2), got {kernel.shape}")
    x = np.ascontiguousarray(x)
    batch, width, in_ch = x.shape
    out_ch = kernel.shape[0]
    _require(width >= 2, f"conv1d needs width >= 2, got {width}")
    _require(kernel.shape[1] == in_ch,
             f"conv1d channel mismatch: input has {in_ch}, kernel expects {kernel.shape[1]}")
    buf = np.empty((batch * width + 1, out_ch))
    z = buf[1:].reshape(batch, width, out_ch)
    # The (2 * in_ch, out_ch) kernel operand holds kernel[o, i, tap] at row
    # tap * in_ch + i, the order of an im2col row's values.
    _pair_gemm(x.reshape(-1), kernel.transpose(2, 1, 0).reshape(2 * in_ch, out_ch), buf[1:-1])
    z[:, -1] = 0.0
    return buf, z


def _conv_grads(buf: np.ndarray, x: np.ndarray, kernel: np.ndarray, scale=1.0,
                dx: np.ndarray | None = None) -> np.ndarray:
    """The conv rule: the kernel gradient, and dx written into dx if given.

    buf is `_conv`'s buffer of the conv of the C-ordered x. Before the rule
    runs, the caller writes u over its conv output positions, where the
    output gradient is dz = u * scale, and leaves the pads at zero. The
    per-output-channel scale is folded into the small operands: the kernel
    gradient comes back C-ordered in the kernel's (out, in, 2) layout, the
    scale applied in the pass that transposes it. In flat rows, X[r+1]
    pairs with U[r], and dx[r] is the pair (U[r-1], U[r]) times the scaled
    taps stacked in (1, 0) order; a pair across two batch rows meets a pad,
    and row 0's pair the zero row written into buf[0]. x is read only for
    the kernel gradient, so dx may be x's own storage.
    """
    out_ch, in_ch = kernel.shape[:2]
    u = buf[1:]
    rows = x.reshape(-1, in_ch)
    taps = np.empty((2, in_ch, out_ch))
    np.matmul(rows.T, u, out=taps[0])
    np.matmul(rows[1:].T, u[:-1], out=taps[1])
    dk = np.multiply(taps.transpose(2, 1, 0), np.reshape(scale, (-1, 1, 1)), order="C")
    if dx is not None:
        buf[0] = 0.0
        # The scaled taps, C-ordered, over the raw kernel gradient, which is dead.
        kt = taps.reshape(2, out_ch, in_ch)
        np.multiply(kernel.transpose(2, 0, 1)[::-1], np.reshape(scale, (-1, 1)), out=kt)
        _pair_gemm(buf.reshape(-1), kt.reshape(2 * out_ch, in_ch), dx.reshape(-1, in_ch))
    return dk


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


def _centre(z: np.ndarray, mean: np.ndarray) -> None:
    """Subtract the per-channel mean from a padded (B, W+1, C) buffer in place, pads left zero.

    Whole-buffer passes, then the pads again: a strided in-place pass over
    the positions alone costs up to twice as much at the encoder's sizes.
    The train-mode forward and the backward's replay both centre this way,
    with the same bits.
    """
    flat, tiled = _tiled(z, mean)
    flat -= tiled
    z[:, -1] = 0.0


def _batchnorm(z: np.ndarray, gamma: np.ndarray, bias: np.ndarray,
               running_mean: np.ndarray, running_var: np.ndarray):
    """Train-mode batch norm of z + bias over z's rows but the pads, before beta.

    z (B, W+1, C) is a C-ordered buffer whose last position in each batch
    row is a zero pad, as `_conv` makes it. The batch mean cancels the
    per-channel bias, so the bias only enters the running mean. z's
    (B, W, C) positions are centred in place (`_centre`); the normalized
    output is z * scale with scale = gamma * inv_std, which the caller
    makes, and adds beta to (after any max pool, which commutes with adding
    a per-channel constant). Returns the batch mean, scale and the rule
    (z, dyz, dbeta) -> dgamma. The rule takes the centred z, this one or a
    replay of it, and sum(dy * z) and sum(dy) per channel, and writes
    -(z * a + b) over z's positions, leaving the pads at zero, so that the
    caller's adding dy there makes u with dz = u * scale. The rule runs once.
    """
    batch, width, ch = z.shape
    n = batch * (width - 1)
    _require(gamma.shape == bias.shape == (ch,), f"batchnorm1d affine params must be ({ch},)")
    _require(n >= 2, "batchnorm1d train mode needs >= 2 elements per channel")
    rows = z.reshape(-1, ch)
    mean = _column_sums(rows) / n
    _centre(z, mean)
    var = np.einsum("ij,ij->j", rows, rows) / n
    running_mean *= 1.0 - BN_MOMENTUM
    running_mean += BN_MOMENTUM * (mean + bias)
    running_var *= 1.0 - BN_MOMENTUM
    running_var += BN_MOMENTUM * var
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    scale = gamma * inv_std

    def back(z: np.ndarray, dyz: np.ndarray, dbeta: np.ndarray):
        # With xhat = z * inv_std: dgamma = sum(dy * xhat) and
        # dz = scale * (dy - dbeta / n - xhat * dgamma / n) = scale * (dy - z * a - b).
        dgamma = dyz * inv_std
        flat, tiled = _tiled(z, -(dgamma * inv_std / n))
        flat *= tiled
        flat -= _tiled(z, dbeta / n)[1]
        z[:, -1] = 0.0
        return dgamma

    return mean, scale, back


def _scaled(z: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """z[:, :-1] * scale as a new (B, W-1, C) array, z a padded (B, W, C) buffer view."""
    valid = z[:, :-1]
    return np.multiply(*_tiled(valid, scale)).reshape(valid.shape)


def _shift_relu(y: np.ndarray, shift: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """relu(y + shift) of y (B, W, C) and a per-channel shift.

    Written into out, which may be y itself, or into a new array.
    """
    flat, tiled = _tiled(y, shift)
    res = np.add(flat, tiled, out=None if out is None else out.reshape(len(out), -1))
    np.maximum(res, 0.0, out=res)
    return res.reshape(y.shape)


def _unpooled_output(z: np.ndarray, scale: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """relu(z[:, :-1] * scale + shift) as a new array: a train-mode unit's output without a pool.

    The forward makes it, and the backward makes it again, with the same
    bits, from the unit's replayed buffer.
    """
    y = _scaled(z, scale)
    return _shift_relu(y, shift, out=y)


def _keep_first(hit: np.ndarray) -> np.ndarray:
    """Clear every hit of a (B, W', window, C) bool mask but each window's first.

    free marks the slots no earlier tap has taken, which after the first tap
    are those it missed; a tap's hits are within free, so xor clears the
    slots it takes.
    """
    free = ~hit[:, :, 0]
    for j in range(1, hit.shape[2]):
        hit[:, :, j] &= free
        free ^= hit[:, :, j]
    return hit


def _first_max(tiles: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Bool mask over tiles (B, W', window, C) of each window's first maximum out."""
    return _keep_first(tiles == out[:, :, None])


def _tiles(x: np.ndarray, window: int) -> np.ndarray:
    """x (B, W, C) viewed as (B, W // window, window, C), the remainder dropped."""
    batch, width, ch = x.shape
    return x[:, : width // window * window].reshape(batch, width // window, window, ch)


def _check_window(window: int, width: int) -> None:
    """A pool window must lie in [1, width]."""
    _require(window >= 1, f"pool window must be >= 1, got {window}")
    _require(window <= width, f"pool window {window} exceeds width {width}")


def _window_max(x: np.ndarray, window: int, out: np.ndarray | None = None) -> np.ndarray:
    """Each non-overlapping window's max over the width of x (B, W, C).

    Stride == window, trailing remainder dropped; written into out if
    given, else into a new (B, W // window, C) array.
    """
    tiles = _tiles(x, window)
    if out is None:
        out = tiles[:, :, 0].copy()
    else:
        out[...] = tiles[:, :, 0]
    for j in range(1, window):
        np.maximum(out, tiles[:, :, j], out=out)
    return out


def _maxpool(x: np.ndarray, window: int):
    """Non-overlapping max pool over the width of channels-last x (B, W, C).

    Returns (B, W // window, C) and the rule g -> dx, which sends each
    window's gradient to its first maximum (ties go to the first, as with
    argmax). The forward keeps only the running max; the rule finds the
    routing from x and the max when it runs, so a pass without a tape
    builds none.
    """
    _check_window(window, x.shape[1])
    out = _window_max(x, window)

    def back(g: np.ndarray):
        dx = np.zeros(x.shape)
        np.multiply(g[:, :, None], _first_max(_tiles(x, window), out), out=_tiles(dx, window))
        return dx

    return out, back


def _scaled_pool(z: np.ndarray, scale: np.ndarray, window: int):
    """Max pool of z[:, :-1] * scale, z a padded (B, W, C) buffer view, and its routing.

    Returns the pooled (B, (W-1) // window, C) array and each window's
    first maximum as a bool mask over its windows. The scaled values are
    made a block of whole batch rows at a time, about POOL_BLOCK elements,
    in one scratch array, with the float64 products of a full-size scaled
    copy, which is never made.
    """
    batch, width, ch = z.shape
    valid = z[:, :-1]
    out = np.empty((batch, (width - 1) // window, ch))
    hit = np.empty((batch, (width - 1) // window, window, ch), dtype=bool)
    rows = min(batch, max(1, POOL_BLOCK // ((width - 1) * ch)))
    scratch = np.empty((rows, width - 1, ch))
    tiled = _tiled(scratch, scale)[1]
    for lo in range(0, batch, rows):
        hi = min(lo + rows, batch)
        s = scratch[: hi - lo]
        np.multiply(valid[lo:hi].reshape(hi - lo, -1), tiled, out=s.reshape(hi - lo, -1))
        np.equal(_tiles(s, window), _window_max(s, window, out[lo:hi])[:, :, None],
                 out=hit[lo:hi])
    return out, _keep_first(hit)


def _eval_unit(x: np.ndarray, kernel: np.ndarray, shift: np.ndarray,
               window: int | None) -> np.ndarray:
    """relu(maxpool(conv(x)) + shift) as a new C-ordered array, the kernel's scale folded in.

    The pool, if any, reads the conv's buffer in place; the buffer dies on return.
    """
    y = _conv(x, kernel)[1][:, :-1]
    if window is None:
        return _shift_relu(y, shift)
    out = _window_max(y, window)
    return _shift_relu(out, shift, out=out)


def _unit_window(width: int, pool: int | None, global_pool: bool) -> int | None:
    """The pool window of a unit whose conv output is `width` wide.

    With global_pool the window widens over every window the pool leaves
    (the whole width without a pool), so one max is the global max of the
    pooled output, with the same first-of-equals routing.
    """
    if pool is not None:
        _check_window(pool, width)
    if not global_pool:
        return pool
    return width // (pool or 1) * (pool or 1)


def conv_stack(x: Tensor, units, training: bool, global_pool: bool = False) -> Tensor:
    """A run of encoder units, each relu(batchnorm1d(conv1d(.))) and an optional max pool.

    units is a sequence of (kernel, bias, gamma, beta, running_mean,
    running_var, pool), pool a window or None. Channels-last: x (B, W, C_in),
    or (B, W) as one input channel; a unit maps (B, W, C) to
    (B, W-1, C_out), or to (B, (W-1) // pool, C_out) with a pool window.
    With global_pool a global max pool over the width follows, so the
    output is (B, C_out) of the last unit; it is folded into the last
    unit's window (`_unit_window`). Same semantics as a chain of one-unit
    stacks and `maxpool_cl`, running statistics included, and one tape
    entry. A unit pools its conv output scaled by gamma / sqrt(var + BN_EPS)
    (the batch's variance in train mode, the running one in eval mode); the
    per-channel shift and ReLU then apply to the pooled array. Eval mode is
    forward-only.

    A train-mode unit that pools, and the last unit, keeps the centred conv
    output in the conv's padded buffer, its routing mask if pooled, and its
    output: these are the checkpoints. Any other unit keeps only its batch
    mean and scale. The first backward turn that reads such units' outputs
    replays them from the nearest checkpoint before them (a pooled unit's
    output, or x): each conv again, centred by the kept mean, with the
    forward's float64 operations and the same bits, and the running
    statistics untouched. The rule runs the units in reverse: each writes
    its conv output gradient over its buffer, takes its kernel gradient,
    then writes its input gradient over its input, the previous unit's
    output, which is dead by then, and applies that unit's ReLU mask in
    place; a unit's arrays are dropped as soon as its gradients are out.
    The op never writes into x or its output, and returns no gradient for
    an x the tape does not track when the op is recorded, such as the
    encoder's input.
    """
    x = as_tensor(x)
    _require(len(units) >= 1, "conv_stack needs at least one unit")
    units = [tuple(as_tensor(t) for t in unit[:4]) + tuple(unit[4:]) for unit in units]
    params = [t for unit in units for t in unit[:4]]
    x_in = np.ascontiguousarray(_channels_last(x.data))
    a = x_in
    # Per unit: [buf, z, output, mean, scale, bn_back, window, hit], the
    # first three None for a unit the backward replays.
    saved = []
    for i, (kernel, bias, gamma, beta, running_mean, running_var, pool) in enumerate(units):
        window = _unit_window(a.shape[1] - 1, pool, global_pool and i == len(units) - 1)
        if not training:
            scale, shift = _bn_eval_map(gamma.data, beta.data, running_mean, running_var,
                                        bias.data)
            _require(kernel.data.ndim == 3 and kernel.shape[0] == scale.size,
                     f"conv1d kernel must be ({scale.size}, in_ch, 2), got {kernel.shape}")
            a = _eval_unit(a, kernel.data * scale[:, None, None], shift, window)
            continue
        buf, z = _conv(a, kernel.data)
        _require(beta.shape == (z.shape[2],), f"batchnorm1d affine params must be ({z.shape[2]},)")
        mean, scale, bn_back = _batchnorm(z, gamma.data, bias.data, running_mean, running_var)
        if window is None:
            a, hit = _unpooled_output(z, scale, beta.data), None
        else:
            a, hit = _scaled_pool(z, scale, window)
            _shift_relu(a, beta.data, out=a)
        kept = [buf, z, a] if window is not None or i == len(units) - 1 else [None] * 3
        saved.append(kept + [mean, scale, bn_back, window, hit])
        del buf, z  # a dropped buffer dies now, not once the next conv has run
    out = a[:, 0] if global_pool else a
    if not training:
        return record_op(Tensor(out), (x, *params), _no_eval_gradient)
    need_dx = tracked(x)

    def unit_input(i: int) -> np.ndarray:
        """Unit i-1's output: kept, or made again from its buffer, replayed first if dropped.

        A replay runs the dropped units from the nearest checkpoint before
        them, each input dying as its conv returns, before the unit's output
        is made; only the last output is returned, and the others are made
        again from their buffers on their own turns: keeping them measured
        6 MB more peak RSS in the UNSW-width `pretrain`.
        """
        if saved[i - 1][0] is None:
            j = i - 1
            while j >= 0 and saved[j][0] is None:
                j -= 1
            a = x_in if j < 0 else saved[j][2]
            for k in range(j + 1, i):
                buf, z = _conv(a, units[k][0].data)
                del a
                _centre(z, saved[k][3])
                a = _unpooled_output(z, saved[k][4], units[k][3].data)
                saved[k][:2] = buf, z
            return a
        if saved[i - 1][2] is None:
            return _unpooled_output(saved[i - 1][1], saved[i - 1][4], units[i - 1][3].data)
        return saved[i - 1][2]

    def rule(g: np.ndarray):
        grads = [None] * len(units)
        # g is the caller's: the last unit's masked gradient is a new array.
        last_out = saved[-1][2]
        dy = g.reshape(last_out.shape) * (last_out > 0)
        dx = None
        for i in reversed(range(len(units))):
            buf, z, _, _, scale, bn_back, window, hit = saved[i]
            saved[i] = None
            # Batch norm's output gradient dy goes into the conv buffer,
            # where batch norm's rule has left -(z * a + b), to make u there.
            centred = z[:, :-1]
            dshift = _column_sums(dy)
            if window is None:
                dgamma = bn_back(z, np.einsum("bwc,bwc->c", dy, centred), dshift)
                centred += dy
            else:
                tiles = _tiles(centred, window)
                dgamma = bn_back(z, np.einsum("bwc,bwjc,bwjc->c", dy, hit, tiles), dshift)
                for j in range(window):
                    tiles[:, :, j] += dy * hit[:, :, j]
            kernel = units[i][0].data
            if i == 0:
                dx = np.empty(x_in.shape) if need_dx else None
                dk = _conv_grads(buf, x_in, kernel, scale, dx)
            else:
                a_in = unit_input(i)
                live = a_in > 0
                dk = _conv_grads(buf, a_in, kernel, scale, a_in)
                np.multiply(a_in, live, out=a_in)
                dy = a_in
            # The train-mode output does not depend on the bias at all.
            grads[i] = (dk, np.zeros(len(scale)), dgamma, dshift)
        return (None if dx is None else dx.reshape(x.shape)), *(t for unit in grads for t in unit)

    return record_op(Tensor(out), (x, *params), rule)


def maxpool_cl(x: Tensor, window: int) -> Tensor:
    """`maxpool1d` on channels-last x (B, W, C), or (B, W) as one channel."""
    x = as_tensor(x)
    out, back = _maxpool(_channels_last(x.data), window)
    return record_op(Tensor(out), (x,), lambda g: (back(g).reshape(x.shape),))


def conv1d(x: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """Width-2 valid convolution along the last axis, stride 1.

    x (B, C_in, W) -> (B, C_out, W-1) with
    out[b,o,t] = sum_i k[o,i,0]*x[b,i,t] + k[o,i,1]*x[b,i,t+1] + bias[o].
    """
    x, kernel, bias = as_tensor(x), as_tensor(kernel), as_tensor(bias)
    _require(x.data.ndim == 3, f"conv1d input must be (batch, ch, width), got {x.shape}")
    rows = np.ascontiguousarray(x.data.transpose(0, 2, 1))
    buf, z = _conv(rows, kernel.data)
    _require(bias.shape == (z.shape[2],), f"conv1d bias must be ({z.shape[2]},), got {bias.shape}")
    # A new output array: the conv buffer is the rule's to write.
    out = z[:, :-1] + bias.data
    need_dx = tracked(x)

    def rule(g: np.ndarray):
        z[:, :-1] = g.transpose(0, 2, 1)
        dx = np.empty(rows.shape) if need_dx else None
        dk = _conv_grads(buf, rows, kernel.data, dx=dx)
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
    _, scale, bn_back = _batchnorm(z, gamma.data, np.zeros(ch), running_mean, running_var)
    out = _scaled(z, scale)
    out += beta.data

    def rule(g: np.ndarray):
        dy = np.array(g.transpose(0, 2, 1), order="C")
        dbeta = _column_sums(dy)
        centred = z[:, :-1]
        dgamma = bn_back(z, np.einsum("bwc,bwc->c", dy, centred), dbeta)
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
