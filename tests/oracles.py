"""Independent reference implementations used to check the library.

Everything here is written the slow, obvious way (explicit loops, textbook
formulas) so that agreement with the vectorized package code is meaningful.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from flowcl.dataio import (
    MASK_VALUE,
    UNLABELED,
    DegenerateFeatureWarning,
    PreprocessorState,
    UnseenCategoryWarning,
    fit_preprocessor,
)
from flowcl import numgrad as ng
from flowcl.errors import (
    DegenerateVectorError,
    InvalidBatchError,
    InvalidShapeError,
    UnknownClassError,
)
from flowcl.model import Conv, MaxPool, build_classification_head
from flowcl.numgrad import AdamW, Tape, Tensor, backward
from flowcl.seeding import substream
from flowcl.synth import Record


def fd_gradient(f, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of scalar f with respect to x.

    f is called with x after each in-place perturbation, so it must read x
    fresh on every call.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = float(f(x))
        flat[i] = orig - step
        lo = float(f(x))
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * step)
    return grad


def rel_error(a: np.ndarray, b: np.ndarray) -> float:
    """||a - b|| scaled by the larger of the two norms (0 when both vanish)."""
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    denom = max(na, nb)
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)) / denom)


def naive_conv1d(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Triple-loop width-2 valid convolution."""
    batch, in_ch, width = x.shape
    out_ch = kernel.shape[0]
    out = np.zeros((batch, out_ch, width - 1))
    for b in range(batch):
        for o in range(out_ch):
            for t in range(width - 1):
                acc = bias[o]
                for i in range(in_ch):
                    acc += kernel[o, i, 0] * x[b, i, t] + kernel[o, i, 1] * x[b, i, t + 1]
                out[b, o, t] = acc
    return out


def composed_encode(block, x, training: bool = False) -> Tensor:
    """The encoder as a chain of (batch, channels, width) primitives.

    The input is reshaped to one channel, and each Conv is conv1d, then
    batchnorm1d, then relu, each its own tape entry: the reference that the
    fused channels-last `model.encode` must match.
    """
    xt = ng.as_tensor(x)
    batch, width = xt.data.shape
    out = ng.record_op(Tensor(xt.data.reshape(batch, 1, width)),
                       [xt], lambda g: (g.reshape(batch, width),))
    conv_iter = iter(block.convs)
    for spec in block.config.layers:
        if isinstance(spec, Conv):
            layer = next(conv_iter)
            out = ng.conv1d(out, layer.kernel, layer.bias)
            out = ng.batchnorm1d(out, layer.gamma, layer.beta,
                                 layer.running_mean, layer.running_var, training=training)
            out = ng.relu(out)
        else:
            out = ng.maxpool1d(out, spec.window)
    return ng.global_maxpool1d(out)


def conv_bn_relu(x, kernel, bias, gamma, beta, running_mean, running_var, training: bool,
                 pool: int | None = None) -> Tensor:
    """One encoder unit, relu(batchnorm1d(conv1d(x))) and an optional max pool, as a one-unit stack.

    x (B, W, C_in), or (B, W) as one input channel, maps to (B, W-1, C_out),
    or to (B, (W-1) // pool, C_out) with a pool window, in one tape entry.
    The one unit is the stack's last, so it keeps its output and the
    backward replays nothing.
    """
    return ng.conv_stack(x, [(kernel, bias, gamma, beta, running_mean, running_var, pool)],
                         training)


def global_maxpool_cl(x) -> Tensor:
    """Global max pool of channels-last x: (B, W, C) -> (B, C), a `maxpool_cl` over the whole width."""
    pooled = ng.maxpool_cl(x, x.shape[1])
    return ng.record_op(Tensor(pooled.data[:, 0]), (pooled,), lambda g: (g[:, None],))


def unit_chain_encode(block, x, training: bool = False) -> Tensor:
    """The encoder as a chain of one-unit channels-last ops, one tape entry each.

    Each Conv is a `conv_bn_relu` that also runs the MaxPool right after it,
    a pool with no conv just before it is a `maxpool_cl`, and
    `global_maxpool_cl` ends the chain: the reference that `model.encode`'s
    single `conv_stack` entry must match.
    """
    out = ng.as_tensor(x)
    conv_iter = iter(block.convs)
    specs = tuple(block.config.layers)
    for prev, spec, nxt in zip((None,) + specs[:-1], specs, specs[1:] + (None,)):
        if isinstance(spec, Conv):
            layer = next(conv_iter)
            out = conv_bn_relu(out, layer.kernel, layer.bias, layer.gamma, layer.beta,
                               layer.running_mean, layer.running_var, training=training,
                               pool=nxt.window if isinstance(nxt, MaxPool) else None)
        elif not isinstance(prev, Conv):
            out = ng.maxpool_cl(out, spec.window)
    return global_maxpool_cl(out)


def taped_train_head(features: np.ndarray, labels: np.ndarray, n_classes: int, config):
    """The head-training loop with one Tape per step: affine, then the loss, then backward.

    The slow reference for `sscl.train_head`, which must give the same bytes:
    same initial head, same per-epoch shuffle, same AdamW updates.
    """
    y = np.asarray(labels, dtype=np.int64)
    head = build_classification_head(features.shape[1], n_classes, config.seed)
    opt = AdamW(head.parameters(), lr=config.lr, weight_decay=config.weight_decay)
    n = features.shape[0]
    for epoch in range(config.epochs):
        order = substream(config.seed, "head-shuffle", epoch).permutation(n)
        for start in range(0, n, config.batch_size):
            batch = order[start:start + config.batch_size]
            with Tape() as tape:
                logits = head.logits(Tensor(features[batch]))
                loss = ng.softmax_cross_entropy(logits, y[batch])
            backward(loss, tape)
            opt.step()
            opt.zero_grad()
    return head


def naive_cosine(a: np.ndarray, b: np.ndarray) -> float:
    num = sum(float(ai) * float(bi) for ai, bi in zip(a, b))
    na = math.sqrt(sum(float(ai) ** 2 for ai in a))
    nb = math.sqrt(sum(float(bi) ** 2 for bi in b))
    return num / (na * nb)


def naive_nt_xent(z: np.ndarray, tau: float) -> float:
    """Double-loop normalized-temperature cross entropy over 2N projections.

    Views are interleaved: rows (2k, 2k+1) form the k-th positive pair. For
    anchor i with positive j,

        l(i, j) = -log( exp(s_ij/tau) / sum_{k != i} exp(s_ik/tau) )

    and the batch loss averages l over both orderings of every pair.
    """
    rows = z.shape[0]
    assert rows % 2 == 0 and rows >= 2
    sim = np.zeros((rows, rows))
    for i in range(rows):
        for j in range(rows):
            sim[i, j] = naive_cosine(z[i], z[j])

    def l(i: int, j: int) -> float:
        denom = 0.0
        for k in range(rows):
            if k != i:
                denom += math.exp(sim[i, k] / tau)
        return -math.log(math.exp(sim[i, j] / tau) / denom)

    total = 0.0
    for k in range(rows // 2):
        total += l(2 * k, 2 * k + 1) + l(2 * k + 1, 2 * k)
    return total / rows


@dataclass(frozen=True)
class SimilarityMatrix:
    """2N x 2N cosine similarities of the latent batch."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise InvalidShapeError(f"similarity matrix must be square, got {v.shape}")
        if v.shape[0] < 2 or v.shape[0] % 2:
            raise InvalidBatchError(f"need an even number >= 2 of views, got {v.shape[0]}")
        object.__setattr__(self, "values", v)

    @property
    def n_views(self) -> int:
        return self.values.shape[0]


def similarity_matrix(z) -> SimilarityMatrix:
    zd = np.asarray(z, dtype=np.float64)
    if zd.ndim != 2:
        raise InvalidShapeError(f"expected [views, dim] latents, got shape {zd.shape}")
    norms = np.linalg.norm(zd, axis=1)
    if np.any(norms == 0.0):
        bad = int(np.flatnonzero(norms == 0.0)[0])
        raise DegenerateVectorError(f"latent vector {bad} has zero norm; "
                                    "cosine similarity is undefined")
    unit = zd / norms[:, None]
    return SimilarityMatrix(np.clip(unit @ unit.T, -1.0, 1.0))


class InvalidPairError(ValueError):
    """A contrastive pair references the same view twice."""


def pair_loss(i: int, j: int, s: SimilarityMatrix, temperature: float) -> float:
    """l_{i,j} for one ordered pair, log-sum-exp stabilized."""
    values = s.values if isinstance(s, SimilarityMatrix) else SimilarityMatrix(s).values
    n = values.shape[0]
    if not (0 <= i < n and 0 <= j < n):
        raise InvalidPairError(f"indices ({i}, {j}) outside the {n}-view batch")
    if i == j:
        raise InvalidPairError("a view cannot be its own positive")
    row = values[i] / temperature
    others = np.delete(row, i)
    peak = others.max()
    lse = peak + np.log(np.sum(np.exp(others - peak)))
    return float(lse - row[j])


def naive_encode(record: Record, state: PreprocessorState,
                 unseen: dict[str, int] | None = None) -> tuple[np.ndarray, int]:
    """Encode one record with scalar Python arithmetic, feature by feature.

    Returns the encoded row and the class index (UNLABELED for no label).
    """
    schema = state.schema
    out = np.zeros(schema.encoded_width)
    pos = 0
    num_i = 0
    for f, value in zip(schema.features, record.values):
        if f.kind == "numeric":
            mn, mx = state.minima[num_i], state.maxima[num_i]
            if mx > mn:
                out[pos] = min(1.0, max(0.0, (value - mn) / (mx - mn)))
            num_i += 1
            pos += 1
        else:
            if value != MASK_VALUE:
                lowered = value.lower()
                hit = next((k for k, v in enumerate(f.vocabulary) if v.lower() == lowered), None)
                if hit is not None:
                    out[pos + hit] = 1.0
                else:
                    if unseen is not None:
                        unseen[f.name] = unseen.get(f.name, 0) + 1
                    warnings.warn(f"feature {f.name}: unseen category {value!r} zero-masked",
                                  UnseenCategoryWarning, stacklevel=2)
            pos += f.width
    label = UNLABELED if record.label is None else schema.class_index(record.label)
    return out, label


def naive_weighted_metrics(cm: np.ndarray) -> dict[str, float]:
    """Accuracy and support-weighted precision/recall/F1 from a confusion matrix.

    cm[i, j] counts true class i predicted as class j. Per-class ratios with
    a zero denominator are taken as 0.
    """
    cm = np.asarray(cm, dtype=np.float64)
    k = cm.shape[0]
    total = cm.sum()
    support = cm.sum(axis=1)
    accuracy = float(np.trace(cm) / total)
    precision = np.zeros(k)
    recall = np.zeros(k)
    f1 = np.zeros(k)
    for i in range(k):
        col = cm[:, i].sum()
        precision[i] = cm[i, i] / col if col > 0 else 0.0
        recall[i] = cm[i, i] / support[i] if support[i] > 0 else 0.0
        denom = precision[i] + recall[i]
        f1[i] = 2 * precision[i] * recall[i] / denom if denom > 0 else 0.0
    w = support / total
    return {
        "accuracy": accuracy,
        "weighted_precision": float((w * precision).sum()),
        "weighted_recall": float((w * recall).sum()),
        "weighted_f1": float((w * f1).sum()),
    }


def spread_values(rng: np.random.Generator, shape: tuple[int, ...],
                  scale: float = 1.0) -> np.ndarray:
    """Random array with pairwise gaps of 2*scale/(n-1): a shuffled linspace.

    Keeps max/argmax selections stable under small finite-difference steps,
    which plain random draws cannot guarantee.
    """
    n = int(np.prod(shape))
    base = np.linspace(-scale, scale, n)
    return rng.permutation(base).reshape(shape)


@dataclass(frozen=True)
class DenseDataset:
    """A whole dense one-hot matrix with its labels, as the encoded rows once were held."""

    x: np.ndarray
    labels: np.ndarray
    class_names: tuple

    def __len__(self) -> int:
        return self.x.shape[0]


def encode_dense(table, state: PreprocessorState) -> DenseDataset:
    """The whole-matrix encoder, column by column: min-max scale numerics, one-hot categoricals.

    Numerics are clipped into [0,1]; a degenerate feature (min == max on the
    fitting data) encodes as 0. A code of -1 yields an all-zero block.
    """
    schema = state.schema
    x = np.zeros((len(table), schema.encoded_width))
    layout = schema.layout()
    numeric = zip(layout.numeric.tolist(), state.minima, state.maxima)
    for j, (start, mn, mx) in enumerate(numeric):
        if mx > mn:
            # Selections, not np.clip or np.fmax (whose vector loops can
            # keep -0.0): -0.0 and NaN become +0.0, as with max(0.0, v).
            scaled = (table.numeric[:, j] - mn) / (mx - mn)
            scaled = np.where(scaled > 0.0, scaled, 0.0)
            x[:, start] = np.where(scaled < 1.0, scaled, 1.0)
    categorical = layout.starts
    rows, cols = np.nonzero(table.codes >= 0)
    x[rows, categorical[cols] + table.codes[rows, cols]] = 1.0
    return DenseDataset(x, table.labels.copy(), schema.class_names)


def fit_pin_encode_align(table, target_schema, original_state, amap) -> DenseDataset:
    """Target rows through the earlier four-step transfer pipeline.

    Fit min-max on the target rows, pin every mapped numeric to the
    original's extrema, encode at the target's width, then copy each mapped
    column into a zeroed matrix at the original's width. `encode_aligned`
    must reproduce this byte for byte without the fit or the second matrix.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateFeatureWarning)
        fitted = fit_preprocessor(table, target_schema)
    minima, maxima = fitted.minima.copy(), fitted.maxima.copy()
    target_numerics = target_schema.layout().numeric.tolist()
    for j, start in enumerate(original_state.schema.layout().numeric.tolist()):
        position = amap.source_positions[start]
        if position >= 0:
            k = target_numerics.index(position)
            minima[k], maxima[k] = original_state.minima[j], original_state.maxima[j]
    encoded = encode_dense(table, PreprocessorState(target_schema, minima, maxima)).x
    out = np.zeros((len(table), amap.width))
    for i, position in enumerate(amap.source_positions):
        if position >= 0:
            out[:, i] = encoded[:, position]
    return DenseDataset(out, table.labels.copy(), target_schema.class_names)


def filter_classes(dataset: DenseDataset, keep: list[str]) -> DenseDataset:
    """The copying multiclass restriction: drop rows outside `keep`, relabel in its order.

    Unlabeled rows are dropped too.
    """
    keep = list(keep)
    if len(set(keep)) != len(keep):
        raise UnknownClassError("duplicate class names in keep list")
    for name in keep:
        if name not in dataset.class_names:
            raise UnknownClassError(f"class {name!r} not among {dataset.class_names}")
    old_indices = [dataset.class_names.index(name) for name in keep]
    lookup = np.zeros(len(dataset.class_names), dtype=np.int64)
    lookup[old_indices] = np.arange(len(keep))
    rows = np.flatnonzero(np.isin(dataset.labels, old_indices))
    return DenseDataset(dataset.x[rows], lookup[dataset.labels[rows]], tuple(keep))


def binarize(dataset: DenseDataset, normal_class: str = "Normal") -> DenseDataset:
    """The whole-dataset binary restriction: the named class is 0, every other class 1."""
    if normal_class not in dataset.class_names:
        raise UnknownClassError(f"class {normal_class!r} not among {dataset.class_names}")
    normal_idx = dataset.class_names.index(normal_class)
    labels = np.where(dataset.labels == UNLABELED, UNLABELED,
                      np.where(dataset.labels == normal_idx, 0, 1)).astype(np.int64)
    return DenseDataset(dataset.x, labels, (normal_class, "attack"))


def member_mask_view(x: np.ndarray, ratio: float, rng: np.random.Generator,
                     groups) -> np.ndarray:
    """A batch with whole blocks masked through a blocks-by-width member matrix.

    Each row draws one key per (start, stop) block and hits its k smallest,
    k = round(ratio * blocks); the product of the hits with the 0/1 member
    matrix marks every position of a hit block.
    """
    view = np.array(x, dtype=np.float64)
    k = int(round(ratio * len(groups)))
    if k > 0:
        keys = rng.random((view.shape[0], len(groups)))
        hit = np.zeros(keys.shape, dtype=bool)
        for row, order in enumerate(np.argpartition(keys, k - 1, axis=1)):
            hit[row, order[:k]] = True
        member = np.zeros((len(groups), view.shape[1]))
        for g, (start, stop) in enumerate(groups):
            member[g, start:stop] = 1.0
        view[hit @ member > 0.0] = 0.0
    return view
