"""Contrastive objective and the two training loops.

Pretraining follows the usual two-view recipe: every sample in a batch of N
is masked twice, the 2N views go through the encoder e and projection g, and
the normalized-temperature cross entropy pulls each view toward its partner
against the other 2N-2 views. Views are laid out interleaved, so views
2k and 2k+1 (0-based) are the positive pair of sample k.

For one view i with partner p(i), writing s_ij for the cosine similarity of
latent vectors i and j:

    l_i = -log( exp(s_{i,p(i)}/tau) / sum_{k != i} exp(s_ik/tau) )

and the batch loss averages l_i over all 2N views. The denominator excludes
only k = i; nothing else is filtered out.

Head training fits a single affine classifier on frozen-encoder features
(hidden h by default, projected z on request). The encoder is never touched:
features are computed once in eval mode and only the head's two tensors see
the optimizer.

Every entry point takes rows as a `FlowTable` or a dense matrix, and reads
them through `FlowTable.dense` one batch or one scoring chunk at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import numgrad as ng
from .augment import MaskingConfig, augment_pair
from .dataio import TaskRows, as_table, random_split, stratified_split, stratified_subsample
from .errors import (
    ConfigError,
    DegenerateVectorError,
    InsufficientDataError,
    InvalidBatchError,
    InvalidLabelError,
    InvalidShapeError,
    MissingLabelError,
    check_finite,
)
from .metrics import MetricsReport, confusion, metrics
from .model import (
    ClassificationHead,
    EncoderBlock,
    ProjectionHead,
    build_classification_head,
    encode,
    project,
)
from .numgrad import AdamW, Tape, Tensor, backward
from .seeding import substream

__all__ = [
    "REPRESENTATIONS",
    "ContrastiveConfig",
    "HeadConfig",
    "HeadStageResult",
    "batch_loss",
    "evaluate_head",
    "head_split",
    "holdout_loss",
    "predict",
    "pretrain",
    "representation_features",
    "run_head_stage",
    "train_head",
]


def _check_loop(config) -> None:
    """The checks both configs share: loop sizes, and finite AdamW rates (NaN fails too)."""
    if not isinstance(config.batch_size, int) or config.batch_size < 1:
        raise ConfigError(f"batch_size must be a positive int, got {config.batch_size!r}")
    if not isinstance(config.epochs, int) or config.epochs < 0:
        raise ConfigError(f"epochs must be a non-negative int, got {config.epochs!r}")
    check_finite(config.lr, "lr")
    check_finite(config.weight_decay, "weight_decay", zero_ok=True)


@dataclass(frozen=True)
class ContrastiveConfig:
    """Knobs of the pretraining loop; defaults follow the reference setup."""

    batch_size: int = 32
    temperature: float = 0.5
    epochs: int = 100
    masking: MaskingConfig = field(default_factory=MaskingConfig)
    lr: float = 2e-4
    lr_gamma: float = 0.99
    weight_decay: float = 0.01
    seed: int = 0
    holdout_fraction: float = 0.0

    def __post_init__(self):
        _check_loop(self)
        check_finite(self.temperature, "temperature")
        if not isinstance(self.masking, MaskingConfig):
            raise ConfigError("masking must be a MaskingConfig")
        if not 0 < self.lr_gamma <= 1:
            raise ConfigError(f"lr_gamma must lie in (0, 1], got {self.lr_gamma}")
        if not 0.0 <= self.holdout_fraction < 1.0:
            raise ConfigError(f"holdout_fraction must lie in [0, 1), got {self.holdout_fraction}")


def batch_loss(z: Tensor, temperature: float) -> Tensor:
    """Differentiable batch objective over interleaved positive pairs.

    One fused op: the forward pass normalizes rows, builds the similarity
    matrix, and averages the per-view losses; the backward rule pushes the
    softmax-minus-target gradient back through the normalization in closed
    form rather than taping every intermediate.
    """
    zt = ng.as_tensor(z)
    zd = zt.data
    if zd.ndim != 2:
        raise InvalidShapeError(f"expected [views, dim] latents, got shape {zd.shape}")
    n = zd.shape[0]
    if n < 2 or n % 2:
        raise InvalidBatchError(f"need an even number >= 2 of views, got {n}")
    if not temperature > 0:
        raise ConfigError(f"temperature must be > 0, got {temperature!r}")
    norms = np.linalg.norm(zd, axis=1)
    if np.any(norms == 0.0):
        bad = int(np.flatnonzero(norms == 0.0)[0])
        raise DegenerateVectorError(f"latent vector {bad} has zero norm; "
                                    "cosine similarity is undefined")
    unit = zd / norms[:, None]
    sim = unit @ unit.T
    scaled = sim / temperature
    np.fill_diagonal(scaled, -np.inf)
    peak = scaled.max(axis=1, keepdims=True)
    expd = np.exp(scaled - peak)
    row_sum = expd.sum(axis=1, keepdims=True)
    lse = (peak + np.log(row_sum)).ravel()
    partner = np.arange(n) ^ 1  # 0<->1, 2<->3, ...
    losses = lse - sim[np.arange(n), partner] / temperature
    out = Tensor(np.array(losses.mean()))

    def rule(g):
        softmax = expd / row_sum
        grad_sim = softmax.copy()
        grad_sim[np.arange(n), partner] -= 1.0
        grad_sim *= float(g) / (n * temperature)
        grad_unit = (grad_sim + grad_sim.T) @ unit
        # Through row normalization: remove the radial component, scale by 1/r.
        radial = np.sum(grad_unit * unit, axis=1, keepdims=True)
        return ((grad_unit - radial * unit) / norms[:, None],)

    return ng.record_op(out, [zt], rule)


def _paired_views(batch: np.ndarray, config: ContrastiveConfig, stream_label: str,
                  epoch: int, start: int, groups) -> np.ndarray:
    """Both views of every row, interleaved; one stream per batch, keyed by its offset."""
    rng = substream(config.seed, stream_label, epoch, start)
    return augment_pair(batch, config.masking, rng, groups)


def holdout_loss(encoder: EncoderBlock, projector: ProjectionHead, x,
                 config: ContrastiveConfig, epoch: int,
                 groups: Sequence[tuple[int, int]] | None = None,
                 held: np.ndarray | None = None) -> float | None:
    """Contrastive loss on held-out samples, eval-mode forward, no learning.

    The held-out samples are x's rows at `held` (default: every row), built
    dense a batch at a time. Augmentation draws come from the
    "holdout-augment" stream of `config.seed`, one per batch, keyed by (epoch,
    batch offset in the holdout rows), so the number reported for an epoch is
    reproducible. Returns None when fewer than 2 held-out samples exist.
    """
    table = as_table(x)
    held = np.arange(len(table)) if held is None else held
    total = 0.0
    weight = 0
    for start in range(0, held.size, config.batch_size):
        batch = table.dense(held[start:start + config.batch_size])
        if batch.shape[0] < 2:
            break
        views = _paired_views(batch, config, "holdout-augment", epoch, start, groups)
        latents = representation_features(encoder, projector, views, "context")
        loss = batch_loss(Tensor(latents), config.temperature)
        total += float(loss.data) * batch.shape[0]
        weight += batch.shape[0]
    return total / weight if weight else None


def pretrain(encoder: EncoderBlock, projector: ProjectionHead, x,
             config: ContrastiveConfig,
             groups: Sequence[tuple[int, int]] | None = None) -> list[dict]:
    """Run the self-supervised loop in place; return the loss history.

    `random_split` under the seed holds out `holdout_fraction` of x's rows;
    both sides stay row indices and each batch is built dense from x. Every
    epoch reshuffles the training rows from its own seed substream, the
    trailing partial batch is dropped, and each batch's views come from one
    rng stream keyed by (seed, epoch, batch offset in the epoch order), so the
    whole trajectory is a pure function of (parameters, data, config). The
    learning rate decays as lr * lr_gamma ** epoch. With 2 or more held-out
    rows, each history entry also carries their `holdout_loss`.
    """
    table = as_table(x)
    rows, held = random_split(len(table), 1.0 - config.holdout_fraction, config.seed)
    n = rows.size
    if n < config.batch_size:
        raise InsufficientDataError(
            f"{n} training samples cannot fill one batch of {config.batch_size}")
    params = list(encoder.parameters()) + list(projector.parameters())
    opt = AdamW(params, lr=config.lr, weight_decay=config.weight_decay)
    history = []
    for epoch in range(config.epochs):
        opt.lr = config.lr * config.lr_gamma**epoch
        order = rows[substream(config.seed, "pretrain-shuffle", epoch).permutation(n)]
        epoch_losses = []
        for start in range(0, n - config.batch_size + 1, config.batch_size):
            batch = table.dense(order[start:start + config.batch_size])
            views = _paired_views(batch, config, "augment", epoch, start, groups)
            with Tape() as tape:
                h = encode(encoder, views, training=True)
                z = project(projector, h)
                loss = batch_loss(z, config.temperature)
            backward(loss, tape)
            opt.step()
            opt.zero_grad()
            epoch_losses.append(float(loss.data))
        entry = {"epoch": epoch, "loss": float(np.mean(epoch_losses)), "lr": opt.lr}
        if held.size >= 2:
            entry["holdout_loss"] = holdout_loss(encoder, projector, table, config, epoch,
                                                 groups, held)
        history.append(entry)
    return history


# The features a head stage can read: the encoder's h, or z = g(h).
REPRESENTATIONS = ("hidden", "context")


def _check_representation(representation) -> None:
    if representation not in REPRESENTATIONS:
        raise ConfigError(f"representation must be {' or '.join(map(repr, REPRESENTATIONS))}, "
                          f"got {representation!r}")


@dataclass(frozen=True)
class HeadConfig:
    """Supervised head stage: a linear probe on frozen features."""

    representation: str = "hidden"
    epochs: int = 200
    batch_size: int = 32
    lr: float = 0.01
    weight_decay: float = 0.01
    seed: int = 0
    split_fraction: float = 0.8
    label_fraction: float = 1.0

    def __post_init__(self):
        _check_representation(self.representation)
        _check_loop(self)
        if not 0.0 < self.split_fraction < 1.0:
            raise ConfigError(f"split_fraction must lie in (0, 1), got {self.split_fraction!r}")
        if not 0.0 < self.label_fraction <= 1.0:
            raise ConfigError(f"label_fraction must lie in (0, 1], got {self.label_fraction!r}")


FEATURE_CHUNK_ROWS = 64


def _feature_chunks(encoder: EncoderBlock, projector: ProjectionHead, x, representation: str):
    """Yield (start, eval-mode features) of x's rows, FEATURE_CHUNK_ROWS at a time.

    The module's one eval-mode forward loop; each chunk's rows are built dense
    only for it. Eval-mode batch norm reads the running statistics, so each
    row's features equal, bit for bit, those of a single-batch pass. An empty
    input still makes one encode call, which rejects it.
    """
    _check_representation(representation)
    table = as_table(x)
    for start in range(0, max(len(table), 1), FEATURE_CHUNK_ROWS):
        h = encode(encoder, table.dense(slice(start, start + FEATURE_CHUNK_ROWS)),
                   training=False)
        yield start, (h if representation == "hidden" else project(projector, h)).data


def representation_features(encoder: EncoderBlock, projector: ProjectionHead,
                            x, representation: str) -> np.ndarray:
    """Frozen eval-mode features: h, or z = g(h) when representation is context."""
    width = encoder.hidden_dim if representation == "hidden" else projector.context_dim
    features = np.empty((len(x), width))
    for start, chunk in _feature_chunks(encoder, projector, x, representation):
        features[start:start + len(chunk)] = chunk
    return features


def train_head(encoder: EncoderBlock, projector: ProjectionHead, x, labels,
               n_classes: int, config: HeadConfig) -> ClassificationHead:
    """Fit a classification head on frozen features; the encoder never moves.

    Partial batches are kept: label-efficiency runs can have fewer labeled
    samples than one batch. Labels are checked once, before any step. Each
    step is `ng.softmax_regression_grads` and one AdamW update, with no tape:
    the same arithmetic as taping `softmax_cross_entropy(head.logits(x), y)`,
    so the head is bit-identical to a taped fit.
    """
    y = np.asarray(labels, dtype=np.int64).ravel()
    table = as_table(x)
    if len(table) != y.size:
        raise InvalidShapeError(f"{len(table)} samples but {y.size} labels")
    if y.size == 0:
        raise InsufficientDataError("no labeled samples to train on")
    if np.any(y < 0):
        raise MissingLabelError("head training needs a label on every sample")
    if np.any(y >= n_classes):
        raise InvalidLabelError(f"labels must lie in [0, {n_classes})")
    features = representation_features(encoder, projector, table, config.representation)
    head = build_classification_head(features.shape[1], n_classes, config.seed)
    opt = AdamW(head.parameters(), lr=config.lr, weight_decay=config.weight_decay)
    n = features.shape[0]
    for epoch in range(config.epochs):
        order = substream(config.seed, "head-shuffle", epoch).permutation(n)
        for start in range(0, n, config.batch_size):
            batch = order[start:start + config.batch_size]
            head.weight.grad, head.bias.grad = ng.softmax_regression_grads(
                features[batch], head.weight.data, head.bias.data, y[batch])
            opt.step()
    opt.zero_grad()
    return head


@dataclass(frozen=True)
class HeadStageResult:
    head: ClassificationHead
    report: "MetricsReport"
    train_count: int
    test_count: int
    class_names: tuple


def head_split(labels: np.ndarray, config: HeadConfig) -> tuple[np.ndarray, np.ndarray]:
    """Stratified sorted (train, test) row indices under the head seed.

    The train side is `split_fraction` of the rows, of which the head sees
    `label_fraction`. The test side depends only on (labels, split_fraction,
    seed), so evaluate re-derives exactly the rows a saved head never trained on.
    An empty test side fails here, before any features are computed.
    """
    train, test = stratified_split(labels, config.split_fraction, config.seed)
    if test.size == 0:
        raise InsufficientDataError(f"split_fraction {config.split_fraction} leaves no "
                                    f"held-out rows among {labels.size}")
    if config.label_fraction != 1.0:
        train = train[stratified_subsample(labels[train], config.label_fraction, config.seed)]
    return train, test


def run_head_stage(encoder: EncoderBlock, projector: ProjectionHead, x,
                   task: TaskRows, config: HeadConfig) -> HeadStageResult:
    """The supervised protocol shared by plain evaluation and transfer.

    `head_split` of the task's labels under the head seed, a head fit on the
    training side's rows and metrics on the held-out side's, each gathered
    from `x` once. The result is a pure function of (x, task, config), which
    makes an identity-aligned transfer reproduce these numbers bit for bit.
    """
    table = as_table(x)
    train_idx, test_idx = head_split(task.labels, config)
    train = task.gather(table, train_idx)
    head = train_head(encoder, projector, train, train.labels, len(task.class_names), config)
    del train
    test = task.gather(table, test_idx)
    report = evaluate_head(encoder, projector, head, test, test.labels, config.representation)
    return HeadStageResult(head, report, train_idx.size, test_idx.size, task.class_names)


def predict(encoder: EncoderBlock, projector: ProjectionHead,
            head: ClassificationHead, x, representation: str) -> np.ndarray:
    """The head's class for every row, chunk by chunk; no feature matrix is kept."""
    preds = np.empty(len(x), dtype=np.int64)
    for start, chunk in _feature_chunks(encoder, projector, x, representation):
        preds[start:start + len(chunk)] = np.argmax(head.logits(Tensor(chunk)).data, axis=1)
    return preds


def evaluate_head(encoder: EncoderBlock, projector: ProjectionHead,
                  head: ClassificationHead, x, labels,
                  representation: str) -> MetricsReport:
    y = np.asarray(labels, dtype=np.int64).ravel()
    if np.any(y < 0):
        raise MissingLabelError("evaluation needs a label on every sample")
    preds = predict(encoder, projector, head, x, representation)
    return metrics(confusion(preds, y, head.n_classes))
