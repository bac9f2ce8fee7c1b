"""Random-masking augmentation.

A view is the encoded sample with a fixed number of positions zeroed:
k = round(ratio * width), chosen uniformly without replacement. Two
independent views of one sample form a positive pair for the contrastive
objective. Masking happens after encoding, so a masked position may be a
single one-hot bit or a scaled numeric; given feature blocks, whole blocks
are masked instead of individual positions. A whole batch is masked in one
draw. Masking has no seed of its own: the caller passes the rng
(pretraining's is keyed by the run seed, epoch and batch offset).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataio import spans_tile
from .errors import ConfigError

__all__ = ["MaskingConfig", "mask_count", "mask_view", "augment_pair"]


@dataclass(frozen=True)
class MaskingConfig:
    """The share of positions (or feature blocks) each view masks."""

    ratio: float = 0.3

    def __post_init__(self):
        if not (isinstance(self.ratio, (int, float)) and 0.0 <= self.ratio <= 1.0):
            raise ConfigError(f"masking ratio must lie in [0, 1], got {self.ratio!r}")


def mask_count(ratio: float, width: int) -> int:
    return int(round(ratio * width))


def _masked_views(x, config: MaskingConfig, rng: np.random.Generator,
                  groups: Sequence[tuple[int, int]] | None, views: int) -> np.ndarray:
    """`views` masked copies of every row of x, interleaved: (views * rows, width).
    One draw gives every view's keys, view by view, as `views` one-view draws would."""
    rows = np.asarray(x, dtype=np.float64)
    if rows.ndim not in (1, 2) or rows.shape[-1] < 1:
        raise ConfigError(f"expected a sample or a batch of width >= 1, got shape {rows.shape}")
    rows = rows.reshape(-1, rows.shape[-1])
    if groups is not None and not spans_tile(groups, rows.shape[1]):
        raise ConfigError(f"mask blocks must tile the {rows.shape[1]} positions of a row")
    n_keys = rows.shape[1] if groups is None else len(groups)
    out = np.repeat(rows, views, axis=0)
    k = mask_count(config.ratio, n_keys)
    if k > 0:
        keys = rng.random((views, rows.shape[0], n_keys)).swapaxes(0, 1).reshape(-1, n_keys)
        hit = np.zeros(keys.shape, dtype=bool)
        hit[np.arange(len(keys))[:, None], np.argpartition(keys, k - 1, axis=1)[:, :k]] = True
        if groups is not None:
            hit = np.repeat(hit, [stop - start for start, stop in groups], axis=1)
        out[hit] = 0.0
    return out


def mask_view(x, config: MaskingConfig, rng: np.random.Generator,
              groups: Sequence[tuple[int, int]] | None = None) -> np.ndarray:
    """A copy of a sample (width,) or a batch (batch, width) with k = round(ratio * width)
    positions zeroed in every row: those of its k smallest uniform keys, so every k-subset
    is equally likely (a position already zero still counts as masked). Given (start,
    stop) ``groups`` that tile the row, a key per group zeroes round(ratio * groups) of them."""
    return _masked_views(x, config, rng, groups, 1).reshape(np.shape(x))


def augment_pair(x, config: MaskingConfig, rng: np.random.Generator,
                 groups: Sequence[tuple[int, int]] | None = None) -> np.ndarray:
    """Two independently masked views of every row, interleaved: rows 2k and 2k+1 of
    the (2 * rows, width) result are row k's pair. Both views' keys come from the one
    stream passed in, the first view's first, so the pair equals two sequential
    `mask_view` calls and is reproducible from the stream's key.
    """
    return _masked_views(x, config, rng, groups, 2)
