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
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigError

__all__ = ["MaskingConfig", "ViewPair", "mask_count", "mask_view", "augment_pair"]


@dataclass(frozen=True)
class MaskingConfig:
    """The share of positions (or feature blocks) each view masks."""

    ratio: float = 0.3

    def __post_init__(self):
        if not (isinstance(self.ratio, (int, float)) and 0.0 <= self.ratio <= 1.0):
            raise ConfigError(f"masking ratio must lie in [0, 1], got {self.ratio!r}")


class ViewPair(NamedTuple):
    x_i: np.ndarray
    x_j: np.ndarray


def mask_count(ratio: float, width: int) -> int:
    return int(round(ratio * width))


def mask_view(x, config: MaskingConfig, rng: np.random.Generator,
              groups: Sequence[tuple[int, int]] | None = None) -> np.ndarray:
    """Return a copy of a sample (width,) or a batch (batch, width) with k =
    round(ratio * width) positions zeroed in every row.

    Each row zeroes the positions of its k smallest uniform keys, so every
    k-subset is equally likely; a position already zero still counts as
    masked. With ``groups`` given as (start, stop) spans, each row draws one
    key per span and round(ratio * n_groups) whole spans are zeroed instead.
    """
    view = np.array(x, dtype=np.float64, copy=True)
    if view.ndim not in (1, 2) or view.shape[-1] < 1:
        raise ConfigError(f"expected a sample (width,) or a batch (batch, width) of "
                          f"width >= 1, got shape {view.shape}")
    rows = view.reshape(-1, view.shape[-1])
    n_keys = rows.shape[1] if groups is None else len(groups)
    k = mask_count(config.ratio, n_keys)
    if k > 0:
        keys = rng.random((rows.shape[0], n_keys))
        hit = np.zeros(keys.shape, dtype=bool)
        np.put_along_axis(hit, np.argpartition(keys, k - 1, axis=1)[:, :k], True, axis=1)
        if groups is not None:
            member = np.zeros((n_keys, rows.shape[1]))
            for g, (start, stop) in enumerate(groups):
                member[g, start:stop] = 1.0
            hit = hit @ member > 0.0
        rows[hit] = 0.0
    return view


def augment_pair(x, config: MaskingConfig, rng: np.random.Generator,
                 groups: Sequence[tuple[int, int]] | None = None) -> ViewPair:
    """Two independently masked views of the same sample or batch.

    Both draws come from the one stream passed in, so a pair is reproducible
    from the stream's key and the views are independent of each other. They
    may coincide by chance.
    """
    return ViewPair(mask_view(x, config, rng, groups), mask_view(x, config, rng, groups))
