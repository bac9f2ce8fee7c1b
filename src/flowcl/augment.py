"""Random-masking augmentation.

A view is the encoded sample with a fixed number of positions zeroed:
k = round(ratio * width), chosen uniformly without replacement. Two
independent views of one sample form a positive pair for the contrastive
objective. Masking happens after encoding, so a masked position may be a
single one-hot bit or a scaled numeric; given feature blocks, whole blocks
are masked instead of individual positions. Masking has no seed of its own:
the caller passes the rng (pretraining's is keyed by the run seed, epoch
and sample).
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
    """Return a copy of ``x`` with k = round(ratio*width) positions zeroed.

    Positions are drawn uniformly without replacement; a position that is
    already zero still counts as masked when selected. With ``groups``
    given as (start, stop) spans, round(ratio * n_groups) whole spans are
    zeroed instead.
    """
    view = np.array(x, dtype=np.float64, copy=True)
    if view.ndim != 1 or view.size < 1:
        raise ConfigError(f"expected a 1-D sample of width >= 1, got shape {view.shape}")
    if groups is not None:
        k = mask_count(config.ratio, len(groups))
        if k > 0:
            chosen = rng.choice(len(groups), size=k, replace=False)
            for g in chosen:
                start, stop = groups[g]
                view[start:stop] = 0.0
        return view
    k = mask_count(config.ratio, view.size)
    if k > 0:
        positions = rng.choice(view.size, size=k, replace=False)
        view[positions] = 0.0
    return view


def augment_pair(x, config: MaskingConfig, rng: np.random.Generator,
                 groups: Sequence[tuple[int, int]] | None = None) -> ViewPair:
    """Two independently masked views of the same sample.

    Both draws come from the one stream passed in, so a pair is reproducible
    from (seed, epoch, sample index) and the views are independent of each
    other. They may coincide by chance.
    """
    return ViewPair(mask_view(x, config, rng, groups), mask_view(x, config, rng, groups))
