"""Deterministic derivation of named RNG sub-streams from one root seed.

Every source of randomness in a run (weight init, shuffling, masking,
subsampling, splits) pulls from `substream(root_seed, *labels)` with its own
label path, so stages are independently reproducible and never share draws.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _label_word(label: object) -> int:
    """Map one label to a stable 32-bit word (independent of PYTHONHASHSEED)."""
    if isinstance(label, (int, np.integer)) and not isinstance(label, bool):
        return int(label) & 0xFFFFFFFF
    if isinstance(label, str):
        digest = hashlib.sha256(label.encode("utf-8")).digest()
        return int.from_bytes(digest[:4], "little")
    raise TypeError(f"stream labels must be ints or strings, got {label!r}")


def substream(root_seed: int, *labels: object) -> np.random.Generator:
    """Independent generator for the stream named by `labels`.

    Identical (root_seed, labels) always yields an identical draw sequence;
    distinct label paths yield statistically independent streams.
    """
    entropy = [int(root_seed) & 0xFFFFFFFFFFFFFFFF] + [_label_word(label) for label in labels]
    return np.random.default_rng(np.random.SeedSequence(entropy))
