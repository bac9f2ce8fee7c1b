"""Cross-schema reuse of a frozen encoder.

The encoder expects its original input layout, so target rows are rewritten
into it: shared features fill their original slots, original-only features
are masked (they encode as zeros), target-only features are never read.
Matching is by feature name and, inside one-hot blocks, by category string,
both case-insensitive; an alias table covers renames. Nothing is fitted on
the target: the rewritten rows are encoded under the ORIGINAL preprocessor
state, the scale the encoder was trained on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import DatasetSchema, FlowTable, PreprocessorState, encode_dataset
from .errors import ConfigError, InvalidShapeError, NoSharedFeaturesError

__all__ = [
    "FeatureAlignmentMap",
    "build_alignment",
    "encode_aligned",
    "parse_alias_table",
]


@dataclass(frozen=True)
class FeatureAlignmentMap:
    """For every original encoded position: a target position, or -1 (masked)."""

    source_positions: np.ndarray
    target_width: int

    def __post_init__(self):
        p = np.asarray(self.source_positions, dtype=np.int64)
        if p.ndim != 1 or p.size < 1:
            raise InvalidShapeError("source_positions must be a non-empty vector")
        if p.max() >= self.target_width or p.min() < -1:
            raise InvalidShapeError("source positions must be -1 or valid target indices")
        object.__setattr__(self, "source_positions", p)

    @property
    def width(self) -> int:
        return self.source_positions.size

    @property
    def mapped(self) -> int:
        return int(np.sum(self.source_positions >= 0))

    @property
    def masked(self) -> int:
        return self.width - self.mapped

    @property
    def omitted(self) -> int:
        p = self.source_positions  # the target positions no original position reads
        return int(np.sum(np.bincount(p[p >= 0], minlength=self.target_width) == 0))


def parse_alias_table(text: str) -> tuple[tuple[str, str], ...]:
    """Parse "original_name = target_name" lines; # starts a comment."""
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.count("=") != 1:
            raise ConfigError(f"alias line {lineno}: expected 'original = target', "
                              f"got {raw.strip()!r}")
        left, right = (part.strip() for part in line.split("="))
        if not left or not right:
            raise ConfigError(f"alias line {lineno}: empty name in {raw.strip()!r}")
        pairs.append((left, right))
    return tuple(pairs)


def build_alignment(original: DatasetSchema, target: DatasetSchema,
                    aliases: tuple[tuple[str, str], ...] = ()) -> FeatureAlignmentMap:
    """Name-match the schemas into a positional map original <- target.

    A name match of different kinds stays masked. An alias must rename an
    original feature, at most once, to a target feature of the same kind;
    any other alias raises ConfigError.
    """
    originals = {feature.name.lower(): feature for feature in original.features}
    targets = {feature.name.lower(): (feature, start)
               for feature, (start, _) in zip(target.features, target.layout().spans())}
    rename: dict[str, str] = {}
    for orig, tgt in aliases:
        source, hit = originals.get(orig.lower()), targets.get(tgt.lower())
        problem = (f"the original schema has no feature {orig!r}" if source is None
                   else f"the target schema has no feature {tgt!r}" if hit is None
                   else f"{orig!r} is already renamed" if orig.lower() in rename
                   else f"{orig!r} is {source.kind} but {tgt!r} is {hit[0].kind}"
                   if source.kind != hit[0].kind else None)
        if problem:
            raise ConfigError(f"alias '{orig} = {tgt}': {problem}")
        rename[orig.lower()] = tgt.lower()
    positions = np.full(original.encoded_width, -1, dtype=np.int64)
    for feature, (start, _) in zip(original.features, original.layout().spans()):
        wanted = rename.get(feature.name.lower(), feature.name.lower())
        hit = targets.get(wanted)
        if hit is None or hit[0].kind != feature.kind:
            continue  # stays masked
        t_feature, t_start = hit
        if feature.kind == "numeric":
            positions[start] = t_start
        else:
            t_vocab = {c.lower(): k for k, c in enumerate(t_feature.vocabulary)}
            for k, category in enumerate(feature.vocabulary):
                t_k = t_vocab.get(category.lower())
                if t_k is not None:
                    positions[start + k] = t_start + t_k
    amap = FeatureAlignmentMap(positions, target.encoded_width)
    if amap.mapped == 0:
        raise NoSharedFeaturesError(
            f"schemas share no features; transfer from {len(original.features)} "
            f"original to {len(target.features)} target features is meaningless")
    return amap


def encode_aligned(table: FlowTable, target_schema: DatasetSchema,
                   original_state: PreprocessorState,
                   amap: FeatureAlignmentMap) -> FlowTable:
    """Parsed target rows as encoded rows of the original layout, under `original_state`.

    A masked numeric reads the original minimum, so it encodes as +0.0. A
    category without a counterpart, the code -1 and a masked block encode as
    all zeros. Labels and class names stay the target's.
    """
    original = original_state.schema
    if (amap.width, amap.target_width) != (original.encoded_width, target_schema.encoded_width):
        raise InvalidShapeError("the alignment was not built for these two schemas")
    positions = amap.source_positions
    source, target = original.layout(), target_schema.layout()
    numeric = np.repeat(original_state.minima[None], len(table), axis=0)
    mapped = positions[source.numeric]  # each original numeric's target position, or -1
    numeric[:, mapped >= 0] = table.numeric[:, np.searchsorted(target.numeric, mapped[mapped >= 0])]
    codes = np.full((len(table), source.starts.size), -1, dtype=np.int64)
    for j, (start, width) in enumerate(zip(source.starts, source.widths)):
        live = np.flatnonzero(positions[start:start + width] >= 0)
        if live.size:  # build_alignment maps a whole block to one target block, k
            k = np.searchsorted(target.starts, positions[start + live[0]], side="right") - 1
            lookup = np.full(target.widths[k] + 1, -1, dtype=np.int64)  # [-1] serves code -1
            lookup[positions[start + live] - target.starts[k]] = live
            codes[:, j] = lookup[table.codes[:, k]]
    return encode_dataset(FlowTable(numeric, codes, table.labels, target_schema.class_names,
                                    source), original_state)
