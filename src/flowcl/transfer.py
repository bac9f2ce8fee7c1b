"""Cross-schema reuse of a frozen encoder.

The encoder expects its original input layout. A target dataset with a
different schema is adapted position by position: features both schemas
share are copied into their original slots, original-only positions are
zeroed (the encoder sees them masked), and target-only features are simply
never read. Matching is by feature name and, inside one-hot blocks, by
category string, both case-insensitive; an alias table covers renames.

Shared numeric features are rescaled with the ORIGINAL dataset's min/max,
because that is the scale the encoder was trained on. Refitting on the
target would silently shift every shared feature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import DatasetSchema, EncodedDataset, ParsedTable, PreprocessorState, fit_preprocessor
from .errors import ConfigError, InvalidShapeError, NoSharedFeaturesError
from .model import EncoderBlock, ProjectionHead
from .sscl import HeadConfig, HeadStageResult, run_head_stage

__all__ = [
    "FeatureAlignmentMap",
    "align_matrix",
    "build_alignment",
    "fit_transfer_preprocessor",
    "parse_alias_table",
    "transfer_evaluate",
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
        return self.target_width - self.mapped


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
    """Name-match the schemas into a positional map original <- target."""
    rename = {orig.lower(): tgt.lower() for orig, tgt in aliases}
    targets = {feature.name.lower(): (feature, start)
               for feature, start, _ in target.block_spans()}
    positions = np.full(original.encoded_width, -1, dtype=np.int64)
    for feature, start, stop in original.block_spans():
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


def align_matrix(x, amap: FeatureAlignmentMap) -> np.ndarray:
    """Rearrange target rows into the original layout; one row is x[None]."""
    xd = np.asarray(x, dtype=np.float64)
    if xd.ndim != 2 or xd.shape[1] != amap.target_width:
        raise InvalidShapeError(
            f"expected [rows, {amap.target_width}] target data, got {xd.shape}")
    out = np.zeros((xd.shape[0], amap.width))
    live = amap.source_positions >= 0
    out[:, live] = xd[:, amap.source_positions[live]]
    return out


def fit_transfer_preprocessor(original_state: PreprocessorState,
                              target_table: ParsedTable,
                              target_schema: DatasetSchema,
                              amap: FeatureAlignmentMap) -> PreprocessorState:
    """Fit on the target, then pin each numeric `amap` maps to its original scale."""
    state = fit_preprocessor(target_table, target_schema)
    # Target position of each original numeric; build_alignment maps numerics to numerics.
    positions = amap.source_positions[original_state.schema.starts("numeric")]
    mapped = positions >= 0
    target = np.searchsorted(target_schema.starts("numeric"), positions[mapped])
    minima, maxima = state.minima.copy(), state.maxima.copy()
    minima[target] = original_state.minima[mapped]
    maxima[target] = original_state.maxima[mapped]
    return PreprocessorState(target_schema, minima, maxima)


def transfer_evaluate(encoder: EncoderBlock, projector: ProjectionHead,
                      amap: FeatureAlignmentMap, target: EncodedDataset,
                      config: HeadConfig) -> HeadStageResult:
    """Align the target data, then run the standard supervised head stage.

    With an identity alignment this collapses to the plain pipeline: the
    aligned matrix is equal to the input, and every random draw downstream
    depends only on the head config, so the metrics agree exactly.
    """
    aligned = EncodedDataset(align_matrix(target.x, amap), target.labels.copy(),
                             target.class_names)
    return run_head_stage(encoder, projector, aligned, config)
