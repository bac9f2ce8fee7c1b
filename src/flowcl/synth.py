"""Synthetic two-class flow records for end-to-end pipeline checks.

Numeric-only blobs in the unit box: class "normal" fills [0.2, 0.4] per
feature, class "attack" fills [0.6, 0.8], leaving a 0.2 margin. Wide enough
separation that any sound pipeline classifies it, small enough to run in
seconds.
"""

from __future__ import annotations

import csv
from collections import namedtuple

from .dataio import DatasetSchema, Feature
from .errors import ConfigError
from .seeding import substream

__all__ = ["Record", "blob_schema", "generate_blobs", "subset_schema", "write_csv"]

_CENTERS = (0.3, 0.7)
_NOISE = 0.1


Record = namedtuple("Record", ["values", "label"])  # values in schema order; label or None


def blob_schema(n_features: int = 16) -> DatasetSchema:
    if n_features < 1:
        raise ConfigError(f"need at least one feature, got {n_features}")
    features = tuple(Feature(f"f{i:02d}", "numeric") for i in range(n_features))
    return DatasetSchema(features, label_column="label",
                         class_names=("normal", "attack"),
                         description="synthetic two-blob benchmark")


def generate_blobs(schema: DatasetSchema, n_per_class: int, seed: int) -> list[Record]:
    """n_per_class records of each class, uniform noise around the centers."""
    if n_per_class < 1:
        raise ConfigError(f"n_per_class must be positive, got {n_per_class}")
    rng = substream(seed, "synth-blobs")
    width = len(schema.features)
    records = []
    for class_idx, name in enumerate(schema.class_names):
        center = _CENTERS[class_idx % 2]
        noise = rng.uniform(-_NOISE, _NOISE, size=(n_per_class, width))
        for row in noise:
            records.append(Record(tuple(float(center + v) for v in row), name))
    return records


def subset_schema(schema: DatasetSchema, keep_names) -> DatasetSchema:
    """A copy of the schema restricted to the named features (for transfer targets)."""
    wanted = {str(n).lower() for n in keep_names}
    kept = tuple(f for f in schema.features if f.name.lower() in wanted)
    if len(kept) != len(wanted):
        have = {f.name.lower() for f in schema.features}
        raise ConfigError(f"unknown feature names: {sorted(wanted - have)}")
    return DatasetSchema(kept, schema.label_column, schema.class_names,
                         description=schema.description,
                         label_aliases=schema.label_aliases)


def write_csv(path: str, schema: DatasetSchema, records: list[Record]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f.name for f in schema.features] + [schema.label_column])
        for rec in records:
            writer.writerow([repr(v) if isinstance(v, float) else v
                             for v in rec.values] + [rec.label or ""])
