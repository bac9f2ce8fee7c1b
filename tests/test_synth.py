"""Synthetic blob generator: margins, determinism, CSV round-trip."""

import numpy as np
import pytest

from flowcl.errors import ConfigError
from flowcl.synth import blob_schema, generate_blobs, subset_schema, write_csv
from flowcl.dataio import load_csv


def test_classes_keep_a_clear_margin():
    schema = blob_schema(8)
    records = generate_blobs(schema, 200, seed=1)
    values = {name: [] for name in schema.class_names}
    for r in records:
        values[r.label].extend(r.values)
    normal = np.array(values["normal"])
    attack = np.array(values["attack"])
    assert normal.max() <= 0.4 + 1e-12
    assert attack.min() >= 0.6 - 1e-12
    # the 0.2 gap is the whole point of the benchmark
    assert attack.min() - normal.max() > 0.19


def test_counts_and_determinism():
    schema = blob_schema(4)
    a = generate_blobs(schema, 50, seed=9)
    b = generate_blobs(schema, 50, seed=9)
    c = generate_blobs(schema, 50, seed=10)
    assert len(a) == 100 and a == b
    assert a != c


def test_csv_roundtrip_is_exact(tmp_path):
    schema = blob_schema(3)
    records = generate_blobs(schema, 5, seed=2)
    path = tmp_path / "blobs.csv"
    write_csv(str(path), schema, records)
    table = load_csv(str(path), schema)  # repr() serialization
    assert table.numeric.tobytes() == np.array([r.values for r in records]).tobytes()
    assert table.labels.tolist() == [schema.class_index(r.label) for r in records]


def test_subset_schema_keeps_order_and_rejects_unknown():
    schema = blob_schema(5)
    sub = subset_schema(schema, ["f03", "f01"])
    assert [f.name for f in sub.features] == ["f01", "f03"]
    with pytest.raises(ConfigError):
        subset_schema(schema, ["nope"])


def test_invalid_sizes_rejected():
    with pytest.raises(ConfigError):
        blob_schema(0)
    with pytest.raises(ConfigError):
        generate_blobs(blob_schema(2), 0, seed=0)
