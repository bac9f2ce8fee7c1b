"""Walk through schema-driven CSV preprocessing.

Builds a tiny schema by hand, writes a few flow records, and shows what
parsing, fitting and encoding do: the parsed table of numerics and
category codes, min-max scaling of numerics, one-hot expansion of
categoricals, missing-value masking, and how unseen categories are
counted instead of crashing.

Run: python3 demos/01_preprocessing.py
"""

import os
import tempfile
import warnings

import numpy as np

from flowcl.dataio import (
    DatasetSchema,
    Feature,
    encode_dataset,
    fit_preprocessor,
    load_csv,
)

schema = DatasetSchema(
    features=(
        Feature("dur", "numeric"),
        Feature("proto", "categorical", vocabulary=("tcp", "udp", "icmp")),
        Feature("sbytes", "numeric"),
    ),
    label_column="attack_cat",
    class_names=("Normal", "Exploits"),
    description="demo flow records",
)
print(f"schema encodes to width {schema.encoded_width}")
print("  layout:", [(f.name, f.kind) for f in schema.features])

csv_text = """dur,proto,sbytes,attack_cat
0.5,tcp,1000,Normal
1.5,udp,3000,Exploits
2.5,tcp,2000,Normal
1.0,-,1500,Exploits
0.8,gre,1200,Normal
"""
# Unseen categories ("gre") and the missing marker ("-") both get code -1,
# an all-zero one-hot block; only the unseen ones are counted.
unseen = {}
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "flows.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(csv_text)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        table = load_csv(path, schema, unseen)
print(f"\nloaded {len(table)} rows")
print("  numerics:", table.numeric.tolist())
print("  proto codes:", table.codes[:, 0].tolist())
print("  label codes:", table.labels.tolist())
print("unseen category counts:", unseen)

state = fit_preprocessor(table, schema)
for feat, lo, hi in zip((f for f in schema.features if f.kind == "numeric"),
                        state.minima, state.maxima):
    print(f"  {feat.name}: min={lo} max={hi}")

dataset = encode_dataset(table, state)
print("\nencoded table: scaled numerics; the codes and labels stay as parsed")
print("  numerics:", np.round(dataset.numeric, 3).tolist())

# The encoder reads dense one-hot rows; they are built only for the rows a
# batch or a scoring chunk needs, here all five.
rows = dataset.dense(np.arange(len(dataset)))
print("\ndense rows (rows are records):")
print(np.round(rows, 3))

print(f"\n{len(dataset)} samples x {dataset.layout.width} dims,"
      f" class counts {dataset.class_counts()}")
print("every encoded value sits in [0,1]:", bool(np.all((rows >= 0) & (rows <= 1))))
