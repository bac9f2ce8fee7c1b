"""Cross-dataset transfer with feature-schema alignment.

Pretrains on an "original" dataset, then evaluates the frozen encoder
on a "target" dataset that dropped some features and renamed another.
Shared features are matched by name (plus an alias table), missing
ones are masked to zero, extra target features are omitted. The target
rows are encoded once, straight into the encoder's layout, on the
original dataset's scale.

Run: python3 demos/04_transfer.py  (takes ~15 seconds)
"""

import os
import tempfile

from flowcl.dataio import (
    DatasetSchema,
    Feature,
    encode_dataset,
    fit_preprocessor,
    load_csv,
    task_rows,
)
from flowcl.model import Conv, EncoderConfig, MaxPool, build_encoder
from flowcl.sscl import ContrastiveConfig, HeadConfig, pretrain, run_head_stage
from flowcl.synth import blob_schema, generate_blobs, subset_schema, write_csv
from flowcl.transfer import build_alignment, encode_aligned, parse_alias_table


def parsed(schema, records):
    """Records written with write_csv and read back with load_csv, as the CLI reads them."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rows.csv")
        write_csv(path, schema, records)
        return load_csv(path, schema)


original = blob_schema(16)
records = generate_blobs(original, n_per_class=400, seed=33)
table = parsed(original, records)
state = fit_preprocessor(table, original)
dataset = encode_dataset(table, state)

encoder, projector = build_encoder(
    EncoderConfig((Conv(16), MaxPool(2), Conv(32), MaxPool(2), Conv(64)),
                  input_width=original.encoded_width, context_dim=32),
    seed=0,
)
pretrain(encoder, projector, dataset.x,
         ContrastiveConfig(batch_size=32, epochs=12, seed=0))
head = HeadConfig(epochs=80, seed=5)


def head_stage(ds):
    """Fit and score a head on every class of an encoded dataset."""
    task = task_rows(ds.labels, ds.class_names, "multiclass")
    return run_head_stage(encoder, projector, ds.x, task, head)


baseline = head_stage(dataset)
print(f"original-domain accuracy: {baseline.report.accuracy:.4f}\n")

# Target dataset: loses f13..f15, and f00 goes by "duration" there.
keep = [f.name for f in original.features][:13]
subset = subset_schema(original, keep)
target = DatasetSchema(
    features=(Feature("duration", "numeric"),) + subset.features[1:],
    label_column=subset.label_column,
    class_names=subset.class_names,
    description="renamed-and-reduced target",
)
index = {f.name: i for i, f in enumerate(original.features)}
target_table = parsed(target, [type(r)(tuple(r.values[index[n]] for n in keep), r.label)
                               for r in records])

aliases = parse_alias_table("# original = target\nf00 = duration\n")
amap = build_alignment(original, target, aliases)
print(f"alignment: {amap.mapped} mapped, {amap.masked} masked,"
      f" {amap.omitted} omitted (of target width {amap.target_width})")

result = head_stage(encode_aligned(target_table, target, state, amap))
print(f"transfer accuracy with 3/16 features missing: {result.report.accuracy:.4f}")
print("  per-class recall: "
      + ", ".join(f"{n}={m.recall:.3f}"
                  for n, m in zip(result.class_names, result.report.per_class)))
print("\nwithout the alias line, f00 would have no match and stay masked too")
