"""How far do frozen representations carry when labels get scarce?

Pretrains once on unlabeled synthetic data, then trains linear heads
on the frozen encoder with shrinking labeled fractions and prints the
accuracy curve. The protocol per fraction: stratified 80/20 split,
stratified subsample of the training side, head fit, evaluation on the
untouched 20%.

Run: python3 demos/03_label_efficiency.py  (takes ~half a minute)
"""

import os
import tempfile
from dataclasses import replace

from flowcl.dataio import encode_dataset, fit_preprocessor, load_csv, task_rows
from flowcl.model import Conv, EncoderConfig, MaxPool, build_encoder
from flowcl.sscl import ContrastiveConfig, HeadConfig, pretrain, run_head_stage
from flowcl.synth import blob_schema, generate_blobs, write_csv

schema = blob_schema(16)
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "blobs.csv")
    write_csv(path, schema, generate_blobs(schema, n_per_class=500, seed=21))
    table = load_csv(path, schema)
dataset = encode_dataset(table, fit_preprocessor(table, schema))

config = EncoderConfig(
    (Conv(16), MaxPool(2), Conv(32), MaxPool(2), Conv(64)),
    input_width=schema.encoded_width,
    context_dim=32,
)
encoder, projector = build_encoder(config, seed=0)
pretrain(encoder, projector, dataset,
         ContrastiveConfig(batch_size=32, epochs=15, seed=0))
print("pretrained; encoder is frozen from here on\n")
print("fraction  labeled  accuracy  f1")

task = task_rows(dataset.labels, dataset.class_names, "multiclass")
head_config = HeadConfig(representation="hidden", epochs=120, seed=3, split_fraction=0.8)
for fraction in (1.0, 0.25, 0.05, 0.01):
    result = run_head_stage(encoder, projector, dataset, task,
                            replace(head_config, label_fraction=fraction))
    print(f"  {fraction:5.0%}  {result.train_count:7d}"
          f"  {result.report.accuracy:.4f}  {result.report.f1:.4f}")

print("\nsame split and test set every time; only the labeled budget changes")
