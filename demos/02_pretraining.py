"""Contrastive pretraining on synthetic flows, end to end in memory.

Generates two separable blob classes, shows what the masking
augmentation does to one sample, then pretrains a small 1-D conv
encoder with the normalized temperature-scaled loss and prints the
loss curve. No labels are touched anywhere here.

Run: python3 demos/02_pretraining.py  (takes a few seconds)
"""

import os
import tempfile

import numpy as np

from flowcl.augment import MaskingConfig, augment_pair
from flowcl.model import Conv, EncoderConfig, MaxPool, build_encoder, count_parameters
from flowcl.seeding import substream
from flowcl.sscl import ContrastiveConfig, pretrain
from flowcl.synth import blob_schema, generate_blobs, write_csv
from flowcl.dataio import encode_dataset, fit_preprocessor, load_csv

schema = blob_schema(16)
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "blobs.csv")
    write_csv(path, schema, generate_blobs(schema, n_per_class=400, seed=7))
    table = load_csv(path, schema)
state = fit_preprocessor(table, schema)
dataset = encode_dataset(table, state)
print(f"{len(table)} samples, width {schema.encoded_width}, classes {schema.class_names}")

masking = MaskingConfig(ratio=0.3)
rng = substream(7, "augment", 0, 0)
batch = dataset.dense([0])  # a batch of one dense row, as pretraining builds them
# One draw masks both views of every row, interleaved: rows 2k and 2k+1 are row k's pair.
a, b = augment_pair(batch, masking, rng)
print("\none sample, two views (masked positions shown as '.'):")
for row in (batch[0], a, b):
    print("  " + " ".join("  . " if v == 0 else f"{v:.2f}" for v in row))

config = EncoderConfig(
    (Conv(16), MaxPool(2), Conv(32), MaxPool(2), Conv(64)),
    input_width=schema.encoded_width,
    context_dim=32,
)
encoder, projector = build_encoder(config, seed=0)
print(f"\nencoder+projection parameters: {count_parameters(encoder, projector)}")

# Hold out 20% of the unlabeled pool to watch generalization of the
# contrastive objective itself.
history = pretrain(
    encoder,
    projector,
    dataset,
    ContrastiveConfig(batch_size=32, temperature=0.5, epochs=8,
                      masking=masking, seed=0, holdout_fraction=0.2),
)
print(f"\npretraining on {len(dataset)} samples, 20% of them held out")
for row in history:
    print(f"  epoch {row['epoch']:2d}  loss {row['loss']:.4f}"
          f"  holdout {row['holdout_loss']:.4f}  lr {row['lr']:.2e}")

first, last = history[0]["loss"], history[-1]["loss"]
print(f"\ntraining loss moved {first:.4f} -> {last:.4f}; a random-pair batch of"
      f" 32 would sit near log(2*32-1) = {np.log(63):.4f}")
