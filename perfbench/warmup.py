"""Set-up child: optional frozen-encoder fixture, then a short warm-up.

Usage: python3 perfbench/warmup.py ARCH_JSON WIDTH ROWS SEED [ENCODER_OUT]

ARCH_JSON is a preset name ("smaller-pack") or a JSON file with `layers`
and `context_dim`, as `flowcl pretrain --config` takes them. With
ENCODER_OUT, the freshly initialised encoder is saved there before anything
trains it. The warm-up then runs one contrastive epoch over ROWS random rows
(batch 32) and one eval-mode forward over them, at the workload's shapes, so
that imports, bytecode and BLAS are warm before the timed passes start.
"""

import json
import sys

import numpy as np

from flowcl.model import (
    EncoderConfig,
    build_encoder,
    config_from_dict,
    preset_config,
    save_encoder,
)
from flowcl.sscl import ContrastiveConfig, pretrain, representation_features


def encoder_config(arch: str, width: int) -> EncoderConfig:
    if not arch.endswith(".json"):
        return preset_config(arch, width)
    with open(arch, encoding="utf-8") as fh:
        doc = json.load(fh)
    return config_from_dict({"layers": doc["layers"], "input_width": width,
                             "context_dim": doc["context_dim"], "preset": "custom"})


def main() -> int:
    arch, width, rows, seed = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])
    encoder, projector = build_encoder(encoder_config(arch, width), seed)
    if len(sys.argv) > 5:
        save_encoder(sys.argv[5], encoder, projector)
    x = np.random.default_rng(seed).random((rows, width))
    pretrain(encoder, projector, x, ContrastiveConfig(batch_size=32, epochs=1))
    representation_features(encoder, projector, x, "hidden")
    return 0


if __name__ == "__main__":
    sys.exit(main())
