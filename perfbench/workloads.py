"""The two benchmark workloads: inputs, CLI commands, and output checks.

A workload makes its inputs from the seed in `setup`, which also returns the
arguments of its warm-up child (see `warmup.py`), names the `flowcl`
commands of one pass in `commands`, and checks that pass's outputs in
`check`. `rates` turns one pass's command wall times (a list per command
label, in pass order) into the ingest, pretrain and score throughputs.

- desk-pipeline is the acceptance test's `_run_pipeline`: tiny tensors, so
  per-op Python cost, tape bookkeeping, per-sample RNG construction and the
  ~10k AdamW steps of head training dominate.
- unsw-pipeline runs `flowcl pretrain --arch smaller-pack` at UNSW width 196
  (GEMM-heavy conv1d and batchnorm1d forward and backward at 64 views), then
  ingests UNSW-shaped CSVs with all three categorical blocks and scores
  thousands of rows with a frozen encoder (no tape, no backward).
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

import unsw_synth

UNSW_SCHEMA = "unsw_nb15_smaller"
UNSW_WIDTH = 196

DESK_ARCH = {"layers": [["conv", 16], ["pool", 2], ["conv", 32], ["pool", 2], ["conv", 64]],
             "context_dim": 32, "epochs": 30, "batch_size": 32, "temperature": 0.5,
             "mask_ratio": 0.3, "seed": 0}
DESK_HEAD_FLAGS = ["--task", "binary", "--normal-class", "normal", "--seed", "0"]
DESK_PER_CLASS = 1000
DESK_KEEP = 13

# Warm-up rows: enough contrastive steps that compute, not interpreter
# start-up, makes up most of desk-pipeline's set-up; one step at UNSW width.
DESK_WARMUP_ROWS = 2048
UNSW_WARMUP_ROWS = 32

PRETRAIN_ROWS = 400
PRETRAIN_EPOCHS = 1
BATCH = 32
HOLDOUT = 0.2

SCORE_TRAIN_ROWS = 3000
SCORE_TEST_ROWS = 1000
SCORE_SPLIT = 0.5
SCORE_LABELS = 0.05
# A frozen random-init encoder plus a linear head must beat the majority
# class by at least this much on the synthetic label signal.
SCORE_MARGIN = 0.05


def trained_samples(rows: int, epochs: int) -> int:
    """Samples a pretrain run trains on: holdout removed, partial batch dropped."""
    train = rows - int(round(HOLDOUT * rows))
    return epochs * (train // BATCH) * BATCH


def _read(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class DeskPipeline:
    name = "desk-pipeline"

    def setup(self, work: str, seed: int, flowcl) -> list[str]:
        synth, dataio = flowcl.synth, flowcl.dataio
        schema = synth.blob_schema(16)
        dataio.save_schema(os.path.join(work, "blobs.json"), schema)
        records = synth.generate_blobs(schema, DESK_PER_CLASS, seed=seed)
        synth.write_csv(os.path.join(work, "blobs.csv"), schema, records)
        keep = [f.name for f in schema.features][:DESK_KEEP]
        target = synth.subset_schema(schema, keep)
        dataio.save_schema(os.path.join(work, "target13.json"), target)
        index = {f.name: i for i, f in enumerate(schema.features)}
        reduced = [type(r)(tuple(r.values[index[n]] for n in keep), r.label)
                   for r in records]
        synth.write_csv(os.path.join(work, "target13.csv"), target, reduced)
        arch = os.path.join(work, "arch.json")
        with open(arch, "w", encoding="utf-8") as fh:
            json.dump(DESK_ARCH, fh)
        return [arch, "16", str(DESK_WARMUP_ROWS), str(seed)]

    def commands(self) -> list[tuple[str, list[str]]]:
        data = "prep/train.npz"
        cmds = [("preprocess", ["preprocess", "--schema", "blobs.json",
                                "--train-csv", "blobs.csv", "--out-dir", "prep"]),
                ("pretrain", ["pretrain", "--config", "arch.json", "--data", data,
                              "--out", "enc.npz"])]
        for tag, fraction in (("full", "1.0"), ("tiny", "0.01")):
            cmds.append(("train_head", ["train-head", "--data", data, "--encoder", "enc.npz",
                                        "--out", f"head_{tag}.npz",
                                        "--label-fraction", fraction] + DESK_HEAD_FLAGS))
            cmds.append(("evaluate", ["evaluate", "--data", data, "--encoder", "enc.npz",
                                      "--head", f"head_{tag}.npz",
                                      "--out", f"report_{tag}.json"]))
        common = ["--original-schema", "blobs.json",
                  "--original-state", "prep/preprocessor.json",
                  "--encoder", "enc.npz"] + DESK_HEAD_FLAGS
        cmds.append(("transfer_eval", ["transfer-eval", "--target-csv", "blobs.csv",
                                       "--target-schema", "blobs.json",
                                       "--out", "transfer_identity.json"] + common))
        cmds.append(("transfer_eval", ["transfer-eval", "--target-csv", "target13.csv",
                                       "--target-schema", "target13.json",
                                       "--out", "transfer_reduced.json"] + common))
        return cmds

    def check(self, work: str, flowcl) -> tuple[list[tuple[str, bool]], dict]:
        full = _read(os.path.join(work, "report_full.json"))
        tiny = _read(os.path.join(work, "report_tiny.json"))
        identity = _read(os.path.join(work, "transfer_identity.json"))
        reduced = _read(os.path.join(work, "transfer_reduced.json"))
        acc = full["metrics"]["accuracy"]
        checks = [
            ("accuracy >= 0.95", acc >= 0.95),
            ("1%-label accuracy within 0.05",
             abs(acc - tiny["metrics"]["accuracy"]) <= 0.05),
            ("1%-label train_count == 16", tiny["train_count"] == 16),
            ("identity transfer metrics byte-equal to evaluate's",
             json.dumps(identity["metrics"], sort_keys=True)
             == json.dumps(full["metrics"], sort_keys=True)),
            ("identity alignment 16/0/0",
             identity["alignment"] == {"mapped": 16, "masked": 0, "omitted": 0}),
            ("13-feature transfer masked == 3", reduced["alignment"]["masked"] == 3),
            ("13-feature transfer accuracy within 0.10",
             abs(reduced["metrics"]["accuracy"] - acc) <= 0.10),
        ]
        return checks, {"accuracy": (acc, "ratio")}

    def rates(self, walls: dict[str, float]) -> dict[str, float]:
        rows = 2 * DESK_PER_CLASS
        return {"ingest_rows_per_s": rows / walls["preprocess"][0],
                "pretrain_samples_per_s":
                    trained_samples(rows, DESK_ARCH["epochs"]) / walls["pretrain"][0]}


class UnswPipeline:
    """UNSW-width pretraining, then ingest and frozen-encoder scoring.

    One pass runs two independent parts in turn. The pretrain part is
    `pretrain --arch smaller-pack` on its own 400-row CSV. The score part
    ingests train and test CSVs with all three categorical blocks, then fits
    a head on a frozen encoder made in set-up and scores 1,500 rows. The
    frozen encoder keeps the score part independent of pretraining, so a
    backward-only change should leave `evaluate` unchanged.
    """

    name = "unsw-pipeline"

    def setup(self, work: str, seed: int, flowcl) -> list[str]:
        schema = flowcl.dataio.packaged_schema(UNSW_SCHEMA)
        rows, _ = unsw_synth.generate_rows(schema, PRETRAIN_ROWS, seed, stream=2)
        unsw_synth.write_csv(os.path.join(work, "pretrain.csv"), schema, rows)
        rows, labels = unsw_synth.generate_rows(schema, SCORE_TRAIN_ROWS, seed, stream=0)
        unsw_synth.write_csv(os.path.join(work, "train.csv"), schema, rows)
        test_rows, _ = unsw_synth.generate_rows(schema, SCORE_TEST_ROWS, seed, stream=1)
        unsw_synth.write_csv(os.path.join(work, "test.csv"), schema, test_rows)
        self._expect(labels)
        return ["smaller-pack", str(UNSW_WIDTH), str(UNSW_WARMUP_ROWS), str(seed), "frozen.npz"]

    def _expect(self, labels: np.ndarray) -> None:
        """Held-out and labelled counts of the binary (Normal vs rest) head split."""
        test = labeled = 0
        held = []
        for is_attack in (False, True):
            size = int(np.sum((labels != 0) == is_attack))
            take = min(size, max(1, int(round(SCORE_SPLIT * size))))
            test += size - take
            held.append(size - take)
            labeled += min(take, max(1, int(round(SCORE_LABELS * take))))
        self.test_count, self.train_count = test, labeled
        self.chance = max(held) / test

    def commands(self) -> list[tuple[str, list[str]]]:
        return [("preprocess", ["preprocess", "--schema", UNSW_SCHEMA,
                                "--train-csv", "pretrain.csv", "--out-dir", "prep_pretrain"]),
                ("pretrain", ["pretrain", "--arch", "smaller-pack",
                              "--data", "prep_pretrain/train.npz", "--out", "enc.npz",
                              "--epochs", str(PRETRAIN_EPOCHS),
                              "--batch-size", str(BATCH)]),
                ("preprocess", ["preprocess", "--schema", UNSW_SCHEMA,
                                "--train-csv", "train.csv", "--test-csv", "test.csv",
                                "--out-dir", "prep"]),
                ("train_head", ["train-head", "--data", "prep/train.npz",
                                "--encoder", "frozen.npz", "--out", "head.npz",
                                "--label-fraction", str(SCORE_LABELS),
                                "--split-fraction", str(SCORE_SPLIT)]),
                ("evaluate", ["evaluate", "--data", "prep/train.npz",
                              "--encoder", "frozen.npz", "--head", "head.npz",
                              "--out", "report.json"])]

    def check(self, work: str, flowcl) -> tuple[list[tuple[str, bool]], dict]:
        history = _read(os.path.join(work, "enc-history.json"))["history"]
        values = [v for e in history for v in (e["loss"], e["holdout_loss"])]
        finite = (len(history) == PRETRAIN_EPOCHS
                  and all(v is not None and math.isfinite(v) for v in values))
        try:
            block, _, _ = flowcl.model.load_encoder(os.path.join(work, "enc.npz"))
            reloads = (block.config.input_width == UNSW_WIDTH
                       and block.config.preset == "smaller-pack"
                       and all(np.all(np.isfinite(p.data)) for p in block.parameters()))
        except (flowcl.FlowclError, OSError, KeyError, ValueError):
            reloads = False
        report = _read(os.path.join(work, "report.json"))
        acc = report["metrics"]["accuracy"]
        test_rows = len(flowcl.dataio.load_encoded(os.path.join(work, "prep", "test.npz"))[0])
        checks = [
            ("history has one finite entry per epoch", finite),
            ("encoder checkpoint reloads", reloads),
            (f"test_count == {self.test_count}", report["test_count"] == self.test_count),
            (f"train_count == {self.train_count}", report["train_count"] == self.train_count),
            (f"accuracy >= majority share {self.chance:.3f} + {SCORE_MARGIN}",
             acc >= self.chance + SCORE_MARGIN),
            (f"test CSV encoded to {SCORE_TEST_ROWS} rows", test_rows == SCORE_TEST_ROWS),
        ]
        last = history[-1]["holdout_loss"] if finite else float("nan")
        return checks, {"accuracy": (acc, "ratio"), "holdout_loss": (last, "nats")}

    def rates(self, walls: dict[str, float]) -> dict[str, float]:
        return {"ingest_rows_per_s":
                    (SCORE_TRAIN_ROWS + SCORE_TEST_ROWS) / walls["preprocess"][1],
                "pretrain_samples_per_s":
                    trained_samples(PRETRAIN_ROWS, PRETRAIN_EPOCHS) / walls["pretrain"][0],
                "score_rows_per_s": self.test_count / walls["evaluate"][0]}


WORKLOADS = {w.name: w for w in (DeskPipeline, UnswPipeline)}
