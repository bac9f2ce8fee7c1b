"""Per-layer metrics from the spans of traced commands.

Each traced command leaves one span file (see `tracer.py`). A span's self
time is its duration minus the durations of its direct children. "Per
pretrain step" metrics count only spans inside `sscl.pretrain` and outside
`sscl.holdout_loss`, divided by the AdamW steps taken there; a workload that
does not pretrain reports 0 for them. Every other metric covers all spans of
the traced passes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

OPS = ("conv1d", "batchnorm1d", "relu", "maxpool1d", "global_maxpool1d",
       "affine", "softmax_cross_entropy")
COMMANDS = ("preprocess", "pretrain", "train_head", "evaluate", "transfer_eval")
LAYERS = ("numgrad", "sscl", "model", "augment", "seeding", "dataio", "transfer",
          "metrics", "cli")


def metric_table() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    rows = []
    for op in OPS:
        rows += [(f"numgrad.{op}.fwd_ms", "ms", "lower"), (f"numgrad.{op}.bwd_ms", "ms", "lower")]
    rows += [
        ("sscl.batch_loss.fwd_ms", "ms", "lower"),
        ("sscl.batch_loss.bwd_ms", "ms", "lower"),
        ("numgrad.conv1d.gflops", "GFLOP/s", "higher"),
        ("numgrad.backward.overhead_ms", "ms", "lower"),
        ("numgrad.tape.entries_per_step", "count", "lower"),
        ("numgrad.adamw.step_ms", "ms", "lower"),
        ("seeding.substream.ms_per_step", "ms", "lower"),
        ("seeding.substream.calls_per_step", "count", "lower"),
        ("augment.views_ms_per_step", "ms", "lower"),
        ("sscl.step_ms_p50", "ms", "lower"),
        ("sscl.step_ms_p90", "ms", "lower"),
        ("sscl.step_samples", "count", "higher"),
        ("sscl.holdout_loss_ms", "ms", "lower"),
        ("sscl.train_head_ms", "ms", "lower"),
        ("model.encode.train_ms", "ms", "lower"),
        ("model.encode.eval_ms_per_row", "ms", "lower"),
        ("sscl.representation_features.ms_per_row", "ms", "lower"),
        ("sscl.representation_features.peak_mb", "MB", "lower"),
        ("dataio.load_csv.us_per_row", "us", "lower"),
        ("dataio.encode_dataset.us_per_row", "us", "lower"),
        ("dataio.fit_preprocessor_ms", "ms", "lower"),
        ("dataio.save_encoded_ms", "ms", "lower"),
        ("dataio.load_encoded_ms", "ms", "lower"),
        ("transfer.align_matrix_ms", "ms", "lower"),
        ("transfer.fit_transfer_preprocessor_ms", "ms", "lower"),
        ("numgrad.checkpoint.save_ms", "ms", "lower"),
        ("numgrad.checkpoint.load_ms", "ms", "lower"),
    ]
    rows += [(f"cli.{c}.self_ms", "ms", "lower") for c in COMMANDS]
    rows += [(f"layer.{layer}.self_ms", "ms", "lower") for layer in LAYERS]
    rows += [
        ("trace.write_ms", "ms", "lower"),
        ("trace.unattributed_ms", "ms", "lower"),
        ("trace.overhead_pct", "%", "lower"),
        ("trace.spans_per_pass", "count", "lower"),
    ]
    return rows


@dataclass
class _Sums:
    """Running totals over every traced command of a run."""

    dur: dict = field(default_factory=dict)        # name -> seconds, all spans
    step_dur: dict = field(default_factory=dict)   # name -> seconds, pretrain-step scope
    calls: dict = field(default_factory=dict)      # name -> span count, all spans
    step_calls: dict = field(default_factory=dict)
    layer_self: dict = field(default_factory=dict)  # layer -> seconds
    cli_self: dict = field(default_factory=dict)   # command -> [seconds per call]
    steps: int = 0
    step_times: list = field(default_factory=list)
    tape_entries: float = 0.0
    backward_self: float = 0.0
    conv_flops: float = 0.0
    conv_time: float = 0.0
    eval_rows: float = 0.0
    features_rows: float = 0.0
    features_peak_mb: float = 0.0
    csv_rows: float = 0.0
    encoded_rows: float = 0.0
    write_s: float = 0.0
    spans: int = 0


def _add(table: dict, key, value) -> None:
    table[key] = table.get(key, 0.0) + value


class LayerTrace:
    """Accumulates traced commands; `metrics` turns them into the table."""

    def __init__(self):
        self.sums = _Sums()
        self.traced_walls: list[float] = []
        self.untraced_walls: list[float] = []

    def add_command(self, command: str, wall_s: float, spans_path: str) -> None:
        s = self.sums
        with np.load(spans_path) as z:
            table = [str(n) for n in z["names"]]
            name_index = z["name_index"].tolist()
            parents = z["parents"].tolist()
            ends = z["ends"].tolist()
            dur = (z["ends"] - z["starts"]).tolist()
            attrs = dict(zip(z["attr_ids"].tolist(), z["attr_values"].tolist()))
        with open(spans_path + ".json", encoding="utf-8") as fh:
            write_s = json.load(fh)["write_s"]
        names = [table[i] for i in name_index]
        n = len(names)
        child = [0.0] * n
        top = 0.0
        for i, p in enumerate(parents):
            if p >= 0:
                child[p] += dur[i]
            else:
                top += dur[i]
        # scope[i]: 0 outside pretraining, 1 in a pretrain step, 2 in holdout_loss.
        scope = [0] * n
        step_start = None
        for i, (name, p) in enumerate(zip(names, parents)):
            outer = 0
            if p >= 0:
                outer = 1 if names[p] == "sscl.pretrain" else scope[p]
            scope[i] = 2 if outer and name == "sscl.holdout_loss" else outer
            self_time = dur[i] - child[i]
            _add(s.layer_self, name.split(".", 1)[0], self_time)
            _add(s.dur, name, dur[i])
            _add(s.calls, name, 1)
            if scope[i] == 1:
                _add(s.step_dur, name, dur[i])
                _add(s.step_calls, name, 1)
                if name == "numgrad.backward":
                    s.backward_self += self_time
                    s.tape_entries += attrs.get(i, 0.0)
                elif name == "seeding.substream" and attrs.get(i):
                    step_start = ends[i]  # the epoch's shuffle stream is drawn
                elif name == "numgrad.adamw.step":
                    # A step runs from the previous step's update (or the
                    # epoch's shuffle) to the end of its own update.
                    s.steps += 1
                    if step_start is not None:
                        s.step_times.append(ends[i] - step_start)
                    step_start = ends[i]
            if name.startswith("numgrad.conv1d"):
                s.conv_flops += attrs.get(i, 0.0)
                s.conv_time += dur[i]
            elif name == "model.encode.eval":
                s.eval_rows += attrs.get(i, 0.0)
                if p >= 0 and names[p] == "sscl.representation_features":
                    s.features_rows += attrs.get(i, 0.0)
            elif name == "sscl.representation_features":
                s.features_peak_mb = max(s.features_peak_mb, attrs.get(i, 0.0))
            elif name == "dataio.load_csv":
                s.csv_rows += attrs.get(i, 0.0)
            elif name == "dataio.encode_dataset":
                s.encoded_rows += attrs.get(i, 0.0)
        _add(s.layer_self, "cli", wall_s - top - write_s)
        s.cli_self.setdefault(command, []).append(wall_s - top - write_s)
        s.write_s += write_s
        s.spans += n

    def metrics(self) -> dict[str, float]:
        s = self.sums
        passes, steps = len(self.traced_walls), s.steps

        def ratio(num: float, den: float, scale: float = 1.0) -> float:
            return scale * num / den if den else 0.0

        def per_step(name: str) -> float:
            return ratio(s.step_dur.get(name, 0.0), steps, 1e3)

        def mean_ms(name: str) -> float:
            return ratio(s.dur.get(name, 0.0), s.calls.get(name, 0), 1e3)

        out = {}
        for op in OPS:
            out[f"numgrad.{op}.fwd_ms"] = per_step(f"numgrad.{op}")
            out[f"numgrad.{op}.bwd_ms"] = per_step(f"numgrad.{op}.bwd")
        out["sscl.batch_loss.fwd_ms"] = per_step("sscl.batch_loss")
        out["sscl.batch_loss.bwd_ms"] = per_step("sscl.batch_loss.bwd")
        out["numgrad.conv1d.gflops"] = ratio(s.conv_flops, s.conv_time, 1e-9)
        out["numgrad.backward.overhead_ms"] = ratio(s.backward_self, steps, 1e3)
        out["numgrad.tape.entries_per_step"] = ratio(s.tape_entries, steps)
        out["numgrad.adamw.step_ms"] = mean_ms("numgrad.adamw.step")
        out["seeding.substream.ms_per_step"] = per_step("seeding.substream")
        out["seeding.substream.calls_per_step"] = ratio(
            s.step_calls.get("seeding.substream", 0), steps)
        out["augment.views_ms_per_step"] = per_step("augment.augment_pair")
        times = np.array(s.step_times) * 1e3
        out["sscl.step_ms_p50"] = float(np.percentile(times, 50)) if times.size else 0.0
        out["sscl.step_ms_p90"] = float(np.percentile(times, 90)) if times.size else 0.0
        out["sscl.step_samples"] = float(times.size)
        out["sscl.holdout_loss_ms"] = mean_ms("sscl.holdout_loss")
        out["sscl.train_head_ms"] = mean_ms("sscl.train_head")
        out["model.encode.train_ms"] = per_step("model.encode.train")
        out["model.encode.eval_ms_per_row"] = ratio(
            s.dur.get("model.encode.eval", 0.0), s.eval_rows, 1e3)
        out["sscl.representation_features.ms_per_row"] = ratio(
            s.dur.get("sscl.representation_features", 0.0), s.features_rows, 1e3)
        out["sscl.representation_features.peak_mb"] = s.features_peak_mb
        out["dataio.load_csv.us_per_row"] = ratio(
            s.dur.get("dataio.load_csv", 0.0), s.csv_rows, 1e6)
        out["dataio.encode_dataset.us_per_row"] = ratio(
            s.dur.get("dataio.encode_dataset", 0.0), s.encoded_rows, 1e6)
        out["dataio.fit_preprocessor_ms"] = mean_ms("dataio.fit_preprocessor")
        out["dataio.save_encoded_ms"] = mean_ms("dataio.save_encoded")
        out["dataio.load_encoded_ms"] = mean_ms("dataio.load_encoded")
        out["transfer.align_matrix_ms"] = mean_ms("transfer.align_matrix")
        out["transfer.fit_transfer_preprocessor_ms"] = mean_ms("transfer.fit_transfer_preprocessor")
        out["numgrad.checkpoint.save_ms"] = mean_ms("numgrad.checkpoint.save")
        out["numgrad.checkpoint.load_ms"] = mean_ms("numgrad.checkpoint.load")
        for command in COMMANDS:
            walls = s.cli_self.get(command, [])
            out[f"cli.{command}.self_ms"] = ratio(sum(walls), len(walls), 1e3)
        for layer in LAYERS:
            out[f"layer.{layer}.self_ms"] = ratio(s.layer_self.get(layer, 0.0), passes, 1e3)
        accounted = sum(s.layer_self.values()) + s.write_s
        out["trace.write_ms"] = ratio(s.write_s, passes, 1e3)
        out["trace.unattributed_ms"] = ratio(sum(self.traced_walls) - accounted, passes, 1e3)
        traced = float(np.median(self.traced_walls)) if self.traced_walls else 0.0
        untraced = float(np.median(self.untraced_walls)) if self.untraced_walls else 0.0
        out["trace.overhead_pct"] = ratio(traced - untraced, untraced, 100.0)
        out["trace.spans_per_pass"] = ratio(s.spans, passes)
        return out
