"""Full-size memory gates: each flowcl command run alone on UNSW-NB15-sized
files must peak at or below its RSS limit, so the documented run fits a
2-core, 8 GB box.

    python3 tests/memory_gates.py WORKDIR

One set-up child writes the fixtures into WORKDIR: UNSW-shaped synthetic rows
from perfbench/unsw_synth.py at UNSW-NB15's train and test sizes (175,341 and
82,332 rows) and smaller, the 3,000-row and 400-row files preprocessed, and a
fresh width-196 smaller-pack encoder. Each gate then runs `python -m
flowcl.cli` in a child of its own, in table order (a gate may read what an
earlier gate wrote), and its peak is that child's ru_maxrss from os.wait4.
Prints one line per gate and exits 1 if any command fails or any peak is over
its limit.

This driver imports only the standard library: a child's ru_maxrss starts
from the RSS of the process that started it, so a driver that had loaded
numpy or generated rows would raise every reading.
"""

import os
import subprocess
import sys
import time
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


class Gate(NamedTuple):
    name: str
    argv: list  # the arguments after `flowcl`
    env: dict  # set on top of the driver's environment
    limit_mb: int


def gates(work: str) -> list:
    def at(*parts):
        return os.path.join(work, *parts)

    prep, enc = at("prep", "train.npz"), at("transfer-enc.npz")
    # Each comment gives the gate's peak on a 2-core x86-64 box (numpy 2.4, OpenBLAS).
    return [
        # 256.0 MB, writing numerics and category codes.
        Gate("preprocess", ["preprocess", "--schema", "unsw_nb15_smaller",
                            "--train-csv", at("train.csv"), "--test-csv", at("test.csv"),
                            "--out-dir", at("prep")], {}, 500),
        # 108.4 MB: load, split off the 20% holdout by index, build and save.
        Gate("pretrain --epochs 0", ["pretrain", "--arch", "smaller-pack", "--data", prep,
                                     "--out", at("setup-enc.npz"), "--epochs", "0"], {}, 420),
        # 431.2 MB, encoding 82,332 target rows straight into the encoder's layout.
        Gate("transfer-eval", ["transfer-eval", "--target-csv", at("unsw_nb15_larger.csv"),
                               "--target-schema", "unsw_nb15_larger",
                               "--original-schema", "unsw_nb15_smaller",
                               "--original-state", at("transfer-prep", "preprocessor.json"),
                               "--encoder", enc, "--epochs", "1",
                               "--out", at("transfer.json")], {}, 700),
        # 108.6 MB, gathering only the labelled training rows.
        Gate("train-head", ["train-head", "--data", prep, "--encoder", enc,
                            "--label-fraction", "0.02", "--epochs", "1",
                            "--out", at("train-head.npz")], {}, 450),
        # 109.5 MB, restricting the task by row index.
        Gate("multiclass train-head", ["train-head", "--task", "multiclass", "--data", prep,
                                       "--encoder", enc, "--label-fraction", "0.02",
                                       "--epochs", "1", "--out", at("train-head-multiclass.npz")],
             {}, 400),
        # 116.9 MB, scoring the 35,068 held-out rows in 64-row chunks.
        Gate("evaluate", ["evaluate", "--data", prep, "--encoder", enc,
                          "--head", at("train-head.npz"), "--out", at("evaluate.json")], {}, 470),
        # 103.5 MB: one epoch at batch 32 over the benchmark's 400 pretraining rows.
        Gate("training step", ["pretrain", "--arch", "smaller-pack",
                               "--data", at("step-prep", "train.npz"), "--out", at("step-enc.npz"),
                               "--epochs", "1", "--batch-size", "32"],
             {"OPENBLAS_NUM_THREADS": "2"}, 111),
    ]


def write_fixtures(work: str) -> None:
    """Write every gate input that no earlier gate writes; runs in the set-up child."""
    import unsw_synth
    from flowcl.cli import main
    from flowcl.dataio import packaged_schema
    from flowcl.model import build_encoder, preset_config, save_encoder

    for name, schema_name, n_rows, stream in (
            ("train", "unsw_nb15_smaller", 175341, 0), ("test", "unsw_nb15_smaller", 82332, 1),
            ("unsw_nb15_smaller", "unsw_nb15_smaller", 3000, 0),
            ("unsw_nb15_larger", "unsw_nb15_larger", 82332, 0),
            ("step", "unsw_nb15_smaller", 400, 2)):
        schema = packaged_schema(schema_name)
        rows, _ = unsw_synth.generate_rows(schema, n_rows, seed=1, stream=stream)
        unsw_synth.write_csv(os.path.join(work, name + ".csv"), schema, rows)
        del rows
    for csv_name, out_dir in (("unsw_nb15_smaller", "transfer-prep"), ("step", "step-prep")):
        if main(["preprocess", "--schema", "unsw_nb15_smaller",
                 "--train-csv", os.path.join(work, csv_name + ".csv"),
                 "--out-dir", os.path.join(work, out_dir)]) != 0:
            sys.exit(f"preprocess of {csv_name}.csv failed")
    save_encoder(os.path.join(work, "transfer-enc.npz"),
                 *build_encoder(preset_config("smaller-pack", 196), seed=0))


def child_peak(argv: list, env: dict) -> tuple:
    """Run argv to its end; return its exit code and its peak RSS in MB."""
    child = subprocess.Popen(argv, env=env)
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, usage.ru_maxrss / 1024


def main(work: str) -> int:
    start = time.monotonic()
    os.makedirs(work, exist_ok=True)
    path = os.pathsep.join([SRC, os.path.join(ROOT, "perfbench"), HERE])
    code, peak = child_peak([sys.executable, "-c", "import sys, memory_gates; "
                             "memory_gates.write_fixtures(sys.argv[1])", work],
                            dict(os.environ, PYTHONPATH=path))
    print(f"set-up: peak {peak:.1f} MB", flush=True)
    if code != 0:
        print(f"set-up failed with exit code {code}")
        return 1
    table, failed = gates(work), []
    for gate in table:
        code, peak = child_peak([sys.executable, "-m", "flowcl.cli", *gate.argv],
                                dict(os.environ, PYTHONPATH=SRC, **gate.env))
        verdict = (f"; FAILED with exit code {code}" if code
                   else "; FAILED over the limit" if peak > gate.limit_mb else "")
        print(f"{gate.name}: peak {peak:.1f} MB (limit {gate.limit_mb} MB){verdict}", flush=True)
        if verdict:
            failed.append(gate.name)
    print(f"{len(table)} gates in {time.monotonic() - start:.0f} s; "
          + (f"failed: {', '.join(failed)}" if failed else "all within their limits"))
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python3 tests/memory_gates.py WORKDIR")
    sys.exit(main(sys.argv[1]))
