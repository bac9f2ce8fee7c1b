"""Mutation fuzzing of every CLI input against the README's exit-code table.

Each trial damages one input of one command with a deterministic mutator:
byte edits of a CSV or an alias file, a value swap in a schema, config or
state JSON, or an edit of one npz entry (its header, magic, data length,
dtype, values, or the JSON meta, the encoded file's layout included). It then
runs `main()` and checks the contract: `main()` never raises, never returns 1
(an internal fault), and a failing command logs exactly one error line while
a passing one logs none. A trial is a pure function of (seed, trial number),
so a failure names both and replays alone.

Long runs, from the repository root:

    PYTHONPATH=src python3 tests/test_fuzz.py --trials 10000 --seeds 1 2
"""

from __future__ import annotations

import argparse
import io
import json
import logging
import os
import random
import shutil
import sys
import tempfile
import warnings
import zipfile

import numpy as np

from flowcl.cli import main
from flowcl.dataio import DatasetSchema, Feature, save_schema
from flowcl.numgrad import load_arrays, save_arrays

TIER1_TRIALS = 300
TIER1_SEED = 27

# Values a JSON swap puts in place of another: wrong types, edge numbers,
# huge ints, empty and nested containers.
JSON_VALUES = [None, True, False, 0, -1, 1, 3, 2**40, 2**63, 0.5, -0.0, 1e308, float("nan"),
               "", "x", "-", "normal", [], [0], ["conv", 4], {}, {"a": 1}]

# Settings whose valid values only set how long a command runs: a swap caps
# them at 3, so that no trial asks for 2**40 epochs.
LOOP_KEYS = {"epochs"}

# Bytes and tokens a CSV or alias edit writes.
BYTE_TOKENS = [b",", b"\n", b"\r", b'"', b"-", b"=", b"#", b" ", b"\x00", b"\xff", b"\x96",
               b"nan", b"inf", b"1e400", b"-0", b"9" * 30, "é".encode(), b",,", b"tcp"]

# npy dtype descriptors an entry's header may be switched to.
DESCRS = ["<f8", "<i8", "<f4", "<i4", "|b1", "<U1", "|O", ">f8", "<c16"]


def fuzz_schema() -> DatasetSchema:
    return DatasetSchema(
        tuple(Feature(f"f{i}", "numeric") for i in range(4))
        + (Feature("proto", "categorical", ("tcp", "udp", "icmp")),
           Feature("state", "categorical", ("CON", "FIN"))),
        label_column="label", class_names=("normal", "attack"))


def target_schema() -> DatasetSchema:
    return DatasetSchema(
        (Feature("g0", "numeric"), Feature("f2", "numeric"),
         Feature("proto", "categorical", ("udp", "gre", "tcp"))),
        label_column="label", class_names=("normal", "attack"))


def write_rows(path: str, names: list[str], n_rows: int, seed: int) -> None:
    """Two-class rows: class-shifted numerics, categories with '-' and unseen values."""
    rng = np.random.default_rng(seed)
    cells = {"proto": ["tcp", "udp", "icmp", "-", "gre"], "state": ["CON", "FIN", "-"]}
    lines = [",".join(names + ["label"])]
    for i in range(n_rows):
        attack = i % 2
        row = [str(cells[n][rng.integers(len(cells[n]))]) if n in cells
               else f"{rng.normal(2.0 + 3.0 * attack, 1.0):.4f}" for n in names]
        lines.append(",".join(row + ["attack" if attack else "normal"]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def build_base(root: str) -> dict[str, str]:
    """The inputs every trial starts from, made once by running the pipeline."""
    paths = {name: os.path.join(root, name) for name in (
        "schema.json", "target.json", "train.csv", "target.csv", "alias.txt",
        "arch.json", "head.json", "state.json", "data.npz", "enc.npz", "head.npz")}
    save_schema(paths["schema.json"], fuzz_schema())
    save_schema(paths["target.json"], target_schema())
    write_rows(paths["train.csv"], [f.name for f in fuzz_schema().features], 40, seed=1)
    write_rows(paths["target.csv"], [f.name for f in target_schema().features], 24, seed=2)
    with open(paths["alias.txt"], "w", encoding="utf-8") as fh:
        fh.write("# original = target\nf0 = g0\n")
    with open(paths["arch.json"], "w", encoding="utf-8") as fh:
        json.dump({"layers": [["conv", 4], ["pool", 2], ["conv", 4]], "context_dim": 4,
                   "epochs": 1, "batch_size": 16, "seed": 1, "holdout_fraction": 0.2}, fh)
    with open(paths["head.json"], "w", encoding="utf-8") as fh:
        json.dump({"epochs": 1, "batch_size": 32, "label_fraction": 0.5, "seed": 2,
                   "normal_class": "normal"}, fh)
    prep = os.path.join(root, "prep")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["preprocess", "--schema", paths["schema.json"],
                     "--train-csv", paths["train.csv"], "--out-dir", prep]) == 0
        shutil.copy(os.path.join(prep, "train.npz"), paths["data.npz"])
        shutil.copy(os.path.join(prep, "preprocessor.json"), paths["state.json"])
        assert main(["pretrain", "--config", paths["arch.json"], "--data", paths["data.npz"],
                     "--out", paths["enc.npz"]]) == 0
        assert main(["train-head", "--config", paths["head.json"], "--data", paths["data.npz"],
                     "--encoder", paths["enc.npz"], "--out", paths["head.npz"]]) == 0
    return paths


def commands(p: dict[str, str], out: str) -> dict[str, list[str]]:
    """Each command's argv over the base inputs, writing into `out`."""
    return {
        "preprocess": ["preprocess", "--schema", p["schema.json"], "--train-csv", p["train.csv"],
                       "--out-dir", os.path.join(out, "prep")],
        "pretrain": ["pretrain", "--config", p["arch.json"], "--data", p["data.npz"],
                     "--out", os.path.join(out, "enc.npz")],
        "train-head": ["train-head", "--config", p["head.json"], "--data", p["data.npz"],
                       "--encoder", p["enc.npz"], "--out", os.path.join(out, "head.npz")],
        "evaluate": ["evaluate", "--data", p["data.npz"], "--encoder", p["enc.npz"],
                     "--head", p["head.npz"], "--out", os.path.join(out, "report.json")],
        "transfer-eval": ["transfer-eval", "--config", p["head.json"],
                          "--target-csv", p["target.csv"], "--target-schema", p["target.json"],
                          "--original-schema", p["schema.json"],
                          "--original-state", p["state.json"], "--alias", p["alias.txt"],
                          "--encoder", p["enc.npz"], "--out", os.path.join(out, "t.json")],
    }


# Which commands read each input, and how the input is mutated.
INPUTS = {
    "train.csv": ("bytes", ["preprocess"]),
    "target.csv": ("bytes", ["transfer-eval"]),
    "alias.txt": ("bytes", ["transfer-eval"]),
    "schema.json": ("json", ["preprocess", "transfer-eval"]),
    "target.json": ("json", ["transfer-eval"]),
    "arch.json": ("json", ["pretrain"]),
    "head.json": ("json", ["train-head", "transfer-eval"]),
    "state.json": ("json", ["transfer-eval"]),
    "data.npz": ("npz", ["pretrain", "train-head", "evaluate"]),
    "enc.npz": ("npz", ["train-head", "evaluate", "transfer-eval"]),
    "head.npz": ("npz", ["evaluate"]),
}


def mutate_bytes(data: bytes, rng: random.Random) -> tuple[bytes, str]:
    at = rng.randrange(len(data) + 1)
    span = rng.randint(1, 8)
    op = rng.choice(["set", "insert", "delete", "duplicate", "truncate"])
    token = rng.choice(BYTE_TOKENS)
    if op == "set":
        return data[:at] + token + data[at + len(token):], f"set {token!r} at {at}"
    if op == "insert":
        return data[:at] + token + data[at:], f"insert {token!r} at {at}"
    if op == "delete":
        return data[:at] + data[at + span:], f"delete {span} at {at}"
    if op == "duplicate":
        return data[:at] + data[at:at + span] * 2 + data[at + span:], f"duplicate {span} at {at}"
    return data[:at], f"truncate at {at}"


def json_paths(doc, path=()):
    """Every (path, value) in a JSON document, containers included."""
    yield path, doc
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from json_paths(value, path + (key,))
    elif isinstance(doc, list):
        for k, value in enumerate(doc):
            yield from json_paths(value, path + (k,))


def mutate_json(doc, rng: random.Random):
    """A copy of `doc` with one value swapped, deleted, or copied from elsewhere in it."""
    doc = json.loads(json.dumps(doc))
    paths = list(json_paths(doc))
    path, _ = rng.choice(paths[1:] or paths)
    if not path:
        return rng.choice(JSON_VALUES), "whole document swapped"
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    op = rng.choice(["swap", "swap", "delete", "copy"])
    if op == "delete":
        del parent[path[-1]]
        return doc, f"delete {list(path)}"
    value = rng.choice(JSON_VALUES) if op == "swap" else rng.choice(paths)[1]
    if path[-1] in LOOP_KEYS and type(value) is int:
        value = min(value, 3)
    parent[path[-1]] = json.loads(json.dumps(value))
    return doc, f"{op} {list(path)} = {json.dumps(value)[:40]}"


def npy_bytes(array: np.ndarray) -> bytes:
    buf = io.BytesIO()
    np.save(buf, array, allow_pickle=False)
    return buf.getvalue()


def mutate_entry(name: str, data: bytes, rng: random.Random) -> tuple[bytes, str]:
    """One edit of an .npy entry's header, magic, length, dtype, values or meta."""
    op = rng.choice(["header", "magic", "length", "dtype", "values", "values", "values", "values"])
    if op == "header":
        edit = rng.choice([(b"{'descr'", b"{('descr'"), (b"'shape': (", b"'shape': (3, "),
                           (b"'fortran_order': False", b"'fortran_order': True"),
                           (b"'shape': (", b"'shape': (-1, ")])
        return data.replace(*edit, 1), f"header {edit[1]!r}"
    if op == "magic":
        return data.replace(b"\x93NUMPY", b"\x93NUMPX", 1), "magic"
    if op == "length":
        cut = rng.choice([1, 8, len(data) // 2])
        return (data[:-cut], f"cut {cut}") if rng.random() < 0.7 else (data + b"\0" * cut,
                                                                       f"pad {cut}")
    array = np.load(io.BytesIO(data), allow_pickle=False)
    if op == "dtype":
        descr = rng.choice(DESCRS)
        return data.replace(repr(array.dtype.str).encode(), repr(descr).encode(), 1), descr
    if name == "__meta__.npy":  # a 0-d string whose JSON holds the meta
        doc, what = mutate_json(json.loads(str(array[()])), rng)
        return npy_bytes(np.array(json.dumps(doc))), f"meta {what}"
    flat = array.reshape(-1).copy()
    if not flat.size:
        return npy_bytes(np.zeros(3, dtype=array.dtype)), "values: empty -> 3 zeros"
    k = rng.randrange(flat.size)
    if flat.dtype.kind == "f":
        flat[k] = rng.choice([np.nan, np.inf, -np.inf, -0.0, 1.5, -1e-300, 1e300])
    else:
        flat[k] = rng.choice([-2, -1, 0, 1, 2, 3, 4, 5, 2**40, -2**62])
    what = f"values [{k}] = {flat[k]}"
    if rng.random() < 0.2:  # also flattened, one element short
        return npy_bytes(flat[:-1]), what + ", flattened, one short"
    return npy_bytes(flat.reshape(array.shape)), what


def mutate_file(kind: str, src: str, dst: str, rng: random.Random) -> str:
    with open(src, "rb") as fh:
        data = fh.read()
    if kind == "bytes":
        data, what = mutate_bytes(data, rng)
    elif kind == "json":
        doc, what = mutate_json(json.loads(data), rng)
        data = json.dumps(doc).encode()
    else:
        with zipfile.ZipFile(io.BytesIO(data)) as zf:
            entries = [(info, zf.read(info)) for info in zf.infolist()]
        target = rng.randrange(len(entries))
        buf = io.BytesIO()
        with zipfile.ZipFile(buf, "w") as zf:
            for k, (info, body) in enumerate(entries):
                if k == target:
                    body, what = mutate_entry(info.filename, body, rng)
                    what = f"{info.filename}: {what}"
                zf.writestr(info, body)
        data = buf.getvalue()
    with open(dst, "wb") as fh:
        fh.write(data)
    return what


class ErrorLines(logging.Handler):
    def __init__(self):
        super().__init__(logging.ERROR)
        self.lines: list[str] = []

    def emit(self, record):
        self.lines.append(record.getMessage())


def run_trial(base: dict[str, str], work: str, seed: int, trial: int):
    """One mutated input through one command: (exit code, the broken contract or None)."""
    rng = random.Random(f"{seed}:{trial}")
    name = rng.choice(sorted(INPUTS))
    kind, readers = INPUTS[name]
    command = rng.choice(readers)
    out = os.path.join(work, f"trial-{trial}")
    os.makedirs(out)
    inputs = dict(base)
    inputs[name] = os.path.join(out, "mutated-" + name)
    what = mutate_file(kind, base[name], inputs[name], rng)
    errors = ErrorLines()
    logger = logging.getLogger("flowcl")
    logger.addHandler(errors)
    try:
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            code = main(commands(inputs, out)[command])
    except (Exception, SystemExit) as err:  # the contract: main() never raises
        code, errors.lines = None, [f"raised {type(err).__name__}: {err}"]
    finally:
        logger.removeHandler(errors)
        shutil.rmtree(out, ignore_errors=True)
    if code is None or code == 1 or len(errors.lines) != (0 if code == 0 else 1):
        return code, {"seed": seed, "trial": trial, "input": name, "command": command,
                      "mutation": what, "exit": code, "errors": errors.lines}
    return code, None


def fuzz(seeds, trials: int) -> tuple[list[dict], dict]:
    """Every broken contract in `trials` trials per seed, and the tally of exit codes."""
    failures, tally = [], {}
    with tempfile.TemporaryDirectory() as root:
        base = build_base(root)
        for seed in seeds:
            for trial in range(trials):
                code, failure = run_trial(base, root, seed, trial)
                tally[code] = tally.get(code, 0) + 1
                failures += [failure] if failure else []
    return failures, tally


def test_no_input_breaks_the_exit_code_contract():
    failures, tally = fuzz([TIER1_SEED], TIER1_TRIALS)
    assert failures == []
    assert {0, 2, 4, 7} <= set(tally)  # the mutators reach past the loaders and into them



def test_a_code_at_its_block_width_exits_4(tmp_path, caplog):
    """Code 3 of proto's 3-wide block would set a 1.0 at the first position of state's."""
    base = build_base(str(tmp_path))
    arrays, meta = load_arrays(base["data.npz"])
    arrays["codes"] = arrays["codes"].copy()
    arrays["codes"][0, 0] = 3
    save_arrays(base["data.npz"], arrays, meta=meta)
    caplog.clear()
    assert main(commands(base, str(tmp_path))["train-head"]) == 4
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert len(errors) == 1 and "category codes must lie in [-1, block width)" in errors[0]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Fuzz every flowcl CLI input.")
    parser.add_argument("--trials", type=int, default=10000, help="trials per seed")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    args = parser.parse_args()
    logging.getLogger().addHandler(logging.NullHandler())  # keep main()'s log off stderr
    found, codes = fuzz(args.seeds, args.trials)
    for failure in found:
        print(json.dumps(failure))
    print(f"{args.trials * len(args.seeds)} trials, seeds {args.seeds}: "
          f"{len(found)} broke the contract; exit codes {dict(sorted(codes.items()))}")
    sys.exit(1 if found else 0)
