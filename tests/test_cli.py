"""End-to-end runs of the flowcl command on a synthetic workspace."""

import argparse
import ctypes
import hashlib
import json
import logging
import os
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import flowcl
from flowcl import cli, sscl
from flowcl.cli import build_parser, main
from flowcl.dataio import (
    DatasetSchema,
    Feature,
    FlowTable,
    TaskRows,
    as_table,
    load_encoded,
    load_schema,
    load_state,
    packaged_schema,
    save_encoded,
    save_schema,
)
from flowcl.model import (
    Conv,
    EncoderConfig,
    MaxPool,
    build_encoder,
    load_encoder,
    preset_config,
    save_encoder,
)
from flowcl.numgrad import load_arrays, save_arrays
from flowcl.synth import Record, blob_schema, generate_blobs, subset_schema, write_csv
from oracles import member_mask_view
from test_checkpoint import DAMAGE, rewrite_entry


def sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One preprocessed + pretrained synthetic workspace shared by the module."""
    root = tmp_path_factory.mktemp("cliws")
    os.makedirs(root / "prep", exist_ok=True)
    schema = blob_schema(16)
    save_schema(str(root / "blobs.json"), schema)
    records = generate_blobs(schema, 200, seed=11)
    write_csv(str(root / "blobs.csv"), schema, records)
    target = subset_schema(schema, [f.name for f in schema.features][:13])
    save_schema(str(root / "target13.json"), target)
    target_records = [type(r)(r.values[:13], r.label) for r in records]
    write_csv(str(root / "target13.csv"), target, target_records)
    arch = {"layers": [["conv", 8], ["pool", 2], ["conv", 16]], "context_dim": 8,
            "epochs": 12, "batch_size": 16, "seed": 7}
    (root / "arch.json").write_text(json.dumps(arch), encoding="utf-8")
    assert main(["preprocess", "--schema", str(root / "blobs.json"),
                 "--train-csv", str(root / "blobs.csv"),
                 "--out-dir", str(root / "prep")]) == 0
    assert main(["pretrain", "--config", str(root / "arch.json"),
                 "--data", str(root / "prep" / "train.npz"),
                 "--out", str(root / "enc.npz")]) == 0
    return root


HEAD_FLAGS = ["--task", "binary", "--normal-class", "normal",
              "--epochs", "60", "--lr", "0.05", "--seed", "3"]


@pytest.fixture(scope="module")
def trained_head(workspace):
    head = workspace / "head.npz"
    assert main(["train-head", "--data", str(workspace / "prep" / "train.npz"),
                 "--encoder", str(workspace / "enc.npz"),
                 "--out", str(head)] + HEAD_FLAGS) == 0
    return head


@pytest.fixture(scope="module")
def multiclass_head(workspace):
    head = workspace / "head_multi.npz"
    assert main(["train-head", "--data", str(workspace / "prep" / "train.npz"),
                 "--encoder", str(workspace / "enc.npz"), "--out", str(head),
                 "--task", "multiclass", "--classes", "normal,attack",
                 "--epochs", "5", "--seed", "3"]) == 0
    assert main(["evaluate", "--data", str(workspace / "prep" / "train.npz"),
                 "--encoder", str(workspace / "enc.npz"), "--head", str(head),
                 "--out", str(workspace / "report_multi.json")]) == 0
    return head


class TestPreprocess:
    def test_artifacts_exist_and_load(self, workspace):
        schema = load_schema(str(workspace / "blobs.json"))
        state = load_state(str(workspace / "prep" / "preprocessor.json"), schema)
        assert state.minima.shape == (16,)
        ds, meta = load_encoded(str(workspace / "prep" / "train.npz"))
        assert ds.layout.width == 16 and len(ds) == 400
        assert meta["schema_fingerprint"] == schema.fingerprint()

    def test_manifest_checksums_match(self, workspace):
        doc = json.loads((workspace / "prep" / "manifest.json").read_text())
        assert doc["command"] == "preprocess"
        for path, digest in {**doc["inputs"], **doc["outputs"]}.items():
            assert sha(path) == digest

    def test_rerun_is_byte_identical(self, workspace, tmp_path):
        out = tmp_path / "again"
        for _ in range(2):
            assert main(["preprocess", "--schema", str(workspace / "blobs.json"),
                         "--train-csv", str(workspace / "blobs.csv"),
                         "--out-dir", str(out)]) == 0
        assert sha(out / "train.npz") == sha(workspace / "prep" / "train.npz")

    def test_each_split_is_freed_before_the_next(self, workspace, tmp_path, monkeypatch):
        """A split's parsed table is gone when it is saved, its matrix when the next is read."""
        rows, matrices, events = [], [], []
        real_load, real_save = cli.load_csv, cli.save_encoded

        def load(path, schema, unseen):
            events.append(("load", [ref() is None for ref in matrices]))
            loaded = real_load(path, schema, unseen)
            rows.append(weakref.ref(loaded))
            return loaded

        def save(path, dataset, fingerprint):
            events.append(("save", [ref() is None for ref in rows]))
            matrices.append(weakref.ref(dataset))
            real_save(path, dataset, fingerprint)

        monkeypatch.setattr(cli, "load_csv", load)
        monkeypatch.setattr(cli, "save_encoded", save)
        assert main(["preprocess", "--schema", str(workspace / "blobs.json"),
                     "--train-csv", str(workspace / "blobs.csv"),
                     "--test-csv", str(workspace / "blobs.csv"),
                     "--out-dir", str(tmp_path)]) == 0
        assert events == [("load", []), ("save", [True]),
                          ("load", [True]), ("save", [True, True])]
        assert sha(tmp_path / "test.npz") == sha(tmp_path / "train.npz")

    def test_missing_csv_is_io_error(self, workspace, tmp_path):
        code = main(["preprocess", "--schema", str(workspace / "blobs.json"),
                     "--train-csv", str(tmp_path / "nope.csv"),
                     "--out-dir", str(tmp_path)])
        assert code == 3

    @pytest.mark.parametrize("value", ["./nope.json", "nope"])
    def test_missing_schema_is_io_error(self, workspace, tmp_path, caplog, value):
        """Neither a file nor a packaged name exits 3, as a missing CSV does."""
        assert main(["preprocess", "--schema", value,
                     "--train-csv", str(workspace / "blobs.csv"),
                     "--out-dir", str(tmp_path / "prep")]) == 3
        assert f"{value!r} is neither a schema file nor a packaged schema" in caplog.text
        assert "unsw_nb15_smaller" in caplog.text and not (tmp_path / "prep").exists()

    def test_malformed_schema_json_is_schema_error(self, workspace, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["preprocess", "--schema", str(bad),
                     "--train-csv", str(workspace / "blobs.csv"),
                     "--out-dir", str(tmp_path)]) == 4

    def test_missing_required_flag_is_config_error(self, tmp_path):
        assert main(["preprocess", "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("mutate, message", [
        (lambda d: d.update(features=5), "features must be a list of objects"),
        (lambda d: d["features"].__setitem__(0, 5), "features must be a list of objects"),
        (lambda d: d["features"][0].update(name=5), "feature name must be a string"),
        (lambda d: d["features"][0].update(kind=5), "kind must be a string"),
        (lambda d: d["features"][0].update(kind="categorical", vocabulary=["tcp", 5]),
         "vocabulary must be a list of strings"),
        (lambda d: d["features"][0].update(kind="categorical", vocabulary="tcp"),
         "vocabulary must be a list of strings"),
        (lambda d: d.update(class_names="ab"), "class_names must be a list of strings"),
        (lambda d: d.update(class_names=["normal", 5]), "class_names must be a list of strings"),
        (lambda d: d.update(label_aliases=[["benign", "normal"]]), "label_aliases must map"),
        (lambda d: d.update(label_aliases={"benign": 5}), "label_aliases must map"),
        (lambda d: d.update(label_column=5), "label_column must be a string"),
    ], ids=["int-features", "int-feature-entry", "int-name", "int-kind",
            "int-vocabulary-entry", "str-vocabulary", "str-class_names", "int-class-name",
            "list-label_aliases", "int-alias-target", "int-label_column"])
    def test_mistyped_schema_is_schema_error(self, workspace, tmp_path, caplog,
                                             mutate, message):
        doc = json.loads((workspace / "blobs.json").read_text(encoding="utf-8"))
        mutate(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["preprocess", "--schema", str(bad),
                     "--train-csv", str(workspace / "blobs.csv"),
                     "--out-dir", str(tmp_path / "out")]) == 4
        assert message in caplog.text

    @pytest.mark.parametrize("cell", ["Infinity", "-inf", "nan", "NaN"])
    @pytest.mark.parametrize("flag", ["--train-csv", "--test-csv"])
    def test_non_finite_numeric_cell_is_parse_error(self, workspace, tmp_path, caplog,
                                                    flag, cell):
        lines = (workspace / "blobs.csv").read_text(encoding="utf-8").splitlines()
        cells = lines[5].split(",")
        cells[2] = cell
        lines[5] = ",".join(cells)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        csvs = {"--train-csv": workspace / "blobs.csv", "--test-csv": workspace / "blobs.csv",
                flag: bad}
        assert main(["preprocess", "--schema", str(workspace / "blobs.json"),
                     "--out-dir", str(tmp_path / "out")]
                    + [str(part) for pair in csvs.items() for part in pair]) == 4
        feature = lines[0].split(",")[2]
        assert f"row 5: feature {feature}: '{cell}'" in caplog.text

    def test_unknown_label_exits_5_and_writes_nothing(self, workspace, tmp_path, caplog):
        text = (workspace / "blobs.csv").read_text(encoding="utf-8")
        bad = tmp_path / "bad.csv"
        bad.write_text(text.replace(",attack\n", ",zombie\n", 1), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["preprocess", "--schema", str(workspace / "blobs.json"),
                     "--train-csv", str(bad), "--out-dir", str(out)]) == 5
        assert "'zombie'" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("defect, code", [
        (lambda text: text.replace(",attack\n", ",zombie\n", 1).encode("utf-8"), 5),
        (lambda text: text.replace(",attack\n", "\n", 1).encode("utf-8"), 4),
        (lambda text: text.encode("utf-8").replace(b",attack\n", b",\x96\n", 1), 4),
    ], ids=["unknown-label", "short-row", "non-utf8"])
    def test_bad_test_csv_leaves_the_out_dir_as_it_was(self, workspace, tmp_path, caplog,
                                                       defect, code):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(defect((workspace / "blobs.csv").read_text(encoding="utf-8")))
        base = ["preprocess", "--schema", str(workspace / "blobs.json"),
                "--train-csv", str(workspace / "blobs.csv")]
        fresh = tmp_path / "fresh"
        assert main(base + ["--test-csv", str(bad), "--out-dir", str(fresh)]) == code
        assert not fresh.exists()
        out = tmp_path / "out"
        assert main(base + ["--out-dir", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(base + ["--test-csv", str(bad), "--out-dir", str(out)]) == code
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        if code == 5:
            assert f"{bad}, line 202: label 'zombie'" in caplog.text

    def test_repeated_header_name_fits_the_first_column(self, workspace, tmp_path):
        """A second f00 column, third in the header, is not read: pandas keeps the first."""
        rows = [line.split(",") for line in
                (workspace / "blobs.csv").read_text(encoding="utf-8").splitlines()]
        doubled = tmp_path / "doubled.csv"
        doubled.write_text("\n".join(",".join(row[:2] + ["f00" if k == 0 else "9.0"] + row[2:])
                                     for k, row in enumerate(rows)) + "\n", encoding="utf-8")
        assert main(["preprocess", "--schema", str(workspace / "blobs.json"),
                     "--train-csv", str(doubled), "--out-dir", str(tmp_path / "out")]) == 0
        for name in ("preprocessor.json", "train.npz"):
            assert sha(tmp_path / "out" / name) == sha(workspace / "prep" / name)


class TestPretrain:
    def test_fresh_processes_write_identical_checkpoint(self, workspace, tmp_path):
        """Two `python -m flowcl.cli pretrain` processes, each with the allocator
        policy applied from its start, write the in-process run's bytes, one on one
        OpenBLAS thread and one on two: the bytes do not depend on the thread count."""
        src = os.path.dirname(os.path.dirname(flowcl.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        for run, threads in (("a", "1"), ("b", "2")):
            subprocess.run([sys.executable, "-m", "flowcl.cli", "pretrain",
                            "--config", str(workspace / "arch.json"),
                            "--data", str(workspace / "prep" / "train.npz"),
                            "--out", str(tmp_path / f"{run}.npz")],
                           env=dict(env, OPENBLAS_NUM_THREADS=threads),
                           capture_output=True, check=True, timeout=300)
            assert sha(tmp_path / f"{run}.npz") == sha(workspace / "enc.npz")
            assert (sha(tmp_path / f"{run}-history.json")
                    == sha(workspace / "enc-history.json"))

    def test_group_mask_rerun_is_byte_identical(self, workspace, tmp_path):
        """`pretrain --group-mask` masks whole one-hot blocks: a finite
        history, a checkpoint unlike the per-position run's, and identical reruns."""
        blobs = blob_schema(4)
        schema = DatasetSchema(blobs.features + (Feature("proto", "categorical",
                                                         ("tcp", "udp", "icmp")),),
                               blobs.label_column, blobs.class_names)
        save_schema(str(tmp_path / "proto.json"), schema)
        records = [Record(r.values + (("tcp", "udp", "icmp")[k % 3],), r.label)
                   for k, r in enumerate(generate_blobs(blobs, 40, seed=5))]
        write_csv(str(tmp_path / "proto.csv"), schema, records)
        assert main(["preprocess", "--schema", str(tmp_path / "proto.json"),
                     "--train-csv", str(tmp_path / "proto.csv"),
                     "--out-dir", str(tmp_path / "prep")]) == 0
        base = ["pretrain", "--config", str(workspace / "arch.json"), "--epochs", "3",
                "--data", str(tmp_path / "prep" / "train.npz")]
        for run in ("a", "b"):
            assert main(base + ["--group-mask", "--out", str(tmp_path / f"{run}.npz")]) == 0
        assert main(base + ["--out", str(tmp_path / "plain.npz")]) == 0
        assert sha(tmp_path / "a.npz") == sha(tmp_path / "b.npz")
        assert sha(tmp_path / "a-history.json") == sha(tmp_path / "b-history.json")
        assert sha(tmp_path / "a.npz") != sha(tmp_path / "plain.npz")
        history = json.loads((tmp_path / "a-history.json").read_text())["history"]
        assert len(history) == 3
        assert all(np.isfinite([h["loss"], h["holdout_loss"]]).all() for h in history)

    # sha256 of (encoder, history) of the per-position and the `--group-mask --schema
    # proto.json` runs below, written when the blocks came from the schema and each view
    # took its own draw (numpy 2.4, OpenBLAS 0.3.31, x86-64).
    PLAIN_SHA256 = ("6c5a5bab26f065834e708c59bd78f8f23f2f69bb632545a7d713e0edc1a3e3fb",
                    "3005facd236daa4e15d5cd1c0f7f491f4c32f28f78792a68ec38223febfb770a")
    GROUP_MASK_SHA256 = ("f127155b3d6473b60aa06ab9958af6da73c7cec255b99532bd364afefd7fecae",
                         "d3a23fb8a2095cf82bcf6b01ca44b9ef99036781ffb8355e408be6bf9eaf5253")

    def test_group_mask_reads_its_blocks_from_the_file(self, workspace, tmp_path, monkeypatch):
        """`--group-mask` with no `--schema` masks the encoded file's blocks and writes
        the bytes of two member-matrix masks of the schema's blocks per batch. Where the
        per-position run reproduces its pinned bytes (the same float arithmetic), the
        group-mask run reproduces those of the former `--group-mask --schema` run."""
        blobs = blob_schema(4)
        schema = DatasetSchema(blobs.features + (Feature("proto", "categorical",
                                                         ("tcp", "udp", "icmp")),),
                               blobs.label_column, blobs.class_names)
        save_schema(str(tmp_path / "proto.json"), schema)
        records = [Record(r.values + (("tcp", "udp", "icmp")[k % 3],), r.label)
                   for k, r in enumerate(generate_blobs(blobs, 40, seed=5))]
        write_csv(str(tmp_path / "proto.csv"), schema, records)
        assert main(["preprocess", "--schema", str(tmp_path / "proto.json"),
                     "--train-csv", str(tmp_path / "proto.csv"),
                     "--out-dir", str(tmp_path / "prep")]) == 0
        base = ["pretrain", "--config", str(workspace / "arch.json"), "--epochs", "3",
                "--data", str(tmp_path / "prep" / "train.npz")]
        blocks = schema.layout().spans()

        def schema_block_pair(batch, masking, rng, groups):
            views = [member_mask_view(batch, masking.ratio, rng, blocks) for _ in range(2)]
            return np.stack(views, axis=1).reshape(-1, batch.shape[1])

        outputs = {}
        for run in ("plain", "group", "oracle"):
            if run == "oracle":
                monkeypatch.setattr(sscl, "augment_pair", schema_block_pair)
            flags = [] if run == "plain" else ["--group-mask"]
            assert main(base + flags + ["--out", str(tmp_path / f"{run}.npz")]) == 0
            outputs[run] = (sha(tmp_path / f"{run}.npz"), sha(tmp_path / f"{run}-history.json"))
        assert outputs["group"] == outputs["oracle"]
        if outputs["plain"] == self.PLAIN_SHA256:
            assert outputs["group"] == self.GROUP_MASK_SHA256

    def test_history_written_with_holdout(self, workspace):
        history_path = os.path.splitext(str(workspace / "enc.npz"))[0] + "-history.json"
        with open(history_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        history = doc["history"]
        assert [h["epoch"] for h in history] == list(range(12))
        assert all("holdout_loss" in h and h["holdout_loss"] > 0 for h in history)
        assert history[-1]["loss"] < history[0]["loss"]

    def test_checkpoint_loads_with_config(self, workspace):
        encoder, projector, meta = load_encoder(str(workspace / "enc.npz"))
        assert encoder.hidden_dim == 16 and projector.context_dim == 8
        assert meta["contrastive"]["temperature"] == 0.5
        assert meta["contrastive"]["batch_size"] == 16

    def test_zero_epochs_equals_initialization(self, workspace, tmp_path):
        out = tmp_path / "init.npz"
        assert main(["pretrain", "--config", str(workspace / "arch.json"),
                     "--data", str(workspace / "prep" / "train.npz"),
                     "--out", str(out), "--epochs", "0"]) == 0
        encoder, projector, _ = load_encoder(str(out))
        ds, _ = load_encoded(str(workspace / "prep" / "train.npz"))
        from flowcl.model import EncoderConfig, Conv, MaxPool

        config = EncoderConfig((Conv(8), MaxPool(2), Conv(16)), ds.layout.width, 8)
        fresh_enc, fresh_proj = build_encoder(config, seed=7)
        for got, want in zip(encoder.parameters(), fresh_enc.parameters()):
            np.testing.assert_array_equal(got.data, want.data)
        np.testing.assert_array_equal(projector.weight.data, fresh_proj.weight.data)

    def test_preset_arch_writes_the_preset_encoder(self, tmp_path):
        """`--arch larger-pack` on 32-wide rows writes the preset, as `build_encoder` makes it."""
        x = np.random.default_rng(2).random((40, 32))
        data = str(tmp_path / "rows.npz")
        save_encoded(data, replace(as_table(x), labels=np.arange(40) % 2, class_names=("a", "b")))
        assert main(["pretrain", "--arch", "larger-pack", "--epochs", "0", "--seed", "4",
                     "--data", data, "--out", str(tmp_path / "e.npz")]) == 0
        encoder, projector, _ = load_encoder(str(tmp_path / "e.npz"))
        assert encoder.config == preset_config("larger-pack", 32)
        fresh = build_encoder(preset_config("larger-pack", 32), seed=4)
        for got, want in zip([t for b in (encoder, projector) for t in b.parameters()],
                             [t for b in fresh for t in b.parameters()]):
            np.testing.assert_array_equal(got.data, want.data)

    def test_layers_without_context_dim_is_config_error(self, workspace, tmp_path, caplog):
        config = tmp_path / "no-context.json"
        config.write_text('{"layers": [["conv", 4]]}', encoding="utf-8")
        assert main(["pretrain", "--config", str(config),
                     "--data", str(workspace / "prep" / "train.npz"),
                     "--out", str(tmp_path / "e.npz")]) == 2
        assert "custom 'layers' also need 'context_dim'" in caplog.text
        assert not (tmp_path / "e.npz").exists()

    def test_unknown_config_key_rejected(self, workspace, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"zzz": 1}', encoding="utf-8")
        assert main(["pretrain", "--config", str(bad),
                     "--data", str(workspace / "prep" / "train.npz"),
                     "--out", str(tmp_path / "e.npz")]) == 2

    @pytest.mark.parametrize("text", ["{not json", "[]"], ids=["truncated", "list"])
    def test_malformed_config_file_is_config_error(self, workspace, tmp_path, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text, encoding="utf-8")
        assert main(["pretrain", "--config", str(bad),
                     "--data", str(workspace / "prep" / "train.npz"),
                     "--out", str(tmp_path / "e.npz")]) == 2

    def test_malformed_layer_arg_is_config_error(self, workspace, tmp_path):
        bad = tmp_path / "bad-layers.json"
        bad.write_text('{"layers": [["conv", "x"]], "context_dim": 4}', encoding="utf-8")
        assert main(["pretrain", "--config", str(bad),
                     "--data", str(workspace / "prep" / "train.npz"),
                     "--out", str(tmp_path / "e.npz")]) == 2

    def test_non_list_layers_is_config_error(self, workspace, tmp_path):
        bad = tmp_path / "bad-layers.json"
        bad.write_text('{"layers": 5, "context_dim": 4}', encoding="utf-8")
        assert main(["pretrain", "--config", str(bad),
                     "--data", str(workspace / "prep" / "train.npz"),
                     "--out", str(tmp_path / "e.npz")]) == 2

    @pytest.mark.parametrize("bad", [{"lr": "abc"}, {"group_mask": "false"}, {"seed": 1.9},
                                     {"seed": True}, {"batch_size": "8"}],
                             ids=["str-lr", "str-group_mask", "float-seed", "bool-seed",
                                  "str-batch_size"])
    def test_mistyped_config_value_is_config_error(self, workspace, tmp_path, bad):
        doc = {"layers": [["conv", 4]], "context_dim": 4, "epochs": 1, "batch_size": 16, **bad}
        config = tmp_path / "typed.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["pretrain", "--config", str(config),
                     "--data", str(workspace / "prep" / "train.npz"),
                     "--out", str(tmp_path / "e.npz")]) == 2

    def test_non_npz_data_is_checkpoint_error(self, tmp_path):
        text = tmp_path / "not.npz"
        text.write_text("f00,label\n0.5,normal\n", encoding="utf-8")
        assert main(["pretrain", "--data", str(text), "--out", str(tmp_path / "e.npz")]) == 7

    @pytest.mark.parametrize("drop", ["numeric", "codes", "labels", "class_names", "layout"])
    def test_incomplete_encoded_dataset_is_schema_error(self, workspace, tmp_path, drop):
        arrays, meta = load_arrays(str(workspace / "prep" / "train.npz"))
        arrays.pop(drop, None)
        meta.pop(drop, None)
        broken = tmp_path / "broken.npz"
        save_arrays(str(broken), arrays, meta=meta)
        assert main(["pretrain", "--config", str(workspace / "arch.json"),
                     "--data", str(broken), "--out", str(tmp_path / "e.npz")]) == 4

    @pytest.mark.parametrize("class_names", ["ab", 5, ["normal", 5]],
                             ids=["str", "int", "int-entry"])
    def test_mistyped_encoded_class_names_is_schema_error(self, workspace, tmp_path, caplog,
                                                          class_names):
        arrays, meta = load_arrays(str(workspace / "prep" / "train.npz"))
        meta["class_names"] = class_names
        broken = tmp_path / "broken.npz"
        save_arrays(str(broken), arrays, meta=meta)
        assert main(["train-head", "--data", str(broken), "--encoder", str(workspace / "enc.npz"),
                     "--out", str(tmp_path / "h.npz")] + HEAD_FLAGS) == 4
        assert "class_names must be a list of strings" in caplog.text

    @pytest.mark.parametrize("key, dtype, code, message", [
        ("labels", np.float64, 4, "numeric must be float64, codes and labels int64, "
                                  "got float64, int64 and float64"),
        ("numeric", np.int64, 4, "numeric must be float64, codes and labels int64, "
                                 "got int64, int64 and int64"),
        ("labels", np.int32, 7, "array 'labels' has dtype int32, not float64 or int64")],
        ids=["float-labels", "int-numeric", "int32-labels"])
    def test_mistyped_encoded_arrays_fail(self, workspace, tmp_path, caplog,
                                          key, dtype, code, message):
        """Float labels such as 0.5 and 1.5 used to be truncated to classes 0 and 1."""
        arrays, meta = load_arrays(str(workspace / "prep" / "train.npz"))
        arrays[key] = arrays[key].astype(dtype) + (0.5 if dtype is np.float64 else 0)
        broken = tmp_path / "broken.npz"
        save_arrays(str(broken), arrays, meta=meta)
        assert main(["train-head", "--data", str(broken), "--encoder", str(workspace / "enc.npz"),
                     "--out", str(tmp_path / "h.npz")] + HEAD_FLAGS) == code
        assert message in caplog.text
        assert not (tmp_path / "h.npz").exists()

    def test_oversized_batch_is_data_error(self, workspace, tmp_path):
        assert main(["pretrain", "--config", str(workspace / "arch.json"),
                     "--data", str(workspace / "prep" / "train.npz"),
                     "--out", str(tmp_path / "e.npz"),
                     "--batch-size", "4000", "--epochs", "1"]) == 5

    @pytest.mark.parametrize("flag, value", [("--temperature", "inf"), ("--lr", "nan"),
                                             ("--weight-decay", "inf")])
    def test_non_finite_setting_is_config_error(self, workspace, tmp_path, caplog,
                                                flag, value):
        """An infinite temperature used to train on zero gradients and exit 0."""
        out = tmp_path / "e.npz"
        assert main(["pretrain", "--config", str(workspace / "arch.json"),
                     "--data", str(workspace / "prep" / "train.npz"),
                     "--out", str(out), "--epochs", "1", flag, value]) == 2
        assert f"{flag[2:].replace('-', '_')} must be a finite number" in caplog.text
        assert not out.exists()

    def test_bad_rate_is_reported_before_data_is_read(self, tmp_path, caplog):
        """The pretraining settings are checked before --data is opened: exit 2, not 3."""
        assert main(["pretrain", "--arch", "smaller-pack", "--data", str(tmp_path / "missing.npz"),
                     "--out", str(tmp_path / "e.npz"), "--lr", "nan"]) == 2
        assert "lr must be a finite number" in caplog.text

    def test_set_up_holds_one_copy_of_the_rows(self, workspace, tmp_path):
        """Held-out and training rows stay indices into the loaded matrix.

        Gathering both sides of the default 20% holdout before training used to
        double the loaded rows.
        """
        x = np.random.default_rng(0).random((20000, 64))
        labels = np.arange(20000, dtype=np.int64) % 2
        save_encoded(str(tmp_path / "rows.npz"),
                     replace(as_table(x), labels=labels, class_names=("a", "b")))
        tracemalloc.start()
        try:
            assert main(["pretrain", "--config", str(workspace / "arch.json"),
                         "--data", str(tmp_path / "rows.npz"),
                         "--out", str(tmp_path / "e.npz"), "--epochs", "0"]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * x.nbytes

    @pytest.mark.parametrize("arch", [{"layers": [["conv", 2**40]], "context_dim": 8},
                                      {"layers": [["conv", 8]], "context_dim": 2**63}],
                             ids=["conv-2**40", "context_dim-2**63"])
    def test_absurd_encoder_size_is_config_error(self, workspace, tmp_path, caplog, arch):
        """Refused before any allocation: exit 2, not a MemoryError or numpy's ValueError."""
        config = tmp_path / "huge.json"
        config.write_text(json.dumps(arch), encoding="utf-8")
        out = tmp_path / "e.npz"
        assert main(["pretrain", "--config", str(config), "--out", str(out),
                     "--data", str(workspace / "prep" / "train.npz")]) == 2
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1 and "parameters" in errors[0]
        assert not out.exists()

    def test_multiclass_head_stages_hold_one_copy_of_the_rows(self, workspace, tmp_path):
        """--task multiclass restricts labels, not the matrix; each stage gathers its side.

        Restricting the task used to copy every kept row before the split.
        """
        x = np.random.default_rng(1).random((20000, 64))
        labels = np.arange(20000, dtype=np.int64) % 3
        data = str(tmp_path / "rows.npz")
        save_encoded(data, replace(as_table(x), labels=labels, class_names=("a", "b", "c")))
        enc, head = str(tmp_path / "e.npz"), str(tmp_path / "h.npz")
        assert main(["pretrain", "--config", str(workspace / "arch.json"), "--data", data,
                     "--out", enc, "--epochs", "0"]) == 0
        for argv in (["train-head", "--out", head, "--task", "multiclass", "--classes", "c,a,b",
                      "--label-fraction", "0.1", "--epochs", "1"],
                     ["evaluate", "--head", head, "--out", str(tmp_path / "r.json")]):
            tracemalloc.start()
            try:
                assert main(argv + ["--data", data, "--encoder", enc]) == 0
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1.5 * x.nbytes, argv[0]

    @pytest.mark.filterwarnings("ignore::flowcl.metrics.UndefinedMetricWarning")
    def test_no_command_loads_a_dense_copy(self, workspace, tmp_path):
        """Each command holds the compact rows and builds dense ones per batch or chunk.

        UNSW-shaped rows (39 numerics, 3 categoricals, width 196) take 344 B
        each, a dense float64 row 1,568 B; a 64-row chunk of the small
        encoder is small next to either.
        """
        schema = packaged_schema("unsw_nb15_smaller")
        rng = np.random.default_rng(2)
        n, layout = 20000, schema.layout()
        codes = np.stack([rng.integers(-1, w, size=n) for w in layout.widths], axis=1)
        table = FlowTable(rng.random((n, layout.numeric.size)), codes,
                          rng.integers(0, len(schema.class_names), size=n),
                          schema.class_names, layout)
        data, enc, head = (str(tmp_path / name) for name in ("rows.npz", "e.npz", "h.npz"))
        save_encoded(data, table, schema.fingerprint())
        dense_bytes = n * layout.width * 8
        for argv in (["pretrain", "--config", str(workspace / "arch.json"), "--out", enc,
                      "--epochs", "0"],
                     ["train-head", "--encoder", enc, "--out", head, "--normal-class", "Normal",
                      "--label-fraction", "0.1", "--epochs", "1"],
                     ["evaluate", "--encoder", enc, "--head", head,
                      "--out", str(tmp_path / "r.json")]):
            tracemalloc.start()
            try:
                assert main(argv + ["--data", data]) == 0
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < dense_bytes / 2, (argv[0], peak, dense_bytes)

    def test_flag_overrides_config_file(self, workspace, tmp_path):
        out = tmp_path / "short.npz"
        assert main(["pretrain", "--config", str(workspace / "arch.json"),
                     "--data", str(workspace / "prep" / "train.npz"),
                     "--out", str(out), "--epochs", "2"]) == 0
        history_path = os.path.splitext(str(out))[0] + "-history.json"
        with open(history_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        assert len(doc["history"]) == 2


class TestHeadAndEvaluate:
    def test_evaluate_report_shape(self, workspace, trained_head, tmp_path):
        report_path = tmp_path / "report.json"
        assert main(["evaluate", "--data", str(workspace / "prep" / "train.npz"),
                     "--encoder", str(workspace / "enc.npz"),
                     "--head", str(trained_head), "--out", str(report_path)]) == 0
        doc = json.loads((report_path).read_text())
        assert doc["task"] == "binary"
        assert doc["representation"] == "hidden"
        assert doc["train_count"] == 320 and doc["test_count"] == 80
        assert doc["metrics"]["accuracy"] >= 0.95
        assert [row["class"] for row in doc["metrics"]["per_class"]] == ["normal", "attack"]

    def test_evaluate_rerun_byte_identical(self, workspace, trained_head, tmp_path):
        paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
        for p in paths:
            assert main(["evaluate", "--data", str(workspace / "prep" / "train.npz"),
                         "--encoder", str(workspace / "enc.npz"),
                         "--head", str(trained_head), "--out", str(p)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_data_with_other_classes_is_schema_error(self, workspace, tmp_path, caplog):
        """A multiclass head of every class, scored on data that names one more: exit 4."""
        data, head = str(workspace / "prep" / "train.npz"), str(tmp_path / "h.npz")
        assert main(["train-head", "--data", data, "--encoder", str(workspace / "enc.npz"),
                     "--out", head, "--task", "multiclass", "--epochs", "1"]) == 0
        table, _ = load_encoded(data)
        other = str(tmp_path / "other.npz")
        save_encoded(other, replace(table, class_names=table.class_names + ("extra",)))
        assert main(["evaluate", "--data", other, "--encoder", str(workspace / "enc.npz"),
                     "--head", head, "--out", str(tmp_path / "r.json")]) == 4
        assert ("dataset classes ['normal', 'attack', 'extra'] do not match the head's "
                "classes ['normal', 'attack']") in caplog.text
        assert not (tmp_path / "r.json").exists()

    def test_tiny_label_fraction_keeps_one_per_class(self, workspace, tmp_path):
        head = tmp_path / "tiny.npz"
        assert main(["train-head", "--data", str(workspace / "prep" / "train.npz"),
                     "--encoder", str(workspace / "enc.npz"), "--out", str(head),
                     "--label-fraction", "0.01"] + HEAD_FLAGS[:-2]) == 0
        from flowcl.model import load_head

        _, meta = load_head(str(head))
        assert meta["train_count"] == 4  # 1% of 160 per class -> 2 each
        assert meta["label_fraction"] == 0.01

    def test_each_stage_gathers_only_the_rows_it_uses(self, workspace, tmp_path, monkeypatch):
        """train-head copies its labelled training rows, evaluate its test rows, nothing else."""
        gathered = []
        real_gather = TaskRows.gather

        def gather(self, x, idx):
            gathered.append(len(idx))
            return real_gather(self, x, idx)

        monkeypatch.setattr(TaskRows, "gather", gather)
        head, report = tmp_path / "head.npz", tmp_path / "report.json"
        assert main(["train-head", "--data", str(workspace / "prep" / "train.npz"),
                     "--encoder", str(workspace / "enc.npz"), "--out", str(head),
                     "--label-fraction", "0.1"] + HEAD_FLAGS) == 0
        assert main(["evaluate", "--data", str(workspace / "prep" / "train.npz"),
                     "--encoder", str(workspace / "enc.npz"),
                     "--head", str(head), "--out", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert (doc["train_count"], doc["test_count"]) == (32, 80)
        assert gathered == [doc["train_count"], doc["test_count"]]

    def test_loaded_rows_are_freed_before_scoring(self, workspace, trained_head, tmp_path,
                                                  monkeypatch):
        """Only the gathered rows outlive the split, so scoring reuses the loaded rows' pages."""
        tables, freed = [], []
        real_load = cli.load_encoded

        def load(path):
            table, meta = real_load(path)
            tables.append(weakref.ref(table))
            return table, meta

        def scorer(real):
            def score(*args):
                freed.append(tables[-1]() is None)
                return real(*args)
            return score

        monkeypatch.setattr(cli, "load_encoded", load)
        monkeypatch.setattr(cli, "train_head", scorer(cli.train_head))
        monkeypatch.setattr(cli, "evaluate_head", scorer(cli.evaluate_head))
        data, encoder = str(workspace / "prep" / "train.npz"), str(workspace / "enc.npz")
        assert main(["train-head", "--data", data, "--encoder", encoder,
                     "--out", str(tmp_path / "h.npz")] + HEAD_FLAGS) == 0
        assert main(["evaluate", "--data", data, "--encoder", encoder, "--head", str(trained_head),
                     "--out", str(tmp_path / "r.json")]) == 0
        assert freed == [True, True]

    def test_config_int_fraction_gives_the_same_head(self, workspace, trained_head, tmp_path):
        config = tmp_path / "fraction.json"
        config.write_text('{"label_fraction": 1}', encoding="utf-8")
        head = tmp_path / "from-config.npz"
        assert main(["train-head", "--config", str(config),
                     "--data", str(workspace / "prep" / "train.npz"),
                     "--encoder", str(workspace / "enc.npz"), "--out", str(head)]
                    + HEAD_FLAGS) == 0
        flagged = tmp_path / "from-flag.npz"
        assert main(["train-head", "--label-fraction", "1.0",
                     "--data", str(workspace / "prep" / "train.npz"),
                     "--encoder", str(workspace / "enc.npz"), "--out", str(flagged)]
                    + HEAD_FLAGS) == 0
        assert sha(head) == sha(flagged) == sha(trained_head)
        manifest = json.loads((tmp_path / "from-config.npz.manifest.json").read_text())
        assert repr(manifest["config"]["label_fraction"]) == "1.0"

    def test_context_representation_round_trip(self, workspace, tmp_path):
        head = tmp_path / "ctx.npz"
        assert main(["train-head", "--data", str(workspace / "prep" / "train.npz"),
                     "--encoder", str(workspace / "enc.npz"), "--out", str(head),
                     "--representation", "context"] + HEAD_FLAGS) == 0
        from flowcl.model import load_head

        loaded, meta = load_head(str(head))
        assert loaded.input_dim == 8
        report_path = tmp_path / "ctx.json"
        assert main(["evaluate", "--data", str(workspace / "prep" / "train.npz"),
                     "--encoder", str(workspace / "enc.npz"),
                     "--head", str(head), "--out", str(report_path)]) == 0
        assert json.loads((report_path).read_text())["representation"] == "context"

    @pytest.mark.parametrize("layers", [[["conv"]], [["dense", 4]],
                                        [["conv", 8.5], ["pool", 2], ["conv", 16]]])
    def test_bad_checkpoint_layers_are_checkpoint_error(self, workspace, tmp_path, layers):
        arrays, meta = load_arrays(str(workspace / "enc.npz"))
        meta["config"]["layers"] = layers
        broken = tmp_path / "broken.npz"
        save_arrays(str(broken), arrays, meta=meta)
        assert main(["train-head", "--data", str(workspace / "prep" / "train.npz"),
                     "--encoder", str(broken),
                     "--out", str(tmp_path / "h.npz")] + HEAD_FLAGS) == 7

    @pytest.mark.parametrize("key, value", [("layers", [["conv", 2**40]]),
                                            ("context_dim", 2**63)],
                             ids=["conv-2**40", "context_dim-2**63"])
    def test_absurd_encoder_size_is_checkpoint_error(self, workspace, tmp_path, caplog,
                                                     key, value):
        arrays, meta = load_arrays(str(workspace / "enc.npz"))
        meta["config"][key] = value
        broken = tmp_path / "broken.npz"
        save_arrays(str(broken), arrays, meta=meta)
        assert main(["train-head", "--data", str(workspace / "prep" / "train.npz"),
                     "--encoder", str(broken),
                     "--out", str(tmp_path / "h.npz")] + HEAD_FLAGS) == 7
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1 and "parameters" in errors[0]

    @pytest.mark.parametrize("key, value", [("input_width", None), ("input_width", "16"),
                                            ("input_width", True), ("context_dim", "x"),
                                            ("context_dim", 8.7), ("preset", ["a"])],
                             ids=["null-input_width", "str-input_width", "bool-input_width",
                                  "str-context_dim", "float-context_dim", "list-preset"])
    def test_mistyped_encoder_config_is_checkpoint_error(self, workspace, tmp_path, caplog,
                                                         key, value):
        arrays, meta = load_arrays(str(workspace / "enc.npz"))
        meta["config"][key] = value
        broken = tmp_path / "broken.npz"
        save_arrays(str(broken), arrays, meta=meta)
        assert main(["train-head", "--data", str(workspace / "prep" / "train.npz"),
                     "--encoder", str(broken),
                     "--out", str(tmp_path / "h.npz")] + HEAD_FLAGS) == 7
        assert f"{key} must be a" in caplog.text

    def test_encoder_meta_without_config_is_checkpoint_error(self, workspace, tmp_path):
        arrays, meta = load_arrays(str(workspace / "enc.npz"))
        del meta["config"]
        broken = tmp_path / "broken.npz"
        save_arrays(str(broken), arrays, meta=meta)
        assert main(["train-head", "--data", str(workspace / "prep" / "train.npz"),
                     "--encoder", str(broken),
                     "--out", str(tmp_path / "h.npz")] + HEAD_FLAGS) == 7

    @pytest.mark.parametrize("key", ["task", "classes", "split_fraction", "label_fraction",
                                     "seed", "train_count", "representation"])
    def test_head_meta_missing_key_is_checkpoint_error(self, workspace, trained_head,
                                                       tmp_path, key):
        arrays, meta = load_arrays(str(trained_head))
        del meta[key]
        broken = tmp_path / "broken-head.npz"
        save_arrays(str(broken), arrays, meta=meta)
        assert main(["evaluate", "--data", str(workspace / "prep" / "train.npz"),
                     "--encoder", str(workspace / "enc.npz"),
                     "--head", str(broken), "--out", str(tmp_path / "r.json")]) == 7

    @pytest.mark.parametrize("key, value", [("split_fraction", "0.8"),
                                            ("label_fraction", None), ("seed", 1.5),
                                            ("representation", "foo"), ("task", "foo"),
                                            ("train_count", "x"), ("train_count", -1),
                                            ("train_count", True), ("train_count", 2.0),
                                            ("classes", "no"), ("classes", [0, 1]),
                                            ("classes", None), ("normal_class", 5),
                                            ("normal_class", None),
                                            ("requested_classes", 5),
                                            ("requested_classes", ["normal"])],
                             ids=["str-split_fraction", "null-label_fraction", "float-seed",
                                  "unknown-representation", "unknown-task",
                                  "str-train_count", "negative-train_count",
                                  "bool-train_count", "float-train_count", "str-classes",
                                  "int-classes", "null-classes", "int-normal_class",
                                  "null-normal_class", "int-requested_classes",
                                  "list-requested_classes"])
    def test_head_meta_mistyped_value_is_checkpoint_error(self, workspace, trained_head,
                                                          multiclass_head, tmp_path,
                                                          key, value):
        # requested_classes is read only by multiclass heads, normal_class by binary ones.
        head = multiclass_head if key == "requested_classes" else trained_head
        arrays, meta = load_arrays(str(head))
        meta[key] = value
        broken = tmp_path / "broken-head.npz"
        save_arrays(str(broken), arrays, meta=meta)
        assert main(["evaluate", "--data", str(workspace / "prep" / "train.npz"),
                     "--encoder", str(workspace / "enc.npz"),
                     "--head", str(broken), "--out", str(tmp_path / "r.json")]) == 7

    @pytest.mark.parametrize("fraction", ["0", "1.5"])
    def test_out_of_range_label_fraction_is_config_error(self, workspace, tmp_path,
                                                         fraction):
        assert main(["train-head", "--data", str(workspace / "prep" / "train.npz"),
                     "--encoder", str(workspace / "enc.npz"),
                     "--out", str(tmp_path / "h.npz"),
                     "--label-fraction", fraction] + HEAD_FLAGS) == 2

    @pytest.mark.parametrize("flag, value", [("--lr", "nan"), ("--lr", "inf"),
                                             ("--weight-decay", "inf")])
    def test_non_finite_rate_is_config_error(self, workspace, tmp_path, caplog, flag, value):
        """A NaN rate used to write a head of NaN weights and exit 0."""
        out = tmp_path / "h.npz"
        assert main(["train-head", "--data", str(workspace / "prep" / "train.npz"),
                     "--encoder", str(workspace / "enc.npz"), "--out", str(out)]
                    + HEAD_FLAGS + ["--epochs", "1", "--label-fraction", "0.05", flag, value]) == 2
        assert f"{flag[2:].replace('-', '_')} must be a finite number" in caplog.text
        assert not out.exists()

    def test_bad_rate_is_reported_before_data_is_read(self, workspace, tmp_path, caplog):
        """The head settings are checked before --data is opened: exit 2, not 3."""
        assert main(["train-head", "--data", str(tmp_path / "missing.npz"),
                     "--encoder", str(workspace / "enc.npz"), "--out", str(tmp_path / "h.npz")]
                    + HEAD_FLAGS + ["--lr", "nan"]) == 2
        assert "lr must be a finite number" in caplog.text

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    @pytest.mark.parametrize("flag, entry", [("encoder", "a::kernel0.npy"),
                                             ("head", "a::weight.npy"), ("data", "a::numeric.npy"),
                                             ("head", "__meta__.npy")],
                             ids=["encoder", "head", "data", "head-meta"])
    def test_damaged_npz_entry_is_checkpoint_error(self, workspace, trained_head, tmp_path,
                                                   caplog, flag, entry, damage):
        """An entry numpy cannot read exits 7 with one error line, not 1 with a traceback."""
        paths = {"data": workspace / "prep" / "train.npz", "encoder": workspace / "enc.npz",
                 "head": trained_head}
        broken = tmp_path / "broken.npz"
        broken.write_bytes(paths[flag].read_bytes())
        rewrite_entry(str(broken), entry, DAMAGE[damage])
        paths[flag] = broken
        argv = ["evaluate", "--out", str(tmp_path / "r.json")]
        for key, path in paths.items():
            argv += ["--" + key, str(path)]
        assert main(argv) == 7
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1 and "is unreadable" in errors[0]

    def test_wrong_checkpoint_kind_is_checkpoint_error(self, workspace, trained_head, tmp_path):
        assert main(["evaluate", "--data", str(workspace / "prep" / "train.npz"),
                     "--encoder", str(trained_head),
                     "--head", str(trained_head),
                     "--out", str(tmp_path / "x.json")]) == 7


class TestTransferEval:
    def run_transfer(self, workspace, target_schema, target_csv, out, extra=()):
        return main(["transfer-eval",
                     "--target-csv", str(target_csv),
                     "--target-schema", str(target_schema),
                     "--original-schema", str(workspace / "blobs.json"),
                     "--original-state", str(workspace / "prep" / "preprocessor.json"),
                     "--encoder", str(workspace / "enc.npz"),
                     "--out", str(out)] + list(extra) + HEAD_FLAGS)

    def test_identity_matches_evaluate_metrics_bytes(self, workspace, trained_head, tmp_path):
        eval_path = tmp_path / "eval.json"
        assert main(["evaluate", "--data", str(workspace / "prep" / "train.npz"),
                     "--encoder", str(workspace / "enc.npz"),
                     "--head", str(trained_head), "--out", str(eval_path)]) == 0
        transfer_path = tmp_path / "transfer.json"
        assert self.run_transfer(workspace, workspace / "blobs.json",
                                 workspace / "blobs.csv", transfer_path) == 0
        a = json.loads((eval_path).read_text())["metrics"]
        b = json.loads((transfer_path).read_text())["metrics"]
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        doc = json.loads((transfer_path).read_text())
        assert doc["alignment"] == {"mapped": 16, "masked": 0, "omitted": 0}

    def test_reduced_schema_reports_masked_count(self, workspace, tmp_path):
        out = tmp_path / "t13.json"
        assert self.run_transfer(workspace, workspace / "target13.json",
                                 workspace / "target13.csv", out) == 0
        doc = json.loads((out).read_text())
        assert doc["alignment"]["masked"] == 3
        assert doc["metrics"]["accuracy"] >= 0.8

    @pytest.mark.parametrize("fraction", ["0", "1.5"])
    def test_out_of_range_label_fraction_is_config_error(self, workspace, tmp_path,
                                                         fraction):
        assert self.run_transfer(workspace, workspace / "blobs.json",
                                 workspace / "blobs.csv", tmp_path / "t.json",
                                 extra=["--label-fraction", fraction]) == 2

    def test_bad_rate_is_reported_before_data_is_read(self, workspace, tmp_path, caplog):
        """The head settings are checked before any input is opened: exit 2, not 3."""
        assert self.run_transfer(workspace, workspace / "blobs.json",
                                 tmp_path / "missing.csv", tmp_path / "t.json",
                                 extra=["--weight-decay", "inf"]) == 2
        assert "weight_decay must be a finite number" in caplog.text

    def test_missing_original_schema_is_io_error(self, workspace, tmp_path, caplog):
        assert main(["transfer-eval", "--target-csv", str(workspace / "blobs.csv"),
                     "--target-schema", str(workspace / "blobs.json"),
                     "--original-schema", str(tmp_path / "nope.json"),
                     "--original-state", str(workspace / "prep" / "preprocessor.json"),
                     "--encoder", str(workspace / "enc.npz"),
                     "--out", str(tmp_path / "t.json")] + HEAD_FLAGS) == 3
        assert "nope.json' is neither a schema file nor a packaged schema" in caplog.text

    @pytest.mark.parametrize("text", ['{"features": [', "[]"], ids=["truncated", "list"])
    @pytest.mark.parametrize("flag", ["--target-schema", "--original-schema",
                                      "--original-state"])
    def test_malformed_json_input_is_schema_error(self, workspace, tmp_path, flag, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text, encoding="utf-8")
        args = {"--target-schema": workspace / "blobs.json",
                "--original-schema": workspace / "blobs.json",
                "--original-state": workspace / "prep" / "preprocessor.json", flag: bad}
        assert main(["transfer-eval", "--target-csv", str(workspace / "blobs.csv"),
                     "--encoder", str(workspace / "enc.npz"),
                     "--out", str(tmp_path / "t.json")]
                    + [str(part) for pair in args.items() for part in pair]
                    + HEAD_FLAGS) == 4

    def test_non_finite_state_is_schema_error(self, workspace, tmp_path):
        doc = json.loads((workspace / "prep" / "preprocessor.json").read_text())
        doc["maxima"][next(iter(doc["maxima"]))] = float("inf")
        state = tmp_path / "state.json"
        state.write_text(json.dumps(doc), encoding="utf-8")
        assert "Infinity" in state.read_text(encoding="utf-8")
        assert main(["transfer-eval", "--target-csv", str(workspace / "blobs.csv"),
                     "--target-schema", str(workspace / "blobs.json"),
                     "--original-schema", str(workspace / "blobs.json"),
                     "--original-state", str(state), "--encoder", str(workspace / "enc.npz"),
                     "--out", str(tmp_path / "t.json")] + HEAD_FLAGS) == 4

    @pytest.mark.parametrize("mutate", [
        lambda d: d["minima"].update(f00="abc"),
        lambda d: d.update(minima=list(d["minima"].values())),
        lambda d: d["minima"].update(f00="0.1"),
        lambda d: d["maxima"].update(f00=True),
    ], ids=["str-minimum", "list-minima", "numeric-str-minimum", "bool-maximum"])
    def test_mistyped_state_is_schema_error(self, workspace, tmp_path, caplog, mutate):
        doc = json.loads((workspace / "prep" / "preprocessor.json").read_text())
        mutate(doc)
        state = tmp_path / "state.json"
        state.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["transfer-eval", "--target-csv", str(workspace / "blobs.csv"),
                     "--target-schema", str(workspace / "blobs.json"),
                     "--original-schema", str(workspace / "blobs.json"),
                     "--original-state", str(state), "--encoder", str(workspace / "enc.npz"),
                     "--out", str(tmp_path / "t.json")] + HEAD_FLAGS) == 4
        assert "must be an object of numbers" in caplog.text

    def test_target_rows_are_freed_before_scoring(self, workspace, tmp_path, monkeypatch):
        rows, freed = [], []
        real_load, real_score = cli.load_csv, cli.run_head_stage

        def load(path, schema, unseen):
            loaded = real_load(path, schema, unseen)
            rows.append(weakref.ref(loaded))
            return loaded

        def score(*args):
            freed.append([ref() is None for ref in rows])
            return real_score(*args)

        monkeypatch.setattr(cli, "load_csv", load)
        monkeypatch.setattr(cli, "run_head_stage", score)
        assert self.run_transfer(workspace, workspace / "target13.json",
                                 workspace / "target13.csv", tmp_path / "t.json") == 0
        assert freed == [[True]]

    def test_original_schema_off_the_encoder_width_exits_5(self, workspace, tmp_path, caplog):
        """An original schema that encodes to 13 positions cannot feed the 16-wide encoder."""
        prep = tmp_path / "prep13"
        assert main(["preprocess", "--schema", str(workspace / "target13.json"),
                     "--train-csv", str(workspace / "target13.csv"), "--out-dir", str(prep)]) == 0
        assert main(["transfer-eval", "--target-csv", str(workspace / "target13.csv"),
                     "--target-schema", str(workspace / "target13.json"),
                     "--original-schema", str(workspace / "target13.json"),
                     "--original-state", str(prep / "preprocessor.json"),
                     "--encoder", str(workspace / "enc.npz"),
                     "--out", str(tmp_path / "t.json")] + HEAD_FLAGS) == 5
        assert "encoder expects width 16 but the original schema encodes to 13" in caplog.text
        assert not (tmp_path / "t.json").exists()

    def test_disjoint_schemas_exit_code(self, workspace, tmp_path):
        from flowcl.dataio import DatasetSchema, Feature

        other = DatasetSchema((Feature("zzz", "numeric"),), "label",
                              ("normal", "attack"))
        other_path = tmp_path / "other.json"
        save_schema(str(other_path), other)
        csv_path = tmp_path / "other.csv"
        csv_path.write_text("zzz,label\n1.0,normal\n2.0,attack\n", encoding="utf-8")
        assert self.run_transfer(workspace, other_path, csv_path,
                                 tmp_path / "o.json") == 6

    def test_alias_bridges_renamed_feature(self, workspace, tmp_path):
        schema = load_schema(str(workspace / "blobs.json"))
        renamed = blob_schema(16)
        from flowcl.dataio import DatasetSchema, Feature

        feats = tuple(Feature("feature_00" if f.name == "f00" else f.name, "numeric")
                      for f in renamed.features)
        target = DatasetSchema(feats, "label", ("normal", "attack"))
        target_path = tmp_path / "renamed.json"
        save_schema(str(target_path), target)
        text = (workspace / "blobs.csv").read_text(encoding="utf-8")
        csv_path = tmp_path / "renamed.csv"
        csv_path.write_text(text.replace("f00", "feature_00", 1), encoding="utf-8")
        alias_path = tmp_path / "alias.txt"
        alias_path.write_text("f00 = feature_00\n", encoding="utf-8")
        out = tmp_path / "renamed.json.out"
        assert self.run_transfer(workspace, target_path, csv_path, out,
                                 extra=["--alias", str(alias_path)]) == 0
        doc = json.loads((out).read_text())
        assert doc["alignment"] == {"mapped": 16, "masked": 0, "omitted": 0}
        assert schema.encoded_width == 16

    @pytest.mark.parametrize("text, message", [
        ("f00 = feature_00\n", "the target schema has no feature 'feature_00'"),
        ("duration = f00\n", "the original schema has no feature 'duration'"),
        ("f00 = f01\nF00 = f02\n", "'F00' is already renamed"),
    ], ids=["unknown-target", "unknown-original", "repeated-original"])
    def test_bad_alias_is_config_error(self, workspace, tmp_path, caplog, text, message):
        alias_path = tmp_path / "alias.txt"
        alias_path.write_text(text, encoding="utf-8")
        assert self.run_transfer(workspace, workspace / "blobs.json", workspace / "blobs.csv",
                                 tmp_path / "t.json", extra=["--alias", str(alias_path)]) == 2
        assert message in caplog.text
        assert not (tmp_path / "t.json").exists()

    def test_non_utf8_alias_is_config_error(self, workspace, tmp_path, caplog):
        alias_path = tmp_path / "alias.txt"
        alias_path.write_bytes(b"f00 = f\xff00\n")
        assert self.run_transfer(workspace, workspace / "blobs.json", workspace / "blobs.csv",
                                 tmp_path / "t.json", extra=["--alias", str(alias_path)]) == 2
        assert f"{alias_path} is not UTF-8 text" in caplog.text
        assert not (tmp_path / "t.json").exists()

    def test_alias_across_kinds_is_config_error(self, workspace, tmp_path, caplog):
        from flowcl.dataio import DatasetSchema, Feature

        # The blobs features with f00 replaced by a categorical proto.
        feats = tuple(Feature("proto", "categorical", ("tcp", "udp")) if f.name == "f00"
                      else f for f in load_schema(str(workspace / "blobs.json")).features)
        target_path = tmp_path / "proto.json"
        save_schema(str(target_path), DatasetSchema(feats, "label", ("normal", "attack")))
        csv_path = tmp_path / "proto.csv"
        lines = (workspace / "blobs.csv").read_text(encoding="utf-8").splitlines()
        csv_path.write_text("\n".join([lines[0].replace("f00", "proto", 1)]
                                      + ["tcp" + line[line.index(","):] for line in lines[1:]])
                            + "\n", encoding="utf-8")
        alias_path = tmp_path / "alias.txt"
        alias_path.write_text("f00 = proto\n", encoding="utf-8")
        assert self.run_transfer(workspace, target_path, csv_path, tmp_path / "t.json",
                                 extra=["--alias", str(alias_path)]) == 2
        assert "alias 'f00 = proto': 'f00' is numeric but 'proto' is categorical" in caplog.text
        assert not (tmp_path / "t.json").exists()
        # Without the alias the name never matches, so f00 is masked and the run goes on.
        assert self.run_transfer(workspace, target_path, csv_path, tmp_path / "t.json") == 0
        doc = json.loads((tmp_path / "t.json").read_text())
        assert doc["alignment"] == {"mapped": 15, "masked": 1, "omitted": 2}


class TestCsvDefects:
    """Defects of the CSV file itself exit 4 with the file named, in both readers of CSVs."""

    @pytest.mark.parametrize("command", ["preprocess", "transfer-eval"])
    @pytest.mark.parametrize("defect, message", [
        (lambda text: text.encode("utf-8").replace(b",attack\n", b",Web Attack \x96 XSS\n", 1),
         "is not UTF-8 text: byte 0x96"),
        (lambda text: text.replace(",attack\n", "," + "a" * 131073 + "\n", 1).encode("utf-8"),
         "line 202: field larger than field limit (131072)"),
    ], ids=["non-utf8", "long-field"])
    def test_defect_is_parse_error(self, workspace, tmp_path, caplog, command, defect, message):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(defect((workspace / "blobs.csv").read_text(encoding="utf-8")))
        if command == "preprocess":
            args = ["--schema", str(workspace / "blobs.json"), "--train-csv", str(bad),
                    "--out-dir", str(tmp_path / "out")]
        else:
            args = ["--target-csv", str(bad), "--target-schema", str(workspace / "blobs.json"),
                    "--original-schema", str(workspace / "blobs.json"),
                    "--original-state", str(workspace / "prep" / "preprocessor.json"),
                    "--encoder", str(workspace / "enc.npz"),
                    "--out", str(tmp_path / "t.json")] + HEAD_FLAGS
        assert main([command] + args) == 4
        assert f"{bad}" in caplog.text and message in caplog.text


def run_cli(*args):
    """The flowcl command in a child process, so its stderr shows any traceback."""
    src = os.path.dirname(os.path.dirname(flowcl.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-m", "flowcl.cli", *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=300)


def assert_error_exit(done, code, text):
    """Exit `code` without a traceback, the last stderr line naming `text`."""
    assert done.returncode == code
    assert "Traceback" not in done.stderr
    assert text in done.stderr.splitlines()[-1]


class TestEmptyTestSide:
    """2 rows per class all land on the training side at split 0.8: every head
    stage fails at the split (exit 5), before any features are computed."""

    @pytest.fixture(scope="class")
    def tiny(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("tiny")
        schema = blob_schema(16)
        save_schema(str(root / "blobs.json"), schema)
        for name, per_class in (("blobs", 2), ("larger", 20)):
            write_csv(str(root / f"{name}.csv"), schema,
                      generate_blobs(schema, per_class, seed=5))
            assert main(["preprocess", "--schema", str(root / "blobs.json"),
                         "--train-csv", str(root / f"{name}.csv"),
                         "--out-dir", str(root / name)]) == 0
        width = load_encoded(str(root / "blobs" / "train.npz"))[0].layout.width
        config = EncoderConfig((Conv(4), MaxPool(2), Conv(8)), width, 4)
        save_encoder(str(root / "enc.npz"), *build_encoder(config, seed=0))
        # A head for the same classes, trained on a file large enough to split.
        assert main(["train-head", "--data", str(root / "larger" / "train.npz"),
                     "--encoder", str(root / "enc.npz"), "--out", str(root / "head.npz")]
                    + HEAD_FLAGS) == 0
        return root

    def test_train_head_exits_5(self, tiny):
        done = run_cli("train-head", "--data", tiny / "blobs" / "train.npz",
                       "--encoder", tiny / "enc.npz", "--out", tiny / "tiny-head.npz",
                       *HEAD_FLAGS)
        assert_error_exit(done, 5, "leaves no held-out rows")
        assert done.stderr.count("\n") == 1
        assert not (tiny / "tiny-head.npz").exists()

    def test_evaluate_exits_5(self, tiny):
        assert_error_exit(run_cli(
            "evaluate", "--data", tiny / "blobs" / "train.npz", "--encoder", tiny / "enc.npz",
            "--head", tiny / "head.npz", "--out", tiny / "report.json"),
            5, "leaves no held-out rows")
        assert not (tiny / "report.json").exists()

    def test_transfer_eval_exits_5(self, tiny):
        assert_error_exit(run_cli(
            "transfer-eval", "--target-csv", tiny / "blobs.csv",
            "--target-schema", tiny / "blobs.json", "--original-schema", tiny / "blobs.json",
            "--original-state", tiny / "blobs" / "preprocessor.json",
            "--encoder", tiny / "enc.npz", "--out", tiny / "transfer.json", *HEAD_FLAGS),
            5, "leaves no held-out rows")
        assert not (tiny / "transfer.json").exists()


class TestEmptyTask:
    """A multiclass task whose classes have no rows exits 5 with one error line."""

    @pytest.fixture(scope="class")
    def absent(self, tmp_path_factory):
        """Rows of classes normal and attack under a schema that also names class c."""
        root = tmp_path_factory.mktemp("absent")
        blobs = blob_schema(8)
        save_schema(str(root / "abc.json"), replace(blobs, class_names=("normal", "attack", "c")))
        write_csv(str(root / "abc.csv"), blobs, generate_blobs(blobs, 20, seed=5))
        assert main(["preprocess", "--schema", str(root / "abc.json"),
                     "--train-csv", str(root / "abc.csv"), "--out-dir", str(root / "prep")]) == 0
        config = EncoderConfig((Conv(4), MaxPool(2), Conv(8)), 8, 4)
        save_encoder(str(root / "enc.npz"), *build_encoder(config, seed=0))
        return root

    def assert_exits_5(self, argv, caplog):
        caplog.clear()
        assert main(argv + ["--task", "multiclass", "--classes", "c", "--epochs", "1"]) == 5
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert errors == ["no rows of classes ['c'] among 40"]

    def test_train_head_exits_5(self, absent, caplog):
        self.assert_exits_5(["train-head", "--data", str(absent / "prep" / "train.npz"),
                             "--encoder", str(absent / "enc.npz"),
                             "--out", str(absent / "head.npz")], caplog)
        assert not (absent / "head.npz").exists()

    def test_transfer_eval_exits_5(self, absent, caplog):
        self.assert_exits_5(["transfer-eval", "--target-csv", str(absent / "abc.csv"),
                             "--target-schema", str(absent / "abc.json"),
                             "--original-schema", str(absent / "abc.json"),
                             "--original-state", str(absent / "prep" / "preprocessor.json"),
                             "--encoder", str(absent / "enc.npz"),
                             "--out", str(absent / "transfer.json")], caplog)
        assert not (absent / "transfer.json").exists()


class TestCheckpointMismatch:
    """Checkpoints that contradict themselves fail at load, with exit 7."""

    @pytest.fixture(scope="class")
    def mixed_encoder(self, workspace, tmp_path_factory):
        """The workspace encoder's meta over Conv6-Pool2-Conv10 arrays."""
        root = tmp_path_factory.mktemp("mixed")
        other = EncoderConfig((Conv(6), MaxPool(2), Conv(10)), 16, 8)
        save_encoder(str(root / "other.npz"), *build_encoder(other, seed=0))
        arrays, _ = load_arrays(str(root / "other.npz"))
        _, meta = load_arrays(str(workspace / "enc.npz"))
        save_arrays(str(root / "mixed.npz"), arrays, meta=meta)
        return root / "mixed.npz"

    @pytest.mark.parametrize("command", ["train-head", "evaluate", "transfer-eval"])
    def test_encoder_arrays_off_config_exit_7(self, workspace, trained_head, mixed_encoder,
                                              tmp_path, command):
        data = ["--data", workspace / "prep" / "train.npz"]
        args = {"train-head": [*data, "--out", tmp_path / "h.npz", *HEAD_FLAGS],
                "evaluate": [*data, "--head", trained_head, "--out", tmp_path / "r.json"],
                "transfer-eval": ["--target-csv", workspace / "blobs.csv",
                                  "--target-schema", workspace / "blobs.json",
                                  "--original-schema", workspace / "blobs.json",
                                  "--original-state", workspace / "prep" / "preprocessor.json",
                                  "--out", tmp_path / "t.json", *HEAD_FLAGS]}[command]
        done = run_cli(command, "--encoder", mixed_encoder, *args)
        assert_error_exit(done, 7, "array 'kernel0' has shape (6, 1, 2), "
                                   "its config needs (8, 1, 2)")
        assert done.stderr.count("\n") == 1
        assert os.listdir(tmp_path) == []

    def test_string_encoder_array_exits_7(self, workspace, tmp_path):
        arrays, meta = load_arrays(str(workspace / "enc.npz"))
        arrays["gamma0"] = arrays["gamma0"].astype(str)
        broken = tmp_path / "broken.npz"
        save_arrays(str(broken), arrays, meta=meta)
        done = run_cli("train-head", "--data", workspace / "prep" / "train.npz",
                       "--encoder", broken, "--out", tmp_path / "h.npz", *HEAD_FLAGS)
        assert_error_exit(done, 7, "array 'gamma0' has dtype <U")
        assert not (tmp_path / "h.npz").exists()

    def test_string_head_array_exits_7(self, workspace, trained_head, tmp_path):
        arrays, meta = load_arrays(str(trained_head))
        arrays["weight"] = arrays["weight"].astype(str)
        broken = tmp_path / "broken-head.npz"
        save_arrays(str(broken), arrays, meta=meta)
        done = run_cli("evaluate", "--data", workspace / "prep" / "train.npz",
                       "--encoder", workspace / "enc.npz", "--head", broken,
                       "--out", tmp_path / "r.json")
        assert_error_exit(done, 7, "array 'weight' has dtype <U")
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("key", ["weight", "bias"])
    def test_head_without_an_array_exits_7(self, workspace, trained_head, tmp_path, caplog,
                                           key):
        arrays, meta = load_arrays(str(trained_head))
        del arrays[key]
        broken = tmp_path / "broken-head.npz"
        save_arrays(str(broken), arrays, meta=meta)
        assert main(["evaluate", "--data", str(workspace / "prep" / "train.npz"),
                     "--encoder", str(workspace / "enc.npz"),
                     "--head", str(broken), "--out", str(tmp_path / "r.json")]) == 7
        assert f"lacks array '{key}'" in caplog.text
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("rows, bias, message", [
        (2, 3, "do not make a head"), (3, 3, "2 class names for a 3-class head")],
        ids=["long-bias", "extra-class"])
    def test_head_shape_disagreement_exits_7(self, workspace, trained_head, tmp_path, caplog,
                                             rows, bias, message):
        """A bias of the wrong length, or a class the meta does not name, fails at load."""
        arrays, meta = load_arrays(str(trained_head))
        arrays = {"weight": np.resize(arrays["weight"], (rows, arrays["weight"].shape[1])),
                  "bias": np.resize(arrays["bias"], bias)}
        broken = tmp_path / "broken-head.npz"
        save_arrays(str(broken), arrays, meta=meta)
        assert main(["evaluate", "--data", str(workspace / "prep" / "train.npz"),
                     "--encoder", str(workspace / "enc.npz"),
                     "--head", str(broken), "--out", str(tmp_path / "r.json")]) == 7
        assert message in caplog.text
        assert not (tmp_path / "r.json").exists()


class TestParser:
    def test_bad_subcommand_exits_via_argparse(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_bad_choice_exits_via_argparse(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["train-head", "--task", "ternary"])
        assert err.value.code == 2

    def test_flags_types_choices_and_help(self):
        """Every subcommand's flags, as (dest, type, choices, help); --config besides."""
        head_stage = {
            "--task": ("task", "str", ("binary", "multiclass"), None),
            "--classes": ("classes", "str", None,
                          "comma-separated class names to keep (multiclass)"),
            "--normal-class": ("normal_class", "str", None,
                               "class treated as benign for --task binary"),
            "--representation": ("representation", "str", ("hidden", "context"), None),
            "--label-fraction": ("label_fraction", "float", None, None),
            "--split-fraction": ("split_fraction", "float", None, None),
            "--epochs": ("epochs", "int", None, None),
            "--batch-size": ("batch_size", "int", None, None),
            "--lr": ("lr", "float", None, None),
            "--weight-decay": ("weight_decay", "float", None, None),
            "--seed": ("seed", "int", None, None),
        }

        def paths(*names):
            return {"--" + n.replace("_", "-"): (n, "str", None, None) for n in names}

        expected = {
            "preprocess": {
                **paths("train_csv", "test_csv", "out_dir"),
                "--schema": ("schema", "str", None,
                             "packaged schema name or a schema JSON path"),
            },
            "pretrain": {
                "--data": ("data", "str", None, "encoded .npz from preprocess"),
                "--out": ("out", "str", None, "encoder checkpoint path (.npz)"),
                "--arch": ("arch", "str", None, "encoder preset (smaller-pack or larger-pack)"),
                "--batch-size": ("batch_size", "int", None, None),
                "--temperature": ("temperature", "float", None, None),
                "--epochs": ("epochs", "int", None, None),
                "--mask-ratio": ("mask_ratio", "float", None, None),
                "--group-mask": ("group_mask", "bool", None, None),
                "--holdout-fraction": ("holdout_fraction", "float", None, None),
                "--lr": ("lr", "float", None, None),
                "--lr-gamma": ("lr_gamma", "float", None, None),
                "--weight-decay": ("weight_decay", "float", None, None),
                "--seed": ("seed", "int", None, None),
            },
            "train-head": {**paths("data", "encoder", "out"), **head_stage},
            "evaluate": paths("data", "encoder", "head", "out"),
            "transfer-eval": {
                **paths("target_csv", "target_schema", "original_schema", "original_state",
                        "encoder", "out"),
                "--alias": ("alias", "str", None,
                            "text file of 'original = target' feature renames"),
                **head_stage,
            },
        }
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == list(expected)
        for name, parser in sub.choices.items():
            flags = {}
            for action in parser._actions:
                if isinstance(action, argparse._HelpAction):
                    continue
                kind = ("bool" if isinstance(action, argparse.BooleanOptionalAction)
                        else (action.type or str).__name__)
                flags[action.option_strings[0]] = (action.dest, kind, action.choices,
                                                   action.help)
            assert flags.pop("--config")[:3] == ("config", "str", None)
            assert flags == expected[name], name
        group_mask = next(a for a in sub.choices["pretrain"]._actions
                          if a.dest == "group_mask")
        assert group_mask.option_strings == ["--group-mask", "--no-group-mask"]


class TestAllocatorPolicy:
    """main() raises glibc's mmap and trim thresholds; elsewhere it does nothing."""

    NO_OP = [(logging.DEBUG, "allocator thresholds left at their defaults")]

    def test_main_sets_glibc_thresholds(self, monkeypatch, tmp_path):
        calls = []
        lib = SimpleNamespace(mallopt=lambda param, value: calls.append((param, value)) or 1)
        monkeypatch.setattr(cli, "platform", SimpleNamespace(libc_ver=lambda: ("glibc", "2.36")))
        monkeypatch.setattr(cli, "ctypes", SimpleNamespace(CDLL=lambda name: lib,
                                                           c_int=ctypes.c_int))
        assert main(["preprocess", "--out-dir", str(tmp_path)]) == 2
        # M_MMAP_THRESHOLD is -3 and M_TRIM_THRESHOLD is -1 in glibc's malloc.h.
        assert calls == [(-3, 64 << 20), (-1, 256 << 20)]

    @pytest.mark.parametrize("libc, lib", [
        (("", ""), None),
        (("musl", "1.2.4"), None),
        (("glibc", "2.36"), SimpleNamespace()),
        (("glibc", "2.36"), SimpleNamespace(mallopt=lambda param, value: 0)),
    ], ids=["unknown-libc", "musl", "no-mallopt", "mallopt-rejects"])
    def test_elsewhere_is_a_silent_no_op(self, monkeypatch, caplog, libc, lib):
        def cdll(name):
            assert lib is not None, "opened the C library outside glibc"
            return lib

        monkeypatch.setattr(cli, "platform", SimpleNamespace(libc_ver=lambda: libc))
        monkeypatch.setattr(cli, "ctypes", SimpleNamespace(CDLL=cdll, c_int=ctypes.c_int))
        with caplog.at_level(logging.DEBUG, logger="flowcl"):
            cli._keep_freed_pages()
        assert [(r.levelno, r.getMessage()) for r in caplog.records] == self.NO_OP

    @pytest.mark.skipif(cli.platform.libc_ver()[0] != "glibc", reason="needs glibc")
    def test_this_glibc_accepts_the_thresholds(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="flowcl"):
            cli._keep_freed_pages()
        assert caplog.records == []
