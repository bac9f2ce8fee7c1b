"""The `flowcl` command: preprocess, pretrain, train-head, evaluate, transfer-eval.

Each subcommand declares its settings once, in a table of `Setting`s that
makes its flags, type-checks its config values and gives its defaults. Every
subcommand reads an optional JSON config file (--config) whose keys are the
flag names with dashes turned into underscores; explicit flags win over the
file, the file wins over built-in defaults, and unknown or mistyped keys are
rejected. Alongside its primary output each command writes a manifest with
the resolved settings and sha256 checksums of inputs and outputs; rerunning
a command with identical inputs reproduces every artifact byte for byte.

Exit codes:
    0  success
    1  unexpected internal error
    2  configuration or usage error
    3  file I/O error
    4  schema or CSV parse error
    5  data or numeric error (insufficient samples, missing labels, ...)
    6  transfer schemas share no features
    7  checkpoint format error

Log verbosity comes from the FLOWCL_LOG environment variable
(debug/info/warning/error, default info); logs go to stderr.

Under glibc, `main` first raises the allocator's mmap and trim thresholds, so
activation buffers freed after a training step or a scoring chunk are reused
by the next one instead of being unmapped and faulted in again.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import logging
import os
import platform
import shutil
import sys
import tempfile
from dataclasses import fields
from typing import Any, NamedTuple

from . import __version__
from .augment import MaskingConfig
from .dataio import (
    encode_dataset,
    fit_preprocessor,
    load_csv,
    load_encoded,
    load_json_object,
    load_schema,
    load_state,
    packaged_schema,
    save_encoded,
    save_state,
    task_rows,
    write_json,
)
from .errors import (
    CheckpointError,
    ConfigError,
    FlowclError,
    InvalidShapeError,
    NoSharedFeaturesError,
    RowParseError,
    SchemaMismatchError,
    checked,
)
from .metrics import report_to_dict
from .model import (
    EncoderConfig,
    build_encoder,
    count_parameters,
    load_encoder,
    load_head,
    parse_layers,
    preset_config,
    save_encoder,
    save_head,
)
from .sscl import (REPRESENTATIONS, ContrastiveConfig, HeadConfig, evaluate_head, head_split,
                   pretrain, run_head_stage, train_head)
from .transfer import build_alignment, encode_aligned, parse_alias_table

logger = logging.getLogger("flowcl")

_LOG_LEVELS = {"debug": logging.DEBUG, "info": logging.INFO,
               "warning": logging.WARNING, "error": logging.ERROR}


def _setup_logging() -> None:
    level = _LOG_LEVELS.get(os.environ.get("FLOWCL_LOG", "info").lower(), logging.INFO)
    logging.basicConfig(stream=sys.stderr, level=level, format="%(message)s")


# glibc mallopt parameters and the values main() sets. Arrays up to 64 MB (the
# largest encoder activation at width 196 is a 12.7 MB conv buffer, the
# 128-channel output of a training step's 64 views or of a 64-row eval chunk)
# come from the heap and are reused; bigger ones, such as the numerics of a
# large encoded file, are still mmapped and returned on free. Up to 256 MB of
# free heap top is kept.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_BYTES, _TRIM_THRESHOLD_BYTES = 64 << 20, 256 << 20


def _keep_freed_pages() -> None:
    """Have glibc keep freed activation pages in the process; elsewhere do nothing."""
    mallopt = (getattr(ctypes.CDLL(None), "mallopt", None)
               if platform.libc_ver()[0] == "glibc" else None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        if (mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
                and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)):
            return
    logger.debug("allocator thresholds left at their defaults")


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(manifest_path: str, command: str, config: dict,
                    inputs: list[str], outputs: list[str]) -> None:
    doc = {
        "command": command,
        "config": config,
        "inputs": {p: _sha256(p) for p in inputs},
        "outputs": {p: _sha256(p) for p in outputs},
        "tool": "flowcl",
        "version": __version__,
    }
    write_json(manifest_path, doc)


class Setting(NamedTuple):
    """One setting of a subcommand: default, flag help and choices, checks.

    Its flag `--key-with-dashes` parses `_kind(setting)` (a bool gets
    --x/--no-x) and a config-file value must have that type; `flag=False`
    makes the setting config-only.
    """

    default: Any = None
    help: str | None = None
    choices: tuple | None = None
    required: bool = False
    kind: type | None = None
    flag: bool = True


def _kind(setting: Setting) -> type:
    """The declared kind, else the default's type; str for a None default."""
    if setting.kind is not None:
        return setting.kind
    return str if setting.default is None else type(setting.default)


def _config_value(key: str, value, setting: Setting):
    """A config-file value checked against its setting; an int is taken as a float."""
    if value is None and setting.default is None:
        return None
    value = checked(value, _kind(setting), f"setting '{key}'", ConfigError)
    if setting.choices is not None and value not in setting.choices:
        raise ConfigError(f"setting '{key}' must be one of {list(setting.choices)}, "
                          f"got {value!r}")
    return value


def _config_defaults(config_type, *names: str) -> dict:
    """Settings that take their defaults from the same-named fields of a config class."""
    return {name: Setting(getattr(config_type, name)) for name in names}


def _config_from(config_type, cfg: dict, **given):
    """An instance of a config class, its fields read from the same-named settings."""
    return config_type(**given, **{f.name: cfg[f.name] for f in fields(config_type)
                                   if f.name not in given})


def _resolve(args: argparse.Namespace, settings: dict) -> dict:
    """defaults < config file < explicit flags; unknown, mistyped or missing keys fail."""
    resolved = {key: setting.default for key, setting in settings.items()}
    if args.config is not None:
        doc = load_json_object(args.config, ConfigError)
        unknown = sorted(set(doc) - set(settings))
        if unknown:
            raise ConfigError(f"unknown config keys {unknown}; "
                              f"valid keys: {sorted(settings)}")
        for key, value in doc.items():
            resolved[key] = _config_value(key, value, settings[key])
    for key, setting in settings.items():
        if getattr(args, key, None) is not None:
            resolved[key] = getattr(args, key)
        if setting.required and resolved[key] is None:
            raise ConfigError(f"missing required setting '{key}' "
                              f"(flag --{key.replace('_', '-')})")
    return resolved


def _schema_by_name_or_path(value: str):
    if os.path.exists(value):
        return load_schema(value)
    return packaged_schema(value)


# ---------------------------------------------------------------------------
# Subcommands


PREPROCESS_SETTINGS = {
    "schema": Setting(help="packaged schema name or a schema JSON path", required=True),
    "train_csv": Setting(required=True),
    "test_csv": Setting(),
    "out_dir": Setting(required=True),
}


def cmd_preprocess(cfg: dict) -> None:
    """Fit on the train split, then encode and save each split in turn.

    A split's parsed and encoded tables both go before the next split is read.
    Outputs are written to a staging directory inside the out-dir and moved
    into place only once every split is encoded, so a split that fails leaves
    the out-dir as it was.
    """
    schema = _schema_by_name_or_path(cfg["schema"])
    out_dir = cfg["out_dir"]
    state_path = os.path.join(out_dir, "preprocessor.json")
    state, unseen, inputs, outputs = None, {}, [], [state_path]
    made_dir = not os.path.isdir(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    staging = tempfile.mkdtemp(prefix=".preprocess-", dir=out_dir)
    try:
        for split in ("train", "test"):
            csv_path = cfg[split + "_csv"]
            if csv_path is None:
                continue
            table = load_csv(csv_path, schema, unseen)
            if state is None:
                state = fit_preprocessor(table, schema)
                save_state(os.path.join(staging, "preprocessor.json"), state)
                logger.info("encoded width %d", schema.encoded_width)
            dataset = encode_dataset(table, state)
            del table
            save_encoded(os.path.join(staging, split + ".npz"), dataset, schema.fingerprint())
            inputs.append(csv_path)
            outputs.append(os.path.join(out_dir, split + ".npz"))
            logger.info("%s class counts: %s", split,
                        json.dumps(dataset.class_counts(), sort_keys=True))
            del dataset
        for path in outputs:
            os.replace(os.path.join(staging, os.path.basename(path)), path)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
        if made_dir and not os.listdir(out_dir):
            os.rmdir(out_dir)
    if unseen:
        logger.warning("unseen categories encoded as all-zero blocks: %s",
                       json.dumps(unseen, sort_keys=True))
    _write_manifest(os.path.join(out_dir, "manifest.json"),
                    "preprocess", cfg, inputs, outputs)


PRETRAIN_SETTINGS = {
    "data": Setting(help="encoded .npz from preprocess", required=True),
    "out": Setting(help="encoder checkpoint path (.npz)", required=True),
    "arch": Setting("smaller-pack", "encoder preset (smaller-pack or larger-pack)"),
    "layers": Setting(kind=list, flag=False),
    "context_dim": Setting(kind=int, flag=False),
    "schema": Setting(help="schema for --group-mask feature blocks"),
    **_config_defaults(ContrastiveConfig, "batch_size", "temperature", "epochs"),
    "mask_ratio": Setting(MaskingConfig.ratio),
    "group_mask": Setting(False),
    "holdout_fraction": Setting(0.2),
    **_config_defaults(ContrastiveConfig, "lr", "lr_gamma", "weight_decay", "seed"),
}


def cmd_pretrain(cfg: dict) -> None:
    # The settings are checked before any file is read.
    masking = MaskingConfig(ratio=cfg["mask_ratio"])
    contrastive = _config_from(ContrastiveConfig, cfg, masking=masking)
    table, meta = load_encoded(cfg["data"])
    if cfg["layers"] is not None:
        if cfg["context_dim"] is None:
            raise ConfigError("custom 'layers' also need 'context_dim'")
        config = EncoderConfig(parse_layers(cfg["layers"]), table.layout.width,
                               cfg["context_dim"])
    else:
        config = preset_config(cfg["arch"], table.layout.width)
    groups = None
    if cfg["group_mask"]:
        if cfg["schema"] is None:
            raise ConfigError("group masking needs --schema to recover feature blocks")
        schema = _schema_by_name_or_path(cfg["schema"])
        if schema.fingerprint() != meta.get("schema_fingerprint"):
            raise SchemaMismatchError(
                "--schema does not match the schema the data was encoded with")
        groups = [(start, stop) for _, start, stop in schema.block_spans()]
    logger.info("temperature %g, batch size %d, mask ratio %g",
                contrastive.temperature, contrastive.batch_size, masking.ratio)
    encoder, projector = build_encoder(config, cfg["seed"])
    logger.info("encoder+projection parameters: %d",
                count_parameters(encoder, projector))
    history = pretrain(encoder, projector, table, contrastive, groups=groups)
    if history:
        logger.info("epoch 0 loss %.6f -> final loss %.6f",
                    history[0]["loss"], history[-1]["loss"])
    save_encoder(cfg["out"], encoder, projector, extra_meta={
        "root_seed": cfg["seed"],
        "contrastive": {key: cfg[key] for key in
                        ("batch_size", "temperature", "epochs", "mask_ratio", "group_mask")},
        "schema_fingerprint": meta.get("schema_fingerprint"),
    })
    history_path = os.path.splitext(cfg["out"])[0] + "-history.json"
    write_json(history_path, {"history": history})
    _write_manifest(cfg["out"] + ".manifest.json", "pretrain", cfg,
                    [cfg["data"]], [cfg["out"], history_path])


HEAD_STAGE_SETTINGS = {
    "task": Setting("binary", choices=("binary", "multiclass")),
    "classes": Setting(help="comma-separated class names to keep (multiclass)"),
    "normal_class": Setting("Normal", "class treated as benign for --task binary"),
    "representation": Setting(HeadConfig.representation, choices=REPRESENTATIONS),
    **_config_defaults(HeadConfig, "label_fraction", "split_fraction", "epochs", "batch_size",
                       "lr", "weight_decay", "seed"),
}

TRAIN_HEAD_SETTINGS = {**{key: Setting(required=True) for key in ("data", "encoder", "out")},
                       **HEAD_STAGE_SETTINGS}

# The settings that fix a head stage's split, as heads and reports record them.
_PROTOCOL_KEYS = ("task", "representation", "label_fraction", "split_fraction", "seed")


def _load_task_data(encoder_path: str, data_path: str, task: str, classes,
                    normal_class: str):
    """Frozen encoder, the loaded table, and the task's rows of it; no row is copied."""
    encoder, projector, _ = load_encoder(encoder_path)
    table, _ = load_encoded(data_path)
    return encoder, projector, table, task_rows(table.labels, table.class_names,
                                                task, classes, normal_class)


def _report_doc(protocol: dict, train_count: int, test_count: int, report,
                class_names) -> dict:
    """The evaluate / transfer-eval report body."""
    doc = {key: protocol[key] for key in _PROTOCOL_KEYS}
    doc.update(train_count=train_count, test_count=test_count,
               metrics=report_to_dict(report, class_names=class_names))
    return doc


def cmd_train_head(cfg: dict) -> None:
    config = _config_from(HeadConfig, cfg)
    encoder, projector, table, task = _load_task_data(
        cfg["encoder"], cfg["data"], cfg["task"], cfg["classes"], cfg["normal_class"])
    train = task.gather(table, head_split(task.labels, config)[0])
    logger.info("training on %d labeled samples: %s", len(train),
                json.dumps(train.class_counts(), sort_keys=True))
    head = train_head(encoder, projector, train, train.labels, len(task.class_names), config)
    save_head(cfg["out"], head, extra_meta={
        **{key: cfg[key] for key in _PROTOCOL_KEYS},
        "classes": list(task.class_names),
        "normal_class": cfg["normal_class"],
        "requested_classes": cfg["classes"],
        "train_count": len(train),
        "data_sha256": _sha256(cfg["data"]),
    })
    _write_manifest(cfg["out"] + ".manifest.json", "train-head", cfg,
                    [cfg["data"], cfg["encoder"]], [cfg["out"]])


EVALUATE_SETTINGS = {key: Setting(required=True) for key in ("data", "encoder", "head", "out")}

# Head meta keys that evaluate needs to re-derive the split and the report.
_HEAD_META_KEYS = _PROTOCOL_KEYS + ("classes", "train_count")


def cmd_evaluate(cfg: dict) -> None:
    head, head_meta = load_head(cfg["head"])
    missing = [key for key in _HEAD_META_KEYS if key not in head_meta]
    if missing:
        raise CheckpointError(f"head checkpoint {cfg['head']} lacks meta keys {missing}")
    try:
        protocol = {key: _config_value(key, head_meta[key], HEAD_STAGE_SETTINGS[key])
                    for key in _PROTOCOL_KEYS}
        config = HeadConfig(**{key: protocol[key] for key in _PROTOCOL_KEYS if key != "task"})
        normal_class = _config_value("normal_class", head_meta.get("normal_class", "Normal"),
                                     HEAD_STAGE_SETTINGS["normal_class"])
        requested = _config_value("requested_classes", head_meta.get("requested_classes"),
                                  HEAD_STAGE_SETTINGS["classes"])
        classes = checked(head_meta["classes"], list, "classes", ConfigError, of=str)
        if len(classes) != head.n_classes:
            raise ConfigError(f"{len(classes)} class names for a {head.n_classes}-class head")
        train_count = checked(head_meta["train_count"], int, "train_count", ConfigError)
        if train_count < 0:
            raise ConfigError(f"train_count must be non-negative, got {train_count}")
    except ConfigError as err:
        raise CheckpointError(f"head checkpoint {cfg['head']}: {err}") from None
    encoder, projector, table, task = _load_task_data(
        cfg["encoder"], cfg["data"], protocol["task"], requested, normal_class)
    if head_meta.get("data_sha256") not in (None, _sha256(cfg["data"])):
        logger.warning("--data differs from the file the head was trained on; "
                       "the train/test split will not line up")
    if list(task.class_names) != classes:
        raise SchemaMismatchError(
            f"dataset classes {list(task.class_names)} do not match the "
            f"head's classes {classes}")
    test = task.gather(table, head_split(task.labels, config)[1])
    report = evaluate_head(encoder, projector, head, test, test.labels, config.representation)
    write_json(cfg["out"], _report_doc(protocol, train_count, len(test),
                                       report, task.class_names))
    logger.info("accuracy %.4f, weighted f1 %.4f", report.accuracy, report.f1)
    _write_manifest(cfg["out"] + ".manifest.json", "evaluate", cfg,
                    [cfg["data"], cfg["encoder"], cfg["head"]], [cfg["out"]])


TRANSFER_SETTINGS = {
    **{key: Setting(required=True) for key in
       ("target_csv", "target_schema", "original_schema", "original_state")},
    "alias": Setting(help="text file of 'original = target' feature renames"),
    "encoder": Setting(required=True), "out": Setting(required=True),
    **HEAD_STAGE_SETTINGS,
}


def cmd_transfer_eval(cfg: dict) -> None:
    config = _config_from(HeadConfig, cfg)
    original_schema = _schema_by_name_or_path(cfg["original_schema"])
    target_schema = _schema_by_name_or_path(cfg["target_schema"])
    original_state = load_state(cfg["original_state"], original_schema)
    aliases = ()
    if cfg["alias"] is not None:
        try:
            with open(cfg["alias"], "r", encoding="utf-8") as fh:
                aliases = parse_alias_table(fh.read())
        except UnicodeDecodeError as err:
            raise ConfigError(f"{cfg['alias']} is not UTF-8 text: {err}") from None
    encoder, projector, _ = load_encoder(cfg["encoder"])
    amap = build_alignment(original_schema, target_schema, aliases)
    if encoder.config.input_width != amap.width:
        raise InvalidShapeError(
            f"encoder expects width {encoder.config.input_width} but the original "
            f"schema encodes to {amap.width}")
    logger.info("alignment: %d mapped, %d masked, %d omitted",
                amap.mapped, amap.masked, amap.omitted)
    unseen: dict[str, int] = {}
    target_table = load_csv(cfg["target_csv"], target_schema, unseen)
    target = encode_aligned(target_table, target_schema, original_state, amap)
    del target_table  # free the parsed table before scoring
    if unseen:
        logger.warning("unseen categories in target data: %s",
                       json.dumps(unseen, sort_keys=True))
    task = task_rows(target.labels, target.class_names, cfg["task"], cfg["classes"],
                     cfg["normal_class"])
    result = run_head_stage(encoder, projector, target, task, config)
    doc = _report_doc(cfg, result.train_count, result.test_count, result.report,
                      task.class_names)
    doc["alignment"] = {"mapped": amap.mapped, "masked": amap.masked,
                        "omitted": amap.omitted}
    write_json(cfg["out"], doc)
    logger.info("transfer accuracy %.4f", result.report.accuracy)
    inputs = [cfg["target_csv"], cfg["original_state"], cfg["encoder"]]
    inputs += [p for p in (cfg["original_schema"], cfg["target_schema"], cfg["alias"])
               if p is not None and os.path.exists(p)]
    _write_manifest(cfg["out"] + ".manifest.json", "transfer-eval", cfg,
                    inputs, [cfg["out"]])


# ---------------------------------------------------------------------------
# Argument parsing and dispatch


_COMMANDS = {
    "preprocess": (cmd_preprocess, PREPROCESS_SETTINGS,
                   "fit min-max/one-hot encoding and encode CSVs"),
    "pretrain": (cmd_pretrain, PRETRAIN_SETTINGS, "self-supervised contrastive pretraining"),
    "train-head": (cmd_train_head, TRAIN_HEAD_SETTINGS,
                   "fit a classification head on frozen features"),
    "evaluate": (cmd_evaluate, EVALUATE_SETTINGS,
                 "score a trained head on the held-out split"),
    "transfer-eval": (cmd_transfer_eval, TRANSFER_SETTINGS,
                      "align a foreign schema and evaluate the frozen encoder"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowcl",
        description="Self-supervised contrastive pretraining for flow records.")
    parser.add_argument("--version", action="version", version=f"flowcl {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, settings, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON settings file; flags override it")
        for key, setting in settings.items():
            if not setting.flag:
                continue
            kind = _kind(setting)
            how = ({"action": argparse.BooleanOptionalAction} if kind is bool
                   else {"type": kind, "choices": setting.choices})
            p.add_argument("--" + key.replace("_", "-"), dest=key, help=setting.help, **how)
    return parser


# Each error kind's exit code, the first match winning; any other error exits 1.
_EXIT_CODES = ((NoSharedFeaturesError, 6), (CheckpointError, 7), (ConfigError, 2),
               ((SchemaMismatchError, RowParseError), 4),
               ((FlowclError, FloatingPointError), 5), (OSError, 3))


def _exit_code(err: Exception) -> int:
    return next((code for kinds, code in _EXIT_CODES if isinstance(err, kinds)), 1)


def main(argv=None) -> int:
    _setup_logging()
    _keep_freed_pages()
    parser = build_parser()
    args = parser.parse_args(argv)
    handler, settings, _ = _COMMANDS[args.command]
    try:
        handler(_resolve(args, settings))
    except (FlowclError, FloatingPointError, OSError) as err:
        logger.error("%s", err)
        return _exit_code(err)
    return 0


if __name__ == "__main__":
    sys.exit(main())
