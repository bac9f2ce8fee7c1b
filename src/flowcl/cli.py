"""The `flowcl` command: preprocess, pretrain, train-head, evaluate, transfer-eval.

Every subcommand reads an optional JSON config file (--config) whose keys
are the flag names with dashes turned into underscores; explicit flags win
over the file, the file wins over built-in defaults, and unknown keys are
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
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys

from . import __version__
from .augment import MaskingConfig
from .dataio import (
    TransformStats,
    binarize,
    encode_dataset,
    filter_classes,
    fit_preprocessor,
    load_csv,
    load_encoded,
    load_schema,
    load_state,
    packaged_schema,
    random_split,
    save_encoded,
    save_state,
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
from .sscl import ContrastiveConfig, HeadConfig, evaluate_head, head_split, pretrain, train_head
from .transfer import (
    build_alignment,
    fit_transfer_preprocessor,
    parse_alias_table,
    transfer_evaluate,
)

logger = logging.getLogger("flowcl")

_LOG_LEVELS = {"debug": logging.DEBUG, "info": logging.INFO,
               "warning": logging.WARNING, "error": logging.ERROR}


def _setup_logging() -> None:
    level = _LOG_LEVELS.get(os.environ.get("FLOWCL_LOG", "info").lower(), logging.INFO)
    logging.basicConfig(stream=sys.stderr, level=level, format="%(message)s")


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


def _resolve(args: argparse.Namespace, defaults: dict, required: tuple) -> dict:
    """defaults < config file < explicit flags; unknown or missing keys fail."""
    given = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    resolved = dict(defaults)
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise ConfigError(f"config file {args.config}: {err}") from None
        if not isinstance(doc, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON object")
        unknown = sorted(set(doc) - set(defaults))
        if unknown:
            raise ConfigError(f"unknown config keys {unknown}; "
                              f"valid keys: {sorted(defaults)}")
        resolved.update(doc)
    for key, value in given.items():
        if value is not None:
            resolved[key] = value
    for key in required:
        if resolved.get(key) is None:
            raise ConfigError(f"missing required setting '{key}' "
                              f"(flag --{key.replace('_', '-')})")
    return resolved


def _schema_by_name_or_path(value: str):
    if os.path.exists(value):
        return load_schema(value)
    return packaged_schema(value)


def _apply_task(dataset, task: str, classes, normal_class: str):
    """Restrict the labeled dataset to the requested classification task."""
    if task == "binary":
        return binarize(dataset, normal_class)
    if task == "multiclass":
        keep = [c.strip() for c in classes.split(",")] if classes else list(dataset.class_names)
        return filter_classes(dataset, keep)
    raise ConfigError(f"task must be 'binary' or 'multiclass', got {task!r}")


# ---------------------------------------------------------------------------
# Subcommands


PREPROCESS_DEFAULTS = {
    "schema": None, "train_csv": None, "test_csv": None, "out_dir": None,
}


def cmd_preprocess(cfg: dict) -> None:
    schema = _schema_by_name_or_path(cfg["schema"])
    train_records = load_csv(cfg["train_csv"], schema)
    state = fit_preprocessor(train_records, schema)
    os.makedirs(cfg["out_dir"], exist_ok=True)
    state_path = os.path.join(cfg["out_dir"], "preprocessor.json")
    save_state(state_path, state)
    inputs = [cfg["train_csv"]]
    outputs = [state_path]
    stats = TransformStats()
    train_ds = encode_dataset(train_records, state, stats)
    train_path = os.path.join(cfg["out_dir"], "train.npz")
    save_encoded(train_path, train_ds, schema.fingerprint())
    outputs.append(train_path)
    logger.info("encoded width %d", train_ds.width)
    logger.info("train class counts: %s",
                json.dumps(train_ds.class_counts(), sort_keys=True))
    if cfg["test_csv"] is not None:
        test_records = load_csv(cfg["test_csv"], schema)
        test_ds = encode_dataset(test_records, state, stats)
        test_path = os.path.join(cfg["out_dir"], "test.npz")
        save_encoded(test_path, test_ds, schema.fingerprint())
        inputs.append(cfg["test_csv"])
        outputs.append(test_path)
        logger.info("test class counts: %s",
                    json.dumps(test_ds.class_counts(), sort_keys=True))
    if stats.unseen:
        logger.warning("unseen categories encoded as all-zero blocks: %s",
                       json.dumps(stats.unseen, sort_keys=True))
    _write_manifest(os.path.join(cfg["out_dir"], "manifest.json"),
                    "preprocess", cfg, inputs, outputs)


PRETRAIN_DEFAULTS = {
    "data": None, "out": None, "arch": "smaller-pack",
    "layers": None, "context_dim": None, "schema": None,
    "batch_size": 32, "temperature": 0.5, "epochs": 100, "mask_ratio": 0.3,
    "group_mask": False, "holdout_fraction": 0.2,
    "lr": 2e-4, "lr_gamma": 0.99, "weight_decay": 0.01, "seed": 0,
}


def cmd_pretrain(cfg: dict) -> None:
    dataset, meta = load_encoded(cfg["data"])
    if cfg["layers"] is not None:
        if cfg["context_dim"] is None:
            raise ConfigError("custom 'layers' also need 'context_dim'")
        config = EncoderConfig(parse_layers(cfg["layers"]), dataset.width,
                               int(cfg["context_dim"]))
    else:
        config = preset_config(cfg["arch"], dataset.width)
    groups = None
    if cfg["group_mask"]:
        if cfg["schema"] is None:
            raise ConfigError("group masking needs --schema to recover feature blocks")
        schema = _schema_by_name_or_path(cfg["schema"])
        if schema.fingerprint() != meta.get("schema_fingerprint"):
            raise SchemaMismatchError(
                "--schema does not match the schema the data was encoded with")
        groups = [(start, stop) for _, start, stop in schema.block_spans()]
    masking = MaskingConfig(ratio=float(cfg["mask_ratio"]), rng_seed=int(cfg["seed"]),
                            group_mask=bool(cfg["group_mask"]))
    contrastive = ContrastiveConfig(
        batch_size=int(cfg["batch_size"]), temperature=float(cfg["temperature"]),
        epochs=int(cfg["epochs"]), masking=masking, lr=float(cfg["lr"]),
        lr_gamma=float(cfg["lr_gamma"]), weight_decay=float(cfg["weight_decay"]),
        seed=int(cfg["seed"]))
    logger.info("temperature %g, batch size %d, mask ratio %g",
                contrastive.temperature, contrastive.batch_size, masking.ratio)
    encoder, projector = build_encoder(config, int(cfg["seed"]))
    logger.info("encoder+projection parameters: %d",
                count_parameters(encoder, projector))
    holdout_fraction = float(cfg["holdout_fraction"])
    if not 0.0 <= holdout_fraction < 1.0:
        raise ConfigError(f"holdout_fraction must lie in [0, 1), got {holdout_fraction}")
    if holdout_fraction > 0.0:
        train, hold = random_split(dataset, 1.0 - holdout_fraction,
                                   int(cfg["seed"]), label="pretrain-split")
        holdout_x = hold.x if len(hold) >= 2 else None
    else:
        train, holdout_x = dataset, None
    history = pretrain(encoder, projector, train.x, contrastive,
                       groups=groups, holdout=holdout_x)
    if history:
        logger.info("epoch 0 loss %.6f -> final loss %.6f",
                    history[0]["loss"], history[-1]["loss"])
    save_encoder(cfg["out"], encoder, projector, extra_meta={
        "root_seed": int(cfg["seed"]),
        "contrastive": {
            "batch_size": contrastive.batch_size,
            "temperature": contrastive.temperature,
            "epochs": contrastive.epochs,
            "mask_ratio": masking.ratio,
            "group_mask": masking.group_mask,
        },
        "schema_fingerprint": meta.get("schema_fingerprint"),
    })
    history_path = os.path.splitext(cfg["out"])[0] + "-history.json"
    write_json(history_path, {"history": history})
    _write_manifest(cfg["out"] + ".manifest.json", "pretrain", cfg,
                    [cfg["data"]], [cfg["out"], history_path])


HEAD_STAGE_DEFAULTS = {
    "data": None, "encoder": None,
    "task": "binary", "classes": None, "normal_class": "Normal",
    "representation": "hidden", "label_fraction": 1.0, "split_fraction": 0.8,
    "epochs": 200, "batch_size": 32, "lr": 0.01, "weight_decay": 0.01, "seed": 0,
}

TRAIN_HEAD_DEFAULTS = dict(HEAD_STAGE_DEFAULTS, out=None)


def _head_config(cfg: dict) -> HeadConfig:
    return HeadConfig(representation=cfg["representation"], epochs=int(cfg["epochs"]),
                      batch_size=int(cfg["batch_size"]), lr=float(cfg["lr"]),
                      weight_decay=float(cfg["weight_decay"]), seed=int(cfg["seed"]))


def _head_protocol(cfg: dict) -> dict:
    """The settings that fix a head stage's split, as reports and heads record them."""
    return {"task": cfg["task"], "representation": cfg["representation"],
            "label_fraction": float(cfg["label_fraction"]),
            "split_fraction": float(cfg["split_fraction"]), "seed": int(cfg["seed"])}


def _load_task_data(encoder_path: str, data_path: str, task: str, classes,
                    normal_class: str):
    """Frozen encoder plus the encoded dataset restricted to the task."""
    encoder, projector, _ = load_encoder(encoder_path)
    dataset, _ = load_encoded(data_path)
    return encoder, projector, _apply_task(dataset, task, classes, normal_class)


def _report_doc(protocol: dict, train_count: int, test_count: int, report,
                class_names) -> dict:
    """The evaluate / transfer-eval report body."""
    doc = {key: protocol[key] for key in
           ("task", "representation", "label_fraction", "split_fraction", "seed")}
    doc.update(train_count=train_count, test_count=test_count,
               metrics=report_to_dict(report, class_names=class_names))
    return doc


def cmd_train_head(cfg: dict) -> None:
    encoder, projector, task_ds = _load_task_data(
        cfg["encoder"], cfg["data"], cfg["task"], cfg["classes"], cfg["normal_class"])
    protocol = _head_protocol(cfg)
    train, _ = head_split(task_ds, protocol["split_fraction"],
                          protocol["label_fraction"], protocol["seed"])
    logger.info("training on %d labeled samples: %s", len(train),
                json.dumps(train.class_counts(), sort_keys=True))
    head = train_head(encoder, projector, train.x, train.labels,
                      len(task_ds.class_names), _head_config(cfg))
    save_head(cfg["out"], head, extra_meta={
        **protocol,
        "classes": list(task_ds.class_names),
        "normal_class": cfg["normal_class"],
        "requested_classes": cfg["classes"],
        "train_count": len(train),
        "data_sha256": _sha256(cfg["data"]),
    })
    _write_manifest(cfg["out"] + ".manifest.json", "train-head", cfg,
                    [cfg["data"], cfg["encoder"]], [cfg["out"]])


EVALUATE_DEFAULTS = {"data": None, "encoder": None, "head": None, "out": None}

# Head meta keys that evaluate needs to re-derive the split and the report.
_HEAD_META_KEYS = ("task", "classes", "split_fraction", "label_fraction", "seed",
                   "train_count", "representation")


def cmd_evaluate(cfg: dict) -> None:
    head, head_meta = load_head(cfg["head"])
    missing = [key for key in _HEAD_META_KEYS if key not in head_meta]
    if missing:
        raise CheckpointError(f"head checkpoint {cfg['head']} lacks meta keys {missing}")
    encoder, projector, task_ds = _load_task_data(
        cfg["encoder"], cfg["data"], head_meta["task"],
        head_meta.get("requested_classes"), head_meta.get("normal_class", "Normal"))
    if head_meta.get("data_sha256") not in (None, _sha256(cfg["data"])):
        logger.warning("--data differs from the file the head was trained on; "
                       "the train/test split will not line up")
    if list(task_ds.class_names) != list(head_meta["classes"]):
        raise SchemaMismatchError(
            f"dataset classes {list(task_ds.class_names)} do not match the "
            f"head's classes {list(head_meta['classes'])}")
    _, test = head_split(task_ds, head_meta["split_fraction"], head_meta["label_fraction"],
                         head_meta["seed"])
    report = evaluate_head(encoder, projector, head, test.x, test.labels,
                           head_meta["representation"])
    write_json(cfg["out"], _report_doc(head_meta, head_meta["train_count"], len(test),
                                       report, task_ds.class_names))
    logger.info("accuracy %.4f, weighted f1 %.4f", report.accuracy, report.f1)
    _write_manifest(cfg["out"] + ".manifest.json", "evaluate", cfg,
                    [cfg["data"], cfg["encoder"], cfg["head"]], [cfg["out"]])


TRANSFER_DEFAULTS = {k: v for k, v in HEAD_STAGE_DEFAULTS.items() if k != "data"}
TRANSFER_DEFAULTS.update({
    "encoder": None, "target_csv": None, "target_schema": None,
    "original_schema": None, "original_state": None,
    "alias": None, "out": None,
})


def cmd_transfer_eval(cfg: dict) -> None:
    original_schema = _schema_by_name_or_path(cfg["original_schema"])
    target_schema = _schema_by_name_or_path(cfg["target_schema"])
    original_state = load_state(cfg["original_state"], original_schema)
    aliases = ()
    if cfg["alias"] is not None:
        with open(cfg["alias"], "r", encoding="utf-8") as fh:
            aliases = parse_alias_table(fh.read())
    encoder, projector, _ = load_encoder(cfg["encoder"])
    amap = build_alignment(original_schema, target_schema, aliases)
    if encoder.config.input_width != amap.width:
        raise InvalidShapeError(
            f"encoder expects width {encoder.config.input_width} but the original "
            f"schema encodes to {amap.width}")
    logger.info("alignment: %d mapped, %d masked, %d omitted",
                amap.mapped, amap.masked, amap.omitted)
    target_records = load_csv(cfg["target_csv"], target_schema)
    state = fit_transfer_preprocessor(original_state, target_records,
                                      target_schema, aliases)
    stats = TransformStats()
    target_ds = encode_dataset(target_records, state, stats)
    if stats.unseen:
        logger.warning("unseen categories in target data: %s",
                       json.dumps(stats.unseen, sort_keys=True))
    task_ds = _apply_task(target_ds, cfg["task"], cfg["classes"], cfg["normal_class"])
    protocol = _head_protocol(cfg)
    result = transfer_evaluate(encoder, projector, amap, task_ds, _head_config(cfg),
                               split_fraction=protocol["split_fraction"],
                               label_fraction=protocol["label_fraction"])
    doc = _report_doc(protocol, result.train_count, result.test_count, result.report,
                      task_ds.class_names)
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


def _add_head_stage_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--task", choices=("binary", "multiclass"))
    p.add_argument("--classes", help="comma-separated class names to keep (multiclass)")
    p.add_argument("--normal-class", dest="normal_class",
                   help="class treated as benign for --task binary")
    p.add_argument("--representation", choices=("hidden", "context"))
    p.add_argument("--label-fraction", dest="label_fraction", type=float)
    p.add_argument("--split-fraction", dest="split_fraction", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--weight-decay", dest="weight_decay", type=float)
    p.add_argument("--seed", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowcl",
        description="Self-supervised contrastive pretraining for flow records.")
    parser.add_argument("--version", action="version", version=f"flowcl {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="fit min-max/one-hot encoding and encode CSVs")
    p.add_argument("--config", help="JSON settings file; flags override it")
    p.add_argument("--schema", help="packaged schema name or a schema JSON path")
    p.add_argument("--train-csv", dest="train_csv")
    p.add_argument("--test-csv", dest="test_csv")
    p.add_argument("--out-dir", dest="out_dir")

    p = sub.add_parser("pretrain", help="self-supervised contrastive pretraining")
    p.add_argument("--config")
    p.add_argument("--data", help="encoded .npz from preprocess")
    p.add_argument("--out", help="encoder checkpoint path (.npz)")
    p.add_argument("--arch", help="encoder preset (smaller-pack or larger-pack)")
    p.add_argument("--schema", help="schema for --group-mask feature blocks")
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--temperature", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--mask-ratio", dest="mask_ratio", type=float)
    p.add_argument("--group-mask", dest="group_mask",
                   action=argparse.BooleanOptionalAction)
    p.add_argument("--holdout-fraction", dest="holdout_fraction", type=float)
    p.add_argument("--lr", type=float)
    p.add_argument("--lr-gamma", dest="lr_gamma", type=float)
    p.add_argument("--weight-decay", dest="weight_decay", type=float)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("train-head", help="fit a classification head on frozen features")
    p.add_argument("--config")
    p.add_argument("--data")
    p.add_argument("--encoder")
    p.add_argument("--out")
    _add_head_stage_flags(p)

    p = sub.add_parser("evaluate", help="score a trained head on the held-out split")
    p.add_argument("--config")
    p.add_argument("--data")
    p.add_argument("--encoder")
    p.add_argument("--head")
    p.add_argument("--out")

    p = sub.add_parser("transfer-eval",
                       help="align a foreign schema and evaluate the frozen encoder")
    p.add_argument("--config")
    p.add_argument("--target-csv", dest="target_csv")
    p.add_argument("--target-schema", dest="target_schema")
    p.add_argument("--original-schema", dest="original_schema")
    p.add_argument("--original-state", dest="original_state")
    p.add_argument("--alias", help="text file of 'original = target' feature renames")
    p.add_argument("--encoder")
    p.add_argument("--out")
    _add_head_stage_flags(p)

    return parser


_COMMANDS = {
    "preprocess": (cmd_preprocess, PREPROCESS_DEFAULTS, ("schema", "train_csv", "out_dir")),
    "pretrain": (cmd_pretrain, PRETRAIN_DEFAULTS, ("data", "out")),
    "train-head": (cmd_train_head, TRAIN_HEAD_DEFAULTS, ("data", "encoder", "out")),
    "evaluate": (cmd_evaluate, EVALUATE_DEFAULTS, ("data", "encoder", "head", "out")),
    "transfer-eval": (cmd_transfer_eval, TRANSFER_DEFAULTS,
                      ("target_csv", "target_schema", "original_schema",
                       "original_state", "encoder", "out")),
}


def _exit_code(err: Exception) -> int:
    if isinstance(err, NoSharedFeaturesError):
        return 6
    if isinstance(err, CheckpointError):
        return 7
    if isinstance(err, ConfigError):
        return 2
    if isinstance(err, (SchemaMismatchError, RowParseError)):
        return 4
    if isinstance(err, (FlowclError, FloatingPointError)):
        return 5
    if isinstance(err, OSError):
        return 3
    return 1


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    handler, defaults, required = _COMMANDS[args.command]
    try:
        handler(_resolve(args, defaults, required))
    except (FlowclError, FloatingPointError, OSError) as err:
        logger.error("%s", err)
        return _exit_code(err)
    return 0


if __name__ == "__main__":
    sys.exit(main())
