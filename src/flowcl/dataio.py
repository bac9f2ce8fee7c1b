"""Dataset schemas, CSV ingestion, min-max + one-hot encoding, and splits.

A schema declares the feature layout (names, kinds, categorical
vocabularies) up front, so the encoded width is known before any data is
read and stays identical across machines. Fitting touches only the training
rows; encoding is a pure function of (parsed table, fitted state).

A row has one type from the CSV to the batch, `FlowTable`: float64 numerics
(min-max scaled once encoded), an int64 code per categorical (-1 for an
all-zero block) and an int64 label. `FlowTable.dense` is the one place a
one-hot row is built, a batch or a scoring chunk at a time.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    ConfigError,
    EmptyDatasetError,
    InsufficientDataError,
    InvalidShapeError,
    MissingLabelError,
    RowParseError,
    SchemaMismatchError,
    UnknownClassError,
    checked,
)
from .numgrad.checkpoint import load_arrays, save_arrays
from .seeding import substream

SCHEMA_FORMAT_VERSION = 1
STATE_FORMAT_VERSION = 1

UNLABELED = -1  # label slot for rows with an empty label column

MASK_VALUE = "-"  # categorical value masked to an all-zero block

# The widest layout an encoded file may declare. Its width is a number in the
# meta, not data that has to exist, so a damaged one could otherwise ask for a
# dense batch of any size; at 2**16 a 64-row chunk is 32 MiB.
MAX_ENCODED_WIDTH = 2**16


class UnseenCategoryWarning(UserWarning):
    """A categorical value outside the schema vocabulary was zero-masked."""


class DegenerateFeatureWarning(UserWarning):
    """A numeric feature was constant on the fitting data (min == max)."""


@dataclass(frozen=True)
class Feature:
    """One schema column: numeric, or categorical with a frozen vocabulary."""

    name: str
    kind: str
    vocabulary: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.name or self.name != self.name.strip():
            raise SchemaMismatchError(f"bad feature name {self.name!r}")
        if self.kind not in ("numeric", "categorical"):
            raise SchemaMismatchError(f"feature {self.name}: kind must be numeric or categorical")
        object.__setattr__(self, "vocabulary", tuple(self.vocabulary))
        if self.kind == "categorical":
            if not self.vocabulary:
                raise SchemaMismatchError(f"feature {self.name}: categorical needs a vocabulary")
            lowered = [v.lower() for v in self.vocabulary]
            if len(set(lowered)) != len(lowered):
                raise SchemaMismatchError(f"feature {self.name}: duplicate vocabulary entries")
        elif self.vocabulary:
            raise SchemaMismatchError(f"feature {self.name}: numeric features carry no vocabulary")

    @property
    def width(self) -> int:
        return 1 if self.kind == "numeric" else len(self.vocabulary)


class Layout(NamedTuple):
    """Where a table's columns go in the dense row: the row's width, each
    numeric's position, each categorical block's start and width."""

    width: int
    numeric: np.ndarray
    starts: np.ndarray
    widths: np.ndarray

    def spans(self) -> list[tuple[int, int]]:
        """(start, stop) of each numeric's position and each categorical's block, in order."""
        return sorted([(int(p), int(p) + 1) for p in self.numeric]
                      + [(int(s), int(s) + int(w)) for s, w in zip(self.starts, self.widths)])


def spans_tile(spans, width: int) -> bool:
    """Whether (start, stop) spans cover the positions of a row of `width` >= 1, in order."""
    stops = [0] + [stop for _, stop in spans]
    return (stops[-1] == width > 0 and [start for start, _ in spans] == stops[:-1]
            and all(np.diff(stops) > 0))


@dataclass(frozen=True)
class DatasetSchema:
    """Ordered feature list plus the label column and class names.

    label_aliases maps label spellings seen in data files onto canonical
    class names (e.g. a dataset revision that renamed a class), matched
    case-insensitively.
    """

    features: tuple[Feature, ...]
    label_column: str
    class_names: tuple[str, ...]
    description: str = ""
    label_aliases: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "features", tuple(self.features))
        object.__setattr__(self, "class_names", tuple(self.class_names))
        object.__setattr__(self, "label_aliases",
                           tuple((a, c) for a, c in self.label_aliases))
        if not self.features:
            raise SchemaMismatchError("schema needs at least one feature")
        names = [f.name.lower() for f in self.features]
        if len(set(names)) != len(names):
            raise SchemaMismatchError("feature names must be unique (case-insensitive)")
        if not self.label_column:
            raise SchemaMismatchError("label_column is required")
        if self.label_column.lower() in names:
            raise SchemaMismatchError("label_column must not also be a feature")
        if not self.class_names or len(set(self.class_names)) != len(self.class_names):
            raise SchemaMismatchError("class_names must be non-empty and unique")
        lowered_classes = {c.lower() for c in self.class_names}
        for alias, canonical in self.label_aliases:
            if canonical not in self.class_names:
                raise SchemaMismatchError(
                    f"label alias target {canonical!r} is not a class name")
            if alias.lower() in lowered_classes:
                raise SchemaMismatchError(f"label alias {alias!r} shadows a class name")

    @property
    def encoded_width(self) -> int:
        return sum(f.width for f in self.features)

    def layout(self) -> Layout:
        numeric = np.array([f.kind == "numeric" for f in self.features])
        widths = np.array([f.width for f in self.features], dtype=np.int64)
        starts = np.cumsum(widths) - widths
        return Layout(int(widths.sum()), starts[numeric], starts[~numeric], widths[~numeric])

    def class_index(self, name: str) -> int:
        spellings = {a.lower(): c for a, c in self.label_aliases}
        spellings |= {c.lower(): c for c in reversed(self.class_names)}  # the first class wins
        if name.lower() not in spellings:
            raise UnknownClassError(f"label {name!r} is not among classes {self.class_names}")
        return self.class_names.index(spellings[name.lower()])

    def fingerprint(self) -> str:
        canon = json.dumps(schema_to_dict(self), sort_keys=True)
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def schema_to_dict(schema: DatasetSchema) -> dict:
    features = []
    for f in schema.features:
        entry: dict = {"name": f.name, "kind": f.kind}
        if f.kind == "categorical":
            entry["vocabulary"] = list(f.vocabulary)
        features.append(entry)
    out = {
        "format_version": SCHEMA_FORMAT_VERSION,
        "label_column": schema.label_column,
        "class_names": list(schema.class_names),
        "features": features,
    }
    if schema.description:
        out["description"] = schema.description
    if schema.label_aliases:
        out["label_aliases"] = {a: c for a, c in schema.label_aliases}
    return out


def _field(doc: dict, key: str, kind: type, what: str, of: type | None = None):
    """A schema field checked for its JSON type; an absent one is kind()'s empty value."""
    return checked(doc.get(key, kind()), kind, what, SchemaMismatchError, of)


def schema_from_dict(doc: dict) -> DatasetSchema:
    if not isinstance(doc, dict):
        raise SchemaMismatchError("schema document must be a JSON object")
    allowed = {"format_version", "label_column", "class_names", "features",
               "description", "label_aliases"}
    unknown = set(doc) - allowed
    if unknown:
        raise SchemaMismatchError(f"unknown schema keys: {sorted(unknown)}")
    if doc.get("format_version") != SCHEMA_FORMAT_VERSION:
        raise SchemaMismatchError(
            f"unsupported schema format version {doc.get('format_version')!r}")
    features = []
    for entry in _field(doc, "features", list, "features", of=dict):
        extra = set(entry) - {"name", "kind", "vocabulary"}
        if extra:
            raise SchemaMismatchError(f"unknown feature keys: {sorted(extra)}")
        name = _field(entry, "name", str, "feature name")
        features.append(Feature(name, _field(entry, "kind", str, f"feature {name}: kind"),
                                _field(entry, "vocabulary", list, f"feature {name}: vocabulary",
                                       of=str)))
    aliases = doc.get("label_aliases", {})
    if not isinstance(aliases, dict) or not all(isinstance(c, str) for c in aliases.values()):
        raise SchemaMismatchError("label_aliases must map label spellings to class names")
    return DatasetSchema(tuple(features), _field(doc, "label_column", str, "label_column"),
                         _field(doc, "class_names", list, "class_names", of=str),
                         _field(doc, "description", str, "description"),
                         tuple(sorted(aliases.items())))


def save_schema(path: str, schema: DatasetSchema) -> None:
    write_json(path, schema_to_dict(schema))


def load_json_object(path: str, error: type[Exception] = SchemaMismatchError) -> dict:
    """The JSON object a file holds; raise `error` naming the file for anything else."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as err:
            raise error(f"{path} is not valid JSON: {err}") from None
    if not isinstance(doc, dict):
        raise error(f"{path} must hold a JSON object")
    return doc


def load_schema(path: str) -> DatasetSchema:
    return schema_from_dict(load_json_object(path))


def packaged_schema(name: str) -> DatasetSchema:
    """Load a schema shipped inside the package by file stem; FileNotFoundError if none."""
    folder = os.path.join(os.path.dirname(__file__), "schemas")
    names = sorted(entry[:-len(".json")] for entry in os.listdir(folder))
    if name not in names:
        raise FileNotFoundError(f"{name!r} is neither a schema file nor a packaged schema "
                                f"({', '.join(names)})")
    return load_schema(os.path.join(folder, name + ".json"))


PARSE_BLOCK_ROWS = 512  # CSV rows held as text before they become array rows


@dataclass(frozen=True)
class FlowTable:
    """Rows from the CSV to the batch: float64 numerics (min-max scaled once
    encoded) and int64 category codes (-1 for "-" and unseen values) in schema
    order, int64 labels (UNLABELED if empty), class names and the dense layout."""

    numeric: np.ndarray
    codes: np.ndarray
    labels: np.ndarray
    class_names: tuple[str, ...]
    layout: Layout

    def __len__(self) -> int:
        return self.labels.shape[0]

    def class_counts(self) -> dict[str, int]:
        return {name: int(np.sum(self.labels == i)) for i, name in enumerate(self.class_names)}

    def dense(self, idx) -> np.ndarray:
        """The dense float64 rows at `idx` (row indices or a slice), as the encoder reads
        them: each numeric at its position, 1.0 at each coded category, zeros elsewhere."""
        numeric, codes = self.numeric[idx], self.codes[idx]
        out = np.zeros((len(numeric), self.layout.width))
        out[:, self.layout.numeric] = numeric
        rows, cols = np.nonzero(codes >= 0)
        out[rows, self.layout.starts[cols] + codes[rows, cols]] = 1.0
        return out


def as_table(x) -> FlowTable:
    """`x` if it is a FlowTable; a dense float64 matrix as unlabeled rows of
    numerics at every position, whose `dense` rows are its own, bit for bit."""
    if isinstance(x, FlowTable):
        return x
    data = np.asarray(x, dtype=np.float64)
    if data.ndim != 2:
        raise InvalidShapeError(f"expected a [samples, width] matrix, got {data.shape}")
    (n, width), none = data.shape, np.zeros(0, dtype=np.int64)
    return FlowTable(data, np.zeros((n, 0), dtype=np.int64), np.full(n, UNLABELED),
                     (), Layout(width, np.arange(width), none, none))


def _row_error(numeric: list[tuple[Feature, int]], width: int,
               rows: list[tuple[int, list[str]]]) -> RowParseError:
    """The first row that is short or has a numeric cell that is not a finite number."""
    for row_idx, row in rows:
        if len(row) < width:
            return RowParseError(row_idx, f"expected {width} fields, got {len(row)}")
        for f, c in numeric:
            raw = row[c].strip()
            try:
                value = float(raw)
            except ValueError:
                return RowParseError(row_idx, f"feature {f.name}: {raw!r} is not numeric")
            if not math.isfinite(value):
                return RowParseError(row_idx, f"feature {f.name}: {raw!r} is not a finite number")


def _block_arrays(path: str, schema: DatasetSchema, cols: dict[str, int], width: int,
                  unseen: dict[str, int] | None, rows: list[tuple[int, list[str]]]):
    """Numeric, code and label arrays of (row number, cells) pairs read from `path`."""
    numeric = [(f, cols[f.name]) for f in schema.features if f.kind == "numeric"]
    try:
        values = np.array([[float(row[c]) for _, c in numeric] for _, row in rows],
                          dtype=np.float64).reshape(len(rows), len(numeric))
        valid = np.isfinite(values).all() and all(len(row) >= width for _, row in rows)
    except (ValueError, IndexError):
        valid = False
    if not valid:
        raise _row_error(numeric, width, rows)
    categorical = [f for f in schema.features if f.kind == "categorical"]
    codes = np.empty((len(rows), len(categorical)), dtype=np.int64)
    for j, f in enumerate(categorical):
        index = {v.lower(): k for k, v in enumerate(f.vocabulary)} | {MASK_VALUE: -1}
        cells = [row[cols[f.name]].strip() for _, row in rows]
        codes[:, j] = [index.get(cell.lower(), -1) for cell in cells]
        missed = [cell for cell in cells if cell.lower() not in index]
        for value in dict.fromkeys(missed):
            warnings.warn(f"feature {f.name}: unseen category {value!r} zero-masked",
                          UnseenCategoryWarning, stacklevel=3)
        if unseen is not None and missed:
            unseen[f.name] = unseen.get(f.name, 0) + len(missed)
    names = [row[cols[schema.label_column]].strip() for _, row in rows]
    label_of = {}
    for name in dict.fromkeys(names):
        try:
            label_of[name] = schema.class_index(name) if name else UNLABELED
        except UnknownClassError as err:  # data row N is line N + 1, under the header
            line = rows[names.index(name)][0] + 1
            raise UnknownClassError(f"{path}, line {line}: {err}") from None
    return values, codes, np.array([label_of[n] for n in names], dtype=np.int64)


def load_csv(path: str, schema: DatasetSchema,
             unseen: dict[str, int] | None = None) -> FlowTable:
    """Parse a UTF-8 CSV with a header row against the schema, PARSE_BLOCK_ROWS at a time.

    Header names match case-insensitively, in any order; extra columns are
    ignored, and of a repeated name the first column is read. A short row or
    a numeric cell that is not a finite float is a `RowParseError`, a label
    outside the classes and aliases an `UnknownClassError`. Each category
    outside the vocabulary warns and is tallied per feature name into `unseen`.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise SchemaMismatchError(f"{path}: empty file, no header row")
            positions = {name.strip().lower(): i for i, name in reversed(list(enumerate(header)))}
            names = [f.name for f in schema.features] + [schema.label_column]
            missing = [name for name in names if name.lower() not in positions]
            if missing:
                raise SchemaMismatchError(f"{path}: header is missing columns {missing}")
            cols = {name: positions[name.lower()] for name in names}
            blocks, rows = [], []
            for row_idx, row in enumerate(reader, start=1):
                if row:  # blank lines are skipped
                    rows.append((row_idx, row))
                if len(rows) == PARSE_BLOCK_ROWS:
                    blocks.append(_block_arrays(path, schema, cols, len(header), unseen, rows))
                    rows = []
            blocks.append(_block_arrays(path, schema, cols, len(header), unseen, rows))
        except UnicodeDecodeError as err:
            raise SchemaMismatchError(f"{path} is not UTF-8 text: byte "
                                      f"{err.object[err.start]:#04x}, {err.reason}") from None
        except csv.Error as err:
            raise SchemaMismatchError(f"{path}, line {reader.line_num}: {err}") from None
    return FlowTable(*(np.concatenate(parts) for parts in zip(*blocks)),
                     schema.class_names, schema.layout())


@dataclass(frozen=True)
class PreprocessorState:
    """Fitted per-numeric-feature (min, max); vocabularies come from the schema."""

    schema: DatasetSchema
    minima: np.ndarray
    maxima: np.ndarray

    def __post_init__(self):
        numeric = [f for f in self.schema.features if f.kind == "numeric"]
        if self.minima.shape != (len(numeric),) or self.maxima.shape != (len(numeric),):
            raise SchemaMismatchError("min/max arrays must have one entry per numeric feature")
        if not (np.all(np.isfinite(self.minima)) and np.all(np.isfinite(self.maxima))):
            raise SchemaMismatchError("fitted minima and maxima must be finite")
        if np.any(self.minima > self.maxima):
            raise SchemaMismatchError("fitted minimum exceeds maximum")

    def degenerate_features(self) -> tuple[str, ...]:
        numeric = [f.name for f in self.schema.features if f.kind == "numeric"]
        return tuple(n for n, mn, mx in zip(numeric, self.minima, self.maxima) if mn == mx)


def fit_preprocessor(table: FlowTable, schema: DatasetSchema) -> PreprocessorState:
    """Per-numeric-feature minima and maxima of the training table."""
    if not len(table):
        raise EmptyDatasetError("cannot fit a preprocessor on zero records")
    state = PreprocessorState(schema, table.numeric.min(axis=0), table.numeric.max(axis=0))
    for name in state.degenerate_features():
        warnings.warn(f"feature {name} is constant on the fitting data; "
                      "it will encode as 0", DegenerateFeatureWarning, stacklevel=2)
    return state


def encode_dataset(table: FlowTable, state: PreprocessorState) -> FlowTable:
    """Min-max scale a parsed table's numerics; its codes and labels stay as they are.

    Numerics are clipped into [0,1]; a degenerate feature (min == max on the
    fitting data) encodes as 0. A code of -1 (the mask value "-", or a value
    outside the vocabulary) stands for an all-zero block.
    """
    if not len(table):
        raise EmptyDatasetError("no records to encode")
    live = state.maxima > state.minima
    numeric = (table.numeric - state.minima) / np.where(live, state.maxima - state.minima, 1.0)
    # Selections, not np.clip or np.fmax (whose vector loops can keep -0.0):
    # -0.0 and NaN become +0.0, as with max(0.0, v).
    numeric[~(numeric > 0.0)] = 0.0
    numeric[numeric >= 1.0] = 1.0
    numeric[:, ~live] = 0.0
    return FlowTable(numeric, table.codes, table.labels, table.class_names,
                     state.schema.layout())


def _stratified_indices(labels: np.ndarray, fraction: float,
                        rng: np.random.Generator) -> np.ndarray:
    """Per class: round(fraction*size) indices, minimum 1, uniform w/o replacement."""
    unlabeled = int(np.sum(labels == UNLABELED))
    if unlabeled:
        raise MissingLabelError(f"{unlabeled} unlabeled rows where labels are required")
    picked = []
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        count = max(1, int(round(fraction * idx.size)))
        picked.append(rng.choice(idx, size=min(count, idx.size), replace=False))
    return np.sort(np.concatenate(picked))


def stratified_subsample(labels: np.ndarray, fraction: float, seed: int) -> np.ndarray:
    """Sorted indices of round(fraction x class size) rows per class (at least one each).

    Selection is uniform without replacement under the seed's "head-set"
    subsample stream and deterministic.
    """
    if not 0 < fraction <= 1:
        raise SchemaMismatchError(f"fraction must lie in (0, 1], got {fraction}")
    rng = substream(seed, "stratified-subsample", "head-set")
    return _stratified_indices(labels, fraction, rng)


def stratified_split(labels: np.ndarray, fraction: float,
                     seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Stratified (selected, remainder) sorted index pair; selected gets the fraction."""
    rng = substream(seed, "stratified-split", "head-set")
    take = _stratified_indices(labels, fraction, rng)
    mask = np.ones(labels.size, dtype=bool)
    mask[take] = False
    return take, np.flatnonzero(mask)


def random_split(n: int, fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Unstratified sorted index pair over n rows: round(fraction*n) in the first.

    The permutation comes from the seed's "pretrain-split" stream, the split
    that holds out pretraining rows.
    """
    if not 0 < fraction <= 1:
        raise SchemaMismatchError(f"fraction must lie in (0, 1], got {fraction}")
    take = int(round(fraction * n))
    perm = substream(seed, "pretrain-split").permutation(n)
    return np.sort(perm[:take]), np.sort(perm[take:])


class TaskRows(NamedTuple):
    """A head-stage task: its rows of the loaded table (or all), their labels, class names."""

    rows: np.ndarray | slice
    labels: np.ndarray
    class_names: tuple[str, ...]

    def gather(self, table: FlowTable, idx: np.ndarray) -> FlowTable:
        """The rows at task positions `idx`, copied compact out of the loaded `table`."""
        rows = idx if isinstance(self.rows, slice) else self.rows[idx]
        return FlowTable(table.numeric[rows], table.codes[rows], self.labels[idx],
                         self.class_names, table.layout)


def task_rows(labels: np.ndarray, class_names: tuple[str, ...], task: str,
              classes: str | None = None, normal_class: str = "Normal") -> TaskRows:
    """A head-stage task's rows and labels, decided from the labels alone.

    binary keeps every row: `normal_class` is 0, every other class 1, and an
    unlabeled row stays UNLABELED for the head split to reject. multiclass
    keeps the rows of the comma-separated `classes` (default: every class),
    labelled 0..K-1 in that order, and fails when there are none.
    """
    if task not in ("binary", "multiclass"):
        raise ConfigError(f"task must be 'binary' or 'multiclass', got {task!r}")
    keep = ([normal_class] if task == "binary" else
            [c.strip() for c in classes.split(",")] if classes else list(class_names))
    if len(set(keep)) != len(keep):
        raise UnknownClassError("duplicate class names in keep list")
    for name in keep:
        if name not in class_names:
            raise UnknownClassError(f"class {name!r} not among {class_names}")
    old = [class_names.index(name) for name in keep]
    if task == "binary":
        binary = np.where(labels == UNLABELED, UNLABELED, np.where(labels == old[0], 0, 1))
        return TaskRows(slice(None), binary.astype(np.int64), (normal_class, "attack"))
    lookup = np.zeros(len(class_names), dtype=np.int64)
    lookup[old] = np.arange(len(keep))
    rows = np.flatnonzero(np.isin(labels, old))
    if not rows.size:
        raise InsufficientDataError(f"no rows of classes {keep} among {labels.size}")
    return TaskRows(rows, lookup[labels[rows]], tuple(keep))


# ---------------------------------------------------------------------------
# Artifact serialization


def write_json(path: str, doc: dict) -> None:
    """Deterministic JSON write: sorted keys, trailing newline, atomic replace."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def save_state(path: str, state: PreprocessorState) -> None:
    numeric = [f.name for f in state.schema.features if f.kind == "numeric"]
    doc = {
        "format_version": STATE_FORMAT_VERSION,
        "schema_fingerprint": state.schema.fingerprint(),
        "minima": {n: float(v) for n, v in zip(numeric, state.minima)},
        "maxima": {n: float(v) for n, v in zip(numeric, state.maxima)},
    }
    write_json(path, doc)


def load_state(path: str, schema: DatasetSchema) -> PreprocessorState:
    doc = load_json_object(path)
    if doc.get("format_version") != STATE_FORMAT_VERSION:
        raise SchemaMismatchError(
            f"unsupported preprocessor state version {doc.get('format_version')!r}")
    if doc.get("schema_fingerprint") != schema.fingerprint():
        raise SchemaMismatchError("preprocessor state was fitted under a different schema")
    numeric = [f.name for f in schema.features if f.kind == "numeric"]
    fitted = [checked(doc.get(key), dict, f"state {key}", SchemaMismatchError, of=float)
              for key in ("minima", "maxima")]
    try:
        minima, maxima = (np.array([values[n] for n in numeric], dtype=np.float64)
                          for values in fitted)
    except KeyError as exc:
        raise SchemaMismatchError(f"state file missing fitted values for {exc}") from None
    return PreprocessorState(schema, minima, maxima)


def save_encoded(path: str, table: FlowTable, schema_fingerprint: str = "") -> None:
    layout = table.layout
    meta = {
        "kind": "encoded-dataset",
        "class_names": list(table.class_names),
        "schema_fingerprint": schema_fingerprint,
        "layout": {"width": layout.width, **{key: getattr(layout, key).tolist()
                                             for key in ("numeric", "starts", "widths")}},
    }
    save_arrays(path, {"numeric": table.numeric, "codes": table.codes,
                       "labels": table.labels}, meta=meta)


def _file_layout(path: str, doc) -> Layout:
    """The layout an encoded file's meta declares, checked to tile its width once."""
    what = f"{path}: layout"
    doc = checked(doc, dict, what, SchemaMismatchError)
    try:
        width = checked(doc["width"], int, f"{what} width", SchemaMismatchError)
        numeric, starts, widths = (checked(doc[key], list, f"{what} {key}",
                                           SchemaMismatchError, of=int)
                                   for key in ("numeric", "starts", "widths"))
    except KeyError as exc:
        raise SchemaMismatchError(f"{what} lacks {exc}") from None
    spans = Layout(width, numeric, starts, widths).spans()
    if not (len(starts) == len(widths) and spans_tile(spans, width)
            and width <= MAX_ENCODED_WIDTH):
        raise SchemaMismatchError(f"{what} must tile its width, at most {MAX_ENCODED_WIDTH}, "
                                  "with a position per numeric and a block per categorical")
    return Layout(width, *(np.array(v, dtype=np.int64) for v in (numeric, starts, widths)))


def load_encoded(path: str) -> tuple[FlowTable, dict]:
    """An encoded data file and its meta, its layout, shapes and values checked."""
    arrays, meta = load_arrays(path)
    if meta.get("kind") != "encoded-dataset":
        raise SchemaMismatchError(f"{path} is not an encoded dataset artifact")
    if "x" in arrays:
        raise SchemaMismatchError(f"{path} holds dense one-hot rows, a format this flowcl "
                                  "no longer reads; re-run preprocess to rewrite it")
    try:
        numeric, codes, labels = arrays["numeric"], arrays["codes"], arrays["labels"]
        class_names = checked(meta["class_names"], list, f"{path}: class_names",
                              SchemaMismatchError, of=str)
        layout = _file_layout(path, meta["layout"])
    except KeyError as exc:
        raise SchemaMismatchError(f"{path} is an encoded dataset without {exc}") from None
    if (numeric.dtype, codes.dtype, labels.dtype) != (np.float64, np.int64, np.int64):
        raise SchemaMismatchError(f"{path}: numeric must be float64, codes and labels int64, "
                                  f"got {numeric.dtype}, {codes.dtype} and {labels.dtype}")
    n = len(labels) if labels.ndim == 1 else -1
    if numeric.shape != (n, layout.numeric.size) or codes.shape != (n, layout.starts.size):
        raise SchemaMismatchError(f"{path}: numeric, codes and labels must be (n, "
                                  f"{layout.numeric.size}), (n, {layout.starts.size}) and (n,)")
    if not labels.size:
        raise SchemaMismatchError(f"{path} holds no rows")
    if numeric.size and not (numeric.min() >= 0.0 and numeric.max() <= 1.0):
        raise SchemaMismatchError(f"{path}: numerics must be min-max scaled into [0, 1]")
    if codes.size and np.any((codes < -1) | (codes >= layout.widths)):
        raise SchemaMismatchError(f"{path}: category codes must lie in [-1, block width)")
    if not (labels.min() >= UNLABELED and labels.max() < len(class_names)):
        raise SchemaMismatchError(f"{path}: labels must lie in [-1, {len(class_names)})")
    return FlowTable(numeric, codes, labels, tuple(class_names), layout), meta
