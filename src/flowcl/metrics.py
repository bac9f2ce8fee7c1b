"""Confusion matrices and support-weighted classification metrics.

Averaging is weighted by true-class support, which makes weighted recall
equal accuracy as an algebraic identity. Per-class ratios with a zero
denominator (no predictions for a class, or no true samples of it) are
defined as 0 and flagged with UndefinedMetricWarning.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EmptyEvaluationError, InvalidLabelError, InvalidShapeError

__all__ = [
    "ConfusionMatrix",
    "MetricsReport",
    "PerClassMetrics",
    "UndefinedMetricWarning",
    "confusion",
    "metrics",
    "report_to_dict",
]


class UndefinedMetricWarning(UserWarning):
    """A 0/0 metric ratio was defined as 0."""


@dataclass(frozen=True)
class ConfusionMatrix:
    """K x K counts; rows index the true class, columns the predicted one."""

    counts: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.counts)
        if c.ndim != 2 or c.shape[0] != c.shape[1] or c.shape[0] < 1:
            raise InvalidShapeError(f"confusion matrix must be square, got shape {c.shape}")
        if not np.issubdtype(c.dtype, np.integer) or np.any(c < 0):
            raise InvalidLabelError("confusion counts must be non-negative integers")
        object.__setattr__(self, "counts", c.astype(np.int64, copy=False))

    @property
    def n_classes(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class PerClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    precision: float
    recall: float
    f1: float
    per_class: tuple


def confusion(preds, labels, n_classes: int) -> ConfusionMatrix:
    p = np.asarray(preds, dtype=np.int64).ravel()
    t = np.asarray(labels, dtype=np.int64).ravel()
    if p.shape != t.shape:
        raise InvalidShapeError(
            f"predictions ({p.shape}) and labels ({t.shape}) differ in length")
    if n_classes < 1:
        raise InvalidLabelError(f"n_classes must be >= 1, got {n_classes}")
    if p.size and (p.min() < 0 or p.max() >= n_classes or t.min() < 0 or t.max() >= n_classes):
        raise InvalidLabelError(f"class indices must lie in [0, {n_classes})")
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(counts, (t, p), 1)
    return ConfusionMatrix(counts)


def _ratio(num: float, den: float, what: str) -> float:
    if den == 0:  # a diagonal count never exceeds its row or column sum, so num is 0 too
        warnings.warn(f"{what} is 0/0; defining it as 0", UndefinedMetricWarning, stacklevel=3)
        return 0.0
    return num / den


def metrics(cm: ConfusionMatrix) -> MetricsReport:
    """Accuracy plus support-weighted precision/recall/F1 with per-class rows."""
    counts = cm.counts
    total = cm.total
    if total == 0:
        raise EmptyEvaluationError("cannot compute metrics over zero samples")
    supports = counts.sum(axis=1)
    predicted = counts.sum(axis=0)
    per_class = []
    for i in range(cm.n_classes):
        tp = float(counts[i, i])
        prec = _ratio(tp, float(predicted[i]), f"precision of class {i}")
        rec = _ratio(tp, float(supports[i]), f"recall of class {i}")
        f1 = 2.0 * prec * rec / (prec + rec) if prec + rec > 0 else 0.0
        per_class.append(PerClassMetrics(prec, rec, f1, int(supports[i])))
    weights = supports / total
    return MetricsReport(
        accuracy=float(np.trace(counts)) / total,
        precision=float(sum(w * c.precision for w, c in zip(weights, per_class))),
        recall=float(sum(w * c.recall for w, c in zip(weights, per_class))),
        f1=float(sum(w * c.f1 for w, c in zip(weights, per_class))),
        per_class=tuple(per_class))


def report_to_dict(report: MetricsReport, class_names=None) -> dict:
    """JSON-ready form, rounded to 4 decimals; full precision stays in the report."""
    if class_names is not None and len(class_names) != len(report.per_class):
        raise InvalidLabelError(
            f"{len(class_names)} class names for {len(report.per_class)} classes")
    rows = []
    for i, c in enumerate(report.per_class):
        row = {"precision": round(c.precision, 4), "recall": round(c.recall, 4),
               "f1": round(c.f1, 4), "support": c.support}
        if class_names is not None:
            row["class"] = str(class_names[i])
        rows.append(row)
    return {"accuracy": round(report.accuracy, 4),
            "precision": round(report.precision, 4),
            "recall": round(report.recall, 4),
            "f1": round(report.f1, 4),
            "per_class": rows}
