"""Classification metrics: accuracy, macro F1, weighted F1.

Per-class F1 uses the conservative zero-division convention (F1 = 0 when
precision + recall = 0), so classes the model never predicts and never
sees still drag the macro average down. Weighted F1 weights each class by
its true support, which naturally excludes absent classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, room_for


@dataclass
class ConfusionMatrix:
    """C x C count matrix; rows are true classes, columns predictions."""

    counts: np.ndarray

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=int)
        if self.counts.ndim != 2 or self.counts.shape[0] != self.counts.shape[1]:
            raise ValidationError(f"confusion matrix must be square, got {self.counts.shape}")
        if np.any(self.counts < 0):
            raise ValidationError("confusion matrix entries must be >= 0")

    @property
    def n_classes(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def support(self) -> np.ndarray:
        return self.counts.sum(axis=1)


def confusion(true_labels, predicted_labels, n_classes: int) -> ConfusionMatrix:
    true_labels = np.asarray(true_labels, dtype=int)
    predicted_labels = np.asarray(predicted_labels, dtype=int)
    if true_labels.shape != predicted_labels.shape:
        raise ValidationError(
            f"length mismatch: {true_labels.size} true vs {predicted_labels.size} predicted"
        )
    for name, arr in (("true", true_labels), ("predicted", predicted_labels)):
        if arr.size and (arr.min() < 0 or arr.max() >= n_classes):
            raise ValidationError(f"{name} labels outside [0, {n_classes})")
    with room_for(f"a {n_classes} x {n_classes} confusion matrix"):
        cm = np.zeros((n_classes, n_classes), dtype=int)
    np.add.at(cm, (true_labels, predicted_labels), 1)
    return ConfusionMatrix(cm)


def _require_nonempty(cm: ConfusionMatrix):
    if cm.total == 0:
        raise ValidationError("metrics are undefined on an empty confusion matrix")


def accuracy(cm: ConfusionMatrix) -> float:
    _require_nonempty(cm)
    return float(np.trace(cm.counts)) / cm.total


def per_class_f1(cm: ConfusionMatrix) -> np.ndarray:
    _require_nonempty(cm)
    tp = np.diag(cm.counts).astype(float)
    pred_totals = cm.counts.sum(axis=0).astype(float)
    true_totals = cm.counts.sum(axis=1).astype(float)
    f1 = np.zeros(cm.n_classes)
    for c in range(cm.n_classes):
        prec = tp[c] / pred_totals[c] if pred_totals[c] > 0 else 0.0
        rec = tp[c] / true_totals[c] if true_totals[c] > 0 else 0.0
        if prec + rec > 0:
            f1[c] = 2.0 * prec * rec / (prec + rec)
    return f1


def macro_f1(cm: ConfusionMatrix) -> float:
    return float(per_class_f1(cm).mean())


def weighted_f1(cm: ConfusionMatrix) -> float:
    """The support-weighted mean of the per-class F1, summed exactly by
    ``math.fsum``: BLAS's dot product sums in an order set by its kernel."""
    f1 = per_class_f1(cm)
    weights = cm.support / cm.total
    return math.fsum((weights * f1).tolist())
