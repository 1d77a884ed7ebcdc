"""Classification metrics: accuracy, macro F1, weighted F1.

Every metric takes a (C, C) confusion array, rows true classes and columns
predictions, of int or float counts: a fractional matrix, such as the
expected confusion on another class mix, is scored as it is.

Per-class F1 uses the conservative zero-division convention (F1 = 0 when
precision + recall = 0), so classes the model never predicts and never
sees still drag the macro average down. Weighted F1 weights each class by
its true support, which naturally excludes absent classes.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError, room_for
from .measurer import check_int64


def confusion(true_labels, predicted_labels, n_classes: int) -> np.ndarray:
    """The (C, C) int64 count array of integer label arrays in [0, C)."""
    true_labels = check_int64("true labels", true_labels)
    predicted_labels = check_int64("predicted labels", predicted_labels)
    if true_labels.shape != predicted_labels.shape:
        raise ValidationError(
            f"length mismatch: {true_labels.size} true vs {predicted_labels.size} predicted"
        )
    for name, arr in (("true", true_labels), ("predicted", predicted_labels)):
        if arr.size and (arr.min() < 0 or arr.max() >= n_classes):
            raise ValidationError(f"{name} labels outside [0, {n_classes})")
    with room_for(f"a {n_classes} x {n_classes} confusion matrix"):
        cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(cm, (true_labels, predicted_labels), 1)
    return cm


def _counts(cm) -> np.ndarray:
    """``cm`` as an array once it is square, of int or float counts that are
    finite and >= 0, not all zero, and of a total that float64 holds
    exactly: past 2**53 an int64 sum can wrap and a float sum can overflow."""
    cm = np.asarray(cm)
    if cm.ndim != 2 or cm.shape[0] != cm.shape[1]:
        raise ValidationError(f"confusion matrix must be square, got {cm.shape}")
    if cm.dtype.kind not in "iuf" or not (np.isfinite(cm) & (cm >= 0)).all():
        raise ValidationError("confusion matrix entries must be >= 0 and finite")
    if not cm.any():
        raise ValidationError("metrics are undefined on an empty confusion matrix")
    with np.errstate(over="ignore"):
        total = cm.sum(dtype=np.float64)
    if not total <= 2.0**53:
        raise ValidationError(f"confusion matrix total {total} is above 2**53")
    return cm


def accuracy(cm) -> float:
    cm = _counts(cm)
    return float(np.trace(cm)) / float(cm.sum())


def per_class_f1(cm) -> np.ndarray:
    cm = _counts(cm)
    tp = np.diag(cm).astype(float)
    pred_totals, true_totals = cm.sum(axis=0).astype(float), cm.sum(axis=1).astype(float)
    prec = np.divide(tp, pred_totals, out=np.zeros_like(tp), where=pred_totals > 0)
    rec = np.divide(tp, true_totals, out=np.zeros_like(tp), where=true_totals > 0)
    return np.divide(2.0 * prec * rec, prec + rec, out=np.zeros_like(tp), where=prec + rec > 0)


def macro_f1(cm) -> float:
    return float(per_class_f1(cm).mean())


def weighted_f1(cm) -> float:
    """The support-weighted mean of the per-class F1, summed exactly by
    ``math.fsum``: BLAS's dot product sums in an order set by its kernel."""
    cm = _counts(cm)
    weights = cm.sum(axis=1) / cm.sum()
    return math.fsum((weights * per_class_f1(cm)).tolist())
