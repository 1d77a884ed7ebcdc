"""Power-law fit of the class-size distribution and per-epoch sampling targets.

Class sizes ``n`` are modeled with the smoothed Pareto-style density

    pdf(n) = (g*a - 1) * n_min^(g*a - 1) * n^(-g*a),   n >= n_min, g*a > 1

where ``g`` (gamma) is a smoothing hyperparameter and ``a`` (alpha) the
imbalance parameter. The maximum-likelihood estimate over the C class
counts has the closed form

    alpha_hat = (1/g) * (1 + C / (sum_c ln n_c - C * ln n_min))

which is always > 1/g when the counts are not all equal. A balanced
dataset makes the denominator exactly 0; that case is flagged degenerate
and falls back to ``1 + 1/g``, the smallest value that keeps the density
proper with a margin of g.

The epoch ramp interpolates alpha linearly from 1 (epoch 1) to the fitted
cap (final epoch), and the epoch-t class-sampling target is a convex
mixture of the uniform distribution and the normalized power law over
class *ranks* (rank 1 = largest class), :func:`rank_weights`.
:func:`ramp_targets` gives both for every epoch at once, as a (T,)
alpha array and a (T, C) target matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError, check_number
from .measurer import check_int64

DEFAULT_GAMMA = 0.3


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


@dataclass(eq=False)
class ClassDistribution:
    """Class ids and their sizes as int64 ``(C,)`` arrays in rank order,
    with the fitted alpha: ``classes[k]`` is the class at rank k + 1.
    ``alpha_hat`` is at least 1, where the epoch ramp starts.
    :meth:`from_counts` ranks by descending size, ties by ascending id.
    A repeated id is rejected with the ``row`` of its second occurrence.
    """

    classes: np.ndarray
    counts: np.ndarray
    gamma: float
    alpha_hat: float
    degenerate: bool

    def __post_init__(self):
        self.classes = check_int64("class ids", self.classes)
        self.counts = check_int64("class counts", self.counts)
        if self.classes.ndim != 1 or self.classes.shape != self.counts.shape:
            raise ValidationError("classes and counts must be 1-D arrays of one length")
        if not self.classes.size:
            raise ValidationError("class distribution needs at least one class")
        if np.any(self.counts < 1):
            raise ValidationError("all class counts must be >= 1")
        check_number("gamma", self.gamma, 0.0, strict=True)
        check_number("alpha_hat", self.alpha_hat, 1.0)
        if not self.degenerate and self.gamma * self.alpha_hat <= 1:
            raise DomainError(f"gamma*alpha_hat must exceed 1 unless degenerate, "
                              f"got {self.gamma * self.alpha_hat!r}")
        by_id = np.argsort(self.classes, kind="stable")
        repeats = by_id[1:][self.classes[by_id[1:]] == self.classes[by_id[:-1]]]
        if repeats.size:
            row = int(repeats.min())
            raise ValidationError(f"duplicate class_id {self.classes[row]}", row=row)

    @classmethod
    def from_counts(cls, counts: dict[int, int], gamma: float = DEFAULT_GAMMA,
                    alpha: float | None = None) -> "ClassDistribution":
        """Build from a class-id -> count mapping, fitting alpha by MLE.

        Pass ``alpha`` to pin the imbalance parameter instead of fitting
        (used e.g. when reproducing a schedule with a known cap).
        """
        ids, sizes = check_int64("class ids and counts", list(counts.items())).reshape(-1, 2).T
        fit = fit_alpha(sizes, gamma) if alpha is None else AlphaFit(float(alpha), False)
        rank = np.lexsort((ids, -sizes))
        return cls(classes=ids[rank], counts=sizes[rank], gamma=gamma,
                   alpha_hat=fit.alpha_hat, degenerate=fit.degenerate)

    @classmethod
    def from_labels(cls, labels, gamma: float = DEFAULT_GAMMA) -> "ClassDistribution":
        ids, counts = np.unique(check_int64("labels", labels), return_counts=True)
        return cls.from_counts({int(c): int(n) for c, n in zip(ids, counts)}, gamma)

    @property
    def n_classes(self) -> int:
        return self.classes.size

    @property
    def n_total(self) -> int:
        return int(self.counts.sum())

    @property
    def n_min(self) -> int:
        return int(self.counts.min())


@dataclass
class AlphaFit:
    """Result of the closed-form MLE; degenerate means all counts equal."""

    alpha_hat: float
    degenerate: bool


def powerlaw_pdf(n: float, dist: ClassDistribution, alpha: float) -> float:
    """Density of the smoothed power law at class size ``n``.

    Requires n >= n_min and gamma*alpha > 1; integrates to 1 over
    [n_min, inf).
    """
    g = dist.gamma
    ga = g * alpha
    if ga <= 1:
        raise DomainError(f"gamma*alpha must exceed 1, got {ga}")
    n_min = dist.n_min
    if n < n_min:
        raise DomainError(f"n={n} below the distribution minimum {n_min}")
    return (ga - 1.0) * n_min ** (ga - 1.0) * float(n) ** (-ga)


def fit_alpha(counts, gamma: float = DEFAULT_GAMMA) -> AlphaFit:
    """Closed-form MLE of the imbalance parameter from per-class counts.

    Returns a degenerate fit (alpha = 1 + 1/gamma) when all counts are
    equal, i.e. the log denominator is exactly zero. The denominator
    cannot be negative because every ln n_c >= ln n_min.
    """
    counts = np.asarray(counts, dtype=float)
    if counts.size < 2:
        raise ValidationError(f"need >= 2 classes to fit, got {counts.size}")
    if np.any(counts < 1):
        raise ValidationError("all class counts must be >= 1")
    check_number("gamma", gamma, 0.0, strict=True)
    c = counts.size
    n_min = counts.min()
    denom = float(np.log(counts).sum() - c * math.log(n_min))
    if denom == 0.0:
        return AlphaFit(alpha_hat=1.0 + 1.0 / gamma, degenerate=True)
    return AlphaFit(alpha_hat=(1.0 / gamma) * (1.0 + c / denom), degenerate=False)


def subset_size(t: int, total_epochs: int, n_total: int) -> int:
    """Epoch-t subset size: round(t * N / T), half rounded up."""
    return _round_half_up(t * n_total / total_epochs)


def rank_weights(n_classes: int, exponent) -> np.ndarray:
    """The power law rank^(-exponent) over ranks 1..n_classes, normalized
    to sum to 1: one row per element of an array ``exponent``, each
    bitwise equal to the row of that exponent alone."""
    ranks = np.arange(1, n_classes + 1, dtype=float)
    exponent = np.asarray(exponent)[..., None]
    weights = ranks ** -exponent
    # numpy computes a lone ``** -1.0`` as 1 / x, but an array of exponents
    # with its vector pow, which can be an ulp off; keep the reciprocal.
    np.copyto(weights, 1.0 / ranks, where=exponent == 1.0)
    return weights / weights.sum(axis=-1, keepdims=True)


def ramp_targets(dist: ClassDistribution, total_epochs: int) -> tuple[np.ndarray, np.ndarray]:
    """The ramp's per-epoch ``(alpha, q)``: alpha (T,) and the class-sampling
    targets q (T, C) over ranks, row t - 1 for epoch t.

    alpha climbs linearly from 1 at epoch 1 to ``alpha_hat`` at the last.
    q_t mixes the uniform distribution and the normalized power law
    rank^(-gamma*alpha_t); the mixture weight grows linearly from 0 at
    epoch 1 to 1 at the final epoch. A single-epoch run uses weight 1
    (final-epoch semantics; the scheduler overrides it to full data
    anyway).
    """
    if total_epochs < 1:
        raise ValidationError(f"total_epochs must be >= 1, got {total_epochs}")
    if total_epochs == 1:
        alpha, w = np.array([dist.alpha_hat]), np.ones(1)
    else:
        u = np.arange(total_epochs)
        alpha = 1.0 + (dist.alpha_hat - 1.0) * u / (total_epochs - 1)
        w = u / (total_epochs - 1)
    c = dist.n_classes
    q = (1.0 - w)[:, None] / c + w[:, None] * rank_weights(c, dist.gamma * alpha)
    return alpha, q
