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
class *ranks* (rank 1 = largest class).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ValidationError, check_number

DEFAULT_GAMMA = 0.3


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


@dataclass
class ClassDistribution:
    """Per-class counts with descending-rank assignment and fitted alpha.

    ``rank_of_class`` maps class id -> rank in 1..C, rank 1 being the
    largest class; ties are broken by ascending class id.
    """

    counts: dict[int, int]
    gamma: float
    alpha_hat: float
    degenerate: bool
    rank_of_class: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.counts:
            raise ValidationError("class distribution needs at least one class")
        if any(n < 1 for n in self.counts.values()):
            raise ValidationError("all class counts must be >= 1")
        check_number("gamma", self.gamma, 0.0, strict=True)
        check_number("alpha_hat", self.alpha_hat, 0.0, strict=True)
        if not self.rank_of_class:
            by_size = sorted(self.counts, key=lambda c: (-self.counts[c], c))
            self.rank_of_class = {cid: rank for rank, cid in enumerate(by_size, start=1)}

    @classmethod
    def from_counts(cls, counts: dict[int, int], gamma: float = DEFAULT_GAMMA,
                    alpha: float | None = None) -> "ClassDistribution":
        """Build from a class-id -> count mapping, fitting alpha by MLE.

        Pass ``alpha`` to pin the imbalance parameter instead of fitting
        (used e.g. when reproducing a schedule with a known cap).
        """
        if alpha is not None:
            if gamma * alpha <= 1:
                raise DomainError(f"gamma*alpha must exceed 1, got {gamma * alpha}")
            return cls(counts=dict(counts), gamma=gamma, alpha_hat=float(alpha),
                       degenerate=False)
        fit = fit_alpha(list(counts.values()), gamma)
        return cls(counts=dict(counts), gamma=gamma, alpha_hat=fit.alpha_hat,
                   degenerate=fit.degenerate)

    @classmethod
    def from_labels(cls, labels, gamma: float = DEFAULT_GAMMA) -> "ClassDistribution":
        ids, counts = np.unique(np.asarray(labels, dtype=int), return_counts=True)
        return cls.from_counts({int(c): int(n) for c, n in zip(ids, counts)}, gamma)

    @property
    def n_classes(self) -> int:
        return len(self.counts)

    @property
    def n_total(self) -> int:
        return sum(self.counts.values())

    @property
    def n_min(self) -> int:
        return min(self.counts.values())

    def classes_by_rank(self) -> list[int]:
        return sorted(self.counts, key=lambda c: self.rank_of_class[c])

    def counts_by_rank(self) -> np.ndarray:
        return np.array([self.counts[c] for c in self.classes_by_rank()], dtype=int)


@dataclass
class AlphaFit:
    """Result of the closed-form MLE; degenerate means all counts equal."""

    alpha_hat: float
    degenerate: bool


@dataclass
class EpochTarget:
    """Sampling target for one epoch: probabilities over ranks plus size."""

    t: int
    alpha_t: float
    q: np.ndarray  # indexed by rank-1, non-increasing, sums to 1
    subset_size: int


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


def alpha_schedule(t: int, total_epochs: int, alpha_cap: float) -> float:
    """Linear ramp of the imbalance parameter: 1 at epoch 1, cap at the end."""
    if total_epochs < 1:
        raise ValidationError(f"total_epochs must be >= 1, got {total_epochs}")
    if not 1 <= t <= total_epochs:
        raise ValidationError(f"epoch {t} outside [1, {total_epochs}]")
    if alpha_cap < 1:
        raise ValidationError(f"alpha cap must be >= 1, got {alpha_cap}")
    if total_epochs == 1:
        return float(alpha_cap)
    return 1.0 + (alpha_cap - 1.0) * (t - 1) / (total_epochs - 1)


def subset_size(t: int, total_epochs: int, n_total: int) -> int:
    """Epoch-t subset size: round(t * N / T), half rounded up."""
    return _round_half_up(t * n_total / total_epochs)


def epoch_target(t: int, total_epochs: int, n_total: int,
                 dist: ClassDistribution) -> EpochTarget:
    """Per-rank sampling probabilities and subset size for epoch t.

    q_t(rank) mixes the uniform distribution and the normalized power law
    rank^(-gamma*alpha_t); the mixture weight grows linearly from 0 at
    epoch 1 to 1 at the final epoch. A single-epoch run uses weight 1
    (final-epoch semantics; the scheduler overrides it to full data
    anyway).
    """
    alpha_t = alpha_schedule(t, total_epochs, dist.alpha_hat)
    w = 1.0 if total_epochs == 1 else (t - 1) / (total_epochs - 1)
    c = dist.n_classes
    ranks = np.arange(1, c + 1, dtype=float)
    power = ranks ** (-dist.gamma * alpha_t)
    power /= power.sum()
    q = (1.0 - w) / c + w * power
    return EpochTarget(
        t=t,
        alpha_t=alpha_t,
        q=q,
        subset_size=subset_size(t, total_epochs, n_total),
    )
