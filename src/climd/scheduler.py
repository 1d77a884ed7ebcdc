"""Turns difficulty scores and the class distribution into concrete
training subsets.

A curriculum :class:`Schedule` is the queues plus the ramp, two
independent halves. The queues (:func:`build_queues`) order every class
easy to hard by its difficulty scores (direction set by
``difficulty_order``; by default a larger combined score means easier,
i.e. confident and complementary); ``order`` lists the rows of the table
(so indices into its ``ids``) grouped by class rank. The ramp
(:func:`ramp_counts`) is a function of the class distribution alone:
``counts[t - 1, k]`` is the largest-remainder apportionment of the epoch
t target to the class at rank k + 1, clamped to class availability, and
epoch t takes that many rows from the head of its queue. The final epoch
is the complete dataset, so every sample participates at least once. The
control schedules (:func:`random_baseline_schedule`,
:func:`truncate_schedule`) are plain lists of per-epoch row arrays;
training consumes any iterable of such arrays, such as
``map(schedule.epoch, range(1, T + 1))``.

Everything here is deterministic: ties are broken by sample id
(lexicographic), largest-remainder ties by rank order, and schedules are
immutable once built, so they can be shared across parallel consumers.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .distribution import ClassDistribution, ramp_targets, rank_weights, subset_size
from .errors import ValidationError, room_for
from .measurer import DifficultyTable, id_order

EASY_HIGH_R = "high_r_easy"
EASY_LOW_R = "low_r_easy"

# The paper's figure-2 setting, which :func:`reference_ramp` draws.
FIGURE2 = {"n_samples": 1000, "epochs": 10, "classes": 10, "alpha_cap": 5.0, "gamma": 0.3}


def _stream(seed: int, purpose: str) -> np.random.Generator:
    """Named deterministic RNG stream (stable across platforms/runs)."""
    return np.random.default_rng([int(seed), zlib.crc32(purpose.encode())])


@dataclass(eq=False)
class Schedule:
    """A curriculum: the class queues and the prefix of each that every
    epoch takes.

    ``classes`` is the (C,) class ids in rank order, ``order`` the (N,)
    :func:`build_queues` rows, and ``counts`` the (T, C) matrix of how
    many rows epoch t takes from the head of each queue; its last row is
    the queue sizes.
    """

    classes: np.ndarray
    order: np.ndarray
    counts: np.ndarray

    def prefixes(self, t: int) -> list[np.ndarray]:
        """The rows epoch ``t`` (1-based) takes from each queue, in rank order."""
        if not 1 <= t <= len(self.counts):
            raise ValidationError(f"epoch {t} outside [1, {len(self.counts)}]")
        sizes = self.counts[-1]
        starts = (np.cumsum(sizes) - sizes).tolist()
        return [self.order[s:s + k] for s, k in zip(starts, self.counts[t - 1].tolist())]

    def epoch(self, t: int) -> np.ndarray:
        """Epoch ``t``'s rows: its queue prefixes, concatenated in rank order."""
        return np.concatenate(self.prefixes(t))


def build_queues(table: DifficultyTable, dist: ClassDistribution,
                 difficulty_order: str = EASY_HIGH_R) -> np.ndarray:
    """Easy-to-hard queues of every class, in rank order.

    Returns ``order``, all table rows grouped by class rank and sorted
    within a class by combined score (descending when a high score means
    easy), ties by sample id compared as ``str``; the queue of the class
    at rank k + 1 is ``dist.counts[k]`` long. The table must describe the
    dataset of the distribution: every label one of its classes, with its
    per-class sizes.
    """
    if difficulty_order not in (EASY_HIGH_R, EASY_LOW_R):
        raise ValidationError(f"difficulty_order must be {EASY_HIGH_R!r} or {EASY_LOW_R!r}, "
                              f"got {difficulty_order!r}")
    classes = dist.classes
    by_id = np.argsort(classes)
    pos = by_id[np.minimum(np.searchsorted(classes, table.labels, sorter=by_id),
                           classes.size - 1)]
    unknown = np.flatnonzero(classes[pos] != table.labels)
    if unknown.size:
        i = unknown[0]
        raise ValidationError(
            f"sample {table.ids[i]!r} has class {table.labels[i]} not present "
            f"in the class distribution"
        )
    sizes = np.bincount(pos, minlength=classes.size)
    for cid, size, expected in zip(classes, sizes, dist.counts):
        if size != expected:
            raise ValidationError(
                f"class {cid}: difficulty table has {size} samples "
                f"but the distribution says {expected}"
            )
    # A stable sort of the rows in id order breaks the ties by id.
    by_id = id_order(table.ids)
    sign = -1.0 if difficulty_order == EASY_HIGH_R else 1.0
    return by_id[np.lexsort((sign * table.r[by_id], pos[by_id]))]


def largest_remainder(targets, total: int) -> np.ndarray:
    """Integer allocation of ``total`` matching fractional ``targets``.

    Floors first, then hands the leftover units to the largest fractional
    parts; ties go to the earlier position. Sums to ``total`` exactly.
    """
    targets = np.asarray(targets, dtype=float)
    if not np.all(np.isfinite(targets) & (targets >= 0)):
        raise ValidationError(f"targets must be finite and non-negative, got {targets.tolist()}")
    floors = np.floor(targets).astype(int)
    leftover = int(total - floors.sum())
    if leftover < 0:
        raise ValidationError(
            f"targets sum to more than total ({targets.sum()} > {total})"
        )
    floors[np.argsort(floors - targets, kind="stable")[:leftover]] += 1
    return floors


def apportion(q, total: int, caps) -> np.ndarray:
    """Largest-remainder apportionment of ``total`` proportional to ``q``,
    clamped to per-class caps.

    Any class whose allocation exceeds its cap is pinned at the cap and
    the surplus is re-apportioned among the remaining classes; the loop
    repeats until no cap is violated. The result sums to ``total`` exactly
    and respects every cap. A ``total`` above the caps' sum is rejected,
    so some class is always left to absorb the surplus.
    """
    q = np.asarray(q, dtype=float)
    caps = np.asarray(caps, dtype=int)
    if q.shape != caps.shape:
        raise ValidationError(f"q and caps length mismatch: {q.size} vs {caps.size}")
    if not np.all(np.isfinite(q) & (q >= 0)):
        raise ValidationError(f"q must be finite and non-negative, got {q.tolist()}")
    if abs(float(q.sum()) - 1.0) > 1e-9:
        raise ValidationError(f"q must sum to 1, got {float(q.sum())!r}")
    if total < 0:
        raise ValidationError(f"total must be >= 0, got {total}")
    if total > int(caps.sum()):
        raise ValidationError(
            f"cannot draw {total} samples: only {int(caps.sum())} available"
        )
    counts = np.zeros(q.size, dtype=int)
    active = np.ones(q.size, dtype=bool)
    remaining = int(total)
    while remaining > 0:
        idx = np.flatnonzero(active)
        weight = q[idx]
        wsum = float(weight.sum())
        if wsum <= 0.0:
            targets = np.full(idx.size, remaining / idx.size)
        else:
            targets = weight / wsum * remaining
        alloc = largest_remainder(targets, remaining)
        over = alloc > caps[idx]
        if not over.any():
            counts[idx] = alloc
            break
        clamped = idx[over]
        counts[clamped] = caps[clamped]
        remaining -= int(caps[clamped].sum())
        active[clamped] = False
    return counts


def ramp_counts(dist: ClassDistribution, total_epochs: int) -> np.ndarray:
    """The (T, C) class counts of the ramp, in rank order: row t - 1 is
    epoch t's target apportioned within the class sizes, and the last row
    is the class sizes (full data). It depends on the distribution alone."""
    if total_epochs < 1:
        raise ValidationError(f"total_epochs must be >= 1, got {total_epochs}")
    with room_for(f"a {total_epochs} x {dist.n_classes} epoch count matrix"):
        counts = np.empty((total_epochs, dist.n_classes), dtype=np.int64)
        _, q = ramp_targets(dist, total_epochs)
    n_total = dist.n_total
    for t in range(1, total_epochs):
        counts[t - 1] = apportion(q[t - 1], subset_size(t, total_epochs, n_total), dist.counts)
    counts[-1] = dist.counts  # full-data final epoch
    return counts


def build_schedule(table: DifficultyTable, dist: ClassDistribution,
                   total_epochs: int, difficulty_order: str = EASY_HIGH_R) -> Schedule:
    """Full curriculum schedule: the table's class queues under the ramp
    of its class distribution."""
    return Schedule(dist.classes, build_queues(table, dist, difficulty_order),
                    ramp_counts(dist, total_epochs))


def random_baseline_schedule(n_rows: int, total_epochs: int, seed: int) -> list[np.ndarray]:
    """Control schedule over ``n_rows`` rows: every epoch is an independent
    shuffle of all of them. Deterministic given the seed."""
    if total_epochs < 1:
        raise ValidationError(f"total_epochs must be >= 1, got {total_epochs}")
    if n_rows < 1:
        raise ValidationError("cannot schedule an empty dataset")
    rng = _stream(seed, "baseline-shuffle")
    return [rng.permutation(n_rows) for _ in range(total_epochs)]


def truncate_schedule(epochs: list[np.ndarray], budget: int) -> list[np.ndarray]:
    """Trim per-epoch rows to exactly ``budget`` total sample visits.

    Whole epochs are kept while they fit; the first epoch that would
    overshoot is cut to a prefix and the rest are dropped. Used to give
    the random baseline the same visit budget as a curriculum run.
    """
    total = sum(rows.size for rows in epochs)
    if budget < 0 or budget > total:
        raise ValidationError(f"budget {budget} outside [0, {total}]")
    kept, used = [], 0
    for rows in epochs:
        if used == budget:
            break
        kept.append(rows[:budget - used])
        used += kept[-1].size
    return kept


def reference_ramp() -> np.ndarray:
    """The (T, C) :func:`ramp_counts` of the synthetic long-tailed dataset
    of the :data:`FIGURE2` setting.

    Class sizes are the largest-remainder rounding of the final-epoch
    power-law target (exponent gamma * alpha_cap) scaled to ``n_samples``,
    so the full-data final epoch lands exactly on that law.
    """
    n, gamma, alpha_cap = FIGURE2["n_samples"], FIGURE2["gamma"], FIGURE2["alpha_cap"]
    sizes = largest_remainder(rank_weights(FIGURE2["classes"], gamma * alpha_cap) * n, n)
    dist = ClassDistribution.from_counts(dict(enumerate(sizes.tolist())),
                                         gamma=gamma, alpha=alpha_cap)
    return ramp_counts(dist, FIGURE2["epochs"])
