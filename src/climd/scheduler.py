"""Turns difficulty scores and epoch targets into concrete training subsets.

For every class the samples are ordered easy to hard (direction set by
``difficulty_order``; by default a larger combined score means easier,
i.e. confident and complementary). Each epoch takes a prefix of every
class queue, with integer counts obtained by largest-remainder
apportionment of the epoch target, clamped to class availability. The
final epoch is overridden to the complete dataset so that every sample
participates at least once.

Schedules are integer-indexed: every :class:`EpochPlan` holds an index
array into the rows of the table or dataset it was built from (so into
that table's ``ids``), plus its per-class counts in the schedule's class
order, which is rank order for a curriculum.

Everything here is deterministic: ties are broken by sample id
(lexicographic), largest-remainder ties by rank order, and schedules are
immutable once built, so they can be shared across parallel consumers.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .distribution import ClassDistribution, epoch_target
from .errors import InfeasibleScheduleError, ValidationError
from .measurer import DifficultyTable

EASY_HIGH_R = "high_r_easy"
EASY_LOW_R = "low_r_easy"


def _stream(seed: int, purpose: str) -> np.random.Generator:
    """Named deterministic RNG stream (stable across platforms/runs)."""
    return np.random.default_rng([int(seed), zlib.crc32(purpose.encode())])


@dataclass(eq=False)
class EpochPlan:
    """Concrete subset for one epoch.

    ``indices`` are rows of the scored table or dataset, listed in rank
    then queue order for a curriculum; ``counts[j]`` is the number taken
    from class ``Schedule.classes[j]``.
    """

    t: int
    counts: np.ndarray
    indices: np.ndarray

    @property
    def total(self) -> int:
        return int(self.indices.size)

    def __eq__(self, other):
        return (isinstance(other, EpochPlan) and self.t == other.t
                and np.array_equal(self.counts, other.counts)
                and np.array_equal(self.indices, other.indices))


@dataclass
class Schedule:
    plans: list[EpochPlan]
    classes: tuple[int, ...]  # class id of each column of every plan's counts

    @property
    def total_visits(self) -> int:
        return sum(p.total for p in self.plans)


def build_queues(table: DifficultyTable, dist: ClassDistribution,
                 difficulty_order: str = EASY_HIGH_R) -> tuple[np.ndarray, np.ndarray]:
    """Easy-to-hard queues of every class, in rank order.

    Returns ``(order, sizes)``: ``order`` lists all table rows, grouped
    by class rank and sorted within a class by combined score (descending
    when a high score means easy), ties by sample id compared as ``str``;
    ``sizes[k]`` is the length of the queue of the class at rank k + 1.
    """
    if difficulty_order not in (EASY_HIGH_R, EASY_LOW_R):
        raise ValidationError(f"difficulty_order must be {EASY_HIGH_R!r} or {EASY_LOW_R!r}, "
                              f"got {difficulty_order!r}")
    classes = np.array(dist.classes_by_rank())
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
    id_rank = np.empty(len(table), dtype=int)
    id_rank[sorted(range(len(table)), key=table.ids.__getitem__)] = np.arange(len(table))
    r_key = -table.r if difficulty_order == EASY_HIGH_R else table.r
    order = np.lexsort((id_rank, r_key, pos))
    return order, np.bincount(pos, minlength=classes.size)


def largest_remainder(targets, total: int) -> np.ndarray:
    """Integer allocation of ``total`` matching fractional ``targets``.

    Floors first, then hands the leftover units to the largest fractional
    parts; ties go to the earlier position. Sums to ``total`` exactly.
    """
    targets = np.asarray(targets, dtype=float)
    if np.any(targets < 0):
        raise ValidationError("targets must be non-negative")
    floors = np.floor(targets).astype(int)
    leftover = int(total - floors.sum())
    if leftover < 0:
        raise ValidationError(
            f"targets sum to more than total ({targets.sum()} > {total})"
        )
    frac = targets - floors
    order = sorted(range(targets.size), key=lambda i: (-frac[i], i))
    for i in order[:leftover]:
        floors[i] += 1
    return floors


def apportion(q, total: int, caps) -> np.ndarray:
    """Largest-remainder apportionment of ``total`` proportional to ``q``,
    clamped to per-class caps.

    Any class whose allocation exceeds its cap is pinned at the cap and
    the surplus is re-apportioned among the remaining classes; the loop
    repeats until no cap is violated. The result sums to ``total`` exactly
    and respects every cap.
    """
    q = np.asarray(q, dtype=float)
    caps = np.asarray(caps, dtype=int)
    if q.shape != caps.shape:
        raise ValidationError(f"q and caps length mismatch: {q.size} vs {caps.size}")
    if np.any(q < 0):
        raise ValidationError("q must be non-negative")
    if abs(float(q.sum()) - 1.0) > 1e-9:
        raise ValidationError(f"q must sum to 1, got {q.sum()!r}")
    if total < 0:
        raise ValidationError(f"total must be >= 0, got {total}")
    if total > int(caps.sum()):
        raise InfeasibleScheduleError(
            f"cannot draw {total} samples: only {int(caps.sum())} available"
        )
    counts = np.zeros(q.size, dtype=int)
    active = np.ones(q.size, dtype=bool)
    remaining = int(total)
    while remaining > 0:
        idx = np.flatnonzero(active)
        if idx.size == 0:
            raise InfeasibleScheduleError("no classes left to absorb the surplus")
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


def build_schedule(table: DifficultyTable, dist: ClassDistribution,
                   total_epochs: int, difficulty_order: str = EASY_HIGH_R) -> Schedule:
    """Full curriculum schedule: prefix subsets per epoch, full data at the end.

    The difficulty table and the class distribution must describe the same
    dataset (identical per-class counts).
    """
    if total_epochs < 1:
        raise ValidationError(f"total_epochs must be >= 1, got {total_epochs}")
    if len(table) == 0:
        raise ValidationError("cannot schedule an empty dataset")
    order, caps = build_queues(table, dist, difficulty_order)
    classes = dist.classes_by_rank()
    for cid, size, expected in zip(classes, caps, dist.counts_by_rank()):
        if size != expected:
            raise ValidationError(
                f"class {cid}: difficulty table has {size} samples "
                f"but the distribution says {expected}"
            )
    starts = np.cumsum(caps) - caps
    n_total = int(caps.sum())

    plans = []
    for t in range(1, total_epochs + 1):
        if t == total_epochs:
            counts = caps.copy()  # full-data final epoch
        else:
            target = epoch_target(t, total_epochs, n_total, dist)
            counts = apportion(target.q, target.subset_size, caps)
        indices = np.concatenate([order[s:s + k] for s, k in zip(starts, counts)])
        plans.append(EpochPlan(t=t, counts=counts, indices=indices))
    return Schedule(plans=plans, classes=tuple(classes))


def random_baseline_schedule(labels, total_epochs: int, seed: int) -> Schedule:
    """Control schedule over the rows of ``labels``: every epoch is an
    independent shuffle of the full dataset. Deterministic given the seed."""
    if total_epochs < 1:
        raise ValidationError(f"total_epochs must be >= 1, got {total_epochs}")
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ValidationError("cannot schedule an empty dataset")
    classes, counts = np.unique(labels, return_counts=True)
    rng = _stream(seed, "baseline-shuffle")
    plans = [EpochPlan(t=t, counts=counts, indices=rng.permutation(labels.size))
             for t in range(1, total_epochs + 1)]
    return Schedule(plans=plans, classes=tuple(classes.tolist()))


def truncate_schedule(schedule: Schedule, labels, budget: int) -> Schedule:
    """Trim a schedule to exactly ``budget`` total sample visits.

    Whole epochs are kept while they fit; the first epoch that would
    overshoot is cut to a prefix and the rest are dropped. ``labels``
    gives the class of every row the schedule indexes. Used to give the
    random baseline the same visit budget as a curriculum run.
    """
    if budget < 0 or budget > schedule.total_visits:
        raise ValidationError(
            f"budget {budget} outside [0, {schedule.total_visits}]"
        )
    plans = []
    used = 0
    for plan in schedule.plans:
        room = budget - used
        if room == 0:
            break
        if plan.total <= room:
            plans.append(plan)
            used += plan.total
            continue
        prefix = plan.indices[:room]
        taken = np.asarray(labels)[prefix]
        counts = np.array([np.count_nonzero(taken == cid) for cid in schedule.classes])
        plans.append(EpochPlan(t=plan.t, counts=counts, indices=prefix))
        used = budget
        break
    return Schedule(plans=plans, classes=schedule.classes)


def epoch_rank_counts(schedule: Schedule, dist: ClassDistribution) -> np.ndarray:
    """(T, C) matrix of per-epoch counts ordered by class rank."""
    if list(schedule.classes) != dist.classes_by_rank():
        raise ValidationError("schedule classes are not the distribution's rank order")
    return np.array([p.counts for p in schedule.plans], dtype=int)


def synthetic_powerlaw_schedule(n_samples: int = 1000, total_epochs: int = 10,
                                n_classes: int = 10, alpha_cap: float = 5.0,
                                gamma: float = 0.3):
    """Reference ramp on a synthetic long-tailed dataset.

    Class sizes are the largest-remainder rounding of the final-epoch
    power-law target (exponent gamma * alpha_cap) scaled to ``n_samples``,
    so the full-data final epoch lands exactly on that law. Returns
    (schedule, distribution).
    """
    ranks = np.arange(1, n_classes + 1, dtype=float)
    weights = ranks ** (-gamma * alpha_cap)
    weights /= weights.sum()
    sizes = largest_remainder(weights * n_samples, n_samples)
    counts = {cid: int(sizes[cid]) for cid in range(n_classes)}
    dist = ClassDistribution.from_counts(counts, gamma=gamma, alpha=alpha_cap)

    labels = np.repeat(np.arange(n_classes), sizes)
    width = len(str(n_samples))
    ids = [f"c{cid}_s{i:0{width}d}" for cid in range(n_classes) for i in range(counts[cid])]
    n = len(ids)
    table = DifficultyTable(ids=ids, labels=labels, psi=np.full((n, 2), 0.5),
                            phi=np.zeros(n), r=np.full(n, 0.5))
    return build_schedule(table, dist, total_epochs), dist
