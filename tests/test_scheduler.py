import math
import re

import numpy as np
import pytest

from climd.distribution import ClassDistribution, subset_size
from climd.errors import ValidationError
from climd.measurer import DifficultyTable
from climd.scheduler import (
    apportion,
    build_queues,
    build_schedule,
    largest_remainder,
    ramp_counts,
    random_baseline_schedule,
    reference_ramp,
    truncate_schedule,
)


def make_table(ids, labels, r):
    # psi/phi backfilled so the table stays internally consistent
    r = np.asarray(r, dtype=float)
    return DifficultyTable(ids=list(ids), labels=np.asarray(labels),
                           psi=np.column_stack([r / 2, r / 2]), phi=r / 2, r=r)


def random_dataset(rng, max_n=5000):
    """Random counts plus a total epoch count in the feasible regime
    (the epoch-1 uniform share must not exceed the smallest class)."""
    c = int(rng.integers(2, 11))
    counts = rng.integers(1, max(2, max_n // c), size=c)
    counts = np.maximum(counts, 1)
    while counts.sum() > max_n:
        counts[int(np.argmax(counts))] -= 1
    n = int(counts.sum())
    n_min = int(counts.min())
    t_floor = max(2, math.ceil(n / (c * n_min)) + 1)
    total_epochs = int(t_floor + rng.integers(0, 10))

    labels = np.repeat(np.arange(c), counts)
    table = make_table([f"s{i:05d}" for i in range(n)], labels, rng.random(n))
    dist = ClassDistribution.from_labels(labels, 0.3)
    return table, dist, total_epochs


def queues_by_class(table, dist, order="high_r_easy"):
    """Each class's queue as a list of sample ids."""
    rows = build_queues(table, dist, difficulty_order=order)
    chunks = np.split(np.array(table.ids, dtype=object)[rows], np.cumsum(dist.counts)[:-1])
    return {cid: list(chunk) for cid, chunk in zip(dist.classes.tolist(), chunks)}


def per_class_selections(rows, counts, dist, table):
    """Split an epoch's flattened sample list back into per-class chunks."""
    ids = np.array(table.ids, dtype=object)[rows]
    out = {}
    cursor = 0
    for cid, k in zip(dist.classes.tolist(), counts):
        out[cid] = list(ids[cursor:cursor + k])
        cursor += k
    assert cursor == rows.size
    return out


class TestLargestRemainder:
    def test_exact_proportions(self):
        assert list(largest_remainder(np.array([5.0, 3.0, 2.0]), 10)) == [5, 3, 2]

    def test_uniform(self):
        assert list(largest_remainder(np.full(10, 10.0), 100)) == [10] * 10

    def test_ties_go_to_earlier_positions(self):
        assert list(largest_remainder(np.array([2.5, 2.5, 2.5, 2.5]), 11)) == [3, 3, 3, 2]

    def test_sum_and_quota_deviation(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            k = int(rng.integers(2, 15))
            q = rng.dirichlet(np.ones(k))
            total = int(rng.integers(0, 2000))
            alloc = largest_remainder(q * total, total)
            assert alloc.sum() == total
            assert np.all(np.abs(alloc - q * total) < 1.0)

    def test_matches_the_sorted_key_rule(self):
        def sorted_key_oracle(targets, total):
            # Largest fractional part first, ties to the earlier position.
            floors = np.floor(targets).astype(int)
            frac = targets - floors
            order = sorted(range(targets.size), key=lambda i: (-frac[i], i))
            for i in order[:total - int(floors.sum())]:
                floors[i] += 1
            return floors

        rng = np.random.default_rng(5)
        for case in range(5000):
            k = int(rng.integers(1, 40))
            if case % 2:
                # Few distinct fractional parts, so most of them tie.
                targets = rng.integers(0, 40, k) / float(rng.choice([1, 2, 3, 4, 8]))
            else:
                targets = rng.uniform(0.0, 50.0, k)
            total = int(np.floor(targets).sum()) + int(rng.integers(0, k + 3))
            assert np.array_equal(largest_remainder(targets, total),
                                  sorted_key_oracle(targets, total)), case

    @pytest.mark.parametrize("targets", [[-1.0, 4.0], [np.nan, 1.0], [1.0, -np.inf]])
    def test_rejects_bad_targets(self, targets):
        with pytest.raises(ValidationError, match="targets must be finite and non-negative"):
            largest_remainder(targets, 3)

    def test_rejects_targets_whose_floors_exceed_the_total(self):
        with pytest.raises(ValidationError, match=re.escape("(7.5 > 6)")):
            largest_remainder([4.0, 3.5], 6)


class TestApportion:
    def test_uniform_roomy_caps(self):
        q = np.full(10, 0.1)
        counts = apportion(q, 100, np.full(10, 50))
        assert list(counts) == [10] * 10

    def test_integral_proportions(self):
        counts = apportion(np.array([0.5, 0.3, 0.2]), 10, np.array([10, 10, 10]))
        assert list(counts) == [5, 3, 2]

    def test_final_epoch_power_law_head(self):
        weights = np.array([r ** -1.5 for r in range(1, 11)])
        q = weights / weights.sum()
        counts = apportion(q, 1000, np.full(10, 1000))
        assert counts.sum() == 1000
        assert counts[0] == 501
        assert np.all(np.abs(counts - q * 1000) < 1.0)

    def test_clamp_and_redistribute(self):
        counts = apportion(np.array([0.7, 0.2, 0.1]), 10, np.array([3, 10, 10]))
        assert list(counts) == [3, 5, 2]

    def test_cascading_clamps(self):
        counts = apportion(np.array([0.6, 0.3, 0.1]), 10, np.array([2, 3, 10]))
        assert list(counts) == [2, 3, 5]

    def test_infeasible(self):
        with pytest.raises(ValidationError, match="cannot draw 10 samples"):
            apportion(np.array([0.5, 0.5]), 10, np.array([4, 5]))

    @pytest.mark.parametrize("q", [[-0.5, 1.0, 0.5], [np.nan, 0.5, 0.5], [np.inf, 0.5, 0.5]])
    def test_rejects_a_bad_q(self, q):
        with pytest.raises(ValidationError, match="q must be finite and non-negative"):
            apportion(q, 10, [10, 10, 10])

    @pytest.mark.parametrize("q, total, caps, message", [
        ([0.5, 0.5], 4, [4, 4, 4], "q and caps length mismatch: 2 vs 3"),
        ([0.5, 0.4], 4, [4, 4], "q must sum to 1, got 0.9"),
        ([0.5, 0.5], -1, [4, 4], "total must be >= 0, got -1"),
    ])
    def test_rejects_bad_arguments(self, q, total, caps, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            apportion(q, total, caps)

    def test_zero_weight_classes_share_the_surplus_evenly(self):
        # The one weighted class is clamped at its cap, so the 5 samples
        # left go to the zero-weight classes in equal parts, the odd one
        # to the earlier class.
        assert list(apportion([1.0, 0.0, 0.0], 6, [1, 10, 10])) == [1, 3, 2]

    def test_random_caps_respected(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            k = int(rng.integers(2, 12))
            q = rng.dirichlet(np.ones(k))
            caps = rng.integers(0, 60, size=k)
            total = int(rng.integers(0, caps.sum() + 1))
            counts = apportion(q, total, caps)
            assert counts.sum() == total
            assert np.all(counts <= caps)
            assert np.all(counts >= 0)


class TestBuildQueues:
    def test_distinct_scores_sort_descending_when_high_is_easy(self):
        table = make_table("abcd", [0, 0, 0, 1], [0.9, 0.2, 0.6, 0.5])
        dist = ClassDistribution.from_labels([0, 0, 0, 1], 0.3)
        assert queues_by_class(table, dist) == {0: ["a", "c", "b"], 1: ["d"]}

    def test_low_r_easy_reverses(self):
        table = make_table("abc", [0, 0, 1], [0.9, 0.2, 0.4])
        dist = ClassDistribution.from_labels([0, 0, 1], 0.3)
        assert queues_by_class(table, dist, order="low_r_easy")[0] == ["b", "a"]

    def test_equal_scores_fall_back_to_id_order(self):
        table = make_table(["zz", "aa", "mm", "x"], [0, 0, 0, 1], [0.5] * 4)
        dist = ClassDistribution.from_labels([0, 0, 0, 1], 0.3)
        assert queues_by_class(table, dist)[0] == ["aa", "mm", "zz"]

    def test_unknown_class_rejected(self):
        table = make_table(["a"], [7], [0.5])
        dist = ClassDistribution.from_labels([0, 1], 0.3)
        with pytest.raises(ValidationError, match="'a' has class 7"):
            build_queues(table, dist)

    def test_class_size_mismatch_rejected(self):
        table = make_table(["a", "b"], [0, 1], [0.5, 0.5])
        dist = ClassDistribution.from_counts({0: 2, 1: 1}, 0.3)
        with pytest.raises(ValidationError,
                           match="class 0: difficulty table has 1 samples "
                                 "but the distribution says 2"):
            build_queues(table, dist)

    def test_bad_order_flag(self):
        table = make_table(["a", "b"], [0, 1], [0.5, 0.5])
        dist = ClassDistribution.from_labels([0, 1], 0.3)
        with pytest.raises(ValidationError):
            build_queues(table, dist, "sideways")


class TestBuildSchedule:
    def test_property_suite_on_random_datasets(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            table, dist, total_epochs = random_dataset(rng, max_n=2000)
            schedule = build_schedule(table, dist, total_epochs)
            self.check_invariants(schedule, table, dist, total_epochs)

    @staticmethod
    def check_invariants(schedule, table, dist, total_epochs):
        n = len(table)
        queues = queues_by_class(table, dist)
        epochs = [schedule.epoch(t) for t in range(1, total_epochs + 1)]
        assert len(schedule.counts) == total_epochs
        assert list(schedule.classes) == dist.classes.tolist()
        size_of = dict(zip(dist.classes.tolist(), dist.counts.tolist()))
        for t, (rows, counts) in enumerate(zip(epochs, schedule.counts), start=1):
            # exact totals
            assert sum(counts) == rows.size
            assert rows.size == (n if t == total_epochs
                                 else subset_size(t, total_epochs, n))
            selections = per_class_selections(rows, counts, dist, table)
            for cid, chosen in selections.items():
                # cap respect and prefix property
                assert len(chosen) <= size_of[cid]
                assert chosen == queues[cid][: len(chosen)]
            # rank monotonicity, allowing the +-1 rounding inversion
            by_rank = list(counts)
            assert all(b <= a + 1 for a, b in zip(by_rank, by_rank[1:]))
        # epoch-1 balance
        first = schedule.counts[0]
        assert max(first) - min(first) <= 1
        # full coverage, each sample exactly once, at the final epoch
        last = epochs[-1]
        assert last.size == n
        assert sorted(last) == list(range(n))

    def test_deterministic(self):
        rng = np.random.default_rng(41)
        table, dist, total_epochs = random_dataset(rng, max_n=500)
        a = build_schedule(table, dist, total_epochs)
        b = build_schedule(table, dist, total_epochs)
        for field in ("classes", "order", "counts"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_single_epoch_is_the_whole_dataset(self):
        table = make_table("abc", [0, 0, 1], [0.1, 0.7, 0.4])
        dist = ClassDistribution.from_labels([0, 0, 1], 0.3)
        schedule = build_schedule(table, dist, 1)
        assert len(schedule.counts) == 1
        assert sorted(table.ids[i] for i in schedule.epoch(1)) == ["a", "b", "c"]

    def test_prefixes_reject_an_epoch_outside_the_schedule(self):
        table = make_table("abcd", [0, 0, 1, 2], [0.5] * 4)
        schedule = build_schedule(table, ClassDistribution.from_labels(table.labels, 0.3), 3)
        for t in (0, 4):
            with pytest.raises(ValidationError, match=rf"epoch {t} outside \[1, 3\]"):
                schedule.prefixes(t)

    def test_mismatched_distribution_rejected(self):
        table = make_table(["a"], [0], [0.1])
        dist = ClassDistribution.from_counts({0: 2, 1: 1}, 0.3)
        with pytest.raises(ValidationError):
            build_schedule(table, dist, 2)

    def test_empty_dataset_rejected(self):
        dist = ClassDistribution.from_counts({0: 1, 1: 1}, 0.3)
        with pytest.raises(ValidationError):
            build_schedule(make_table([], [], []), dist, 2)


class TestRampCounts:
    def test_is_the_schedule_counts_without_scores(self):
        table = make_table("abcdef", [0, 0, 0, 0, 1, 1], [0.9, 0.7, 0.4, 0.1, 0.8, 0.2])
        dist = ClassDistribution.from_labels(table.labels, 0.3)
        counts = ramp_counts(dist, 3)
        assert counts.tolist() == [[1, 1], [3, 1], [4, 2]]
        assert np.array_equal(build_schedule(table, dist, 3).counts, counts)

    @pytest.mark.parametrize("total_epochs, message", [
        (0, "total_epochs must be >= 1, got 0"),
        # numpy refuses the size before it allocates anything
        (2 ** 62, "no room for a 4611686018427387904 x 2 epoch count matrix"),
    ])
    def test_rejects_an_epoch_count(self, total_epochs, message):
        dist = ClassDistribution.from_counts({0: 4, 1: 2}, 0.3)
        with pytest.raises(ValidationError, match=message):
            ramp_counts(dist, total_epochs)


class TestRandomBaseline:
    def test_same_seed_same_schedule(self):
        a = random_baseline_schedule(60, 4, seed=9)
        b = random_baseline_schedule(60, 4, seed=9)
        assert len(a) == len(b) == 4
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_each_epoch_is_a_full_permutation(self):
        schedule = random_baseline_schedule(60, 5, seed=1)
        assert len(schedule) == 5
        for rows in schedule:
            assert sorted(rows) == list(range(60))

    def test_different_seeds_differ(self):
        a = random_baseline_schedule(100, 1, seed=1)
        b = random_baseline_schedule(100, 1, seed=2)
        assert not np.array_equal(a[0], b[0])

    @pytest.mark.parametrize("n_rows, epochs, message", [
        (5, 0, "total_epochs must be >= 1, got 0"),
        (0, 3, "cannot schedule an empty dataset"),
    ])
    def test_rejects_an_empty_schedule(self, n_rows, epochs, message):
        with pytest.raises(ValidationError, match=message):
            random_baseline_schedule(n_rows, epochs, seed=0)

    def test_truncate_to_budget(self):
        schedule = random_baseline_schedule(50, 4, seed=3)
        cut = truncate_schedule(schedule, 120)
        assert sum(rows.size for rows in cut) == 120
        assert len(cut) == 3
        assert all(np.array_equal(a, b) for a, b in zip(cut[:2], schedule[:2]))
        assert np.array_equal(cut[2], schedule[2][:20])

    def test_truncate_rejects_overbudget(self):
        schedule = random_baseline_schedule(2, 2, seed=0)
        with pytest.raises(ValidationError):
            truncate_schedule(schedule, 5)


class TestReferenceRamp:
    def test_reference_ramp(self):
        counts = reference_ramp()
        assert list(counts[0]) == [10] * 10
        assert [int(v) for v in counts.sum(axis=1)] == [100 * t for t in range(1, 11)]
        assert list(counts[-1]) == [501, 177, 96, 63, 45, 34, 27, 22, 19, 16]
