import math

import numpy as np
import pytest
from scipy.integrate import quad

from climd.distribution import (
    ClassDistribution,
    fit_alpha,
    powerlaw_pdf,
    ramp_targets,
    rank_weights,
    subset_size,
)
from climd.errors import DomainError, ValidationError

# Frozen oracle values (mpmath, 40 digits):
#   alpha_hat((100,50,10), gamma=0.3) = 5.8895555196866479
#   alpha_hat((1000,1),   gamma=0.3)  = 4.2984321820072263
ALPHA_100_50_10 = 5.889555519686648
ALPHA_1000_1 = 4.298432182007226


def grid_search_alpha(counts, gamma, step=1e-3):
    """Independent MLE oracle: maximize the log likelihood of the class
    counts on an alpha grid, growing the grid until the maximum is
    interior."""
    counts = np.asarray(counts, dtype=float)
    c = counts.size
    n_min = counts.min()
    log_sum = float(np.log(counts).sum())
    lo = 1.0 / gamma + step
    span = 20.0
    while True:
        grid = np.arange(lo, lo + span, step)
        ga = gamma * grid
        ll = c * np.log(ga - 1.0) + (ga - 1.0) * c * math.log(n_min) - ga * log_sum
        best = int(np.argmax(ll))
        if best < grid.size - 1:
            return float(grid[best])
        span *= 2.0
        if span > 1e6:  # pragma: no cover - guards a pathological draw
            raise AssertionError("grid search did not bracket the maximum")


def make_dist(counts, gamma=0.3, alpha=None):
    return ClassDistribution.from_counts(
        {i: c for i, c in enumerate(counts)}, gamma=gamma, alpha=alpha)


def scalar_ramp_epoch(t, total_epochs, dist):
    """Oracle for ``ramp_targets``: (alpha_t, q_t) of epoch t, computed one
    epoch at a time with scalars, in the ramp's operation order."""
    if total_epochs == 1:
        alpha_t, w = float(dist.alpha_hat), 1.0
    else:
        alpha_t = 1.0 + (dist.alpha_hat - 1.0) * (t - 1) / (total_epochs - 1)
        w = (t - 1) / (total_epochs - 1)
    c = dist.n_classes
    weights = np.arange(1, c + 1, dtype=float) ** -(dist.gamma * alpha_t)
    return alpha_t, (1.0 - w) / c + w * (weights / weights.sum())


class TestPowerlawPdf:
    def test_at_minimum_with_unit_exponent_margin(self):
        # gamma*alpha = 2 makes pdf(n_min) collapse to 1/n_min.
        for n_min in (1, 10, 37):
            dist = make_dist([n_min * 5, n_min], gamma=0.5, alpha=4.0)
            assert powerlaw_pdf(n_min, dist, 4.0) == pytest.approx(1.0 / n_min, rel=1e-12)

    def test_frozen_value(self):
        dist = make_dist([100, 10], gamma=0.3, alpha=5.0)
        assert powerlaw_pdf(10, dist, 5.0) == pytest.approx(0.05, abs=1e-15)

    def test_vanishes_as_exponent_approaches_one(self):
        dist = make_dist([100, 10], gamma=0.3, alpha=5.0)
        alpha = (1.0 + 1e-9) / 0.3
        for n in (10, 50, 1000):
            assert powerlaw_pdf(n, dist, alpha) < 1e-6

    def test_domain_errors(self):
        dist = make_dist([100, 10], gamma=0.3, alpha=5.0)
        with pytest.raises(DomainError):
            powerlaw_pdf(5, dist, 5.0)  # below n_min
        with pytest.raises(DomainError):
            powerlaw_pdf(10, dist, 1.0)  # gamma*alpha <= 1

    def test_integrates_to_one(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            counts = rng.integers(1, 500, size=int(rng.integers(2, 8)))
            counts[0] += 1  # avoid the all-equal degenerate case
            gamma = float(rng.uniform(0.2, 1.0))
            dist = make_dist(counts, gamma=gamma)
            alpha = float(rng.uniform(1.2, 4.0)) / gamma
            total, _ = quad(lambda n: powerlaw_pdf(n, dist, alpha),
                            dist.n_min, np.inf)
            assert total == pytest.approx(1.0, abs=1e-6)


class TestFitAlpha:
    def test_frozen_oracles(self):
        assert fit_alpha([100, 50, 10], 0.3).alpha_hat == pytest.approx(
            ALPHA_100_50_10, abs=1e-9)
        assert fit_alpha([1000, 1], 0.3).alpha_hat == pytest.approx(
            ALPHA_1000_1, abs=1e-9)

    def test_balanced_counts_are_degenerate(self):
        fit = fit_alpha([42, 42, 42], 0.3)
        assert fit.degenerate
        assert fit.alpha_hat == pytest.approx(1.0 + 1.0 / 0.3, abs=1e-12)

    def test_exceeds_reciprocal_gamma(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            gamma = float(rng.uniform(0.1, 2.0))
            counts = rng.integers(1, 10_000, size=int(rng.integers(2, 12)))
            fit = fit_alpha(counts, gamma)
            if not fit.degenerate:
                assert fit.alpha_hat > 1.0 / gamma

    def test_matches_grid_search(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            counts = rng.integers(1, 10_000, size=int(rng.integers(3, 10)))
            if len(set(counts.tolist())) == 1:
                continue
            fit = fit_alpha(counts, 0.3)
            assert fit.alpha_hat == pytest.approx(
                grid_search_alpha(counts, 0.3), abs=2e-3)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            fit_alpha([10], 0.3)
        with pytest.raises(ValidationError):
            fit_alpha([10, 0], 0.3)
        with pytest.raises(ValidationError):
            fit_alpha([10, 5], 0.0)
        for gamma in (math.nan, math.inf):
            with pytest.raises(ValidationError, match="gamma must be a finite number"):
                fit_alpha([10, 5], gamma)


def fig2_dist(alpha=5.0):
    # Ten ranks with the final-epoch law as counts; alpha pinned.
    sizes = [501, 177, 96, 63, 45, 34, 27, 22, 19, 16]
    return make_dist(sizes, gamma=0.3, alpha=alpha)


class TestAlphaSchedule:
    def test_endpoints(self):
        alpha, _ = ramp_targets(fig2_dist(), 10)
        assert alpha[0] == pytest.approx(1.0, abs=1e-15)
        assert alpha[9] == pytest.approx(5.0, abs=1e-15)

    def test_frozen_midpoint(self):
        alpha, _ = ramp_targets(fig2_dist(), 10)
        assert alpha[4] == pytest.approx(25.0 / 9.0, abs=1e-12)

    def test_affine_and_clamped(self):
        vals, _ = ramp_targets(fig2_dist(3.5), 20)
        diffs = np.diff(vals)
        assert np.allclose(diffs, diffs[0], atol=1e-12)
        assert all(1.0 <= v <= 3.5 for v in vals)

    def test_single_epoch_returns_cap(self):
        alpha, _ = ramp_targets(fig2_dist(4.2), 1)
        assert alpha.tolist() == [4.2]

    def test_bad_epoch(self):
        with pytest.raises(ValidationError):
            ramp_targets(fig2_dist(), 0)


class TestRampTargets:
    def test_first_epoch_is_uniform(self):
        dist = fig2_dist()
        _, q = ramp_targets(dist, 10)
        assert np.allclose(q[0], 0.1, atol=1e-15)
        assert subset_size(1, 10, dist.n_total) == 100

    def test_probabilities_sum_to_one(self):
        _, q = ramp_targets(fig2_dist(), 10)
        assert q.shape == (10, 10)
        for row in q:
            assert abs(row.sum() - 1.0) <= 1e-12
            assert np.all(np.diff(row) <= 1e-15)  # non-increasing in rank

    def test_final_epoch_is_pure_power_law(self):
        q = ramp_targets(fig2_dist(), 10)[1][-1]
        # Independent oracle: direct high-precision summation.
        weights = [r ** -1.5 for r in range(1, 11)]
        z = math.fsum(weights)
        expect = np.array([w / z for w in weights])
        assert np.max(np.abs(q - expect)) <= 1e-12
        assert q[0] == pytest.approx(0.5011686015541617, abs=1e-9)

    def test_subset_sizes(self):
        assert subset_size(1, 10, 1000) == 100
        assert subset_size(10, 10, 1000) == 1000
        assert subset_size(3, 7, 100) == 43  # round(42.857...)

    def test_single_epoch_uses_final_mixture(self):
        dist = fig2_dist()
        _, q = ramp_targets(dist, 1)
        weights = [r ** -1.5 for r in range(1, 11)]
        z = math.fsum(weights)
        assert np.allclose(q[0], [w / z for w in weights], atol=1e-12)
        assert subset_size(1, 1, dist.n_total) == 1000

    def test_bitwise_equal_to_the_scalar_ramp(self):
        rng = np.random.default_rng(12)
        for case in range(1000):
            c = int(rng.integers(2, 1201))
            total_epochs = int(rng.integers(1, 121))
            counts = rng.integers(1, 5000, c).tolist()
            if case % 2:
                # Pinned: any cap >= 1 that keeps gamma * alpha above 1.
                gamma = float(rng.uniform(0.05, 2.0))
                alpha = max(1.0, 1.0 / gamma) * float(rng.uniform(1.001, 3.0))
                dist = make_dist(counts, gamma=gamma, alpha=alpha)
            else:
                # Fitted: gamma < 1 keeps the fitted alpha above 1.
                dist = make_dist(counts, gamma=float(rng.uniform(0.05, 1.0)))
            alpha, q = ramp_targets(dist, total_epochs)
            assert alpha.shape == (total_epochs,)
            assert q.shape == (total_epochs, c)
            for t in range(1, total_epochs + 1):
                alpha_t, q_t = scalar_ramp_epoch(t, total_epochs, dist)
                assert alpha[t - 1] == alpha_t, (case, t)
                assert np.array_equal(q[t - 1], q_t), (case, t)

    def test_an_epoch_with_unit_exponent_matches_the_scalar_ramp(self):
        # gamma * alpha_2 = 0.5 * 2.0 = 1, the exponent numpy raises to as 1 / x.
        dist = make_dist(list(range(1200, 0, -1)), gamma=0.5, alpha=3.0)
        alpha, q = ramp_targets(dist, 3)
        assert alpha.tolist() == [1.0, 2.0, 3.0]
        for t in (1, 2, 3):
            assert np.array_equal(q[t - 1], scalar_ramp_epoch(t, 3, dist)[1])


class TestRankWeights:
    def test_normalized_power_of_ranks(self):
        weights = rank_weights(4, 1.5)
        ranks = np.arange(1, 5, dtype=float)
        expect = ranks ** -1.5
        assert np.array_equal(weights, expect / expect.sum())
        assert math.isclose(weights.sum(), 1.0)
        assert np.array_equal(rank_weights(3, 0.0), np.full(3, 1 / 3))

    def test_an_exponent_array_gives_the_stacked_scalar_rows(self):
        rng = np.random.default_rng(3)
        for n_classes in (1, 2, 10, 1000):
            exponents = np.concatenate([[0.0, 0.5, 1.0, 2.0], rng.uniform(0.0, 6.0, 60)])
            weights = rank_weights(n_classes, exponents)
            assert weights.shape == (exponents.size, n_classes)
            assert np.array_equal(weights, np.stack([rank_weights(n_classes, float(e))
                                                     for e in exponents]))


class TestClassDistribution:
    def test_rank_assignment_with_ties(self):
        dist = ClassDistribution.from_counts({0: 5, 1: 9, 2: 5, 3: 12}, gamma=0.3)
        assert dist.classes.tolist() == [3, 1, 0, 2]
        ranked = dist.counts
        assert list(ranked) == [12, 9, 5, 5]
        assert all(a >= b for a, b in zip(ranked, ranked[1:]))

    def test_from_labels(self):
        labels = [0] * 7 + [1] * 3 + [2] * 5
        dist = ClassDistribution.from_labels(labels, gamma=0.3)
        assert dict(zip(dist.classes.tolist(), dist.counts.tolist())) == {0: 7, 1: 3, 2: 5}
        assert dist.n_min == 3
        assert dist.n_total == 15

    def test_pinned_alpha_must_be_proper(self):
        with pytest.raises(DomainError):
            ClassDistribution.from_counts({0: 5, 1: 3}, gamma=0.3, alpha=3.0)
        for alpha in (math.nan, math.inf):
            with pytest.raises(ValidationError, match="alpha_hat must be a finite number"):
                ClassDistribution.from_counts({0: 5, 1: 3}, gamma=0.3, alpha=alpha)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -0.3])
    def test_gamma_must_be_finite_and_positive(self, gamma):
        with pytest.raises(ValidationError, match="gamma must be a finite number > 0"):
            ClassDistribution(classes=[0, 1], counts=[5, 3], gamma=gamma, alpha_hat=5.0,
                              degenerate=False)

    @pytest.mark.parametrize("classes,counts,match", [
        ([0, 1], [5], "1-D arrays of one length"),
        ([[0, 1]], [[5, 3]], "1-D arrays of one length"),
        ([], [], "at least one class"),
        ([0, 1], [5, 0], "counts must be >= 1"),
        ([0.5, 1.7], [3, 1], "^class ids must be integers that fit in 64 bits, got float64$"),
        ([0, 1], [3.9, 1.2], "^class counts must be integers that fit in 64 bits, got float64$"),
    ])
    def test_direct_construction_checks_its_arrays(self, classes, counts, match):
        with pytest.raises(ValidationError, match=match):
            ClassDistribution(classes=classes, counts=counts, gamma=0.3, alpha_hat=5.0,
                              degenerate=False)

    @pytest.mark.parametrize("build, name", [
        (lambda: ClassDistribution.from_labels([0.2, 0.9, 1.5, 1.1, 0.4]), "labels"),
        (lambda: ClassDistribution.from_counts({0: 3.7, 1: 1}), "class ids and counts"),
    ], ids=["from_labels", "from_counts"])
    def test_labels_and_counts_are_never_truncated(self, build, name):
        with pytest.raises(ValidationError,
                           match=f"^{name} must be integers that fit in 64 bits, got float64$"):
            build()

    @pytest.mark.parametrize("classes,row", [([0, 0], 1), ([2, 0, 1, 0, 2], 3)])
    def test_repeated_class_id_names_its_second_occurrence(self, classes, row):
        with pytest.raises(ValidationError, match="duplicate class_id") as info:
            ClassDistribution(classes=classes, counts=[5] * len(classes), gamma=0.3,
                              alpha_hat=5.0, degenerate=True)
        assert info.value.row == row

    def test_alpha_bound_holds_unless_degenerate(self):
        with pytest.raises(DomainError, match=r"gamma\*alpha_hat must exceed 1"):
            ClassDistribution(classes=[0, 1], counts=[5, 3], gamma=0.3, alpha_hat=3.0,
                              degenerate=False)
        dist = ClassDistribution(classes=[0, 1], counts=[5, 3], gamma=0.3, alpha_hat=3.0,
                                 degenerate=True)
        assert dist.degenerate and dist.classes.dtype == np.int64

    def test_degenerate_flag_propagates(self):
        dist = ClassDistribution.from_labels([0, 0, 1, 1], gamma=0.3)
        assert dist.degenerate
        assert dist.alpha_hat == pytest.approx(1 + 1 / 0.3)
