import math

import numpy as np
import pytest
from scipy.integrate import quad

from climd.distribution import (
    ClassDistribution,
    alpha_schedule,
    epoch_target,
    fit_alpha,
    powerlaw_pdf,
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


class TestAlphaSchedule:
    def test_endpoints(self):
        assert alpha_schedule(1, 10, 5.0) == pytest.approx(1.0, abs=1e-15)
        assert alpha_schedule(10, 10, 5.0) == pytest.approx(5.0, abs=1e-15)

    def test_frozen_midpoint(self):
        assert alpha_schedule(5, 10, 5.0) == pytest.approx(25.0 / 9.0, abs=1e-12)

    def test_affine_and_clamped(self):
        t_vals = np.arange(1, 21)
        vals = [alpha_schedule(int(t), 20, 3.5) for t in t_vals]
        diffs = np.diff(vals)
        assert np.allclose(diffs, diffs[0], atol=1e-12)
        assert all(1.0 <= v <= 3.5 for v in vals)

    def test_single_epoch_returns_cap(self):
        assert alpha_schedule(1, 1, 4.2) == 4.2

    def test_bad_epoch(self):
        with pytest.raises(ValidationError):
            alpha_schedule(0, 10, 5.0)
        with pytest.raises(ValidationError):
            alpha_schedule(11, 10, 5.0)


class TestEpochTarget:
    def fig2_dist(self):
        # Ten ranks with the final-epoch law as counts; alpha pinned at 5.
        sizes = [501, 177, 96, 63, 45, 34, 27, 22, 19, 16]
        return make_dist(sizes, gamma=0.3, alpha=5.0)

    def test_first_epoch_is_uniform(self):
        dist = self.fig2_dist()
        target = epoch_target(1, 10, 1000, dist)
        assert np.allclose(target.q, 0.1, atol=1e-15)
        assert target.subset_size == 100

    def test_probabilities_sum_to_one(self):
        dist = self.fig2_dist()
        for t in range(1, 11):
            q = epoch_target(t, 10, 1000, dist).q
            assert abs(q.sum() - 1.0) <= 1e-12
            assert np.all(np.diff(q) <= 1e-15)  # non-increasing in rank

    def test_final_epoch_is_pure_power_law(self):
        dist = self.fig2_dist()
        q = epoch_target(10, 10, 1000, dist).q
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
        dist = self.fig2_dist()
        target = epoch_target(1, 1, 1000, dist)
        weights = [r ** -1.5 for r in range(1, 11)]
        z = math.fsum(weights)
        assert np.allclose(target.q, [w / z for w in weights], atol=1e-12)
        assert target.subset_size == 1000


class TestClassDistribution:
    def test_rank_assignment_with_ties(self):
        dist = ClassDistribution.from_counts({0: 5, 1: 9, 2: 5, 3: 12}, gamma=0.3)
        assert dist.rank_of_class == {3: 1, 1: 2, 0: 3, 2: 4}
        assert dist.classes_by_rank() == [3, 1, 0, 2]
        ranked = dist.counts_by_rank()
        assert list(ranked) == [12, 9, 5, 5]
        assert all(a >= b for a, b in zip(ranked, ranked[1:]))

    def test_from_labels(self):
        labels = [0] * 7 + [1] * 3 + [2] * 5
        dist = ClassDistribution.from_labels(labels, gamma=0.3)
        assert dist.counts == {0: 7, 1: 3, 2: 5}
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
            ClassDistribution(counts={0: 5, 1: 3}, gamma=gamma, alpha_hat=5.0,
                              degenerate=False)

    def test_degenerate_flag_propagates(self):
        dist = ClassDistribution.from_labels([0, 0, 1, 1], gamma=0.3)
        assert dist.degenerate
        assert dist.alpha_hat == pytest.approx(1 + 1 / 0.3)
