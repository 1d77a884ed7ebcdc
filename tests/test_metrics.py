import math

import numpy as np
import pytest

from climd.errors import ValidationError
from climd.metrics import (
    accuracy,
    confusion,
    macro_f1,
    per_class_f1,
    weighted_f1,
)


class TestConfusion:
    def test_hand_count(self):
        cm = confusion([0, 0, 1], [0, 1, 1], 2)
        assert cm.tolist() == [[1, 1], [0, 1]]

    def test_perfect_predictions_are_diagonal(self):
        cm = confusion([0, 1, 2, 1], [0, 1, 2, 1], 3)
        assert np.all(cm == np.diag([1, 2, 1]))

    def test_empty_input_gives_zero_matrix(self):
        cm = confusion([], [], 3)
        assert cm.sum() == 0
        assert np.all(cm == 0)

    def test_errors(self):
        with pytest.raises(ValidationError):
            confusion([0, 1], [0], 2)
        with pytest.raises(ValidationError):
            confusion([0, 2], [0, 1], 2)
        with pytest.raises(ValidationError):
            accuracy(np.array([[1, 2, 3]]))

    def test_negative_entry_rejected(self):
        with pytest.raises(ValidationError, match="entries must be >= 0"):
            accuracy(np.array([[1, -1], [0, 2]]))


class TestMetricValues:
    def test_hand_example(self):
        cm = confusion([0, 0, 1], [0, 1, 1], 2)
        assert accuracy(cm) == pytest.approx(2 / 3, abs=1e-12)
        assert per_class_f1(cm) == pytest.approx([2 / 3, 2 / 3], abs=1e-12)
        assert macro_f1(cm) == pytest.approx(2 / 3, abs=1e-12)
        assert weighted_f1(cm) == pytest.approx(2 / 3, abs=1e-12)

    def test_diagonal_matrix_scores_one(self):
        cm = np.diag([4, 2, 9])
        assert accuracy(cm) == 1.0
        assert macro_f1(cm) == 1.0
        assert weighted_f1(cm) == 1.0

    def test_absent_class_conventions(self):
        # Class 2 never occurs in truth or prediction: F1=0 drags the
        # macro mean, zero support removes it from the weighted mean.
        cm = confusion([0, 1], [0, 1], 3)
        f1 = per_class_f1(cm)
        assert f1.tolist() == [1.0, 1.0, 0.0]
        assert macro_f1(cm) == pytest.approx(2 / 3, abs=1e-12)
        assert weighted_f1(cm) == pytest.approx(1.0, abs=1e-12)

    def test_empty_matrix_is_undefined(self):
        cm = np.zeros((2, 2), dtype=int)
        for metric in (accuracy, macro_f1, weighted_f1):
            with pytest.raises(ValidationError):
                metric(cm)


class TestMetricInvariants:
    def test_sample_order_irrelevant(self):
        rng = np.random.default_rng(3)
        true = rng.integers(0, 4, size=100)
        pred = rng.integers(0, 4, size=100)
        perm = rng.permutation(100)
        a, b = confusion(true, pred, 4), confusion(true[perm], pred[perm], 4)
        assert np.all(a == b)

    def test_class_relabeling_preserves_accuracy_and_macro(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            c = int(rng.integers(2, 6))
            true = rng.integers(0, c, size=200)
            pred = rng.integers(0, c, size=200)
            relabel = rng.permutation(c)
            a = confusion(true, pred, c)
            b = confusion(relabel[true], relabel[pred], c)
            assert accuracy(a) == pytest.approx(accuracy(b), abs=1e-12)
            assert macro_f1(a) == pytest.approx(macro_f1(b), abs=1e-12)

    def test_all_metrics_within_unit_interval(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            c = int(rng.integers(2, 7))
            cm = rng.integers(0, 30, size=(c, c))
            if cm.sum() == 0:
                continue
            for metric in (accuracy, macro_f1, weighted_f1):
                assert 0.0 <= metric(cm) <= 1.0

    def test_weighted_equals_macro_on_balanced_supports(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            c = int(rng.integers(2, 8))
            per_class = int(rng.integers(1, 40))
            rows = [np.bincount(rng.integers(0, c, size=per_class), minlength=c)
                    for _ in range(c)]
            cm = np.stack(rows)
            assert abs(weighted_f1(cm) - macro_f1(cm)) <= 1e-12


def loop_metrics(counts):
    """(accuracy, per-class F1, macro F1, weighted F1) of an int count
    matrix by the per-class scalar loop the array code must match bit for
    bit."""
    total = int(counts.sum())
    tp = np.diag(counts).astype(float)
    pred_totals = counts.sum(axis=0).astype(float)
    true_totals = counts.sum(axis=1).astype(float)
    f1 = np.zeros(len(counts))
    for c in range(len(counts)):
        prec = tp[c] / pred_totals[c] if pred_totals[c] > 0 else 0.0
        rec = tp[c] / true_totals[c] if true_totals[c] > 0 else 0.0
        if prec + rec > 0:
            f1[c] = 2.0 * prec * rec / (prec + rec)
    weighted = math.fsum((counts.sum(axis=1) / total * f1).tolist())
    return float(np.trace(counts)) / total, f1, float(f1.mean()), weighted


def array_metrics(cm):
    return accuracy(cm), per_class_f1(cm), macro_f1(cm), weighted_f1(cm)


def bits(values):
    return [np.asarray(v, dtype=np.float64).tobytes() for v in values]


def random_count_matrices(seed, n=240):
    """Seeded int matrices, sparse ones and ones with whole rows or columns
    of zeros (a class never seen or never predicted) among them."""
    rng = np.random.default_rng(seed)
    while n:
        c = int(rng.integers(1, 9))
        cm = rng.integers(0, 40, size=(c, c)) * (rng.random((c, c)) < rng.random())
        cm[rng.random(c) < 0.25] = 0
        cm[:, rng.random(c) < 0.25] = 0
        if cm.any():
            n -= 1
            yield cm


class TestArrayCounts:
    def test_returns_an_int64_array(self):
        cm = confusion(np.array([0, 1], dtype=np.uint8), [1, 1], 3)
        assert type(cm) is np.ndarray and cm.dtype == np.int64
        assert cm.tolist() == [[0, 1, 0], [0, 1, 0], [0, 0, 0]]

    @pytest.mark.parametrize("true, pred", [([0.7, 1.2], [0, 1]), ([0, 1], [0, 1.9]),
                                            (np.array([0, 2**63], dtype=np.uint64), [0, 1])])
    def test_labels_are_never_truncated(self, true, pred):
        with pytest.raises(ValidationError, match="labels must be integers that fit in 64 bits"):
            confusion(true, pred, 2)

    def test_matches_the_scalar_loop_bit_for_bit(self):
        cases = list(random_count_matrices(23))
        assert sum((cm.sum(axis=0) == 0).any() and (cm.sum(axis=1) == 0).any()
                   for cm in cases) > 20
        for cm in cases:
            assert bits(array_metrics(cm)) == bits(loop_metrics(cm))

    def test_a_float_copy_scores_the_same_bits(self):
        for cm in random_count_matrices(29, n=200):
            assert bits(array_metrics(cm.astype(float))) == bits(array_metrics(cm))

    def test_scaling_leaves_macro_f1_unchanged(self):
        rng = np.random.default_rng(31)
        for cm in random_count_matrices(31, n=200):
            scale = float(rng.uniform(1e-3, 1e3))
            assert abs(macro_f1(cm * scale) - macro_f1(cm)) <= 1e-12

    def test_fractional_counts_are_scored_as_they_are(self):
        cm = np.array([[0.6, 0.4], [0.3, 0.7]])
        f1_0, f1_1 = 2 * 0.6 / (2 * 0.6 + 0.4 + 0.3), 2 * 0.7 / (2 * 0.7 + 0.3 + 0.4)
        assert accuracy(cm) == pytest.approx(0.65, abs=1e-12)
        assert per_class_f1(cm) == pytest.approx([f1_0, f1_1], abs=1e-12)
        assert accuracy([[1.9, 0.0], [0.0, 2.9]]) == 1.0
        assert weighted_f1([[1.9, 0.1], [0.0, 2.9]]) == pytest.approx(
            (2.0 * 3.8 / 3.9 + 2.9 * 5.8 / 5.9) / 4.9, abs=1e-12)

    def test_natural_mix_expected_confusion_scores_in_unit_interval(self):
        rng = np.random.default_rng(37)
        for cm in random_count_matrices(37, n=200):
            cm[np.diag_indices(len(cm))] += cm.sum(axis=1) == 0
            pi = rng.dirichlet(np.ones(len(cm)))
            natural = cm / cm.sum(1, keepdims=True) * pi[:, None]
            for metric in (accuracy, macro_f1, weighted_f1):
                assert 0.0 <= metric(natural) <= 1.0

    @pytest.mark.parametrize("cm, message", [
        ([[1.0, np.nan], [0.0, 1.0]], "entries must be >= 0 and finite"),
        ([[1.0, np.inf], [0.0, 1.0]], "entries must be >= 0 and finite"),
        ([[1.0, -np.inf], [0.0, 1.0]], "entries must be >= 0 and finite"),
        ([[1, -1], [0, 2]], "entries must be >= 0 and finite"),
        (np.eye(2, dtype=bool), "entries must be >= 0 and finite"),
        ([[1, 2, 3]], r"must be square, got \(1, 3\)"),
        ([1, 2], r"must be square, got \(2,\)"),
        ([[0.0, 0.0], [0.0, 0.0]], "undefined on an empty confusion matrix"),
        (np.array([[2**62, 2**62], [0, 2**62]]), r"total 1\.38\d*e\+19 is above 2\*\*53"),
        ([[1e308, 1e308], [0.0, 1e308]], r"total inf is above 2\*\*53"),
    ], ids=["nan", "inf", "-inf", "negative", "bool", "1x3", "1-d", "zero", "int64-wrap",
            "float-overflow"])
    def test_bad_matrices_are_rejected(self, cm, message):
        for metric in (accuracy, per_class_f1, macro_f1, weighted_f1):
            with pytest.raises(ValidationError, match=message):
                metric(cm)
