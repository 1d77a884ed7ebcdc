import numpy as np
import pytest

from climd.errors import ValidationError
from climd.metrics import (
    ConfusionMatrix,
    accuracy,
    confusion,
    macro_f1,
    per_class_f1,
    weighted_f1,
)


class TestConfusion:
    def test_hand_count(self):
        cm = confusion([0, 0, 1], [0, 1, 1], 2)
        assert cm.counts.tolist() == [[1, 1], [0, 1]]

    def test_perfect_predictions_are_diagonal(self):
        cm = confusion([0, 1, 2, 1], [0, 1, 2, 1], 3)
        assert np.all(cm.counts == np.diag([1, 2, 1]))

    def test_empty_input_gives_zero_matrix(self):
        cm = confusion([], [], 3)
        assert cm.total == 0
        assert np.all(cm.counts == 0)

    def test_errors(self):
        with pytest.raises(ValidationError):
            confusion([0, 1], [0], 2)
        with pytest.raises(ValidationError):
            confusion([0, 2], [0, 1], 2)
        with pytest.raises(ValidationError):
            ConfusionMatrix(np.array([[1, 2, 3]]))

    def test_negative_entry_rejected(self):
        with pytest.raises(ValidationError, match="entries must be >= 0"):
            ConfusionMatrix(np.array([[1, -1], [0, 2]]))


class TestMetricValues:
    def test_hand_example(self):
        cm = confusion([0, 0, 1], [0, 1, 1], 2)
        assert accuracy(cm) == pytest.approx(2 / 3, abs=1e-12)
        assert per_class_f1(cm) == pytest.approx([2 / 3, 2 / 3], abs=1e-12)
        assert macro_f1(cm) == pytest.approx(2 / 3, abs=1e-12)
        assert weighted_f1(cm) == pytest.approx(2 / 3, abs=1e-12)

    def test_diagonal_matrix_scores_one(self):
        cm = ConfusionMatrix(np.diag([4, 2, 9]))
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
        cm = ConfusionMatrix(np.zeros((2, 2), dtype=int))
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
        assert np.all(a.counts == b.counts)

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
            cm = ConfusionMatrix(rng.integers(0, 30, size=(c, c)))
            if cm.total == 0:
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
            cm = ConfusionMatrix(np.stack(rows))
            assert abs(weighted_f1(cm) - macro_f1(cm)) <= 1e-12
