"""Confusion tallies and the weighted-averaging identities."""

import numpy as np
import pytest

from flowcl.errors import EmptyEvaluationError, InvalidLabelError, InvalidShapeError
from flowcl.metrics import (
    ConfusionMatrix,
    UndefinedMetricWarning,
    confusion,
    metrics,
    report_to_dict,
)

from oracles import naive_weighted_metrics


class TestConfusion:
    def test_perfect_predictions_are_diagonal(self):
        cm = confusion([0, 1, 2, 1], [0, 1, 2, 1], 3)
        np.testing.assert_array_equal(cm.counts, np.diag([1, 2, 1]))

    def test_hand_tally(self):
        cm = confusion((0, 1, 1), (0, 1, 0), 2)
        np.testing.assert_array_equal(cm.counts, [[1, 1], [0, 1]])

    def test_empty_input_gives_zero_matrix(self):
        cm = confusion([], [], 2)
        np.testing.assert_array_equal(cm.counts, np.zeros((2, 2)))

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidLabelError):
            confusion([0, 2], [0, 1], 2)
        with pytest.raises(InvalidLabelError):
            confusion([0, -1], [0, 1], 2)

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidShapeError):
            confusion([0, 1], [0], 2)

    def test_no_classes_rejected(self):
        with pytest.raises(InvalidLabelError, match="n_classes must be >= 1"):
            confusion([], [], 0)

    @pytest.mark.parametrize("counts", [np.zeros((2, 3), dtype=np.int64),
                                        np.zeros(2, dtype=np.int64),
                                        np.zeros((0, 0), dtype=np.int64)],
                             ids=["2x3", "vector", "0x0"])
    def test_matrix_must_be_square(self, counts):
        with pytest.raises(InvalidShapeError, match="must be square"):
            ConfusionMatrix(counts)

    @pytest.mark.parametrize("counts", [[[1, -1], [0, 1]], [[1.0, 0.0], [0.0, 1.0]]],
                             ids=["negative", "float"])
    def test_counts_must_be_non_negative_integers(self, counts):
        with pytest.raises(InvalidLabelError, match="non-negative integers"):
            ConfusionMatrix(np.array(counts))

    def test_total_counts_samples(self):
        rng = np.random.default_rng(0)
        p = rng.integers(0, 4, size=100)
        t = rng.integers(0, 4, size=100)
        assert confusion(p, t, 4).total == 100


class TestMetrics:
    def test_diagonal_matrix_scores_one(self):
        report = metrics(ConfusionMatrix(np.diag([3, 5, 2])))
        assert report.accuracy == 1.0
        assert report.precision == 1.0
        assert report.recall == 1.0
        assert report.f1 == 1.0

    def test_hand_example(self):
        report = metrics(ConfusionMatrix(np.array([[1, 1], [0, 1]])))
        np.testing.assert_allclose(report.accuracy, 2 / 3)
        np.testing.assert_allclose(report.recall, 2 / 3)
        np.testing.assert_allclose(report.precision, 5 / 6)
        np.testing.assert_allclose(report.f1, 2 / 3)
        np.testing.assert_allclose([c.f1 for c in report.per_class], [2 / 3, 2 / 3])

    def test_weighted_recall_equals_accuracy_always(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            k = int(rng.integers(2, 7))
            counts = rng.integers(0, 30, size=(k, k))
            counts[0, 0] += 1  # keep the matrix non-empty
            with np.errstate(all="ignore"):
                import warnings
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UndefinedMetricWarning)
                    report = metrics(ConfusionMatrix(counts))
            assert abs(report.recall - report.accuracy) < 1e-12

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            k = int(rng.integers(2, 6))
            counts = 1 + rng.integers(0, 20, size=(k, k))
            report = metrics(ConfusionMatrix(counts))
            want = naive_weighted_metrics(counts)
            np.testing.assert_allclose(report.accuracy, want["accuracy"], atol=1e-12)
            np.testing.assert_allclose(report.precision, want["weighted_precision"], atol=1e-12)
            np.testing.assert_allclose(report.recall, want["weighted_recall"], atol=1e-12)
            np.testing.assert_allclose(report.f1, want["weighted_f1"], atol=1e-12)

    def test_absent_class_contributes_nothing(self):
        counts = np.array([[5, 0, 0], [0, 5, 0], [0, 0, 0]])
        with pytest.warns(UndefinedMetricWarning):
            report = metrics(ConfusionMatrix(counts))
        assert report.accuracy == 1.0
        assert report.precision == 1.0
        assert report.per_class[2].support == 0
        assert report.per_class[2].recall == 0.0

    def test_unpredicted_class_has_zero_precision(self):
        counts = np.array([[2, 0], [1, 0]])  # nothing ever predicted as class 1
        with pytest.warns(UndefinedMetricWarning):
            report = metrics(ConfusionMatrix(counts))
        assert report.per_class[1].precision == 0.0

    def test_empty_matrix_rejected(self):
        with pytest.raises(EmptyEvaluationError):
            metrics(ConfusionMatrix(np.zeros((2, 2), dtype=np.int64)))

    def test_class_permutation_invariance(self):
        rng = np.random.default_rng(3)
        counts = 1 + rng.integers(0, 9, size=(4, 4))
        perm = rng.permutation(4)
        a = metrics(ConfusionMatrix(counts))
        b = metrics(ConfusionMatrix(counts[np.ix_(perm, perm)]))
        np.testing.assert_allclose(
            [a.accuracy, a.precision, a.recall, a.f1],
            [b.accuracy, b.precision, b.recall, b.f1], atol=1e-12)


class TestReportDict:
    def test_values_rounded_to_four_decimals(self):
        report = metrics(ConfusionMatrix(np.array([[1, 1], [0, 1]])))
        doc = report_to_dict(report)
        assert doc["accuracy"] == 0.6667
        assert doc["precision"] == 0.8333
        assert doc["per_class"][0]["support"] == 2

    def test_class_names_attached(self):
        report = metrics(ConfusionMatrix(np.diag([2, 3])))
        doc = report_to_dict(report, class_names=("ok", "bad"))
        assert [r["class"] for r in doc["per_class"]] == ["ok", "bad"]

    def test_name_count_mismatch_rejected(self):
        report = metrics(ConfusionMatrix(np.diag([2, 3])))
        with pytest.raises(InvalidLabelError):
            report_to_dict(report, class_names=("only-one",))
