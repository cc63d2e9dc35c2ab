from dataclasses import replace

import numpy as np
import pytest

import gestrec.evaluation as evaluation
from gestrec.evaluation import (
    EmptyFilter,
    EvaluationError,
    OutOfRange,
    accuracy,
    aggregate_splits,
    class_of,
    collapse_28_to_14,
    confusion_matrix,
    larfd,
    render_summary,
    run_loocv,
    write_report,
)
from gestrec.network import fit_normalization

FINE = (1, 3, 4, 5, 6)


def test_accuracy_all_correct():
    labels = np.arange(1, 15)
    assert accuracy(labels, labels, "both", FINE) == 1.0


def test_accuracy_category_filter():
    labels = np.array([1, 3, 4, 5, 2, 7])      # four fine, two coarse
    preds = np.array([1, 3, 9, 9, 2, 9])       # half of fine correct
    assert accuracy(preds, labels, "fine", FINE) == 0.5
    assert accuracy(preds, labels, "coarse", FINE) == 0.5
    assert accuracy(preds, labels, "both", FINE) == 0.5


def test_accuracy_weighted_mean_identity():
    rng = np.random.default_rng(60)
    for _ in range(20):
        labels = rng.integers(1, 15, 40)
        preds = rng.integers(1, 15, 40)
        fine_count = sum(1 for l in labels if l in FINE)
        coarse_count = len(labels) - fine_count
        if fine_count == 0 or coarse_count == 0:
            continue
        fine = accuracy(preds, labels, "fine", FINE)
        coarse = accuracy(preds, labels, "coarse", FINE)
        both = accuracy(preds, labels, "both", FINE)
        weighted = (fine * fine_count + coarse * coarse_count) / len(labels)
        assert both == pytest.approx(weighted, abs=1e-12)


def test_accuracy_empty_filter():
    labels = np.array([2, 7])                  # both coarse
    with pytest.raises(EmptyFilter):
        accuracy(labels, labels, "fine", FINE)


def as_tuple(stats):
    return (stats.best, stats.worst, stats.avg, stats.std)


def test_aggregate_examples():
    assert as_tuple(aggregate_splits([0.8, 0.8, 0.8])) == pytest.approx((0.8, 0.8, 0.8, 0.0))
    stats = aggregate_splits([0.6, 1.0])
    assert (stats.best, stats.worst, stats.avg) == (1.0, 0.6, 0.8)
    assert stats.std == pytest.approx(0.2, abs=1e-15)   # population std
    assert as_tuple(aggregate_splits([0.7])) == pytest.approx((0.7, 0.7, 0.7, 0.0))


def test_collapse_examples_and_bijection():
    assert collapse_28_to_14(1) == 1
    assert collapse_28_to_14(2) == 1
    assert collapse_28_to_14(28) == 14
    for label in range(1, 29):
        assert collapse_28_to_14(label) == (label + 1) // 2
    with pytest.raises(OutOfRange):
        collapse_28_to_14(0)
    with pytest.raises(OutOfRange):
        collapse_28_to_14(29)


def test_class_of_label_ranges():
    assert class_of(1, 1, 14) == 0
    assert class_of(14, 2, 28) == 27
    with pytest.raises(OutOfRange):
        class_of(15, 1, 14)
    with pytest.raises(OutOfRange):
        class_of(1, 3, 28)


def test_larfd_perfect_predictions():
    labels = np.arange(1, 29)
    assert larfd(labels, labels) == 0.0


def test_larfd_gesture_right_finger_wrong():
    labels = np.arange(1, 29)
    flipped = labels + np.where(labels % 2 == 1, 1, -1)   # swap finger config
    assert larfd(flipped, labels) == pytest.approx(1.0)


def test_larfd_nonnegative_on_random_predictions():
    rng = np.random.default_rng(61)
    for _ in range(50):
        labels = rng.integers(1, 29, 60)
        preds = rng.integers(1, 29, 60)
        assert larfd(preds, labels) >= 0.0


def test_confusion_matrix_invariants():
    rng = np.random.default_rng(62)
    for _ in range(100):
        classes = int(rng.integers(3, 15))
        n = int(rng.integers(5, 80))
        labels = rng.integers(1, classes + 1, n)
        preds = rng.integers(1, classes + 1, n)
        matrix = confusion_matrix(preds, labels, classes)
        assert matrix.sum() == n
        for c in range(1, classes + 1):
            assert matrix[c - 1].sum() == int(np.sum(labels == c))
        trace_rate = np.trace(matrix) / n
        assert trace_rate == pytest.approx(
            accuracy(preds, labels, "both", FINE, classes), abs=1e-15)


@pytest.fixture(scope="module")
def tiny_report(tiny_sequences, tiny_config):
    return run_loocv(tiny_sequences, tiny_config, classes=14, seed=5)


def test_run_loocv_shapes(tiny_report, tiny_sequences):
    report = tiny_report
    assert len(report.splits) == 3
    assert report.confusion.shape == (14, 14)
    assert report.confusion.sum() == len(tiny_sequences)
    for split in report.splits:
        assert split.n_test == 6
        assert split.accuracy["both"] is not None
    assert report.larfd_value is None


def test_run_loocv_deterministic(tiny_sequences, tiny_config, tiny_report):
    again = run_loocv(tiny_sequences, tiny_config, classes=14, seed=5)
    np.testing.assert_array_equal(again.confusion, tiny_report.confusion)
    for a, b in zip(again.splits, tiny_report.splits):
        np.testing.assert_array_equal(a.predictions, b.predictions)
        assert a.accuracy == b.accuracy


def test_run_loocv_train_normalization_excludes_test_subject(
        tiny_sequences, tiny_config, monkeypatch):
    observed = []
    original_train = evaluation.train

    def spy(model, samples, cfg):
        log = original_train(model, samples, cfg)
        observed.append((model, samples))
        return log

    monkeypatch.setattr(evaluation, "train", spy)
    run_loocv(tiny_sequences, tiny_config, classes=14, seed=5)
    assert len(observed) == 3
    subjects = sorted({s.subject for s in tiny_sequences})
    for held_out, (model, samples) in zip(subjects, observed):
        # stats recomputed from the training samples alone must match
        expected = {b: dict(model.norm[b]) for b in model.branches}
        fit_normalization(model, samples)
        for branch in model.branches:
            np.testing.assert_array_equal(model.norm[branch]["mean"],
                                          expected[branch]["mean"])
            np.testing.assert_array_equal(model.norm[branch]["std"],
                                          expected[branch]["std"])


def test_run_loocv_predictions_do_not_depend_on_the_train_accuracy_pass(
        tiny_sequences, tiny_config, tiny_report, monkeypatch):
    logs = []
    original_train = evaluation.train

    def recording(model, samples, cfg):
        log = original_train(model, samples, replace(cfg, record_accuracy=True))
        logs.append(log)
        return log

    monkeypatch.setattr(evaluation, "train", recording)
    forced = run_loocv(tiny_sequences, tiny_config, classes=14, seed=5)
    assert tiny_config.stop_accuracy == 0
    assert len(logs) == 3 and all(e.accuracy is not None for log in logs for e in log)
    for a, b in zip(forced.splits, tiny_report.splits):
        np.testing.assert_array_equal(a.predictions, b.predictions)
    np.testing.assert_array_equal(forced.confusion, tiny_report.confusion)


def test_run_loocv_rejects_features_of_another_length(tiny_sequences, tiny_config):
    n = len(tiny_sequences)
    with pytest.raises(EvaluationError, match=f"{n - 1} entries for {n} sequences"):
        run_loocv(tiny_sequences, tiny_config, features=[{}] * (n - 1))


def test_report_rendering_and_files(tiny_report, tmp_path):
    text = render_summary(tiny_report)
    assert "category" in text and "fine" in text
    files = write_report(tiny_report, tmp_path)
    names = {f.name for f in files}
    assert {"summary.txt", "summary.csv", "per_split.csv", "confusion.csv",
            "training.csv"} <= names
    per_split = (tmp_path / "per_split.csv").read_text().strip().splitlines()
    assert len(per_split) == 1 + 3
    confusion_rows = (tmp_path / "confusion.csv").read_text().strip().splitlines()
    assert len(confusion_rows) == 1 + 14


def test_run_loocv_28_classes_reports_larfd(tiny_sequences, tiny_config):
    report = run_loocv(tiny_sequences, tiny_config, classes=28, seed=5)
    assert report.confusion.shape == (28, 28)
    assert report.larfd_value is not None
    assert report.larfd_value >= 0.0
