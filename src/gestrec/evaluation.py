"""Leave-one-subject-out evaluation: per-category accuracy, split aggregation,
confusion matrices, the 28-to-14 collapse and the finger-differentiation
accuracy-loss metric."""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import PipelineConfig
from .dataset import DatasetEntry, DatasetIndex, EmptyDataset, make_loocv_splits
from .errors import GestrecError
from .features import extract_features
from .network import (
    EpochStats,
    NetworkModel,
    Sample,
    ShapeMismatch,
    TrainConfig,
    evaluate,
    init_model,
    train,
)
from .skeleton import SkeletonSequence

GESTURE_NAMES_14 = (
    "Grab", "Tap", "Expand", "Pinch", "RotationCW", "RotationCCW",
    "SwipeRight", "SwipeLeft", "SwipeUp", "SwipeDown", "SwipeX",
    "SwipePlus", "SwipeV", "Shake",
)

CATEGORIES = ("fine", "coarse", "both")


class EvaluationError(GestrecError):
    pass


class EmptyFilter(EvaluationError):
    pass


class OutOfRange(EvaluationError):
    pass


def class_name(label: int, classes: int) -> str:
    """Human name of a 1-based class label."""
    if classes == 28:
        gesture = collapse_28_to_14(label)
        finger = 2 - (label % 2)
        base = GESTURE_NAMES_14[gesture - 1] if gesture <= 14 else f"class{gesture}"
        return f"{base}_{finger}"
    base = GESTURE_NAMES_14[label - 1] if 1 <= label <= 14 else f"class{label}"
    return base


def collapse_28_to_14(label_28: int) -> int:
    """Drop the finger-configuration half of a 28-class label."""
    if not 1 <= label_28 <= 28:
        raise OutOfRange(f"28-class label out of range: {label_28}")
    return (label_28 + 1) // 2


def class_of(gesture: int, finger: int, classes: int) -> int:
    """0-based network class for dataset metadata."""
    if gesture < 1:
        raise OutOfRange(f"gesture id must be >= 1: {gesture}")
    if classes == 28:
        if finger not in (1, 2):
            raise OutOfRange(f"finger configuration must be 1 or 2: {finger}")
        label = 2 * (gesture - 1) + finger - 1
    else:
        label = gesture - 1
    if label >= classes:
        raise OutOfRange(f"label {label + 1} out of range for {classes} classes")
    return label


def _gesture_of(label: int, classes: int) -> int:
    return collapse_28_to_14(label) if classes == 28 else label


def accuracy(predictions, labels, category: str = "both",
             fine_gestures: tuple[int, ...] = PipelineConfig().fine_gestures,
             classes: int = 14) -> float:
    """Fraction correct over samples whose true gesture is in the category.

    Labels and predictions are 1-based class ids.
    """
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise EvaluationError("predictions and labels must have equal length")
    if category not in CATEGORIES:
        raise EvaluationError(f"category must be one of {CATEGORIES}")
    if category == "both":
        keep = np.ones(len(labels), dtype=bool)
    else:
        fine = np.array([_gesture_of(int(l), classes) in fine_gestures for l in labels])
        keep = fine if category == "fine" else ~fine
    if not keep.any():
        raise EmptyFilter(f"no samples in category {category!r}")
    return float(np.mean(predictions[keep] == labels[keep]))


@dataclass(frozen=True)
class AggregateStats:
    best: float
    worst: float
    avg: float
    std: float


def aggregate_splits(values) -> AggregateStats:
    """Best/worst/average and population standard deviation over splits."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise EvaluationError("need at least one split")
    return AggregateStats(float(arr.max()), float(arr.min()),
                          float(arr.mean()), float(arr.std()))


def larfd(predictions_28, labels_28) -> float:
    """Accuracy gained by collapsing 28-class output to 14 gestures.

    Zero means every error already confused distinct gestures; large values
    mean errors were mostly finger-configuration confusions within the right
    gesture.
    """
    predictions_28 = np.asarray(predictions_28)
    labels_28 = np.asarray(labels_28)
    acc_28 = accuracy(predictions_28, labels_28, "both", classes=28)
    collapsed_preds = np.array([collapse_28_to_14(int(p)) for p in predictions_28])
    collapsed_labels = np.array([collapse_28_to_14(int(l)) for l in labels_28])
    acc_14 = accuracy(collapsed_preds, collapsed_labels, "both", classes=14)
    return acc_14 - acc_28


def confusion_matrix(predictions, labels, classes: int) -> np.ndarray:
    """Counts with true class on rows, predicted on columns (1-based labels)."""
    matrix = np.zeros((classes, classes), dtype=np.int64)
    for pred, label in zip(np.asarray(predictions), np.asarray(labels)):
        if not (1 <= label <= classes and 1 <= pred <= classes):
            raise OutOfRange(f"label/prediction out of range: ({label}, {pred})")
        matrix[int(label) - 1, int(pred) - 1] += 1
    return matrix


@dataclass
class SplitResult:
    held_out_subject: int
    n_test: int
    accuracy: dict[str, float | None]
    predictions: np.ndarray          # 1-based class labels
    labels: np.ndarray
    training: list[EpochStats]       # the split's training log, one entry per epoch


@dataclass
class EvaluationReport:
    classes: int
    fine_gestures: tuple[int, ...]
    splits: list[SplitResult]
    aggregates: dict[str, AggregateStats | None]
    confusion: np.ndarray
    larfd_value: float | None


def _split_accuracies(preds, labels, config: PipelineConfig, classes: int):
    out: dict[str, float | None] = {}
    for category in CATEGORIES:
        try:
            out[category] = accuracy(preds, labels, category, config.fine_gestures, classes)
        except EmptyFilter:
            out[category] = None
    return out


def train_from_config(config: PipelineConfig, samples: list[Sample], classes: int, seed: int,
                      record_accuracy: bool = False) -> tuple[NetworkModel, list[EpochStats]]:
    """Build the model `config` describes and train it on `samples`.

    Each branch takes the width of its stream in the first sample. `seed`
    drives the weights, the batch order and dropout. `record_accuracy` fills
    every epoch's train accuracy (see `TrainConfig`). Returns (model, epoch
    log).
    """
    if not samples:
        raise EmptyDataset("no training samples")
    first = samples[0].streams
    missing = [b for b in config.branches if np.ndim(first.get(b)) != 2]
    if missing:
        raise ShapeMismatch(f"first sample has no (frames, dims) stream for {missing}")
    input_dims = {b: np.shape(first[b])[1] for b in config.branches}
    model = init_model(config.branches, input_dims, classes,
                       hidden=config.lstm_hidden, fc_out=config.fc_out, head=config.head,
                       dropout=config.dropout, bidirectional=config.bidirectional, seed=seed)
    train_cfg = TrainConfig(
        learning_rate=config.learning_rate, beta1=config.beta1, beta2=config.beta2,
        epsilon=config.epsilon, batch_size=config.batch_size, epochs=config.epochs,
        rng_seed=seed, clip_norm=config.clip_norm, stop_accuracy=config.stop_accuracy,
        record_accuracy=record_accuracy)
    return model, train(model, samples, train_cfg)


def run_loocv(sequences: list[SkeletonSequence], config: PipelineConfig = PipelineConfig(),
              classes: int = 14, seed: int = 0, progress=None,
              features: list[dict] | None = None) -> EvaluationReport:
    """Full pipeline: features, per-subject splits, training, metrics.

    Each split trains a fresh model (seeded from `seed` + held-out subject)
    on the other subjects' features; normalization statistics come from the
    training subset only. `progress`, if given, is called with a status line
    per split. Precomputed per-sequence feature dicts, one per sequence in
    the same order, can be passed via `features` to amortize extraction
    across repeated runs.
    """
    if not sequences:
        raise EvaluationError("no sequences to evaluate")
    entries = tuple(
        DatasetEntry(s.gesture, s.finger, s.subject, s.trial) for s in sequences)
    by_key = {e.key: i for i, e in enumerate(entries)}
    index = DatasetIndex(entries)
    splits = make_loocv_splits(index)

    if features is None:
        features = [extract_features(seq, config) for seq in sequences]
    elif len(features) != len(sequences):
        raise EvaluationError(f"features has {len(features)} entries for "
                              f"{len(sequences)} sequences")
    labels0 = [class_of(s.gesture, s.finger, classes) for s in sequences]

    results = []
    pooled_preds: list[int] = []
    pooled_labels: list[int] = []
    confusion = np.zeros((classes, classes), dtype=np.int64)
    for split in splits:
        started = time.perf_counter()
        train_idx = [by_key[e.key] for e in split.train_entries]
        test_idx = [by_key[e.key] for e in split.test_entries]
        train_samples = [Sample(features[i], labels0[i]) for i in train_idx]
        test_samples = [Sample(features[i], labels0[i]) for i in test_idx]

        model, log = train_from_config(config, train_samples, classes,
                                       seed + split.held_out_subject)

        preds0, _ = evaluate(model, test_samples)
        del model  # the next split's model is built without this one alive
        preds = preds0 + 1
        labels = np.array([labels0[i] for i in test_idx]) + 1
        confusion += confusion_matrix(preds, labels, classes)
        pooled_preds.extend(preds.tolist())
        pooled_labels.extend(labels.tolist())
        acc = _split_accuracies(preds, labels, config, classes)
        results.append(SplitResult(split.held_out_subject, len(test_idx), acc, preds, labels,
                                   log))
        if progress is not None:
            both = acc["both"]
            progress(f"subject {split.held_out_subject:2d}: "
                     f"test acc {both:.4f} after {len(log)} epochs, "
                     f"{time.perf_counter() - started:.2f} s")

    aggregates: dict[str, AggregateStats | None] = {}
    for category in CATEGORIES:
        values = [r.accuracy[category] for r in results if r.accuracy[category] is not None]
        aggregates[category] = aggregate_splits(values) if values else None

    larfd_value = larfd(pooled_preds, pooled_labels) if classes == 28 else None
    return EvaluationReport(classes, config.fine_gestures, results, aggregates,
                            confusion, larfd_value)


def render_summary(report: EvaluationReport) -> str:
    """Human-readable accuracy table (percentages)."""
    lines = [
        f"LOOCV over {len(report.splits)} subjects, {report.classes} classes",
        f"fine gestures: {', '.join(str(g) for g in report.fine_gestures)}",
        "",
        f"{'category':<10}{'best':>8}{'worst':>8}{'avg':>8}{'std':>8}",
    ]
    for category in CATEGORIES:
        stats = report.aggregates[category]
        if stats is None:
            lines.append(f"{category:<10}{'-':>8}{'-':>8}{'-':>8}{'-':>8}")
        else:
            lines.append(f"{category:<10}{100 * stats.best:>8.2f}{100 * stats.worst:>8.2f}"
                         f"{100 * stats.avg:>8.2f}{100 * stats.std:>8.2f}")
    if report.larfd_value is not None:
        lines.append("")
        lines.append(f"LARFD: {report.larfd_value:.6f}")
    return "\n".join(lines) + "\n"


def write_report(report: EvaluationReport, outdir: str | Path) -> list[Path]:
    """Write summary.txt/summary.csv, per_split.csv, confusion.csv,
    training.csv (+larfd.csv). training.csv has one row per split and epoch
    and leaves out the epoch's wall time, so a rerun writes the same bytes."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []

    def emit(name: str, text: str):
        path = outdir / name
        path.write_text(text)
        written.append(path)

    emit("summary.txt", render_summary(report))

    rows = ["category,best,worst,avg,std"]
    for category in CATEGORIES:
        stats = report.aggregates[category]
        if stats is None:
            rows.append(f"{category},,,,")
        else:
            rows.append(f"{category},{stats.best:.6f},{stats.worst:.6f},"
                        f"{stats.avg:.6f},{stats.std:.6f}")
    emit("summary.csv", "\n".join(rows) + "\n")

    rows = ["held_out_subject,n_test,fine,coarse,both"]
    for r in report.splits:
        cells = [str(r.held_out_subject), str(r.n_test)]
        for category in CATEGORIES:
            value = r.accuracy[category]
            cells.append("" if value is None else f"{value:.6f}")
        rows.append(",".join(cells))
    emit("per_split.csv", "\n".join(rows) + "\n")

    rows = ["held_out_subject,epoch,loss,grad_norm_mean,grad_norm_max,clipped_fraction"]
    for r in report.splits:
        for e in r.training:
            rows.append(f"{r.held_out_subject},{e.epoch},{e.loss:.9g},{e.grad_norm_mean:.9g},"
                        f"{e.grad_norm_max:.9g},{e.clipped_fraction:.9g}")
    emit("training.csv", "\n".join(rows) + "\n")

    names = [class_name(i + 1, report.classes) for i in range(report.classes)]
    rows = ["true\\pred," + ",".join(names)]
    for i, name in enumerate(names):
        rows.append(name + "," + ",".join(str(int(v)) for v in report.confusion[i]))
    emit("confusion.csv", "\n".join(rows) + "\n")

    if report.larfd_value is not None:
        emit("larfd.csv", f"metric,value\nlarfd,{report.larfd_value:.6f}\n")
    return written
