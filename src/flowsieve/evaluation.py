"""Confusion matrix and the four classification metrics, attack = positive class."""

import csv
import json
from dataclasses import dataclass

import numpy as np

from .classify.base import predict_arrays
from .tabular import Table

METRICS_CSV_HEADER = ("attack", "threshold", "n_features", "classifier", "split",
                      "accuracy", "precision", "recall", "f1")


class EvalError(ValueError):
    pass


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise EvalError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def confusion(pred, truth) -> ConfusionMatrix:
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise EvalError(f"length mismatch: {pred.shape} predictions vs {truth.shape} truths")
    for name, arr in (("predictions", pred), ("truths", truth)):
        values = set(np.unique(arr).tolist())
        if not values <= {0, 1, 0.0, 1.0}:
            raise EvalError(f"{name} must be binary 0/1, found {sorted(values)}")
    tn, fp, fn, tp = np.bincount(2 * truth.astype(np.intp) + pred.astype(np.intp),
                                 minlength=4).tolist()
    return ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn)


@dataclass(frozen=True)
class MetricValues:
    accuracy: float
    precision: float
    recall: float
    f1: float


def metrics(cm: ConfusionMatrix) -> MetricValues:
    """Accuracy, precision, recall, F1; degenerate ratios are defined as 0."""
    if cm.total == 0:
        raise EvalError("empty confusion matrix")
    accuracy = (cm.tp + cm.tn) / cm.total
    precision = cm.tp / (cm.tp + cm.fp) if cm.tp + cm.fp else 0.0
    recall = cm.tp / (cm.tp + cm.fn) if cm.tp + cm.fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return MetricValues(accuracy, precision, recall, f1)


@dataclass(frozen=True)
class MetricsReport:
    split: str            # "train" or "test"
    attack: str
    classifier: str
    threshold: float
    n_features: int
    confusion: ConfusionMatrix
    accuracy: float
    precision: float
    recall: float
    f1: float

    @classmethod
    def build(cls, cm: ConfusionMatrix, *, split: str, attack: str,
              classifier: str, threshold: float, n_features: int) -> "MetricsReport":
        mv = metrics(cm)
        return cls(split, attack, classifier, threshold, n_features, cm,
                   mv.accuracy, mv.precision, mv.recall, mv.f1)

    def to_json(self) -> dict:
        return {
            "split": self.split, "attack": self.attack,
            "classifier": self.classifier, "threshold": self.threshold,
            "n_features": self.n_features,
            "confusion": {"tp": self.confusion.tp, "fp": self.confusion.fp,
                          "fn": self.confusion.fn, "tn": self.confusion.tn},
            "accuracy": self.accuracy, "precision": self.precision,
            "recall": self.recall, "f1": self.f1,
        }


def evaluate(model, train: Table, test: Table, *, attack: str, classifier: str,
             threshold: float) -> tuple[MetricsReport, MetricsReport]:
    """One report per split, counting the model's features."""
    out = []
    for split, table in (("train", train), ("test", test)):
        labels, _ = predict_arrays(model, table)
        cm = confusion(labels, table.y)
        out.append(MetricsReport.build(cm, split=split, attack=attack,
                                       classifier=classifier, threshold=threshold,
                                       n_features=len(model.feature_names)))
    return out[0], out[1]


def write_metrics_csv(reports, path) -> None:
    """Metric rows at 5 decimal places; the data behind accuracy-vs-features curves."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_CSV_HEADER)
        for r in reports:
            writer.writerow([r.attack, f"{r.threshold:g}", str(r.n_features),
                             r.classifier, r.split,
                             f"{r.accuracy:.5f}", f"{r.precision:.5f}",
                             f"{r.recall:.5f}", f"{r.f1:.5f}"])


def write_metrics_json(reports, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps([r.to_json() for r in reports], indent=1) + "\n")
