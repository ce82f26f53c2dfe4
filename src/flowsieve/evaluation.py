"""Confusion matrix and the four classification metrics, attack = positive class.

A metric row is the dict that `metrics.json` holds: split, attack,
classifier, threshold, n_features, confusion ({"tp", "fp", "fn", "tn"}),
then accuracy, precision, recall and f1, in that key order.
"""

import csv
import json

import numpy as np

from .classify.base import predict_arrays
from .tabular import Table

METRICS_CSV_HEADER = ("attack", "threshold", "n_features", "classifier", "split",
                      "accuracy", "precision", "recall", "f1")


class EvalError(ValueError):
    pass


def confusion(pred, truth) -> dict:
    """{"tp", "fp", "fn", "tn"} of 0/1 predictions against 0/1 truths."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise EvalError(f"length mismatch: {pred.shape} predictions vs {truth.shape} truths")
    for name, arr in (("predictions", pred), ("truths", truth)):
        if np.count_nonzero(arr == 0) + np.count_nonzero(arr == 1) != arr.size:
            raise EvalError(f"{name} must be binary 0/1, found {np.unique(arr).tolist()}")
    tn, fp, fn, tp = np.bincount(2 * truth.astype(np.intp) + pred.astype(np.intp),
                                 minlength=4).tolist()
    return {"tp": tp, "fp": fp, "fn": fn, "tn": tn}


def metrics(cm: dict) -> dict:
    """Accuracy, precision, recall, F1 of a confusion dict; degenerate ratios
    are defined as 0."""
    tp, fp, fn, tn = cm["tp"], cm["fp"], cm["fn"], cm["tn"]
    if min(tp, fp, fn, tn) < 0:
        raise EvalError("confusion counts must be non-negative")
    total = tp + fp + fn + tn
    if total == 0:
        raise EvalError("empty confusion matrix")
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {"accuracy": (tp + tn) / total, "precision": precision, "recall": recall, "f1": f1}


def evaluate(model, train: Table, test: Table, *, attack: str,
             threshold: float) -> tuple[dict, dict]:
    """The train row and the test row, naming the model's kind and counting
    its features."""
    out = []
    for split, table in (("train", train), ("test", test)):
        labels, _ = predict_arrays(model, table)
        cm = confusion(labels, table.y)
        out.append({"split": split, "attack": attack, "classifier": model.kind,
                    "threshold": threshold, "n_features": len(model.feature_names),
                    "confusion": cm, **metrics(cm)})
    return out[0], out[1]


def write_metrics_csv(reports, path) -> None:
    """Metric rows at 5 decimal places; the data behind accuracy-vs-features curves."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_CSV_HEADER)
        for r in reports:
            writer.writerow([r["attack"], f"{r['threshold']:g}", str(r["n_features"]),
                             r["classifier"], r["split"],
                             *(f"{r[k]:.5f}" for k in METRICS_CSV_HEADER[5:])])


def write_metrics_json(reports, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(reports, indent=1) + "\n")
