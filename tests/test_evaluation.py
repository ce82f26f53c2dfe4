import csv
import json

import numpy as np
import pytest

import reference as ref
from flowsieve import pipeline
from flowsieve.classify import TreeParams, train_tree
from flowsieve.config import CLASSIFIER_ORDER, ClassifierConfig
from flowsieve.evaluation import (EvalError, confusion, evaluate, metrics,
                                  write_metrics_csv, write_metrics_json)

from helpers import blobs_2d, make_table


def cm(tp, fp, fn, tn) -> dict:
    return {"tp": tp, "fp": fp, "fn": fn, "tn": tn}


def test_confusion_perfect_and_all_benign():
    truth = np.array([1] * 50 + [0] * 50)
    assert confusion(truth, truth) == cm(50, 0, 0, 50)
    assert confusion(np.zeros(100), truth) == cm(0, 0, 50, 50)


def test_confusion_hand_tally():
    pred = [1, 1, 0, 0, 1, 0, 1, 0, 0, 1]
    truth = [1, 0, 0, 1, 1, 0, 0, 0, 1, 1]
    counts = confusion(pred, truth)
    assert list(counts.items()) == [("tp", 3), ("fp", 2), ("fn", 2), ("tn", 3)]
    assert all(type(v) is int for v in counts.values())


def test_confusion_errors():
    with pytest.raises(EvalError, match="length"):
        confusion([1, 0], [1])
    with pytest.raises(EvalError, match=r"^predictions must be binary 0/1, found \[0, 1, 2\]$"):
        confusion([2, 0, 1, 2], [1, 0, 1, 1])
    with pytest.raises(EvalError, match=r"^truths must be binary 0/1, found \[0\.0, nan\]$"):
        confusion([True, False], [np.nan, 0.0])
    with pytest.raises(EvalError, match="non-negative"):
        metrics(cm(-1, 0, 0, 2))


def test_metrics_hand_case():
    mv = metrics(cm(tp=8, fp=2, fn=1, tn=89))
    assert list(mv) == ["accuracy", "precision", "recall", "f1"]
    assert mv["precision"] == pytest.approx(0.8, abs=1e-15)
    assert mv["recall"] == pytest.approx(8 / 9, abs=1e-15)
    assert mv["f1"] == pytest.approx(0.8421052631578948, abs=1e-12)
    assert mv["accuracy"] == pytest.approx(0.97, abs=1e-15)


def test_metrics_degenerate_zeros():
    mv = metrics(cm(tp=0, fp=0, fn=3, tn=7))
    assert mv["precision"] == 0.0 and mv["f1"] == 0.0
    mv = metrics(cm(tp=0, fp=2, fn=0, tn=8))
    assert mv["recall"] == 0.0 and mv["f1"] == 0.0
    with pytest.raises(EvalError, match="empty"):
        metrics(cm(0, 0, 0, 0))


def test_metrics_bounds_and_identities():
    rng = np.random.default_rng(77)
    for _ in range(200):
        tp, fp, fn, tn = (int(x) for x in rng.integers(0, 50, 4))
        if tp + fp + fn + tn == 0:
            continue
        mv = metrics(cm(tp, fp, fn, tn))
        want = ref.metrics_ref(tp, fp, fn, tn)
        assert tuple(mv.values()) == pytest.approx(want, abs=1e-12)
        for v in mv.values():
            assert 0.0 <= v <= 1.0
        assert mv["accuracy"] == (tp + tn) / (tp + fp + fn + tn)
        p, r = mv["precision"], mv["recall"]
        if p + r > 0:
            assert mv["f1"] == pytest.approx(2 * p * r / (p + r), abs=1e-12)


def test_label_swap_duality():
    rng = np.random.default_rng(78)
    for _ in range(100):
        tp, fp, fn, tn = (int(x) for x in rng.integers(0, 30, 4))
        if tp + fp + fn + tn == 0:
            continue
        swapped = metrics(cm(tp=tn, fp=fn, fn=fp, tn=tp))
        want = ref.metrics_ref(tn, fn, fp, tp)
        assert tuple(swapped.values()) == pytest.approx(want, abs=1e-12)


def test_evaluate_pair_and_self_consistency():
    t = blobs_2d(30, seed=90)
    model = train_tree(t, TreeParams(max_depth=3))
    tr, ts = evaluate(model, t, t, attack="A", threshold=0.4)
    assert list(tr) == ["split", "attack", "classifier", "threshold", "n_features",
                        "confusion", "accuracy", "precision", "recall", "f1"]
    assert tr["split"] == "train" and ts["split"] == "test"
    assert {k: v for k, v in tr.items() if k != "split"} == \
           {k: v for k, v in ts.items() if k != "split"}
    assert tr["n_features"] == 2 and tr["attack"] == "A" and tr["threshold"] == 0.4


@pytest.mark.parametrize("tag", CLASSIFIER_ORDER)
def test_evaluate_names_each_model_by_its_kind(tag):
    # a row's classifier is its model's kind, which must be the tag that names
    # the trainer, its hyperparameters and its model file
    t = blobs_2d(30, seed=90)
    model = pipeline._TRAINERS[tag](t, ClassifierConfig().params(tag))
    rows = evaluate(model, t, t, attack="A", threshold=0.4)
    assert [row["classifier"] for row in rows] == [tag, tag]


def test_metrics_files(tmp_path):
    counts = cm(tp=8, fp=2, fn=1, tn=89)
    report = {"split": "test", "attack": "FTP", "classifier": "random_forest",
              "threshold": 0.35, "n_features": 8, "confusion": counts,
              **metrics(counts)}
    csv_path = tmp_path / "metrics.csv"
    write_metrics_csv([report], csv_path)
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["attack", "threshold", "n_features", "classifier", "split",
                       "accuracy", "precision", "recall", "f1"]
    assert rows[1] == ["FTP", "0.35", "8", "random_forest", "test",
                       "0.97000", "0.80000", "0.88889", "0.84211"]
    json_path = tmp_path / "metrics.json"
    write_metrics_json([report], json_path)
    doc = json.loads(json_path.read_text())
    assert doc[0]["confusion"] == {"tp": 8, "fp": 2, "fn": 1, "tn": 89}
    assert doc[0]["attack"] == "FTP"


METRICS_CSV_TEXT = (
    "attack,threshold,n_features,classifier,split,accuracy,precision,recall,f1\r\n"
    "FTP-BruteForce,0.35,1,decision_tree,train,1.00000,1.00000,1.00000,1.00000\r\n"
    "FTP-BruteForce,0.35,1,decision_tree,test,0.97000,0.80000,0.88889,0.84211\r\n")

METRICS_JSON_TEXT = """[
 {
  "split": "train",
  "attack": "FTP-BruteForce",
  "classifier": "decision_tree",
  "threshold": 0.35,
  "n_features": 1,
  "confusion": {
   "tp": 2,
   "fp": 0,
   "fn": 0,
   "tn": 2
  },
  "accuracy": 1.0,
  "precision": 1.0,
  "recall": 1.0,
  "f1": 1.0
 },
 {
  "split": "test",
  "attack": "FTP-BruteForce",
  "classifier": "decision_tree",
  "threshold": 0.35,
  "n_features": 1,
  "confusion": {
   "tp": 8,
   "fp": 2,
   "fn": 1,
   "tn": 89
  },
  "accuracy": 0.97,
  "precision": 0.8,
  "recall": 0.8888888888888888,
  "f1": 0.8421052631578948
 }
]
"""


def test_metrics_files_exact_text(tmp_path):
    """The bytes of both files for one evaluated pair: a stump that is
    perfect on its four training rows and scores tp=8, fp=2, fn=1, tn=89 on
    the 100 test rows."""
    train = make_table({"x": [0, 1, 2, 3]}, [0, 0, 1, 1])
    test = make_table({"x": [3] * 8 + [0] + [3] * 2 + [0] * 89}, [1] * 9 + [0] * 91)
    model = train_tree(train, TreeParams(max_depth=1))
    rows = evaluate(model, train, test, attack="FTP-BruteForce", threshold=0.35)
    write_metrics_csv(rows, tmp_path / "metrics.csv")
    write_metrics_json(rows, tmp_path / "metrics.json")
    assert (tmp_path / "metrics.csv").read_bytes().decode() == METRICS_CSV_TEXT
    assert (tmp_path / "metrics.json").read_bytes().decode() == METRICS_JSON_TEXT
