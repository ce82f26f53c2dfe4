"""Model serialization: one JSON file per trained model.

Floats are written in Python's shortest round-trip decimal form, so reloading
reproduces the exact parameter values. Trees are stored as flat node arrays
with child indices; leaf thresholds are null.
"""

import dataclasses
import json
import math

import numpy as np

from .base import ClassifyError, schema_fingerprint
from .bayes import BayesModel
from .logistic import LogisticModel
from .svm import SvmModel
from .tree import ForestModel, TreeModel

FORMAT_VERSION = 1


def _tree_nodes(m: TreeModel) -> dict:
    return {
        "feature_index": m.feature_index.tolist(),
        "threshold": [None if math.isnan(t) else t for t in m.threshold.tolist()],
        "left": m.left.tolist(),
        "right": m.right.tolist(),
        "score": m.score.tolist(),
    }


def _tree_from_nodes(names, nodes: dict) -> TreeModel:
    thr = [math.nan if t is None else float(t) for t in nodes["threshold"]]
    return TreeModel(names,
                     np.array(nodes["feature_index"], dtype=np.int64),
                     np.array(thr),
                     np.array(nodes["left"], dtype=np.int64),
                     np.array(nodes["right"], dtype=np.int64),
                     np.array(nodes["score"]))


def _parameters(model) -> dict:
    if isinstance(model, LogisticModel):
        return {"coefficients": model.coefficients.tolist(),
                "decision_threshold": model.decision_threshold}
    if isinstance(model, BayesModel):
        return {"priors": model.priors.tolist(), "means": model.means.tolist(),
                "sigmas": model.sigmas.tolist()}
    if isinstance(model, SvmModel):
        return {"weights": model.weights.tolist(), "bias": model.bias}
    if isinstance(model, TreeModel):
        return {"nodes": _tree_nodes(model)}
    if isinstance(model, ForestModel):
        return {"vote_rule": "majority",
                "trees": [_tree_nodes(t) for t in model.trees]}
    raise ClassifyError(f"unknown model type {type(model).__name__}")


def save_model(model, params, path) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "algorithm": model.kind,
        "hyperparams": dataclasses.asdict(params) if params is not None else {},
        "feature_names": list(model.feature_names),
        "schema_fingerprint": schema_fingerprint(model.feature_names),
        "parameters": _parameters(model),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=1) + "\n")


def load_model(path):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        return _model_from(doc)
    except KeyError as exc:
        raise ClassifyError(f"model file {str(path)!r} lacks the key {exc.args[0]!r}") from None


def _model_from(doc: dict):
    if doc.get("format_version") != FORMAT_VERSION:
        raise ClassifyError(f"unsupported model format {doc.get('format_version')!r}")
    names = tuple(doc["feature_names"])
    if schema_fingerprint(names) != doc["schema_fingerprint"]:
        raise ClassifyError("schema fingerprint does not match the stored feature names")
    algo = doc["algorithm"]
    p = doc["parameters"]
    if algo == "logistic_regression":
        return LogisticModel(names, np.array(p["coefficients"]),
                             float(p["decision_threshold"]))
    if algo == "naive_bayes":
        return BayesModel(names, np.array(p["priors"]), np.array(p["means"]),
                          np.array(p["sigmas"]))
    if algo == "svm":
        return SvmModel(names, np.array(p["weights"]), float(p["bias"]))
    if algo == "decision_tree":
        return _tree_from_nodes(names, p["nodes"])
    if algo == "random_forest":
        if p.get("vote_rule") != "majority":
            raise ClassifyError(f"unsupported forest vote rule {p.get('vote_rule')!r}; "
                                "expected 'majority'")
        return ForestModel(names, tuple(_tree_from_nodes(names, nd) for nd in p["trees"]))
    raise ClassifyError(f"unknown algorithm tag {algo!r}")
