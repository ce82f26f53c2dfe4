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
    thr = _value(nodes, "threshold", "a list of numbers and nulls",
                 lambda v: isinstance(v, list) and all(t is None or _is_number(t) for t in v))
    return TreeModel(names,
                     _array(nodes, "feature_index", 1, np.int64),
                     np.array([math.nan if t is None else float(t) for t in thr]),
                     _array(nodes, "left", 1, np.int64),
                     _array(nodes, "right", 1, np.int64),
                     _array(nodes, "score", 1))


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


class _WrongType(Exception):
    """A model file key whose value has the wrong JSON type: (key, expected)."""


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _value(doc: dict, key: str, expected: str, ok):
    value = doc[key]
    if not ok(value):
        raise _WrongType(key, expected)
    return value


def _array(doc: dict, key: str, ndim: int, dtype=np.float64) -> np.ndarray:
    """The value of `key` as an array of `dtype`; it must be a list of
    numbers nested `ndim` deep, integers only for an integer dtype."""
    value = doc[key]
    integer = np.issubdtype(dtype, np.integer)
    kinds = "iu" if integer else "iuf"
    try:
        a = np.array(value) if isinstance(value, list) else None
    except ValueError:  # a ragged list
        a = None
    if a is None or a.ndim != ndim or (a.size and a.dtype.kind not in kinds):
        raise _WrongType(key, f"a {ndim}-d list of {'integers' if integer else 'numbers'}")
    return a.astype(dtype)


def load_model(path):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    where = f"model file {str(path)!r}"
    if not isinstance(doc, dict):
        raise ClassifyError(f"{where} holds no JSON object")
    try:
        return _model_from(doc)
    except KeyError as exc:
        raise ClassifyError(f"{where} lacks the key {exc.args[0]!r}") from None
    except _WrongType as exc:
        key, expected = exc.args
        raise ClassifyError(f"{where}: the key {key!r} is not {expected}") from None


def _model_from(doc: dict):
    if doc.get("format_version") != FORMAT_VERSION:
        raise ClassifyError(f"unsupported model format {doc.get('format_version')!r}")
    names = tuple(_value(doc, "feature_names", "a list of strings",
                         lambda v: isinstance(v, list) and all(isinstance(n, str) for n in v)))
    if schema_fingerprint(names) != doc["schema_fingerprint"]:
        raise ClassifyError("schema fingerprint does not match the stored feature names")
    algo = doc["algorithm"]
    p = _value(doc, "parameters", "an object", lambda v: isinstance(v, dict))
    if algo == "logistic_regression":
        return LogisticModel(names, _array(p, "coefficients", 1),
                             float(_value(p, "decision_threshold", "a number", _is_number)))
    if algo == "naive_bayes":
        return BayesModel(names, _array(p, "priors", 1), _array(p, "means", 2),
                          _array(p, "sigmas", 2))
    if algo == "svm":
        return SvmModel(names, _array(p, "weights", 1),
                        float(_value(p, "bias", "a number", _is_number)))
    if algo == "decision_tree":
        return _tree_from_nodes(names, _value(p, "nodes", "an object",
                                              lambda v: isinstance(v, dict)))
    if algo == "random_forest":
        if p.get("vote_rule") != "majority":
            raise ClassifyError(f"unsupported forest vote rule {p.get('vote_rule')!r}; "
                                "expected 'majority'")
        trees = _value(p, "trees", "a list of objects",
                       lambda v: isinstance(v, list) and all(isinstance(nd, dict) for nd in v))
        return ForestModel(names, tuple(_tree_from_nodes(names, nd) for nd in trees))
    raise ClassifyError(f"unknown algorithm tag {algo!r}")
