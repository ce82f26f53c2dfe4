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
    feature_index = _array(nodes, "feature_index", (None,), "", np.int64)
    count = len(feature_index)
    if not count:
        raise _BadValue("feature_index", "is empty, expected at least the root node")
    _in_range("feature_index", feature_index, len(names), "-1 for a leaf, else a feature")
    per_node = (count,), "one per node"
    children = [_in_range(key, _array(nodes, key, *per_node, np.int64), count,
                          "-1 for a leaf, else a node") for key in ("left", "right")]
    threshold = _shaped("threshold", np.array([math.nan if t is None else float(t)
                                               for t in thr]), *per_node)
    score = _array(nodes, "score", *per_node)
    # a split's children come after it, as `_grow`'s preorder numbers them,
    # so that every path from the root ends at a leaf
    split = np.flatnonzero(feature_index >= 0)
    for key, child in zip(("left", "right"), children):
        early = split[child[split] <= split]
        if early.size:
            i = early[0]
            raise _BadValue(key, f"holds {child[i]} at node {i}, which splits, expected "
                                 f"a later node in ({i}, {count})")
    unset = split[np.isnan(threshold[split])]
    if unset.size:
        raise _BadValue("threshold", f"holds null at node {unset[0]}, which splits, "
                                     "expected a number")
    return TreeModel(names, feature_index, threshold, *children, score)


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
        "hyperparams": dataclasses.asdict(params),
        "feature_names": list(model.feature_names),
        "schema_fingerprint": schema_fingerprint(model.feature_names),
        "parameters": _parameters(model),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=1) + "\n")


class _BadValue(Exception):
    """A model file key whose value has the wrong JSON type or does not fit
    the model: (key, what is wrong with it)."""


def _shaped(key: str, a: np.ndarray, shape: tuple, per: str) -> np.ndarray:
    """`a`, if its shape is `shape`; `per` says what the lengths count."""
    if a.shape != shape:
        word = "length" if len(shape) == 1 else "shape"
        raise _BadValue(key, f"has {word} {' x '.join(map(str, a.shape))}, expected "
                             f"{' x '.join(map(str, shape))} ({per})")
    return a


def _in_range(key: str, a: np.ndarray, stop: int, what: str) -> np.ndarray:
    """`a`, if every value lies in [-1, stop); `what` says what they index."""
    bad = a[(a < -1) | (a >= stop)]
    if bad.size:
        raise _BadValue(key, f"holds {bad[0]}, outside [-1, {stop}) ({what})")
    return a


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _value(doc: dict, key: str, expected: str, ok):
    value = doc[key]
    if not ok(value):
        raise _BadValue(key, f"is not {expected}")
    return value


def _array(doc: dict, key: str, shape: tuple, per: str, dtype=np.float64) -> np.ndarray:
    """The value of `key` as an array of `dtype` and shape `shape`, None
    standing for any length; it must be a list of numbers nested len(shape)
    deep, integers only for an integer dtype. `per` says what the lengths
    count."""
    value = doc[key]
    integer = np.issubdtype(dtype, np.integer)
    kinds = "iu" if integer else "iuf"
    try:
        a = np.array(value) if isinstance(value, list) else None
    except ValueError:  # a ragged list
        a = None
    if a is None or a.ndim != len(shape) or (a.size and a.dtype.kind not in kinds):
        raise _BadValue(key, f"is not a {len(shape)}-d list of "
                             f"{'integers' if integer else 'numbers'}")
    return _shaped(key, a.astype(dtype), tuple(a.shape[i] if n is None else n
                                               for i, n in enumerate(shape)), per)


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
    except _BadValue as exc:
        key, wrong = exc.args
        raise ClassifyError(f"{where}: the key {key!r} {wrong}") from None


def _model_from(doc: dict):
    if doc.get("format_version") != FORMAT_VERSION:
        raise ClassifyError(f"unsupported model format {doc.get('format_version')!r}")
    names = tuple(_value(doc, "feature_names", "a list of strings",
                         lambda v: isinstance(v, list) and all(isinstance(n, str) for n in v)))
    if schema_fingerprint(names) != doc["schema_fingerprint"]:
        raise ClassifyError("schema fingerprint does not match the stored feature names")
    algo = doc["algorithm"]
    p = _value(doc, "parameters", "an object", lambda v: isinstance(v, dict))
    d = len(names)
    if algo == "logistic_regression":
        return LogisticModel(names, _array(p, "coefficients", (d + 1,),
                                           "the intercept, then one per feature"),
                             float(_value(p, "decision_threshold", "a number", _is_number)))
    if algo == "naive_bayes":
        return BayesModel(names, _array(p, "priors", (2,), "one per class"),
                          *(_array(p, key, (2, d), "classes x features")
                            for key in ("means", "sigmas")))
    if algo == "svm":
        return SvmModel(names, _array(p, "weights", (d,), "one per feature"),
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
        if not trees:
            raise _BadValue("trees", "is empty, expected at least one tree")
        return ForestModel(names, tuple(_tree_from_nodes(names, nd) for nd in trees))
    raise ClassifyError(f"unknown algorithm tag {algo!r}")
