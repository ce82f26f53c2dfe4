"""Model serialization: each trained model is written as one JSON file.

Floats are written in Python's shortest round-trip decimal form, so the text
holds the exact parameter values. Trees are stored as flat preorder node
arrays with child indices; leaf thresholds are null.
"""

import dataclasses
import json
import math

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
