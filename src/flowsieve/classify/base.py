"""Shared classifier plumbing: training arrays, feature manifests, dispatch."""

import hashlib

import numpy as np

from ..tabular import Table


class ClassifyError(ValueError):
    pass


class ManifestMismatchError(ClassifyError):
    """A table to classify does not match the model's feature manifest."""


def schema_fingerprint(feature_names) -> str:
    joined = "\x1f".join(feature_names)
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()


def training_arrays(train: Table) -> tuple[np.ndarray, np.ndarray]:
    """Feature matrix and 0/1 integer labels; rejects non-binarized labels."""
    X = train.X
    y = train.y
    values = set(np.unique(y).tolist())
    if not values <= {0.0, 1.0}:
        raise ClassifyError(f"labels must be binarized to 0/1, found {sorted(values)}")
    if X.shape[1] == 0:
        raise ClassifyError("table has no feature columns")
    return X, y.astype(np.int64)


def check_manifest(model, t: Table) -> np.ndarray:
    """Validate the table against the model's manifest; return its feature matrix."""
    if t.feature_names != model.feature_names:
        raise ManifestMismatchError(
            f"feature columns {list(t.feature_names)} do not match the model's "
            f"manifest {list(model.feature_names)}")
    return t.X


def predict_arrays(model, t: Table) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise (labels, scores) for any trained model variant."""
    X = check_manifest(model, t)
    return model.decide(X)
