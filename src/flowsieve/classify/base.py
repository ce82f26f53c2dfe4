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
    """Feature matrix and the table's float 0/1 labels; rejects
    non-binarized labels."""
    X = train.X
    y = train.y
    if np.count_nonzero(y == 0) + np.count_nonzero(y == 1) != y.size:
        raise ClassifyError(f"labels must be binarized to 0/1, found {np.unique(y).tolist()}")
    if X.shape[1] == 0:
        raise ClassifyError("table has no feature columns")
    return X, y


def predict_arrays(model, t: Table) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise (labels, scores) for any trained model variant, of a table
    whose features match the model's manifest."""
    if t.feature_names != model.feature_names:
        raise ManifestMismatchError(
            f"feature columns {list(t.feature_names)} do not match the model's "
            f"manifest {list(model.feature_names)}")
    return model.decide(t.X)
