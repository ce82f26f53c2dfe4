"""Shared table builders for the test suite."""

import numpy as np

from flowsieve.tabular import Table, subtable


def make_table(features: dict, labels) -> Table:
    """Table from {name: values} plus a label vector named 'Label'."""
    y = np.asarray(labels, dtype=np.float64)
    cols = [np.asarray(values, dtype=np.float64) for values in features.values()]
    X = np.column_stack(cols) if cols else np.empty((len(y), 0))
    return Table(tuple(features), "Label", X, y)


def rows_of(t: Table, rows) -> Table:
    """The rows `rows` of `t`, every feature, in that order."""
    rows = np.asarray(rows, dtype=np.intp)
    return subtable(t, rows, t.y[rows], t.feature_names)


def blobs_2d(n_per_class: int, seed: int, spread: float = 0.08) -> Table:
    """Two well-separated Gaussian blobs inside the unit square."""
    rng = np.random.default_rng(seed)
    a = rng.normal(0.25, spread, size=(n_per_class, 2))
    b = rng.normal(0.75, spread, size=(n_per_class, 2))
    pts = np.clip(np.vstack([a, b]), 0.0, 1.0)
    labels = np.array([0.0] * n_per_class + [1.0] * n_per_class)
    return make_table({"f0": pts[:, 0], "f1": pts[:, 1]}, labels)


def random_table(rng, n_rows: int, n_features: int) -> Table:
    """Continuous features in [0, 1] with random binary labels (both classes present)."""
    X = rng.random((n_rows, n_features))
    while True:
        y = (rng.random(n_rows) < 0.5).astype(float)
        if 0 < y.sum() < n_rows:
            break
    return make_table({f"f{j}": X[:, j] for j in range(n_features)}, y)
