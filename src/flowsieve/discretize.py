"""Equal-width binning of every feature of a table, for the contingency-table
scorers and relief's difference indicator.

A table's bins are one (features, k-1) float64 edge matrix: row j holds the
k-1 strictly increasing interior cut points min + i*(max-min)/k, i in 1..k-1,
of feature j. A constant feature is left unbinned: its row is all NaN, and
all its values fall in bin 0. A value below the first edge is in bin 0, one
at or above the last edge in bin k-1, and one equal to an interior edge goes
to the higher bin.
"""

import warnings

import numpy as np

from .tabular import Table


class DiscretizeError(ValueError):
    pass


def table_bin_edges(t: Table, k: int) -> np.ndarray:
    """The (features, k-1) edge matrix of k equal-width bins per feature,
    with a warning per constant feature."""
    if k < 2:
        raise DiscretizeError(f"bin count must be >= 2, got {k}")
    X = t.X
    if t.row_count == 0:
        raise DiscretizeError("cannot bin an empty table")
    lo, hi = X.min(axis=0), X.max(axis=0)
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise DiscretizeError("table has non-finite values; clean rows first")
    edges = lo[:, None] + (np.arange(1, k) * (hi - lo)[:, None]) / k
    constant = hi == lo
    edges[constant] = np.nan
    for j in np.flatnonzero(constant):
        warnings.warn(f"column {t.feature_names[j]!r} is constant, left unbinned",
                      stacklevel=2)
    # a span of a few ulps rounds neighbouring edges together
    tied = np.flatnonzero((np.diff(edges, axis=1) <= 0).any(axis=1))
    if tied.size:
        raise DiscretizeError(
            f"edges of column {t.feature_names[tied[0]]!r} must be strictly increasing")
    return edges


def bin_matrix(t: Table, edges: np.ndarray) -> np.ndarray:
    """(rows, features) bin indices of every feature, in the smallest
    unsigned type that holds k-1 (uint8 up to 256 bins)."""
    X = t.X
    out = np.zeros(X.shape, dtype=np.min_scalar_type(edges.shape[1]))
    for j, row in enumerate(edges):
        # NaN sorts above every number, so a constant feature's row bins to 0
        out[:, j] = np.searchsorted(row, X[:, j], side="right")
    return out


def bins_document(feature_names, edges: np.ndarray) -> dict:
    """The edges as a JSON document keyed by feature name; constant features
    are left out."""
    k = edges.shape[1] + 1
    return {name: {"feature": name, "bin_count": k, "edges": row.tolist()}
            for name, row in zip(feature_names, edges) if not np.isnan(row[0])}
