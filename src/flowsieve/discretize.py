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

from .tabular import Table, dataset_rows, row_blocks

# Rows of the feature matrix copied at a time while a row subset of it is
# binned (2.5 MB at 78 features)
BIN_BLOCK_ROWS = 4096


class DiscretizeError(ValueError):
    pass


def table_bin_edges(t: Table, k: int, rows=None) -> np.ndarray:
    """The (features, k-1) edge matrix of k equal-width bins per feature of
    the rows `rows` of `t` (all rows by default), with a warning per
    constant feature. The column extrema are reductions of `t.X` masked to
    the rows, with no copy: min and max depend on neither the order nor the
    repeats of the values."""
    if k < 2:
        raise DiscretizeError(f"bin count must be >= 2, got {k}")
    rows = dataset_rows(t, rows)[0]
    if rows.size == 0:
        raise DiscretizeError("cannot bin an empty table")
    mask = np.zeros((t.row_count, 1), dtype=bool)
    mask[rows] = True
    lo = t.X.min(axis=0, initial=np.inf, where=mask)
    hi = t.X.max(axis=0, initial=-np.inf, where=mask)
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


def bin_matrix(t: Table, edges: np.ndarray, rows=None) -> np.ndarray:
    """(rows, features) bin indices of every feature of the rows `rows` of
    `t` (all rows by default), in the smallest unsigned type that holds k-1
    (uint8 up to 256 bins), binned BIN_BLOCK_ROWS rows at a time."""
    rows = dataset_rows(t, rows)[0]
    out = np.zeros((len(rows), t.X.shape[1]), dtype=np.min_scalar_type(edges.shape[1]))
    for start, block in row_blocks(t.X, rows, BIN_BLOCK_ROWS):
        part = out[start:start + len(block)]
        for j, row in enumerate(edges):
            # NaN sorts above every number, so a constant feature's row bins to 0
            part[:, j] = np.searchsorted(row, block[:, j], side="right")
    return out


def bins_document(feature_names, edges: np.ndarray) -> dict:
    """The edges as a JSON document keyed by feature name; constant features
    are left out."""
    k = edges.shape[1] + 1
    return {name: {"feature": name, "bin_count": k, "edges": row.tolist()}
            for name, row in zip(feature_names, edges) if not np.isnan(row[0])}
