"""Equal-width binning of every feature of a table, for the contingency-table
scorers and relief's difference indicator.

A table's bins are one (features, k-1) float64 edge matrix: row j holds the
k-1 strictly increasing interior cut points min + i*(max-min)/k, i in 1..k-1,
of feature j. A constant feature is left unbinned: its row is all NaN, and
all its values fall in bin 0. A value's bin is the count of its feature's
edges at or below it: a value below the first edge is in bin 0, one at or
above the last edge in bin k-1, and one equal to an interior edge goes to
the higher bin, as `np.searchsorted(edges, v, side="right")` places it.
"""

import warnings

import numpy as np

from .tabular import Table, dataset_rows, row_blocks

# Rows of the feature matrix binned at a time: the gathered rows (315 KB at
# 77 features), the bool block of one edge comparison (39 KB) and the edges
# repeated over a tile of rows (no more floats than the gathered rows, at
# any k up to BIN_BLOCK_ROWS + 1) stay in cache across the k-1 comparisons
BIN_BLOCK_ROWS = 512


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
    (uint8 up to 256 bins).

    A bin index is the count of the feature's edges at or below the value,
    so each block of rows is compared with one edge of every feature at a
    time, into one reused bool block, which is added to the block's indices.
    That equals `np.searchsorted(edges[j], v, side="right")` for every
    finite or infinite value, -0.0 against a 0.0 edge included; a constant
    feature's NaN edges count no value, so it bins to 0. A NaN cell would bin
    to 0 too, where `searchsorted` puts it in bin k-1; none gets here, since
    cleaning drops such rows and `table_bin_edges` refuses them.

    Each edge row is repeated across a tile of min(BIN_BLOCK_ROWS, rows) //
    (k-1) rows (at least one), so that one comparison runs over that many
    whole rows of the block, and the repeated edges hold no more floats than
    a block of rows (or the edges themselves, above BIN_BLOCK_ROWS edges).
    The rows are padded with their last row up to a whole tile and binned in
    blocks of whole tiles, and the padding's bins are dropped. The cost is
    O(k) per cell against `searchsorted`'s O(log k) on one strided column
    at a time, so it wins at a few dozen bins or fewer (the default is 10)
    and loses above; there is one path for every k all the same."""
    rows = dataset_rows(t, rows)[0]
    n, d = len(rows), t.X.shape[1]
    tile = max(1, min(BIN_BLOCK_ROWS, n) // edges.shape[1])
    table = np.tile(edges.T, (1, tile))  # row i: edge i of every feature, `tile` times
    rows = np.concatenate([rows, np.repeat(rows[-1:], -n % tile)])
    out = np.zeros((len(rows), d), dtype=np.min_scalar_type(edges.shape[1]))
    step = BIN_BLOCK_ROWS - BIN_BLOCK_ROWS % tile
    ge = np.empty((min(step, len(rows)), d), dtype=bool)
    for start, block in row_blocks(t.X, rows, step):
        shape = (len(block) // tile, tile * d)
        values = block.reshape(shape)
        counts = out[start:start + len(block)].reshape(shape)
        above = ge[:len(block)].reshape(shape)
        for edge in table:
            counts += np.greater_equal(values, edge, out=above)
    return out[:n]


def bins_document(feature_names, edges: np.ndarray) -> dict:
    """The edges as a JSON document keyed by feature name; constant features
    are left out."""
    k = edges.shape[1] + 1
    return {name: {"feature": name, "bin_count": k, "edges": row.tolist()}
            for name, row in zip(feature_names, edges) if not np.isnan(row[0])}
