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
# 77 features) and the bool block of one edge comparison (39 KB) stay in
# cache across the k-1 comparisons
BIN_BLOCK_ROWS = 512
# rows one edge comparison spans: up to BIN_TILE_ROWS, a power of two, while
# the table of every edge repeated that many times holds at most
# BIN_TILE_CELLS floats (355 KB at 77 features and k = 10, one table a call)
BIN_TILE_ROWS = 64
BIN_TILE_CELLS = 1 << 16


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
    so each block of BIN_BLOCK_ROWS rows is compared with one edge of every
    feature at a time, into one reused bool block, which is added to the
    block's indices. That equals `np.searchsorted(edges[j], v, side="right")`
    for every finite or infinite value, -0.0 against a 0.0 edge included; a
    constant feature's NaN edges count no value, so it bins to 0. A NaN cell
    would bin to 0 too, where `searchsorted` puts it in bin k-1; none gets
    here, since cleaning drops such rows and `table_bin_edges` refuses them.
    Each edge row is tiled across up to BIN_TILE_ROWS rows, so that one
    comparison runs over that many whole rows of the block rather than over
    one row's features. The cost is O(k) per cell against `searchsorted`'s
    O(log k) on one strided column at a time, so it wins at a few dozen bins
    or fewer (the default is 10) and loses above. On 3.5k x 77 on one CPU:
    2.5 against 9-11 ms at k = 10 (3.6 comparing one row at a time), 12
    against 16 ms at k = 64 and 60 against 21 ms at k = 256; on 100k x 77 at
    k = 10, 39-49 ms against 65-89 ms one row at a time. There is one path
    for every k all the same."""
    rows = dataset_rows(t, rows)[0]
    d = t.X.shape[1]
    out = np.zeros((len(rows), d), dtype=np.min_scalar_type(edges.shape[1]))
    ge = np.empty((min(BIN_BLOCK_ROWS, len(rows)), d), dtype=bool)
    # each edge of every feature, repeated for `tile` rows, so that one
    # comparison runs over `tile` whole rows of the block
    tile = min(BIN_TILE_ROWS, BIN_TILE_CELLS // max(1, edges.size))
    tile = 1 << max(0, tile.bit_length() - 1)  # a power of two: it divides BIN_BLOCK_ROWS
    table = np.tile(edges.T, (1, tile))
    for start, block in row_blocks(t.X, rows, BIN_BLOCK_ROWS):
        part = out[start:start + len(block)]
        flags = ge[:len(block)]
        full = len(block) - len(block) % tile
        pieces = [(full // tile, tile * d, slice(0, full), table)] if full else []
        if full < len(block):  # the rows past the last whole tile
            pieces.append((1, (len(block) - full) * d, slice(full, None),
                           table[:, :(len(block) - full) * d]))
        for count, width, at, edge_rows in pieces:
            values = block[at].reshape(count, width)
            counts = part[at].reshape(count, width)
            above = flags[at].reshape(count, width)
            for edge in edge_rows:
                counts += np.greater_equal(values, edge, out=above)
    return out


def bins_document(feature_names, edges: np.ndarray) -> dict:
    """The edges as a JSON document keyed by feature name; constant features
    are left out."""
    k = edges.shape[1] + 1
    return {name: {"feature": name, "bin_count": k, "edges": row.tolist()}
            for name, row in zip(feature_names, edges) if not np.isnan(row[0])}
