import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference as ref
from flowsieve import discretize
from flowsieve.discretize import DiscretizeError, bin_matrix, bins_document, table_bin_edges

from helpers import make_table


def column_table(*columns):
    """A table of the given feature columns f0, f1, ...; labels play no part."""
    n = len(columns[0])
    return make_table({f"f{j}": c for j, c in enumerate(columns)}, np.zeros(n))


def edges_of(column, k):
    return table_bin_edges(column_table(column), k)


def bins_of(values, edges):
    """Bin indices of `values` under a one-feature edge matrix."""
    return bin_matrix(column_table(values), edges)[:, 0].tolist()


def test_edges_unit_interval():
    assert edges_of([0.0, 0.3, 1.0], 4).tolist() == [[0.25, 0.5, 0.75]]


def test_edges_two_bins():
    assert edges_of([0.0, 10.0], 2).tolist() == [[5.0]]


def test_edges_and_bins_hand_case():
    col = [0.0, 1.0, 2.0, 9.0]
    e = edges_of(col, 3)
    assert e.dtype == np.float64 and e.tolist() == [[3.0, 6.0]]
    assert bins_of(col, e) == [0, 0, 0, 2]


def test_boundary_value_goes_up():
    e = np.array([[0.5]])
    assert bins_of([0.5, 0.49999, -100.0, 100.0], e) == [1, 0, 0, 1]


def test_unit_interval_ten_bins_matches_floor_rule():
    # on [0,1] with k=10 the bin index equals floor(10x) clipped to 9
    e = edges_of([0.0, 1.0], 10)
    grid = np.array([i / 100 for i in range(101)])
    want = np.minimum(np.floor(10 * grid).astype(int), 9)
    assert bins_of(grid, e) == want.tolist()


def test_monotonicity_and_coverage():
    rng = np.random.default_rng(5)
    e = edges_of(rng.normal(size=300) * 10, 7)
    b = np.array(bins_of(np.sort(rng.normal(size=500) * 20), e))
    assert (np.diff(b) >= 0).all()
    assert b.min() >= 0 and b.max() <= 6


def test_stability_under_interior_appends():
    col = np.array([0.0, 2.0, 10.0])
    e1 = edges_of(col, 5)
    e2 = edges_of(np.concatenate([col, [3.7, 9.2, 0.1]]), 5)
    assert np.array_equal(e1, e2)


def test_errors():
    with pytest.raises(DiscretizeError, match=">= 2"):
        edges_of([0.0, 1.0], 1)
    with pytest.raises(DiscretizeError, match="empty"):
        edges_of([], 2)
    with pytest.raises(DiscretizeError, match="non-finite"):
        edges_of([0.0, np.inf], 2)
    # a span of 1 ulp: the first two of three edges round to the minimum
    one_ulp = [1.0, np.nextafter(1.0, 2.0)]
    with pytest.raises(DiscretizeError, match="'f0' must be strictly increasing"):
        edges_of(one_ulp, 4)


def test_bins_document_round_trips_the_edges():
    t = column_table([0.0, 1 / 3, 1.0], [2.0, 2.0, 2.0])
    with pytest.warns(UserWarning, match="'f1' is constant"):
        e = table_bin_edges(t, 6)
    doc = json.loads(json.dumps(bins_document(t.feature_names, e)))
    assert doc == {"f0": {"feature": "f0", "bin_count": 6, "edges": e[0].tolist()}}


def test_table_bin_edges_skips_constant():
    t = make_table({"a": [0.0, 1.0, 2.0], "const": [5.0, 5.0, 5.0]}, [0, 1, 0])
    with pytest.warns(UserWarning, match="column 'const' is constant, left unbinned"):
        e = table_bin_edges(t, 4)
    assert e.shape == (2, 3)
    assert np.isfinite(e[0]).all() and np.isnan(e[1]).all()
    assert bin_matrix(t, e)[:, 1].tolist() == [0, 0, 0]


@st.composite
def binned_tables(draw):
    """Columns that are constant, on a dyadic grid (values fall on edges), or
    spread floats with -0.0 cells, and a bin count up to 300."""
    n = draw(st.integers(1, 40), label="n")
    d = draw(st.integers(1, 4), label="d")
    k = draw(st.integers(2, 300), label="bin_count")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    columns = []
    for kind in draw(st.lists(st.sampled_from(["constant", "grid", "spread"]),
                              min_size=d, max_size=d), label="kinds"):
        if kind == "constant":
            col = np.full(n, rng.normal())
        elif kind == "grid":
            steps = 2 ** int(rng.integers(0, 10))
            col = rng.integers(0, steps + 1, size=n) / steps
        else:
            col = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
            col[rng.random(n) < 0.2] = -0.0
        columns.append(col)
    return column_table(*columns), k


@settings(max_examples=60, deadline=None)
@given(binned_tables())
@example((column_table([0.0, 0.5, 1.0]), 256))  # bin 255, the top uint8 bin
@example((column_table([0.0, 0.5, 1.0]), 257))  # the first uint16 bin count
def test_bin_matrix_matches_reference(case):
    t, k = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # constant columns
        e = table_bin_edges(t, k)
    binned = bin_matrix(t, e)
    assert e.shape == (len(t.feature_names), k - 1)
    assert binned.dtype == (np.uint8 if k <= 256 else np.uint16)
    for j, column in enumerate(t.X.T):
        want_edges, want_bins = ref.bins_ref(column.tolist(), k)
        if want_edges:
            assert e[j].tolist() == want_edges
        else:
            assert np.isnan(e[j]).all()
        assert binned[:, j].tolist() == want_bins


@pytest.mark.parametrize("block_rows", [1, 10_000])
@pytest.mark.parametrize("k", [2, 10, 256, 257])
def test_bin_matrix_counts_the_edges_of_other_rows(monkeypatch, k, block_rows):
    # edges from the first 40 rows, bins of the rest: values below lo and
    # above hi, on an edge, -0.0 against a 0.0 edge (lo -1, hi 1, even k),
    # infinities, and a constant feature whose NaN edges count nothing
    monkeypatch.setattr(discretize, "BIN_BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(k)
    fit = np.column_stack([np.r_[-1.0, 1.0, rng.uniform(-1, 1, 38)],
                           np.r_[0.0, 100.0, rng.uniform(0, 100, 38)],
                           np.full(40, 3.0)])
    t = column_table(*fit.T)
    with pytest.warns(UserWarning, match="column 'f2' is constant"):
        e = table_bin_edges(t, k)
    special = [-np.inf, np.inf, -0.0, 0.0, -5.0, 7.0, 3.0, -1.0, 1.0, 1e300, -1e300]
    on_edges = rng.choice(e[:2].ravel(), size=30)
    probe = np.concatenate([special, on_edges, rng.uniform(-2, 102, 30)])
    X = np.vstack([fit, np.column_stack([probe, probe[::-1], rng.permutation(probe)])])
    t = column_table(*X.T)
    rows = np.arange(40, len(X))
    binned = bin_matrix(t, e, rows)
    assert binned.dtype == (np.uint8 if k <= 256 else np.uint16)
    assert binned.shape == (len(rows), 3)
    for j in range(3):
        edges = [] if np.isnan(e[j]).all() else e[j].tolist()
        want = [sum(1 for edge in edges if edge <= v) for v in X[rows, j].tolist()]
        assert binned[:, j].tolist() == want, j
        if edges:
            assert binned[:, j].tolist() == np.searchsorted(e[j], X[rows, j],
                                                            side="right").tolist()
    assert binned[:, 2].tolist() == [0] * len(rows)
    # -0.0 and 0.0 share a bin; with an even k, 0.0 is edge k/2 and in bin k/2
    assert binned[2, 0] == binned[3, 0]
    if k % 2 == 0:
        assert e[0, k // 2 - 1] == 0.0 and binned[2, 0] == k // 2
