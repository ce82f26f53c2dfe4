import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference as ref
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
