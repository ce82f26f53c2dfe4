import csv
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference as ref
from flowsieve.discretize import bin_matrix, table_bin_edges
from flowsieve.feature_selection import (METHODS, RELIEF_BATCH, RELIEF_TILE,
                                         ScoringError, _anova, _count_scores,
                                         _count_tensor, _entropy_rows,
                                         _group_stats, normalize_scores,
                                         relief_weights, score_all,
                                         select_by_threshold, write_scores_csv)
from flowsieve.tabular import subtable

from helpers import make_table, random_table, rows_of, use_cpus


def count_scores(counts):
    """The contingency-table scores of one (bins, classes) count matrix."""
    return {k: float(v[0]) for k, v in _count_scores(np.asarray(counts)[None]).items()}


def row_entropy(counts):
    return float(_entropy_rows(np.asarray(counts)[None])[0])


def anova(*groups):
    """One feature's F ratio from its values in each class."""
    return float(_anova(*_group_stats(np.array(g, dtype=np.float64, ndmin=2)
                                      for g in groups))[0])


def bin_table(t, k=10):
    return bin_matrix(t, table_bin_edges(t, k))


# ---------------------------------------------------------------- entropy

def test_entropy_basics():
    assert row_entropy([1, 1]) == 1.0
    assert row_entropy([4, 0]) == 0.0
    assert row_entropy([3, 1]) == pytest.approx(0.8112781244591328, abs=1e-15)
    empty = row_entropy([0, 0])  # an empty bin
    assert empty == 0.0 and math.copysign(1, empty) == -1


def test_conditional_entropy():
    # constant feature
    assert count_scores([[3, 1]])["conditional_entropy"] == row_entropy([3, 1])
    assert count_scores([[5, 0], [0, 5]])["conditional_entropy"] == 0.0
    assert count_scores([[2, 0], [1, 1]])["conditional_entropy"] == 0.5


def test_information_gain():
    outer = np.outer([2, 3], [4, 1])
    assert count_scores(outer)["ig"] == pytest.approx(0.0, abs=1e-12)
    assert count_scores([[5, 0], [0, 5]])["ig"] == pytest.approx(1.0, abs=1e-15)
    # frozen from the joint-count oracle: H({3,1}) - 0.5
    assert count_scores([[2, 0], [1, 1]])["ig"] == pytest.approx(
        0.3112781244591328, abs=1e-15)


def test_split_info():
    assert count_scores([[1, 1], [2, 0]])["split_info"] == 1.0
    assert count_scores([[3, 4]])["split_info"] == 0.0
    assert count_scores([[2, 1], [1, 0]])["split_info"] == pytest.approx(
        0.8112781244591328, abs=1e-15)


def test_gain_ratio():
    assert count_scores([[5, 0], [0, 5]])["gain_ratio"] == pytest.approx(1.0, abs=1e-15)
    assert count_scores(np.outer([2, 3], [4, 1]))["gain_ratio"] == pytest.approx(
        0.0, abs=1e-12)
    assert count_scores([[2, 0], [1, 1]])["gain_ratio"] == pytest.approx(
        0.3112781244591328, abs=1e-15)
    assert count_scores([[3, 1]])["gain_ratio"] == 0.0  # single-valued feature


def test_symmetric_uncertainty():
    assert count_scores([[5, 0], [0, 5]])["su"] == pytest.approx(1.0, abs=1e-15)
    assert count_scores(np.outer([2, 3], [4, 1]))["su"] == pytest.approx(0.0, abs=1e-12)
    # frozen from the oracle: 2*IG / (1 + H({3,1}))
    assert count_scores([[2, 0], [1, 1]])["su"] == pytest.approx(
        0.34371101848545077, abs=1e-15)
    assert count_scores([[7]])["su"] == 0.0  # both entropies vanish


def test_chi_squared():
    outer = np.outer([3, 7], [5, 5])
    assert count_scores(outer)["chi2"] == pytest.approx(0.0, abs=1e-10)
    assert count_scores([[10, 0], [0, 10]])["chi2"] == 20.0
    # zero rows/columns are pruned, not fatal
    assert count_scores([[10, 0, 0], [0, 10, 0], [0, 0, 0]])["chi2"] == 20.0


def test_contingency_from_vectors():
    # two features' bins against classes [0, 0, 0, 1]; the bin axis runs to
    # the largest bin of any feature
    binned = np.array([[0, 2], [0, 1], [1, 0], [1, 0]])
    counts = _count_tensor(binned, np.array([0, 0, 0, 1]), 2)
    assert counts.tolist() == [[[2, 0], [1, 1], [0, 0]],
                               [[1, 1], [1, 0], [1, 0]]]


def test_scorers_match_bruteforce_on_random_tables():
    rng = np.random.default_rng(202)
    for _ in range(60):
        table = ref.random_contingency(rng)
        got = count_scores(table)
        assert got["ig"] == pytest.approx(ref.joint_mutual_information(table), abs=1e-9)
        assert got["split_info"] == pytest.approx(ref.split_info_ref(table), abs=1e-9)
        assert got["gain_ratio"] == pytest.approx(ref.gain_ratio_ref(table), abs=1e-9)
        assert got["su"] == pytest.approx(ref.symmetric_uncertainty_ref(table), abs=1e-9)
        assert got["chi2"] == pytest.approx(ref.chi_squared_ref(table), abs=1e-9)
        assert 0.0 <= got["su"] <= 1.0
        assert got["chi2"] >= 0.0


def test_scorers_match_bruteforce_from_binned_data():
    # data-level check: random tables, <=5 features, <=200 rows, <=4 bins
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(10, 201))
        d = int(rng.integers(1, 6))
        k = int(rng.integers(2, 5))
        t = random_table(rng, n, d)
        for counts in _count_tensor(bin_table(t, k), t.y.astype(int), 2):
            got, joint = count_scores(counts), counts.tolist()
            assert got["ig"] == pytest.approx(ref.joint_mutual_information(joint), abs=1e-9)
            assert got["su"] == pytest.approx(ref.symmetric_uncertainty_ref(joint), abs=1e-9)
            assert got["chi2"] == pytest.approx(ref.chi_squared_ref(joint), abs=1e-9)
            assert got["gain_ratio"] == pytest.approx(ref.gain_ratio_ref(joint), abs=1e-9)


def test_information_gain_symmetry():
    rng = np.random.default_rng(99)
    for _ in range(40):
        table = np.array(ref.random_contingency(rng))
        assert abs(count_scores(table)["ig"] - count_scores(table.T)["ig"]) < 1e-12


def test_ig_bounded_by_marginal_entropies():
    rng = np.random.default_rng(4)
    for _ in range(30):
        table = np.array(ref.random_contingency(rng))
        bound = min(row_entropy(table.sum(axis=1)), row_entropy(table.sum(axis=0)))
        assert -1e-12 <= count_scores(table)["ig"] <= bound + 1e-12


# ---------------------------------------------------------------- ANOVA

def test_anova_hand_case():
    assert anova([0.0, 2.0], [1.0, 3.0]) == 0.5


def test_anova_equal_means_zero():
    assert anova([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == 0.0


def test_anova_zero_within_variance_sentinel():
    assert anova([0.0, 0.0], [1.0, 1.0]) == math.inf


def test_anova_errors():
    # F needs two classes and more rows than classes; score_all refuses both
    one_class = make_table({"f": [1.0, 2.0]}, [0, 0])
    with pytest.raises(ScoringError, match="single-valued"):
        score_all(one_class, table_bin_edges(one_class, 2))
    one_row_each = make_table({"f": [1.0, 2.0]}, [0, 1])
    with pytest.raises(ScoringError, match="fewer than 2 rows"):
        score_all(one_row_each, table_bin_edges(one_row_each, 2))


def test_anova_sum_of_squares_identity():
    rng = np.random.default_rng(31)
    for _ in range(50):
        g1 = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 3), size=rng.integers(2, 200))
        g2 = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 3), size=rng.integers(2, 200))
        ssw, ssb, sst, f_ref = ref.anova_ref([g1.tolist(), g2.tolist()])
        assert ssw + ssb == pytest.approx(sst, rel=1e-9)
        assert anova(g1, g2) == pytest.approx(f_ref, rel=1e-9)


def test_group_stats_from_labeled():
    values, labels = np.array([1.0, 5.0, 2.0, 6.0]), np.array([0, 1, 0, 1])
    sizes, means, variances, grand = _group_stats(values[labels == c][None] for c in (0, 1))
    assert sizes == (2, 2)
    assert means.tolist() == [[1.5, 5.5]]
    assert variances.tolist() == [[0.5, 0.5]]
    assert grand.tolist() == [3.5]


# ---------------------------------------------------------------- relief

def test_relief_label_identical_feature():
    rng = np.random.default_rng(17)
    y = rng.integers(0, 2, 60).astype(float)
    t = make_table({"same": y.copy(), "noise": rng.random(60)}, y)
    w = relief_weights(t, m=60, seed=0, binned=bin_table(t))
    assert w[0] == 1.0


def test_relief_constant_feature():
    rng = np.random.default_rng(18)
    y = rng.integers(0, 2, 40).astype(float)
    t = make_table({"const": np.full(40, 0.5), "noise": rng.random(40)}, y)
    with pytest.warns(UserWarning, match="column 'const' is constant, left unbinned"):
        w = relief_weights(t, m=40, seed=1, binned=bin_table(t))
    assert w[0] == 0.0


def test_relief_anticorrelated_feature():
    rng = np.random.default_rng(19)
    y = rng.integers(0, 2, 50).astype(float)
    t = make_table({"anti": 1.0 - y, "noise": rng.random(50)}, y)
    w = relief_weights(t, m=50, seed=2, binned=bin_table(t))
    assert w[0] == 1.0


def test_relief_matches_exhaustive_reference():
    rng = np.random.default_rng(23)
    t = random_table(rng, 80, 4)
    X = t.X
    y = t.y
    binned = bin_table(t)
    got = relief_weights(t, m=80, seed=3, binned=binned)
    want = ref.relief_ref(X.tolist(), y.tolist(), binned.tolist(), range(80), 80)
    assert np.allclose(got, want, atol=1e-12)


def test_relief_determinism_and_range():
    rng = np.random.default_rng(29)
    t = random_table(rng, 120, 5)
    binned = bin_table(t)
    w1 = relief_weights(t, m=40, seed=11, binned=binned)
    w2 = relief_weights(t, m=40, seed=11, binned=binned)
    assert np.array_equal(w1, w2)
    assert (np.abs(w1) <= 1.0).all()
    w3 = relief_weights(t, m=40, seed=12, binned=binned)
    assert not np.array_equal(w1, w3)


def quantized_table(grid_cells, labels):
    """Features on the grid k/8 (cells are the k), so every Manhattan distance
    is exact in any summation order and ties between neighbours are common."""
    X = np.asarray(grid_cells, dtype=float) / 8
    return make_table({f"f{j}": X[:, j] for j in range(X.shape[1])}, labels)


def relief_vs_oracle(t, m, seed):
    """relief_weights and the exhaustive reference on the same seeded draw."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # constant columns stay unbinned
        binned = bin_table(t)
    sample = np.random.default_rng(seed).choice(t.row_count, size=m, replace=False)
    want = ref.relief_ref(t.X.tolist(), t.y.tolist(),
                          binned.tolist(), sample.tolist(), m)
    return relief_weights(t, m=m, seed=seed, binned=binned), np.array(want)


@pytest.mark.parametrize("d", [5, 12])  # below and above NumPy's 8-way pairwise sum
@pytest.mark.parametrize("m", [1, RELIEF_BATCH - 1, RELIEF_BATCH, RELIEF_BATCH + 1, None])
def test_relief_batches_and_tiles_match_reference(m, d):
    rng = np.random.default_rng(31 + d)
    n = 2 * RELIEF_TILE + 5  # the last tile is partial
    y = (rng.random(n) < 0.4).astype(float)
    t = quantized_table(rng.integers(0, 9, size=(n, d)), y)
    got, want = relief_vs_oracle(t, n if m is None else m, seed=7)  # None: every row
    assert np.allclose(got, want, rtol=0, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_relief_property_quantized_tables(data):
    n = data.draw(st.integers(4, 2 * RELIEF_TILE + 3), label="n")
    d = data.draw(st.integers(1, 12), label="d")
    cells = data.draw(st.lists(st.lists(st.integers(0, 8), min_size=d, max_size=d),
                               min_size=n, max_size=n), label="cells")
    labels = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n), label="labels")
    assume(2 <= sum(labels) <= n - 2)
    m = data.draw(st.integers(1, n), label="m")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    got, want = relief_vs_oracle(quantized_table(cells, labels), m, seed)
    assert np.allclose(got, want, rtol=0, atol=1e-12)
    assert (np.abs(got) <= 1.0).all()


@pytest.mark.parametrize("m", [1, RELIEF_BATCH, RELIEF_BATCH + 1, 2 * RELIEF_BATCH, 100])
def test_relief_weights_do_not_depend_on_the_worker_count(monkeypatch, m):
    # m up to 2 batches: more workers than batches; 100: 7 batches in 3 ranges
    t = random_table(np.random.default_rng(4), 150, 9)
    binned = bin_table(t)
    weights = {}
    for cpus in (1, 2, 3):
        use_cpus(monkeypatch, cpus)
        weights[cpus] = relief_weights(t, m=m, seed=3, binned=binned).tobytes()
    assert weights[2] == weights[1] and weights[3] == weights[1]


def test_relief_peak_memory_is_one_distance_block(monkeypatch):
    # one feature and a 95 % majority class: a copy of the majority span of
    # the batch's distance block would nearly double relief's peak. In this
    # process: tracemalloc does not see a forked worker's memory
    use_cpus(monkeypatch, 1)
    n = 40_000
    rng = np.random.default_rng(5)
    t = make_table({"f0": rng.random(n)}, (rng.random(n) < 0.05).astype(float))
    binned = bin_table(t)
    tracemalloc.start()
    try:
        relief_weights(t, m=2 * RELIEF_BATCH, seed=0, binned=binned)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = RELIEF_BATCH * n * 8
    assert peak < 1.75 * block, (peak, block)


def test_relief_errors():
    t = make_table({"f": [0.1, 0.2, 0.3]}, [0, 0, 1])
    with pytest.raises(ScoringError, match="fewer than 2"):
        relief_weights(t, m=3, seed=0, binned=bin_table(t))
    t2 = make_table({"f": [0.1, 0.2, 0.3, 0.4]}, [0, 0, 1, 1])
    with pytest.raises(ScoringError, match="m="):
        relief_weights(t2, m=5, seed=0, binned=bin_table(t2))
    t3 = make_table({"f": [0.1, 0.2]}, [0, 0])
    with pytest.raises(ScoringError, match="binary"):
        relief_weights(t3, m=2, seed=0, binned=bin_table(t3))


# ---------------------------------------------------------------- matrix ops

def planted_table(seed=0, n=200):
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < 0.5).astype(float)
    informative = 0.8 * y + 0.1 + 0.05 * rng.random(n)
    noise = rng.random(n)
    return make_table({"informative": informative, "noise": noise}, y)


def test_score_all_orders_informative_above_noise():
    t = planted_table()
    edges = table_bin_edges(t, 10)
    raw = score_all(t, edges, relief_m=t.row_count, seed=0)
    names = list(t.feature_names)
    inf_i, noise_i = names.index("informative"), names.index("noise")
    for k in range(raw.shape[1]):
        assert raw[inf_i, k] > raw[noise_i, k]


def test_score_all_single_feature():
    t = planted_table()
    t = subtable(t, np.arange(t.row_count), t.y, ["informative"])
    raw = score_all(t, table_bin_edges(t, 10), relief_m=50, seed=0)
    assert raw.shape == (1, 6)


def test_score_all_feature_count_excludes_label():
    rng = np.random.default_rng(8)
    t = random_table(rng, 50, 7)
    raw = score_all(t, table_bin_edges(t, 5), relief_m=20, seed=0)
    assert raw.shape == (7, len(METHODS))


def f_ratio(sizes, means, variances, grand, square=lambda d: d ** 2):
    """One-way F from per-class sizes, means and sample variances and the
    grand mean, in Python floats, SSB squared by `square`."""
    k, n = len(sizes), sum(sizes)
    ssw = sum((ni - 1) * vi for ni, vi in zip(sizes, variances))
    ssb = sum(ni * square(mi - grand) for ni, mi in zip(sizes, means))
    if ssb == 0.0:
        return 0.0
    if ssw == 0.0:
        return math.inf
    return (ssb / (k - 1)) / (ssw / (n - k))


def loop_scores(col, binned, y):
    """The five non-relief scores of one feature, from its values and bins,
    by 1-D NumPy sums and Python floats, the way a per-feature loop adds
    them up: the reference for the summation orders of the batched scores."""
    classes = np.unique(y)
    counts = np.array([[np.sum((binned == b) & (y == c)) for c in classes]
                       for b in range(int(binned.max()) + 1)])

    def h(v):
        v = np.asarray(v, dtype=float)
        p = v[v > 0] / v.sum()
        return float(-(p * np.log2(p)).sum())

    rows, cols, total = counts.sum(axis=1), counts.sum(axis=0), counts.sum()
    ce = 0.0
    for row, r in zip(counts, rows):
        if r > 0:
            ce += (r / total) * h(row)
    hx, hy = h(rows), h(cols)
    ig = hy - ce
    kept = counts[rows > 0]
    expected = np.outer(kept.sum(axis=1, dtype=float), kept.sum(axis=0, dtype=float)) / total
    groups = [col[y == c] for c in classes]
    anova_f = f_ratio([g.size for g in groups], [float(g.mean()) for g in groups],
                      [float(g.var(ddof=1)) if g.size > 1 else 0.0 for g in groups],
                      sum((float(g.sum()) for g in groups), 0.0) / len(col))
    return {"ig": ig, "gain_ratio": ig / hx if hx else 0.0,
            "su": 2.0 * ig / (hx + hy) if hx + hy else 0.0,
            "chi2": float(((kept - expected) ** 2 / expected).sum()), "anova_f": anova_f}


def assert_score_all_matches_loop_scores(t, bin_count):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # constant columns stay unbinned
        edges = table_bin_edges(t, bin_count)
        raw = score_all(t, edges, relief_m=min(t.row_count, 20), seed=0)
    binned = bin_matrix(t, edges)
    for j, name in enumerate(t.feature_names):
        for method, want in loop_scores(t.column(name), binned[:, j], t.y).items():
            got = raw[j, METHODS.index(method)]
            # bit for bit: equal values and equal signs of zero
            assert got == want and math.copysign(1, got) == math.copysign(1, want), \
                (name, method, got, want)


POW_LABELS = np.tile([1.0, 0.0, 0.0, 0.0], 10)
POW_COLUMN = np.random.default_rng(1107).random(40)  # x ** 2 != x * x changes its F


def test_anova_squares_with_libm_pow():
    stats = _group_stats(POW_COLUMN[POW_LABELS == c][None] for c in (0.0, 1.0))
    sizes, means, variances, grand = stats
    floats = (sizes, means[0].tolist(), variances[0].tolist(), float(grand[0]))
    assert f_ratio(*floats, square=lambda d: d * d) != f_ratio(*floats)
    assert _anova(*stats)[0] == f_ratio(*floats)


# 256 bins reach 255, the top uint8 bin; 257 need uint16
@pytest.mark.parametrize("bin_count", [10, 256, 257])
def test_score_all_equals_loop_scores_bit_for_bit(bin_count):
    grid = np.linspace(0.0, 1.0, 40)
    nine = np.where((grid >= 0.5) & (grid < 0.6), 0.0, grid)  # bin 5 of 10 left empty
    t = make_table({"const": np.full(40, 0.25),
                    "ends": np.tile([0.0, 1.0], 20),  # bins 1-8 of 10 empty
                    "ten_bins": grid, "nine_bins": nine, "pow": POW_COLUMN,
                    "noise": np.random.default_rng(3).random(40)}, POW_LABELS)
    assert len(np.unique(bin_table(make_table({"nine": nine}, POW_LABELS)))) == 9
    assert_score_all_matches_loop_scores(t, bin_count)


def test_score_all_gain_ratio_warning_names_the_feature():
    t = planted_table()
    t = make_table({"informative": t.column("informative"),
                    "const": np.full(t.row_count, 0.5)}, t.y)
    with pytest.warns(UserWarning, match="column 'const' is constant, left unbinned"):
        edges = table_bin_edges(t, 10)
    with pytest.warns(UserWarning, match="gain ratio of single-valued feature 'const'"):
        score_all(t, edges, relief_m=20, seed=0)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_scores_are_row_order_invariant(data):
    """Permuting a table's rows leaves the count scores bit-identical and
    moves the F ratio by rounding only (its sums run in row order)."""
    n = data.draw(st.integers(4, 150), label="n")
    d = data.draw(st.integers(1, 5), label="d")
    k = data.draw(st.integers(2, 12), label="bin_count")
    n1 = data.draw(st.integers(2, n - 2), label="attack rows")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    X = rng.integers(0, 9, size=(n, d)) / 8
    y = rng.permutation(np.repeat([0.0, 1.0], [n - n1, n1]))
    t = make_table({f"f{j}": X[:, j] for j in range(d)}, y)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # constant columns
        raw = [score_all(u, table_bin_edges(u, k), relief_m=min(n, 8), seed=0)
               for u in (t, rows_of(t, rng.permutation(n)))]
    for method in ("ig", "gain_ratio", "su", "chi2"):
        j = METHODS.index(method)
        assert raw[0][:, j].tobytes() == raw[1][:, j].tobytes(), method
    j = METHODS.index("anova_f")
    np.testing.assert_allclose(raw[1][:, j], raw[0][:, j], rtol=1e-12, atol=0)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_score_all_equals_loop_scores_property(data):
    n = data.draw(st.integers(4, 300), label="n")
    d = data.draw(st.integers(1, 6), label="d")
    k = data.draw(st.integers(2, 12), label="bin_count")
    labels = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n), label="labels")
    assume(2 <= sum(labels) <= n - 2)
    seed = data.draw(st.integers(0, 2**16), label="seed")
    rng = np.random.default_rng(seed)
    # coarse grids leave empty and constant bins, fine ones fill all k
    levels = rng.integers(1, 3 * k, size=d)
    X = rng.integers(0, levels, size=(n, d)) / levels + rng.random((n, d)) * (levels > k)
    t = make_table({f"f{j}": X[:, j] for j in range(d)}, labels)
    assert_score_all_matches_loop_scores(t, k)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_score_all_matches_oracles_property(data):
    """Every non-relief score of every feature against the brute-force
    oracles. Features lie on dyadic grids of 1 to 256 steps: coarse grids
    leave empty bins and a 1-step grid is a constant column, and all class
    sums are exact, so an F ratio is 0 or inf in score_all and the oracle
    alike."""
    n = data.draw(st.integers(4, 200), label="n")
    d = data.draw(st.integers(1, 6), label="d")
    k = data.draw(st.integers(2, 12), label="bin_count")
    labels = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n), label="labels")
    assume(2 <= sum(labels) <= n - 2)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    steps = 2 ** rng.integers(0, 9, size=d)
    X = rng.integers(0, steps, size=(n, d)) / steps
    t = make_table({f"f{j}": X[:, j] for j in range(d)}, labels)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # constant columns
        edges = table_bin_edges(t, k)
        raw = score_all(t, edges, relief_m=min(n, 8), seed=0)
    binned = bin_matrix(t, edges)
    y = np.array(labels)
    for j in range(d):
        joint = [[0, 0] for _ in range(int(binned[:, j].max()) + 1)]
        for b, c in zip(binned[:, j].tolist(), labels):
            joint[b][c] += 1
        got = dict(zip(METHODS, raw[j].tolist()))
        for method, oracle in (("ig", ref.joint_mutual_information),
                               ("gain_ratio", ref.gain_ratio_ref),
                               ("su", ref.symmetric_uncertainty_ref),
                               ("chi2", ref.chi_squared_ref)):
            assert abs(got[method] - oracle(joint)) <= 1e-9, (j, method, joint)
        f = ref.anova_ref([X[y == c, j].tolist() for c in (0, 1)])[3]
        assert math.isclose(got["anova_f"], f, rel_tol=1e-9), (j, got["anova_f"], f)


def test_normalize_scores_minmax():
    raw = np.column_stack([[2.0, 4.0, 8.0]] * 6)
    out = normalize_scores(raw)
    assert out.shape == raw.shape
    assert np.allclose(out[:, 0], [0.0, 1.0 / 3.0, 1.0])


def test_normalize_scores_inf_sentinel_and_constant():
    col = np.array([1.0, np.inf, 2.0])
    out = normalize_scores(np.column_stack([col] * 6))
    assert out[1, 0] == 1.0
    assert out[0, 0] == 0.0
    with pytest.warns(UserWarning, match="equally"):
        out = normalize_scores(np.ones((1, 6)))
    assert (out == 0.0).all()
    # one constant method column among varying ones: only it is zeroed
    raw = np.column_stack([col, np.full(3, 0.5), *[col] * 4])
    with pytest.warns(UserWarning, match="method 'gain_ratio' scored all features equally"):
        out = normalize_scores(raw)
    assert (out[:, 1] == 0.0).all() and out[1, 0] == 1.0


def test_aggregate_mean(tmp_path):
    # a feature's mean score is the row mean of the normalized matrix; it is
    # what the scores file records and what the selection ranks by
    normalized = np.array([[1.0] * 6, [1.0, 0, 0, 0, 0, 0]])
    mean = normalized.mean(axis=1)
    assert mean[0] == 1.0
    assert mean[1] == pytest.approx(1.0 / 6.0, abs=1e-15)
    rng = np.random.default_rng(44)
    norm = rng.random((9, 6))
    mean = norm.mean(axis=1)
    for i in range(9):
        assert mean[i] == pytest.approx(sum(norm[i]) / 6.0, abs=1e-12)
    names = tuple(f"f{i}" for i in range(9))
    write_scores_csv(names, norm, mean, tmp_path / "scores.csv")
    with open(tmp_path / "scores.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["mean_score"] for r in rows] == [f"{m:.6f}" for m in mean]
    doc = select_by_threshold(names, mean, 0.0)
    assert [f["mean_score"] for f in doc["features"]] == sorted(mean.tolist(), reverse=True)


def select(mean_scores, threshold):
    mean = np.asarray(mean_scores, dtype=float)
    return select_by_threshold(tuple(f"f{i}" for i in range(len(mean))), mean, threshold)


def indices(doc):
    return [f["index"] for f in doc["features"]]


def test_select_by_threshold_sorting_and_ties():
    sel = select([0.2, 0.9, 0.5, 0.9, 0.4], 0.4)
    assert indices(sel) == [1, 3, 2, 4]  # ties 1 and 3 by ascending index
    assert all(f["mean_score"] >= 0.4 for f in sel["features"])
    assert [f["name"] for f in sel["features"]] == ["f1", "f3", "f2", "f4"]
    everything = select([0.2, 0.9, 0.5, 0.9, 0.4], 0.05)
    assert len(everything["features"]) == 5


def test_select_by_threshold_monotone_and_empty():
    mean = [0.31, 0.62, 0.11, 0.47]
    grid = [0.1, 0.3, 0.5, 0.7]
    selections = [select(mean, tau) for tau in grid[:-1]]
    with pytest.warns(UserWarning, match="no feature reaches threshold 0.7"):
        selections.append(select(mean, grid[-1]))
    for lo, hi in zip(selections, selections[1:]):
        assert set(indices(hi)) <= set(indices(lo))
    assert selections[-1] == {"threshold": 0.7, "features": []}


def test_scores_csv_format(tmp_path):
    t = planted_table()
    normalized = normalize_scores(score_all(t, table_bin_edges(t, 10), relief_m=100, seed=0))
    path = tmp_path / "feature_scores.csv"
    write_scores_csv(t.feature_names, normalized, normalized.mean(axis=1), path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["feature_index", "feature_name", "ig", "gain_ratio",
                       "relief", "su", "chi2", "anova_f", "mean_score"]
    assert rows[1][0] == "0" and rows[1][1] == "informative"
    for cell in rows[1][2:]:
        whole, frac = cell.split(".")
        assert len(frac) == 6


def test_selection_json_shape():
    doc = select_by_threshold(("y", "b", "c", "x"), np.array([0.6, 0.1, 0.2, 0.9]), 0.5)
    assert doc == {"threshold": 0.5,
                   "features": [{"index": 3, "name": "x", "mean_score": 0.9},
                                {"index": 0, "name": "y", "mean_score": 0.6}]}
    # plain Python numbers, so that the document is JSON as it stands
    assert type(doc["features"][0]["index"]) is int
    assert type(doc["features"][0]["mean_score"]) is float
