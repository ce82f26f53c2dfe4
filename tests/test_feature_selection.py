import csv
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference as ref
from flowsieve.discretize import (apply_bins, bin_matrix, equal_width_bins,
                                  table_bin_edges)
from flowsieve.feature_selection import (METHODS, RELIEF_BATCH, RELIEF_TILE,
                                         ContingencyTable, GroupStats,
                                         ScoringError, ThresholdSelection,
                                         aggregate_mean, anova_f, chi_squared,
                                         conditional_entropy, entropy,
                                         gain_ratio, information_gain,
                                         normalize_scores, relief_weights,
                                         score_all, select_by_threshold,
                                         split_info, symmetric_uncertainty,
                                         write_scores_csv)
from flowsieve.tabular import ConstantColumnError

from helpers import make_table, random_table


def ct(counts):
    return ContingencyTable(counts)


# ---------------------------------------------------------------- entropy

def test_entropy_basics():
    assert entropy([1, 1]) == 1.0
    assert entropy([4, 0]) == 0.0
    assert entropy([3, 1]) == pytest.approx(0.8112781244591328, abs=1e-15)
    with pytest.raises(ScoringError):
        entropy([0, 0])
    with pytest.raises(ScoringError):
        entropy([-1, 2])


def test_conditional_entropy():
    assert conditional_entropy(ct([[3, 1]])) == entropy([3, 1])  # constant feature
    assert conditional_entropy(ct([[5, 0], [0, 5]])) == 0.0
    assert conditional_entropy(ct([[2, 0], [1, 1]])) == 0.5


def test_information_gain():
    outer = np.outer([2, 3], [4, 1])
    assert information_gain(ct(outer)) == pytest.approx(0.0, abs=1e-12)
    assert information_gain(ct([[5, 0], [0, 5]])) == pytest.approx(1.0, abs=1e-15)
    # frozen from the joint-count oracle: H({3,1}) - 0.5
    assert information_gain(ct([[2, 0], [1, 1]])) == pytest.approx(
        0.3112781244591328, abs=1e-15)


def test_split_info():
    assert split_info(ct([[1, 1], [2, 0]])) == 1.0
    assert split_info(ct([[3, 4]])) == 0.0
    assert split_info(ct([[2, 1], [1, 0]])) == pytest.approx(0.8112781244591328, abs=1e-15)


def test_gain_ratio():
    assert gain_ratio(ct([[5, 0], [0, 5]])) == pytest.approx(1.0, abs=1e-15)
    assert gain_ratio(ct(np.outer([2, 3], [4, 1]))) == pytest.approx(0.0, abs=1e-12)
    assert gain_ratio(ct([[2, 0], [1, 1]])) == pytest.approx(0.3112781244591328, abs=1e-15)
    with pytest.warns(UserWarning, match="single-valued"):
        assert gain_ratio(ct([[3, 1]])) == 0.0


def test_symmetric_uncertainty():
    assert symmetric_uncertainty(ct([[5, 0], [0, 5]])) == pytest.approx(1.0, abs=1e-15)
    assert symmetric_uncertainty(ct(np.outer([2, 3], [4, 1]))) == pytest.approx(0.0, abs=1e-12)
    # frozen from the oracle: 2*IG / (1 + H({3,1}))
    assert symmetric_uncertainty(ct([[2, 0], [1, 1]])) == pytest.approx(
        0.34371101848545077, abs=1e-15)
    assert symmetric_uncertainty(ct([[7]])) == 0.0  # both entropies vanish


def test_chi_squared():
    outer = np.outer([3, 7], [5, 5])
    assert chi_squared(ct(outer)) == pytest.approx(0.0, abs=1e-10)
    assert chi_squared(ct([[10, 0], [0, 10]])) == 20.0
    # zero rows/columns are pruned, not fatal
    assert chi_squared(ct([[10, 0, 0], [0, 10, 0], [0, 0, 0]])) == 20.0
    with pytest.raises(ScoringError, match="empty"):
        chi_squared(ct([[0, 0]]))


def test_contingency_from_vectors():
    t = ct([[2, 0], [1, 1]])
    built = ContingencyTable.from_vectors([0, 0, 1, 1], [0, 0, 0, 1])
    assert np.array_equal(built.counts, t.counts)
    assert built.total == 4
    assert built.row_totals.tolist() == [2, 2]
    assert built.col_totals.tolist() == [3, 1]


def test_scorers_match_bruteforce_on_random_tables():
    rng = np.random.default_rng(202)
    for _ in range(60):
        table = ref.random_contingency(rng)
        c = ct(table)
        assert information_gain(c) == pytest.approx(
            ref.joint_mutual_information(table), abs=1e-9)
        assert split_info(c) == pytest.approx(ref.split_info_ref(table), abs=1e-9)
        if ref.split_info_ref(table) == 0.0:
            with pytest.warns(UserWarning):
                got_gr = gain_ratio(c)
        else:
            got_gr = gain_ratio(c)
        assert got_gr == pytest.approx(ref.gain_ratio_ref(table), abs=1e-9)
        assert symmetric_uncertainty(c) == pytest.approx(
            ref.symmetric_uncertainty_ref(table), abs=1e-9)
        assert chi_squared(c) == pytest.approx(ref.chi_squared_ref(table), abs=1e-9)
        assert 0.0 <= symmetric_uncertainty(c) <= 1.0
        assert chi_squared(c) >= 0.0


def test_scorers_match_bruteforce_from_binned_data():
    # data-level check: random tables, <=5 features, <=200 rows, <=4 bins
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(10, 201))
        d = int(rng.integers(1, 6))
        k = int(rng.integers(2, 5))
        t = random_table(rng, n, d)
        y = t.labels().astype(int)
        for name in t.feature_names:
            e = equal_width_bins(t.column(name), k, feature=name)
            binned = apply_bins(t.column(name), e)
            c = ContingencyTable.from_vectors(binned, y)
            joint = c.counts.tolist()
            assert information_gain(c) == pytest.approx(
                ref.joint_mutual_information(joint), abs=1e-9)
            assert symmetric_uncertainty(c) == pytest.approx(
                ref.symmetric_uncertainty_ref(joint), abs=1e-9)
            assert chi_squared(c) == pytest.approx(ref.chi_squared_ref(joint), abs=1e-9)
            assert gain_ratio(c) == pytest.approx(ref.gain_ratio_ref(joint), abs=1e-9)


def test_information_gain_symmetry():
    rng = np.random.default_rng(99)
    for _ in range(40):
        c = ct(ref.random_contingency(rng))
        assert abs(information_gain(c) - information_gain(c.transposed())) < 1e-12


def test_ig_bounded_by_marginal_entropies():
    rng = np.random.default_rng(4)
    for _ in range(30):
        table = ref.random_contingency(rng)
        c = ct(table)
        bound = min(entropy(c.row_totals), entropy(c.col_totals))
        assert -1e-12 <= information_gain(c) <= bound + 1e-12


# ---------------------------------------------------------------- ANOVA

def test_anova_hand_case():
    gs = GroupStats.from_groups([[0.0, 2.0], [1.0, 3.0]])
    assert anova_f(gs) == 0.5


def test_anova_equal_means_zero():
    gs = GroupStats.from_groups([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]])
    assert anova_f(gs) == 0.0


def test_anova_zero_within_variance_sentinel():
    gs = GroupStats.from_groups([[0.0, 0.0], [1.0, 1.0]])
    assert anova_f(gs) == math.inf


def test_anova_errors():
    with pytest.raises(ScoringError, match="2 groups"):
        anova_f(GroupStats.from_groups([[1.0, 2.0]]))
    with pytest.raises(ScoringError, match="more observations"):
        anova_f(GroupStats.from_groups([[1.0], [2.0]]))
    with pytest.raises(ScoringError, match="empty group"):
        GroupStats.from_groups([[1.0], []])


def test_anova_sum_of_squares_identity():
    rng = np.random.default_rng(31)
    for _ in range(50):
        g1 = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 3), size=rng.integers(2, 200))
        g2 = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 3), size=rng.integers(2, 200))
        ssw, ssb, sst, f_ref = ref.anova_ref([g1.tolist(), g2.tolist()])
        assert ssw + ssb == pytest.approx(sst, rel=1e-9)
        gs = GroupStats.from_labeled(np.concatenate([g1, g2]),
                                     np.array([0] * len(g1) + [1] * len(g2)))
        assert anova_f(gs) == pytest.approx(f_ref, rel=1e-9)


def test_group_stats_from_labeled():
    gs = GroupStats.from_labeled([1.0, 5.0, 2.0, 6.0], [0, 1, 0, 1])
    assert gs.sizes == (2, 2)
    assert gs.means == (1.5, 5.5)
    assert gs.total == 4 and gs.group_count == 2


# ---------------------------------------------------------------- relief

def test_relief_label_identical_feature():
    rng = np.random.default_rng(17)
    y = rng.integers(0, 2, 60).astype(float)
    t = make_table({"same": y.copy(), "noise": rng.random(60)}, y)
    w = relief_weights(t, m=60, seed=0)
    assert w[0] == 1.0


def test_relief_constant_feature():
    rng = np.random.default_rng(18)
    y = rng.integers(0, 2, 40).astype(float)
    t = make_table({"const": np.full(40, 0.5), "noise": rng.random(40)}, y)
    with pytest.warns(UserWarning, match="column 'const' is constant, left unbinned"):
        w = relief_weights(t, m=40, seed=1)
    assert w[0] == 0.0


def test_relief_anticorrelated_feature():
    rng = np.random.default_rng(19)
    y = rng.integers(0, 2, 50).astype(float)
    t = make_table({"anti": 1.0 - y, "noise": rng.random(50)}, y)
    w = relief_weights(t, m=50, seed=2)
    assert w[0] == 1.0


def test_relief_matches_exhaustive_reference():
    rng = np.random.default_rng(23)
    t = random_table(rng, 80, 4)
    X = t.feature_matrix()
    y = t.labels()
    bins = {name: equal_width_bins(t.column(name), 10, feature=name)
            for name in t.feature_names}
    got = relief_weights(t, m=80, seed=3, bins=bins)
    binned = np.column_stack([apply_bins(t.column(n), bins[n]) for n in t.feature_names])
    want = ref.relief_ref(X.tolist(), y.tolist(), binned.tolist(), range(80), 80)
    assert np.allclose(got, want, atol=1e-12)


def test_relief_determinism_and_range():
    rng = np.random.default_rng(29)
    t = random_table(rng, 120, 5)
    w1 = relief_weights(t, m=40, seed=11)
    w2 = relief_weights(t, m=40, seed=11)
    assert np.array_equal(w1, w2)
    assert (np.abs(w1) <= 1.0).all()
    w3 = relief_weights(t, m=40, seed=12)
    assert not np.array_equal(w1, w3)


def quantized_table(grid_cells, labels):
    """Features on the grid k/8 (cells are the k), so every Manhattan distance
    is exact in any summation order and ties between neighbours are common."""
    X = np.asarray(grid_cells, dtype=float) / 8
    return make_table({f"f{j}": X[:, j] for j in range(X.shape[1])}, labels)


def relief_vs_oracle(t, m, seed):
    """relief_weights and the exhaustive reference on the same seeded draw."""
    bins = {}
    for name in t.feature_names:
        try:
            bins[name] = equal_width_bins(t.column(name), 10, feature=name)
        except ConstantColumnError:
            pass
    binned = np.column_stack(
        [apply_bins(t.column(n), bins[n]) if n in bins else np.zeros(t.row_count, dtype=int)
         for n in t.feature_names])
    sample = np.random.default_rng(seed).choice(t.row_count, size=m, replace=False)
    want = ref.relief_ref(t.feature_matrix().tolist(), t.labels().tolist(),
                          binned.tolist(), sample.tolist(), m)
    return relief_weights(t, m=m, seed=seed, bins=bins), np.array(want)


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


def test_relief_peak_memory_is_one_distance_block():
    # one feature and a 95 % majority class: a copy of the majority span of
    # the batch's distance block would nearly double relief's peak
    n = 40_000
    rng = np.random.default_rng(5)
    t = make_table({"f0": rng.random(n)}, (rng.random(n) < 0.05).astype(float))
    binned = bin_matrix(t, table_bin_edges(t, 10))
    tracemalloc.start()
    try:
        relief_weights(t, m=2 * RELIEF_BATCH, seed=0, bins=binned)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = RELIEF_BATCH * n * 8
    assert peak < 1.75 * block, (peak, block)


def test_relief_errors():
    t = make_table({"f": [0.1, 0.2, 0.3]}, [0, 0, 1])
    with pytest.raises(ScoringError, match="fewer than 2"):
        relief_weights(t, m=3, seed=0)
    t2 = make_table({"f": [0.1, 0.2, 0.3, 0.4]}, [0, 0, 1, 1])
    with pytest.raises(ScoringError, match="m="):
        relief_weights(t2, m=5, seed=0)
    t3 = make_table({"f": [0.1, 0.2]}, [0, 0])
    with pytest.raises(ScoringError, match="binary"):
        relief_weights(t3, m=2, seed=0)


# ---------------------------------------------------------------- matrix ops

def planted_table(seed=0, n=200):
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < 0.5).astype(float)
    informative = 0.8 * y + 0.1 + 0.05 * rng.random(n)
    noise = rng.random(n)
    return make_table({"informative": informative, "noise": noise}, y)


def test_score_all_orders_informative_above_noise():
    t = planted_table()
    bins = table_bin_edges(t, 10)
    sm = score_all(t, bins, relief_m=t.row_count, seed=0)
    names = list(sm.feature_names)
    inf_i, noise_i = names.index("informative"), names.index("noise")
    for k in range(sm.raw.shape[1]):
        assert sm.raw[inf_i, k] > sm.raw[noise_i, k]


def test_score_all_single_feature():
    t = planted_table()
    t = t.select_features(["informative"])
    sm = score_all(t, table_bin_edges(t, 10), relief_m=50, seed=0)
    assert sm.raw.shape == (1, 6)


def test_score_all_feature_count_excludes_label():
    rng = np.random.default_rng(8)
    t = random_table(rng, 50, 7)
    sm = score_all(t, table_bin_edges(t, 5), relief_m=20, seed=0)
    assert len(sm.feature_names) == 7


def scalar_scores(t, bins, name):
    """The five non-relief scores of one feature through the scalar API."""
    col, y = t.column(name), t.labels()
    binned = apply_bins(col, bins[name]) if name in bins else np.zeros(t.row_count, dtype=int)
    c = ContingencyTable.from_vectors(binned, y)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # gain ratio of a single-valued feature
        gr = gain_ratio(c)
    return {"ig": information_gain(c), "gain_ratio": gr, "su": symmetric_uncertainty(c),
            "chi2": chi_squared(c), "anova_f": anova_f(GroupStats.from_labeled(col, y))}


def f_ratio(gs, square=lambda d: d ** 2):
    """One-way F of GroupStats in Python floats, SSB squared by `square`."""
    ssw = sum((ni - 1) * vi for ni, vi in zip(gs.sizes, gs.variances))
    ssb = sum(ni * square(mi - gs.grand_mean) for ni, mi in zip(gs.sizes, gs.means))
    if ssb == 0.0:
        return 0.0
    if ssw == 0.0:
        return math.inf
    return (ssb / (gs.group_count - 1)) / (ssw / (gs.total - gs.group_count))


def loop_scores(t, bins, name):
    """The five non-relief scores of one feature from 1-D NumPy sums and
    Python floats, the way a per-feature loop adds them up: the reference
    for the summation orders of the batched scores."""
    col, y = t.column(name), t.labels()
    binned = apply_bins(col, bins[name]) if name in bins else np.zeros(len(col), dtype=int)
    classes = np.unique(y)
    counts = np.array([[np.sum((binned == b) & (y == c)) for c in classes]
                       for b in range(binned.max() + 1)])

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
    gs = GroupStats(tuple(g.size for g in groups), tuple(float(g.mean()) for g in groups),
                    tuple(float(g.var(ddof=1)) if g.size > 1 else 0.0 for g in groups),
                    sum((float(g.sum()) for g in groups), 0.0) / len(col))
    return {"ig": ig, "gain_ratio": ig / hx if hx else 0.0,
            "su": 2.0 * ig / (hx + hy) if hx + hy else 0.0,
            "chi2": float(((kept - expected) ** 2 / expected).sum()), "anova_f": f_ratio(gs)}


def assert_score_all_matches_scalar_api(t, bin_count):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # constant columns stay unbinned
        bins = table_bin_edges(t, bin_count)
        sm = score_all(t, bins, relief_m=min(t.row_count, 20), seed=0)
    for j, name in enumerate(t.feature_names):
        scalar, loop = scalar_scores(t, bins, name), loop_scores(t, bins, name)
        for method in scalar:
            got = sm.raw[j, METHODS.index(method)]
            # bit for bit: equal values and equal signs of zero
            for want in (scalar[method], loop[method]):
                assert got == want and math.copysign(1, got) == math.copysign(1, want), \
                    (name, method, got, scalar[method], loop[method])


POW_LABELS = np.tile([1.0, 0.0, 0.0, 0.0], 10)
POW_COLUMN = np.random.default_rng(1107).random(40)  # x ** 2 != x * x changes its F


def test_anova_squares_with_libm_pow():
    gs = GroupStats.from_labeled(POW_COLUMN, POW_LABELS)
    assert f_ratio(gs, lambda d: d * d) != f_ratio(gs)
    assert anova_f(gs) == f_ratio(gs)


def test_score_all_equals_scalar_api_bit_for_bit():
    grid = np.linspace(0.0, 1.0, 40)
    nine = np.where((grid >= 0.5) & (grid < 0.6), 0.0, grid)  # bin 5 of 10 left empty
    t = make_table({"const": np.full(40, 0.25),
                    "ends": np.tile([0.0, 1.0], 20),  # bins 1-8 of 10 empty
                    "ten_bins": grid, "nine_bins": nine, "pow": POW_COLUMN,
                    "noise": np.random.default_rng(3).random(40)}, POW_LABELS)
    assert len(np.unique(apply_bins(nine, equal_width_bins(nine, 10)))) == 9
    assert_score_all_matches_scalar_api(t, 10)


def test_score_all_gain_ratio_warning_names_the_feature():
    t = planted_table()
    t = make_table({"informative": t.column("informative"),
                    "const": np.full(t.row_count, 0.5)}, t.labels())
    with pytest.warns(UserWarning, match="column 'const' is constant, left unbinned"):
        bins = table_bin_edges(t, 10)
    with pytest.warns(UserWarning, match="gain ratio of single-valued feature 'const'"):
        score_all(t, bins, relief_m=20, seed=0)


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
        raw = [score_all(u, table_bin_edges(u, k), relief_m=min(n, 8), seed=0).raw
               for u in (t, t.take_rows(rng.permutation(n)))]
    for method in ("ig", "gain_ratio", "su", "chi2"):
        j = METHODS.index(method)
        assert raw[0][:, j].tobytes() == raw[1][:, j].tobytes(), method
    j = METHODS.index("anova_f")
    np.testing.assert_allclose(raw[1][:, j], raw[0][:, j], rtol=1e-12, atol=0)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_score_all_equals_scalar_api_property(data):
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
    assert_score_all_matches_scalar_api(t, k)


def test_normalize_scores_minmax():
    from flowsieve.feature_selection import ScoreMatrix
    sm = ScoreMatrix(("a", "b", "c"), np.column_stack([[2.0, 4.0, 8.0]] * 6))
    out = normalize_scores(sm)
    assert np.allclose(out.normalized[:, 0], [0.0, 1.0 / 3.0, 1.0])


def test_normalize_scores_inf_sentinel_and_constant():
    from flowsieve.feature_selection import ScoreMatrix
    col = np.array([1.0, np.inf, 2.0])
    sm = ScoreMatrix(("a", "b", "c"), np.column_stack([col] * 6))
    out = normalize_scores(sm)
    assert out.normalized[1, 0] == 1.0
    assert out.normalized[0, 0] == 0.0
    single = ScoreMatrix(("a",), np.ones((1, 6)))
    with pytest.warns(UserWarning, match="equally"):
        out = normalize_scores(single)
    assert (out.normalized == 0.0).all()


def test_aggregate_mean():
    from flowsieve.feature_selection import ScoreMatrix
    sm = ScoreMatrix(("a", "b"), np.zeros((2, 6)),
                     normalized=np.array([[1.0] * 6, [1.0, 0, 0, 0, 0, 0]]))
    out = aggregate_mean(sm)
    assert out.mean_score[0] == 1.0
    assert out.mean_score[1] == pytest.approx(1.0 / 6.0, abs=1e-15)
    rng = np.random.default_rng(44)
    norm = rng.random((9, 6))
    sm = ScoreMatrix(tuple(f"f{i}" for i in range(9)), np.zeros((9, 6)), normalized=norm)
    out = aggregate_mean(sm)
    for i in range(9):
        assert out.mean_score[i] == pytest.approx(sum(norm[i]) / 6.0, abs=1e-12)
    with pytest.raises(ScoringError, match="normalize"):
        aggregate_mean(ScoreMatrix(("a",), np.zeros((1, 6))))


def scored_matrix(mean_scores):
    from flowsieve.feature_selection import ScoreMatrix
    n = len(mean_scores)
    return ScoreMatrix(tuple(f"f{i}" for i in range(n)), np.zeros((n, 6)),
                       normalized=np.zeros((n, 6)),
                       mean_score=np.asarray(mean_scores, dtype=float))


def test_select_by_threshold_sorting_and_ties():
    sm = scored_matrix([0.2, 0.9, 0.5, 0.9, 0.4])
    sel = select_by_threshold(sm, 0.4)
    assert sel.indices() == (1, 3, 2, 4)  # ties 1 and 3 by ascending index
    assert all(s >= 0.4 for _, _, s in sel.features)
    everything = select_by_threshold(sm, 0.05)
    assert len(everything.features) == 5


def test_select_by_threshold_monotone_and_empty():
    sm = scored_matrix([0.31, 0.62, 0.11, 0.47])
    grid = [0.1, 0.3, 0.5, 0.7]
    selections = [select_by_threshold(sm, tau) for tau in grid[:-1]]
    with pytest.warns(UserWarning, match="no feature"):
        selections.append(select_by_threshold(sm, grid[-1]))
    for lo, hi in zip(selections, selections[1:]):
        assert set(hi.indices()) <= set(lo.indices())
    assert selections[-1].features == ()


def test_scores_csv_format(tmp_path):
    t = planted_table()
    sm = aggregate_mean(normalize_scores(
        score_all(t, table_bin_edges(t, 10), relief_m=100, seed=0)))
    path = tmp_path / "feature_scores.csv"
    write_scores_csv(sm, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["feature_index", "feature_name", "ig", "gain_ratio",
                       "relief", "su", "chi2", "anova_f", "mean_score"]
    assert rows[1][0] == "0" and rows[1][1] == "informative"
    for cell in rows[1][2:]:
        whole, frac = cell.split(".")
        assert len(frac) == 6


def test_selection_json_shape():
    sel = ThresholdSelection(0.5, ((3, "x", 0.9), (0, "y", 0.6)))
    doc = sel.to_json()
    assert doc["threshold"] == 0.5
    assert doc["features"][0] == {"index": 3, "name": "x", "mean_score": 0.9}


def test_write_requires_normalized_scores(tmp_path):
    from flowsieve.feature_selection import ScoreMatrix
    raw_only = ScoreMatrix(("a",), np.zeros((1, 6)))
    with pytest.raises(ScoringError, match="normalized"):
        write_scores_csv(raw_only, tmp_path / "x.csv")
    with pytest.raises(ScoringError, match="aggregate"):
        select_by_threshold(normalize_scores(
            ScoreMatrix(("a", "b"), np.arange(12).reshape(2, 6).astype(float))), 0.5)


def test_contingency_validation():
    with pytest.raises(ScoringError, match="length"):
        ContingencyTable.from_vectors([0, 1], [0])
    with pytest.raises(ScoringError, match="non-negative"):
        ContingencyTable([[1, -1]])
    with pytest.raises(ScoringError, match="2-D"):
        ContingencyTable([1, 2, 3])
