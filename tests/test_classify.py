import json
import math
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsieve.classify import (ClassifyError, ForestParams, LogisticParams,
                                ManifestMismatchError, NaiveBayesParams,
                                SvmParams, TreeParams, predict_arrays, save_model,
                                train_forest, train_logistic,
                                train_naive_bayes, train_svm, train_tree)
from flowsieve.classify.logistic import LogisticModel, _sigmoid
from flowsieve.classify.params import ParamError
from flowsieve.tabular import Table

import reference as ref
from helpers import blobs_2d, make_table, random_table, rows_of


def xor_table():
    return make_table({"x": [0.0, 0.0, 1.0, 1.0], "y": [0.0, 1.0, 0.0, 1.0]},
                      [0.0, 1.0, 1.0, 0.0])


def accuracy(model, t):
    labels, _ = predict_arrays(model, t)
    return (labels == t.y).mean()


# ---------------------------------------------------------------- logistic

def test_logistic_separable_1d():
    t = make_table({"x": [0.0, 0.0, 1.0, 1.0, 0.0, 1.0]}, [0, 0, 1, 1, 0, 1])
    m = train_logistic(t, LogisticParams(learning_rate=1.0, epochs=800))
    assert accuracy(m, t) == 1.0


def test_logistic_zero_epochs():
    t = make_table({"x": [0.2, 0.8]}, [0, 1])
    m = train_logistic(t, LogisticParams(epochs=0))
    assert m.coefficients.tolist() == [0.0, 0.0]
    labels, scores = predict_arrays(m, t)
    assert scores.tolist() == [0.5, 0.5]
    assert labels.tolist() == [0, 0]  # 0.5 is not > 0.5


def test_logistic_row_order_free():
    rng = np.random.default_rng(2)
    t = blobs_2d(40, seed=5)
    perm = rng.permutation(t.row_count)
    m1 = train_logistic(t, LogisticParams(epochs=50))
    m2 = train_logistic(rows_of(t, perm), LogisticParams(epochs=50))
    # order-free up to float summation order
    assert np.allclose(m1.coefficients, m2.coefficients, rtol=0, atol=1e-12)
    m3 = train_logistic(t, LogisticParams(epochs=50))
    assert np.array_equal(m1.coefficients, m3.coefficients)  # bitwise repeatable


def test_logistic_hand_sigmoid():
    m = LogisticModel(("x",), np.array([0.0, 2.0]), 0.5)
    t = make_table({"x": [1.0]}, [1.0])
    _, scores = predict_arrays(m, t)
    assert scores[0] == pytest.approx(0.8807970779778823, abs=1e-15)


def test_sigmoid_is_bit_identical_to_the_two_branch_formula():
    # NumPy's exp may run an unaligned head or a short tail of a buffer on
    # another code path than its body, so lengths and offsets vary
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 800.0, -800.0, 745.2, -745.2,
                        709.8, -709.8, 36.8, -36.8, 1e-300, -1e-300])
    rng = np.random.default_rng(0)
    for n in [*range(71), 1000, 4097]:
        for offset in range(4):
            buf = rng.choice([-1.0, 1.0], n + 3) * 10.0 ** rng.uniform(-4, math.log10(800), n + 3)
            z = buf[offset:offset + n]
            planted = rng.random(n) < 0.25
            z[planted] = rng.choice(special, planted.sum())
            got, want = _sigmoid(z), ref.sigmoid_ref(z)
            same = (got.view(np.int64) == want.view(np.int64)) | (np.isnan(got) & np.isnan(want))
            assert same.all(), (n, offset, z[~same])


def test_logistic_strict_threshold_boundary():
    m = LogisticModel(("x",), np.array([0.0, 1.0]), 0.5)
    t = make_table({"x": [0.0, 1e-9, 50.0]}, [0.0, 1.0, 1.0])
    labels, scores = predict_arrays(m, t)
    assert labels.tolist() == [0, 1, 1]  # h == h_tr stays benign
    assert scores[2] > 0.999999


def test_logistic_divergence_detected():
    t = make_table({"x": [0.0, 1e3, 0.0, 1e3]}, [0, 1, 0, 1])
    with pytest.raises(ClassifyError, match="non-finite"):
        train_logistic(t, LogisticParams(learning_rate=1e308, epochs=5))


def test_logistic_threshold_sweep_flag():
    rng = np.random.default_rng(6)
    y = (rng.random(100) < 0.2).astype(float)
    x = 0.35 * y + 0.3 + 0.05 * rng.random(100)
    t = make_table({"x": x}, y)
    m = train_logistic(t, LogisticParams(epochs=60, tune_threshold=True))
    assert m.decision_threshold in [round(0.05 * i, 2) for i in range(1, 20)]
    base = train_logistic(t, LogisticParams(epochs=60))
    assert base.decision_threshold == 0.5


def test_logistic_matches_the_fresh_array_oracle():
    # the trainer reuses its logit and residual buffers and takes the
    # intercept's mean as a sum over n; the oracle allocates every quantity
    rng = np.random.default_rng(31)
    for epochs in (0, 1, 2, 7, 60, 300):
        for tune in (False, True):
            n, d = int(rng.integers(5, 120)), int(rng.integers(1, 20))
            X = rng.normal(size=(n, d)) * rng.uniform(0.1, 5.0, d)
            y = ((X @ rng.normal(size=d) + rng.normal(size=n)) > 0.5).astype(float)
            t = make_table({f"f{j}": X[:, j] for j in range(d)}, y)
            params = LogisticParams(learning_rate=float(rng.choice([0.05, 0.5, 2.0])),
                                    epochs=epochs, tune_threshold=tune)
            m = train_logistic(t, params)
            coef, threshold = ref.logistic_ref(t.X, y.astype(np.int64), params.learning_rate,
                                               epochs, tune)
            assert m.coefficients.tobytes() == coef.tobytes(), (epochs, tune)
            assert m.decision_threshold == threshold
    t = make_table({"x": [0.0, 1e3, 0.0, 1e3]}, [0, 1, 0, 1])
    for epochs in (1, 5):  # the coefficients diverge, then the logits too
        assert ref.logistic_ref(t.X, t.y.astype(np.int64), 1e308, epochs, False) is None
        with pytest.raises(ClassifyError, match="non-finite"):
            train_logistic(t, LogisticParams(learning_rate=1e308, epochs=epochs))


# ---------------------------------------------------------------- naive bayes

def test_nb_priors():
    rng = np.random.default_rng(1)
    y = np.array([0.0] * 70 + [1.0] * 30)
    t = make_table({"x": rng.random(100)}, y)
    m = train_naive_bayes(t, NaiveBayesParams())
    assert m.priors.tolist() == [0.7, 0.3]


def test_nb_sigma_floor():
    t = make_table({"x": [0.5, 0.5, 0.1, 0.9]}, [0, 0, 1, 1])
    m = train_naive_bayes(t, NaiveBayesParams(variance_floor=1e-6))
    assert m.sigmas[0, 0] == 1e-6
    labels, scores = predict_arrays(m, t)
    assert np.isfinite(scores).all()


def test_nb_hand_posteriors():
    # 4 rows, one feature; densities and priors multiplied out by hand
    t = make_table({"x": [0.0, 0.2, 0.8, 1.0]}, [0, 0, 1, 1])
    m = train_naive_bayes(t, NaiveBayesParams())
    x = 0.15
    def density(mu, sig):
        return math.exp(-(x - mu) ** 2 / (2 * sig ** 2)) / (sig * math.sqrt(2 * math.pi))
    sig = np.std([0.0, 0.2], ddof=1)
    p0 = 0.5 * density(0.1, sig)
    p1 = 0.5 * density(0.9, sig)
    lp = m.log_posteriors(np.array([[x]]))
    assert lp[0, 0] == pytest.approx(math.log(p0), abs=1e-9)
    assert lp[0, 1] == pytest.approx(math.log(p1), abs=1e-9)
    labels, scores = predict_arrays(m, make_table({"x": [x]}, [0.0]))
    assert labels[0] == 0
    assert scores[0] == pytest.approx(p1 / (p0 + p1), abs=1e-12)


def test_nb_mean_of_attack_class_wins():
    t = make_table({"x": [0.1, 0.3, 0.7, 0.9]}, [0, 0, 1, 1])
    m = train_naive_bayes(t, NaiveBayesParams())
    labels, _ = predict_arrays(m, make_table({"x": [0.8]}, [1.0]))
    assert labels[0] == 1


def test_nb_prior_dominates_equal_likelihood():
    rng = np.random.default_rng(3)
    x = np.concatenate([rng.normal(0.5, 0.1, 90), rng.normal(0.5, 0.1, 10)])
    y = np.array([0.0] * 90 + [1.0] * 10)
    m = train_naive_bayes(make_table({"x": x}, y), NaiveBayesParams())
    labels, _ = predict_arrays(m, make_table({"x": [0.5]}, [0.0]))
    assert labels[0] == 0


def test_nb_log_domain_matches_direct_product():
    rng = np.random.default_rng(9)
    t = random_table(rng, 60, 8)
    m = train_naive_bayes(t, NaiveBayesParams())
    X = t.X[:5]
    lp = m.log_posteriors(X)
    for i in range(5):
        for c in (0, 1):
            direct = m.priors[c]
            for j in range(8):
                mu, sig = m.means[c, j], m.sigmas[c, j]
                direct *= math.exp(-(X[i, j] - mu) ** 2 / (2 * sig ** 2)) / (
                    sig * math.sqrt(2 * math.pi))
            assert math.exp(lp[i, c]) == pytest.approx(direct, rel=1e-9)


def test_nb_log_posteriors_match_the_fresh_array_oracle():
    # one reused buffer per call, with the oracle's operations in its order:
    # scales far apart, floored sigmas, signed zeros and one row or none
    rng = np.random.default_rng(11)
    for k in range(12):
        n_rows, n_features = int(rng.integers(0, 300)), int(rng.integers(1, 40))
        X = rng.normal(size=(max(n_rows, 4), n_features)) * 10.0 ** rng.uniform(-8, 8, n_features)
        X[rng.random(X.shape) < 0.05] = -0.0
        y = np.r_[0.0, 0.0, 1.0, 1.0, (rng.random(len(X) - 4) < 0.4).astype(float)]
        t = make_table({f"f{j}": X[:, j] for j in range(n_features)}, y)
        m = train_naive_bayes(t, NaiveBayesParams(variance_floor=(1e-9, 1e-3)[k % 2]))
        probe = X[:n_rows] if k % 3 else X[:1]
        assert m.log_posteriors(probe).tobytes() == ref.bayes_log_posteriors_ref(m, probe).tobytes()


def test_nb_log_posteriors_in_row_blocks_match_the_unblocked_formula():
    # rows are evaluated BAYES_BLOCK_BYTES of the buffer at a time; each
    # row's sum is its own, so row counts just below, at and above one block
    # and over several blocks give the unblocked bits
    from flowsieve.classify import bayes
    rng = np.random.default_rng(12)
    for n_features in (1, 7, 77):
        step = bayes.BAYES_BLOCK_BYTES // (8 * n_features)
        n = 2 * step + 3
        X = rng.normal(size=(n, n_features)) * 10.0 ** rng.uniform(-6, 6, n_features)
        X[rng.random(X.shape) < 0.05] = -0.0
        y = np.r_[0.0, 0.0, 1.0, 1.0, (rng.random(n - 4) < 0.4).astype(float)]
        t = make_table({f"f{j}": X[:, j] for j in range(n_features)}, y)
        m = train_naive_bayes(t, NaiveBayesParams())
        for rows in (step - 1, step, step + 1, n):
            probe = X[:rows]
            want = ref.bayes_log_posteriors_ref(m, probe)
            assert m.log_posteriors(probe).tobytes() == want.tobytes(), (n_features, rows)


def test_nb_small_class_errors():
    t = make_table({"x": [0.1, 0.2, 0.9]}, [0, 0, 1])
    with pytest.raises(ClassifyError, match="at least 2"):
        train_naive_bayes(t, NaiveBayesParams())


# ---------------------------------------------------------------- svm

def test_svm_separable_blobs():
    t = blobs_2d(100, seed=12)
    m = train_svm(t, SvmParams(c=10.0, epochs=20, seed=0))
    assert accuracy(m, t) >= 0.99


def test_svm_one_class_rejected():
    t = make_table({"x": [0.1, 0.2, 0.3]}, [1, 1, 1])
    with pytest.raises(ClassifyError, match="single class"):
        train_svm(t, SvmParams())


def test_svm_seed_determinism():
    t = blobs_2d(50, seed=21)
    m1 = train_svm(t, SvmParams(seed=4))
    m2 = train_svm(t, SvmParams(seed=4))
    assert np.array_equal(m1.weights, m2.weights) and m1.bias == m2.bias
    m3 = train_svm(t, SvmParams(seed=5))
    assert not np.array_equal(m1.weights, m3.weights)


def test_svm_constant_schedule():
    t = blobs_2d(60, seed=30)
    m = train_svm(t, SvmParams(schedule="constant", learning_rate=0.05, epochs=30))
    assert accuracy(m, t) >= 0.95


@pytest.mark.parametrize("schedule", ["inverse_t", "constant"])
def test_svm_matches_the_per_sample_oracle(schedule):
    # the trainer settles shrink-only steps in blocks and takes the others
    # with Python floats, ndarray.dot and one step buffer; the oracle steps
    # with NumPy scalars, @ and a fresh (eta * y_i) * x_i
    rng = np.random.default_rng(23)
    k = 0
    for d in (1, 2, 7, 16, 17, 33):
        for c in (0.1, 1.0, 25.0):
            n = int(rng.integers(20, 90))
            X = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0, d)
            y = (X.sum(axis=1) + rng.normal(size=n) > 0).astype(float)
            y[:2] = [0.0, 1.0]
            t = make_table({f"f{j}": X[:, j] for j in range(d)}, y)
            params = SvmParams(c=c, epochs=k % 5 + 1, schedule=schedule,
                               learning_rate=0.02, seed=k)
            m = train_svm(t, params)
            w, b = ref.svm_ref(t.X, y.astype(np.int64), c, params.epochs, schedule,
                               params.learning_rate, params.seed)
            assert m.weights.tobytes() == w.tobytes(), (d, c)
            assert np.float64(m.bias).tobytes() == np.float64(b).tobytes(), (d, c)
            k += 1


def test_svm_non_finite_weights_rejected():
    t = blobs_2d(20, seed=3)
    params = SvmParams(schedule="constant", learning_rate=1e300, epochs=3)
    with np.errstate(over="ignore", invalid="ignore"):  # the overflow is the point
        assert ref.svm_ref(t.X, t.y.astype(np.int64), params.c, params.epochs,
                           params.schedule, params.learning_rate, params.seed) is None
    # under the suite's warnings-as-errors, the trainer reaches its own error
    with pytest.raises(ClassifyError, match="non-finite"):
        train_svm(t, params)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 250), d=st.integers(1, 40),
       log_c=st.floats(-2.0, 2.0), epochs=st.integers(1, 20),
       schedule=st.sampled_from(["inverse_t", "constant"]), log_rate=st.floats(-3.0, 0.0),
       noise=st.sampled_from([0.0, 0.3, 3.0]), zeros=st.floats(0.0, 0.6),
       copies=st.integers(0, 40))
def test_svm_blocks_match_the_per_sample_loop_property(seed, n, d, log_c, epochs, schedule,
                                                        log_rate, noise, zeros, copies):
    # few hinges (noise 0) settle whole blocks; many, or a diverging constant
    # schedule, send most steps down the exact path
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0, d)  # negative cells too
    X[rng.random((n, d)) < zeros] = 0.0
    for _ in range(copies):  # duplicate rows
        X[rng.integers(n)] = X[rng.integers(n)]
    y = (X @ rng.normal(size=d) + noise * rng.normal(size=n) > 0).astype(float)
    y[:2] = [0.0, 1.0]
    t = make_table({f"f{j}": X[:, j] for j in range(d)}, y)
    params = SvmParams(c=10.0 ** log_c, epochs=epochs, schedule=schedule,
                       learning_rate=10.0 ** log_rate, seed=seed % 1000)
    with np.errstate(over="ignore", invalid="ignore"):
        want = ref.svm_ref(t.X, y.astype(np.int64), params.c, epochs, schedule,
                           params.learning_rate, params.seed)
    if want is None:
        with pytest.raises(ClassifyError, match="non-finite"):
            train_svm(t, params)
        return
    m = train_svm(t, params)
    assert m.weights.tobytes() == want[0].tobytes()
    assert np.float64(m.bias).tobytes() == np.float64(want[1]).tobytes()


class _DotLog(np.ndarray):
    """A feature matrix whose rows log the ndarray.dot each of them takes."""

    def __array_finalize__(self, obj):
        self.log = getattr(obj, "log", None)

    def dot(self, other, out=None):
        self.log.append(self.tobytes())
        return np.asarray(self).dot(other)


def test_svm_margin_within_the_bound_takes_the_exact_dot():
    # one row is planted so that its margin at step p lies within 1e-6 of 1,
    # as the difference of two products near 1e8, whose rounding errors
    # (about 1e-8) exceed the margin's distance from 1: only the exact
    # x.dot(w) can tell a hinge from none, and the plants take both outcomes
    rng = np.random.default_rng(8)
    n, d = 200, 6
    X = rng.random((n, d))
    y = (X[:, 0] > 0.5).astype(float)
    params = SvmParams(c=1.0, epochs=1, schedule="constant", learning_rate=0.5, seed=2)
    p = 150  # in the second block
    i = int(np.random.default_rng(params.seed).permutation(n)[p])
    w, b = ref.svm_ref(X, y.astype(np.int64), params.c, 1, "constant",
                       params.learning_rate, params.seed, steps=p)
    sign = 1.0 if y[i] == 1 else -1.0
    a, c = np.argsort(-np.abs(w))[:2]
    X[i] = 0.0
    X[i, a] = 1e8 / w[a]
    base = -(1e8 - (sign - b)) / w[c]
    hinges = set()
    for k in range(-12, 13):
        X[i, c] = base + k * np.spacing(base)
        margin = sign * (X[i] @ w + b)
        assert abs(margin - 1.0) < 1e-6
        hinges.add(bool(margin < 1.0))
        feature = X.copy().view(_DotLog)
        feature.log = []
        train = SimpleNamespace(X=feature, y=y, feature_names=tuple(f"f{j}" for j in range(d)))
        m = train_svm(train, params)
        want = ref.svm_ref(X, y.astype(np.int64), params.c, 1, "constant",
                           params.learning_rate, params.seed)
        assert m.weights.tobytes() == want[0].tobytes(), k
        assert np.float64(m.bias).tobytes() == np.float64(want[1]).tobytes(), k
        assert X[i].tobytes() in feature.log, k  # the exact path ran
        assert len(feature.log) < n  # and the filter settled other steps
    assert hinges == {True, False}


def test_multiply_reduce_is_the_loop_of_in_place_products():
    # the trainer applies a run of shrink-only steps as np.multiply.reduce over
    # [w, c_k, ..., c_j] along axis 0, which must round as w *= c_k; ...
    rng = np.random.default_rng(11)
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e-300,
                        1e308, -1e308, np.inf, -np.inf, np.nan, -np.nan, -2.0, 0.5])
    with np.errstate(over="ignore", invalid="ignore"):
        for trial in range(300):
            k, d = int(rng.integers(1, 120)), int(rng.integers(1, 45))
            W = rng.normal(size=(k + 1, d)) * 10.0 ** rng.integers(-320, 300, size=(k + 1, d))
            planted = rng.random((k + 1, d)) < 0.1
            W[planted] = rng.choice(special, size=planted.sum())
            if trial % 2:  # one factor per row, negative ones among them, as the trainer stacks
                W[1:] = rng.choice([0.999, -0.5, 1.5, 1e-200, 5e-324, -0.0], size=(k, 1))
            w = W[0].copy()
            for c in W[1:]:
                w *= c
            got = np.empty(d)
            np.multiply.reduce(W, axis=0, out=got)
            assert got.tobytes() == w.tobytes(), (k, d)
            assert np.multiply.reduce(W, axis=0).tobytes() == w.tobytes(), (k, d)


# ---------------------------------------------------------------- tree

def test_tree_pure_leaf():
    t = make_table({"x": [0.1, 0.5, 0.9]}, [1, 1, 1])
    m = train_tree(t, TreeParams())
    assert m.node_count == 1
    labels, scores = predict_arrays(m, t)
    assert labels.tolist() == [1, 1, 1]
    assert scores.tolist() == [1.0, 1.0, 1.0]


def test_tree_solves_xor():
    t = xor_table()
    m = train_tree(t, TreeParams())
    assert accuracy(m, t) == 1.0
    # root + two internal + four leaves, i.e. depth 2
    assert m.node_count == 7


def test_tree_criteria_agree_on_clear_split():
    t = make_table({"good": [0.0, 0.1, 0.9, 1.0], "weak": [0.0, 0.9, 0.1, 1.0]},
                   [0, 0, 1, 1])
    # exhaustive check: both criteria prefer the perfect split on "good"
    gini_tree = train_tree(t, TreeParams(criterion="gini"))
    ig_tree = train_tree(t, TreeParams(criterion="information_gain"))
    assert gini_tree.feature_index[0] == ig_tree.feature_index[0] == 0


def test_tree_min_samples_leaf_and_depth():
    rng = np.random.default_rng(40)
    t = random_table(rng, 100, 3)
    shallow = train_tree(t, TreeParams(max_depth=1))
    assert shallow.node_count <= 3
    stump = train_tree(t, TreeParams(max_depth=0))
    assert stump.node_count == 1
    m = train_tree(t, TreeParams(min_samples_leaf=20))
    # route the training rows and count arrivals: no leaf below the floor
    cur = np.zeros(t.row_count, dtype=int)
    X = t.X
    while (m.feature_index[cur] >= 0).any():
        active = np.flatnonzero(m.feature_index[cur] >= 0)
        at = cur[active]
        go_left = X[active, m.feature_index[at]] < m.threshold[at]
        cur[active] = np.where(go_left, m.left[at], m.right[at])
    leaves, counts = np.unique(cur, return_counts=True)
    assert (m.feature_index[leaves] < 0).all()
    assert (counts >= 20).all()


def test_tree_full_growth_reaches_purity():
    rng = np.random.default_rng(41)
    for seed in range(5):
        t = random_table(np.random.default_rng(seed), 60, 4)
        m = train_tree(t, TreeParams())
        assert accuracy(m, t) == 1.0


def test_tree_conflicting_duplicates_majority():
    t = make_table({"x": [0.5, 0.5, 0.5]}, [0, 0, 1])
    m = train_tree(t, TreeParams())
    assert m.node_count == 1
    labels, scores = predict_arrays(m, t)
    assert labels.tolist() == [0, 0, 0]
    assert scores[0] == pytest.approx(1 / 3)


def test_tree_tie_goes_benign():
    t = make_table({"x": [0.5, 0.5]}, [0, 1])
    m = train_tree(t, TreeParams())
    labels, scores = predict_arrays(m, t)
    assert labels.tolist() == [0, 0] and scores[0] == 0.5


def test_tree_empty_table_errors():
    t = Table(("x",), "Label", np.empty((0, 1)), np.array([]))
    with pytest.raises(ClassifyError, match="empty"):
        train_tree(t, TreeParams())


# ---------------------------------------------------------------- forest

def test_forest_degenerate_equals_tree():
    for seed in range(8):
        t = random_table(np.random.default_rng(seed + 100), 50, 4)
        tree = train_tree(t, TreeParams())
        forest = train_forest(t, ForestParams(tree_count=1, bootstrap=False,
                                              features_per_split=4, seed=seed))
        tl, _ = predict_arrays(tree, t)
        fl, _ = predict_arrays(forest, t)
        assert np.array_equal(tl, fl)


def test_forest_tie_vote_goes_benign():
    t0 = make_table({"x": [0.1, 0.9]}, [0, 0])
    t1 = make_table({"x": [0.1, 0.9]}, [1, 1])
    tree0 = train_tree(t0, TreeParams())
    tree1 = train_tree(t1, TreeParams())
    from flowsieve.classify.tree import ForestModel
    forest = ForestModel(("x",), (tree0, tree1))
    labels, scores = predict_arrays(forest, t0)
    assert labels.tolist() == [0, 0]
    assert scores.tolist() == [0.5, 0.5]


@pytest.mark.parametrize("traverse_block", [None, 1, 7])
def test_forest_votes_match_the_per_tree_loop(monkeypatch, traverse_block):
    # even tree counts give even votes; single-node trees (benign, tied at
    # 0.5 and attack) sit beside grown ones; a small TRAVERSE_BLOCK walks a
    # few rows, or one, per block
    from flowsieve.classify import tree as tree_module
    from flowsieve.classify.tree import ForestModel, TreeModel
    if traverse_block is not None:
        monkeypatch.setattr(tree_module, "TRAVERSE_BLOCK", traverse_block)

    def leaf(score):
        return TreeModel(("f0", "f1", "f2"), np.array([-1]), np.array([math.nan]),
                         np.array([-1]), np.array([-1]), np.array([score]))

    rng = np.random.default_rng(23)
    for k in range(8):
        t = _tie_table(rng, int(rng.integers(10, 120)), 3, (None, 2, 5)[k % 3])
        params = ForestParams(tree_count=int(rng.integers(1, 6)), max_depth=(None, 3)[k % 2], seed=k)
        grown = train_forest(t, params).trees
        trees = list(grown) + [leaf(s) for s in rng.choice([0.0, 0.5, 1.0, 0.75], size=k % 4)]
        rng.shuffle(trees)
        forest = ForestModel(t.feature_names, tuple(trees))
        X = np.vstack([t.X, rng.random((int(rng.integers(0, 40)), 3))])
        labels, frac = forest.decide(X)
        want_labels, want_frac = ref.forest_decide_ref(forest.trees, X)
        assert labels.dtype == want_labels.dtype and frac.dtype == want_frac.dtype
        assert labels.tobytes() == want_labels.tobytes() and frac.tobytes() == want_frac.tobytes()
        for tree in trees:
            want = np.array([tree.score[ref.tree_leaf_ref(tree, x)] for x in X])
            assert tree.leaf_scores(X).tobytes() == want.tobytes()
    empty = ForestModel(("f0", "f1", "f2"), (leaf(1.0), leaf(0.0)))
    labels, frac = empty.decide(np.empty((0, 3)))
    assert labels.shape == frac.shape == (0,)
    assert empty.decide(np.zeros((3, 3)))[1].tolist() == [0.5] * 3


def test_forest_determinism():
    t = blobs_2d(40, seed=50)
    f1 = train_forest(t, ForestParams(tree_count=5, seed=7))
    f2 = train_forest(t, ForestParams(tree_count=5, seed=7))
    for a, b in zip(f1.trees, f2.trees):
        assert np.array_equal(a.feature_index, b.feature_index)
        assert np.array_equal(a.threshold, b.threshold, equal_nan=True)
    f3 = train_forest(t, ForestParams(tree_count=5, seed=8))
    assert any(not np.array_equal(a.score, b.score) for a, b in zip(f1.trees, f3.trees))



@pytest.mark.parametrize("bootstrap", [True, False])
def test_forest_trees_equal_trees_grown_on_row_copies(bootstrap):
    """Each forest tree indexes the training matrix by its bootstrap draw;
    a tree grown on an explicit copy of the drawn rows, with the same RNG
    stream, has the same node arrays."""
    from flowsieve.classify.tree import _grow
    for seed in range(6):
        t = _tie_table(np.random.default_rng(seed + 300), 60, 5, (None, 3)[seed % 2])
        params = ForestParams(tree_count=3, bootstrap=bootstrap, max_depth=5,
                              criterion=("gini", "information_gain")[seed % 2], seed=seed)
        forest = train_forest(t, params)
        n, d = t.X.shape
        for i, tree in enumerate(forest.trees):
            rng = np.random.default_rng(seed + i)
            idx = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
            want = _grow(t.X[idx], t.y[idx], np.arange(n), params.tree_params(), rng=rng,
                         features_per_split=math.ceil(math.sqrt(d)))
            for a, b in zip(want, _node_arrays(tree)[0], strict=True):
                assert a.dtype == b.dtype
                assert np.array_equal(a, b, equal_nan=True)


def test_forest_param_validation():
    with pytest.raises(ParamError, match="tree_count"):
        ForestParams(tree_count=0)
    t = blobs_2d(10, seed=3)
    with pytest.warns(UserWarning, match="features_per_split=5 exceeds feature count 2; "
                                         "capped at 2"):
        capped = train_forest(t, ForestParams(features_per_split=5))
    every = train_forest(t, ForestParams(features_per_split=2))
    for a, b in zip(capped.trees, every.trees):
        assert np.array_equal(a.feature_index, b.feature_index)
        assert np.array_equal(a.threshold, b.threshold, equal_nan=True)


def _tie_table(rng, n_rows, n_features, levels):
    """Features with `levels` distinct values (None: continuous) and a copy of
    feature 1 as the last feature, so thresholds and whole features tie."""
    X = rng.random((n_rows, n_features))
    if levels is not None:
        X = np.floor(X * levels) / levels
    if n_features > 2:
        X[:, -1] = X[:, 1]
    y = ((X[:, 0] + rng.random(n_rows)) > 1.0).astype(float)
    return make_table({f"f{j}": X[:, j] for j in range(n_features)}, y)


def _oracle_split(X, y, idx, feats, min_leaf, criterion, ws):
    """`_best_split`'s signature over the per-feature oracle, which needs no workspace."""
    return ref.best_split_ref(X, y, idx, feats, min_leaf, criterion)


@pytest.mark.parametrize("block", [None, 40])
def test_tree_and_forest_match_the_per_feature_split_oracle(monkeypatch, block):
    # a 40-element block takes one feature at a time at nodes of 40 rows or
    # more and a few below, so ties are settled both within and across blocks
    from flowsieve.classify import tree as tree_module
    if block is not None:
        monkeypatch.setattr(tree_module, "SPLIT_BLOCK", block)
    rng = np.random.default_rng(17)
    for k in range(24):
        n_rows, n_features = int(rng.integers(2, 300)), int(rng.integers(1, 40))
        t = _tie_table(rng, n_rows, n_features, (None, 2, 5, 40)[k % 4])
        criterion = ("gini", "information_gain")[k % 2]
        max_depth = (None, 2, 5)[k % 3]
        min_leaf = (1, 3, 10)[k // 3 % 3]
        tree_params = TreeParams(criterion=criterion, max_depth=max_depth,
                                 min_samples_leaf=min_leaf)
        forest_params = ForestParams(tree_count=3, bootstrap=k % 2 == 0,
                                     features_per_split=(None, n_features)[k // 2 % 2],
                                     criterion=criterion, max_depth=max_depth,
                                     min_samples_leaf=min_leaf, seed=k)

        def node_bytes():
            models = train_tree(t, tree_params), train_forest(t, forest_params)
            return [[a.tobytes() for a in arrays] for m in models for arrays in _node_arrays(m)]

        got = node_bytes()
        with monkeypatch.context() as m:
            m.setattr(tree_module, "_best_split", _oracle_split)
            want = node_bytes()
        assert got == want, (k, n_rows, n_features)


# values that tie heavily, with -0.0 beside 0.0 and the smallest subnormals
# beside them, whose midpoints round onto a zero
SIGNED_ZERO_TIES = np.array([-0.0, 0.0, 5e-324, -5e-324, 0.25, 0.5, 1.0])


@pytest.mark.parametrize("block", [None, 40])
def test_tree_splits_on_signed_zero_ties_as_the_stable_oracle(monkeypatch, block):
    # the split search sorts without regard to the order of tied rows; the
    # oracle sorts stably, one feature at a time
    from flowsieve.classify import tree as tree_module
    if block is not None:
        monkeypatch.setattr(tree_module, "SPLIT_BLOCK", block)
    rng = np.random.default_rng(29)
    for k in range(12):
        n_rows, n_features = int(rng.integers(20, 400)), int(rng.integers(1, 12))
        X = rng.choice(SIGNED_ZERO_TIES[:int(rng.integers(2, 8))], size=(n_rows, n_features))
        y = ((X[:, 0] > 0) ^ (rng.random(n_rows) < 0.3)).astype(float)
        y[:2] = [0.0, 1.0]
        t = make_table({f"f{j}": X[:, j] for j in range(n_features)}, y)
        criterion = ("gini", "information_gain")[k % 2]
        tree_params = TreeParams(criterion=criterion, min_samples_leaf=(1, 3)[k // 2 % 2])
        forest_params = ForestParams(tree_count=3, criterion=criterion, seed=k)

        def node_bytes():
            models = train_tree(t, tree_params), train_forest(t, forest_params)
            return [[a.tobytes() for a in arrays] for m in models for arrays in _node_arrays(m)]

        got = node_bytes()
        with monkeypatch.context() as m:
            m.setattr(tree_module, "_best_split", _oracle_split)
            want = node_bytes()
        assert got == want, (k, n_rows, n_features)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), block=st.sampled_from([None, 40, 300]),
       ties=st.booleans(), n_features=st.integers(1, 12),
       calls=st.lists(st.tuples(st.integers(2, 400), st.sampled_from([1, 3, 10]),
                                st.sampled_from(["gini", "information_gain"])),
                      min_size=2, max_size=8))
def test_one_workspace_serves_split_searches_of_any_size(seed, block, ties, n_features, calls):
    # the searches of one fit share one workspace, whose buffers hold what
    # the last, perhaps larger, node left there: every result must still be
    # the per-feature oracle's, bit for bit
    from flowsieve.classify import tree as tree_module
    rng = np.random.default_rng(seed)
    rows = 400
    if ties:
        X = rng.choice(SIGNED_ZERO_TIES, size=(rows, n_features))
    else:
        X = np.floor(rng.random((rows, n_features)) * rng.choice([2, 5, 1 << 20]))
    y = (rng.random(rows) < 0.4).astype(np.float64)
    candidates = int(rng.integers(1, n_features + 1))
    with pytest.MonkeyPatch.context() as m:
        if block is not None:
            m.setattr(tree_module, "SPLIT_BLOCK", block)
        ws = tree_module._SplitWorkspace(rows, candidates)
        for n, min_leaf, criterion in calls:
            if n < 2 * min_leaf:
                continue
            idx = rng.choice(rows, size=n, replace=bool(rng.integers(2)))
            feats = np.sort(rng.choice(n_features, size=candidates, replace=False))
            got = tree_module._best_split(X, y, idx, feats, min_leaf, criterion, ws)
            want = ref.best_split_ref(X, y, idx, feats, min_leaf, criterion)
            assert (got is None) == (want is None)
            if got is not None:
                assert got[0] == want[0]
                assert np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes()


@pytest.mark.parametrize("criterion", ["gini", "information_gain"])
def test_split_searches_allocate_no_block_sized_temporaries(monkeypatch, criterion):
    # every split search of a 2000-row fit is traced: at nodes of 400 rows or
    # more, the search's peak allocation stays under one and a half of its
    # float64 blocks (features x node rows). The argsort's order, one block of
    # intp that NumPy cannot write into a buffer, is the only block it may
    # allocate; five-level features keep the scored value changes few, and
    # smaller nodes would let a few KB of fixed cost count as a block
    import tracemalloc
    from flowsieve.classify import tree as tree_module
    real = tree_module._best_split
    peaks = []

    def traced(X, y, idx, feats, *rest):
        n = len(idx)
        block_bytes = 8 * n * min(len(feats), max(1, tree_module.SPLIT_BLOCK // n))
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        split = real(X, y, idx, feats, *rest)
        if n >= 400:
            peaks.append((tracemalloc.get_traced_memory()[1] - before, block_bytes, n))
        return split

    monkeypatch.setattr(tree_module, "_best_split", traced)
    t = _tie_table(np.random.default_rng(5), 2000, 20, 5)
    tracemalloc.start()
    try:
        train_tree(t, TreeParams(criterion=criterion))
        train_forest(t, ForestParams(tree_count=2, criterion=criterion, features_per_split=12))
    finally:
        tracemalloc.stop()
    assert len(peaks) >= 10
    over = [(peak, block, n) for peak, block, n in peaks[1:] if peak >= 1.5 * block]
    assert not over, over[:5]


# ---------------------------------------------------------------- dispatch + io

def trained_zoo(t):
    return {
        "logistic": train_logistic(t, LogisticParams(epochs=40)),
        "bayes": train_naive_bayes(t, NaiveBayesParams()),
        "svm": train_svm(t, SvmParams(epochs=5, seed=1)),
        "tree": train_tree(t, TreeParams(max_depth=4)),
        "forest": train_forest(t, ForestParams(tree_count=3, max_depth=4, seed=2)),
    }


def test_predict_empty_table_and_row_purity():
    t = blobs_2d(30, seed=61)
    empty = rows_of(t, np.array([], dtype=int))
    rng = np.random.default_rng(0)
    perm = rng.permutation(t.row_count)
    for model in trained_zoo(t).values():
        el, es = predict_arrays(model, empty)
        assert el.shape == es.shape == (0,)
        labels, scores = predict_arrays(model, t)
        pl, ps = predict_arrays(model, rows_of(t, perm))
        assert np.array_equal(labels[perm], pl)
        assert np.array_equal(scores[perm], ps)


@pytest.mark.parametrize("train, params", [
    (train_logistic, LogisticParams()), (train_naive_bayes, NaiveBayesParams()),
    (train_svm, SvmParams()), (train_tree, TreeParams()), (train_forest, ForestParams())])
def test_labels_not_binarized_are_refused_naming_their_values(train, params):
    t = make_table({"x": [0.1, 0.2, 0.3, 0.4, 0.5]}, [2.0, 0.0, np.nan, 1.0, 2.0])
    with pytest.raises(ClassifyError, match=r"^labels must be binarized to 0/1, "
                                            r"found \[0\.0, 1\.0, 2\.0, nan\]$"):
        train(t, params)


def test_manifest_mismatch_rejected():
    t = blobs_2d(20, seed=63)
    model = train_logistic(t, LogisticParams(epochs=10))
    renamed = Table(("a", "b"), "Label", t.X, t.y)
    with pytest.raises(ManifestMismatchError):
        predict_arrays(model, renamed)
    reordered = Table(("f1", "f0"), "Label", t.X, t.y)
    with pytest.raises(ManifestMismatchError):
        predict_arrays(model, reordered)


def test_prediction_validation():
    # every model kind labels rows 0 or 1 and scores them in [0, 1]
    t = blobs_2d(20, seed=65)
    probe = make_table({"f0": np.linspace(-0.5, 1.5, 41), "f1": np.linspace(1.5, -0.5, 41)},
                       np.zeros(41))
    for name, model in trained_zoo(t).items():
        labels, scores = predict_arrays(model, probe)
        assert set(labels.tolist()) <= {0, 1}, name
        assert ((scores >= 0.0) & (scores <= 1.0)).all(), name


def test_model_json_round_trip(tmp_path):
    t = blobs_2d(25, seed=64)
    zoo = trained_zoo(t)
    params = {"logistic": LogisticParams(epochs=40), "bayes": NaiveBayesParams(),
              "svm": SvmParams(epochs=5, seed=1), "tree": TreeParams(max_depth=4),
              "forest": ForestParams(tree_count=3, max_depth=4, seed=2)}
    for name, model in zoo.items():
        path = tmp_path / f"{name}.json"
        save_model(model, params[name], path)
        back = ref.model_from_json_ref(json.loads(path.read_text()))
        assert back.kind == model.kind and back.feature_names == model.feature_names
        l1, s1 = predict_arrays(model, t)
        l2, s2 = predict_arrays(back, t)
        assert np.array_equal(l1, l2)
        assert np.array_equal(s1, s2)  # exact float round trip
    assert json.loads((tmp_path / "forest.json").read_text())["parameters"]["vote_rule"] == \
        "majority"
    doc = json.loads((tmp_path / "logistic.json").read_text())
    assert doc["format_version"] == 1
    assert doc["algorithm"] == "logistic_regression"
    assert doc["hyperparams"]["epochs"] == 40
    assert doc["schema_fingerprint"]


def _node_arrays(model):
    trees = model.trees if model.kind == "random_forest" else (model,)
    return [(t.feature_index, t.threshold, t.left, t.right, t.score) for t in trees]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_rows=st.integers(1, 60),
       n_features=st.integers(1, 4), levels=st.sampled_from([2, 5, None]),
       forest=st.booleans(), criterion=st.sampled_from(["gini", "information_gain"]),
       max_depth=st.sampled_from([None, 1, 3]), tree_count=st.integers(1, 3),
       bootstrap=st.booleans())
def test_tree_model_json_round_trip_property(seed, n_rows, n_features, levels, forest,
                                             criterion, max_depth, tree_count, bootstrap):
    rng = np.random.default_rng(seed)
    X = rng.random((n_rows, n_features))
    if levels is not None:  # few distinct values: tied thresholds and pure plateaus
        X = np.floor(X * levels) / levels
    y = (rng.random(n_rows) < 0.4).astype(float)
    t = make_table({f"f{j}": X[:, j] for j in range(n_features)}, y)
    if forest:
        params = ForestParams(tree_count=tree_count, bootstrap=bootstrap,
                              criterion=criterion, max_depth=max_depth, seed=seed % 1000)
        model = train_forest(t, params)
    else:
        params = TreeParams(criterion=criterion, max_depth=max_depth)
        model = train_tree(t, params)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_model(model, params, path)
        back = ref.model_from_json_ref(json.loads(path.read_text()))
    assert back.kind == model.kind and back.feature_names == model.feature_names
    for want, got in zip(_node_arrays(model), _node_arrays(back), strict=True):
        for a, b in zip(want, got):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b, equal_nan=True)
    probe = make_table({f"f{j}": rng.random(20) for j in range(n_features)}, np.zeros(20))
    for rows in (t, probe):
        labels, scores = predict_arrays(model, rows)
        got_labels, got_scores = predict_arrays(back, rows)
        assert labels.tobytes() == got_labels.tobytes()
        assert scores.tobytes() == got_scores.tobytes()
