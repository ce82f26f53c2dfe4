import math

import numpy as np
import pytest

from flowsieve.classify import (ClassifyError, ForestParams, LogisticParams,
                                ManifestMismatchError, NaiveBayesParams,
                                Prediction, SvmParams, TreeParams, load_model,
                                predict, predict_arrays, save_model,
                                train_forest, train_logistic,
                                train_naive_bayes, train_svm, train_tree)
from flowsieve.classify.logistic import LogisticModel
from flowsieve.classify.params import ParamError
from flowsieve.tabular import ColumnKind, Table

from helpers import blobs_2d, make_table, random_table


def xor_table():
    return make_table({"x": [0.0, 0.0, 1.0, 1.0], "y": [0.0, 1.0, 0.0, 1.0]},
                      [0.0, 1.0, 1.0, 0.0])


def accuracy(model, t):
    labels, _ = predict_arrays(model, t)
    return (labels == t.labels()).mean()


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
    m2 = train_logistic(t.take_rows(perm), LogisticParams(epochs=50))
    # order-free up to float summation order
    assert np.allclose(m1.coefficients, m2.coefficients, rtol=0, atol=1e-12)
    m3 = train_logistic(t, LogisticParams(epochs=50))
    assert np.array_equal(m1.coefficients, m3.coefficients)  # bitwise repeatable


def test_logistic_hand_sigmoid():
    m = LogisticModel(("x",), np.array([0.0, 2.0]), 0.5)
    t = make_table({"x": [1.0]}, [1.0])
    _, scores = predict_arrays(m, t)
    assert scores[0] == pytest.approx(0.8807970779778823, abs=1e-15)


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
    X = t.feature_matrix()[:5]
    lp = m.log_posteriors(X)
    for i in range(5):
        for c in (0, 1):
            direct = m.priors[c]
            for j in range(8):
                mu, sig = m.means[c, j], m.sigmas[c, j]
                direct *= math.exp(-(X[i, j] - mu) ** 2 / (2 * sig ** 2)) / (
                    sig * math.sqrt(2 * math.pi))
            assert math.exp(lp[i, c]) == pytest.approx(direct, rel=1e-9)


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
    X = t.feature_matrix()
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
    t = Table(("x", "Label"), (ColumnKind.NUMERIC, ColumnKind.LABEL),
              np.empty((0, 1)), np.array([]))
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


def test_forest_determinism():
    t = blobs_2d(40, seed=50)
    f1 = train_forest(t, ForestParams(tree_count=5, seed=7))
    f2 = train_forest(t, ForestParams(tree_count=5, seed=7))
    for a, b in zip(f1.trees, f2.trees):
        assert np.array_equal(a.feature_index, b.feature_index)
        assert np.array_equal(a.threshold, b.threshold, equal_nan=True)
    f3 = train_forest(t, ForestParams(tree_count=5, seed=8))
    assert any(not np.array_equal(a.score, b.score) for a, b in zip(f1.trees, f3.trees))


def test_forest_param_validation():
    with pytest.raises(ParamError, match="tree_count"):
        ForestParams(tree_count=0)
    t = blobs_2d(10, seed=3)
    with pytest.raises(ClassifyError, match="exceeds"):
        train_forest(t, ForestParams(features_per_split=5))


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
    empty = t.take_rows(np.array([], dtype=int))
    rng = np.random.default_rng(0)
    perm = rng.permutation(t.row_count)
    for model in trained_zoo(t).values():
        assert predict(model, empty) == []
        labels, scores = predict_arrays(model, t)
        pl, ps = predict_arrays(model, t.take_rows(perm))
        assert np.array_equal(labels[perm], pl)
        assert np.array_equal(scores[perm], ps)


def test_predict_objects_match_arrays():
    t = blobs_2d(15, seed=62)
    model = train_tree(t, TreeParams())
    preds = predict(model, t)
    labels, scores = predict_arrays(model, t)
    assert [p.label for p in preds] == labels.tolist()
    assert [p.score for p in preds] == scores.tolist()
    assert all(isinstance(p, Prediction) for p in preds)


def test_manifest_mismatch_rejected():
    t = blobs_2d(20, seed=63)
    model = train_logistic(t, LogisticParams(epochs=10))
    renamed = Table(("a", "b", "Label"), t.column_kinds, t.X, t.y)
    with pytest.raises(ManifestMismatchError):
        predict_arrays(model, renamed)
    reordered = Table(("f1", "f0", "Label"), t.column_kinds, t.X, t.y)
    with pytest.raises(ManifestMismatchError):
        predict_arrays(model, reordered)


def test_prediction_validation():
    with pytest.raises(ClassifyError):
        Prediction(2, 0.5)
    with pytest.raises(ClassifyError):
        Prediction(1, 1.5)


def test_model_json_round_trip(tmp_path):
    t = blobs_2d(25, seed=64)
    zoo = trained_zoo(t)
    params = {"logistic": LogisticParams(epochs=40), "bayes": NaiveBayesParams(),
              "svm": SvmParams(epochs=5, seed=1), "tree": TreeParams(max_depth=4),
              "forest": ForestParams(tree_count=3, max_depth=4, seed=2)}
    for name, model in zoo.items():
        path = tmp_path / f"{name}.json"
        save_model(model, params[name], path)
        back = load_model(path)
        l1, s1 = predict_arrays(model, t)
        l2, s2 = predict_arrays(back, t)
        assert np.array_equal(l1, l2)
        assert np.array_equal(s1, s2)  # exact float round trip
    import json
    doc = json.loads((tmp_path / "logistic.json").read_text())
    assert doc["format_version"] == 1
    assert doc["algorithm"] == "logistic_regression"
    assert doc["hyperparams"]["epochs"] == 40
    assert doc["schema_fingerprint"]
