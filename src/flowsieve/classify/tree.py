"""CART-style decision tree and bootstrap-aggregated forest.

Splits are binary (feature, threshold) rules with thresholds at midpoints
between consecutive distinct sorted values; candidate splits maximize the
impurity decrease under the configured criterion, ties resolved to the lowest
feature index and then the lowest threshold. An impure node splits as long as
any separating split exists, even at zero measured gain: strictly-gainless
plateaus (the XOR pattern) must still be partitioned for the tree to reach
purity. Growth is iterative in preorder, so node numbering and per-node RNG
draws are deterministic.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ..tabular import Table
from .base import ClassifyError, training_arrays
from .params import ForestParams, TreeParams


def _impurity(c0, c1, criterion: str):
    c0 = np.asarray(c0, dtype=np.float64)
    c1 = np.asarray(c1, dtype=np.float64)
    n = c0 + c1
    p0 = np.divide(c0, n, out=np.zeros_like(n), where=n > 0)
    p1 = np.divide(c1, n, out=np.zeros_like(n), where=n > 0)
    if criterion == "gini":
        return 1.0 - p0 * p0 - p1 * p1
    out = np.zeros_like(n)
    for p in (p0, p1):
        nz = p > 0
        out[nz] -= p[nz] * np.log2(p[nz])
    return out


def _best_split(X, y, idx, feats, min_leaf, criterion):
    """Best (feature, threshold) over the candidates, or None if nothing separates."""
    n = len(idx)
    yv = y[idx]
    total1 = int(yv.sum())
    parent_imp = float(_impurity(n - total1, total1, criterion))
    best_gain = -np.inf
    best = None
    for f in feats:
        v = X[idx, f]
        order = np.argsort(v, kind="stable")
        vs = v[order]
        pos = np.flatnonzero(vs[1:] != vs[:-1])  # split after sorted position i
        if pos.size == 0:
            continue
        csum1 = np.cumsum(yv[order])
        n_left = pos + 1
        n_right = n - n_left
        valid = (n_left >= min_leaf) & (n_right >= min_leaf)
        if not valid.any():
            continue
        c1_left = csum1[pos]
        c1_right = total1 - c1_left
        imp_l = _impurity(n_left - c1_left, c1_left, criterion)
        imp_r = _impurity(n_right - c1_right, c1_right, criterion)
        gain = parent_imp - (n_left * imp_l + n_right * imp_r) / n
        gain[~valid] = -np.inf
        k = int(np.argmax(gain))  # first max: lowest threshold wins ties
        if gain[k] > best_gain:   # strict: lowest feature index wins ties
            lo = vs[pos[k]]
            hi = vs[pos[k] + 1]
            thr = (lo + hi) / 2.0
            if thr <= lo:  # midpoint rounded onto the lower value
                thr = hi
            best_gain = gain[k]
            best = (int(f), float(thr))
    return best


def _grow(X, y, params: TreeParams, rng=None, features_per_split: int | None = None):
    """Node arrays (feature, threshold, left, right, score) grown in preorder."""
    n, d = X.shape
    feature_index: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    score: list[float] = []  # attack fraction of the node's training rows

    all_feats = np.arange(d)
    sample_feats = features_per_split is not None and features_per_split < d
    stack = [(np.arange(n), 0, -1, False)]
    while stack:
        idx, depth, parent, is_left = stack.pop()
        node = len(feature_index)
        if parent >= 0:
            if is_left:
                left[parent] = node
            else:
                right[parent] = node
        n1 = int(y[idx].sum())
        p1 = n1 / len(idx)
        split = None
        depth_ok = params.max_depth is None or depth < params.max_depth
        if 0 < n1 < len(idx) and depth_ok and len(idx) >= 2 * params.min_samples_leaf:
            feats = np.sort(rng.choice(d, size=features_per_split, replace=False)) \
                if sample_feats else all_feats
            split = _best_split(X, y, idx, feats, params.min_samples_leaf, params.criterion)
        f, thr = split or (-1, math.nan)
        feature_index.append(f)
        threshold.append(thr)
        left.append(-1)
        right.append(-1)
        score.append(p1)
        if split:
            mask = X[idx, f] < thr
            stack.append((idx[~mask], depth + 1, node, False))
            stack.append((idx[mask], depth + 1, node, True))
    return (np.array(feature_index, dtype=np.int64), np.array(threshold),
            np.array(left, dtype=np.int64), np.array(right, dtype=np.int64),
            np.array(score))


@dataclass(frozen=True)
class TreeModel:
    feature_names: tuple[str, ...]
    feature_index: np.ndarray  # -1 marks a leaf
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    score: np.ndarray          # per-node attack fraction seen in training
    kind: str = field(default="decision_tree", init=False)

    @property
    def node_count(self) -> int:
        return len(self.feature_index)

    def leaf_scores(self, X: np.ndarray) -> np.ndarray:
        cur = np.zeros(len(X), dtype=np.int64)
        while True:
            fi = self.feature_index[cur]
            active = np.flatnonzero(fi >= 0)
            if active.size == 0:
                break
            at = cur[active]
            go_left = X[active, self.feature_index[at]] < self.threshold[at]
            cur[active] = np.where(go_left, self.left[at], self.right[at])
        return self.score[cur]

    def decide(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        s = self.leaf_scores(X)
        return (s > 0.5).astype(np.int64), s  # attack fraction tied at 0.5: benign


def train_tree(train: Table, params: TreeParams) -> TreeModel:
    X, y = training_arrays(train)
    if len(y) == 0:
        raise ClassifyError("cannot train a tree on an empty table")
    arrays = _grow(X, y, params)
    return TreeModel(train.feature_names, *arrays)


@dataclass(frozen=True)
class ForestModel:
    feature_names: tuple[str, ...]
    trees: tuple[TreeModel, ...]
    vote_rule: str = "majority"
    kind: str = field(default="random_forest", init=False)

    def decide(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        votes = np.zeros(len(X))
        for tree in self.trees:
            labels, _ = tree.decide(X)
            votes += labels
        frac = votes / len(self.trees)
        return (frac > 0.5).astype(np.int64), frac  # even-vote tie: benign


def train_forest(train: Table, params: ForestParams) -> ForestModel:
    """tree_count trees, each on its own bootstrap sample and per-node feature
    draw, with per-tree RNG streams seeded at seed + tree index. A
    features_per_split above the feature count is capped there with a
    warning."""
    X, y = training_arrays(train)
    n, d = X.shape
    if n == 0:
        raise ClassifyError("cannot train a forest on an empty table")
    fps = params.features_per_split
    if fps is None:
        fps = math.ceil(math.sqrt(d))
    if fps > d:
        warnings.warn(f"features_per_split={fps} exceeds feature count {d}; "
                      f"capped at {d}", stacklevel=2)
        fps = d
    tree_params = params.tree_params()
    trees = []
    for i in range(params.tree_count):
        rng = np.random.default_rng(params.seed + i)
        if params.bootstrap:
            idx = rng.integers(0, n, size=n)
            Xi, yi = X[idx], y[idx]
        else:
            Xi, yi = X, y
        arrays = _grow(Xi, yi, tree_params, rng=rng, features_per_split=fps)
        trees.append(TreeModel(train.feature_names, *arrays))
    return ForestModel(train.feature_names, tuple(trees))
