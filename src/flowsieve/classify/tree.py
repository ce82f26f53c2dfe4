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

# elements (candidate features x node rows) that one split-search block sorts
# and scores together. Its float64 temporaries are 64 KiB each, under glibc's
# default mmap threshold, so they reuse heap memory and stay in cache; a node
# of more than SPLIT_BLOCK / 2 rows takes one feature at a time
SPLIT_BLOCK = 1 << 13


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
    """Best (feature, threshold) over the candidates, or None if nothing separates.

    The candidates are scored SPLIT_BLOCK // len(idx) features at a time (at
    least one): each feature's node rows are sorted, the block's sorted rows
    are laid end to end, and only the value changes that leave both children
    at least min_leaf rows are scored. argmax over that feature-major list
    takes the lowest feature and then the lowest threshold; a later block
    must gain strictly more. The sort need not be stable: a count is read
    only where the sorted value changes, after every row of a lower value
    and none of a higher one, so the order of tied rows changes no count;
    and tied values are equal, -0.0 beside 0.0 included, so the midpoint of
    the values on either side of a change is the same whichever tied row
    stands there."""
    n = len(idx)
    yv = y[idx]
    total1 = int(yv.sum())
    parent_imp = float(_impurity(n - total1, total1, criterion))
    step = max(1, SPLIT_BLOCK // n)
    width = min(step, len(feats))
    # a block's r-th feature fills flat positions r * n to r * n + n - 1, and
    # a split after flat position i sends n_left[i] rows left; the last
    # position of a feature leaves no row right, so it is never allowed
    offsets = np.arange(0, width * n, n)[:, None]
    n_left = np.tile(np.arange(1, n + 1), width)
    allowed = (n_left[:-1] >= min_leaf) & (n - n_left[:-1] >= min_leaf)
    # X is C-contiguous (a Table's matrix), so its cells are gathered by flat
    # index, the cheap one-index path
    cells = X.ravel()
    row_starts = idx * X.shape[1]
    best_gain = -np.inf
    best = None
    for start in range(0, len(feats), step):
        block = feats[start:start + step]
        v = cells[row_starts + block[:, None]]
        order = v.argsort(axis=1)
        c1 = yv[order].cumsum(axis=1).ravel()
        order += offsets[:len(block)]
        vs = v.ravel()[order.ravel()]
        at = np.flatnonzero((vs[1:] != vs[:-1]) & allowed[:len(vs) - 1])
        if at.size == 0:
            continue
        c1_left = c1[at]
        c1_right = total1 - c1_left
        nl = n_left[at]
        nr = n - nl
        imp_l = _impurity(nl - c1_left, c1_left, criterion)
        imp_r = _impurity(nr - c1_right, c1_right, criterion)
        gain = parent_imp - (nl * imp_l + nr * imp_r) / n
        k = int(gain.argmax())
        if gain[k] > best_gain:  # strict: an earlier block wins ties
            i = at[k]
            lo = vs[i]
            hi = vs[i + 1]
            thr = (lo + hi) / 2.0
            if thr <= lo:  # midpoint rounded onto the lower value
                thr = hi
            best_gain = gain[k]
            best = (int(block[i // n]), float(thr))
    return best


def _grow(X, y, rows, params: TreeParams, rng=None, features_per_split: int | None = None):
    """Node arrays (feature, threshold, left, right, score) grown in preorder
    from the rows `rows` of X, which may repeat a row, as a bootstrap draw does."""
    d = X.shape[1]
    feature_index: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    score: list[float] = []  # attack fraction of the node's training rows

    all_feats = np.arange(d)
    sample_feats = features_per_split is not None and features_per_split < d
    stack = [(rows, 0, -1, False)]
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
    arrays = _grow(X, y, np.arange(len(y)), params)
    return TreeModel(train.feature_names, *arrays)


@dataclass(frozen=True)
class ForestModel:
    feature_names: tuple[str, ...]
    trees: tuple[TreeModel, ...]
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
        rows = rng.integers(0, n, size=n) if params.bootstrap else np.arange(n)
        arrays = _grow(X, y, rows, tree_params, rng=rng, features_per_split=fps)
        trees.append(TreeModel(train.feature_names, *arrays))
    return ForestModel(train.feature_names, tuple(trees))
