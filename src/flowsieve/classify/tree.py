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
# and scores together, so that each of a fit's split buffers holds 64 KiB of
# float64 and stays in cache. A node of more than SPLIT_BLOCK / 2 rows takes
# one feature at a time. The buffers are allocated once per fit: temporaries
# of this size would come from the top of the heap, which glibc trims back to
# the kernel once more than its trim threshold is free there (128 KiB with
# the bench's fixed mmap threshold), so every call would fault them in anew
SPLIT_BLOCK = 1 << 13
# (tree, row) pairs that one step of a forest's traversal moves together: its
# int64 and float64 arrays of 64 KiB stay under glibc's default 128 KiB mmap
# threshold. On one CPU, ten trees predict 20k rows in 50 ms, against 59-63 ms
# at 1 << 14
TRAVERSE_BLOCK = 1 << 13


def _entropy(p0, p1, out):
    """Entropy in bits of the class fractions p0 and p1, into `out`, which may
    be p0. log2 runs on the compacted nonzero fractions, as it always has,
    so that no fraction moves to another lane of NumPy's vectorized log2."""
    nz = p0 > 0
    term = p0[nz] * np.log2(p0[nz])
    out[...] = 0.0
    out[nz] -= term
    nz = p1 > 0
    out[nz] -= p1[nz] * np.log2(p1[nz])
    return out


class _SplitWorkspace:
    """The buffers of every `_best_split` call of one fit, whose nodes have
    at most `rows` rows and `candidates` candidate features each: the largest
    block such a node forms, min(rows x candidates, max(rows, SPLIT_BLOCK))
    elements, and per-row buffers of `rows` elements."""

    def __init__(self, rows: int, candidates: int):
        size = min(rows * candidates, max(rows, SPLIT_BLOCK))
        self.labels = np.empty(rows)
        self.row_starts = np.empty(rows, dtype=np.intp)
        self.n_left = np.arange(1.0, rows + 1.0)  # rows left of each sorted position
        self.index = np.empty(size, dtype=np.intp)
        self.offsets = np.empty(size, dtype=np.intp)  # added to flat indices
        self.values = np.empty(size)
        self.sorted = np.empty(size)
        self.counts = np.empty(size)
        self.change = np.empty(size, dtype=bool)
        self.n_side = np.empty(size)
        self.gain = np.empty(size)


def _best_split(X, y, idx, feats, min_leaf, criterion, ws: _SplitWorkspace):
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
    stands there.

    `y` holds the 0/1 labels as floats, whose sums are exact counts. Every
    block-sized array but the argsort's order lives in `ws`, which `_grow`
    passes to every call of a fit. Each impurity is computed from the class
    fractions count / rows, the parent's gini in Python floats; a child's
    row count is never 0, since each scored position leaves min_leaf >= 1
    rows on either side."""
    n = len(idx)
    yv = np.take(y, idx, out=ws.labels[:n], mode="clip")
    total1 = int(yv.sum())
    p0 = (n - total1) / n
    p1 = total1 / n
    if criterion == "gini":
        parent_imp = 1.0 - p0 * p0 - p1 * p1
    else:
        parent_imp = float(_entropy(np.array([p0]), np.array([p1]), np.zeros(1))[0])
    step = max(1, SPLIT_BLOCK // n)
    # X is C-contiguous (a Table's matrix), so its cells are gathered by flat
    # index, the cheap one-index path
    cells = X.ravel()
    row_starts = np.multiply(idx, X.shape[1], out=ws.row_starts[:n])
    best_gain = -np.inf
    best = None
    for start in range(0, len(feats), step):
        block = feats[start:start + step]
        size = len(block) * n
        # the block's r-th feature fills flat positions r * n to r * n + n - 1.
        # NumPy buffers a ufunc whose operand repeats along a short last axis,
        # so the flat indices and offsets are laid out by copies and added
        index = ws.index[:size].reshape(len(block), n)
        offsets = ws.offsets[:size].reshape(len(block), n)
        np.copyto(index, row_starts)
        np.copyto(offsets, block[:, None])
        index += offsets
        v = np.take(cells, index, out=ws.values[:size].reshape(len(block), n), mode="clip")
        order = v.argsort(axis=1)
        labels = np.take(yv, order, out=ws.sorted[:size].reshape(len(block), n), mode="clip")
        c1 = np.cumsum(labels, axis=1, out=ws.counts[:size].reshape(len(block), n)).ravel()
        np.copyto(offsets, np.arange(0, size, n)[:, None])
        order += offsets
        vs = np.take(v.ravel(), order.ravel(), out=ws.sorted[:size], mode="clip")
        del order  # freed before the next block's argsort allocates its own
        # a split after flat position i sends i % n + 1 rows left; the last
        # position of a feature leaves no row right, so it is never allowed
        change = ws.change[:size]
        np.not_equal(vs[1:], vs[:-1], out=change[:-1])
        per_feature = change.reshape(len(block), n)
        per_feature[:, :min_leaf - 1] = False
        per_feature[:, n - min_leaf:] = False
        at = np.flatnonzero(change)
        if at.size == 0:
            continue
        m = at.size
        c1_left = np.take(c1, at, out=ws.values[:m], mode="clip")
        c1_right = np.subtract(total1, c1_left, out=ws.counts[:m])
        nl = np.take(ws.n_left, np.remainder(at, n, out=ws.index[:m]),
                     out=ws.n_side[:m], mode="clip")
        gain = _child_impurity(nl, c1_left, criterion, out=ws.gain[:m])
        gain *= nl
        nr = np.subtract(n, nl, out=nl)
        imp_r = _child_impurity(nr, c1_right, criterion, out=c1_left)
        imp_r *= nr
        gain += imp_r
        gain /= n
        np.subtract(parent_imp, gain, out=gain)
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


def _child_impurity(rows, c1, criterion, out):
    """Impurity of children of `rows` rows (each at least one), `c1` of them
    attack rows, into `out`; `c1` is overwritten with the attack fractions."""
    p0 = np.subtract(rows, c1, out=out)
    p0 /= rows
    p1 = np.divide(c1, rows, out=c1)
    if criterion == "gini":
        p0 *= p0
        p1 *= p1
        np.subtract(1.0, p0, out=out)
        out -= p1
        return out
    return _entropy(p0, p1, out)


def _grow(X, y, rows, params: TreeParams, rng=None, features_per_split: int | None = None,
          ws: _SplitWorkspace | None = None):
    """Node arrays (feature, threshold, left, right, score) grown in preorder
    from the rows `rows` of X, which may repeat a row, as a bootstrap draw does,
    and their float 0/1 labels in `y`, whose sums are exact counts. Every
    split search uses the workspace `ws` (by default, one for this fit)."""
    d = X.shape[1]
    sample_feats = features_per_split is not None and features_per_split < d
    if ws is None:
        ws = _SplitWorkspace(len(rows), features_per_split if sample_feats else d)
    feature_index: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    score: list[float] = []  # attack fraction of the node's training rows

    all_feats = np.arange(d)
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
            split = _best_split(X, y, idx, feats, params.min_samples_leaf, params.criterion, ws)
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


def _leaf_blocks(trees, X: np.ndarray):
    """(start, nodes) for each block of TRAVERSE_BLOCK // len(trees) rows of
    X (at least one), in order: nodes[t, j] is the leaf that row start + j
    reaches in tree t, indexing the trees' node arrays laid end to end. All
    trees walk in one loop, every (tree, row) pair one level per step."""
    base = np.cumsum([0] + [tree.node_count for tree in trees[:-1]])
    feature = np.concatenate([tree.feature_index for tree in trees])
    threshold = np.concatenate([tree.threshold for tree in trees])
    left = np.concatenate([tree.left + b for tree, b in zip(trees, base)])
    right = np.concatenate([tree.right + b for tree, b in zip(trees, base)])
    # a leaf leads to itself, by way of feature 0, so that a pair that has
    # reached one takes the remaining steps in place
    leaf = feature < 0
    itself = np.flatnonzero(leaf)
    feature[itself] = 0
    left[itself] = itself
    right[itself] = itself
    d = X.shape[1]
    cells = np.ascontiguousarray(X).ravel()
    step = max(1, TRAVERSE_BLOCK // len(trees))
    for start in range(0, len(X), step):
        count = min(step, len(X) - start)
        at = np.repeat(base, count)
        row_start = np.tile(np.arange(start * d, (start + count) * d, d), len(trees))
        while not leaf[at].all():
            go_left = cells[row_start + feature[at]] < threshold[at]
            at = np.where(go_left, left[at], right[at])
        yield start, at.reshape(len(trees), count)


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
        out = np.empty(len(X))
        for start, nodes in _leaf_blocks((self,), X):
            out[start:start + nodes.shape[1]] = self.score[nodes[0]]
        return out

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
        attack = np.concatenate([tree.score for tree in self.trees]) > 0.5  # leaf labels
        votes = np.empty(len(X), dtype=np.int64)
        for start, nodes in _leaf_blocks(self.trees, X):
            votes[start:start + nodes.shape[1]] = attack[nodes].sum(axis=0)
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
    ws = _SplitWorkspace(n, fps)
    trees = []
    for i in range(params.tree_count):
        rng = np.random.default_rng(params.seed + i)
        rows = rng.integers(0, n, size=n) if params.bootstrap else np.arange(n)
        arrays = _grow(X, y, rows, tree_params, rng=rng, features_per_split=fps, ws=ws)
        trees.append(TreeModel(train.feature_names, *arrays))
    return ForestModel(train.feature_names, tuple(trees))
