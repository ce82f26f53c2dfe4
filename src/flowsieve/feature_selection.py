"""Six filter scorers, per-method score normalization, mean aggregation, and
threshold selection.

Contingency-table scorers (information gain, gain ratio, symmetric
uncertainty, chi-squared) work on binned feature values versus the class; the
F-ratio works on the raw continuous values grouped by class; the relief
weights work on the normalized continuous values with a Manhattan
nearest-neighbor search. Entropies are in bits.
"""

import csv
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .discretize import BinEdges, bin_matrix, table_bin_edges
from .tabular import Table

METHODS = ("ig", "gain_ratio", "relief", "su", "chi2", "anova_f")

SCORES_CSV_HEADER = ("feature_index", "feature_name", "ig", "gain_ratio",
                     "relief", "su", "chi2", "anova_f", "mean_score")

# Relief's neighbour search: sampled rows per pass and data rows per tile.
# Two batch x tile x features float64 buffers (1.3 MB at 78 features) fit
# in a 2 MB L2 cache; chosen by timing the relief_wide benchmark.
RELIEF_BATCH = 16
RELIEF_TILE = 64


class ScoringError(ValueError):
    pass


def _run_sums(terms, widths) -> np.ndarray:
    """Sums of the consecutive runs of a 1-D array, run i being widths[i]
    long, each bit for bit NumPy's sum of that run alone: NumPy sums
    pairwise in an order set by the length, so the runs of each width are
    summed along the rows of one C-contiguous (runs, width) block."""
    starts = np.cumsum(widths) - widths
    out = np.zeros(len(widths))
    for w in np.unique(widths[widths > 0]):
        runs = np.flatnonzero(widths == w)
        out[runs] = terms[starts[runs, None] + np.arange(w)].sum(axis=1)
    return out


def _ordered_sums(terms) -> np.ndarray:
    """Each row's sum taken left to right from 0.0, as a Python loop adds."""
    return np.cumsum(np.hstack([np.zeros((len(terms), 1)), terms]), axis=1)[:, -1]


def _count_tensor(binned, class_idx, n_classes: int) -> np.ndarray:
    """(features, bins, classes) joint counts of a (rows, features) bin
    matrix against per-row class indices, from one bincount. The bin axis
    runs to the largest index present; empty bins change no score."""
    features = binned.shape[1]
    bins = int(binned.max()) + 1 if binned.size else 0
    key = binned + np.arange(features) * bins
    key *= n_classes
    key += class_idx[:, None]
    return np.bincount(key.ravel(), minlength=features * bins * n_classes).reshape(
        features, bins, n_classes)


def _entropy_rows(counts) -> np.ndarray:
    """Entropy in bits of each row of a (rows, values) count matrix, bit for
    bit what `entropy` gives the row alone; a row of zeros gets -0.0."""
    c = np.ascontiguousarray(counts, dtype=np.float64)
    nonzero = c > 0
    widths = np.count_nonzero(nonzero, axis=1)
    p = c[nonzero] / np.repeat(c.sum(axis=1), widths)
    return -_run_sums(p * np.log2(p), widths)


def _count_scores(counts) -> dict[str, np.ndarray]:
    """The contingency-table scores of every feature of a (features, bins,
    classes) count tensor. Chi-squared sums the cells of the occupied bins
    and classes in row-major order."""
    occupancy = counts.sum(axis=2)
    class_totals = counts.sum(axis=1)
    h = _entropy_rows(counts.reshape(-1, counts.shape[2])).reshape(occupancy.shape)
    weighted = np.where(occupancy > 0, occupancy / occupancy.sum(axis=1)[:, None] * h, 0.0)
    ce = _ordered_sums(weighted)
    hy = _entropy_rows(class_totals)
    ig = hy - ce
    split = _entropy_rows(occupancy)
    keep = (occupancy > 0)[:, :, None] & (class_totals > 0)[:, None, :]
    widths = np.count_nonzero(keep, axis=(1, 2))
    r, c = occupancy.astype(np.float64), class_totals.astype(np.float64)
    expected = (r[:, :, None] * c[:, None, :])[keep] / np.repeat(r.sum(axis=1), widths)
    return {"conditional_entropy": ce, "ig": ig, "split_info": split,
            "gain_ratio": np.divide(ig, split, out=np.zeros_like(ig), where=split != 0),
            "su": np.divide(2.0 * ig, split + hy, out=np.zeros_like(ig), where=split + hy != 0),
            "chi2": _run_sums((counts[keep] - expected) ** 2 / expected, widths)}


def _group_stats(blocks):
    """Group sizes, and per feature the group means, sample variances and
    grand mean, from one C-contiguous (features, group size) block per group,
    each overwritten. Row sums are NumPy's sums of each row alone, so these
    equal per-feature `mean`, `var(ddof=1)` and group sums added in order."""
    stats = []
    for block in blocks:
        n = block.shape[1]
        total = block.sum(axis=1)
        mean = total / n
        block -= mean[:, None]
        block *= block
        stats.append((n, total, mean,
                      block.sum(axis=1) / (n - 1) if n > 1 else np.zeros(len(block))))
    sizes, sums, means, variances = zip(*stats)
    grand = _ordered_sums(np.column_stack(sums)) / sum(sizes)
    return sizes, np.column_stack(means), np.column_stack(variances), grand


def _anova(sizes, means, variances, grand) -> np.ndarray:
    """One-way F ratio per feature from (features, groups) statistics.

    SSB squares with libm pow (`np.float_power`), as Python's float ** 2
    does; it differs from x * x in the last bit of about 0.1 % of values.
    """
    k, n = len(sizes), sum(sizes)
    sizes = np.asarray(sizes)
    ssw = _ordered_sums((sizes - 1) * variances)
    ssb = _ordered_sums(sizes * np.float_power(means - grand[:, None], 2.0))
    f = np.divide(ssb / (k - 1), ssw / (n - k), out=np.full_like(ssb, np.inf),
                  where=ssw != 0)
    f[ssb == 0] = 0.0
    return f


class ContingencyTable:
    """Joint counts of feature bins (rows) against classes (columns): the
    one-feature case of the (features, bins, classes) count tensor."""

    def __init__(self, counts):
        counts = np.asarray(counts, dtype=np.int64)
        if counts.ndim != 2:
            raise ScoringError("contingency counts must be a 2-D matrix")
        if (counts < 0).any():
            raise ScoringError("contingency counts must be non-negative")
        self.counts = counts
        self.row_totals = counts.sum(axis=1)
        self.col_totals = counts.sum(axis=0)
        self.total = int(counts.sum())

    @classmethod
    def from_vectors(cls, bins, labels) -> "ContingencyTable":
        bins = np.asarray(bins, dtype=np.int64)
        labels = np.asarray(labels)
        if bins.shape != labels.shape:
            raise ScoringError("bin and label vectors differ in length")
        classes, class_idx = np.unique(labels, return_inverse=True)
        return cls(_count_tensor(bins[:, None], class_idx, len(classes))[0])

    def transposed(self) -> "ContingencyTable":
        return ContingencyTable(self.counts.T)


def _scores(ct: ContingencyTable) -> dict[str, float]:
    if ct.total == 0:
        raise ScoringError("empty contingency table")
    return {k: float(v[0]) for k, v in _count_scores(ct.counts[None]).items()}


def entropy(counts) -> float:
    """Shannon entropy in bits of a count vector; 0*log(0) contributes 0."""
    c = np.asarray(counts, dtype=np.float64).ravel()
    if (c < 0).any():
        raise ScoringError("counts must be non-negative")
    if c.sum() <= 0:
        raise ScoringError("entropy of an all-zero count vector is undefined")
    return float(_entropy_rows(c[None])[0])


def conditional_entropy(ct: ContingencyTable) -> float:
    """Class entropy remaining after observing the bin: sum_i (R_i/N) * H(row i)."""
    return _scores(ct)["conditional_entropy"]


def information_gain(ct: ContingencyTable) -> float:
    """H(class) - H(class | bin); symmetric in the two variables."""
    return _scores(ct)["ig"]


def split_info(ct: ContingencyTable) -> float:
    """Entropy of the bin-occupancy distribution."""
    return _scores(ct)["split_info"]


def gain_ratio(ct: ContingencyTable) -> float:
    """Information gain divided by split info; defined as 0 for a single-valued feature."""
    scores = _scores(ct)
    if scores["split_info"] == 0.0:
        warnings.warn("gain ratio of a single-valued feature defined as 0", stacklevel=2)
    return scores["gain_ratio"]


def symmetric_uncertainty(ct: ContingencyTable) -> float:
    """2*IG / (H(bin) + H(class)), in [0, 1]; 0 when both entropies vanish."""
    return _scores(ct)["su"]


def chi_squared(ct: ContingencyTable) -> float:
    """Divergence of observed counts from the independence expectation.

    Empty rows and columns are pruned before the sum, so every expected
    count is positive.
    """
    return _scores(ct)["chi2"]


@dataclass(frozen=True)
class GroupStats:
    """Per-class summary of one feature: sizes, means, sample variances."""

    sizes: tuple[int, ...]
    means: tuple[float, ...]
    variances: tuple[float, ...]
    grand_mean: float

    @property
    def group_count(self) -> int:
        return len(self.sizes)

    @property
    def total(self) -> int:
        return sum(self.sizes)

    @classmethod
    def from_groups(cls, groups) -> "GroupStats":
        blocks = [np.array(g, dtype=np.float64, ndmin=2) for g in groups]
        if any(b.size == 0 for b in blocks):
            raise ScoringError("empty group")
        sizes, means, variances, grand = _group_stats(blocks)
        return cls(tuple(sizes), tuple(means[0].tolist()), tuple(variances[0].tolist()),
                   float(grand[0]))

    @classmethod
    def from_labeled(cls, values, labels) -> "GroupStats":
        values = np.asarray(values, dtype=np.float64)
        labels = np.asarray(labels)
        classes = np.unique(labels)
        return cls.from_groups([values[labels == c] for c in classes])


def anova_f(gs: GroupStats) -> float:
    """One-way F ratio: (SSB/(K-1)) / (SSW/(N-K)).

    SSW = sum (n_i - 1) * var_i, SSB = sum n_i * (mean_i - grand_mean)^2.
    Returns 0 when the group means coincide, +inf when within-group
    variation vanishes while between-group variation does not.
    """
    k = gs.group_count
    n = gs.total
    if k < 2:
        raise ScoringError(f"need at least 2 groups, got {k}")
    if n <= k:
        raise ScoringError(f"need more observations ({n}) than groups ({k})")
    return float(_anova(gs.sizes, np.array([gs.means]), np.array([gs.variances]),
                        np.array([gs.grand_mean]))[0])


def relief_weights(t: Table, m: int, seed: int,
                   bins: dict[str, BinEdges] | np.ndarray | None = None,
                   bin_count: int = 10) -> np.ndarray:
    """Relief feature weights from m seeded samples drawn without replacement.

    For each sampled row the nearest same-class hit and nearest other-class
    miss are found by Manhattan distance over all (normalized) features, ties
    resolved to the lowest row index, the row itself excluded. The 0/1
    difference indicator for the weight update compares binned feature values,
    since exact equality of raw continuous values is vacuous: `bins` is the
    table's bin matrix (`discretize.bin_matrix`) or the edges to build it
    from, by default bin_count equal-width bins per feature. Weights stay in
    [-1, 1] because each of the m updates moves a weight by at most 1/m.

    The search handles RELIEF_BATCH sampled rows per pass over the data,
    RELIEF_TILE data rows at a time, so that the batch-by-tile block of
    feature differences stays in cache and lives in preallocated buffers.
    Each distance is still one sum over the contiguous feature axis of a
    row, so it equals the per-row distance bit for bit. Besides the feature
    and bin matrices, the search holds O(RELIEF_BATCH * (rows +
    RELIEF_TILE * features)) floats.
    """
    X = t.feature_matrix()
    y = t.labels()
    n, d = X.shape
    classes = np.unique(y)
    if len(classes) != 2:
        raise ScoringError(f"relief needs binary labels, found {len(classes)} classes")
    for c in classes:
        if (y == c).sum() < 2:
            raise ScoringError(f"class {c:g} has fewer than 2 rows; no hit exists")
    if not 1 <= m <= n:
        raise ScoringError(f"sample size m={m} must lie in [1, {n}]")

    if bins is None:
        bins = table_bin_edges(t, bin_count)
    binned = bins if isinstance(bins, np.ndarray) else bin_matrix(t, bins)

    rng = np.random.default_rng(seed)
    sample = rng.choice(n, size=m, replace=False)
    # Distances are laid out with the rows of classes[0] first, each class in
    # row order, so the first argmin over a class's span is its lowest-index
    # nearest row.
    order = np.argsort(y, kind="stable")
    position = np.argsort(order)
    n0 = int(np.count_nonzero(y == classes[0]))
    batch_rows = np.empty((RELIEF_BATCH, RELIEF_TILE, d))  # each sampled row, tile-high
    diff = np.empty((RELIEF_BATCH, RELIEF_TILE, d))
    dist = np.empty((RELIEF_BATCH, n))
    # integer tallies, one division at the end: exact 1.0 / 0.0 in the
    # label-identical and constant-feature cases
    delta = np.zeros(d, dtype=np.int64)
    for b in range(0, m, RELIEF_BATCH):
        rows = sample[b:b + RELIEF_BATCH]
        k = len(rows)
        batch_rows[:k] = X[rows][:, None, :]
        for start in range(0, n, RELIEF_TILE):
            stop = min(start + RELIEF_TILE, n)
            block = diff[:k, :stop - start]
            # copying first lets the subtraction run in place over whole
            # tiles, 2-3x faster than broadcasting each sampled row
            np.copyto(block, batch_rows[:k, :stop - start])
            np.subtract(X[order[start:stop]], block, out=block)
            np.abs(block, out=block)
            block.sum(axis=-1, out=dist[:k, start:stop])
        dk = dist[:k]
        dk[np.arange(k), position[rows]] = np.inf
        # row by row: an argmin over a column slice of dk copies the slice
        nearest0 = order[[r[:n0].argmin() for r in dk]]
        nearest1 = order[[n0 + r[n0:].argmin() for r in dk]]
        in0 = y[rows] == classes[0]
        hit = np.where(in0, nearest0, nearest1)
        miss = np.where(in0, nearest1, nearest0)
        delta -= (binned[rows] != binned[hit]).sum(axis=0)
        delta += (binned[rows] != binned[miss]).sum(axis=0)
    return delta / m


@dataclass(frozen=True)
class ScoreMatrix:
    """Per-feature scores for the six methods, raw and (later) normalized."""

    feature_names: tuple[str, ...]
    raw: np.ndarray
    normalized: np.ndarray | None = None
    mean_score: np.ndarray | None = None

    def __post_init__(self):
        if self.raw.shape != (len(self.feature_names), len(METHODS)):
            raise ScoringError(f"raw score matrix must be (n_features, {len(METHODS)})")


def score_all(t: Table, bins: dict[str, BinEdges], relief_m: int | None = None,
              seed: int = 0) -> ScoreMatrix:
    """Raw scores for every non-label feature of a cleaned, normalized,
    binarized table.

    Relief samples min(rows, relief_m) rows, relief_m defaulting to 5000;
    a relief_m above the row count is capped with a warning. The table is
    binned once: relief and a (features, bins, classes) count tensor share
    the bin matrix, and the tensor gives IG, gain ratio, SU and chi-squared
    of every feature at once. ANOVA F comes from per-class column statistics.
    Each score equals the scalar scorer's on that feature alone, bit for bit.
    """
    names = t.feature_names
    if not names:
        raise ScoringError("table has no feature columns")
    y = t.labels()
    classes, class_idx = np.unique(y, return_inverse=True)
    if len(classes) < 2:
        raise ScoringError("labels are single-valued; nothing to score against")
    n = t.row_count
    if relief_m is not None and relief_m > n:
        warnings.warn(f"relief_m={relief_m} exceeds the table's {n} rows; "
                      f"relief samples all {n} rows", stacklevel=2)
    m = min(n, 5000 if relief_m is None else relief_m)

    binned = bin_matrix(t, bins)
    relief = relief_weights(t, m, seed, bins=binned)
    scores = _count_scores(_count_tensor(binned, class_idx, len(classes)))
    del binned
    for j in np.flatnonzero(scores["split_info"] == 0.0):
        warnings.warn(f"gain ratio of single-valued feature {names[j]!r} defined as 0",
                      stacklevel=2)
    # ANOVA reads (features, class rows) copies of a C-ordered (features, rows)
    # matrix, one class at a time; compress on a transposed view would copy it whole
    by_feature = np.ascontiguousarray(t.feature_matrix().T)
    scores["anova_f"] = _anova(*_group_stats(
        by_feature.compress(class_idx == c, axis=1) for c in range(len(classes))))
    scores["relief"] = relief
    return ScoreMatrix(names, np.column_stack([scores[k] for k in METHODS]))


def normalize_scores(sm: ScoreMatrix) -> ScoreMatrix:
    """Min-max rescale each method column to [0, 1] across features.

    +inf sentinels count as the column maximum; a constant column maps to
    all zeros (the method expresses no preference).
    """
    norm = np.empty_like(sm.raw)
    for k, method in enumerate(METHODS):
        col = sm.raw[:, k].copy()
        infinite = np.isinf(col)
        if infinite.any():
            finite = col[~infinite]
            col[infinite] = finite.max() if finite.size else 0.0
        lo = col.min()
        hi = col.max()
        if hi == lo:
            warnings.warn(f"method {method!r} scored all features equally; "
                          "normalized column set to 0", stacklevel=2)
            norm[:, k] = 0.0
        else:
            norm[:, k] = (col - lo) / (hi - lo)
    return replace(sm, normalized=norm, mean_score=None)


def aggregate_mean(sm: ScoreMatrix) -> ScoreMatrix:
    """Arithmetic mean of the six normalized method scores per feature."""
    if sm.normalized is None:
        raise ScoringError("normalize_scores must run before aggregation")
    return replace(sm, mean_score=sm.normalized.mean(axis=1))


@dataclass(frozen=True)
class ThresholdSelection:
    """Features whose mean score reaches the threshold, best first."""

    threshold: float
    features: tuple[tuple[int, str, float], ...]

    def indices(self) -> tuple[int, ...]:
        return tuple(i for i, _, _ in self.features)

    def names(self) -> tuple[str, ...]:
        return tuple(n for _, n, _ in self.features)

    def to_json(self) -> dict:
        return {"threshold": self.threshold,
                "features": [{"index": i, "name": n, "mean_score": s}
                             for i, n, s in self.features]}


def select_by_threshold(sm: ScoreMatrix, threshold: float) -> ThresholdSelection:
    """Features with mean_score >= threshold, sorted by score descending,
    ties by ascending feature index."""
    if sm.mean_score is None:
        raise ScoringError("aggregate_mean must run before selection")
    picked = [(i, sm.feature_names[i], float(sm.mean_score[i]))
              for i in range(len(sm.feature_names)) if sm.mean_score[i] >= threshold]
    picked.sort(key=lambda item: (-item[2], item[0]))
    if not picked:
        warnings.warn(f"no feature reaches threshold {threshold:g}", stacklevel=2)
    return ThresholdSelection(threshold, tuple(picked))


def write_scores_csv(sm: ScoreMatrix, path) -> None:
    """Normalized scores plus the mean, 6 decimal places, feature-index order."""
    if sm.normalized is None or sm.mean_score is None:
        raise ScoringError("scores must be normalized and aggregated before writing")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCORES_CSV_HEADER)
        for i, name in enumerate(sm.feature_names):
            row = [str(i), name]
            row += [f"{sm.normalized[i, k]:.6f}" for k in range(len(METHODS))]
            row.append(f"{sm.mean_score[i]:.6f}")
            writer.writerow(row)
