"""Six filter scorers, per-method score normalization, and threshold
selection.

Scores are plain arrays: `score_all` gives a (features, methods) raw matrix,
`normalize_scores` the normalized one, and a feature's mean score is its row
mean; a selection is the JSON document `select_by_threshold` returns.

Contingency-table scorers (information gain, gain ratio, symmetric
uncertainty, chi-squared) work on binned feature values versus the class; the
F-ratio works on the raw continuous values grouped by class; the relief
weights work on the normalized continuous values with a Manhattan
nearest-neighbor search. Entropies are in bits.
"""

import csv
import warnings

import numpy as np

from .discretize import bin_matrix
from .parallel import fan_out, worker_count
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
    # the intp arange widens the narrow bin type: the key cannot wrap
    key = binned + np.arange(features) * bins
    key *= n_classes
    key += class_idx[:, None]
    return np.bincount(key.ravel(), minlength=features * bins * n_classes).reshape(
        features, bins, n_classes)


def _entropy_rows(counts) -> np.ndarray:
    """Entropy in bits of each row of a (rows, values) count matrix, bit for
    bit `-(p * np.log2(p)).sum()` over the row's nonzero shares p alone; a
    row of zeros gets -0.0."""
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
        del block  # before the next group's block is copied
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


def relief_weights(t: Table, m: int, seed: int, binned: np.ndarray) -> np.ndarray:
    """Relief feature weights from m seeded samples drawn without replacement.

    For each sampled row the nearest same-class hit and nearest other-class
    miss are found by Manhattan distance over all (normalized) features, ties
    resolved to the lowest row index, the row itself excluded. The 0/1
    difference indicator for the weight update compares binned feature values,
    since exact equality of raw continuous values is vacuous: `binned` is the
    table's (rows, features) bin matrix from `discretize.bin_matrix`. Weights
    stay in [-1, 1] because each of the m updates moves a weight by at most 1/m.

    The search handles RELIEF_BATCH sampled rows per pass over the data,
    RELIEF_TILE data rows at a time, so that the batch-by-tile block of
    feature differences stays in cache and lives in preallocated buffers.
    Each distance is still one sum over the contiguous feature axis of a
    row, so it equals the per-row distance bit for bit. The batches are split
    into contiguous ranges, one per worker of `parallel.fan_out`; each range
    gives an integer tally, and the tallies are added before the one
    division, so the weights are the same for any number of workers. Besides
    the feature and bin matrices, which forked workers share, each worker
    holds O(RELIEF_BATCH * (rows + RELIEF_TILE * features)) floats.
    """
    X = t.X
    y = t.y
    n, d = X.shape
    classes = np.unique(y)
    if len(classes) != 2:
        raise ScoringError(f"relief needs binary labels, found {len(classes)} classes")
    for c in classes:
        if (y == c).sum() < 2:
            raise ScoringError(f"class {c:g} has fewer than 2 rows; no hit exists")
    if not 1 <= m <= n:
        raise ScoringError(f"sample size m={m} must lie in [1, {n}]")

    rng = np.random.default_rng(seed)
    sample = rng.choice(n, size=m, replace=False)
    # Distances are laid out with the rows of classes[0] first, each class in
    # row order, so the first argmin over a class's span is its lowest-index
    # nearest row.
    order = np.argsort(y, kind="stable")
    position = np.argsort(order)
    n0 = int(np.count_nonzero(y == classes[0]))

    def tally(starts) -> np.ndarray:
        """The integer tally of the batches of sampled rows from `starts`."""
        batch_rows = np.empty((RELIEF_BATCH, RELIEF_TILE, d))  # each sampled row, tile-high
        diff = np.empty((RELIEF_BATCH, RELIEF_TILE, d))
        dist = np.empty((RELIEF_BATCH, n))
        delta = np.zeros(d, dtype=np.int64)
        for b in starts:
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
        return delta

    # integer tallies, summed over contiguous ranges of batches and divided
    # once: the same weights for any split, and exact 1.0 / 0.0 in the
    # label-identical and constant-feature cases
    starts = np.arange(0, m, RELIEF_BATCH)
    delta = sum(fan_out(tally, np.array_split(starts, worker_count(len(starts)))))
    return delta / m


def score_all(t: Table, edges: np.ndarray, relief_m: int | None = None,
              seed: int = 0) -> np.ndarray:
    """Raw scores of every non-label feature of a cleaned, normalized,
    binarized table: a (features, methods) matrix, methods in METHODS order.

    Relief samples min(rows, relief_m) rows, relief_m defaulting to 5000;
    a relief_m above the row count is capped with a warning. The table is
    binned once, by the edge matrix of `discretize.table_bin_edges`: relief
    and a (features, bins, classes) count tensor share the bin matrix, and
    the tensor gives IG, gain ratio, SU and chi-squared of every feature at
    once. ANOVA F comes from per-class column statistics.
    Each score equals, bit for bit, what a loop over the features computes
    for that feature alone with one-dimensional NumPy sums.

    Gain ratio is 0 for a single-valued feature, with a warning naming it;
    SU is 0 when both entropies vanish; chi-squared skips empty bins; F is 0
    when the class means coincide and +inf when only the within-class
    variation vanishes.
    """
    names = t.feature_names
    if not names:
        raise ScoringError("table has no feature columns")
    y = t.y
    classes, class_idx = np.unique(y, return_inverse=True)
    if len(classes) < 2:
        raise ScoringError("labels are single-valued; nothing to score against")
    n = t.row_count
    if relief_m is not None and relief_m > n:
        warnings.warn(f"relief_m={relief_m} exceeds the table's {n} rows; "
                      f"relief samples all {n} rows", stacklevel=2)
    m = min(n, 5000 if relief_m is None else relief_m)

    binned = bin_matrix(t, edges)
    relief = relief_weights(t, m, seed, binned)
    scores = _count_scores(_count_tensor(binned, class_idx, len(classes)))
    del binned
    for j in np.flatnonzero(scores["split_info"] == 0.0):
        warnings.warn(f"gain ratio of single-valued feature {names[j]!r} defined as 0",
                      stacklevel=2)
    # ANOVA reads (features, class rows) copies of a C-ordered (features, rows)
    # matrix, one class at a time; compress on a transposed view would copy it whole
    by_feature = np.ascontiguousarray(t.X.T)
    scores["anova_f"] = _anova(*_group_stats(
        by_feature.compress(class_idx == c, axis=1) for c in range(len(classes))))
    scores["relief"] = relief
    return np.column_stack([scores[k] for k in METHODS])


def normalize_scores(raw: np.ndarray) -> np.ndarray:
    """Each method column of a (features, methods) raw score matrix min-max
    rescaled to [0, 1] across features.

    +inf sentinels count as the column maximum; a constant column maps to
    all zeros (the method expresses no preference).
    """
    norm = np.empty_like(raw)
    for k, method in enumerate(METHODS):
        col = raw[:, k].copy()
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
    return norm


def select_by_threshold(names, mean: np.ndarray, threshold: float) -> dict:
    """The selection document of the features whose mean normalized score
    reaches the threshold, sorted by score descending, ties by ascending
    feature index."""
    picked = np.flatnonzero(mean >= threshold)
    picked = picked[np.argsort(-mean[picked], kind="stable")]
    if not picked.size:
        warnings.warn(f"no feature reaches threshold {threshold:g}", stacklevel=2)
    return {"threshold": threshold,
            "features": [{"index": int(i), "name": names[i], "mean_score": float(mean[i])}
                         for i in picked]}


def write_scores_csv(names, normalized: np.ndarray, mean: np.ndarray, path) -> None:
    """Normalized scores plus the mean, 6 decimal places, feature-index order."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCORES_CSV_HEADER)
        for i, name in enumerate(names):
            row = [str(i), name]
            row += [f"{normalized[i, k]:.6f}" for k in range(len(METHODS))]
            row.append(f"{mean[i]:.6f}")
            writer.writerow(row)
