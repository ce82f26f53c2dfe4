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
from .parallel import fan_out
from .tabular import Table, dataset_rows, row_blocks

METHODS = ("ig", "gain_ratio", "relief", "su", "chi2", "anova_f")

SCORES_CSV_HEADER = ("feature_index", "feature_name", *METHODS, "mean_score")

# Relief's neighbour search: sampled rows per pass and data rows per tile.
# Two batch x tile x features float32 buffers (1.28 MB at 78 features) fit
# in a 2 MB L2 cache; chosen by timing relief on the relief_wide benchmark's
# table and on a 100k x 78 one, where 128 beat 64 by 3-8 %.
RELIEF_BATCH = 16
RELIEF_TILE = 128
# Rows gathered from the feature matrix at a time into relief's float32
# copy, into its float64 refine and into ANOVA's class blocks. An 8-feature ANOVA chunk is then 32 KB,
# under glibc's default mmap threshold, so the chunks reuse heap memory.
GATHER_ROWS = 512
# Features whose int64 count keys, or whose per-class ANOVA blocks, are held
# at a time: 64 bytes a row, about a tenth of a 78-feature row.
SCORE_BLOCK_FEATURES = 8
# Relief forks its workers only for a pass of at least this many
# sampled-row x row x feature cells (m * rows * features): the crossover of
# one against two CPUs on the benchmark's tables, where a 27M-cell pass took
# 20 ms forked against 18 ms in one process, and a 38M-cell one 23 against 26
RELIEF_FORK_CELLS = 1 << 25


class ScoringError(ValueError):
    pass


def _run_sums(terms, widths) -> np.ndarray:
    """Sums of the consecutive runs of a 1-D array, run i being widths[i]
    long, each bit for bit NumPy's sum of that run alone: NumPy sums
    pairwise in an order set by the length, so the runs of each width are
    summed along the rows of one C-contiguous (runs, width) block."""
    starts = np.cumsum(widths) - widths
    out = np.zeros(len(widths))
    # np.unique without a return_* flag imports numpy.ma (NumPy 2.x), 10-16 ms
    for w in np.unique(widths[widths > 0], return_counts=True)[0]:
        runs = np.flatnonzero(widths == w)
        out[runs] = terms[starts[runs, None] + np.arange(w)].sum(axis=1)
    return out


def _ordered_sums(terms) -> np.ndarray:
    """Each row's sum taken left to right from 0.0, as a Python loop adds."""
    return np.cumsum(np.hstack([np.zeros((len(terms), 1)), terms]), axis=1)[:, -1]


def _count_tensor(binned, class_idx, n_classes: int) -> np.ndarray:
    """(features, bins, classes) joint counts of a (rows, features) bin
    matrix against per-row class indices, from one bincount per
    SCORE_BLOCK_FEATURES features. The bin axis runs to the largest index
    present; empty bins change no score."""
    features = binned.shape[1]
    bins = int(binned.max()) + 1 if binned.size else 0
    counts = np.empty((features, bins, n_classes), dtype=np.intp)
    buf = np.empty(len(binned) * min(SCORE_BLOCK_FEATURES, features), dtype=np.intp)
    for j in range(0, features, SCORE_BLOCK_FEATURES):
        block = binned[:, j:j + SCORE_BLOCK_FEATURES]
        w = block.shape[1]
        # the key is intp, wider than the narrow bin type: it cannot wrap
        key = np.add(block, np.arange(w) * bins, out=buf[:block.size].reshape(block.shape))
        key *= n_classes
        key += class_idx[:, None]
        counts[j:j + w] = np.bincount(key.ravel(), minlength=w * bins * n_classes).reshape(
            w, bins, n_classes)
    return counts


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


def _class_anova(X, class_rows) -> np.ndarray:
    """The F ratio of every feature of X over the groups of rows
    `class_rows`, from each group's C-contiguous (features, group size)
    block of SCORE_BLOCK_FEATURES features, gathered GATHER_ROWS rows at a
    time into one buffer. Each row of a block is the same contiguous run as
    in a block of all features, so its sums are too."""
    d = X.shape[1]
    width = min(SCORE_BLOCK_FEATURES, d)
    buf = np.empty(width * max(len(rows) for rows in class_rows))

    def blocks(j: int, w: int):
        for rows in class_rows:
            block = buf[:w * len(rows)].reshape(w, len(rows))
            for start in range(0, len(rows), GATHER_ROWS):
                chunk = rows[start:start + GATHER_ROWS]
                block[:, start:start + len(chunk)] = X[chunk, j:j + w].T
            yield block

    return np.concatenate([_anova(*_group_stats(blocks(j, min(width, d - j))))
                           for j in range(0, d, width)])


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


def relief_weights(t: Table, m: int, seed: int, binned: np.ndarray, rows=None,
                   labels=None) -> np.ndarray:
    """Relief feature weights of the rows `rows` of `t` labelled `labels`
    (all rows and `t.y` by default), from m seeded samples of those rows
    drawn without replacement. Row numbers below are positions in `rows`.

    For each sampled row the nearest same-class hit and nearest other-class
    miss are found by Manhattan distance over all (normalized) features, ties
    resolved to the lowest row index, the row itself excluded. The 0/1
    difference indicator for the weight update compares binned feature values,
    since exact equality of raw continuous values is vacuous: `binned` is the
    rows' (rows, features) bin matrix from `discretize.bin_matrix`. Weights
    stay in [-1, 1] because each of the m updates moves a weight by at most 1/m.

    The search is a float32 filter followed by a float64 refine. A float32
    copy of the rows, in class order, is scanned RELIEF_BATCH sampled rows
    per pass and RELIEF_TILE data rows at a time, so that the batch-by-tile
    block of featurewise minima stays in cache and lives in preallocated
    buffers. Each float32 distance is s(x) + s(r) - 2 * sum_j min(x_j, r_j),
    s being a row's sum, which is |x - r|_1 for any signs; the row sums are
    one BLAS matrix-vector product per call and the sums of minima one per
    tile. Per sampled row and class, every row whose float32 distance lies
    within the rounding bound of `_filter_tolerance` of the class's float32
    minimum is kept, and the kept rows' distances are recomputed in float64,
    from `t.X`, as one sum over the contiguous feature axis of each row, for
    the whole batch at once. The float64 minimum is always kept, so hit,
    miss and weights are bit for bit those of an exhaustive float64 scan,
    for any BLAS and any summation order; exact ties and duplicate rows only
    make the refine longer. Non-finite values, and values whose float32
    distances could overflow, raise a ScoringError.

    Each batch gives an integer tally; the tallies are added before the one
    division, so the weights are the same for any number of workers. A pass
    of at least RELIEF_FORK_CELLS cells (m * rows * features) hands the
    batches to `parallel.fan_out`, one task each; a smaller one runs them in
    this process, in the same order, since forking would cost it more than
    a second CPU saves. The float32 copy (half the rows' float64
    bytes, built a chunk of rows at a time) and the buffers are allocated
    once, before the fan-out: besides the feature, bin and float32 matrices,
    which forked workers share, each worker holds its own copy-on-write copy
    of the buffers, O(RELIEF_BATCH * (rows + RELIEF_TILE * features)) floats.
    """
    X = t.X
    rows, y = dataset_rows(t, rows, labels)
    n, d = len(rows), X.shape[1]
    classes, sizes = np.unique(y, return_counts=True)
    if len(classes) != 2:
        raise ScoringError(f"relief needs binary labels, found {len(classes)} classes")
    for c, size in zip(classes, sizes):
        if size < 2:
            raise ScoringError(f"class {c:g} has fewer than 2 rows; no hit exists")
    if not 1 <= m <= n:
        raise ScoringError(f"sample size m={m} must lie in [1, {n}]")

    rng = np.random.default_rng(seed)
    sample = rng.choice(n, size=m, replace=False)
    # Distances are laid out with the rows of classes[0] first, each class in
    # row order, so the first minimum over a class's span is its lowest-index
    # nearest row.
    order = np.argsort(y, kind="stable")
    position = np.argsort(order)
    n0 = int(sizes[0])
    spans = ((0, n0), (n0, n))

    # 2 * norm_max bounds |x|_1 + |r|_1 for any two rows x and r, so the
    # float32 terms 2 * sum(min(x, r)) and s(x) - 2 * sum(min(x, r)) stay
    # below 4 and 3 times norm_max, and rounding raises them by at most a
    # factor 1 + gamma_{d+1}: a quarter of float32's range over that factor
    # keeps every float32 sum and difference finite.
    limit = float(np.finfo(np.float32).max) / 4 / (1 + _gamma32(d + 1))
    X32 = np.empty((n, d), dtype=np.float32)
    norm_max = 0.0
    for start, rows64 in row_blocks(X, rows[order], GATHER_ROWS):
        if not np.isfinite(rows64).all():
            raise ScoringError("relief needs finite feature values")
        norm_max = max(norm_max, float(np.abs(rows64).sum(axis=1).max()))
        if norm_max >= limit:
            raise ScoringError(
                f"feature values too large for relief's float32 filter: a row's "
                f"absolute values sum to {norm_max:.6g}, not below {limit:.6g}")
        X32[start:start + len(rows64)] = rows64
    del rows64
    tol = _filter_tolerance(d, norm_max)

    ones = np.ones(d, dtype=np.float32)
    row_sums = X32 @ ones
    batch_rows = np.empty((RELIEF_BATCH, RELIEF_TILE, d), dtype=np.float32)
    mins = np.empty((RELIEF_BATCH, RELIEF_TILE, d), dtype=np.float32)
    dist = np.empty((RELIEF_BATCH, n), dtype=np.float32)

    def nearest(batch: np.ndarray, dk: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """Per sampled row of `batch`, the lowest-index row of the class span
        [lo, hi) nearest to it in float64, from its float32 distances `dk`."""
        span = dk[:, lo:hi]
        bi, kept = np.nonzero(span <= span.min(axis=1, keepdims=True) + tol)
        kept = order[lo + kept]
        d64 = np.empty(len(kept))
        for s in range(0, len(kept), GATHER_ROWS):
            part = slice(s, s + GATHER_ROWS)
            d64[part] = np.abs(X[rows[kept[part]]] - X[rows[batch[bi[part]]]]).sum(axis=-1)
        # bi ascends, and kept ascends within each sampled row: the stable
        # sort puts each row's nearest, lowest index first, at its run's start
        return kept[np.lexsort((d64, bi))[np.searchsorted(bi, np.arange(len(batch)))]]

    def tally(b: int) -> np.ndarray:
        """The integer tally of the batch of sampled rows from `b`."""
        batch = sample[b:b + RELIEF_BATCH]
        k = len(batch)
        batch_rows[:k] = X32[position[batch]][:, None, :]
        for start in range(0, n, RELIEF_TILE):
            stop = min(start + RELIEF_TILE, n)
            # one pass over the tile, straight into the buffer: the tile's
            # rows broadcast over tile-high copies of the sampled rows, 1.7x
            # faster than broadcasting each sampled row over the tile
            block = np.minimum(X32[start:stop], batch_rows[:k, :stop - start],
                               out=mins[:k, :stop - start])
            np.matmul(block, ones, out=dist[:k, start:stop])
        # |x - r|_1 = s(x) + s(r) - 2 * sum(min(x, r)), for any signs
        dk = dist[:k]
        dk *= -2
        dk += row_sums
        dk += row_sums[position[batch], None]
        dk[np.arange(k), position[batch]] = np.inf
        nearest0, nearest1 = (nearest(batch, dk, lo, hi) for lo, hi in spans)
        in0 = y[batch] == classes[0]
        hit = np.where(in0, nearest0, nearest1)
        miss = np.where(in0, nearest1, nearest0)
        return ((binned[batch] != binned[miss]).sum(axis=0)
                - (binned[batch] != binned[hit]).sum(axis=0))

    # integer tallies, summed over the batches and divided once: the same
    # weights in any order, and exact 1.0 / 0.0 in the label-identical and
    # constant-feature cases
    batches = range(0, m, RELIEF_BATCH)
    if m * n * d >= RELIEF_FORK_CELLS:
        delta = sum(fan_out(tally, batches))
    else:
        delta = sum(tally(b) for b in batches)
    return delta / m


def _gamma32(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u) for float32's unit roundoff u = 2**-24."""
    u = 2.0 ** -24
    return k * u / (1 - k * u)


def _filter_tolerance(d: int, norm_max: float) -> np.float32:
    """How far above its class's float32 minimum a row's float32 distance
    may lie and the row still be the float64 minimum, for rows of d features
    whose absolute values sum to at most norm_max.

    Let u = 2**-24, gamma_k = k u / (1 - k u) (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, ch. 3-4) and M = 2 * norm_max,
    which bounds |x|_1 + |r|_1 for any two rows x and r. Rounding each value
    to float32 errs by at most u |x_j| + 2**-150 (the last term for
    subnormals), so the rounded rows x', r' have M' = |x'|_1 + |r'|_1 <=
    (1 + u) M + 2 d 2**-150, and D' = |x' - r'|_1 lies within
    u M + 2 d 2**-150 of the exact distance D = |x - r|_1.

    The filter computes three sums of d float32 terms in any order (the
    products by 1.0 are exact, and additions incur no underflow error):
    a = s(x'), b = s(r') and c = sum_j min(x'_j, r'_j). Each errs by at most
    gamma_{d-1} times the sum of its terms' absolute values, and
    |min(x'_j, r'_j)| <= max(|x'_j|, |r'_j|), so by gamma_{d-1} |x'|_1,
    gamma_{d-1} |r'|_1 and gamma_{d-1} M'. Since |p - q| = p + q - 2 min(p, q)
    for any signs, a + b - 2c is within 3 gamma_{d-1} M' of D' <= M'. Then
    v = fl(a - 2c) (the doubling is exact) errs by at most
    u |a - 2c| <= 3 u (1 + gamma_{d-1}) M', and fl(v + b) by at most
    u |v + b| <= u (1 + 3 gamma_{d-1} + 3 u (1 + gamma_{d-1})) M'. In all,
    the float32 distance is within (3 gamma_{d-1} + 4 u + O(d u**2)) M' of
    D', and so within (3 gamma_{d-1} + 5 u + O(d u**2)) M + 3 d 2**-150 of D.
    For d < 2**20 the second-order terms fit in
    3 gamma_{d+1} - 3 gamma_{d-1} >= 6 u, so every float32 distance is
    within E = 3 gamma_{d+1} M + 3 d 2**-150 of the exact one.

    The float64 minimum's float32 distance therefore lies at most 2E above
    the float32 minimum, give or take the float64 distances' own error,
    gamma_d M in float64's u = 2**-53. The tolerance is 4E: the margin
    covers that error and the float32 rounding of the tolerance and of the
    minimum plus the tolerance, together below u (M + 9E) < E / 2, since
    E >= 6 u M.
    """
    return np.float32(4 * (3 * _gamma32(d + 1) * 2 * norm_max + 3 * d * 2.0 ** -150))


def score_all(t: Table, edges: np.ndarray, relief_m: int | None = None,
              seed: int = 0, rows=None, labels=None) -> np.ndarray:
    """Raw scores of every non-label feature of the rows `rows` of a
    cleaned, normalized table, against their binary labels `labels` (all
    rows and `t.y` by default; an attack's dataset from
    `tabular.split_by_attack`): a (features, methods) matrix, methods in
    METHODS order. The rows are read from `t.X` a bounded block at a time,
    never copied whole, and the scores equal those of `tabular.subtable`'s
    copy of them byte for byte.

    Relief samples min(rows, relief_m) rows, relief_m defaulting to 5000;
    a relief_m above the row count is capped with a warning. The rows are
    binned once, by the edge matrix of `discretize.table_bin_edges`: relief
    and a (features, bins, classes) count tensor share the bin matrix, and
    the tensor gives IG, gain ratio, SU and chi-squared of every feature at
    once. ANOVA F comes from per-class column statistics, over one class's
    (features, rows) block of SCORE_BLOCK_FEATURES features at a time.
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
    rows, y = dataset_rows(t, rows, labels)
    classes, class_idx = np.unique(y, return_inverse=True)
    if len(classes) < 2:
        raise ScoringError("labels are single-valued; nothing to score against")
    n = len(rows)
    if relief_m is not None and relief_m > n:
        warnings.warn(f"relief_m={relief_m} exceeds the table's {n} rows; "
                      f"relief samples all {n} rows", stacklevel=2)
    m = min(n, 5000 if relief_m is None else relief_m)

    binned = bin_matrix(t, edges, rows)
    relief = relief_weights(t, m, seed, binned, rows, y)
    scores = _count_scores(_count_tensor(binned, class_idx, len(classes)))
    del binned
    for j in np.flatnonzero(scores["split_info"] == 0.0):
        warnings.warn(f"gain ratio of single-valued feature {names[j]!r} defined as 0",
                      stacklevel=2)
    scores["anova_f"] = _class_anova(t.X, [rows[class_idx == c]
                                           for c in range(len(classes))])
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
