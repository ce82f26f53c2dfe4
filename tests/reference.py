"""Brute-force reference implementations, kept deliberately independent of the
package: plain loops straight from the defining formulas, no shared code paths.
The CSV loader and model file oracles build the package's result types, and
nothing more."""

import csv
import math
from fractions import Fraction

import numpy as np

from flowsieve.classify import BayesModel, ForestModel, LogisticModel, SvmModel, TreeModel
from flowsieve.tabular import (REASON_REPEATED_HEADER, CategoryMapping, CleaningReport, Table,
                               TableError)


def entropy_bits(counts):
    total = sum(counts)
    return -sum(c / total * math.log2(c / total) for c in counts if c > 0)


def row_totals(table):
    return [sum(row) for row in table]


def col_totals(table):
    return [sum(row[j] for row in table) for j in range(len(table[0]))]


def joint_mutual_information(table):
    """IG computed from the joint distribution: sum p_ij * log2(p_ij/(p_i p_j))."""
    n = sum(row_totals(table))
    r = [x / n for x in row_totals(table)]
    b = [x / n for x in col_totals(table)]
    mi = 0.0
    for i, row in enumerate(table):
        for j, a in enumerate(row):
            if a > 0:
                p = a / n
                mi += p * math.log2(p / (r[i] * b[j]))
    return mi


def split_info_ref(table):
    return entropy_bits(row_totals(table))


def gain_ratio_ref(table):
    si = split_info_ref(table)
    if si == 0.0:
        return 0.0
    return joint_mutual_information(table) / si


def symmetric_uncertainty_ref(table):
    hx = entropy_bits(row_totals(table))
    hy = entropy_bits(col_totals(table))
    if hx + hy == 0.0:
        return 0.0
    return 2.0 * joint_mutual_information(table) / (hx + hy)


def chi_squared_ref(table):
    rows = [row for row in table if sum(row) > 0]
    keep_cols = [j for j, b in enumerate(col_totals(table)) if b > 0]
    n = sum(row_totals(table))
    out = 0.0
    for row in rows:
        ri = sum(row)
        for j in keep_cols:
            e = ri * col_totals(table)[j] / n
            out += (row[j] - e) ** 2 / e
    return out


def anova_ref(groups):
    """SSW/SSB/SST/F from the definitions, each sum written out longhand."""
    k = len(groups)
    n = sum(len(g) for g in groups)
    means = [sum(g) / len(g) for g in groups]
    grand = sum(sum(g) for g in groups) / n
    ssw = sum(sum((x - m) ** 2 for x in g) for g, m in zip(groups, means))
    ssb = sum(len(g) * (m - grand) ** 2 for g, m in zip(groups, means))
    sst = sum(sum((x - grand) ** 2 for x in g) for g in groups)
    if ssb == 0.0:
        f = 0.0
    elif ssw == 0.0:
        f = math.inf
    else:
        f = (ssb / (k - 1)) / (ssw / (n - k))
    return ssw, ssb, sst, f


def bins_ref(column, k):
    """Equal-width bins of one column in Python floats: the k-1 interior
    edges lo + i*(hi-lo)/k, and for each value the count of edges <= it.
    A constant column has no edges and every value in bin 0."""
    values = [float(v) for v in column]
    lo, hi = min(values), max(values)
    if lo == hi:
        return [], [0] * len(values)
    edges = [lo + (i * (hi - lo)) / k for i in range(1, k)]
    return edges, [sum(1 for e in edges if e <= v) for v in values]


def relief_ref(X, y, binned, sample, m):
    """Literal relief updates: exhaustive neighbor scan, one +-D/m step at a time."""
    n = len(X)
    d = len(X[0])
    weights = [0.0] * d
    for r in sample:
        best_hit = None
        best_miss = None
        for j in range(n):
            if j == r:
                continue
            dist = sum(abs(X[r][k] - X[j][k]) for k in range(d))
            if y[j] == y[r]:
                if best_hit is None or dist < best_hit[0]:
                    best_hit = (dist, j)
            else:
                if best_miss is None or dist < best_miss[0]:
                    best_miss = (dist, j)
        hit = best_hit[1]
        miss = best_miss[1]
        for k in range(d):
            weights[k] -= (1.0 if binned[r][k] != binned[hit][k] else 0.0) / m
            weights[k] += (1.0 if binned[r][k] != binned[miss][k] else 0.0) / m
    return weights


def sigmoid_ref(z):
    """The logistic function by its two overflow-free branches, each over its
    own masked copy: 1 / (1 + exp(-z)) for z >= 0, exp(z) / (1 + exp(z)) below."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def logistic_ref(X, y, learning_rate, epochs, tune_threshold, decision_threshold=0.5):
    """(coefficients, decision threshold) of full-batch gradient descent on the
    mean cross-entropy, one fresh array per quantity and step; None where the
    logits or the coefficients become non-finite."""
    n, d = X.shape
    yf = y.astype(np.float64)
    coef = np.zeros(d + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            z = coef[0] + X @ coef[1:]
            if not np.isfinite(z).all():
                return None
            resid = sigmoid_ref(z) - yf
            coef[0] -= learning_rate * resid.mean()
            coef[1:] -= learning_rate * (X.T @ resid) / n
    if not np.isfinite(coef).all():
        return None
    if not tune_threshold:
        return coef, decision_threshold
    s = sigmoid_ref(coef[0] + X @ coef[1:])
    best = (-1.0, decision_threshold)
    for h in [round(0.05 * i, 2) for i in range(1, 20)]:
        pred = s > h
        tp = int((pred & (y == 1)).sum())
        fp = int((pred & (y == 0)).sum())
        fn = int((~pred & (y == 1)).sum())
        f1 = metrics_ref(tp, fp, fn, 0)[3] if tp else 0.0
        if f1 > best[0]:
            best = (f1, h)
    return coef, best[1]


def svm_ref(X, y01, c, epochs, schedule, learning_rate, seed, steps=None):
    """(weights, bias) of the seeded per-sample hinge-loss subgradient loop,
    NumPy scalars and array temporaries throughout; None where they become
    non-finite. With `steps`, the (weights, bias) that step `steps` + 1 sees."""
    n, d = X.shape
    y = np.where(y01 == 1, 1.0, -1.0)
    lam = 1.0 / (c * n)
    w = np.zeros(d)
    b = 0.0
    t = 0
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        for i in rng.permutation(n):
            if t == steps:
                return w, float(b)
            t += 1
            eta = 1.0 / (lam * t) if schedule == "inverse_t" else learning_rate
            if y[i] * (X[i] @ w + b) < 1.0:
                w *= 1.0 - eta * lam
                w += eta * y[i] * X[i]
                b += eta * y[i]
            else:
                w *= 1.0 - eta * lam
        if not (np.isfinite(w).all() and np.isfinite(b)):
            return None
    return w, float(b)


def impurity_ref(c0, c1, criterion):
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


def best_split_ref(X, y, idx, feats, min_leaf, criterion):
    """The tree's best (feature, threshold), one candidate feature at a time:
    a stable sort of the node's values, the impurity decrease after every
    value change, the lowest threshold and then the lowest feature on ties,
    and the midpoint of the two values (the upper one if it rounds down)."""
    n = len(idx)
    yv = y[idx]
    total1 = int(yv.sum())
    parent_imp = float(impurity_ref(n - total1, total1, criterion))
    best_gain = -np.inf
    best = None
    for f in feats:
        v = X[idx, f]
        order = np.argsort(v, kind="stable")
        vs = v[order]
        pos = np.flatnonzero(vs[1:] != vs[:-1])
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
        imp_l = impurity_ref(n_left - c1_left, c1_left, criterion)
        imp_r = impurity_ref(n_right - c1_right, c1_right, criterion)
        gain = parent_imp - (n_left * imp_l + n_right * imp_r) / n
        gain[~valid] = -np.inf
        k = int(np.argmax(gain))
        if gain[k] > best_gain:
            lo = vs[pos[k]]
            hi = vs[pos[k] + 1]
            thr = (lo + hi) / 2.0
            if thr <= lo:
                thr = hi
            best_gain = gain[k]
            best = (int(f), float(thr))
    return best


def tree_leaf_ref(tree, x):
    """The leaf that the row x reaches, walked from the root one node at a time."""
    node = 0
    while tree.feature_index[node] >= 0:
        f = tree.feature_index[node]
        node = tree.left[node] if x[f] < tree.threshold[node] else tree.right[node]
    return node


def forest_decide_ref(trees, X):
    """A forest's (labels, attack fractions), one tree and one row at a time:
    the tree's label is its leaf's attack fraction above 0.5, and the labels
    are added in tree order. A fraction of exactly 0.5 (an even vote) is
    benign."""
    votes = np.zeros(len(X))
    for tree in trees:
        for i, x in enumerate(X):
            votes[i] += int(tree.score[tree_leaf_ref(tree, x)] > 0.5)
    frac = votes / len(trees)
    return (frac > 0.5).astype(np.int64), frac


def bayes_log_posteriors_ref(model, X):
    """Gaussian naive Bayes log posteriors per class as one expression per
    class, with a fresh array for every intermediate."""
    out = np.empty((X.shape[0], 2))
    for c in (0, 1):
        mu = model.means[c]
        sig = model.sigmas[c]
        ll = -np.log(sig) - 0.5 * np.log(2.0 * np.pi) - (X - mu) ** 2 / (2.0 * sig ** 2)
        out[:, c] = np.log(model.priors[c]) + ll.sum(axis=1)
    return out


def _tree_from_json_ref(names, nodes):
    threshold = [math.nan if t is None else t for t in nodes["threshold"]]
    return TreeModel(names, np.array(nodes["feature_index"], dtype=np.int64),
                     np.array(threshold, dtype=np.float64),
                     np.array(nodes["left"], dtype=np.int64),
                     np.array(nodes["right"], dtype=np.int64),
                     np.array(nodes["score"], dtype=np.float64))


def model_from_json_ref(doc):
    """The model that a `save_model` JSON document describes, built with plain
    array calls and no checks of the document."""
    names = tuple(doc["feature_names"])
    p = doc["parameters"]
    algo = doc["algorithm"]
    if algo == "logistic_regression":
        return LogisticModel(names, np.array(p["coefficients"]), p["decision_threshold"])
    if algo == "naive_bayes":
        return BayesModel(names, np.array(p["priors"]), np.array(p["means"]),
                          np.array(p["sigmas"]))
    if algo == "svm":
        return SvmModel(names, np.array(p["weights"]), p["bias"])
    if algo == "decision_tree":
        return _tree_from_json_ref(names, p["nodes"])
    if algo == "random_forest":
        return ForestModel(names, tuple(_tree_from_json_ref(names, nodes)
                                        for nodes in p["trees"]))


def metrics_ref(tp, fp, fn, tn):
    total = tp + fp + fn + tn
    accuracy = (tp + tn) / total
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return accuracy, precision, recall, f1


def split_table_ref(labels, spec):
    """The sorted train and test rows of a split of the 0/1 `labels` by
    `spec`, drawn as `split_table` drew them when it found both classes'
    rows first and kept each class's whole permutation until it joined the
    draws: one permutation of each class's rows, class 0 first, from one
    generator seeded by the spec. Only for a split that succeeds."""
    y = np.asarray(labels)
    by_class = {cls: np.flatnonzero(y == cls) for cls in (0, 1)}
    rng = np.random.default_rng(spec.seed)
    draws = []
    for cls, rows in by_class.items():
        perm = rng.permutation(rows)
        if cls == 1 and spec.scheme == "minority_protect":
            n_train = math.floor(spec.attack_train_fraction * len(rows))
            draws.append((perm[:n_train], perm[n_train:]))
        else:
            n_train = math.floor(spec.train_fraction * len(rows))
            n_test = math.floor(spec.test_fraction * len(rows))
            draws.append((perm[:n_train], perm[n_train:n_train + n_test]))
    return tuple(np.sort(np.concatenate(parts)) for parts in zip(*draws))


def _distinct(values):
    """How many distinct values: NaN is one value, and so are 0.0 and -0.0."""
    return len({"nan" if v != v else v for v in values})


def clean_ref(columns, rows, excluded):
    """The flow-table cleaning rules applied one at a time with plain loops.

    `columns` is the header as (name, kind) pairs, kind "numeric",
    "categorical" or "label"; `rows` holds the cells as floats. Returns the
    kept columns, the kept rows min-max normalized, the cleaning report as
    JSON, and the warning texts. The minimum of a column is NumPy's over the
    column alone: when a column's smallest cells are 0.0 and -0.0, which of
    them is the minimum is NumPy's choice, and a -0.0 cell keeps its sign
    only if the minimum is 0.0.
    """
    names = [name for name, _ in columns]
    label = next(name for name, kind in columns if kind == "label")
    report = {"dropped_columns": [], "dropped_row_counts": {}, "absent_columns": []}
    warned = []
    keep = [j for j, (_, kind) in enumerate(columns) if kind != "label"]
    for name in excluded:
        if name == label:
            raise ValueError("refusing to drop the label column")
        if name in names:
            report["dropped_columns"].append({"name": name, "reason": "excluded-by-name"})
            keep = [j for j in keep if names[j] != name]
        else:
            report["absent_columns"].append(name)
    for j in list(keep):
        if _distinct([row[j] for row in rows]) < 2:
            report["dropped_columns"].append({"name": names[j], "reason": "single-valued"})
            keep.remove(j)

    numeric = [j for j in keep if columns[j][1] == "numeric"]
    kept_rows = []
    for row in rows:
        if any(not math.isfinite(row[j]) for j in numeric):
            reason = "non-finite"
        elif any(row[j] < 0 for j in numeric):
            reason = "negative"
        else:
            kept_rows.append(row)
            continue
        counts = report["dropped_row_counts"]
        counts[reason] = counts.get(reason, 0) + 1
    if kept_rows:
        late = [j for j in keep if _distinct([row[j] for row in kept_rows]) < 2]
        if late:
            report["dropped_columns"].extend({"name": names[j], "reason": "single-valued"}
                                             for j in late)
            warned.append("columns became single-valued after row cleaning and were "
                          "dropped: " + ", ".join(names[j] for j in late))
            keep = [j for j in keep if j not in late]
    if not keep:
        warned.append("table reduced to its label column only")

    out_rows = [list(row) for row in kept_rows]
    for j in keep:
        if columns[j][1] != "numeric" or not kept_rows:
            continue
        col = [row[j] for row in kept_rows]
        lo, hi = float(np.array(col).min()), max(col)
        for row in out_rows:
            row[j] = (row[j] - lo) / (hi - lo)
    kept = [j for j, (_, kind) in enumerate(columns) if j in keep or kind == "label"]
    return ([columns[j] for j in kept], [[row[j] for j in kept] for row in out_rows],
            report, warned)


def stored_type_ref(cells, most_places=9):
    """The (type, places) a kept column of the float `cells` is stored as,
    tried cell by cell for each places p from 0 to `most_places` and each of
    "u1", "u2" and "u4" in turn: the first (p, type) for which every cell x
    is k / 10**p bit for bit, k a whole number from 0 below the type's
    limit. The k tried are the two whole numbers nearest the exact rational
    x * 10**p, and k / 10**p is Python's correctly rounded int division.
    ("f8", 0) if no (p, type) holds every cell."""
    def holds(x, p, limit):
        if not math.isfinite(x):
            return False
        v = Fraction(x) * 10 ** p
        return any(0 <= k < limit and (k / 10 ** p).hex() == x.hex()
                   for k in (math.floor(v), math.ceil(v)))

    for p in range(most_places + 1):
        for name, limit in (("u1", 2 ** 8), ("u2", 2 ** 16), ("u4", 2 ** 32)):
            if all(holds(x, p, limit) for x in cells):
                return name, p
    return "f8", 0


def _read_raw(path) -> tuple[list[str], list[list[str]], int]:
    """Header, data rows, and the count of repeated-header lines that were dropped."""
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise TableError(f"{path}: cannot open file ({exc})") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TableError(f"{path}: empty file") from None
        rows = []
        repeated = 0
        for row in reader:
            if not row:
                continue
            if row == header:
                repeated += 1
                continue
            if len(row) != len(header):
                raise TableError(
                    f"{path}: row at line {reader.line_num} has {len(row)} cells, "
                    f"header has {len(header)}")
            rows.append(row)
    return header, rows, repeated


def _parse_into(cells: tuple[str, ...], out: np.ndarray) -> tuple[str, ...] | None:
    """Fill `out` with the cells as numbers or else category codes; return the categories."""
    try:
        out[:] = np.fromiter(map(float, cells), np.float64, len(cells))
        return None
    except ValueError:
        cats = tuple(sorted(set(cells)))
        code = {c: float(i) for i, c in enumerate(cats)}
        out[:] = [code[c] for c in cells]
        return cats


def _assemble(header, rows, label_column, path):
    if label_column not in header:
        raise TableError(f"{path}: header has no column {label_column!r}")
    if len(set(header)) != len(header):
        raise TableError(f"{path}: duplicate column names in header")
    X = np.empty((len(rows), len(header) - 1))
    y = np.empty(len(rows))
    feature_columns = iter(X.T)  # writable views, filled in place
    col_cells = list(zip(*rows)) if rows else [()] * len(header)
    categories = {}
    for name, cells in zip(header, col_cells):
        cats = _parse_into(cells, y if name == label_column else next(feature_columns))
        if cats is not None:
            categories[name] = cats
    features = tuple(name for name in header if name != label_column)
    return Table(features, label_column, X, y), CategoryMapping(categories)


def load_csv_merged_ref(paths, label_column: str) -> tuple[Table, CategoryMapping, CleaningReport]:
    """The CSV loader as it was before it read in chunks: every cell kept as
    text, then each column parsed with float() or coded. Load and concatenate
    several CSV files sharing one header.

    Columns whose cells all parse as numbers are numeric; the rest are
    categorical: they get integer-coded in lexicographic category order, over
    the merged data, so codes are consistent across source files, and become
    keys of the returned mapping. `label_column` becomes the table's label
    (coded the same way when textual).
    Data lines that repeat the header verbatim are dropped and counted;
    completely blank lines are skipped.
    """
    if not paths:
        raise TableError("no input files given")
    header = None
    all_rows: list[list[str]] = []
    repeated = 0
    for path in paths:
        file_header, rows, file_repeated = _read_raw(path)
        if header is None:
            header = file_header
        elif file_header != header:
            raise TableError(f"{path}: header differs from {paths[0]}")
        all_rows.extend(rows)
        repeated += file_repeated
    table, mapping = _assemble(header, all_rows, label_column, paths[0])
    report = CleaningReport()
    report.count_rows(REASON_REPEATED_HEADER, repeated)
    return table, mapping, report


def random_contingency(rng, max_rows=5, max_cols=4, max_total=200):
    """Random non-degenerate count table with total > 0."""
    while True:
        r = rng.integers(1, max_rows + 1)
        c = rng.integers(2, max_cols + 1)
        table = rng.integers(0, max_total // (r * c) + 1, size=(r, c))
        if table.sum() > 0:
            return table.tolist()
