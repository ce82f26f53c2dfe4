"""Table model, CSV ingestion, and the flow-table cleaning pipeline.

A Table is its feature names, its label's name, one immutable, C-ordered
float64 feature matrix (every column but the label, in header order) and the
label vector, so a table is stored and rebuilt as them
(`Table(feature_names, label_name, X, y)`), never as text. Text columns are
integer-coded at load time (codes are positions in a lexicographically sorted
category list) so every cell is a float64; the code-to-text correspondence
lives in a CategoryMapping, and a column is categorical exactly when it is
one of the mapping's keys. Only cleaning reads that: `clean_table` exempts
category codes from the row checks and from normalization. Cleaning never
mutates: `clean_table` gathers the rows and columns it keeps into a new,
normalized Table and returns it with a CleaningReport describing what was
removed and why. A per-attack dataset is a list of row indices into the
cleaned table plus 0/1 labels (`split_by_attack`); `subtable` builds its
table when it is needed.
"""

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np

REASON_SINGLE_VALUED = "single-valued"
REASON_EXCLUDED = "excluded-by-name"
REASON_NON_FINITE = "non-finite"
REASON_NEGATIVE = "negative"
REASON_REPEATED_HEADER = "repeated-header"


class TableError(ValueError):
    """Malformed input data or an illegal table operation."""


@dataclass(frozen=True, eq=False)
class Table:
    """Immutable dataset: `X` holds the features `feature_names`, in that
    order, as one read-only, C-ordered (rows, features) float64 matrix, `y`
    the label column `label_name`. Two tables are equal only if they are the
    same object: compare their arrays to compare contents."""

    feature_names: tuple[str, ...]
    label_name: str
    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        names = tuple(self.feature_names)
        if self.label_name in names:
            raise TableError(f"a feature has the label's name {self.label_name!r}")
        if len(set(names)) != len(names):
            raise TableError("duplicate column names")
        X = np.ascontiguousarray(self.X, dtype=np.float64)
        y = np.ascontiguousarray(self.y, dtype=np.float64)
        if y.ndim != 1 or X.shape != (len(y), len(names)):
            raise TableError(f"ragged table: {len(names)} features, feature "
                             f"matrix of shape {X.shape}, labels of shape {y.shape}")
        object.__setattr__(self, "feature_names", names)
        for name, arr in (("X", X), ("y", y)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def row_count(self) -> int:
        return len(self.y)

    @property
    def column_count(self) -> int:
        """The features and the label."""
        return len(self.feature_names) + 1

    def column(self, name: str) -> np.ndarray:
        """The label vector, or a feature column as a view of the matrix."""
        if name == self.label_name:
            return self.y
        try:
            return self.X[:, self.feature_names.index(name)]
        except ValueError:
            raise TableError(f"no column named {name!r}") from None


def subtable(t: Table, rows, labels, names) -> Table:
    """The features `names` of the rows `rows` of `t`, in that order, with
    the label vector `labels`. One gather from `t`'s matrix: how a
    per-attack table, or one of its train and test tables, is built from the
    cleaned table when it is needed."""
    names = tuple(names)
    for name in names:
        if name == t.label_name:
            raise TableError("label column cannot be selected as a feature")
        if name not in t.feature_names:
            raise TableError(f"no column named {name!r}")
    idx = [t.feature_names.index(n) for n in names]
    return Table(names, t.label_name,
                 t.X[np.ix_(np.asarray(rows, dtype=np.intp), idx)], labels)


@dataclass(frozen=True)
class CategoryMapping:
    """Per-column category lists; the integer code of a category is its position."""

    categories: dict[str, tuple[str, ...]]

    def columns(self) -> tuple[str, ...]:
        return tuple(self.categories)

    def encode(self, column: str, value: str) -> int:
        try:
            return self.categories[column].index(value)
        except ValueError:
            raise TableError(f"value {value!r} not a known category of column {column!r}") from None
        except KeyError:
            raise TableError(f"column {column!r} has no category mapping") from None

    def to_json(self) -> dict:
        return {name: list(cats) for name, cats in self.categories.items()}


@dataclass
class CleaningReport:
    """What cleaning removed: (column, reason) pairs and per-reason row counts."""

    dropped_columns: list[tuple[str, str]] = field(default_factory=list)
    dropped_row_counts: dict[str, int] = field(default_factory=dict)
    absent_columns: list[str] = field(default_factory=list)

    def count_rows(self, reason: str, count: int) -> None:
        if count < 0:
            raise ValueError("row counts are non-negative")
        if count:
            self.dropped_row_counts[reason] = self.dropped_row_counts.get(reason, 0) + count

    def merged(self, other: "CleaningReport") -> "CleaningReport":
        out = CleaningReport(list(self.dropped_columns),
                             dict(self.dropped_row_counts),
                             list(self.absent_columns))
        out.dropped_columns.extend(other.dropped_columns)
        for reason, count in other.dropped_row_counts.items():
            out.count_rows(reason, count)
        out.absent_columns.extend(other.absent_columns)
        return out

    def to_json(self) -> dict:
        return {
            "dropped_columns": [{"name": n, "reason": r} for n, r in self.dropped_columns],
            "dropped_row_counts": dict(self.dropped_row_counts),
            "absent_columns": list(self.absent_columns),
        }


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


def load_csv(path, label_column: str) -> tuple[Table, CategoryMapping, CleaningReport]:
    """Load one CSV file: `load_csv_merged` of a single path."""
    return load_csv_merged([path], label_column)


def load_csv_merged(paths, label_column: str) -> tuple[Table, CategoryMapping, CleaningReport]:
    """Load and concatenate several CSV files sharing one header.

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


def _valid_rows(X: np.ndarray, checked, report: CleaningReport) -> np.ndarray:
    """Mask of the rows whose `checked` cells are finite and not negative;
    `report` counts the others."""
    non_finite = ~np.isfinite(X).all(axis=1, where=checked)
    negative = (X < 0).any(axis=1, where=checked) & ~non_finite
    report.count_rows(REASON_NON_FINITE, int(non_finite.sum()))
    report.count_rows(REASON_NEGATIVE, int(negative.sum()))
    return ~(non_finite | negative)


def drop_invalid_rows(t: Table) -> tuple[Table, CleaningReport]:
    """Drop rows with a non-finite feature cell, then rows with a negative one.

    A row failing both checks is counted once, under non-finite. Category
    codes are finite and not negative, so they never fail a check.
    """
    report = CleaningReport()
    rows = np.flatnonzero(_valid_rows(t.X, True, report))
    return subtable(t, rows, t.y[rows], t.feature_names), report


def _normalize_in_place(X: np.ndarray, numeric: np.ndarray) -> None:
    """Rescale the `numeric` columns of `X`, each finite and not
    single-valued, to [0, 1] by (x - min) / (max - min)."""
    if not (len(X) and numeric.any()):
        return
    # other columns go through as (x - 0) / 1, which leaves every value as it is
    lo = np.where(numeric, X.min(axis=0), 0.0)
    hi = np.where(numeric, X.max(axis=0), 1.0)
    # which signed zero a min returns depends on the order it visits the
    # cells; take a zero minimum from the column alone, as a column pass does
    for j in np.flatnonzero(numeric & (lo == 0.0)):
        lo[j] = np.ascontiguousarray(X[:, j]).min()
    X -= lo
    X /= hi - lo


def clean_table(t: Table, mapping: CategoryMapping, excluded) -> tuple[Table, CleaningReport]:
    """`t` cleaned and min-max normalized, and what cleaning removed: the
    `excluded` columns, the single-valued columns, the rows with a non-finite,
    else a negative, numeric cell, and then the columns that row removal left
    single-valued. Each is a mask on `t`'s matrix; the kept cells are gathered
    once and normalized in place. A feature is numeric unless `mapping` holds
    its categories."""
    report = CleaningReport()
    for name in excluded:
        if name == t.label_name:
            raise TableError("refusing to drop the label column")
        if name in t.feature_names:
            report.dropped_columns.append((name, REASON_EXCLUDED))
        else:
            report.absent_columns.append(name)
    cols = np.array([n not in excluded for n in t.feature_names], dtype=bool)
    # fewer than two distinct values, NaN counting as one: min == max (both
    # NaN if any cell is), or every cell NaN (fmin passes over NaN)
    single = cols & ((t.X.min(axis=0, initial=np.inf) == t.X.max(axis=0, initial=-np.inf))
                     | np.isnan(np.fmin.reduce(t.X, axis=0, initial=np.nan)))
    report.dropped_columns.extend((t.feature_names[j], REASON_SINGLE_VALUED)
                                  for j in np.flatnonzero(single))
    cols &= ~single

    numeric = np.array([n not in mapping.categories for n in t.feature_names], dtype=bool)
    rows = _valid_rows(t.X, numeric & cols, report)
    # over no rows lo > hi, so no column counts as single-valued
    lo = t.X.min(axis=0, where=rows[:, None], initial=np.inf)
    hi = t.X.max(axis=0, where=rows[:, None], initial=-np.inf)
    late = [t.feature_names[j] for j in np.flatnonzero(cols & (lo == hi))]
    if late:
        cols &= lo != hi
        report.dropped_columns.extend((name, REASON_SINGLE_VALUED) for name in late)
        warnings.warn("columns became single-valued after row cleaning and were dropped: "
                      + ", ".join(late), stacklevel=2)
    if not cols.any():
        warnings.warn("table reduced to its label column only", stacklevel=2)

    keep = np.flatnonzero(cols)
    X = t.X[np.ix_(np.flatnonzero(rows), keep)]
    _normalize_in_place(X, numeric[keep])
    return Table(tuple(t.feature_names[j] for j in keep), t.label_name, X, t.y[rows]), report


def _resolve_label_code(t: Table, mapping: CategoryMapping, value) -> float:
    if isinstance(value, str):
        return float(mapping.encode(t.label_name, value))
    return float(value)


def split_by_attack(t: Table, mapping: CategoryMapping, attack_labels,
                    benign_label) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Each attack's dataset as (rows, labels): the indices of all benign rows
    plus that attack's rows, in table order, and their labels coded 0/1.
    `subtable(t, rows, labels, t.feature_names)` builds the dataset's table.

    Labels may be given as category text (resolved through `mapping`) or as raw
    numeric label values. A table without benign rows, or an attack with no
    rows, is an error.
    """
    y = t.y
    benign_mask = y == _resolve_label_code(t, mapping, benign_label)
    if not benign_mask.any():
        raise TableError(f"no rows carry the benign label {benign_label!r}")
    out = {}
    for attack in attack_labels:
        attack_mask = y == _resolve_label_code(t, mapping, attack)
        if not attack_mask.any():
            raise TableError(f"attack label {attack!r} has no rows")
        rows = np.flatnonzero(benign_mask | attack_mask)
        out[str(attack)] = (rows, attack_mask[rows].astype(np.float64))
    return out
