"""Table model, CSV ingestion, and the flow-table cleaning pipeline.

A Table is one immutable, C-ordered float64 feature matrix (every column but
the label, in header order) plus the label vector. Text columns are
integer-coded at load time (codes are positions in a lexicographically sorted
category list) so every cell is a float64; the code-to-text correspondence
lives in a CategoryMapping. Cleaning operations never mutate: each returns a
new Table plus a CleaningReport describing what was removed and why. A
per-attack dataset is a list of row indices into the cleaned table plus 0/1
labels (`split_by_attack`); `subtable` builds its table when it is needed.
"""

import csv
import enum
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


class ConstantColumnError(TableError):
    """Operation cannot proceed on a single-valued column."""


class ColumnKind(enum.Enum):
    NUMERIC = "numeric"
    CATEGORICAL = "categorical"
    LABEL = "label"


@dataclass(frozen=True)
class Table:
    """Immutable dataset; exactly one column has kind LABEL. `X` holds the
    others in `column_names` order as one read-only, C-ordered (rows,
    features) float64 matrix, `y` the label column."""

    column_names: tuple[str, ...]
    column_kinds: tuple[ColumnKind, ...]
    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        if len(self.column_names) != len(self.column_kinds):
            raise TableError("column names and kinds are not the same length")
        if len(set(self.column_names)) != len(self.column_names):
            raise TableError("duplicate column names")
        n_label = sum(k is ColumnKind.LABEL for k in self.column_kinds)
        if n_label != 1:
            raise TableError(f"a table needs exactly one label column, found {n_label}")
        X = np.ascontiguousarray(self.X, dtype=np.float64)
        y = np.ascontiguousarray(self.y, dtype=np.float64)
        if y.ndim != 1 or X.shape != (len(y), len(self.column_names) - 1):
            raise TableError(f"ragged table: {len(self.column_names)} columns, feature "
                             f"matrix of shape {X.shape}, labels of shape {y.shape}")
        for name, arr in (("X", X), ("y", y)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def row_count(self) -> int:
        return len(self.y)

    @property
    def column_count(self) -> int:
        return len(self.column_names)

    @property
    def label_index(self) -> int:
        return self.column_kinds.index(ColumnKind.LABEL)

    @property
    def label_name(self) -> str:
        return self.column_names[self.label_index]

    @property
    def feature_names(self) -> tuple[str, ...]:
        li = self.label_index
        return tuple(n for i, n in enumerate(self.column_names) if i != li)

    @property
    def feature_kinds(self) -> tuple[ColumnKind, ...]:
        return tuple(k for k in self.column_kinds if k is not ColumnKind.LABEL)

    def column(self, name: str) -> np.ndarray:
        """The label vector, or a feature column as a view of the matrix."""
        if name == self.label_name:
            return self.y
        try:
            return self.X[:, self.feature_names.index(name)]
        except ValueError:
            raise TableError(f"no column named {name!r}") from None

    def labels(self) -> np.ndarray:
        return self.y

    def feature_matrix(self) -> np.ndarray:
        """The (n_rows, n_features) matrix itself, not a copy."""
        return self.X

    def take_rows(self, indices) -> "Table":
        indices = np.asarray(indices, dtype=np.intp)
        return Table(self.column_names, self.column_kinds, self.X[indices], self.y[indices])

    def select_features(self, names) -> "Table":
        """Project onto the given feature columns, in that order (label kept, last)."""
        return subtable(self, np.arange(self.row_count), self.y, names)


def subtable(t: Table, rows, labels, names) -> Table:
    """The features `names` of the rows `rows` of `t`, in that order, and the
    label column `labels`, last. One gather from `t`'s matrix: how a
    per-attack table, or one of its train and test tables, is built from the
    cleaned table when it is needed."""
    names = list(names)
    for name in names:
        if name not in t.column_names:
            raise TableError(f"no column named {name!r}")
        if name == t.label_name:
            raise TableError("label column cannot be selected as a feature")
    kinds = [t.column_kinds[t.column_names.index(n)] for n in names]
    idx = [t.feature_names.index(n) for n in names]
    return Table((*names, t.label_name), (*kinds, ColumnKind.LABEL),
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

    def decode(self, column: str, code: float) -> str:
        cats = self.categories.get(column)
        if cats is None:
            raise TableError(f"column {column!r} has no category mapping")
        i = int(code)
        if i != code or not 0 <= i < len(cats):
            raise TableError(f"code {code!r} out of range for column {column!r}")
        return cats[i]

    def decode_column(self, column: str, codes) -> list[str]:
        return [self.decode(column, c) for c in np.asarray(codes)]

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
    kinds, categories = [], {}
    for name, cells in zip(header, col_cells):
        is_label = name == label_column
        cats = _parse_into(cells, y if is_label else next(feature_columns))
        if cats is not None:
            categories[name] = cats
        kinds.append(ColumnKind.LABEL if is_label else
                     ColumnKind.NUMERIC if cats is None else ColumnKind.CATEGORICAL)
    table = Table(tuple(header), tuple(kinds), X, y)
    return table, CategoryMapping(categories)


def load_csv(path, label_column: str) -> tuple[Table, CategoryMapping, CleaningReport]:
    """Load one CSV file: `load_csv_merged` of a single path."""
    return load_csv_merged([path], label_column)


def load_csv_merged(paths, label_column: str) -> tuple[Table, CategoryMapping, CleaningReport]:
    """Load and concatenate several CSV files sharing one header.

    Columns whose cells all parse as numbers become NUMERIC; the rest are
    CATEGORICAL and get integer-coded in lexicographic category order, over
    the merged data, so codes are consistent across source files.
    `label_column` becomes the LABEL column (coded the same way when textual).
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


def _drop_features(t: Table, drop) -> Table:
    """`t` without the feature columns named in `drop`; `t` itself if none is."""
    if not drop:
        return t
    cols = [i for i, n in enumerate(t.column_names) if n not in drop]
    keep = [j for j, n in enumerate(t.feature_names) if n not in drop]
    return Table(tuple(t.column_names[i] for i in cols),
                 tuple(t.column_kinds[i] for i in cols),
                 np.take(t.X, keep, axis=1), t.y)


def drop_columns_by_name(t: Table, names) -> tuple[Table, CleaningReport]:
    """Remove the named columns; absent names are reported, not errors."""
    report = CleaningReport()
    to_drop = set()
    for name in names:
        if name == t.label_name:
            raise TableError("refusing to drop the label column")
        if name in t.column_names:
            to_drop.add(name)
            report.dropped_columns.append((name, REASON_EXCLUDED))
        else:
            report.absent_columns.append(name)
    return _drop_features(t, to_drop), report


def drop_single_valued_columns(t: Table) -> tuple[Table, CleaningReport]:
    """Remove every non-label column with fewer than two distinct values."""
    report = CleaningReport()
    for name, col in zip(t.feature_names, t.X.T):
        if len(np.unique(col)) < 2:
            report.dropped_columns.append((name, REASON_SINGLE_VALUED))
    out = _drop_features(t, {name for name, _ in report.dropped_columns})
    if out.column_count == 1:
        warnings.warn("table reduced to its label column only", stacklevel=2)
    return out, report


def drop_invalid_rows(t: Table) -> tuple[Table, CleaningReport]:
    """Drop rows with non-finite numeric cells, then rows with negative numeric cells.

    A row failing both checks is counted once, under non-finite.
    """
    report = CleaningReport()
    numeric = np.array([k is ColumnKind.NUMERIC for k in t.feature_kinds], dtype=bool)
    non_finite = ~np.isfinite(t.X).all(axis=1, where=numeric)
    negative = (t.X < 0).any(axis=1, where=numeric) & ~non_finite
    report.count_rows(REASON_NON_FINITE, int(non_finite.sum()))
    report.count_rows(REASON_NEGATIVE, int(negative.sum()))
    return t.take_rows(np.flatnonzero(~(non_finite | negative))), report


def minmax_normalize(t: Table) -> Table:
    """Rescale every numeric non-label column to [0, 1] by (x - min) / (max - min)."""
    numeric = np.array([k is ColumnKind.NUMERIC for k in t.feature_kinds], dtype=bool)
    if not (t.row_count and numeric.any()):
        return t
    # other columns go through as (x - 0) / 1, which leaves every value as it is
    lo = np.where(numeric, t.X.min(axis=0), 0.0)
    hi = np.where(numeric, t.X.max(axis=0), 1.0)
    # which signed zero a min returns depends on the order it visits the
    # cells; take a zero minimum from the column alone, as a column pass does
    for j in np.flatnonzero(numeric & (lo == 0.0)):
        lo[j] = np.ascontiguousarray(t.X[:, j]).min()
    for j in np.flatnonzero(~(np.isfinite(lo) & np.isfinite(hi) & (hi != lo))):
        name = t.feature_names[j]  # the first bad column raises
        if not (np.isfinite(lo[j]) and np.isfinite(hi[j])):
            raise TableError(f"column {name!r} has non-finite cells; clean rows first")
        raise ConstantColumnError(
            f"column {name!r} is single-valued; apply drop_single_valued_columns first")
    out = np.subtract(t.X, lo)  # in place from here: one new matrix, no temporary
    out /= hi - lo
    return Table(t.column_names, t.column_kinds, out, t.y)


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
    numeric label values. An attack with no rows is an error; a table with no
    benign rows is permitted but warned about.
    """
    y = t.labels()
    benign_code = _resolve_label_code(t, mapping, benign_label)
    benign_mask = y == benign_code
    if not benign_mask.any():
        warnings.warn(f"no rows carry the benign label {benign_label!r}", stacklevel=2)
    out = {}
    for attack in attack_labels:
        attack_mask = y == _resolve_label_code(t, mapping, attack)
        if not attack_mask.any():
            raise TableError(f"attack label {attack!r} has no rows")
        rows = np.flatnonzero(benign_mask | attack_mask)
        out[str(attack)] = (rows, attack_mask[rows].astype(np.float64))
    return out


def write_csv(t: Table, path) -> None:
    """Emit the table as CSV; floats use shortest round-trip decimal form."""
    li = t.label_index
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(t.column_names)
        for x, label in zip(t.X, t.y):
            row = x.tolist()
            row.insert(li, float(label))
            writer.writerow(map(repr, row))
