"""Columnar table model, CSV ingestion, and the flow-table cleaning pipeline.

A Table is an immutable, column-major collection of float64 columns. Text
columns are integer-coded at load time (codes are positions in a
lexicographically sorted category list) so every cell is a float64; the
code-to-text correspondence lives in a CategoryMapping. Cleaning operations
never mutate: each returns a new Table plus a CleaningReport describing what
was removed and why.
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
    """Immutable columnar dataset; exactly one column has kind LABEL."""

    column_names: tuple[str, ...]
    column_kinds: tuple[ColumnKind, ...]
    columns: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not (len(self.column_names) == len(self.column_kinds) == len(self.columns)):
            raise TableError("column names, kinds, and data are not the same length")
        if len(set(self.column_names)) != len(self.column_names):
            raise TableError("duplicate column names")
        n_label = sum(k is ColumnKind.LABEL for k in self.column_kinds)
        if n_label != 1:
            raise TableError(f"a table needs exactly one label column, found {n_label}")
        lengths = {len(c) for c in self.columns}
        if len(lengths) > 1:
            raise TableError(f"ragged columns: lengths {sorted(lengths)}")
        cols = []
        for arr in self.columns:
            arr = np.ascontiguousarray(arr, dtype=np.float64)
            arr.setflags(write=False)
            cols.append(arr)
        object.__setattr__(self, "columns", tuple(cols))

    @property
    def row_count(self) -> int:
        return len(self.columns[0]) if self.columns else 0

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

    def column(self, name: str) -> np.ndarray:
        try:
            return self.columns[self.column_names.index(name)]
        except ValueError:
            raise TableError(f"no column named {name!r}") from None

    def labels(self) -> np.ndarray:
        return self.columns[self.label_index]

    def feature_matrix(self) -> np.ndarray:
        """Non-label columns stacked into an (n_rows, n_features) array."""
        li = self.label_index
        cols = [c for i, c in enumerate(self.columns) if i != li]
        if not cols:
            return np.empty((self.row_count, 0))
        return np.column_stack(cols)

    def take_rows(self, indices) -> "Table":
        indices = np.asarray(indices, dtype=np.intp)
        return Table(self.column_names, self.column_kinds,
                     tuple(c[indices] for c in self.columns))

    def select_features(self, names) -> "Table":
        """Project onto the given feature columns (label always kept)."""
        keep = list(names)
        for name in keep:
            if name not in self.column_names:
                raise TableError(f"no column named {name!r}")
            if name == self.label_name:
                raise TableError("label column cannot be selected as a feature")
        keep.append(self.label_name)
        idx = [self.column_names.index(n) for n in keep]
        return Table(tuple(keep),
                     tuple(self.column_kinds[i] for i in idx),
                     tuple(self.columns[i] for i in idx))


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


def _parse_numeric(cells: tuple[str, ...]) -> np.ndarray | None:
    values = np.empty(len(cells))
    for i, cell in enumerate(cells):
        try:
            values[i] = float(cell)
        except ValueError:
            return None
    return values


def _encode_text(cells: tuple[str, ...]) -> tuple[np.ndarray, tuple[str, ...]]:
    cats = tuple(sorted(set(cells)))
    code = {c: float(i) for i, c in enumerate(cats)}
    return np.array([code[c] for c in cells]), cats


def _assemble(header, rows, label_column, path):
    if label_column not in header:
        raise TableError(f"{path}: header has no column {label_column!r}")
    if len(set(header)) != len(header):
        raise TableError(f"{path}: duplicate column names in header")
    n_cols = len(header)
    col_cells = list(zip(*rows)) if rows else [()] * n_cols
    kinds, arrays, categories = [], [], {}
    for name, cells in zip(header, col_cells):
        values = _parse_numeric(cells)
        if values is None:
            values, cats = _encode_text(cells)
            categories[name] = cats
            kind = ColumnKind.CATEGORICAL
        else:
            kind = ColumnKind.NUMERIC
        if name == label_column:
            kind = ColumnKind.LABEL
        kinds.append(kind)
        arrays.append(values)
    table = Table(tuple(header), tuple(kinds), tuple(arrays))
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
    keep = [i for i, n in enumerate(t.column_names) if n not in to_drop]
    out = Table(tuple(t.column_names[i] for i in keep),
                tuple(t.column_kinds[i] for i in keep),
                tuple(t.columns[i] for i in keep))
    return out, report


def drop_single_valued_columns(t: Table) -> tuple[Table, CleaningReport]:
    """Remove every non-label column with fewer than two distinct values."""
    report = CleaningReport()
    keep = []
    for i, (name, kind) in enumerate(zip(t.column_names, t.column_kinds)):
        if kind is not ColumnKind.LABEL and len(np.unique(t.columns[i])) < 2:
            report.dropped_columns.append((name, REASON_SINGLE_VALUED))
        else:
            keep.append(i)
    out = Table(tuple(t.column_names[i] for i in keep),
                tuple(t.column_kinds[i] for i in keep),
                tuple(t.columns[i] for i in keep))
    if out.column_count == 1:
        warnings.warn("table reduced to its label column only", stacklevel=2)
    return out, report


def drop_invalid_rows(t: Table) -> tuple[Table, CleaningReport]:
    """Drop rows with non-finite numeric cells, then rows with negative numeric cells.

    A row failing both checks is counted once, under non-finite.
    """
    report = CleaningReport()
    numeric = [c for c, k in zip(t.columns, t.column_kinds) if k is ColumnKind.NUMERIC]
    if not numeric:
        return t, report
    mat = np.column_stack(numeric)
    non_finite = ~np.isfinite(mat).all(axis=1)
    negative = (mat < 0).any(axis=1) & ~non_finite
    report.count_rows(REASON_NON_FINITE, int(non_finite.sum()))
    report.count_rows(REASON_NEGATIVE, int(negative.sum()))
    survivors = np.flatnonzero(~(non_finite | negative))
    return t.take_rows(survivors), report


def minmax_normalize(t: Table) -> Table:
    """Rescale every numeric non-label column to [0, 1] by (x - min) / (max - min)."""
    cols = []
    for name, kind, col in zip(t.column_names, t.column_kinds, t.columns):
        if kind is ColumnKind.NUMERIC and len(col):
            lo = col.min()
            hi = col.max()
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise TableError(f"column {name!r} has non-finite cells; clean rows first")
            if hi == lo:
                raise ConstantColumnError(
                    f"column {name!r} is single-valued; apply drop_single_valued_columns first")
            col = (col - lo) / (hi - lo)
        cols.append(col)
    return Table(t.column_names, t.column_kinds, tuple(cols))


def _resolve_label_code(t: Table, mapping: CategoryMapping, value) -> float:
    if isinstance(value, str):
        return float(mapping.encode(t.label_name, value))
    return float(value)


def split_by_attack(t: Table, mapping: CategoryMapping, attack_labels,
                    benign_label) -> dict:
    """One table per attack: all benign rows plus that attack's rows, label coded 0/1.

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
        code = _resolve_label_code(t, mapping, attack)
        attack_mask = y == code
        if not attack_mask.any():
            raise TableError(f"attack label {attack!r} has no rows")
        rows = np.flatnonzero(benign_mask | attack_mask)
        sub = t.take_rows(rows)
        binary = np.where(sub.labels() == code, 1.0, 0.0)
        cols = list(sub.columns)
        cols[sub.label_index] = binary
        out[str(attack)] = Table(sub.column_names, sub.column_kinds, tuple(cols))
    return out


def write_csv(t: Table, path) -> None:
    """Emit the table as CSV; floats use shortest round-trip decimal form."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(t.column_names)
        for i in range(t.row_count):
            writer.writerow([repr(float(c[i])) for c in t.columns])
