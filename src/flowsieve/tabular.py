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

CSV input (`load_csv_merged`): the files share one header row, which names
the label column. Rows are split as Python's csv module splits them: cells
are comma-separated, and a cell in `"` quotes may hold a comma, a doubled
quote or a line end. A UTF-8 byte order mark is ignored. A column is numeric
when Python's `float()` takes every one of its cells, so `Infinity`, `NaN`,
`1e500` (inf), `-0`, ` 5 `, `1_0` and `١` are numbers and the empty cell is
not; NumPy's C parser (np.loadtxt) is only a fast path for quote-free ASCII
lines, and a chunk it rejects is parsed again cell by cell with `float()`.
Every other column, a text label among them, is categorical. Blank lines are
skipped; a line that repeats the header is dropped and counted. A load
fails closed, with a TableError that names the file and, where there is
one, the line: a file that cannot be opened or is empty, a row with more or
fewer cells than the header, a line that is not UTF-8, a cell over the csv
module's field limit, a header that differs from the first file's, lacks
the label column or repeats a name.

The files are read in chunks of lines into one preallocated float64 matrix,
sized by a first pass that counts their line ends, so a load holds that
matrix, one chunk and each text column's distinct cells; the cells of the
columns the caller excludes are not kept at all. The rows of a column that
turns out textual after earlier chunks parsed it as numbers are read again
from the files.
"""

import csv
import itertools
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


_CHUNK_LINES = 1 << 13  # lines parsed at a time: bounds what a load holds besides its table
_BLOCK_BYTES = 1 << 18  # bytes read from a file at a time


def _open(path):
    try:
        return open(path, "rb")
    except OSError as exc:
        raise TableError(f"{path}: cannot open file ({exc})") from exc


def _line_ends(path) -> int:
    """How many line ends (\\n, \\r or \\r\\n) the file has, or one more for a
    \\r\\n split between two blocks: at least as many as its data rows. 0 if it
    cannot be read; its parse reports that."""
    count = 0
    try:
        with open(path, "rb") as fh:
            while block := fh.read(_BLOCK_BYTES):
                count += block.count(b"\n")
                if b"\r" in block:
                    count += block.count(b"\r") - block.count(b"\r\n")
    except OSError:
        return 0
    return count


def _byte_lines(fh):
    """The lines of the binary file `fh`, line ends kept, split where a text
    file opened with newline="" splits them: at \\n, \\r and \\r\\n."""
    rest = b""
    while block := fh.read(_BLOCK_BYTES):
        lines = (rest + block).splitlines(keepends=True)
        rest = lines.pop()  # a line may go on, or a \r be followed by \n, in the next block
        yield from lines
    if rest:
        yield rest


def _text_lines(lines, path, number):
    """The raw `lines` decoded as UTF-8; the first is line `number` of `path`."""
    for number, line in enumerate(lines, number):
        try:
            yield line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TableError(f"{path}: line {number} is not UTF-8 text: byte "
                             f"{line[exc.start]:#04x} at column {exc.start + 1}") from None


def _read_header(path, lines) -> tuple[list[str], int]:
    """The header row at the start of the raw `lines` of `path` (after a UTF-8
    byte order mark, if any) and how many lines it spans."""
    first = next(lines, b"").removeprefix(b"\xef\xbb\xbf")
    if not first:
        raise TableError(f"{path}: empty file")
    reader = csv.reader(_text_lines(itertools.chain([first], lines), path, 1))
    try:
        return next(reader), reader.line_num
    except csv.Error as exc:
        raise TableError(f"{path}: line {reader.line_num}: {exc}") from None


def _csv_rows(path, header, lines, number: int, stop: int):
    """Parse the raw `lines`, the first of which is line `number` of `path`,
    as csv.reader does, up to the end of the row that reaches their `stop`-th
    line. Returns the data rows, how many rows repeated `header`, and how many
    lines were read. Blank lines are skipped; a row whose length differs from
    the header's raises."""
    reader = csv.reader(_text_lines(lines, path, number))
    rows, repeated = [], 0
    try:
        for row in reader:
            if not row:
                pass
            elif row == header:
                repeated += 1
            elif len(row) != len(header):
                raise TableError(f"{path}: row at line {number - 1 + reader.line_num} has "
                                 f"{len(row)} cells, header has {len(header)}")
            else:
                rows.append(row)
            if reader.line_num >= stop:
                break
    except csv.Error as exc:
        raise TableError(f"{path}: line {number - 1 + reader.line_num}: {exc}") from None
    return rows, repeated, reader.line_num


def _check_rows(path, header, lines, number: int) -> None:
    """Read the rest of `path`, after line `number`, only for its errors."""
    while read := _csv_rows(path, header, lines, number + 1, _CHUNK_LINES)[2]:
        number += read


def _plain_lines(chunk: list[bytes]) -> list[str] | None:
    """The lines of the raw `chunk` without their line ends, if every one
    splits at its commas exactly as csv.reader splits it: ASCII without a
    quote or a NUL (which csv.reader rejects before Python 3.11), ended by
    \\n or \\r\\n, and no longer than the csv field limit. Else None."""
    text = b"".join(chunk)
    if (not text.isascii() or b'"' in text or b"\0" in text
            or max(map(len, chunk)) > csv.field_size_limit()):
        return None
    text = text.decode("ascii")
    if "\r" in text:
        if text.count("\r") != text.count("\r\n"):
            return None
        text = text.replace("\r\n", "\n")
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def _is_number(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


class _Columns:
    """A load in progress: the matrix and label rows filled so far, the
    excluded columns, which are not parsed, the columns whose every cell so
    far is a number, and for each other column the distinct cells seen, each
    with a number. The matrix holds a text cell's number until `finish` turns
    the numbers into lexicographic category codes."""

    def __init__(self, header: list[str], label_column: str, capacity: int, excluded):
        self.header = header
        # the header as a line, to spot repeats of it among quote-free lines
        self.header_line = None if any("," in name for name in header) else ",".join(header)
        self.label = header.index(label_column)
        self.X = np.empty((capacity, len(header) - 1))
        self.y = np.empty(capacity)
        self.rows = 0
        self.repeated = 0
        self.skipped = {c for c, name in enumerate(header) if name in excluded and c != self.label}
        for c in self.skipped:
            self.column(c)[:] = np.nan
        self.numeric = set(range(len(header))) - self.skipped
        self.ids: dict[int, dict[str, int]] = {}
        # text columns whose first rows were parsed as numbers: how many
        self.reread: dict[int, int] = {}

    def column(self, c: int) -> np.ndarray:
        """Header column `c` as a writable view of the matrix or the labels."""
        return self.y if c == self.label else self.X[:, c - (c > self.label)]

    def to_text(self, c: int, parsed: int) -> None:
        """Make column `c` textual, its first `parsed` rows parsed as numbers."""
        self.numeric.remove(c)
        self.ids[c] = {}
        if parsed:
            self.reread[c] = parsed

    def number(self, c: int, cells, start: int) -> None:
        """Write the ids of text column `c`'s `cells` from row `start` on."""
        ids = self.ids[c]
        for cell in set(cells).difference(ids):
            ids[cell] = len(ids)
        self.column(c)[start:start + len(cells)] = np.fromiter(map(ids.__getitem__, cells),
                                                               np.float64, len(cells))

    def reserve(self, path, count: int) -> int:
        """The first of `count` new rows."""
        start = self.rows
        if start + count > len(self.y):
            raise TableError(f"{path}: file grew while it was read")
        self.rows += count
        return start

    def read(self, path, lines, number: int) -> None:
        """Parse the rest of the raw `lines` of `path`, after line `number`, in
        chunks: quote-free chunks with np.loadtxt, the others with csv.reader."""
        while chunk := list(itertools.islice(lines, _CHUNK_LINES)):
            plain = _plain_lines(chunk)
            if plain is not None and self.add_lines(path, plain):
                read = len(chunk)
            else:
                rows, repeated, read = _csv_rows(path, self.header, itertools.chain(chunk, lines),
                                                 number + 1, len(chunk))
                self.repeated += repeated
                self.add_rows(path, rows)
            number += read

    def runs(self) -> list[tuple[int, int, str]]:
        """The header as runs of adjacent columns of one kind, each as (first
        column, length, kind): "x" numeric features, "y" a numeric label, "t"
        text columns, "s" excluded columns."""
        kinds = ["s" if c in self.skipped else "t" if c not in self.numeric
                 else "y" if c == self.label else "x" for c in range(len(self.header))]
        runs = []
        for kind, run in itertools.groupby(range(len(kinds)), kinds.__getitem__):
            run = list(run)
            runs.append((run[0], len(run), kind))
        return runs

    def add_lines(self, path, lines: list[str]) -> bool:
        """Add the quote-free `lines`, if np.loadtxt takes them. Blank lines
        and repeated headers go; loadtxt parses the rest, with one field per
        header column: the numeric columns as float64, the text and excluded
        columns as their cells, of which only the text columns' are kept.
        False, with no row added, where it rejects a line: a row of another
        length than the header, or a cell it does not take as a number."""
        data = [line for line in lines if line and line != self.header_line]
        if not data:
            self.repeated += lines.count(self.header_line)
            return True
        first = data[0].split(",")
        if len(first) == len(self.header):
            for c in [c for c in self.numeric if not _is_number(first[c])]:
                self.to_text(c, self.rows)
        runs = self.runs()
        try:
            block = np.loadtxt(data, dtype=[(f"c{c}", object if kind in "st" else np.float64, (k,))
                                            for c, k, kind in runs],
                               delimiter=",", quotechar='"', comments=None, ndmin=1)
        except ValueError:
            return False
        self.repeated += lines.count(self.header_line)
        start = self.reserve(path, len(data))
        for c, k, kind in runs:
            cells = block[f"c{c}"]
            if kind == "x":
                j = c - (c > self.label)
                self.X[start:start + len(data), j:j + k] = cells
            elif kind == "y":
                self.y[start:start + len(data)] = cells[:, 0]
            elif kind == "t":
                for i in range(k):
                    self.number(c + i, cells[:, i].tolist(), start)
        return True

    def add_rows(self, path, rows: list[list[str]]) -> None:
        """Add the data `rows`: a column's cells are numbers if float() takes
        every one of them, else the column is textual from now on."""
        if not rows:
            return
        start = self.reserve(path, len(rows))
        for c in sorted(self.numeric.union(self.ids)):  # all but the excluded
            cells = [row[c] for row in rows]
            if c in self.numeric:
                try:
                    self.column(c)[start:start + len(rows)] = np.fromiter(
                        map(float, cells), np.float64, len(cells))
                    continue
                except ValueError:
                    self.to_text(c, start)
            self.number(c, cells, start)

    def reread_text(self, paths) -> None:
        """Number the cells of the rows that were parsed as numbers before
        their column turned out textual, from a second read of the files."""
        row = 0
        for path in paths:
            with _open(path) as fh:
                lines = _byte_lines(fh)
                _, number = _read_header(path, lines)
                while row < max(self.reread.values()):
                    rows, _, read = _csv_rows(path, self.header, lines, number + 1, _CHUNK_LINES)
                    if not read:
                        break
                    number += read
                    for c, stop in self.reread.items():
                        self.number(c, [r[c] for r in rows[:max(stop - row, 0)]], row)
                    row += len(rows)

    def finish(self, paths) -> tuple[Table, CategoryMapping]:
        """The table of the rows read, with each text column's cells coded by
        their position in the sorted list of its distinct cells."""
        if self.reread:
            self.reread_text(paths)
        categories = {}
        for c in sorted(self.ids):
            ids = self.ids[c]
            cats = tuple(sorted(ids))
            code = np.empty(len(cats))
            code[[ids[s] for s in cats]] = np.arange(len(cats))
            col = self.column(c)[:self.rows]
            col[:] = code[col.astype(np.intp)]
            categories[self.header[c]] = cats
        features = tuple(name for c, name in enumerate(self.header) if c != self.label)
        return (Table(features, self.header[self.label], self.X[:self.rows], self.y[:self.rows]),
                CategoryMapping(categories))


def load_csv(path, label_column: str) -> tuple[Table, CategoryMapping, CleaningReport]:
    """Load one CSV file: `load_csv_merged` of a single path."""
    return load_csv_merged([path], label_column)


def load_csv_merged(paths, label_column: str,
                    excluded=()) -> tuple[Table, CategoryMapping, CleaningReport]:
    """Load and concatenate several CSV files sharing one header.

    Columns whose cells all parse as numbers (Python `float()`) are numeric;
    the rest are categorical: they get integer-coded in lexicographic
    category order, over the merged data, so codes are consistent across
    source files, and become keys of the returned mapping. `label_column`
    becomes the table's label (coded the same way when textual).
    Data lines that repeat the header verbatim are dropped and counted;
    completely blank lines are skipped. The cells of the `excluded`
    columns other than the label are not parsed: each such column is all NaN
    and gets no categories, so that `clean_table` can drop it by name. The
    module docstring says how the files are read and when a load fails.
    """
    if not paths:
        raise TableError("no input files given")
    capacity = sum(map(_line_ends, paths))
    first = None  # the first file's header
    columns = None
    for path in paths:
        with _open(path) as fh:
            lines = _byte_lines(fh)
            header, number = _read_header(path, lines)
            if first is None:
                first = header
                if label_column in header and len(set(header)) == len(header):
                    columns = _Columns(header, label_column, capacity, excluded)
            if columns is None or header != first:
                # a file is read to its end before its header is judged, so
                # that a ragged row in it is reported first
                _check_rows(path, header, lines, number)
                if header != first:
                    raise TableError(f"{path}: header differs from {paths[0]}")
            else:
                columns.read(path, lines, number)
    if label_column not in first:
        raise TableError(f"{paths[0]}: header has no column {label_column!r}")
    if columns is None:
        raise TableError(f"{paths[0]}: duplicate column names in header")
    table, mapping = columns.finish(paths)
    report = CleaningReport()
    report.count_rows(REASON_REPEATED_HEADER, columns.repeated)
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
