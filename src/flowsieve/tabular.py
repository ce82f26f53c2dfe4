"""Table model, CSV ingestion, and the flow-table cleaning pipeline.

A Table is its feature names, its label's name, one immutable, C-ordered
float64 feature matrix (every column but the label, in header order) and the
label vector, so a table is stored and rebuilt as them
(`Table(feature_names, label_name, X, y)`), never as text. Text columns are
integer-coded at load time (codes are positions in a lexicographically sorted
category list) so every cell is a float64; the code-to-text correspondence
lives in a CategoryMapping, and a column is categorical exactly when it is
one of the mapping's keys. Only cleaning reads that: `plan_cleaning` exempts
category codes from the row checks and from normalization. Cleaning never
mutates: `plan_cleaning` finds the rows and columns to keep, each kept
column's normalization and the narrowest type that holds its kept cells
exactly, as whole numbers x * 10**p of the fewest decimal places p where
they are, with a CleaningReport describing what was removed and why; the
kept cells are copied out of the loaded matrix a block of rows at a time
where the cleaned table is written (`pipeline.stage_preprocess`), so the
cleaned matrix is never held beside the loaded one, and normalized where it
is read back (`pipeline.load_preprocessed`). A per-attack dataset is a list
of row indices into the cleaned table plus 0/1 labels (`split_by_attack`);
scoring reads those rows straight from the cleaned table (`dataset_rows`,
`row_blocks`), and `subtable` builds a table from them where one is needed.

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
columns the caller excludes are not kept at all. A quote-free chunk is held
once, as its raw lines, which np.loadtxt decodes one at a time as it parses
them into a block of the chunk's rows. If a column turns out textual after
earlier rows parsed it as numbers, that matrix is released and the files
are read once more, with every text column textual from the first row.
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
# Rows copied at a time by `subtable` before it gathers their columns (79 KB
# at 77 features). The row buffer stays under 128 KiB, so it comes from the
# heap rather than from a fresh mmap, which a 1024-row block (632 KB) took on
# every call. On one CPU, 150k rows x 30 of 77 columns take 25-27 ms, against
# 23-26 ms with 1024-row blocks, 43 ms for one np.ix_ gather and 48 ms for
# whole-array row then column takes; 800 rows x 30 of 77 take 167 us against
# 320-390 us with 1024-row blocks
SUBTABLE_BLOCK = 128
# Rows checked and typed at a time by cleaning, and rows of the cleaned
# table gathered and written, and read back and normalized, at a time: at 80 columns a block of
# whole rows is 160 KB, which stays in cache through the gather and the
# normalization, and is all that cleaning holds of the cleaned matrix. On a
# 200k x 80 table, gathering, normalizing and writing take 0.11-0.12 s in
# blocks of 256 to 1024 rows, 0.12-0.15 s in blocks of 128 or 4096, and
# 0.18 s as one gather written by np.savez
CLEAN_BLOCK = 256
# The types a kept column's cells are stored in, narrowest first: a column
# whose every kept cell x is k / 10**p bit for bit, k = rint(x * 10**p) a
# whole number from 0, is stored as its k in the first unsigned integer type
# whose limit (_STORED_LIMITS) is above them all, and float64 holds every
# other column: one with a -0.0 or negative cell, or one that no p up to
# MOST_PLACES and no integer type holds
STORED_TYPES = (np.dtype("u1"), np.dtype("<u2"), np.dtype("<u4"), np.dtype("<f8"))
_STORED_LIMITS = (2.0 ** 8, 2.0 ** 16, 2.0 ** 32)
# the most decimal places p whose 10**p a u4 holds: 10**9 < 2**32 < 10**10;
# SCALES[p] is 10**p, exact, from an int rather than a float pow
MOST_PLACES = int(np.log10(_STORED_LIMITS[-1]))
SCALES = np.array([10 ** p for p in range(MOST_PLACES + 1)], dtype=np.float64)


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
    the label vector `labels`: how a per-attack table, or one of its train
    and test tables, is built from the cleaned table when it is needed. The
    rows, which must lie in range (`dataset_rows` checks them), are gathered
    SUBTABLE_BLOCK at a time, then their columns, so the gather holds one
    block of whole rows besides the result."""
    names = tuple(names)
    position = {name: j for j, name in enumerate(t.feature_names)}
    for name in names:
        if name == t.label_name:
            raise TableError("label column cannot be selected as a feature")
        if name not in position:
            raise TableError(f"no column named {name!r}")
    idx = np.array([position[name] for name in names], dtype=np.intp)
    rows, labels = dataset_rows(t, rows, labels)
    X = np.empty((len(rows), len(idx)))
    for start, block in row_blocks(t.X, rows, SUBTABLE_BLOCK):
        block.take(idx, axis=1, out=X[start:start + len(block)], mode="clip")
    return Table(names, t.label_name, X, labels)


def dataset_rows(t: Table, rows=None, labels=None) -> tuple[np.ndarray, np.ndarray]:
    """A row subset of `t` as an index array and its label vector: `rows`
    and `labels` as `split_by_attack` gives them, or, by default, every row
    of `t` and `t.y`. Missing labels are `t.y` at the rows."""
    rows = np.arange(t.row_count) if rows is None else np.asarray(rows, dtype=np.intp)
    if rows.size and (rows.min() < 0 or rows.max() >= t.row_count):
        raise TableError(f"row indices must lie in [0, {t.row_count})")
    labels = t.y[rows] if labels is None else np.asarray(labels, dtype=np.float64)
    if labels.shape != rows.shape:
        raise TableError(f"{len(rows)} rows but {len(labels)} labels")
    return rows, labels


def row_blocks(X: np.ndarray, rows: np.ndarray, size: int):
    """(start, X[rows[start:start + size]]) for each block of `size` rows in
    `rows`, in order: a row subset of X, copied a block at a time into one
    buffer, which the next block overwrites. `rows` must lie in range (as
    `dataset_rows` checks): the copy does not check them again."""
    buf = np.empty((min(size, len(rows)), X.shape[1]), dtype=X.dtype)
    for start in range(0, len(rows), size):
        idx = rows[start:start + size]
        # np.take checks no index in "clip" mode, and so needs no buffer of its own
        yield start, np.take(X, idx, axis=0, out=buf[:len(idx)], mode="clip")


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


# lines parsed, and rows of a text column coded, at a time: bounds what a
# load holds besides its table
_CHUNK_LINES = 1 << 9
_BLOCK_BYTES = 1 << 16  # bytes read from a file at a time


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


def _is_plain(chunk: list[bytes]) -> bool:
    """Whether every raw line of `chunk` splits at its commas exactly as
    csv.reader splits it: ASCII without a quote or a NUL (which csv.reader
    rejects before Python 3.11), ended by \\n or \\r\\n, and no longer than
    the csv field limit."""
    text = b"".join(chunk)
    return (text.isascii() and b'"' not in text and b"\0" not in text
            and text.count(b"\r") == text.count(b"\r\n")
            and max(map(len, chunk)) <= csv.field_size_limit())


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
    the numbers into lexicographic category codes. The columns `text` are
    textual from the first row; `late` is set when another column turns
    textual after rows were parsed as numbers."""

    def __init__(self, header: list[str], label_column: str, capacity: int, excluded,
                 text=()):
        self.header = header
        # the raw lines a quote-free chunk drops: repeats of the header, then
        # blank lines; a header name with a comma is quoted, so never in one
        line = ",".join(header).encode()
        self.header_lines = () if any("," in name for name in header) else (
            line + b"\n", line + b"\r\n", line)
        self.dropped = self.header_lines + (b"\n", b"\r\n")
        self.label = header.index(label_column)
        self.X = np.empty((capacity, len(header) - 1))
        self.y = np.empty(capacity)
        self.rows = 0
        self.repeated = 0
        self.skipped = {c for c, name in enumerate(header) if name in excluded and c != self.label}
        for c in self.skipped:
            self.column(c)[:] = np.nan
        self.numeric = set(range(len(header))) - self.skipped - set(text)
        self.ids: dict[int, dict[str, int]] = {c: {} for c in text}
        self.late = False

    def column(self, c: int) -> np.ndarray:
        """Header column `c` as a writable view of the matrix or the labels."""
        return self.y if c == self.label else self.X[:, c - (c > self.label)]

    def to_text(self, c: int) -> None:
        """Make column `c` textual from the rows being added on."""
        self.numeric.remove(c)
        self.ids[c] = {}
        self.late = self.late or self.rows > 0

    def number(self, c: int, cells, start: int) -> None:
        """Write the ids of text column `c`'s `cells` from row `start` on."""
        ids = self.ids[c]
        for cell in set(cells).difference(ids):
            ids[cell] = len(ids)
        self.column(c)[start:start + len(cells)] = np.fromiter(map(ids.__getitem__, cells),
                                                               np.float64, len(cells))

    def room(self, path, count: int) -> int:
        """The first of `count` rows to add, once there is room for them."""
        if self.rows + count > len(self.y):
            raise TableError(f"{path}: file grew while it was read")
        return self.rows

    def read(self, path, lines, number: int) -> None:
        """Parse the rest of the raw `lines` of `path`, after line `number`, in
        chunks: quote-free chunks with np.loadtxt, the others with csv.reader."""
        while chunk := list(itertools.islice(lines, _CHUNK_LINES)):
            if _is_plain(chunk) and self.add_lines(path, chunk):
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

    def add_lines(self, path, chunk: list[bytes]) -> bool:
        """Add the quote-free raw lines `chunk`, if np.loadtxt takes them.
        Blank lines and repeated headers go; loadtxt parses the rest, decoded
        one at a time as it reads them, into a block of their rows, with one
        field per header column: the numeric columns as float64, the text and
        excluded columns as their cells, of which only the text columns' are
        kept. False, with no row added, where it rejects a line: a row of
        another length than the header, or a cell it does not take as a
        number."""
        repeated = sum(map(chunk.count, self.header_lines))
        data = [line for line in chunk if line not in self.dropped]
        if not data:
            self.repeated += repeated
            return True
        first = data[0].decode("ascii").rstrip("\r\n").split(",")
        if len(first) == len(self.header):
            for c in [c for c in self.numeric if not _is_number(first[c])]:
                self.to_text(c)
        runs = self.runs()
        try:
            block = np.loadtxt(map(bytes.decode, data),
                               dtype=[(f"c{c}", object if kind in "st" else np.float64, (k,))
                                      for c, k, kind in runs],
                               delimiter=",", comments=None, ndmin=1, max_rows=len(data))
        except ValueError:
            return False
        self.repeated += repeated
        start = self.room(path, len(data))
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
        self.rows += len(data)
        return True

    def add_rows(self, path, rows: list[list[str]]) -> None:
        """Add the data `rows`: a column's cells are numbers if float() takes
        every one of them, else the column is textual from now on."""
        if not rows:
            return
        start = self.room(path, len(rows))
        for c in sorted(self.numeric.union(self.ids)):  # all but the excluded
            cells = [row[c] for row in rows]
            if c in self.numeric:
                try:
                    self.column(c)[start:start + len(rows)] = np.fromiter(
                        map(float, cells), np.float64, len(cells))
                    continue
                except ValueError:
                    self.to_text(c)
            self.number(c, cells, start)
        self.rows += len(rows)

    def finish(self) -> tuple[Table, CategoryMapping]:
        """The table of the rows read, with each text column's cells coded by
        their position in the sorted list of its distinct cells."""
        categories = {}
        for c in sorted(self.ids):
            ids = self.ids[c]
            cats = tuple(sorted(ids))
            code = np.empty(len(cats))
            code[[ids[s] for s in cats]] = np.arange(len(cats))
            col = self.column(c)
            for start in range(0, self.rows, _CHUNK_LINES):
                at = col[start:min(start + _CHUNK_LINES, self.rows)]
                # every id indexes `code`, so "clip" changes none
                np.take(code, at.astype(np.intp), out=at, mode="clip")
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
    and gets no categories, so that `plan_cleaning` drops it by name. The
    module docstring says how the files are read and when a load fails.
    """
    if not paths:
        raise TableError("no input files given")
    capacity = sum(map(_line_ends, paths))
    columns = _read_files(paths, label_column, capacity, excluded)
    if columns.late:
        text = set(columns.ids)
        del columns  # the first read's matrix goes before the second's is allocated
        columns = _read_files(paths, label_column, capacity, excluded, text)
        if columns.late:
            raise TableError(f"{paths[0]}: a column turned textual only when the files "
                             "were read again; did they change while they were read?")
    table, mapping = columns.finish()
    report = CleaningReport()
    report.count_rows(REASON_REPEATED_HEADER, columns.repeated)
    return table, mapping, report


def _read_files(paths, label_column: str, capacity: int, excluded, text=()) -> _Columns:
    """Read the files into a `_Columns` of `capacity` rows, the columns
    `text` textual from the first row."""
    first = None  # the first file's header
    columns = None
    for path in paths:
        with _open(path) as fh:
            lines = _byte_lines(fh)
            header, number = _read_header(path, lines)
            if first is None:
                first = header
                if label_column in header and len(set(header)) == len(header):
                    columns = _Columns(header, label_column, capacity, excluded, text)
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
    return columns


def _valid_rows(X: np.ndarray, checked, report: CleaningReport) -> np.ndarray:
    """Mask of the rows whose `checked` cells are finite and not negative;
    `report` counts the others. The rows are checked CLEAN_BLOCK at a time."""
    non_finite = np.empty(len(X), dtype=bool)
    negative = np.empty(len(X), dtype=bool)
    for start in range(0, len(X), CLEAN_BLOCK):
        at = slice(start, start + CLEAN_BLOCK)
        non_finite[at] = ~np.isfinite(X[at]).all(axis=1, where=checked)
        negative[at] = (X[at] < 0).any(axis=1, where=checked) & ~non_finite[at]
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


@dataclass(frozen=True, eq=False)
class CleaningPlan:
    """What cleaning keeps of a table and how it normalizes and stores it:
    the kept rows and feature columns of its matrix, as indices in order,
    the kept features' names, the kept rows' labels, for each kept column
    the `lo` and `span` of its (x - lo) / span, the position in
    STORED_TYPES of the type that holds its kept cells and their decimal
    places p, stored as rint(x * 10**p) (0 for f8), and the position of the
    labels' type, which hold whole numbers (p = 0) or are f8."""

    feature_names: tuple[str, ...]
    rows: np.ndarray
    cols: np.ndarray
    y: np.ndarray
    lo: np.ndarray
    span: np.ndarray
    types: np.ndarray
    places: np.ndarray
    y_type: int


def _exact(cells: np.ndarray, scale) -> np.ndarray:
    """Per column of `cells`, whether each cell x is k / scale bit for bit,
    k = rint(x * scale): equal to it and without a sign bit (no -0.0, no
    negative; NaN is equal to nothing)."""
    k = cells * scale
    np.rint(k, out=k)
    k /= scale
    return ((k == cells) > np.signbit(cells)).all(axis=0)


def _stored_types(blocks, width: int,
                  most: int = MOST_PLACES) -> tuple[np.ndarray, np.ndarray]:
    """For each of the `width` columns of the (start, block of rows) pairs
    `blocks`, the position in STORED_TYPES of the type its cells are stored
    in and their decimal places, both as uint8: the fewest places p, up to
    `most`, for which each cell is k / 10**p bit for bit (`_exact`), and the
    narrowest integer type holding every such k; f8 and 0 places where none
    does.

    A column's p is carried from block to block and only grows, so each
    block is checked once at the p so far, and only a column it refutes is
    tried at more places. That holds because a cell x = k / 10**p is also
    (k 10**d) / 10**(p + d) while k 10**d < 2**32: that product and
    10**(p + d) are exact float64, so the division rounds the same real
    number k / 10**p, and rint(x 10**(p + d)) is k 10**d, from which
    x 10**(p + d) is less than 2**32 * 2**-52 away. Whether every k fits is
    checked once, at the end: rint(x * 10**p) grows with x, so the column's
    largest cell has the largest k, and a column whose k outgrows u4 at the
    fewest places its cells need has no places at all."""
    places = np.zeros(width, dtype=np.uint8)
    inexact = np.zeros(width, dtype=bool)
    top = np.zeros(width)
    # a cell near the float64 limit overflows to inf at more places: no k
    with np.errstate(over="ignore"):
        for _, block in blocks:
            for j in np.flatnonzero(~_exact(block, SCALES[places]) > inexact):
                p = next((p for p in range(places[j] + 1, most + 1)
                          if _exact(block[:, j:j + 1], SCALES[p])[0]), None)
                if p is None:
                    inexact[j] = True
                else:
                    places[j] = p
            np.maximum(top, block.max(axis=0, initial=0.0), out=top)
        types = np.searchsorted(_STORED_LIMITS, np.rint(top * SCALES[places]),
                                side="right").astype(np.uint8)
    types[inexact] = len(_STORED_LIMITS)
    places[types == len(_STORED_LIMITS)] = 0
    return types, places


def plan_cleaning(t: Table, mapping: CategoryMapping,
                  excluded) -> tuple[CleaningPlan, CleaningReport]:
    """How to clean, min-max normalize and store `t`, and what cleaning
    removes: the `excluded` columns, the single-valued columns, the rows with
    a non-finite, else a negative, numeric cell, and then the columns that
    row removal left single-valued. Each numeric column becomes (x - min) /
    (max - min), by the extrema over the kept rows that also find the columns
    row removal left single-valued; categorical columns go through as
    (x - 0) / 1, which leaves every code as it is. A feature is numeric
    unless `mapping` holds its categories. Each kept column's stored type
    and decimal places, and the labels' type (whole numbers only), are
    picked from its kept cells in one pass of CLEAN_BLOCK rows at a time
    (`_stored_types`). No kept cell is copied here."""
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
    rows = np.flatnonzero(rows)
    numeric = numeric[keep]
    lo = np.where(numeric, lo[keep], 0.0)
    hi = np.where(numeric, hi[keep], 1.0)
    # which signed zero a min returns depends on the order it visits the
    # cells; take a zero minimum from the kept cells of the column alone, as
    # a pass over the cleaned column does. A kept numeric column's maximum is
    # above 0, so it has no such choice
    for j in np.flatnonzero(numeric & (lo == 0.0)):
        lo[j] = t.X[rows, keep[j]].min()
    types, places = _stored_types(row_blocks(t.X, rows, CLEAN_BLOCK), len(t.feature_names))
    y = t.y[rows]
    y_type, _ = _stored_types([(0, y[:, None])], 1, most=0)
    plan = CleaningPlan(tuple(t.feature_names[j] for j in keep), rows, keep, y, lo, hi - lo,
                        types[keep], places[keep], int(y_type[0]))
    return plan, report


def _resolve_label_code(label_name: str, mapping: CategoryMapping, value) -> float:
    """The coded value of the label `value` in the label column `label_name`:
    a text label's category code, or the number it stands for if the label
    column has no categories."""
    if isinstance(value, str) and label_name in mapping.categories:
        return float(mapping.encode(label_name, value))
    try:
        return float(value)
    except ValueError:
        raise TableError(f"label {value!r} is not a number, and the label column "
                         f"{label_name!r} holds only numbers") from None


def split_by_attack(y: np.ndarray, label_name: str, mapping: CategoryMapping, attack_labels,
                    benign_label) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Each attack's dataset as (rows, labels) of a table whose label column
    `label_name` is `y`: the indices of all benign rows plus that attack's
    rows, in table order, and their labels coded 0/1. The scorers read them
    from the table `t` as they are; `subtable(t, rows, labels,
    t.feature_names)` builds the dataset's table.

    Labels may be given as category text (resolved through `mapping`), as
    the text of a number in a numeric label column, or as raw numeric label
    values. A table without benign rows, or an attack with no rows, is an
    error.
    """
    benign_mask = y == _resolve_label_code(label_name, mapping, benign_label)
    if not benign_mask.any():
        raise TableError(f"no rows carry the benign label {benign_label!r}")
    out = {}
    for attack in attack_labels:
        attack_mask = y == _resolve_label_code(label_name, mapping, attack)
        if not attack_mask.any():
            raise TableError(f"attack label {attack!r} has no rows")
        rows = np.flatnonzero(benign_mask | attack_mask)
        out[str(attack)] = (rows, attack_mask[rows].astype(np.float64))
    return out
