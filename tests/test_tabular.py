import pathlib
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from flowsieve import tabular
from flowsieve.tabular import (CategoryMapping, Table, TableError, clean_table,
                               drop_invalid_rows, load_csv, load_csv_merged,
                               split_by_attack, subtable)

from helpers import make_table, rows_of


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_csv_types_and_encodes(tmp_path):
    path = write(tmp_path, "t.csv", "a,b,Label\n1,x,Benign\n2,y,Attack\n")
    t, mapping, report = load_csv(path, "Label")
    assert t.row_count == 2 and t.column_count == 3
    assert (t.feature_names, t.label_name) == (("a", "b"), "Label")
    assert t.column("b").tolist() == [0.0, 1.0]          # x -> 0, y -> 1
    assert t.y.tolist() == [1.0, 0.0]                    # Attack -> 0, Benign -> 1
    assert mapping.to_json() == {"b": ["x", "y"], "Label": ["Attack", "Benign"]}
    assert report.dropped_row_counts == {}


def test_load_csv_repeated_header(tmp_path):
    path = write(tmp_path, "t.csv", "a,Label\n1,Benign\na,Label\n2,Attack\n")
    t, _, report = load_csv(path, "Label")
    assert t.row_count == 2
    assert report.dropped_row_counts == {"repeated-header": 1}


def test_load_csv_errors(tmp_path):
    with pytest.raises(TableError, match="cannot open"):
        load_csv(tmp_path / "missing.csv", "Label")
    empty = write(tmp_path, "empty.csv", "")
    with pytest.raises(TableError, match="empty file"):
        load_csv(empty, "Label")
    no_label = write(tmp_path, "n.csv", "a,b\n1,2\n")
    with pytest.raises(TableError, match="no column 'Label'"):
        load_csv(no_label, "Label")
    ragged = write(tmp_path, "r.csv", "a,b,Label\n1,2,Benign\n1,Benign\n")
    with pytest.raises(TableError, match="line 3"):
        load_csv(ragged, "Label")


def test_load_csv_quoted_cells(tmp_path):
    path = write(tmp_path, "q.csv", 'a,Label\n"1.5","Benign, mostly"\n2,Attack\n')
    t, mapping, _ = load_csv(path, "Label")
    assert t.column("a").tolist() == [1.5, 2.0]
    assert "Benign, mostly" in mapping.categories["Label"]


def test_load_csv_merged_consistent_codes(tmp_path):
    p1 = write(tmp_path, "1.csv", "a,Label\n1,Attack\n")
    p2 = write(tmp_path, "2.csv", "a,Label\n2,Benign\n")
    t, mapping, _ = load_csv_merged([p1, p2], "Label")
    assert t.row_count == 2
    assert mapping.categories["Label"] == ("Attack", "Benign")
    p3 = write(tmp_path, "3.csv", "z,Label\n1,Attack\n")
    with pytest.raises(TableError, match="header differs"):
        load_csv_merged([p1, p3], "Label")


NO_CATEGORIES = CategoryMapping({})


def test_clean_table_excluded_columns():
    t = make_table({"a": [1, 2], "b": [3, 4], "c": [5, 6]}, [0, 1])
    out, report = clean_table(t, NO_CATEGORIES, ["b"])
    assert out.feature_names == ("a", "c")
    assert report.dropped_columns == [("b", "excluded-by-name")]

    same, report = clean_table(t, NO_CATEGORIES, [])
    assert same.feature_names == t.feature_names
    assert report.dropped_columns == []

    same, report = clean_table(t, NO_CATEGORIES, ["nope"])
    assert same.feature_names == t.feature_names
    assert report.absent_columns == ["nope"]

    with pytest.raises(TableError, match="label"):
        clean_table(t, NO_CATEGORIES, ["Label"])


def test_clean_table_single_valued_columns():
    t = make_table({"zero": [0, 0, 0], "keep": [0, 0, 1]}, [0, 1, 0])
    out, report = clean_table(t, NO_CATEGORIES, [])
    assert out.feature_names == ("keep",)
    assert report.dropped_columns == [("zero", "single-valued")]
    # a label-only survivor is legal but warned about
    t2 = make_table({"zero": [0, 0]}, [0, 1])
    with pytest.warns(UserWarning, match="label column only"):
        out2, _ = clean_table(t2, NO_CATEGORIES, [])
    assert (out2.feature_names, out2.label_name) == ((), "Label")


CELLS = (np.nan, np.inf, -np.inf, -1.5, -0.0, 0.0, 0.5, 2.0, 3.25)


@st.composite
def dirty_tables(draw):
    """A small table of flow-like defects, as (names, kinds, rows) with the
    label at a random position, and a list of names to exclude."""
    d = draw(st.integers(0, 5))
    kinds = draw(st.lists(st.sampled_from(["numeric", "categorical"]), min_size=d, max_size=d))
    label_at = draw(st.integers(0, d))
    kinds.insert(label_at, "label")
    names = [f"f{j}" for j in range(d)]
    names.insert(label_at, "Label")
    # each column draws from a few values, so constant columns are common
    pools = [draw(st.lists(st.sampled_from(CELLS) if kind == "numeric"
                           else st.sampled_from((0.0, 1.0, 2.0)), min_size=1, max_size=3))
             for kind in kinds]
    n = draw(st.integers(0, 8))
    rows = [[draw(st.sampled_from(pool)) for pool in pools] for _ in range(n)]
    features = [name for name in names if name != "Label"]
    excluded = draw(st.lists(st.sampled_from([*features, "absent", "Flow ID"]), max_size=3))
    return names, kinds, rows, excluded


@settings(max_examples=300, deadline=None)
@given(dirty_tables())
def test_clean_table_equals_the_step_by_step_rules(case):
    names, kinds, rows, excluded = case
    li = kinds.index("label")
    cells = np.array(rows, dtype=np.float64).reshape(len(rows), len(names))
    t = Table(tuple(n for n in names if n != "Label"), "Label", np.delete(cells, li, axis=1),
              cells[:, li])
    # the codes themselves do not matter to cleaning, only which columns have them
    mapping = CategoryMapping({n: ("0", "1", "2") for n, k in zip(names, kinds)
                               if k == "categorical"})
    want_columns, want_rows, want_report, want_warnings = ref.clean_ref(
        list(zip(names, kinds)), rows, excluded)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out, report = clean_table(t, mapping, excluded)
    assert [str(w.message) for w in caught] == want_warnings
    assert report.to_json() == want_report
    wl = [k for _, k in want_columns].index("label")
    assert out.label_name == want_columns[wl][0]
    assert list(out.feature_names) == [n for n, k in want_columns if k != "label"]
    want = np.array(want_rows, dtype=np.float64).reshape(len(want_rows), len(want_columns))
    assert out.X.tobytes() == np.delete(want, wl, axis=1).tobytes()
    assert out.y.tobytes() == want[:, wl].tobytes()


def test_drop_invalid_rows_reasons():
    t = make_table({"a": [1.0, -np.inf, -3.0, np.nan, 2.0]}, [0, 1, 0, 1, 0])
    out, report = drop_invalid_rows(t)
    assert out.row_count == 2
    assert out.column("a").tolist() == [1.0, 2.0]
    assert report.dropped_row_counts == {"non-finite": 2, "negative": 1}


def test_drop_invalid_rows_counts_once():
    # -inf and negative in the same row: counted once, under non-finite
    t = make_table({"a": [-np.inf, 1.0], "b": [-5.0, 2.0]}, [0, 1])
    _, report = drop_invalid_rows(t)
    assert report.dropped_row_counts == {"non-finite": 1}


def test_clean_table_skips_categoricals_in_the_row_checks():
    # negative categorical codes never occur, but categorical cells are ignored
    t = make_table({"cat": [-1.0, 0.0], "num": [1.0, 2.0]}, [0, 1])
    out, report = clean_table(t, CategoryMapping({"cat": ("x", "y")}), [])
    assert out.row_count == 2
    assert report.dropped_row_counts == {}
    _, report = drop_invalid_rows(t)  # which checks every feature
    assert report.dropped_row_counts == {"negative": 1}


def test_drop_invalid_rows_identity():
    t = make_table({"a": [0.0, 1.0], "b": [2.0, 3.0]}, [0, 1])
    out, report = drop_invalid_rows(t)
    assert out.row_count == 2
    assert report.dropped_row_counts == {}


def test_minmax_normalize_values():
    t = make_table({"a": [0.0, 5.0, 10.0], "b": [2.0, 4.0, 8.0]}, [0, 1, 0])
    out, _ = clean_table(t, NO_CATEGORIES, [])
    assert out.column("a").tolist() == [0.0, 0.5, 1.0]
    assert out.column("b").tolist() == [0.0, (4.0 - 2.0) / 6.0, 1.0]
    assert out.y.tolist() == [0.0, 1.0, 0.0]


def test_minmax_normalize_fixed_point_and_idempotence():
    t = make_table({"a": [0.0, 1.0, 1.0, 0.0]}, [0, 1, 0, 1])
    once, _ = clean_table(t, NO_CATEGORIES, [])
    assert once.column("a").tolist() == [0.0, 1.0, 1.0, 0.0]
    rng = np.random.default_rng(7)
    t2 = make_table({"x": rng.random(50) * 9 + 1}, rng.integers(0, 2, 50))
    once, _ = clean_table(t2, NO_CATEGORIES, [])
    twice, _ = clean_table(once, NO_CATEGORIES, [])
    assert np.array_equal(once.column("x"), twice.column("x"))
    assert once.column("x").min() == 0.0 and once.column("x").max() == 1.0


def test_minmax_never_divides_by_a_zero_span():
    # a column single-valued on the kept rows is dropped, not normalized
    # to 0 / 0, whether it was constant from the start or became so
    t = make_table({"a": [3.0, 3.0, 3.0], "late": [1.0, 1.0, -1.0], "b": [0.0, 1.0, 2.0]},
                   [0, 1, 0])
    with pytest.warns(UserWarning, match="single-valued after row cleaning.*: late"):
        out, report = clean_table(t, NO_CATEGORIES, [])
    assert out.feature_names == ("b",)
    assert report.dropped_columns == [("a", "single-valued"), ("late", "single-valued")]
    assert out.column("b").tolist() == [0.0, 1.0]


def test_minmax_equals_the_column_formula_with_signed_zeros():
    # which zero a min returns depends on the order it visits the cells, and
    # (-0.0 - lo) keeps the sign of a -0.0 cell only if lo is +0.0
    for seed in range(30):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(2, 200)), int(rng.integers(1, 7))
        X = rng.choice([0.0, -0.0, 0.5, 2.0], size=(n, d))
        X[:2] = [[2.0], [0.5]]  # no column is constant
        t = make_table({f"f{j}": X[:, j] for j in range(d)}, rng.integers(0, 2, n))
        cleaned, _ = clean_table(t, NO_CATEGORIES, [])
        for j in range(d):
            col = X[:, j].copy()
            want = (col - col.min()) / (col.max() - col.min())
            assert cleaned.column(f"f{j}").tobytes() == want.tobytes(), (seed, j)


def test_minmax_leaves_categorical_codes_alone():
    t = make_table({"cat": [0.0, 3.0, 7.0], "num": [0.0, 1.0, 2.0]}, [0, 1, 0])
    out, _ = clean_table(t, CategoryMapping({"cat": tuple("abcdefgh")}), [])
    assert out.column("cat").tolist() == [0.0, 3.0, 7.0]
    assert out.column("num").tolist() == [0.0, 0.5, 1.0]


def test_cleaning_is_row_order_insensitive():
    rng = np.random.default_rng(11)
    values = rng.random(60)
    values[rng.choice(60, 8, replace=False)] = np.nan
    values[rng.choice(60, 5, replace=False)] = -1.0
    labels = rng.integers(0, 2, 60).astype(float)
    t = make_table({"a": values}, labels)
    perm = rng.permutation(60)
    t_perm = rows_of(t, perm)
    out1, rep1 = drop_invalid_rows(t)
    out2, rep2 = drop_invalid_rows(t_perm)
    assert rep1.dropped_row_counts == rep2.dropped_row_counts
    surv1 = sorted(zip(out1.column("a"), out1.y))
    surv2 = sorted(zip(out2.column("a"), out2.y))
    assert surv1 == surv2


def test_idempotent_cleaning_ops():
    t = make_table({"a": [1.0, np.inf, -2.0, 4.0], "const": [1.0, 1.0, 1.0, 1.0]},
                   [0, 1, 0, 1])
    once, _ = drop_invalid_rows(t)
    twice, rep = drop_invalid_rows(once)
    assert twice.row_count == once.row_count and rep.dropped_row_counts == {}
    once, _ = clean_table(t, NO_CATEGORIES, [])
    twice, rep = clean_table(once, NO_CATEGORIES, [])
    assert twice.feature_names == once.feature_names == ("a",)
    assert rep.dropped_columns == [] and rep.dropped_row_counts == {}
    assert twice.X.tobytes() == once.X.tobytes()


def test_category_round_trip(tmp_path):
    rows = ["c,Label"] + [f"cat{i % 5},{'Benign' if i % 3 else 'Attack'}" for i in range(30)]
    path = tmp_path / "c.csv"
    path.write_text("\n".join(rows) + "\n")
    t, mapping, _ = load_csv(path, "Label")
    for name, want in (("c", [f"cat{i % 5}" for i in range(30)]),
                       ("Label", [("Benign" if i % 3 else "Attack") for i in range(30)])):
        codes = t.column(name)
        assert np.array_equal(codes, codes.astype(int)), name
        assert [mapping.categories[name][int(c)] for c in codes] == want, name
        assert [mapping.encode(name, v) for v in want] == codes.tolist(), name


def test_split_by_attack_binarizes():
    t = make_table({"a": [1, 2, 3, 4, 5]}, [0, 1, 2, 0, 1])
    mapping = CategoryMapping({"Label": ("Benign", "FTP", "SSH")})
    out = split_by_attack(t, mapping, ["FTP", "SSH"], "Benign")
    assert set(out) == {"FTP", "SSH"}
    rows, labels = out["FTP"]
    assert rows.tolist() == [0, 1, 3, 4]  # 2 benign + 2 FTP, in table order
    assert labels.tolist() == [0.0, 1.0, 0.0, 1.0]
    rows, labels = out["SSH"]
    assert rows.tolist() == [0, 2, 3]
    assert labels.tolist() == [0.0, 1.0, 0.0]
    ssh = subtable(t, rows, labels, t.feature_names)
    assert ssh.column("a").tolist() == [1.0, 3.0, 4.0]
    assert ssh.y.tolist() == [0.0, 1.0, 0.0]


def test_split_by_attack_absent_label():
    t = make_table({"a": [1, 2]}, [0, 1])
    mapping = CategoryMapping({"Label": ("Benign", "FTP", "Rare")})
    with pytest.raises(TableError, match="'Rare' has no rows"):
        split_by_attack(t, mapping, ["Rare"], "Benign")
    with pytest.raises(TableError, match="not a known category"):
        split_by_attack(t, mapping, ["Unknown"], "Benign")


def test_split_by_attack_numeric_labels():
    # raw numeric label values work without any category mapping
    t = make_table({"a": [1, 2, 3, 4]}, [0, 7, 0, 7])
    out = split_by_attack(t, CategoryMapping({}), [7.0], 0.0)
    assert out["7.0"][1].tolist() == [0.0, 1.0, 0.0, 1.0]


def test_split_by_attack_no_benign_rows_errors():
    t = make_table({"a": [1, 2]}, [1, 1])
    mapping = CategoryMapping({"Label": ("Benign", "FTP")})
    with pytest.raises(TableError, match="no rows carry the benign label 'Benign'"):
        split_by_attack(t, mapping, ["FTP"], "Benign")


def test_table_invariants():
    with pytest.raises(TableError, match="duplicate"):
        Table(("a", "a"), "Label", np.zeros((1, 2)), np.array([1.0]))
    with pytest.raises(TableError, match="ragged"):
        Table(("a",), "Label", np.array([[1.0], [2.0]]), np.array([0.0]))
    with pytest.raises(TableError, match="ragged"):
        Table(("a",), "Label", np.array([[1.0, 2.0]]), np.array([0.0]))
    t = make_table({"a": [1.0]}, [0.0])
    with pytest.raises(ValueError):
        t.X[0, 0] = 5.0  # storage is read-only
    with pytest.raises(ValueError):
        t.y[0] = 5.0


def test_table_refuses_a_feature_named_like_the_label():
    with pytest.raises(TableError, match="a feature has the label's name 'Label'"):
        Table(("a", "Label"), "Label", np.zeros((1, 2)), np.array([1.0]))
    t = make_table({"a": [1.0]}, [0.0])
    with pytest.raises(TableError, match="label column cannot be selected"):
        subtable(t, [0], t.y, ["Label"])


def test_feature_matrix_is_the_table_storage():
    t = make_table({"a": [1.0, 2.0], "b": [3.0, 4.0]}, [0.0, 1.0])
    X = t.X
    assert t.column_count == 3
    assert np.shares_memory(X, t.column("a")) and np.shares_memory(X, t.column("b"))
    assert X.flags.c_contiguous and not X.flags.writeable


def test_row_and_feature_subsets_stay_c_ordered():
    rng = np.random.default_rng(4)
    t = make_table({f"f{j}": rng.random(30) for j in range(5)}, rng.integers(0, 2, 30))
    rows = rng.permutation(30)[:12]
    names = ["f3", "f0", "f4"]  # out of header order
    want = t.X[rows][:, [3, 0, 4]]
    parts = {"subtable of all rows": subtable(t, np.arange(30), t.y, names),
             "subtable": subtable(t, rows, t.y[rows], t.feature_names),
             "subtable of names": subtable(t, rows, t.y[rows], names)}
    for what, part in parts.items():
        assert part.X.flags.c_contiguous and not part.X.flags.writeable, what
    assert parts["subtable of all rows"].feature_names == ("f3", "f0", "f4")
    assert parts["subtable of names"].feature_names == ("f3", "f0", "f4")
    assert parts["subtable of names"].X.tobytes() == want.tobytes()
    assert parts["subtable"].X.tobytes() == t.X[rows].tobytes()
    assert np.array_equal(parts["subtable"].y, t.y[rows])


# ------------------------------------------------------------ chunked loading

EDGE_CELLS = ("Infinity", "-Infinity", "NaN", "-nan", "-0", "1e500", "-1e-400", "4.9e-324",
              " 5 ", "+5", ".5", "5.", "1_0", "١", "")
NUMBER_CELLS = ("0", "1", "2.5", "-3", "7e2", '"1.5"', "\t5\x0c") + EDGE_CELLS[:-3]
# raw cell text: quoted cells with an embedded comma, a doubled quote, line
# ends; a stray quote; non-ASCII text
TEXT_CELLS = ("x", "Benign", "b c", "é", '"a,b"', '"say ""hi"""', '"two\nlines"',
              '"x\r\ny"', 'a"b', "Label")
LINE_ENDS = ("\n", "\r\n", "\r")


@st.composite
def csv_files(draw):
    """One to three CSV texts sharing a header, with blank lines, repeated
    headers, mixed line ends, a column that may turn textual late, and now
    and then a ragged row or a header that differs."""
    d = draw(st.integers(0, 4))
    header = [f"f{j}" for j in range(d)]
    header.insert(draw(st.integers(0, d)), "Label")
    width = len(header)
    pools = [draw(st.sampled_from([NUMBER_CELLS, NUMBER_CELLS + EDGE_CELLS[-3:],
                                   NUMBER_CELLS + TEXT_CELLS])) for _ in header]
    late = draw(st.integers(0, width - 1))  # numeric until one of the last rows
    pools[late] = NUMBER_CELLS
    files = []
    for f in range(draw(st.integers(1, 3))):
        names = header
        if f and draw(st.integers(0, 9)) == 0:
            names = header[::-1] if width > 1 else ["other"]
        lines = [",".join(names)]
        for _ in range(draw(st.integers(0, 12))):
            kind = draw(st.sampled_from(["row"] * 9 + ["blank", "header", "ragged"]))
            if kind == "blank":
                lines.append("")
            elif kind == "header":
                lines.append(",".join(names))
            else:
                n = width + (draw(st.sampled_from([-1, 1])) if kind == "ragged" else 0)
                lines.append(",".join(draw(st.sampled_from(pools[j % width])) for j in range(n)))
        if draw(st.booleans()):
            cells = [draw(st.sampled_from(NUMBER_CELLS)) for _ in range(width)]
            cells[late] = draw(st.sampled_from(("x", "1_0", "")))
            lines.append(",".join(cells))
        ends = [draw(st.sampled_from(LINE_ENDS)) for _ in lines]
        if draw(st.booleans()):
            ends[-1] = ""  # no line end after the last line
        bom = "\ufeff" if draw(st.integers(0, 4)) == 0 else ""
        files.append(bom + "".join(line + end for line, end in zip(lines, ends)))
    return files


def load_outcome(load, paths):
    """What a load gives: the table, mapping and report, or the error text."""
    try:
        t, mapping, report = load(paths, "Label")
    except TableError as exc:
        return str(exc)
    return (t.feature_names, t.label_name, list(mapping.categories.items()), report.to_json(),
            t.X.tobytes(), t.y.tobytes())


@settings(max_examples=400, deadline=None)
@given(csv_files(), st.integers(1, 7), st.integers(1, 64))
def test_chunked_load_equals_the_whole_file_parse(texts, chunk_lines, block_bytes):
    saved = tabular._CHUNK_LINES, tabular._BLOCK_BYTES
    tabular._CHUNK_LINES, tabular._BLOCK_BYTES = chunk_lines, block_bytes
    try:
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for i, text in enumerate(texts):
                paths.append(pathlib.Path(tmp) / f"{i}.csv")
                paths[-1].write_bytes(text.encode("utf-8"))
            assert load_outcome(load_csv_merged, paths) == load_outcome(ref.load_csv_merged_ref,
                                                                         paths)
    finally:
        tabular._CHUNK_LINES, tabular._BLOCK_BYTES = saved


def test_a_column_textual_only_in_a_late_chunk_is_coded_over_all_rows(tmp_path, monkeypatch):
    monkeypatch.setattr(tabular, "_CHUNK_LINES", 2)
    p1 = write(tmp_path, "1.csv", "a,Label\n3,B\n1,A\n2,A\n")
    p2 = write(tmp_path, "2.csv", "a,Label\n1.0,B\nx,A\n")
    t, mapping, _ = load_csv_merged([p1, p2], "Label")
    assert mapping.categories["a"] == ("1", "1.0", "2", "3", "x")
    assert t.column("a").tolist() == [3.0, 0.0, 2.0, 1.0, 4.0]
    assert t.y.tolist() == [1.0, 0.0, 0.0, 1.0, 0.0]


@pytest.mark.parametrize("chunk_lines", [2, 8192])
def test_excluded_columns_are_not_parsed(tmp_path, monkeypatch, chunk_lines):
    # chunks of 2 lines: quote-free chunks through loadtxt, the quoted one
    # through csv.reader, and `late` turning textual in the last chunk
    monkeypatch.setattr(tabular, "_CHUNK_LINES", chunk_lines)
    path = write(tmp_path, "flows.csv",
                 "Timestamp,proto,a,late,Label\n"
                 "2018-02-14 08:00,tcp,1,3,Benign\n"
                 "2018-02-14 08:01,udp,2,1,Attack\n"
                 '"2018-02-14, 08:02",tcp,-1,2,Benign\n'
                 "2018-02-14 08:03,udp,4,1,Attack\n"
                 "2018-02-14 08:04,tcp,5,x,Benign\n")
    coded = []
    number = tabular._Columns.number
    monkeypatch.setattr(tabular._Columns, "number",
                        lambda self, c, cells, start: (coded.append(self.header[c]),
                                                       number(self, c, cells, start)))
    excluded = ["Timestamp", "late", "absent"]
    full, full_mapping, full_report = load_csv_merged([path], "Label")
    coded_full, coded[:] = set(coded), []
    t, mapping, report = load_csv_merged([path], "Label", excluded)
    assert coded_full == {"Timestamp", "proto", "late", "Label"}
    assert set(coded) == {"proto", "Label"}  # no distinct cells kept for the others
    assert t.feature_names == full.feature_names
    assert np.isnan(t.column("Timestamp")).all() and np.isnan(t.column("late")).all()
    assert mapping.categories == {k: v for k, v in full_mapping.categories.items()
                                  if k not in excluded}
    for name in ("proto", "a", "Label"):
        assert t.column(name).tobytes() == full.column(name).tobytes(), name
    assert report.to_json() == full_report.to_json()
    # cleaning drops them by name, as it would have the parsed columns
    got, got_report = clean_table(t, mapping, excluded)
    want, want_report = clean_table(full, full_mapping, excluded)
    assert got.feature_names == want.feature_names == ("proto", "a")
    assert got.X.tobytes() == want.X.tobytes() and got.y.tobytes() == want.y.tobytes()
    assert got_report.to_json() == want_report.to_json()
    # the label is parsed even if named: cleaning refuses to drop it, as before
    t, mapping, _ = load_csv_merged([path], "Label", ["Label"])
    assert t.y.tobytes() == full.y.tobytes()
    with pytest.raises(TableError, match="refusing to drop the label column"):
        clean_table(t, mapping, ["Label"])


def test_ragged_rows_fail_with_their_line_number(tmp_path):
    for name, text, line, cells in (
            ("long.csv", "a,b,Label\n1,2,B\n1,2,3,B\n", 3, 4),
            ("short.csv", "a,b,Label\n1,2,B\n\n1,B\n4,5,B\n", 4, 2),
            ("quoted.csv", 'a,b,Label\n1,2,B\n"x\ny",2\n', 4, 2)):
        path = write(tmp_path, name, text)
        with pytest.raises(TableError) as caught:
            load_csv(path, "Label")
        assert str(caught.value) == f"{path}: row at line {line} has {cells} cells, header has 3"


def test_a_file_that_grows_while_it_is_read_fails(tmp_path, monkeypatch):
    # the matrix is sized by a first pass over the files
    path = write(tmp_path, "t.csv", "a,Label\n1,B\n2,B\n3,B\n")
    monkeypatch.setattr(tabular, "_line_ends", lambda path: 2)
    with pytest.raises(TableError, match="t.csv: file grew while it was read"):
        load_csv(path, "Label")


def test_a_byte_that_is_not_utf8_names_its_file_and_line(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"a,Label\n1,Benign\n2,Caf\xe9\n")
    with pytest.raises(TableError) as caught:
        load_csv(path, "Label")
    assert str(caught.value) == (f"{path}: line 3 is not UTF-8 text: "
                                 "byte 0xe9 at column 6")


def test_a_cell_over_the_csv_field_limit_names_its_file_and_line(tmp_path):
    path = write(tmp_path, "wide.csv", "a,Label\n1,Benign\n" + "2," + "x" * 200_000 + "\n")
    with pytest.raises(TableError) as caught:
        load_csv(path, "Label")
    assert str(caught.value) == f"{path}: line 3: field larger than field limit (131072)"


def test_load_peak_memory_is_within_twice_the_matrix(tmp_path, monkeypatch):
    monkeypatch.setattr(tabular, "_CHUNK_LINES", 512)
    rng = np.random.default_rng(3)
    values = np.round(rng.random((20_000, 79)) * 1000, 3)
    labels = np.where(rng.random(20_000) < 0.2, "Attack", "Benign")
    header = ",".join([f"f{j}" for j in range(79)] + ["Label"])
    lines = [",".join(map(str, row)) + "," + label for row, label in zip(values.tolist(), labels)]
    path = write(tmp_path, "wide.csv", header + "\n" + "\n".join(lines) + "\n")
    del values, labels, lines
    tracemalloc.start()
    try:
        t, _, _ = load_csv(path, "Label")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t.X.shape == (20_000, 79)
    assert peak <= 2 * t.X.nbytes, (peak, t.X.nbytes)
