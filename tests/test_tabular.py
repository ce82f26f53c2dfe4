import numpy as np
import pytest

from flowsieve.tabular import (ColumnKind, ConstantColumnError, Table,
                               TableError, drop_columns_by_name,
                               drop_invalid_rows, drop_single_valued_columns,
                               load_csv, load_csv_merged, minmax_normalize,
                               split_by_attack, subtable, write_csv)

from helpers import make_table


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_csv_types_and_encodes(tmp_path):
    path = write(tmp_path, "t.csv", "a,b,Label\n1,x,Benign\n2,y,Attack\n")
    t, mapping, report = load_csv(path, "Label")
    assert t.row_count == 2 and t.column_count == 3
    assert t.column_kinds == (ColumnKind.NUMERIC, ColumnKind.CATEGORICAL, ColumnKind.LABEL)
    assert t.column("b").tolist() == [0.0, 1.0]          # x -> 0, y -> 1
    assert t.labels().tolist() == [1.0, 0.0]             # Attack -> 0, Benign -> 1
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


def test_drop_columns_by_name():
    t = make_table({"a": [1, 2], "b": [3, 4], "c": [5, 6]}, [0, 1])
    out, report = drop_columns_by_name(t, ["b"])
    assert out.column_names == ("a", "c", "Label")
    assert report.dropped_columns == [("b", "excluded-by-name")]

    same, report = drop_columns_by_name(t, [])
    assert same.column_names == t.column_names
    assert report.dropped_columns == []

    same, report = drop_columns_by_name(t, ["nope"])
    assert same.column_names == t.column_names
    assert report.absent_columns == ["nope"]

    with pytest.raises(TableError, match="label"):
        drop_columns_by_name(t, ["Label"])


def test_drop_single_valued_columns():
    t = make_table({"zero": [0, 0, 0], "keep": [0, 0, 1]}, [0, 1, 0])
    out, report = drop_single_valued_columns(t)
    assert out.column_names == ("keep", "Label")
    assert report.dropped_columns == [("zero", "single-valued")]
    # a label-only survivor is legal but warned about
    t2 = make_table({"zero": [0, 0]}, [0, 1])
    with pytest.warns(UserWarning, match="label column only"):
        out2, _ = drop_single_valued_columns(t2)
    assert out2.column_names == ("Label",)


def test_drop_invalid_rows_reasons():
    t = make_table({"a": [1.0, -np.inf, -3.0, np.nan, 2.0]}, [0, 1, 0, 1, 0])
    out, report = drop_invalid_rows(t)
    assert out.row_count == 2
    assert out.column("a").tolist() == [1.0, 2.0]
    assert report.dropped_row_counts == {"non-finite": 2, "negative": 1}


def test_drop_invalid_rows_counts_once_and_skips_categoricals():
    # -inf and negative in the same row: counted once, under non-finite
    t = make_table({"a": [-np.inf, 1.0], "b": [-5.0, 2.0]}, [0, 1])
    _, report = drop_invalid_rows(t)
    assert report.dropped_row_counts == {"non-finite": 1}
    # negative categorical codes never occur, but categorical cells are ignored
    t2 = make_table({"cat": [-1.0, 0.0], "num": [1.0, 2.0]}, [0, 1],
                    kinds={"cat": ColumnKind.CATEGORICAL})
    out, report = drop_invalid_rows(t2)
    assert out.row_count == 2
    assert report.dropped_row_counts == {}


def test_drop_invalid_rows_identity():
    t = make_table({"a": [0.0, 1.0], "b": [2.0, 3.0]}, [0, 1])
    out, report = drop_invalid_rows(t)
    assert out.row_count == 2
    assert report.dropped_row_counts == {}


def test_minmax_normalize_values():
    t = make_table({"a": [0.0, 5.0, 10.0], "b": [2.0, 4.0, 8.0]}, [0, 1, 0])
    out = minmax_normalize(t)
    assert out.column("a").tolist() == [0.0, 0.5, 1.0]
    assert out.column("b").tolist() == [0.0, (4.0 - 2.0) / 6.0, 1.0]
    assert out.labels().tolist() == [0.0, 1.0, 0.0]


def test_minmax_normalize_fixed_point_and_idempotence():
    t = make_table({"a": [0.0, 1.0, 1.0, 0.0]}, [0, 1, 0, 1])
    once = minmax_normalize(t)
    assert once.column("a").tolist() == [0.0, 1.0, 1.0, 0.0]
    rng = np.random.default_rng(7)
    t2 = make_table({"x": rng.random(50) * 9 + 1}, rng.integers(0, 2, 50))
    once = minmax_normalize(t2)
    twice = minmax_normalize(once)
    assert np.array_equal(once.column("x"), twice.column("x"))
    assert once.column("x").min() == 0.0 and once.column("x").max() == 1.0


def test_minmax_normalize_constant_column_errors():
    t = make_table({"a": [3.0, 3.0]}, [0, 1])
    with pytest.raises(ConstantColumnError, match="drop_single_valued_columns"):
        minmax_normalize(t)


def test_minmax_equals_the_column_formula_with_signed_zeros():
    # which zero a min returns depends on the order it visits the cells, and
    # (-0.0 - lo) keeps the sign of a -0.0 cell only if lo is +0.0
    for seed in range(30):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(2, 200)), int(rng.integers(1, 7))
        X = rng.choice([0.0, -0.0, 0.5, 2.0], size=(n, d))
        X[:2] = [[2.0], [0.5]]  # no column is constant
        t = make_table({f"f{j}": X[:, j] for j in range(d)}, rng.integers(0, 2, n))
        out = minmax_normalize(t)
        for j in range(d):
            col = X[:, j].copy()
            want = (col - col.min()) / (col.max() - col.min())
            assert out.column(f"f{j}").tobytes() == want.tobytes(), (seed, j)


def test_minmax_leaves_categorical_codes_alone():
    t = make_table({"cat": [0.0, 3.0, 7.0], "num": [0.0, 1.0, 2.0]}, [0, 1, 0],
                   kinds={"cat": ColumnKind.CATEGORICAL})
    out = minmax_normalize(t)
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
    t_perm = t.take_rows(perm)
    out1, rep1 = drop_invalid_rows(t)
    out2, rep2 = drop_invalid_rows(t_perm)
    assert rep1.dropped_row_counts == rep2.dropped_row_counts
    surv1 = sorted(zip(out1.column("a"), out1.labels()))
    surv2 = sorted(zip(out2.column("a"), out2.labels()))
    assert surv1 == surv2


def test_idempotent_cleaning_ops():
    t = make_table({"a": [1.0, np.inf, -2.0, 4.0], "const": [1.0, 1.0, 1.0, 1.0]},
                   [0, 1, 0, 1])
    once, _ = drop_invalid_rows(t)
    twice, rep = drop_invalid_rows(once)
    assert twice.row_count == once.row_count and rep.dropped_row_counts == {}
    once, _ = drop_single_valued_columns(t)
    twice, rep = drop_single_valued_columns(once)
    assert twice.column_names == once.column_names and rep.dropped_columns == []


def test_category_round_trip(tmp_path):
    rows = ["c,Label"] + [f"cat{i % 5},{'Benign' if i % 3 else 'Attack'}" for i in range(30)]
    path = tmp_path / "c.csv"
    path.write_text("\n".join(rows) + "\n")
    t, mapping, _ = load_csv(path, "Label")
    decoded = mapping.decode_column("c", t.column("c"))
    assert decoded == [f"cat{i % 5}" for i in range(30)]
    decoded_labels = mapping.decode_column("Label", t.labels())
    assert decoded_labels == [("Benign" if i % 3 else "Attack") for i in range(30)]


def test_split_by_attack_binarizes():
    t = make_table({"a": [1, 2, 3, 4, 5]}, [0, 1, 2, 0, 1])
    from flowsieve.tabular import CategoryMapping
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
    assert ssh.labels().tolist() == [0.0, 1.0, 0.0]


def test_split_by_attack_absent_label():
    t = make_table({"a": [1, 2]}, [0, 1])
    from flowsieve.tabular import CategoryMapping
    mapping = CategoryMapping({"Label": ("Benign", "FTP", "Rare")})
    with pytest.raises(TableError, match="'Rare' has no rows"):
        split_by_attack(t, mapping, ["Rare"], "Benign")
    with pytest.raises(TableError, match="not a known category"):
        split_by_attack(t, mapping, ["Unknown"], "Benign")


def test_split_by_attack_numeric_labels():
    # raw numeric label values work without any category mapping
    t = make_table({"a": [1, 2, 3, 4]}, [0, 7, 0, 7])
    from flowsieve.tabular import CategoryMapping
    out = split_by_attack(t, CategoryMapping({}), [7.0], 0.0)
    assert out["7.0"][1].tolist() == [0.0, 1.0, 0.0, 1.0]


def test_split_by_attack_no_benign_warns():
    t = make_table({"a": [1, 2]}, [1, 1])
    from flowsieve.tabular import CategoryMapping
    mapping = CategoryMapping({"Label": ("Benign", "FTP")})
    with pytest.warns(UserWarning, match="benign"):
        out = split_by_attack(t, mapping, ["FTP"], "Benign")
    assert out["FTP"][1].tolist() == [1.0, 1.0]


def test_write_csv_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    t = make_table({"a": rng.random(20), "b": rng.random(20) * 1e6}, rng.integers(0, 2, 20))
    path = tmp_path / "out.csv"
    write_csv(t, path)
    back, _, _ = load_csv(path, "Label")
    assert back.column_names == t.column_names
    for name in ("a", "b"):
        assert np.array_equal(back.column(name), t.column(name))


def test_table_invariants():
    with pytest.raises(TableError, match="label"):
        Table(("a",), (ColumnKind.NUMERIC,), np.zeros((1, 0)), np.array([1.0]))
    with pytest.raises(TableError, match="ragged"):
        Table(("a", "Label"), (ColumnKind.NUMERIC, ColumnKind.LABEL),
              np.array([[1.0], [2.0]]), np.array([0.0]))
    with pytest.raises(TableError, match="ragged"):
        Table(("a", "Label"), (ColumnKind.NUMERIC, ColumnKind.LABEL),
              np.array([[1.0, 2.0]]), np.array([0.0]))
    t = make_table({"a": [1.0]}, [0.0])
    with pytest.raises(ValueError):
        t.feature_matrix()[0, 0] = 5.0  # storage is read-only
    with pytest.raises(ValueError):
        t.labels()[0] = 5.0


def test_feature_matrix_is_the_table_storage():
    t = make_table({"a": [1.0, 2.0], "b": [3.0, 4.0]}, [0.0, 1.0])
    X = t.feature_matrix()
    assert X is t.feature_matrix()
    assert np.shares_memory(X, t.column("a")) and np.shares_memory(X, t.column("b"))
    assert X.flags.c_contiguous and not X.flags.writeable


def test_row_and_feature_subsets_stay_c_ordered():
    rng = np.random.default_rng(4)
    t = make_table({f"f{j}": rng.random(30) for j in range(5)}, rng.integers(0, 2, 30))
    rows = rng.permutation(30)[:12]
    names = ["f3", "f0", "f4"]  # out of header order
    want = t.feature_matrix()[rows][:, [3, 0, 4]]
    parts = {"take_rows": t.take_rows(rows),
             "select_features": t.select_features(names),
             "subtable": subtable(t, rows, t.labels()[rows], t.feature_names),
             "subtable of names": subtable(t, rows, t.labels()[rows], names)}
    for what, part in parts.items():
        X = part.feature_matrix()
        assert X.flags.c_contiguous and not X.flags.writeable, what
        assert X is part.feature_matrix(), what
    assert parts["select_features"].column_names == ("f3", "f0", "f4", "Label")
    assert parts["subtable of names"].column_names == ("f3", "f0", "f4", "Label")
    assert parts["subtable of names"].feature_matrix().tobytes() == want.tobytes()
    assert np.array_equal(parts["take_rows"].labels(), t.labels()[rows])
