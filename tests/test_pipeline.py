import dataclasses
import gc
import json
import threading
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import reference as ref
from flowsieve import pipeline, tabular
from flowsieve.config import apply_overrides, config_hash, parse_config
from flowsieve.feature_selection import ScoringError
from flowsieve.pipeline import (PipelineError, RunContext, attack_slug,
                                cmd_preprocess, cmd_run, cmd_select,
                                cmd_train_eval, find_run_dir, load_preprocessed,
                                new_run_dir, stage_train_eval)
from flowsieve.sampling import SamplingError, SplitSpec, split_manifest, split_table
from flowsieve.tabular import (CategoryMapping, Table, TableError, load_csv_merged,
                               plan_cleaning, split_by_attack, subtable)
from helpers import (assert_all_reaped, clean_table, flow_csv, fork_every_relief_pass,
                     record_forks, use_cpus)


def synth_files(tmp_path, seed=0, n_benign=240, n_attack=60):
    """Three CSV files in the ingestion dialect: a timestamp column to exclude,
    a categorical protocol column, a constant column, planted signal features,
    and a few invalid rows."""
    rng = np.random.default_rng(seed)
    paths = []
    header = "Timestamp,proto,sig,anti,noise,const,Label"

    def rows_for(attack, n_b, n_a, shift):
        rows = []
        for i in range(n_b + n_a):
            is_attack = i >= n_b
            label = attack if is_attack else "Benign"
            sig = 0.7 + 0.25 * rng.random() + shift if is_attack else 0.25 * rng.random()
            anti = 0.25 * rng.random() if is_attack else 0.7 + 0.25 * rng.random()
            noise = rng.random()
            proto = ("tcp", "udp", "icmp")[int(rng.integers(0, 3))]
            rows.append(f"2018-02-14 {i % 24:02d}:00:00,{proto},{sig:.6f},"
                        f"{anti:.6f},{noise:.6f},0,{label}")
        return rows

    specs = [("AttackA", n_benign, n_attack, 0.0),
             ("AttackB", n_benign // 2, n_attack // 2, 0.01),
             ("AttackB", n_benign // 2, n_attack - n_attack // 2, 0.0)]
    for i, (attack, n_b, n_a, shift) in enumerate(specs):
        lines = [header] + rows_for(attack, n_b, n_a, shift)
        if i == 0:
            lines.insert(5, header)                      # repeated header artifact
            lines.append("x,tcp,inf,0.5,0.5,0,Benign")   # non-finite row
            lines.append("x,tcp,-0.25,0.5,0.5,0,Benign")  # negative row
        path = tmp_path / f"file{i}.csv"
        path.write_text("\n".join(lines) + "\n")
        paths.append(str(path))
    return paths


def synth_config(tmp_path, seed=0, **extra):
    doc = {
        "inputs": synth_files(tmp_path / "data", seed=seed),
        "label_column": "Label",
        "benign_label": "Benign",
        "attacks": ["AttackA", "AttackB"],
        "excluded_columns": ["Timestamp"],
        "output_dir": str(tmp_path / "out"),
        "seed": seed,
        "relief_m": 150,
        "sampling": {"schemes": {"AttackA": "fraction_stratified",
                                 "AttackB": "minority_protect"}},
        "classifiers": {"logistic": {"epochs": 60},
                        "svm": {"epochs": 5},
                        "forest": {"tree_count": 5, "max_depth": 6},
                        "tree": {"max_depth": 6}},
    }
    doc.update(extra)
    (tmp_path / "data").mkdir(exist_ok=True)
    return parse_config(doc)


@pytest.fixture()
def cfg(tmp_path):
    (tmp_path / "data").mkdir()
    return synth_config(tmp_path)


def run_commands(cfg, staged: bool):
    """`run`, or the three staged commands; the context of the last."""
    if not staged:
        return cmd_run(cfg)
    cmd_preprocess(cfg)
    cmd_select(cfg)
    return cmd_train_eval(cfg)


def run_files(run_dir) -> dict[str, bytes]:
    """Every file of a run directory but its manifest, by relative path."""
    return {str(p.relative_to(run_dir)): p.read_bytes() for p in run_dir.rglob("*")
            if p.is_file() and p.name != "run_manifest.json"}


def test_preprocess_outputs(cfg):
    ctx = cmd_preprocess(cfg)
    report = json.loads((ctx.run_dir / "cleaning_report.json").read_text())
    dropped = {d["name"]: d["reason"] for d in report["dropped_columns"]}
    assert dropped == {"Timestamp": "excluded-by-name", "const": "single-valued"}
    assert report["dropped_row_counts"] == {"repeated-header": 1, "non-finite": 1,
                                            "negative": 1}
    # one cleaned table for all attacks, with the original label codes
    prep = json.loads((ctx.run_dir / "preprocess.json").read_text())
    # proto's codes fit uint8 and are not normalized; the three columns of
    # six decimal places below 1.01 are stored as millionths in uint32
    assert [entry[:4] for entry in prep["columns"]] == [
        ["proto", "categorical", "u1", 0], ["sig", "numeric", "u4", 6],
        ["anti", "numeric", "u4", 6], ["noise", "numeric", "u4", 6], ["Label", "label", "u1"]]
    assert prep["columns"][0][4:] == [0.0, 1.0]
    records = np.load(ctx.run_dir / "cleaned.npy")
    assert records.shape == (480 + 60 + 60,) and records["label"].dtype == np.uint8
    lo, span = np.array([entry[4:] for entry in prep["columns"][1:4]]).T
    cells = records["u4"] / 1e6
    assert (cells.min(axis=0) == lo).all()
    assert (cells.max(axis=0) - lo == span).all()
    table, _ = load_preprocessed(RunContext(cfg, ctx.run_dir))
    X, y = table.X, table.y
    assert X.shape == (480 + 60 + 60, 4) and X.dtype == np.float64 and X.flags.c_contiguous
    assert (X[:, 1:].min(axis=0) == 0.0).all() and (X[:, 1:].max(axis=0) == 1.0).all()
    assert set(np.unique(y).tolist()) == {0.0, 1.0, 2.0}
    assert not any(p.is_dir() for p in ctx.run_dir.iterdir())
    # categories only of the cleaned table's columns: not of the dropped Timestamp
    assert set(prep["category_mapping"]) == {"proto", "Label"}
    assert prep["category_mapping"]["Label"] == ["AttackA", "AttackB", "Benign"]
    assert prep["per_attack_rows"]["AttackA"] == 240 + 60 + 240  # benign from all files
    manifest = json.loads((ctx.run_dir / "run_manifest.json").read_text())
    assert manifest["stages_completed"] == ["preprocess"]


def test_preprocess_json_marks_the_mapping_features_and_lists_the_label_last(tmp_path):
    # the label leads the header; two of the three features are text
    rng = np.random.default_rng(8)
    lines = ["Label,proto,sig,svc"]
    for i in range(60):
        label = "AttackA" if i % 3 == 0 else "Benign"
        lines.append(f"{label},{('tcp', 'udp')[i % 2]},{rng.random():.6f},"
                     f"{('dns', 'http', 'ssh')[i % 3]}")
    (tmp_path / "data").mkdir()
    path = tmp_path / "data" / "flows.csv"
    path.write_text("\n".join(lines) + "\n")
    cfg = synth_config(tmp_path, inputs=[str(path)], attacks=["AttackA"], excluded_columns=[],
                       sampling={"schemes": {"AttackA": "fraction_stratified"}})
    ctx = cmd_preprocess(cfg)
    prep = json.loads((ctx.run_dir / "preprocess.json").read_text())
    _, mapping, _ = load_csv_merged(cfg.inputs, cfg.label_column)
    assert set(mapping.categories) == {"Label", "proto", "svc"}
    assert [entry[:3] for entry in prep["columns"]] == [
        ["proto", "categorical", "u1"], ["sig", "numeric", "u4"], ["svc", "categorical", "u1"],
        ["Label", "label", "u1"]]
    table, _ = load_preprocessed(RunContext(cfg, ctx.run_dir))
    assert (table.feature_names, table.label_name) == (("proto", "sig", "svc"), "Label")
    # category codes are not normalized
    assert sorted(set(table.column("svc").tolist())) == [0.0, 1.0, 2.0]


@pytest.mark.parametrize("late", [["num_late", "cat_late"], ["cat_late"]])
def test_columns_single_valued_after_row_cleaning_are_dropped(tmp_path, late):
    # the one invalid row holds the only other value of each column in `late`
    rng = np.random.default_rng(5)
    lines = ["sig,num_late,cat_late,Label"]
    for i in range(80):
        label = "AttackA" if i % 4 == 0 else "Benign"
        lines.append(f"{rng.random():.6f},{1.0 + (i % 2) * ('num_late' not in late)},"
                     f"tcp,{label}")
    lines.append(f"inf,2.0,{'udp' if 'cat_late' in late else 'tcp'},Benign")
    (tmp_path / "data").mkdir()
    path = tmp_path / "data" / "flows.csv"
    path.write_text("\n".join(lines) + "\n")
    cfg = synth_config(tmp_path, inputs=[str(path)], attacks=["AttackA"], excluded_columns=[],
                       sampling={"schemes": {"AttackA": "fraction_stratified"}})
    ctx = cmd_preprocess(cfg)
    report = json.loads((ctx.run_dir / "cleaning_report.json").read_text())
    assert report["dropped_columns"] == [{"name": n, "reason": "single-valued"} for n in late]
    assert report["dropped_row_counts"] == {"non-finite": 1}
    prep = json.loads((ctx.run_dir / "preprocess.json").read_text())
    kept = [n for n in ("sig", "num_late", "cat_late") if n not in late]
    assert [entry[0] for entry in prep["columns"]] == [*kept, "Label"]
    assert set(prep["category_mapping"]) == {"Label"}
    manifest = json.loads((ctx.run_dir / "run_manifest.json").read_text())
    assert manifest["warnings"] == ["columns became single-valued after row cleaning and "
                                    "were dropped: " + ", ".join(late)]


def test_preprocess_tables_are_normalized_and_binary(cfg):
    ctx = cmd_preprocess(cfg)
    table, per_attack = load_preprocessed(RunContext(cfg, ctx.run_dir))
    for rows, labels in per_attack.values():
        t = subtable(table, rows, labels, table.feature_names)
        assert set(np.unique(t.y)) == {0.0, 1.0}
        for name in ("sig", "anti", "noise"):
            col = t.column(name)
            assert col.min() >= 0.0 and col.max() <= 1.0


def test_preprocess_unknown_attack_label(tmp_path):
    (tmp_path / "data").mkdir()
    cfg = synth_config(tmp_path, attacks=["AttackA", "Ghost"],
                       sampling={"schemes": {"AttackA": "fraction_stratified",
                                             "Ghost": "minority_protect"}})
    with pytest.raises(TableError, match="Ghost"):
        cmd_preprocess(cfg)
    # the failed run left one directory, whose manifest records the error
    runs = list(Path(cfg.output_dir).glob("run-*"))
    assert len(runs) == 1
    manifest = json.loads((runs[0] / "run_manifest.json").read_text())
    assert "Ghost" in manifest["error"]
    assert manifest["stages_completed"] == []


def test_staged_commands_resume_by_config_hash(cfg):
    pre = cmd_preprocess(cfg)
    sel = cmd_select(cfg)
    assert sel.run_dir == pre.run_dir
    scores = sel.run_dir / "attacka" / "feature_scores.csv"
    assert scores.exists()
    for tau in ("0.35", "0.4", "0.45", "0.5", "0.55"):
        assert (sel.run_dir / "attacka" / f"selection-{tau}.json").exists()
    tr = cmd_train_eval(cfg)
    assert tr.run_dir == pre.run_dir
    assert (tr.run_dir / "metrics.csv").exists()
    manifest = json.loads((tr.run_dir / "run_manifest.json").read_text())
    # each staged command carries the history of the ones before it
    assert manifest["stages_completed"] == ["preprocess", "select", "train_eval"]
    assert set(manifest["stage_seconds"]) == {"preprocess", "select", "train_eval"}
    assert manifest["error"] is None


def test_select_with_attacks_override_names_the_hash(cfg):
    cmd_preprocess(cfg)
    narrowed = apply_overrides(cfg, attacks=["AttackA"])
    with pytest.raises(PipelineError) as err:
        cmd_select(narrowed)
    message = str(err.value)
    assert f"config hash {config_hash(narrowed)[:8]}" in message
    assert config_hash(cfg)[:8] not in message
    for flag in ("--seed", "--attacks", "--thresholds"):
        assert flag in message
    assert "run `preprocess` first" in message


def test_select_requires_preprocess(cfg):
    with pytest.raises(PipelineError, match="preprocess"):
        cmd_select(cfg)


def test_train_eval_requires_select(cfg):
    pre = cmd_preprocess(cfg)
    with pytest.raises(PipelineError, match="select"):
        cmd_train_eval(cfg)
    manifest = json.loads((pre.run_dir / "run_manifest.json").read_text())
    assert "run `select` first" in manifest["error"]
    assert manifest["stages_completed"] == ["preprocess"]
    assert set(manifest["stage_seconds"]) == {"preprocess"}


def test_append_only_rejects_rerun_into_same_dir(cfg):
    cmd_preprocess(cfg)
    cmd_select(cfg)
    with pytest.raises(PipelineError, match="append-only"):
        cmd_select(cfg)


def test_planted_features_rank_top2(cfg):
    ctx = cmd_run(cfg)
    for attack in ("attacka", "attackb"):
        rows = (ctx.run_dir / attack / "feature_scores.csv").read_text().splitlines()[1:]
        by_name = {r.split(",")[1]: float(r.split(",")[-1]) for r in rows}
        ranked = sorted(by_name, key=by_name.get, reverse=True)
        assert set(ranked[:2]) == {"sig", "anti"}


def test_run_manifest_inventory_complete(cfg):
    ctx = cmd_run(cfg)
    manifest = json.loads((ctx.run_dir / "run_manifest.json").read_text())
    on_disk = sorted(str(p.relative_to(ctx.run_dir))
                     for p in ctx.run_dir.rglob("*") if p.is_file())
    assert manifest["outputs"] == on_disk
    assert "run_manifest.json" in manifest["outputs"]
    assert manifest["error"] is None
    assert manifest["stages_completed"] == ["preprocess", "select", "train_eval"]
    assert set(manifest["stage_seconds"]) == {"preprocess", "select", "train_eval"}


def test_run_metrics_grid_and_model_dedupe(cfg):
    ctx = cmd_run(cfg)
    lines = (ctx.run_dir / "metrics.csv").read_text().splitlines()
    header, rows = lines[0], lines[1:]
    assert header == "attack,threshold,n_features,classifier,split,accuracy,precision,recall,f1"
    # 2 attacks x 5 thresholds x 5 classifiers x 2 splits, minus skipped taus
    manifest = json.loads((ctx.run_dir / "run_manifest.json").read_text())
    skipped = len(manifest["skipped"])
    assert len(rows) == (2 * 5 - skipped) * 5 * 2
    # identical subsets share one serialized model per classifier
    for attack in ("attacka", "attackb"):
        models = list((ctx.run_dir / attack / "models").glob("*.json"))
        selections = {}
        for tau in ("0.35", "0.4", "0.45", "0.5", "0.55"):
            doc = json.loads((ctx.run_dir / attack / f"selection-{tau}.json").read_text())
            if doc["features"]:
                selections[tau] = tuple(sorted(f["index"] for f in doc["features"]))
        unique = len(set(selections.values()))
        assert len(models) == unique * 5


def test_run_split_manifests(cfg):
    ctx = cmd_run(cfg)
    a = json.loads((ctx.run_dir / "attacka" / "split" / "manifest.json").read_text())
    assert a["scheme"] == "fraction_stratified"
    # 480 clean benign rows across the three files (two invalid ones dropped)
    assert a["train_class_counts"]["0"] == int(0.2 * 480)
    assert a["train_class_counts"]["1"] == int(0.2 * 60)
    b = json.loads((ctx.run_dir / "attackb" / "split" / "manifest.json").read_text())
    assert b["scheme"] == "minority_protect"
    assert b["train_class_counts"]["1"] == int(0.7 * 60)
    assert b["test_class_counts"]["1"] == 60 - int(0.7 * 60)
    # the cleaned table and the manifest give the split again
    _, per_attack = load_preprocessed(RunContext(cfg, ctx.run_dir))
    for attack, doc in (("AttackA", a), ("AttackB", b)):
        fractions = doc["fractions"]
        spec = SplitSpec(scheme=doc["scheme"], train_fraction=fractions["train"],
                         test_fraction=fractions["test"],
                         attack_train_fraction=fractions["attack_train"], seed=doc["seed"])
        assert split_manifest(spec, split_table(per_attack[attack][1], spec)) == doc


def test_empty_selection_skipped_with_warning(cfg):
    pre = cmd_preprocess(cfg)
    ctx = RunContext(cfg, pre.run_dir)
    cleaned = load_preprocessed(ctx)
    selections = {a: {0.35: ("sig", "anti"), 0.55: ()} for a in cfg.attacks}
    ctx = dataclasses.replace(ctx, cfg=dataclasses.replace(cfg, thresholds=(0.35, 0.55)))
    rows = stage_train_eval(ctx, cleaned, selections)
    assert {r["threshold"] for r in rows} == {0.35}
    assert len(ctx.skipped) == 2
    assert all(s["reason"] == "empty selection" for s in ctx.skipped)
    # select's "no feature reaches threshold" warning already says so
    assert not any("selects no features" in w for w in ctx.warnings)


def test_rerun_is_byte_identical(tmp_path):
    (tmp_path / "data").mkdir()
    cfg = synth_config(tmp_path)
    ctx1 = cmd_run(cfg)
    ctx2 = cmd_run(cfg)
    assert ctx1.run_dir != ctx2.run_dir
    for rel in ["metrics.csv", "attacka/feature_scores.csv", "attackb/feature_scores.csv",
                "cleaned.npy", "preprocess.json", "attacka/split/manifest.json"]:
        b1 = (ctx1.run_dir / rel).read_bytes()
        b2 = (ctx2.run_dir / rel).read_bytes()
        assert b1 == b2, rel


def test_failed_run_writes_partial_manifest(tmp_path):
    (tmp_path / "data").mkdir()
    cfg = synth_config(tmp_path, attacks=["AttackA", "Ghost"],
                       sampling={"schemes": {"AttackA": "fraction_stratified",
                                             "Ghost": "minority_protect"}})
    with pytest.raises(TableError):
        cmd_run(cfg)
    runs = sorted(Path(cfg.output_dir).glob("run-*"))
    manifest = json.loads((runs[-1] / "run_manifest.json").read_text())
    assert manifest["error"] is not None and "Ghost" in manifest["error"]
    assert manifest["stages_completed"] == []


def test_relief_m_above_row_count_is_capped_with_warning(tmp_path):
    (tmp_path / "data").mkdir()
    big = synth_config(tmp_path, relief_m=10**6)
    cmd_preprocess(big)
    cmd_select(big)
    capped = cmd_train_eval(big)
    # the select warnings survive train-eval's rewrite of the manifest
    manifest = json.loads((capped.run_dir / "run_manifest.json").read_text())
    assert manifest["error"] is None
    assert manifest["stages_completed"] == ["preprocess", "select", "train_eval"]
    relief = [w.split(": ", 1) for w in manifest["warnings"] if "relief_m=1000000 exceeds" in w]
    # one per attack table, each naming its attack
    assert sorted(attack for attack, _ in relief) == ["AttackA", "AttackB"]
    assert all(message.startswith("relief_m=1000000 exceeds") for _, message in relief)
    # capped at the row count, which the default (min(rows, 5000)) also uses here
    default = cmd_run(synth_config(tmp_path, relief_m=None))
    for attack in ("attacka", "attackb"):
        rel = f"{attack}/feature_scores.csv"
        assert (capped.run_dir / rel).read_bytes() == (default.run_dir / rel).read_bytes()


def test_forest_features_per_split_above_a_subset_is_capped(tmp_path):
    (tmp_path / "data").mkdir()
    cfg = synth_config(tmp_path, classifiers={
        "logistic": {"epochs": 60}, "svm": {"epochs": 5}, "tree": {"max_depth": 6},
        "forest": {"tree_count": 5, "max_depth": 6, "features_per_split": 3}})
    ctx = cmd_run(cfg)
    manifest = json.loads((ctx.run_dir / "run_manifest.json").read_text())
    assert manifest["error"] is None
    assert manifest["stages_completed"] == ["preprocess", "select", "train_eval"]
    rows = [r.split(",") for r in (ctx.run_dir / "metrics.csv").read_text().splitlines()[1:]]
    # (attack, feature count) of the forests on fewer features than
    # features_per_split, and the lowest threshold selecting that subset,
    # whose row comes first
    small = {}
    for r in rows:
        if r[2] in ("1", "2") and r[3] == "random_forest":
            small.setdefault((r[0], int(r[2])), r[1])
    assert {attack for attack, _ in small} == {"AttackA", "AttackB"}
    capped = {w for w in manifest["warnings"] if "features_per_split=3 exceeds" in w}
    # each cell's warnings name it, as its error would
    assert capped == {f"{attack}: threshold {tag} random_forest: features_per_split=3 exceeds "
                      f"feature count {n}; capped at {n}" for (attack, n), tag in small.items()}


def test_run_and_staged_commands_write_identical_files(cfg):
    run = cmd_run(cfg)
    staged = cmd_preprocess(cfg)  # newer than the run: the staged commands resume it
    cmd_select(cfg)
    cmd_train_eval(cfg)
    assert staged.run_dir != run.run_dir
    want, got = run_files(run.run_dir), run_files(staged.run_dir)
    assert sorted(got) == sorted(want)
    for name in ("bins.json", "feature_scores.csv", "selection-0.35.json",
                 "split/manifest.json"):
        assert f"attacka/{name}" in want and f"attackb/{name}" in want
    assert "cleaned.npy" in want and "metrics.csv" in want and "metrics.json" in want
    assert any(rel.startswith("attacka/models/") for rel in want)
    for rel in want:
        assert got[rel] == want[rel], rel


def test_run_directory_holds_one_data_table(cfg):
    run = cmd_run(cfg)
    staged = cmd_preprocess(cfg)
    cmd_select(cfg)
    cmd_train_eval(cfg)
    for run_dir in (run.run_dir, staged.run_dir):
        csvs = sorted(str(p.relative_to(run_dir)) for p in run_dir.rglob("*.csv"))
        # the rest are result tables: per-attack scores and the metrics grid
        assert csvs == ["attacka/feature_scores.csv", "attackb/feature_scores.csv",
                        "metrics.csv"]
        assert [p.name for p in run_dir.rglob("*.np*")] == ["cleaned.npy"]
        assert not list(run_dir.glob("*/dataset.csv"))
        assert not list(run_dir.glob("*/split/*.csv"))


def test_load_preprocessed_equals_in_memory_split(cfg):
    ctx = cmd_preprocess(cfg)
    table, mapping, _ = load_csv_merged(cfg.inputs, cfg.label_column)
    # the cleaned table in memory
    table, _ = clean_table(table, mapping, cfg.excluded_columns)
    per_attack = split_by_attack(table.y, table.label_name, mapping, cfg.attacks, cfg.benign_label)
    got_table, got_per_attack = load_preprocessed(RunContext(cfg, ctx.run_dir))
    assert got_table.feature_names == table.feature_names
    assert got_table.label_name == table.label_name
    assert "proto" in table.feature_names and "proto" in mapping.categories
    assert got_table.X.tobytes() == table.X.tobytes()
    assert got_table.y.tobytes() == table.y.tobytes()
    assert list(got_per_attack) == list(per_attack) == ["AttackA", "AttackB"]
    for attack, (rows, labels) in per_attack.items():
        got_rows, got_labels = got_per_attack[attack]
        assert got_rows.tobytes() == rows.tobytes(), attack
        assert got_labels.tobytes() == labels.tobytes(), attack


def dirty_table(rng, n: int):
    """A table of every case cleaning treats apart, in header order, with
    its column kinds: signed-zero minima, non-finite and negative rows, a
    column single-valued only on the rows kept, categorical columns (one
    with negative codes, which no row check reads), an excluded column, a
    constant one, whole-number columns at the limits of each stored type,
    columns whose low or span only the shortest float text in
    preprocess.json gives back exactly: a -0.0 low, a subnormal low, cells
    near 1.7e308 and whole numbers above 2^53; and decimal columns, one of
    tenths up to uint16's limit, one whose cells are whole but in the last
    kept row, which has three places."""
    kinds = {"zeros": "numeric", "cat": "categorical", "rate": "numeric", "late": "numeric",
             "Label": "label", "Timestamp": "numeric", "neg_cat": "categorical",
             "const": "numeric", "x": "numeric", "flag": "numeric", "port": "numeric",
             "bytes": "numeric", "big": "numeric", "neg_zero": "numeric",
             "subnormal": "numeric", "huge": "numeric", "above_2_53": "numeric",
             "tenths": "numeric", "late_places": "numeric"}
    cells = {
        "zeros": rng.choice([0.0, -0.0, 0.5, 2.0], n),
        "cat": rng.integers(0, 4, n).astype(float),
        "rate": np.where(rng.random(n) < 0.03, rng.choice([np.inf, -np.inf, np.nan], n),
                         rng.random(n) * 1e6),
        "late": np.where(rng.random(n) < 0.03, -1.0, 7.0),
        "Label": rng.integers(0, 3, n).astype(float),
        "Timestamp": rng.random(n),
        "neg_cat": rng.integers(-2, 2, n).astype(float),
        "const": np.full(n, 3.0),
        "x": rng.random(n) * 10.0 ** rng.integers(-3, 4, n),
        "flag": rng.integers(1, 256, n).astype(float),
        "port": rng.integers(0, 2 ** 16, n).astype(float),
        "bytes": rng.integers(0, 2 ** 32, n).astype(float),
        "big": rng.integers(0, 2 ** 33, n).astype(float),
        "neg_zero": rng.choice([-0.0, 0.1, 3.0], n),
        "subnormal": rng.choice([5e-324, 1e-310, 0.3], n),
        "huge": rng.uniform(1.6e308, 1.7e308, n),
        "above_2_53": rng.choice([2.0 ** 53 + 2, 2.0 ** 53 + 6, 2.0 ** 60 + 2 ** 8], n),
        "tenths": rng.integers(0, 2 ** 16, n) / 10,
        "late_places": rng.integers(0, 1000, n).astype(float),
    }
    cells["late"][:2] = [-1.0, 7.0]  # single-valued only once row checks drop -1
    kept = np.isfinite(cells["rate"]) & (cells["late"] >= 0)
    # each type's largest whole number, and the next, in rows that are kept
    first = np.flatnonzero(kept)[:2]
    cells["flag"][first[0]] = 255.0
    cells["port"][first] = [256.0, 2.0 ** 16 - 1]
    cells["bytes"][first] = [2.0 ** 16, 2.0 ** 32 - 1]
    cells["big"][first[0]] = 2.0 ** 32
    # the lows, in rows that are kept
    cells["neg_zero"][first[0]], cells["subnormal"][first[0]] = -0.0, 5e-324
    cells["above_2_53"][first[0]] = 2.0 ** 53 + 2
    cells["tenths"][first] = [0.1, (2 ** 16 - 1) / 10]
    cells["late_places"][np.flatnonzero(kept)[-1]] = 12.345
    features = [name for name in kinds if name != "Label"]
    # which zero is the minimum depends on the order a min visits the cells:
    # draw `zeros` until a min over the whole matrix's kept rows picks the
    # other zero than a pass over the column's kept cells alone
    j = features.index("zeros")
    while True:
        X = np.column_stack([cells[n] for n in features])
        whole = X.min(axis=0, where=kept[:, None], initial=np.inf)[j]
        if np.signbit(whole) != np.signbit(X[kept, j].min()):
            break
        cells["zeros"] = rng.choice([0.0, -0.0, 0.5, 2.0], n)
    t = Table(tuple(features), "Label", X, cells["Label"])
    mapping = CategoryMapping({n: ("a", "b", "c", "d") for n, k in kinds.items()
                               if k == "categorical"})
    return t, mapping, list(kinds.items()), np.column_stack(list(cells.values()))


def former_gather(t: Table, mapping, rows, keep) -> np.ndarray:
    """The cleaned matrix as one np.ix_ gather of the kept rows and columns,
    each numeric column then normalized by its own minimum and maximum."""
    X = t.X[np.ix_(rows, keep)]
    for j, k in enumerate(keep):
        if t.feature_names[k] not in mapping.categories:
            col = np.ascontiguousarray(X[:, j])
            X[:, j] -= col.min()
            X[:, j] /= col.max() - col.min()
    return X


def npy_header_bytes(path) -> int:
    """The bytes of the npy file `path` before its array's."""
    with open(path, "rb") as fh:
        np.lib.format.read_magic(fh)
        np.lib.format.read_array_header_1_0(fh)
        return fh.tell()


@pytest.mark.parametrize("block", [1, 7, tabular.CLEAN_BLOCK])
def test_cleaned_npz_holds_the_bytes_of_the_cleaning_oracles(tmp_path, monkeypatch, block):
    # the matrix written and read back a block of rows at a time is the
    # step-by-step oracle's and the whole-table gather's, the file holds
    # each kept column in the narrowest type that holds its cells exactly,
    # and preprocess.json gives back each low and span bit for bit
    monkeypatch.setattr(tabular, "CLEAN_BLOCK", block)
    monkeypatch.setattr(pipeline, "CLEAN_BLOCK", block)
    t, mapping, columns, cells = dirty_table(np.random.default_rng(block), 3 * 256 + 5)
    excluded = ["Timestamp", "absent"]
    with pytest.warns(UserWarning, match="single-valued after row cleaning.*: late"):
        plan, report = plan_cleaning(t, mapping, excluded)
    pipeline._write_cleaned(tmp_path, t.X, plan, mapping, "Label", {})
    table, _ = pipeline._read_cleaned(tmp_path)
    X, y = table.X, table.y

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want_columns, want_rows, want_report, _ = ref.clean_ref(columns, cells.tolist(),
                                                                excluded)
    assert report.to_json() == want_report
    kinds = [kind for _, kind in want_columns]
    assert [name for name, _ in want_columns if _ != "label"] == list(plan.feature_names)
    assert table.feature_names == plan.feature_names and table.label_name == "Label"
    want = np.array(want_rows).reshape(len(want_rows), len(want_columns))
    assert 0 < len(X) < len(t.X) and (want[:, kinds.index("label")] == y).all()
    assert X.tobytes() == np.delete(want, kinds.index("label"), axis=1).tobytes()
    assert y.tobytes() == want[:, kinds.index("label")].tobytes()
    assert X.tobytes() == former_gather(t, mapping, plan.rows, plan.cols).tobytes()

    entries = json.loads((tmp_path / "preprocess.json").read_text())["columns"]
    assert entries[-1] == ["Label", "label", "u1"]
    assert np.array([e[4] for e in entries[:-1]]).tobytes() == plan.lo.tobytes()
    assert np.array([e[5] for e in entries[:-1]]).tobytes() == plan.span.tobytes()
    lows = dict(zip(plan.feature_names, plan.lo.tolist()))
    assert str(lows["neg_zero"]) == "-0.0" and lows["subnormal"] == 5e-324
    assert lows["huge"] > 1.6e308 and lows["above_2_53"] == 2.0 ** 53 + 2
    stored = {name: (kind, places) for name, _, kind, places, *_ in entries[:-1]}
    assert stored == {"zeros": ("f8", 0), "cat": ("u1", 0), "rate": ("f8", 0),
                      "neg_cat": ("f8", 0), "x": ("f8", 0), "flag": ("u1", 0),
                      "port": ("u2", 0), "bytes": ("u4", 0), "big": ("f8", 0),
                      "neg_zero": ("f8", 0), "subnormal": ("f8", 0), "huge": ("f8", 0),
                      "above_2_53": ("f8", 0), "tenths": ("u2", 1), "late_places": ("u4", 3)}
    assert plan.places.tolist() == [places for _, _, _, places, *_ in entries[:-1]]
    # an npy file of one record per row, which np.load reads as it is
    path = tmp_path / "cleaned.npy"
    records = np.load(path)
    assert records.dtype.names == ("u1", "u2", "u4", "f8", "label")
    assert records.dtype.itemsize == 1 * 2 + 2 * 2 + 4 * 2 + 8 * 9 + 1
    assert records.shape == (len(X),)
    assert records["label"].dtype == np.uint8
    assert records["label"].tobytes() == y.astype(np.uint8).tobytes()
    assert path.stat().st_size == npy_header_bytes(path) + records.nbytes


def test_cleaned_npz_of_a_table_reduced_to_its_labels_round_trips(tmp_path):
    # every feature single-valued: the matrix has rows but no columns, and
    # each record holds the label alone
    t = Table(("a", "b"), "Label", np.ones((600, 2)), np.arange(600) % 2.0)
    with pytest.warns(UserWarning, match="label column only"):
        plan, _ = plan_cleaning(t, CategoryMapping({}), [])
    pipeline._write_cleaned(tmp_path, t.X, plan, CategoryMapping({}), "Label", {})
    table, _ = pipeline._read_cleaned(tmp_path)
    assert table.X.shape == (600, 0) and table.feature_names == ()
    assert table.y.tobytes() == t.y.tobytes()
    prep = json.loads((tmp_path / "preprocess.json").read_text())
    assert prep["columns"] == [["Label", "label", "u1"]] and prep["clean_rows"] == 600
    path = tmp_path / "cleaned.npy"
    records = np.load(path)
    assert records.shape == (600,) and records.dtype.itemsize == 1
    assert path.stat().st_size == npy_header_bytes(path) + 600


def test_preprocess_peak_memory_is_within_a_quarter_of_the_cleaned_matrix(tmp_path):
    # preprocess forks nothing, so tracemalloc sees all it allocates: the
    # loaded table, one parse chunk, and one block of cleaned rows at a time.
    # A first, small run imports what the stage imports on first use
    def config(rows):
        return parse_config({"inputs": [str(flow_csv(tmp_path / f"{rows}.csv", rows))],
                             "label_column": "Label", "benign_label": "Benign",
                             "attacks": ["Attack"], "output_dir": str(tmp_path / f"out{rows}"),
                             "sampling": {"schemes": {"Attack": "fraction_stratified"}}})

    cmd_preprocess(config(200))
    cfg = config(20_000)
    tracemalloc.start()
    try:
        ctx = cmd_preprocess(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    prep = json.loads((ctx.run_dir / "preprocess.json").read_text())
    # Timestamp and the constant column dropped, Service kept
    assert prep["clean_columns"] == 78 + 1
    assert 19_000 < prep["clean_rows"] < 20_000
    matrix = prep["clean_rows"] * 78 * 8  # the cleaned float64 matrix's bytes
    assert peak <= 1.25 * matrix, (peak, matrix)


def test_load_preprocessed_peaks_within_a_tenth_above_the_cleaned_matrix(tmp_path):
    # the stored records are read a block at a time into the float64
    # matrix: the load holds no other copy of it. A first load imports what
    # loading imports on first use
    csv = flow_csv(tmp_path / "flows.csv", 20_000)
    cfg = parse_config({"inputs": [str(csv)], "label_column": "Label",
                        "benign_label": "Benign", "attacks": ["Attack"],
                        "output_dir": str(tmp_path / "out"),
                        "sampling": {"schemes": {"Attack": "fraction_stratified"}}})
    ctx = cmd_preprocess(cfg)
    load_preprocessed(ctx)
    tracemalloc.start()
    try:
        table, _ = load_preprocessed(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.X.shape[1] == 78 and 19_000 < len(table.X) < 20_000
    assert peak <= 1.1 * table.X.nbytes, (peak, table.X.nbytes)


def test_loaded_tables_compare_by_identity(cfg):
    ctx = cmd_preprocess(cfg)
    first, _ = load_preprocessed(RunContext(cfg, ctx.run_dir))
    again, _ = load_preprocessed(RunContext(cfg, ctx.run_dir))
    assert first == first
    assert first != again  # no element-wise array comparison, which would raise
    assert first.X.tobytes() == again.X.tobytes()


def test_select_without_cleaned_arrays_fails_closed(cfg):
    ctx = cmd_preprocess(cfg)
    (ctx.run_dir / "cleaned.npy").unlink()
    with pytest.raises(PipelineError, match="cleaned.npy missing; run `preprocess` first"):
        cmd_select(cfg)
    manifest = json.loads((ctx.run_dir / "run_manifest.json").read_text())
    assert "run `preprocess` first" in manifest["error"]
    assert manifest["stages_completed"] == ["preprocess"]


def corrupt(run_dir, case: str) -> str:
    """Rewrite the run's cleaned table as `case` names; the error's text."""
    path, prep_path = run_dir / "cleaned.npy", run_dir / "preprocess.json"
    prep = json.loads(prep_path.read_text())
    columns = prep["columns"]
    data = path.read_bytes()
    record = (len(data) - npy_header_bytes(path)) // prep["clean_rows"]
    if case == "a column of an unknown stored type":
        columns[1][2] = "i8"
    elif case == "a column without its stored type":
        columns[1] = columns[1][:2]
    elif case == "no label entry":
        del columns[-1]
    elif case == "a column of another stored type":
        columns[0][2] = "u2"
    elif case == "another row count":
        prep["clean_rows"] -= 1
    elif case == "not an npy file":
        path.write_bytes(data[:5])
    elif case == "npy format 2.0":
        records = np.load(path)
        with open(path, "wb") as fh:
            np.lib.format.write_array(fh, records, version=(2, 0))
    elif case == "a record too few":
        path.write_bytes(data[:-record])
    elif case == "a record too many":
        path.write_bytes(data + data[-record:])
    elif case == "an earlier layout":
        records = np.load(path)
        np.savez(run_dir / "cleaned.npz", X=records[["u1", "u2", "u4", "f8"]],
                 y=records["label"])
        path.unlink()
        prep["columns"] = [entry[:2] for entry in columns]
    prep_path.write_text(json.dumps(prep))
    return {
        "a column of an unknown stored type": f"{prep_path}: `columns` entry",
        "a column without its stored type": f"{prep_path}: `columns` entry",
        "no label entry": f"{prep_path}: `columns` holds 0 label entries, not 1",
        "a column of another stored type": f"{path}: holds ",
        "another row count": f"{path}: holds ",
        "not an npy file": f"{path}: is not an npy file",
        "npy format 2.0": f"{path}: is in npy format (2, 0), not (1, 0)",
        "a record too few": f"{path}: ends before row {prep['clean_rows']}",
        "a record too many": f"{path}: holds more than {prep['clean_rows']} rows",
        "an earlier layout": f"{path} missing; run `preprocess` first",
    }[case]


def test_cleaned_arrays_disagreeing_with_columns_fail_closed(cfg):
    for case in ("a column of an unknown stored type", "a column without its stored type",
                 "no label entry", "a column of another stored type", "another row count",
                 "not an npy file", "npy format 2.0", "a record too few",
                 "a record too many", "an earlier layout"):
        ctx = cmd_preprocess(cfg)  # select continues the newest run
        want = corrupt(ctx.run_dir, case)
        with pytest.raises(PipelineError) as caught:
            cmd_select(cfg)
        message = str(caught.value)
        assert message.startswith(want), (case, message)
        if case != "an earlier layout":
            assert message.endswith("; run `preprocess` again"), case
        manifest = json.loads((ctx.run_dir / "run_manifest.json").read_text())
        assert manifest["error"] == f"PipelineError: {message}", case
        assert manifest["stages_completed"] == ["preprocess"], case
        assert not (ctx.run_dir / "attacka").exists(), case


# (edit of the `sig` entry [name, kind, type, places, lo, span], the
# reason its refusal gives after "`columns` entry <entry> ")
PLACES_CASES = {
    "no places": (lambda e: e[:3] + [None] + e[4:],
                  "has places None, not an int from 0 to 9 as type u4 takes"),
    "negative places": (lambda e: e[:3] + [-1] + e[4:],
                        "has places -1, not an int from 0 to 9 as type u4 takes"),
    "places above 9": (lambda e: e[:3] + [10] + e[4:],
                       "has places 10, not an int from 0 to 9 as type u4 takes"),
    "fractional places": (lambda e: e[:3] + [6.5] + e[4:],
                          "has places 6.5, not an int from 0 to 9 as type u4 takes"),
    "places of a float": (lambda e: e[:3] + [6.0] + e[4:],
                          "has places 6.0, not an int from 0 to 9 as type u4 takes"),
    "boolean places": (lambda e: e[:3] + [True] + e[4:],
                       "has places True, not an int from 0 to 9 as type u4 takes"),
    "places on an f8 column": (lambda e: e[:2] + ["f8"] + e[3:],
                               "has places 6, not an int from 0 to 0 as type f8 takes"),
    "an entry from before places": (
        lambda e: e[:3] + e[4:],
        'is not [name, kind, type, places, lo, span] or [name, "label", type], type one of '
        "('u1', 'u2', 'u4', 'f8')"),
}


@pytest.mark.parametrize("case", PLACES_CASES)
def test_columns_of_bad_places_fail_closed_naming_the_file(cfg, case):
    edit, why = PLACES_CASES[case]
    ctx = cmd_preprocess(cfg)
    prep_path = ctx.run_dir / "preprocess.json"
    prep = json.loads(prep_path.read_text())
    assert prep["columns"][1][:4] == ["sig", "numeric", "u4", 6]
    entry = prep["columns"][1] = edit(prep["columns"][1])
    prep_path.write_text(json.dumps(prep))
    with pytest.raises(PipelineError) as caught:
        cmd_select(cfg)
    message = f"{prep_path}: `columns` entry {entry} {why}; run `preprocess` again"
    assert str(caught.value) == message
    manifest = json.loads((ctx.run_dir / "run_manifest.json").read_text())
    assert manifest["error"] == f"PipelineError: {message}"
    assert manifest["stages_completed"] == ["preprocess"]
    assert not (ctx.run_dir / "attacka").exists()


def edit_json(change):
    """An edit of a JSON file: its document replaced by `change` of it."""
    def edit(path):
        path.write_text(json.dumps(change(json.loads(path.read_text()))))
    return edit


def cut_short(path):
    path.write_bytes(path.read_bytes()[:40])


def without(key):
    return lambda doc: {k: v for k, v in doc.items() if k != key}


SELECTION = "attacka/selection-0.35.json"
# (file, edit, command, what the message says after "<path>: ", the stage
# it names): each edit used to end in a bare exception naming no file
STAGE_FILE_CASES = {
    "preprocess.json without clean_rows": (
        "preprocess.json", edit_json(without("clean_rows")), cmd_select,
        "holds no int `clean_rows`", "preprocess"),
    "preprocess.json cut short": (
        "preprocess.json", cut_short, cmd_select, "cannot be read (", "preprocess"),
    "preprocess.json removed": (
        "preprocess.json", Path.unlink, cmd_select, "cannot be read (", "preprocess"),
    "clean_rows of -1": (
        "preprocess.json", edit_json(lambda doc: {**doc, "clean_rows": -1}), cmd_select,
        "`clean_rows` is -1", "preprocess"),
    "a column named 5": (
        "preprocess.json",
        edit_json(lambda doc: {**doc, "columns": [[5, *doc["columns"][0][1:]],
                                                  *doc["columns"][1:]]}),
        cmd_select, "`columns` entry [5, ", "preprocess"),
    "a column's categories of 3": (
        "preprocess.json",
        edit_json(lambda doc: {**doc, "category_mapping": {**doc["category_mapping"],
                                                           "proto": 3}}),
        cmd_select, "`category_mapping` maps a column to no list", "preprocess"),
    "a selection of []": (
        SELECTION, edit_json(lambda doc: []), cmd_train_eval,
        "holds a list, not an object", "select"),
    "a selection without features": (
        SELECTION, edit_json(lambda doc: {"threshold": 0.35}), cmd_train_eval,
        "holds no list `features`", "select"),
    "a selected feature without a name": (
        SELECTION, edit_json(lambda doc: {**doc, "features": [
            without("name")(f) for f in doc["features"]]}), cmd_train_eval,
        "a `features` entry has no str `name` and int `index`", "select"),
    "a manifest cut short": (
        "run_manifest.json", cut_short, cmd_train_eval, "cannot be read (", "preprocess"),
    "a manifest of [1]": (
        "run_manifest.json", edit_json(lambda doc: [1]), cmd_train_eval,
        "holds a list, not an object", "preprocess"),
}


@pytest.mark.parametrize("case", STAGE_FILE_CASES)
def test_unreadable_stage_files_fail_closed_naming_the_file(cfg, case):
    name, edit, command, why, stage = STAGE_FILE_CASES[case]
    run_dir = cmd_preprocess(cfg).run_dir
    if command is cmd_train_eval:
        cmd_select(cfg)
        assert json.loads((run_dir / SELECTION).read_text())["features"]
    path = run_dir / name
    edit(path)
    manifest = (run_dir / "run_manifest.json").read_bytes()
    with pytest.raises(PipelineError) as caught:
        command(cfg)
    message = str(caught.value)
    assert message.startswith(f"{path}: {why}"), message
    assert message.endswith(f"; run `{stage}` again"), message
    if name == "run_manifest.json":  # refused before the command starts: left as it was
        assert (run_dir / name).read_bytes() == manifest
    else:
        after = json.loads((run_dir / "run_manifest.json").read_text())
        assert after["error"] == f"PipelineError: {message}"
        assert after["stages_completed"] == json.loads(manifest)["stages_completed"]


@pytest.mark.parametrize("staged", [False, True])
def test_one_attack_table_is_alive_at_a_time(tmp_path, monkeypatch, staged):
    # three attacks share one large benign class; select scores each attack
    # through its rows and builds no table at all, and each feature subset's
    # train and test tables must be dropped before the next subset's are
    # gathered, in this process or in a forked worker; relief forks even for
    # these small passes, so select's workers are checked too
    fork_every_relief_pass(monkeypatch)
    rng = np.random.default_rng(8)
    attacks = ["AttackA", "AttackB", "AttackC"]
    labels = ["Benign"] * 600 + [a for a in attacks for _ in range(40)]
    lines = ["sig,noise,Label"] + [
        f"{(0.6 if label != 'Benign' else 0.0) + 0.4 * rng.random():.6f},"
        f"{rng.random():.6f},{label}" for label in labels]
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "flows.csv").write_text("\n".join(lines) + "\n")
    cfg = synth_config(tmp_path, inputs=[str(tmp_path / "data" / "flows.csv")],
                       attacks=attacks, thresholds=[0.35],
                       sampling={"schemes": dict.fromkeys(attacks, "fraction_stratified")})
    log = tmp_path / "alive.txt"  # a file, which forked workers append to as well

    def spy(name, fn):
        seen = []

        def call(t, *args, **kwargs):
            gc.collect()
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{name} {sum(ref() is not None for ref in seen)}\n")
            seen.append(weakref.ref(t))
            return fn(t, *args, **kwargs)
        return call

    selecting = []  # nonempty inside stage_select, and so in its forked workers
    real_select, real_subtable = pipeline.stage_select, tabular.subtable

    def stage_select(*args):
        selecting.append(True)
        try:
            return real_select(*args)
        finally:
            selecting.pop()

    def subtable(*args, **kwargs):
        if selecting:
            with open(log, "a", encoding="utf-8") as fh:
                fh.write("subtable_in_select 1\n")
        return real_subtable(*args, **kwargs)

    monkeypatch.setattr(pipeline, "stage_select", stage_select)
    monkeypatch.setattr(pipeline, "subtable", subtable)
    monkeypatch.setattr(tabular, "subtable", subtable)
    monkeypatch.setitem(pipeline._TRAINERS, "logistic_regression",
                        spy("logistic_regression", pipeline._TRAINERS["logistic_regression"]))
    for workers in (1, 3):
        use_cpus(monkeypatch, workers)
        log.write_text("")
        run_commands(cfg, staged)
        alive = {"subtable_in_select": [], "logistic_regression": []}
        for line in log.read_text(encoding="utf-8").splitlines():
            name, count = line.split()
            alive[name].append(int(count))
        assert alive["subtable_in_select"] == [], workers
        assert alive["logistic_regression"] == [0, 0, 0], workers


def test_resume_does_not_repeat_preprocess_warnings(tmp_path):
    (tmp_path / "data").mkdir()
    cfg = synth_config(tmp_path)
    # the invalid row holds the only other value of `const`, which cleaning
    # therefore drops late, with a warning
    late = tmp_path / "data" / "late.csv"
    late.write_text("Timestamp,proto,sig,anti,noise,const,Label\n"
                    "x,tcp,inf,0.5,0.5,1,Benign\n")
    cfg = dataclasses.replace(cfg, inputs=(*cfg.inputs, str(late)))
    pre = cmd_preprocess(cfg)
    want = ["columns became single-valued after row cleaning and were dropped: const"]
    assert pre.warnings == want
    # resuming rebuilds the cleaned table and splits it again, silently: a
    # warning would surface here as an error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cmd_select(cfg)
        cmd_train_eval(cfg)
    manifest = json.loads((pre.run_dir / "run_manifest.json").read_text())
    assert manifest["stages_completed"] == ["preprocess", "select", "train_eval"]
    assert manifest["warnings"] == want


def test_a_numeric_label_column_runs(tmp_path):
    # the label column holds the numbers 0 and 1, which the config names as text
    rng = np.random.default_rng(0)
    labels = [int(i % 4 == 0) for i in range(200)]
    lines = ["sig,noise,Label"] + [f"{0.6 * y + 0.4 * rng.random():.6f},{rng.random():.6f},{y}"
                                   for y in labels]
    path = tmp_path / "flows.csv"
    path.write_text("\n".join(lines) + "\n")
    cfg = parse_config({"inputs": [str(path)], "label_column": "Label", "benign_label": "0",
                        "attacks": ["1"], "output_dir": str(tmp_path / "out"),
                        "relief_m": 50, "thresholds": [0.1],
                        "sampling": {"schemes": {"1": "fraction_stratified"}},
                        "classifiers": {"logistic": {"epochs": 20}, "svm": {"epochs": 2},
                                        "forest": {"tree_count": 2}}})
    ctx = cmd_run(cfg)
    assert ctx.stages_completed == ["preprocess", "select", "train_eval"]
    prep = json.loads((ctx.run_dir / "preprocess.json").read_text())
    assert prep["per_attack_rows"] == {"1": 200}
    rows = json.loads((ctx.run_dir / "metrics.json").read_text())
    assert [(row["attack"], row["split"]) for row in rows[:2]] == [("1", "train"), ("1", "test")]
    assert len(rows) == 10


def test_a_staged_command_continues_a_manifest_without_workers_or_memory(cfg):
    # runs written before the workers and the peak memory were recorded
    pre = cmd_preprocess(cfg)
    path = pre.run_dir / "run_manifest.json"
    old = json.loads(path.read_text())
    del old["workers"], old["peak_rss_mb"]
    path.write_text(json.dumps(old))
    cmd_select(cfg)
    new = json.loads(path.read_text())
    assert new["stages_completed"] == ["preprocess", "select"]
    assert new["stage_seconds"]["preprocess"] == old["stage_seconds"]["preprocess"]
    assert set(new["stage_seconds"]) == {"preprocess", "select"}
    assert set(new["workers"]) == set(new["peak_rss_mb"]) == {"select"}
    assert new["warnings"] == old["warnings"] and new["skipped"] == old["skipped"]


def test_benign_label_without_valid_rows_fails_in_preprocess(tmp_path):
    (tmp_path / "data").mkdir()
    # minority_protect would split a dataset without benign rows, so only
    # the table split can refuse it before scoring
    cfg = synth_config(tmp_path, benign_label="Ghost",
                       sampling={"schemes": {"AttackA": "minority_protect",
                                             "AttackB": "minority_protect"}})
    # "Ghost" is a category of the merged input, but its only row is invalid
    ghost = tmp_path / "data" / "ghost.csv"
    ghost.write_text("Timestamp,proto,sig,anti,noise,const,Label\n"
                     "x,tcp,inf,0.5,0.5,0,Ghost\n")
    cfg = dataclasses.replace(cfg, inputs=(*cfg.inputs, str(ghost)))
    with pytest.raises(TableError, match="no rows carry the benign label 'Ghost'"):
        cmd_preprocess(cfg)
    run_dir, = Path(cfg.output_dir).glob("run-*")
    manifest = json.loads((run_dir / "run_manifest.json").read_text())
    assert manifest["error"] == "TableError: no rows carry the benign label 'Ghost'"
    assert manifest["stages_completed"] == []
    assert not (run_dir / "cleaned.npy").exists()


@pytest.mark.parametrize("command", ["run", "preprocess"])
def test_split_too_small_to_train_fails_in_preprocess(tmp_path, command):
    # 2 attack rows: minority_protect draws 1 of them to train on, too few
    # for naive Bayes; the run must stop before any scoring, naming the attack
    rng = np.random.default_rng(3)
    labels = ["Benign"] * 100 + ["AttackA"] * 40 + ["Rare"] * 2
    lines = ["sig,noise,Label"] + [f"{rng.random():.6f},{rng.random():.6f},{label}"
                                   for label in labels]
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "flows.csv").write_text("\n".join(lines) + "\n")
    cfg = synth_config(tmp_path, inputs=[str(tmp_path / "data" / "flows.csv")],
                       attacks=["AttackA", "Rare"], excluded_columns=[],
                       sampling={"schemes": {"AttackA": "fraction_stratified",
                                             "Rare": "minority_protect"}})
    with pytest.raises(SamplingError, match="^Rare: class 1 train draw has 1 row"):
        (cmd_run if command == "run" else cmd_preprocess)(cfg)
    run_dir, = Path(cfg.output_dir).glob("run-*")
    manifest = json.loads((run_dir / "run_manifest.json").read_text())
    assert manifest["error"].startswith("SamplingError: Rare: class 1 train draw")
    assert manifest["stages_completed"] == []
    assert [p.name for p in run_dir.iterdir()] == ["run_manifest.json"]


def test_attack_slug():
    assert attack_slug("Brute Force -Web") == "brute-force-web"
    assert attack_slug("SQL Injection") == "sql-injection"
    assert attack_slug("///") == "attack"


def test_new_run_dirs_never_collide(cfg):
    d1 = new_run_dir(cfg)
    d2 = new_run_dir(cfg)
    assert d1 != d2
    assert find_run_dir(cfg) == max(d1, d2)


def warning_config(tmp_path):
    """A config whose select and train-eval stages both warn: relief_m above
    the rows, and a forest features_per_split above the smaller subsets."""
    return synth_config(tmp_path, relief_m=10**6, classifiers={
        "logistic": {"epochs": 60}, "svm": {"epochs": 5}, "tree": {"max_depth": 6},
        "forest": {"tree_count": 5, "max_depth": 6, "features_per_split": 3}})


# what the manifest says of time, workers and memory, the only parts that
# may differ between runs with different worker counts
RESOURCE_KEYS = ("stage_seconds", "workers", "peak_rss_mb")


@pytest.mark.parametrize("staged", [False, True])
def test_run_directory_is_the_same_for_any_worker_count(tmp_path, monkeypatch, staged):
    # relief forks even for this small pass, so select uses 3 workers
    fork_every_relief_pass(monkeypatch)
    (tmp_path / "data").mkdir()
    cfg = warning_config(tmp_path)
    manifests, files = {}, {}
    for cpus in (1, 3):
        use_cpus(monkeypatch, cpus)
        run_dir = run_commands(cfg, staged).run_dir
        manifests[cpus] = json.loads((run_dir / "run_manifest.json").read_text())
        files[cpus] = run_files(run_dir)
    assert sorted(files[3]) == sorted(files[1])
    for rel, data in files[1].items():
        assert files[3][rel] == data, rel
    one, three = manifests[1], manifests[3]
    assert one["workers"] == {"preprocess": 1, "select": 1, "train_eval": 1}
    assert three["workers"] == {"preprocess": 1, "select": 3, "train_eval": 3}
    for stage in ("preprocess", "select", "train_eval"):
        assert one["peak_rss_mb"][stage]["main"] > 0
        assert one["peak_rss_mb"][stage]["workers"] is None
        assert three["peak_rss_mb"][stage]["main"] > 0
        assert (three["peak_rss_mb"][stage]["workers"] is None) == (stage == "preprocess")
    assert three["peak_rss_mb"]["select"]["workers"] > 0
    assert three["peak_rss_mb"]["train_eval"]["workers"] > 0
    # select's and train-eval's warnings both, in the same order
    assert any("relief_m=1000000 exceeds" in w for w in one["warnings"])
    assert any("features_per_split=3 exceeds" in w for w in one["warnings"])
    for key in RESOURCE_KEYS:
        del one[key], three[key]
    assert three == one


def test_one_worker_forks_nothing(cfg, monkeypatch):
    use_cpus(monkeypatch, 1)

    def no_fork():
        raise AssertionError("forked with one worker")

    monkeypatch.setattr(pipeline.parallel.os, "fork", no_fork)
    ctx = cmd_run(cfg)
    assert ctx.workers == {"preprocess": 1, "select": 1, "train_eval": 1}


def test_forking_beside_a_live_thread_records_no_warning(tmp_path, monkeypatch):
    # Python 3.12+ warns when a process with several threads forks; the
    # fan-outs must not let that warning into the manifest or fail on it
    (tmp_path / "data").mkdir()
    cfg = warning_config(tmp_path)
    use_cpus(monkeypatch, 1)
    alone = cmd_run(cfg)
    use_cpus(monkeypatch, 3)
    stop = threading.Event()
    helper = threading.Thread(target=stop.wait)
    helper.start()
    try:
        forked = cmd_run(cfg)
    finally:
        stop.set()
        helper.join()
    assert forked.workers["train_eval"] == 3
    assert forked.warnings == alone.warnings
    manifest = json.loads((forked.run_dir / "run_manifest.json").read_text())
    assert manifest["warnings"] == alone.warnings


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("staged", [False, True])
def test_a_failing_cell_is_named_and_leaves_no_child(cfg, monkeypatch, staged, cpus):
    use_cpus(monkeypatch, cpus)
    forks = record_forks(monkeypatch)

    def broken_svm(t, params):
        raise FloatingPointError("overflow in the margin")

    monkeypatch.setitem(pipeline._TRAINERS, "svm", broken_svm)
    # the first cell in order: AttackA, its first distinct subset, first
    # selected at the lowest threshold
    with pytest.raises(FloatingPointError,
                       match=r"^AttackA: threshold 0\.35 svm: overflow in the margin$"):
        run_commands(cfg, staged)
    run_dir = find_run_dir(cfg)
    manifest = json.loads((run_dir / "run_manifest.json").read_text())
    assert manifest["error"] == ("FloatingPointError: AttackA: threshold 0.35 svm: "
                                 "overflow in the margin")
    assert manifest["stages_completed"] == ["preprocess", "select"]
    assert not (run_dir / "metrics.csv").exists()
    assert (len(forks) > 0) == (cpus > 1)
    assert_all_reaped(forks)


@pytest.mark.parametrize("staged", [False, True])
def test_a_scoring_error_names_its_attack(cfg, monkeypatch, staged):
    scored = []
    real_score_all = pipeline.score_all

    def score_all(t, *args, **kwargs):
        scored.append(t.row_count)
        if len(scored) == 2:  # the second attack's
            raise ScoringError("no feature to score")
        return real_score_all(t, *args, **kwargs)

    monkeypatch.setattr(pipeline, "score_all", score_all)
    with pytest.raises(ScoringError, match="^AttackB: no feature to score$"):
        run_commands(cfg, staged)
    manifest = json.loads((find_run_dir(cfg) / "run_manifest.json").read_text())
    assert manifest["error"] == "ScoringError: AttackB: no feature to score"
    assert manifest["stages_completed"] == ["preprocess"]


def test_a_failed_preprocess_keeps_its_warnings(tmp_path):
    # the late single-valued column warns in cleaning, before the split
    # check refuses the 2 rows of "Rare"
    rng = np.random.default_rng(3)
    labels = ["Benign"] * 100 + ["AttackA"] * 40 + ["Rare"] * 2
    lines = ["sig,late,Label"] + [f"{rng.random():.6f},0,{label}" for label in labels]
    lines.append("inf,1,Benign")
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "flows.csv").write_text("\n".join(lines) + "\n")
    cfg = synth_config(tmp_path, inputs=[str(tmp_path / "data" / "flows.csv")],
                       attacks=["AttackA", "Rare"], excluded_columns=[],
                       sampling={"schemes": {"AttackA": "fraction_stratified",
                                             "Rare": "minority_protect"}})
    with pytest.raises(SamplingError, match="^Rare: "):
        cmd_preprocess(cfg)
    run_dir, = Path(cfg.output_dir).glob("run-*")
    manifest = json.loads((run_dir / "run_manifest.json").read_text())
    assert manifest["error"].startswith("SamplingError: Rare: ")
    assert manifest["warnings"] == ["columns became single-valued after row cleaning and "
                                    "were dropped: late"]


@pytest.mark.parametrize("staged", [False, True])
def test_a_failed_select_keeps_the_failing_attacks_warnings(cfg, monkeypatch, staged):
    scored = []
    real_score_all = pipeline.score_all

    def score_all(t, *args, **kwargs):
        scored.append(t.row_count)
        warnings.warn("scoring", UserWarning)
        warnings.warn("scoring again", RuntimeWarning)
        if len(scored) == 2:  # the second attack's
            raise ScoringError("no feature to score")
        return real_score_all(t, *args, **kwargs)

    monkeypatch.setattr(pipeline, "score_all", score_all)
    with (pytest.raises(ScoringError, match="^AttackB: no feature to score$"),
          warnings.catch_warnings(record=True) as shown):
        warnings.simplefilter("always")
        run_commands(cfg, staged)
    manifest = json.loads((find_run_dir(cfg) / "run_manifest.json").read_text())
    assert manifest["error"] == "ScoringError: AttackB: no feature to score"
    assert manifest["warnings"] == [f"{attack}: scoring" for attack in ("AttackA", "AttackB")]
    # a warning of another category is no run warning: it reaches the
    # caller's filters as it was raised
    assert [(w.category, str(w.message)) for w in shown] == [(RuntimeWarning, "scoring again")] * 2


def test_only_user_warnings_become_run_warnings(cfg, monkeypatch):
    # every warning flowsieve raises is a UserWarning; any other meets the
    # caller's filters where it is raised, unchanged, and is no run warning
    real_load = pipeline.load_csv_merged

    def load_csv_merged(*args):
        warnings.warn("deprecated", DeprecationWarning)
        warnings.warn("flowsieve's own", UserWarning)
        return real_load(*args)

    line = load_csv_merged.__code__.co_firstlineno + 1
    monkeypatch.setattr(pipeline, "load_csv_merged", load_csv_merged)
    for action, want in (("always", [(DeprecationWarning, "deprecated", __file__, line)]),
                         ("ignore", [])):
        with warnings.catch_warnings(record=True) as shown:
            warnings.simplefilter(action)
            ctx = cmd_preprocess(cfg)
        assert [(w.category, str(w.message), w.filename, w.lineno) for w in shown] == want
        assert ctx.warnings == ["flowsieve's own"], action
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        with pytest.raises(DeprecationWarning, match="^deprecated$"):
            cmd_preprocess(cfg)
    manifest = json.loads((find_run_dir(cfg) / "run_manifest.json").read_text())
    assert manifest["error"] == "DeprecationWarning: deprecated"
    assert manifest["warnings"] == [] and manifest["stages_completed"] == []


def test_a_failed_train_eval_keeps_the_warnings_up_to_its_failing_cell(cfg, monkeypatch):
    # every classifier warns, and svm then fails: the first failing cell in
    # task order is AttackA's svm cell, the third; later cells may have run
    # in other workers, but their warnings are not the loop's
    def warning(clf, train):
        def trainer(t, params):
            warnings.warn(f"{clf} trains", UserWarning)
            if clf == "svm":
                raise FloatingPointError("overflow in the margin")
            return train(t, params)
        return trainer

    for clf, train in list(pipeline._TRAINERS.items()):
        monkeypatch.setitem(pipeline._TRAINERS, clf, warning(clf, train))
    recorded = {}
    for cpus in (1, 2):
        use_cpus(monkeypatch, cpus)
        with pytest.raises(FloatingPointError, match=r"^AttackA: threshold 0\.35 svm: "):
            cmd_run(cfg)
        manifest = json.loads((find_run_dir(cfg) / "run_manifest.json").read_text())
        assert manifest["stages_completed"] == ["preprocess", "select"]
        assert manifest["workers"]["train_eval"] == cpus
        recorded[cpus] = manifest["warnings"]
    assert recorded[1] == [f"AttackA: threshold 0.35 {clf}: {clf} trains"
                           for clf in ("logistic_regression", "naive_bayes", "svm")]
    assert recorded[2] == recorded[1]
