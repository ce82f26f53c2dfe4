import dataclasses
import gc
import json
import threading
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from flowsieve import pipeline
from flowsieve.config import apply_overrides, config_hash, parse_config
from flowsieve.feature_selection import ScoringError
from flowsieve.pipeline import (PipelineError, RunContext, attack_slug,
                                cmd_preprocess, cmd_run, cmd_select,
                                cmd_train_eval, find_run_dir, load_preprocessed,
                                new_run_dir, stage_train_eval)
from flowsieve.sampling import SamplingError, SplitSpec, split_manifest, split_table
from flowsieve.tabular import (TableError, clean_table, load_csv_merged, split_by_attack,
                               subtable)
from helpers import assert_all_reaped, record_forks, use_cpus


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
    assert prep["columns"] == [["proto", "categorical"], ["sig", "numeric"],
                               ["anti", "numeric"], ["noise", "numeric"], ["Label", "label"]]
    with np.load(ctx.run_dir / "cleaned.npz") as arrays:
        assert sorted(arrays.files) == ["X", "y"]
        X, y = arrays["X"], arrays["y"]
    assert X.shape == (480 + 60 + 60, 4) and X.dtype == np.float64 and X.flags.c_contiguous
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
    assert prep["columns"] == [["proto", "categorical"], ["sig", "numeric"],
                               ["svc", "categorical"], ["Label", "label"]]
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
    assert [n for n, _ in prep["columns"]] == [*kept, "Label"]
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
    reports = stage_train_eval(ctx, cleaned, selections)
    assert {r.threshold for r in reports} == {0.35}
    assert len(ctx.skipped) == 2
    assert all(s["reason"] == "empty selection" for s in ctx.skipped)
    assert any("selects no features" in w for w in ctx.warnings)


def test_rerun_is_byte_identical(tmp_path):
    (tmp_path / "data").mkdir()
    cfg = synth_config(tmp_path)
    ctx1 = cmd_run(cfg)
    ctx2 = cmd_run(cfg)
    assert ctx1.run_dir != ctx2.run_dir
    for rel in ["metrics.csv", "attacka/feature_scores.csv", "attackb/feature_scores.csv",
                "cleaned.npz", "attacka/split/manifest.json"]:
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
    # (attack, feature count) of the forests on fewer features than features_per_split
    small = {(r[0], int(r[2])) for r in rows if r[2] in ("1", "2") and r[3] == "random_forest"}
    assert {attack for attack, _ in small} == {"AttackA", "AttackB"}
    capped = {w for w in manifest["warnings"] if "features_per_split=3 exceeds" in w}
    # each attack's warnings name it
    assert capped == {f"{attack}: features_per_split=3 exceeds feature count {n}; capped at {n}"
                      for attack, n in small}


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
    assert "cleaned.npz" in want and "metrics.csv" in want and "metrics.json" in want
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
        assert [p.name for p in run_dir.rglob("*.npz")] == ["cleaned.npz"]
        assert not list(run_dir.glob("*/dataset.csv"))
        assert not list(run_dir.glob("*/split/*.csv"))


def test_load_preprocessed_equals_in_memory_split(cfg):
    ctx = cmd_preprocess(cfg)
    table, mapping, _ = load_csv_merged(cfg.inputs, cfg.label_column)
    # the cleaned table in memory
    table, _ = clean_table(table, mapping, cfg.excluded_columns)
    per_attack = split_by_attack(table, mapping, cfg.attacks, cfg.benign_label)
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


def test_loaded_tables_compare_by_identity(cfg):
    ctx = cmd_preprocess(cfg)
    first, _ = load_preprocessed(RunContext(cfg, ctx.run_dir))
    again, _ = load_preprocessed(RunContext(cfg, ctx.run_dir))
    assert first == first
    assert first != again  # no element-wise array comparison, which would raise
    assert first.X.tobytes() == again.X.tobytes()


def test_select_without_cleaned_arrays_fails_closed(cfg):
    ctx = cmd_preprocess(cfg)
    (ctx.run_dir / "cleaned.npz").unlink()
    with pytest.raises(PipelineError, match="cleaned.npz missing; run `preprocess` first"):
        cmd_select(cfg)
    manifest = json.loads((ctx.run_dir / "run_manifest.json").read_text())
    assert "run `preprocess` first" in manifest["error"]
    assert manifest["stages_completed"] == ["preprocess"]


def test_cleaned_arrays_disagreeing_with_columns_fail_closed(cfg):
    ctx = cmd_preprocess(cfg)
    path = ctx.run_dir / "cleaned.npz"
    with np.load(path) as arrays:
        X, y = arrays["X"], arrays["y"]
    np.savez(path, X=X[:, 1:], y=y)  # one feature column fewer than `columns` lists
    with pytest.raises(TableError, match="ragged"):
        cmd_select(cfg)
    manifest = json.loads((ctx.run_dir / "run_manifest.json").read_text())
    assert manifest["error"].startswith("TableError: ragged table")
    assert manifest["stages_completed"] == ["preprocess"]
    assert not (ctx.run_dir / "attacka").exists()


@pytest.mark.parametrize("staged", [False, True])
def test_one_attack_table_is_alive_at_a_time(tmp_path, monkeypatch, staged):
    # three attacks share one large benign class; each attack's table must
    # be dropped before the next one is built, and each feature subset's
    # train and test tables before the next subset's are gathered, in this
    # process or in a forked worker
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

    monkeypatch.setattr(pipeline, "score_all", spy("score_all", pipeline.score_all))
    monkeypatch.setitem(pipeline._TRAINERS, "logistic_regression",
                        spy("logistic_regression", pipeline._TRAINERS["logistic_regression"]))
    for workers in (1, 3):
        use_cpus(monkeypatch, workers)
        log.write_text("")
        run_commands(cfg, staged)
        alive = {"score_all": [], "logistic_regression": []}
        for line in log.read_text(encoding="utf-8").splitlines():
            name, count = line.split()
            alive[name].append(int(count))
        assert alive["score_all"] == [0, 0, 0], workers
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
    assert not (run_dir / "cleaned.npz").exists()


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
