import json
import subprocess
import sys
from pathlib import Path

from flowsieve.cli import main

from test_pipeline import synth_files


def write_config(tmp_path, **extra) -> Path:
    (tmp_path / "data").mkdir(exist_ok=True)
    doc = {
        "inputs": synth_files(tmp_path / "data"),
        "label_column": "Label",
        "benign_label": "Benign",
        "attacks": ["AttackA", "AttackB"],
        "excluded_columns": ["Timestamp"],
        "output_dir": str(tmp_path / "out"),
        "relief_m": 100,
        "sampling": {"schemes": {"AttackA": "fraction_stratified",
                                 "AttackB": "minority_protect"}},
        "classifiers": {"logistic": {"epochs": 40}, "svm": {"epochs": 3},
                        "forest": {"tree_count": 3, "max_depth": 5},
                        "tree": {"max_depth": 5}},
    }
    doc.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def latest_run(out_dir: Path) -> Path:
    return sorted(out_dir.glob("run-*"))[-1]


def test_run_subcommand_success(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    assert main(["run", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "run finished" in out
    run_dir = latest_run(tmp_path / "out")
    assert (run_dir / "metrics.csv").exists()
    assert (run_dir / "run_manifest.json").exists()


def test_staged_subcommands(tmp_path):
    cfg_path = write_config(tmp_path)
    assert main(["preprocess", "--config", str(cfg_path)]) == 0
    assert main(["select", "--config", str(cfg_path)]) == 0
    assert main(["train-eval", "--config", str(cfg_path)]) == 0
    run_dir = latest_run(tmp_path / "out")
    assert (run_dir / "attacka" / "feature_scores.csv").exists()
    assert (run_dir / "metrics.json").exists()


def test_validation_errors_exit_1(tmp_path, capsys):
    cfg_path = write_config(tmp_path, thresholds=[])
    assert main(["run", "--config", str(cfg_path)]) == 1
    assert "config error" in capsys.readouterr().err
    missing = tmp_path / "nope.json"
    assert main(["run", "--config", str(missing)]) == 1
    cfg_path = write_config(tmp_path)
    assert main(["run", "--config", str(cfg_path), "--thresholds", "0.5,abc"]) == 1
    assert main(["run", "--config", str(cfg_path), "--attacks", "Ghost"]) == 1


def test_negative_seed_exits_1_before_reading_the_input(tmp_path, capsys):
    cfg_path = write_config(tmp_path, inputs=[str(tmp_path / "missing.csv")])
    assert main(["run", "--config", str(cfg_path), "--seed", "-1"]) == 1
    assert "config error: classifiers.logistic: seed must be non-negative, got -1" \
        in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # the same config with a valid seed gets as far as the missing input
    assert main(["run", "--config", str(cfg_path), "--seed", "1"]) == 2


def test_an_infinite_config_number_exits_1_before_reading_the_input(tmp_path, capsys):
    cfg_path = write_config(tmp_path, inputs=[str(tmp_path / "missing.csv")],
                            classifiers={"svm": {"c": float("inf")}})
    assert "Infinity" in cfg_path.read_text()
    assert main(["run", "--config", str(cfg_path)]) == 1
    assert "config error: classifiers.svm.c must be a finite number, got inf" \
        in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_preprocess_keeping_no_feature_column_exits_2(tmp_path, capsys):
    # both feature columns are constant: cleaning would keep the label alone,
    # and select would fail on a table preprocess recorded as complete
    lines = ["a,b,Label"] + [f"1,2,{'Attack' if i % 3 == 0 else 'Benign'}" for i in range(30)]
    (tmp_path / "flows.csv").write_text("\n".join(lines) + "\n")
    cfg_path = write_config(tmp_path, inputs=[str(tmp_path / "flows.csv")], attacks=["Attack"],
                            excluded_columns=[],
                            sampling={"schemes": {"Attack": "fraction_stratified"}})
    for command in ("preprocess", "run"):
        assert main([command, "--config", str(cfg_path)]) == 2
        assert (f"{command} failed: PipelineError: cleaning kept no feature column; "
                "dropped 2 single-valued") in capsys.readouterr().err
        run_dir = latest_run(tmp_path / "out")
        manifest = json.loads((run_dir / "run_manifest.json").read_text())
        assert manifest["error"].startswith("PipelineError: cleaning kept no feature column")
        assert manifest["stages_completed"] == []
        assert "table reduced to its label column only" in manifest["warnings"]
        assert sorted(p.name for p in run_dir.iterdir()) == ["run_manifest.json"]


def test_runtime_failure_exit_2(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    # select before preprocess: stage precondition fails at runtime
    assert main(["select", "--config", str(cfg_path)]) == 2
    assert "failed" in capsys.readouterr().err


def test_flag_overrides(tmp_path):
    cfg_path = write_config(tmp_path, classifiers={
        "logistic": {"epochs": 40}, "svm": {"epochs": 3, "seed": 0},
        "forest": {"tree_count": 3, "max_depth": 5}, "tree": {"max_depth": 5}})
    alt_out = tmp_path / "elsewhere"
    code = main(["run", "--config", str(cfg_path), "--out", str(alt_out),
                 "--attacks", "AttackA", "--thresholds", "0.35,0.5",
                 "--seed", "123"])
    assert code == 0
    run_dir = latest_run(alt_out)
    manifest = json.loads((run_dir / "run_manifest.json").read_text())
    assert manifest["config"]["seed"] == 123
    # --seed moves the classifier seeds the file leaves unset, and only those
    assert manifest["config"]["classifiers"]["logistic"]["seed"] == 123
    assert manifest["config"]["classifiers"]["svm"]["seed"] == 0
    assert manifest["config"]["attacks"] == ["AttackA"]
    assert manifest["config"]["thresholds"] == [0.35, 0.5]
    assert not (run_dir / "attackb").exists()


def test_env_var_output_dir(tmp_path, monkeypatch):
    cfg_path = write_config(tmp_path)
    env_out = tmp_path / "envout"
    monkeypatch.setenv("FLOWSIEVE_OUT", str(env_out))
    assert main(["preprocess", "--config", str(cfg_path)]) == 0
    assert env_out.exists() and list(env_out.glob("run-*"))
    # explicit flag wins over the environment
    flag_out = tmp_path / "flagout"
    assert main(["preprocess", "--config", str(cfg_path), "--out", str(flag_out)]) == 0
    assert list(flag_out.glob("run-*"))


def test_console_entry_point(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "flowsieve.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "preprocess" in proc.stdout and "train-eval" in proc.stdout
