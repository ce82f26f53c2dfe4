import json
from pathlib import Path

import pytest

from flowsieve.config import (ConfigError, apply_overrides, config_hash,
                              load_config, parse_config)


def base_doc(tmp_path, **extra):
    inp = tmp_path / "data.csv"
    inp.write_text("a,Label\n1,Benign\n2,FTP\n")
    doc = {
        "inputs": [str(inp)],
        "label_column": "Label",
        "benign_label": "Benign",
        "attacks": ["FTP-BruteForce"],
        "output_dir": str(tmp_path / "out"),
    }
    doc.update(extra)
    return doc


def test_defaults(tmp_path):
    cfg = parse_config(base_doc(tmp_path))
    assert cfg.thresholds == (0.35, 0.40, 0.45, 0.50, 0.55)
    assert cfg.excluded_columns == ("Timestamp",)
    assert cfg.bin_count == 10
    assert cfg.relief_m is None
    assert cfg.sampling.scheme_for("FTP-BruteForce") == "fraction_stratified"
    assert cfg.classifiers.forest.tree_count == 10
    assert cfg.classifiers.svm.seed == 0


def test_unknown_keys_fail_closed(tmp_path):
    with pytest.raises(ConfigError, match="treshold_grid"):
        parse_config(base_doc(tmp_path, treshold_grid=[0.5]))
    with pytest.raises(ConfigError, match="sampling"):
        parse_config(base_doc(tmp_path, sampling={"trainfrac": 0.5}))
    with pytest.raises(ConfigError, match="classifiers.svm"):
        parse_config(base_doc(tmp_path, classifiers={"svm": {"gamma": 1.0}}))


def test_threshold_validation(tmp_path):
    with pytest.raises(ConfigError, match="at least one"):
        parse_config(base_doc(tmp_path, thresholds=[]))
    with pytest.raises(ConfigError, match="strictly increasing"):
        parse_config(base_doc(tmp_path, thresholds=[0.4, 0.4]))
    with pytest.raises(ConfigError, match="lie in"):
        parse_config(base_doc(tmp_path, thresholds=[0.0, 0.5]))


def test_thresholds_with_one_file_tag_fail_at_load(tmp_path):
    # both name their selection file selection-0.4.json: the second would
    # fail mid-run, after the first attack's relief
    doc = base_doc(tmp_path, thresholds=[0.3, 0.4000001, 0.4000002])
    with pytest.raises(ConfigError, match=r"^thresholds\[2\] 0\.4000002 has the file tag "
                                          r"'0\.4' of thresholds\[1\] 0\.4000001$"):
        parse_config(doc)


def test_required_keys_and_paths(tmp_path):
    doc = base_doc(tmp_path)
    del doc["benign_label"]
    with pytest.raises(ConfigError, match="benign_label"):
        parse_config(doc)
    inside = base_doc(tmp_path)
    inside["inputs"] = [str(tmp_path / "out" / "x.csv")]
    with pytest.raises(ConfigError, match="collides"):
        parse_config(inside)


def test_scheme_resolution(tmp_path):
    doc = base_doc(tmp_path, attacks=["Oddball"])
    with pytest.raises(ConfigError, match="Oddball"):
        parse_config(doc)
    doc = base_doc(tmp_path, attacks=["Oddball"],
                   sampling={"schemes": {"Oddball": "minority_protect"}})
    cfg = parse_config(doc)
    assert cfg.sampling.scheme_for("Oddball") == "minority_protect"
    doc = base_doc(tmp_path, attacks=["Oddball"],
                   sampling={"schemes": {"Oddball": "bogus"}})
    with pytest.raises(ConfigError, match="unknown scheme"):
        parse_config(doc)


def test_classifier_params_seeded_from_global(tmp_path):
    cfg = parse_config(base_doc(tmp_path, seed=99,
                                classifiers={"forest": {"tree_count": 3}}))
    assert cfg.classifiers.forest.tree_count == 3
    assert cfg.classifiers.forest.seed == 99
    cfg2 = parse_config(base_doc(tmp_path, seed=99,
                                 classifiers={"forest": {"seed": 5}}))
    assert cfg2.classifiers.forest.seed == 5


def test_load_config_and_hash(tmp_path):
    doc = base_doc(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    cfg = load_config(path)
    assert cfg.label_column == "Label"
    assert config_hash(cfg) == config_hash(parse_config(doc))
    other = parse_config(base_doc(tmp_path, seed=1))
    assert config_hash(cfg) != config_hash(other)
    with pytest.raises(ConfigError, match="JSON"):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        load_config(bad)
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.json")


def test_apply_overrides(tmp_path):
    cfg = parse_config(base_doc(tmp_path))
    out = apply_overrides(cfg, thresholds=[0.4, 0.6])
    assert out.thresholds == (0.4, 0.6)
    assert config_hash(out) != config_hash(cfg)
    with pytest.raises(ConfigError, match="--attacks"):
        apply_overrides(cfg, attacks=["Nope"])
    sub = apply_overrides(cfg, attacks=["FTP-BruteForce"])
    assert sub.attacks == ("FTP-BruteForce",)
    with pytest.raises(ConfigError, match="strictly increasing"):
        apply_overrides(cfg, thresholds=[0.5, 0.4])


def test_to_json_round_trips_through_parse(tmp_path):
    cfg = parse_config(base_doc(tmp_path, seed=3, bin_count=7,
                                classifiers={"tree": {"max_depth": 4}}))
    again = parse_config(cfg.to_json())
    assert config_hash(cfg) == config_hash(again)
    assert again.classifiers.tree.max_depth == 4


def test_load_config_seed_moves_only_unset_classifier_seeds(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(base_doc(tmp_path, classifiers={"forest": {"seed": 0}})))
    cfg = load_config(path, seed=7)
    assert cfg.seed == 7
    assert cfg.classifiers.svm.seed == 7  # tracks the global seed
    assert cfg.classifiers.forest.seed == 0  # set in the file, even to the old global seed
    assert config_hash(cfg) != config_hash(load_config(path))


@pytest.mark.parametrize("key, value, path", [
    ("bin_count", 2.5, "bin_count"),
    ("relief_m", 2.5, "relief_m"),
    ("seed", True, "seed"),
    ("classifiers", {"forest": {"tree_count": 2.5}}, "classifiers.forest.tree_count"),
    ("classifiers", {"tree": {"max_depth": 2.5}}, "classifiers.tree.max_depth"),
    ("classifiers", {"svm": {"seed": "5"}}, "classifiers.svm.seed"),
    ("classifiers", {"logistic": {"tune_threshold": 1}}, "classifiers.logistic.tune_threshold"),
])
def test_wrong_json_types_fail_closed(tmp_path, key, value, path):
    with pytest.raises(ConfigError, match=f"^{path.replace('.', '[.]')} must be"):
        parse_config(base_doc(tmp_path, **{key: value}))


@pytest.mark.parametrize("key, value, message", [
    ("inputs", "day1.csv", "inputs must be a JSON list"),
    ("excluded_columns", "Timestamp", "excluded_columns must be a JSON list"),
    ("attacks", "FTP", "attacks must be a JSON list"),
    ("sampling", {"train_fraction": 1.5}, "train_fraction must lie in"),
])
def test_bad_configs_fail_at_load(tmp_path, key, value, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(base_doc(tmp_path, **{key: value}))


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("key, value, path", [
    ("thresholds", [0.5, "X"], r"thresholds\[1\]"),
    ("sampling", {"train_fraction": "X"}, r"sampling\.train_fraction"),
    ("classifiers", {"svm": {"c": "X"}}, r"classifiers\.svm\.c"),
    ("classifiers", {"naive_bayes": {"variance_floor": "X"}},
     r"classifiers\.naive_bayes\.variance_floor"),
    ("classifiers", {"logistic": {"learning_rate": "X"}}, r"classifiers\.logistic\.learning_rate"),
], ids=["threshold", "train_fraction", "svm.c", "variance_floor", "learning_rate"])
def test_non_finite_numbers_fail_at_load(tmp_path, token, key, value, path):
    # json reads these tokens, which are not JSON, as floats; an infinite
    # svm c or variance floor would pass the range checks and fail, or write
    # the token into the model files, only after the input is cleaned
    text = json.dumps(base_doc(tmp_path, **{key: value})).replace('"X"', token)
    (tmp_path / "config.json").write_text(text)
    with pytest.raises(ConfigError, match=f"^{path} must be a finite number, got "):
        load_config(tmp_path / "config.json")


SEEDED = ("logistic", "naive_bayes", "svm", "tree", "forest")


@pytest.mark.parametrize("extra, message", [
    # the global seed is every classifier's seed that the document leaves unset
    ({"seed": -1}, r"classifiers\.logistic: seed must be non-negative, got -1"),
    ({"seed": -1, "classifiers": {key: {"seed": 0} for key in SEEDED}},
     "seed must be non-negative, got -1"),
    *(({"classifiers": {key: {"seed": -2}}},
       rf"classifiers\.{key}: seed must be non-negative, got -2") for key in SEEDED),
])
def test_negative_seed_fails_at_load(tmp_path, extra, message):
    # np.random.default_rng would refuse it only after the input is cleaned
    with pytest.raises(ConfigError, match=f"^{message}$"):
        parse_config(base_doc(tmp_path, **extra))


def test_repeated_attack_fails_at_load(tmp_path):
    # would fail mid-run, after the first attack's relief: its bins.json exists
    doc = base_doc(tmp_path, attacks=["FTP-BruteForce", "SSH-Bruteforce", "FTP-BruteForce"])
    with pytest.raises(ConfigError, match=r"^attacks\[2\] 'FTP-BruteForce' repeats attacks\[0\] "):
        parse_config(doc)
    cfg = parse_config(base_doc(tmp_path, attacks=["FTP-BruteForce", "SSH-Bruteforce"]))
    with pytest.raises(ConfigError, match=r"^attacks\[1\] 'SSH-Bruteforce' repeats"):
        apply_overrides(cfg, attacks=["SSH-Bruteforce", "SSH-Bruteforce"])


def test_repeated_input_fails_at_load(tmp_path, monkeypatch):
    # its rows would be loaded twice
    monkeypatch.chdir(tmp_path)
    doc = base_doc(tmp_path, inputs=["data.csv", "./data.csv", str(tmp_path / "data.csv")])
    with pytest.raises(ConfigError, match=r"^inputs\[1\] './data.csv' repeats inputs\[0\] "
                                          r"'data.csv'$"):
        parse_config(doc)
    with pytest.raises(ConfigError, match=r"^inputs\[1\] '.+' repeats inputs\[0\] 'data.csv'$"):
        parse_config(dict(doc, inputs=doc["inputs"][::2]))


def test_benign_label_as_attack_fails_at_load(tmp_path):
    # would fail after preprocess: its table's labels are single-valued
    with pytest.raises(ConfigError, match=r"^attacks\[1\] 'Benign' is the benign_label"):
        parse_config(base_doc(tmp_path, attacks=["FTP-BruteForce", "Benign"]))


def test_bad_excluded_columns_fail_at_load(tmp_path):
    # the label would fail only after the whole input is parsed, and a
    # repeated name would be reported as dropped twice
    with pytest.raises(ConfigError, match=r"^excluded_columns\[0\] 'Label' is the label_column"):
        parse_config(base_doc(tmp_path, excluded_columns=["Label", "Timestamp"]))
    with pytest.raises(ConfigError, match=r"^excluded_columns\[2\] 'Timestamp' repeats "
                                          r"excluded_columns\[1\]"):
        parse_config(base_doc(tmp_path, excluded_columns=["Flow ID", "Timestamp", "Timestamp"]))
    assert parse_config(base_doc(tmp_path, excluded_columns=[])).excluded_columns == ()


def test_attacks_sharing_a_directory_fail_at_load(tmp_path):
    doc = base_doc(tmp_path, attacks=["SQL Injection", "SQL-Injection"],
                   sampling={"schemes": {"SQL-Injection": "minority_protect"}})
    with pytest.raises(ConfigError, match=r"^attacks\[1\] 'SQL-Injection' has the directory "
                                          r"name of attacks\[0\] 'SQL Injection'"):
        parse_config(doc)


def test_fraction_sum_is_checked_for_every_scheme(tmp_path):
    # minority_protect draws the benign class by both fractions too, so it
    # would fail only in preprocess, after every input is loaded and cleaned
    sampling = {"train_fraction": 0.6, "test_fraction": 0.5}
    for attack in ("SQL Injection", "FTP-BruteForce"):
        with pytest.raises(ConfigError, match=rf"^sampling for attack '{attack}': "
                                              r"train_fraction \+ test_fraction must not "):
            parse_config(base_doc(tmp_path, attacks=[attack], sampling=sampling))


# Staged commands find their run directory by this hash, so these values
# must not drift: a change would strand every existing run directory.
PIN_MINIMAL = {"inputs": ["data/day1.csv"], "label_column": "Label",
               "benign_label": "Benign", "attacks": ["FTP-BruteForce"],
               "output_dir": "out"}
PIN_FULL = {
    "inputs": ["data/day1.csv", "data/day2.csv"], "label_column": "Label",
    "benign_label": "Benign", "attacks": ["FTP-BruteForce", "SQL Injection", "Oddball"],
    "output_dir": "out", "excluded_columns": ["Timestamp", "Flow ID"],
    "bin_count": 7, "relief_m": 300, "thresholds": [0.3, 0.45, 0.6], "seed": 11,
    "sampling": {"schemes": {"Oddball": "minority_protect"}, "train_fraction": 0.3,
                 "test_fraction": 0.15, "attack_train_fraction": 0.6},
    "classifiers": {
        "logistic": {"learning_rate": 0.25, "epochs": 40, "decision_threshold": 0.4,
                     "tune_threshold": True},
        "naive_bayes": {"variance_floor": 1e-6},
        "svm": {"c": 2, "epochs": 3, "schedule": "constant", "learning_rate": 0.05,
                "seed": 4},
        "tree": {"criterion": "information_gain", "max_depth": 5, "min_samples_leaf": 2},
        "forest": {"tree_count": 3, "features_per_split": 4, "bootstrap": False,
                   "max_depth": 6}}}


@pytest.mark.parametrize("doc, attacks, plain, overridden, seed5", [
    (PIN_MINIMAL, ["FTP-BruteForce"],
     "552549ec58219d79a756c92a7381a2f1dd588002e0904d5d5e408eaa03f9a0d5",
     "859add4275b27ec383f88f64b12262de6adf34d8c6cf9f133a1ca63e3c47e1c0",
     "a175e17919135234ddb3537bd1bfc68f9052a2ca7a47bc24c636bf9489fe7b6e"),
    (PIN_FULL, ["SQL Injection", "Oddball"],
     "a1e4ec52237a260dc51ae79cd9fa2d875cdda0c0adc3ef3c9699889c89997b64",
     "2e84c178906f7eb8bce1d6c8c3d07a0ef54b1d02cbdd0e3a81aa146312b9c944",
     "8a5afe4c63222a0d37ebd41cce81ce103f0ca2d7ffffae1b213e3bb9172444c6"),
], ids=["minimal", "full"])
def test_config_hash_is_pinned(tmp_path, doc, attacks, plain, overridden, seed5):
    cfg = parse_config(doc)
    assert config_hash(cfg) == plain
    assert config_hash(apply_overrides(cfg, output_dir="elsewhere", attacks=attacks,
                                       thresholds=[0.25, 0.5])) == overridden
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert config_hash(load_config(path, seed=5)) == seed5


def test_readme_example_config_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("Example config:", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    cfg = parse_config(json.loads(example))
    assert cfg.attacks == ("FTP-BruteForce", "SSH-Bruteforce")
    assert cfg.relief_m == 5000
