"""Tests of the benchmark itself: the generator, the result check, smoke runs.

Run with the repository's test command (PYTHONPATH=src python -m pytest).
"""

import dataclasses

import pytest

import child
import gen
import run
from flowsieve import pipeline
from flowsieve.config import parse_config
from flowsieve.tabular import (REASON_NEGATIVE, REASON_NON_FINITE, REASON_REPEATED_HEADER,
                               drop_invalid_rows, load_csv)
from workloads import WORKLOADS

SPEC = run.load_json(run.ROOT / "BENCHMARK.json")


def tiny(workload):
    """The workload at a few hundred rows, under its own name so that no
    recorded digests apply."""
    files = tuple((name, 300, shares) for name, _, shares in workload.files)
    return dataclasses.replace(workload, name=workload.name + "-tiny", files=files,
                               config=dict(workload.config, relief_m=30))


def test_generator_is_byte_deterministic_per_seed(tmp_path):
    files = (("a.csv", 500, {"FTP-BruteForce": 0.2}), ("b.csv", 300, {"SQL Injection": 0.02}))
    digests = {}
    for run_name, seed in (("first", 5), ("again", 5), ("other", 6)):
        out = tmp_path / run_name
        out.mkdir()
        assert gen.write_inputs(files, seed, out) == 800
        digests[run_name] = [child.file_sha256(out / name) for name, _, _ in files]
    assert digests["first"] == digests["again"]
    assert digests["first"][0] != digests["other"][0]


def test_generated_file_has_the_cic_ids2018_defects(tmp_path):
    gen.write_inputs((("a.csv", 2000, {"Brute Force -Web": 0.02}),), 3, tmp_path)
    table, mapping, report = load_csv(tmp_path / "a.csv", "Label")
    assert table.row_count == 2000
    assert table.column_count == 81
    assert report.dropped_row_counts[REASON_REPEATED_HEADER] == gen.REPEATED_HEADERS
    assert set(mapping.columns()) == {"Timestamp", "Service", "Label"}
    assert mapping.categories["Label"] == ("Benign", "Brute Force -Web")
    for name in gen.CONSTANT_COLUMNS:
        assert len(set(table.column(name))) == 1
    _, cleaned = drop_invalid_rows(table)
    assert cleaned.dropped_row_counts[REASON_NON_FINITE] > 0
    assert cleaned.dropped_row_counts[REASON_NEGATIVE] > 0


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("tamper")
    workload = tiny(WORKLOADS["train_grid"])
    gen.write_inputs(workload.files, 1, tmp)
    inputs = [tmp / name for name, _, _ in workload.files]
    ctx = pipeline.cmd_run(parse_config(workload.config_doc(inputs, tmp / "out", 1)))
    return workload, ctx


@pytest.mark.parametrize("kind", sorted(child.DIGESTED))
def test_result_check_rejects_a_tampered_output(finished_run, kind):
    workload, ctx = finished_run

    def result():
        return {"digests": child.result_digests(ctx.run_dir), "skipped_cells": len(ctx.skipped),
                "metric_rows": len((ctx.run_dir / "metrics.csv").read_text().splitlines()) - 1}

    reference = result()
    assert run.problems(workload, reference, reference) == []
    path = sorted(ctx.run_dir.glob(child.DIGESTED[kind]))[-1]
    original = path.read_bytes()
    try:
        path.write_bytes(original.replace(b"0", b"1", 1))
        found = run.problems(workload, result(), reference)
    finally:
        path.write_bytes(original)
    assert found == [f"result digests differ from the reference: {kind}"]


def test_result_check_rejects_a_wrong_metric_row_count(finished_run):
    workload, ctx = finished_run
    bad = {"digests": {}, "skipped_cells": len(ctx.skipped), "metric_rows": 3}
    assert run.problems(workload, bad, None)[0].startswith("metrics.csv has 3 rows")


def test_benchmark_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    layer_map = run.load_json(run.BENCH_DIR / "layer_map.json")
    mapped = [m for entry in layer_map.values() for m in entry["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in SPEC["per_layer"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_untraced_and_traced(tmp_path, name):
    summary = run.measure(tiny(WORKLOADS[name]), 1, 0, True, tmp_path, expected=None,
                          min_runs=1, log=lambda msg: None)
    assert summary["failures"] == []
    assert (summary["attempted"], summary["runs"], summary["traced_runs"]) == (2, 1, 1)
    assert {m["name"] for m in SPEC["end_to_end"]} <= set(summary["end_to_end"])
    assert set(summary["layers"]) == {m["name"] for m in SPEC["per_layer"]}
    assert summary["layers"]["classify.models_trained"] > 0
    assert list(tmp_path.iterdir()) == []  # inputs and outputs are cleaned up
