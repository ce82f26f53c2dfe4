"""Shared table builders and process helpers for the test suite."""

import os
import tempfile
from pathlib import Path

import numpy as np

from flowsieve import feature_selection, pipeline
from flowsieve.tabular import Table, plan_cleaning, subtable


def make_table(features: dict, labels) -> Table:
    """Table from {name: values} plus a label vector named 'Label'."""
    y = np.asarray(labels, dtype=np.float64)
    cols = [np.asarray(values, dtype=np.float64) for values in features.values()]
    X = np.column_stack(cols) if cols else np.empty((len(y), 0))
    return Table(tuple(features), "Label", X, y)


def clean_table(t: Table, mapping, excluded):
    """`t` cleaned and normalized as one table, and the cleaning report:
    `plan_cleaning`'s plan, written to a cleaned.npy and a preprocess.json
    and read back as `preprocess` and `load_preprocessed` write and read
    them."""
    plan, report = plan_cleaning(t, mapping, excluded)
    with tempfile.TemporaryDirectory() as tmp:
        pipeline._write_cleaned(Path(tmp), t.X, plan, mapping, t.label_name, {})
        table, _ = pipeline._read_cleaned(Path(tmp))
    return table, report


def rows_of(t: Table, rows) -> Table:
    """The rows `rows` of `t`, every feature, in that order."""
    rows = np.asarray(rows, dtype=np.intp)
    return subtable(t, rows, t.y[rows], t.feature_names)


def blobs_2d(n_per_class: int, seed: int, spread: float = 0.08) -> Table:
    """Two well-separated Gaussian blobs inside the unit square."""
    rng = np.random.default_rng(seed)
    a = rng.normal(0.25, spread, size=(n_per_class, 2))
    b = rng.normal(0.75, spread, size=(n_per_class, 2))
    pts = np.clip(np.vstack([a, b]), 0.0, 1.0)
    labels = np.array([0.0] * n_per_class + [1.0] * n_per_class)
    return make_table({"f0": pts[:, 0], "f1": pts[:, 1]}, labels)


def random_table(rng, n_rows: int, n_features: int) -> Table:
    """Continuous features in [0, 1] with random binary labels (both classes present)."""
    X = rng.random((n_rows, n_features))
    while True:
        y = (rng.random(n_rows) < 0.5).astype(float)
        if 0 < y.sum() < n_rows:
            break
    return make_table({f"f{j}": X[:, j] for j in range(n_features)}, y)


def flow_csv(path, n_rows: int, seed: int = 0):
    """Write a flow-table CSV of `n_rows` rows and 81 columns to `path`: a
    `Timestamp`, 78 numeric flow columns (the last constant), a text
    `Service` and a `Label` that is "Attack" in about 30 % of the rows, with
    about 1 % of rows holding an `Infinity` and 1 % a negative cell: lines
    of about 460 bytes, near the CSE-CIC-IDS2018 day files' 440."""
    rng = np.random.default_rng(seed)
    values = np.round(rng.random((n_rows, 78)) * 10.0 ** rng.integers(0, 6, 78), 1)
    values[:, -1] = 0.0
    cells = values.astype(str)
    cells[rng.random(n_rows) < 0.01, 3] = "Infinity"
    cells[rng.random(n_rows) < 0.01, 5] = "-1"
    services = np.array(["dns", "ftp", "http", "https", "ssh"])[rng.integers(0, 5, n_rows)]
    labels = np.where(rng.random(n_rows) < 0.3, "Attack", "Benign")
    header = ",".join(["Timestamp", *(f"f{j}" for j in range(78)), "Service", "Label"])
    lines = [f"14/02/2018 08:{i // 60 % 60:02d}:{i % 60:02d},{','.join(row)},{service},{label}"
             for i, (row, service, label) in enumerate(zip(cells.tolist(), services, labels))]
    with open(path, "w", encoding="ascii") as fh:
        fh.write(header + "\n" + "\n".join(lines) + "\n")
    return path


def use_cpus(monkeypatch, n: int) -> None:
    """Make the fan-outs see `n` usable CPUs, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def fork_every_relief_pass(monkeypatch) -> None:
    """Make relief fan its batches out however small its pass, as it does
    for passes of at least RELIEF_FORK_CELLS cells."""
    monkeypatch.setattr(feature_selection, "RELIEF_FORK_CELLS", 0)


def record_forks(monkeypatch) -> list[int]:
    """The list that the pids of the processes forked from now on are added to."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def assert_all_reaped(pids) -> None:
    """Each of the child processes `pids` has ended and been waited for."""
    for pid in pids:
        try:
            os.kill(pid, 0)  # finds a child not waited for, even if it has ended
        except ProcessLookupError:
            continue
        raise AssertionError(f"child process {pid} is still there")
