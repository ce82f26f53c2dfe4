"""Shared table builders and process helpers for the test suite."""

import os

import numpy as np

from flowsieve.tabular import Table, subtable


def make_table(features: dict, labels) -> Table:
    """Table from {name: values} plus a label vector named 'Label'."""
    y = np.asarray(labels, dtype=np.float64)
    cols = [np.asarray(values, dtype=np.float64) for values in features.values()]
    X = np.column_stack(cols) if cols else np.empty((len(y), 0))
    return Table(tuple(features), "Label", X, y)


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


def use_cpus(monkeypatch, n: int) -> None:
    """Make the fan-outs see `n` usable CPUs, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


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
