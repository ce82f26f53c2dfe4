"""The fan-out helper: task order, warnings, errors and worker processes."""

import os
import time
import warnings

import pytest

from flowsieve import parallel
from flowsieve.parallel import fan_out, worker_count
from helpers import assert_all_reaped, record_forks, use_cpus


@pytest.fixture()
def forks(monkeypatch):
    return record_forks(monkeypatch)


def test_worker_count_is_the_usable_cpus_capped_by_the_tasks(monkeypatch):
    use_cpus(monkeypatch, 3)
    assert [worker_count(n) for n in (0, 1, 2, 3, 7)] == [0, 1, 2, 3, 3]


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_results_come_in_task_order(monkeypatch, forks, cpus):
    use_cpus(monkeypatch, cpus)
    # later tasks finish first
    got = fan_out(lambda i: (time.sleep(0.002 * (8 - i)), i * i, os.getpid())[1:], range(8))
    assert [square for square, _ in got] == [i * i for i in range(8)]
    # the caller is one of the workers, and runs task 0
    assert len(forks) == cpus - 1
    assert got[0][1] == os.getpid()
    assert {pid for _, pid in got} <= {os.getpid(), *forks}
    assert_all_reaped(forks)


@pytest.mark.parametrize("cpus", [1, 3])
def test_warnings_are_raised_again_in_task_order(monkeypatch, cpus):
    use_cpus(monkeypatch, cpus)

    def task(i):
        time.sleep(0.002 * (6 - i))
        warnings.warn(f"task {i}", UserWarning)
        if i % 2:
            warnings.warn(f"task {i} again", RuntimeWarning)
        return i

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert fan_out(task, range(6)) == list(range(6))
    assert [(str(w.message), w.category) for w in caught] == [
        (message, category) for i in range(6)
        for message, category in [(f"task {i}", UserWarning)]
        + ([(f"task {i} again", RuntimeWarning)] if i % 2 else [])]


class OddError(ValueError):
    pass


@pytest.mark.parametrize("cpus", [1, 3])
def test_first_failing_task_in_task_order_is_raised(monkeypatch, forks, cpus):
    use_cpus(monkeypatch, cpus)

    def task(i):
        # task 5 fails first in time, task 2 first in task order
        time.sleep(0.05 if i == 2 else 0.0)
        warnings.warn(f"task {i}")
        if i in (2, 5):
            raise OddError(f"task {i} failed")
        return i

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(OddError, match="^task 2 failed$"):
            fan_out(task, range(8))
    # as the loop would: the warnings up to the failing task's, no later ones
    assert [str(w.message) for w in caught] == ["task 0", "task 1", "task 2"]
    assert_all_reaped(forks)


def test_a_worker_that_dies_is_reported(monkeypatch, forks):
    use_cpus(monkeypatch, 2)
    caller = os.getpid()

    def task(i):
        if i == 0:
            time.sleep(0.1)  # meanwhile the forked worker claims task 1
        elif os.getpid() != caller:
            os._exit(7)
        return i

    with pytest.raises(RuntimeError, match=r"^no result for task 1: worker exit codes \[7\]$"):
        fan_out(task, range(4))
    assert_all_reaped(forks)


def test_workers_fan_out_no_further(monkeypatch, forks):
    use_cpus(monkeypatch, 2)
    got = fan_out(lambda i: fan_out(lambda j: (j, os.getpid()), range(3)), range(2))
    # each inner fan-out ran in one process, its worker's
    assert [len({pid for _, pid in inner}) for inner in got] == [1, 1]
    assert len(forks) == 1


def test_usage_records_the_workers_and_their_peak_memory(monkeypatch):
    use_cpus(monkeypatch, 3)
    with parallel.usage() as used:
        fan_out(lambda i: i, range(2))
    assert used["workers"] == 2
    assert used["worker_peak_rss"] > 0
    use_cpus(monkeypatch, 1)
    with parallel.usage() as alone:
        fan_out(lambda i: i, range(2))
    assert alone == {"workers": 1, "worker_peak_rss": None}
