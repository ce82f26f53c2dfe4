"""Run one function over a list of tasks in forked worker processes.

`fan_out(fn, tasks)` returns `[fn(task) for task in tasks]`, and behaves as
that loop does, whatever the number of workers. There is one worker per CPU
this process may run on (`os.sched_getaffinity`, which `taskset`
restricts), never more than there are tasks. The calling process is one of
them: it runs task 0, and forks the others, so with one worker nothing is
forked. Forked workers share the caller's memory copy-on-write, and what
a task writes there stays in its worker's copy: a task reaches a worker as
its index in the list, and only each task's result, exception and warnings
come back, pickled through a pipe.

Every free worker claims the next task in task order, one at a time, from a
counter in a small shared file. That is the only rule for which worker runs
which task, so a task must not depend on the tasks its worker ran before it,
and a slow task holds up only its own worker. A failing task stops the
claims: every task before it was claimed already and runs to its end, and
no further task starts. Once every worker is done and waited for, the
caller raises the tasks' warnings again, task by task in task order, and
then the exception of the first failing task in task order, as the loop
would.
"""

import os
import pickle
import signal
import sys
import warnings
from contextlib import ExitStack, contextmanager

# Python 3.12+ warns when a process with several threads forks: OpenBLAS
# starts its thread pool at import. Forking is safe here all the same:
# OpenBLAS parks its pool before a fork (pthread_atfork), so no lock is held
# across it, and a worker forks no further process.
_FORK_WARNING = r"This process \(pid=\d+\) is multi-threaded, use of fork\(\)"
_busy = False  # this process is running a fan-out's tasks: fork no more workers
_usage: list[dict] = []  # one record per open `usage` block


def _worker_count(tasks: int) -> int:
    """How many workers, the calling process included, `fan_out` uses for
    `tasks` tasks."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return 1 if _busy else min(cpus, tasks)


def peak_rss_bytes() -> int | None:
    """This process's peak resident set size (VmHWM), None without /proc."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


@contextmanager
def usage():
    """Yield a record that holds, once the block ends, the most workers a
    `fan_out` in it used ("workers", 1 if none forked) and the highest peak
    RSS in bytes of the workers it forked ("worker_peak_rss", None if
    none)."""
    record = {"workers": 1, "worker_peak_rss": None}
    _usage.append(record)
    try:
        yield record
    finally:
        _usage.remove(record)


def _claim(counter: int, stop: int | None = None) -> int:
    """The index of the next task to run: the number in the shared file
    `counter`, which is raised by one, or set to `stop` to end every
    worker's claims. POSIX locks are per process and go with it when it
    dies, so the file serializes the workers and cannot be left locked."""
    import fcntl  # POSIX only, as forking is: the package imports everywhere
    fcntl.lockf(counter, fcntl.LOCK_EX)
    try:
        i = int.from_bytes(os.pread(counter, 8, 0), "little")
        os.pwrite(counter, (i + 1 if stop is None else stop).to_bytes(8, "little"), 0)
        return i
    finally:
        fcntl.lockf(counter, fcntl.LOCK_UN)


def _work(fn, tasks, counter: int, i: int) -> dict:
    """Run task `i`, then each task claimed from `counter`, until none is
    left or one fails. Returns their outcomes by index: (result, None,
    warnings) or (None, exception, warnings), each warning as the arguments
    of `warnings.warn_explicit`."""
    global _busy
    _busy, busy = True, _busy
    outcomes = {}
    try:
        while i < len(tasks):
            with warnings.catch_warnings(record=True) as caught:
                try:
                    result, error = fn(tasks[i]), None
                except Exception as exc:
                    result, error = None, exc
            outcomes[i] = (result, error,
                           [(w.message, w.category, w.filename, w.lineno) for w in caught])
            i = _claim(counter, None if error is None else len(tasks))
    finally:
        _busy = busy
    return outcomes


def _worker(fn, tasks, counter: int, results) -> None:
    """A forked worker: run the tasks it claims, then write their outcomes and
    its peak RSS to the pipe `results`. Never returns."""
    code = 1
    try:
        outcomes = _work(fn, tasks, counter, _claim(counter))
        with results:
            pickle.dump((outcomes, peak_rss_bytes()), results)
        code = 0
    except BaseException:
        sys.excepthook(*sys.exc_info())
    finally:
        os._exit(code)


def fan_out(fn, tasks) -> list:
    """[fn(task) for task in tasks], computed by `_worker_count(len(tasks))`
    workers; see the module docstring."""
    tasks = list(tasks)
    workers = _worker_count(len(tasks))
    if workers < 2:
        return [fn(task) for task in tasks]
    sys.stdout.flush()  # or a worker's exit could write the buffered text again
    sys.stderr.flush()
    children, peaks, codes = [], [], []  # (pid, read end of its result pipe)
    with ExitStack() as files:
        counter = os.memfd_create("fan_out")
        files.callback(os.close, counter)
        os.pwrite(counter, (1).to_bytes(8, "little"), 0)  # task 0 is the caller's
        try:
            for _ in range(workers - 1):
                read, write = (files.enter_context(open(fd, mode))
                               for fd, mode in zip(os.pipe(), ("rb", "wb")))
                with warnings.catch_warnings():
                    warnings.filterwarnings("ignore", _FORK_WARNING, DeprecationWarning)
                    pid = os.fork()
                if pid == 0:
                    _worker(fn, tasks, counter, write)
                write.close()
                children.append((pid, read))
            outcomes = _work(fn, tasks, counter, 0)
            for _, read in children:
                if data := read.read():
                    got, peak = pickle.loads(data)
                    outcomes.update(got)
                    peaks.append(peak)
        except BaseException:
            for pid, _ in children:
                os.kill(pid, signal.SIGKILL)
            raise
        finally:
            for pid, _ in children:
                codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for record in _usage:
        record["workers"] = max(record["workers"], workers)
        record["worker_peak_rss"] = max(filter(None, [record["worker_peak_rss"], *peaks]),
                                        default=None)
    results = []
    for i in range(len(tasks)):
        if i not in outcomes:
            raise RuntimeError(f"no result for task {i}: worker exit codes {codes}")
        result, error, caught = outcomes[i]
        for args in caught:
            warnings.warn_explicit(*args)
        if error is not None:
            raise error
        results.append(result)
    return results
