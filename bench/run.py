"""Benchmark runner: seeded flowsieve workloads, each run in a fresh process.

Usage (from the repository root):

    python3 bench/run.py --workload relief_wide --seed 1 --seconds 40 --trace 0

The inputs are generated from the seed once, outside every timed region.
Then fresh child processes (bench/child.py) run the workload's pipeline
commands, one after another, until the --seconds window is used up, with at
least MIN_RUNS runs. A fresh process per run makes its peak RSS (the
child's VmHWM) a per-run high-water mark. Each run's result files must match the digests recorded in
bench/expected.json for this workload and seed; for an unrecorded seed they
must match the first run's. The metric row count is checked as well.

Times are reported in reference seconds (see REFERENCE_S): each run also
times a fixed kernel just before and after the pipeline, and its wall times
are scaled by REFERENCE_S over that kernel's time. The raw kernel time is
reported as host.reference_s.

--trace 0 reports the end-to-end metrics of BENCHMARK.json (medians over the
runs). --trace 1 alternates untraced and traced runs and reports the
per-layer metrics (medians over the traced runs), including the tracing
overhead as the difference of the two run_s medians.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import gen
from workloads import WORKLOADS, layer_checks

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "bench"
SRC = ROOT / "src"
MIN_RUNS = 3
CHILD_TIMEOUT_S = 120.0
HARD_LIMIT_S = 150.0  # stop starting runs past this, whatever --seconds says
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# glibc raises its mmap threshold to the size of each large block freed, so
# whether relief's per-sample n x d temporaries are mmapped (and page-faulted)
# anew each time, at 2-3x the cost, would depend on what earlier stages
# happened to free. A fixed threshold makes every run behave as at paper
# scale, where those temporaries exceed the dynamic threshold's 32 MiB cap.
MALLOC_TUNABLE = "glibc.malloc.mmap_threshold=131072"
# Reported times are in reference seconds: wall seconds scaled by
# REFERENCE_S / (time of child.reference_seconds in the same process). The
# host's speed drifts by tens of percent over tens of seconds, far more than
# medians over a window can remove; the kernel drifts along with the run.
REFERENCE_S = 0.3
STAGE_TOLERANCE_S = 0.005
STAGE_TOLERANCE_SHARE = 0.02


def load_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in THREAD_VARS:
        env[var] = BLAS_THREADS
    env["GLIBC_TUNABLES"] = ":".join(filter(None, [env.get("GLIBC_TUNABLES"), MALLOC_TUNABLE]))
    return env


def host_env() -> dict:
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS, "glibc_tunables": MALLOC_TUNABLE}


def run_child(job: dict, tmp: Path, index: int) -> tuple[dict | None, str | None]:
    """Spawn one child for `job`; return (result, None) or (None, error)."""
    job = dict(job, result=str(tmp / f"result-{index}.json"),
               output_dir=str(tmp / f"out-{index}"))
    job_path = tmp / f"job-{index}.json"
    job["spawned_at"] = time.monotonic()
    job_path.write_text(json.dumps(job), encoding="utf-8")
    with open(tmp / f"stderr-{index}.txt", "w+", encoding="utf-8") as err:
        proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "child.py"), str(job_path)],
                                cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, f"timed out after {CHILD_TIMEOUT_S:g} s"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        err.seek(0)
        tail = err.read().strip().splitlines()[-1:]
    shutil.rmtree(job["output_dir"], ignore_errors=True)
    if code != 0:
        return None, f"exited with code {code}: {' '.join(tail)}"
    return load_json(Path(job["result"])), None


def rescaled(result: dict) -> dict:
    """The run's times, layer times included, in reference seconds."""
    f = REFERENCE_S / result["reference_s"]
    out = dict(result, setup_s=result["setup_s"] * f, run_s=result["run_s"] * f)
    if "layers" in result:
        out["layers"] = {k: v * f if k.endswith("_s") else v for k, v in result["layers"].items()}
    return out


def problems(workload, result: dict, reference: dict | None) -> list[str]:
    """Everything wrong with one run's outputs; empty when it is correct."""
    out = []
    expected_rows = workload.expected_metric_rows(result["skipped_cells"])
    if result["metric_rows"] != expected_rows:
        out.append(f"metrics.csv has {result['metric_rows']} rows, expected {expected_rows}")
    if reference is not None:
        bad = sorted(k for k, v in reference["digests"].items() if result["digests"].get(k) != v)
        if bad:
            out.append("result digests differ from the reference: " + ", ".join(bad))
    if "layers" in result and not workload.staged:
        # cmd_run's manifest times its own stages; the stage spans must agree
        for stage, secs in result["manifest_stage_seconds"].items():
            span = result["layers"][f"pipeline.{stage}_s"]
            if abs(span - secs) > STAGE_TOLERANCE_S + STAGE_TOLERANCE_SHARE * secs:
                out.append(f"span pipeline.{stage}_s {span:.4f} s disagrees with "
                           f"manifest {secs:.4f} s")
    return out


def measure(workload, seed: int, seconds: float, trace: bool, work_dir: Path,
            expected: dict | None, min_runs: int = MIN_RUNS, log=None) -> dict:
    """Run `workload` repeatedly and summarize; see the module docstring."""
    log = log or (lambda msg: print(msg, file=sys.stderr))
    work_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_dir) as tmp_name:
        tmp = Path(tmp_name)
        inputs_dir = tmp / "inputs"
        inputs_dir.mkdir()
        data_rows = gen.write_inputs(workload.files, seed, inputs_dir)
        config = tmp / "config.json"
        inputs = [inputs_dir / name for name, _, _ in workload.files]
        config.write_text(json.dumps(workload.config_doc(inputs, tmp / "out", seed)),
                          encoding="utf-8")
        commands = (["cmd_preprocess", "cmd_select", "cmd_train_eval"]
                    if workload.staged else ["cmd_run"])
        reference = expected
        runs = {False: [], True: []}
        attempted, failed, failures, env = 0, 0, [], None
        start = time.monotonic()
        rounds = 0
        while True:
            for traced in ((False, True) if trace else (False,)):
                job = {"config": str(config), "commands": commands, "trace": traced,
                       "src": str(SRC)}
                result, error = run_child(job, tmp, attempted)
                attempted += 1
                found = [error] if error else problems(workload, result, reference)
                if found:
                    failed += 1
                    failures.extend(found)
                    log(f"run {attempted} FAILED: {'; '.join(found)}")
                    continue
                if reference is None:
                    reference = {"digests": result["digests"],
                                 "metric_rows": result["metric_rows"]}
                env = env or result["env"]
                runs[traced].append(rescaled(result))
                log(f"run {attempted}{' traced' if traced else ''}: setup "
                    f"{result['setup_s']:.3f} s, run {result['run_s']:.3f} s, reference "
                    f"{result['reference_s']:.3f} s; run {runs[traced][-1]['run_s']:.3f} ref-s")
            rounds += 1
            elapsed = time.monotonic() - start
            next_end = elapsed + elapsed / rounds
            if next_end > HARD_LIMIT_S or (rounds >= min_runs and next_end > seconds):
                break

    summary = {"attempted": attempted, "failed": failed, "failures": failures,
               "reference": reference, "recorded": expected is not None,
               "env": dict(host_env(), **(env or {})),
               "runs": len(runs[False]), "traced_runs": len(runs[True])}
    plain = runs[False]
    if plain:
        run_s = statistics.median(r["run_s"] for r in plain)
        summary["end_to_end"] = {
            "run_s": run_s,
            "rows_per_s": statistics.median(data_rows / r["run_s"] for r in plain),
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_bytes"] / 1e6 for r in plain),
            "output_mb": statistics.median(r["output_bytes"] / 1e6 for r in plain),
            "failed_runs": failed / attempted,
        }
    if runs[True] and plain:
        layers = {k: statistics.median(r["layers"][k] for r in runs[True])
                  for k in runs[True][0]["layers"]}
        traced_run_s = statistics.median(r["run_s"] for r in runs[True])
        layers["pipeline.tracing_overhead_s"] = traced_run_s - summary["end_to_end"]["run_s"]
        layers["host.reference_s"] = statistics.median(
            r["reference_s"] for r in plain + runs[True])
        summary["layers"] = layers
        summary["layer_checks"] = layer_checks(workload.name, layers, traced_run_s)
    return summary


def expected_for(name: str, seed: int) -> dict | None:
    path = BENCH_DIR / "expected.json"
    return load_json(path).get(name, {}).get(str(seed)) if path.exists() else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a SIGTERM unwinds like an exit, so the running child is killed and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "flowsieve" / "__init__.py").is_file():
        print(f"bench: no flowsieve sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = load_json(ROOT / "BENCHMARK.json")
    workload = WORKLOADS[args.workload]
    summary = measure(workload, args.seed, args.seconds, bool(args.trace),
                      ROOT / ".bench_work", expected_for(workload.name, args.seed))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = summary.get("layers" if args.trace else "end_to_end")
    if values is None:
        print(f"bench: no run of {workload.name} succeeded: {summary['failures'][:3]}",
              file=sys.stderr)
        return 1
    print("# env " + json.dumps(summary["env"], sort_keys=True))
    print(f"# runs {summary['runs']} untraced, {summary['traced_runs']} traced; "
          f"failed_runs {summary['failed']}/{summary['attempted']}; digests "
          + ("recorded" if summary["recorded"] else "compared between runs (seed not recorded)"))
    for check, ok in summary.get("layer_checks", []):
        print(f"# layer check {'PASS' if ok else 'FAIL'}: {check}")
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
