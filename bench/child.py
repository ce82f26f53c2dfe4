"""One measured pipeline run in a fresh process (started by run.py).

Usage: python3 bench/child.py JOB_JSON

The job names the config, the commands to call, the output directory, the
monotonic time at which the parent spawned this process, and whether to
trace. The result (timings, the reference kernel's time around the run, peak
RSS, output size, result digests, and the traced layer metrics) goes to the
job's `result` path as JSON.
"""

import hashlib
import json
import sys
import time
from pathlib import Path

DIGESTED = {  # result files whose bytes must not change, by glob
    "feature_scores": "*/feature_scores.csv",
    "selections": "*/selection-*.json",
    "metrics": "metrics.csv",
    "models": "*/models/*.json",
}


def file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def result_digests(run_dir: Path) -> dict[str, str]:
    """One sha256 per kind of result file, over the sorted (path, sha256) pairs."""
    out = {}
    for kind, pattern in DIGESTED.items():
        h = hashlib.sha256()
        for path in sorted(run_dir.glob(pattern)):
            rel = path.relative_to(run_dir).as_posix()
            h.update(f"{rel}\0{file_sha256(path)}\n".encode("utf-8"))
        out[kind] = h.hexdigest()
    return out


def reference_seconds(np) -> float:
    """Wall time of a fixed mix of NumPy and interpreter work.

    The host's speed drifts by tens of percent over tens of seconds; timing
    this kernel next to each pipeline run lets run.py rescale the run's
    times to a fixed reference speed.
    """
    rng = np.random.default_rng(0)
    x = rng.random((3000, 40))
    wide = rng.random((5000, 80))  # relief-sized: its temporaries are mmapped anew each pass
    t0 = time.perf_counter()
    for k in range(12):
        np.abs(wide - wide[k]).sum(axis=1).argmin()
    for k in range(120):
        np.abs(x - x[k]).sum(axis=1).argmin()
    acc = 0
    for k in range(600000):
        acc += k & 7
    for k in range(3):
        text = ",".join(repr(float(v)) for v in x[k * 250:(k + 1) * 250].ravel())
        sum(float(cell) for cell in text.split(","))
    return time.perf_counter() - t0


def peak_rss_bytes() -> int:
    """High-water resident set size of this process's own address space.

    Not `ru_maxrss`: Linux carries the parent's high-water mark into a child
    across fork and exec, so that would report run.py's peak whenever it
    exceeds the pipeline's.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("/proc/self/status has no VmHWM line")


def _blas_version(np) -> str:
    try:
        return str(np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"])
    except (KeyError, TypeError, ValueError):
        return "unknown"


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    import numpy as np
    from flowsieve import pipeline
    from flowsieve.config import apply_overrides, load_config
    if not Path(pipeline.__file__).resolve().is_relative_to(Path(job["src"]).resolve()):
        raise SystemExit(f"flowsieve imported from {pipeline.__file__}, not {job['src']}")
    cfg = apply_overrides(load_config(job["config"]), output_dir=job["output_dir"])
    setup_s = time.monotonic() - job["spawned_at"]

    tracer = None
    if job["trace"]:
        from flowsieve import evaluation, feature_selection
        from spans import Tracer
        tracer = Tracer()
        tracer.install(pipeline, feature_selection, evaluation)
    commands = [getattr(pipeline, name) for name in job["commands"]]

    reference_before = reference_seconds(np)
    t0 = time.perf_counter()
    for command in commands:
        ctx = command(cfg)
    run_s = time.perf_counter() - t0
    peak_rss = peak_rss_bytes()
    reference_s = (reference_before + reference_seconds(np)) / 2

    run_dir = Path(ctx.run_dir)
    metrics_csv = (run_dir / "metrics.csv").read_text(encoding="utf-8")
    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "reference_s": reference_s,
        "peak_rss_bytes": peak_rss,
        "output_bytes": sum(p.stat().st_size for p in run_dir.rglob("*") if p.is_file()),
        "digests": result_digests(run_dir),
        "metric_rows": len(metrics_csv.splitlines()) - 1,
        "skipped_cells": len(ctx.skipped),
        "env": {"python": sys.version.split()[0], "numpy": np.__version__,
                "openblas": _blas_version(np)},
    }
    if tracer is not None:
        manifest = json.loads((run_dir / "run_manifest.json").read_text(encoding="utf-8"))
        result["manifest_stage_seconds"] = manifest["stage_seconds"]
        result["layers"] = tracer.layer_metrics(peak_rss)
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
