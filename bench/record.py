"""Record the result digests of every workload for a range of seeds.

Usage (from the repository root):

    python3 bench/record.py --seeds 0-19

Runs each workload once per seed and writes the digests of its result files
(feature_scores.csv, selection-*.json, metrics.csv, model JSON) and its
metric row count to bench/expected.json, which run.py checks every run
against. Record again only when the benchmark's inputs or workloads change;
a change to flowsieve itself must reproduce the recorded digests.
"""

import argparse
import json
import sys

import run
from workloads import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-19")
    args = parser.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    path = run.BENCH_DIR / "expected.json"
    expected = run.load_json(path) if path.exists() else {}
    for name, workload in WORKLOADS.items():
        for seed in seeds:
            summary = run.measure(workload, seed, 0, False, run.ROOT / ".bench_work",
                                  expected=None, min_runs=1, log=lambda msg: None)
            if summary["failed"]:
                print(f"{name} seed {seed}: {summary['failures']}", file=sys.stderr)
                return 1
            expected.setdefault(name, {})[str(seed)] = summary["reference"]
            print(f"{name} seed {seed}: {summary['reference']['metric_rows']} metric rows")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
