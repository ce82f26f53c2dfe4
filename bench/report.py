"""Print every benchmark metric of every workload, by name and unit.

Usage (from the repository root):

    python3 bench/report.py --seed 1 --seconds 30

For each workload, alternates untraced and traced runs for --seconds, then
prints the six end-to-end metrics (medians of the untraced runs, plus
failed_runs), whether the result digests matched, whether the traced run
spends its time in the layer the workload is for, and every per-layer metric
(medians of the traced runs). Ends with the environment and the layer map.
Exits with 1 if any run failed or any layer check did not hold.
"""

import argparse
import json
import sys

import run
from workloads import WORKLOADS

UNITS = {"failed_runs": "share"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args(argv)
    if not (run.SRC / "flowsieve" / "__init__.py").is_file():
        print(f"bench: no flowsieve sources under {run.SRC}", file=sys.stderr)
        return 2
    spec = run.load_json(run.ROOT / "BENCHMARK.json")
    units = dict(UNITS, **{m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]})
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    ok, env = True, {}
    for name, workload in WORKLOADS.items():
        summary = run.measure(workload, args.seed, args.seconds, True, run.ROOT / ".bench_work",
                              run.expected_for(name, args.seed), log=lambda msg: None)
        env = summary["env"]
        print(f"\n== {name} (seed {args.seed}): {whys.get(name, '')}")
        if "layers" not in summary:
            print(f"   no run succeeded: {summary['failures'][:3]}")
            ok = False
            continue
        print(f"   end-to-end, median of {summary['runs']} untraced runs:")
        for metric, value in summary["end_to_end"].items():
            print(f"     {metric:<14} {value:>14.4f} {units[metric]}")
        print(f"     ({summary['failed']} of {summary['attempted']} runs failed"
              + "".join(f"; {f}" for f in summary["failures"][:3]) + ")")
        print("   result digests: " + ("checked against bench/expected.json"
                                        if summary["recorded"] else
                                        "seed not recorded; checked for agreement between runs")
              + f", {summary['reference']['metric_rows']} metric rows")
        for check, passed in summary["layer_checks"]:
            print(f"   layer check {'PASS' if passed else 'FAIL'}: {check}")
            ok = ok and passed
        print(f"   per-layer, median of {summary['traced_runs']} traced runs:")
        for metric in spec["per_layer"]:
            value = summary["layers"][metric["name"]]
            print(f"     {metric['name']:<40} {value:>16.6g} {metric['unit']}")
        ok = ok and summary["failed"] == 0
    print("\n== environment: " + json.dumps(env, sort_keys=True))
    print("== layer map (layer: metric it should move; workload where it should stay flat)")
    for layer, entry in run.load_json(run.BENCH_DIR / "layer_map.json").items():
        print(f"   {layer}: moves {entry['moves']}; flat on {entry['flat_on']}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
