"""The benchmark's workloads: generated input shapes plus the run config.

Why each workload exists is recorded in BENCHMARK.json, and which layer
metric should move which end-to-end metric on which workload in
layer_map.json. Sizes are chosen so that one pipeline run takes a few
seconds on a 2-core machine, which lets a measuring window hold several runs.
"""

from dataclasses import dataclass, field

WIDE_GRID = tuple(round(0.1 * i, 1) for i in range(1, 9))  # 0.1 .. 0.8

CHEAP_CLASSIFIERS = {
    "logistic": {"epochs": 30},
    "svm": {"epochs": 1},
    "tree": {"max_depth": 6},
    "forest": {"tree_count": 2, "max_depth": 6},
}


@dataclass(frozen=True)
class Workload:
    name: str
    # (file name, data rows, {attack label: share of rows}); benign fills the rest
    files: tuple
    attacks: tuple
    staged: bool
    config: dict = field(default_factory=dict)

    def config_doc(self, inputs, output_dir, seed: int) -> dict:
        doc = {"inputs": [str(p) for p in inputs], "label_column": "Label",
               "benign_label": "Benign", "attacks": list(self.attacks),
               "output_dir": str(output_dir), "seed": seed}
        doc.update(self.config)
        return doc

    def expected_metric_rows(self, skipped: int) -> int:
        """Attacks x thresholds x 5 classifiers x 2 splits, less skipped cells."""
        return (len(self.attacks) * len(self.config["thresholds"]) - skipped) * 5 * 2


WORKLOADS = {w.name: w for w in (
    Workload(
        name="relief_wide",
        files=(("flows.csv", 5000, {"FTP-BruteForce": 0.3}),),
        attacks=("FTP-BruteForce",),
        staged=False,
        config={"relief_m": 800, "thresholds": [0.35, 0.5],
                "classifiers": CHEAP_CLASSIFIERS},
    ),
    Workload(
        name="ingest_staged",
        files=(("day1.csv", 2000, {"FTP-BruteForce": 0.08, "SSH-Bruteforce": 0.08}),
               ("day2.csv", 2000, {"DoS attacks-Hulk": 0.1, "SSH-Bruteforce": 0.04})),
        attacks=("FTP-BruteForce", "SSH-Bruteforce", "DoS attacks-Hulk"),
        staged=True,
        config={"relief_m": 50, "thresholds": [0.4],
                "sampling": {"schemes": {"DoS attacks-Hulk": "fraction_stratified"}},
                "classifiers": CHEAP_CLASSIFIERS},
    ),
    Workload(
        name="train_grid",
        files=(("flows.csv", 2000, {"SSH-Bruteforce": 0.25, "SQL Injection": 0.02}),),
        attacks=("SSH-Bruteforce", "SQL Injection"),
        staged=False,
        config={"relief_m": 50, "thresholds": list(WIDE_GRID),
                "sampling": {"train_fraction": 0.4, "test_fraction": 0.2}},
    ),
)}


def layer_checks(name: str, m: dict, run_s: float) -> list[tuple[str, bool]]:
    """Whether a traced run spends its time in the layer its workload is for."""
    if name == "relief_wide":
        return [("feature_selection.relief_s >= run_s / 2",
                 m["feature_selection.relief_s"] >= run_s / 2)]
    if name == "ingest_staged":
        tabular = sum(v for k, v in m.items() if k.startswith("tabular.") and k.endswith("_s"))
        return [("tabular.*_s >= run_s / 2", tabular >= run_s / 2)]
    if name == "train_grid":
        train = sum(v for k, v in m.items() if k.endswith("_s") and k.split(".")[0]
                    in ("classify", "sampling", "evaluation"))
        return [("classify + sampling + evaluation >= pipeline.train_eval_s / 2",
                 train >= m["pipeline.train_eval_s"] / 2),
                ("feature_selection.relief_s < run_s / 10",
                 m["feature_selection.relief_s"] < run_s / 10)]
    return []
