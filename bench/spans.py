"""Outside-in tracing of one pipeline run, from the benchmark's side only.

`Tracer.install` replaces the public functions of `flowsieve.pipeline`,
`flowsieve.feature_selection` and `flowsieve.evaluation` in those modules'
namespaces, which is where their callers look them up, and the entries of
`pipeline._TRAINERS`. Each call then records a span (name, start, end,
parent) in memory. The patch is never undone: it is meant for a process that
runs one workload and exits.

A span's self time is its duration minus its children's. `layer_metrics`
charges it to the nearest span, itself included, that names a layer metric,
so helpers such as `entropy` count toward the scorer that called them.
"""

import functools
import inspect
import time

SELF_TIME = {
    "tabular.load_csv_merged": "tabular.load_s",
    "tabular.load_csv": "tabular.reload_s",
    "tabular.drop_columns_by_name": "tabular.clean_s",
    "tabular.drop_single_valued_columns": "tabular.clean_s",
    "tabular.drop_invalid_rows": "tabular.clean_s",
    "tabular.minmax_normalize": "tabular.clean_s",
    "tabular.split_by_attack": "tabular.split_by_attack_s",
    "tabular.write_csv": "tabular.write_csv_s",
    "discretize.table_bin_edges": "discretize.bin_edges_s",
    "discretize.apply_bins": "discretize.apply_bins_s",
    "feature_selection.relief_weights": "feature_selection.relief_s",
    "feature_selection.score_all": "feature_selection.score_other_s",
    "feature_selection.normalize_scores": "feature_selection.select_s",
    "feature_selection.aggregate_mean": "feature_selection.select_s",
    "feature_selection.select_by_threshold": "feature_selection.select_s",
    "feature_selection.write_scores_csv": "feature_selection.select_s",
    "sampling.split_table": "sampling.split_s",
    "model_io.save_model": "classify.save_model_s",
    "evaluation.evaluate": "evaluation.evaluate_s",
    "evaluation.write_metrics_csv": "evaluation.write_s",
    "evaluation.write_metrics_json": "evaluation.write_s",
}
# span durations, children included
INCLUSIVE = {
    "pipeline.stage_preprocess": "pipeline.preprocess_s",
    "pipeline.stage_select": "pipeline.select_s",
    "pipeline.stage_train_eval": "pipeline.train_eval_s",
    "pipeline.load_preprocessed": "pipeline.resume_s",
    "pipeline.load_selections": "pipeline.resume_s",
    "pipeline.write_manifest": "pipeline.manifest_s",
}
CLASSIFIERS = ("logistic_regression", "naive_bayes", "svm", "decision_tree", "random_forest")


def _metric_for(name: str) -> str | None:
    if name.startswith("classify.") and name.rsplit(".", 1)[-1] in ("train", "predict"):
        return name + "_s"
    return SELF_TIME.get(name)


def _span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts = {"cells_parsed": 0, "cells_written": 0, "cleaned_bytes": 0,
                       "apply_bins_calls": 0, "relief_cells": 0, "models_trained": 0,
                       "tree_nodes": 0, "metric_rows": 0}
        self._stack: list[int] = []

    def _wrap(self, fn, name, on_return=None):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if on_return is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name(args) if callable(name) else name, time.perf_counter(), 0.0,
                    stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(signature.bind(*args, **kwargs).arguments, result)
            return result
        return traced

    def install(self, pipeline, feature_selection, evaluation) -> None:
        hooks = self._hooks()
        for module in (pipeline, feature_selection, evaluation):
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                name = _span_name(obj)
                hook = hooks.get(name)
                if name == "base.predict_arrays":
                    name = lambda args: f"classify.{args[0].kind}.predict"  # noqa: E731
                setattr(module, attr, self._wrap(obj, name, hook))
        for tag, trainer in pipeline._TRAINERS.items():
            pipeline._TRAINERS[tag] = self._wrap(trainer, f"classify.{tag}.train",
                                                 self._count_model)

    def _hooks(self) -> dict:
        c = self.counts

        def add(key, n):
            c[key] += n

        def cleaned(arguments, table):
            c["cleaned_bytes"] = table.row_count * table.column_count * 8

        def relief(arguments, result):
            t = arguments["t"]
            add("relief_cells", arguments["m"] * t.row_count * len(t.feature_names))

        def cells(table):
            return table.row_count * table.column_count

        return {
            "tabular.load_csv_merged": lambda a, r: add("cells_parsed", cells(r[0])),
            "tabular.load_csv": lambda a, r: add("cells_parsed", cells(r[0])),
            "tabular.write_csv": lambda a, r: add("cells_written", cells(a["t"])),
            "tabular.minmax_normalize": cleaned,
            "discretize.apply_bins": lambda a, r: add("apply_bins_calls", 1),
            "feature_selection.relief_weights": relief,
            "evaluation.write_metrics_csv": lambda a, r: add("metric_rows", len(a["reports"])),
        }

    def _count_model(self, arguments, model) -> None:
        self.counts["models_trained"] += 1
        if model.kind == "decision_tree":
            self.counts["tree_nodes"] += model.node_count
        elif model.kind == "random_forest":
            self.counts["tree_nodes"] += sum(t.node_count for t in model.trees)

    def layer_metrics(self, peak_rss_bytes: int) -> dict[str, float]:
        m = {name: 0.0 for name in sorted(set(SELF_TIME.values()) | set(INCLUSIVE.values()))}
        for clf in CLASSIFIERS:
            m[f"classify.{clf}.train_s"] = 0.0
            m[f"classify.{clf}.predict_s"] = 0.0
        self_time = [end - start for _, start, end, _ in self.spans]
        for name, start, end, parent in self.spans:
            if parent >= 0:
                self_time[parent] -= end - start
        owner = [None] * len(self.spans)  # nearest metric-naming span, self included
        for i, (name, start, end, parent) in enumerate(self.spans):
            metric = _metric_for(name)
            owner[i] = metric if metric is not None else (owner[parent] if parent >= 0 else None)
            if owner[i] is not None:
                m[owner[i]] += self_time[i]
            if name in INCLUSIVE:
                m[INCLUSIVE[name]] += end - start
        c = self.counts
        m.update({
            "tabular.cells_parsed": c["cells_parsed"],
            "tabular.cells_written": c["cells_written"],
            "tabular.rss_table_ratio": peak_rss_bytes / c["cleaned_bytes"]
            if c["cleaned_bytes"] else 0.0,
            "discretize.apply_bins_calls": c["apply_bins_calls"],
            "feature_selection.relief_cells": c["relief_cells"],
            "classify.models_trained": c["models_trained"],
            "classify.model_share_ratio": c["metric_rows"] / (2 * c["models_trained"])
            if c["models_trained"] else 0.0,
            "classify.tree_nodes": c["tree_nodes"],
        })
        return m
