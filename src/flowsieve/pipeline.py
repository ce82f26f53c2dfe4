"""Config-driven orchestration: preprocess -> score/select -> train/evaluate.

Each run appends a fresh directory named by timestamp plus config hash under
the configured output directory; nothing inside an existing run is
overwritten. Staged subcommands locate the newest run directory with the same
config hash and continue it. The run manifest (written last) inventories every
file the run produced; every command rewrites it, carrying over the stage
history of the commands before it, and records partial progress and the
error when a stage fails.
"""

import dataclasses
import json
import re
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .classify import (save_model, train_forest, train_logistic,
                       train_naive_bayes, train_svm, train_tree)
from .config import CLASSIFIER_ORDER, PipelineConfig, config_hash
from .discretize import table_bin_edges
from .evaluation import evaluate, write_metrics_csv, write_metrics_json
from .feature_selection import (ScoreMatrix, ThresholdSelection, aggregate_mean,
                                normalize_scores, score_all, select_by_threshold,
                                write_scores_csv)
from .sampling import split_manifest, split_table
from .tabular import (CategoryMapping, ConstantColumnError, Table,
                      drop_columns_by_name, drop_invalid_rows,
                      drop_single_valued_columns, load_csv, load_csv_merged,
                      minmax_normalize, split_by_attack, write_csv)


class PipelineError(RuntimeError):
    pass


def attack_slug(attack: str) -> str:
    slug = re.sub(r"[^A-Za-z0-9]+", "-", attack).strip("-").lower()
    return slug or "attack"


def _tau_tag(tau: float) -> str:
    return f"{tau:g}"


@dataclass
class RunContext:
    cfg: PipelineConfig
    run_dir: Path
    warnings: list[str] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)
    stages_completed: list[str] = field(default_factory=list)
    skipped: list[dict] = field(default_factory=list)

    def warn(self, message: str) -> None:
        self.warnings.append(message)

    def attack_dir(self, attack: str) -> Path:
        d = self.run_dir / attack_slug(attack)
        d.mkdir(parents=True, exist_ok=True)
        return d


def _collect_warnings(ctx: RunContext, caught, prefix: str = "") -> None:
    for w in caught:
        ctx.warn(f"{prefix}{w.message}")


def new_run_dir(cfg: PipelineConfig) -> Path:
    base = Path(cfg.output_dir)
    base.mkdir(parents=True, exist_ok=True)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S.%f")
    prefix = f"run-{stamp}-{config_hash(cfg)[:8]}"
    run_dir = base / prefix
    n = 1
    while run_dir.exists():
        run_dir = base / f"{prefix}.{n}"
        n += 1
    run_dir.mkdir()
    return run_dir


def find_run_dir(cfg: PipelineConfig) -> Path:
    """Newest existing run directory created from this exact config."""
    suffix = config_hash(cfg)[:8]
    base = Path(cfg.output_dir)
    candidates = sorted(p for p in base.glob(f"run-*-{suffix}*") if p.is_dir())
    if not candidates:
        raise PipelineError(
            f"no run directory for config hash {suffix} under {base}; run `preprocess` "
            "first, with the same --seed, --attacks and --thresholds overrides, "
            "since they change the hash")
    return candidates[-1]


def _write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _fresh(path: Path) -> Path:
    if path.exists():
        raise PipelineError(f"{path} already exists; runs are append-only "
                            "(start a new run or remove the stale file)")
    return path


class _Timer:
    def __init__(self, ctx: RunContext, stage: str):
        self.ctx = ctx
        self.stage = stage

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.ctx.timings[self.stage] = round(time.perf_counter() - self.t0, 6)
        return False


def stage_preprocess(ctx: RunContext) -> dict[str, Table]:
    """Merge inputs, clean, encode, normalize, write the cleaned table once,
    and split one table per attack from it."""
    cfg = ctx.cfg
    with _Timer(ctx, "preprocess"), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        table, mapping, report = load_csv_merged(cfg.inputs, cfg.label_column)
        raw_shape = (table.row_count, table.column_count)
        table, rep = drop_columns_by_name(table, cfg.excluded_columns)
        report = report.merged(rep)
        table, rep = drop_single_valued_columns(table)
        report = report.merged(rep)
        table, rep = drop_invalid_rows(table)
        report = report.merged(rep)
        try:
            table = minmax_normalize(table)
        except ConstantColumnError:
            # row removal can strand a constant column; drop it and retry once
            table, rep = drop_single_valued_columns(table)
            report = report.merged(rep)
            ctx.warn("columns became single-valued after row cleaning and were dropped: "
                     + ", ".join(n for n, _ in rep.dropped_columns))
            table = minmax_normalize(table)
        per_attack = split_by_attack(table, mapping, cfg.attacks, cfg.benign_label)

        _write_json(_fresh(ctx.run_dir / "cleaning_report.json"), report.to_json())
        prep = {
            "raw_rows": raw_shape[0], "raw_columns": raw_shape[1],
            "clean_rows": table.row_count, "clean_columns": table.column_count,
            "category_mapping": mapping.to_json(),
            "label_coding": {"benign": {cfg.benign_label: 0},
                             "attack": {a: 1 for a in cfg.attacks}},
            "per_attack_rows": {a: t.row_count for a, t in per_attack.items()},
        }
        _write_json(_fresh(ctx.run_dir / "preprocess.json"), prep)
        write_csv(table, _fresh(ctx.run_dir / "cleaned.csv"))
        _collect_warnings(ctx, caught)
    ctx.stages_completed.append("preprocess")
    return per_attack


def load_preprocessed(ctx: RunContext) -> dict[str, Table]:
    """The per-attack tables of `stage_preprocess`, split again from the
    run's cleaned table with the category codes it recorded."""
    path = ctx.run_dir / "cleaned.csv"
    if not path.exists():
        raise PipelineError(f"{path} missing; run `preprocess` first")
    table, _, _ = load_csv(path, ctx.cfg.label_column)
    with open(ctx.run_dir / "preprocess.json", encoding="utf-8") as fh:
        categories = json.load(fh)["category_mapping"]
    mapping = CategoryMapping({name: tuple(cats) for name, cats in categories.items()})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # `preprocess` recorded them already
        return split_by_attack(table, mapping, ctx.cfg.attacks, ctx.cfg.benign_label)


SelectOutput = dict[str, tuple[ScoreMatrix, dict[float, ThresholdSelection]]]


def stage_select(ctx: RunContext, tables: dict[str, Table]) -> SelectOutput:
    """Score every feature with the six methods and select per threshold."""
    cfg = ctx.cfg
    out: SelectOutput = {}
    with _Timer(ctx, "select"):
        for attack in cfg.attacks:
            t = tables[attack]
            adir = ctx.attack_dir(attack)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                bins = table_bin_edges(t, cfg.bin_count)
                sm = score_all(t, bins, relief_m=cfg.relief_m, seed=cfg.seed)
                sm = aggregate_mean(normalize_scores(sm))
                _write_json(_fresh(adir / "bins.json"),
                            {name: e.to_json() for name, e in bins.items()})
                write_scores_csv(sm, _fresh(adir / "feature_scores.csv"))
                selections = {}
                for tau in cfg.thresholds:
                    sel = select_by_threshold(sm, tau)
                    _write_json(_fresh(adir / f"selection-{_tau_tag(tau)}.json"), sel.to_json())
                    selections[tau] = sel
            _collect_warnings(ctx, caught, f"{attack}: ")
            out[attack] = (sm, selections)
    ctx.stages_completed.append("select")
    return out


def load_selections(ctx: RunContext) -> dict[str, dict[float, ThresholdSelection]]:
    out = {}
    for attack in ctx.cfg.attacks:
        adir = ctx.run_dir / attack_slug(attack)
        selections = {}
        for tau in ctx.cfg.thresholds:
            path = adir / f"selection-{_tau_tag(tau)}.json"
            if not path.exists():
                raise PipelineError(f"{path} missing; run `select` first")
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            selections[tau] = ThresholdSelection(
                doc["threshold"],
                tuple((f["index"], f["name"], f["mean_score"]) for f in doc["features"]))
        out[attack] = selections
    return out


_TRAINERS = {
    "logistic_regression": train_logistic,
    "naive_bayes": train_naive_bayes,
    "svm": train_svm,
    "decision_tree": train_tree,
    "random_forest": train_forest,
}


def stage_train_eval(ctx: RunContext, tables: dict[str, Table],
                     selections: dict[str, dict[float, ThresholdSelection]]):
    """Sample each attack table once, then train and evaluate the five
    classifiers per distinct selected feature subset.

    Thresholds that select identical subsets share one trained model; metric
    rows are still emitted per threshold.
    """
    cfg = ctx.cfg
    reports = []
    with _Timer(ctx, "train_eval"), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for attack in cfg.attacks:
            t = tables[attack]
            adir = ctx.attack_dir(attack)
            spec = cfg.sampling.spec(attack, cfg.seed)
            result = split_table(t, spec)
            split_dir = adir / "split"
            split_dir.mkdir(exist_ok=True)
            _write_json(_fresh(split_dir / "manifest.json"), split_manifest(spec, result))

            # group thresholds whose selections coincide: one model per subset
            groups: dict[tuple[str, ...], list[float]] = {}
            for tau in cfg.thresholds:
                sel = selections[attack][tau]
                if not sel.features:
                    ctx.skipped.append({"attack": attack, "threshold": tau,
                                        "reason": "empty selection"})
                    ctx.warn(f"{attack}: threshold {_tau_tag(tau)} selects no features; skipped")
                    continue
                names = tuple(n for _, n, _ in
                              sorted(sel.features, key=lambda f: f[0]))
                groups.setdefault(names, []).append(tau)

            models_dir = adir / "models"
            models_dir.mkdir(exist_ok=True)
            by_tau: dict[float, dict[str, tuple]] = {}
            for names, taus in groups.items():
                train_t = result.train.select_features(names)
                test_t = result.test.select_features(names)
                tag0 = _tau_tag(taus[0])
                for clf in CLASSIFIER_ORDER:
                    params = cfg.classifiers.params(clf)
                    model = _TRAINERS[clf](train_t, params)
                    save_model(model, params,
                               _fresh(models_dir / f"tau-{tag0}-{clf}.json"))
                    tr, ts = evaluate(model, train_t, test_t, attack=attack,
                                      classifier=clf, threshold=taus[0],
                                      n_features=len(names))
                    for tau in taus:
                        by_tau.setdefault(tau, {})[clf] = (
                            dataclasses.replace(tr, threshold=tau),
                            dataclasses.replace(ts, threshold=tau))

            for tau in cfg.thresholds:
                for clf in CLASSIFIER_ORDER:
                    if tau in by_tau and clf in by_tau[tau]:
                        tr, ts = by_tau[tau][clf]
                        reports.extend([tr, ts])
        write_metrics_csv(reports, _fresh(ctx.run_dir / "metrics.csv"))
        write_metrics_json(reports, _fresh(ctx.run_dir / "metrics.json"))
        _collect_warnings(ctx, caught)
    ctx.stages_completed.append("train_eval")
    return reports


def write_manifest(ctx: RunContext, error: str | None = None) -> Path:
    files = sorted(str(p.relative_to(ctx.run_dir))
                   for p in ctx.run_dir.rglob("*") if p.is_file())
    if "run_manifest.json" not in files:
        files.append("run_manifest.json")
        files.sort()
    manifest = {
        "tool": "flowsieve",
        "version": __version__,
        "config": ctx.cfg.to_json(),
        "config_hash": config_hash(ctx.cfg),
        "stages_completed": list(ctx.stages_completed),
        "stage_seconds": dict(ctx.timings),
        "outputs": files,
        "warnings": list(ctx.warnings),
        "skipped": list(ctx.skipped),
        "error": error,
    }
    path = ctx.run_dir / "run_manifest.json"
    _write_json(path, manifest)
    return path


def _resume_context(cfg: PipelineConfig) -> RunContext:
    """Context for a staged command: the newest run with this config, with
    the stage history, timings, warnings and skips of its manifest."""
    ctx = RunContext(cfg, find_run_dir(cfg))
    path = ctx.run_dir / "run_manifest.json"
    if path.exists():
        with open(path, encoding="utf-8") as fh:
            prior = json.load(fh)
        ctx.stages_completed = list(prior["stages_completed"])
        ctx.timings = dict(prior["stage_seconds"])
        ctx.warnings = list(prior["warnings"])
        ctx.skipped = list(prior["skipped"])
    return ctx


@contextmanager
def _manifest_on_exit(ctx: RunContext):
    """Write the run manifest when the block ends, with the error if it raised."""
    try:
        yield
    except Exception as exc:
        write_manifest(ctx, error=f"{type(exc).__name__}: {exc}")
        raise
    write_manifest(ctx)


def cmd_preprocess(cfg: PipelineConfig) -> RunContext:
    ctx = RunContext(cfg, new_run_dir(cfg))
    with _manifest_on_exit(ctx):
        stage_preprocess(ctx)
    return ctx


def cmd_select(cfg: PipelineConfig) -> RunContext:
    ctx = _resume_context(cfg)
    with _manifest_on_exit(ctx):
        stage_select(ctx, load_preprocessed(ctx))
    return ctx


def cmd_train_eval(cfg: PipelineConfig) -> RunContext:
    ctx = _resume_context(cfg)
    with _manifest_on_exit(ctx):
        stage_train_eval(ctx, load_preprocessed(ctx), load_selections(ctx))
    return ctx


def cmd_run(cfg: PipelineConfig) -> RunContext:
    """All three stages into one fresh run directory."""
    ctx = RunContext(cfg, new_run_dir(cfg))
    with _manifest_on_exit(ctx):
        tables = stage_preprocess(ctx)
        select_out = stage_select(ctx, tables)
        selections = {a: sels for a, (_, sels) in select_out.items()}
        stage_train_eval(ctx, tables, selections)
    return ctx
