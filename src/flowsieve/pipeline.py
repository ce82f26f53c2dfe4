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
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .classify import (save_model, train_forest, train_logistic,
                       train_naive_bayes, train_svm, train_tree)
from .config import CLASSIFIER_ORDER, PipelineConfig, attack_slug, config_hash
from .discretize import table_bin_edges
from .evaluation import evaluate, write_metrics_csv, write_metrics_json
from .feature_selection import (ThresholdSelection, aggregate_mean, normalize_scores,
                                score_all, select_by_threshold, write_scores_csv)
from .sampling import split_manifest, split_table
from .tabular import (CategoryMapping, ColumnKind, ConstantColumnError, Table,
                      drop_columns_by_name, drop_invalid_rows,
                      drop_single_valued_columns, load_csv, load_csv_merged,
                      minmax_normalize, split_by_attack, subtable, write_csv)


class PipelineError(RuntimeError):
    pass


# The cleaned table (original label codes) and each attack's rows and 0/1
# labels (`split_by_attack`): the stages build one attack's tables at a time.
Cleaned = tuple[Table, dict[str, tuple]]
Selections = dict[str, dict[float, ThresholdSelection]]


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


def stage_preprocess(ctx: RunContext) -> Cleaned:
    """Merge inputs, clean, encode, normalize, write the cleaned table once,
    and find each attack's rows in it."""
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
            "per_attack_rows": {a: len(rows) for a, (rows, _) in per_attack.items()},
        }
        _write_json(_fresh(ctx.run_dir / "preprocess.json"), prep)
        write_csv(table, _fresh(ctx.run_dir / "cleaned.csv"))
        _collect_warnings(ctx, caught)
    ctx.stages_completed.append("preprocess")
    return table, per_attack


def load_preprocessed(ctx: RunContext) -> Cleaned:
    """What `stage_preprocess` returned, from the run's cleaned table and the
    categories it recorded; a column with categories is CATEGORICAL again."""
    path = ctx.run_dir / "cleaned.csv"
    if not path.exists():
        raise PipelineError(f"{path} missing; run `preprocess` first")
    table, _, _ = load_csv(path, ctx.cfg.label_column)
    with open(ctx.run_dir / "preprocess.json", encoding="utf-8") as fh:
        categories = json.load(fh)["category_mapping"]
    mapping = CategoryMapping({name: tuple(cats) for name, cats in categories.items()})
    table = dataclasses.replace(table, column_kinds=tuple(
        ColumnKind.CATEGORICAL if kind is ColumnKind.NUMERIC and name in categories else kind
        for name, kind in zip(table.column_names, table.column_kinds)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # `preprocess` recorded them already
        return table, split_by_attack(table, mapping, ctx.cfg.attacks, ctx.cfg.benign_label)


def stage_select(ctx: RunContext, cleaned: Cleaned) -> Selections:
    """Score every feature with the six methods and select per threshold."""
    cfg = ctx.cfg
    table, per_attack = cleaned
    out: Selections = {}
    with _Timer(ctx, "select"):
        for attack in cfg.attacks:
            t = subtable(table, *per_attack[attack], table.feature_names)
            adir = ctx.attack_dir(attack)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                bins = table_bin_edges(t, cfg.bin_count)
                sm = score_all(t, bins, relief_m=cfg.relief_m, seed=cfg.seed)
                del t  # before the next attack's table is built
                sm = aggregate_mean(normalize_scores(sm))
                _write_json(_fresh(adir / "bins.json"),
                            {name: e.to_json() for name, e in bins.items()})
                write_scores_csv(sm, _fresh(adir / "feature_scores.csv"))
                out[attack] = {}
                for tau in cfg.thresholds:
                    sel = select_by_threshold(sm, tau)
                    _write_json(_fresh(adir / f"selection-{_tau_tag(tau)}.json"), sel.to_json())
                    out[attack][tau] = sel
            _collect_warnings(ctx, caught, f"{attack}: ")
    ctx.stages_completed.append("select")
    return out


def load_selections(ctx: RunContext) -> Selections:
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


def stage_train_eval(ctx: RunContext, cleaned: Cleaned, selections: Selections):
    """Sample each attack's dataset once, then train and evaluate the five
    classifiers per distinct selected feature subset.

    Thresholds that select identical subsets share one pair of train and test
    tables and one trained model; metric rows are still emitted per threshold.
    """
    table, per_attack = cleaned
    reports = []
    with _Timer(ctx, "train_eval"), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for attack in ctx.cfg.attacks:
            reports.extend(_train_eval_attack(ctx, attack, table, *per_attack[attack],
                                              selections[attack]))
        write_metrics_csv(reports, _fresh(ctx.run_dir / "metrics.csv"))
        write_metrics_json(reports, _fresh(ctx.run_dir / "metrics.json"))
        _collect_warnings(ctx, caught)
    ctx.stages_completed.append("train_eval")
    return reports


def _train_eval_attack(ctx: RunContext, attack: str, table: Table, rows, labels,
                       selections: dict[float, ThresholdSelection]) -> list:
    cfg = ctx.cfg
    adir = ctx.attack_dir(attack)
    spec = cfg.sampling.spec(attack, cfg.seed)
    result = split_table(labels, spec)
    split_dir = adir / "split"
    split_dir.mkdir(exist_ok=True)
    _write_json(_fresh(split_dir / "manifest.json"), split_manifest(spec, result))

    # group thresholds whose selections coincide: one model per subset
    groups: dict[tuple[str, ...], list[float]] = {}
    for tau in cfg.thresholds:
        sel = selections[tau]
        if not sel.features:
            ctx.skipped.append({"attack": attack, "threshold": tau,
                                "reason": "empty selection"})
            ctx.warn(f"{attack}: threshold {_tau_tag(tau)} selects no features; skipped")
            continue
        names = tuple(n for _, n, _ in sorted(sel.features, key=lambda f: f[0]))
        groups.setdefault(names, []).append(tau)

    models_dir = adir / "models"
    models_dir.mkdir(exist_ok=True)
    by_tau: dict[float, list] = {}  # train and test reports, in classifier order
    for names, taus in groups.items():
        train_t = subtable(table, rows[result.train_rows], labels[result.train_rows], names)
        test_t = subtable(table, rows[result.test_rows], labels[result.test_rows], names)
        tag0 = _tau_tag(taus[0])
        for clf in CLASSIFIER_ORDER:
            params = cfg.classifiers.params(clf)
            model = _TRAINERS[clf](train_t, params)
            save_model(model, params, _fresh(models_dir / f"tau-{tag0}-{clf}.json"))
            pair = evaluate(model, train_t, test_t, attack=attack, classifier=clf,
                            threshold=taus[0], n_features=len(names))
            for tau in taus:
                by_tau.setdefault(tau, []).extend(
                    dataclasses.replace(r, threshold=tau) for r in pair)
    return [r for tau in cfg.thresholds for r in by_tau.get(tau, [])]


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
        cleaned = stage_preprocess(ctx)
        stage_train_eval(ctx, cleaned, stage_select(ctx, cleaned))
    return ctx
