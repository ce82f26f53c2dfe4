"""Config-driven orchestration: preprocess -> score/select -> train/evaluate.

Each run appends a fresh directory named by timestamp plus config hash under
the configured output directory; nothing inside an existing run is
overwritten. Staged subcommands locate the newest run directory with the same
config hash and continue it. `preprocess` cleans the merged inputs with
`tabular.clean_table` and stores the cleaned table once, as its arrays
(`cleaned.npz`: feature matrix `X`, label vector `y`) plus its columns and
categories in `preprocess.json`; `select` and `train-eval` rebuild it from
them without parsing text, and find each attack's rows in it again. `select`
writes each attack's scores and one `selection-*.json` per threshold, which
`train-eval` reads back. The stages hand off through these files alone: `run`
runs the three stages in one process, each reading what the one before
wrote, as the staged commands do. `select`'s relief passes and
`train-eval`'s grid of (attack, feature subset, classifier) cells run in
forked workers (`parallel.fan_out`), with the same outputs for any number of
workers. The run manifest (written last)
inventories every file the run produced; every command rewrites it, carrying
over the stage history of the commands before it, and records partial
progress and the error when a stage fails.
"""

import dataclasses
import json
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, parallel
from .classify import (save_model, train_forest, train_logistic,
                       train_naive_bayes, train_svm, train_tree)
from .config import CLASSIFIER_ORDER, PipelineConfig, attack_slug, config_hash, tau_tag
from .discretize import bins_document, table_bin_edges
from .evaluation import evaluate, write_metrics_csv, write_metrics_json
from .feature_selection import (normalize_scores, score_all, select_by_threshold,
                                write_scores_csv)
from .parallel import fan_out
from .sampling import SamplingError, split_manifest, split_table
from .tabular import (CategoryMapping, Table, clean_table, load_csv_merged, split_by_attack,
                      subtable)


class PipelineError(RuntimeError):
    pass


# The cleaned table (original label codes) and each attack's rows and 0/1
# labels (`split_by_attack`): the stages build one attack's tables at a time.
Cleaned = tuple[Table, dict[str, tuple]]
# Each attack's selected feature names per threshold, in feature-index order.
Selections = dict[str, dict[float, tuple[str, ...]]]


@dataclass
class RunContext:
    cfg: PipelineConfig
    run_dir: Path
    warnings: list[str] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)
    # per stage: the most workers a fan-out in it used, this process counting
    # as one, and the peak RSS in MB of this process ("main") and of the
    # workers it forked ("workers", None if it forked none)
    workers: dict[str, int] = field(default_factory=dict)
    peak_rss_mb: dict[str, dict] = field(default_factory=dict)
    stages_completed: list[str] = field(default_factory=list)
    skipped: list[dict] = field(default_factory=list)

    def attack_dir(self, attack: str) -> Path:
        d = self.run_dir / attack_slug(attack)
        d.mkdir(parents=True, exist_ok=True)
        return d


@contextmanager
def _caught():
    """Yield a list that holds, once the block ends, the messages of the
    warnings raised in it, in order."""
    messages = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield messages
    messages.extend(str(w.message) for w in caught)


@contextmanager
def _recording(ctx: RunContext, prefix: str):
    """Record the warnings raised in the block, in order, as run warnings
    led by `prefix`."""
    with _caught() as messages:
        yield
    ctx.warnings.extend(prefix + message for message in messages)


def _named(exc: Exception, where: str) -> Exception:
    """`exc` as an exception of its type whose message is led by `where`,
    with its traceback; `exc` itself if its type takes no message alone."""
    try:
        named = type(exc)(f"{where}: {exc}")
    except Exception:
        return exc
    return named.with_traceback(exc.__traceback__)


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


def _mb(size: int | None) -> float | None:
    return None if size is None else round(size / 1e6, 1)


@contextmanager
def _stage(ctx: RunContext, stage: str):
    """Record the block's wall time as `stage`'s, the most workers a fan-out
    in it used, and the peak memory of this process and of the workers it
    forked."""
    t0 = time.perf_counter()
    try:
        with parallel.usage() as used:
            yield
    finally:
        ctx.timings[stage] = round(time.perf_counter() - t0, 6)
        ctx.workers[stage] = used["workers"]
        ctx.peak_rss_mb[stage] = {"main": _mb(parallel.peak_rss_bytes()),
                                  "workers": _mb(used["worker_peak_rss"])}


def stage_preprocess(ctx: RunContext) -> None:
    """Load and merge the inputs, clean and normalize them, check that each
    attack's rows can be split for training, and write the cleaned table's
    arrays once."""
    cfg = ctx.cfg
    with _stage(ctx, "preprocess"), _recording(ctx, ""):
        table, mapping, report = load_csv_merged(cfg.inputs, cfg.label_column,
                                                 cfg.excluded_columns)
        raw_shape = (table.row_count, table.column_count)
        table, rep = clean_table(table, mapping, cfg.excluded_columns)
        report = report.merged(rep)
        per_attack = split_by_attack(table, mapping, cfg.attacks, cfg.benign_label)
        # train-eval draws the same split again; drawing it here fails a
        # dataset too small to train on before scoring starts, naming it
        for attack, (_, labels) in per_attack.items():
            try:
                split_table(labels, cfg.sampling.spec(attack, cfg.seed))
            except SamplingError as exc:
                raise _named(exc, attack) from None

        _write_json(_fresh(ctx.run_dir / "cleaning_report.json"), report.to_json())
        prep = {
            "raw_rows": raw_shape[0], "raw_columns": raw_shape[1],
            "clean_rows": table.row_count, "clean_columns": table.column_count,
            "columns": [[n, "categorical" if n in mapping.categories else "numeric"]
                        for n in table.feature_names] + [[table.label_name, "label"]],
            "category_mapping": {name: cats for name, cats in mapping.to_json().items()
                                 if name == table.label_name or name in table.feature_names},
            "label_coding": {"benign": {cfg.benign_label: 0},
                             "attack": {a: 1 for a in cfg.attacks}},
            "per_attack_rows": {a: len(rows) for a, (rows, _) in per_attack.items()},
        }
        _write_json(_fresh(ctx.run_dir / "preprocess.json"), prep)
        np.savez(_fresh(ctx.run_dir / "cleaned.npz"), X=table.X, y=table.y)
    ctx.stages_completed.append("preprocess")


def load_preprocessed(ctx: RunContext) -> Cleaned:
    """The cleaned table and each attack's rows and 0/1 labels in it, rebuilt
    from the arrays, columns and categories `stage_preprocess` wrote."""
    path = ctx.run_dir / "cleaned.npz"
    if not path.exists():
        raise PipelineError(f"{path} missing; run `preprocess` first")
    with open(ctx.run_dir / "preprocess.json", encoding="utf-8") as fh:
        prep = json.load(fh)
    label = next(name for name, kind in prep["columns"] if kind == "label")
    features = [name for name, kind in prep["columns"] if kind != "label"]
    with np.load(path) as arrays:
        table = Table(features, label, arrays["X"], arrays["y"])
    mapping = CategoryMapping({name: tuple(cats)
                               for name, cats in prep["category_mapping"].items()})
    return table, split_by_attack(table, mapping, ctx.cfg.attacks, ctx.cfg.benign_label)


def stage_select(ctx: RunContext, cleaned: Cleaned) -> None:
    """Score every feature with the six methods, rank the features by their
    mean normalized score, and write one selection per threshold. A scoring
    error is raised again led by its attack."""
    cfg = ctx.cfg
    table, per_attack = cleaned
    names = table.feature_names
    with _stage(ctx, "select"):
        for attack in cfg.attacks:
            t = subtable(table, *per_attack[attack], names)
            adir = ctx.attack_dir(attack)
            with _recording(ctx, f"{attack}: "):
                try:
                    edges = table_bin_edges(t, cfg.bin_count)
                    raw = score_all(t, edges, relief_m=cfg.relief_m, seed=cfg.seed)
                except Exception as exc:
                    raise _named(exc, attack) from None
                del t  # before the next attack's table is built
                normalized = normalize_scores(raw)
                mean = normalized.mean(axis=1)
                _write_json(_fresh(adir / "bins.json"), bins_document(names, edges))
                write_scores_csv(names, normalized, mean, _fresh(adir / "feature_scores.csv"))
                for tau in cfg.thresholds:
                    _write_json(_fresh(adir / f"selection-{tau_tag(tau)}.json"),
                                select_by_threshold(names, mean, tau))
    ctx.stages_completed.append("select")


def load_selections(ctx: RunContext) -> Selections:
    """The selections of the run's `selection-*.json` files."""
    out = {}
    for attack in ctx.cfg.attacks:
        adir = ctx.run_dir / attack_slug(attack)
        out[attack] = {}
        for tau in ctx.cfg.thresholds:
            path = adir / f"selection-{tau_tag(tau)}.json"
            if not path.exists():
                raise PipelineError(f"{path} missing; run `select` first")
            with open(path, encoding="utf-8") as fh:
                features = sorted(json.load(fh)["features"], key=lambda f: f["index"])
            out[attack][tau] = tuple(f["name"] for f in features)
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

    Thresholds that select identical subsets share one trained model; metric
    rows are still emitted per threshold. The (attack, subset, classifier)
    cells run in one `fan_out`, each in a worker that shares the cleaned
    table copy-on-write; the metrics and the warnings come in the order a
    loop over the cells gives them.
    """
    cfg = ctx.cfg
    table, per_attack = cleaned
    cells, notes = [], {}
    with _stage(ctx, "train_eval"):
        for attack in cfg.attacks:
            attack_cells, notes[attack] = _attack_cells(ctx, attack, *per_attack[attack],
                                                        selections[attack])
            cells += attack_cells
        tables = {}  # in each process, the train and test tables of its latest subset
        outcomes = fan_out(lambda cell: _train_eval_cell(ctx, table, tables, cell), cells)
        by_tau = {attack: {} for attack in cfg.attacks}  # reports, in classifier order
        for (attack, _, taus, *_), (pair, caught) in zip(cells, outcomes):
            notes[attack] += caught
            for tau in taus:
                by_tau[attack].setdefault(tau, []).extend(
                    dataclasses.replace(r, threshold=tau) for r in pair)
        for attack in cfg.attacks:
            ctx.warnings.extend(f"{attack}: {message}" for message in notes[attack])
        reports = [r for attack in cfg.attacks for tau in cfg.thresholds
                   for r in by_tau[attack].get(tau, [])]
        write_metrics_csv(reports, _fresh(ctx.run_dir / "metrics.csv"))
        write_metrics_json(reports, _fresh(ctx.run_dir / "metrics.json"))
    ctx.stages_completed.append("train_eval")
    return reports


def _attack_cells(ctx: RunContext, attack: str, rows, labels,
                  selections: dict[float, tuple[str, ...]]) -> tuple[list, list[str]]:
    """Draw the attack's train/test split and write its manifest. Returns the
    attack's cells, one per distinct selected subset and classifier, each as
    (attack, feature names, thresholds selecting them, classifier, train rows
    and labels, test rows and labels), and the warnings of the thresholds
    that select nothing, which are skipped."""
    cfg = ctx.cfg
    adir = ctx.attack_dir(attack)
    spec = cfg.sampling.spec(attack, cfg.seed)
    result = split_table(labels, spec)
    split_dir = adir / "split"
    split_dir.mkdir(exist_ok=True)
    _write_json(_fresh(split_dir / "manifest.json"), split_manifest(spec, result))

    # group thresholds whose selections coincide: one model per subset
    groups: dict[tuple[str, ...], list[float]] = {}
    skips = []
    for tau in cfg.thresholds:
        if not selections[tau]:
            ctx.skipped.append({"attack": attack, "threshold": tau,
                                "reason": "empty selection"})
            skips.append(f"threshold {tau_tag(tau)} selects no features; skipped")
            continue
        groups.setdefault(selections[tau], []).append(tau)
    (adir / "models").mkdir(exist_ok=True)
    train = rows[result.train_rows], labels[result.train_rows]
    test = rows[result.test_rows], labels[result.test_rows]
    return [(attack, names, taus, clf, train, test)
            for names, taus in groups.items() for clf in CLASSIFIER_ORDER], skips


def _train_eval_cell(ctx: RunContext, table: Table, tables: dict,
                     cell) -> tuple[list, list[str]]:
    """Train the cell's classifier on its train table, write the model, and
    evaluate it: the train and test reports, and the warnings raised. The
    train and test tables are gathered from the cleaned `table` unless
    `tables` holds them from the cell before, which it then does for the
    next one. An error is raised again led by "<attack>: threshold <tag>
    <classifier>"."""
    attack, names, taus, clf, train, test = cell
    tag = tau_tag(taus[0])
    with _caught() as caught:
        try:
            if (attack, names) not in tables:
                tables.clear()  # before the next subset's tables are gathered
                tables[attack, names] = (subtable(table, *train, names),
                                         subtable(table, *test, names))
            train_t, test_t = tables[attack, names]
            params = ctx.cfg.classifiers.params(clf)
            model = _TRAINERS[clf](train_t, params)
            save_model(model, params, _fresh(ctx.run_dir / attack_slug(attack) / "models"
                                             / f"tau-{tag}-{clf}.json"))
            pair = evaluate(model, train_t, test_t, attack=attack, classifier=clf,
                            threshold=taus[0])
        except Exception as exc:
            raise _named(exc, f"{attack}: threshold {tag} {clf}") from None
    return pair, caught


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
        "workers": dict(ctx.workers),
        "peak_rss_mb": dict(ctx.peak_rss_mb),
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
    the stage history, timings, workers, memory, warnings and skips of its
    manifest."""
    ctx = RunContext(cfg, find_run_dir(cfg))
    path = ctx.run_dir / "run_manifest.json"
    if path.exists():
        with open(path, encoding="utf-8") as fh:
            prior = json.load(fh)
        ctx.stages_completed = list(prior["stages_completed"])
        ctx.timings = dict(prior["stage_seconds"])
        # absent from the manifests of runs written before workers were recorded
        ctx.workers = dict(prior.get("workers", {}))
        ctx.peak_rss_mb = dict(prior.get("peak_rss_mb", {}))
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
    """The three stages one after another into one fresh run directory, each
    reading what the one before wrote, as the staged commands do."""
    ctx = RunContext(cfg, new_run_dir(cfg))
    with _manifest_on_exit(ctx):
        stage_preprocess(ctx)
        cleaned = load_preprocessed(ctx)
        stage_select(ctx, cleaned)
        stage_train_eval(ctx, cleaned, load_selections(ctx))
    return ctx
