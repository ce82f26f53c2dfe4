"""Config-driven orchestration: preprocess -> score/select -> train/evaluate.

Each run appends a fresh directory named by timestamp plus config hash under
the configured output directory; nothing inside an existing run is
overwritten. Staged subcommands locate the newest run directory with the same
config hash and continue it. `preprocess` plans the cleaning of the merged
inputs with `tabular.plan_cleaning` and stores the cleaned table once, as
one record of each kept row's cells and label (`cleaned.npy`, filled from
the loaded matrix and written a block of rows at a time), each column in the
narrowest type that holds its cells exactly, a column of decimals with p
places as the whole numbers x * 10**p. `preprocess.json` states each column
once: its name, kind and stored type, and a feature's places and
normalization, beside the categories. `select` and `train-eval` rebuild the
table from them without parsing text, reading the records a block at a time
into the float64 matrix, dividing by 10**p and normalizing there
(`load_preprocessed`), and find each attack's rows in it again. `select`
writes each attack's scores and one `selection-*.json` per threshold, which
`train-eval` reads back. The stages hand off through these files alone: `run`
runs the three stages in one process, each reading what the one before
wrote, as the staged commands do. `select`'s relief passes and
`train-eval`'s grid of (attack, feature subset, classifier) cells run in
forked workers (`parallel.fan_out`), with the same outputs for any number of
workers. The run manifest (written last)
inventories every file the run produced; every command rewrites it, carrying
over the stage history of the commands before it, and records partial
progress, the warnings raised so far and the error when a stage fails.
"""

import json
import time
import warnings
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
from numpy.lib import format as npy_format

from . import __version__, parallel
from .classify import (save_model, train_forest, train_logistic,
                       train_naive_bayes, train_svm, train_tree)
from .config import CLASSIFIER_ORDER, PipelineConfig, attack_slug, config_hash, tau_tag
from .discretize import bins_document, table_bin_edges
from .evaluation import evaluate, write_metrics_csv, write_metrics_json
from .feature_selection import (normalize_scores, score_all, select_by_threshold,
                                write_scores_csv)
from .parallel import fan_out
from .sampling import split_manifest, split_table
from .tabular import (CLEAN_BLOCK, MOST_PLACES, SCALES, STORED_TYPES, CategoryMapping,
                      CleaningPlan, Table, load_csv_merged, plan_cleaning, row_blocks,
                      split_by_attack, subtable)


class PipelineError(RuntimeError):
    pass


# The cleaned table (original label codes) and each attack's rows and 0/1
# labels (`split_by_attack`): `select` scores each attack through its rows,
# and `train-eval` builds one cell's train and test tables at a time.
Cleaned = tuple[Table, dict[str, tuple]]
# Each attack's selected feature names per threshold, in feature-index order.
Selections = dict[str, dict[float, tuple[str, ...]]]


# The run manifest's history of a run: each command rewrites the manifest
# with these keys, carrying over what the manifest it resumes holds under
# them. RunContext holds each as an attribute of the same name.
_HISTORY = ("stages_completed", "stage_seconds", "workers", "peak_rss_mb",
            "warnings", "skipped")


@dataclass
class RunContext:
    cfg: PipelineConfig
    run_dir: Path
    warnings: list[str] = field(default_factory=list)
    stage_seconds: dict[str, float] = field(default_factory=dict)
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
def _user_warnings():
    """The UserWarnings raised in the block, each as the arguments it was
    shown with, in order: every warning flowsieve raises is one. A warning
    of any other category meets the caller's filters where it is raised,
    and is shown as they show it."""
    caught = []
    with warnings.catch_warnings():
        show = warnings.showwarning

        def keep(message, category, *where):
            if issubclass(category, UserWarning):
                caught.append((message, category, *where))
            else:
                show(message, category, *where)
        warnings.showwarning = keep
        warnings.simplefilter("always", UserWarning)
        yield caught


@contextmanager
def _led_by(where: str):
    """Raise the block's UserWarnings again, in order, then its error, each
    with its message led by `where`, as "<where>: <message>"; also the
    warnings of a block that fails. An error whose type takes no message
    alone is raised as it is."""
    try:
        with _user_warnings() as caught:
            yield
    except Exception as exc:
        try:
            named = type(exc)(f"{where}: {exc}").with_traceback(exc.__traceback__)
        except Exception:
            named = exc
        raise named from None
    finally:
        for message, category, filename, lineno, *_ in caught:
            warnings.warn_explicit(f"{where}: {message}", category, filename, lineno)


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
        fh.write(json.dumps(obj, indent=1, sort_keys=True) + "\n")


def _refuse(path: Path, why: str, stage: str) -> PipelineError:
    return PipelineError(f"{path}: {why}; run `{stage}` again")


def _read_json(path: Path, stage: str, keys: dict[str, type], required: bool = True) -> dict:
    """The JSON object in `path`, whose each key of `keys` holds a value of
    the type it maps to; a key it lacks is refused only if `required`. A
    file that cannot be read or parsed, or holds anything else, is refused
    with the `stage` that writes it."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise _refuse(path, f"cannot be read ({exc})", stage) from None
    if not isinstance(doc, dict):
        raise _refuse(path, f"holds a {type(doc).__name__}, not an object", stage)
    for key, kind in keys.items():
        if (required or key in doc) and not isinstance(doc.get(key), kind):
            raise _refuse(path, f"holds no {kind.__name__} `{key}`", stage)
    return doc


def _fresh(path: Path) -> Path:
    if path.exists():
        raise PipelineError(f"{path} already exists; runs are append-only "
                            "(start a new run or remove the stale file)")
    return path


def _mb(size: int | None) -> float | None:
    return None if size is None else round(size / 1e6, 1)


@contextmanager
def _stage(ctx: RunContext, stage: str):
    """Record the messages of the UserWarnings raised in the block, in
    order, as run warnings, the block's wall time as `stage`'s, the most
    workers a fan-out in it used, and the peak memory of this process and
    of the workers it forked; also for a block that fails."""
    t0 = time.perf_counter()
    try:
        with parallel.usage() as used, _user_warnings() as caught:
            yield
    finally:
        ctx.warnings.extend(str(message) for message, *_ in caught)
        ctx.stage_seconds[stage] = round(time.perf_counter() - t0, 6)
        ctx.workers[stage] = used["workers"]
        ctx.peak_rss_mb[stage] = {"main": _mb(parallel.peak_rss_bytes()),
                                  "workers": _mb(used["worker_peak_rss"])}


def stage_preprocess(ctx: RunContext) -> None:
    """Load and merge the inputs, plan their cleaning, normalization and
    storage, check that cleaning keeps a feature column and that each
    attack's rows can be split for training, and write the cleaned table
    once, its kept cells a block of rows at a time."""
    cfg = ctx.cfg
    with _stage(ctx, "preprocess"):
        table, mapping, report = load_csv_merged(cfg.inputs, cfg.label_column,
                                                 cfg.excluded_columns)
        plan, rep = plan_cleaning(table, mapping, cfg.excluded_columns)
        report = report.merged(rep)
        if not plan.feature_names:
            reasons = Counter(reason for _, reason in report.dropped_columns)
            raise PipelineError("cleaning kept no feature column; dropped " + ", ".join(
                f"{count} {reason}" for reason, count in sorted(reasons.items())))
        # the plan holds the kept labels: only the loaded matrix is kept
        label, raw_shape, X = table.label_name, (table.row_count, table.column_count), table.X
        del table
        attack_rows = {}
        for attack in cfg.attacks:
            # train-eval draws the same split again; drawing it here fails a
            # dataset too small to train on before scoring starts, naming it.
            # One attack's rows at a time are held beside the loaded matrix
            rows, labels = split_by_attack(plan.y, label, mapping, [attack],
                                           cfg.benign_label)[attack]
            attack_rows[attack] = len(rows)
            del rows
            with _led_by(attack):
                split_table(labels, cfg.sampling.spec(attack, cfg.seed))

        _write_json(_fresh(ctx.run_dir / "cleaning_report.json"), report.to_json())
        _write_cleaned(ctx.run_dir, X, plan, mapping, label, {
            "raw_rows": raw_shape[0], "raw_columns": raw_shape[1],
            "label_coding": {"benign": {cfg.benign_label: 0},
                             "attack": {a: 1 for a in cfg.attacks}},
            "per_attack_rows": attack_rows})
    ctx.stages_completed.append("preprocess")


# The stored types as preprocess.json and cleaned.npy name them: u1, u2, u4, f8
_TYPE_NAMES = tuple(t.str[1:] for t in STORED_TYPES)


def _row_record(types) -> tuple[np.dtype, list[np.ndarray]]:
    """The record of a cleaned.npy row whose features' and then label's types
    are at `types` in STORED_TYPES: a field per type, named by it, of its
    features in table order, then `label`; and each type field's features."""
    types = np.asarray(types)
    fields = [np.flatnonzero(types[:-1] == code) for code in range(len(STORED_TYPES))]
    return (np.dtype([*((name, t, (len(cols),))
                        for name, t, cols in zip(_TYPE_NAMES, STORED_TYPES, fields)),
                      ("label", STORED_TYPES[types[-1]])]), fields)


def _write_cleaned(run_dir: Path, X: np.ndarray, plan: CleaningPlan, mapping: CategoryMapping,
                   label: str, prep: dict) -> None:
    """Write the cleaned table that `plan` makes of the loaded matrix `X`,
    labelled `label`, to `run_dir`: to cleaned.npy, an npy 1.0 array of one
    record per kept row (`_row_record`) filled and written a block of rows
    at a time, so the cleaned matrix is never held, a column of p decimal
    places as its rint(x * 10**p); and to preprocess.json `prep`, the shape,
    the columns' categories in `mapping` and `columns`: [name, kind, type,
    places, lo, span] for each feature in table order, its kind
    "categorical" or "numeric", its stored type by name, its places p and
    its (x - lo) / span (json writes a float as the shortest text that reads
    back as it), then [label, "label", type]. `_read_cleaned` divides and
    normalizes."""
    _write_json(_fresh(run_dir / "preprocess.json"), {
        **prep, "clean_rows": len(plan.rows), "clean_columns": len(plan.cols) + 1,
        "columns": [[name, "categorical" if name in mapping.categories else "numeric",
                     _TYPE_NAMES[code], places, lo, span]
                    for name, code, places, lo, span in zip(
                        plan.feature_names, plan.types.tolist(), plan.places.tolist(),
                        plan.lo.tolist(), plan.span.tolist())
                    ] + [[label, "label", _TYPE_NAMES[plan.y_type]]],
        "category_mapping": {name: cats for name, cats in mapping.to_json().items()
                             if name == label or name in plan.feature_names}})
    dtype, fields = _row_record([*plan.types, plan.y_type])
    sources = [plan.cols[cols] for cols in fields]  # each field's columns of X
    decimal = np.flatnonzero(plan.places)
    scaled, scale = plan.cols[decimal], SCALES[plan.places[decimal]]
    buf = np.empty(min(CLEAN_BLOCK, len(plan.rows)), dtype)
    with open(_fresh(run_dir / "cleaned.npy"), "wb") as fh:
        npy_format.write_array_header_1_0(
            fh, {"descr": npy_format.dtype_to_descr(dtype), "fortran_order": False,
                 "shape": (len(plan.rows),)})
        for start, block in row_blocks(X, plan.rows, CLEAN_BLOCK):
            records = buf[:len(block)]
            block[:, scaled] = np.rint(block[:, scaled] * scale)
            for name, cols in zip(_TYPE_NAMES, sources):
                records[name] = block[:, cols]  # exact: every cell fits its type
            records["label"] = plan.y[start:start + len(block)]
            fh.write(records.view(np.uint8))


def _read_cleaned(run_dir: Path) -> tuple[Table, CategoryMapping]:
    """The cleaned table that `_write_cleaned` wrote to `run_dir`, and the
    categories of its columns: cleaned.npy's records, CLEAN_BLOCK at a
    time, are read into the float64 matrix, divided there by each column's
    10**p, giving back each cell bit for bit, and normalized, so no other
    copy of it is held. Files of any other layout fail closed."""
    def refuse(path: Path, why: str) -> PipelineError:
        return _refuse(path, why, "preprocess")

    path, prep_path = run_dir / "cleaned.npy", run_dir / "preprocess.json"
    if not path.exists():
        raise PipelineError(f"{path} missing; run `preprocess` first")
    prep = _read_json(prep_path, "preprocess",
                      {"clean_rows": int, "columns": list, "category_mapping": dict})
    rows = prep["clean_rows"]
    if rows < 0:
        raise refuse(prep_path, f"`clean_rows` is {rows}")
    if not all(isinstance(cats, list) for cats in prep["category_mapping"].values()):
        raise refuse(prep_path, "`category_mapping` maps a column to no list")
    for entry in prep["columns"]:
        if not (isinstance(entry, list) and len(entry) >= 3
                and all(isinstance(v, str) for v in entry[:3])):
            raise refuse(prep_path, f"`columns` entry {entry} does not start with "
                         "three strings")
    labels = [entry for entry in prep["columns"] if entry[1] == "label"]
    features = [entry for entry in prep["columns"] if entry not in labels]
    if len(labels) != 1:
        raise refuse(prep_path, f"`columns` holds {len(labels)} label entries, not 1")
    for entry, size in [*((entry, 6) for entry in features), (labels[0], 3)]:
        if (len(entry) != size or entry[2] not in _TYPE_NAMES
                or not all(isinstance(v, (int, float)) for v in entry[4:])):
            raise refuse(prep_path, f"`columns` entry {entry} is not [name, kind, type, places, "
                         f"lo, span] or [name, \"label\", type], type one of {_TYPE_NAMES}")
    for entry in features:
        most = 0 if entry[2] == "f8" else MOST_PLACES
        if type(entry[3]) is not int or not 0 <= entry[3] <= most:
            raise refuse(prep_path, f"`columns` entry {entry} has places {entry[3]!r}, not an "
                         f"int from 0 to {most} as type {entry[2]} takes")
    dtype, fields = _row_record([_TYPE_NAMES.index(entry[2]) for entry in [*features, *labels]])
    lo, span = np.array([entry[4:] for entry in features], dtype=np.float64).reshape(-1, 2).T
    scale = SCALES[[entry[3] for entry in features]]
    X, y = np.empty((rows, len(features))), np.empty(rows)
    with open(path, "rb") as fh:
        try:
            version = npy_format.read_magic(fh)
            if version != (1, 0):
                raise refuse(path, f"is in npy format {version}, not (1, 0)")
            shape, _, got = npy_format.read_array_header_1_0(fh)
        except ValueError as exc:
            raise refuse(path, f"is not an npy file ({exc})") from None
        if shape != (rows,) or got != dtype:
            raise refuse(path, f"holds {got} of shape {shape}, not {dtype} of shape {(rows,)}")
        buf = np.empty(min(CLEAN_BLOCK, rows), dtype)
        for start in range(0, rows, CLEAN_BLOCK):
            block = X[start:start + CLEAN_BLOCK]
            records = buf[:len(block)]
            if fh.readinto(records.view(np.uint8)) != records.nbytes:
                raise refuse(path, f"ends before row {rows}")
            for name, cols in zip(_TYPE_NAMES, fields):
                block[:, cols] = records[name]
            y[start:start + len(block)] = records["label"]
            block /= scale  # exact where p = 0
            block -= lo
            block /= span
        if fh.read(1):
            raise refuse(path, f"holds more than {rows} rows")
    return (Table([entry[0] for entry in features], labels[0][0], X, y),
            CategoryMapping({name: tuple(cats) for name, cats in prep["category_mapping"].items()}))


def load_preprocessed(ctx: RunContext) -> Cleaned:
    """The cleaned table and each attack's rows and 0/1 labels in it, rebuilt
    from the records, columns and categories `stage_preprocess` wrote."""
    table, mapping = _read_cleaned(ctx.run_dir)
    return table, split_by_attack(table.y, table.label_name, mapping, ctx.cfg.attacks,
                                  ctx.cfg.benign_label)


def stage_select(ctx: RunContext, cleaned: Cleaned) -> None:
    """Score every feature of each attack's rows of the cleaned table with
    the six methods, reading the rows in place (no attack table is built),
    rank the features by their mean normalized score, and write one
    selection per threshold. An attack's warnings and error are raised
    again led by the attack."""
    cfg = ctx.cfg
    table, per_attack = cleaned
    names = table.feature_names
    with _stage(ctx, "select"):
        for attack in cfg.attacks:
            rows, labels = per_attack[attack]
            adir = ctx.attack_dir(attack)
            with _led_by(attack):
                edges = table_bin_edges(table, cfg.bin_count, rows)
                raw = score_all(table, edges, relief_m=cfg.relief_m, seed=cfg.seed,
                                rows=rows, labels=labels)
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
            features = _read_json(path, "select", {"features": list})["features"]
            if not all(isinstance(f, dict) and isinstance(f.get("name"), str)
                       and isinstance(f.get("index"), int) for f in features):
                raise _refuse(path, "a `features` entry has no str `name` and int `index`",
                              "select")
            features.sort(key=lambda f: f["index"])
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
    table copy-on-write and gathers the cell's train and test tables from
    it; the metrics and the warnings come in the order a loop over the
    cells gives them.
    """
    cfg = ctx.cfg
    table, per_attack = cleaned
    with _stage(ctx, "train_eval"):
        cells = [cell for attack in cfg.attacks
                 for cell in _attack_cells(ctx, attack, *per_attack[attack], selections[attack])]
        pairs = fan_out(lambda cell: _train_eval_cell(ctx, table, cell), cells)
        by_tau = {attack: {} for attack in cfg.attacks}  # rows, in classifier order
        for (attack, _, taus, *_), pair in zip(cells, pairs):
            for tau in taus:
                by_tau[attack].setdefault(tau, []).extend(
                    dict(row, threshold=tau) for row in pair)
        rows = [row for attack in cfg.attacks for tau in cfg.thresholds
                for row in by_tau[attack].get(tau, [])]
        write_metrics_csv(rows, _fresh(ctx.run_dir / "metrics.csv"))
        write_metrics_json(rows, _fresh(ctx.run_dir / "metrics.json"))
    ctx.stages_completed.append("train_eval")
    return rows


def _attack_cells(ctx: RunContext, attack: str, rows, labels,
                  selections: dict[float, tuple[str, ...]]) -> list:
    """Draw the attack's train/test split and write its manifest. Returns the
    attack's cells, one per distinct selected subset and classifier, each as
    (attack, feature names, thresholds selecting them, classifier, train rows
    and labels, test rows and labels); a threshold that selects nothing is
    skipped."""
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
        if not selections[tau]:
            ctx.skipped.append({"attack": attack, "threshold": tau,
                                "reason": "empty selection"})
            continue
        groups.setdefault(selections[tau], []).append(tau)
    (adir / "models").mkdir(exist_ok=True)
    train = rows[result.train_rows], labels[result.train_rows]
    test = rows[result.test_rows], labels[result.test_rows]
    return [(attack, names, taus, clf, train, test)
            for names, taus in groups.items() for clf in CLASSIFIER_ORDER]


def _train_eval_cell(ctx: RunContext, table: Table, cell) -> list:
    """Gather the cell's train and test tables from the cleaned `table`,
    train the cell's classifier on the first, write the model, and evaluate
    it: the train and test metric rows. Its warnings and error are raised
    again led by "<attack>: threshold <tag> <classifier>"."""
    attack, names, taus, clf, train, test = cell
    tag = tau_tag(taus[0])
    with _led_by(f"{attack}: threshold {tag} {clf}"):
        train_t, test_t = subtable(table, *train, names), subtable(table, *test, names)
        params = ctx.cfg.classifiers.params(clf)
        model = _TRAINERS[clf](train_t, params)
        save_model(model, params, _fresh(ctx.run_dir / attack_slug(attack) / "models"
                                         / f"tau-{tag}-{clf}.json"))
        return evaluate(model, train_t, test_t, attack=attack, threshold=taus[0])


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
        **{key: getattr(ctx, key) for key in _HISTORY},
        "outputs": files,
        "error": error,
    }
    path = ctx.run_dir / "run_manifest.json"
    _write_json(path, manifest)
    return path


def _resume_context(cfg: PipelineConfig) -> RunContext:
    """Context for a staged command: the newest run with this config, with
    the history its manifest holds. A key the manifest lacks (`workers` and
    `peak_rss_mb`, in runs written before they were recorded) starts empty;
    a manifest that cannot be read, or holds a key of another type, is
    refused and left as it is."""
    ctx = RunContext(cfg, find_run_dir(cfg))
    path = ctx.run_dir / "run_manifest.json"
    if path.exists():
        prior = _read_json(path, "preprocess",
                           {key: type(getattr(ctx, key)) for key in _HISTORY}, required=False)
        for key in _HISTORY:
            if key in prior:
                setattr(ctx, key, prior[key])
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
