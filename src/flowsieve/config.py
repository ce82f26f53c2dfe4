"""Run configuration: JSON schema, validation, and deterministic hashing.

The dataclasses below are the schema: parsing, defaults and the JSON form
are derived from their fields. Parsing is fail-closed: an unknown key
anywhere in the document, or a value of the wrong JSON type, is an error, so
a typo in a long sweep config cannot silently fall back to a default.
"""

import dataclasses
import hashlib
import json
import re
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .classify.params import (ForestParams, LogisticParams, NaiveBayesParams,
                              ParamError, SvmParams, TreeParams)
from .sampling import FRACTION_STRATIFIED, MINORITY_PROTECT, SamplingError, SplitSpec

# The conventional scheme assignment for the five studied attack labels:
# brute-force datasets are fraction-sampled per class, the scarce web-attack
# classes get the minority-protecting 70/30 split.
DEFAULT_SCHEMES = {
    "FTP-BruteForce": FRACTION_STRATIFIED,
    "SSH-Bruteforce": FRACTION_STRATIFIED,
    "SSH-BruteForce": FRACTION_STRATIFIED,
    "Brute Force -Web": MINORITY_PROTECT,
    "Brute Force -XSS": MINORITY_PROTECT,
    "SQL Injection": MINORITY_PROTECT,
}

# Each classifier's tag (model file names, metric rows) and its key under
# "classifiers" in the config, in training order.
CLASSIFIER_KEYS = {"logistic_regression": "logistic", "naive_bayes": "naive_bayes",
                   "svm": "svm", "decision_tree": "tree", "random_forest": "forest"}
CLASSIFIER_ORDER = tuple(CLASSIFIER_KEYS)


class ConfigError(ValueError):
    pass


def attack_slug(attack: str) -> str:
    slug = re.sub(r"[^A-Za-z0-9]+", "-", attack).strip("-").lower()
    return slug or "attack"


@dataclass(frozen=True)
class SamplingConfig:
    schemes: dict[str, str] = field(default_factory=dict)
    train_fraction: float = 0.20
    test_fraction: float = 0.10
    attack_train_fraction: float = 0.70

    def scheme_for(self, attack: str) -> str:
        if attack in self.schemes:
            return self.schemes[attack]
        if attack in DEFAULT_SCHEMES:
            return DEFAULT_SCHEMES[attack]
        raise ConfigError(f"no sampling scheme declared for attack {attack!r}; "
                          f"add it to sampling.schemes")

    def spec(self, attack: str, seed: int) -> SplitSpec:
        """How the table of `attack` is split into train and test rows."""
        return SplitSpec(self.scheme_for(attack), self.train_fraction,
                         self.test_fraction, self.attack_train_fraction, seed)


@dataclass(frozen=True)
class ClassifierConfig:
    logistic: LogisticParams = LogisticParams()
    naive_bayes: NaiveBayesParams = NaiveBayesParams()
    svm: SvmParams = SvmParams()
    tree: TreeParams = TreeParams()
    forest: ForestParams = ForestParams()

    def params(self, tag: str):
        """The hyperparameters of the classifier named `tag`."""
        return getattr(self, CLASSIFIER_KEYS[tag])


@dataclass(frozen=True)
class PipelineConfig:
    inputs: tuple[str, ...]
    label_column: str
    benign_label: str
    attacks: tuple[str, ...]
    output_dir: str
    excluded_columns: tuple[str, ...] = ("Timestamp",)
    bin_count: int = 10
    relief_m: int | None = None
    thresholds: tuple[float, ...] = (0.35, 0.40, 0.45, 0.50, 0.55)
    seed: int = 0
    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    # `parse_config` seeds every classifier from `seed` unless the document sets it
    classifiers: ClassifierConfig = field(default_factory=ClassifierConfig)

    def __post_init__(self):
        if not self.inputs:
            raise ConfigError("inputs must name at least one CSV file")
        if not self.attacks:
            raise ConfigError("attacks must name at least one attack label")
        if not self.thresholds:
            raise ConfigError("thresholds must contain at least one value")
        for t in self.thresholds:
            if not 0 < t < 1:
                raise ConfigError(f"threshold {t} must lie in (0, 1)")
        if any(a >= b for a, b in zip(self.thresholds, self.thresholds[1:])):
            raise ConfigError("thresholds must be strictly increasing")
        if self.bin_count < 2:
            raise ConfigError(f"bin_count must be at least 2, got {self.bin_count}")
        if self.relief_m is not None and self.relief_m < 1:
            raise ConfigError("relief_m must be at least 1 (or omitted)")
        out = Path(self.output_dir).resolve()
        for p in self.inputs:
            rp = Path(p).resolve()
            if rp == out or out in rp.parents:
                raise ConfigError(f"input path {p!r} collides with the output directory")
        slugs: dict[str, int] = {}
        for i, attack in enumerate(self.attacks):
            if attack == self.benign_label:
                raise ConfigError(f"attacks[{i}] {attack!r} is the benign_label; "
                                  "an attack's table needs benign rows besides its own")
            j = slugs.setdefault(attack_slug(attack), i)
            if j != i:
                clash = "repeats" if attack == self.attacks[j] else "has the directory name of"
                raise ConfigError(f"attacks[{i}] {attack!r} {clash} attacks[{j}] "
                                  f"{self.attacks[j]!r}")
            try:
                self.sampling.spec(attack, self.seed)
            except SamplingError as exc:
                raise ConfigError(f"sampling for attack {attack!r}: {exc}") from exc

    def to_json(self) -> dict:
        """The config as a JSON document, with every attack's scheme resolved."""
        doc = json.loads(json.dumps(dataclasses.asdict(self)))
        doc["sampling"]["schemes"] = {a: self.sampling.scheme_for(a) for a in self.attacks}
        return doc


_JSON_TYPES = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}


def _convert(value, tp, path: str):
    """`value` of a JSON document as a value of the field type `tp`."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{path} must be a JSON list, got {value!r}")
        return tuple(_convert(v, args[0], f"{path}[{i}]") for i, v in enumerate(value))
    if origin is dict:
        if not isinstance(value, dict):
            raise ConfigError(f"{path} must be a JSON object, got {value!r}")
        return {k: _convert(v, args[1], f"{path}.{k}") for k, v in value.items()}
    if origin is types.UnionType:  # `T | None`
        return None if value is None else _convert(value, args[0], path)
    accepted = (int, float) if tp is float else tp
    if isinstance(value, bool) != (tp is bool) or not isinstance(value, accepted):
        raise ConfigError(f"{path} must be {_JSON_TYPES[tp]}, got {value!r}")
    return value


def _build(cls, doc, where: str, **defaults):
    """An instance of the config dataclass `cls` from the JSON object `doc`.

    Keys are checked against the fields of `cls` and values against their
    types. A field that `doc` leaves out takes its value from `defaults`,
    else its own default; a field with neither is required. Nested records
    are built from their own objects (`{}` if absent) with the same
    `defaults`. `where` is the key path of `doc`, "" at the root.
    """
    label = where or "config"
    if not isinstance(doc, dict):
        raise ConfigError(f"{label} must be a JSON object, got {doc!r}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(doc) - set(fields))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {label}; allowed: {sorted(fields)}")
    kwargs = {}
    for name, f in fields.items():
        path = f"{where}.{name}" if where else name
        if dataclasses.is_dataclass(f.type):
            kwargs[name] = _build(f.type, doc.get(name, {}), path, **defaults)
        elif name in doc:
            kwargs[name] = _convert(doc[name], f.type, path)
        elif name in defaults:
            kwargs[name] = defaults[name]
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"{label} is missing required key {name!r}")
    try:
        return cls(**kwargs)
    except ParamError as exc:
        raise ConfigError(f"{label}: {exc}") from exc


def parse_config(doc: dict) -> PipelineConfig:
    """The run config of a JSON document. A classifier seed the document
    does not set is the global seed."""
    seed = doc.get("seed", PipelineConfig.seed) if isinstance(doc, dict) else None
    return _build(PipelineConfig, doc, "", seed=seed)


def load_config(path, seed: int | None = None) -> PipelineConfig:
    """The run config in the JSON file `path`. A `seed` replaces the file's
    global seed before parsing, so it also moves every classifier seed the
    file does not set."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if seed is not None and isinstance(doc, dict):
        doc["seed"] = seed
    return parse_config(doc)


def apply_overrides(cfg: PipelineConfig, *, output_dir: str | None = None,
                    attacks=None, thresholds=None) -> PipelineConfig:
    """Command-line overrides produce a new, revalidated config."""
    changes = {}
    if output_dir is not None:
        changes["output_dir"] = output_dir
    if attacks is not None:
        unknown = [a for a in attacks if a not in cfg.attacks]
        if unknown:
            raise ConfigError(f"--attacks names {unknown} not present in the config")
        changes["attacks"] = tuple(attacks)
    if thresholds is not None:
        changes["thresholds"] = tuple(thresholds)
    return dataclasses.replace(cfg, **changes) if changes else cfg


def config_hash(cfg: PipelineConfig) -> str:
    canonical = json.dumps(cfg.to_json(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
