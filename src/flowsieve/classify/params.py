"""Hyperparameter records for the five classifiers.

The defaults are desk-scale settings that converge on normalized features;
pipelines override them through the run configuration.
"""

from dataclasses import dataclass


class ParamError(ValueError):
    pass


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ParamError(msg)


@dataclass(frozen=True)
class LogisticParams:
    learning_rate: float = 0.5
    epochs: int = 500
    decision_threshold: float = 0.5
    tune_threshold: bool = False
    seed: int = 0

    def __post_init__(self):
        _require(self.learning_rate > 0, "learning_rate must be positive")
        _require(self.epochs >= 0, "epochs must be non-negative")
        _require(0 < self.decision_threshold < 1, "decision_threshold must lie in (0, 1)")
        _require(self.seed >= 0, f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class NaiveBayesParams:
    # lower bound applied to each per-class standard deviation
    variance_floor: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        _require(self.variance_floor > 0, "variance_floor must be positive")
        _require(self.seed >= 0, f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class SvmParams:
    c: float = 1.0
    epochs: int = 20
    schedule: str = "inverse_t"  # or "constant"
    learning_rate: float = 0.01  # used by the constant schedule only
    seed: int = 0

    def __post_init__(self):
        _require(self.c > 0, "regularization c must be positive")
        _require(self.epochs >= 1, "epochs must be at least 1")
        _require(self.schedule in ("inverse_t", "constant"),
                 f"unknown schedule {self.schedule!r}")
        _require(self.learning_rate > 0, "learning_rate must be positive")
        _require(self.seed >= 0, f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class TreeParams:
    criterion: str = "gini"  # or "information_gain"
    max_depth: int | None = None
    min_samples_leaf: int = 1
    seed: int = 0

    def __post_init__(self):
        _require(self.criterion in ("gini", "information_gain"),
                 f"unknown criterion {self.criterion!r}")
        _require(self.max_depth is None or self.max_depth >= 0,
                 "max_depth must be non-negative")
        _require(self.min_samples_leaf >= 1, "min_samples_leaf must be at least 1")
        _require(self.seed >= 0, f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class ForestParams:
    tree_count: int = 10
    features_per_split: int | None = None  # None: ceil(sqrt(n_features))
    bootstrap: bool = True
    criterion: str = "gini"
    max_depth: int | None = None
    min_samples_leaf: int = 1
    seed: int = 0

    def __post_init__(self):
        _require(self.tree_count >= 1, "tree_count must be at least 1")
        _require(self.features_per_split is None or self.features_per_split >= 1,
                 "features_per_split must be at least 1")
        self.tree_params()  # checks the settings each tree takes

    def tree_params(self) -> TreeParams:
        return TreeParams(criterion=self.criterion, max_depth=self.max_depth,
                          min_samples_leaf=self.min_samples_leaf, seed=self.seed)
