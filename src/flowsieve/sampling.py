"""Seeded, stratified train/test sampling without replacement.

Two schemes: a plain per-class fraction split, and a minority-protecting
variant where the (scarce) attack class is divided 70/30 and only the benign
class is fraction-sampled. Per-class draw sizes round down, so a draw never
exceeds the class size; a class's train draw must hold at least 2 rows, or
some classifier cannot train on it. A split is drawn from a dataset's 0/1
label vector and gives sorted row indices. The PRNG is NumPy's default
(PCG64) seeded from the spec: the same (labels, spec) always reproduces the
same split within this implementation.
"""

import math
from dataclasses import dataclass

import numpy as np

FRACTION_STRATIFIED = "fraction_stratified"
MINORITY_PROTECT = "minority_protect"
SCHEMES = (FRACTION_STRATIFIED, MINORITY_PROTECT)


class SamplingError(ValueError):
    pass


@dataclass(frozen=True)
class SplitSpec:
    scheme: str
    train_fraction: float
    test_fraction: float
    attack_train_fraction: float
    seed: int

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise SamplingError(f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")
        for name in ("train_fraction", "test_fraction", "attack_train_fraction"):
            v = getattr(self, name)
            if not 0 < v < 1:
                raise SamplingError(f"{name} must lie in (0, 1), got {v}")
        if self.train_fraction + self.test_fraction > 1:
            raise SamplingError("train_fraction + test_fraction must not exceed 1")
        if self.seed < 0:
            raise SamplingError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class SplitResult:
    """Sorted, disjoint train and test row indices and their per-class counts."""

    train_rows: np.ndarray
    test_rows: np.ndarray
    train_class_counts: dict[int, int]
    test_class_counts: dict[int, int]


def _class_indices(labels) -> dict[int, np.ndarray]:
    """The rows of class 0 and of class 1; each class must have some."""
    y = np.asarray(labels)
    values = np.unique(y)
    if not set(values.tolist()) <= {0.0, 1.0}:
        raise SamplingError(f"labels must be binarized to 0/1, found values {values.tolist()}")
    by_class = {cls: np.flatnonzero(y == cls) for cls in (0, 1)}
    for cls, rows in by_class.items():
        if not len(rows):
            raise SamplingError(f"class {cls} has no rows")
    return by_class


def _checked_floor(fraction: float, n: int, what: str) -> int:
    count = math.floor(fraction * n)
    if count == 0:
        raise SamplingError(f"{what}: {fraction} of {n} rows rounds down to 0; "
                            "class would vanish from the split")
    return count


def _fraction_draw(rng, rows, spec: SplitSpec, what: str):
    """The train and test draws of one class; see `split_table`."""
    n = len(rows)
    n_train = _checked_floor(spec.train_fraction, n, f"{what} train draw")
    n_test = _checked_floor(spec.test_fraction, n, f"{what} test draw")
    if n_train + n_test > n:
        raise SamplingError(
            f"{what}: train draw {n_train} leaves too few rows for test draw {n_test}")
    perm = rng.permutation(rows)
    return perm[:n_train], perm[n_train:n_train + n_test]


def _build(draws: dict[int, tuple]) -> SplitResult:
    """The split of each class's (train rows, test rows) draw. A train draw
    of fewer than 2 rows is refused: a classifier such as naive Bayes needs
    2 rows of a class to estimate its variance."""
    for cls, (train, _) in draws.items():
        if len(train) < 2:
            raise SamplingError(f"class {cls} train draw has {len(train)} row; "
                                "training needs at least 2 rows of each class")
    train, test = (np.sort(np.concatenate(parts)) for parts in zip(*draws.values()))
    counts = ({cls: len(draw[k]) for cls, draw in draws.items()} for k in (0, 1))
    return SplitResult(train, test, *counts)


def split_table(labels, spec: SplitSpec) -> SplitResult:
    """Train and test rows of a dataset with 0/1 `labels`, sampled without
    replacement by the spec's scheme.

    fraction_stratified: per class, floor(train_fraction*n) rows to train and
    floor(test_fraction*n) of the remainder to test. minority_protect: benign
    rows are drawn so too, and the attack rows split attack_train_fraction to
    train and the remainder to test."""
    by_class = _class_indices(labels)
    rng = np.random.default_rng(spec.seed)
    if spec.scheme == FRACTION_STRATIFIED:
        return _build({cls: _fraction_draw(rng, by_class[cls], spec, f"class {cls}")
                       for cls in (0, 1)})
    draws = {0: _fraction_draw(rng, by_class[0], spec, "benign")}
    attack = by_class[1]
    n_train = _checked_floor(spec.attack_train_fraction, len(attack), "attack train draw")
    if n_train >= len(attack):
        raise SamplingError("attack train draw leaves no rows for the test split")
    perm = rng.permutation(attack)
    draws[1] = (perm[:n_train], perm[n_train:])
    return _build(draws)


def split_manifest(spec: SplitSpec, result: SplitResult) -> dict:
    return {
        "scheme": spec.scheme,
        "fractions": {"train": spec.train_fraction, "test": spec.test_fraction,
                      "attack_train": spec.attack_train_fraction},
        "seed": spec.seed,
        "train_class_counts": {str(k): v for k, v in result.train_class_counts.items()},
        "test_class_counts": {str(k): v for k, v in result.test_class_counts.items()},
    }
