"""Seeded, stratified train/test sampling without replacement.

Two schemes: a plain per-class fraction split, and a minority-protecting
variant where the (scarce) attack class is divided 70/30 and only the benign
class is fraction-sampled. Per-class draw sizes round down, so a draw never
exceeds the class size. The PRNG is NumPy's default (PCG64) seeded from the
spec: the same (table, spec) always reproduces the same split within this
implementation.
"""

import math
from dataclasses import dataclass

import numpy as np

from .tabular import Table

FRACTION_STRATIFIED = "fraction_stratified"
MINORITY_PROTECT = "minority_protect"
SCHEMES = (FRACTION_STRATIFIED, MINORITY_PROTECT)


class SamplingError(ValueError):
    pass


@dataclass(frozen=True)
class SplitSpec:
    scheme: str = FRACTION_STRATIFIED
    train_fraction: float = 0.20
    test_fraction: float = 0.10
    attack_train_fraction: float = 0.70
    seed: int = 0

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise SamplingError(f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")
        for name in ("train_fraction", "test_fraction", "attack_train_fraction"):
            v = getattr(self, name)
            if not 0 < v < 1:
                raise SamplingError(f"{name} must lie in (0, 1), got {v}")
        if self.scheme == FRACTION_STRATIFIED and self.train_fraction + self.test_fraction > 1:
            raise SamplingError("train_fraction + test_fraction must not exceed 1")


@dataclass(frozen=True)
class SplitResult:
    train: Table
    test: Table
    train_class_counts: dict[int, int]
    test_class_counts: dict[int, int]


def _class_indices(t: Table) -> dict[int, np.ndarray]:
    y = t.labels()
    values = np.unique(y)
    if not set(values.tolist()) <= {0.0, 1.0}:
        raise SamplingError(f"labels must be binarized to 0/1, found values {values.tolist()}")
    return {int(v): np.flatnonzero(y == v) for v in values}


def _checked_floor(fraction: float, n: int, what: str) -> int:
    count = math.floor(fraction * n)
    if count == 0:
        raise SamplingError(f"{what}: {fraction} of {n} rows rounds down to 0; "
                            "class would vanish from the split")
    return count


def _build(t: Table, train_parts, test_parts) -> SplitResult:
    train_idx = np.sort(np.concatenate(train_parts))
    test_idx = np.sort(np.concatenate(test_parts))
    train = t.take_rows(train_idx)
    test = t.take_rows(test_idx)

    def counts(tab: Table) -> dict[int, int]:
        y = tab.labels()
        return {cls: int((y == cls).sum()) for cls in (0, 1)}

    return SplitResult(train, test, counts(train), counts(test))


def fraction_stratified_split(t: Table, spec: SplitSpec) -> SplitResult:
    """Per class: floor(train_fraction*n) rows to train, floor(test_fraction*n)
    of the remainder to test, sampled without replacement."""
    if spec.scheme != FRACTION_STRATIFIED:
        raise SamplingError(f"spec scheme is {spec.scheme!r}, not {FRACTION_STRATIFIED!r}")
    by_class = _class_indices(t)
    for cls in (0, 1):
        if cls not in by_class:
            raise SamplingError(f"class {cls} has no rows")
    rng = np.random.default_rng(spec.seed)
    train_parts, test_parts = [], []
    for cls in (0, 1):
        idx = by_class[cls]
        n = len(idx)
        n_train = _checked_floor(spec.train_fraction, n, f"class {cls} train draw")
        n_test = _checked_floor(spec.test_fraction, n, f"class {cls} test draw")
        if n_train + n_test > n:
            raise SamplingError(
                f"class {cls}: train draw {n_train} leaves too few rows for test draw {n_test}")
        perm = rng.permutation(idx)
        train_parts.append(perm[:n_train])
        test_parts.append(perm[n_train:n_train + n_test])
    return _build(t, train_parts, test_parts)


def minority_protect_split(t: Table, spec: SplitSpec) -> SplitResult:
    """Attack rows split attack_train_fraction / remainder; benign rows contribute
    train_fraction to train and test_fraction to test, disjointly."""
    if spec.scheme != MINORITY_PROTECT:
        raise SamplingError(f"spec scheme is {spec.scheme!r}, not {MINORITY_PROTECT!r}")
    by_class = _class_indices(t)
    if 1 not in by_class:
        raise SamplingError("no attack rows (class 1) to split")
    rng = np.random.default_rng(spec.seed)
    train_parts, test_parts = [], []

    if 0 in by_class:
        benign = by_class[0]
        n = len(benign)
        n_train = _checked_floor(spec.train_fraction, n, "benign train draw")
        n_test = _checked_floor(spec.test_fraction, n, "benign test draw")
        if n_train + n_test > n:
            raise SamplingError(
                f"benign: train draw {n_train} leaves too few rows for test draw {n_test}")
        perm = rng.permutation(benign)
        train_parts.append(perm[:n_train])
        test_parts.append(perm[n_train:n_train + n_test])

    attack = by_class[1]
    n_attack = len(attack)
    n_train = _checked_floor(spec.attack_train_fraction, n_attack, "attack train draw")
    if n_train >= n_attack:
        raise SamplingError("attack train draw leaves no rows for the test split")
    perm = rng.permutation(attack)
    train_parts.append(perm[:n_train])
    test_parts.append(perm[n_train:])
    return _build(t, train_parts, test_parts)


def split_table(t: Table, spec: SplitSpec) -> SplitResult:
    if spec.scheme == FRACTION_STRATIFIED:
        return fraction_stratified_split(t, spec)
    return minority_protect_split(t, spec)


def split_manifest(spec: SplitSpec, result: SplitResult) -> dict:
    return {
        "scheme": spec.scheme,
        "fractions": {"train": spec.train_fraction, "test": spec.test_fraction,
                      "attack_train": spec.attack_train_fraction},
        "seed": spec.seed,
        "train_class_counts": {str(k): v for k, v in result.train_class_counts.items()},
        "test_class_counts": {str(k): v for k, v in result.test_class_counts.items()},
    }
