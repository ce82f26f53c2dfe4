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


def _class_sizes(labels) -> tuple[np.ndarray, dict[int, int]]:
    """The labels as an array and the row count of class 0 and of class 1;
    every label must be 0 or 1, and each class must have rows."""
    y = np.asarray(labels)
    sizes = {cls: int(np.count_nonzero(y == cls)) for cls in (0, 1)}
    if sum(sizes.values()) != y.size:
        raise SamplingError("labels must be binarized to 0/1, found values "
                            f"{np.unique(y).tolist()}")
    for cls, n in sizes.items():
        if not n:
            raise SamplingError(f"class {cls} has no rows")
    return y, sizes


def _checked_floor(fraction: float, n: int, what: str) -> int:
    count = math.floor(fraction * n)
    if count == 0:
        raise SamplingError(f"{what}: {fraction} of {n} rows rounds down to 0; "
                            "class would vanish from the split")
    return count


def _fraction_counts(spec: SplitSpec, n: int, what: str) -> tuple[int, int]:
    """The train and test draw sizes of a class of `n` rows by the spec's
    train and test fractions."""
    n_train = _checked_floor(spec.train_fraction, n, f"{what} train draw")
    n_test = _checked_floor(spec.test_fraction, n, f"{what} test draw")
    if n_train + n_test > n:
        raise SamplingError(
            f"{what}: train draw {n_train} leaves too few rows for test draw {n_test}")
    return n_train, n_test


def _draw_counts(spec: SplitSpec, sizes: dict[int, int]) -> dict[int, tuple[int, int]]:
    """Each class's train and test draw sizes; see `split_table`. A train
    draw of fewer than 2 rows is refused: a classifier such as naive Bayes
    needs 2 rows of a class to estimate its variance."""
    if spec.scheme == FRACTION_STRATIFIED:
        counts = {cls: _fraction_counts(spec, sizes[cls], f"class {cls}") for cls in (0, 1)}
    else:
        counts = {0: _fraction_counts(spec, sizes[0], "benign")}
        n_train = _checked_floor(spec.attack_train_fraction, sizes[1], "attack train draw")
        if n_train >= sizes[1]:
            raise SamplingError("attack train draw leaves no rows for the test split")
        counts[1] = (n_train, sizes[1] - n_train)
    for cls, (n_train, _) in counts.items():
        if n_train < 2:
            raise SamplingError(f"class {cls} train draw has {n_train} row; "
                                "training needs at least 2 rows of each class")
    return counts


def split_table(labels, spec: SplitSpec) -> SplitResult:
    """Train and test rows of a dataset with 0/1 `labels`, sampled without
    replacement by the spec's scheme.

    fraction_stratified: per class, floor(train_fraction*n) rows to train and
    floor(test_fraction*n) of the remainder to test. minority_protect: benign
    rows are drawn so too, and the attack rows split attack_train_fraction to
    train and the remainder to test. Each class's draws are the head of one
    permutation of its rows, class 0 first; a class's rows and permutation
    go once its draws are copied into the split."""
    y, sizes = _class_sizes(labels)
    counts = _draw_counts(spec, sizes)
    rng = np.random.default_rng(spec.seed)
    train = np.empty(counts[0][0] + counts[1][0], dtype=np.intp)
    test = np.empty(counts[0][1] + counts[1][1], dtype=np.intp)
    for cls, (at_train, at_test) in ((0, (0, 0)), (1, counts[0])):
        n_train, n_test = counts[cls]
        perm = rng.permutation(np.flatnonzero(y == cls))
        train[at_train:at_train + n_train] = perm[:n_train]
        test[at_test:at_test + n_test] = perm[n_train:n_train + n_test]
        del perm
    train.sort()
    test.sort()
    return SplitResult(train, test, *({cls: c[k] for cls, c in counts.items()} for k in (0, 1)))


def split_manifest(spec: SplitSpec, result: SplitResult) -> dict:
    return {
        "scheme": spec.scheme,
        "fractions": {"train": spec.train_fraction, "test": spec.test_fraction,
                      "attack_train": spec.attack_train_fraction},
        "seed": spec.seed,
        "train_class_counts": {str(k): v for k, v in result.train_class_counts.items()},
        "test_class_counts": {str(k): v for k, v in result.test_class_counts.items()},
    }
