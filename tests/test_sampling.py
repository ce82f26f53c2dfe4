import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsieve.config import SamplingConfig
from flowsieve.sampling import (FRACTION_STRATIFIED, MINORITY_PROTECT,
                                SamplingError, SplitSpec,
                                fraction_stratified_split,
                                minority_protect_split, split_manifest,
                                split_table)


def spec(scheme, seed=0, **fractions):
    """The run config's spec for a dataset split by `scheme`: the config's
    default fractions unless `fractions` name others."""
    return SamplingConfig(schemes={"attack": scheme}, **fractions).spec("attack", seed)


def two_class_labels(n_benign, n_attack):
    return np.array([0.0] * n_benign + [1.0] * n_attack)


def test_fraction_split_counts():
    y = two_class_labels(100, 100)
    r = fraction_stratified_split(y, spec(FRACTION_STRATIFIED, seed=42, train_fraction=0.2,
                                          test_fraction=0.1))
    assert r.train_class_counts == {0: 20, 1: 20}
    assert r.test_class_counts == {0: 10, 1: 10}
    assert len(r.train_rows) == 40 and len(r.test_rows) == 20


def test_fraction_split_deterministic_and_disjoint():
    y = two_class_labels(80, 40)
    r1 = fraction_stratified_split(y, spec(FRACTION_STRATIFIED, seed=7))
    r2 = fraction_stratified_split(y, spec(FRACTION_STRATIFIED, seed=7))
    assert np.array_equal(r1.train_rows, r2.train_rows)
    assert np.array_equal(r1.test_rows, r2.test_rows)
    assert not set(r1.train_rows.tolist()) & set(r1.test_rows.tolist())
    r3 = fraction_stratified_split(y, spec(FRACTION_STRATIFIED, seed=8))
    assert set(r3.train_rows.tolist()) != set(r1.train_rows.tolist())


def test_fraction_split_stratification_bound():
    rng = np.random.default_rng(10)
    for _ in range(10):
        n0 = int(rng.integers(30, 200))
        n1 = int(rng.integers(30, 200))
        y = rng.permutation(two_class_labels(n0, n1))
        r = fraction_stratified_split(y, spec(FRACTION_STRATIFIED, seed=3,
                                              train_fraction=0.37, test_fraction=0.21))
        for cls, n in ((0, n0), (1, n1)):
            assert abs(r.train_class_counts[cls] - 0.37 * n) < 1
            assert abs(r.test_class_counts[cls] - 0.21 * n) < 1


def test_fraction_split_errors():
    with pytest.raises(SamplingError, match="class 1 has no rows"):
        fraction_stratified_split(np.zeros(2), spec(FRACTION_STRATIFIED))
    with pytest.raises(SamplingError, match="vanish"):
        fraction_stratified_split(two_class_labels(3, 100),
                                  spec(FRACTION_STRATIFIED, train_fraction=0.2,
                                       test_fraction=0.1))
    # fraction scheme cannot exhaust a class (train+test <= 1 is enforced at
    # spec level), but minority-protect benign draws can
    with pytest.raises(SamplingError, match="too few rows"):
        minority_protect_split(two_class_labels(10, 10),
                               spec(MINORITY_PROTECT, train_fraction=0.9, test_fraction=0.2))
    with pytest.raises(SamplingError, match="binarized"):
        split_table(np.array([0.0, 1.0, 2.0]), spec(FRACTION_STRATIFIED))


def test_spec_validation():
    with pytest.raises(SamplingError, match="unknown scheme"):
        spec("bogus")
    with pytest.raises(SamplingError, match="train_fraction"):
        spec(FRACTION_STRATIFIED, train_fraction=0.0)
    with pytest.raises(SamplingError, match="exceed 1"):
        spec(FRACTION_STRATIFIED, train_fraction=0.7, test_fraction=0.4)
    with pytest.raises(SamplingError, match="not"):
        minority_protect_split(two_class_labels(5, 5), spec(FRACTION_STRATIFIED))


def test_spec_has_no_defaults_of_its_own():
    # the fraction defaults live in config.SamplingConfig only
    with pytest.raises(TypeError):
        SplitSpec(FRACTION_STRATIFIED)
    assert spec(MINORITY_PROTECT, seed=4) == SplitSpec(MINORITY_PROTECT, 0.2, 0.1, 0.7, 4)


def test_minority_protect_fractions():
    r = minority_protect_split(two_class_labels(100, 10),
                               spec(MINORITY_PROTECT, seed=5, train_fraction=0.2,
                                    test_fraction=0.1, attack_train_fraction=0.7))
    assert r.train_class_counts == {0: 20, 1: 7}
    assert r.test_class_counts == {0: 10, 1: 3}


def test_minority_protect_single_attack_row_errors():
    with pytest.raises(SamplingError, match="vanish"):
        minority_protect_split(two_class_labels(100, 1), spec(MINORITY_PROTECT))


def test_minority_protect_attack_remainder_boundaries():
    # floor(0.7*n) train / remainder test over small attack counts
    for n_attack in range(2, 11):
        r = minority_protect_split(two_class_labels(50, n_attack),
                                   spec(MINORITY_PROTECT, seed=2))
        want_train = int(np.floor(0.7 * n_attack))
        assert r.train_class_counts[1] == want_train
        assert r.test_class_counts[1] == n_attack - want_train


def test_minority_protect_no_attack_errors():
    with pytest.raises(SamplingError, match="no attack rows"):
        minority_protect_split(np.zeros(2), spec(MINORITY_PROTECT))


def test_split_table_dispatch_and_manifest():
    s = spec(MINORITY_PROTECT, seed=9)
    r = split_table(two_class_labels(40, 20), s)
    m = split_manifest(s, r)
    assert m["scheme"] == MINORITY_PROTECT
    assert m["seed"] == 9
    assert m["train_class_counts"] == {"0": 8, "1": 14}
    assert m["test_class_counts"] == {"0": 4, "1": 6}


def expected_counts(y, s: SplitSpec):
    """Per-class (train, test) row counts by the floor rules, or None where
    the split must fail."""
    sizes = {cls: int((y == cls).sum()) for cls in (0, 1)}
    train, test = {}, {}
    for cls, n in sizes.items():
        if s.scheme == MINORITY_PROTECT and cls == 1:
            n_train = math.floor(s.attack_train_fraction * n)
            n_test = n - n_train
            if n_train == 0 or n_test == 0:
                return None
        elif s.scheme == MINORITY_PROTECT and n == 0:
            n_train = n_test = 0  # no benign rows is allowed
        else:
            n_train = math.floor(s.train_fraction * n)
            n_test = math.floor(s.test_fraction * n)
            if n_train == 0 or n_test == 0 or n_train + n_test > n:
                return None
        train[cls], test[cls] = n_train, n_test
    return train, test


fraction = st.floats(0.01, 0.99)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=120),
       st.sampled_from([FRACTION_STRATIFIED, MINORITY_PROTECT]),
       fraction, fraction, fraction, st.integers(0, 2**32 - 1))
def test_split_rows_property(labels, scheme, train_fraction, test_fraction,
                             attack_train_fraction, seed):
    y = np.array(labels, dtype=np.float64)
    try:
        s = SplitSpec(scheme, train_fraction, test_fraction, attack_train_fraction, seed)
    except SamplingError:
        return  # train + test > 1 for the fraction scheme, checked elsewhere
    want = expected_counts(y, s)
    if want is None:
        with pytest.raises(SamplingError):
            split_table(y, s)
        return
    r = split_table(y, s)
    for rows in (r.train_rows, r.test_rows):
        assert rows.dtype.kind == "i"
        assert np.all(np.diff(rows) > 0)  # sorted and unique
        assert rows.size == 0 or (rows[0] >= 0 and rows[-1] < len(y))
    assert not np.intersect1d(r.train_rows, r.test_rows).size
    got = ({c: int((y[r.train_rows] == c).sum()) for c in (0, 1)},
           {c: int((y[r.test_rows] == c).sum()) for c in (0, 1)})
    assert got == (r.train_class_counts, r.test_class_counts) == want
    manifest = split_manifest(s, r)
    assert manifest["train_class_counts"] == {str(c): n for c, n in want[0].items()}
    assert manifest["test_class_counts"] == {str(c): n for c, n in want[1].items()}
