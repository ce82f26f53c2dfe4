"""Logistic regression trained by full-batch gradient descent."""

import math
from dataclasses import dataclass, field

import numpy as np

from .. import evaluation
from ..tabular import Table
from .base import ClassifyError, training_arrays
from .params import LogisticParams

THRESHOLD_SWEEP = [round(0.05 * i, 2) for i in range(1, 20)]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp(-|z|) is exp(-z) where z >= 0 and exp(z) below: neither branch overflows
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


@dataclass(frozen=True)
class LogisticModel:
    feature_names: tuple[str, ...]
    coefficients: np.ndarray  # intercept first, then one weight per feature
    decision_threshold: float
    kind: str = field(default="logistic_regression", init=False)

    def scores(self, X: np.ndarray) -> np.ndarray:
        z = self.coefficients[0] + X @ self.coefficients[1:]
        return _sigmoid(z)

    def decide(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        s = self.scores(X)
        return (s > self.decision_threshold).astype(np.int64), s


def train_logistic(train: Table, params: LogisticParams) -> LogisticModel:
    """Minimize mean cross-entropy from a zero start for `epochs` full-batch steps."""
    X, y = training_arrays(train)
    n, d = X.shape
    coef = np.zeros(d + 1)
    # one buffer per quantity, reused by every epoch: logits z, the sigmoid
    # (and then the residual) e, its denominator, the z >= 0 mask and the
    # gradient g; the values are those of `_sigmoid`, bit for bit
    z, e, den = np.empty(n), np.empty(n), np.empty(n)
    nonneg = np.empty(n, dtype=bool)
    g = np.empty(d)
    lr = params.learning_rate
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is caught below
        for _ in range(params.epochs):
            np.matmul(X, coef[1:], out=z)
            z += coef[0]
            np.copysign(z, -1.0, out=e)  # -|z|: its minimum is -inf or NaN if any z is
            if not math.isfinite(e.min(initial=0.0)):  # the loss would be non-finite too
                raise ClassifyError(
                    f"training loss became non-finite; lower learning_rate={lr}")
            np.exp(e, out=e)
            np.add(e, 1.0, out=den)
            np.greater_equal(z, 0.0, out=nonneg)
            np.copyto(e, 1.0, where=nonneg)  # the numerator: 1 where z >= 0, else exp(z)
            np.divide(e, den, out=e)
            e -= y
            coef[0] -= lr * (e.sum() / n)
            np.matmul(X.T, e, out=g)
            g *= lr
            g /= n
            coef[1:] -= g
    if not np.isfinite(coef).all():
        raise ClassifyError("coefficients became non-finite; lower the learning rate")

    threshold = params.decision_threshold
    if params.tune_threshold:
        probe = LogisticModel(train.feature_names, coef, 0.5)
        s = probe.scores(X)
        best = (-1.0, threshold)
        for h in THRESHOLD_SWEEP:
            f1 = evaluation.metrics(evaluation.confusion(s > h, y))["f1"]
            if f1 > best[0]:
                best = (f1, h)
        threshold = best[1]
    return LogisticModel(train.feature_names, coef, threshold)
