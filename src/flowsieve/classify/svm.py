"""Linear soft-margin classifier trained by seeded stochastic subgradient descent.

Minimizes lambda/2 * |w|^2 + mean hinge loss with lambda = 1/(c*n), one sample
per step, over `epochs` shuffled passes. The default step size is the
inverse-step schedule eta_t = 1/(lambda*t); the bias is updated alongside but
not regularized. The margin of a prediction is squashed through a sigmoid so
the reported score lands in [0, 1].
"""

from dataclasses import dataclass, field

import numpy as np

from ..tabular import Table
from .base import ClassifyError, training_arrays
from .logistic import _sigmoid
from .params import SvmParams


@dataclass(frozen=True)
class SvmModel:
    feature_names: tuple[str, ...]
    weights: np.ndarray
    bias: float
    kind: str = field(default="svm", init=False)

    def margins(self, X: np.ndarray) -> np.ndarray:
        return X @ self.weights + self.bias

    def decide(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        m = self.margins(X)
        return (m > 0).astype(np.int64), _sigmoid(m)


def train_svm(train: Table, params: SvmParams) -> SvmModel:
    X, y01 = training_arrays(train)
    n, d = X.shape
    if len(np.unique(y01)) < 2:
        raise ClassifyError("training data holds a single class; nothing to separate")
    y = np.where(y01 == 1, 1.0, -1.0).tolist()
    lam = 1.0 / (params.c * n)
    w = np.zeros(d)
    step = np.empty(d)  # (eta * y_i) * x_i, added to w
    b = 0.0
    t = 0
    inverse_t = params.schedule == "inverse_t"
    rng = np.random.default_rng(params.seed)
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is caught below
        for _ in range(params.epochs):
            for i in rng.permutation(n).tolist():
                t += 1
                eta = 1.0 / (lam * t) if inverse_t else params.learning_rate
                x = X[i]
                hinge = y[i] * (x.dot(w) + b) < 1.0
                w *= 1.0 - eta * lam
                if hinge:
                    np.multiply(x, eta * y[i], out=step)
                    w += step
                    b += eta * y[i]
            if not (np.isfinite(w).all() and np.isfinite(b)):
                raise ClassifyError("weights became non-finite; lower c or the learning rate")
    return SvmModel(train.feature_names, w, float(b))
