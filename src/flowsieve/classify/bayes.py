"""Gaussian naive Bayes with class priors from relative frequencies."""

from dataclasses import dataclass, field

import numpy as np

from ..tabular import Table
from .base import ClassifyError, training_arrays
from .params import NaiveBayesParams

_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)
# Most bytes of the (rows, features) buffer `log_posteriors` evaluates rows
# in: under 128 KiB, it comes from the heap rather than from a fresh mmap
# that faults in every page on each call
BAYES_BLOCK_BYTES = 1 << 16


@dataclass(frozen=True)
class BayesModel:
    feature_names: tuple[str, ...]
    priors: np.ndarray      # (2,) class prior probabilities
    means: np.ndarray       # (2, n_features)
    sigmas: np.ndarray      # (2, n_features), floored standard deviations
    kind: str = field(default="naive_bayes", init=False)

    def log_posteriors(self, X: np.ndarray) -> np.ndarray:
        """Unnormalized log posterior per class: log prior + sum of log densities.

        Each class's log densities are
        `-log(sig) - log(sqrt(2 pi)) - (X - mu) ** 2 / (2 sig ** 2)`, evaluated
        in that order, one operation at a time, for a block of rows at a time
        in one (rows, features) buffer of at most BAYES_BLOCK_BYTES that both
        classes reuse. Each row's sum is its own, so the blocks change no
        bit of it."""
        n, d = X.shape
        step = max(1, BAYES_BLOCK_BYTES // (8 * max(d, 1)))
        out = np.empty((n, 2))
        ll = np.empty((min(step, n), d))
        classes = [(self.means[c], 2.0 * self.sigmas[c] ** 2,
                    -np.log(self.sigmas[c]) - _LOG_SQRT_2PI, np.log(self.priors[c]))
                   for c in (0, 1)]
        for start in range(0, n, step):
            block = X[start:start + step]
            buf = ll[:len(block)]
            for c, (mu, scale, const, log_prior) in enumerate(classes):
                np.subtract(block, mu, out=buf)
                np.square(buf, out=buf)
                buf /= scale
                np.subtract(const, buf, out=buf)
                out[start:start + len(block), c] = log_prior + buf.sum(axis=1)
        return out

    def decide(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        lp = self.log_posteriors(X)
        labels = (lp[:, 1] > lp[:, 0]).astype(np.int64)  # tie goes to class 0
        shifted = lp - lp.max(axis=1, keepdims=True)
        post = np.exp(shifted)
        post /= post.sum(axis=1, keepdims=True)
        return labels, post[:, 1]


def train_naive_bayes(train: Table, params: NaiveBayesParams) -> BayesModel:
    X, y = training_arrays(train)
    n, d = X.shape
    priors = np.empty(2)
    means = np.empty((2, d))
    sigmas = np.empty((2, d))
    for c in (0, 1):
        rows = X[y == c]
        if len(rows) < 2:
            raise ClassifyError(
                f"class {c} has {len(rows)} rows; need at least 2 to estimate a variance")
        priors[c] = len(rows) / n
        means[c] = rows.mean(axis=0)
        sigmas[c] = np.maximum(rows.std(axis=0, ddof=1), params.variance_floor)
    return BayesModel(train.feature_names, priors, means, sigmas)
