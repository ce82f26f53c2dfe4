"""Linear soft-margin classifier trained by seeded stochastic subgradient descent.

Minimizes lambda/2 * |w|^2 + mean hinge loss with lambda = 1/(c*n), one sample
per step, over `epochs` shuffled passes. The default step size is the
inverse-step schedule eta_t = 1/(lambda*t); the bias is updated alongside but
not regularized. The margin of a prediction is squashed through a sigmoid so
the reported score lands in [0, 1].

The steps are those of the per-sample loop (`svm_ref` in the tests), with its
rounding: at each step t, in a fresh permutation of the rows each epoch,
hinge = y_i * (x_i . w + b) < 1; then w *= 1 - eta_t*lambda; and on a hinge,
w += (eta_t*y_i) * x_i and b += eta_t*y_i. Only a few percent of steps hinge,
so `train_svm` settles a block of upcoming steps with a few NumPy calls: one
gather of the block's rows, their margins against the current w scaled by
the running product of the shrink factors, and a test of each margin against
a rounding bound (`_tolerance_scale`). Every step before the first that may
hinge only shrinks w; np.multiply.reduce over [w, c_k, ..., c_j] applies
those shrinks one factor at a time per column, so w is the loop's, bit for
bit. That first step runs as the loop runs it, and the next segment starts
after it.
"""

from dataclasses import dataclass, field

import numpy as np

from ..tabular import Table
from .base import ClassifyError, training_arrays
from .logistic import _sigmoid
from .params import SvmParams

# Steps settled per gathered block of rows. A block costs about a dozen NumPy
# calls per segment between hinge steps; at a hinge rate of 3-5 %, 96 was
# faster than 32-64 and than 128-192 on the bench's training tables
SVM_BLOCK = 96


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


def _tolerance_scale(d: int, steps: int) -> float:
    """The block settles a step when y * (its margin) exceeds
    1 + scale * (bound + |b| + 1), for rows of d features and at most `steps`
    shrinks since the segment's w. `bound` is at least |x|_1 * W * G, with W
    at least max|w| and the smallest normal float64, and G at least the
    absolute product of any `steps` of the segment's shrink factors. The
    loop's own margin at that step is then no hinge.

    With u = 2**-53 and gamma_k = k u / (1 - k u) (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, ch. 3), the loop's w at step j
    is w * c_0 * ... * c_{j-1} within gamma_j * W * G per entry (a product that
    underflows errs by at most u times the smallest normal), and its dot
    product errs by at most gamma_d * bound, in any summation order. The
    block's fl(x . w) * fl(c_0 * ... * c_{j-1}) is within
    (gamma_d + gamma_{j+1}) * bound of the same exact value, and each side's
    addition of b errs by u of its result. The two margins therefore differ
    by less than 2 (d + steps + 2) u (bound + |b|), which the scale,
    8 (d + steps) u, exceeds threefold. The margin covers the rounding of the
    comparison and of the tolerance, and the shortfall of a computed |x|_1;
    the term 1 covers the block's own underflows, which err by less than
    4 steps u for any finite |x|_1 * W.
    """
    return 4 * (d + steps) * float(np.finfo(np.float64).eps)


def train_svm(train: Table, params: SvmParams) -> SvmModel:
    X, y01 = training_arrays(train)
    n, d = X.shape
    if not 0 < y01.sum() < n:  # the labels are 0/1
        raise ClassifyError("training data holds a single class; nothing to separate")
    y = np.where(y01 == 1, 1.0, -1.0)
    lam = 1.0 / (params.c * n)
    w = np.zeros(d)
    step = np.empty(d)  # (eta * y_i) * x_i, added to w
    b = 0.0
    inverse_t = params.schedule == "inverse_t"
    rng = np.random.default_rng(params.seed)
    norm = float(np.abs(X).sum(axis=1).max())  # the largest |x|_1
    scale = _tolerance_scale(d, SVM_BLOCK)
    rows = np.empty((SVM_BLOCK, d))  # the block's rows, in step order
    z = np.empty(SVM_BLOCK)  # their margins, then y times them
    seen = np.ones(SVM_BLOCK + 1)  # seen[j]: product of a segment's first j shrinks
    # row r + 1 holds the block's r-th shrink factor, broadcast; the row before
    # a segment's first step is overwritten with w to reduce over
    stack = np.empty((SVM_BLOCK + 1, d))
    w_floor = float(np.finfo(np.float64).tiny)
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is caught below
        for epoch in range(params.epochs):
            order = rng.permutation(n)
            if inverse_t:
                eta = 1.0 / (lam * np.arange(epoch * n + 1, epoch * n + n + 1))
            else:
                eta = np.full(n, params.learning_rate)
            shrink = 1.0 - eta * lam  # rounds as the loop's Python floats do
            grow = float(np.maximum(1.0, np.abs(shrink).max()) ** SVM_BLOCK)
            y_order = y[order]
            # W, which shrinks by factors of magnitude at most 1 keep an upper
            # bound; with a larger one it is taken again at each segment
            w_max = max(float(np.abs(w).max()), w_floor)
            for start in range(0, n, SVM_BLOCK):
                end = min(start + SVM_BLOCK, n)
                np.take(X, order[start:end], axis=0, out=rows[:end - start], mode="clip")
                stack[1:end - start + 1] = shrink[start:end, None]
                s = start  # the segment's first step
                while s < end:
                    size = end - s
                    if grow > 1.0:
                        w_max = max(float(np.abs(w).max()), w_floor)
                    np.multiply.accumulate(shrink[s:end], out=seen[1:size + 1])
                    m = np.dot(rows[s - start:end - start], w, out=z[:size])
                    m *= seen[:size]
                    m += b
                    m *= y_order[s:end]
                    # > leaves NaN, and so every non-finite margin, unsettled
                    settled = m > 1.0 + scale * (norm * w_max * grow + abs(b) + 1.0)
                    j = int(settled.argmin())
                    if settled[j]:
                        j = size
                    if j:
                        stack[s - start] = w
                        np.multiply.reduce(stack[s - start:s - start + j + 1], axis=0, out=w)
                    if j == size:
                        break
                    k = s + j  # may hinge: the loop's step
                    x = X[order[k]]
                    yk = float(y_order[k])
                    hinge = yk * (x.dot(w) + b) < 1.0
                    w *= float(shrink[k])
                    if hinge:
                        eta_y = float(eta[k]) * yk
                        np.multiply(x, eta_y, out=step)
                        w += step
                        b += eta_y
                        w_max = max(float(np.abs(w).max()), w_floor)
                    s = k + 1
            if not (np.isfinite(w).all() and np.isfinite(b)):
                raise ClassifyError("weights became non-finite; lower c or the learning rate")
    return SvmModel(train.feature_names, w, float(b))
