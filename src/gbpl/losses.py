"""Per-sample loss adapters for training on top of the MLP.

An adapter owns the covariates and targets for a dataset and exposes the loss
in output space: ``values(out, rows)`` returns the per-row losses for the
network output ``out`` computed on ``x[rows]``, and ``output_grad(out, rows)``
returns d(sum of those losses)/d(out). ``nnet.backward`` turns the latter into
exact parameter gradients, given the ``x`` and workspace that made ``out``.

Every adapter is a frozen dataclass on top of :class:`BatchLoss`, which holds
the ``batch`` and exposes its ``x`` and ``n``; subclasses add only their own
parameters and the two loss methods. ``rows=None`` means all rows in stored
order. The squared-loss adapters take their ``values`` from ``surrogate``'s
``binary_loss``, where the scaled squared error is written once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gbpl.nnet import Batch, softmax
from gbpl.surrogate import binary_loss


def _rows(a: np.ndarray, rows) -> np.ndarray:
    return a if rows is None else a[rows]


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Overflow-safe logistic function."""
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@dataclass(frozen=True)
class BatchLoss:
    """The dataset an adapter trains on; the targets' meaning is the subclass's."""

    batch: Batch

    @property
    def x(self):
        return self.batch.x

    @property
    def n(self):
        return self.batch.n


@dataclass(frozen=True)
class FullVectorSurrogateLoss(BatchLoss):
    """Scaled squared error of every output column against its target column.

    Per row: ``binary_loss(zeta, t, out)`` summed over the columns, with
    gradient zeta * out - t; targets t of shape (n,) meet a one-column output.
    On a softmax head this is the full-vector surrogate of a simplex policy
    against all K outcomes; at zeta = 1 on an identity head, least squares.
    """

    zeta: float

    def values(self, out, rows=None):
        t = _rows(self.batch.targets, rows).reshape(out.shape)
        return binary_loss(self.zeta, t, out).sum(axis=1)

    def output_grad(self, out, rows=None):
        return self.zeta * out - _rows(self.batch.targets, rows).reshape(out.shape)


@dataclass(frozen=True)
class BinarySurrogateLoss(FullVectorSurrogateLoss):
    """The one-column case: a tanh-head score f against the (n,) outcome
    (pseudo-)differences u, per row ``binary_loss(zeta, u, f)``."""


@dataclass(frozen=True)
class MaskedRegressionLoss(BatchLoss):
    """Squared error on one designated output column per row.

    Used for outcome regressions on logged data: only the column of the
    realized action contributes; gradients on all other columns are exactly
    zero. With a single column and all rows pointing at it, this is plain
    least squares. Targets are the (n,) observed values.
    """

    cols: np.ndarray  # (n,) int column per row

    def values(self, out, rows=None):
        y = _rows(self.batch.targets, rows)
        c = _rows(self.cols, rows)
        return binary_loss(1.0, y, out[np.arange(out.shape[0]), c])

    def output_grad(self, out, rows=None):
        y = _rows(self.batch.targets, rows)
        c = _rows(self.cols, rows)
        g = np.zeros_like(out)
        idx = np.arange(out.shape[0])
        g[idx, c] = out[idx, c] - y
        return g


@dataclass(frozen=True)
class WeightedLogisticLoss(BatchLoss):
    """Weighted binary cross-entropy on a scalar logit (identity head).

    Per row: w * (log(1 + exp(z)) - t * z) for label t in {0, 1}. Rows with
    weight zero contribute nothing, so ties in the labeling rule are harmless.
    Targets are the (n,) labels, weights the (n,) nonnegative row weights.
    """

    def values(self, out, rows=None):
        t = _rows(self.batch.targets, rows)
        w = _rows(self.batch.weights, rows)
        z = out[:, 0]
        return w * (np.logaddexp(0.0, z) - t * z)

    def output_grad(self, out, rows=None):
        t = _rows(self.batch.targets, rows)
        w = _rows(self.batch.weights, rows)
        return (w * (sigmoid(out[:, 0]) - t))[:, None]


@dataclass(frozen=True)
class NegativeWelfareLoss(BatchLoss):
    """Negative realized welfare of a softmax policy, per row: -sum_a delta_a * y_a,
    with y the (n, K) outcome (or pseudo-outcome) targets."""

    def values(self, out, rows=None):
        y = _rows(self.batch.targets, rows)
        return -(out * y).sum(axis=1)

    def output_grad(self, out, rows=None):
        y = _rows(self.batch.targets, rows)
        return -y


@dataclass(frozen=True)
class CrossEntropyLogitsLoss(BatchLoss):
    """Multinomial logistic loss taken directly on logits (identity head).

    Per row: logsumexp(z) - z[col]. Working in logit space keeps the loss and
    its gradient (softmax(z) - onehot) finite even when the fit saturates;
    predictions afterwards come from the matching softmax-head forward pass.
    """

    cols: np.ndarray  # (n,) int class per row

    def values(self, out, rows=None):
        c = _rows(self.cols, rows)
        m = out.max(axis=1)
        lse = m + np.log(np.exp(out - m[:, None]).sum(axis=1))
        return lse - out[np.arange(out.shape[0]), c]

    def output_grad(self, out, rows=None):
        c = _rows(self.cols, rows)
        p = softmax(out)
        idx = np.arange(out.shape[0])
        p[idx, c] -= 1.0
        return p
