"""Fitted decision rules and the squared-surrogate fits.

A :class:`FittedPolicy` is a trained network whose head says how it acts. A
one-column output is a score that decides action column 0 when nonnegative; a
wider output decides by argmax with ties to the lowest column. As a
randomized policy, a tanh score f acts as (f + 1) / 2, a softmax output as its
simplex rows, and an identity (regression) head as its one-hot decisions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gbpl import nnet
from gbpl.losses import FullVectorSurrogateLoss
from gbpl.posterior import GibbsConfig, TrainConfig, map_train
from gbpl.surrogate import check_finite


@dataclass(frozen=True)
class FittedPolicy:
    """A trained score or policy network, read as a decision rule by its head."""

    arch: nnet.MlpArchitecture
    params: np.ndarray

    @property
    def n_actions(self) -> int:
        """Number of actions the rule chooses among: two for a one-column score."""
        return max(2, self.arch.output_dim)

    def score(self, x: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
        """Raw head output on covariates, or on the covariate rows ``rows`` of ``x``,
        which must be finite."""
        x = np.asarray(x, dtype=np.float64)
        check_finite("x", x)
        return nnet.forward(self.arch, self.params, x, rows=rows)

    def delta(self, x: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
        """Randomized policy as simplex rows (one-hot for an identity head)."""
        if self.arch.head == nnet.HEAD_IDENTITY:
            cols = self.decide(x, rows)
            out = np.zeros((cols.size, self.n_actions))
            out[np.arange(cols.size), cols] = 1.0
            return out
        out = self.score(x, rows)
        if self.arch.head == nnet.HEAD_TANH:
            p1 = (out[:, 0] + 1.0) / 2.0
            return np.column_stack([p1, 1.0 - p1])
        return out

    def decide(self, x: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
        """Deterministic action choice as column indices."""
        out = self.score(x, rows)
        if out.shape[1] == 1:
            return np.where(out[:, 0] >= 0.0, 0, 1)
        return out.argmax(axis=1)


def squared_surrogate(x: np.ndarray, targets: np.ndarray, zeta: float,
                      hidden: tuple[int, ...], head: str):
    """The (architecture, loss) pair of every scaled squared-error fit: the
    surrogate fits below, the regression baselines (zeta = 1 on an identity
    head) and the posterior run's MAP problem. The net has one output per
    column of ``targets``, or one for an (n,) vector, and the loss is
    ``FullVectorSurrogateLoss`` at ``zeta``."""
    loss = FullVectorSurrogateLoss(np.asarray(x, dtype=np.float64),
                                   np.asarray(targets, dtype=np.float64), zeta)
    width = 1 if loss.targets.ndim == 1 else loss.targets.shape[1]
    return nnet.MlpArchitecture(loss.x.shape[1], hidden, width, head), loss


def fit_score_binary(x: np.ndarray, u: np.ndarray, gibbs: GibbsConfig, cfg: TrainConfig,
                     train_rows: np.ndarray, val_rows: np.ndarray,
                     hidden: tuple[int, ...] = nnet.DEFAULT_HIDDEN) -> FittedPolicy:
    """Train a tanh-squashed score on the (n,) outcome (pseudo-)differences
    ``u`` with the squared surrogate at ``gibbs.zeta``; the induced randomized
    policy is (f + 1) / 2."""
    arch, loss = squared_surrogate(x, u, gibbs.zeta, hidden, nnet.HEAD_TANH)
    return FittedPolicy(arch, map_train(arch, loss, gibbs, cfg, train_rows, val_rows))


def fit_policy_fullvector(x: np.ndarray, y: np.ndarray, gibbs: GibbsConfig, cfg: TrainConfig,
                          train_rows: np.ndarray, val_rows: np.ndarray,
                          hidden: tuple[int, ...] = nnet.DEFAULT_HIDDEN) -> FittedPolicy:
    """Train a softmax policy net on the (n, K) outcome (pseudo-)vectors ``y``
    with the full-vector surrogate at ``gibbs.zeta``."""
    arch, loss = squared_surrogate(x, y, gibbs.zeta, hidden, nnet.HEAD_SOFTMAX)
    return FittedPolicy(arch, map_train(arch, loss, gibbs, cfg, train_rows, val_rows))
