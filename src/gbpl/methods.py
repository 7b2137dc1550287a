"""Fitted decision rules and the squared-surrogate training entry points.

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
from gbpl.losses import BinarySurrogateLoss, FullVectorSurrogateLoss
from gbpl.posterior import GibbsConfig, TrainConfig, map_train


@dataclass(frozen=True)
class FittedPolicy:
    """A trained score or policy network, read as a decision rule by its head."""

    arch: nnet.MlpArchitecture
    params: np.ndarray

    @property
    def n_actions(self) -> int:
        """Number of actions the rule chooses among: two for a one-column score."""
        return max(2, self.arch.output_dim)

    def score(self, x: np.ndarray) -> np.ndarray:
        """Raw head output on covariates."""
        return nnet.forward(self.arch, self.params, x)

    def delta(self, x: np.ndarray) -> np.ndarray:
        """Randomized policy as simplex rows (one-hot for an identity head)."""
        if self.arch.head == nnet.HEAD_IDENTITY:
            cols = self.decide(x)
            out = np.zeros((cols.size, self.n_actions))
            out[np.arange(cols.size), cols] = 1.0
            return out
        out = self.score(x)
        if self.arch.head == nnet.HEAD_TANH:
            p1 = (out[:, 0] + 1.0) / 2.0
            return np.column_stack([p1, 1.0 - p1])
        return out

    def decide(self, x: np.ndarray) -> np.ndarray:
        """Deterministic action choice as column indices."""
        out = self.score(x)
        if out.shape[1] == 1:
            return np.where(out[:, 0] >= 0.0, 0, 1)
        return out.argmax(axis=1)


def fit_score_binary(
    x: np.ndarray,
    u: np.ndarray,
    gibbs: GibbsConfig,
    cfg: TrainConfig,
    train_rows: np.ndarray,
    val_rows: np.ndarray,
    hidden: tuple[int, ...] = (128, 128),
) -> FittedPolicy:
    """Train a tanh-squashed score on outcome (pseudo-)differences.

    The MAP objective uses the binary squared surrogate at ``gibbs.zeta``; the
    induced randomized policy is (f + 1) / 2.
    """
    arch = nnet.MlpArchitecture(x.shape[1], hidden, 1, nnet.HEAD_TANH)
    loss = BinarySurrogateLoss(nnet.Batch(np.asarray(x, dtype=np.float64),
                                          np.asarray(u, dtype=np.float64)), gibbs.zeta)
    params = map_train(arch, loss, gibbs, cfg, train_rows, val_rows)
    return FittedPolicy(arch, params)


def fit_policy_fullvector(
    x: np.ndarray,
    y: np.ndarray,
    gibbs: GibbsConfig,
    cfg: TrainConfig,
    train_rows: np.ndarray,
    val_rows: np.ndarray,
    hidden: tuple[int, ...] = (128, 128),
) -> FittedPolicy:
    """Train a softmax policy net on outcome (pseudo-)vectors with the
    symmetric full-vector surrogate at ``gibbs.zeta``."""
    y = np.asarray(y, dtype=np.float64)
    arch = nnet.MlpArchitecture(x.shape[1], hidden, y.shape[1], nnet.HEAD_SOFTMAX)
    loss = FullVectorSurrogateLoss(nnet.Batch(np.asarray(x, dtype=np.float64), y), gibbs.zeta)
    params = map_train(arch, loss, gibbs, cfg, train_rows, val_rows)
    return FittedPolicy(arch, params)

