"""Fitted decision rules and the squared-surrogate training entry points.

A :class:`FittedPolicy` bundles a trained network with the semantics of its
head: how raw outputs become a randomized policy (simplex rows) and a
deterministic action choice. Binary scores decide action 1 when the score is
nonnegative; simplex policies decide by argmax with ties to the lowest column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gbpl import nnet
from gbpl.losses import BinarySurrogateLoss, FullVectorSurrogateLoss
from gbpl.posterior import GibbsConfig, TrainConfig, map_train

POLICY_TANH_SCORE = "tanh_score"
POLICY_SOFTMAX = "softmax_policy"
POLICY_SIGN_REGRESSION = "sign_regression"
POLICY_ARGMAX_REGRESSION = "argmax_regression"
POLICY_LOGIT_CLASSIFIER = "logit_classifier"

# the two decision rules: a scalar output thresholded at zero (column 0 on a
# nonnegative score), or the argmax column with ties to the lowest
_THRESHOLD_RULES = (POLICY_TANH_SCORE, POLICY_SIGN_REGRESSION, POLICY_LOGIT_CLASSIFIER)
_ARGMAX_RULES = (POLICY_SOFTMAX, POLICY_ARGMAX_REGRESSION)


@dataclass(frozen=True)
class FittedPolicy:
    """A trained score or policy model together with its decision semantics."""

    arch: nnet.MlpArchitecture
    params: np.ndarray
    semantics: str

    def score(self, x: np.ndarray) -> np.ndarray:
        """Raw head output on covariates."""
        return nnet.forward(self.arch, self.params, x)

    def delta(self, x: np.ndarray) -> np.ndarray:
        """Randomized policy as simplex rows (one-hot for deterministic kinds)."""
        out = self.score(x)
        if self.semantics == POLICY_TANH_SCORE:
            p1 = (out[:, 0] + 1.0) / 2.0
            return np.column_stack([p1, 1.0 - p1])
        if self.semantics == POLICY_SOFTMAX:
            return out
        k = 2 if self.semantics in _THRESHOLD_RULES else self.arch.output_dim
        return _one_hot(self.decide(x), k)

    def decide(self, x: np.ndarray) -> np.ndarray:
        """Deterministic action choice as column indices."""
        out = self.score(x)
        if self.semantics in _THRESHOLD_RULES:
            return np.where(out[:, 0] >= 0.0, 0, 1)
        if self.semantics in _ARGMAX_RULES:
            return out.argmax(axis=1)
        raise ValueError(f"unknown policy semantics {self.semantics!r}")


def _one_hot(cols: np.ndarray, k: int) -> np.ndarray:
    out = np.zeros((cols.size, k))
    out[np.arange(cols.size), cols] = 1.0
    return out


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
    return FittedPolicy(arch, params, POLICY_TANH_SCORE)


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
    return FittedPolicy(arch, params, POLICY_SOFTMAX)

