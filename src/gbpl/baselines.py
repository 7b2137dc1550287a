"""Comparison methods, all built on the same network stack.

Every baseline shares the default architecture and training configuration of
the surrogate methods so that benchmark differences isolate the objective, not
the model class. Each fit takes the surrogate fit's covariates, outcome table
and row indices, and returns a :class:`~gbpl.methods.FittedPolicy` that emits
valid decisions for arbitrary finite covariates.
"""

from __future__ import annotations

import numpy as np

from gbpl import nnet
from gbpl.losses import (
    BinarySurrogateLoss,
    FullVectorSurrogateLoss,
    NegativeWelfareLoss,
    WeightedLogisticLoss,
)
from gbpl.methods import FittedPolicy
from gbpl.posterior import FLAT_PRIOR, TrainConfig, map_train

KIND_DIFF_REG = "diff_reg"
KIND_PLUGIN_REG = "plugin_reg"
KIND_PLUGIN_REG_K = "plugin_reg_k"
KIND_WEIGHTED_LOGISTIC = "weighted_logistic"
KIND_DIRECT_WELFARE = "direct_welfare"

BASELINE_KINDS = (
    KIND_DIFF_REG,
    KIND_PLUGIN_REG,
    KIND_PLUGIN_REG_K,
    KIND_WEIGHTED_LOGISTIC,
    KIND_DIRECT_WELFARE,
)


def fit_baseline(
    kind: str,
    x: np.ndarray,
    table: np.ndarray,
    cfg: TrainConfig,
    train_rows: np.ndarray,
    val_rows: np.ndarray,
    hidden: tuple[int, ...] = (128, 128),
) -> FittedPolicy:
    """Fit one comparison method on ``train_rows`` of an (n, K) realized or
    pseudo-outcome table, early-stopping on ``val_rows``.

    - ``diff_reg`` (K = 2): regress the outcome difference, decide by its
      sign.
    - ``plugin_reg`` (K = 2) / ``plugin_reg_k``: regress every outcome
      column, decide by argmax.
    - ``weighted_logistic`` (K = 2): logistic classifier for the better
      action, weighted by the absolute outcome gap; gap ties keep weight zero.
    - ``direct_welfare``: softmax policy trained to maximize empirical welfare
      directly (flat prior).

    The regressions are the squared surrogate at zeta = 1 on an identity head.
    """
    if kind not in BASELINE_KINDS:
        raise ValueError(f"unknown baseline kind {kind!r}")
    k = table.shape[1]
    if kind in (KIND_DIFF_REG, KIND_PLUGIN_REG, KIND_WEIGHTED_LOGISTIC) and k != 2:
        raise ValueError(f"{kind} needs a two-column outcome table; "
                         f"use {KIND_PLUGIN_REG_K} or {KIND_DIRECT_WELFARE} for K actions")
    d = x.shape[1]
    if kind == KIND_DIRECT_WELFARE:
        arch = nnet.MlpArchitecture(d, hidden, k, nnet.HEAD_SOFTMAX)
        loss = NegativeWelfareLoss(nnet.Batch(x, table))
    elif kind in (KIND_PLUGIN_REG, KIND_PLUGIN_REG_K):
        arch = nnet.MlpArchitecture(d, hidden, k, nnet.HEAD_IDENTITY)
        loss = FullVectorSurrogateLoss(nnet.Batch(x, table), 1.0)
    else:
        u = table[:, 0] - table[:, 1]
        arch = nnet.MlpArchitecture(d, hidden, 1, nnet.HEAD_IDENTITY)
        if kind == KIND_DIFF_REG:
            loss = BinarySurrogateLoss(nnet.Batch(x, u), 1.0)
        else:
            loss = WeightedLogisticLoss(nnet.Batch(x, (u > 0).astype(np.float64), np.abs(u)))
    return FittedPolicy(arch, map_train(arch, loss, FLAT_PRIOR, cfg, train_rows, val_rows))
