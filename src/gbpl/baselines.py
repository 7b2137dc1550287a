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
from gbpl.losses import NegativeWelfareLoss, WeightedLogisticLoss
from gbpl.methods import FittedPolicy, squared_surrogate
from gbpl.posterior import FLAT_PRIOR, TrainConfig, map_train

KIND_DIFF_REG = "diff_reg"
KIND_PLUGIN_REG_K = "plugin_reg_k"
KIND_WEIGHTED_LOGISTIC = "weighted_logistic"
KIND_DIRECT_WELFARE = "direct_welfare"

TWO_ACTION_KINDS = (KIND_DIFF_REG, KIND_WEIGHTED_LOGISTIC)
BASELINE_KINDS = (*TWO_ACTION_KINDS, KIND_PLUGIN_REG_K, KIND_DIRECT_WELFARE)


def fit_baseline(
    kind: str,
    x: np.ndarray,
    table: np.ndarray,
    cfg: TrainConfig,
    train_rows: np.ndarray,
    val_rows: np.ndarray,
    hidden: tuple[int, ...] = nnet.DEFAULT_HIDDEN,
) -> FittedPolicy:
    """Fit one comparison method on ``train_rows`` of an (n, K) realized or
    pseudo-outcome table, early-stopping on ``val_rows``.

    - ``diff_reg`` (K = 2): regress the outcome difference, decide by its sign.
    - ``plugin_reg_k``: regress every outcome column, decide by argmax.
    - ``weighted_logistic`` (K = 2): logistic classifier for the better
      action, weighted by the absolute outcome gap; gap ties keep weight zero.
    - ``direct_welfare``: softmax policy trained to maximize empirical welfare
      directly (flat prior).

    The two regressions are ``methods.squared_surrogate`` at zeta = 1 on an
    identity head. Only the two K = 2 kinds form the outcome difference
    Y(1) - Y(0); the K-action kinds read the table as it is and hold no
    n-length vector beside it. ``weighted_logistic`` holds one: its weights
    |Y(1) - Y(0)|, taken in place of the difference, beside boolean labels,
    which enter the loss only as ``t * z`` and ``sigmoid(z) - t`` and so give
    the bits of 0/1 float labels.
    """
    if kind not in BASELINE_KINDS:
        raise ValueError(f"unknown baseline kind {kind!r}")
    k = table.shape[1]
    if kind in TWO_ACTION_KINDS and k != 2:
        raise ValueError(f"{kind} needs a two-column outcome table; "
                         f"use {KIND_PLUGIN_REG_K} or {KIND_DIRECT_WELFARE} for K actions")
    if kind == KIND_DIRECT_WELFARE:
        arch = nnet.MlpArchitecture(x.shape[1], hidden, k, nnet.HEAD_SOFTMAX)
        loss = NegativeWelfareLoss(x, table)
    elif kind == KIND_WEIGHTED_LOGISTIC:
        u = table[:, 0] - table[:, 1]
        labels = u > 0
        arch = nnet.MlpArchitecture(x.shape[1], hidden, 1, nnet.HEAD_IDENTITY)
        loss = WeightedLogisticLoss(x, labels, np.abs(u, out=u))  # the weights take u's memory
    else:
        targets = table[:, 0] - table[:, 1] if kind == KIND_DIFF_REG else table
        arch, loss = squared_surrogate(x, targets, 1.0, hidden, nnet.HEAD_IDENTITY)
    return FittedPolicy(arch, map_train(arch, loss, FLAT_PRIOR, cfg, train_rows, val_rows))
