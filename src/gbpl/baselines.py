"""Comparison methods, all built on the same network stack.

Every baseline shares the default architecture and training configuration of
the surrogate methods so that benchmark differences isolate the objective, not
the model class. Each fit returns a :class:`~gbpl.methods.FittedPolicy` that
emits valid decisions for arbitrary finite covariates.
"""

from __future__ import annotations

import numpy as np

from gbpl import nnet
from gbpl.counterfactual import LoggedDataset
from gbpl.losses import (
    MaskedRegressionLoss,
    MultiRegressionLoss,
    NegativeWelfareLoss,
    WeightedLogisticLoss,
)
from gbpl.methods import FittedPolicy
from gbpl.posterior import FLAT_PRIOR, TrainConfig, map_train
from gbpl.surrogate import FullFeedbackDataset

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
    data: FullFeedbackDataset | LoggedDataset,
    cfg: TrainConfig,
    train_rows: np.ndarray,
    val_rows: np.ndarray,
    hidden: tuple[int, ...] = (128, 128),
) -> FittedPolicy:
    """Fit one comparison method.

    - ``diff_reg`` (binary, full feedback): regress the outcome difference,
      decide by its sign.
    - ``plugin_reg`` / ``plugin_reg_k``: regress every outcome column (masked
      to the logged column for logged data), decide by argmax.
    - ``weighted_logistic`` (binary, full feedback): logistic classifier for
      the better action, weighted by the absolute outcome gap; gap ties keep
      weight zero.
    - ``direct_welfare``: softmax policy trained to maximize empirical welfare
      directly (flat prior).
    """
    if kind not in BASELINE_KINDS:
        raise ValueError(f"unknown baseline kind {kind!r}")
    full = isinstance(data, FullFeedbackDataset)
    x = data.x
    d = x.shape[1]

    if kind == KIND_DIFF_REG:
        if not full or data.k != 2:
            raise ValueError("diff_reg needs binary full feedback")
        u = data.outcome_diff()
        arch = nnet.MlpArchitecture(d, hidden, 1, nnet.HEAD_IDENTITY)
        loss = MaskedRegressionLoss(nnet.Batch(x, u), np.zeros(data.n, dtype=np.intp))
        params = map_train(arch, loss, FLAT_PRIOR, cfg, train_rows, val_rows)
        return FittedPolicy(arch, params)

    if kind in (KIND_PLUGIN_REG, KIND_PLUGIN_REG_K):
        if kind == KIND_PLUGIN_REG and (not full or data.k != 2):
            raise ValueError("plugin_reg is the binary variant; use plugin_reg_k for K actions")
        k = data.k
        arch = nnet.MlpArchitecture(d, hidden, k, nnet.HEAD_IDENTITY)
        if full:
            loss = MultiRegressionLoss(nnet.Batch(x, data.y))
        else:
            loss = MaskedRegressionLoss(nnet.Batch(x, data.y_obs), data.action_columns())
        params = map_train(arch, loss, FLAT_PRIOR, cfg, train_rows, val_rows)
        return FittedPolicy(arch, params)

    if kind == KIND_WEIGHTED_LOGISTIC:
        if not full or data.k != 2:
            raise ValueError("weighted_logistic needs binary full feedback")
        u = data.outcome_diff()
        labels = (u > 0).astype(np.float64)
        weights = np.abs(u)
        arch = nnet.MlpArchitecture(d, hidden, 1, nnet.HEAD_IDENTITY)
        loss = WeightedLogisticLoss(nnet.Batch(x, labels, weights))
        params = map_train(arch, loss, FLAT_PRIOR, cfg, train_rows, val_rows)
        return FittedPolicy(arch, params)

    # direct_welfare
    if not full:
        raise ValueError("direct_welfare needs a full (or pseudo) outcome table")
    arch = nnet.MlpArchitecture(d, hidden, data.k, nnet.HEAD_SOFTMAX)
    loss = NegativeWelfareLoss(nnet.Batch(x, data.y))
    params = map_train(arch, loss, FLAT_PRIOR, cfg, train_rows, val_rows)
    return FittedPolicy(arch, params)
