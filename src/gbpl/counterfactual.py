"""Missing-outcome machinery: propensities, pseudo-outcomes, nuisances.

Only the outcome of the logged action is observed. Inverse-propensity
weighting (IPW) and doubly robust (DR) constructions rebuild a full
pseudo-outcome matrix whose conditional mean matches the true outcome
regression whenever the propensity (IPW) or at least one nuisance (DR) is
correct, after which every full-feedback objective applies verbatim.

Action coding: K-action problems use labels 1..K mapped to columns 0..K-1.
Binary problems (K = 2) use labels {1, 0}, with action 1 in column 0 and
action 0 in column 1; conversion between the two codings is explicit via
``to_binary_labels`` / ``from_binary_labels``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gbpl import nnet
from gbpl.losses import (
    CrossEntropyLogitsLoss,
    MaskedRegressionLoss,
    WeightedLogisticLoss,
    sigmoid,
)
from gbpl.posterior import FLAT_PRIOR, TrainConfig, map_train
from gbpl.surrogate import (
    FullFeedbackDataset,
    project_simplex_rows,
    verify_equivalence_fullvector,
)

DEFAULT_EPSILON_CLIP = 0.05
PROPENSITY_FLOOR = 1e-6

PSEUDO_IPW = "ipw"
PSEUDO_DR = "dr"


def to_binary_labels(a: np.ndarray) -> np.ndarray:
    """Map K=2 one-based labels {1, 2} to the binary coding {1, 0}."""
    a = np.asarray(a)
    if not np.all(np.isin(a, (1, 2))):
        raise ValueError("expected labels in {1, 2}")
    return np.where(a == 1, 1, 0)


def from_binary_labels(a: np.ndarray) -> np.ndarray:
    """Map binary-coded labels {1, 0} back to one-based labels {1, 2}."""
    a = np.asarray(a)
    if not np.all(np.isin(a, (0, 1))):
        raise ValueError("expected labels in {0, 1}")
    return np.where(a == 1, 1, 2)


@dataclass(frozen=True)
class LoggedDataset:
    """Covariates, logged action, realized outcome, optional true propensities.

    ``a`` uses the binary coding {1, 0} when k = 2 and labels 1..K otherwise.
    """

    x: np.ndarray
    a: np.ndarray
    y_obs: np.ndarray
    k: int
    true_propensity: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=np.float64))
        object.__setattr__(self, "a", np.asarray(self.a, dtype=np.intp))
        object.__setattr__(self, "y_obs", np.asarray(self.y_obs, dtype=np.float64))
        n = self.x.shape[0]
        if self.a.shape != (n,) or self.y_obs.shape != (n,):
            raise ValueError("a and y_obs must have one entry per row of x")
        if not np.all(np.isfinite(self.y_obs)):
            raise ValueError("observed outcomes must be finite")
        if self.k < 2:
            raise ValueError("need at least two actions")
        valid = (0, 1) if self.k == 2 else tuple(range(1, self.k + 1))
        if not np.all(np.isin(self.a, valid)):
            raise ValueError(f"action labels must lie in {valid}")
        if self.true_propensity is not None:
            e = np.asarray(self.true_propensity, dtype=np.float64)
            object.__setattr__(self, "true_propensity", e)
            if e.shape != (n, self.k):
                raise ValueError("true_propensity must be (n, K)")
            if np.any(np.abs(e.sum(axis=1) - 1.0) > 1e-9):
                raise ValueError("propensity rows must sum to 1")
            if np.any(e < PROPENSITY_FLOOR):
                raise ValueError("true propensities violate the overlap floor")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]

    def action_columns(self) -> np.ndarray:
        """Column index of the logged action per row."""
        if self.k == 2:
            return np.where(self.a == 1, 0, 1)
        return self.a - 1


@dataclass(frozen=True)
class NuisanceSet:
    """Estimated (or true) propensities and outcome regressions, plus fold ids."""

    e_hat: np.ndarray
    gamma_hat: np.ndarray | None = None
    fold_id: np.ndarray | None = None
    epsilon_clip: float = DEFAULT_EPSILON_CLIP

    def __post_init__(self):
        e = np.asarray(self.e_hat, dtype=np.float64)
        object.__setattr__(self, "e_hat", e)
        if self.epsilon_clip <= 0:
            raise ValueError("epsilon_clip must be positive")
        if np.any(e < self.epsilon_clip) or np.any(e > 1.0):
            raise ValueError("e_hat entries must lie in [epsilon_clip, 1]")


def clip_propensities(e: np.ndarray, clip: float) -> np.ndarray:
    """Nearest propensity rows with every entry at least ``clip``.

    Plain clip-then-renormalize can dip entries back under the floor when
    K >= 3, so this projects each row onto {p : p >= clip, sum p = 1}
    (equivalently, a rescaled simplex projection). At clip = 1/K the feasible
    set is the single uniform row.
    """
    e = np.asarray(e, dtype=np.float64)
    k = e.shape[1]
    if not (0.0 < clip <= 1.0 / k):
        raise ValueError("clip must lie in (0, 1/K]")
    rem = 1.0 - k * clip
    if rem == 0.0:
        return np.full_like(e, clip)
    q = project_simplex_rows((e - clip) / rem)
    return clip + rem * q


def _check_propensities(e_hat: np.ndarray, n: int, k: int, floor: float) -> np.ndarray:
    e_hat = np.asarray(e_hat, dtype=np.float64)
    if e_hat.shape != (n, k):
        raise ValueError(f"propensity matrix must be ({n}, {k})")
    if np.any(e_hat < floor):
        raise ValueError(f"propensity below the floor {floor}")
    return e_hat


def ipw_pseudo_outcomes(
    logged: LoggedDataset, e_hat: np.ndarray, min_propensity: float = PROPENSITY_FLOOR
) -> np.ndarray:
    """Indicator-weighted observed outcomes: row i, column a is
    y_i / e_hat[i, a] when action a was logged and 0 otherwise."""
    e_hat = _check_propensities(e_hat, logged.n, logged.k, min_propensity)
    cols = logged.action_columns()
    out = np.zeros((logged.n, logged.k))
    idx = np.arange(logged.n)
    out[idx, cols] = logged.y_obs / e_hat[idx, cols]
    return out


def dr_pseudo_outcomes(
    logged: LoggedDataset,
    e_hat: np.ndarray,
    gamma_hat: np.ndarray,
    min_propensity: float = PROPENSITY_FLOOR,
) -> np.ndarray:
    """Outcome-regression predictions plus a propensity-weighted residual
    correction on the logged column."""
    e_hat = _check_propensities(e_hat, logged.n, logged.k, min_propensity)
    gamma_hat = np.asarray(gamma_hat, dtype=np.float64)
    if gamma_hat.shape != (logged.n, logged.k):
        raise ValueError("gamma_hat must be (n, K)")
    cols = logged.action_columns()
    idx = np.arange(logged.n)
    out = gamma_hat.copy()
    out[idx, cols] += (logged.y_obs - gamma_hat[idx, cols]) / e_hat[idx, cols]
    return out


def pseudo_difference_binary(
    logged: LoggedDataset,
    e_hat: np.ndarray,
    gamma_hat: np.ndarray | None = None,
    kind: str = PSEUDO_IPW,
    min_propensity: float = PROPENSITY_FLOOR,
) -> np.ndarray:
    """Per-row pseudo outcome difference for binary problems.

    IPW: 1[A=1] Y / e1 - 1[A=0] Y / e0. DR adds the regression difference and
    the residual corrections. Equals column 0 minus column 1 of the matching
    pseudo-outcome matrix.
    """
    if logged.k != 2:
        raise ValueError("pseudo differences are for binary problems")
    e_hat = _check_propensities(e_hat, logged.n, 2, min_propensity)
    treated = logged.a == 1
    e1, e0 = e_hat[:, 0], e_hat[:, 1]
    if kind == PSEUDO_IPW:
        return np.where(treated, logged.y_obs / e1, 0.0) - np.where(
            ~treated, logged.y_obs / e0, 0.0
        )
    if kind == PSEUDO_DR:
        if gamma_hat is None:
            raise ValueError("DR pseudo differences need gamma_hat")
        gamma_hat = np.asarray(gamma_hat, dtype=np.float64)
        g1, g0 = gamma_hat[:, 0], gamma_hat[:, 1]
        corr1 = np.where(treated, (logged.y_obs - g1) / e1, 0.0)
        corr0 = np.where(~treated, (logged.y_obs - g0) / e0, 0.0)
        return (g1 - g0) + corr1 - corr0
    raise ValueError(f"unknown pseudo-outcome kind {kind!r}")


# ---------------------------------------------------------------------------
# nuisance estimation

PROPENSITY_LOGISTIC = "logistic"
PROPENSITY_SOFTMAX = "softmax"


def fit_propensity(
    logged: LoggedDataset,
    model: str = PROPENSITY_SOFTMAX,
    clip: float = DEFAULT_EPSILON_CLIP,
    cfg: TrainConfig | None = None,
    predict_x: np.ndarray | None = None,
) -> np.ndarray:
    """Linear-logistic propensity fit on the network stack, clipped.

    Binary ``"logistic"`` fits a single zero-hidden-layer logit; ``"softmax"``
    fits K linear logits with the multinomial loss. Predictions are clipped to
    [clip, 1 - clip] and renormalized row-wise. Every action must appear at
    least once. ``predict_x`` requests predictions for other covariates than
    the training rows.
    """
    if not (0.0 < clip <= 1.0 / logged.k):
        raise ValueError("clip must lie in (0, 1/K]")
    cols = logged.action_columns()
    counts = np.bincount(cols, minlength=logged.k)
    for label_col, cnt in enumerate(counts):
        if cnt == 0:
            label = (1, 0)[label_col] if logged.k == 2 else label_col + 1
            raise ValueError(f"action {label} is never observed; cannot fit its propensity")
    cfg = cfg or TrainConfig(learning_rate=0.05, batch_size=256, max_epochs=200, patience=20, seed=0)
    rows = np.arange(logged.n)
    x_out = logged.x if predict_x is None else np.asarray(predict_x, dtype=np.float64)

    if model == PROPENSITY_LOGISTIC:
        if logged.k != 2:
            raise ValueError("logistic propensity model is binary only")
        arch = nnet.MlpArchitecture(logged.d, (), 1, nnet.HEAD_IDENTITY)
        labels = (logged.a == 1).astype(np.float64)
        loss = WeightedLogisticLoss(
            nnet.Batch(logged.x, labels, np.ones(logged.n))
        )
        params = map_train(arch, loss, FLAT_PRIOR, cfg, rows, rows)
        p1 = sigmoid(nnet.forward(arch, params, x_out)[:, 0])
        e = np.column_stack([p1, 1.0 - p1])
    elif model == PROPENSITY_SOFTMAX:
        arch = nnet.MlpArchitecture(logged.d, (), logged.k, nnet.HEAD_IDENTITY)
        loss = CrossEntropyLogitsLoss(nnet.Batch(logged.x), cols)
        params = map_train(arch, loss, FLAT_PRIOR, cfg, rows, rows)
        e = nnet.softmax(nnet.forward(arch, params, x_out))
    else:
        raise ValueError(f"unknown propensity model {model!r}")

    return clip_propensities(e, clip)


def make_folds(n: int, n_folds: int, seed: int = 0) -> np.ndarray:
    """Balanced random fold assignment in 0..n_folds-1."""
    if n_folds < 1 or n_folds > n:
        raise ValueError("need 1 <= n_folds <= n")
    rng = np.random.default_rng(seed)
    fold = np.arange(n) % n_folds
    return fold[rng.permutation(n)]


def fit_outcome_regression(
    logged: LoggedDataset,
    arch: nnet.MlpArchitecture | None = None,
    cfg: TrainConfig | None = None,
    fold_id: np.ndarray | None = None,
    predict_x: np.ndarray | None = None,
) -> np.ndarray:
    """Outcome regression gamma_hat (n, K) by masked squared loss.

    One MLP with a K-output identity head is trained on the observed column
    per row. Without ``fold_id`` predictions are in-sample; with folds, the
    predictions for fold j come from a model trained on all other folds
    (cross-fitting). ``predict_x`` (incompatible with folds) requests
    predictions for other covariates from the model trained on all rows.
    Deterministic given ``cfg.seed``.
    """
    arch = arch or nnet.MlpArchitecture(logged.d, (128, 128), logged.k, nnet.HEAD_IDENTITY)
    if arch.output_dim != logged.k or arch.head != nnet.HEAD_IDENTITY:
        raise ValueError("outcome regression needs a K-output identity head")
    cfg = cfg or TrainConfig()
    cols = logged.action_columns()
    loss = MaskedRegressionLoss(nnet.Batch(logged.x, logged.y_obs), cols)

    def fit_predict(train_rows: np.ndarray, x_out: np.ndarray) -> np.ndarray:
        if train_rows.size == 0 or x_out.shape[0] == 0:
            raise ValueError("empty fold")
        # hold out a slice of the training rows for early stopping
        rng = np.random.default_rng(cfg.seed)
        perm = train_rows[rng.permutation(train_rows.size)]
        n_val = max(1, train_rows.size // 5)
        val_rows, tr_rows = perm[:n_val], perm[n_val:]
        if tr_rows.size == 0:
            tr_rows = perm
        params = map_train(arch, loss, FLAT_PRIOR, cfg, tr_rows, val_rows)
        return nnet.forward(arch, params, x_out)

    if fold_id is None:
        all_rows = np.arange(logged.n)
        x_out = logged.x if predict_x is None else np.asarray(predict_x, dtype=np.float64)
        return fit_predict(all_rows, x_out)
    if predict_x is not None:
        raise ValueError("predict_x cannot be combined with cross-fitting folds")
    fold_id = np.asarray(fold_id)
    if fold_id.shape != (logged.n,):
        raise ValueError("fold_id must assign one fold per row")
    gamma = np.empty((logged.n, logged.k))
    for j in np.unique(fold_id):
        mask = fold_id == j
        gamma[mask] = fit_predict(np.nonzero(~mask)[0], logged.x[mask])
    return gamma


def ipw_welfare_equivalence_check(logged: LoggedDataset, policy_grid, zeta: float):
    """Full-vector equivalence on the IPW pseudo-outcome table.

    With the true propensities, the pseudo-outcome surrogate and the penalized
    pseudo-welfare (penalty weight zeta/2) have identical pairwise differences
    up to sign and the same arg-optimum sets; the returned report records both.
    """
    if logged.true_propensity is None:
        raise ValueError("equivalence check needs the true propensities")
    y_tilde = ipw_pseudo_outcomes(logged, logged.true_propensity)
    pseudo = FullFeedbackDataset(logged.x, y_tilde)
    return verify_equivalence_fullvector(pseudo, policy_grid, zeta)
