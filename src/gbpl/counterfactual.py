"""Missing-outcome machinery: propensities, pseudo-outcomes, nuisances.

Only the outcome of the logged action is observed. Inverse-propensity
weighting (IPW) and doubly robust (DR) constructions rebuild a full
pseudo-outcome matrix whose conditional mean matches the true outcome
regression whenever the propensity (IPW) or at least one nuisance (DR) is
correct, after which every full-feedback objective applies verbatim.

The nuisance fits take the logged table and the rows they may learn from,
as every fit in a trial does, and predict every row.

Action coding: K-action problems use labels 1..K mapped to columns 0..K-1.
Binary problems (K = 2) use labels {1, 0}, with action 1 in column 0 and
action 0 in column 1. ``LoggedDataset`` holds this coding both ways: ``labels``
from columns, ``action_columns`` from labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gbpl import nnet
from gbpl.losses import CrossEntropyLogitsLoss, MaskedRegressionLoss
from gbpl.posterior import FLAT_PRIOR, TrainConfig, map_train
from gbpl.surrogate import (
    FullFeedbackDataset,
    check_finite,
    project_simplex_rows,
    verify_equivalence_fullvector,
)

DEFAULT_EPSILON_CLIP = 0.05
PROPENSITY_FLOOR = 1e-6

PSEUDO_IPW = "ipw"
PSEUDO_DR = "dr"


@dataclass(frozen=True)
class LoggedDataset:
    """Covariates, logged action, realized outcome, optional true propensities.

    ``a`` uses the binary coding {1, 0} when k = 2 and labels 1..K otherwise;
    float labels must be whole numbers.
    """

    x: np.ndarray
    a: np.ndarray
    y_obs: np.ndarray
    k: int
    true_propensity: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=np.float64))
        a = np.asarray(self.a)
        if a.dtype.kind == "f" and not np.all(np.isfinite(a) & (a == np.round(a))):
            raise ValueError("non-integer action label")
        object.__setattr__(self, "a", a.astype(np.intp, copy=False))
        object.__setattr__(self, "y_obs", np.asarray(self.y_obs, dtype=np.float64))
        if self.x.ndim != 2 or self.x.shape[1] < 1:
            raise ValueError(f"x must be a 2-D (n, d) array with d >= 1, got shape {self.x.shape}")
        check_finite("x", self.x)
        n = self.x.shape[0]
        if self.a.shape != (n,) or self.y_obs.shape != (n,):
            raise ValueError("a and y_obs must have one entry per row of x")
        check_finite("y_obs", self.y_obs)
        if self.k < 2:
            raise ValueError("need at least two actions")
        valid = self.labels(self.k)
        if not np.all(np.isin(self.a, valid)):
            raise ValueError(f"action labels must lie in {valid.tolist()}")
        if self.true_propensity is not None:
            object.__setattr__(self, "true_propensity",
                               _check_propensities(self.true_propensity, n, self.k, true=True))

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]

    @staticmethod
    def labels(k: int) -> np.ndarray:
        """Action label of each outcome column: (1, 0) at K = 2, 1..K otherwise."""
        return np.array([1, 0]) if k == 2 else np.arange(1, k + 1)

    def action_columns(self) -> np.ndarray:
        """Column index of the logged action per row, the inverse of ``labels``."""
        return 1 - self.a if self.k == 2 else self.a - 1


def check_clip(clip: float, k: int) -> None:
    """Raise ``ValueError`` unless every entry of a K-action propensity row can
    be floored at ``clip``: 0 < clip <= 1/K."""
    if not (0.0 < clip <= 1.0 / k):
        raise ValueError("clip must lie in (0, 1/K]")


def check_folds(folds: int) -> None:
    """Raise ``ValueError`` unless ``folds`` is 0 (no cross-fitting) or at
    least 2."""
    if folds < 0 or folds == 1:
        raise ValueError("folds must be 0 or at least 2")


def clip_propensities(e: np.ndarray, clip: float) -> np.ndarray:
    """Nearest propensity rows with every entry at least ``clip``.

    Plain clip-then-renormalize can dip entries back under the floor when
    K >= 3, so this projects each row onto {p : p >= clip, sum p = 1}
    (equivalently, a rescaled simplex projection). At clip = 1/K the feasible
    set is the single uniform row.

    Each row is ``clip + rem * project_simplex_rows((e - clip) / rem)`` with
    rem = 1 - K clip, computed in place in a result allocated once and filled
    ``nnet.BLOCK_ROWS`` rows at a time. Only ``e``, the result and one block's
    temporaries are alive, so the peak is one (n, K) table beyond the input.
    The projection works row by row, so a row comes out the same in a block
    as in one pass.
    """
    e = np.asarray(e, dtype=np.float64)
    k = e.shape[1]
    check_clip(clip, k)
    rem = 1.0 - k * clip
    if rem == 0.0:
        return np.full_like(e, clip)
    out = np.empty_like(e)
    for start in range(0, e.shape[0], nnet.BLOCK_ROWS):
        block = out[start:start + nnet.BLOCK_ROWS]
        np.subtract(e[start:start + nnet.BLOCK_ROWS], clip, out=block)
        block /= rem
        np.multiply(project_simplex_rows(block), rem, out=block)
        block += clip
    return out


def _check_propensities(e, n: int, k: int, true: bool = False) -> np.ndarray:
    """``e`` as (n, K) float propensity rows that are finite, sum to 1 and respect the floor."""
    name = "true_propensity" if true else "propensity matrix"
    e = np.asarray(e, dtype=np.float64)
    if e.shape != (n, k):
        raise ValueError(f"{name} must be ({n}, {k})")
    check_finite(name, e)
    if np.any(np.abs(e.sum(axis=1) - 1.0) > 1e-9):
        raise ValueError("propensity rows must sum to 1")
    if np.any(e < PROPENSITY_FLOOR):
        raise ValueError(f"{'true ' if true else ''}propensities violate the overlap floor "
                         f"{PROPENSITY_FLOOR}")
    return e


def ipw_pseudo_outcomes(logged: LoggedDataset, e_hat: np.ndarray) -> np.ndarray:
    """Indicator-weighted observed outcomes: row i, column a is
    y_i / e_hat[i, a] when action a was logged and 0 otherwise. This is the
    DR table with a zero outcome regression."""
    return dr_pseudo_outcomes(logged, e_hat, np.zeros((logged.n, logged.k)))


def dr_pseudo_outcomes(
    logged: LoggedDataset, e_hat: np.ndarray, gamma_hat: np.ndarray
) -> np.ndarray:
    """Outcome-regression predictions plus a propensity-weighted residual
    correction on the logged column. Beside its inputs and its output it holds
    only n-length vectors: the logged columns, the row indices, the residual."""
    e_hat = _check_propensities(e_hat, logged.n, logged.k)
    gamma_hat = np.asarray(gamma_hat, dtype=np.float64)
    if gamma_hat.shape != (logged.n, logged.k):
        raise ValueError("gamma_hat must be (n, K)")
    check_finite("gamma_hat", gamma_hat)
    cols = logged.action_columns()
    idx = np.arange(logged.n)
    out = gamma_hat.copy()
    resid = logged.y_obs - gamma_hat[idx, cols]
    resid /= e_hat[idx, cols]
    out[idx, cols] += resid
    return out


# ---------------------------------------------------------------------------
# nuisance estimation


def _check_observed(logged: LoggedDataset, rows: np.ndarray, what: str) -> None:
    """Raise ``ValueError`` naming the first action that no row of ``rows`` logs."""
    missing = np.flatnonzero(np.bincount(logged.action_columns()[rows], minlength=logged.k) == 0)
    if missing.size:
        raise ValueError(f"action {logged.labels(logged.k)[missing[0]]} is never observed in "
                         f"the training rows; cannot fit its {what}")


def fit_propensity(
    logged: LoggedDataset,
    train_rows: np.ndarray,
    clip: float = DEFAULT_EPSILON_CLIP,
    cfg: TrainConfig | None = None,
) -> np.ndarray:
    """Linear softmax propensities for every row, fitted on ``train_rows``.

    K linear logits are fitted with the multinomial cross-entropy for every K,
    K = 2 included; column j is the propensity of ``action_columns`` j, so at
    K = 2 action 1 is column 0. Predictions are projected onto the simplex
    rows with every entry at least ``clip`` (``clip_propensities``). Every
    action must appear at least once among ``train_rows``.
    """
    check_clip(clip, logged.k)
    _check_observed(logged, train_rows, "propensity")
    cfg = cfg or TrainConfig(learning_rate=0.05, batch_size=256, max_epochs=200, patience=20, seed=0)
    arch = nnet.MlpArchitecture(logged.d, (), logged.k, nnet.HEAD_IDENTITY)
    loss = CrossEntropyLogitsLoss(logged.x, logged.action_columns())
    params = map_train(arch, loss, FLAT_PRIOR, cfg, train_rows, train_rows)
    z = nnet.forward(arch, params, logged.x)
    return clip_propensities(nnet.softmax(z, out=z), clip)


def make_folds(n: int, n_folds: int, seed: int = 0) -> np.ndarray:
    """Balanced random fold assignment in 0..n_folds-1."""
    if n_folds < 1 or n_folds > n:
        raise ValueError("need 1 <= n_folds <= n")
    rng = np.random.default_rng(seed)
    fold = np.arange(n) % n_folds
    return fold[rng.permutation(n)]


def fit_outcome_regression(
    logged: LoggedDataset,
    train_rows: np.ndarray,
    cfg: TrainConfig | None = None,
    hidden: tuple[int, ...] = nnet.DEFAULT_HIDDEN,
    folds: int = 0,
) -> np.ndarray:
    """Outcome regression gamma_hat (n, K) for every row, by masked squared loss.

    An MLP with a K-output identity head learns the observed column per row;
    each fit holds out a fifth of its rows for early stopping. One model
    fitted on all of ``train_rows`` predicts every row. With ``folds`` >= 2
    (cross-fitting) the rows of fold j (``make_folds(train_rows.size, folds,
    cfg.seed)``) are overwritten out-of-fold, by a model fitted on the other
    folds, so no training row's prediction comes from a model that saw it.
    Deterministic given the seed. Each model's training rows must log every action.

    The fold models are fitted first, and each keeps only its held-out rows'
    predictions, so while a net trains no (n, K) table is alive beyond the
    inputs: the fold fits hold the earlier folds' predictions (as many rows as
    ``train_rows`` at most), the all-rows fit those of every fold. The result
    is allocated after the last fit, when the all-rows model predicts into it.
    That model still predicts the training rows the folds then overwrite,
    because a narrow output layer's rows can move by an ulp with the rows
    predicted alongside them (``nnet.forward``), so predicting only the other
    rows would change their bits. Every fit seeds its own generator from
    ``cfg.seed``, so the order of the fits changes no result.
    """
    check_folds(folds)
    cfg = cfg or TrainConfig()
    train_rows = np.asarray(train_rows, dtype=np.intp)
    if train_rows.size == 0:
        raise ValueError("train_rows is empty")
    fold = make_folds(train_rows.size, folds, cfg.seed) if folds else None
    arch = nnet.MlpArchitecture(logged.d, hidden, logged.k, nnet.HEAD_IDENTITY)
    loss = MaskedRegressionLoss(logged.x, logged.y_obs, logged.action_columns())

    def fit(rows: np.ndarray) -> np.ndarray:
        # hold out a slice of the fit rows for early stopping; a single row does both
        rng = np.random.default_rng(cfg.seed)
        perm = rows[rng.permutation(rows.size)]
        n_val = max(1, rows.size // 5)
        val_rows, tr_rows = perm[:n_val], (perm[n_val:] if rows.size > 1 else perm)
        _check_observed(logged, tr_rows, "outcome regression")
        return map_train(arch, loss, FLAT_PRIOR, cfg, tr_rows, val_rows)

    out_of_fold = []
    for j in range(folds):
        held_out = train_rows[fold == j]
        pred = nnet.forward(arch, fit(train_rows[fold != j]), logged.x, rows=held_out)
        out_of_fold.append((held_out, pred))
    gamma = nnet.forward(arch, fit(train_rows), logged.x)
    for held_out, pred in out_of_fold:
        gamma[held_out] = pred
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
