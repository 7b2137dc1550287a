"""Squared-loss welfare surrogates and their exact algebraic equivalences.

The central fact exploited throughout the package: minimizing a scaled squared
error in outcome-difference space equals maximizing empirical welfare minus a
quadratic penalty whose strength is a fixed multiple of the scale ``zeta``.
This module exposes the per-sample loss, the welfare functional, checkers
that verify the equivalences exactly on finite policy grids, and the input
checks ``check_finite``, ``check_positive``, ``check_simplex`` and
``check_rows`` that every module rejects bad input through. The surrogate
formula is written only here; the ``losses`` adapters and both checkers call
it.

Conventions, binary problems (K = 2): actions are labeled 1 and 0; column 0 of
an outcome matrix holds Y(1), column 1 holds Y(0). A bounded score f in [-1, 1]
encodes the randomized policy delta = (f + 1) / 2 = probability of action 1.

Every surrogate is ``binary_loss``, which carries the 1/2: the binary one
on the outcome difference and the score, the full-vector one summed over the
action columns of the outcomes and the policy rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SIMPLEX_TOL = 1e-9
TIE_TOL = 1e-12


def check_finite(field: str, a: np.ndarray) -> None:
    """Raise ``ValueError`` naming ``field`` unless every entry of ``a`` is
    finite. Two reductions decide it, with no temporary the size of ``a``."""
    if a.size and not (np.isfinite(a.min()) and np.isfinite(a.max())):
        raise ValueError(f"{field} must be finite")


def check_positive(name: str, value) -> None:
    """Raise ``ValueError`` naming ``name`` unless all of ``value`` lies in (0, inf)."""
    if not (np.less(0, value) & np.less(value, np.inf)).all():  # NaN fails both
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def check_simplex(field: str, p: np.ndarray, floor: float = 0.0) -> None:
    """Raise ``ValueError`` naming ``field`` unless every row of the float
    array ``p`` along its last axis (a vector is one row) has every entry at
    least ``floor`` and sums to 1 within ``SIMPLEX_TOL``. A NaN or an infinity
    fails too. The row sums are its only temporary: their distance from 1 is
    formed in place, kept 1-D for a vector so that ``out=`` takes it."""
    off = p.sum(axis=-1, keepdims=True)
    np.abs(np.subtract(off, 1.0, out=off), out=off)
    if not (p.min(initial=np.inf) >= floor and off.max(initial=0.0) <= SIMPLEX_TOL):
        raise ValueError(f"{field} must be probability rows: every entry at least {floor:g}, "
                         f"each row summing to 1 within {SIMPLEX_TOL:g}")


def check_rows(field: str, rows, n: int) -> np.ndarray:
    """``rows`` as an intp vector; raise ``ValueError`` naming ``field`` unless
    it is a nonempty 1-D integer array whose entries index 0 .. n - 1. A
    boolean mask is not an index array and fails."""
    rows = np.asarray(rows)
    if not (rows.ndim == 1 and rows.size and rows.dtype.kind in "iu"
            and 0 <= rows.min() and rows.max() < n):
        raise ValueError(f"{field} must be nonempty 1-D integer row indices in 0 .. {n - 1}")
    return rows.astype(np.intp, copy=False)


@dataclass(frozen=True)
class FullFeedbackDataset:
    """Covariates plus the complete outcome vector for every unit."""

    x: np.ndarray  # (n, d)
    y: np.ndarray  # (n, K), column a holds the outcome of action a

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=np.float64))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=np.float64))
        if self.x.ndim != 2 or self.y.ndim != 2:
            raise ValueError("x and y must be 2-D arrays")
        if self.x.shape[1] < 1:
            raise ValueError(f"x must have at least one covariate column, got shape {self.x.shape}")
        if self.x.shape[0] != self.y.shape[0]:
            raise ValueError("x and y row counts differ")
        if self.x.shape[0] < 1:
            raise ValueError("dataset must have at least one row")
        if self.y.shape[1] < 2:
            raise ValueError("need at least two actions")
        check_finite("x", self.x)
        check_finite("y", self.y)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]

    @property
    def k(self) -> int:
        return self.y.shape[1]

    def outcome_diff(self) -> np.ndarray:
        """Binary outcome difference U = Y(1) - Y(0); requires K = 2."""
        if self.k != 2:
            raise ValueError("outcome_diff needs a binary dataset")
        return self.y[:, 0] - self.y[:, 1]


# ---------------------------------------------------------------------------
# per-sample losses


def binary_loss(zeta: float | np.ndarray, u: float | np.ndarray, f: float | np.ndarray):
    """0.5 * (u / sqrt(zeta) - sqrt(zeta) * f)^2, zero iff u = zeta * f.

    The one scaled squared error of the package, elementwise: it broadcasts
    over array arguments, including the scale, whose every entry must be
    positive and finite. Its gradient in ``f`` is zeta * f - u.
    """
    check_positive("zeta", zeta)
    r = np.sqrt(zeta)
    t, s = np.asarray(u), np.asarray(f)
    return 0.5 * (t / r - r * s) ** 2


def binary_loss_decomposition(zeta, u, f):
    """Split the binary loss into (u^2/(2 zeta), -u*f, (zeta/2) f^2).

    The three terms sum to ``binary_loss(zeta, u, f)`` exactly; only the last
    two depend on the score, which is why validation on the raw loss value is
    biased toward large zeta.
    """
    check_positive("zeta", zeta)
    u = np.asarray(u, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    return u**2 / (2.0 * zeta), -u * f, 0.5 * zeta * f**2


# ---------------------------------------------------------------------------
# welfare functionals


def empirical_welfare(data: FullFeedbackDataset, delta: np.ndarray,
                      rows: np.ndarray | None = None) -> float:
    """(1/n) sum_i sum_a delta_{i,a} y_{i,a} for simplex policy rows, over
    the dataset's rows or the n of them indexed by ``rows``."""
    delta = np.asarray(delta, dtype=np.float64)
    y = data.y if rows is None else data.y[check_rows("rows", rows, data.n)]
    if delta.shape != y.shape:
        raise ValueError("policy rows must match the dataset shape")
    check_simplex("policy", delta, floor=-SIMPLEX_TOL)
    # gathered rows are this call's own copy, so the products can go over them
    return float(np.multiply(delta, y, out=None if rows is None else y).sum() / y.shape[0])


# ---------------------------------------------------------------------------
# equivalence checkers


def _argopt_set(values: np.ndarray, maximize: bool) -> tuple[int, ...]:
    best = values.max() if maximize else values.min()
    hits = np.nonzero(np.abs(values - best) <= TIE_TOL)[0]
    return tuple(int(i) for i in hits)


@dataclass(frozen=True)
class EquivalenceReport:
    """Side-by-side objectives over a finite policy grid.

    ``surrogate`` holds the mean surrogate loss per policy, ``penalized`` the
    penalized empirical welfare at the matched penalty weight. ``equal`` is
    true when the two arg-optimum sets (ties within 1e-12) coincide, and
    ``max_affine_error`` bounds |(s_i - s_j) - slope * (w_i - w_j)| over all
    pairs, which certifies the affine identity with the recorded slope.
    """

    surrogate: np.ndarray
    penalized: np.ndarray
    argmin_surrogate: tuple[int, ...]
    argmax_penalized: tuple[int, ...]
    equal: bool
    slope: float
    penalty_weight: float
    max_affine_error: float


def _grid_report(data, policy_grid, lam, slope, surrogate_loss, penalty):
    """Mean ``surrogate_loss(delta)`` and welfare minus ``lam`` times the mean
    ``penalty(delta)`` for each (n, K) policy ``delta`` of the grid, compared
    as an :class:`EquivalenceReport`; both functions return one value per row."""
    grid = [np.asarray(p, dtype=np.float64) for p in policy_grid]
    if not grid:
        raise ValueError("policy grid must be nonempty")
    surrogate = np.empty(len(grid))
    penalized = np.empty(len(grid))
    for j, delta in enumerate(grid):
        if delta.shape != data.y.shape:
            raise ValueError("each policy must be an (n, K) matrix matching the data")
        surrogate[j] = float(np.mean(surrogate_loss(delta)))
        penalized[j] = empirical_welfare(data, delta) - lam * float(np.mean(penalty(delta)))
    argmin_s = _argopt_set(surrogate, maximize=False)
    argmax_w = _argopt_set(penalized, maximize=True)
    ds = surrogate[:, None] - surrogate[None, :]
    dw = penalized[:, None] - penalized[None, :]
    err = float(np.abs(ds - slope * dw).max())
    return EquivalenceReport(
        surrogate=surrogate,
        penalized=penalized,
        argmin_surrogate=argmin_s,
        argmax_penalized=argmax_w,
        equal=argmin_s == argmax_w,
        slope=slope,
        penalty_weight=lam,
        max_affine_error=err,
    )


def verify_equivalence_binary(
    data: FullFeedbackDataset, policy_grid, zeta: float
) -> EquivalenceReport:
    """Binary check: mean surrogate loss vs welfare penalized at zeta/4.

    ``policy_grid`` is a sequence of treatment-probability vectors, one value
    in [0, 1] per dataset row. Each p is scored as the score f = 2 p - 1 in
    ``binary_loss`` against u = Y(1) - Y(0), penalized by f^2, and its welfare
    is that of the policy rows (p, 1 - p), which ``empirical_welfare`` checks.
    The affine slope is -2.
    """
    def policy_rows(p):
        p = np.asarray(p, dtype=np.float64)
        if p.shape != (data.n,):
            raise ValueError("each policy must be a vector with one entry per dataset row")
        return np.column_stack([p, 1.0 - p])

    u = data.outcome_diff()
    return _grid_report(data, map(policy_rows, policy_grid), zeta / 4.0, -2.0,
                        lambda delta: binary_loss(zeta, u, 2.0 * delta[:, 0] - 1.0),
                        lambda delta: (2.0 * delta[:, 0] - 1.0) ** 2)


def verify_equivalence_fullvector(
    data: FullFeedbackDataset, policy_grid, zeta: float
) -> EquivalenceReport:
    """Full-vector check: mean surrogate loss vs welfare penalized at zeta/2.

    ``policy_grid`` is a sequence of (n, K) simplex-row matrices, each scored
    by ``binary_loss`` against the outcomes and summed over the actions. With
    the 1/2 per-sample loss the affine slope is exactly -1, so pairwise
    penalized welfare differences equal pairwise surrogate differences with
    the sign flipped. A row off the simplex or not finite is rejected.
    """
    return _grid_report(data, policy_grid, zeta / 2.0, -1.0,
                        lambda delta: binary_loss(zeta, data.y, delta).sum(axis=1),
                        lambda delta: (delta**2).sum(axis=1))


# ---------------------------------------------------------------------------
# simplex geometry and population targets


def project_simplex_rows(v: np.ndarray) -> np.ndarray:
    """Row-wise Euclidean projection of an (n, K) matrix onto the probability
    simplex: each row's unique nearest point with nonnegative entries summing
    to one.

    Each row is sorted in descending order; the threshold theta is the
    cumulative-sum correction at the last index rho where the sorted entry
    stays above it, and the projection is max(v - theta, 0).
    """
    v = np.asarray(v, dtype=np.float64)
    u = np.sort(v, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1) - 1.0
    j = np.arange(1, v.shape[1] + 1)
    rho = v.shape[1] - 1 - np.argmax((u - css / j > 0)[:, ::-1], axis=1)
    theta = css[np.arange(v.shape[0]), rho] / (rho + 1.0)
    return np.maximum(v - theta[:, None], 0.0)


def population_score_binary(m_over_zeta: float | np.ndarray):
    """Pointwise minimizer of the population binary surrogate: clip to [-1, 1]."""
    return np.clip(m_over_zeta, -1.0, 1.0)
