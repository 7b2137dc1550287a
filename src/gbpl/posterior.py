"""Generalized (Gibbs) posterior machinery.

Exact posteriors on finite parameter sets, the variational objective they
uniquely minimize, MAP training of the MLP under a Gaussian prior by Adam,
constant-step SGLD sampling, persistence of the draws, and a diagonal
curvature approximation around the MAP. Welfare credible intervals over the
draws live in ``evaluation`` (``draw_welfare`` and
``welfare_credible_interval``).

The MAP objective throughout is

    eta * sum_i loss_i(w) + ||w||^2 / (2 * tau2)

with minibatch gradients rescaled by n_train / batch so every step targets the
full-sample objective; ``objective_gradient`` forms that gradient for Adam, SGLD
and the Laplace curvature alike. Training and sampling are single-threaded per
run and deterministic given their seeds; distinct seeds may run concurrently.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gbpl import nnet
from gbpl.configio import from_dict, to_dict, write_json
from gbpl.surrogate import GibbsConfig

VARIANCE_FLOOR = 1e-8
STATIONARITY_TOL = 1e-3

# maximum likelihood: a prior this wide leaves the data term alone
FLAT_PRIOR = GibbsConfig(zeta=1.0, eta=1.0, tau2=1e8)


# ---------------------------------------------------------------------------
# finite parameter sets


def finite_gibbs_posterior(prior: np.ndarray, losses: np.ndarray, eta: float) -> np.ndarray:
    """Reweight a strictly positive prior by exp(-eta * loss), normalized.

    Computed in log space with max subtraction, so no configuration of finite
    losses can underflow the whole vector.
    """
    prior = np.asarray(prior, dtype=np.float64)
    losses = np.asarray(losses, dtype=np.float64)
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    if np.any(prior <= 0) or abs(prior.sum() - 1.0) > 1e-12:
        raise ValueError("prior must be strictly positive and sum to 1")
    logw = np.log(prior) - eta * losses
    logw -= logw.max()
    w = np.exp(logw)
    return w / w.sum()


def variational_objective(q: np.ndarray, prior: np.ndarray, losses: np.ndarray, eta: float) -> float:
    """eta * E_q[loss] + KL(q || prior), with 0 log 0 taken as 0.

    Raises when q places mass where the prior has none (infinite KL).
    """
    q = np.asarray(q, dtype=np.float64)
    prior = np.asarray(prior, dtype=np.float64)
    losses = np.asarray(losses, dtype=np.float64)
    if np.any(q < 0) or abs(q.sum() - 1.0) > 1e-9:
        raise ValueError("q must be a probability vector")
    if np.any((q > 0) & (prior == 0)):
        raise ValueError("q is not absolutely continuous w.r.t. the prior (infinite KL)")
    pos = q > 0
    kl = float(np.sum(q[pos] * np.log(q[pos] / prior[pos])))
    return float(eta * q @ losses + kl)


# ---------------------------------------------------------------------------
# MAP training


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 128
    max_epochs: int = 100
    patience: int = 10
    seed: int = 0
    weight_decay: float = 0.0  # extra L2 on top of the Gaussian prior, off by default

    def __post_init__(self):
        if self.learning_rate <= 0 or self.batch_size < 1 or self.max_epochs < 1:
            raise ValueError("learning_rate, batch_size, max_epochs must be positive")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be nonnegative")


def _prior_grad(params: np.ndarray, gibbs: GibbsConfig, weight_decay: float) -> np.ndarray:
    return params / gibbs.tau2 + weight_decay * params


def _prior_value(params: np.ndarray, gibbs: GibbsConfig, weight_decay: float) -> float:
    sq = float(params @ params)
    return sq / (2.0 * gibbs.tau2) + 0.5 * weight_decay * sq


def _rows_and_scale(loss, gibbs, rows, n_scale):
    """Covariates of ``rows`` and the data-term weight eta * n_scale / len(rows)."""
    x = loss.x if rows is None else loss.x[rows]
    m = x.shape[0]
    return x, gibbs.eta * ((n_scale if n_scale is not None else m) / m)


def objective_gradient(arch, params, loss, gibbs, rows=None, n_scale=None, weight_decay=0.0):
    """Gradient of the MAP objective restricted to ``rows``.

    ``n_scale`` rescales the data term to a target sample size (minibatch
    steps pass the training-set size); defaults to len(rows). A non-finite
    loss on ``rows`` or a non-finite gradient raises ``FloatingPointError``.
    """
    x, scale = _rows_and_scale(loss, gibbs, rows, n_scale)
    out = nnet.forward(arch, params, x)
    if not np.isfinite(loss.values(out, rows)).all():
        raise FloatingPointError("non-finite training loss; reduce the step size")
    grad = nnet.backward(arch, params, x, loss.output_grad(out, rows)) * scale
    grad += _prior_grad(params, gibbs, weight_decay)
    if not np.isfinite(grad).all():
        raise FloatingPointError("non-finite objective gradient; reduce the step size")
    return grad


def map_objective(arch, params, loss, gibbs, rows=None, n_scale=None, weight_decay=0.0) -> float:
    """Value of the MAP objective restricted to ``rows`` (see objective_gradient)."""
    x, scale = _rows_and_scale(loss, gibbs, rows, n_scale)
    vals = loss.values(nnet.forward(arch, params, x), rows)
    return float(scale * vals.sum() + _prior_value(params, gibbs, weight_decay))


def map_train(
    arch: nnet.MlpArchitecture,
    loss,
    gibbs: GibbsConfig,
    cfg: TrainConfig,
    train_rows: np.ndarray,
    val_rows: np.ndarray,
    init: np.ndarray | None = None,
) -> np.ndarray:
    """Minimize the MAP objective by minibatch Adam with early stopping.

    Optimization targets the full MAP objective; early stopping tracks the
    mean per-sample loss on ``val_rows`` (the prior stays out of the stopping
    criterion so that snapshot selection follows predictive fit). Snapshots
    are taken whenever the validation loss improves and the best one is
    returned; the initial parameters count as a candidate, so the returned
    validation loss can never exceed the initial one. Deterministic given
    ``cfg.seed``.
    """
    train_rows = np.asarray(train_rows, dtype=np.intp)
    val_rows = np.asarray(val_rows, dtype=np.intp)
    if train_rows.size == 0 or val_rows.size == 0:
        raise ValueError("train and validation sets must be nonempty")
    rng = np.random.default_rng(cfg.seed)
    params = nnet.init_params(arch, rng) if init is None else np.array(init, dtype=np.float64)
    n_train = train_rows.size

    def val_objective(w):
        out = nnet.forward(arch, w, loss.x[val_rows])
        return float(loss.values(out, val_rows).mean())

    best_params = params.copy()
    best_val = val_objective(params)
    since_best = 0

    # Adam state
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    t = 0
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    for _ in range(cfg.max_epochs):
        order = rng.permutation(n_train)
        for start in range(0, n_train, cfg.batch_size):
            rows = train_rows[order[start : start + cfg.batch_size]]
            grad = objective_gradient(arch, params, loss, gibbs, rows, n_train, cfg.weight_decay)
            t += 1
            m = beta1 * m + (1.0 - beta1) * grad
            v = beta2 * v + (1.0 - beta2) * grad**2
            m_hat = m / (1.0 - beta1**t)
            v_hat = v / (1.0 - beta2**t)
            params = params - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
        cur = val_objective(params)
        if cur < best_val:
            best_val = cur
            best_params = params.copy()
            since_best = 0
        else:
            since_best += 1
            if since_best >= cfg.patience:
                break
    return best_params


# ---------------------------------------------------------------------------
# SGLD


@dataclass(frozen=True)
class SgldConfig:
    """Sampler settings; the defaults reproduce the reference visualization run."""

    step_size: float = 2e-5
    burn_in: int = 1200
    n_draws: int = 300
    thin: int = 8
    batch_size: int = 128
    seed: int = 0
    clip_norm: float = 10.0

    def __post_init__(self):
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")
        if self.burn_in < 0 or self.n_draws < 1 or self.thin < 1 or self.batch_size < 1:
            raise ValueError("burn_in >= 0 and n_draws, thin, batch_size >= 1 required")
        if self.clip_norm <= 0:
            raise ValueError("clip_norm must be positive")


@dataclass(frozen=True)
class PosteriorDraws:
    """Ordered parameter draws sharing one architecture, plus sampler metadata."""

    arch: nnet.MlpArchitecture
    draws: np.ndarray  # (S, param_count)
    meta: SgldConfig

    def __post_init__(self):
        if self.draws.ndim != 2 or self.draws.shape[0] < 1:
            raise ValueError("draw matrix must be (S, P) with S >= 1")
        if self.draws.shape[1] != self.arch.param_count:
            raise ValueError("draw width does not match the architecture")

    @property
    def n_draws(self) -> int:
        return self.draws.shape[0]


def sgld_sample(
    arch: nnet.MlpArchitecture,
    loss,
    gibbs: GibbsConfig,
    init: np.ndarray,
    sgld: SgldConfig,
    rows: np.ndarray | None = None,
) -> PosteriorDraws:
    """Constant-step SGLD on the MAP objective.

    Each iteration takes half a gradient step on the full-sample-scaled
    objective (gradient clipped at ``clip_norm`` in global norm) and injects
    N(0, step) noise. The first ``burn_in`` iterates are discarded, then every
    ``thin``-th iterate is recorded until ``n_draws`` draws are collected.
    """
    rng = np.random.default_rng(sgld.seed)
    rows = np.arange(loss.n, dtype=np.intp) if rows is None else np.asarray(rows, dtype=np.intp)
    n = rows.size
    b = min(sgld.batch_size, n)
    w = np.array(init, dtype=np.float64)

    draws = np.empty((sgld.n_draws, w.size))
    collected = 0
    total = sgld.burn_in + sgld.n_draws * sgld.thin
    for t in range(1, total + 1):
        batch = rows[rng.choice(n, size=b, replace=False)]
        grad = objective_gradient(arch, w, loss, gibbs, batch, n_scale=n)
        norm = float(np.sqrt(grad @ grad))
        if norm > sgld.clip_norm:
            grad *= sgld.clip_norm / norm
        w = w - 0.5 * sgld.step_size * grad + np.sqrt(sgld.step_size) * rng.standard_normal(w.size)
        if not np.all(np.isfinite(w)):
            raise FloatingPointError("non-finite parameter during sampling")
        if t > sgld.burn_in and (t - sgld.burn_in) % sgld.thin == 0:
            draws[collected] = w
            collected += 1
            if collected == sgld.n_draws:
                break
    return PosteriorDraws(arch=arch, draws=draws, meta=sgld)


def save_draws(directory: str | Path, posterior: PosteriorDraws) -> None:
    """Persist the (S, P) draw matrix as one little-endian float64 blob,
    ``draws.bin``, plus a JSON manifest of the architecture and sampler."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "draws.bin").write_bytes(np.ascontiguousarray(posterior.draws, "<f8").tobytes())
    write_json(directory / "manifest.json", {"arch": to_dict(posterior.arch),
                                             "n_draws": posterior.n_draws,
                                             "sampler_meta": to_dict(posterior.meta)})


def load_draws(directory: str | Path) -> PosteriorDraws:
    directory = Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    arch = from_dict(nnet.MlpArchitecture, manifest["arch"])
    draws = np.fromfile(directory / "draws.bin", dtype="<f8")
    if draws.size != manifest["n_draws"] * arch.param_count:
        raise ValueError("draw blob length does not match the manifest")
    return PosteriorDraws(arch=arch, draws=draws.reshape(manifest["n_draws"], -1),
                          meta=from_dict(SgldConfig, manifest["sampler_meta"]))


# ---------------------------------------------------------------------------
# diagonal Gaussian approximation


@dataclass(frozen=True)
class DiagLaplaceResult:
    variances: np.ndarray
    negative_curvature: np.ndarray  # bool mask of clamped coordinates

    @property
    def any_clamped(self) -> bool:
        return bool(self.negative_curvature.any())


def diag_laplace(
    arch: nnet.MlpArchitecture,
    loss,
    gibbs: GibbsConfig,
    map_point: np.ndarray,
    rows: np.ndarray | None = None,
    fd_step: float = 1e-4,
    grad_tol: float = STATIONARITY_TOL,
    variance_floor: float = VARIANCE_FLOOR,
) -> DiagLaplaceResult:
    """Per-coordinate posterior variances 1 / H_jj around a stationary point.

    H_jj is estimated by central finite differences of the full objective
    gradient. Coordinates with non-positive curvature are clamped to
    ``variance_floor`` and flagged. Requires the gradient max-norm at
    ``map_point`` to be below ``grad_tol``. Cost is two gradient evaluations
    per parameter, so this is meant for small networks.
    """
    w = np.array(map_point, dtype=np.float64)
    g0 = objective_gradient(arch, w, loss, gibbs, rows)
    if float(np.abs(g0).max()) >= grad_tol:
        raise ValueError(
            f"map_point is not stationary (gradient max-norm {np.abs(g0).max():.3e} >= {grad_tol})"
        )
    p = w.size
    variances = np.empty(p)
    flagged = np.zeros(p, dtype=bool)
    for j in range(p):
        w[j] += fd_step
        gp = objective_gradient(arch, w, loss, gibbs, rows)[j]
        w[j] -= 2.0 * fd_step
        gm = objective_gradient(arch, w, loss, gibbs, rows)[j]
        w[j] += fd_step
        h = (gp - gm) / (2.0 * fd_step)
        if h <= 0 or 1.0 / h < variance_floor:
            variances[j] = variance_floor
            flagged[j] = h <= 0
        else:
            variances[j] = 1.0 / h
    return DiagLaplaceResult(variances=variances, negative_curvature=flagged)
