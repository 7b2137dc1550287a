"""Generalized (Gibbs) posterior machinery.

Exact posteriors on finite parameter sets, the variational objective they
uniquely minimize, MAP training of the MLP under a Gaussian prior by Adam,
and constant-step SGLD sampling. Welfare credible intervals over per-draw
welfare live in ``evaluation`` (``welfare_credible_interval``).

The MAP objective throughout is

    eta * sum_i loss_i(w) + ||w||^2 / (2 * tau2)

with minibatch gradients rescaled by n_train / batch so every step targets the
full-sample objective; ``objective_gradient`` forms that gradient for Adam and
SGLD alike. A run uses one Python thread, but numpy's BLAS may use several per
matrix product; runs are deterministic given their seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gbpl import nnet
from gbpl.surrogate import GibbsConfig

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
        if not (self.learning_rate > 0 and self.batch_size >= 1 and self.max_epochs >= 1):
            raise ValueError("learning_rate, batch_size, max_epochs must be positive")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if not self.weight_decay >= 0:
            raise ValueError("weight_decay must be nonnegative")


class GradientWorkspace(nnet.Workspace):
    """An ``nnet.Workspace`` plus a parameter-sized buffer ``prior`` for the
    prior gradient, and a second, ``decay``, made by the first call with a
    nonzero weight decay. ``objective_gradient`` is done with ``prior`` once it
    returns, so the optimizer steps use it as scratch until the next call."""

    def __init__(self, arch: nnet.MlpArchitecture, rows: int):
        super().__init__(arch, rows)
        self.prior = np.empty(arch.param_count)
        self.decay = None


def _prior_grad(params: np.ndarray, gibbs: GibbsConfig, weight_decay: float,
                ws: GradientWorkspace) -> np.ndarray:
    """params / tau2 + weight_decay * params, formed in ``ws.prior``. A zero
    weight decay adds nothing: 0 * params is a signed zero for finite
    parameters, and non-finite ones already make params / tau2 non-finite."""
    total = np.divide(params, gibbs.tau2, out=ws.prior)
    if weight_decay:
        if ws.decay is None:
            ws.decay = np.empty_like(total)
        total += np.multiply(weight_decay, params, out=ws.decay)
    return total


def objective_gradient(arch, params, loss, gibbs, rows, n_scale, ws, weight_decay=0.0):
    """Gradient of the MAP objective restricted to ``rows``, formed in ``ws``.

    ``n_scale`` rescales the data term to a target sample size (minibatch
    steps pass the training-set size). A non-finite loss on ``rows`` or a
    non-finite gradient raises ``FloatingPointError``. The returned array is
    the ``GradientWorkspace``'s ``ws.grad``, which the next call overwrites.
    """
    x = loss.x[rows]
    m = x.shape[0]
    if m == 0:
        raise ValueError("rows must be nonempty")
    out = nnet.forward(arch, params, x, ws)
    if not np.isfinite(loss.values(out, rows)).all():
        raise FloatingPointError("non-finite training loss; reduce the step size")
    grad = nnet.backward(arch, params, x, loss.output_grad(out, rows), ws)
    grad *= gibbs.eta * (n_scale / m)
    grad += _prior_grad(params, gibbs, weight_decay, ws)
    if not np.isfinite(grad).all():
        raise FloatingPointError("non-finite objective gradient; reduce the step size")
    return grad


def map_train(
    arch: nnet.MlpArchitecture,
    loss,
    gibbs: GibbsConfig,
    cfg: TrainConfig,
    train_rows: np.ndarray,
    val_rows: np.ndarray,
) -> np.ndarray:
    """Minimize the MAP objective by minibatch Adam with early stopping.

    Optimization targets the full MAP objective; early stopping tracks the
    mean per-sample loss on ``val_rows`` (the prior stays out of the stopping
    criterion so that snapshot selection follows predictive fit). Snapshots
    are taken whenever the validation loss improves and the best one is
    returned; the initial parameters count as a candidate, so the returned
    validation loss can never exceed the initial one. Deterministic given
    ``cfg.seed``.

    A fit holds six parameter-sized vectors: the parameters, the best
    snapshot (copied into, never reallocated), Adam's two moments, and the
    workspace's gradient and prior buffer, which double as Adam's scratch. A
    nonzero ``cfg.weight_decay`` adds a seventh, the workspace's decay buffer.
    """
    train_rows = np.asarray(train_rows, dtype=np.intp)
    val_rows = np.asarray(val_rows, dtype=np.intp)
    if train_rows.size == 0 or val_rows.size == 0:
        raise ValueError("train and validation sets must be nonempty")
    rng = np.random.default_rng(cfg.seed)
    params = nnet.init_params(arch, rng)
    n_train = train_rows.size
    ws = GradientWorkspace(arch, min(cfg.batch_size, n_train))

    def val_objective(w):
        # streamed through the training workspace; the per-row losses are averaged once
        out = nnet.forward(arch, w, loss.x, ws, val_rows)
        return float(loss.values(out, val_rows).mean())

    best_params = params.copy()  # snapshots are copied into it
    best_val = val_objective(params)
    since_best = 0

    # Adam state; a step updates it in place, in textbook operation order, via
    # scratch s1 = ws.prior, which objective_gradient is done with by then, and
    # the gradient itself once v is updated
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    s1 = ws.prior
    t = 0
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    for _ in range(cfg.max_epochs):
        order = rng.permutation(n_train)
        for start in range(0, n_train, cfg.batch_size):
            rows = train_rows[order[start : start + cfg.batch_size]]
            grad = objective_gradient(arch, params, loss, gibbs, rows, n_train, ws, cfg.weight_decay)
            t += 1
            m *= beta1
            m += np.multiply(1.0 - beta1, grad, out=s1)
            v *= beta2
            v += np.multiply(1.0 - beta2, np.square(grad, out=s1), out=s1)
            np.divide(m, 1.0 - beta1**t, out=s1)  # m_hat
            s1 *= cfg.learning_rate
            np.sqrt(np.divide(v, 1.0 - beta2**t, out=grad), out=grad)  # sqrt(v_hat)
            grad += eps
            params -= np.divide(s1, grad, out=s1)
        cur = val_objective(params)
        if cur < best_val:
            best_val = cur
            np.copyto(best_params, params)
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
        if not self.step_size > 0:
            raise ValueError("step_size must be positive")
        if self.burn_in < 0 or self.n_draws < 1 or self.thin < 1 or self.batch_size < 1:
            raise ValueError("burn_in >= 0 and n_draws, thin, batch_size >= 1 required")
        if not self.clip_norm > 0:
            raise ValueError("clip_norm must be positive")


@dataclass(frozen=True)
class PosteriorDraws:
    """Ordered parameter draws sharing one architecture."""

    arch: nnet.MlpArchitecture
    draws: np.ndarray  # (S, param_count)

    def __post_init__(self):
        if self.draws.ndim != 2 or self.draws.shape[0] < 1:
            raise ValueError("draw matrix must be (S, P) with S >= 1")
        if self.draws.shape[1] != self.arch.param_count:
            raise ValueError("draw width does not match the architecture")


def sgld_sample(
    arch: nnet.MlpArchitecture,
    loss,
    gibbs: GibbsConfig,
    init: np.ndarray,
    sgld: SgldConfig,
    rows: np.ndarray | None = None,
    summary=None,
) -> PosteriorDraws | np.ndarray:
    """Constant-step SGLD on the MAP objective.

    Each iteration takes half a gradient step on the full-sample-scaled
    objective (gradient clipped at ``clip_norm`` in global norm) and injects
    N(0, step) noise. The first ``burn_in`` iterates are discarded, then every
    ``thin``-th iterate is recorded until ``n_draws`` draws are collected: as
    ``PosteriorDraws``, or as the (n_draws, m) matrix of ``summary(w)`` rows if a
    ``summary`` is given (it must not keep or modify w).
    """
    rng = np.random.default_rng(sgld.seed)
    rows = np.arange(loss.n, dtype=np.intp) if rows is None else np.asarray(rows, dtype=np.intp)
    n = rows.size
    b = min(sgld.batch_size, n)
    w = np.array(init, dtype=np.float64)
    ws = GradientWorkspace(arch, b)
    noise = ws.prior  # free between objective_gradient calls

    kept = None  # (n_draws, P) or (n_draws, m), sized by the first recorded row
    total = sgld.burn_in + sgld.n_draws * sgld.thin
    for t in range(1, total + 1):
        batch = rows[rng.choice(n, size=b, replace=False)]
        grad = objective_gradient(arch, w, loss, gibbs, batch, n, ws)
        norm = float(np.sqrt(grad @ grad))
        if norm > sgld.clip_norm:
            grad *= sgld.clip_norm / norm
        # in place, in the operation order of w - (0.5 * step) * grad + sqrt(step) * noise
        grad *= 0.5 * sgld.step_size
        w -= grad
        rng.standard_normal(out=noise)
        noise *= np.sqrt(sgld.step_size)
        w += noise
        if not np.all(np.isfinite(w)):
            raise FloatingPointError("non-finite parameter during sampling")
        if t > sgld.burn_in and (t - sgld.burn_in) % sgld.thin == 0:
            row = w if summary is None else summary(w)
            if kept is None:
                kept = np.empty((sgld.n_draws, row.size))
            kept[(t - sgld.burn_in) // sgld.thin - 1] = row
    return PosteriorDraws(arch, kept) if summary is None else kept
