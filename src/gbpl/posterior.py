"""Generalized (Gibbs) posterior machinery.

``GibbsConfig`` fixes one posterior by its surrogate scale, temperature and
prior variance. Exact posteriors on finite parameter sets, the variational
objective they uniquely minimize, MAP training of the MLP under a Gaussian
prior by Adam, and constant-step SGLD sampling. Welfare credible intervals
over per-draw welfare live in ``evaluation`` (``welfare_credible_interval``).

The MAP objective throughout is

    eta * sum_i loss_i(w) + ||w||^2 / (2 * tau2)

with minibatch gradients rescaled by n_train / batch so every step targets the
full-sample objective; ``objective_gradient`` forms that gradient for Adam and
SGLD alike in an ``nnet.Workspace``, whose ``scratch`` each step then reuses.
A run uses one Python thread, and ``nnet`` keeps the matrix products of nets
up to about 350 wide on one BLAS thread too; runs are deterministic given
their seeds, whatever the BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gbpl import nnet
from gbpl.surrogate import check_positive


@dataclass(frozen=True)
class GibbsConfig:
    """Everything that pins down one generalized posterior.

    ``zeta`` scales the surrogate, ``eta`` is the temperature multiplying the
    total loss, and ``tau2`` the variance of the isotropic Gaussian prior over
    network weights. The surrogate family follows from the outcome table's
    width, and the fitted net's head records it.
    """

    zeta: float
    eta: float = 1.0
    tau2: float = 1.0

    def __post_init__(self):
        for name in ("zeta", "eta", "tau2"):
            check_positive(name, getattr(self, name))


# maximum likelihood: a prior this wide leaves the data term alone
FLAT_PRIOR = GibbsConfig(zeta=1.0, eta=1.0, tau2=1e8)

# numpy's ufunc buffer, in elements, while ``map_train`` runs (numpy's default
# is 8,192)
_UFUNC_BUFFER = 1024


# ---------------------------------------------------------------------------
# finite parameter sets


def _check_finite_set(prior, losses, eta: float) -> tuple[np.ndarray, np.ndarray]:
    """``prior`` and ``losses`` as float vectors of one length; raise unless
    each is 1-D, they match, no loss is NaN or -inf and eta lies in [0, inf).
    A +inf loss is legal: its point gets zero posterior weight."""
    prior = np.asarray(prior, dtype=np.float64)
    losses = np.asarray(losses, dtype=np.float64)
    if prior.ndim != 1:
        raise ValueError(f"prior must be a 1-D vector, got shape {prior.shape}")
    if losses.shape != prior.shape:
        raise ValueError(f"losses must have the prior's shape {prior.shape}, got {losses.shape}")
    if not (losses > -np.inf).all():  # NaN fails too
        raise ValueError("losses must not be NaN or -inf")
    if not 0 <= eta < np.inf:
        raise ValueError(f"eta must be nonnegative and finite, got {eta!r}")
    return prior, losses


def finite_gibbs_posterior(prior: np.ndarray, losses: np.ndarray, eta: float) -> np.ndarray:
    """Reweight a strictly positive prior by exp(-eta * loss), normalized.

    Computed in log space with max subtraction, so no configuration of finite
    losses can underflow the whole vector. A point with loss +inf gets weight
    zero unless eta = 0, which returns the prior; with eta > 0 at least one
    loss must be finite.
    """
    prior, losses = _check_finite_set(prior, losses, eta)
    if not (np.all(prior > 0) and abs(prior.sum() - 1.0) <= 1e-12):  # NaN fails too
        raise ValueError("prior must be strictly positive and sum to 1")
    logw = np.log(prior)
    if eta > 0:
        if not (losses < np.inf).any():
            raise ValueError("losses must have a finite entry")
        logw -= eta * losses
    logw -= logw.max()
    w = np.exp(logw)
    return w / w.sum()


def variational_objective(q: np.ndarray, prior: np.ndarray, losses: np.ndarray, eta: float) -> float:
    """eta * E_q[loss] + KL(q || prior), with 0 log 0 and 0 * inf taken as 0.

    Raises when q places mass where the prior has none (infinite KL). A +inf
    loss where q has mass makes the objective +inf unless eta = 0.
    """
    prior, losses = _check_finite_set(prior, losses, eta)
    q = np.asarray(q, dtype=np.float64)
    if q.shape != prior.shape:
        raise ValueError(f"q must have the prior's shape {prior.shape}, got {q.shape}")
    for name, p in (("prior", prior), ("q", q)):
        if not (np.all(p >= 0) and abs(p.sum() - 1.0) <= 1e-9):  # NaN fails too
            raise ValueError(f"{name} must be a probability vector")
    if np.any((q > 0) & (prior == 0)):
        raise ValueError("q is not absolutely continuous w.r.t. the prior (infinite KL)")
    pos = q > 0
    kl = float(np.sum(q[pos] * np.log(q[pos] / prior[pos])))
    return float((eta * q[pos] @ losses[pos] if eta > 0 else 0.0) + kl)


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
        check_positive("learning_rate", self.learning_rate)
        for name in ("batch_size", "max_epochs", "patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)!r}")
        if not 0 <= self.weight_decay < np.inf:
            raise ValueError(f"weight_decay must be nonnegative and finite, got "
                             f"{self.weight_decay!r}")


def objective_gradient(arch, params, loss, gibbs, rows, n_scale, ws, weight_decay=0.0):
    """Gradient of the MAP objective restricted to ``rows``, formed in ``ws``.

    ``n_scale`` rescales the data term to a target sample size (minibatch
    steps pass the training-set size). A non-finite loss on ``rows`` or a
    non-finite gradient raises ``FloatingPointError``. The returned array is
    ``ws.grad``, which the next call overwrites. The prior gradient is formed
    in ``ws.scratch`` after ``nnet.backward``, and the caller may then reuse it.
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
    prior = np.divide(params, gibbs.tau2, out=ws.scratch)
    # a zero weight decay adds nothing: 0 * params is a signed zero for finite
    # parameters, and non-finite ones already make params / tau2 non-finite
    if weight_decay:
        prior += weight_decay * params
    grad += prior
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
    workspace's ``grad`` and ``scratch``, which double as Adam's scratch. A
    nonzero ``cfg.weight_decay`` adds a seventh while its term is formed.
    Beside them it holds the workspace's activations and one block of
    per-step arrays: the validation loss is computed a workspace block at a
    time into one (n_val,) vector. The loop runs under a numpy ufunc buffer
    of ``_UFUNC_BUFFER`` elements, restored on return or raise, so the bias
    broadcasts, the ReLU masks' casts and the rank-one products that numpy
    buffers copy through 8 KiB rather than 64 KiB; the bits are the same.
    """
    train_rows = np.asarray(train_rows, dtype=np.intp)
    val_rows = np.asarray(val_rows, dtype=np.intp)
    if train_rows.size == 0 or val_rows.size == 0:
        raise ValueError("train and validation sets must be nonempty")
    rng = np.random.default_rng(cfg.seed)
    params = nnet.init_params(arch, rng)
    n_train = train_rows.size
    ws = nnet.Workspace(arch, min(cfg.batch_size, n_train))

    val_losses = np.empty(val_rows.size)

    def val_objective(w):
        # one workspace block at a time, the blocks ``nnet.forward`` would make;
        # the per-row losses are averaged once
        for lo, start, stop in nnet._blocks(val_rows.size, ws.rows):
            block = val_rows[lo:stop]
            out = nnet.forward(arch, w, loss.x, ws, block)
            val_losses[start:stop] = loss.values(out, block)[start - lo:]
        return float(val_losses.mean())

    # Adam state, updated in place in textbook operation order via the scratch
    # s1 = ws.scratch and, once v is updated, the gradient itself
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    t = 0
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    old_bufsize = np.setbufsize(_UFUNC_BUFFER)
    try:
        best_params = params.copy()  # snapshots are copied into it
        best_val = val_objective(params)
        since_best = 0
        for _ in range(cfg.max_epochs):
            order = rng.permutation(n_train)
            for start in range(0, n_train, cfg.batch_size):
                rows = train_rows[order[start : start + cfg.batch_size]]
                grad = objective_gradient(arch, params, loss, gibbs, rows, n_train, ws,
                                          cfg.weight_decay)
                s1 = ws.scratch
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
    finally:  # numpy < 2 has no context that would scope the buffer size
        np.setbufsize(old_bufsize)
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
        check_positive("step_size", self.step_size)
        check_positive("clip_norm", self.clip_norm)
        if self.burn_in < 0:
            raise ValueError(f"burn_in must be at least 0, got {self.burn_in!r}")
        for name in ("n_draws", "thin", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)!r}")


def sgld_sample(
    arch: nnet.MlpArchitecture,
    loss,
    gibbs: GibbsConfig,
    init: np.ndarray,
    sgld: SgldConfig,
    rows: np.ndarray | None = None,
    summary=None,
) -> np.ndarray:
    """Constant-step SGLD on the MAP objective, as an (n_draws, m) matrix.

    Each iteration takes half a gradient step on the full-sample-scaled
    objective (gradient clipped at ``clip_norm`` in global norm) and injects
    N(0, step) noise. The first ``burn_in`` iterates are discarded, then every
    ``thin``-th iterate w is recorded until ``n_draws`` draws are collected.
    Row s of the result is ``summary(w)`` of draw s if a ``summary`` is given
    (it must not keep or modify w), else w itself (m = ``arch.param_count``).
    The noise is drawn into the workspace's ``scratch`` once each step's
    gradient is formed. There is no weight decay: from a MAP fitted with one
    (as in ``run_posterior_viz``), the chain still targets prior precision 1/tau2.
    """
    rng = np.random.default_rng(sgld.seed)
    rows = np.arange(loss.n, dtype=np.intp) if rows is None else np.asarray(rows, dtype=np.intp)
    n = rows.size
    b = min(sgld.batch_size, n)
    w = nnet.aligned_empty(np.shape(init))
    w[...] = init
    ws = nnet.Workspace(arch, b)

    kept = None  # (n_draws, m), sized by the first recorded row
    total = sgld.burn_in + sgld.n_draws * sgld.thin
    for t in range(1, total + 1):
        batch = rows[rng.choice(n, size=b, replace=False)]
        grad = objective_gradient(arch, w, loss, gibbs, batch, n, ws)
        norm = float(np.sqrt(grad @ grad))
        if norm == np.inf:  # grad @ grad overflowed; grad / max|grad| has a finite norm
            grad /= np.abs(grad).max()
            grad *= sgld.clip_norm / float(np.sqrt(grad @ grad))
        elif norm > sgld.clip_norm:
            grad *= sgld.clip_norm / norm
        # in place, in the operation order of w - (0.5 * step) * grad + sqrt(step) * noise
        grad *= 0.5 * sgld.step_size
        w -= grad
        noise = rng.standard_normal(out=ws.scratch)  # free until the next objective_gradient
        noise *= np.sqrt(sgld.step_size)
        w += noise
        if not np.all(np.isfinite(w)):
            raise FloatingPointError("non-finite parameter during sampling")
        if t > sgld.burn_in and (t - sgld.burn_in) % sgld.thin == 0:
            row = w if summary is None else summary(w)
            if kept is None:
                kept = np.empty((sgld.n_draws, row.size))
            kept[(t - sgld.burn_in) // sgld.thin - 1] = row
    return kept
