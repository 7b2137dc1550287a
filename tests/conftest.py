import tracemalloc
from dataclasses import dataclass

import numpy as np

from gbpl import nnet
from gbpl.losses import BatchLoss


def peak_bytes(call) -> int:
    """Peak memory, in bytes, that tracemalloc traces while ``call()`` runs:
    Python objects and numpy buffers."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def total_loss(arch, params, adapter, rows=None):
    x = adapter.x if rows is None else adapter.x[rows]
    out = nnet.forward(arch, params, x)
    return float(adapter.values(out, rows).sum())


def analytic_grad(arch, params, adapter, rows=None):
    x = adapter.x if rows is None else adapter.x[rows]
    out = nnet.forward(arch, params, x)
    return nnet.backward(arch, params, x, adapter.output_grad(out, rows))


def finite_diff_grad(fn, params, coords, h=1e-5):
    """Central finite differences of a scalar function at selected coordinates."""
    g = np.empty(len(coords))
    w = params.copy()
    for i, j in enumerate(coords):
        w[j] = params[j] + h
        up = fn(w)
        w[j] = params[j] - h
        down = fn(w)
        w[j] = params[j]
        g[i] = (up - down) / (2.0 * h)
    return g


def max_rel_error(a, b, floor=1e-6):
    a = np.asarray(a)
    b = np.asarray(b)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / scale))


def min_abs_hidden_preactivation(arch, params, x):
    """Smallest |pre-activation| over the hidden ReLU layers for a batch."""
    layers = nnet.unflatten(arch, params)
    h = np.asarray(x, dtype=np.float64)
    smallest = np.inf
    for w, b in layers[:-1]:
        z = h @ w + b
        smallest = min(smallest, float(np.abs(z).min()))
        h = np.maximum(z, 0.0)
    return smallest


def check_gradient(arch, adapter, rng, n_coords=50, h=1e-5, tol=1e-5):
    """Compare the analytic gradient of the summed adapter loss against
    central finite differences on randomly sampled coordinates.

    Configurations with a hidden pre-activation within the FD step of a ReLU
    kink are redrawn: central differences straddle the kink there and are
    biased for any implementation, while the analytic subgradient is exact
    almost everywhere.
    """
    params = nnet.init_params(arch, rng) + 0.05 * rng.standard_normal(arch.param_count)
    for _ in range(50):
        if min_abs_hidden_preactivation(arch, params, adapter.x) > 100.0 * h:
            break
        params += 0.01 * rng.standard_normal(arch.param_count)
    coords = rng.choice(arch.param_count, size=min(n_coords, arch.param_count), replace=False)
    exact = analytic_grad(arch, params, adapter)[coords]
    approx = finite_diff_grad(lambda w: total_loss(arch, w, adapter), params, coords, h)
    # central differences carry ~eps * |loss| / h of cancellation error, so
    # coordinates with gradients below that scale cannot be compared in
    # relative terms; the floor absorbs exactly that float64 limit
    floor = max(1e-6, 1e-6 * abs(total_loss(arch, params, adapter)))
    err = max_rel_error(exact, approx, floor=floor)
    assert err < tol, f"gradient mismatch: max relative error {err:.3e}"
    return err


# ---------------------------------------------------------------------------
# allocating reference implementations of the training step: every layer and
# every Adam/SGLD update builds fresh arrays, and backward recomputes the
# forward pass. The library's in-place versions must match them bit for bit.


def reference_forward(arch, params, x):
    """Post-head output and the list of layer inputs/outputs, freshly allocated."""
    layers = nnet.unflatten(arch, params)
    acts = [np.asarray(x, dtype=np.float64)]
    for li, (w, b) in enumerate(layers):
        z = acts[-1] @ w + b
        acts.append(np.maximum(z, 0.0) if li < len(layers) - 1 else z)
    if arch.head == nnet.HEAD_TANH:
        return np.tanh(acts[-1]), acts
    if arch.head == nnet.HEAD_SOFTMAX:
        e = np.exp(acts[-1] - acts[-1].max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True), acts
    return acts[-1], acts


def reference_backward(arch, params, x, g):
    out, acts = reference_forward(arch, params, x)
    if arch.head == nnet.HEAD_TANH:
        gz = g * (1.0 - out**2)
    elif arch.head == nnet.HEAD_SOFTMAX:
        gz = out * (g - (g * out).sum(axis=1, keepdims=True))
    else:
        gz = g
    layers = nnet.unflatten(arch, params)
    grads = [None] * len(layers)
    for li in range(len(layers) - 1, -1, -1):
        grads[li] = np.concatenate([(acts[li].T @ gz).ravel(), gz.sum(axis=0)])
        if li > 0:
            gz = (gz @ layers[li][0].T) * (acts[li] > 0.0)
    return np.concatenate(grads)


def reference_objective_gradient(arch, params, loss, gibbs, rows, n_scale, weight_decay=0.0):
    x = loss.x[rows]
    scale = gibbs.eta * (n_scale / x.shape[0])
    out, _ = reference_forward(arch, params, x)
    grad = reference_backward(arch, params, x, loss.output_grad(out, rows)) * scale
    return grad + (params / gibbs.tau2 + weight_decay * params)


def reference_map_objective(arch, params, loss, gibbs, rows, n_scale, weight_decay=0.0):
    """The MAP objective whose gradient ``reference_objective_gradient`` forms."""
    x = loss.x[rows]
    scale = gibbs.eta * (n_scale / x.shape[0])
    sq = float(params @ params)
    data = float(loss.values(reference_forward(arch, params, x)[0], rows).sum())
    return scale * data + sq / (2.0 * gibbs.tau2) + 0.5 * weight_decay * sq


def reference_diag_hessian(arch, params, loss, gibbs, h=1e-4):
    """Diagonal of the full-sample MAP objective's Hessian by central differences
    of ``reference_objective_gradient``: 2P gradient passes, the oracle for any
    exact curvature (a diagonal GGN or a Laplace approximation)."""
    rows = np.arange(loss.n)
    w = np.array(params, dtype=np.float64)
    diag = np.empty(w.size)
    for j in range(w.size):
        w[j] += h
        up = reference_objective_gradient(arch, w, loss, gibbs, rows, loss.n)[j]
        w[j] -= 2.0 * h
        down = reference_objective_gradient(arch, w, loss, gibbs, rows, loss.n)[j]
        w[j] += h
        diag[j] = (up - down) / (2.0 * h)
    return diag


def reference_map_train(arch, loss, gibbs, cfg, train_rows, val_rows):
    """map_train's Adam loop with early stopping, one fresh array per operation."""
    rng = np.random.default_rng(cfg.seed)
    params = nnet.init_params(arch, rng)
    n_train = train_rows.size

    def val_objective(w):
        return float(loss.values(reference_forward(arch, w, loss.x[val_rows])[0], val_rows).mean())

    best_params, best_val, since_best = params.copy(), val_objective(params), 0
    m, v, t = np.zeros_like(params), np.zeros_like(params), 0
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    for _ in range(cfg.max_epochs):
        order = rng.permutation(n_train)
        for start in range(0, n_train, cfg.batch_size):
            rows = train_rows[order[start : start + cfg.batch_size]]
            grad = reference_objective_gradient(arch, params, loss, gibbs, rows, n_train,
                                                cfg.weight_decay)
            t += 1
            m = beta1 * m + (1.0 - beta1) * grad
            v = beta2 * v + (1.0 - beta2) * grad**2
            m_hat = m / (1.0 - beta1**t)
            v_hat = v / (1.0 - beta2**t)
            params = params - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
        cur = val_objective(params)
        if cur < best_val:
            best_params, best_val, since_best = params.copy(), cur, 0
        else:
            since_best += 1
            if since_best >= cfg.patience:
                break
    return best_params


def reference_sgld_iterates(arch, loss, gibbs, init, sgld, steps):
    """The first ``steps`` SGLD iterates over all rows, one fresh array per operation."""
    rng = np.random.default_rng(sgld.seed)
    n = loss.n
    b = min(sgld.batch_size, n)
    w = np.array(init, dtype=np.float64)
    iterates = []
    for _ in range(steps):
        batch = np.arange(n)[rng.choice(n, size=b, replace=False)]
        grad = reference_objective_gradient(arch, w, loss, gibbs, batch, n)
        norm = float(np.sqrt(grad @ grad))
        if norm > sgld.clip_norm:
            grad *= sgld.clip_norm / norm
        w = w - 0.5 * sgld.step_size * grad + np.sqrt(sgld.step_size) * rng.standard_normal(w.size)
        iterates.append(w)
    return np.array(iterates)


def reference_pseudo_difference_binary(logged, e_hat, gamma_hat=None):
    """Per-row binary pseudo-outcome difference, written arm by arm: IPW is
    1[A=1] Y / e1 - 1[A=0] Y / e0; DR (with ``gamma_hat``) adds the regression
    difference to the residual corrections."""
    treated = logged.a == 1
    e1, e0 = e_hat[:, 0], e_hat[:, 1]
    if gamma_hat is None:
        return (np.where(treated, logged.y_obs / e1, 0.0)
                - np.where(~treated, logged.y_obs / e0, 0.0))
    g1, g0 = gamma_hat[:, 0], gamma_hat[:, 1]
    corr1 = np.where(treated, (logged.y_obs - g1) / e1, 0.0)
    corr0 = np.where(~treated, (logged.y_obs - g0) / e0, 0.0)
    return (g1 - g0) + corr1 - corr0


# ---------------------------------------------------------------------------
# the squared losses as they are written by hand, before any of them became a
# column sum of ``surrogate.binary_loss``: the library must match them bit for
# bit.


@dataclass(frozen=True)
class ReferenceLeastSquaresLoss(BatchLoss):
    """Least squares per row, 0.5 * sum_a (o_a - t_a)^2, with gradient o - t;
    (n,) targets meet a one-column output."""

    def _targets(self, out, rows):
        t = self.batch.targets if rows is None else self.batch.targets[rows]
        return t.reshape(out.shape)

    def values(self, out, rows=None):
        return 0.5 * ((out - self._targets(out, rows)) ** 2).sum(axis=1)

    def output_grad(self, out, rows=None):
        return out - self._targets(out, rows)
