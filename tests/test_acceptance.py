"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines. Every tolerance is pinned here; nothing is deferred to later
calibration. The benchmark criteria (9 and 10) run the full experiment
harness and take a few minutes.
"""

import numpy as np
import pytest

from conftest import analytic_grad, finite_diff_grad, max_rel_error, total_loss
from gbpl import nnet
from gbpl import surrogate as sg
from gbpl.counterfactual import (
    LoggedDataset,
    dr_pseudo_outcomes,
    ipw_pseudo_outcomes,
    ipw_welfare_equivalence_check,
)
from gbpl.dgp import DgpSpec, generate_full_feedback
from gbpl.evaluation import (
    PacBayesInputs,
    pac_bayes_bound,
    pac_bayes_lambda_star,
    pac_bayes_two_sided,
)
from gbpl.experiment import parse_config, run_experiment, split_rows
from gbpl.losses import (
    FullVectorSurrogateLoss,
    MaskedRegressionLoss,
    NegativeWelfareLoss,
    WeightedLogisticLoss,
)
from gbpl.posterior import (
    GibbsConfig,
    SgldConfig,
    TrainConfig,
    finite_gibbs_posterior,
    map_train,
    sgld_sample,
    variational_objective,
)


def _report(num, desc, ok, detail=""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {desc}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _simplex_rows(rng, n, k):
    g = rng.gamma(1.0, 1.0, size=(n, k))
    return g / g.sum(axis=1, keepdims=True)


def test_criterion_01_binary_equivalence_threshold_grid():
    spec = DgpSpec(family="binary2", n=100, seed=42)
    data, _ = generate_full_feedback(spec)
    grid = [(data.x[:, 0] > t).astype(float) for t in np.linspace(-2.0, 2.0, 41)]
    ok = True
    worst = 0.0
    for zeta in (0.01, 0.1, 1.0):
        report = sg.verify_equivalence_binary(data, grid, zeta)
        ok = ok and report.equal and report.slope == -2.0 and report.max_affine_error < 1e-10
        worst = max(worst, report.max_affine_error)
    _report(1, "binary surrogate argmin = penalized welfare argmax on 41 threshold policies",
            ok, f"max affine error {worst:.2e}")


def test_criterion_02_fullvector_and_ipw_equivalence():
    rng = np.random.default_rng(7)
    n, k = 100, 3
    data = sg.FullFeedbackDataset(rng.standard_normal((n, 2)), rng.standard_normal((n, k)))
    grid = [_simplex_rows(rng, n, k) for _ in range(20)]
    rep_full = sg.verify_equivalence_fullvector(data, grid, 0.5)

    e = _simplex_rows(rng, n, k) * 0.7 + 0.3 / k
    e /= e.sum(axis=1, keepdims=True)
    cols = (rng.random(n)[:, None] > np.cumsum(e, axis=1)).sum(axis=1)
    y = rng.standard_normal((n, k))
    logged = LoggedDataset(
        rng.standard_normal((n, 2)), cols + 1, y[np.arange(n), cols], k=k, true_propensity=e
    )
    rep_ipw = ipw_welfare_equivalence_check(logged, grid, 0.5)

    ok = (
        rep_full.equal
        and rep_ipw.equal
        and rep_full.max_affine_error < 1e-10
        and rep_ipw.max_affine_error < 1e-10
    )
    _report(2, "full-vector and IPW pseudo-outcome equivalences on 20 random policies",
            ok, f"errors {rep_full.max_affine_error:.2e} / {rep_ipw.max_affine_error:.2e}")


def test_criterion_03_gibbs_variational_optimality():
    rng = np.random.default_rng(11)
    prior = rng.dirichlet(np.ones(5))
    losses = rng.uniform(0.0, 3.0, size=5)
    eta = 1.3
    gibbs = finite_gibbs_posterior(prior, losses, eta)
    j_star = variational_objective(gibbs, prior, losses, eta)
    qs = np.vstack([rng.dirichlet(np.ones(5), size=10_000), np.eye(5)])  # plus all vertices
    # J(q) vectorized: eta <q, losses> + sum q log(q / prior), 0 log 0 = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        logterm = np.where(qs > 0, qs * np.log(qs / prior), 0.0)
    j_all = eta * qs @ losses + logterm.sum(axis=1)
    never_below = bool(np.all(j_all >= j_star - 1e-12))
    close_only_at_gibbs = bool(
        np.all((j_all - j_star > 0) | (np.abs(qs - gibbs).max(axis=1) < 1e-9))
    )
    _report(3, "Gibbs weights uniquely minimize the variational objective over 10000 random Q",
            never_below and close_only_at_gibbs,
            f"min excess {float((j_all - j_star).min()):.2e}")


def test_criterion_04_decomposition_and_welfare_identities():
    rng = np.random.default_rng(13)
    m = 10_000

    zeta = rng.uniform(0.01, 10.0, size=m)
    u = rng.standard_normal(m) * 3.0
    f = rng.uniform(-1.0, 1.0, size=m)
    const, lin, quad = sg.binary_loss_decomposition(zeta, u, f)
    err_dec = float(np.abs((const + lin + quad) - sg.binary_loss(zeta, u, f)).max())

    # binary identity and sandwich on 10000 vectorized instances, n=4 each
    n = 4
    y = rng.standard_normal((m, n, 2)) * 2.0
    z2 = rng.uniform(0.02, 5.0, size=(m, 1))
    p1 = rng.uniform(0.0, 1.0, size=(m, n))
    p2 = rng.uniform(0.0, 1.0, size=(m, n))
    uu = y[:, :, 0] - y[:, :, 1]

    def welfare(p):
        return (p * y[:, :, 0] + (1.0 - p) * y[:, :, 1]).mean(axis=1)

    def risk(p):
        fz = 2.0 * p - 1.0
        return (0.5 * (uu / np.sqrt(z2) - np.sqrt(z2) * fz) ** 2).mean(axis=1)

    lam = z2[:, 0] / 4.0
    w1 = welfare(p1) - lam * ((2 * p1 - 1) ** 2).mean(axis=1)
    w2 = welfare(p2) - lam * ((2 * p2 - 1) ** 2).mean(axis=1)
    err_cor2 = float(np.abs((w1 - w2) - 0.5 * (risk(p2) - risk(p1))).max())
    v1 = welfare(p1)
    sandwich_ok = bool(np.all(w1 <= v1 + 1e-12) and np.all(v1 <= w1 + lam + 1e-12))

    # full-vector identity, K=3
    k = 3
    yk = rng.standard_normal((m, n, k)) * 2.0
    g1 = rng.gamma(1.0, 1.0, size=(m, n, k))
    d1 = g1 / g1.sum(axis=2, keepdims=True)
    g2 = rng.gamma(1.0, 1.0, size=(m, n, k))
    d2 = g2 / g2.sum(axis=2, keepdims=True)
    zk = rng.uniform(0.02, 5.0, size=(m, 1, 1))

    def welfare_k(d):
        return (d * yk).sum(axis=2).mean(axis=1)

    def risk_k(d):
        return (0.5 * ((yk / np.sqrt(zk) - np.sqrt(zk) * d) ** 2).sum(axis=2)).mean(axis=1)

    lam_k = zk[:, 0, 0] / 2.0
    wk1 = welfare_k(d1) - lam_k * (d1**2).sum(axis=2).mean(axis=1)
    wk2 = welfare_k(d2) - lam_k * (d2**2).sum(axis=2).mean(axis=1)
    err_cor4 = float(np.abs((wk1 - wk2) - (risk_k(d2) - risk_k(d1))).max())

    ok = err_dec < 1e-12 and err_cor2 < 1e-10 and sandwich_ok and err_cor4 < 1e-10
    _report(4, "loss decomposition and welfare-risk identities on 10000 instances each",
            ok, f"errors {err_dec:.1e} / {err_cor2:.1e} / {err_cor4:.1e}")


def test_criterion_05_gradients_match_finite_differences():
    rng = np.random.default_rng(17)
    n, d, k = 48, 5, 4
    x = rng.standard_normal((n, d))
    cases = [
        ("binary surrogate", nnet.MlpArchitecture(d, (16,), 1, nnet.HEAD_TANH),
         FullVectorSurrogateLoss(x, rng.standard_normal(n), 0.3)),
        ("full-vector", nnet.MlpArchitecture(d, (16,), k, nnet.HEAD_SOFTMAX),
         FullVectorSurrogateLoss(x, rng.standard_normal((n, k)), 1.7)),
        ("masked regression", nnet.MlpArchitecture(d, (16,), k, nnet.HEAD_IDENTITY),
         MaskedRegressionLoss(x, rng.standard_normal(n), rng.integers(0, k, size=n))),
        ("weighted logistic", nnet.MlpArchitecture(d, (16,), 1, nnet.HEAD_IDENTITY),
         WeightedLogisticLoss(x, (rng.random(n) > 0.5).astype(float),
                              rng.uniform(0, 2, size=n))),
        ("negative welfare", nnet.MlpArchitecture(d, (16,), k, nnet.HEAD_SOFTMAX),
         NegativeWelfareLoss(x, rng.standard_normal((n, k)))),
    ]
    worst = 0.0
    details = []
    for name, arch, adapter in cases:
        params = nnet.init_params(arch, rng) + 0.05 * rng.standard_normal(arch.param_count)
        coords = rng.choice(arch.param_count, size=50, replace=False)
        exact = analytic_grad(arch, params, adapter)[coords]
        approx = finite_diff_grad(lambda w: total_loss(arch, w, adapter), params, coords, h=1e-5)
        floor = max(1e-6, 1e-6 * abs(total_loss(arch, params, adapter)))
        err = max_rel_error(exact, approx, floor=floor)
        worst = max(worst, err)
        details.append(f"{name} {err:.1e}")
    _report(5, "every loss adapter's gradient matches central finite differences",
            worst < 1e-5, "; ".join(details))


def test_criterion_06_pseudo_outcome_conditional_means():
    rng = np.random.default_rng(19)
    k, n = 3, 200_000
    points = rng.standard_normal((5, 2))

    def gamma_of(x0):
        return np.array([np.sin(x0[0]), 0.5 * x0[1], x0[0] * x0[1] * 0.3 + 1.0])

    def e_of(x0):
        logits = np.array([0.3 * x0[0], -0.2 * x0[1], 0.1])
        p = np.exp(logits - logits.max())
        p = p / p.sum()
        return 0.8 * p + 0.2 / k  # bounded away from 0

    ok = True
    worst_z = 0.0
    for x0 in points:
        gamma = gamma_of(x0)
        e = e_of(x0)
        cols = (rng.random(n)[:, None] > np.cumsum(e)[None, :]).sum(axis=1)
        y = gamma[cols] + rng.standard_normal(n)
        logged = LoggedDataset(np.zeros((n, 1)), cols + 1, y, k=k)
        e_mat = np.tile(e, (n, 1))
        wrong_gamma = np.tile(gamma + np.array([2.0, -3.0, 1.5]), (n, 1))
        wrong_e = np.tile(e[::-1].copy(), (n, 1))
        branches = [
            ipw_pseudo_outcomes(logged, e_mat),
            dr_pseudo_outcomes(logged, e_mat, wrong_gamma),
            dr_pseudo_outcomes(logged, wrong_e, np.tile(gamma, (n, 1))),
        ]
        for tilde in branches:
            se = tilde.std(axis=0, ddof=1) / np.sqrt(n)
            z = np.abs(tilde.mean(axis=0) - gamma) / se
            worst_z = max(worst_z, float(z.max()))
            ok = ok and bool(np.all(z < 3.0))
    _report(6, "IPW/DR conditional means hit the outcome regression at 5 fixed points",
            ok, f"worst |z| {worst_z:.2f} (limit 3)")


def test_criterion_07_map_fit_tracks_population_score():
    spec = DgpSpec(family="onedimviz", n=1500, seed=0)
    full, _ = generate_full_feedback(spec)
    train_rows, val_rows, _ = split_rows(full.n, (0.6, 0.2, 0.2), [0, 0x5917])
    gibbs = GibbsConfig(zeta=1.0, eta=1.0, tau2=1.0)
    arch = nnet.MlpArchitecture(1, (64, 64), 1, nnet.HEAD_TANH)
    loss = FullVectorSurrogateLoss(full.x, full.outcome_diff(), 1.0)
    cfg = TrainConfig(learning_rate=1e-3, batch_size=128, max_epochs=60, patience=10,
                      seed=0, weight_decay=1e-4)
    params = map_train(arch, loss, gibbs, cfg, train_rows, val_rows)
    grid = np.linspace(-2.5, 2.5, 200)
    f = nnet.forward(arch, params, grid[:, None])[:, 0]
    target = np.clip(1.2 * np.sin(grid), -1.0, 1.0)
    mse = float(np.mean((f - target) ** 2))
    _report(7, "1-D MAP score tracks the clipped population target on a 200-point grid",
            mse < 0.05, f"MSE {mse:.4f} (limit 0.05)")


def test_criterion_08_sgld_conjugate_gaussian():
    rng = np.random.default_rng(8)
    n, tau2, eta = 50, 1.0, 1.0
    y = 1.0 + rng.standard_normal(n)
    arch = nnet.MlpArchitecture(1, (), 1, nnet.HEAD_IDENTITY)
    loss = MaskedRegressionLoss(np.zeros((n, 1)), y, np.zeros(n, dtype=np.intp))
    gibbs = GibbsConfig(zeta=1.0, eta=eta, tau2=tau2)
    precision = eta * n + 1.0 / tau2
    mean = eta * y.sum() / precision
    sgld = SgldConfig(step_size=0.01, burn_in=300, n_draws=300, thin=10,
                      batch_size=n, seed=9, clip_norm=1e6)
    draws = sgld_sample(arch, loss, gibbs, np.array([0.0, mean]), sgld)
    b = draws[:, 1]
    se = (1.0 / np.sqrt(precision)) / np.sqrt(sgld.n_draws)
    dev = abs(float(b.mean()) - mean)
    _report(8, "SGLD sample mean matches the conjugate Gaussian posterior mean",
            dev < 3.0 * se, f"|dev| {dev:.4f} < 3 se {3 * se:.4f}")


def test_criterion_09_binary_benchmark_ordering(tmp_path):
    raw = {
        "dgp": {"family": "binary2", "n": 2000},
        "methods": [
            {"name": "GBPLNet (zeta=0.1)", "kind": "gbpl", "zeta": 0.1},
            {"name": "WeightedLogistic", "kind": "weighted_logistic"},
            {"name": "DiffReg", "kind": "diff_reg"},
        ],
        "trials": 20,
        "base_seed": 0,
        "train": {"learning_rate": 1e-3, "batch_size": 128, "max_epochs": 300, "patience": 30},
        "output_dir": str(tmp_path / "bench_binary"),
    }
    out = run_experiment(parse_config(raw))
    means = {}
    for line in (out / "aggregate.csv").read_text().strip().splitlines()[1:]:
        parts = line.split(",")
        means[parts[0]] = float(parts[1])
    gap_wl = means["GBPLNet (zeta=0.1)"] - means["WeightedLogistic"]
    gap_dr = means["GBPLNet (zeta=0.1)"] - means["DiffReg"]
    ok = gap_wl >= 0.02 and gap_dr >= 0.01
    _report(9, "binary benchmark: surrogate beats WeightedLogistic by 0.02 and DiffReg by 0.01",
            ok, f"gap vs WL {gap_wl:+.4f} (need +0.02), vs DiffReg {gap_dr:+.4f} (need +0.01)")


def test_criterion_10_multiaction_scale_sensitivity(tmp_path):
    raw = {
        "dgp": {"family": "multi3", "n": 2000, "k": 5},
        "methods": [
            {"name": "GBPL-full (zeta=0.01)", "kind": "gbpl", "zeta": 0.01},
            {"name": "GBPL-full (zeta=1.0)", "kind": "gbpl", "zeta": 1.0},
        ],
        "trials": 10,
        "base_seed": 0,
        "train": {"learning_rate": 1e-3, "batch_size": 128, "max_epochs": 300, "patience": 30},
        "output_dir": str(tmp_path / "bench_multi"),
    }
    out = run_experiment(parse_config(raw))
    means = {}
    for line in (out / "aggregate.csv").read_text().strip().splitlines()[1:]:
        parts = line.split(",")
        means[parts[0]] = float(parts[1])
    gap = means["GBPL-full (zeta=0.01)"] - means["GBPL-full (zeta=1.0)"]
    _report(10, "K=5 benchmark: small scale beats scale 1.0 by at least 0.04",
            gap >= 0.04, f"gap {gap:+.4f} (need +0.04)")


def test_criterion_11_pac_bayes_arithmetic():
    a = PacBayesInputs(empirical_risk_mean=0.0, kl=0.0, n=100, delta=1.0, v=1.0, b=1.0, lam=0.1)
    b = PacBayesInputs(
        empirical_risk_mean=0.5, kl=float(np.log(2.0)), n=1000, delta=0.05, v=2.0, b=1.0, lam=0.01
    )
    exact_a = abs(pac_bayes_bound(a) - 0.05)
    expected_b = 0.5 + (np.log(2.0) + np.log(20.0)) / 10.0 + 0.01
    exact_b = abs(pac_bayes_bound(b) - expected_b)
    two_sided_ok = pac_bayes_two_sided(b) >= pac_bayes_bound(b) - b.empirical_risk_mean

    rng = np.random.default_rng(23)
    dominance = True
    for _ in range(20):
        inputs = PacBayesInputs(
            empirical_risk_mean=0.0,
            kl=float(rng.uniform(0.0, 5.0)),
            n=int(rng.integers(10, 5000)),
            delta=float(rng.uniform(0.01, 0.9)),
            v=float(rng.uniform(0.1, 4.0)),
            b=float(rng.uniform(0.2, 3.0)),
            lam=0.01,
        )
        from dataclasses import replace

        star = pac_bayes_lambda_star(inputs)
        at_star = pac_bayes_bound(replace(inputs, lam=star))
        lam = float(rng.uniform(1e-9, (1 - 1e-9) / inputs.b))
        dominance = dominance and at_star <= pac_bayes_bound(replace(inputs, lam=lam)) + 1e-12
    ok = exact_a < 1e-12 and exact_b < 1e-12 and dominance and two_sided_ok
    _report(11, "PAC-Bayes hand examples exact to 1e-12 and optimal scale dominates",
            ok, f"errors {exact_a:.1e} / {exact_b:.1e}")


def test_criterion_12_experiment_determinism(tmp_path):
    raw = {
        "dgp": {"family": "binary2", "n": 200, "d": 4},
        "methods": [
            {"name": "GBPLNet (zeta=0.1)", "kind": "gbpl", "zeta": 0.1},
            {"name": "DiffReg", "kind": "diff_reg"},
        ],
        "trials": 2,
        "base_seed": 3,
        "train": {"learning_rate": 1e-2, "batch_size": 64, "max_epochs": 5, "patience": 3},
        "hidden": [8],
        "output_dir": str(tmp_path / "det"),
    }
    out = run_experiment(parse_config(raw))
    names = ("trials.csv", "aggregate.csv", "welfare_lists.csv")
    first = {name: (out / name).read_bytes() for name in names}
    run_experiment(parse_config(raw))
    identical = all((out / name).read_bytes() == first[name] for name in names)
    _report(12, "rerunning an experiment config reproduces byte-identical CSV outputs", identical)
