import numpy as np
import pytest

from dataclasses import dataclass, replace

from gbpl import nnet, posterior
from gbpl.evaluation import draw_welfare, welfare_credible_interval
from gbpl.losses import BinarySurrogateLoss, MaskedRegressionLoss
from gbpl.posterior import (
    GibbsConfig,
    PosteriorDraws,
    SgldConfig,
    TrainConfig,
    diag_laplace,
    finite_gibbs_posterior,
    map_objective,
    map_train,
    sgld_sample,
    variational_objective,
)
from gbpl.surrogate import FullFeedbackDataset


class TestFiniteGibbs:
    def test_equal_losses_keep_prior(self):
        np.testing.assert_allclose(
            finite_gibbs_posterior(np.array([0.5, 0.5]), np.zeros(2), 1.0), [0.5, 0.5]
        )

    def test_log2_loss_gives_two_thirds(self):
        w = finite_gibbs_posterior(np.array([0.5, 0.5]), np.array([0.0, np.log(2.0)]), 1.0)
        np.testing.assert_allclose(w, [2.0 / 3.0, 1.0 / 3.0], rtol=0, atol=1e-15)

    def test_eta_zero_returns_prior(self):
        prior = np.array([0.1, 0.2, 0.7])
        np.testing.assert_allclose(
            finite_gibbs_posterior(prior, np.array([5.0, -3.0, 100.0]), 0.0), prior
        )

    def test_huge_losses_do_not_underflow(self):
        w = finite_gibbs_posterior(np.array([0.5, 0.5]), np.array([1e6, 1e6 + 1.0]), 10.0)
        assert np.all(np.isfinite(w)) and abs(w.sum() - 1.0) < 1e-12

    def test_monotone_in_eta(self):
        # more temperature concentrates on the loss minimizer
        prior = np.full(4, 0.25)
        losses = np.array([0.3, 1.0, 2.0, 0.9])
        weights = [finite_gibbs_posterior(prior, losses, eta)[0] for eta in (0.1, 1.0, 10.0)]
        assert weights[0] < weights[1] < weights[2]


class TestVariationalObjective:
    def test_prior_zero_losses(self):
        prior = np.array([0.3, 0.7])
        assert variational_objective(prior, prior, np.zeros(2), 2.0) == 0.0

    def test_point_mass_closed_form(self):
        m, j, eta = 5, 2, 1.7
        prior = np.full(m, 1.0 / m)
        losses = np.arange(m, dtype=float)
        q = np.zeros(m)
        q[j] = 1.0
        assert variational_objective(q, prior, losses, eta) == pytest.approx(
            eta * losses[j] + np.log(m), abs=1e-12
        )

    def test_infinite_kl_rejected(self):
        prior = np.array([1.0, 0.0])
        with pytest.raises(ValueError):
            variational_objective(np.array([0.5, 0.5]), prior, np.zeros(2), 1.0)

    def test_gibbs_minimizes_over_random_q(self):
        rng = np.random.default_rng(0)
        prior = rng.dirichlet(np.ones(5))
        losses = rng.uniform(0, 3, size=5)
        eta = 0.8
        gibbs = finite_gibbs_posterior(prior, losses, eta)
        j_star = variational_objective(gibbs, prior, losses, eta)
        for _ in range(1000):
            q = rng.dirichlet(np.ones(5))
            j_q = variational_objective(q, prior, losses, eta)
            assert j_q >= j_star - 1e-12
            if np.max(np.abs(q - gibbs)) > 1e-9:
                assert j_q > j_star


def _least_squares_setup(rng, n=512):
    x = rng.uniform(-1.0, 1.0, size=(n, 1))
    y = 2.0 * x[:, 0]
    arch = nnet.MlpArchitecture(1, (), 1, nnet.HEAD_IDENTITY)
    loss = MaskedRegressionLoss(nnet.Batch(x, y), np.zeros(n, dtype=np.intp))
    return arch, loss, n


class TestMapTrain:
    def test_recovers_least_squares_slope(self):
        rng = np.random.default_rng(1)
        arch, loss, n = _least_squares_setup(rng)
        gibbs = GibbsConfig(zeta=1.0, eta=1.0, tau2=1e8)
        cfg = TrainConfig(learning_rate=1e-2, batch_size=128, max_epochs=300, patience=50, seed=0)
        rows = np.arange(n)
        params = map_train(arch, loss, gibbs, cfg, rows[: n // 2], rows[n // 2 :])
        assert params[0] == pytest.approx(2.0, abs=1e-2)

    def test_same_seed_identical(self):
        rng = np.random.default_rng(2)
        arch, loss, n = _least_squares_setup(rng, n=64)
        gibbs = GibbsConfig(zeta=1.0, eta=1.0, tau2=1.0)
        cfg = TrainConfig(learning_rate=1e-3, batch_size=16, max_epochs=5, patience=5, seed=11)
        rows = np.arange(n)
        p1 = map_train(arch, loss, gibbs, cfg, rows[:48], rows[48:])
        p2 = map_train(arch, loss, gibbs, cfg, rows[:48], rows[48:])
        assert np.array_equal(p1, p2)

    def test_tiny_eta_keeps_params_near_init(self):
        # with the data term switched off the objective is prior-only and a
        # few small Adam steps barely move the weights
        rng = np.random.default_rng(3)
        n = 256
        x = rng.standard_normal((n, 4))
        u = rng.standard_normal(n)
        arch = nnet.MlpArchitecture(4, (16, 16), 1, nnet.HEAD_TANH)
        loss = BinarySurrogateLoss(nnet.Batch(x, u), 1.0)
        gibbs = GibbsConfig(zeta=1.0, eta=1e-8, tau2=1.0)
        cfg = TrainConfig(learning_rate=1e-4, batch_size=128, max_epochs=5, patience=5, seed=4)
        rows = np.arange(n)
        init = nnet.init_params(arch, np.random.default_rng(cfg.seed))
        trained = map_train(arch, loss, gibbs, cfg, rows[:192], rows[192:])
        assert np.linalg.norm(trained - init) < 0.05 * np.linalg.norm(init)

    def test_validation_loss_never_worse_than_init(self):
        rng = np.random.default_rng(5)
        arch, loss, n = _least_squares_setup(rng, n=128)
        gibbs = GibbsConfig(zeta=1.0, eta=1.0, tau2=1.0)
        cfg = TrainConfig(learning_rate=1e-2, batch_size=32, max_epochs=20, patience=3, seed=6)
        train_rows, val_rows = np.arange(96), np.arange(96, 128)
        init = nnet.init_params(arch, np.random.default_rng(cfg.seed))
        fitted = map_train(arch, loss, gibbs, cfg, train_rows, val_rows)

        def val_loss(w):
            return float(loss.values(nnet.forward(arch, w, loss.x[val_rows]), val_rows).mean())

        assert val_loss(fitted) <= val_loss(init)

    def test_nonfinite_loss_raises(self):
        rng = np.random.default_rng(7)
        n = 32
        x = rng.standard_normal((n, 2))
        y = rng.standard_normal(n)
        arch = nnet.MlpArchitecture(2, (), 1, nnet.HEAD_IDENTITY)
        loss = MaskedRegressionLoss(nnet.Batch(x, y), np.zeros(n, dtype=np.intp))
        gibbs = GibbsConfig(zeta=1.0, eta=1.0, tau2=1.0)
        # Adam moves ~learning_rate per step, so only an absurd step size can
        # push the squared loss past float64 range; the guard must trip
        cfg = TrainConfig(learning_rate=1e160, batch_size=8, max_epochs=3, patience=50, seed=0)
        with pytest.raises(FloatingPointError), np.errstate(over="ignore", invalid="ignore"):
            map_train(arch, loss, gibbs, cfg, np.arange(24), np.arange(24, 32))


class TestMapObjective:
    def test_matches_hand_computation(self):
        rng = np.random.default_rng(21)
        n = 12
        x = rng.standard_normal((n, 2))
        y = rng.standard_normal(n)
        arch = nnet.MlpArchitecture(2, (), 1, nnet.HEAD_IDENTITY)
        loss = MaskedRegressionLoss(nnet.Batch(x, y), np.zeros(n, dtype=np.intp))
        gibbs = GibbsConfig(zeta=1.0, eta=1.7, tau2=0.5)
        params = rng.standard_normal(arch.param_count)
        resid = x @ params[:2] + params[2] - y
        expected = 1.7 * 0.5 * float(resid @ resid) + float(params @ params) / (2.0 * 0.5)
        assert map_objective(arch, params, loss, gibbs) == pytest.approx(expected, rel=1e-12)

    def test_row_subset_and_rescaling(self):
        rng = np.random.default_rng(22)
        n = 10
        x = rng.standard_normal((n, 2))
        y = rng.standard_normal(n)
        arch = nnet.MlpArchitecture(2, (), 1, nnet.HEAD_IDENTITY)
        loss = MaskedRegressionLoss(nnet.Batch(x, y), np.zeros(n, dtype=np.intp))
        gibbs = GibbsConfig(zeta=1.0, eta=1.0, tau2=1e8)
        params = rng.standard_normal(arch.param_count)
        rows = np.arange(5)
        half = map_objective(arch, params, loss, gibbs, rows)
        doubled = map_objective(arch, params, loss, gibbs, rows, n_scale=10)
        prior = float(params @ params) / (2.0 * gibbs.tau2)  # not rescaled with the data term
        assert doubled == pytest.approx(2.0 * half - prior, rel=1e-12)



class _InfGradRegression(MaskedRegressionLoss):
    """Finite losses, but one output gradient entry is infinite."""

    def output_grad(self, out, rows=None):
        g = super().output_grad(out, rows)
        g[0, 0] = np.inf
        return g


class _InfValueRegression(MaskedRegressionLoss):
    """Finite output gradients, but every loss value is infinite."""

    def values(self, out, rows=None):
        return np.full(out.shape[0], np.inf)


class TestNonFiniteGuards:
    def test_map_train_raises_on_nonfinite_gradient(self):
        # one epoch of one batch: without the guard the NaN step is never
        # taken up and the initial parameters come back silently
        rng = np.random.default_rng(30)
        n = 16
        x = rng.standard_normal((n, 2))
        loss = _InfGradRegression(nnet.Batch(x, rng.standard_normal(n)), np.zeros(n, dtype=np.intp))
        arch = nnet.MlpArchitecture(2, (), 1, nnet.HEAD_IDENTITY)
        cfg = TrainConfig(batch_size=12, max_epochs=1, patience=1, seed=0)
        with pytest.raises(FloatingPointError, match="gradient"), np.errstate(invalid="ignore"):
            map_train(arch, loss, GibbsConfig(zeta=1.0), cfg, np.arange(12), np.arange(12, 16))

    def test_sgld_raises_on_nonfinite_loss(self):
        arch, loss, gibbs, mean, _ = _conjugate_gaussian_setup(seed=31)
        bad = _InfValueRegression(loss.batch, loss.cols)
        sgld = SgldConfig(step_size=0.005, burn_in=2, n_draws=2, thin=1, batch_size=25, seed=3)
        with pytest.raises(FloatingPointError, match="non-finite training loss"):
            sgld_sample(arch, bad, gibbs, np.array([0.0, mean]), sgld)


def _conjugate_gaussian_setup(seed=0, n=50, tau2=1.0, eta=1.0):
    """Intercept-only quadratic model: covariates are zero, so the identity
    output equals the bias and the Gibbs posterior over it is Gaussian with
    precision eta*n + 1/tau2."""
    rng = np.random.default_rng(seed)
    x = np.zeros((n, 1))
    y = 1.0 + rng.standard_normal(n)
    arch = nnet.MlpArchitecture(1, (), 1, nnet.HEAD_IDENTITY)
    loss = MaskedRegressionLoss(nnet.Batch(x, y), np.zeros(n, dtype=np.intp))
    gibbs = GibbsConfig(zeta=1.0, eta=eta, tau2=tau2)
    precision = eta * n + 1.0 / tau2
    mean = eta * y.sum() / precision
    return arch, loss, gibbs, mean, precision


class TestSgld:
    def test_step_size_must_be_positive(self):
        with pytest.raises(ValueError):
            SgldConfig(step_size=0.0)

    def test_defaults_match_reference_run(self):
        cfg = SgldConfig()
        assert cfg.burn_in == 1200
        assert cfg.n_draws == 300
        assert cfg.thin == 8
        assert cfg.step_size == 2e-5
        assert cfg.batch_size == 128

    def test_conjugate_gaussian_mean(self):
        arch, loss, gibbs, mean, precision = _conjugate_gaussian_setup(seed=8)
        post_sd = 1.0 / np.sqrt(precision)
        sgld = SgldConfig(step_size=0.01, burn_in=300, n_draws=300, thin=10,
                          batch_size=50, seed=9, clip_norm=1e6)
        init = np.array([0.0, mean])
        draws = sgld_sample(arch, loss, gibbs, init, sgld)
        b_draws = draws.draws[:, 1]
        se = post_sd / np.sqrt(sgld.n_draws)
        assert abs(b_draws.mean() - mean) < 3.0 * se

    def test_same_seed_identical_draws(self):
        arch, loss, gibbs, mean, _ = _conjugate_gaussian_setup(seed=10)
        sgld = SgldConfig(step_size=0.005, burn_in=20, n_draws=10, thin=2, batch_size=25, seed=3)
        init = np.array([0.0, mean])
        d1 = sgld_sample(arch, loss, gibbs, init, sgld)
        d2 = sgld_sample(arch, loss, gibbs, init, sgld)
        assert np.array_equal(d1.draws, d2.draws)

    def test_persistence_roundtrip(self, tmp_path):
        arch, loss, gibbs, mean, _ = _conjugate_gaussian_setup(seed=11)
        sgld = SgldConfig(step_size=0.005, burn_in=5, n_draws=4, thin=1, batch_size=25, seed=3)
        draws = sgld_sample(arch, loss, gibbs, np.array([0.0, mean]), sgld)
        posterior.save_draws(tmp_path / "draws", draws)
        loaded = posterior.load_draws(tmp_path / "draws")
        assert loaded.arch == arch
        assert loaded.meta == sgld
        assert np.array_equal(loaded.draws, draws.draws)


class TestDiagLaplace:
    def test_prior_only_objective_gives_tau2(self):
        # a numerically dead data term leaves the exact quadratic prior, whose
        # curvature is 1/tau2 on every coordinate
        tau2 = 2.5
        arch, loss, gibbs, _, _ = _conjugate_gaussian_setup(seed=12, tau2=tau2)
        gibbs = replace(gibbs, eta=1e-300)
        res = diag_laplace(arch, loss, gibbs, np.zeros(2))
        np.testing.assert_allclose(res.variances, tau2, rtol=1e-12)
        assert not res.any_clamped

    def test_conjugate_variance_matches_closed_form(self):
        arch, loss, gibbs, mean, precision = _conjugate_gaussian_setup(seed=13)
        res = diag_laplace(arch, loss, gibbs, np.array([0.0, mean]))
        assert res.variances[1] == pytest.approx(1.0 / precision, rel=1e-4)
        assert res.variances[0] == pytest.approx(gibbs.tau2, rel=1e-4)  # no data on the weight

    def test_negative_curvature_clamped_and_flagged(self):
        @dataclass(frozen=True)
        class ConcaveLoss:
            x: np.ndarray

            @property
            def n(self):
                return self.x.shape[0]

            def values(self, out, rows=None):
                return -0.5 * out[:, 0] ** 2

            def output_grad(self, out, rows=None):
                return -out

        n = 20
        arch = nnet.MlpArchitecture(1, (), 1, nnet.HEAD_IDENTITY)
        loss = ConcaveLoss(np.ones((n, 1)))
        gibbs = GibbsConfig(zeta=1.0, eta=1.0, tau2=1e6)
        res = diag_laplace(arch, loss, gibbs, np.zeros(2))
        assert res.any_clamped
        assert np.all(res.variances[res.negative_curvature] == posterior.VARIANCE_FLOOR)

    def test_nonstationary_point_rejected(self):
        arch, loss, gibbs, mean, _ = _conjugate_gaussian_setup(seed=14)
        with pytest.raises(ValueError):
            diag_laplace(arch, loss, gibbs, np.array([0.0, mean + 1.0]))


class TestWelfareCredibleInterval:
    def _draws(self, rng, n_draws=20):
        arch = nnet.MlpArchitecture(2, (4,), 1, nnet.HEAD_TANH)
        base = nnet.init_params(arch, rng)
        draws = base + 0.1 * rng.standard_normal((n_draws, base.size))
        meta = SgldConfig(step_size=1e-4, burn_in=0, n_draws=n_draws, thin=1)
        return PosteriorDraws(arch=arch, draws=draws, meta=meta)

    def test_identical_draws_collapse(self):
        rng = np.random.default_rng(15)
        arch = nnet.MlpArchitecture(2, (4,), 1, nnet.HEAD_TANH)
        w = nnet.init_params(arch, rng)
        draws = PosteriorDraws(
            arch=arch,
            draws=np.tile(w, (5, 1)),
            meta=SgldConfig(step_size=1e-4, burn_in=0, n_draws=5, thin=1),
        )
        test = FullFeedbackDataset(rng.standard_normal((30, 2)), rng.standard_normal((30, 2)))
        mean, lo, hi = welfare_credible_interval(draw_welfare(draws, test, "deterministic"), 0.95)
        assert lo == hi == mean

    def test_quantile_ordering_random_draw_sets(self):
        rng = np.random.default_rng(16)
        test = FullFeedbackDataset(rng.standard_normal((40, 2)), rng.standard_normal((40, 2)))
        for _ in range(100):
            draws = self._draws(rng, n_draws=int(rng.integers(2, 30)))
            for rule in ("deterministic", "randomized"):
                mean, lo, hi = welfare_credible_interval(draw_welfare(draws, test, rule), 0.9)
                assert lo <= hi
                assert lo <= mean + 1e-12 and mean <= hi + 1e-12 or lo <= hi

    def test_nested_levels(self):
        rng = np.random.default_rng(17)
        test = FullFeedbackDataset(rng.standard_normal((40, 2)), rng.standard_normal((40, 2)))
        draws = self._draws(rng, n_draws=50)
        _, lo95, hi95 = welfare_credible_interval(draw_welfare(draws, test, "randomized"), 0.95)
        _, lo50, hi50 = welfare_credible_interval(draw_welfare(draws, test, "randomized"), 0.5)
        assert lo95 <= lo50 <= hi50 <= hi95

    def test_softmax_head_interval(self):
        rng = np.random.default_rng(18)
        arch = nnet.MlpArchitecture(2, (4,), 3, nnet.HEAD_SOFTMAX)
        base = nnet.init_params(arch, rng)
        draws = PosteriorDraws(
            arch=arch,
            draws=base + 0.1 * rng.standard_normal((15, base.size)),
            meta=SgldConfig(step_size=1e-4, burn_in=0, n_draws=15, thin=1),
        )
        test = FullFeedbackDataset(rng.standard_normal((25, 2)), rng.standard_normal((25, 3)))
        mean, lo, hi = welfare_credible_interval(draw_welfare(draws, test, "randomized"), 0.95)
        assert lo <= mean <= hi
