import numpy as np
import pytest

from dataclasses import dataclass, replace

from conftest import (
    exact_linear_gibbs,
    finite_diff_grad,
    max_rel_error,
    min_abs_hidden_preactivation,
    peak_bytes,
    reference_diag_hessian,
    reference_map_objective,
    reference_map_train,
    reference_objective_gradient,
    reference_sgld_iterates,
)
from gbpl import nnet, posterior
from gbpl.dgp import DgpSpec, generate_full_feedback
from gbpl.evaluation import test_welfare, welfare_credible_interval
from gbpl.experiment import _SPLIT_TAG, split_rows
from gbpl.losses import FullVectorSurrogateLoss, MaskedRegressionLoss, WeightedLogisticLoss
from gbpl.methods import FittedPolicy
from gbpl.posterior import (
    GibbsConfig,
    SgldConfig,
    TrainConfig,
    finite_gibbs_posterior,
    map_train,
    objective_gradient,
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


class TestFiniteSetInputs:
    # each once broadcast, or returned NaN, instead of raising
    PRIOR = np.full(3, 1.0 / 3.0)

    @pytest.mark.parametrize("call, match", [
        pytest.param(lambda p: finite_gibbs_posterior(p, np.zeros(1), 1.0), "losses",
                     id="gibbs-one-loss"),
        pytest.param(lambda p: finite_gibbs_posterior(p, np.zeros((3, 1)), 1.0), "losses",
                     id="gibbs-loss-column"),
        pytest.param(lambda p: finite_gibbs_posterior(p[:, None], np.zeros((3, 1)), 1.0),
                     "prior", id="gibbs-prior-column"),
        pytest.param(lambda p: finite_gibbs_posterior(p, np.array([0.0, np.nan, 1.0]), 1.0),
                     "losses", id="gibbs-nan-loss"),
        pytest.param(lambda p: finite_gibbs_posterior(p, np.array([0.0, -np.inf, 1.0]), 1.0),
                     "losses", id="gibbs-minus-inf-loss"),
        pytest.param(lambda p: finite_gibbs_posterior(p, np.full(3, np.inf), 1.0), "losses",
                     id="gibbs-no-finite-loss"),
        pytest.param(lambda p: finite_gibbs_posterior(np.array([np.nan, 0.5, 0.5]), np.zeros(3),
                                                      1.0), "prior", id="gibbs-nan-prior"),
        pytest.param(lambda p: finite_gibbs_posterior(p, np.zeros(3), np.nan), "eta",
                     id="gibbs-nan-eta"),
        pytest.param(lambda p: finite_gibbs_posterior(p, np.zeros(3), np.inf), "eta",
                     id="gibbs-inf-eta"),
        pytest.param(lambda p: variational_objective(p, p, np.zeros(3), np.nan), "eta",
                     id="vi-nan-eta"),
        pytest.param(lambda p: variational_objective(p, p, np.zeros(2), 1.0), "losses",
                     id="vi-short-losses"),
        pytest.param(lambda p: variational_objective(p, p, np.array([np.nan, 0.0, 0.0]), 1.0),
                     "losses", id="vi-nan-loss"),
        pytest.param(lambda p: variational_objective(np.array([0.5, 0.5]), p, np.zeros(3), 1.0),
                     "q", id="vi-short-q"),
        pytest.param(lambda p: variational_objective(p, np.array([0.5, -0.5, 1.0]), np.zeros(3),
                                                     1.0), "prior", id="vi-negative-prior"),
        pytest.param(lambda p: variational_objective(p, 2 * p, np.zeros(3), 1.0), "prior",
                     id="vi-prior-sum"),
        pytest.param(lambda p: variational_objective(np.array([np.nan, 0.5, 0.5]), p,
                                                     np.zeros(3), 1.0), "q", id="vi-nan-q"),
        pytest.param(lambda p: variational_objective(p[:, None], p[:, None], np.zeros((3, 1)),
                                                     1.0), "prior", id="vi-prior-column"),
    ])
    def test_rejected(self, call, match):
        with pytest.raises(ValueError, match=match):
            call(self.PRIOR)

    def test_infinite_loss_gets_zero_weight(self):
        losses = np.array([0.0, np.inf, np.log(2.0)])
        w = finite_gibbs_posterior(self.PRIOR, losses, 1.0)
        np.testing.assert_allclose(w, [2.0 / 3.0, 0.0, 1.0 / 3.0], rtol=0, atol=1e-15)
        np.testing.assert_allclose(finite_gibbs_posterior(self.PRIOR, losses, 0.0), self.PRIOR)
        assert np.isfinite(variational_objective(w, self.PRIOR, losses, 1.0))
        assert variational_objective(self.PRIOR, self.PRIOR, losses, 1.0) == np.inf


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
    loss = MaskedRegressionLoss(x, y, np.zeros(n, dtype=np.intp))
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
        loss = FullVectorSurrogateLoss(x, u, 1.0)
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
        loss = MaskedRegressionLoss(x, y, np.zeros(n, dtype=np.intp))
        gibbs = GibbsConfig(zeta=1.0, eta=1.0, tau2=1.0)
        # Adam moves ~learning_rate per step, so only an absurd step size can
        # push the squared loss past float64 range; the guard must trip
        cfg = TrainConfig(learning_rate=1e160, batch_size=8, max_epochs=3, patience=50, seed=0)
        with pytest.raises(FloatingPointError), np.errstate(over="ignore", invalid="ignore"):
            map_train(arch, loss, gibbs, cfg, np.arange(24), np.arange(24, 32))

    def test_one_row_batches_are_deterministic(self):
        # a one-row workspace: every forward block and every minibatch is a single row
        rng = np.random.default_rng(14)
        n = 24
        x = rng.standard_normal((n, 3))
        loss = FullVectorSurrogateLoss(x, rng.standard_normal(n), 0.5)
        arch = nnet.MlpArchitecture(3, (8, 8), 1, nnet.HEAD_TANH)
        cfg = TrainConfig(learning_rate=1e-2, batch_size=1, max_epochs=3, patience=3, seed=2)
        args = (arch, loss, GibbsConfig(zeta=0.5), cfg, np.arange(16), np.arange(16, n))
        fits = [map_train(*args) for _ in range(2)]
        assert fits[0].tobytes() == fits[1].tobytes()
        assert fits[0].tobytes() == reference_map_train(*args).tobytes()

    def test_validation_pass_peak_memory_bounded_by_the_batch(self):
        # the validation pass used to hold two 5,000 x 128 activations (10 MB)
        rng = np.random.default_rng(12)
        n_train, n_val = 256, 5000
        x = rng.standard_normal((n_train + n_val, 10))
        loss = FullVectorSurrogateLoss(x, rng.standard_normal(n_train + n_val), 0.5)
        arch = nnet.MlpArchitecture(10, (128, 128), 1, nnet.HEAD_TANH)
        cfg = TrainConfig(batch_size=128, max_epochs=2, patience=5, seed=0)
        rows = np.arange(n_train + n_val)
        peak = peak_bytes(lambda: map_train(arch, loss, GibbsConfig(zeta=0.5), cfg,
                                            rows[:n_train], rows[n_train:]))
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("weight_decay,vectors", [(0.0, 6.5), (1e-4, 7.5)])
    def test_peak_memory_is_six_parameter_vectors(self, weight_decay, vectors):
        # a wide net on 40 rows: the parameter-sized vectors dominate. A fit holds the
        # parameters, the best snapshot, Adam's moments, and the workspace's gradient and
        # scratch; weight decay adds a transient term. Adam's scratch, a snapshot's copy and
        # an unused decay buffer used to add four more. Backward writes its deltas over the
        # activations, so one set of them is held
        rng = np.random.default_rng(13)
        n, batch = 40, 8
        x = rng.standard_normal((n, 2))
        loss = FullVectorSurrogateLoss(x, np.sin(x[:, 0]), 0.5)
        arch = nnet.MlpArchitecture(2, (400, 400), 1, nnet.HEAD_TANH)
        cfg = TrainConfig(learning_rate=1e-3, batch_size=batch, max_epochs=3, patience=3,
                          weight_decay=weight_decay)
        vector = arch.param_count * 8
        rows = batch * (sum(arch.hidden_dims) + 1) * 8  # one set of activations
        peak = peak_bytes(lambda: map_train(arch, loss, GibbsConfig(zeta=0.5), cfg,
                                            np.arange(30), np.arange(30, n)))
        assert peak < vectors * vector + rows, peak / vector

    @pytest.mark.parametrize("head", [nnet.HEAD_TANH, nnet.HEAD_SOFTMAX])
    def test_matches_allocating_reference_bitwise(self, head):
        # 70 training rows in batches of 16 leave a short last batch of 6
        rng = np.random.default_rng(9)
        n = 100
        x = rng.standard_normal((n, 4))
        if head == nnet.HEAD_TANH:
            arch = nnet.MlpArchitecture(4, (12, 8), 1, head)
            loss = FullVectorSurrogateLoss(x, rng.standard_normal(n), 0.5)
        else:
            arch = nnet.MlpArchitecture(4, (12, 8), 3, head)
            loss = FullVectorSurrogateLoss(x, rng.standard_normal((n, 3)), 0.5)
        gibbs = GibbsConfig(zeta=0.5, eta=1.3, tau2=2.0)
        cfg = TrainConfig(learning_rate=1e-2, batch_size=16, max_epochs=12, patience=3, seed=8,
                          weight_decay=0.05)
        perm = rng.permutation(n)
        train_rows, val_rows = perm[:70], perm[70:]
        got = map_train(arch, loss, gibbs, cfg, train_rows, val_rows)
        want = reference_map_train(arch, loss, gibbs, cfg, train_rows, val_rows)
        assert got.tobytes() == want.tobytes()


class TestUfuncBuffer:
    """``map_train`` runs its loop under a small numpy ufunc buffer and gives it back."""

    def test_buffer_size_restored_on_return_and_on_raise(self):
        rng = np.random.default_rng(40)
        arch, loss, n = _least_squares_setup(rng, n=64)
        cfg = TrainConfig(batch_size=16, max_epochs=2, patience=2)
        # the nonfinite-loss fit of TestMapTrain
        x = rng.standard_normal((32, 2))
        bad_loss = MaskedRegressionLoss(x, rng.standard_normal(32), np.zeros(32, dtype=np.intp))
        bad_arch = nnet.MlpArchitecture(2, (), 1, nnet.HEAD_IDENTITY)
        bad_cfg = TrainConfig(learning_rate=1e160, batch_size=8, max_epochs=3, patience=50)
        caller = 4096  # neither numpy's default nor the fit's own size
        old = np.setbufsize(caller)
        try:
            map_train(arch, loss, GibbsConfig(zeta=1.0), cfg, np.arange(48), np.arange(48, n))
            assert np.getbufsize() == caller
            with pytest.raises(FloatingPointError), np.errstate(over="ignore", invalid="ignore"):
                map_train(bad_arch, bad_loss, GibbsConfig(zeta=1.0), bad_cfg, np.arange(24),
                          np.arange(24, 32))
            assert np.getbufsize() == caller
        finally:
            np.setbufsize(old)

    @pytest.mark.parametrize("head", [nnet.HEAD_TANH, nnet.HEAD_SOFTMAX, nnet.HEAD_IDENTITY])
    def test_params_equal_those_under_numpys_default_buffer(self, head, monkeypatch):
        # 64-wide layers on 128-row batches: a bias broadcast or a mask cast covers
        # 8,192 elements, one default buffer and eight of the fit's own
        rng = np.random.default_rng(41)
        n = 400
        x = rng.standard_normal((n, 5))
        if head == nnet.HEAD_TANH:
            loss = FullVectorSurrogateLoss(x, rng.standard_normal(n), 0.5)
        elif head == nnet.HEAD_SOFTMAX:
            loss = FullVectorSurrogateLoss(x, rng.standard_normal((n, 3)), 0.5)
        else:  # boolean labels, cast through the buffer
            u = rng.standard_normal(n)
            loss = WeightedLogisticLoss(x, u > 0, np.abs(u))
        arch = nnet.MlpArchitecture(5, (64, 64), 3 if head == nnet.HEAD_SOFTMAX else 1, head)
        cfg = TrainConfig(learning_rate=1e-2, batch_size=128, max_epochs=4, patience=4, seed=5)
        args = (arch, loss, GibbsConfig(zeta=0.5), cfg, np.arange(300), np.arange(300, n))
        small = map_train(*args)
        monkeypatch.setattr(posterior, "_UFUNC_BUFFER", 8192)
        assert small.tobytes() == map_train(*args).tobytes()

    def test_peak_is_one_fits_buffers(self):
        # the binary benchmark's fit: 1,200 training and 600 validation rows on the
        # 10-128-128-1 net. Above its entry a fit holds six parameter vectors and one
        # set of activations, plus per-step arrays of one 128-row block: its covariates
        # and at most one hidden layer's width of temporaries, such as a ReLU mask, and
        # the epoch's order and validation losses. numpy's default 64 KiB iterator
        # buffers for the bias broadcasts, mask casts and rank-one products, and a
        # validation loss formed over every validation row at once, went past it
        rng = np.random.default_rng(42)
        n_train, n_val, d, batch = 1200, 600, 10, 128
        x = rng.standard_normal((n_train + n_val, d))
        loss = FullVectorSurrogateLoss(x, rng.standard_normal(n_train + n_val), 0.5)
        arch = nnet.MlpArchitecture(d, (128, 128), 1, nnet.HEAD_TANH)
        cfg = TrainConfig(batch_size=batch, max_epochs=2, patience=2)
        rows = np.arange(n_train + n_val)

        def fit():
            map_train(arch, loss, GibbsConfig(zeta=0.5), cfg, rows[:n_train], rows[n_train:])

        fit()  # lazy imports and caches out of the measured run
        buffers = 6 * arch.param_count * 8 + batch * (sum(arch.hidden_dims) + 1) * 8
        block = batch * (d + max(arch.hidden_dims)) * 8
        indices = (n_train + n_val) * 8
        peak = peak_bytes(fit)
        assert peak < buffers + block + indices, (peak - buffers) / block


class TestObjectiveGradient:
    def test_matches_central_differences_of_the_objective(self):
        # a row subset scaled to another sample size, extra weight decay and tau2 != 1
        rng = np.random.default_rng(22)
        n = 40
        x = rng.standard_normal((n, 3))
        arch = nnet.MlpArchitecture(3, (6,), 1, nnet.HEAD_TANH)
        loss = FullVectorSurrogateLoss(x, rng.standard_normal(n), 0.5)
        gibbs = GibbsConfig(zeta=0.5, eta=1.3, tau2=0.7)
        params = nnet.init_params(arch, rng)
        rows = rng.choice(n, size=12, replace=False)
        assert min_abs_hidden_preactivation(arch, params, x[rows]) > 1e-3  # no kink within h
        ws = nnet.Workspace(arch, rows.size)
        got = objective_gradient(arch, params, loss, gibbs, rows, n, ws, weight_decay=0.05)
        want = finite_diff_grad(
            lambda w: reference_map_objective(arch, w, loss, gibbs, rows, n, weight_decay=0.05),
            params, np.arange(arch.param_count))
        assert max_rel_error(got, want) < 1e-6

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
    def test_prior_buffer_as_backward_scratch_matches_reference_bitwise(self, weight_decay):
        # nnet.backward copies transposed weights into ws.scratch before the prior
        # gradient is formed there; NaN left in it must not reach the result
        rng = np.random.default_rng(23)
        n = 300
        x = rng.standard_normal((n, 1))
        arch = nnet.MlpArchitecture(1, (64, 64), 1, nnet.HEAD_TANH)
        loss = FullVectorSurrogateLoss(x, rng.standard_normal(n), 1.0)
        gibbs = GibbsConfig(zeta=1.0, eta=1.3, tau2=0.7)
        params = nnet.init_params(arch, rng)
        ws = nnet.Workspace(arch, 128)
        for _ in range(3):  # the first call makes ws.scratch, the later ones find NaN in it
            rows = rng.choice(n, size=128, replace=False)
            if ws.scratch is not None:
                ws.scratch.fill(np.nan)
            got = objective_gradient(arch, params, loss, gibbs, rows, n, ws, weight_decay)
            want = reference_objective_gradient(arch, params, loss, gibbs, rows, n, weight_decay)
            assert got.tobytes() == want.tobytes()
            params = params - 1e-3 * want


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
        loss = _InfGradRegression(x, rng.standard_normal(n), np.zeros(n, dtype=np.intp))
        arch = nnet.MlpArchitecture(2, (), 1, nnet.HEAD_IDENTITY)
        cfg = TrainConfig(batch_size=12, max_epochs=1, patience=1, seed=0)
        with pytest.raises(FloatingPointError, match="gradient"), np.errstate(invalid="ignore"):
            map_train(arch, loss, GibbsConfig(zeta=1.0), cfg, np.arange(12), np.arange(12, 16))

    def test_sgld_raises_on_nonfinite_loss(self):
        arch, loss, gibbs, mean, _ = _conjugate_gaussian_setup(seed=31)
        bad = _InfValueRegression(loss.x, loss.targets, loss.cols)
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
    loss = MaskedRegressionLoss(x, y, np.zeros(n, dtype=np.intp))
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
        b_draws = draws[:, 1]
        se = post_sd / np.sqrt(sgld.n_draws)
        assert abs(b_draws.mean() - mean) < 3.0 * se

    def test_same_seed_identical_draws(self):
        arch, loss, gibbs, mean, _ = _conjugate_gaussian_setup(seed=10)
        sgld = SgldConfig(step_size=0.005, burn_in=20, n_draws=10, thin=2, batch_size=25, seed=3)
        init = np.array([0.0, mean])
        d1 = sgld_sample(arch, loss, gibbs, init, sgld)
        d2 = sgld_sample(arch, loss, gibbs, init, sgld)
        assert isinstance(d1, np.ndarray)
        assert d1.shape == (sgld.n_draws, arch.param_count)
        assert np.array_equal(d1, d2)

    def test_matches_allocating_reference_bitwise(self):
        rng = np.random.default_rng(14)
        n = 60
        x = rng.standard_normal((n, 3))
        arch = nnet.MlpArchitecture(3, (10, 10), 1, nnet.HEAD_TANH)
        loss = FullVectorSurrogateLoss(x, rng.standard_normal(n), 0.3)
        gibbs = GibbsConfig(zeta=0.3, eta=1.0, tau2=1.0)
        init = nnet.init_params(arch, rng)
        # a clip norm this small clips every step
        sgld = SgldConfig(step_size=1e-3, burn_in=0, n_draws=20, thin=1, batch_size=16, seed=5,
                          clip_norm=0.5)
        draws = sgld_sample(arch, loss, gibbs, init, sgld)
        want = reference_sgld_iterates(arch, loss, gibbs, init, sgld, steps=20)
        assert draws.tobytes() == want.tobytes()

    def test_summary_rows_equal_the_summary_of_each_draw(self):
        rng = np.random.default_rng(15)
        n = 60
        x = rng.standard_normal((n, 3))
        arch = nnet.MlpArchitecture(3, (10, 10), 1, nnet.HEAD_TANH)
        loss = FullVectorSurrogateLoss(x, rng.standard_normal(n), 0.3)
        gibbs = GibbsConfig(zeta=0.3, eta=1.0, tau2=1.0)
        init = nnet.init_params(arch, rng)
        sgld = SgldConfig(step_size=1e-3, burn_in=7, n_draws=9, thin=3, batch_size=16, seed=6)
        pts = rng.standard_normal((4, 3))

        def summary(w):
            return np.concatenate([nnet.forward(arch, w, pts)[:, 0], [w @ w]])

        draws = sgld_sample(arch, loss, gibbs, init, sgld)
        stats = sgld_sample(arch, loss, gibbs, init, sgld, summary=summary)
        assert stats.shape == (sgld.n_draws, pts.shape[0] + 1)
        want = np.stack([summary(w) for w in draws])
        assert stats.tobytes() == want.tobytes()

    def test_gradient_whose_squared_norm_overflows_is_clipped_not_zeroed(self):
        # grad @ grad is inf here, and clip_norm / inf would zero the drift
        n = 4
        loss = MaskedRegressionLoss(np.full((n, 1), 1e152), np.full(n, 1e3),
                                    np.zeros(n, dtype=np.intp))
        arch = nnet.MlpArchitecture(1, (), 1, nnet.HEAD_IDENTITY)
        gibbs = GibbsConfig(zeta=1.0)
        sgld = SgldConfig(step_size=1e-4, burn_in=0, n_draws=1, thin=1, batch_size=n, seed=0)
        init = np.zeros(arch.param_count)
        grad = objective_gradient(arch, init, loss, gibbs, np.arange(n), n, nnet.Workspace(arch, n))
        assert np.all(np.isfinite(grad))
        with np.errstate(over="ignore"):
            assert grad @ grad == np.inf
            draw = sgld_sample(arch, loss, gibbs, init, sgld)[0]
        rng = np.random.default_rng(sgld.seed)
        rng.choice(n, size=n, replace=False)
        noise = np.sqrt(sgld.step_size) * rng.standard_normal(arch.param_count)
        unit = grad / np.abs(grad).max()
        unit /= np.sqrt(unit @ unit)
        drift = -0.5 * sgld.step_size * sgld.clip_norm * unit
        np.testing.assert_allclose(draw - init - noise, drift, rtol=1e-9, atol=1e-15)

    def test_empty_rows_rejected(self):
        arch, loss, gibbs, mean, _ = _conjugate_gaussian_setup(seed=12)
        sgld = SgldConfig(step_size=0.005, burn_in=2, n_draws=2, thin=1, batch_size=25, seed=3)
        with pytest.raises(ValueError, match="rows must be nonempty"):
            sgld_sample(arch, loss, gibbs, np.array([0.0, mean]), sgld, rows=[])



class TestDiagLaplace:
    def test_prior_only_objective_gives_tau2(self):
        # a numerically dead data term leaves the exact quadratic prior, whose
        # curvature is 1/tau2 on every coordinate
        tau2 = 2.5
        arch, loss, gibbs, _, _ = _conjugate_gaussian_setup(seed=12, tau2=tau2)
        gibbs = replace(gibbs, eta=1e-300)
        diag = reference_diag_hessian(arch, np.zeros(2), loss, gibbs)
        np.testing.assert_allclose(1.0 / diag, tau2, rtol=1e-12)

    def test_conjugate_variance_matches_closed_form(self):
        arch, loss, gibbs, mean, precision = _conjugate_gaussian_setup(seed=13)
        diag = reference_diag_hessian(arch, np.array([0.0, mean]), loss, gibbs)
        assert 1.0 / diag[1] == pytest.approx(1.0 / precision, rel=1e-4)
        assert 1.0 / diag[0] == pytest.approx(gibbs.tau2, rel=1e-4)  # no data on the weight

    def test_concave_loss_gives_negative_diagonal(self):
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
        diag = reference_diag_hessian(arch, np.zeros(2), loss, gibbs)
        assert np.all(diag < 0)
        np.testing.assert_allclose(diag, -n + 1.0 / gibbs.tau2, rtol=1e-9)


def _linear_gibbs_setup():
    """A linear net on features sin kx, cos kx (k = 1..3) of the default
    ``onedimviz`` training rows at zeta = eta = tau2 = 1, with its exact
    posterior mean and precision."""
    full, _ = generate_full_feedback(DgpSpec(family="onedimviz", n=1500, seed=0))
    train, _, _ = split_rows(full.n, (0.6, 0.2, 0.2), [0, _SPLIT_TAG])
    x = full.x[train, 0]
    phi = np.column_stack([f(k * x) for k in (1, 2, 3) for f in (np.sin, np.cos)])
    u = full.outcome_diff()[train]
    gibbs = GibbsConfig(zeta=1.0, eta=1.0, tau2=1.0)
    arch = nnet.MlpArchitecture(phi.shape[1], (), 1, nnet.HEAD_IDENTITY)
    mu, precision = exact_linear_gibbs(phi, u, gibbs)
    return arch, FullVectorSurrogateLoss(phi, u, gibbs.zeta), gibbs, mu, precision


def _effective_sample_size(chain):
    """n / (1 + 2 sum of autocorrelations), summed until the first one below 0.05."""
    c = chain - chain.mean()
    n, var, total = c.size, c @ c / c.size, 0.0
    for lag in range(1, n):
        rho = (c[:-lag] @ c[lag:]) / (n * var)
        if rho < 0.05:
            break
        total += rho
    return n / (1.0 + 2.0 * total)


class TestExactLinearGibbs:
    """Posterior claims checked against a Gibbs posterior known in closed form:
    a linear net under the squared surrogate has the Gaussian N(mu, A^-1)."""

    def test_exact_mean_zeroes_the_objective_gradient(self):
        arch, loss, gibbs, mu, _ = _linear_gibbs_setup()
        rows = np.arange(loss.n)
        ws = nnet.Workspace(arch, loss.n)
        scale = np.linalg.norm(objective_gradient(arch, np.zeros_like(mu), loss, gibbs, rows,
                                                  loss.n, ws))
        at_mu = np.linalg.norm(objective_gradient(arch, mu, loss, gibbs, rows, loss.n, ws))
        assert at_mu < 1e-12 * scale

    def test_reference_diag_hessian_is_the_exact_precision_diagonal(self):
        arch, loss, gibbs, mu, precision = _linear_gibbs_setup()
        diag = reference_diag_hessian(arch, mu, loss, gibbs)
        np.testing.assert_allclose(diag, np.diag(precision), rtol=1e-10)

    def test_unclipped_sgld_marginal_variances_match_the_exact_posterior(self):
        arch, loss, gibbs, mu, precision = _linear_gibbs_setup()
        default = SgldConfig()
        # no clipping, and ten times the default burn-in and thinning
        sgld = replace(default, burn_in=10 * default.burn_in, thin=10 * default.thin,
                       clip_norm=1e12)
        draws = sgld_sample(arch, loss, gibbs, mu, sgld)
        ratio = draws.var(axis=0) / np.diag(np.linalg.inv(precision))
        ess = np.array([_effective_sample_size(draws[:, j]) for j in range(draws.shape[1])])
        # a variance estimated from ESS independent draws has relative sd sqrt(2 / ESS)
        assert np.all(np.abs(ratio - 1.0) <= 3.0 * np.sqrt(2.0 / ess)), (ratio, ess)


def _draw_welfare(arch, draws, test, rule):
    return [test_welfare(test, FittedPolicy(arch, w), rule) for w in draws]


class TestWelfareCredibleInterval:
    def _draws(self, rng, n_draws=20):
        arch = nnet.MlpArchitecture(2, (4,), 1, nnet.HEAD_TANH)
        base = nnet.init_params(arch, rng)
        return arch, base + 0.1 * rng.standard_normal((n_draws, base.size))

    def test_identical_draws_collapse(self):
        rng = np.random.default_rng(15)
        arch = nnet.MlpArchitecture(2, (4,), 1, nnet.HEAD_TANH)
        w = nnet.init_params(arch, rng)
        draws = np.tile(w, (5, 1))
        test = FullFeedbackDataset(rng.standard_normal((30, 2)), rng.standard_normal((30, 2)))
        welfare = _draw_welfare(arch, draws, test, "deterministic")
        mean, lo, hi = welfare_credible_interval(welfare, 0.95)
        assert lo == hi == mean

    def test_quantile_ordering_random_draw_sets(self):
        rng = np.random.default_rng(16)
        test = FullFeedbackDataset(rng.standard_normal((40, 2)), rng.standard_normal((40, 2)))
        for _ in range(100):
            arch, draws = self._draws(rng, n_draws=int(rng.integers(2, 30)))
            for rule in ("deterministic", "randomized"):
                welfare = _draw_welfare(arch, draws, test, rule)
                mean, lo, hi = welfare_credible_interval(welfare, 0.9)
                assert lo <= hi
                assert lo <= mean + 1e-12 and mean <= hi + 1e-12 or lo <= hi

    def test_nested_levels(self):
        rng = np.random.default_rng(17)
        test = FullFeedbackDataset(rng.standard_normal((40, 2)), rng.standard_normal((40, 2)))
        arch, draws = self._draws(rng, n_draws=50)
        welfare = _draw_welfare(arch, draws, test, "randomized")
        _, lo95, hi95 = welfare_credible_interval(welfare, 0.95)
        _, lo50, hi50 = welfare_credible_interval(welfare, 0.5)
        assert lo95 <= lo50 <= hi50 <= hi95

    def test_softmax_head_interval(self):
        rng = np.random.default_rng(18)
        arch = nnet.MlpArchitecture(2, (4,), 3, nnet.HEAD_SOFTMAX)
        base = nnet.init_params(arch, rng)
        draws = base + 0.1 * rng.standard_normal((15, base.size))
        test = FullFeedbackDataset(rng.standard_normal((25, 2)), rng.standard_normal((25, 3)))
        welfare = _draw_welfare(arch, draws, test, "randomized")
        mean, lo, hi = welfare_credible_interval(welfare, 0.95)
        assert lo <= mean <= hi
