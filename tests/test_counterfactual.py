import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import (
    analytic_grad,
    finite_diff_grad,
    max_rel_error,
    peak_bytes,
    reference_pseudo_difference_binary,
    total_loss,
)
from gbpl import counterfactual as cf
from gbpl import nnet
from gbpl.losses import MaskedRegressionLoss
from gbpl.posterior import TrainConfig
from gbpl.surrogate import FullFeedbackDataset, project_simplex_rows, verify_equivalence_binary


def _simplex_rows(rng, n, k):
    g = rng.gamma(1.0, 1.0, size=(n, k))
    return g / g.sum(axis=1, keepdims=True)


class TestActionCoding:
    def test_action_columns(self):
        logged = cf.LoggedDataset(np.zeros((3, 1)), np.array([1, 0, 1]), np.zeros(3), k=2)
        assert np.array_equal(logged.action_columns(), [0, 1, 0])
        logged_k = cf.LoggedDataset(np.zeros((3, 1)), np.array([1, 3, 2]), np.zeros(3), k=3)
        assert np.array_equal(logged_k.action_columns(), [0, 2, 1])

    def test_label_validation(self):
        with pytest.raises(ValueError):
            cf.LoggedDataset(np.zeros((2, 1)), np.array([1, 2]), np.zeros(2), k=2)
        with pytest.raises(ValueError):
            cf.LoggedDataset(np.zeros((2, 1)), np.array([0, 1]), np.zeros(2), k=3)
        with pytest.raises(ValueError, match="non-integer action label"):
            cf.LoggedDataset(np.zeros((3, 1)), [1.7, 2.2, 3.9], np.zeros(3), k=3)
        for whole in ([1.0, 0.0, 1.0], [True, False, True]):
            logged = cf.LoggedDataset(np.zeros((3, 1)), whole, np.zeros(3), k=2)
            assert logged.a.tolist() == [1, 0, 1]

    @pytest.mark.parametrize("k, labels", [(2, [1, 0]), (4, [1, 2, 3, 4])])
    def test_labels_invert_action_columns(self, k, labels):
        assert cf.LoggedDataset.labels(k).tolist() == labels
        a = np.array(labels * 2)
        logged = cf.LoggedDataset(np.zeros((a.size, 1)), a, np.zeros(a.size), k=k)
        np.testing.assert_array_equal(logged.action_columns(), np.tile(np.arange(k), 2))
        np.testing.assert_array_equal(cf.LoggedDataset.labels(k)[logged.action_columns()], a)


class TestIpwPseudoOutcomes:
    def test_treated_row(self):
        logged = cf.LoggedDataset(np.zeros((1, 1)), np.array([1]), np.array([2.0]), k=2)
        e = np.array([[0.5, 0.5]])
        np.testing.assert_allclose(cf.ipw_pseudo_outcomes(logged, e), [[4.0, 0.0]])

    def test_control_row(self):
        logged = cf.LoggedDataset(np.zeros((1, 1)), np.array([0]), np.array([-1.0]), k=2)
        e = np.array([[0.75, 0.25]])
        np.testing.assert_allclose(cf.ipw_pseudo_outcomes(logged, e), [[0.0, -4.0]])

    def test_below_floor_rejected(self):
        logged = cf.LoggedDataset(np.zeros((1, 1)), np.array([1]), np.array([1.0]), k=2)
        with pytest.raises(ValueError):
            cf.ipw_pseudo_outcomes(logged, np.array([[1e-9, 1.0 - 1e-9]]))

    def test_uniform_logging_column_means(self):
        # with uniform 1/K logging and unit outcomes, each column mean is a
        # binomial proportion times K, so it concentrates at 1
        rng = np.random.default_rng(0)
        n, k = 100_000, 4
        a = rng.integers(1, k + 1, size=n)
        logged = cf.LoggedDataset(np.zeros((n, 1)), a, np.ones(n), k=k)
        e = np.full((n, k), 1.0 / k)
        tilde = cf.ipw_pseudo_outcomes(logged, e)
        for col in range(k):
            se = tilde[:, col].std(ddof=1) / np.sqrt(n)
            assert abs(tilde[:, col].mean() - 1.0) < 3.0 * se


class TestDrPseudoOutcomes:
    def test_exact_nuisances_noiseless(self):
        rng = np.random.default_rng(1)
        n, k = 50, 3
        x = rng.standard_normal((n, 2))
        gamma = rng.standard_normal((n, k))
        a = rng.integers(1, k + 1, size=n)
        cols = a - 1
        y_obs = gamma[np.arange(n), cols]
        e = _simplex_rows(rng, n, k) * 0.8 + 0.2 / k
        e /= e.sum(axis=1, keepdims=True)
        logged = cf.LoggedDataset(x, a, y_obs, k=k)
        np.testing.assert_allclose(cf.dr_pseudo_outcomes(logged, e, gamma), gamma, atol=1e-12)

    def test_hand_example(self):
        logged = cf.LoggedDataset(np.zeros((1, 1)), np.array([1]), np.array([3.0]), k=2)
        e = np.array([[0.5, 0.5]])
        gamma = np.array([[1.0, 0.0]])
        np.testing.assert_allclose(cf.dr_pseudo_outcomes(logged, e, gamma), [[5.0, 0.0]])

    @pytest.mark.parametrize(
        "e_shape, gamma_shape, message",
        [((2, 3), (2, 2), r"propensity matrix must be \(2, 2\)"),
         ((2, 2), (2, 3), r"gamma_hat must be \(n, K\)"),
         ((2, 2), (1, 2), r"gamma_hat must be \(n, K\)")],
    )
    def test_wrongly_shaped_nuisance_rejected(self, e_shape, gamma_shape, message):
        logged = cf.LoggedDataset(np.zeros((2, 1)), np.array([1, 0]), np.zeros(2), k=2)
        with pytest.raises(ValueError, match=message):
            cf.dr_pseudo_outcomes(logged, np.full(e_shape, 0.5), np.zeros(gamma_shape))

    @pytest.mark.parametrize(
        "e, gamma, message",
        [([[np.nan, 0.5], [0.5, 0.5]], np.zeros((2, 2)), "propensity matrix must be finite"),
         ([[0.5, 0.5], [0.5, 0.6]], np.zeros((2, 2)), "propensity rows must sum to 1"),
         ([[0.5, 0.5], [1.0, 0.0]], np.zeros((2, 2)), "propensities violate the overlap floor"),
         (np.full((2, 2), 0.5), [[0.0, np.inf], [0.0, 0.0]], "gamma_hat must be finite")],
        ids=["e-nan", "e-row-sum", "e-floor", "gamma-inf"],
    )
    def test_invalid_nuisance_values_rejected(self, e, gamma, message):
        # the propensities get the same check as LoggedDataset's true ones
        logged = cf.LoggedDataset(np.zeros((2, 1)), np.array([1, 0]), np.zeros(2), k=2)
        with pytest.raises(ValueError, match=message):
            cf.dr_pseudo_outcomes(logged, np.array(e), np.array(gamma))


def _conditional_mc(rng, n, e_row, gamma_row, e_hat_row, gamma_hat_row, kind):
    """Simulate logged draws at one fixed covariate point and return the
    column means of the pseudo-outcome matrix with their standard errors."""
    k = len(e_row)
    u = rng.random(n)
    cum = np.cumsum(e_row)
    cols = (u[:, None] > cum[None, :]).sum(axis=1)
    y = gamma_row[cols] + rng.standard_normal(n)
    a = cols + 1 if k > 2 else np.where(cols == 0, 1, 0)
    logged = cf.LoggedDataset(np.zeros((n, 1)), a, y, k=k)
    e_hat = np.tile(e_hat_row, (n, 1))
    if kind == "ipw":
        tilde = cf.ipw_pseudo_outcomes(logged, e_hat)
    else:
        tilde = cf.dr_pseudo_outcomes(logged, e_hat, np.tile(gamma_hat_row, (n, 1)))
    return tilde.mean(axis=0), tilde.std(axis=0, ddof=1) / np.sqrt(n)


class TestConditionalMeanTargets:
    """The pseudo-outcome conditional mean must match the true outcome
    regression whenever the propensity (IPW) or either nuisance (DR) is
    correct, checked by Monte Carlo at fixed covariate points."""

    def setup_method(self):
        self.rng = np.random.default_rng(2)
        self.k = 3
        self.e = np.array([0.5, 0.3, 0.2])
        self.gamma = np.array([1.0, -0.5, 2.0])
        self.wrong_e = np.array([0.2, 0.3, 0.5])
        self.wrong_gamma = self.gamma + np.array([2.0, -3.0, 1.0])

    def _assert_matches(self, kind, e_hat, gamma_hat, n=60_000):
        means, ses = _conditional_mc(self.rng, n, self.e, self.gamma, e_hat, gamma_hat, kind)
        for a in range(self.k):
            assert abs(means[a] - self.gamma[a]) < 3.0 * ses[a]

    def test_ipw_true_propensity(self):
        self._assert_matches("ipw", self.e, None)

    def test_dr_true_propensity_wrong_regression(self):
        self._assert_matches("dr", self.e, self.wrong_gamma)

    def test_dr_wrong_propensity_true_regression(self):
        self._assert_matches("dr", self.wrong_e, self.gamma)


class TestPseudoDifference:
    def test_matches_column_difference(self):
        rng = np.random.default_rng(3)
        n = 200
        a = rng.choice([1, 0], size=n)
        y = rng.standard_normal(n)
        e1 = rng.uniform(0.2, 0.8, size=n)
        e = np.column_stack([e1, 1.0 - e1])
        gamma = rng.standard_normal((n, 2))
        logged = cf.LoggedDataset(rng.standard_normal((n, 2)), a, y, k=2)
        for g, mat in ((None, cf.ipw_pseudo_outcomes(logged, e)),
                       (gamma, cf.dr_pseudo_outcomes(logged, e, gamma))):
            diff = reference_pseudo_difference_binary(logged, e, g)
            np.testing.assert_allclose(mat[:, 0] - mat[:, 1], diff, rtol=0, atol=1e-12)

    def test_hand_ipw_value(self):
        logged = cf.LoggedDataset(np.zeros((1, 1)), np.array([1]), np.array([2.0]), k=2)
        e = np.array([[0.5, 0.5]])
        mat = cf.ipw_pseudo_outcomes(logged, e)
        assert mat[0, 0] - mat[0, 1] == 4.0

    def test_dr_exact_nuisances_noiseless(self):
        rng = np.random.default_rng(4)
        n = 30
        gamma = rng.standard_normal((n, 2))
        a = rng.choice([1, 0], size=n)
        cols = np.where(a == 1, 0, 1)
        y = gamma[np.arange(n), cols]
        e1 = rng.uniform(0.3, 0.7, size=n)
        e = np.column_stack([e1, 1.0 - e1])
        logged = cf.LoggedDataset(np.zeros((n, 1)), a, y, k=2)
        mat = cf.dr_pseudo_outcomes(logged, e, gamma)
        np.testing.assert_allclose(mat[:, 0] - mat[:, 1], gamma[:, 0] - gamma[:, 1], atol=1e-12)


class TestClipPropensities:
    def test_floor_holds_even_after_normalization(self):
        e = np.array([[0.98, 0.01, 0.01], [0.4, 0.35, 0.25]])
        out = cf.clip_propensities(e, 0.1)
        assert np.all(out >= 0.1 - 1e-12)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(out[1], e[1], atol=1e-12)  # feasible rows unchanged

    def test_clip_at_one_over_k_forces_uniform(self):
        e = np.array([[0.9, 0.05, 0.05]])
        np.testing.assert_allclose(cf.clip_propensities(e, 1.0 / 3.0), 1.0 / 3.0)

    def test_peak_is_below_one_and_a_half_output_tables(self):
        # the result is filled a block of rows at a time; the one-pass projection held
        # its sorted copy, cumulative sums and differences as (n, K) tables at once
        e = _simplex_rows(np.random.default_rng(20), 20000, 5)
        peak = peak_bytes(lambda: cf.clip_propensities(e, 0.1))
        assert peak < 1.5 * e.nbytes, peak / e.nbytes

    @pytest.mark.parametrize("n", [nnet.BLOCK_ROWS // 2 + 3, 2 * nnet.BLOCK_ROWS + 1])
    def test_blocks_match_the_one_pass_formula(self, n):
        # fewer rows than a block, and a last block of one lone row
        e = _simplex_rows(np.random.default_rng(n), n, 5)
        clip = 0.1
        rem = 1.0 - 5 * clip
        reference = clip + rem * project_simplex_rows((e - clip) / rem)
        assert np.any(e < clip)  # some rows are moved
        assert cf.clip_propensities(e, clip).tobytes() == reference.tobytes()


class TestClipPropensitiesProperties:
    @settings(max_examples=200, deadline=None, database=None)
    @given(st.data())
    def test_floor_sum_and_feasible_rows(self, data):
        n, k = data.draw(st.integers(1, 8)), data.draw(st.integers(2, 6))
        clip = data.draw(st.floats(1e-4, 1.0 / k))
        w = data.draw(hnp.arrays(np.float64, (2 * n, k), elements=st.floats(1e-3, 1.0)))
        rows = w / w.sum(axis=1, keepdims=True)
        # first n rows anywhere on the simplex, last n rows already feasible
        e = np.vstack([rows[:n], clip + (1.0 - k * clip) * rows[n:]])
        out = cf.clip_propensities(e, clip)
        assert np.all(out >= clip - 1e-12)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        feasible = np.all(e >= clip, axis=1)
        assert feasible[n:].all()
        np.testing.assert_allclose(out[feasible], e[feasible], rtol=0, atol=1e-12)


# (x, true propensities, the field the error must name)
_BAD_LOGGED = {
    "x_one_dimensional": (np.zeros(2), None, "x"),
    "x_non_finite": (np.array([[np.nan], [1.0]]), None, "x"),
    "x_no_columns": (np.zeros((2, 0)), None, "x"),
    "propensity_non_finite": (np.zeros((2, 1)), np.array([[np.nan, 0.5], [0.5, 0.5]]),
                              "true_propensity"),
}


class TestLoggedDatasetValidation:
    @pytest.mark.parametrize("case", sorted(_BAD_LOGGED))
    def test_rejected_naming_the_field(self, case):
        x, e, field = _BAD_LOGGED[case]
        with pytest.raises(ValueError, match=rf"^{field} "):
            cf.LoggedDataset(x, np.array([1, 0]), np.zeros(2), k=2, true_propensity=e)

    @pytest.mark.parametrize(
        "a, y_obs, k, e, message",
        [
            ([1, 0, 1], [0.0, 0.0], 2, None, "a and y_obs must have one entry per row"),
            ([1, 0], [0.0, 0.0, 0.0], 2, None, "a and y_obs must have one entry per row"),
            ([1, 0], [0.0, np.inf], 2, None, "y_obs must be finite"),
            ([1, 1], [0.0, 0.0], 1, None, "need at least two actions"),
            ([1, 0], [0.0, 0.0], 2, [[0.5, 0.5], [0.5, 0.6]], "propensity rows must sum to 1"),
            ([1, 0], [0.0, 0.0], 2, [[0.5, 0.5], [1.0, 0.0]],
             "true propensities violate the overlap floor"),
        ],
        ids=["a-length", "y-length", "y-non-finite", "one-action", "row-sum", "overlap"],
    )
    def test_rejected(self, a, y_obs, k, e, message):
        with pytest.raises(ValueError, match=message):
            cf.LoggedDataset(np.zeros((2, 1)), np.array(a), np.array(y_obs), k=k,
                             true_propensity=e)


class TestFitPropensity:
    def _uniform_logged(self, rng, n, k):
        x = rng.standard_normal((n, 5))
        cols = rng.integers(0, k, size=n)
        a = np.where(cols == 0, 1, 0) if k == 2 else cols + 1
        return cf.LoggedDataset(x, a, np.zeros(n), k=k)

    def test_uniform_logging_recovered(self):
        rng = np.random.default_rng(5)
        for k in (2, 4):
            logged = self._uniform_logged(rng, 10_000, k)
            e = cf.fit_propensity(logged, np.arange(logged.n), clip=0.01)
            assert np.mean(np.abs(e - 1.0 / k)) < 0.05

    def test_separable_saturates_at_clip_without_overflow(self):
        rng = np.random.default_rng(6)
        n = 500
        x = rng.standard_normal((n, 1))
        a = (x[:, 0] > 0).astype(int)
        logged = cf.LoggedDataset(x, a, np.zeros(n), k=2)
        clip = 0.05
        e = cf.fit_propensity(logged, np.arange(n), clip=clip)
        assert np.all(np.isfinite(e))
        assert e.min() == pytest.approx(clip, abs=1e-9)
        assert e.max() == pytest.approx(1.0 - clip, abs=1e-9)

    def test_clip_floor_contract(self):
        rng = np.random.default_rng(7)
        logged = self._uniform_logged(rng, 400, 3)
        e = cf.fit_propensity(logged, np.arange(logged.n), clip=0.1)
        assert e.min() >= 0.1 - 1e-12

    def test_unobserved_action_named_in_error(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((50, 2))
        logged = cf.LoggedDataset(x, np.full(50, 1), np.zeros(50), k=3)
        with pytest.raises(ValueError, match="action 2"):
            cf.fit_propensity(logged, np.arange(50))

    def test_unobserved_binary_action_named_by_its_label(self):
        # at K = 2 column 1 holds action 0
        x = np.random.default_rng(8).standard_normal((50, 2))
        logged = cf.LoggedDataset(x, np.full(50, 1), np.zeros(50), k=2)
        with pytest.raises(ValueError, match="action 0 is never observed"):
            cf.fit_propensity(logged, np.arange(50))

    def test_action_logged_only_outside_train_rows_named(self):
        # action 3 appears only in the last rows, which the fit may not use
        rng = np.random.default_rng(8)
        x = rng.standard_normal((60, 2))
        a = np.tile([1, 2], 30)
        a[50:] = 3
        logged = cf.LoggedDataset(x, a, np.zeros(60), k=3)
        with pytest.raises(ValueError, match="action 3"):
            cf.fit_propensity(logged, np.arange(50))


class TestPropensityColumnOrder:
    def test_binary_fit_puts_action_one_in_column_zero(self):
        # x > 0 makes action 1 likely, so its propensity (column 0) is large there
        rng = np.random.default_rng(12)
        n = 2000
        x = rng.standard_normal((n, 1))
        a = (rng.random(n) < np.where(x[:, 0] > 0, 0.8, 0.2)).astype(int)
        e = cf.fit_propensity(cf.LoggedDataset(x, a, np.zeros(n), k=2), np.arange(n), clip=0.01)
        pos = x[:, 0] > 0
        assert e[pos, 0].mean() > 0.7
        assert e[~pos, 0].mean() < 0.3
        np.testing.assert_allclose(e.sum(axis=1), 1.0, atol=1e-12)


class TestFitOutcomeRegression:
    def test_noiseless_linear_fit(self):
        rng = np.random.default_rng(9)
        n, d, k = 5000, 3, 2
        x = rng.standard_normal((n, d))
        betas = rng.standard_normal((d, k))
        gamma = x @ betas
        cols = rng.integers(0, k, size=n)
        a = np.where(cols == 0, 1, 0)
        y_obs = gamma[np.arange(n), cols]
        logged = cf.LoggedDataset(x, a, y_obs, k=k)
        cfg = TrainConfig(learning_rate=1e-2, batch_size=256, max_epochs=200, patience=30, seed=0)
        gamma_hat = cf.fit_outcome_regression(logged, np.arange(n), cfg, hidden=())
        rmse = np.sqrt(np.mean((gamma_hat - gamma) ** 2, axis=0))
        assert np.all(rmse < 0.05)

    def test_cross_fitting_uses_out_of_fold_models(self):
        # outcomes are constant per fold of the train rows, so out-of-fold
        # predictions must carry the other fold's constant; rows outside the
        # train rows are predicted by the fit on every train row, which never
        # sees their outcomes
        rng = np.random.default_rng(10)
        n, seed = 500, 1
        x = rng.standard_normal((n, 2))
        train_rows = rng.permutation(n)[:400]
        fold = cf.make_folds(train_rows.size, 2, seed)
        y_obs = np.full(n, 10.0)
        y_obs[train_rows] = fold  # fold 0 -> 0, fold 1 -> 1, whichever action is logged
        logged = cf.LoggedDataset(x, np.arange(n) % 2, y_obs, k=2)
        cfg = TrainConfig(learning_rate=5e-2, batch_size=128, max_epochs=100, patience=100,
                          seed=seed)
        gamma_hat = cf.fit_outcome_regression(logged, train_rows, cfg, hidden=(), folds=2)
        assert np.all(np.abs(gamma_hat[train_rows[fold == 0]] - 1.0) < 0.1)
        assert np.all(np.abs(gamma_hat[train_rows[fold == 1]] - 0.0) < 0.1)
        rest = np.setdiff1d(np.arange(n), train_rows)
        assert np.all(np.abs(gamma_hat[rest] - 0.5) < 0.25)

    def test_single_fold_is_in_sample(self):
        rng = np.random.default_rng(11)
        n = 100
        x = rng.standard_normal((n, 2))
        logged = cf.LoggedDataset(x, np.arange(n) % 2, rng.standard_normal(n), k=2)
        cfg = TrainConfig(learning_rate=1e-2, batch_size=64, max_epochs=5, patience=5, seed=2)
        out = cf.fit_outcome_regression(logged, np.arange(n), cfg, hidden=())
        assert out.shape == (n, 2)

    def test_empty_fold_rejected(self):
        rng = np.random.default_rng(12)
        n = 10
        logged = cf.LoggedDataset(
            rng.standard_normal((n, 2)), np.ones(n, dtype=int), np.zeros(n), k=2
        )
        with pytest.raises(ValueError, match="train_rows is empty"):
            cf.fit_outcome_regression(logged, np.arange(0))
        with pytest.raises(ValueError, match="n_folds <= n"):
            cf.fit_outcome_regression(logged, np.arange(1), folds=2)

    @pytest.mark.parametrize("folds", [1, -1])
    def test_one_fold_rejected(self, folds):
        logged = cf.LoggedDataset(np.zeros((10, 2)), np.ones(10, dtype=int), np.zeros(10), k=2)
        with pytest.raises(ValueError, match="folds must be 0 or at least 2"):
            cf.fit_outcome_regression(logged, np.arange(10), folds=folds)

    def test_rows_outside_train_rows_match_the_unfolded_fit(self):
        # cross-fitting overwrites only the training rows: every other row keeps the
        # all-train model's prediction, bit for bit
        rng = np.random.default_rng(14)
        n, k = 700, 3
        logged = cf.LoggedDataset(rng.standard_normal((n, 4)), rng.integers(1, k + 1, size=n),
                                  rng.standard_normal(n), k=k)
        train_rows = rng.permutation(n)[:420]
        cfg = TrainConfig(learning_rate=1e-2, batch_size=64, max_epochs=3, patience=3, seed=5)
        folded = cf.fit_outcome_regression(logged, train_rows, cfg, hidden=(16,), folds=2)
        unfolded = cf.fit_outcome_regression(logged, train_rows, cfg, hidden=(16,), folds=0)
        rest = np.ones(n, dtype=bool)
        rest[train_rows] = False
        assert folded[rest].tobytes() == unfolded[rest].tobytes()
        assert not np.array_equal(folded[train_rows], unfolded[train_rows])

    def test_more_folds_than_train_rows_rejected_before_any_fit(self, monkeypatch):
        def no_fit(*args):
            raise AssertionError("map_train called")

        monkeypatch.setattr(cf, "map_train", no_fit)
        logged = cf.LoggedDataset(np.zeros((10, 2)), np.ones(10, dtype=int), np.zeros(10), k=2)
        with pytest.raises(ValueError, match="need 1 <= n_folds <= n"):
            cf.fit_outcome_regression(logged, np.arange(4), folds=5)

    def test_cross_fitting_fit_count_and_rows(self, monkeypatch):
        # folds + 1 fits: one on every train row, one per fold on the other folds'
        # rows; each trains on all but a fifth of its rows (at least one
        # held out), the counts perfbench's optimiser_steps assumes
        calls = []

        def fake_map_train(arch, loss, gibbs, cfg, tr_rows, val_rows):
            calls.append((tr_rows.size, val_rows.size))
            return np.zeros(arch.param_count)

        monkeypatch.setattr(cf, "map_train", fake_map_train)
        rng = np.random.default_rng(13)
        n, n_train, folds = 50, 37, 2
        logged = cf.LoggedDataset(rng.standard_normal((n, 2)), np.arange(n) % 2,
                                  np.zeros(n), k=2)
        train_rows = rng.permutation(n)[:n_train]
        cf.fit_outcome_regression(logged, train_rows, TrainConfig(seed=3), hidden=(4,),
                                  folds=folds)
        fit_rows = [n_train] + [n_train - (n_train + folds - 1 - j) // folds
                                for j in range(folds)]
        expected = [(r - max(1, r // 5), max(1, r // 5)) for r in fit_rows]
        assert sorted(calls) == sorted(expected)

    @pytest.mark.parametrize("folds", [0, 2])
    def test_unobserved_action_named_before_its_fit(self, folds, monkeypatch):
        # action 3 is logged only in fold 0 of the train rows: the all-rows fit
        # sees it, the model fitted on fold 1 for fold 0 does not; unfolded,
        # no training row logs it at all
        def no_fit(*args):
            raise AssertionError("map_train called")

        monkeypatch.setattr(cf, "map_train", no_fit)
        n = 60
        train_rows = np.arange(n)
        a = np.arange(n) % 2 + 1
        if folds:
            a[train_rows[cf.make_folds(n, folds, 0) == 0]] = 3
        logged = cf.LoggedDataset(np.zeros((n, 2)), a, np.zeros(n), k=3)
        with pytest.raises(ValueError, match="action 3 is never observed in the training rows; "
                                             "cannot fit its outcome regression"):
            cf.fit_outcome_regression(logged, train_rows, TrainConfig(seed=0), hidden=(),
                                      folds=folds)

    def test_no_table_of_every_row_is_alive_while_a_net_trains(self, monkeypatch):
        # the fold fits run first and keep only their held-out rows' predictions, and
        # the (n, K) result is made after the last fit; 20,000 rows dwarf the net and
        # the 400 training rows, so a table alive at a fit's start shows
        entries = []
        map_train = cf.map_train

        def recording_map_train(*args, **kwargs):
            entries.append(tracemalloc.get_traced_memory()[0])
            return map_train(*args, **kwargs)

        monkeypatch.setattr(cf, "map_train", recording_map_train)
        rng = np.random.default_rng(16)
        n, k = 20000, 5
        logged = cf.LoggedDataset(rng.standard_normal((n, 3)), rng.integers(1, k + 1, size=n),
                                  rng.standard_normal(n), k=k)
        train_rows = rng.permutation(n)[:400]
        cfg = TrainConfig(batch_size=64, max_epochs=1, patience=1, seed=4)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            cf.fit_outcome_regression(logged, train_rows, cfg, hidden=(8,), folds=2)
        finally:
            tracemalloc.stop()
        table = n * k * 8
        assert len(entries) == 3
        assert max(entries) - start < table, [(m - start) / table for m in entries]

    def test_masked_gradient_zero_on_unobserved_columns(self):
        # column 1 is never observed, so every parameter feeding only that
        # output must have exactly zero gradient; FD agrees on the rest
        rng = np.random.default_rng(13)
        n, d, k = 30, 2, 2
        x = rng.standard_normal((n, d))
        y = rng.standard_normal(n)
        cols = np.zeros(n, dtype=np.intp)
        arch = nnet.MlpArchitecture(d, (), k, nnet.HEAD_IDENTITY)
        adapter = MaskedRegressionLoss(x, y, cols)
        params = rng.standard_normal(arch.param_count)
        grad = analytic_grad(arch, params, adapter)
        w_grad = grad[: d * k].reshape(d, k)
        assert np.all(w_grad[:, 1] == 0.0)
        assert grad[d * k + 1] == 0.0  # bias of the unobserved column
        coords = rng.choice(arch.param_count, size=arch.param_count, replace=False)
        fd = finite_diff_grad(lambda w: total_loss(arch, w, adapter), params, coords)
        assert max_rel_error(grad[coords], fd) < 1e-5


class TestIpwEquivalence:
    def _logged_with_truth(self, rng, n, k):
        x = rng.standard_normal((n, 2))
        e = _simplex_rows(rng, n, k) * 0.7 + 0.3 / k
        e /= e.sum(axis=1, keepdims=True)
        cols = (rng.random(n)[:, None] > np.cumsum(e, axis=1)).sum(axis=1)
        y = rng.standard_normal((n, k))
        y_obs = y[np.arange(n), cols]
        a = cols + 1 if k > 2 else np.where(cols == 0, 1, 0)
        return cf.LoggedDataset(x, a, y_obs, k=k, true_propensity=e)

    def test_onehot_grid(self):
        rng = np.random.default_rng(14)
        logged = self._logged_with_truth(rng, 50, 3)
        grid = []
        for a in range(3):
            onehot = np.zeros((50, 3))
            onehot[:, a] = 1.0
            grid.append(onehot)
        report = cf.ipw_welfare_equivalence_check(logged, grid, 0.5)
        assert report.equal
        assert report.max_affine_error < 1e-10

    def test_single_policy(self):
        rng = np.random.default_rng(15)
        logged = self._logged_with_truth(rng, 20, 3)
        report = cf.ipw_welfare_equivalence_check(logged, [_simplex_rows(rng, 20, 3)], 1.0)
        assert report.equal

    def test_random_grid_identity(self):
        rng = np.random.default_rng(16)
        logged = self._logged_with_truth(rng, 60, 4)
        grid = [_simplex_rows(rng, 60, 4) for _ in range(20)]
        report = cf.ipw_welfare_equivalence_check(logged, grid, 2.0)
        assert report.equal
        assert report.max_affine_error < 1e-10

    @pytest.mark.parametrize("zeta", [np.nan, np.inf])
    def test_rejects_nonfinite_zeta(self, zeta):
        logged = self._logged_with_truth(np.random.default_rng(18), 20, 3)
        with pytest.raises(ValueError, match="zeta must be positive and finite"):
            cf.ipw_welfare_equivalence_check(logged, [np.full((20, 3), 1 / 3)], zeta)

    def test_requires_true_propensity(self):
        rng = np.random.default_rng(17)
        logged = cf.LoggedDataset(
            rng.standard_normal((10, 2)), np.ones(10, dtype=int), np.zeros(10), k=3
        )
        with pytest.raises(ValueError):
            cf.ipw_welfare_equivalence_check(logged, [np.full((10, 3), 1 / 3)], 1.0)


class TestBinaryObjectiveWithPseudoDifferences:
    def test_equivalence_report_holds_verbatim(self):
        # the binary surrogate identity is pure algebra in the difference, so
        # substituting the IPW pseudo-outcome columns leaves it intact
        rng = np.random.default_rng(18)
        n = 80
        x = rng.standard_normal((n, 3))
        e1 = rng.uniform(0.25, 0.75, size=n)
        e = np.column_stack([e1, 1.0 - e1])
        a = np.where(rng.random(n) < e1, 1, 0)
        y_obs = rng.standard_normal(n) + (a == 1)
        logged = cf.LoggedDataset(x, a, y_obs, k=2, true_propensity=e)
        tilde = cf.ipw_pseudo_outcomes(logged, e)
        pseudo_data = FullFeedbackDataset(x, tilde)
        grid = [rng.uniform(0, 1, size=n) for _ in range(9)]
        for zeta in (0.05, 0.5, 2.0):
            report = verify_equivalence_binary(pseudo_data, grid, zeta)
            assert report.equal
            assert report.max_affine_error < 1e-10
        diff = reference_pseudo_difference_binary(logged, e)
        np.testing.assert_allclose(pseudo_data.outcome_diff(), diff, atol=1e-12)


class TestPseudoOutcomeWelfareIdentity:
    def test_dr_penalized_welfare_equals_risk_differences(self):
        # pseudo-outcome penalized welfare differences equal surrogate risk
        # differences with the penalty at half the scale, sign flipped
        rng = np.random.default_rng(19)
        n, k = 40, 3
        x = rng.standard_normal((n, 2))
        e = _simplex_rows(rng, n, k) * 0.6 + 0.4 / k
        e /= e.sum(axis=1, keepdims=True)
        cols = (rng.random(n)[:, None] > np.cumsum(e, axis=1)).sum(axis=1)
        y = rng.standard_normal((n, k))
        a = cols + 1
        logged = cf.LoggedDataset(x, a, y[np.arange(n), cols], k=k, true_propensity=e)
        gamma_hat = rng.standard_normal((n, k))  # arbitrary; identity is algebraic
        tilde = cf.dr_pseudo_outcomes(logged, e, gamma_hat)
        pseudo = FullFeedbackDataset(x, tilde)
        from gbpl.surrogate import verify_equivalence_fullvector

        report = verify_equivalence_fullvector(pseudo, [_simplex_rows(rng, n, k) for _ in range(8)], 0.9)
        assert report.equal
        assert report.max_affine_error < 1e-10
