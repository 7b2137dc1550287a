import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import peak_bytes
from gbpl import counterfactual as cf
from gbpl import evaluation as ev
from gbpl import experiment as ex
from gbpl import nnet
from gbpl import surrogate as sg
from gbpl.dgp import DgpSpec
from gbpl.evaluation import oracle_welfare
from gbpl.losses import FullVectorSurrogateLoss
from gbpl.methods import FittedPolicy
from gbpl.posterior import (FLAT_PRIOR, GibbsConfig, SgldConfig, TrainConfig,
                            finite_gibbs_posterior, map_train, sgld_sample,
                            variational_objective)


def _random_simplex_rows(rng, n, k):
    g = rng.gamma(1.0, 1.0, size=(n, k))
    return g / g.sum(axis=1, keepdims=True)


def _binary_penalty(delta):
    """Per-row binary penalty (2 delta_1 - 1)^2 of (n, 2) policy rows."""
    return (2.0 * delta[:, 0] - 1.0) ** 2


def _fullvector_penalty(delta):
    return (delta**2).sum(axis=1)


def _penalized_welfare(data, delta, lam, penalty):
    """Empirical welfare minus ``lam`` times the mean per-row penalty."""
    return sg.empirical_welfare(data, delta) - lam * float(np.mean(penalty(delta)))


class TestFullFeedbackDatasetValidation:
    @pytest.mark.parametrize(
        "x, y, message",
        [(np.zeros(3), np.zeros((3, 2)), "x and y must be 2-D arrays"),
         (np.zeros((3, 1)), np.zeros(3), "x and y must be 2-D arrays"),
         (np.zeros((3, 1)), np.zeros((2, 2)), "x and y row counts differ"),
         (np.zeros((0, 1)), np.zeros((0, 2)), "dataset must have at least one row"),
         (np.zeros((3, 0)), np.zeros((3, 2)), r"^x must have at least one covariate column"),
         (np.zeros((3, 1)), np.zeros((3, 1)), "need at least two actions"),
         (np.zeros((3, 1)), np.array([[0.0, 1.0], [np.nan, 0.0], [0.0, 0.0]]),
          "^y must be finite"),
         (np.array([[0.0], [np.inf], [0.0]]), np.zeros((3, 2)), "^x must be finite")],
        ids=["x-1d", "y-1d", "row-counts", "no-rows", "no-covariates", "one-action", "y-nan",
             "x-inf"],
    )
    def test_rejected(self, x, y, message):
        with pytest.raises(ValueError, match=message):
            sg.FullFeedbackDataset(x, y)


def _with_entry(shape, fill, bad):
    """An array of ``fill`` whose first entry is ``bad``."""
    a = np.full(shape, fill)
    a.flat[0] = bad
    return a


_LOGGED = cf.LoggedDataset(np.zeros((2, 1)), np.array([1, 0]), np.zeros(2), k=2)

# (build from a bad array entry, the field the message names)
_ARRAY_ROUTES = {
    "dataset-x": (lambda v: sg.FullFeedbackDataset(_with_entry((3, 1), 0.0, v),
                                                   np.zeros((3, 2))), "x"),
    "dataset-y": (lambda v: sg.FullFeedbackDataset(np.zeros((3, 1)),
                                                   _with_entry((3, 2), 0.0, v)), "y"),
    "logged-x": (lambda v: cf.LoggedDataset(_with_entry((2, 1), 0.0, v), np.array([1, 0]),
                                            np.zeros(2), k=2), "x"),
    "logged-y_obs": (lambda v: cf.LoggedDataset(np.zeros((2, 1)), np.array([1, 0]),
                                                _with_entry(2, 0.0, v), k=2), "y_obs"),
    "true_propensity": (lambda v: cf.LoggedDataset(np.zeros((2, 1)), np.array([1, 0]),
                                                   np.zeros(2), k=2,
                                                   true_propensity=_with_entry((2, 2), 0.5, v)),
                        "true_propensity"),
    "e_hat": (lambda v: cf.dr_pseudo_outcomes(_LOGGED, _with_entry((2, 2), 0.5, v),
                                              np.zeros((2, 2))), "propensity matrix"),
    "gamma_hat": (lambda v: cf.dr_pseudo_outcomes(_LOGGED, np.full((2, 2), 0.5),
                                                  _with_entry((2, 2), 0.0, v)), "gamma_hat"),
    "welfare-values": (lambda v: ev.welfare_credible_interval(_with_entry(3, 0.0, v)),
                       "welfare values"),
    "eval_points": (lambda v: ex.PosteriorVizConfig("unused", eval_points=(1.0, v)),
                    "eval_points"),
}

# build from a bad scalar, by the name the message gives it
_SCALAR_ROUTES = {
    "zeta": lambda v: GibbsConfig(zeta=v),
    "eta": lambda v: GibbsConfig(zeta=0.1, eta=v),
    "tau2": lambda v: GibbsConfig(zeta=0.1, tau2=v),
    "learning_rate": lambda v: TrainConfig(learning_rate=v),
    "step_size": lambda v: SgldConfig(step_size=v),
    "clip_norm": lambda v: SgldConfig(clip_norm=v),
    "v": lambda v: ev.PacBayesInputs(0.5, 1.0, 10, 0.05, v, 1.0, 0.5),
    "b": lambda v: ev.PacBayesInputs(0.5, 1.0, 10, 0.05, 1.0, v, 0.5),
}


def _bad_row(p, bad):
    """A copy of ``p`` whose first row (along the last axis) is broken:
    ``"negative"`` moves mass so its first entry is -0.1 and its sum stays,
    ``"off-sum"`` adds 1e-6 to its first entry, ``"nan"`` makes it NaN."""
    p = np.array(p, dtype=np.float64)
    row = p.reshape(-1, p.shape[-1])[0]
    if bad == "negative":
        shift = row[0] + 0.1
        row[0] -= shift
        row[1] += shift
    else:
        row[0] = row[0] + 1e-6 if bad == "off-sum" else np.nan
    return p


_SQUARE = sg.FullFeedbackDataset(np.zeros((2, 1)), np.array([[1.0, 0.0], [0.0, 1.0]]))
_THIRDS = np.full(3, 1.0 / 3.0)
_DGP = DgpSpec("binary2", 100)
_METHOD = ex.MethodSpec("GBPLNet", "gbpl", zeta=0.1)

# (build from a bad probability array, the field the message names); each
# route breaks a valid array with ``_bad_row``
_SIMPLEX_ROUTES = {
    "empirical_welfare": (lambda b: sg.empirical_welfare(
        _SQUARE, _bad_row(np.full((2, 2), 0.5), b)), "policy"),
    "equivalence-fullvector": (lambda b: sg.verify_equivalence_fullvector(
        _SQUARE, [_bad_row(np.full((2, 2), 0.5), b)], 1.0), "policy"),
    # a treatment probability of 1 + 1e-6 is the row (1 + 1e-6, -1e-6)
    "equivalence-binary": (lambda b: sg.verify_equivalence_binary(
        _SQUARE, [_bad_row([1.0, 0.0], b)], 1.0), "policy"),
    "e_hat": (lambda b: cf.dr_pseudo_outcomes(_LOGGED, _bad_row(np.full((2, 2), 0.5), b),
                                              np.zeros((2, 2))), "propensity matrix"),
    "true_propensity": (lambda b: cf.LoggedDataset(
        np.zeros((2, 1)), np.array([1, 0]), np.zeros(2), k=2,
        true_propensity=_bad_row(np.full((2, 2), 0.5), b)), "true_propensity"),
    "variational-q": (lambda b: variational_objective(_bad_row(_THIRDS, b), _THIRDS,
                                                      np.zeros(3), 1.0), "q"),
    "variational-prior": (lambda b: variational_objective(_THIRDS, _bad_row(_THIRDS, b),
                                                          np.zeros(3), 1.0), "prior"),
    "gibbs-prior": (lambda b: finite_gibbs_posterior(_bad_row(_THIRDS, b), np.zeros(3), 1.0),
                    "prior"),
    "experiment-split": (lambda b: ex.ExperimentConfig(
        _DGP, (_METHOD,), "unused", split=tuple(_bad_row((0.6, 0.2, 0.2), b))), "split"),
    "posterior-viz-split": (lambda b: ex.PosteriorVizConfig(
        "unused", split=tuple(_bad_row((0.6, 0.2, 0.2), b))), "split"),
}

_ROWS_DATA = sg.FullFeedbackDataset(np.arange(4.0)[:, None], np.eye(4)[:, :2])
_ROWS_ARCH = nnet.MlpArchitecture(1, (), 2, nnet.HEAD_SOFTMAX)
_ROWS_POLICY = FittedPolicy(_ROWS_ARCH, np.zeros(_ROWS_ARCH.param_count))
_ROWS_LOSS = FullVectorSurrogateLoss(_ROWS_DATA.x, _ROWS_DATA.y, 1.0)
_ROWS_LOGGED = cf.LoggedDataset(_ROWS_DATA.x, np.array([1, 0, 1, 0]), np.zeros(4), k=2)
_ONE_EPOCH = TrainConfig(max_epochs=1, patience=1)
_ONE_DRAW = SgldConfig(burn_in=0, n_draws=1, thin=1)

# (score or fit with a bad row-index argument, the field the message names)
_ROWS_ROUTES = {
    "empirical_welfare": (lambda r: sg.empirical_welfare(_ROWS_DATA, np.full((len(r), 2), 0.5), r),
                          "rows"),
    "test_welfare-deterministic": (lambda r: ev.test_welfare(
        _ROWS_DATA, _ROWS_POLICY, ev.RULE_DETERMINISTIC, r), "rows"),
    "test_welfare-randomized": (lambda r: ev.test_welfare(
        _ROWS_DATA, _ROWS_POLICY, ev.RULE_RANDOMIZED, r), "rows"),
    "oracle_welfare": (lambda r: oracle_welfare(_ROWS_DATA, r), "rows"),
    "map_train-train": (lambda r: map_train(_ROWS_ARCH, _ROWS_LOSS, FLAT_PRIOR, _ONE_EPOCH, r,
                                            np.arange(4)), "train_rows"),
    "map_train-val": (lambda r: map_train(_ROWS_ARCH, _ROWS_LOSS, FLAT_PRIOR, _ONE_EPOCH,
                                          np.arange(4), r), "val_rows"),
    "sgld_sample": (lambda r: sgld_sample(_ROWS_ARCH, _ROWS_LOSS, FLAT_PRIOR,
                                          np.zeros(_ROWS_ARCH.param_count), _ONE_DRAW, rows=r),
                    "rows"),
    "fit_outcome_regression": (lambda r: cf.fit_outcome_regression(
        _ROWS_LOGGED, r, _ONE_EPOCH, hidden=(2,)), "train_rows"),
}


class TestInputChecks:
    @pytest.mark.parametrize("route", sorted(_ARRAY_ROUTES))
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_array_rejected_naming_its_field(self, route, bad):
        build, field = _ARRAY_ROUTES[route]
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            build(bad)

    @pytest.mark.parametrize("name", sorted(_SCALAR_ROUTES))
    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf], ids=["zero", "negative", "nan",
                                                                    "inf"])
    def test_out_of_range_scalar_rejected_naming_its_field(self, name, bad):
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite, "
                                             f"got {re.escape(repr(bad))}$"):
            _SCALAR_ROUTES[name](bad)

    @pytest.mark.parametrize("route", sorted(_SIMPLEX_ROUTES))
    @pytest.mark.parametrize("bad", ["negative", "off-sum", "nan"])
    def test_off_simplex_array_rejected_naming_its_field(self, route, bad):
        # a NaN propensity meets check_finite, which runs first
        build, field = _SIMPLEX_ROUTES[route]
        with pytest.raises(ValueError, match=rf"^{field} must be (probability rows: every entry "
                                             r"at least \S+, each row summing to 1 within "
                                             r"1e-09|finite)$"):
            build(bad)

    def _rejects_rows(self, route, rows):
        build, field = _ROWS_ROUTES[route]
        with pytest.raises(ValueError, match=rf"^{field} must be nonempty 1-D integer row "
                                             r"indices in 0 \.\. 3$"):
            build(np.array(rows))

    @pytest.mark.parametrize("route", sorted(_ROWS_ROUTES))
    def test_empty_rows_rejected(self, route):
        # a welfare over no rows was NaN with a RuntimeWarning
        self._rejects_rows(route, np.array([], dtype=np.intp))

    @pytest.mark.parametrize("route", sorted(_ROWS_ROUTES))
    def test_boolean_mask_rows_rejected(self, route):
        # an intp cast read the mask as the indices 1, 0, 1, 0
        self._rejects_rows(route, [True, False, True, False])

    @pytest.mark.parametrize("route", sorted(_ROWS_ROUTES))
    def test_negative_rows_rejected(self, route):
        # -1 indexed the last row
        self._rejects_rows(route, [-1, 0])

    @pytest.mark.parametrize("route", sorted(_ROWS_ROUTES))
    def test_out_of_range_rows_rejected(self, route):
        self._rejects_rows(route, [0, 4])

    def test_check_rows_returns_intp(self):
        rows = sg.check_rows("rows", np.array([3, 0], dtype=np.int32), 4)
        assert rows.dtype == np.intp and rows.tolist() == [3, 0]

    def test_check_simplex_on_a_vector(self):
        sg.check_simplex("p", np.array([0.25, 0.75]))
        sg.check_simplex("p", np.array([0.25, 0.75 + 0.5e-9]))
        sg.check_simplex("p", np.array([-0.5e-9, 1.0]), floor=-1e-9)
        for bad in ([0.25, 0.7], [-0.5e-9, 1.0], [np.inf, 0.0], [0.5, np.nan]):
            with pytest.raises(ValueError, match="^p must be probability rows: every entry at "
                                                 "least 0, each row"):
                sg.check_simplex("p", np.array(bad))

    def test_check_simplex_on_a_table(self):
        rng = np.random.default_rng(7)
        p = _random_simplex_rows(rng, 50, 4)
        sg.check_simplex("p", p)
        sg.check_simplex("p", np.zeros((0, 4)))
        with pytest.raises(ValueError, match="entry at least 0.5"):
            sg.check_simplex("p", p, floor=0.5)
        for row in (0, 17, 49):
            bad = p.copy()
            bad[row] *= 1.0 + 1e-6
            with pytest.raises(ValueError, match="^p must be probability rows"):
                sg.check_simplex("p", bad)

    def test_dataset_check_allocates_no_temporary_the_size_of_x(self):
        # a boolean mask of the 200,000 x 10 covariates would be 2 MB
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal((200_000, 10)), rng.standard_normal((200_000, 2))
        assert peak_bytes(lambda: sg.FullFeedbackDataset(x, y)) < 0.5e6


class TestBinaryLoss:
    def test_hand_values(self):
        assert sg.binary_loss(1.0, 0.5, 0.5) == 0.0
        assert sg.binary_loss(1.0, 1.0, 0.0) == 0.5
        assert sg.binary_loss(4.0, 2.0, -1.0) == pytest.approx(4.5, abs=1e-15)

    def test_zero_iff_u_equals_zeta_f(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            zeta = float(rng.uniform(0.05, 5.0))
            f = float(rng.uniform(-1, 1))
            assert sg.binary_loss(zeta, zeta * f, f) == pytest.approx(0.0, abs=1e-18)

    def test_rejects_nonpositive_zeta(self):
        with pytest.raises(ValueError):
            sg.binary_loss(0.0, 1.0, 0.0)


class TestNonFiniteZeta:
    # NaN fails a ``zeta <= 0`` test, so both checkers once certified NaN and
    # inf as equal=True with empty arg-optimum sets and a NaN affine error
    @pytest.mark.parametrize("zeta", [np.nan, np.inf, np.array([1.0, np.nan]),
                                      np.array([np.inf, 1.0])])
    def test_losses_reject(self, zeta):
        for loss in (sg.binary_loss, sg.binary_loss_decomposition):
            with pytest.raises(ValueError, match="zeta must be positive and finite"):
                loss(zeta, np.ones(2), np.zeros(2))

    @pytest.mark.parametrize("zeta", [np.nan, np.inf])
    def test_checkers_reject(self, zeta):
        rng = np.random.default_rng(3)
        data = sg.FullFeedbackDataset(rng.standard_normal((20, 2)), rng.standard_normal((20, 2)))
        probs = [np.full(20, c) for c in (0.0, 0.5, 1.0)]
        with pytest.raises(ValueError, match="zeta must be positive and finite"):
            sg.verify_equivalence_binary(data, probs, zeta)
        rows = [np.column_stack([p, 1.0 - p]) for p in probs]
        with pytest.raises(ValueError, match="zeta must be positive and finite"):
            sg.verify_equivalence_fullvector(data, rows, zeta)


class TestDecomposition:
    def test_hand_values(self):
        assert sg.binary_loss_decomposition(1.0, 1.0, 0.0) == (0.5, 0.0, 0.0)
        const, lin, quad = sg.binary_loss_decomposition(2.0, 0.0, 1.0)
        assert (const, lin, quad) == (0.0, -0.0, 1.0)

    def test_identity_random_triples(self):
        rng = np.random.default_rng(1)
        zeta = rng.uniform(0.01, 10.0, size=10_000)
        u = rng.standard_normal(10_000) * 3.0
        f = rng.uniform(-1.0, 1.0, size=10_000)
        for z, ui, fi in zip(zeta, u, f):
            parts = sg.binary_loss_decomposition(z, ui, fi)
            assert abs(sum(parts) - sg.binary_loss(z, ui, fi)) < 1e-12


class TestFullVectorLoss:
    def test_hand_values(self):
        assert sg.binary_loss(1.0, np.array([1.0, 0.0]), np.array([1.0, 0.0])).sum(axis=-1) == 0.0
        v = sg.binary_loss(1.0, np.zeros(3), np.full(3, 1.0 / 3.0)).sum(axis=-1)
        assert v == pytest.approx(1.0 / 6.0, abs=1e-15)
        v = sg.binary_loss(2.0, np.array([2.0, 0.0]), np.array([0.5, 0.5])).sum(axis=-1)
        assert v == pytest.approx(0.5, abs=1e-15)


class TestWelfare:
    def test_single_row_picks_first_action(self):
        data = sg.FullFeedbackDataset(np.zeros((1, 1)), np.array([[3.0, 1.0]]))
        assert sg.empirical_welfare(data, np.array([[1.0, 0.0]])) == 3.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_policy_row_rejected(self, bad):
        data = sg.FullFeedbackDataset(np.zeros((2, 1)), np.array([[1.0, 0.0], [0.0, 1.0]]))
        delta = np.array([[1.0, 0.0], [bad, 0.5]])
        with pytest.raises(ValueError, match="^policy must be probability rows"):
            sg.empirical_welfare(data, delta)

    def test_indexed_rows_score_in_place_of_a_copy(self):
        # the products go over the gathered copy of y: the bits of the
        # allocating form, and neither input is written
        rng = np.random.default_rng(4)
        data = sg.FullFeedbackDataset(rng.standard_normal((50, 2)), rng.standard_normal((50, 3)))
        rows = rng.permutation(50)[:20]
        delta = _random_simplex_rows(rng, 20, 3)
        y, d = data.y.copy(), delta.copy()
        expected = float((delta * data.y[rows]).sum() / 20)
        assert sg.empirical_welfare(data, delta, rows) == expected
        assert data.y.tobytes() == y.tobytes() and delta.tobytes() == d.tobytes()

    def test_simplex_check_makes_no_table_the_size_of_the_policy(self):
        # over the gathered copy of y, the check holds only the row sums: no
        # (n, K) boolean table and no second n-vector
        n, k = 42_000, 5
        rng = np.random.default_rng(5)
        data = sg.FullFeedbackDataset(np.zeros((n, 1)), rng.standard_normal((n, k)))
        delta, rows = _random_simplex_rows(rng, n, k), np.arange(n)
        peak = peak_bytes(lambda: sg.empirical_welfare(data, delta, rows))
        assert peak < data.y.nbytes + 1.5 * n * 8

    def test_uniform_policy_averages(self):
        data = sg.FullFeedbackDataset(np.zeros((2, 1)), np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert sg.empirical_welfare(data, np.full((2, 2), 0.5)) == 0.5

    def test_onehot_argmax_matches_oracle(self):
        rng = np.random.default_rng(2)
        data = sg.FullFeedbackDataset(rng.standard_normal((40, 2)), rng.standard_normal((40, 4)))
        best = data.y.argmax(axis=1)
        onehot = np.zeros_like(data.y)
        onehot[np.arange(40), best] = 1.0
        assert sg.empirical_welfare(data, onehot) == pytest.approx(oracle_welfare(data), abs=1e-12)

    def test_penalized_welfare_kinds(self):
        # the checkers' penalized welfare: the binary penalty vanishes at the
        # coin flip, the full-vector one is 1/K at the uniform policy
        rng = np.random.default_rng(3)
        data = sg.FullFeedbackDataset(rng.standard_normal((30, 2)), rng.standard_normal((30, 2)))
        p = rng.uniform(0.0, 1.0, 30)
        delta = np.column_stack([p, 1.0 - p])
        report = sg.verify_equivalence_binary(data, [p, np.full(30, 0.5)], 8.0)
        assert report.penalized[0] == _penalized_welfare(data, delta, 2.0, _binary_penalty)
        assert report.penalized[1] == sg.empirical_welfare(data, np.full((30, 2), 0.5))
        k = 5
        data_k = sg.FullFeedbackDataset(rng.standard_normal((30, 2)), rng.standard_normal((30, k)))
        uniform = np.full((30, k), 1.0 / k)
        report = sg.verify_equivalence_fullvector(data_k, [uniform], 2.0)
        assert report.penalty_weight == 1.0
        assert report.penalized[0] == pytest.approx(
            sg.empirical_welfare(data_k, uniform) - 1.0 / k, abs=1e-14
        )


def _brute_force_sets(objective_values, maximize):
    best = max(objective_values) if maximize else min(objective_values)
    return tuple(i for i, v in enumerate(objective_values) if abs(v - best) <= 1e-12)


class TestBinaryEquivalence:
    """The surrogate argmin over a policy grid must coincide with the argmax
    of welfare penalized at a quarter of the scale, exactly and for every
    grid; the two objectives differ by an affine map with slope -2."""

    def _brute_force_check(self, data, grid, zeta):
        report = sg.verify_equivalence_binary(data, grid, zeta)
        # independent enumeration with plain python loops
        u = data.y[:, 0] - data.y[:, 1]
        surr, penal = [], []
        for p in grid:
            f = 2.0 * np.asarray(p) - 1.0
            surr.append(float(np.mean([sg.binary_loss(zeta, ui, fi) for ui, fi in zip(u, f)])))
            welf = float(np.mean(p * data.y[:, 0] + (1 - np.asarray(p)) * data.y[:, 1]))
            penal.append(welf - (zeta / 4.0) * float(np.mean((2 * np.asarray(p) - 1) ** 2)))
        assert report.argmin_surrogate == _brute_force_sets(surr, maximize=False)
        assert report.argmax_penalized == _brute_force_sets(penal, maximize=True)
        assert report.equal
        assert report.max_affine_error < 1e-10
        np.testing.assert_allclose(report.surrogate, surr, rtol=0, atol=1e-12)
        np.testing.assert_allclose(report.penalized, penal, rtol=0, atol=1e-12)

    def test_constant_policy_grid(self):
        rng = np.random.default_rng(4)
        data = sg.FullFeedbackDataset(rng.standard_normal((25, 3)), rng.standard_normal((25, 2)))
        grid = [np.full(25, c) for c in (0.0, 0.5, 1.0)]
        for zeta in (0.01, 0.1, 1.0, 4.0):
            self._brute_force_check(data, grid, zeta)

    def test_single_policy_grid(self):
        rng = np.random.default_rng(5)
        data = sg.FullFeedbackDataset(rng.standard_normal((10, 2)), rng.standard_normal((10, 2)))
        report = sg.verify_equivalence_binary(data, [rng.uniform(0, 1, 10)], 0.5)
        assert report.equal and report.argmin_surrogate == (0,)

    def test_threshold_policy_grid(self):
        rng = np.random.default_rng(6)
        n = 50
        x = rng.standard_normal((n, 4))
        y = np.column_stack([x[:, 0] + rng.standard_normal(n), rng.standard_normal(n)])
        data = sg.FullFeedbackDataset(x, y)
        grid = [(x[:, 0] > t).astype(float) for t in np.linspace(-2, 2, 21)]
        for zeta in (0.01, 0.1, 1.0):
            self._brute_force_check(data, grid, zeta)


class TestFullVectorEquivalence:
    def test_uniform_and_onehot_constants(self):
        rng = np.random.default_rng(7)
        k, n = 3, 30
        data = sg.FullFeedbackDataset(rng.standard_normal((n, 2)), rng.standard_normal((n, k)))
        grid = [np.full((n, k), 1.0 / k)]
        for a in range(k):
            onehot = np.zeros((n, k))
            onehot[:, a] = 1.0
            grid.append(onehot)
        report = sg.verify_equivalence_fullvector(data, grid, 0.7)
        assert report.equal
        assert report.max_affine_error < 1e-10
        assert report.slope == -1.0

    def test_tiny_zeta_recovers_unpenalized_argmax(self):
        rng = np.random.default_rng(8)
        k, n = 3, 40
        data = sg.FullFeedbackDataset(rng.standard_normal((n, 2)), rng.standard_normal((n, k)))
        grid = [_random_simplex_rows(rng, n, k) for _ in range(15)]
        welfare = [sg.empirical_welfare(data, p) for p in grid]
        gaps = np.diff(np.sort(welfare))
        assert np.all(gaps > 1e-6)  # generic grid, no near-ties
        report = sg.verify_equivalence_fullvector(data, grid, 1e-6)
        assert report.argmax_penalized == (int(np.argmax(welfare)),)
        assert report.equal

    def test_single_policy_grid(self):
        rng = np.random.default_rng(9)
        data = sg.FullFeedbackDataset(rng.standard_normal((5, 2)), rng.standard_normal((5, 3)))
        report = sg.verify_equivalence_fullvector(data, [_random_simplex_rows(rng, 5, 3)], 1.0)
        assert report.equal

    def test_random_grid_identity(self):
        rng = np.random.default_rng(10)
        k, n = 4, 25
        data = sg.FullFeedbackDataset(rng.standard_normal((n, 2)), rng.standard_normal((n, k)))
        grid = [_random_simplex_rows(rng, n, k) for _ in range(20)]
        report = sg.verify_equivalence_fullvector(data, grid, 2.5)
        assert report.equal
        assert report.max_affine_error < 1e-10

    @pytest.mark.parametrize("bad_row", [[0.7, 0.7], [-0.5, 1.5], [np.nan, 0.5], [np.inf, 0.0]],
                             ids=["sum-above-one", "negative", "nan", "inf"])
    def test_rejects_a_policy_row_off_the_simplex_or_not_finite(self, bad_row):
        data = sg.FullFeedbackDataset(np.zeros((2, 1)), np.array([[1.0, 0.0], [0.0, 1.0]]))
        grid = [np.full((2, 2), 0.5), np.array([[1.0, 0.0], bad_row])]
        with pytest.raises(ValueError, match="^policy must be probability rows"):
            sg.verify_equivalence_fullvector(data, grid, 1.0)


def _project(v):
    """One vector through the row-wise projection, as a one-row matrix."""
    return sg.project_simplex_rows(np.asarray(v, dtype=np.float64)[None, :])[0]


class TestProjectSimplex:
    def test_fixed_points(self):
        v = np.array([0.2, 0.3, 0.5])
        np.testing.assert_allclose(_project(v), v, rtol=0, atol=1e-15)

    def test_axis_point(self):
        np.testing.assert_allclose(_project(np.array([2.0, 0.0, 0.0])),
                                   [1.0, 0.0, 0.0], rtol=0, atol=1e-15)

    def test_known_projection(self):
        got = _project(np.array([0.9, 0.5, 0.1]))
        np.testing.assert_allclose(got, [0.7, 0.3, 0.0], rtol=0, atol=1e-12)

    def test_output_on_simplex(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            p = _project(rng.standard_normal(int(rng.integers(2, 9))) * 3.0)
            assert abs(p.sum() - 1.0) < 1e-12
            assert np.all(p >= 0.0)

    def test_grid_search_oracle(self):
        # dense grid over the 3-simplex at step 1e-3: the projection must be
        # at least as close as every grid point, and the grid can beat it by
        # at most its own resolution
        step = 1e-3
        ticks = np.arange(0.0, 1.0 + step / 2, step)
        a, b = np.meshgrid(ticks, ticks, indexing="ij")
        keep = a + b <= 1.0 + 1e-12
        grid = np.column_stack([a[keep], b[keep], 1.0 - a[keep] - b[keep]])
        rng = np.random.default_rng(14)
        for _ in range(100):
            v = rng.standard_normal(3) * 2.0
            p = _project(v)
            d_proj = np.sum((p - v) ** 2)
            d_grid = np.min(((grid - v) ** 2).sum(axis=1))
            assert d_proj <= d_grid + 1e-12
            assert d_grid - d_proj < 4.0 * step


class TestPopulationScore:
    def test_clipping(self):
        assert sg.population_score_binary(0.3) == 0.3
        assert sg.population_score_binary(5.0) == 1.0
        assert sg.population_score_binary(-5.0) == -1.0


def _shift_effect(data, deltas, c, zeta):
    """Effect of y_{i,a} -> y_{i,a} + c_i on a grid of simplex policies: the
    largest |welfare change - mean(c)|, the largest change of a pairwise
    difference of mean full-vector surrogates, and whether their ranking holds."""
    shifted = sg.FullFeedbackDataset(data.x, data.y + c[:, None])
    welfare_err = max(abs(sg.empirical_welfare(shifted, d) - sg.empirical_welfare(data, d)
                          - float(c.mean())) for d in deltas)
    base = np.array([np.mean(sg.binary_loss(zeta, data.y, d).sum(axis=-1)) for d in deltas])
    moved = np.array([np.mean(sg.binary_loss(zeta, shifted.y, d).sum(axis=-1))
                      for d in deltas])
    change = float(np.abs((moved[:, None] - moved) - (base[:, None] - base)).max())
    ranking_unchanged = np.array_equal(np.argsort(base, kind="stable"),
                                       np.argsort(moved, kind="stable"))
    return welfare_err, change, ranking_unchanged


class TestShiftInvariance:
    def test_zero_shift_is_exact(self):
        rng = np.random.default_rng(15)
        n, k = 20, 3
        data = sg.FullFeedbackDataset(rng.standard_normal((n, 2)), rng.standard_normal((n, k)))
        deltas = [_random_simplex_rows(rng, n, k) for _ in range(4)]
        welfare_err, change, ranking_unchanged = _shift_effect(data, deltas, np.zeros(n), 0.5)
        assert welfare_err == 0.0
        assert change == 0.0
        assert ranking_unchanged

    def test_symmetric_centering_preserves_ranking(self):
        rng = np.random.default_rng(16)
        n, k = 40, 4
        data = sg.FullFeedbackDataset(rng.standard_normal((n, 2)), rng.standard_normal((n, k)))
        deltas = [_random_simplex_rows(rng, n, k) for _ in range(10)]
        _, change, ranking_unchanged = _shift_effect(data, deltas, -data.y.mean(axis=1), 1.0)
        assert ranking_unchanged
        assert change < 1e-9

    def test_random_shift_preserves_differences(self):
        rng = np.random.default_rng(17)
        n, k = 30, 3
        data = sg.FullFeedbackDataset(rng.standard_normal((n, 2)), rng.standard_normal((n, k)))
        deltas = [_random_simplex_rows(rng, n, k) for _ in range(2)]
        welfare_err, change, _ = _shift_effect(data, deltas, rng.standard_normal(n) * 2.0, 0.3)
        assert change < 1e-9
        assert welfare_err < 1e-12


class TestWelfareRiskIdentities:
    """Empirical welfare-risk identities linking penalized welfare differences
    to surrogate risk differences, and the sandwich around raw welfare."""

    def test_binary_identity_and_sandwich(self):
        rng = np.random.default_rng(18)
        for _ in range(1000):
            n = int(rng.integers(1, 12))
            data = sg.FullFeedbackDataset(
                rng.standard_normal((n, 1)), rng.standard_normal((n, 2)) * 2.0
            )
            zeta = float(rng.uniform(0.02, 5.0))
            lam = zeta / 4.0
            u = data.y[:, 0] - data.y[:, 1]
            p1, p2 = rng.uniform(0, 1, size=(2, n))
            d1 = np.column_stack([p1, 1 - p1])
            d2 = np.column_stack([p2, 1 - p2])
            w1 = _penalized_welfare(data, d1, lam, _binary_penalty)
            w2 = _penalized_welfare(data, d2, lam, _binary_penalty)
            r1 = float(np.mean(sg.binary_loss(zeta, u, 2 * p1 - 1)))
            r2 = float(np.mean(sg.binary_loss(zeta, u, 2 * p2 - 1)))
            assert abs((w1 - w2) - 0.5 * (r2 - r1)) < 1e-10
            v1 = sg.empirical_welfare(data, d1)
            assert w1 <= v1 + 1e-12
            assert v1 <= w1 + lam + 1e-12

    def test_fullvector_identity(self):
        rng = np.random.default_rng(19)
        for _ in range(1000):
            n = int(rng.integers(1, 10))
            k = int(rng.integers(2, 6))
            data = sg.FullFeedbackDataset(
                rng.standard_normal((n, 1)), rng.standard_normal((n, k)) * 2.0
            )
            zeta = float(rng.uniform(0.02, 5.0))
            lam = zeta / 2.0
            d1 = _random_simplex_rows(rng, n, k)
            d2 = _random_simplex_rows(rng, n, k)
            w1 = _penalized_welfare(data, d1, lam, _fullvector_penalty)
            w2 = _penalized_welfare(data, d2, lam, _fullvector_penalty)
            r1 = float(np.mean(sg.binary_loss(zeta, data.y, d1).sum(axis=-1)))
            r2 = float(np.mean(sg.binary_loss(zeta, data.y, d2).sum(axis=-1)))
            assert abs((w1 - w2) - (r2 - r1)) < 1e-10


def _reference_projection(v):
    """Per-row sort-and-threshold projection, one row at a time."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u - css / np.arange(1, v.size + 1) > 0)[0][-1]
    return np.maximum(v - css[rho] / (rho + 1.0), 0.0)


# small matrices whose entries often tie: a few repeated values mixed with floats
_matrices = hnp.arrays(
    np.float64,
    st.tuples(st.integers(1, 12), st.integers(2, 7)),
    elements=st.one_of(st.sampled_from([-0.5, 0.0, 0.25, 0.5, 1.0]),
                       st.floats(-10.0, 10.0, allow_subnormal=False)),
)


class TestProjectSimplexRowsProperties:
    @settings(max_examples=200, deadline=None, database=None)
    @given(_matrices)
    def test_kkt_conditions(self, v):
        p = sg.project_simplex_rows(v)
        assert np.all(p >= 0.0)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        # p = max(v - theta, 0): v - p is one threshold on the support and
        # bounds every entry off it
        for vi, pi in zip(v, p):
            support = pi > 0
            gap = vi[support] - pi[support]
            theta = gap.mean()
            assert np.all(np.abs(gap - theta) <= 1e-12 * max(1.0, abs(theta)) * vi.size)
            assert np.all(vi[~support] <= theta + 1e-12 * max(1.0, abs(theta)))

    @settings(max_examples=200, deadline=None, database=None)
    @given(_matrices)
    def test_matches_per_row_reference_bitwise(self, v):
        expected = np.array([_reference_projection(row) for row in v])
        assert sg.project_simplex_rows(v).tobytes() == expected.tobytes()
        assert _project(v[0]).tobytes() == expected[0].tobytes()


_outcomes = st.floats(-10.0, 10.0, allow_subnormal=False)
_zetas = st.floats(0.01, 10.0)


@st.composite
def _binary_cases(draw):
    """Binary data, a grid of treatment-probability vectors, and a scale."""
    n = draw(st.integers(1, 12))
    y = draw(hnp.arrays(np.float64, (n, 2), elements=_outcomes))
    probs = hnp.arrays(np.float64, n, elements=st.floats(0.0, 1.0, allow_subnormal=False))
    return y, draw(st.lists(probs, min_size=1, max_size=6)), draw(_zetas)


@st.composite
def _simplex_cases(draw):
    """K-action data, a grid of simplex-row policies and a scale."""
    n, k = draw(st.integers(1, 12)), draw(st.integers(2, 5))
    y = draw(hnp.arrays(np.float64, (n, k), elements=_outcomes))
    weights = hnp.arrays(np.float64, (n, k), elements=st.floats(0.01, 1.0))
    weight_grid = draw(st.lists(weights, min_size=1, max_size=6))
    grid = [g / g.sum(axis=1, keepdims=True) for g in weight_grid]
    return y, grid, draw(_zetas)


def _data(y):
    return sg.FullFeedbackDataset(np.zeros((y.shape[0], 1)), y)


def _affine_bound(report):
    return 1e-10 * (1.0 + float(np.abs(report.surrogate).max()))


class TestEquivalenceCheckerProperties:
    @settings(max_examples=200, deadline=None, database=None)
    @given(_binary_cases())
    def test_binary_arrays_match_reference_bitwise(self, case):
        y, grid, zeta = case
        data = _data(y)
        report = sg.verify_equivalence_binary(data, grid, zeta)
        u = y[:, 0] - y[:, 1]
        surrogate = [float(np.mean(sg.binary_loss(zeta, u, 2.0 * p - 1.0))) for p in grid]
        penalized = [sg.empirical_welfare(data, np.column_stack([p, 1.0 - p]))
                     - zeta / 4.0 * float(np.mean((2.0 * p - 1.0) ** 2)) for p in grid]
        assert report.surrogate.tobytes() == np.array(surrogate).tobytes()
        assert report.penalized.tobytes() == np.array(penalized).tobytes()
        assert report.max_affine_error <= _affine_bound(report)

    @settings(max_examples=200, deadline=None, database=None)
    @given(_simplex_cases())
    def test_fullvector_affine_identity(self, case):
        y, grid, zeta = case
        report = sg.verify_equivalence_fullvector(_data(y), grid, zeta)
        assert report.max_affine_error <= _affine_bound(report)

    def test_binary_penalty_rejects_k_action_rows(self):
        data = sg.FullFeedbackDataset(np.zeros((4, 1)), np.zeros((4, 3)))
        with pytest.raises(ValueError, match="binary dataset"):
            sg.verify_equivalence_binary(data, [np.full(4, 0.5)], 1.0)
