import math

import numpy as np
import pytest

from dataclasses import replace

from gbpl import evaluation as ev
from gbpl import nnet
from gbpl.methods import FittedPolicy
from gbpl.surrogate import FullFeedbackDataset, empirical_welfare


def _linear(w, b=None, head=nnet.HEAD_SOFTMAX):
    """A one-layer fitted rule f(x) = x W + b with hand-set weights."""
    w = np.asarray(w, dtype=np.float64)
    b = np.zeros(w.shape[1]) if b is None else np.asarray(b, dtype=np.float64)
    return FittedPolicy(nnet.MlpArchitecture(w.shape[0], (), w.shape[1], head),
                        np.concatenate([w.ravel(), b]))


class TestOracleWelfare:
    def test_single_row(self):
        data = FullFeedbackDataset(np.zeros((1, 1)), np.array([[3.0, 1.0]]))
        assert ev.oracle_welfare(data) == 3.0

    def test_constant_outcomes(self):
        data = FullFeedbackDataset(np.zeros((5, 1)), np.full((5, 3), 2.5))
        assert ev.oracle_welfare(data) == 2.5

    def test_dominates_every_policy(self):
        rng = np.random.default_rng(0)
        data = FullFeedbackDataset(rng.standard_normal((50, 2)), rng.standard_normal((50, 4)))
        oracle = ev.oracle_welfare(data)
        for _ in range(50):
            policy = _linear(3.0 * rng.standard_normal((2, 4)), rng.standard_normal(4))
            assert ev.test_welfare(data, policy, "randomized") <= oracle + 1e-12
            assert ev.test_welfare(data, policy, "deterministic") <= oracle + 1e-12


class TestTestWelfare:
    def test_always_treat(self):
        rng = np.random.default_rng(1)
        data = FullFeedbackDataset(rng.standard_normal((30, 1)), rng.standard_normal((30, 2)))
        always = _linear([[0.0]], [1.0], nnet.HEAD_TANH)  # a positive score picks column 0
        assert ev.test_welfare(data, always, "deterministic") == pytest.approx(
            data.y[:, 0].mean(), abs=1e-12
        )

    def test_oracle_onehot_recovers_oracle(self):
        # covariates equal to the outcomes, so the identity net argmaxes the outcomes
        rng = np.random.default_rng(2)
        y = rng.standard_normal((30, 3))
        data = FullFeedbackDataset(y, y)
        oracle = _linear(np.eye(3), head=nnet.HEAD_IDENTITY)
        assert ev.test_welfare(data, oracle, "deterministic") == pytest.approx(
            ev.oracle_welfare(data), abs=1e-12
        )

    def test_uniform_randomized(self):
        # a fixed randomization goes through empirical_welfare; a zero softmax
        # net randomizes uniformly too and must score the same
        rng = np.random.default_rng(3)
        data = FullFeedbackDataset(rng.standard_normal((40, 1)), rng.standard_normal((40, 3)))
        uniform = empirical_welfare(data, np.full((40, 3), 1.0 / 3.0))
        assert uniform == pytest.approx(data.y.mean(axis=1).mean(), abs=1e-12)
        assert ev.test_welfare(data, _linear(np.zeros((1, 3))), "randomized") == pytest.approx(
            uniform, abs=1e-12
        )

    def test_deterministic_ties_to_lowest_column(self):
        data = FullFeedbackDataset(np.zeros((2, 1)), np.array([[1.0, 0.0], [0.0, 1.0]]))
        tied = _linear(np.zeros((1, 2)))  # every row is (0.5, 0.5)
        assert ev.test_welfare(data, tied, "deterministic") == 0.5  # picks column 0 twice


_X = np.array([[-2.0], [0.0], [1.0]])
_E = np.exp([[-2.0, 0.0, 2.0], [0.0, 0.0, 0.0], [1.0, 0.0, -1.0]])
_TANH = (np.tanh(_X[:, 0]) + 1.0) / 2.0

# (head, one-layer weights W (1, o), decisions on _X, policy rows on _X); the
# net is f(x) = x W, so a zero row ties every column and a zero score is >= 0
_HEAD_CASES = {
    "tanh": (nnet.HEAD_TANH, [[1.0]], [1, 0, 0], np.column_stack([_TANH, 1.0 - _TANH])),
    "softmax": (nnet.HEAD_SOFTMAX, [[1.0, 0.0, -1.0]], [2, 0, 0],
                _E / _E.sum(axis=1, keepdims=True)),
    "identity_1": (nnet.HEAD_IDENTITY, [[1.0]], [1, 0, 0], [[0, 1], [1, 0], [1, 0]]),
    "identity_k": (nnet.HEAD_IDENTITY, [[1.0, 0.0, -1.0]], [2, 0, 0],
                   [[0, 0, 1], [1, 0, 0], [1, 0, 0]]),
}


class TestFittedPolicyHeads:
    @pytest.mark.parametrize("case", sorted(_HEAD_CASES))
    def test_decide_and_delta_follow_the_head(self, case):
        head, w, decisions, rows = _HEAD_CASES[case]
        policy = _linear(w, head=head)
        np.testing.assert_array_equal(policy.decide(_X), decisions)
        np.testing.assert_allclose(policy.delta(_X), rows, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("case", sorted(_HEAD_CASES))
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_covariates_rejected(self, case, bad):
        policy = _linear(_HEAD_CASES[case][1], head=_HEAD_CASES[case][0])
        x = _X.copy()
        x[1, 0] = bad
        for act in (policy.score, policy.decide, policy.delta):
            with pytest.raises(ValueError, match="x must be finite"):
                act(x)


class TestActionCountMismatch:
    # (head, output columns, data columns): a tanh score acts on two actions
    @pytest.mark.parametrize("head, out, k", [(nnet.HEAD_TANH, 1, 5), (nnet.HEAD_SOFTMAX, 5, 2)])
    @pytest.mark.parametrize("rule", [ev.RULE_DETERMINISTIC, ev.RULE_RANDOMIZED])
    def test_rejected_naming_both_counts(self, head, out, k, rule):
        rng = np.random.default_rng(6)
        data = FullFeedbackDataset(rng.standard_normal((8, 3)), rng.standard_normal((8, k)))
        arch = nnet.MlpArchitecture(3, (4,), out, head)
        policy = FittedPolicy(arch, nnet.init_params(arch, rng))
        with pytest.raises(ValueError, match=rf"{max(2, out)} actions.*has {k}"):
            ev.test_welfare(data, policy, rule)


class TestWelfareCredibleInterval:
    @pytest.mark.parametrize("values, message", [([], "nonempty"), ([1.0, np.nan], "finite"),
                                                 ([np.inf, 0.5], "finite")])
    def test_empty_or_non_finite_rejected(self, values, message):
        with pytest.raises(ValueError, match=f"^welfare values must be {message}$"):
            ev.welfare_credible_interval(values)


def _shuffled_levels(seed):
    """Six (scale, welfare level) pairs in random arrival order, levels 0 to 3."""
    rng = np.random.default_rng(seed)
    zetas = rng.permutation([1.0, 0.3, 0.1, 0.03, 0.01, 0.001])
    return list(zip(zetas.tolist(), rng.integers(0, 4, zetas.size).tolist()))


class TestSelectZeta:
    _ALWAYS = _linear([[0.0]], [1.0], nnet.HEAD_TANH)  # column 0 on every row
    _NEVER = _linear([[0.0]], [-1.0], nnet.HEAD_TANH)  # column 1 on every row

    @staticmethod
    def _scored(fits, val):
        """(scale, validation welfare) per rule, as a trial scores its rules."""
        return [(z, ev.test_welfare(val, rule)) for z, rule in fits.items()]

    def test_single_candidate(self):
        rng = np.random.default_rng(4)
        val = FullFeedbackDataset(rng.standard_normal((10, 1)), rng.standard_normal((10, 2)))
        assert ev.select_zeta_by_validation(self._scored({0.5: self._ALWAYS}, val)) == 0.5

    def test_no_candidate_rejected(self):
        with pytest.raises(ValueError, match="at least one candidate"):
            ev.select_zeta_by_validation(iter(()))

    def test_ties_take_smallest(self):
        rng = np.random.default_rng(5)
        val = FullFeedbackDataset(rng.standard_normal((10, 1)), rng.standard_normal((10, 2)))
        fits = {1.0: self._ALWAYS, 0.01: self._ALWAYS, 0.1: self._ALWAYS}
        assert ev.select_zeta_by_validation(self._scored(fits, val)) == 0.01

    @pytest.mark.parametrize("best", [0.1, 1.0])
    def test_dominating_policy_wins(self, best):
        data = FullFeedbackDataset(np.zeros((4, 1)), np.array([[1.0, 0.0]] * 4))
        fits = {z: self._ALWAYS if z == best else self._NEVER for z in (1.0, 0.1)}
        assert ev.select_zeta_by_validation(self._scored(fits, data)) == best

    @pytest.mark.parametrize("levels", [
        [(0.001, 0), (0.01, 2), (1.0, 3)],  # 0.001 ties 0.01 but not the best: 0.01 wins
        [(1.0, 3), (0.001, 0), (0.01, 2)],
        [(0.1, 0), (0.01, 1), (1.0, 2), (0.001, 5), (0.3, 3)],
        *(_shuffled_levels(seed) for seed in range(20)),
    ])
    def test_selection_matches_the_rule_over_all_candidates(self, levels):
        # welfare levels 0.4e-12 apart chain ties across more than the 1e-12 tolerance:
        # a scale tied with one that is tied with the best is not itself tied with it
        welfare = {z: 0.5 + 0.4e-12 * level for z, level in levels}
        best = max(welfare.values())
        want = min(z for z, w in welfare.items() if w >= best - 1e-12)
        assert ev.select_zeta_by_validation((z, welfare[z]) for z, _ in levels) == want


class TestPacBayes:
    def test_hand_example_trivial_delta(self):
        inputs = ev.PacBayesInputs(
            empirical_risk_mean=0.0, kl=0.0, n=100, delta=1.0, v=1.0, b=1.0, lam=0.1
        )
        assert ev.pac_bayes_bound(inputs) == pytest.approx(0.05, abs=1e-12)

    def test_hand_example_full(self):
        inputs = ev.PacBayesInputs(
            empirical_risk_mean=0.5, kl=math.log(2.0), n=1000, delta=0.05, v=2.0, b=1.0, lam=0.01
        )
        expected = 0.5 + (math.log(2.0) + math.log(1.0 / 0.05)) / 10.0 + 0.01
        assert ev.pac_bayes_bound(inputs) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.87889, abs=5e-6)

    def test_two_sided_hand_example(self):
        inputs = ev.PacBayesInputs(
            empirical_risk_mean=0.0, kl=0.0, n=100, delta=0.5, v=1.0, b=1.0, lam=0.1
        )
        assert ev.pac_bayes_two_sided(inputs) == pytest.approx(
            math.log(4.0) / 10.0 + 0.05, abs=1e-12
        )

    def test_two_sided_at_doubled_delta_matches_one_sided_gap(self):
        base = ev.PacBayesInputs(
            empirical_risk_mean=0.0, kl=0.3, n=250, delta=0.04, v=1.5, b=2.0, lam=0.2
        )
        doubled = replace(base, delta=2.0 * base.delta)
        assert ev.pac_bayes_two_sided(doubled) == pytest.approx(
            ev.pac_bayes_bound(base), abs=1e-12
        )

    def test_two_sided_dominates_one_sided(self):
        inputs = ev.PacBayesInputs(
            empirical_risk_mean=0.0, kl=1.0, n=50, delta=0.1, v=1.0, b=1.0, lam=0.5
        )
        assert ev.pac_bayes_two_sided(inputs) >= ev.pac_bayes_bound(inputs)

    def test_lambda_star_dominates_random_feasible(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            inputs = ev.PacBayesInputs(
                empirical_risk_mean=float(rng.uniform(0, 1)),
                kl=float(rng.uniform(0, 5)),
                n=int(rng.integers(10, 10_000)),
                delta=float(rng.uniform(0.01, 0.5)),
                v=float(rng.uniform(0.1, 4.0)),
                b=float(rng.uniform(0.2, 3.0)),
                lam=0.1,
            )
            star = ev.pac_bayes_lambda_star(inputs)
            at_star = ev.pac_bayes_bound(replace(inputs, lam=star))
            for lam in rng.uniform(1e-9, (1 - 1e-9) / inputs.b, size=20):
                assert at_star <= ev.pac_bayes_bound(replace(inputs, lam=float(lam))) + 1e-12

    def test_monotonicity(self):
        base = ev.PacBayesInputs(
            empirical_risk_mean=0.2, kl=1.0, n=100, delta=0.1, v=1.0, b=1.0, lam=0.3
        )
        for kl2 in (2.0, 4.0, 8.0):
            assert ev.pac_bayes_bound(replace(base, kl=kl2)) > ev.pac_bayes_bound(base)
        for d2 in (0.05, 0.01):
            assert ev.pac_bayes_bound(replace(base, delta=d2)) > ev.pac_bayes_bound(base)
        for n2 in (200, 1000):
            assert ev.pac_bayes_bound(replace(base, n=n2)) < ev.pac_bayes_bound(base)

    def test_invalid_lambda_rejected(self):
        with pytest.raises(ValueError):
            ev.PacBayesInputs(
                empirical_risk_mean=0.0, kl=0.0, n=10, delta=0.1, v=1.0, b=2.0, lam=0.6
            )

    def test_lambda_defaults_to_half_of_one_over_b(self):
        inputs = ev.PacBayesInputs(empirical_risk_mean=0.0, kl=0.0, n=10, delta=0.1, v=1.0, b=4.0)
        assert inputs.lam == 0.125
        with pytest.raises(ValueError, match="b must be positive and finite, got 0.0"):
            ev.PacBayesInputs(empirical_risk_mean=0.0, kl=0.0, n=10, delta=0.1, v=1.0, b=0.0)


class TestAggregate:
    # (welfare_mean, welfare_var, welfare_se, regret_mean, regret_se, trials)
    def test_identical_trials(self):
        w_mean, w_var, w_se, *_ = ev.aggregate(np.full(5, 0.7), np.full(5, 0.1))
        assert w_var == 0.0 and w_se == 0.0
        assert w_mean == pytest.approx(0.7)

    def test_two_point_sample(self):
        w_mean, w_var, w_se, *_ = ev.aggregate(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        assert w_mean == 0.5
        assert w_var == pytest.approx(0.5, abs=1e-15)
        assert w_se == pytest.approx(0.5, abs=1e-15)

    def test_streaming_oracle(self):
        # Welford's online update as an independent recomputation
        rng = np.random.default_rng(7)
        vals = rng.standard_normal(1000)
        regs = rng.standard_normal(1000)
        w_mean, w_var, w_se, *_ = ev.aggregate(vals, regs)
        mean, m2, count = 0.0, 0.0, 0
        for v in vals:
            count += 1
            d = v - mean
            mean += d / count
            m2 += d * (v - mean)
        assert abs(w_mean - mean) < 1e-10
        assert abs(w_var - m2 / (count - 1)) < 1e-10
        assert abs(w_se - math.sqrt(m2 / (count - 1) / count)) < 1e-10

    def test_single_trial_has_no_spread(self):
        w_mean, w_var, w_se, r_mean, r_se, trials = ev.aggregate(np.array([0.5]), np.array([0.1]))
        assert (w_mean, r_mean, trials) == (0.5, 0.1, 1)
        assert w_var is w_se is r_se is None

    def test_requires_a_trial(self):
        with pytest.raises(ValueError):
            ev.aggregate(np.array([]), np.array([]))
