import numpy as np
import pytest

from gbpl import baselines as bl
from gbpl.evaluation import oracle_welfare, test_welfare
from gbpl.posterior import TrainConfig
from gbpl.surrogate import FullFeedbackDataset


def _separable_binary(rng, n):
    # noiseless sign effect: the optimal rule is exactly a half-space
    x = rng.standard_normal((n, 4))
    base = 0.3 * x[:, 1]
    effect = np.sign(x[:, 0])
    return FullFeedbackDataset(x, np.column_stack([base + effect, base]))


class TestSeparableRecovery:
    def test_all_binary_baselines_near_oracle(self):
        rng = np.random.default_rng(0)
        data = _separable_binary(rng, 5000)
        rows = np.arange(data.n)
        train, val, test = rows[:3000], rows[3000:4000], rows[4000:]
        test_data = FullFeedbackDataset(data.x[test], data.y[test])
        oracle = oracle_welfare(test_data)
        cfg = TrainConfig(learning_rate=1e-3, batch_size=128, max_epochs=40, patience=8, seed=1)
        for kind in (bl.KIND_DIFF_REG, bl.KIND_PLUGIN_REG, bl.KIND_WEIGHTED_LOGISTIC,
                     bl.KIND_DIRECT_WELFARE):
            policy = bl.fit_baseline(kind, data.x, data.y, cfg, train, val, hidden=(64, 64))
            regret = oracle - test_welfare(test_data, policy, "deterministic")
            assert regret < 0.05, f"{kind}: regret {regret:.4f}"


class TestWeightedLogistic:
    def test_constant_gaps_match_unweighted_decisions(self):
        rng = np.random.default_rng(2)
        n = 600
        x = rng.standard_normal((n, 3))
        sign = np.where(x[:, 0] + 0.5 * x[:, 1] > 0, 1.0, -1.0)
        y = np.column_stack([2.0 * np.maximum(sign, 0), 2.0 * np.maximum(-sign, 0)])
        data = FullFeedbackDataset(x, y)  # |gap| = 2 everywhere
        unit = FullFeedbackDataset(x, y / 2.0)  # |gap| = 1 everywhere
        rows = np.arange(n)
        cfg = TrainConfig(learning_rate=1e-2, batch_size=128, max_epochs=30, patience=30, seed=3)
        p_w = bl.fit_baseline(bl.KIND_WEIGHTED_LOGISTIC, x, data.y, cfg, rows[:400], rows[400:],
                              (16,))
        p_u = bl.fit_baseline(bl.KIND_WEIGHTED_LOGISTIC, x, unit.y, cfg, rows[:400], rows[400:],
                              (16,))
        np.testing.assert_array_equal(p_w.decide(x), p_u.decide(x))

    def test_gap_ties_keep_zero_weight(self):
        rng = np.random.default_rng(4)
        n = 100
        x = rng.standard_normal((n, 2))
        y = np.zeros((n, 2))
        y[:50, 0] = 1.0  # half the rows are ties with zero gap
        data = FullFeedbackDataset(x, y)
        rows = np.arange(n)
        cfg = TrainConfig(learning_rate=1e-2, batch_size=32, max_epochs=5, patience=5, seed=5)
        policy = bl.fit_baseline(bl.KIND_WEIGHTED_LOGISTIC, data.x, data.y, cfg, rows[:80],
                                 rows[80:], (8,))
        assert np.all(np.isin(policy.decide(x), (0, 1)))


class TestDirectWelfare:
    def test_dominant_action_gets_the_mass(self):
        rng = np.random.default_rng(6)
        n, k = 2000, 3
        x = rng.standard_normal((n, 3))
        base = rng.standard_normal((n, k)) * 0.1
        base[:, 2] += 2.0  # action 3 dominates uniformly
        data = FullFeedbackDataset(x, base)
        rows = np.arange(n)
        cfg = TrainConfig(learning_rate=1e-2, batch_size=128, max_epochs=40, patience=10, seed=7)
        policy = bl.fit_baseline(bl.KIND_DIRECT_WELFARE, data.x, data.y, cfg, rows[:1400],
                                 rows[1400:], (32,))
        delta = policy.delta(x)
        assert delta[:, 2].mean() >= 0.9


class TestContracts:
    def test_valid_decisions_for_arbitrary_inputs(self):
        rng = np.random.default_rng(8)
        data = _separable_binary(rng, 300)
        rows = np.arange(300)
        cfg = TrainConfig(learning_rate=1e-3, batch_size=64, max_epochs=3, patience=3, seed=9)
        fresh = rng.standard_normal((50, 4)) * 10.0
        for kind in (bl.KIND_DIFF_REG, bl.KIND_PLUGIN_REG, bl.KIND_WEIGHTED_LOGISTIC,
                     bl.KIND_DIRECT_WELFARE):
            policy = bl.fit_baseline(kind, data.x, data.y, cfg, rows[:200], rows[200:], (8,))
            delta = policy.delta(fresh)
            assert delta.shape == (50, 2)
            np.testing.assert_allclose(delta.sum(axis=1), 1.0, atol=1e-9)
            assert np.all(delta >= 0.0)
            assert np.all(np.isin(policy.decide(fresh), (0, 1)))

    def test_determinism_per_seed(self):
        rng = np.random.default_rng(10)
        data = _separable_binary(rng, 200)
        rows = np.arange(200)
        cfg = TrainConfig(learning_rate=1e-3, batch_size=64, max_epochs=4, patience=4, seed=11)
        p1 = bl.fit_baseline(bl.KIND_DIFF_REG, data.x, data.y, cfg, rows[:150], rows[150:], (8,))
        p2 = bl.fit_baseline(bl.KIND_DIFF_REG, data.x, data.y, cfg, rows[:150], rows[150:], (8,))
        assert np.array_equal(p1.params, p2.params)

    def test_kind_feedback_compatibility(self):
        rng = np.random.default_rng(12)
        cfg = TrainConfig(max_epochs=1, patience=1)
        rows = np.arange(20)
        data_k = FullFeedbackDataset(rng.standard_normal((20, 2)), rng.standard_normal((20, 3)))
        with pytest.raises(ValueError):
            bl.fit_baseline(bl.KIND_DIFF_REG, data_k.x, data_k.y, cfg, rows[:10], rows[10:])
