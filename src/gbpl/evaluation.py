"""Welfare and regret evaluation, tuning-parameter selection, posterior
welfare credible intervals, PAC-Bayes bound arithmetic, and trial aggregation.

``test_welfare`` is the one place a fitted rule's welfare is computed: the
harness, on both held-out parts, and the per-draw welfare behind credible
intervals call it, and ``select_zeta_by_validation`` picks a scale from the
validation welfare it gives. A fixed randomization (an (n, K) matrix of
simplex rows, such as uniform assignment) has no network behind it; its
welfare is :func:`gbpl.surrogate.empirical_welfare`. ``oracle_welfare`` and
``test_welfare`` take an optional index array ``rows`` and then score only
those rows of the dataset, without copying its covariates.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from gbpl.methods import FittedPolicy
from gbpl.surrogate import (TIE_TOL, FullFeedbackDataset, check_finite, check_positive,
                            check_rows, empirical_welfare)

RULE_DETERMINISTIC = "deterministic"
RULE_RANDOMIZED = "randomized"
RULES = (RULE_DETERMINISTIC, RULE_RANDOMIZED)


def oracle_welfare(test: FullFeedbackDataset, rows: np.ndarray | None = None) -> float:
    """Mean of the row-wise best realized outcome; dominates every policy."""
    best = test.y.max(axis=1)
    return float((best if rows is None else best[check_rows("rows", rows, test.n)]).mean())


def test_welfare(test: FullFeedbackDataset, policy: FittedPolicy,
                 rule: str = RULE_DETERMINISTIC, rows: np.ndarray | None = None) -> float:
    """Realized test welfare of a fitted rule.

    Deterministic evaluation takes the rule's own decision (binary scores
    threshold at zero; simplex rows argmax with ties to the lowest column);
    randomized evaluation averages outcomes under the rule's simplex rows.
    The rule must act on as many actions as ``test`` has columns.
    """
    if rule not in RULES:
        raise ValueError(f"unknown rule {rule!r}")
    if rows is not None:
        rows = check_rows("rows", rows, test.n)
    if policy.n_actions != test.k:
        raise ValueError(f"policy acts on {policy.n_actions} actions but the data "
                         f"has {test.k}")
    if rule == RULE_DETERMINISTIC:
        at = np.arange(test.n) if rows is None else rows
        return float(test.y[at, policy.decide(test.x, rows)].mean())
    return empirical_welfare(test, policy.delta(test.x, rows), rows)


test_welfare.__test__ = False  # keep pytest from collecting the public name


def select_zeta_by_validation(scored: Iterable[tuple[float, float]]) -> float:
    """The scale whose rule has the best validation welfare, from ``(scale,
    welfare)`` pairs; ties within ``TIE_TOL`` of the best go to the smallest
    scale.

    The welfare is each rule's ``test_welfare`` on the validation rows, which
    may hold realized outcomes or a pseudo-outcome table; the caller scores a
    rule as soon as it is fitted, so no rule outlives its own scoring.
    """
    scored = list(scored)
    if not scored:
        raise ValueError("need at least one candidate")
    best = max(w for _, w in scored)
    return min(z for z, w in scored if w >= best - TIE_TOL)


# ---------------------------------------------------------------------------
# posterior welfare


def welfare_credible_interval(values, level: float = 0.95) -> tuple[float, float, float]:
    """(mean, lower, upper) of per-draw welfare values, one ``test_welfare`` per draw.

    The interval edges are the (1-level)/2 and 1-(1-level)/2 empirical
    quantiles with linear interpolation, so lower <= upper always. The values
    must be nonempty and finite.
    """
    if not (0.0 < level < 1.0):
        raise ValueError("level must lie in (0, 1)")
    vals = np.asarray(values, dtype=np.float64)
    if vals.size == 0:
        raise ValueError("welfare values must be nonempty")
    check_finite("welfare values", vals)
    alpha = (1.0 - level) / 2.0
    lo, hi = np.quantile(vals, [alpha, 1.0 - alpha])
    return float(vals.mean()), float(lo), float(hi)


# ---------------------------------------------------------------------------
# PAC-Bayes bound arithmetic


@dataclass(frozen=True)
class PacBayesInputs:
    """Constants entering the sub-exponential PAC-Bayes bound.

    ``v`` and ``b`` are the variance factor and scale of the moment condition
    on the centered loss; they are user-supplied hypotheses, not estimated.
    ``lam`` = None (the default) resolves to 0.5 / b once ``b`` passes its check.
    """

    empirical_risk_mean: float
    kl: float
    n: int
    delta: float
    v: float
    b: float
    lam: float | None = None

    def __post_init__(self):
        if not math.isfinite(self.empirical_risk_mean):
            raise ValueError("empirical_risk_mean must be finite, "
                             f"got {self.empirical_risk_mean!r}")
        if not 0.0 <= self.kl < math.inf:
            raise ValueError(f"kl must be nonnegative and finite, got {self.kl!r}")
        if self.n < 1:
            raise ValueError("n must be positive")
        if not (0.0 < self.delta <= 1.0):
            raise ValueError("delta must lie in (0, 1]")
        check_positive("v", self.v)
        check_positive("b", self.b)
        if self.lam is None:
            object.__setattr__(self, "lam", 0.5 / self.b)
        if not (0.0 < self.lam < 1.0 / self.b):
            raise ValueError("lam must lie in (0, 1/b)")


def pac_bayes_bound(inputs: PacBayesInputs) -> float:
    """Upper bound on the expected risk under the posterior:
    risk + (KL + log(1/delta)) / (lam n) + lam v / 2."""
    gap = (inputs.kl + math.log(1.0 / inputs.delta)) / (inputs.lam * inputs.n)
    return inputs.empirical_risk_mean + gap + inputs.lam * inputs.v / 2.0


def pac_bayes_lambda_star(inputs: PacBayesInputs) -> float:
    """Feasible minimizer of the bound over (0, 1/b), in closed form."""
    unconstrained = math.sqrt(2.0 * (inputs.kl + math.log(1.0 / inputs.delta)) / (inputs.n * inputs.v))
    lam = min(unconstrained, (1.0 - 1e-9) / inputs.b)
    return max(lam, 1e-300)  # the unconstrained optimum is 0 only when KL = log(1/delta) = 0


def pac_bayes_two_sided(inputs: PacBayesInputs) -> float:
    """Bound on |expected risk - empirical risk| under the posterior:
    (KL + log(2/delta)) / (lam n) + lam v / 2."""
    gap = (inputs.kl + math.log(2.0 / inputs.delta)) / (inputs.lam * inputs.n)
    return gap + inputs.lam * inputs.v / 2.0


# ---------------------------------------------------------------------------
# trial aggregation


def aggregate(welfare, regret) -> tuple:
    """One method's summary from its per-trial welfare and regret values:
    ``(welfare_mean, welfare_var, welfare_se, regret_mean, regret_se, trials)``.
    The variances are unbiased sample variances across trials and se =
    sqrt(var / trials); a single trial has no variance, so its spreads are None."""
    w = np.asarray(welfare, dtype=np.float64)
    r = np.asarray(regret, dtype=np.float64)
    n = w.size
    if n == 0:
        raise ValueError("need at least one trial")
    w_var = float(w.var(ddof=1)) if n > 1 else None
    return (float(w.mean()), w_var, math.sqrt(w_var / n) if n > 1 else None,
            float(r.mean()), math.sqrt(float(r.var(ddof=1)) / n) if n > 1 else None, n)
