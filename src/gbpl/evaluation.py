"""Welfare and regret evaluation, tuning-parameter selection, posterior
welfare credible intervals, PAC-Bayes bound arithmetic, and trial aggregation.

``test_welfare`` is the one place a fitted rule's welfare is computed: the
harness, scale selection and the per-draw welfare behind credible intervals
all call it. A fixed randomization (an (n, K) matrix of simplex rows, such as
uniform assignment) has no network behind it; its welfare is
:func:`gbpl.surrogate.empirical_welfare`. ``oracle_welfare``, ``test_welfare``
and ``select_zeta_by_validation`` take an optional index array ``rows`` and
then score only those rows of the dataset, without copying its covariates.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from gbpl.methods import FittedPolicy
from gbpl.surrogate import TIE_TOL, FullFeedbackDataset, empirical_welfare

RULE_DETERMINISTIC = "deterministic"
RULE_RANDOMIZED = "randomized"


def oracle_welfare(test: FullFeedbackDataset, rows: np.ndarray | None = None) -> float:
    """Mean of the row-wise best realized outcome; dominates every policy."""
    best = test.y.max(axis=1)
    return float((best if rows is None else best[rows]).mean())


def test_welfare(test: FullFeedbackDataset, policy: FittedPolicy,
                 rule: str = RULE_DETERMINISTIC, rows: np.ndarray | None = None) -> float:
    """Realized test welfare of a fitted rule.

    Deterministic evaluation takes the rule's own decision (binary scores
    threshold at zero; simplex rows argmax with ties to the lowest column);
    randomized evaluation averages outcomes under the rule's simplex rows.
    The rule must act on as many actions as ``test`` has columns.
    """
    if policy.n_actions != test.k:
        raise ValueError(f"policy acts on {policy.n_actions} actions but the data "
                         f"has {test.k}")
    if rule == RULE_DETERMINISTIC:
        at = np.arange(test.n) if rows is None else rows
        return float(test.y[at, policy.decide(test.x, rows)].mean())
    if rule == RULE_RANDOMIZED:
        return empirical_welfare(test, policy.delta(test.x, rows), rows)
    raise ValueError(f"unknown rule {rule!r}")


test_welfare.__test__ = False  # keep pytest from collecting the public name


def select_zeta_by_validation(
    fits: Iterable[tuple[float, FittedPolicy]],
    val: FullFeedbackDataset,
    rule: str = RULE_DETERMINISTIC,
    rows: np.ndarray | None = None,
) -> tuple[float, FittedPolicy]:
    """The (scale, rule) pair whose rule maximizes validation welfare.

    ``fits`` yields the candidates one at a time, so a generator can fit each
    one only when it is asked for. ``val`` may hold realized outcomes or a
    pseudo-outcome table; the same welfare formula applies. Given ``rows``,
    only those rows of ``val`` are scored. Ties (within
    ``TIE_TOL``) go to the smallest scale. Only candidates within ``TIE_TOL``
    of the running best are kept: the best only grows, so a dropped one could
    never come within ``TIE_TOL`` of the final best.
    """
    best, kept = -math.inf, []
    for z, policy in fits:
        w = test_welfare(val, policy, rule, rows)
        best = max(best, w)
        kept = [c for c in kept if c[2] >= best - TIE_TOL]
        if w >= best - TIE_TOL:
            kept.append((z, policy, w))
        del policy  # else it outlives its drop while the next candidate is fitted
    if not kept:
        raise ValueError("need at least one candidate")
    z, policy, _ = min(kept, key=lambda c: c[0])
    return z, policy


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
    if vals.size == 0 or not np.all(np.isfinite(vals)):
        raise ValueError("welfare values must be nonempty and finite")
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
    """

    empirical_risk_mean: float
    kl: float
    n: int
    delta: float
    v: float
    b: float
    lam: float

    def __post_init__(self):
        if not self.kl >= 0:
            raise ValueError("kl must be nonnegative")
        if self.n < 1:
            raise ValueError("n must be positive")
        if not (0.0 < self.delta <= 1.0):
            raise ValueError("delta must lie in (0, 1]")
        if not (self.v > 0 and self.b > 0):
            raise ValueError("v and b must be positive")
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


@dataclass(frozen=True)
class TrialResult:
    method_id: str
    welfare: float
    regret: float
    seed: int
    selected_zeta: float | None = None


@dataclass(frozen=True)
class AggregateRow:
    """One method's summary; the variances and standard errors of a
    single-trial run are None."""

    method_id: str
    welfare_mean: float
    welfare_var: float | None
    welfare_se: float | None
    regret_mean: float
    regret_se: float | None
    trials: int


def aggregate(trials: list[TrialResult]) -> AggregateRow:
    """Unbiased sample variance across trials; se = sqrt(var / trials).
    A single trial has no variance: its spreads are None."""
    if not trials:
        raise ValueError("need at least one trial")
    method_ids = {t.method_id for t in trials}
    if len(method_ids) != 1:
        raise ValueError("aggregate one method at a time")
    w = np.array([t.welfare for t in trials])
    r = np.array([t.regret for t in trials])
    n = len(trials)
    w_var = float(w.var(ddof=1)) if n > 1 else None
    return AggregateRow(
        method_id=trials[0].method_id,
        welfare_mean=float(w.mean()),
        welfare_var=w_var,
        welfare_se=math.sqrt(w_var / n) if n > 1 else None,
        regret_mean=float(r.mean()),
        regret_se=math.sqrt(float(r.var(ddof=1)) / n) if n > 1 else None,
        trials=n,
    )
