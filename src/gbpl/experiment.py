"""Deterministic benchmark harness.

One experiment = a data generating process, a feedback mode (full outcome
vectors or logged single-outcome data with a pseudo-outcome construction), a
list of methods, and a trial count. Per trial the harness generates data with
seed base_seed + trial, splits it 0.6/0.2/0.2 (train gets the rounding
remainder), and fits each method's rules, early-stopped on their validation
loss: one per surrogate scale, or one for a baseline, whose scale is ``None``.
Several rules are reduced to one by validation welfare, fitted one at a time
as the selection asks for them, and the chosen rule's test welfare and regret
are scored against the realized-outcome oracle. IPW is DR with a zero outcome
regression, so both pseudo-outcome tables come from one ``dr_pseudo_outcomes``
call.

Seed streams are isolated per (trial, method), keyed by a CRC of the method
name, so adding or removing a method never perturbs the other methods' rows.
Reruns of the same config produce byte-identical CSV files.
"""

from __future__ import annotations

import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, replace
from itertools import repeat
from pathlib import Path

import numpy as np

from gbpl import nnet
from gbpl.baselines import BASELINE_KINDS, TWO_ACTION_KINDS, fit_baseline
from gbpl.configio import from_dict, to_dict, write_json
from gbpl.counterfactual import (
    DEFAULT_EPSILON_CLIP,
    PSEUDO_DR,
    PSEUDO_IPW,
    check_folds,
    dr_pseudo_outcomes,
    fit_outcome_regression,
    fit_propensity,
)
from gbpl.dgp import (DgpSpec, check_logging, generate_full_feedback, generate_logged,
                      onedim_effect, write_table)
from gbpl.evaluation import (
    RULE_DETERMINISTIC,
    RULE_RANDOMIZED,
    TrialResult,
    aggregate,
    oracle_welfare,
    select_zeta_by_validation,
    test_welfare,
    welfare_credible_interval,
)
from gbpl.methods import FittedPolicy, fit_policy_fullvector, fit_score_binary, squared_surrogate
from gbpl.posterior import (
    GibbsConfig,
    SgldConfig,
    TrainConfig,
    map_train,
    sgld_sample,
)
from gbpl.surrogate import FullFeedbackDataset, population_score_binary

KIND_GBPL = "gbpl"
DEFAULT_ZETA_GRID = (1.0, 0.1, 0.01, 0.001)

_SPLIT_TAG = 0x5917


@dataclass(frozen=True)
class MethodSpec:
    """One method row in the benchmark tables.

    ``kind`` is ``"gbpl"`` or a baseline kind; surrogate methods carry either
    a fixed ``zeta`` or a ``zeta_grid`` selected by validation welfare.
    A surrogate method with neither gets the default grid; every scale must
    be positive and appear once. A baseline takes neither.
    """

    name: str
    kind: str
    zeta: float | None = None
    zeta_grid: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind == KIND_GBPL:
            if self.zeta is not None and self.zeta_grid is not None:
                raise ValueError(f"method {self.name!r}: give at most one of zeta / zeta_grid")
            if self.zeta is None and self.zeta_grid is None:
                object.__setattr__(self, "zeta_grid", DEFAULT_ZETA_GRID)
            scales = self.zeta_grid if self.zeta is None else (self.zeta,)
            if not scales:
                raise ValueError(f"method {self.name!r}: zeta_grid is empty")
            if not all(z > 0 for z in scales):
                raise ValueError(f"method {self.name!r}: zeta values must be positive")
            if len(set(scales)) != len(scales):
                raise ValueError(f"method {self.name!r}: zeta_grid repeats a value")
        elif self.kind not in BASELINE_KINDS:
            raise ValueError(f"unknown method kind {self.kind!r}")
        elif self.zeta is not None or self.zeta_grid is not None:
            raise ValueError(f"method {self.name!r}: baseline {self.kind} takes no zeta "
                             "or zeta_grid")

    @property
    def scales(self) -> tuple[float | None, ...]:
        """The surrogate scales to fit, in order; a baseline's one entry is None."""
        if self.kind != KIND_GBPL:
            return (None,)
        return self.zeta_grid or (self.zeta,)


@dataclass(frozen=True)
class FeedbackSpec:
    mode: str = "full"  # "full" | "logged"
    logging: str = "logistic"
    clip: float = DEFAULT_EPSILON_CLIP
    pseudo: str = PSEUDO_DR
    propensity: str = "true"  # "true" | "fitted"
    folds: int = 0  # cross-fitting folds for the outcome regression: 0, or at least 2

    def __post_init__(self):
        if self.mode not in ("full", "logged"):
            raise ValueError("feedback mode must be 'full' or 'logged'")
        if self.pseudo not in (PSEUDO_IPW, PSEUDO_DR):
            raise ValueError("pseudo must be 'ipw' or 'dr'")
        if self.propensity not in ("true", "fitted"):
            raise ValueError("propensity must be 'true' or 'fitted'")
        check_folds(self.folds)
        if self.folds and (self.mode == "full" or self.pseudo == PSEUDO_IPW):
            raise ValueError(f"folds = {self.folds} cross-fits the outcome regression, "
                             "which only mode 'logged' with pseudo 'dr' fits")


@dataclass(frozen=True)
class ExperimentConfig:
    dgp: DgpSpec
    methods: tuple[MethodSpec, ...]
    output_dir: str
    feedback: FeedbackSpec = FeedbackSpec()
    split: tuple[float, float, float] = (0.6, 0.2, 0.2)
    trials: int = 10
    base_seed: int = 0
    train: TrainConfig = TrainConfig()
    eta: float = 1.0
    tau2: float = 1.0
    hidden: tuple[int, ...] = nnet.DEFAULT_HIDDEN
    jobs: int = 1

    def __post_init__(self):
        if len(self.methods) < 1:
            raise ValueError("need at least one method")
        if len({m.name for m in self.methods}) != len(self.methods):
            raise ValueError("method names must be unique")
        n_train = _check_split(self.split, self.dgp.n, "dgp.n")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if self.jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {self.jobs}")
        # a trial draws its data from base_seed + trial and its fits from method_seed
        for field, seed in (("dgp.seed", self.dgp.seed), ("train.seed", self.train.seed)):
            if seed != 0:
                raise ValueError(f"{field} must be 0, got {seed}: a trial overwrites it; "
                                 "set base_seed instead")
        fb = self.feedback
        if fb.mode == "logged":
            check_logging(self.dgp, fb.logging, fb.clip)
            if fb.folds > n_train:
                raise ValueError(f"feedback.folds = {fb.folds} exceeds the {n_train} "
                                 "training rows")
        for m in self.methods:
            if m.kind in TWO_ACTION_KINDS and self.dgp.k != 2:
                raise ValueError(f"method {m.name!r}: {m.kind} needs two actions, "
                                 f"the DGP has {self.dgp.k}")


def _split_sizes(n: int, split) -> tuple[int, int, int]:
    """(train, val, test) row counts: val and test take the floor of their
    fraction of n, train the remainder."""
    n_val = int(np.floor(split[1] * n))
    n_test = int(np.floor(split[2] * n))
    return n - n_val - n_test, n_val, n_test


def _check_split(split, n: int, n_field: str) -> int:
    """Raise unless ``split`` is three positive fractions summing to 1 that
    leave every part of ``n`` rows nonempty; return the training row count."""
    frac = np.asarray(split, dtype=np.float64)
    if frac.shape != (3,) or not (np.all(frac > 0) and abs(frac.sum() - 1.0) <= 1e-9):
        raise ValueError("split must be three positive fractions summing to 1")
    sizes = _split_sizes(n, split)
    for part, size in zip(("training", "validation", "test"), sizes):
        if size < 1:
            raise ValueError(f"{n_field} = {n} with split {tuple(split)} leaves no {part} rows")
    return sizes[0]


def split_rows(n: int, split, seed_entropy) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Disjoint (train, val, test) index arrays; train takes the remainder."""
    rng = np.random.default_rng(seed_entropy)
    perm = rng.permutation(n)
    n_train, n_val, _ = _split_sizes(n, split)
    return perm[:n_train], perm[n_train : n_train + n_val], perm[n_train + n_val :]


def method_seed(base_seed: int, trial: int, method_name: str) -> int:
    seq = np.random.SeedSequence([base_seed, trial, zlib.crc32(method_name.encode())])
    return int(seq.generate_state(1, dtype=np.uint64)[0] % (2**63))


@dataclass
class _TrialData:
    """Everything one trial's method fits see: a training table (realized or
    pseudo outcomes) and the realized outcomes, both over all rows, and the
    split. Rows are passed by index, never copied."""

    full: FullFeedbackDataset  # realized outcomes, evaluation only
    table: np.ndarray  # (n, K) outcomes the objectives consume
    train_rows: np.ndarray
    val_rows: np.ndarray
    test_rows: np.ndarray

    @property
    def x(self) -> np.ndarray:
        return self.full.x


def _prepare_trial(cfg: ExperimentConfig, trial: int) -> _TrialData:
    data_seed = cfg.base_seed + trial
    spec = replace(cfg.dgp, seed=data_seed)
    fb = cfg.feedback
    train_rows, val_rows, test_rows = split_rows(spec.n, cfg.split, [data_seed, _SPLIT_TAG])
    if fb.mode == "full":
        full, _ = generate_full_feedback(spec)
        table = full.y
    else:  # the hidden full table serves only the test set
        logged, full = generate_logged(spec, fb.logging, fb.clip)
        nuisance_cfg = replace(cfg.train, seed=method_seed(cfg.base_seed, trial, "__nuisance__"))
        e_hat = (logged.true_propensity if fb.propensity == "true"
                 else fit_propensity(logged, train_rows, fb.clip, nuisance_cfg))
        gamma_hat = (fit_outcome_regression(logged, train_rows, nuisance_cfg, cfg.hidden,
                                            fb.folds)
                     if fb.pseudo == PSEUDO_DR else np.zeros((logged.n, logged.k)))
        table = dr_pseudo_outcomes(logged, e_hat, gamma_hat)
    return _TrialData(full, table, train_rows, val_rows, test_rows)


def fit_gbpl(x: np.ndarray, table: np.ndarray, gibbs: GibbsConfig, cfg: TrainConfig,
             train_rows: np.ndarray, val_rows: np.ndarray,
             hidden: tuple[int, ...]) -> FittedPolicy:
    """The surrogate fit for a K-column (pseudo-)outcome table: a tanh score on
    the column difference at K = 2, a softmax policy on the rows otherwise."""
    if table.shape[1] == 2:
        u = table[:, 0] - table[:, 1]
        return fit_score_binary(x, u, gibbs, cfg, train_rows, val_rows, hidden)
    return fit_policy_fullvector(x, table, gibbs, cfg, train_rows, val_rows, hidden)


def _fit_rule(cfg: ExperimentConfig, td: _TrialData, m: MethodSpec, train_cfg: TrainConfig,
              zeta: float | None) -> FittedPolicy:
    """Method ``m``'s rule at surrogate scale ``zeta``, or its baseline rule for None."""
    if zeta is None:
        return fit_baseline(m.kind, td.x, td.table, train_cfg, td.train_rows, td.val_rows,
                            cfg.hidden)
    return fit_gbpl(td.x, td.table, GibbsConfig(zeta, cfg.eta, cfg.tau2), train_cfg,
                    td.train_rows, td.val_rows, cfg.hidden)


def _run_trial(cfg: ExperimentConfig, trial: int) -> list[TrialResult]:
    """Score every method on one trial. A method's rules are fitted one at a
    time, as selection asks for them, and released once scored, so the
    trial's peak memory is that of one fit plus the best rule so far."""
    td = _prepare_trial(cfg, trial)
    rule = RULE_DETERMINISTIC if td.table.shape[1] == 2 else RULE_RANDOMIZED
    oracle = oracle_welfare(td.full, td.test_rows)
    val_table = FullFeedbackDataset(td.x, td.table)

    results = []
    for m in cfg.methods:
        seed = method_seed(cfg.base_seed, trial, m.name)
        train_cfg = replace(cfg.train, seed=seed)
        fits = ((z, _fit_rule(cfg, td, m, train_cfg, z)) for z in m.scales)
        selected, policy = (select_zeta_by_validation(fits, val_table, rule, td.val_rows)
                            if len(m.scales) > 1 else next(fits))
        welfare = test_welfare(td.full, policy, rule, td.test_rows)
        del policy  # before the next method is fitted
        results.append(
            TrialResult(
                method_id=m.name,
                welfare=welfare,
                regret=oracle - welfare,
                seed=seed,
                selected_zeta=selected,
            )
        )
    return results


def run_experiment(cfg: ExperimentConfig) -> Path:
    """Run all trials and write trials.csv, aggregate.csv, welfare_lists.csv,
    and manifest.json into the output directory. Idempotent per config."""
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    if cfg.jobs > 1 and cfg.trials > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            per_trial = list(pool.map(_run_trial, repeat(cfg), range(cfg.trials)))
    else:
        per_trial = [_run_trial(cfg, t) for t in range(cfg.trials)]

    write_table(out / "trials.csv",
                ["trial", "method", "welfare", "regret", "selected_zeta", "seed"],
                ((t, r.method_id, r.welfare, r.regret, r.selected_zeta, r.seed)
                 for t, rows in enumerate(per_trial) for r in rows))

    by_method = {m.name: [r for rows in per_trial for r in rows if r.method_id == m.name]
                 for m in cfg.methods}
    write_table(out / "aggregate.csv",
                ["method", "welfare_mean", "welfare_var", "welfare_se", "regret_mean",
                 "regret_se", "trials"],
                (astuple(aggregate(rows)) for rows in by_method.values()))

    write_table(out / "welfare_lists.csv", ["method", "trial", "welfare"],
                ((name, t, r.welfare) for name, rows in by_method.items()
                 for t, r in enumerate(rows)))

    write_json(out / "manifest.json", to_dict(cfg))
    return out


# ---------------------------------------------------------------------------
# posterior visualization run


@dataclass(frozen=True)
class PosteriorVizConfig:
    """One-dimensional bounded-score run with uncertainty bands.

    Mirrors the reference visualization setup: uniform covariates on
    [-2.5, 2.5], scale 1.0, hidden widths (64, 64), minibatch 128, learning
    rate 1e-3, weight decay 1e-4, and the default sampler settings. ``seed``
    draws the data, the split, the MAP fit and the sampler, so the nested
    ``train.seed`` and ``sgld.seed`` are set to it; either may be given as 0
    or as ``seed``, and any other value is rejected.
    """

    output_dir: str
    n: int = 1500
    zeta: float = 1.0
    eta: float = 1.0
    tau2: float = 1.0
    hidden: tuple[int, ...] = (64, 64)
    split: tuple[float, float, float] = (0.6, 0.2, 0.2)
    seed: int = 0
    train: TrainConfig = TrainConfig(weight_decay=1e-4)
    sgld: SgldConfig = SgldConfig()
    grid_points: int = 200
    eval_points: tuple[float, ...] = (-2.0, -1.0, 0.0, 1.0, 2.0)
    level: float = 0.95

    def __post_init__(self):
        _check_split(self.split, self.n, "n")
        if not 0.0 < self.level < 1.0 or self.grid_points < 1:
            raise ValueError("level must lie in (0, 1) and grid_points be positive")
        if not np.isfinite(self.eval_points).all():
            raise ValueError(f"eval_points must be finite, got {self.eval_points}")
        for field in ("train", "sgld"):
            nested = getattr(self, field)
            if nested.seed not in (0, self.seed):
                raise ValueError(f"{field}.seed must be 0 or seed = {self.seed}, got "
                                 f"{nested.seed}: the run draws every stream from seed")
            object.__setattr__(self, field, replace(nested, seed=self.seed))


def run_posterior_viz(cfg: PosteriorVizConfig) -> Path:
    """Train the MAP score, sample the generalized posterior, and emit CSVs:
    pointwise score bands on a grid against the population target, welfare
    draws with their credible interval, and raw score draws at fixed points.
    """
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    spec = DgpSpec(family="onedimviz", n=cfg.n, seed=cfg.seed)
    full, _ = generate_full_feedback(spec)
    train_rows, val_rows, test_rows = split_rows(full.n, cfg.split, [cfg.seed, _SPLIT_TAG])

    gibbs = GibbsConfig(zeta=cfg.zeta, eta=cfg.eta, tau2=cfg.tau2)
    arch, loss = squared_surrogate(full.x, full.outcome_diff(), cfg.zeta, cfg.hidden,
                                   nnet.HEAD_TANH)
    map_params = map_train(arch, loss, gibbs, cfg.train, train_rows, val_rows)

    grid = np.linspace(-2.5, 2.5, cfg.grid_points)
    pts = np.asarray(cfg.eval_points, dtype=np.float64)

    def summary(w):  # grid scores, test welfare via this module's traced binding, point scores
        return np.concatenate([nnet.forward(arch, w, grid[:, None])[:, 0],
                               [test_welfare(full, FittedPolicy(arch, w), RULE_DETERMINISTIC,
                                             test_rows)],
                               nnet.forward(arch, w, pts[:, None])[:, 0]])

    stats = sgld_sample(arch, loss, gibbs, map_params, cfg.sgld, rows=train_rows, summary=summary)
    fs, per_draw, fpts = stats[:, :grid.size], stats[:, grid.size], stats[:, grid.size + 1:]

    alpha = (1.0 - cfg.level) / 2.0
    lo, hi = np.quantile(fs, [alpha, 1.0 - alpha], axis=0)
    target = population_score_binary(onedim_effect(grid) / cfg.zeta)
    write_table(out / "score_grid.csv", ["x", "f_mean", "f_lo", "f_hi", "target"],
                ((grid[j], fs[:, j].mean(), lo[j], hi[j], target[j]) for j in range(grid.size)))

    mean_w, lo_w, hi_w = welfare_credible_interval(per_draw, cfg.level)
    write_table(out / "welfare_draws.csv", ["draw", "welfare"], enumerate(per_draw))
    write_table(out / "welfare_interval.csv", ["mean", "lo", "hi", "level"],
                [(mean_w, lo_w, hi_w, cfg.level)])
    write_table(out / "score_draws_at_points.csv", ["x0", "draw", "f"],
                ((x0, s, fpts[s, j]) for j, x0 in enumerate(pts) for s in range(fpts.shape[0])))

    write_json(out / "manifest.json", to_dict(cfg))
    return out


def parse_config(raw: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from a plain JSON-style dict (see ``configio``)."""
    return from_dict(ExperimentConfig, raw)
