"""Deterministic benchmark harness.

One experiment = a data generating process, a feedback mode (full outcome
vectors or logged single-outcome data with a pseudo-outcome construction), a
list of methods, and a trial count. Per trial the harness generates data with
seed base_seed + trial, splits it 0.6/0.2/0.2 (train gets the rounding
remainder), and fits each method's rules, early-stopped on their validation
loss: one per surrogate scale, or one for a baseline, whose scale is ``None``.
Several rules are fitted one at a time and reduced to one by validation
welfare; each is scored as soon as it is fitted, and the chosen rule's test
welfare and regret are reported against the realized-outcome oracle. IPW is
DR with a zero outcome regression, so both pseudo-outcome tables come from one
``dr_pseudo_outcomes`` call.

Seed streams are isolated per (trial, method), keyed by a CRC of the method
name, so adding or removing a method never perturbs the other methods' rows.
Reruns of the same config produce byte-identical CSV files.
"""

from __future__ import annotations

import os
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
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
from gbpl.dgp import (LOGGING_LOGISTIC, DgpSpec, check_logging,
                      generate_full_feedback, generate_logged, onedim_effect, write_table)
from gbpl.evaluation import (
    RULE_DETERMINISTIC,
    RULE_RANDOMIZED,
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
from gbpl.surrogate import FullFeedbackDataset, check_finite, check_positive, population_score_binary

KIND_GBPL = "gbpl"
# the values of FeedbackSpec's mode, pseudo and propensity
FEEDBACK_MODES = ("full", "logged")
PSEUDO_KINDS = (PSEUDO_IPW, PSEUDO_DR)
PROPENSITY_SOURCES = ("true", "fitted")
DEFAULT_ZETA_GRID = (1.0, 0.1, 0.01, 0.001)

_SPLIT_TAG = 0x5917


@dataclass(frozen=True)
class MethodSpec:
    """One method row in the benchmark tables.

    ``kind`` is ``"gbpl"`` or a baseline kind; surrogate methods carry either
    a fixed ``zeta`` or a ``zeta_grid`` selected by validation welfare.
    A surrogate method with neither gets the default grid; every scale must
    be positive, finite and appear once. A baseline takes neither.
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
            for z in scales:
                check_positive(f"method {self.name!r}: zeta", z)
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
    mode: str = "full"
    logging: str = LOGGING_LOGISTIC
    clip: float = DEFAULT_EPSILON_CLIP
    pseudo: str = PSEUDO_DR
    propensity: str = "true"
    folds: int = 0  # cross-fitting folds for the outcome regression: 0, or at least 2

    def __post_init__(self):
        if self.mode not in FEEDBACK_MODES:
            raise ValueError("feedback mode must be 'full' or 'logged'")
        check_logging(2, self.logging, self.clip)  # the loosest K; a logged run checks its own
        if self.pseudo not in PSEUDO_KINDS:
            raise ValueError("pseudo must be 'ipw' or 'dr'")
        if self.propensity not in PROPENSITY_SOURCES:
            raise ValueError("propensity must be 'true' or 'fitted'")
        check_folds(self.folds)
        if self.folds and (self.mode == "full" or self.pseudo == PSEUDO_IPW):
            raise ValueError(f"folds = {self.folds} cross-fits the outcome regression, "
                             "which only mode 'logged' with pseudo 'dr' fits")


@dataclass(frozen=True)
class ExperimentConfig:
    """One benchmark run. Each surrogate scale z is fitted under ``GibbsConfig(z)``,
    baselines and nuisance fits under ``posterior.FLAT_PRIOR``. A trial reseeds
    ``dgp.seed`` and ``train.seed``, so both must be left at 0."""

    dgp: DgpSpec
    methods: tuple[MethodSpec, ...]
    output_dir: str
    feedback: FeedbackSpec = FeedbackSpec()
    split: tuple[float, float, float] = (0.6, 0.2, 0.2)
    trials: int = 10
    base_seed: int = 0
    train: TrainConfig = TrainConfig()
    hidden: tuple[int, ...] = nnet.DEFAULT_HIDDEN
    jobs: int | None = None

    def __post_init__(self):
        if len(self.methods) < 1:
            raise ValueError("need at least one method")
        if len({m.name for m in self.methods}) != len(self.methods):
            raise ValueError("method names must be unique")
        n_train = _check_split(self.split, self.dgp.n, "dgp.n")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if self.jobs is not None and self.jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {self.jobs}")
        nnet.MlpArchitecture(1, self.hidden)
        for field, seed in (("dgp.seed", self.dgp.seed), ("train.seed", self.train.seed)):
            if seed != 0:
                raise ValueError(f"{field} must be 0, got {seed}: a trial overwrites it; "
                                 "set base_seed instead")
        fb = self.feedback
        if fb.mode == "logged":
            check_logging(self.dgp.k, fb.logging, fb.clip)
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


def _prepare_trial(cfg: ExperimentConfig, trial: int):
    """Everything one trial's method fits see: the realized outcomes (for
    evaluation only), the (n, K) table the objectives consume (realized or
    pseudo outcomes), both over all rows, and the (train, val, test) split.
    Rows are passed by index, never copied.

    In logged mode the outcome regression, the propensity fit and the DR step
    get the logged data without its true propensities, whichever propensity
    mode is set: a "true" trial holds the truth only as its ``e_hat``, and a
    "fitted" trial keeps no reference to it past ``generate_logged``."""
    data_seed = cfg.base_seed + trial
    spec = replace(cfg.dgp, seed=data_seed)
    fb = cfg.feedback
    train_rows, val_rows, test_rows = split_rows(spec.n, cfg.split, [data_seed, _SPLIT_TAG])
    if fb.mode == "full":
        full, _ = generate_full_feedback(spec)
        table = full.y
    else:  # the hidden full table serves only the test set
        logged, full = generate_logged(spec, fb.logging, fb.clip)
        e_hat = logged.true_propensity if fb.propensity == "true" else None
        logged = replace(logged, true_propensity=None)
        nuisance_cfg = replace(cfg.train, seed=method_seed(cfg.base_seed, trial, "__nuisance__"))
        # the outcome nets train before any nuisance table exists; each fit
        # seeds its own generator, so the order moves no result
        gamma_hat = (fit_outcome_regression(logged, train_rows, nuisance_cfg, cfg.hidden,
                                            fb.folds)
                     if fb.pseudo == PSEUDO_DR else np.zeros((logged.n, logged.k)))
        if e_hat is None:
            e_hat = fit_propensity(logged, train_rows, fb.clip, nuisance_cfg)
        table = dr_pseudo_outcomes(logged, e_hat, gamma_hat)
    return full, table, (train_rows, val_rows, test_rows)


def fit_gbpl(x: np.ndarray, table: np.ndarray, gibbs: GibbsConfig, cfg: TrainConfig,
             train_rows: np.ndarray, val_rows: np.ndarray,
             hidden: tuple[int, ...]) -> FittedPolicy:
    """The surrogate fit for a K-column (pseudo-)outcome table: a tanh score on
    the column difference at K = 2, a softmax policy on the rows otherwise."""
    if table.shape[1] == 2:
        u = table[:, 0] - table[:, 1]
        return fit_score_binary(x, u, gibbs, cfg, train_rows, val_rows, hidden)
    return fit_policy_fullvector(x, table, gibbs, cfg, train_rows, val_rows, hidden)


def _run_trial(cfg: ExperimentConfig,
               trial: int) -> list[tuple[float, float, float | None, int]]:
    """Score every method on one trial: a ``(welfare, regret, selected scale,
    seed)`` tuple per method, in ``cfg.methods`` order; a baseline's scale is
    None. A method's rules are fitted one at a time; each is scored on the
    test rows, and on the validation rows when its method selects among
    several scales, as soon as it is fitted, and released before the next fit.
    A trial keeps numbers, not rules, so its peak memory is that of one fit."""
    full, table, (train_rows, val_rows, test_rows) = _prepare_trial(cfg, trial)
    rule = RULE_DETERMINISTIC if table.shape[1] == 2 else RULE_RANDOMIZED
    oracle = oracle_welfare(full, test_rows)
    val_table = FullFeedbackDataset(full.x, table)

    results = []
    for m in cfg.methods:
        seed = method_seed(cfg.base_seed, trial, m.name)
        train_cfg = replace(cfg.train, seed=seed)
        val_welfare, welfare = {}, {}  # per scale
        for z in m.scales:
            policy = (fit_baseline(m.kind, full.x, table, train_cfg, train_rows, val_rows,
                                   cfg.hidden) if z is None
                      else fit_gbpl(full.x, table, GibbsConfig(z), train_cfg,
                                    train_rows, val_rows, cfg.hidden))
            if len(m.scales) > 1:
                val_welfare[z] = test_welfare(val_table, policy, rule, val_rows)
            welfare[z] = test_welfare(full, policy, rule, test_rows)
            del policy  # before the next rule is fitted
        selected = (select_zeta_by_validation(val_welfare.items()) if val_welfare
                    else m.scales[0])
        results.append((welfare[selected], oracle - welfare[selected], selected, seed))
    return results


def run_experiment(cfg: ExperimentConfig) -> Path:
    """Run all trials and write trials.csv, aggregate.csv, welfare_lists.csv,
    and manifest.json into the output directory. Idempotent per config.
    Trials run in ``min(trials, jobs)`` processes; ``jobs`` defaults to the usable CPUs.

    The trials' welfare and regret values form two (trials, methods) tables,
    columns in ``cfg.methods`` order: a column is one method's ``aggregate``
    input and, read down, its ``welfare_lists.csv`` rows."""
    out = Path(cfg.output_dir)

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(cfg.trials, cfg.jobs or cpus or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_trial = list(pool.map(_run_trial, repeat(cfg), range(cfg.trials)))
    else:
        per_trial = [_run_trial(cfg, t) for t in range(cfg.trials)]

    names = [m.name for m in cfg.methods]
    write_table(out / "trials.csv",
                ["trial", "method", "welfare", "regret", "selected_zeta", "seed"],
                ((t, name, *row) for t, rows in enumerate(per_trial)
                 for name, row in zip(names, rows)))

    welfare, regret = (np.array([[row[i] for row in rows] for rows in per_trial])
                       for i in (0, 1))
    write_table(out / "aggregate.csv",
                ["method", "welfare_mean", "welfare_var", "welfare_se", "regret_mean",
                 "regret_se", "trials"],
                ((name, *aggregate(welfare[:, j], regret[:, j])) for j, name in enumerate(names)))

    write_table(out / "welfare_lists.csv", ["method", "trial", "welfare"],
                ((name, t, w) for j, name in enumerate(names) for t, w in enumerate(welfare[:, j])))

    write_json(out / "manifest.json", to_dict(cfg))
    return out


# ---------------------------------------------------------------------------
# posterior visualization run


@dataclass(frozen=True)
class PosteriorVizConfig:
    """One-dimensional bounded-score run with uncertainty bands.

    Mirrors the reference visualization setup: uniform covariates on
    [-2.5, 2.5], scale 1.0, hidden widths (64, 64), minibatch 128, learning
    rate 1e-3, weight decay 1e-4, and the default sampler settings. ``gibbs``
    is the posterior that the MAP fit and the sampler share (scale ``zeta``,
    temperature ``eta``, prior variance ``tau2``; flags ``--zeta``, ``--eta``
    and ``--tau2``), and the score grid's target uses its scale. ``seed``
    draws the data, the split, the MAP fit and the sampler, so the nested
    ``train.seed`` and ``sgld.seed`` are set to it; either may be given as 0
    or as ``seed``, and any other value is rejected.
    """

    output_dir: str
    n: int = 1500
    gibbs: GibbsConfig = GibbsConfig(zeta=1.0)
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
        nnet.MlpArchitecture(1, self.hidden)
        if not 0.0 < self.level < 1.0:
            raise ValueError(f"level must lie in (0, 1), got {self.level!r}")
        if self.grid_points < 1:
            raise ValueError(f"grid_points must be at least 1, got {self.grid_points!r}")
        check_finite("eval_points", np.asarray(self.eval_points, dtype=np.float64))
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

    spec = DgpSpec(family="onedimviz", n=cfg.n, seed=cfg.seed)
    full = generate_full_feedback(spec)[0]  # the conditional means would outlive the run
    train_rows, val_rows, test_rows = split_rows(full.n, cfg.split, [cfg.seed, _SPLIT_TAG])

    arch, loss = squared_surrogate(full.x, full.outcome_diff(), cfg.gibbs.zeta, cfg.hidden,
                                   nnet.HEAD_TANH)
    map_params = map_train(arch, loss, cfg.gibbs, cfg.train, train_rows, val_rows)

    grid = np.linspace(-2.5, 2.5, cfg.grid_points)
    pts = np.asarray(cfg.eval_points, dtype=np.float64)

    def summary(w):  # grid scores, test welfare via this module's traced binding, point scores
        return np.concatenate([nnet.forward(arch, w, grid[:, None])[:, 0],
                               [test_welfare(full, FittedPolicy(arch, w), RULE_DETERMINISTIC,
                                             test_rows)],
                               nnet.forward(arch, w, pts[:, None])[:, 0]])

    stats = sgld_sample(arch, loss, cfg.gibbs, map_params, cfg.sgld, rows=train_rows,
                        summary=summary)
    fs, per_draw, fpts = stats[:, :grid.size], stats[:, grid.size], stats[:, grid.size + 1:]

    alpha = (1.0 - cfg.level) / 2.0
    f_mean = [fs[:, j].mean() for j in range(grid.size)]  # before the quantile reorders fs
    lo, hi = np.quantile(fs, [alpha, 1.0 - alpha], axis=0, overwrite_input=True)
    target = population_score_binary(onedim_effect(grid) / cfg.gibbs.zeta)
    write_table(out / "score_grid.csv", ["x", "f_mean", "f_lo", "f_hi", "target"],
                ((grid[j], f_mean[j], lo[j], hi[j], target[j]) for j in range(grid.size)))

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
