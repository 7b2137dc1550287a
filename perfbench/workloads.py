"""The benchmark's workloads: gbpl inputs built from the benchmark seed.

Every workload uses the criterion-9 optimiser settings (Adam, learning rate
1e-3, minibatch 128) with a fixed epoch budget: ``patience`` equals
``max_epochs``, so no fit stops early. With early stopping the number of
optimiser steps follows the data: ``binary_cv`` took 6,090 to 10,150 steps
over seeds 0 to 5, a spread no timing bound could absorb. A fixed budget
makes the step count a property of the workload, not of the seed.

The experiment workloads draw n = 6000 rows and split them 0.2/0.1/0.7. That
keeps the training set at the 1200 rows of the n = 2000 default split, so the
training work is unchanged, while the 4200-row test set makes the reported
welfare steadier across seeds.
"""

from __future__ import annotations

import csv
import math
import statistics
from dataclasses import replace
from pathlib import Path

EXPERIMENT_N = 6000
EXPERIMENT_SPLIT = (0.2, 0.1, 0.7)
EXPERIMENT_TRIALS = 2
EXPERIMENT_EPOCHS = 25
VIZ_N = 1500
VIZ_EPOCHS = 100
VIZ_CHAINS = 5
LOGGED_CLIP = 0.05

EXPERIMENT_FILES = ("trials.csv", "aggregate.csv", "welfare_lists.csv")
VIZ_FILES = (
    "score_grid.csv",
    "welfare_draws.csv",
    "welfare_interval.csv",
    "score_draws_at_points.csv",
)

# gbpl modules each workload calls into; the self-test requires a span on each.
LAYERS = {
    "binary_cv": (
        "nnet", "losses", "posterior", "dgp", "methods", "baselines", "evaluation",
        "experiment",
    ),
    "logged_dr_k5": (
        "nnet", "losses", "posterior", "counterfactual", "surrogate", "dgp", "methods",
        "baselines", "evaluation", "experiment",
    ),
    "posterior_viz": (
        "nnet", "losses", "posterior", "dgp", "methods", "evaluation", "experiment", "cli",
    ),
}

# Which end-to-end metrics a change to a layer should move, and on which
# workloads. Written down before any optimisation is measured.
EXPECTED_MOVES = {
    "nnet.forward": (("wall_s", "steps_per_s"), ("binary_cv", "posterior_viz")),
    "nnet.backward": (("wall_s", "steps_per_s"), ("binary_cv", "posterior_viz")),
    "losses.values": (("wall_s",), ("binary_cv",)),
    "losses.output_grad": (("wall_s",), ("binary_cv",)),
    "posterior.map_train": (("steps_per_s",), ("binary_cv", "logged_dr_k5")),
    "posterior.sgld_sample": (("wall_s",), ("posterior_viz",)),
    "posterior.welfare_credible_interval": (("wall_s",), ("posterior_viz",)),
    "counterfactual.fit_propensity": (("wall_s",), ("logged_dr_k5",)),
    "counterfactual.fit_outcome_regression": (("wall_s",), ("logged_dr_k5",)),
    "counterfactual.clip_propensities": (("wall_s",), ("logged_dr_k5",)),
    "counterfactual.dr_pseudo_outcomes": (("wall_s",), ("logged_dr_k5",)),
    "surrogate.project_simplex_rows": (("wall_s", "setup_s"), ("logged_dr_k5",)),
    "dgp.generate_full_feedback": (("setup_s",), ("binary_cv", "logged_dr_k5", "posterior_viz")),
    "dgp.generate_logged": (("setup_s",), ("logged_dr_k5",)),
    "evaluation.test_welfare": (("wall_s",), ("posterior_viz",)),
    "experiment.run_experiment": (("wall_s", "cpu_s"), ("binary_cv", "logged_dr_k5")),
    "experiment.run_posterior_viz": (("wall_s",), ("posterior_viz",)),
    "cli.main": (("wall_s",), ("posterior_viz",)),
}


def _train(epochs: int) -> dict:
    return {"learning_rate": 1e-3, "batch_size": 128, "max_epochs": epochs, "patience": epochs}


def experiment_config(name: str, seed: int, out_dir: Path, epochs: int = EXPERIMENT_EPOCHS) -> dict:
    """The JSON-style experiment config of ``name`` for benchmark seed ``seed``."""
    common = {
        "split": list(EXPERIMENT_SPLIT),
        "trials": EXPERIMENT_TRIALS,
        "base_seed": seed,
        "train": _train(epochs),
        "output_dir": str(out_dir),
        "jobs": 1,
    }
    if name == "binary_cv":
        return {
            **common,
            "dgp": {"family": "binary2", "n": EXPERIMENT_N},
            "methods": [
                {"name": "GBPL-CV", "kind": "gbpl"},
                {"name": "WeightedLogistic", "kind": "weighted_logistic"},
                {"name": "DiffReg", "kind": "diff_reg"},
            ],
        }
    if name == "logged_dr_k5":
        return {
            **common,
            "dgp": {"family": "multi1", "n": EXPERIMENT_N, "k": 5},
            "feedback": {
                "mode": "logged",
                "logging": "softmax",
                "clip": LOGGED_CLIP,
                "pseudo": "dr",
                "propensity": "fitted",
                "folds": 2,
            },
            "methods": [
                {"name": "GBPL-full (zeta=0.01)", "kind": "gbpl", "zeta": 0.01},
                {"name": "PluginRegK", "kind": "plugin_reg_k"},
            ],
        }
    raise ValueError(f"{name!r} is not an experiment workload")


def viz_seed(seed: int, chain: int) -> int:
    return VIZ_CHAINS * seed + chain


def viz_argv(seed: int, chain: int, out_dir: Path, epochs: int = VIZ_EPOCHS) -> list[str]:
    """``gbpl posterior-viz`` arguments for one chain of benchmark seed ``seed``."""
    return [
        "posterior-viz", "--out", str(out_dir), "--seed", str(viz_seed(seed, chain)),
        "--n", str(VIZ_N), "--learning-rate", "1e-3", "--batch-size", "128",
        "--max-epochs", str(epochs), "--patience", str(epochs),
    ]


def parsed_config(name: str, seed: int, out_dir: Path, epochs: int | None = None):
    """gbpl's own config object for ``name``: an ``ExperimentConfig``, or for
    ``posterior_viz`` the ``PosteriorVizConfig`` of its first chain, whose
    split and sampler are the library's defaults, as with ``viz_argv``."""
    from gbpl import experiment
    from gbpl.posterior import TrainConfig

    if name != "posterior_viz":
        epochs = EXPERIMENT_EPOCHS if epochs is None else epochs
        return experiment.parse_config(experiment_config(name, seed, out_dir, epochs))
    epochs = VIZ_EPOCHS if epochs is None else epochs
    return experiment.PosteriorVizConfig(
        output_dir=str(out_dir), n=VIZ_N, seed=viz_seed(seed, 0),
        train=TrainConfig(**_train(epochs), weight_decay=1e-4),
    )


def generate_first_data(name: str, seed: int) -> None:
    """Generate and split the first trial's data as gbpl does, as the
    workload's set-up: ``experiment._prepare_trial`` up to its nuisance fits,
    or the first lines of ``experiment.run_posterior_viz``."""
    from gbpl.dgp import DgpSpec, generate_full_feedback, generate_logged
    from gbpl.experiment import _SPLIT_TAG, split_rows

    cfg = parsed_config(name, seed, Path())
    if name == "posterior_viz":
        data, _ = generate_full_feedback(DgpSpec(family="onedimviz", n=cfg.n, seed=cfg.seed))
        split_rows(data.n, cfg.split, [cfg.seed, _SPLIT_TAG])
        return
    data_seed = cfg.base_seed  # trial 0
    spec = replace(cfg.dgp, seed=data_seed)
    if cfg.feedback.mode == "full":
        data, _ = generate_full_feedback(spec)
    else:
        data, _ = generate_logged(spec, cfg.feedback.logging, cfg.feedback.clip)
    split_rows(data.n, cfg.split, [data_seed, _SPLIT_TAG])


def optimiser_steps(name: str, epochs: int | None = None) -> int:
    """Adam plus SGLD steps of one repetition, from the workload's config.

    No fit stops early, so a fit over ``r`` rows takes ``max_epochs *
    ceil(r / batch_size)`` Adam steps, and a chain takes ``burn_in + n_draws *
    thin`` SGLD steps. The row counts follow gbpl's split; the DR outcome
    regression holds out a fifth of each fit's rows for early stopping.
    """
    from gbpl.experiment import split_rows

    cfg = parsed_config(name, 0, Path(), epochs)

    def fit(rows: int) -> int:
        return cfg.train.max_epochs * math.ceil(rows / cfg.train.batch_size)

    n = cfg.n if name == "posterior_viz" else cfg.dgp.n
    n_train = len(split_rows(n, cfg.split, [0])[0])
    if name == "posterior_viz":
        sgld = cfg.sgld
        return VIZ_CHAINS * (fit(n_train) + sgld.burn_in + sgld.n_draws * sgld.thin)
    per_trial = 0
    for m in cfg.methods:  # a zeta grid fits each of its members
        per_trial += len(m.zeta_grid or (None,)) * fit(n_train)
    fb = cfg.feedback
    if fb.mode == "logged":
        if fb.propensity == "fitted":
            per_trial += fit(n_train)
        if fb.pseudo == "dr":
            regression_rows = [n_train]
            if fb.folds >= 2:  # one fit per fold on the other folds, then one on all
                regression_rows += [n_train - (n_train + fb.folds - 1 - j) // fb.folds
                                    for j in range(fb.folds)]
            per_trial += sum(fit(r - max(1, r // 5)) for r in regression_rows)
    return cfg.trials * per_trial


def result_files(name: str) -> tuple[str, ...]:
    return VIZ_FILES if name == "posterior_viz" else EXPERIMENT_FILES


def _rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def check_outputs(name: str, out_dirs: list[Path]) -> None:
    """Raise ValueError unless the result files have the expected shape and
    finite welfare values."""
    for d in out_dirs:
        if name == "posterior_viz":
            rows = _rows(d / "welfare_interval.csv")
            if len(rows) != 1:
                raise ValueError(f"{d}: welfare_interval.csv must hold one row")
            mean, lo, hi = (float(rows[0][k]) for k in ("mean", "lo", "hi"))
            if not (math.isfinite(mean) and lo <= mean <= hi):
                raise ValueError(f"{d}: credible interval {lo}..{hi} does not hold {mean}")
            continue
        rows = _rows(d / "trials.csv")
        methods = len(experiment_config(name, 0, d)["methods"])
        if len(rows) != EXPERIMENT_TRIALS * methods:
            raise ValueError(f"{d}: trials.csv has {len(rows)} rows")
        if not all(math.isfinite(float(r["welfare"])) for r in rows):
            raise ValueError(f"{d}: non-finite welfare in trials.csv")


def welfare(name: str, out_dirs: list[Path]) -> float:
    """The workload's quality figure; higher is better.

    Experiment workloads report the surrogate method's mean test welfare from
    ``aggregate.csv``. ``posterior_viz`` reports the median over its chains
    of the credible-interval mean in ``welfare_interval.csv``: a single
    chain's ranged from -0.04 to 0.57 between seeds, because some chains
    drift to draws that treat everyone or no one.
    """
    if name == "posterior_viz":
        return statistics.median(interval_means(out_dirs))
    surrogate = experiment_config(name, 0, out_dirs[0])["methods"][0]["name"]
    for row in _rows(out_dirs[0] / "aggregate.csv"):
        if row["method"] == surrogate:
            return float(row["welfare_mean"])
    raise ValueError(f"{surrogate!r} missing from aggregate.csv")


def interval_means(out_dirs: list[Path]) -> list[float]:
    """The credible-interval mean of each posterior_viz chain."""
    return [float(_rows(d / "welfare_interval.csv")[0]["mean"]) for d in out_dirs]
