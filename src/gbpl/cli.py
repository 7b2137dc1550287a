"""Command-line frontend.

Subcommands: ``simulate`` (write a synthetic dataset to CSV), ``train`` (fit
one method on a CSV and save the model), ``evaluate`` (score a saved model on
a CSV), ``experiment`` (the full benchmark harness from a JSON config),
``posterior-viz`` (the one-dimensional uncertainty run), and ``paccheck``
(the PAC-Bayes bound calculator). Every run that writes files also writes a
``manifest.json`` echoing the resolved configuration. Config flags are the
fields of the config dataclasses in kebab-case (``configio.add_flags``).

Each subcommand reads all of its input in one ``_usage_errors`` block before it
writes or runs anything, and bad input there is a usage error (exit 2) that
names its cause: a config that fails to decode (naming the field; a NaN or
infinite number fails too, as does a non-finite ``paccheck`` flag), a flag the
library would reject (``train --hidden``, ``simulate --clip --logging``), an
``experiment`` without ``--config`` or ``--print-schema``, and
a data CSV, model directory or experiment config that is missing or malformed
(naming the file), or a model whose covariate or action count differs from the
data's (naming both).
Configs are decoded before any file is read.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from gbpl import nnet
from gbpl.configio import add_flags, from_args, read_json, schema, to_dict, write_json
from gbpl.counterfactual import DEFAULT_EPSILON_CLIP
from gbpl.dgp import (
    LOGGING_LOGISTIC,
    LOGGING_SOFTMAX,
    DgpSpec,
    generate_full_feedback,
    generate_logged,
    read_full_feedback_csv,
    write_full_feedback_csv,
    write_logged_csv,
)
from gbpl.evaluation import (
    RULE_DETERMINISTIC,
    RULE_RANDOMIZED,
    PacBayesInputs,
    oracle_welfare,
    pac_bayes_bound,
    pac_bayes_lambda_star,
    pac_bayes_two_sided,
    test_welfare,
)
from gbpl.experiment import (
    _SPLIT_TAG,
    ExperimentConfig,
    PosteriorVizConfig,
    fit_gbpl,
    parse_config,
    run_experiment,
    run_posterior_viz,
    split_rows,
)
from gbpl.methods import FittedPolicy
from gbpl.posterior import GibbsConfig, TrainConfig
from gbpl.surrogate import KIND_BINARY, KIND_FULL_VECTOR


@contextmanager
def _usage_errors(args):
    """Report bad input as a usage error of the subcommand: a ``ValueError``
    by its message, an ``OSError`` by its file and cause. Only the reading and
    checking of input belongs inside; nothing is written there."""
    try:
        yield
    except (OSError, ValueError) as err:
        cause = f"{err.filename}: {err.strerror}" if isinstance(err, OSError) else str(err)
        args.usage_error(cause)


def _cmd_simulate(args) -> int:
    with _usage_errors(args):
        spec = from_args(DgpSpec, args)
        if args.logged:
            logged, full = generate_logged(spec, args.logging, args.clip)
        else:
            full, _ = generate_full_feedback(spec)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    if args.logged:
        write_logged_csv(out, logged)
        if args.sidecar:
            write_full_feedback_csv(Path(args.sidecar), full)
    else:
        write_full_feedback_csv(out, full)
    write_json(
        out.parent / "manifest.json",
        {"command": "simulate", "dgp": to_dict(spec), "logged": bool(args.logged),
         "logging": args.logging, "clip": args.clip, "out": str(out)},
    )
    print(f"wrote {out}")
    return 0


def _cmd_train(args) -> int:
    with _usage_errors(args):
        gibbs = from_args(GibbsConfig, args)
        cfg = from_args(TrainConfig, args)
        if any(h < 1 for h in args.hidden):
            raise ValueError("--hidden widths must be at least 1")
        data = read_full_feedback_csv(args.data)
        gibbs = replace(gibbs, kind=KIND_BINARY if data.k == 2 else KIND_FULL_VECTOR)
        train_rows, val_rows, _ = split_rows(data.n, (0.8, 0.2, 0.0), [cfg.seed, _SPLIT_TAG])
        if val_rows.size == 0:
            raise ValueError(f"{args.data}: {data.n} rows leave no validation row; "
                             "train needs at least 5")
    policy = fit_gbpl(data.x, data.y, gibbs, cfg, train_rows, val_rows, tuple(args.hidden))
    out = Path(args.out)
    nnet.save_params(out, policy.arch, policy.params)
    write_json(
        out / "manifest.json",
        {"command": "train", "data": str(args.data), "gibbs": to_dict(gibbs),
         "train": to_dict(cfg), "hidden": args.hidden},
    )
    print(f"saved model to {out}")
    return 0


def _cmd_evaluate(args) -> int:
    with _usage_errors(args):
        data = read_full_feedback_csv(args.data)
        policy = FittedPolicy(*nnet.load_params(args.model))
        for what, model_has, data_has in (("covariates", policy.arch.input_dim, data.d),
                                          ("actions", policy.n_actions, data.k)):
            if model_has != data_has:
                raise ValueError(f"model {args.model} takes {model_has} {what}, but data "
                                 f"{args.data} has {data_has}")
        welfare = test_welfare(data, policy, args.rule)
    oracle = oracle_welfare(data)
    metrics = {"welfare": welfare, "oracle_welfare": oracle, "regret": oracle - welfare,
               "rule": args.rule, "n": data.n}
    print(json.dumps(metrics, indent=2, sort_keys=True))
    if args.out:
        write_json(Path(args.out), metrics)
    return 0


def _cmd_experiment(args) -> int:
    if args.print_schema:
        print(json.dumps(schema(ExperimentConfig), indent=2))
        return 0
    with _usage_errors(args):
        if not args.config:
            raise ValueError("--config is required (or --print-schema)")
        raw = read_json(args.config)
        if args.out:
            raw["output_dir"] = args.out
        if args.jobs is not None:
            raw["jobs"] = args.jobs
        cfg = parse_config(raw)
    out = run_experiment(cfg)
    print(f"results in {out}")
    return 0


def _cmd_posterior_viz(args) -> int:
    with _usage_errors(args):
        cfg = from_args(PosteriorVizConfig, args, output_dir=args.out)
    out = run_posterior_viz(cfg)
    print(f"results in {out}")
    return 0


def _cmd_paccheck(args) -> int:
    with _usage_errors(args):
        for flag in ("risk", "kl", "delta", "v", "b", "lam"):
            value = getattr(args, flag)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"--{flag} must be finite, got {value!r}")
        # 0.5 / b is undefined at b = 0, which PacBayesInputs then rejects by name
        lam = args.lam if args.lam is not None else (0.5 / args.b if args.b else float("nan"))
        inputs = PacBayesInputs(empirical_risk_mean=args.risk, kl=args.kl, n=args.n,
                                delta=args.delta, v=args.v, b=args.b, lam=lam)
    lam_star = pac_bayes_lambda_star(inputs)
    at_star = replace(inputs, lam=lam_star)
    report = {
        "bound": pac_bayes_bound(inputs),
        "two_sided": pac_bayes_two_sided(inputs),
        "lambda": inputs.lam,
        "lambda_star": lam_star,
        "bound_at_lambda_star": pac_bayes_bound(at_star),
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gbpl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic dataset CSV")
    add_flags(p, DgpSpec)
    p.add_argument("--logged", action="store_true", help="emit logged data instead of full feedback")
    p.add_argument("--logging", choices=[LOGGING_LOGISTIC, LOGGING_SOFTMAX], default=LOGGING_LOGISTIC)
    p.add_argument("--clip", type=float, default=DEFAULT_EPSILON_CLIP)
    p.add_argument("--sidecar", default=None,
                   help="where to store the hidden full table (logged mode, evaluation only)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate, usage_error=p.error)

    p = sub.add_parser("train", help="fit a surrogate score/policy on a full-feedback CSV")
    p.add_argument("--data", required=True)
    add_flags(p, GibbsConfig(zeta=0.1), skip=("kind",))
    add_flags(p, TrainConfig)
    p.add_argument("--hidden", type=int, nargs="*", default=list(nnet.DEFAULT_HIDDEN))
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train, usage_error=p.error)

    p = sub.add_parser("evaluate", help="score a saved model on a full-feedback CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True, help="directory holding arch.json and params.bin")
    p.add_argument("--rule", choices=[RULE_DETERMINISTIC, RULE_RANDOMIZED],
                   default=RULE_DETERMINISTIC)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_evaluate, usage_error=p.error)

    p = sub.add_parser("experiment", help="run the benchmark harness from a JSON config")
    p.add_argument("--config", help="path to the JSON config")
    p.add_argument("--out", default=None, help="override output_dir")
    p.add_argument("--jobs", type=int, default=None,
                   help="parallel trials (overrides the config's jobs)")
    p.add_argument("--print-schema", action="store_true", help="print the config schema and exit")
    p.set_defaults(func=_cmd_experiment, usage_error=p.error)

    p = sub.add_parser("posterior-viz", help="one-dimensional posterior uncertainty run")
    p.add_argument("--out", required=True)
    add_flags(p, PosteriorVizConfig, skip=("output_dir",))
    p.set_defaults(func=_cmd_posterior_viz, usage_error=p.error)

    p = sub.add_parser("paccheck", help="evaluate the PAC-Bayes risk bound")
    p.add_argument("--risk", type=float, required=True, help="posterior mean empirical risk")
    p.add_argument("--kl", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--v", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--lam", type=float, default=None, help="defaults to 0.5/b")
    p.set_defaults(func=_cmd_paccheck, usage_error=p.error)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
