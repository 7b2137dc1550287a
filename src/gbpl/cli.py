"""Command-line frontend.

Subcommands: ``simulate`` (write a synthetic dataset to CSV), ``train`` (fit
one method on a CSV and save the model), ``evaluate`` (score a saved model on
a CSV), ``experiment`` (the full benchmark harness from a JSON config),
``posterior-viz`` (the one-dimensional uncertainty run), and ``paccheck``
(the PAC-Bayes bound calculator). Every run that writes files also writes a
``manifest.json`` echoing the resolved configuration.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from gbpl import nnet
from gbpl.configio import schema, to_dict, write_json
from gbpl.dgp import (
    DgpSpec,
    generate_full_feedback,
    generate_logged,
    read_full_feedback_csv,
    write_full_feedback_csv,
    write_logged_csv,
)
from gbpl.evaluation import (
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
    parse_config,
    run_experiment,
    run_posterior_viz,
    split_rows,
)
from gbpl.methods import FittedPolicy, fit_policy_fullvector, fit_score_binary
from gbpl.posterior import GibbsConfig, SgldConfig, TrainConfig


def _cmd_simulate(args) -> int:
    spec = DgpSpec(
        family=args.family,
        n=args.n,
        d=args.d,
        k=args.k,
        noise_sd=args.noise_sd,
        seed=args.seed,
        csv_path=args.csv_path,
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    if args.logged:
        logged, full = generate_logged(spec, args.logging, args.clip)
        write_logged_csv(out, logged)
        if args.sidecar:
            write_full_feedback_csv(Path(args.sidecar), full)
    else:
        full, _ = generate_full_feedback(spec)
        write_full_feedback_csv(out, full)
    write_json(
        out.parent / "manifest.json",
        {"command": "simulate", "dgp": to_dict(spec), "logged": bool(args.logged),
         "logging": args.logging, "clip": args.clip, "out": str(out)},
    )
    print(f"wrote {out}")
    return 0


def _cmd_train(args) -> int:
    data = read_full_feedback_csv(args.data)
    n = data.n
    train_rows, val_rows, _ = split_rows(n, (0.6, 0.2, 0.2), [args.seed, _SPLIT_TAG])
    gibbs = GibbsConfig(
        zeta=args.zeta,
        eta=args.eta,
        tau2=args.tau2,
        kind="binary" if data.k == 2 else "full_vector",
    )
    cfg = TrainConfig(
        learning_rate=args.learning_rate,
        batch_size=args.batch_size,
        max_epochs=args.max_epochs,
        patience=args.patience,
        seed=args.seed,
    )
    hidden = tuple(args.hidden)
    if data.k == 2:
        policy = fit_score_binary(
            data.x, data.outcome_diff(), gibbs, cfg, train_rows, val_rows, hidden
        )
    else:
        policy = fit_policy_fullvector(data.x, data.y, gibbs, cfg, train_rows, val_rows, hidden)
    out = Path(args.out)
    nnet.save_params(out, policy.arch, policy.params)
    write_json(
        out / "manifest.json",
        {"command": "train", "data": str(args.data), "gibbs": to_dict(gibbs),
         "train": to_dict(cfg), "hidden": list(hidden)},
    )
    print(f"saved model to {out}")
    return 0


def _cmd_evaluate(args) -> int:
    data = read_full_feedback_csv(args.data)
    policy = FittedPolicy(*nnet.load_params(Path(args.model)))
    rule = args.rule
    welfare = test_welfare(data, policy, rule)
    oracle = oracle_welfare(data)
    metrics = {"welfare": welfare, "oracle_welfare": oracle, "regret": oracle - welfare,
               "rule": rule, "n": data.n}
    print(json.dumps(metrics, indent=2, sort_keys=True))
    if args.out:
        write_json(Path(args.out), metrics)
    return 0


def _cmd_experiment(args) -> int:
    if args.print_schema:
        print(json.dumps(schema(ExperimentConfig), indent=2))
        return 0
    raw = json.loads(Path(args.config).read_text())
    if args.out:
        raw["output_dir"] = args.out
    if args.jobs is not None:
        raw["jobs"] = args.jobs
    cfg = parse_config(raw)
    out = run_experiment(cfg)
    print(f"results in {out}")
    return 0


def _cmd_posterior_viz(args) -> int:
    cfg = PosteriorVizConfig(
        output_dir=args.out,
        n=args.n,
        zeta=args.zeta,
        seed=args.seed,
        train=TrainConfig(
            learning_rate=args.learning_rate,
            batch_size=args.batch_size,
            max_epochs=args.max_epochs,
            patience=args.patience,
            weight_decay=args.weight_decay,
        ),
        sgld=SgldConfig(
            step_size=args.sgld_step,
            burn_in=args.burn_in,
            n_draws=args.draws,
            thin=args.thin,
            batch_size=args.batch_size,
        ),
        grid_points=args.grid_points,
    )
    out = run_posterior_viz(cfg)
    print(f"results in {out}")
    return 0


def _cmd_paccheck(args) -> int:
    inputs = PacBayesInputs(
        empirical_risk_mean=args.risk,
        kl=args.kl,
        n=args.n,
        delta=args.delta,
        v=args.v,
        b=args.b,
        lam=args.lam if args.lam is not None else 0.5 / args.b,
    )
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
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--noise-sd", dest="noise_sd", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv-path", dest="csv_path", default=None,
                   help="source CSV for the semisynthetic family")
    p.add_argument("--logged", action="store_true", help="emit logged data instead of full feedback")
    p.add_argument("--logging", choices=["logistic", "softmax"], default="logistic")
    p.add_argument("--clip", type=float, default=0.05)
    p.add_argument("--sidecar", default=None,
                   help="where to store the hidden full table (logged mode, evaluation only)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("train", help="fit a surrogate score/policy on a full-feedback CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--zeta", type=float, default=0.1)
    p.add_argument("--eta", type=float, default=1.0)
    p.add_argument("--tau2", type=float, default=1.0)
    p.add_argument("--hidden", type=int, nargs="*", default=[128, 128])
    p.add_argument("--learning-rate", dest="learning_rate", type=float, default=1e-3)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=128)
    p.add_argument("--max-epochs", dest="max_epochs", type=int, default=100)
    p.add_argument("--patience", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="score a saved model on a full-feedback CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True, help="directory holding arch.json and params.bin")
    p.add_argument("--rule", choices=["deterministic", "randomized"], default="deterministic")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("experiment", help="run the benchmark harness from a JSON config")
    p.add_argument("--config", help="path to the JSON config")
    p.add_argument("--out", default=None, help="override output_dir")
    p.add_argument("--jobs", type=int, default=None,
                   help="parallel trials (overrides the config's jobs)")
    p.add_argument("--print-schema", action="store_true", help="print the config schema and exit")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("posterior-viz", help="one-dimensional posterior uncertainty run")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=1500)
    p.add_argument("--zeta", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--learning-rate", dest="learning_rate", type=float, default=1e-3)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=128)
    p.add_argument("--max-epochs", dest="max_epochs", type=int, default=100)
    p.add_argument("--patience", type=int, default=10)
    p.add_argument("--weight-decay", dest="weight_decay", type=float, default=1e-4)
    p.add_argument("--sgld-step", dest="sgld_step", type=float, default=2e-5)
    p.add_argument("--burn-in", dest="burn_in", type=int, default=1200)
    p.add_argument("--draws", type=int, default=300)
    p.add_argument("--thin", type=int, default=8)
    p.add_argument("--grid-points", dest="grid_points", type=int, default=200)
    p.set_defaults(func=_cmd_posterior_viz)

    p = sub.add_parser("paccheck", help="evaluate the PAC-Bayes risk bound")
    p.add_argument("--risk", type=float, required=True, help="posterior mean empirical risk")
    p.add_argument("--kl", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--v", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--lam", type=float, default=None, help="defaults to 0.5/b")
    p.set_defaults(func=_cmd_paccheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "experiment" and not args.print_schema and not args.config:
        print("experiment requires --config (or --print-schema)", file=sys.stderr)
        return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
