"""A small end-to-end benchmark run with the deterministic harness.

Every trial draws its own dataset (seed = base_seed + trial), splits it
0.6/0.2/0.2, fits each method with early stopping, selects the surrogate
scale of the CV variant by validation welfare, and scores test welfare and
regret. Reruns of the same config are byte-identical; per-method seed
streams mean adding a method never changes the others' rows.
"""

from gbpl.experiment import parse_config, run_experiment

config = {
    "dgp": {"family": "binary2", "n": 600},
    "methods": [
        {"name": "GBPLNet (zeta=0.1)", "kind": "gbpl", "zeta": 0.1},
        {"name": "GBPLNet (CV)", "kind": "gbpl", "zeta_grid": [1.0, 0.1, 0.01, 0.001]},
        {"name": "DiffReg", "kind": "diff_reg"},
        {"name": "PluginReg", "kind": "plugin_reg_k"},
        {"name": "WeightedLogistic", "kind": "weighted_logistic"},
    ],
    "trials": 5,
    "base_seed": 0,
    "train": {"learning_rate": 1e-3, "batch_size": 128, "max_epochs": 40, "patience": 8},
    "hidden": [64, 64],
    "output_dir": "benchmark_run",
}

out = run_experiment(parse_config(config))
print(f"artifacts in {out}/: trials.csv, aggregate.csv, welfare_lists.csv, manifest.json\n")
print((out / "aggregate.csv").read_text())
