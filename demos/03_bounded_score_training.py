"""Train a tanh-squashed score on one-dimensional data and inspect the fit.

The population minimizer of the binary surrogate at scale zeta is the clipped
conditional outcome difference clip(m(x) / zeta, -1, 1). Here the true
difference is 1.2 sin(x), so at zeta = 1 the fitted score should trace the
clipped sine. The script trains a MAP score and writes a CSV comparing the
fit with the target on a grid; the mean squared deviation is printed.
"""

import csv

import numpy as np

from gbpl import nnet
from gbpl.dgp import DgpSpec, generate_full_feedback
from gbpl.experiment import split_rows
from gbpl.losses import FullVectorSurrogateLoss
from gbpl.posterior import GibbsConfig, TrainConfig, map_train

ZETA = 1.0

full, _ = generate_full_feedback(DgpSpec(family="onedimviz", n=1500, seed=0))
train_rows, val_rows, _ = split_rows(full.n, (0.6, 0.2, 0.2), [0, 1])

arch = nnet.MlpArchitecture(input_dim=1, hidden_dims=(64, 64), output_dim=1, head=nnet.HEAD_TANH)
loss = FullVectorSurrogateLoss(full.x, full.outcome_diff(), ZETA)
gibbs = GibbsConfig(zeta=ZETA, eta=1.0, tau2=1.0)
cfg = TrainConfig(learning_rate=1e-3, batch_size=128, max_epochs=60, patience=10,
                  seed=0, weight_decay=1e-4)
params = map_train(arch, loss, gibbs, cfg, train_rows, val_rows)

grid = np.linspace(-2.5, 2.5, 200)
fitted = nnet.forward(arch, params, grid[:, None])[:, 0]
target = np.clip(1.2 * np.sin(grid) / ZETA, -1.0, 1.0)

with open("score_fit.csv", "w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(["x", "fitted", "target"])
    for row in zip(grid, fitted, target):
        writer.writerow([f"{v:.6f}" for v in row])

print(f"mean squared deviation from the clipped target: {np.mean((fitted - target) ** 2):.5f}")
print("wrote score_fit.csv (x, fitted, target)")
