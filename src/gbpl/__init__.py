"""Policy learning with squared-loss welfare surrogates and generalized posteriors.

The package is organized as a small numpy library:

- ``nnet``: fixed-architecture MLP with manual backpropagation, and the softmax.
- ``losses``: per-sample loss adapters fed to the trainers.
- ``surrogate``: welfare, surrogate losses, and their exact equivalences.
- ``posterior``: Gibbs posteriors, MAP training, SGLD sampling.
- ``counterfactual``: IPW/DR pseudo-outcomes and nuisance estimation.
- ``dgp``: seeded synthetic data generators, logged-data simulation, and CSV
  I/O (``write_table`` writes every CSV the package produces).
- ``methods`` / ``baselines``: fitted decision rules; ``FittedPolicy`` takes
  its rule from the network's head and is the one place a score becomes a
  decision.
- ``evaluation``: welfare/regret metrics (``test_welfare`` is the one welfare
  path), posterior welfare credible intervals, PAC-Bayes bounds, trial
  aggregation.
- ``configio``: the one codec between config dataclasses, dicts, flags and schemas.
- ``experiment`` / ``cli``: deterministic benchmark harness and its frontend.
"""

from gbpl.nnet import MlpArchitecture, init_params, forward, backward
from gbpl.surrogate import FullFeedbackDataset, GibbsConfig
from gbpl.posterior import TrainConfig, SgldConfig, map_train, sgld_sample
from gbpl.counterfactual import LoggedDataset
from gbpl.dgp import DgpSpec, generate_full_feedback, generate_logged
from gbpl.methods import FittedPolicy
from gbpl.evaluation import PacBayesInputs

__version__ = "0.1.0"

__all__ = [
    "MlpArchitecture",
    "init_params",
    "forward",
    "backward",
    "FullFeedbackDataset",
    "GibbsConfig",
    "TrainConfig",
    "SgldConfig",
    "map_train",
    "sgld_sample",
    "LoggedDataset",
    "DgpSpec",
    "generate_full_feedback",
    "generate_logged",
    "FittedPolicy",
    "PacBayesInputs",
    "__version__",
]
