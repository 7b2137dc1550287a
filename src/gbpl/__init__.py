"""Policy learning with squared-loss welfare surrogates and generalized posteriors.

The package is organized as a small numpy library:

- ``nnet``: fixed-architecture MLP with manual backpropagation, and the softmax.
- ``losses``: per-sample loss adapters fed to the trainers.
- ``surrogate``: welfare, surrogate losses, and their exact equivalences.
- ``posterior``: Gibbs posteriors and their ``GibbsConfig``, MAP training, SGLD sampling.
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

__version__ = "0.1.0"
