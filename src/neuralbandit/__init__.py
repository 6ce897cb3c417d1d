"""Neural contextual bandits with UCB exploration.

A small research library around a fully connected ReLU network.  The neural
policies are two learners under one choice rule: a network retrained online
(NeuralUCB) or ridge regression on frozen gradient features (NeuralUCB0),
each scored by its predicted mean plus an optional confidence width over its
gradient features, with optional epsilon-greedy play.  Classical baselines
(LinUCB, kernel UCB, uniform random), neural-tangent-kernel diagnostics,
synthetic and dataset-derived environments, a seeded experiment harness and
a CLI sit beside them; import those from their modules.  The package root
exports what a script needs to run an experiment.
"""

from neuralbandit.harness import (
    EnvironmentConfig,
    PolicyConfig,
    ExperimentConfig,
    run_experiment,
    emit_results,
)

__version__ = "0.1.0"
