"""Neural contextual bandits with UCB exploration.

A small research library around a fully connected ReLU network.  The UCB
policies are learners under one choice rule: a network retrained online
(NeuralUCB), ridge on frozen gradient features (NeuralUCB0; on raw contexts,
LinUCB) or kernel ridge regression (KernelUCB), each scored by its predicted
mean plus an optional width gamma (a config's number, or under null the
learner's theoretical schedule, which alone reads the log-det) times the
root of its posterior variance, with optional epsilon-greedy play.  A random
baseline, neural-tangent-kernel diagnostics, synthetic and dataset-derived
environments, a seeded experiment harness and a CLI sit in their modules;
the package root exports what a script needs to run an experiment.
"""

from neuralbandit.harness import (
    EnvironmentConfig,
    PolicyConfig,
    ExperimentConfig,
    run_experiment,
    emit_results,
)

__version__ = "0.1.0"
