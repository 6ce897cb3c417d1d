"""Neural contextual bandits with UCB exploration.

A small research library built around a fully connected ReLU network whose
gradient features drive an upper-confidence-bound policy, together with the
linearized variant that freezes the feature map at initialization, classical
baselines (LinUCB, kernel UCB, epsilon-greedy), neural-tangent-kernel
diagnostics, synthetic and dataset-derived bandit environments, and a seeded
experiment harness with a CLI.
"""

from neuralbandit.network import (
    NetworkShape,
    NetworkParams,
    init_symmetric,
    init_plain,
    forward,
    forward_batch,
    gradient,
    gradient_batch,
    unflatten,
)
from neuralbandit.ntk import (
    GramMatrix,
    ntk_gram,
    empirical_gram,
    effective_dimension,
    rkhs_norm_proxy,
)
from neuralbandit.confidence import (
    DesignMatrix,
    ConstantWidth,
    RidgeWidth,
    NeuralWidth,
)
from neuralbandit.policies import (
    TrainingConfig,
    NeuralUCB,
    NeuralUCB0,
    NeuralEpsilonGreedy,
    NeuralEpsilonGreedy0,
    KernelUCB,
    UniformRandomPolicy,
    OraclePolicy,
    train_nn,
    DivergenceError,
)
from neuralbandit.environments import (
    SyntheticBandit,
    DatasetBandit,
    sample_unit_ball,
    preprocess_batch,
    load_csv,
)
from neuralbandit.harness import (
    EnvironmentConfig,
    PolicyConfig,
    ExperimentConfig,
    RunResult,
    ConfigError,
    run_experiment,
    grid_search,
    emit_results,
)

__version__ = "0.1.0"
