"""Bandit policies: neural UCB, its frozen-feature variant, and baselines.

Every policy exposes

    select(contexts) -> (action, scores)   # contexts: (K, d) array
    update(context, reward) -> None        # the chosen context

and is mutated strictly sequentially by one experiment run.  All randomness
flows through the generator handed in at construction, so a fixed seed gives
a bit-identical action sequence.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from neuralbandit.confidence import DesignMatrix
from neuralbandit.network import (
    NetworkShape,
    init_symmetric,
    init_plain,
    forward_batch,
    gradient_batch,
    gradient_weighted_sum,
    flatten,
    unflatten,
)

__all__ = [
    "DivergenceError",
    "TrainingConfig",
    "train_nn",
    "NeuralUCB",
    "NeuralEpsilonGreedy",
    "NeuralUCB0",
    "NeuralEpsilonGreedy0",
    "LinUCB",
    "KernelUCB",
    "UniformRandomPolicy",
    "OraclePolicy",
]


class DivergenceError(RuntimeError):
    """Gradient descent produced a non-finite loss."""


@dataclass(frozen=True)
class TrainingConfig:
    """How and when the reward network is retrained.

    j_steps None means "as many steps as there are rounds so far".
    batch_size None selects full-gradient descent; otherwise stochastic
    minibatches of that size, sampled without replacement per epoch.
    Every retrain starts from the initial parameters.
    """

    eta: float = 0.01
    j_steps: int | None = None
    batch_size: int | None = None
    cadence: int = 50
    train_start: int = 0

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        if self.j_steps is not None and self.j_steps < 0:
            raise ValueError(f"j_steps must be >= 0, got {self.j_steps}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.cadence < 1:
            raise ValueError(f"cadence must be >= 1, got {self.cadence}")
        if self.train_start < 0:
            raise ValueError(f"train_start must be >= 0, got {self.train_start}")


def train_nn(lam, eta, j_steps, contexts, rewards, theta0, batch_size=None, rng=None):
    """Gradient descent on squared loss plus an m*lam-scaled proximity term.

    Minimizes  sum_i (f(x_i; theta) - r_i)^2 / 2 + m*lam*||theta - theta0||^2 / 2
    for j_steps steps from theta0 and returns the final parameters together
    with the loss trajectory: the full-data loss at the start of each epoch
    and once at the end.  Full-gradient mode takes one step per epoch, so it
    records the loss at every iterate; minibatch mode shuffles the data once
    per epoch.  Each minibatch step descends that batch's partial data sum
    plus the full proximity term; leaving the batch term unscaled is what
    keeps step sizes in the 1e-3..1e-1 range stable as the history grows.

    A non-finite recorded loss raises DivergenceError naming its step.
    Overflow inside an epoch carries through to the next recorded loss.
    """
    x = np.asarray(contexts, dtype=np.float64)
    r = np.asarray(rewards, dtype=np.float64)
    if x.ndim != 2 or r.shape != (x.shape[0],):
        raise ValueError(f"contexts {x.shape} and rewards {r.shape} do not align")
    if j_steps < 0:
        raise ValueError(f"j_steps must be >= 0, got {j_steps}")
    n = x.shape[0]
    if j_steps > 0 and n == 0:
        raise ValueError("training data must be nonempty when j_steps > 0")
    if batch_size is not None and rng is None:
        raise ValueError("minibatch mode needs an rng for epoch shuffling")

    shape = theta0.shape
    m = shape.width
    b = n if batch_size is None else min(batch_size, n)
    theta0_flat = flatten(theta0)
    params, theta = theta0, theta0_flat
    losses = []
    step = 0

    def record(resid):
        dtheta = theta - theta0_flat
        loss = 0.5 * float(resid @ resid) + 0.5 * m * lam * float(dtheta @ dtheta)
        if not math.isfinite(loss):
            raise DivergenceError(f"training loss is non-finite at step {step} (eta={eta})")
        losses.append(loss)

    # overflow only means divergence, which the next recorded loss reports
    with np.errstate(over="ignore", invalid="ignore"):
        while step < j_steps:
            order = None if batch_size is None else rng.permutation(n)
            for lo in range(0, n, b):
                if step >= j_steps:
                    break
                idx = slice(lo, lo + b) if order is None else order[lo : lo + b]
                xb, rb = x[idx], r[idx]
                resid = forward_batch(params, xb) - rb
                if lo == 0:
                    record(resid if order is None else forward_batch(params, x) - r)
                grad = gradient_weighted_sum(params, xb, resid) \
                    + m * lam * (theta - theta0_flat)
                theta = theta - eta * grad
                params = unflatten(shape, theta)
                step += 1
        record(forward_batch(params, x) - r)

    return params, np.asarray(losses)


def _check_contexts(contexts) -> np.ndarray:
    """Contexts as a nonempty (K, d) float array."""
    contexts = np.atleast_2d(np.asarray(contexts, dtype=np.float64))
    if contexts.shape[0] == 0:
        raise ValueError("need at least one context to select from")
    return contexts


def _ucb_choice(means, feats, design, gamma):
    """Argmax of means + gamma * sqrt(f^T Z^{-1} f) over the feature rows f."""
    bonus = np.array([math.sqrt(max(design.quadratic_form(f), 0.0)) for f in feats])
    scores = means + gamma * bonus
    return int(np.argmax(scores)), scores


def _epsilon_choice(scores, epsilon, rng):
    """Argmax of scores, or with probability epsilon a uniform arm.

    epsilon = 0 draws nothing from rng.
    """
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(scores.shape[0])), scores
    return int(np.argmax(scores)), scores


class _TrainedNetwork:
    """Shared bookkeeping for policies that retrain a reward network online."""

    def __init__(self, shape: NetworkShape, lam: float, rng: np.random.Generator,
                 train: TrainingConfig, init=init_symmetric):
        if lam <= 0:
            raise ValueError(f"lam must be positive, got {lam}")
        self.shape = shape
        self.lam = lam
        self.rng = rng
        self.train_config = train
        self.theta0 = init(shape, rng)
        self.theta = self.theta0
        self.history = []

    @property
    def t(self) -> int:
        return len(self.history)

    def _record_and_train(self, context, reward) -> None:
        self.history.append((np.asarray(context, dtype=np.float64), float(reward)))
        t = self.t
        cfg = self.train_config
        if t < max(cfg.train_start, 1) or t % cfg.cadence != 0:
            return
        j = t if cfg.j_steps is None else cfg.j_steps
        x = np.stack([c for c, _ in self.history])
        r = np.array([rw for _, rw in self.history])
        self.theta, self.last_losses = train_nn(
            self.lam, cfg.eta, j, x, r, self.theta0,
            batch_size=cfg.batch_size, rng=self.rng,
        )


class NeuralUCB(_TrainedNetwork):
    """UCB over a trained network's predictions with gradient-feature widths.

    Scores are f(x; theta) plus gamma * sqrt(g^T Z^{-1} g / m) where Z
    accumulates scaled outer products of the chosen arms' gradients, taken
    at the pre-update parameters.
    """

    def __init__(self, shape, lam, width, rng, train=TrainingConfig(),
                 design_mode="full", refresh_every=512):
        super().__init__(shape, lam, rng, train, init=init_symmetric)
        self.width_provider = width
        self.design = DesignMatrix(shape.num_params, lam, design_mode, refresh_every)
        self.gamma = width(0, 0.0)

    def _scaled_gradients(self, contexts) -> np.ndarray:
        return gradient_batch(self.theta, contexts) / math.sqrt(self.shape.width)

    def select(self, contexts):
        contexts = _check_contexts(contexts)
        means = forward_batch(self.theta, contexts)
        return _ucb_choice(means, self._scaled_gradients(contexts), self.design, self.gamma)

    def update(self, context, reward) -> None:
        feat = self._scaled_gradients(np.atleast_2d(context))[0]
        self.design.rank_one_update(feat)
        self._record_and_train(context, reward)
        self.gamma = self.width_provider(self.t, self.design.log_det_ratio())


class NeuralEpsilonGreedy(_TrainedNetwork):
    """Greedy on the trained network, exploring uniformly with probability eps.

    eps = 0 draws nothing from the generator, so the action stream matches a
    width-zero NeuralUCB with the same seed and training configuration.
    """

    def __init__(self, shape, lam, epsilon, rng, train=TrainingConfig()):
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
        super().__init__(shape, lam, rng, train, init=init_symmetric)
        self.epsilon = epsilon

    def select(self, contexts):
        scores = forward_batch(self.theta, _check_contexts(contexts))
        return _epsilon_choice(scores, self.epsilon, self.rng)

    def update(self, context, reward) -> None:
        self._record_and_train(context, reward)


class _FrozenFeatureRidge:
    """Online ridge regression on a frozen feature map phi."""

    def __init__(self, lam, rng=None, shape=None, feature_map=None, feature_dim=None,
                 design_mode="full", refresh_every=512):
        if feature_map is None:
            if shape is None or rng is None:
                raise ValueError("need shape and rng unless a feature_map is injected")
            theta0 = init_plain(shape, rng)
            scale = math.sqrt(shape.width)
            feature_map = lambda x: gradient_batch(theta0, x) / scale
            feature_dim = shape.num_params
            self.theta0 = theta0
        elif feature_dim is None:
            raise ValueError("feature_dim is required with an injected feature_map")
        self.feature_map = feature_map
        self.lam = lam
        self.design = DesignMatrix(feature_dim, lam, design_mode, refresh_every)
        self.b = np.zeros(feature_dim)
        self.theta_offset = np.zeros(feature_dim)
        self.t = 0

    def _features(self, contexts) -> np.ndarray:
        return self.feature_map(_check_contexts(contexts))

    def _absorb(self, context, reward) -> None:
        phi = self._features(context)[0]
        self.design.rank_one_update(phi)
        self.b += reward * phi
        self.theta_offset = self.design.solve(self.b)
        self.t += 1


class NeuralUCB0(_FrozenFeatureRidge):
    """Linear UCB in the gradient-feature space of the initial network.

    The parameter estimate is the closed-form ridge solution; scores are
    phi^T (theta - theta0) + gamma * sqrt(phi^T Z^{-1} phi), which is the
    maximum of the linear objective over the confidence ellipsoid.
    """

    def __init__(self, lam, width, rng=None, shape=None, feature_map=None,
                 feature_dim=None, design_mode="full", refresh_every=512):
        super().__init__(lam, rng=rng, shape=shape, feature_map=feature_map,
                         feature_dim=feature_dim, design_mode=design_mode,
                         refresh_every=refresh_every)
        self.width_provider = width
        self.gamma = width(0, 0.0)

    def select(self, contexts):
        phi = self._features(contexts)
        return _ucb_choice(phi @ self.theta_offset, phi, self.design, self.gamma)

    def update(self, context, reward) -> None:
        self._absorb(context, reward)
        self.gamma = self.width_provider(self.t, self.design.log_det_ratio())


class NeuralEpsilonGreedy0(_FrozenFeatureRidge):
    """Epsilon-greedy on the frozen-feature ridge predictions."""

    def __init__(self, lam, epsilon, rng, shape=None, feature_map=None,
                 feature_dim=None, design_mode="full", refresh_every=512):
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
        super().__init__(lam, rng=rng, shape=shape, feature_map=feature_map,
                         feature_dim=feature_dim, design_mode=design_mode,
                         refresh_every=refresh_every)
        self.epsilon = epsilon
        self.rng = rng

    def select(self, contexts):
        return _epsilon_choice(self._features(contexts) @ self.theta_offset,
                               self.epsilon, self.rng)

    def update(self, context, reward) -> None:
        self._absorb(context, reward)


class LinUCB:
    """Ridge regression UCB on raw contexts with a constant exploration alpha."""

    def __init__(self, dim: int, alpha: float, lam: float = 1.0):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        if alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {alpha}")
        if lam <= 0:
            raise ValueError(f"lam must be positive, got {lam}")
        self.dim = dim
        self.alpha = alpha
        self.a_mat = lam * np.eye(dim)
        self.b = np.zeros(dim)
        self.t = 0

    def select(self, contexts):
        contexts = _check_contexts(contexts)
        if contexts.shape[1] != self.dim:
            raise ValueError(f"contexts have dim {contexts.shape[1]}, expected {self.dim}")
        factor = cho_factor(self.a_mat)
        theta_hat = cho_solve(factor, self.b)
        solved = cho_solve(factor, contexts.T)
        qforms = np.einsum("ij,ji->i", contexts, solved)
        scores = contexts @ theta_hat + self.alpha * np.sqrt(np.maximum(qforms, 0.0))
        return int(np.argmax(scores)), scores

    def update(self, context, reward) -> None:
        x = np.asarray(context, dtype=np.float64)
        self.a_mat += np.outer(x, x)
        self.b += reward * x
        self.t += 1


class KernelUCB:
    """Kernel ridge UCB with an RBF kernel and a capped context buffer.

    The Cholesky factor of (K + lam I) grows by one row per observation;
    once the buffer hits the cap the model is frozen and later rewards are
    ignored.
    """

    def __init__(self, bandwidth: float, beta: float, lam: float = 1.0, cap: int = 1000):
        if not bandwidth > 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        if beta < 0:
            raise ValueError(f"beta must be >= 0, got {beta}")
        if lam <= 0:
            raise ValueError(f"lam must be positive, got {lam}")
        if cap < 1:
            raise ValueError(f"cap must be >= 1, got {cap}")
        self.bandwidth = bandwidth
        self.beta = beta
        self.lam = lam
        self.cap = cap
        self._x = None           # (n, d) stored contexts
        self._chol = None        # lower Cholesky of K + lam I
        self._coef = None        # (K + lam I)^{-1} y
        self._y = []
        self.t = 0

    def _kernel(self, a, b) -> np.ndarray:
        sq = np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :] \
            - 2.0 * (a @ b.T)
        with np.errstate(over="ignore"):
            return np.exp(-np.maximum(sq, 0.0) / (2.0 * self.bandwidth**2))

    def select(self, contexts):
        contexts = _check_contexts(contexts)
        if self._x is None:
            scores = np.full(contexts.shape[0], self.beta)
            return int(np.argmax(scores)), scores
        kt = self._kernel(self._x, contexts)          # (n, K)
        means = kt.T @ self._coef
        half = solve_triangular(self._chol, kt, lower=True)
        var = 1.0 - np.sum(half * half, axis=0)       # RBF diagonal is 1
        scores = means + self.beta * np.sqrt(np.maximum(var, 0.0))
        return int(np.argmax(scores)), scores

    def update(self, context, reward) -> None:
        self.t += 1
        if self._x is not None and self._x.shape[0] >= self.cap:
            return
        x = np.asarray(context, dtype=np.float64)[None, :]
        if self._x is None:
            self._x = x
            self._chol = np.array([[math.sqrt(1.0 + self.lam)]])
        else:
            k = self._kernel(self._x, x)[:, 0]
            row = solve_triangular(self._chol, k, lower=True)
            corner = math.sqrt(max(1.0 + self.lam - float(row @ row), self.lam * 1e-12))
            n = self._chol.shape[0]
            grown = np.zeros((n + 1, n + 1))
            grown[:n, :n] = self._chol
            grown[n, :n] = row
            grown[n, n] = corner
            self._chol = grown
            self._x = np.vstack([self._x, x])
        self._y.append(float(reward))
        y = np.asarray(self._y)
        self._coef = solve_triangular(
            self._chol.T, solve_triangular(self._chol, y, lower=True), lower=False
        )


class UniformRandomPolicy:
    """Picks uniformly among the arms; the no-learning baseline."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.t = 0

    def select(self, contexts):
        k = _check_contexts(contexts).shape[0]
        return int(self.rng.integers(k)), np.zeros(k)

    def update(self, context, reward) -> None:
        self.t += 1


class OraclePolicy:
    """Plays argmax of the true mean reward; for calibration tests only.

    Must be fed raw environment contexts, since the attached environment
    evaluates its reward function on them.
    """

    def __init__(self, environment):
        self.environment = environment
        self.t = 0

    def select(self, contexts):
        contexts = np.atleast_2d(np.asarray(contexts, dtype=np.float64))
        means = self.environment.mean_rewards(contexts)
        return int(np.argmax(means)), means

    def update(self, context, reward) -> None:
        self.t += 1
