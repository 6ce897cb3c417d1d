"""Bandit policies: three learners under one UCB choice rule, and a random baseline.

The UCB policies are learners that share one select and one update:
NeuralUCB retrains a reward network online, NeuralUCB0 runs ridge regression
on frozen features (LinUCB on the identity map), and KernelUCB runs kernel
ridge regression.  Each scores an arm by its predicted mean, plus a width
times the root of the arm's posterior variance when given a width, and with
probability epsilon plays a uniform arm instead.  Every policy exposes

    select(contexts) -> (action, scores)   # contexts: (K, d) array
    update(context, reward) -> None        # the chosen context

and is mutated strictly sequentially by one experiment run.  All randomness
flows through the generator handed in at construction, so a fixed seed gives
a bit-identical action sequence.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from neuralbandit.confidence import DesignMatrix
from neuralbandit.network import (
    NetworkShape,
    check_integer,
    check_real,
    init_symmetric,
    init_plain,
    forward_batch,
    gradient_batch,
    gradient_weighted_sum,
    unflatten,
)

__all__ = [
    "DivergenceError",
    "TrainingConfig",
    "train_nn",
    "NeuralUCB",
    "NeuralUCB0",
    "gradient_feature_map",
    "KernelUCB",
    "UniformRandomPolicy",
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
        check_real("eta", self.eta)
        if self.eta <= 0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        if self.j_steps is not None:
            check_integer("j_steps", self.j_steps)
            if self.j_steps < 0:
                raise ValueError(f"j_steps must be >= 0, got {self.j_steps}")
        if self.batch_size is not None:
            check_integer("batch_size", self.batch_size)
            if self.batch_size < 1:
                raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        check_integer("cadence", self.cadence)
        if self.cadence < 1:
            raise ValueError(f"cadence must be >= 1, got {self.cadence}")
        check_integer("train_start", self.train_start)
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
    params = theta0
    losses = []
    step = 0

    def record(resid):
        dtheta = params.flat - theta0.flat
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
                    + m * lam * (params.flat - theta0.flat)
                params = unflatten(shape, params.flat - eta * grad)
                step += 1
        record(forward_batch(params, x) - r)

    return params, np.asarray(losses)


def _check_contexts(contexts) -> np.ndarray:
    """Contexts as a nonempty (K, d) float array."""
    contexts = np.atleast_2d(np.asarray(contexts, dtype=np.float64))
    if contexts.shape[0] == 0:
        raise ValueError("need at least one context to select from")
    return contexts


class _UCBPolicy:
    """The choice rule of every learner, over its predicted means and variances.

    An arm scores its predicted mean, plus gamma * sqrt(v) over the learner's
    squared width v of that arm when a width provider is given; gamma is the
    provider's value at the current round and the learner's log-det ratio.
    With probability epsilon the policy plays a uniform arm instead, and
    epsilon = 0 draws nothing from rng.  A learner supplies _predict (means,
    and squared widths when a width is given), _learn, t and log_det_ratio.
    """

    def __init__(self, width, epsilon, rng):
        check_real("epsilon", epsilon)
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
        if epsilon > 0.0 and rng is None:
            raise ValueError("rng is required when epsilon > 0")
        self.width_provider = width
        self.epsilon = epsilon
        self.rng = rng
        self.gamma = None if width is None else width(0, 0.0)

    def select(self, contexts):
        means, squared_widths = self._predict(_check_contexts(contexts))
        scores = means
        if self.width_provider is not None:
            scores = means + self.gamma * np.sqrt(np.maximum(squared_widths, 0.0))
        if self.epsilon > 0.0 and self.rng.random() < self.epsilon:
            return int(self.rng.integers(scores.shape[0])), scores
        return int(np.argmax(scores)), scores

    def update(self, context, reward) -> None:
        self._learn(context, reward)
        if self.width_provider is not None:
            self.gamma = self.width_provider(self.t, self.log_det_ratio())

    def log_det_ratio(self) -> float:
        """log(det Z / det lam*I) of the design Z over the features of the chosen arms."""
        return self.design.log_det_ratio()


def _quadratic_forms(design, feats) -> np.ndarray:
    """f^T Z^{-1} f for each feature row f."""
    return np.array([design.quadratic_form(f) for f in feats])


class NeuralUCB(_UCBPolicy):
    """The learner that retrains a reward network online.

    Means are f(x; theta).  With a width, the features are g(x; theta) / sqrt(m)
    and Z accumulates the chosen arms' features, taken at the pre-update
    parameters.  With no width and epsilon > 0 this is neural epsilon-greedy,
    which keeps no design and computes no gradients.
    """

    def __init__(self, shape: NetworkShape, lam: float, width, rng: np.random.Generator,
                 train: TrainingConfig = TrainingConfig(), design_mode="full", epsilon=0.0):
        super().__init__(width, epsilon, rng)
        check_real("lam", lam)
        if lam <= 0:
            raise ValueError(f"lam must be positive, got {lam}")
        self.shape = shape
        self.lam = lam
        self.train_config = train
        self.theta0 = init_symmetric(shape, rng)
        self.theta = self.theta0
        self.history = []
        self.design = None if width is None else DesignMatrix(shape.num_params, lam,
                                                              design_mode)

    @property
    def t(self) -> int:
        return len(self.history)

    def _scaled_gradients(self, contexts) -> np.ndarray:
        return gradient_batch(self.theta, contexts) / math.sqrt(self.shape.width)

    def _predict(self, contexts):
        means = forward_batch(self.theta, contexts)
        if self.design is None:
            return means, None
        return means, _quadratic_forms(self.design, self._scaled_gradients(contexts))

    def _learn(self, context, reward) -> None:
        if self.design is not None:
            self.design.rank_one_update(self._scaled_gradients(np.atleast_2d(context))[0])
        self.history.append((np.asarray(context, dtype=np.float64), float(reward)))
        t = self.t
        cfg = self.train_config
        if t < max(cfg.train_start, 1) or t % cfg.cadence != 0:
            return
        j = t if cfg.j_steps is None else cfg.j_steps
        x = np.stack([c for c, _ in self.history])
        r = np.array([rw for _, rw in self.history])
        self.theta, _ = train_nn(
            self.lam, cfg.eta, j, x, r, self.theta0,
            batch_size=cfg.batch_size, rng=self.rng,
        )


def gradient_feature_map(shape: NetworkShape, rng: np.random.Generator):
    """The frozen map x -> g(x; theta0) / sqrt(m) at a plain init, and its dimension.

    Draws theta0 from rng, so it consumes the generator before any policy
    that shares it.
    """
    theta0 = init_plain(shape, rng)
    scale = math.sqrt(shape.width)
    return (lambda x: gradient_batch(theta0, x) / scale), shape.num_params


class NeuralUCB0(_UCBPolicy):
    """The learner that runs online ridge regression on a frozen feature map phi.

    Means are phi^T (theta - theta0), with the closed-form ridge estimate, and
    the features are phi itself, so the UCB score is the maximum of the linear
    objective over the confidence ellipsoid.  With gradient_feature_map this is
    the linearized NeuralUCB; with the identity map and a constant width it is
    LinUCB; with no width and epsilon > 0 it is epsilon-greedy on the ridge
    predictions.
    """

    def __init__(self, feature_map, feature_dim, lam, width, design_mode="full",
                 epsilon=0.0, rng=None):
        super().__init__(width, epsilon, rng)
        self.feature_map = feature_map
        self.design = DesignMatrix(feature_dim, lam, design_mode)
        self.b = np.zeros(feature_dim)
        self.theta_offset = np.zeros(feature_dim)
        self.t = 0

    def _predict(self, contexts):
        phi = self.feature_map(contexts)
        widths = None if self.width_provider is None else _quadratic_forms(self.design, phi)
        return phi @ self.theta_offset, widths

    def _learn(self, context, reward) -> None:
        phi = self.feature_map(_check_contexts(context))[0]
        self.design.rank_one_update(phi)
        self.b += reward * phi
        self.theta_offset = self.design.solve(self.b)
        self.t += 1


class KernelUCB(_UCBPolicy):
    """The learner that runs kernel ridge regression with an RBF kernel.

    Means are k^T (K + lam I)^{-1} y and squared widths the posterior variance
    1 - ||L^{-1} k||^2 (0 and 1 before any data), with L the Cholesky factor of
    K + lam I.  L grows by one row per observation; once the context buffer
    hits the cap the model is frozen and later rewards are ignored.
    """

    def __init__(self, bandwidth: float, width, lam: float = 1.0, cap: int = 1000):
        super().__init__(width, 0.0, None)
        # an infinite bandwidth is the constant-kernel limit, where every arm ties
        if bandwidth != math.inf:
            check_real("bandwidth", bandwidth)
        check_real("lam", lam)
        if not bandwidth > 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        if lam <= 0:
            raise ValueError(f"lam must be positive, got {lam}")
        check_integer("cap", cap)
        if cap < 1:
            raise ValueError(f"cap must be >= 1, got {cap}")
        self.bandwidth = bandwidth
        self.lam = lam
        self.cap = cap
        self._x = None                 # (n, d) stored contexts
        self._chol = np.zeros((0, 0))  # lower Cholesky of K + lam I
        self._coef = None              # (K + lam I)^{-1} y
        self._y = []
        self.t = 0

    def _kernel(self, a, b) -> np.ndarray:
        sq = np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :] \
            - 2.0 * (a @ b.T)
        with np.errstate(over="ignore"):
            return np.exp(-np.maximum(sq, 0.0) / (2.0 * self.bandwidth**2))

    def _predict(self, contexts):
        if self._x is None:
            return np.zeros(contexts.shape[0]), np.ones(contexts.shape[0])
        kt = self._kernel(self._x, contexts)          # (n, K)
        half = solve_triangular(self._chol, kt, lower=True)
        return kt.T @ self._coef, 1.0 - np.sum(half * half, axis=0)  # RBF diagonal is 1

    def log_det_ratio(self) -> float:
        """log det(I + K/lam) over the buffered contexts."""
        diag = np.diag(self._chol)
        return 2.0 * float(np.sum(np.log(diag))) - diag.size * math.log(self.lam)

    def _learn(self, context, reward) -> None:
        self.t += 1
        x = np.asarray(context, dtype=np.float64)[None, :]
        if self._x is None:
            self._x = np.empty((0, x.shape[1]))
        elif self._x.shape[0] >= self.cap:
            return
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
