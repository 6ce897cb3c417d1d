"""Bandit policies: three learners under one UCB choice rule, and a random baseline.

The UCB policies are learners that share one select: NeuralUCB retrains a
reward network online, NeuralUCB0 runs ridge regression on frozen features
(LinUCB on the identity map), and KernelUCB runs kernel ridge regression.
Each scores an arm by its predicted mean, plus a width gamma times the root
of the arm's posterior variance, and with probability epsilon plays a
uniform arm instead.  select makes one pass over the K arms: NeuralUCB
runs one forward pass for the means and the gradients, and a learner with a
design makes one design call for the K variances.  The width is None for
none, a number, or a schedule (t, logdet) -> gamma, and only a schedule
reads the learner's log-det.
Every policy, the baseline too, shares one update, which checks the chosen
context and reward and counts the round.
Every policy exposes

    select(contexts) -> (action, scores)   # contexts: (K, d) array
    update(context, reward) -> None        # the chosen context

and is mutated strictly sequentially by one experiment run.  All randomness
flows through the generator handed in at construction, so a fixed seed gives
a bit-identical action sequence.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from neuralbandit.confidence import DesignMatrix
from neuralbandit.network import (
    NetworkShape,
    check_array,
    check_integer,
    check_positive,
    check_real,
    init_symmetric,
    init_plain,
    forward_batch,
    gradient_batch,
    gradient_weighted_sum,
    unflatten,
    value_and_gradient_batch,
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
        check_positive("eta", self.eta)
        if self.j_steps is not None:
            check_integer("j_steps", self.j_steps, low=0)
        if self.batch_size is not None:
            check_integer("batch_size", self.batch_size, low=1)
        check_integer("cadence", self.cadence, low=1)
        check_integer("train_start", self.train_start, low=0)


def train_nn(lam, eta, j_steps, contexts, rewards, theta0, batch_size=None, rng=None):
    """Gradient descent on squared loss plus an m*lam-scaled proximity term.

    Minimizes  sum_i (f(x_i; theta) - r_i)^2 / 2 + m*lam*||theta - theta0||^2 / 2
    for j_steps steps from theta0 and returns the final parameters together
    with the loss trajectory.  Full-gradient mode takes one step per epoch and
    records the loss at every iterate and at the end; minibatch mode shuffles
    the data once per epoch and records the full-data loss only before the
    first step and after the last.  Each minibatch step descends that batch's
    partial data sum plus the full proximity term; leaving the batch term
    unscaled is what keeps step sizes in the 1e-3..1e-1 range stable as the
    history grows.

    A non-finite loss raises DivergenceError naming its step.  The loss is
    checked at every epoch start and at the end; at a later epoch start in
    minibatch mode it is the first batch's residual plus the proximity term,
    which needs no extra forward pass.  Overflow inside an epoch carries
    through to the next check.
    """
    x = check_array("contexts", contexts, 2, theta0.shape.input_dim)
    r = check_array("rewards", rewards, 1, x.shape[0])
    check_integer("j_steps", j_steps, low=0)
    n = x.shape[0]
    if j_steps > 0 and n == 0:
        raise ValueError("training data must be nonempty when j_steps > 0")
    if batch_size is not None and rng is None:
        raise ValueError("minibatch mode needs an rng for epoch shuffling")

    shape = theta0.shape
    m = shape.width
    b = n if batch_size is None else min(batch_size, n)
    params = theta0
    if j_steps > 0:  # step a private copy of theta0 in place; frozen again on return
        params = unflatten(shape, theta0.flat)
        params.flat.flags.writeable = True
    flat = params.flat
    prox = np.empty_like(flat)  # theta - theta0, then its proximity gradient
    losses = []
    step = 0

    def checked_loss(resid):
        np.subtract(flat, theta0.flat, out=prox)
        loss = 0.5 * float(resid @ resid) + 0.5 * m * lam * float(prox @ prox)
        if not math.isfinite(loss):
            raise DivergenceError(f"training loss is non-finite at step {step} (eta={eta})")
        return loss

    # overflow only means divergence, which the next check reports
    with np.errstate(over="ignore", invalid="ignore"):
        while step < j_steps:
            order = slice(None) if batch_size is None else rng.permutation(n)
            xs, rs = x[order], r[order]  # views in full-gradient mode
            for lo in range(0, n, b):
                if step >= j_steps:
                    break
                xb, rb = xs[lo : lo + b], rs[lo : lo + b]
                resid = forward_batch(params, xb) - rb
                if batch_size is None:
                    losses.append(checked_loss(resid))
                elif step == 0:
                    losses.append(checked_loss(forward_batch(params, x) - r))
                elif lo == 0:
                    checked_loss(resid)
                grad = gradient_weighted_sum(params, xb, resid)
                np.subtract(flat, theta0.flat, out=prox)
                prox *= m * lam
                grad += prox
                grad *= eta
                flat -= grad
                step += 1
        losses.append(checked_loss(forward_batch(params, x) - r))
    flat.flags.writeable = False

    return params, np.asarray(losses)


def _check_contexts(contexts) -> np.ndarray:
    """Contexts as a nonempty, finite (K, d) float array; one context is one row."""
    contexts = np.atleast_2d(np.asarray(contexts, dtype=np.float64))
    if contexts.ndim != 2 or contexts.size == 0:
        raise ValueError(f"contexts must be a nonempty (K, d) array, got shape {contexts.shape}")
    if not np.isfinite(contexts).all():
        raise ValueError("contexts must be finite")
    return contexts


class _Policy:
    """The round every policy plays: the UCB choice rule, and one checked update.

    An arm scores its predicted mean, plus gamma * sqrt(v) over the learner's
    squared width v of that arm when a width is given: a number gamma >= 0,
    or a schedule (t, logdet) -> gamma, kept in `schedule`, evaluated at
    (0, 0.0) here and after each update at the round t and the learner's
    log-det ratio.  Only a schedule reads the log-det.  With probability
    epsilon the policy plays a uniform arm instead, and epsilon = 0 draws
    nothing from rng.  update counts the round in t and hands _learn the
    chosen context, checked, as a (1, d) float array and the reward as a
    float.  A learner supplies _predict (means, and squared widths when a
    width is given), _learn and, for a schedule, log_det_ratio.
    """

    def __init__(self, width, epsilon, rng):
        self.schedule = width if callable(width) else None
        if width is not None and self.schedule is None:
            check_real("gamma", width, low=0)
        check_real("epsilon", epsilon)
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
        if epsilon > 0.0 and rng is None:
            raise ValueError("rng is required when epsilon > 0")
        self.epsilon = epsilon
        self.rng = rng
        self.gamma = width if self.schedule is None else self.schedule(0, 0.0)
        self.t = 0

    def select(self, contexts):
        means, squared_widths = self._predict(_check_contexts(contexts))
        scores = means
        if self.gamma is not None:
            scores = means + self.gamma * np.sqrt(np.maximum(squared_widths, 0.0))
        if self.epsilon > 0.0 and self.rng.random() < self.epsilon:
            return int(self.rng.integers(scores.shape[0])), scores
        return int(np.argmax(scores)), scores

    def update(self, context, reward) -> None:
        row = _check_contexts(context)
        if row.shape[0] != 1:
            raise ValueError(f"update takes the one chosen context, got {row.shape[0]}")
        check_real("reward", reward)
        self.t += 1
        self._learn(row, float(reward))
        if self.schedule is not None:
            self.gamma = self.schedule(self.t, self.log_det_ratio())

    def log_det_ratio(self) -> float:
        """log(det Z / det lam*I) of the design Z over the features of the chosen arms."""
        return self.design.log_det_ratio()


class NeuralUCB(_Policy):
    """The learner that retrains a reward network online.

    Means are f(x; theta).  With a width, the features are g(x; theta) / sqrt(m)
    and Z accumulates the chosen arms' features, taken at the pre-update
    parameters; select takes the K means and features from one forward pass
    and their squared widths from one design call.  With no width and
    epsilon > 0 this is neural epsilon-greedy, which keeps no design and
    computes no gradients.
    """

    def __init__(self, shape: NetworkShape, lam: float, width, rng: np.random.Generator,
                 train: TrainingConfig = TrainingConfig(), design_mode="full", epsilon=0.0):
        super().__init__(width, epsilon, rng)
        check_positive("lam", lam)
        self.shape = shape
        self.lam = lam
        self.train_config = train
        self.theta0 = init_symmetric(shape, rng)
        self.theta = self.theta0
        self.history = []
        self.design = None if width is None else DesignMatrix(shape.num_params, lam,
                                                              design_mode)

    def _predict(self, contexts):
        if self.design is None:
            return forward_batch(self.theta, contexts), None
        means, grads = value_and_gradient_batch(self.theta, contexts)
        return means, self.design.quadratic_form(grads / math.sqrt(self.shape.width))

    def _learn(self, row, reward) -> None:
        if self.design is not None:
            scaled = gradient_batch(self.theta, row) / math.sqrt(self.shape.width)
            self.design.rank_one_update(scaled[0])
        self.history.append((row[0], reward))
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


class NeuralUCB0(_Policy):
    """The learner that runs online ridge regression on a frozen feature map phi.

    Means are phi^T (theta - theta0), with the closed-form ridge estimate, and
    the features are phi itself, so the UCB score is the maximum of the linear
    objective over the confidence ellipsoid.  With gradient_feature_map this is
    the linearized NeuralUCB; with the identity map and a number for the width it
    is LinUCB; with no width and epsilon > 0 it is epsilon-greedy on the ridge
    predictions.
    """

    def __init__(self, feature_map, feature_dim, lam, width, design_mode="full",
                 epsilon=0.0, rng=None):
        super().__init__(width, epsilon, rng)
        self.feature_map = feature_map
        self.design = DesignMatrix(feature_dim, lam, design_mode)
        self.b = np.zeros(feature_dim)
        self.theta_offset = np.zeros(feature_dim)

    def _predict(self, contexts):
        phi = self.feature_map(contexts)
        widths = None if self.gamma is None else self.design.quadratic_form(phi)
        return phi @ self.theta_offset, widths

    def _learn(self, row, reward) -> None:
        phi = self.feature_map(row)[0]
        self.design.rank_one_update(phi)
        self.b += reward * phi
        self.theta_offset = self.design.solve(self.b)


class KernelUCB(_Policy):
    """The learner that runs kernel ridge regression with an RBF kernel.

    Its state is the buffer of chosen contexts, the lower Cholesky factor L of
    K + lam I over them, and z = L^{-1} y for their rewards y.  An arm with
    kernel column k and h = L^{-1} k has mean k^T (K + lam I)^{-1} y = h^T z
    and squared width the posterior variance 1 - ||h||^2 (0 and 1 before any
    data).  Each observation appends one row to L and one entry to z; once the
    buffer hits the cap the model is frozen and later rewards are ignored.
    The triangular solves skip scipy's finiteness scan: L and the kernel
    columns are built only from contexts and rewards that _Policy has checked
    to be finite, kernel values lie in [0, 1], and L's diagonal is kept at
    least sqrt(lam * 1e-12), so the scan would only repeat those checks.
    scipy's solve_triangular is imported at the first solve, in the first
    update, so building a KernelUCB to validate a config does not load it.
    """

    def __init__(self, bandwidth: float, width, lam: float = 1.0, cap: int = 1000):
        super().__init__(width, 0.0, None)
        # an infinite bandwidth is the constant-kernel limit, where every arm ties
        if bandwidth != math.inf:
            check_positive("bandwidth", bandwidth)
        if bandwidth * bandwidth == 0:  # the kernel of a context with itself would be 0/0
            raise ValueError(f"bandwidth must have a nonzero square, got {bandwidth}")
        check_positive("lam", lam)
        check_integer("cap", cap, low=1)
        self.bandwidth = bandwidth
        self.lam = lam
        self.cap = cap
        self._x = None                 # (n, d) stored contexts
        self._chol = np.zeros((0, 0))  # lower Cholesky of K + lam I
        self._z = np.zeros(0)          # L^{-1} y

    @functools.cached_property
    def _solve_triangular(self):
        from scipy.linalg import solve_triangular
        return solve_triangular

    def _kernel(self, a, b) -> np.ndarray:
        sq = np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :] \
            - 2.0 * (a @ b.T)
        with np.errstate(over="ignore"):
            return np.exp(-np.maximum(sq, 0.0) / (2.0 * self.bandwidth * self.bandwidth))

    def _predict(self, contexts):
        if self._x is None:
            return np.zeros(contexts.shape[0]), np.ones(contexts.shape[0])
        kt = self._kernel(self._x, contexts)          # (n, K)
        half = self._solve_triangular(self._chol, kt, lower=True, check_finite=False)
        return half.T @ self._z, 1.0 - np.sum(half * half, axis=0)  # RBF diagonal is 1

    def log_det_ratio(self) -> float:
        """log det(I + K/lam) over the buffered contexts."""
        diag = np.diag(self._chol)
        return 2.0 * float(np.sum(np.log(diag))) - diag.size * math.log(self.lam)

    def _learn(self, x, reward) -> None:
        if self._x is None:
            self._x = np.empty((0, x.shape[1]))
        elif self._x.shape[0] >= self.cap:
            return
        k = self._kernel(self._x, x)[:, 0]
        row = self._solve_triangular(self._chol, k, lower=True, check_finite=False)
        corner = math.sqrt(max(1.0 + self.lam - float(row @ row), self.lam * 1e-12))
        n = self._chol.shape[0]
        grown = np.zeros((n + 1, n + 1))
        grown[:n, :n] = self._chol
        grown[n, :n] = row
        grown[n, n] = corner
        self._chol = grown
        self._x = np.vstack([self._x, x])
        self._z = np.append(self._z, (reward - float(row @ self._z)) / corner)


class UniformRandomPolicy(_Policy):
    """Picks uniformly among the arms; the no-learning baseline."""

    def __init__(self, rng: np.random.Generator):
        super().__init__(None, 0.0, rng)

    def select(self, contexts):
        k = _check_contexts(contexts).shape[0]
        return int(self.rng.integers(k)), np.zeros(k)

    def _learn(self, row, reward) -> None:
        pass
