"""Fully connected ReLU network: construction, initialization, forward, gradients.

The network is

    f(x; theta) = sqrt(m) * W_L relu(W_{L-1} relu( ... relu(W_1 x)))

with W_1 of shape (m, d), the middle layers (m, m), and the output row
W_L of shape (1, m).  There are no biases.  Parameters flatten to a single
vector of length p = m*d + m^2*(L-2) + m, column-major within each matrix,
layers in order.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "NetworkShape",
    "NetworkParams",
    "init_symmetric",
    "init_plain",
    "forward",
    "forward_batch",
    "gradient",
    "gradient_batch",
    "gradient_weighted_sum",
    "flatten",
    "unflatten",
]


@dataclass(frozen=True)
class NetworkShape:
    """Architecture of the ReLU network.

    input_dim and width must be even: the symmetric initialization duplicates
    half-size blocks, which only tiles cleanly for even dimensions.
    """

    input_dim: int
    width: int
    depth: int

    def __post_init__(self):
        if self.depth < 2:
            raise ValueError(f"depth must be >= 2, got {self.depth}")
        if self.input_dim < 2 or self.input_dim % 2 != 0:
            raise ValueError(
                f"input_dim must be a positive even integer, got {self.input_dim}"
            )
        if self.width < 2 or self.width % 2 != 0:
            raise ValueError(
                f"width must be a positive even integer, got {self.width}"
            )

    @property
    def num_params(self) -> int:
        d, m, L = self.input_dim, self.width, self.depth
        return m * d + m * m * (L - 2) + m

    def layer_shapes(self) -> list[tuple[int, int]]:
        d, m, L = self.input_dim, self.width, self.depth
        return [(m, d)] + [(m, m)] * (L - 2) + [(1, m)]


@dataclass(frozen=True)
class NetworkParams:
    """Immutable weights (W_1, ..., W_L) matching a NetworkShape."""

    shape: NetworkShape
    weights: tuple

    def __post_init__(self):
        expected = self.shape.layer_shapes()
        if len(self.weights) != len(expected):
            raise ValueError(
                f"expected {len(expected)} weight matrices, got {len(self.weights)}"
            )
        for l, (w, shp) in enumerate(zip(self.weights, expected)):
            if w.shape != shp:
                raise ValueError(f"layer {l + 1}: expected shape {shp}, got {w.shape}")
        for w in self.weights:
            w.flags.writeable = False


def _freeze(shape, mats) -> NetworkParams:
    return NetworkParams(shape=shape, weights=tuple(np.ascontiguousarray(w) for w in mats))


def init_symmetric(shape: NetworkShape, rng: np.random.Generator) -> NetworkParams:
    """Block-duplicated Gaussian initialization.

    Hidden layers are [[W, 0], [0, W]] with W ~ N(0, 4/m) entrywise; the
    output row is (w, -w) with w ~ N(0, 2/m).  The antisymmetric output
    paired with duplicated blocks makes f(x; theta0) = 0 exactly whenever
    the two halves of x coincide.
    """
    m = shape.width
    mats = []
    for rows, cols in shape.layer_shapes()[:-1]:
        w = np.zeros((rows, cols))
        block = rng.normal(0.0, np.sqrt(4.0 / m), size=(rows // 2, cols // 2))
        w[: rows // 2, : cols // 2] = block
        w[rows // 2 :, cols // 2 :] = block
        mats.append(w)
    half = rng.normal(0.0, np.sqrt(2.0 / m), size=m // 2)
    mats.append(np.concatenate([half, -half])[None, :])
    return _freeze(shape, mats)


def init_plain(shape: NetworkShape, rng: np.random.Generator) -> NetworkParams:
    """Dense Gaussian initialization: N(0, 2/m) hidden, N(0, 1/m) output.

    No symmetry structure; the output at initialization is generically
    nonzero.  This is the initialization whose gradient features realize
    the closed-form tangent-kernel Gram matrix (see ntk.empirical_gram).
    """
    m = shape.width
    mats = []
    for rows, cols in shape.layer_shapes()[:-1]:
        mats.append(rng.normal(0.0, np.sqrt(2.0 / m), size=(rows, cols)))
    mats.append(rng.normal(0.0, np.sqrt(1.0 / m), size=(1, m)))
    return _freeze(shape, mats)


def _check_input(params: NetworkParams, x: np.ndarray, batched: bool) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    want = 2 if batched else 1
    if x.ndim != want or x.shape[-1] != params.shape.input_dim:
        expected = ("(n, %d)" if batched else "(%d,)") % params.shape.input_dim
        raise ValueError(f"context has shape {x.shape}, expected {expected}")
    return x


def _forward_pass(params: NetworkParams, x: np.ndarray):
    """Shared forward over a batch of rows; returns activations and preactivations."""
    acts = [x]
    pres = []
    a = x
    for w in params.weights[:-1]:
        z = a @ w.T
        pres.append(z)
        a = np.maximum(z, 0.0)
        acts.append(a)
    out = np.sqrt(params.shape.width) * (acts[-1] @ params.weights[-1].ravel())
    return out, acts, pres


def forward(params: NetworkParams, x) -> float:
    """Evaluate f(x; theta) for a single context."""
    x = _check_input(params, x, batched=False)
    out, _, _ = _forward_pass(params, x[None, :])
    return float(out[0])


def forward_batch(params: NetworkParams, x) -> np.ndarray:
    """Evaluate f on each row of x; returns a length-n vector."""
    x = _check_input(params, x, batched=True)
    out, _, _ = _forward_pass(params, x)
    return out


def _backprop(params: NetworkParams, x: np.ndarray, seed: np.ndarray):
    """Forward pass, then the delta recursion from upstream weights `seed` (n,).

    Returns the activations (x, a_1, ..., a_{L-1}) and the (n, m) deltas
    d_1, ..., d_{L-1} of the hidden layers: outer(d_l[i], a_{l-1}[i]) is
    seed_i times the gradient of f(x_i) w.r.t. W_l.  The ReLU derivative at
    an exact zero preactivation is taken as 0.
    """
    _, acts, pres = _forward_pass(params, x)
    delta = (np.sqrt(params.shape.width) * seed)[:, None] \
        * params.weights[-1].ravel()[None, :] * (pres[-1] > 0)
    deltas = [delta]
    for l in range(params.shape.depth - 2, 0, -1):
        delta = (delta @ params.weights[l]) * (pres[l - 1] > 0)
        deltas.append(delta)
    deltas.reverse()
    return acts, deltas


def gradient(params: NetworkParams, x) -> np.ndarray:
    """Exact gradient of f(x; theta) w.r.t. all weights, flattened to R^p."""
    x = _check_input(params, x, batched=False)
    return gradient_batch(params, x[None, :])[0]


def gradient_batch(params: NetworkParams, x) -> np.ndarray:
    """Gradients for each row of x, stacked into an (n, p) matrix."""
    x = _check_input(params, x, batched=True)
    n = x.shape[0]
    acts, deltas = _backprop(params, x, np.ones(n))
    # row i of a block is vec(outer(d_i, a_i)) column-major: a varies slowest
    blocks = [(a[:, :, None] * d[:, None, :]).reshape(n, -1)
              for a, d in zip(acts, deltas)]
    blocks.append(np.sqrt(params.shape.width) * acts[-1])
    return np.concatenate(blocks, axis=1)


def gradient_weighted_sum(params: NetworkParams, x, weights) -> np.ndarray:
    """sum_i weights_i * grad f(x_i; theta), without materializing per-example grads.

    This is the data-term gradient of a squared loss when weights are the
    residuals; cost is a handful of matrix products regardless of n.
    """
    x = _check_input(params, x, batched=True)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (x.shape[0],):
        raise ValueError(f"weights shape {weights.shape} != ({x.shape[0]},)")
    acts, deltas = _backprop(params, x, weights)
    blocks = [(d.T @ a).ravel(order="F") for a, d in zip(acts, deltas)]
    blocks.append(np.sqrt(params.shape.width) * (weights @ acts[-1]))
    return np.concatenate(blocks)


def flatten(params: NetworkParams) -> np.ndarray:
    """Concatenate vec(W_1), ..., vec(W_L), column-major within each matrix."""
    return np.concatenate([w.ravel(order="F") for w in params.weights])


def unflatten(shape: NetworkShape, vec) -> NetworkParams:
    """Inverse of flatten; raises on wrong vector length."""
    vec = np.asarray(vec, dtype=np.float64)
    if vec.shape != (shape.num_params,):
        raise ValueError(
            f"parameter vector has shape {vec.shape}, expected ({shape.num_params},)"
        )
    mats = []
    pos = 0
    for rows, cols in shape.layer_shapes():
        n = rows * cols
        mats.append(vec[pos : pos + n].reshape((rows, cols), order="F").copy())
        pos += n
    return _freeze(shape, mats)
