"""Fully connected ReLU network: construction, initialization, forward, gradients.

The network is

    f(x; theta) = sqrt(m) * W_L relu(W_{L-1} relu( ... relu(W_1 x)))

with W_1 of shape (m, d), the middle layers (m, m), and the output row
W_L of shape (1, m).  There are no biases.  The parameters are a single
vector of length p = m*d + m^2*(L-2) + m, layers in order and row-major
within each matrix, and each W_l is a zero-copy view of its slice: row-major
views are C-contiguous, so they feed numpy the same BLAS calls as separate
C-ordered matrices would.  value_and_gradient_batch returns the outputs and
the gradients of one forward pass, bit for bit what forward_batch and
gradient_batch return from two.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NetworkShape",
    "NetworkParams",
    "init_symmetric",
    "init_plain",
    "forward_batch",
    "gradient_batch",
    "value_and_gradient_batch",
    "gradient_weighted_sum",
    "unflatten",
]


def check_integer(name: str, value, low=None) -> None:
    """Raise, naming the parameter, unless value is an integer (bools are not) >= low.

    TypeError for a non-integer; ValueError for a value below low, which
    None leaves unbounded.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    _check_low(name, value, low)


def check_real(name: str, value, low=None) -> None:
    """Raise, naming the parameter, unless value is a finite real number (bools are not) >= low.

    TypeError for a non-number; ValueError for nan, an infinity or a value
    below low, which None leaves unbounded.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise ValueError(f"{name} must be finite, got {value}")
    _check_low(name, value, low)


def check_positive(name: str, value) -> None:
    """Raise, naming the parameter, unless value is a finite real number above 0."""
    check_real(name, value)
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")


def check_flag(name: str, value) -> None:
    """Raise TypeError, naming the parameter, unless value is true or false."""
    if not isinstance(value, bool):
        raise TypeError(f"{name} must be true or false, got {value!r}")


def check_string(name: str, value) -> None:
    """Raise TypeError, naming the parameter, unless value is a string."""
    if not isinstance(value, str):
        raise TypeError(f"{name} must be a string, got {value!r}")


def check_array(name: str, value, ndim: int, length=None) -> np.ndarray:
    """value as a float64 array; ValueError, naming the argument, unless its shape fits.

    The array must have ndim axes and, when length is given, a last axis of
    that length.  The message gives the shape found and the shape expected,
    with ? for an axis of any length.  This runs on every forward pass and
    rank-one update, so the check is integer comparisons only.
    """
    array = np.asarray(value, dtype=np.float64)
    if array.ndim != ndim or (length is not None and array.shape[-1] != length):
        axes = ["?"] * (ndim - 1) + ["?" if length is None else str(length)]
        raise ValueError(f"{name} has shape {array.shape}, "
                         f"expected ({', '.join(axes)}{',' * (ndim == 1)})")
    return array


def _check_low(name: str, value, low) -> None:
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


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
        check_integer("depth", self.depth, low=2)
        check_integer("width", self.width)
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
    """Parameters theta matching a NetworkShape; build them with unflatten.

    `flat` is the parameter vector of length p, read-only except inside
    policies.train_nn's loop, which steps its own copy in place; `weights`
    holds (W_1, ..., W_L) as row-major views of it, so the two never disagree.
    """

    shape: NetworkShape
    flat: np.ndarray
    weights: tuple


def _layer_views(shape: NetworkShape, vec: np.ndarray) -> tuple:
    """(W_1, ..., W_L) as row-major views of consecutive slices of vec."""
    views = []
    pos = 0
    for rows, cols in shape.layer_shapes():
        views.append(vec[pos : pos + rows * cols].reshape(rows, cols))
        pos += rows * cols
    return tuple(views)


def unflatten(shape: NetworkShape, vec) -> NetworkParams:
    """Parameters holding a read-only copy of vec; raises on wrong vector length."""
    flat = check_array("vec", vec, 1, shape.num_params).copy()
    flat.flags.writeable = False
    return NetworkParams(shape, flat, _layer_views(shape, flat))


def init_symmetric(shape: NetworkShape, rng: np.random.Generator) -> NetworkParams:
    """Block-duplicated Gaussian initialization.

    Hidden layers are [[W, 0], [0, W]] with W ~ N(0, 4/m) entrywise; the
    output row is (w, -w) with w ~ N(0, 2/m).  The antisymmetric output
    paired with duplicated blocks makes f(x; theta0) = 0 exactly whenever
    the two halves of x coincide.
    """
    m = shape.width
    vec = np.zeros(shape.num_params)
    *hidden, out = _layer_views(shape, vec)
    for w in hidden:
        rows, cols = w.shape
        block = rng.normal(0.0, np.sqrt(4.0 / m), size=(rows // 2, cols // 2))
        w[: rows // 2, : cols // 2] = block
        w[rows // 2 :, cols // 2 :] = block
    half = rng.normal(0.0, np.sqrt(2.0 / m), size=m // 2)
    out[0] = np.concatenate([half, -half])
    return unflatten(shape, vec)


def init_plain(shape: NetworkShape, rng: np.random.Generator) -> NetworkParams:
    """Dense Gaussian initialization: N(0, 2/m) hidden, N(0, 1/m) output.

    No symmetry structure; the output at initialization is generically
    nonzero.  This is the initialization whose gradient features realize
    the closed-form tangent-kernel Gram matrix (see ntk.empirical_gram).
    """
    m = shape.width
    vec = np.zeros(shape.num_params)
    *hidden, out = _layer_views(shape, vec)
    for w in hidden:
        w[...] = rng.normal(0.0, np.sqrt(2.0 / m), size=w.shape)
    out[...] = rng.normal(0.0, np.sqrt(1.0 / m), size=(1, m))
    return unflatten(shape, vec)


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
    out = math.sqrt(params.shape.width) * (acts[-1] @ params.weights[-1].ravel())
    return out, acts, pres


def forward_batch(params: NetworkParams, x) -> np.ndarray:
    """Evaluate f on each row of x; returns a length-n vector."""
    x = check_array("x", x, 2, params.shape.input_dim)
    out, _, _ = _forward_pass(params, x)
    return out


def _backprop(params: NetworkParams, x: np.ndarray, seed: np.ndarray):
    """Forward pass, then the delta recursion from upstream weights `seed` (n,).

    Returns the outputs f(x_i), the activations (x, a_1, ..., a_{L-1}) and
    the (n, m) deltas d_1, ..., d_{L-1} of the hidden layers:
    outer(d_l[i], a_{l-1}[i]) is seed_i times the gradient of f(x_i) w.r.t.
    W_l.  The ReLU derivative at an exact zero preactivation is taken as 0.
    """
    out, acts, pres = _forward_pass(params, x)
    delta = (math.sqrt(params.shape.width) * seed)[:, None] \
        * params.weights[-1].ravel()[None, :] * (pres[-1] > 0)
    deltas = [delta]
    for l in range(params.shape.depth - 2, 0, -1):
        delta = (delta @ params.weights[l]) * (pres[l - 1] > 0)
        deltas.append(delta)
    deltas.reverse()
    return out, acts, deltas


def value_and_gradient_batch(params: NetworkParams, x):
    """f and its gradients on each row of x from one forward pass: (n,) and (n, p)."""
    x = check_array("x", x, 2, params.shape.input_dim)
    n = x.shape[0]
    out, acts, deltas = _backprop(params, x, np.ones(n))
    # row i of a block is outer(d_i, a_i) flattened row-major, like the weight views
    blocks = [(d[:, :, None] * a[:, None, :]).reshape(n, -1)
              for a, d in zip(acts, deltas)]
    blocks.append(math.sqrt(params.shape.width) * acts[-1])
    return out, np.concatenate(blocks, axis=1)


def gradient_batch(params: NetworkParams, x) -> np.ndarray:
    """Gradients for each row of x, stacked into an (n, p) matrix."""
    return value_and_gradient_batch(params, x)[1]


def gradient_weighted_sum(params: NetworkParams, x, weights) -> np.ndarray:
    """sum_i weights_i * grad f(x_i; theta), without materializing per-example grads.

    This is the data-term gradient of a squared loss when weights are the
    residuals; cost is a handful of matrix products regardless of n.
    """
    x = check_array("x", x, 2, params.shape.input_dim)
    weights = check_array("weights", weights, 1, x.shape[0])
    _, acts, deltas = _backprop(params, x, weights)
    blocks = [(d.T @ a).ravel() for a, d in zip(acts, deltas)]
    blocks.append(math.sqrt(params.shape.width) * (weights @ acts[-1]))
    return np.concatenate(blocks)
