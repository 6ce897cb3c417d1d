"""Tangent-kernel Gram matrices, effective dimension, and the RKHS-norm proxy.

The exact Gram matrix over a context set is built by a depth recursion whose
bivariate ReLU expectations have closed arc-cosine forms.  With correlation
rho = S_ij / sqrt(S_ii S_jj):

    E[relu(u) relu(v)]  = sqrt(S_ii S_jj) (sqrt(1-rho^2) + (pi - acos rho) rho) / (2 pi)
    E[relu'(u) relu'(v)] = (pi - acos rho) / (2 pi)

The recursion starts from inner products, propagates a covariance matrix S
and a tangent accumulator through the layers, and returns the average of the
two at the top.  Deterministic; rho is clamped to [-1, 1] to absorb rounding.
"""

import numpy as np

from neuralbandit.network import (NetworkParams, check_array, check_integer, check_positive,
                                  gradient_batch)

__all__ = [
    "ntk_gram",
    "empirical_gram",
    "effective_dimension",
    "rkhs_norm_proxy",
]

#: smallest acceptable minimum eigenvalue for inverting a Gram matrix
SINGULARITY_THRESHOLD = 1e-10

#: how negative the minimum eigenvalue may be before H is rejected as non-PSD
PSD_TOLERANCE = -1e-6


def _relu_moments(cov: np.ndarray):
    """Closed-form second moments of relu/relu' under a bivariate Gaussian.

    cov is the current covariance matrix S; returns (E[relu relu], E[relu' relu'])
    entrywise for every (i, j) pair.
    """
    diag = np.diag(cov)
    denom = np.sqrt(np.outer(diag, diag))
    rho = np.clip(cov / denom, -1.0, 1.0)
    theta = np.arccos(rho)
    e_act = denom * (np.sqrt(np.maximum(1.0 - rho * rho, 0.0)) + (np.pi - theta) * rho) / (2.0 * np.pi)
    e_der = (np.pi - theta) / (2.0 * np.pi)
    return e_act, e_der


def _kernel_recursion(contexts: np.ndarray, depth: int):
    """Run the depth recursion; returns (covariance S^(L), tangent accumulator)."""
    cov = contexts @ contexts.T
    tangent = cov.copy()
    for _ in range(depth - 1):
        e_act, e_der = _relu_moments(cov)
        cov = 2.0 * e_act
        tangent = 2.0 * tangent * e_der + cov
    return cov, tangent


def ntk_gram(contexts, depth: int) -> np.ndarray:
    """Exact kernel Gram matrix over nonzero finite contexts at the given depth.

    The bias-free ReLU kernel is homogeneous, H(x, y) = |x| |y| H(x/|x|, y/|y|),
    so rows need not be unit-norm; a row whose norm is zero (no direction)
    or not finite in float64 is rejected.  depth >= 2.
    """
    x = check_array("contexts", contexts, 2)
    check_integer("depth", depth, low=2)
    norms = np.linalg.norm(x, axis=1)
    bad = np.flatnonzero(~(np.isfinite(norms) & (norms > 0.0)))
    if bad.size:
        raise ValueError(f"context rows {bad.tolist()} have a zero or non-finite norm")
    cov, tangent = _kernel_recursion(x, depth)
    h = (tangent + cov) / 2.0
    h = (h + h.T) / 2.0
    return h


def empirical_gram(params0: NetworkParams, contexts) -> np.ndarray:
    """Gram matrix of scaled gradient features G^T G, G columns g(x_i)/sqrt(m).

    With the dense (plain) initialization this converges entrywise to
    ntk_gram as the width grows; the block-symmetric initialization instead
    converges to the tangent accumulator alone, i.e. 2H - S^(L), because its
    output layer carries twice the variance.
    """
    x = check_array("contexts", contexts, 2, params0.shape.input_dim)
    g = gradient_batch(params0, x) / np.sqrt(params0.shape.width)
    return g @ g.T


def _check_gram(h) -> np.ndarray:
    h = check_array("h", h, 2)
    if h.shape[0] != h.shape[1] or h.shape[0] == 0:
        raise ValueError(f"Gram matrix must be square and nonempty, got shape {h.shape}")
    return h


def effective_dimension(h, lam: float, tk: int) -> float:
    """log det(I + H/lam) / log(1 + tk/lam), via a Cholesky log-det.

    tk is passed explicitly because callers evaluate the ratio on
    sub-sampled context sets while keeping the full-horizon normalizer.
    A lam so small that 2H/lam (the symmetrizing sum) or tk/lam is not
    finite raises ValueError naming lam.
    """
    h = _check_gram(h)
    check_positive("lam", lam)
    check_integer("tk", tk, low=1)
    min_eig = float(np.linalg.eigvalsh(h)[0])
    if min_eig < PSD_TOLERANCE:
        raise ValueError(f"Gram matrix is not PSD (min eigenvalue {min_eig:.3e})")
    with np.errstate(over="ignore"):
        shifted = np.eye(h.shape[0]) + h / lam
        shifted = (shifted + shifted.T) / 2.0
        horizon = tk / lam
    if not (np.isfinite(shifted).all() and np.isfinite(horizon)):
        raise ValueError(f"lam must be large enough that 2H/lam and tk/lam are finite, "
                         f"got {lam}")
    chol = np.linalg.cholesky(shifted)
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    return logdet / np.log1p(horizon)


def rkhs_norm_proxy(h, rewards) -> float:
    """sqrt(r^T H^{-1} r) via a Cholesky solve.

    Raises if a reward is not finite, or if H is numerically singular, which
    happens exactly when the context set contains (near-)parallel contexts
    and the non-degeneracy assumption on the Gram matrix fails.
    """
    h = _check_gram(h)
    r = check_array("rewards", rewards, 1, h.shape[0])
    bad = np.flatnonzero(~np.isfinite(r))
    if bad.size:
        raise ValueError(f"rewards must be finite; entries {bad.tolist()} are not")
    min_eig = float(np.linalg.eigvalsh(h)[0])
    if min_eig <= SINGULARITY_THRESHOLD:
        raise ValueError(
            f"Gram matrix is singular (min eigenvalue {min_eig:.3e}); "
            "the context set violates the non-degeneracy assumption "
            "(two contexts are parallel or nearly so)"
        )
    chol = np.linalg.cholesky(h)
    w = np.linalg.solve(chol, r)
    return float(np.linalg.norm(w))
