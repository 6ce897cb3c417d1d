"""Built-in numerical property suites backing the `check` CLI subcommand.

Each check runs a fixed-seed experiment and returns (name, passed, detail);
they are deliberately quick, desk-scale versions of the full test suite.
"""

import numpy as np

from neuralbandit.confidence import DesignMatrix
from neuralbandit.network import (
    NetworkShape,
    forward_batch,
    gradient_batch,
    init_plain,
    unflatten,
)
from neuralbandit.ntk import empirical_gram, ntk_gram


def check_gradient_finite_difference(step=1e-5, tol=1e-4):
    """Backprop against central finite differences on a small network."""
    shape = NetworkShape(4, 8, 3)
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(5):
        params = init_plain(shape, rng)
        theta = params.flat + 0.05 * rng.standard_normal(shape.num_params)
        params = unflatten(shape, theta)
        x = rng.standard_normal((1, 4))
        g = gradient_batch(params, x)[0]
        fd = np.zeros_like(g)
        for i in range(theta.size):
            up, down = theta.copy(), theta.copy()
            up[i] += step
            down[i] -= step
            fd[i] = (forward_batch(unflatten(shape, up), x)[0]
                     - forward_batch(unflatten(shape, down), x)[0]) / (2 * step)
        denom = np.maximum(np.abs(fd), 1e-6)
        worst = max(worst, float(np.max(np.abs(g - fd) / denom)))
    return "gradient-finite-difference", worst <= tol, f"max relative error {worst:.3e}"


def check_gram_convergence():
    """Empirical gradient Gram approaches the closed-form kernel as width grows."""
    rng = np.random.default_rng(7)
    contexts = rng.standard_normal((4, 4))
    contexts /= np.linalg.norm(contexts, axis=1, keepdims=True)
    exact = ntk_gram(contexts, 2)
    errs = []
    for m in (16, 256, 2048):
        dists = []
        for seed in range(5):
            params = init_plain(NetworkShape(4, m, 2), np.random.default_rng(seed))
            dists.append(np.linalg.norm(empirical_gram(params, contexts) - exact))
        errs.append(float(np.median(dists)))
    decreasing = errs[0] > errs[1] > errs[2]
    return "gram-convergence", decreasing, f"median Frobenius distances {errs}"


def check_sherman_morrison_drift(p=80, updates=3000, tol=1e-8):
    """Maintained inverse stays within tolerance of a direct factorization."""
    rng = np.random.default_rng(11)
    design = DesignMatrix(p, 0.5, mode="full")
    for _ in range(updates):
        design.rank_one_update(rng.standard_normal(p) / np.sqrt(p))
    direct = np.linalg.inv(design.matrix)
    err = float(np.max(np.abs(direct - design.inverse)))
    sign, logdet = np.linalg.slogdet(design.matrix)
    logdet -= p * np.log(0.5)
    logdet_err = abs(design.log_det_ratio() - logdet)
    ok = err <= tol and logdet_err <= 1e-6
    return ("sherman-morrison-drift", ok,
            f"inverse error {err:.3e}, log-det error {logdet_err:.3e}")


ALL_CHECKS = (
    check_gradient_finite_difference,
    check_gram_convergence,
    check_sherman_morrison_drift,
)


def run_all(emit=print) -> bool:
    """Run every check, emitting one PASS/FAIL line each; True if all pass."""
    all_ok = True
    for check in ALL_CHECKS:
        name, ok, detail = check()
        all_ok &= ok
        emit(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return all_ok
