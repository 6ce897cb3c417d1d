"""Acceptance suite: every release criterion, one test and one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass lines and the
measured runtimes.  Criterion 9 re-runs a scaled version of the synthetic
benchmark and takes a few minutes; everything else is seconds.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from neuralbandit.cli import main as cli_main
from neuralbandit.confidence import ConstantWidth, DesignMatrix, RidgeWidth
from neuralbandit.environments import preprocess_batch
from neuralbandit.harness import (
    EnvironmentConfig,
    ExperimentConfig,
    PolicyConfig,
    grid_search,
    run_experiment,
)
from neuralbandit.network import (
    NetworkShape,
    forward_batch,
    gradient_batch,
    init_plain,
    init_symmetric,
    unflatten,
)
from neuralbandit.ntk import empirical_gram, ntk_gram, effective_dimension
from neuralbandit.policies import (
    DivergenceError,
    NeuralUCB0,
    gradient_feature_map,
    train_nn,
)

pytestmark = pytest.mark.acceptance


class Budget:
    """Context manager asserting the criterion's stated runtime budget."""

    def __init__(self, seconds):
        self.limit = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc[0] is None:
            assert self.elapsed < self.limit, (
                f"runtime {self.elapsed:.1f}s exceeded the {self.limit}s budget")
        return False


def report(number, message, budget=None):
    timing = f" [{budget.elapsed:.1f}s]" if budget is not None else ""
    print(f"ACCEPTANCE {number:02d} PASS: {message}{timing}")


def test_criterion_01_symmetric_init_null_output():
    rng = np.random.default_rng(1001)
    with Budget(5.0) as budget:
        worst = 0.0
        for m in (4, 16, 64):
            for depth in (2, 3):
                params = init_symmetric(NetworkShape(8, m, depth), rng)
                raw = rng.standard_normal((100, 4))
                contexts = preprocess_batch(raw)
                worst = max(worst, float(np.max(np.abs(forward_batch(params, contexts)))))
        assert worst <= 1e-8
    report(1, f"symmetric init evaluates to 0 on duplicated contexts "
              f"(max |f| = {worst:.2e} over 600 cases)", budget)


def test_criterion_02_gradient_matches_finite_differences():
    shape = NetworkShape(4, 8, 3)
    rng = np.random.default_rng(1002)

    def away_from_kinks(params, x, margin=1e-3):
        a = x
        for w in params.weights[:-1]:
            z = w @ a
            if np.min(np.abs(z)) < margin:
                return False
            a = np.maximum(z, 0.0)
        return True

    with Budget(10.0) as budget:
        worst = 0.0
        checked = 0
        while checked < 20:
            params = init_plain(shape, rng)
            theta = params.flat + 0.05 * rng.standard_normal(shape.num_params)
            params = unflatten(shape, theta)
            x = rng.standard_normal((1, 4))
            if not away_from_kinks(params, x[0]):
                continue
            step = 1e-5
            fd = np.zeros_like(theta)
            for i in range(theta.size):
                up, down = theta.copy(), theta.copy()
                up[i] += step
                down[i] -= step
                fd[i] = (forward_batch(unflatten(shape, up), x)[0]
                         - forward_batch(unflatten(shape, down), x)[0]) / (2 * step)
            g = gradient_batch(params, x)[0]
            rel = np.abs(g - fd) / np.maximum(np.abs(fd), 1e-8)
            worst = max(worst, float(rel.max()))
            checked += 1
        assert worst <= 1e-4
    report(2, f"backprop matches central differences at 20 kink-free points "
              f"(max relative error {worst:.2e})", budget)


def test_criterion_03_gram_convergence_trend():
    rng = np.random.default_rng(1003)
    contexts = rng.standard_normal((5, 4))
    contexts /= np.linalg.norm(contexts, axis=1, keepdims=True)
    exact = ntk_gram(contexts, 2)
    with Budget(120.0) as budget:
        medians = []
        for m in (16, 256, 4096):
            dists = [
                np.linalg.norm(
                    empirical_gram(init_plain(NetworkShape(4, m, 2),
                                              np.random.default_rng(seed)), contexts)
                    - exact, ord="fro")
                for seed in range(10)
            ]
            medians.append(float(np.median(dists)))
        assert medians[0] > medians[1] > medians[2]
        final_rel = medians[-1] / np.linalg.norm(exact, ord="fro")
        assert final_rel <= 0.1
    report(3, f"empirical Gram converges to the closed form: median Frobenius "
              f"distances {[f'{d:.3f}' for d in medians]} over m=16/256/4096, "
              f"final relative error {final_rel:.3f}", budget)


def test_criterion_04_ntk_exact_values_with_monte_carlo_cross_check():
    with Budget(60.0) as budget:
        single = ntk_gram(np.array([[1.0, 0.0]]), 2)[0, 0]
        assert single == pytest.approx(1.5, abs=1e-9)
        pair = ntk_gram(np.eye(2), 2)
        assert pair[0, 1] == pytest.approx(1.0 / np.pi, abs=1e-9)

        # 1e7-sample Monte Carlo of the bivariate ReLU moments, composed
        # through the depth-2 recursion exactly as the closed form is
        def mc_moments(rho, samples=10_000_000, seed=1004):
            rng = np.random.default_rng(seed)
            act = der = 0.0
            done = 0
            while done < samples:
                n = min(1_000_000, samples - done)
                u = rng.standard_normal(n)
                v = rho * u + math.sqrt(1 - rho * rho) * rng.standard_normal(n)
                act += float(np.maximum(u, 0) @ np.maximum(v, 0))
                der += float(np.sum((u > 0) & (v > 0)))
                done += n
            return act / samples, der / samples

        act1, der1 = mc_moments(1.0)
        diag_mc = (2 * 1.0 * der1 + 2 * act1 + 2 * act1) / 2.0
        assert diag_mc == pytest.approx(1.5, abs=1e-3)
        act0, der0 = mc_moments(0.0)
        off_mc = (2 * 0.0 * der0 + 2 * act0 + 2 * act0) / 2.0
        assert off_mc == pytest.approx(1.0 / np.pi, abs=1e-3)
    report(4, f"closed-form kernel values exact (1.5, 1/pi) and confirmed by "
              f"1e7-sample Monte Carlo (|err| {abs(diag_mc-1.5):.1e}, "
              f"{abs(off_mc-1/np.pi):.1e})", budget)


def test_criterion_05_design_matrix_integrity():
    p = 200
    rng = np.random.default_rng(1005)
    with Budget(60.0) as budget:
        design = DesignMatrix(p, 1.0, mode="full")
        potential = 0.0
        for _ in range(10_000):
            u = rng.standard_normal(p) / math.sqrt(p)
            potential += min(design.quadratic_form(u), 1.0)
            design.rank_one_update(u)
        direct_inv = np.linalg.inv(design.matrix)
        inv_err = float(np.max(np.abs(direct_inv - design.inverse)))
        assert inv_err <= 1e-8
        sign, logdet = np.linalg.slogdet(design.matrix)
        assert sign > 0
        logdet_err = abs(design.log_det_ratio() - logdet)
        assert logdet_err <= 1e-6
        assert potential <= 2.0 * design.log_det_ratio() + 1e-9

        # the elliptical potential must hold on independent streams too
        for seed in range(4):
            srng = np.random.default_rng(2000 + seed)
            small = DesignMatrix(20, float(srng.uniform(0.5, 2.0)))
            total = 0.0
            for _ in range(500):
                u = srng.standard_normal(20) * srng.uniform(0.2, 3.0)
                total += min(small.quadratic_form(u), 1.0)
                small.rank_one_update(u)
            assert total <= 2.0 * small.log_det_ratio() + 1e-9
    report(5, f"after 1e4 updates at p=200: inverse drift {inv_err:.1e}, "
              f"log-det drift {logdet_err:.1e}, elliptical potential holds "
              f"on all streams", budget)


def test_criterion_06_frozen_feature_ridge_equivalence():
    with Budget(60.0) as budget:
        shape = NetworkShape(4, 8, 2)  # p = 40 <= 100
        policy = NeuralUCB0(*gradient_feature_map(shape, np.random.default_rng(1006)), 0.7,
                            RidgeWidth(1.0, 0.1, 1.0, 0.7))
        rng = np.random.default_rng(1007)
        feats, rewards = [], []
        worst = 0.0
        for t in range(200):
            contexts = preprocess_batch(rng.standard_normal((3, 2)))
            action, _ = policy.select(contexts)
            reward = float(rng.standard_normal())
            policy.update(contexts[action], reward)
            feats.append(policy.feature_map(contexts[action][None, :])[0])
            rewards.append(reward)
            phi = np.stack(feats)
            batch = np.linalg.solve(0.7 * np.eye(phi.shape[1]) + phi.T @ phi,
                                    phi.T @ np.asarray(rewards))
            worst = max(worst, float(np.max(np.abs(batch - policy.theta_offset))))
        assert worst <= 1e-8

        # identity feature map co-simulates LinUCB, recomputed from scratch
        # each round, action for action
        d, k, alpha, lam = 6, 5, 0.8, 1.3
        ident = lambda x: np.asarray(x, dtype=np.float64)
        frozen = NeuralUCB0(ident, d, lam, ConstantWidth(alpha))
        sim_rng = np.random.default_rng(1008)
        secret = sim_rng.standard_normal(d)
        seen, sim_rewards = np.zeros((0, d)), []
        matched = 0
        for _ in range(150):
            contexts = sim_rng.standard_normal((k, d))
            af, _ = frozen.select(contexts)
            a_mat = lam * np.eye(d) + seen.T @ seen
            theta = np.linalg.solve(a_mat, seen.T @ np.asarray(sim_rewards))
            qforms = np.einsum("ij,ji->i", contexts, np.linalg.solve(a_mat, contexts.T))
            al = int(np.argmax(contexts @ theta + alpha * np.sqrt(np.maximum(qforms, 0.0))))
            assert af == al
            matched += 1
            reward = float(contexts[af] @ secret + 0.1 * sim_rng.standard_normal())
            frozen.update(contexts[af], reward)
            seen = np.vstack([seen, contexts[af]])
            sim_rewards.append(reward)
    report(6, f"online ridge equals batch recomputation for 200 rounds "
              f"(max gap {worst:.1e}); identity-feature variant matched "
              f"LinUCB on {matched}/150 actions", budget)


def test_criterion_07_effective_dimension_consistency():
    rng = np.random.default_rng(1009)
    with Budget(30.0) as budget:
        worst = 0.0
        for _ in range(50):
            n = int(rng.integers(2, 20))
            psi = rng.standard_normal((n + 2, n))
            psi /= np.maximum(np.linalg.norm(psi, axis=0, keepdims=True), 1.0)
            h = psi.T @ psi
            lam = float(rng.uniform(1.0, 10.0))
            tk = n
            via_chol = effective_dimension(h, lam, tk)
            eigs = np.linalg.eigvalsh(h)
            via_eig = float(np.sum(np.log1p(np.maximum(eigs, 0.0) / lam))
                            / np.log1p(tk / lam))
            worst = max(worst, abs(via_chol - via_eig))
            assert abs(via_chol - via_eig) <= 1e-8
            assert via_chol <= n + 1e-9
    report(7, f"Cholesky and eigenvalue effective dimensions agree on 50 "
              f"random PSD matrices (max gap {worst:.1e}); bounded by n "
              f"whenever lam >= 1", budget)


def test_criterion_08_training_descends():
    # targets realized by the same architecture at a nearby parameter point,
    # so the regression is well specified and a true minimizer sits close by
    shape = NetworkShape(4, 16, 2)
    theta0 = init_symmetric(shape, np.random.default_rng(1010))
    x = preprocess_batch(np.random.default_rng(1011).standard_normal((8, 2)))
    delta = 0.05 * np.random.default_rng(1012).standard_normal(shape.num_params)
    r = forward_batch(unflatten(shape, theta0.flat + delta), x)
    with Budget(30.0) as budget:
        eta = 0.05
        halvings = 0
        losses = None
        for _ in range(11):
            try:
                _, candidate = train_nn(0.01, eta, 500, x, r, theta0)
            except DivergenceError:
                halvings += 1
                eta /= 2.0
                continue
            if np.all(np.diff(candidate) <= 1e-10):
                losses = candidate
                break
            halvings += 1
            eta /= 2.0
        assert losses is not None, "no monotone trajectory within 10 halvings"
        assert halvings <= 10
        assert losses[-1] < 0.5 * losses[0]
    report(8, f"full-gradient training monotone after {halvings} halvings "
              f"(eta={eta:.4g}); loss {losses[0]:.3f} -> {losses[-1]:.3f} "
              f"in {losses.size - 1} steps", budget)


# Scaled replication of the paper's synthetic comparison.  Each policy runs
# from its configs/paper/ file, which holds the paper's protocol, and its
# gamma or epsilon comes from the matching grid file there, searched as
# `neuralbandit grid` searches it.
PAPER_CONFIGS = Path(__file__).resolve().parent.parent / "configs" / "paper"


def _best(kind, grids):
    """The best grid mean of each (config file, grid file) pair on reward kind."""
    best = {}
    for label, names in grids.items():
        data, grid = (json.loads((PAPER_CONFIGS / name).read_text(encoding="utf-8"))
                      for name in names)
        data["environment"]["kind"] = kind
        _, table = grid_search(ExperimentConfig.from_dict(data), grid)
        best[label] = next(e.mean_final_regret for e in table if e.best)
    return best


def test_criterion_09_qualitative_regret_ordering():
    with Budget(900.0) as budget:
        ucb = ("neural_ucb.json", "gamma_grid.json")
        greedy = ("neural_greedy.json", "epsilon_grid.json")
        lin = ("lin_ucb.json", "lin_ucb_gamma_grid.json")
        h1 = _best("h1", {"ucb": ucb, "greedy": greedy, "lin": lin})
        h3 = _best("h3", {"ucb": ucb, "lin": lin})
        assert h1["ucb"] < h1["lin"], f"h1: NeuralUCB {h1['ucb']:.0f} vs LinUCB {h1['lin']:.0f}"
        assert h3["ucb"] < h3["lin"], f"h3: NeuralUCB {h3['ucb']:.0f} vs LinUCB {h3['lin']:.0f}"
        assert h1["ucb"] <= h1["greedy"], (
            f"h1: NeuralUCB {h1['ucb']:.0f} vs greedy {h1['greedy']:.0f}")
    report(9, f"mean final regret orderings hold: h1 NeuralUCB {h1['ucb']:.0f} "
              f"<= greedy {h1['greedy']:.0f} < LinUCB {h1['lin']:.0f}; "
              f"h3 NeuralUCB {h3['ucb']:.0f} < LinUCB {h3['lin']:.0f}", budget)


def test_criterion_10_linucb_sublinearity_on_linear_rewards():
    config = ExperimentConfig(
        environment=EnvironmentConfig(kind="linear", dimension=5, num_actions=10,
                                      horizon=2000, noise_scale=0.1),
        policy=PolicyConfig(algorithm="lin_ucb", gamma=1.0, lam=1.0),
        repetitions=5,
        base_seed=1013,
    )
    with Budget(120.0) as budget:
        results = run_experiment(config)
        first = float(np.mean([r.instant_regret[:500].mean() for r in results]))
        last = float(np.mean([r.instant_regret[-500:].mean() for r in results]))
        assert first >= 3.0 * last, f"first-500 {first:.4f} vs last-500 {last:.4f}"
    report(10, f"LinUCB regret rate drops {first / last:.1f}x between the "
               f"first and last 500 rounds of a linear task", budget)


def test_criterion_11_dataset_bandit_calibration(tmp_path):
    rng = np.random.default_rng(1014)
    n, k = 10_000, 4
    lines = ["f1,f2,f3,label"]
    for _ in range(n):
        feats = rng.standard_normal(3)
        lines.append(",".join(f"{v:.6f}" for v in feats) + f",c{rng.integers(k)}")
    path = tmp_path / "synthetic_labels.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    config = ExperimentConfig(
        environment=EnvironmentConfig(kind="dataset", dataset_path=str(path),
                                      label_column="label", horizon=n),
        policy=PolicyConfig(algorithm="random"),
        repetitions=1,
        base_seed=1015,
    )
    with Budget(120.0) as budget:
        result = run_experiment(config)[0]
        expected = 0.75 * n
        assert abs(result.final_regret - expected) <= 0.02 * expected
    report(11, f"uniform-random policy on a 4-class bandit: final regret "
               f"{result.final_regret:.0f} vs analytic {expected:.0f} "
               f"(within 2%)", budget)


def test_criterion_12_runs_are_byte_deterministic(tmp_path):
    config = {
        "environment": {"kind": "h3", "dimension": 4, "num_actions": 3,
                        "horizon": 25, "noise_scale": 0.5},
        "policy": {"algorithm": "neural_ucb", "width": 4, "depth": 2,
                   "gamma": 0.1, "eta": 0.001, "cadence": 10,
                   "batch_size": 5, "j_steps": 20},
        "repetitions": 2,
        "base_seed": 77,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    with Budget(60.0) as budget:
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli_main(["run", "--config", str(config_path), "--out", str(out_a)]) == 0
        assert cli_main(["run", "--config", str(config_path), "--out", str(out_b)]) == 0
        for name in ("rounds.csv", "summary.csv", "config.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    report(12, "repeated CLI runs with one seed emit byte-identical files", budget)
