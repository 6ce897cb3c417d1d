"""Tests for the bandit policies and the network training loop."""

import math
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from neuralbandit import network
from neuralbandit.confidence import DesignMatrix, RidgeWidth
from neuralbandit.environments import preprocess_batch
from neuralbandit.harness import PolicyConfig, _build_policy
from neuralbandit.network import (
    NetworkShape,
    forward_batch,
    gradient_batch,
    gradient_weighted_sum,
    init_symmetric,
    unflatten,
)
from neuralbandit.policies import (
    DivergenceError,
    KernelUCB,
    NeuralUCB,
    NeuralUCB0,
    TrainingConfig,
    UniformRandomPolicy,
    gradient_feature_map,
    train_nn,
)


def duplicated_contexts(n, d_half, seed):
    raw = np.random.default_rng(seed).standard_normal((n, d_half))
    return preprocess_batch(raw)


FAST_TRAIN = TrainingConfig(eta=1e-3, j_steps=5, batch_size=None, cadence=10)


def lin_ucb(d, gamma, lam=1.0):
    """The lin_ucb policy as the harness builds it on d-dimensional raw contexts."""
    config = PolicyConfig(algorithm="lin_ucb", gamma=gamma, lam=lam)
    return _build_policy(config, SimpleNamespace(d=d), np.random.default_rng(0))


def batch_ridge_ucb(seen, rewards, contexts, gamma, lam):
    """Ridge UCB recomputed from scratch: A = lam I + X^T X, b = X^T r, and the
    argmax of x^T A^{-1} b + gamma * sqrt(x^T A^{-1} x) over the contexts."""
    x = np.asarray(seen, dtype=np.float64).reshape(-1, contexts.shape[1])
    a_mat = lam * np.eye(x.shape[1]) + x.T @ x
    theta = np.linalg.solve(a_mat, x.T @ np.asarray(rewards, dtype=np.float64))
    qforms = np.einsum("ij,ji->i", contexts, np.linalg.solve(a_mat, contexts.T))
    return int(np.argmax(contexts @ theta + gamma * np.sqrt(np.maximum(qforms, 0.0))))


def reference_train_nn(lam, eta, j_steps, x, r, theta0, batch_size=None, rng=None):
    """train_nn's loop in its plain form, the bit-for-bit oracle for the real one:
    a new parameter object every step, each minibatch gathered by fancy
    indexing, and the full-data loss recorded at every epoch start."""
    m = theta0.shape.width
    n = x.shape[0]
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
                params = unflatten(theta0.shape, params.flat - eta * grad)
                step += 1
        record(forward_batch(params, x) - r)
    return params, np.asarray(losses)


class TestTrainNN:
    def shape_and_data(self, n=8):
        shape = NetworkShape(4, 16, 2)
        theta0 = init_symmetric(shape, np.random.default_rng(50))
        x = duplicated_contexts(n, 2, 51)
        r = np.random.default_rng(52).standard_normal(n)
        return shape, theta0, x, r

    def test_zero_steps_returns_start_exactly(self):
        _, theta0, x, r = self.shape_and_data()
        params, losses = train_nn(1.0, 1e-3, 0, x, r, theta0)
        assert params is theta0
        assert losses.shape == (1,)

    def test_zero_rewards_at_symmetric_init_is_a_fixed_point(self):
        # f(x; theta0) cancels only to rounding, so the residual gradient is
        # ~1e-17 rather than exactly zero; the iterates stay put at that scale
        _, theta0, x, _ = self.shape_and_data()
        params, losses = train_nn(1.0, 1e-2, 25, x, np.zeros(8), theta0)
        for a, b in zip(params.weights, theta0.weights):
            assert np.allclose(a, b, atol=1e-12)
        assert np.all(losses <= 1e-24)

    def test_full_gradient_loss_monotone_for_small_step(self):
        _, theta0, x, r = self.shape_and_data()
        _, losses = train_nn(1.0, 1e-3 / 16, 200, x, r, theta0)
        assert np.all(np.diff(losses) <= 1e-10)

    def test_eta_halving_reaches_monotonicity(self):
        # the fallback oracle: halve eta until the trajectory is monotone
        _, theta0, x, r = self.shape_and_data()
        eta = 0.05
        for _ in range(10):
            try:
                _, losses = train_nn(1.0, eta, 100, x, r, theta0)
            except DivergenceError:
                eta /= 2.0
                continue
            if np.all(np.diff(losses) <= 1e-10):
                break
            eta /= 2.0
        else:
            pytest.fail("no monotone trajectory within 10 halvings")
        assert losses[-1] < losses[0]

    @pytest.mark.parametrize("n,batch_size,step", [
        pytest.param(8, None, 4, id="full-gradient"),
        # 50 steps per epoch: the overflow happens mid-epoch, and the
        # epoch-end loss is the first to see it
        pytest.param(200, 4, 50, id="minibatch-mid-epoch"),
    ])
    def test_divergent_step_raises_with_context(self, n, batch_size, step):
        _, theta0, x, r = self.shape_and_data(n)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DivergenceError, match=f"at step {step} \\(eta=1000"):
                train_nn(1.0, 1000.0, 200, x, r, theta0, batch_size=batch_size,
                         rng=np.random.default_rng(53))

    def test_minibatch_divergence_in_a_later_epoch_matches_the_reference(self):
        # 5 steps per epoch; the loss first overflows many epochs in, where
        # the loop checks the first batch instead of the full data
        _, theta0, x, r = self.shape_and_data(40)
        messages = []
        for train in (reference_train_nn, train_nn):
            with pytest.raises(DivergenceError) as err:
                train(1.0, 0.018, 200, x, r, theta0, batch_size=8,
                      rng=np.random.default_rng(53))
            messages.append(str(err.value))
        assert messages[0] == "training loss is non-finite at step 85 (eta=0.018)"
        assert messages[1] == messages[0]

    @pytest.mark.parametrize("n,j_steps,batch_size", [
        pytest.param(8, 30, None, id="full-gradient"),
        pytest.param(40, 3, 8, id="minibatch-part-of-one-epoch"),
        pytest.param(40, 23, 8, id="minibatch-several-epochs"),
        pytest.param(8, 6, 20, id="batch-larger-than-data"),
    ])
    def test_matches_the_reference_loop_bit_for_bit(self, n, j_steps, batch_size):
        _, theta0, x, r = self.shape_and_data(n)
        start = theta0.flat.copy()
        params, losses = train_nn(0.3, 1e-2, j_steps, x, r, theta0,
                                  batch_size=batch_size, rng=np.random.default_rng(53))
        want, want_losses = reference_train_nn(0.3, 1e-2, j_steps, x, r, theta0,
                                               batch_size=batch_size,
                                               rng=np.random.default_rng(53))
        assert params.flat.tobytes() == want.flat.tobytes()
        assert losses[0] == want_losses[0]
        assert losses[-1] == want_losses[-1]
        if batch_size is None:
            assert losses.tobytes() == want_losses.tobytes()
        assert theta0.flat.tobytes() == start.tobytes()
        assert not theta0.flat.flags.writeable
        assert not params.flat.flags.writeable
        for w in params.weights:
            assert np.shares_memory(w, params.flat)
        assert np.array_equal(np.concatenate([w.ravel() for w in params.weights]),
                              params.flat)

    def test_minibatch_records_the_first_and_last_loss(self):
        _, theta0, x, r = self.shape_and_data()
        params, losses = train_nn(1.0, 1e-3, 12, x, r, theta0,
                                  batch_size=4, rng=np.random.default_rng(53))
        assert losses.shape == (2,)
        assert losses[-1] < losses[0]

    def test_minibatch_requires_rng(self):
        _, theta0, x, r = self.shape_and_data()
        with pytest.raises(ValueError, match="rng"):
            train_nn(1.0, 1e-3, 5, x, r, theta0, batch_size=4)

    def test_empty_data_with_steps_rejected(self):
        shape = NetworkShape(4, 16, 2)
        theta0 = init_symmetric(shape, np.random.default_rng(54))
        with pytest.raises(ValueError, match="nonempty"):
            train_nn(1.0, 1e-3, 5, np.zeros((0, 4)), np.zeros(0), theta0)



class TestNeuralUCB:
    def fresh_policy(self, gamma=0.5, seed=60, **kwargs):
        shape = NetworkShape(8, 8, 2)
        return NeuralUCB(shape, 1.0, gamma, np.random.default_rng(seed), train=FAST_TRAIN,
                         **kwargs)

    def test_fresh_selection_maximizes_gradient_norm(self):
        policy = self.fresh_policy(gamma=0.7)
        contexts = duplicated_contexts(5, 4, 61)
        action, scores = policy.select(contexts)
        feats = gradient_batch(policy.theta0, contexts) / math.sqrt(8)
        expected = 0.7 * np.linalg.norm(feats, axis=1)  # f == 0 at symmetric init
        assert np.allclose(scores, expected, atol=1e-10)
        assert action == int(np.argmax(np.linalg.norm(feats, axis=1)))

    def test_zero_width_is_pure_exploitation(self):
        policy = self.fresh_policy(gamma=0.0)
        rng = np.random.default_rng(62)
        for _ in range(12):
            contexts = duplicated_contexts(4, 4, int(rng.integers(1 << 30)))
            action, scores = policy.select(contexts)
            means = [float(scores[a]) for a in range(4)]
            assert action == int(np.argmax(means))
            policy.update(contexts[action], float(rng.standard_normal()))

    def test_identical_contexts_tie_break_to_zero(self):
        policy = self.fresh_policy()
        one = duplicated_contexts(1, 4, 63)
        contexts = np.vstack([one, one])
        action, _ = policy.select(contexts)
        assert action == 0

    def test_empty_context_set_rejected(self):
        with pytest.raises(ValueError):
            self.fresh_policy().select(np.zeros((0, 8)))

    def test_log_det_after_one_update_matches_determinant_lemma(self):
        policy = self.fresh_policy()
        x = duplicated_contexts(1, 4, 64)[0]
        feat = gradient_batch(policy.theta0, x[None, :])[0] / math.sqrt(8)
        policy.update(x, 1.0)
        expected = math.log(1.0 + float(feat @ feat) / 1.0)
        assert policy.design.log_det_ratio() == pytest.approx(expected, rel=1e-12)

    def test_history_length_tracks_rounds(self):
        policy = self.fresh_policy()
        contexts = duplicated_contexts(3, 4, 65)
        for t in range(7):
            action, _ = policy.select(contexts)
            policy.update(contexts[action], 0.1 * t)
        assert policy.t == 7
        assert len(policy.history) == 7

    def test_zero_training_steps_keeps_initial_parameters(self):
        policy = self.fresh_policy()
        policy.train_config = TrainingConfig(eta=1e-3, j_steps=0, cadence=1)
        contexts = duplicated_contexts(3, 4, 66)
        for _ in range(5):
            action, _ = policy.select(contexts)
            policy.update(contexts[action], 1.0)
        assert policy.theta is policy.theta0 or all(
            np.array_equal(a, b) for a, b in zip(policy.theta.weights,
                                                 policy.theta0.weights))

    def test_matches_greedy_when_exploration_is_off(self):
        shape = NetworkShape(8, 8, 2)
        train = TrainingConfig(eta=1e-3, j_steps=10, batch_size=None, cadence=5)
        ucb = NeuralUCB(shape, 1.0, 0.0, np.random.default_rng(67), train=train)
        greedy = NeuralUCB(shape, 1.0, None, np.random.default_rng(67), train=train)
        stream = np.random.default_rng(68)
        secret = stream.standard_normal(8)
        actions_u, actions_g = [], []
        for _ in range(30):
            contexts = duplicated_contexts(4, 4, int(stream.integers(1 << 30)))
            rewards = contexts @ secret
            au, _ = ucb.select(contexts)
            ag, _ = greedy.select(contexts)
            actions_u.append(au)
            actions_g.append(ag)
            ucb.update(contexts[au], float(rewards[au]))
            greedy.update(contexts[ag], float(rewards[ag]))
        assert actions_u == actions_g

    def test_diagonal_mode_runs(self):
        policy = self.fresh_policy(design_mode="diagonal")
        contexts = duplicated_contexts(4, 4, 69)
        for _ in range(6):
            action, _ = policy.select(contexts)
            policy.update(contexts[action], 0.5)
        assert policy.design.mode == "diagonal"

    def test_deterministic_under_fixed_seed(self):
        def run(seed):
            policy = self.fresh_policy(seed=seed)
            policy.train_config = TrainingConfig(eta=1e-3, j_steps=5,
                                                 batch_size=2, cadence=5)
            stream = np.random.default_rng(70)
            actions = []
            for _ in range(20):
                contexts = duplicated_contexts(4, 4, int(stream.integers(1 << 30)))
                action, _ = policy.select(contexts)
                actions.append(action)
                policy.update(contexts[action], float(stream.standard_normal()))
            return actions

        assert run(7) == run(7)


class TestNeuralEpsilonGreedy:
    """The network learner with no width: greedy, or uniform with probability epsilon."""

    def test_full_exploration_is_uniform(self):
        shape = NetworkShape(4, 4, 2)
        policy = NeuralUCB(shape, 1.0, None, np.random.default_rng(71), train=FAST_TRAIN,
                           epsilon=1.0)
        contexts = duplicated_contexts(4, 2, 72)
        counts = np.zeros(4)
        n = 10_000
        for _ in range(n):
            action, _ = policy.select(contexts)
            counts[action] += 1
        sigma = math.sqrt(n * 0.25 * 0.75)
        assert np.all(np.abs(counts - n / 4) <= 3 * sigma)

    def test_zero_epsilon_is_deterministic_argmax(self):
        shape = NetworkShape(4, 4, 2)
        policy = NeuralUCB(shape, 1.0, None, np.random.default_rng(73), train=FAST_TRAIN)
        one = duplicated_contexts(1, 2, 74)
        contexts = np.vstack([one, one, one])
        action, _ = policy.select(contexts)
        assert action == 0  # all scores tie at the symmetric init

    def test_epsilon_out_of_range_rejected(self):
        shape = NetworkShape(4, 4, 2)
        with pytest.raises(ValueError):
            NeuralUCB(shape, 1.0, None, np.random.default_rng(75), epsilon=1.5)


class TestNeuralUCB0:
    def test_fresh_scores_scale_with_feature_norm(self):
        shape = NetworkShape(8, 8, 2)
        policy = NeuralUCB0(*gradient_feature_map(shape, np.random.default_rng(80)), 1.0, 0.3)
        contexts = duplicated_contexts(4, 4, 81)
        _, scores = policy.select(contexts)
        feats = policy.feature_map(contexts)
        expected = 0.3 * np.linalg.norm(feats, axis=1)
        assert np.allclose(scores, expected, atol=1e-10)

    def test_online_solution_matches_batch_ridge(self):
        shape = NetworkShape(4, 8, 2)  # p = 40
        policy = NeuralUCB0(*gradient_feature_map(shape, np.random.default_rng(82)), 0.7,
                            RidgeWidth(1.0, 0.1, 1.0, 0.7))
        rng = np.random.default_rng(83)
        feats_seen, rewards = [], []
        for t in range(200):
            contexts = duplicated_contexts(3, 2, int(rng.integers(1 << 30)))
            action, _ = policy.select(contexts)
            reward = float(rng.standard_normal())
            policy.update(contexts[action], reward)
            feats_seen.append(policy.feature_map(contexts[action][None, :])[0])
            rewards.append(reward)
            if t % 40 == 0 or t == 199:
                phi = np.stack(feats_seen)
                batch = np.linalg.solve(
                    0.7 * np.eye(phi.shape[1]) + phi.T @ phi,
                    phi.T @ np.asarray(rewards))
                assert np.max(np.abs(batch - policy.theta_offset)) <= 1e-8

    def test_closed_form_matches_ellipsoid_boundary_maximization(self):
        # oracle: sample 1e5 points on the confidence-ellipsoid boundary and
        # maximize the linear objective; the closed form dominates and the
        # gap closes at small widths
        p = 10
        ident = lambda x: np.asarray(x, dtype=np.float64)
        gamma = 0.01
        policy = NeuralUCB0(ident, p, 1.0, gamma)
        rng = np.random.default_rng(84)
        for _ in range(15):
            contexts = rng.standard_normal((4, p))
            contexts /= np.linalg.norm(contexts, axis=1, keepdims=True)
            action, _ = policy.select(contexts)
            policy.update(contexts[action], float(rng.standard_normal()))
        query = rng.standard_normal(p)
        query /= np.linalg.norm(query)
        _, scores = policy.select(query[None, :])
        closed = float(scores[0])

        z = policy.design.matrix
        evals, evecs = np.linalg.eigh(z)
        z_inv_half = evecs @ np.diag(evals ** -0.5) @ evecs.T
        u = rng.standard_normal((100_000, p))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        boundary = policy.theta_offset + gamma * (u @ z_inv_half)
        sampled_max = float(np.max(boundary @ query))
        assert closed >= sampled_max - 1e-12
        assert closed - sampled_max <= 1e-3

    def test_identity_features_reproduce_lin_ucb(self):
        # co-simulation against ridge UCB recomputed from scratch each round:
        # same widths, same data, action-for-action agreement
        d, k, rounds = 6, 5, 120
        gamma, lam = 0.8, 1.3
        frozen = lin_ucb(d, gamma, lam=lam)
        rng = np.random.default_rng(85)
        secret = rng.standard_normal(d)
        seen, rewards = [], []
        actions_f, actions_l = [], []
        for _ in range(rounds):
            contexts = rng.standard_normal((k, d))
            af, _ = frozen.select(contexts)
            actions_f.append(af)
            actions_l.append(batch_ridge_ucb(seen, rewards, contexts, gamma, lam))
            reward = float(contexts[af] @ secret + 0.1 * rng.standard_normal())
            frozen.update(contexts[af], reward)
            seen.append(contexts[af])
            rewards.append(reward)
        assert actions_f == actions_l


class TestNeuralEpsilonGreedy0:
    """The frozen-feature ridge learner with no width and epsilon > 0."""

    def test_maintains_ridge_regression(self):
        shape = NetworkShape(4, 4, 2)
        policy_rng = np.random.default_rng(86)
        policy = NeuralUCB0(*gradient_feature_map(shape, policy_rng), 1.0, None,
                            epsilon=0.2, rng=policy_rng)
        rng = np.random.default_rng(87)
        chosen, rewards = [], []
        for _ in range(10):
            contexts = duplicated_contexts(3, 2, int(rng.integers(1 << 30)))
            action, _ = policy.select(contexts)
            chosen.append(contexts[action])
            rewards.append(float(rng.standard_normal()))
            policy.update(contexts[action], rewards[-1])
        assert policy.t == 10
        phi = policy.feature_map(np.stack(chosen))
        design = np.eye(phi.shape[1]) + phi.T @ phi
        assert np.allclose(policy.design.matrix, design, atol=1e-10)
        assert np.allclose(policy.theta_offset, np.linalg.solve(design, phi.T @ rewards),
                           atol=1e-8)
        assert np.linalg.norm(policy.theta_offset) > 0


class TestChoiceRule:
    """The select/update that every learner shares."""

    @staticmethod
    def learners(rng):
        shape = NetworkShape(8, 8, 2)
        yield NeuralUCB(shape, 1.0, 0.5, rng, train=FAST_TRAIN)
        yield NeuralUCB(shape, 1.0, None, rng, train=FAST_TRAIN)
        yield NeuralUCB0(*gradient_feature_map(shape, rng), 1.0, 0.5, rng=rng)
        yield NeuralUCB0(*gradient_feature_map(shape, rng), 1.0, None, rng=rng)
        yield KernelUCB(1.0, 0.5)

    def test_zero_epsilon_draws_nothing_from_the_generator(self):
        rng = np.random.default_rng(94)
        stream = np.random.default_rng(95)
        for policy in self.learners(rng):
            # full-gradient training draws nothing either
            before = rng.bit_generator.state
            for _ in range(12):
                contexts = duplicated_contexts(4, 4, int(stream.integers(1 << 30)))
                action, _ = policy.select(contexts)
                policy.update(contexts[action], float(stream.standard_normal()))
            assert rng.bit_generator.state == before

    def test_no_width_keeps_no_design_and_takes_no_gradients(self, monkeypatch):
        def no_gradients(*args):
            raise AssertionError("gradient_batch called without a width")

        monkeypatch.setattr("neuralbandit.policies.gradient_batch", no_gradients)
        policy = NeuralUCB(NetworkShape(8, 8, 2), 1.0, None, np.random.default_rng(96),
                           train=FAST_TRAIN, epsilon=0.3)
        contexts = duplicated_contexts(4, 4, 97)
        for _ in range(12):  # past the retrain at round 10
            action, _ = policy.select(contexts)
            policy.update(contexts[action], 1.0)
        assert policy.design is None
        assert policy.theta is not policy.theta0

    @staticmethod
    def count_calls(monkeypatch, owner, name):
        """Replace owner.name with a wrapper that counts its calls; returns the count list."""
        calls = []
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda *args: calls.append(None) or original(*args))
        return calls

    def test_frozen_features_are_computed_once_per_select(self, monkeypatch):
        feature_map, dim = gradient_feature_map(NetworkShape(8, 8, 2),
                                                np.random.default_rng(98))
        calls = []
        policy = NeuralUCB0(lambda x: calls.append(x) or feature_map(x), dim, 1.0, 0.5)
        forms = self.count_calls(monkeypatch, DesignMatrix, "quadratic_form")
        policy.select(duplicated_contexts(4, 4, 99))
        assert (len(calls), len(forms)) == (1, 1)

    @pytest.mark.parametrize("mode", ["full", "diagonal"])
    def test_neural_select_runs_one_forward_pass_and_one_design_call(self, monkeypatch, mode):
        policy = NeuralUCB(NetworkShape(8, 8, 2), 1.0, 0.5, np.random.default_rng(102),
                           train=FAST_TRAIN, design_mode=mode)
        contexts = duplicated_contexts(4, 4, 103)
        policy.update(contexts[0], 1.0)
        passes = self.count_calls(monkeypatch, network, "_forward_pass")
        forms = self.count_calls(monkeypatch, DesignMatrix, "quadratic_form")
        policy.select(contexts)
        assert (len(passes), len(forms)) == (1, 1)

    def test_epsilon_explores_around_the_ucb_scores(self):
        shape = NetworkShape(8, 8, 2)
        ucb = NeuralUCB(shape, 1.0, 0.5, np.random.default_rng(100),
                        train=FAST_TRAIN)
        explorer = NeuralUCB(shape, 1.0, 0.5, np.random.default_rng(100),
                             train=FAST_TRAIN, epsilon=1.0)
        contexts = duplicated_contexts(4, 4, 101)
        _, ucb_scores = ucb.select(contexts)
        actions = set()
        for _ in range(100):
            action, scores = explorer.select(contexts)
            assert np.array_equal(scores, ucb_scores)
            actions.add(action)
        assert actions == {0, 1, 2, 3}

    def test_epsilon_without_a_generator_rejected(self):
        with pytest.raises(ValueError, match="rng"):
            NeuralUCB0(lambda x: x, 3, 1.0, None, epsilon=0.1)


class LogDetCountingLinUCB(NeuralUCB0):
    """LinUCB on raw 4-dimensional contexts that counts its log-det reads."""

    def __init__(self, width):
        super().__init__(lambda x: x, 4, 1.0, width)
        self.log_det_reads = 0

    def log_det_ratio(self) -> float:
        self.log_det_reads += 1
        return super().log_det_ratio()


def play(policy, rounds, seed):
    """Select and update on standard normal (3, 4) contexts; the width after each round."""
    rng = np.random.default_rng(seed)
    gammas = []
    for _ in range(rounds):
        contexts = rng.standard_normal((3, 4))
        action, _ = policy.select(contexts)
        policy.update(contexts[action], float(rng.standard_normal()))
        gammas.append(policy.gamma)
    return gammas


class TestWidth:
    """A width is None, a number gamma >= 0, or a schedule (t, logdet) -> gamma."""

    @pytest.mark.parametrize("gamma", [0.0, 0.1])
    def test_number_holds_across_rounds_and_never_reads_the_log_det(self, gamma):
        policy = LogDetCountingLinUCB(gamma)
        assert policy.schedule is None and policy.gamma == gamma
        assert play(policy, 20, 113) == [gamma] * 20
        assert policy.log_det_reads == 0

    def test_schedule_reads_the_log_det_once_per_update(self):
        seen = []

        def schedule(t, logdet):
            seen.append((t, logdet))
            return 0.5

        policy = LogDetCountingLinUCB(schedule)
        assert seen == [(0, 0.0)] and policy.log_det_reads == 0
        play(policy, 20, 114)
        assert policy.log_det_reads == 20
        assert [t for t, _ in seen] == list(range(21))
        assert seen[-1][1] == policy.design.log_det_ratio() > 0.0

    def test_zero_width_plays_the_predicted_means(self):
        policy = KernelUCB(1.0, 0.0)
        assert policy.gamma == 0.0
        _, scores = policy.select(np.array([[0.1, 0.2], [0.3, 0.4]]))
        assert np.array_equal(scores, [0.0, 0.0])  # no data: means 0, variance 1

    @pytest.mark.parametrize("learner", [
        lambda width: NeuralUCB(NetworkShape(4, 4, 2), 1.0, width, np.random.default_rng(115)),
        lambda width: NeuralUCB0(lambda x: x, 4, 1.0, width),
        lambda width: KernelUCB(1.0, width),
    ], ids=["neural_ucb", "neural_ucb0", "kernel_ucb"])
    @pytest.mark.parametrize("width,error,message", [
        (-0.1, ValueError, "gamma must be >= 0, got -0.1"),
        (math.nan, ValueError, "gamma must be finite, got nan"),
        ("0.5", TypeError, "gamma must be a real number, got '0.5'"),
        (True, TypeError, "gamma must be a real number, got True"),
    ], ids=["negative", "nan", "string", "bool"])
    def test_number_that_is_not_a_width_rejected(self, learner, width, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            learner(width)


CONTRACT_POLICIES = {
    "kernel_ucb": lambda: KernelUCB(1.0, 1.0),
    "neural_ucb": lambda: NeuralUCB(NetworkShape(4, 4, 2), 1.0, 0.5,
                                    np.random.default_rng(110), train=FAST_TRAIN),
    "lin_ucb": lambda: lin_ucb(4, gamma=1.0),
    "random": lambda: UniformRandomPolicy(np.random.default_rng(111)),
}
NAN_ROW = np.array([1.0, math.nan, 0.0, 1.0])


class TestUpdateContract:
    """The one update every policy shares: one finite context and reward make one round."""

    @pytest.mark.parametrize("name", CONTRACT_POLICIES)
    def test_t_counts_rounds(self, name):
        policy = CONTRACT_POLICIES[name]()
        rng = np.random.default_rng(112)
        for t in range(1, 4):
            contexts = rng.standard_normal((3, 4))
            action, _ = policy.select(contexts)
            policy.update(contexts[action], float(rng.standard_normal()))
            assert policy.t == t

    @pytest.mark.parametrize("name", CONTRACT_POLICIES)
    @pytest.mark.parametrize("method,args", [
        pytest.param("update", (np.zeros(0), 1.0), id="update-empty-context"),
        pytest.param("update", (np.ones((2, 4)), 1.0), id="update-two-contexts"),
        pytest.param("update", (NAN_ROW, 1.0), id="update-nan-context"),
        pytest.param("update", (np.ones(4), math.nan), id="update-nan-reward"),
        pytest.param("select", (np.vstack([np.ones(4), NAN_ROW]),), id="select-nan-context"),
    ])
    def test_bad_input_is_rejected_without_counting_a_round(self, name, method, args):
        policy = CONTRACT_POLICIES[name]()
        with pytest.raises((ValueError, TypeError)):
            getattr(policy, method)(*args)
        assert policy.t == 0


class TestLinUCB:
    def test_fresh_scores_scale_with_context_norm(self):
        policy = lin_ucb(3, gamma=2.0, lam=4.0)
        contexts = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        _, scores = policy.select(contexts)
        assert np.allclose(scores, 2.0 * np.linalg.norm(contexts, axis=1) / 2.0)

    def test_one_step_ridge_by_hand(self):
        policy = lin_ucb(2, gamma=0.0, lam=1.0)
        policy.update(np.array([1.0, 0.0]), 1.0)
        _, scores = policy.select(np.array([[1.0, 0.0]]))
        assert scores[0] == pytest.approx(0.5)

    def test_learns_a_noiseless_linear_reward(self):
        d, k, horizon = 5, 10, 500
        rng = np.random.default_rng(88)
        secret = rng.standard_normal(d)
        secret /= np.linalg.norm(secret)
        policy = lin_ucb(d, gamma=1.0, lam=1.0)
        optimal_hits = []
        for t in range(horizon):
            contexts = rng.standard_normal((k, d))
            contexts /= np.linalg.norm(contexts, axis=1, keepdims=True)
            action, _ = policy.select(contexts)
            means = contexts @ secret
            optimal_hits.append(action == int(np.argmax(means)))
            policy.update(contexts[action], float(means[action]))
        assert np.mean(optimal_hits[-100:]) >= 0.9


class TestKernelUCB:
    def test_no_data_width_is_gamma(self):
        policy = KernelUCB(1.0, 0.7)
        _, scores = policy.select(np.array([[0.1, 0.2], [0.3, 0.4]]))
        assert np.array_equal(scores, [0.7, 0.7])

    def test_single_observation_by_hand(self):
        policy = KernelUCB(1.0, 1.0, lam=1.0)
        x = np.array([0.3, 0.4])
        policy.update(x, 1.0)
        _, scores = policy.select(x[None, :])
        assert scores[0] == pytest.approx(0.5 + math.sqrt(0.5), rel=1e-12)

    def test_infinite_bandwidth_degenerates_to_tie(self):
        policy = KernelUCB(np.inf, 1.0)
        rng = np.random.default_rng(89)
        policy.update(rng.standard_normal(3), 1.0)
        action, scores = policy.select(rng.standard_normal((4, 3)))
        assert np.allclose(scores, scores[0])
        assert action == 0

    def test_buffer_cap_freezes_the_model(self):
        policy = KernelUCB(1.0, 1.0, cap=5)
        rng = np.random.default_rng(90)
        for _ in range(9):
            policy.update(rng.standard_normal(2), float(rng.standard_normal()))
        assert policy._x.shape[0] == 5
        assert policy.t == 9

    def test_log_det_ratio_matches_a_direct_factorization(self):
        # log det(I + K/lam) over the buffer, before and after the cap freezes it
        lam, cap = 0.5, 7
        policy = KernelUCB(0.8, 1.0, lam=lam, cap=cap)
        assert policy.log_det_ratio() == 0.0
        rng = np.random.default_rng(102)
        seen = []
        for _ in range(12):
            x = rng.standard_normal(3)
            policy.update(x, float(rng.standard_normal()))
            seen = (seen + [x])[:cap]
            buffer = np.stack(seen)
            gram = np.exp(-np.sum((buffer[:, None] - buffer[None]) ** 2, axis=2) / (2 * 0.8**2))
            sign, logdet = np.linalg.slogdet(np.eye(len(seen)) + gram / lam)
            assert sign == 1.0
            assert policy.log_det_ratio() == pytest.approx(logdet, rel=1e-12, abs=1e-12)

    def test_width_reads_the_log_det_ratio(self):
        seen = []

        def width(t, logdet):
            seen.append((t, logdet))
            return 1.0

        policy = KernelUCB(1.0, width)
        rng = np.random.default_rng(103)
        for _ in range(3):
            policy.update(rng.standard_normal(2), 1.0)
            assert seen[-1] == (policy.t, policy.log_det_ratio())
        assert seen[0] == (0, 0.0) and len(seen) == 4

    def test_huge_bandwidth_is_the_constant_kernel_limit(self):
        # 1e200 squared overflows to inf, so it plays exactly as an infinite bandwidth
        huge = KernelUCB(1e200, 1.0)
        infinite = KernelUCB(np.inf, 1.0)
        rng = np.random.default_rng(104)
        for _ in range(3):
            contexts = rng.standard_normal((4, 3))
            (action, scores), (expected_action, expected) = \
                huge.select(contexts), infinite.select(contexts)
            assert action == expected_action and np.array_equal(scores, expected)
            huge.update(contexts[action], 1.0)
            infinite.update(contexts[action], 1.0)

    def test_bandwidth_whose_square_underflows_rejected(self):
        with pytest.raises(ValueError, match=r"^bandwidth must have a nonzero square, got 1e-200$"):
            KernelUCB(1e-200, 1.0)
        # a square that is still positive keeps a context's kernel with itself finite
        policy = KernelUCB(1e-160, 1.0)
        x = np.array([0.3, 0.4])
        policy.update(x, 1.0)
        _, scores = policy.select(np.stack([x, -x]))
        assert np.isfinite(scores).all()

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError, match="bandwidth"):
            KernelUCB(0.0, 1.0)
        with pytest.raises(ValueError, match="cap"):
            KernelUCB(1.0, 1.0, cap=0)


class TestTrivialPolicies:
    def test_uniform_random_covers_all_arms(self):
        policy = UniformRandomPolicy(np.random.default_rng(91))
        contexts = np.zeros((3, 2))
        seen = {policy.select(contexts)[0] for _ in range(200)}
        assert seen == {0, 1, 2}

    def test_actions_always_in_range(self):
        policies = [
            UniformRandomPolicy(np.random.default_rng(92)),
            lin_ucb(4, gamma=1.0),
            KernelUCB(bandwidth=1.0, width=1.0),
        ]
        rng = np.random.default_rng(93)
        for policy in policies:
            for _ in range(10):
                contexts = rng.standard_normal((6, 4))
                action, scores = policy.select(contexts)
                assert 0 <= action < 6
                assert scores.shape == (6,)
                policy.update(contexts[action], float(rng.standard_normal()))
