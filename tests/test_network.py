"""Tests for the ReLU network: shapes, initializations, forward, gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuralbandit.network import (
    NetworkShape,
    NetworkParams,
    init_symmetric,
    init_plain,
    forward,
    forward_batch,
    gradient,
    gradient_batch,
    gradient_weighted_sum,
    flatten,
    unflatten,
)


def tiny_params():
    """d=2, m=2, L=2 with W1 = I and output row (1, -1)."""
    shape = NetworkShape(2, 2, 2)
    return shape, NetworkParams(shape, (np.eye(2), np.array([[1.0, -1.0]])))


class TestShape:
    def test_param_count(self):
        assert NetworkShape(4, 8, 3).num_params == 32 + 64 + 8

    def test_param_count_two_layers(self):
        # no middle layers: p = m*d + m
        assert NetworkShape(40, 20, 2).num_params == 820

    @pytest.mark.parametrize("d,m,L", [(3, 4, 2), (4, 5, 2), (4, 4, 1), (0, 4, 2)])
    def test_invalid_shapes_rejected(self, d, m, L):
        with pytest.raises(ValueError):
            NetworkShape(d, m, L)

    def test_weight_shape_mismatch_rejected(self):
        shape = NetworkShape(2, 2, 2)
        with pytest.raises(ValueError):
            NetworkParams(shape, (np.eye(3), np.array([[1.0, -1.0]])))


class TestFlatten:
    def test_flatten_length_matches_param_count(self):
        shape = NetworkShape(4, 8, 3)
        params = init_plain(shape, np.random.default_rng(0))
        assert flatten(params).shape == (104,)

    def test_round_trip_is_bitwise_exact(self):
        shape = NetworkShape(4, 8, 3)
        params = init_plain(shape, np.random.default_rng(1))
        back = unflatten(shape, flatten(params))
        for a, b in zip(params.weights, back.weights):
            assert np.array_equal(a, b)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_vector_round_trip(self, seed):
        shape = NetworkShape(4, 6, 3)
        vec = np.random.default_rng(seed).standard_normal(shape.num_params)
        assert np.array_equal(flatten(unflatten(shape, vec)), vec)

    def test_column_major_order(self):
        shape, params = tiny_params()
        # vec(I2) column-major then the output row
        assert np.array_equal(flatten(params), [1.0, 0.0, 0.0, 1.0, 1.0, -1.0])

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            unflatten(NetworkShape(4, 8, 3), np.zeros(103))

    def test_zero_vector_gives_zero_network(self):
        shape = NetworkShape(4, 4, 2)
        params = unflatten(shape, np.zeros(shape.num_params))
        x = np.random.default_rng(2).standard_normal(4)
        assert forward(params, x) == 0.0


class TestInitSymmetric:
    def test_null_output_on_duplicated_context(self):
        shape = NetworkShape(4, 4, 2)
        params = init_symmetric(shape, np.random.default_rng(3))
        assert abs(forward(params, np.array([0.5, 0.5, 0.5, 0.5]))) <= 1e-10

    def test_null_output_across_widths_and_depths(self):
        rng = np.random.default_rng(4)
        for m in (4, 16, 64, 256):
            for L in (2, 3, 4):
                params = init_symmetric(NetworkShape(8, m, L), rng)
                half = rng.standard_normal(4)
                x = np.concatenate([half, half])
                x /= np.linalg.norm(x)
                assert abs(forward(params, x)) <= 1e-8

    def test_off_diagonal_blocks_exactly_zero(self):
        params = init_symmetric(NetworkShape(4, 4, 2), np.random.default_rng(5))
        w1 = params.weights[0]
        assert np.all(w1[:2, 2:] == 0.0)
        assert np.all(w1[2:, :2] == 0.0)

    def test_output_row_antisymmetric(self):
        params = init_symmetric(NetworkShape(4, 8, 2), np.random.default_rng(6))
        wl = params.weights[-1].ravel()
        assert np.array_equal(wl[:4], -wl[4:])

    def test_hidden_block_variance(self):
        # pool nonzero entries of W1 across enough draws to reach 1e4 samples
        m, d = 16, 4
        rng = np.random.default_rng(7)
        entries = []
        while len(entries) < 10_000:
            w1 = init_symmetric(NetworkShape(d, m, 2), rng).weights[0]
            entries.extend(w1[: m // 2, : d // 2].ravel())
        var = np.var(entries)
        assert abs(var - 4.0 / m) <= 0.02

    def test_odd_dimensions_never_reach_the_initializer(self):
        with pytest.raises(ValueError):
            NetworkShape(6, 5, 2)
        with pytest.raises(ValueError):
            NetworkShape(5, 6, 2)


class TestInitPlain:
    def test_hidden_variance(self):
        m, d = 16, 4
        rng = np.random.default_rng(8)
        entries = []
        while len(entries) < 10_000:
            entries.extend(init_plain(NetworkShape(d, m, 2), rng).weights[0].ravel())
        assert abs(np.var(entries) - 2.0 / m) <= 0.01

    def test_output_layer_mean_near_zero(self):
        m = 16
        rng = np.random.default_rng(9)
        entries = []
        while len(entries) < 10_000:
            entries.extend(init_plain(NetworkShape(4, m, 2), rng).weights[-1].ravel())
        entries = np.asarray(entries)
        sigma = np.sqrt(1.0 / m)
        assert abs(entries.mean()) <= 3 * sigma / np.sqrt(entries.size)

    def test_output_generically_nonzero(self):
        rng = np.random.default_rng(10)
        params = init_plain(NetworkShape(4, 16, 2), rng)
        x = rng.standard_normal(4)
        assert abs(forward(params, x)) > 0.0


class TestForward:
    def test_hand_computed_value(self):
        _, params = tiny_params()
        val = forward(params, np.array([0.6, 0.8]))
        assert val == pytest.approx(np.sqrt(2) * (0.6 - 0.8), abs=1e-12)

    def test_all_negative_preactivations_give_zero(self):
        _, params = tiny_params()
        assert forward(params, np.array([-1.0, -1.0])) == 0.0

    def test_output_layer_homogeneity(self):
        shape = NetworkShape(4, 8, 3)
        rng = np.random.default_rng(11)
        params = init_plain(shape, rng)
        x = rng.standard_normal(4)
        doubled = NetworkParams(shape, params.weights[:-1] + (2.0 * params.weights[-1],))
        assert forward(doubled, x) == pytest.approx(2.0 * forward(params, x), rel=1e-12)

    def test_batch_matches_single(self):
        shape = NetworkShape(4, 8, 3)
        rng = np.random.default_rng(12)
        params = init_plain(shape, rng)
        xs = rng.standard_normal((5, 4))
        batch = forward_batch(params, xs)
        singles = [forward(params, x) for x in xs]
        assert np.allclose(batch, singles, atol=0)

    def test_dimension_mismatch_rejected(self):
        _, params = tiny_params()
        with pytest.raises(ValueError):
            forward(params, np.zeros(3))


def finite_difference_gradient(shape, theta, x, step=1e-5):
    """Central differences on the flattened parameter vector; the oracle."""
    fd = np.zeros_like(theta)
    for i in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[i] += step
        down[i] -= step
        fd[i] = (forward(unflatten(shape, up), x)
                 - forward(unflatten(shape, down), x)) / (2 * step)
    return fd


def away_from_kinks(params, x, margin=1e-3) -> bool:
    a = x
    for w in params.weights[:-1]:
        z = w @ a
        if np.min(np.abs(z)) < margin:
            return False
        a = np.maximum(z, 0.0)
    return True


# depth 2 has no middle layer; d and m must be even
GRADIENT_CASES = dict(depth=st.integers(2, 4), half_d=st.integers(1, 4), half_m=st.integers(1, 6),
                      n=st.integers(1, 9), seed=st.integers(0, 2**31 - 1))


def random_case(depth, half_d, half_m, n, seed):
    """A plain-initialized network, n contexts for it and the generator that drew them."""
    shape = NetworkShape(2 * half_d, 2 * half_m, depth)
    rng = np.random.default_rng(seed)
    return init_plain(shape, rng), rng.standard_normal((n, shape.input_dim)), rng


class TestGradient:
    def test_output_layer_block_hand_value(self):
        _, params = tiny_params()
        g = gradient(params, np.array([0.6, 0.8]))
        assert np.allclose(g[-2:], np.sqrt(2) * np.array([0.6, 0.8]), atol=1e-12)

    def test_relu_gating_zeroes_inactive_rows(self):
        shape = NetworkShape(2, 2, 2)
        params = NetworkParams(shape, (np.array([[1.0, 0.0], [-1.0, 0.0]]),
                                       np.array([[1.0, 1.0]])))
        g = gradient(params, np.array([1.0, 0.5]))
        # row 2 of W1 has negative preactivation: its column-major slots are zero
        w1_block = g[:4].reshape(2, 2, order="F")
        assert np.all(w1_block[1] == 0.0)
        assert np.any(w1_block[0] != 0.0)

    def test_matches_finite_differences(self):
        shape = NetworkShape(4, 8, 3)
        rng = np.random.default_rng(13)
        checked = 0
        while checked < 3:
            params = init_plain(shape, rng)
            theta = flatten(params) + 0.05 * rng.standard_normal(shape.num_params)
            params = unflatten(shape, theta)
            x = rng.standard_normal(4)
            if not away_from_kinks(params, x):
                continue
            fd = finite_difference_gradient(shape, theta, x)
            g = gradient(params, x)
            rel = np.abs(g - fd) / np.maximum(np.abs(fd), 1e-8)
            assert rel.max() <= 1e-4
            checked += 1

    @given(**GRADIENT_CASES)
    @settings(max_examples=60, deadline=None)
    def test_batch_matches_single(self, **case):
        params, xs, _ = random_case(**case)
        batch = gradient_batch(params, xs)
        assert batch.shape == (xs.shape[0], params.shape.num_params)
        for row, x in zip(batch, xs):
            assert np.allclose(row, gradient(params, x), atol=0)

    @given(**GRADIENT_CASES)
    @settings(max_examples=60, deadline=None)
    def test_weighted_sum_matches_explicit_combination(self, **case):
        params, xs, rng = random_case(**case)
        w = rng.standard_normal(xs.shape[0])
        expected = w @ gradient_batch(params, xs)
        assert np.allclose(gradient_weighted_sum(params, xs, w), expected, atol=1e-12)


class TestImmutability:
    def test_weights_frozen(self):
        params = init_plain(NetworkShape(4, 4, 2), np.random.default_rng(16))
        with pytest.raises(ValueError):
            params.weights[0][0, 0] = 1.0
