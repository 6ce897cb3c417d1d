"""Tests for kernel Gram matrices, effective dimension, and the norm proxy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuralbandit.network import NetworkShape, init_plain, init_symmetric
from neuralbandit.ntk import (
    _kernel_recursion,
    effective_dimension,
    empirical_gram,
    ntk_gram,
    rkhs_norm_proxy,
)


def random_unit_contexts(n, d, seed):
    x = np.random.default_rng(seed).standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def mc_relu_moments(rho, samples, seed):
    """Monte Carlo oracle for the bivariate ReLU moments at unit variances."""
    rng = np.random.default_rng(seed)
    acc_act = 0.0
    acc_der = 0.0
    chunk = 500_000
    done = 0
    while done < samples:
        n = min(chunk, samples - done)
        u = rng.standard_normal(n)
        w = rng.standard_normal(n)
        v = rho * u + np.sqrt(1.0 - rho * rho) * w
        acc_act += np.sum(np.maximum(u, 0.0) * np.maximum(v, 0.0))
        acc_der += np.sum((u > 0) & (v > 0))
        done += n
    return acc_act / samples, acc_der / samples


class TestNtkGram:
    def test_single_unit_context_depth_two(self):
        gram = ntk_gram(np.array([[1.0, 0.0]]), 2)
        assert gram[0, 0] == pytest.approx(1.5, abs=1e-12)

    def test_orthogonal_pair_depth_two(self):
        gram = ntk_gram(np.eye(2), 2)
        assert gram[0, 1] == pytest.approx(1.0 / np.pi, abs=1e-12)
        assert gram[0, 0] == pytest.approx(1.5, abs=1e-12)
        assert gram[1, 1] == pytest.approx(1.5, abs=1e-12)

    def test_identical_contexts_are_singular(self):
        x = np.array([[0.6, 0.8], [0.6, 0.8]])
        gram = ntk_gram(x, 2)
        assert np.allclose(gram, 1.5, atol=1e-12)
        assert np.linalg.eigvalsh(gram)[0] == pytest.approx(0.0, abs=1e-12)

    def test_closed_form_matches_monte_carlo(self):
        # spot-check the arc-cosine moments against simulation at a few rho
        for rho in (0.0, 0.3, -0.5, 0.9):
            theta = np.arccos(rho)
            exact_act = (np.sqrt(1 - rho**2) + (np.pi - theta) * rho) / (2 * np.pi)
            exact_der = (np.pi - theta) / (2 * np.pi)
            mc_act, mc_der = mc_relu_moments(rho, 2_000_000, seed=hash(rho) % 2**32)
            assert mc_act == pytest.approx(exact_act, abs=2e-3)
            assert mc_der == pytest.approx(exact_der, abs=2e-3)

    @pytest.mark.parametrize("bad_row", [[0.0, 0.0], [np.nan, 1.0], [np.inf, 0.0]])
    def test_zero_or_non_finite_context_rejected(self, bad_row):
        with pytest.raises(ValueError, match=r"rows \[1\] have a zero or non-finite norm"):
            ntk_gram(np.array([[1.0, 1.0], bad_row]), 2)

    @given(st.integers(0, 10_000), st.integers(2, 4), st.integers(1, 5))
    @settings(max_examples=25, deadline=None)
    def test_homogeneous_in_the_context_norms(self, seed, depth, n):
        # H(x, y) = |x| |y| H(x/|x|, y/|y|) for the bias-free ReLU kernel
        rng = np.random.default_rng(seed)
        unit = random_unit_contexts(n, 5, seed)
        norms = rng.uniform(0.1, 10.0, n)
        scaled = ntk_gram(unit * norms[:, None], depth)
        expected = ntk_gram(unit, depth) * np.outer(norms, norms)
        assert np.allclose(scaled, expected, rtol=1e-12, atol=0.0)

    def test_depth_below_two_rejected(self):
        with pytest.raises(ValueError):
            ntk_gram(np.eye(2), 1)

    @given(st.integers(0, 10_000), st.integers(2, 5), st.integers(2, 6))
    @settings(max_examples=25, deadline=None)
    def test_symmetric_psd_for_random_context_sets(self, seed, depth, n):
        x = random_unit_contexts(n, 6, seed)
        h = ntk_gram(x, depth)
        assert np.max(np.abs(h - h.T)) <= 1e-10
        assert np.linalg.eigvalsh(h)[0] >= -1e-8

    @given(st.integers(0, 10_000), st.integers(2, 5))
    @settings(max_examples=20, deadline=None)
    def test_diagonal_depends_only_on_depth(self, seed, depth):
        x = random_unit_contexts(5, 4, seed)
        diag = np.diag(ntk_gram(x, depth))
        assert np.max(np.abs(diag - diag[0])) <= 1e-10
        if depth == 2:
            assert diag[0] == pytest.approx(1.5, abs=1e-12)


class TestEmpiricalGram:
    def test_plain_init_single_context_close_to_closed_form(self):
        contexts = random_unit_contexts(1, 4, 21)
        params = init_plain(NetworkShape(4, 4096, 2), np.random.default_rng(22))
        value = empirical_gram(params, contexts)[0, 0]
        assert value == pytest.approx(1.5, abs=0.05)

    def test_gram_is_psd(self):
        contexts = random_unit_contexts(5, 4, 23)
        params = init_plain(NetworkShape(4, 64, 2), np.random.default_rng(24))
        g = empirical_gram(params, contexts)
        assert np.linalg.eigvalsh(g)[0] >= -1e-8

    def test_width_trend_toward_closed_form(self):
        contexts = random_unit_contexts(5, 4, 25)
        exact = ntk_gram(contexts, 2)
        medians = []
        for m in (16, 256):
            dists = [
                np.linalg.norm(
                    empirical_gram(init_plain(NetworkShape(4, m, 2),
                                              np.random.default_rng(s)), contexts)
                    - exact)
                for s in range(10)
            ]
            medians.append(np.median(dists))
        assert medians[0] > medians[1]

    def test_symmetric_init_converges_to_doubled_tangent_term(self):
        # the block-symmetric scheme doubles the output-layer variance, so its
        # gradient Gram approaches the tangent accumulator 2H - S instead of H
        half = random_unit_contexts(1, 2, 26)[0] / np.sqrt(2.0)
        contexts = np.concatenate([half, half])[None, :]
        cov, tangent = _kernel_recursion(contexts, 2)
        assert tangent[0, 0] == pytest.approx(2.0, abs=1e-12)
        values = [
            empirical_gram(init_symmetric(NetworkShape(4, 4096, 2),
                                          np.random.default_rng(s)), contexts)[0, 0]
            for s in range(7)
        ]
        assert np.median(values) == pytest.approx(tangent[0, 0], abs=0.1)


class TestEffectiveDimension:
    def test_scalar_identity_case(self):
        assert effective_dimension(np.array([[1.0]]), 1.0, 1) == pytest.approx(1.0)

    def test_identity_three(self):
        val = effective_dimension(np.eye(3), 1.0, 3)
        assert val == pytest.approx(3 * np.log(2) / np.log(4), abs=1e-12)

    def test_rank_one_diagonal(self):
        val = effective_dimension(np.diag([3.0, 0.0, 0.0]), 1.0, 3)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_matches_eigenvalue_evaluation(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            psi = rng.standard_normal((n, n))
            psi /= np.maximum(np.linalg.norm(psi, axis=0, keepdims=True), 1.0)
            h = psi.T @ psi
            lam = float(rng.uniform(0.5, 5.0))
            tk = int(rng.integers(n, 3 * n))
            via_chol = effective_dimension(h, lam, tk)
            eigs = np.linalg.eigvalsh(h)
            via_eig = np.sum(np.log1p(np.maximum(eigs, 0.0) / lam)) / np.log1p(tk / lam)
            assert via_chol == pytest.approx(via_eig, abs=1e-8)

    def test_bounded_by_context_count_for_unit_features(self):
        # H = Psi^T Psi with column norms <= 1 and lam >= 1 gives d~ <= n
        rng = np.random.default_rng(32)
        for _ in range(50):
            n = int(rng.integers(2, 15))
            psi = rng.standard_normal((n + 3, n))
            psi /= np.maximum(np.linalg.norm(psi, axis=0, keepdims=True), 1.0)
            h = psi.T @ psi
            lam = float(rng.uniform(1.0, 10.0))
            assert effective_dimension(h, lam, n) <= n + 1e-9

    def test_non_psd_rejected(self):
        with pytest.raises(ValueError, match="PSD"):
            effective_dimension(np.diag([1.0, -0.5]), 1.0, 2)

    def test_empty_gram_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            effective_dimension(np.zeros((0, 0)), 1.0, 2)
        with pytest.raises(ValueError, match="nonempty"):
            rkhs_norm_proxy(np.zeros((0, 0)), np.zeros(0))

    @pytest.mark.parametrize("h,lam,tk", [
        pytest.param(ntk_gram(np.eye(2), 2), 1e-308, 4, id="2H-over-lam"),
        pytest.param(ntk_gram(np.eye(2), 2), 1e-320, 4, id="H-over-subnormal-lam"),
        pytest.param(1e-10 * np.eye(2), 1e-305, 10_000, id="tk-over-lam"),
    ])
    def test_lam_too_small_for_a_finite_ratio_rejected(self, h, lam, tk):
        with pytest.raises(ValueError, match=f"^lam must be large enough .* got {lam}$"):
            effective_dimension(h, lam, tk)

    def test_invalid_lam_and_tk_rejected(self):
        with pytest.raises(ValueError):
            effective_dimension(np.eye(2), 0.0, 2)
        with pytest.raises(ValueError):
            effective_dimension(np.eye(2), 1.0, 0)


class TestRkhsNormProxy:
    def test_identity_matrix(self):
        assert rkhs_norm_proxy(np.eye(3), np.array([1.0, 0.0, 0.0])) == pytest.approx(1.0)

    def test_scaled_identity(self):
        assert rkhs_norm_proxy(2 * np.eye(2), np.array([1.0, 1.0])) == pytest.approx(1.0)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(33)
        psi = rng.standard_normal((4, 4))
        h = psi @ psi.T + 0.5 * np.eye(4)
        r = rng.standard_normal(4)
        base = rkhs_norm_proxy(h, r)
        assert rkhs_norm_proxy(h, -2.5 * r) == pytest.approx(2.5 * base, rel=1e-12)

    def test_singular_matrix_rejected_with_guidance(self):
        x = np.array([[0.6, 0.8], [0.6, 0.8]])
        gram = ntk_gram(x, 2)
        with pytest.raises(ValueError, match="parallel"):
            rkhs_norm_proxy(gram, np.array([1.0, 1.0]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rkhs_norm_proxy(np.eye(2), np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_reward_rejected(self, bad):
        with pytest.raises(ValueError, match=r"^rewards must be finite; entries \[1\] are not$"):
            rkhs_norm_proxy(np.eye(3), np.array([1.0, bad, 0.0]))
