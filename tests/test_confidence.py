"""Tests for the design matrix and the exploration-width formulas."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuralbandit.confidence import (
    ConstantWidth,
    DesignMatrix,
    GammaInputs,
    RidgeWidth,
    gamma_theoretical,
)


def direct_log_det_ratio(z: np.ndarray, lam: float) -> float:
    sign, logdet = np.linalg.slogdet(z)
    assert sign > 0
    return logdet - z.shape[0] * math.log(lam)


class TestNewDesign:
    def test_fresh_quadratic_form_is_scaled_norm(self):
        d = DesignMatrix(4, 2.0)
        v = np.array([1.0, 2.0, 0.5, -1.0])
        assert d.quadratic_form(v) == pytest.approx(float(v @ v) / 2.0)

    def test_fresh_log_det_ratio_is_zero(self):
        assert DesignMatrix(3, 0.7).log_det_ratio() == 0.0

    def test_modes_agree_before_updates(self):
        v = np.array([0.3, -0.4, 1.1])
        full = DesignMatrix(3, 1.5, mode="full")
        diag = DesignMatrix(3, 1.5, mode="diagonal")
        assert full.quadratic_form(v) == pytest.approx(diag.quadratic_form(v), rel=1e-14)
        assert full.log_det_ratio() == diag.log_det_ratio() == 0.0

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            DesignMatrix(3, 0.0)
        with pytest.raises(ValueError):
            DesignMatrix(0, 1.0)
        with pytest.raises(ValueError):
            DesignMatrix(3, 1.0, mode="sparse")


class TestRankOneUpdate:
    def test_basis_update_quadratic_form(self):
        d = DesignMatrix(3, 1.0)
        d.rank_one_update(np.array([1.0, 0.0, 0.0]))
        assert d.quadratic_form(np.array([1.0, 0.0, 0.0])) == pytest.approx(0.5)

    def test_basis_update_log_det_increment(self):
        d = DesignMatrix(3, 1.0)
        d.rank_one_update(np.array([1.0, 0.0, 0.0]))
        assert d.log_det_ratio() == pytest.approx(math.log(2.0))

    def test_hand_inverse_for_ones_vector(self):
        d = DesignMatrix(2, 1.0)
        d.rank_one_update(np.array([1.0, 1.0]))
        assert d.quadratic_form(np.array([1.0, 0.0])) == pytest.approx(2.0 / 3.0)

    def test_maintained_inverse_tracks_direct_solve(self):
        rng = np.random.default_rng(41)
        d = DesignMatrix(50, 1.0)
        for _ in range(100):
            d.rank_one_update(rng.standard_normal(50) / 5.0)
        direct = np.linalg.inv(d.matrix)
        assert np.max(np.abs(direct - d.inverse)) <= 1e-8

    def test_log_det_tracks_direct_determinant(self):
        rng = np.random.default_rng(42)
        d = DesignMatrix(20, 0.5)
        for _ in range(200):
            d.rank_one_update(rng.standard_normal(20) / 3.0)
        assert d.log_det_ratio() == pytest.approx(
            direct_log_det_ratio(d.matrix, 0.5), abs=1e-6)

    def test_orthonormal_updates_log_det(self):
        d = DesignMatrix(5, 1.0)
        for i in range(3):
            e = np.zeros(5)
            e[i] = 1.0
            d.rank_one_update(e)
        assert d.log_det_ratio() == pytest.approx(3 * math.log(2.0))

    def test_dimension_mismatch_rejected(self):
        d = DesignMatrix(3, 1.0)
        with pytest.raises(ValueError):
            d.rank_one_update(np.zeros(4))

    def test_diagonal_mode_updates_only_diagonal(self):
        d = DesignMatrix(2, 1.0, mode="diagonal")
        d.rank_one_update(np.array([1.0, 2.0]))
        assert np.array_equal(d.matrix, np.diag([2.0, 5.0]))
        assert d.quadratic_form(np.array([1.0, 0.0])) == pytest.approx(0.5)
        assert d.log_det_ratio() == pytest.approx(math.log(2.0) + math.log(5.0))


class TestInvariants:
    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_quadratic_form_never_increases(self, seed):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(2, 10))
        d = DesignMatrix(p, float(rng.uniform(0.2, 3.0)))
        v = rng.standard_normal(p)
        prev = d.quadratic_form(v)
        for _ in range(30):
            d.rank_one_update(rng.standard_normal(p))
            cur = d.quadratic_form(v)
            assert cur <= prev + 1e-12
            prev = cur

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_log_det_never_decreases(self, seed):
        rng = np.random.default_rng(seed)
        d = DesignMatrix(6, 1.0)
        prev = 0.0
        for _ in range(30):
            d.rank_one_update(rng.standard_normal(6))
            cur = d.log_det_ratio()
            assert cur >= prev - 1e-12
            prev = cur

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_elliptical_potential_inequality(self, seed):
        # sum of truncated pre-update quadratic forms <= 2 * final log-det ratio
        rng = np.random.default_rng(seed)
        p = int(rng.integers(2, 12))
        lam = float(rng.uniform(0.5, 2.0))
        d = DesignMatrix(p, lam)
        total = 0.0
        for _ in range(int(rng.integers(5, 60))):
            u = rng.standard_normal(p) * rng.uniform(0.1, 2.0)
            total += min(d.quadratic_form(u), 1.0)
            d.rank_one_update(u)
        assert total <= 2.0 * d.log_det_ratio() + 1e-9

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_diagonal_equals_full_on_coordinate_aligned_streams(self, seed):
        rng = np.random.default_rng(seed)
        p = 5
        full = DesignMatrix(p, 1.0, mode="full")
        diag = DesignMatrix(p, 1.0, mode="diagonal")
        for _ in range(25):
            e = np.zeros(p)
            e[rng.integers(p)] = rng.standard_normal()
            full.rank_one_update(e)
            diag.rank_one_update(e)
        v = rng.standard_normal(p)
        assert diag.quadratic_form(v) == pytest.approx(full.quadratic_form(v), rel=1e-9)
        assert diag.log_det_ratio() == pytest.approx(full.log_det_ratio(), rel=1e-9)

    @given(p=st.integers(2, 12), lam=st.floats(0.2, 3.0), refresh_every=st.integers(1, 8),
           extra=st.integers(0, 8), seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_design_matches_direct_factorization_across_refreshes(
            self, p, lam, refresh_every, extra, seed):
        rng = np.random.default_rng(seed)
        full = DesignMatrix(p, lam, mode="full", refresh_every=refresh_every)
        diag = DesignMatrix(p, lam, mode="diagonal")
        direct = lam * np.eye(p)
        v = rng.standard_normal(p)
        for _ in range(4 * refresh_every + extra):
            u = rng.standard_normal(p)
            full.rank_one_update(u)
            diag.rank_one_update(u)
            direct += np.outer(u, u)
            z, z_inv = full.matrix, full.inverse
            assert np.array_equal(z, z.T) and np.array_equal(z_inv, z_inv.T)
            assert np.max(np.abs(z - direct)) <= 1e-12 * np.max(np.abs(direct))
            assert np.max(np.abs(z_inv - np.linalg.inv(z))) <= 1e-8
            assert full.log_det_ratio() == pytest.approx(direct_log_det_ratio(z, lam), abs=1e-6)
            assert np.array_equal(diag.matrix, np.diag(np.diag(direct)))
        # the returned arrays are copies: writing into them leaves the design as it was
        before = full.quadratic_form(v)
        full.matrix[:] = 1.0
        full.inverse[:] = 1.0
        assert full.quadratic_form(v) == before

    def test_refresh_bounds_drift_over_long_streams(self):
        rng = np.random.default_rng(43)
        d = DesignMatrix(30, 1.0, refresh_every=64)
        for _ in range(1000):
            d.rank_one_update(rng.standard_normal(30))
        direct = np.linalg.inv(d.matrix)
        assert np.max(np.abs(direct - d.inverse)) <= 1e-8


def base_inputs(**overrides):
    kwargs = dict(nu=1.0, delta=0.1, s_norm=1.0, lam=1.0, width=1024, depth=2,
                  eta=1e-5, j_steps=100.0, c1=1.0, c2=1.0, c3=1.0)
    kwargs.update(overrides)
    return GammaInputs(**kwargs)


class TestGammaTheoretical:
    def test_reduces_to_ridge_width_when_width_terms_vanish(self):
        # m = 1 zeroes every m^{-1/6} sqrt(log m) correction, and the inf
        # sentinel removes the geometric decay: only the ridge width remains
        inputs = base_inputs(width=1, eta=0.5, j_steps=math.inf)
        ridge = RidgeWidth(nu=1.0, delta=0.1, s_norm=1.0, lam=1.0)
        for logdet in (0.0, 1.0, 7.3):
            assert gamma_theoretical(inputs, 50, logdet) == pytest.approx(
                ridge(50, logdet), rel=1e-12)

    def test_reduces_at_round_zero_for_any_width(self):
        inputs = base_inputs(c1=0.0, c2=0.0, c3=0.0, j_steps=math.inf)
        assert gamma_theoretical(inputs, 0, 0.0) == pytest.approx(
            1.0 * math.sqrt(-2 * math.log(0.1)) + 1.0)

    def test_zero_constant_large_width_limit_is_ridge_width(self):
        inputs = base_inputs(width=10**60, eta=1e-70, j_steps=math.inf,
                             c1=0.0, c2=0.0, c3=0.0)
        ridge = RidgeWidth(nu=1.0, delta=0.1, s_norm=1.0, lam=1.0)
        assert gamma_theoretical(inputs, 10, 2.0) == pytest.approx(ridge(10, 2.0), abs=1e-4)

    def test_hand_value_reduced_formula(self):
        inputs = GammaInputs(nu=1.0, delta=math.exp(-2.0), s_norm=1.0, lam=1.0,
                             width=1, depth=2, eta=0.5, j_steps=math.inf,
                             c1=0.0, c2=0.0, c3=0.0)
        assert gamma_theoretical(inputs, 3, 0.0) == pytest.approx(3.0)

    def test_monotone_in_logdet(self):
        inputs = base_inputs()
        values = [gamma_theoretical(inputs, 10, ld) for ld in (0.0, 0.5, 1.0, 5.0, 20.0)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_negative_logdet_rejected(self):
        with pytest.raises(ValueError):
            gamma_theoretical(base_inputs(), 10, -0.1)

    def test_oversized_step_rejected(self):
        with pytest.raises(ValueError, match="step size"):
            gamma_theoretical(base_inputs(eta=1.0), 10, 0.0)

    def test_inconsistent_constants_rejected(self):
        # a delta this close to 1 makes -2 log delta ~ 0; a negative inner
        # argument can only come from bad inputs, which the formula refuses
        with pytest.raises(ValueError):
            GammaInputs(nu=1.0, delta=1.0, s_norm=1.0, lam=1.0, width=4, depth=2,
                        eta=1e-5, j_steps=10.0)

    def test_finite_j_decay_term_counts(self):
        fast = gamma_theoretical(base_inputs(j_steps=0.0), 4, 0.0)
        slow = gamma_theoretical(base_inputs(j_steps=1000.0), 4, 0.0)
        limit = gamma_theoretical(base_inputs(j_steps=math.inf), 4, 0.0)
        assert fast > slow > limit

    def test_input_validation(self):
        with pytest.raises(ValueError):
            base_inputs(nu=0.0)

    @pytest.mark.parametrize("name,value,error", [
        ("c1", math.nan, ValueError), ("eta", math.inf, ValueError), ("nu", "1", TypeError),
        ("j_steps", math.nan, ValueError), ("width", 2.5, TypeError),
    ])
    def test_non_finite_or_non_number_input_is_named(self, name, value, error):
        with pytest.raises(error, match=f"^{name} must be"):
            base_inputs(**{name: value})
        with pytest.raises(ValueError):
            base_inputs(delta=0.0)
        with pytest.raises(ValueError):
            base_inputs(lam=-1.0)
        with pytest.raises(ValueError):
            base_inputs(c1=-0.5)
        with pytest.raises(ValueError, match="t must be"):
            gamma_theoretical(base_inputs(), -1, 0.0)


class TestWidthProviders:
    def test_constant_width_holds_across_rounds(self):
        width = ConstantWidth(0.1)
        assert [width(t, float(t)) for t in (0, 1, 100)] == [0.1, 0.1, 0.1]

    def test_zero_width_allowed(self):
        assert ConstantWidth(0.0)(5, 3.0) == 0.0

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError):
            ConstantWidth(-0.1)

    def test_theoretical_width_fills_in_round_index(self):
        provider = functools.partial(gamma_theoretical, base_inputs())
        direct = gamma_theoretical(base_inputs(), 17, 1.0)
        assert provider(17, 1.0) == pytest.approx(direct, rel=1e-12)
        assert provider(0, 1.0) < provider(17, 1.0)

    def test_ridge_width_value(self):
        ridge = RidgeWidth(nu=2.0, delta=math.exp(-0.5), s_norm=3.0, lam=4.0)
        assert ridge(9, 1.0) == pytest.approx(2.0 * math.sqrt(2.0) + 6.0)
