"""Tests for the design matrix and the exploration-width formulas."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.linalg.blas import dsymv, dsyr
from scipy.linalg.lapack import dpotrf, dpotri

from neuralbandit.confidence import DesignMatrix, NeuralWidth, RidgeWidth
from neuralbandit.network import NetworkShape


def direct_log_det_ratio(z: np.ndarray, lam: float) -> float:
    sign, logdet = np.linalg.slogdet(z)
    assert sign > 0
    return logdet - z.shape[0] * math.log(lam)


class EagerDesign:
    """The full design written out with Z updated by dsyr at every update, not on read."""

    def __init__(self, dim, lam, refresh_every=512):
        self.lam, self.refresh_every, self.updates, self.logdet = lam, refresh_every, 0, 0.0
        self.z = np.asfortranarray(lam * np.eye(dim))
        self.z_inv = np.asfortranarray(np.eye(dim) / lam)

    def rank_one_update(self, u):
        zu = dsymv(1.0, self.z_inv, u)
        denom = 1.0 + float(u @ zu)
        if not 0.0 < denom < math.inf:
            raise np.linalg.LinAlgError(denom)
        self.z = dsyr(1.0, u, a=self.z, overwrite_a=1)
        self.z_inv = dsyr(-1.0 / denom, zu, a=self.z_inv, overwrite_a=1)
        self.logdet += math.log(denom)
        self.updates += 1
        if self.updates % self.refresh_every == 0:
            chol, info = dpotrf(self.z, lower=0)
            assert info == 0
            logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
            self.z_inv, info = dpotri(chol, lower=0, overwrite_c=1)
            assert info == 0
            self.logdet = logdet - self.z.shape[0] * math.log(self.lam)

    def quadratic_form(self, rows):
        return np.array([row @ dsymv(1.0, self.z_inv, row) for row in rows])

    @property
    def matrix(self):
        return np.triu(self.z) + np.triu(self.z, 1).T

    @property
    def inverse(self):
        return np.triu(self.z_inv) + np.triu(self.z_inv, 1).T


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

    @pytest.mark.parametrize("mode", ["full", "diagonal"])
    def test_stack_of_rows_gets_the_per_row_values_bit_for_bit(self, mode):
        rng = np.random.default_rng(12)
        d = DesignMatrix(30, 0.3, mode=mode, refresh_every=8)
        for _ in range(20):  # full mode refreshes after updates 8 and 16
            d.rank_one_update(rng.standard_normal(30))
            stack = rng.standard_normal((4, 30))
            per_row = np.array([d.quadratic_form(row) for row in stack])
            assert d.quadratic_form(stack).tobytes() == per_row.tobytes()
            # a Fortran-ordered stack gets the same values
            assert d.quadratic_form(np.asfortranarray(stack)).tobytes() == per_row.tobytes()
        assert isinstance(d.quadratic_form(stack[0]), float)
        assert d.quadratic_form(stack[:0]).shape == (0,)

    def test_update_that_would_break_the_inverse_changes_nothing(self):
        # from I/lam = 1e20 I the maintained inverse loses its accuracy within a
        # few updates, and 1 + u^T Z^-1 u comes out negative
        rng = np.random.default_rng(0)
        d = DesignMatrix(4, 1e-20)
        for count in range(1, 100):
            before = d.matrix, d.inverse, d.log_det_ratio()
            try:
                d.rank_one_update(rng.standard_normal(4))
            except np.linalg.LinAlgError as exc:
                assert str(exc).startswith(f"rank-one update {count} at lam = 1e-20: ")
                break
        else:
            pytest.fail("no update failed")
        assert np.array_equal(d.matrix, before[0]) and np.array_equal(d.inverse, before[1])
        assert d.log_det_ratio() == before[2]

    def test_pending_update_that_would_break_the_inverse_changes_nothing(self):
        # as above, but Z is never read before the failing update, so the
        # accepted updates are still pending in Z when it fails
        rng = np.random.default_rng(0)
        d, eager = DesignMatrix(4, 1e-20), EagerDesign(4, 1e-20)
        for count in range(1, 100):
            before = d.inverse, d.log_det_ratio()
            u = rng.standard_normal(4)
            try:
                d.rank_one_update(u)
            except np.linalg.LinAlgError as exc:
                assert str(exc).startswith(f"rank-one update {count} at lam = 1e-20: ")
                break
            eager.rank_one_update(u)
        else:
            pytest.fail("no update failed")
        assert count > 1  # the accepted updates were pending
        with pytest.raises(np.linalg.LinAlgError):
            eager.rank_one_update(u)
        assert np.array_equal(d.inverse, before[0]) and d.log_det_ratio() == before[1]
        assert d.matrix.tobytes() == eager.matrix.tobytes()
        assert d.inverse.tobytes() == eager.inverse.tobytes()
        assert d.log_det_ratio() == eager.logdet

    @pytest.mark.parametrize("refresh_every", [512, 100, 8])
    @pytest.mark.parametrize("read_matrix_midrun", [True, False])
    def test_lazy_z_is_bit_identical_to_updating_z_every_round(
            self, refresh_every, read_matrix_midrun):
        # Z is brought up to date only when it is read; the inverse, log-det,
        # forms and Z itself must come out as if dsyr had updated Z every round
        rng = np.random.default_rng(31)
        p = 24
        d, eager = DesignMatrix(p, 0.5, refresh_every=refresh_every), EagerDesign(
            p, 0.5, refresh_every)
        # mid-block, a block boundary, refreshes at 100, 512 and 1024, and past them
        checks = {1, 30, 64, 100, 128, 200, 512, 600, 1024, 1100}
        for count in range(1, 1101):
            u = rng.standard_normal(p) / math.sqrt(p)
            eager.rank_one_update(u.copy())
            d.rank_one_update(u)
            u[:] = 1e6  # the design keeps no reference to the caller's vector
            if count not in checks:
                continue
            rows = rng.standard_normal((4, p))
            assert d.quadratic_form(rows).tobytes() == eager.quadratic_form(rows).tobytes()
            assert d.inverse.tobytes() == eager.inverse.tobytes()
            assert d.log_det_ratio() == eager.logdet
            if read_matrix_midrun:
                assert d.matrix.tobytes() == eager.matrix.tobytes()
        assert d.matrix.tobytes() == eager.matrix.tobytes()
        assert d.inverse.tobytes() == eager.inverse.tobytes()
        assert d.log_det_ratio() == eager.logdet

    def test_refresh_bounds_drift_over_long_streams(self):
        rng = np.random.default_rng(43)
        d = DesignMatrix(30, 1.0, refresh_every=64)
        for _ in range(1000):
            d.rank_one_update(rng.standard_normal(30))
        direct = np.linalg.inv(d.matrix)
        assert np.max(np.abs(direct - d.inverse)) <= 1e-8


def neural_width(lam=1.0, width=20, depth=2, eta=1e-5, j_steps=100):
    return NeuralWidth(RidgeWidth(nu=1.0, delta=0.1, s_norm=1.0, lam=lam),
                       NetworkShape(input_dim=4, width=width, depth=depth), eta, j_steps)


def reference_gamma(nu, delta, s, lam, m, L, eta, j, t, logdet):
    """The width formula with every absolute constant 1, written out in one expression."""
    mfac = m ** (-1.0 / 6.0) * math.sqrt(math.log(m))
    front = math.sqrt(1.0 + 1.0 * mfac * L**4 * t ** (7.0 / 6.0) * lam ** (-7.0 / 6.0))
    inner = logdet + 1.0 * mfac * L**4 * t ** (5.0 / 3.0) * lam ** (-1.0 / 6.0) \
        - 2.0 * math.log(delta)
    decay = (1.0 - eta * m * lam) ** (j / 2.0) * math.sqrt(t / lam)
    approx = mfac * L ** 3.5 * t ** (5.0 / 3.0) * lam ** (-5.0 / 3.0) * (1.0 + math.sqrt(t / lam))
    return front * (nu * math.sqrt(inner) + math.sqrt(lam) * s) \
        + (lam + 1.0 * t * L) * (decay + approx)


class TestNeuralWidth:
    @pytest.mark.parametrize("lam,eta,j_steps,width,depth", list(itertools.product(
        (0.01, 1.0), (1e-3, 1e-5), (0, 30), (4, 20, 64), (2, 3))))
    def test_matches_the_reference_formula_bit_for_bit(self, lam, eta, j_steps, width, depth):
        gamma = neural_width(lam=lam, eta=eta, j_steps=j_steps, width=width, depth=depth)
        for t, logdet in ((0, 0.0), (1, 0.5), (17, 3.25), (2000, 812.7)):
            expected = reference_gamma(1.0, 0.1, 1.0, lam, width, depth, eta, j_steps, t, logdet)
            assert gamma(t, logdet).hex() == expected.hex()

    @pytest.mark.parametrize("width", [2, 4, 20, 64, 1024])
    def test_round_zero_is_the_ridge_width(self, width):
        # at t = 0 every width term and the decay vanish exactly
        ridge = RidgeWidth(nu=0.7, delta=0.1, s_norm=2.0, lam=0.5)
        gamma = NeuralWidth(ridge, NetworkShape(input_dim=4, width=width, depth=3), 1e-4, None)
        for logdet in (0.0, 1.0, 7.3):
            assert gamma(0, logdet) == ridge(0, logdet)

    @pytest.mark.parametrize("t", [1, 4, 50, 2000])
    def test_unset_j_steps_counts_t_steps(self, t):
        # j_steps None trains t steps at round t, so the decay term is that of J = t
        assert neural_width(lam=0.01, eta=1e-3, j_steps=None)(t, 2.0) \
            == neural_width(lam=0.01, eta=1e-3, j_steps=t)(t, 2.0)

    def test_monotone_in_logdet(self):
        gamma = neural_width()
        values = [gamma(10, ld) for ld in (0.0, 0.5, 1.0, 5.0, 20.0)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_grows_with_the_round(self):
        gamma = neural_width()
        assert gamma(0, 1.0) < gamma(17, 1.0)

    def test_fewer_steps_give_a_wider_bound(self):
        assert neural_width(j_steps=0)(4, 0.0) > neural_width(j_steps=1000)(4, 0.0)

    def test_negative_logdet_rejected(self):
        with pytest.raises(ValueError, match="logdet must be nonnegative"):
            neural_width()(10, -0.1)

    def test_negative_round_rejected(self):
        with pytest.raises(ValueError, match="t must be"):
            neural_width()(-1, 0.0)

    def test_oversized_step_rejected(self):
        with pytest.raises(ValueError, match=r"^eta\*width\*lam = .* step size"):
            neural_width(eta=0.05)

    # at lam = 1e-150, lam^(-5/3) = 1e250 is finite, but the approximation term
    # overflows from t = 1; a round beyond the float range overflows at any lam;
    # at lam = 1e-60 and t = 1e180 the log-det shift overflows with the approximation term
    @pytest.mark.parametrize("lam,t", [(1e-150, 1), (1e-150, 30), (1.0, 10**400),
                                       (1e-60, 10**180)])
    def test_width_that_is_not_finite_names_lam(self, lam, t):
        with pytest.raises(ValueError, match=rf"^lam must be large enough that the width is "
                                             rf"finite at t = {t}, got {lam}"):
            neural_width(lam=lam)(t, 0.0)

    @pytest.mark.parametrize("fields,error,message", [
        ({"eta": 0.0}, ValueError, "eta must be positive, got 0.0"),
        ({"eta": math.inf}, ValueError, "eta must be finite, got inf"),
        ({"eta": None}, TypeError, "eta must be a real number, got None"),
        ({"j_steps": -1}, ValueError, "j_steps must be >= 0, got -1"),
        ({"j_steps": 2.0}, TypeError, "j_steps must be an integer, got 2.0"),
    ])
    def test_bad_training_value_rejected(self, fields, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            neural_width(**fields)

    def test_lam_whose_fixed_powers_overflow_rejected(self):
        # 1e-190 ** (-5/3) overflows; the width at t = 0 would raise OverflowError
        with pytest.raises(ValueError, match=r"^lam must be large enough that lam\^\(-5/3\) is "
                                             r"finite, got 1e-190$"):
            neural_width(lam=1e-190)


class TestWidthProviders:
    def test_ridge_width_value(self):
        ridge = RidgeWidth(nu=2.0, delta=math.exp(-0.5), s_norm=3.0, lam=4.0)
        assert ridge(9, 1.0) == pytest.approx(2.0 * math.sqrt(2.0) + 6.0)

    # nu = 1e308 overflows the log-det term, s_norm = 1e308 the bias term, and
    # at nu = 4e307 both terms are finite but their sum is not
    @pytest.mark.parametrize("nu,s_norm,name,value", [
        (1e308, 1.0, "nu", "1e+308"),
        (1.0, 1e308, "s_norm", "1e+308"),
        (4e307, 1e308, "s_norm", "1e+308"),
    ])
    def test_ridge_width_that_is_not_finite_names_the_field(self, nu, s_norm, name, value):
        ridge = RidgeWidth(nu=nu, delta=0.1, s_norm=s_norm, lam=4.0)
        with pytest.raises(ValueError, match=rf"^{name} must be small enough that the width "
                                             rf"is finite, got {re.escape(value)} \(width inf\)$"):
            ridge(0, 0.0)
