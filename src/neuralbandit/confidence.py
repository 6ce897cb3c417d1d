"""Regularized design matrix with rank-one updates, and confidence widths.

The design matrix starts at lam * I and accumulates outer products u u^T of
scaled gradient features.  Full mode maintains the inverse by the
Sherman-Morrison identity and the log-determinant ratio by the matrix
determinant lemma, with a periodic refresh from a direct factorization to
bound floating-point drift.  It stores Z and its inverse as Fortran-ordered
p x p arrays of which only the upper triangles are kept current: BLAS dsyr
applies each rank-one update to them in place, dsymv computes products with
the inverse, and LAPACK dpotrf/dpotri recompute the inverse at a refresh.
These scipy routines are imported at a full design's first use, not with
this module.  Diagonal mode keeps only the p diagonal entries (the
large-width approximation used for wide networks); its "log-det" is the sum
of per-coordinate log ratios.  It needs numpy alone, so it never loads
scipy.linalg, whose import is most of the package's start-up time.
quadratic_form takes one vector or a (K, p) stack of rows, so a policy
scores its K arms with one call.  The widths are schedules
(t, logdet) -> gamma for a policy's width; a constant width is a plain
number, and only a schedule makes a policy read the log-det.
"""

import functools
import math
from types import SimpleNamespace
from typing import TYPE_CHECKING

import numpy as np

from neuralbandit.network import (NetworkShape, check_array, check_integer, check_positive,
                                  check_real)

if TYPE_CHECKING:
    from neuralbandit.policies import TrainingConfig

__all__ = [
    "DesignMatrix",
    "RidgeWidth",
    "NeuralWidth",
]

DEFAULT_REFRESH_EVERY = 512


class DesignMatrix:
    """lam*I plus a stream of rank-one updates; owned by one policy run.

    Full mode keeps only the upper triangles of Z and Z^{-1} current, in
    Fortran-ordered arrays that BLAS updates in place (the lower triangles
    hold stale values after a refresh).  Every read goes through dsymv or
    through `matrix`/`inverse`, which return fresh symmetric copies.  The
    BLAS and LAPACK routines load with those arrays, at full mode's first
    use, and are looked up once per design; diagonal mode never loads them.
    """

    def __init__(self, dim: int, lam: float, mode: str = "full",
                 refresh_every: int = DEFAULT_REFRESH_EVERY):
        check_integer("dim", dim, low=1)
        check_positive("lam", lam)
        if mode not in ("full", "diagonal"):
            raise ValueError(f"mode must be 'full' or 'diagonal', got {mode!r}")
        check_integer("refresh_every", refresh_every, low=1)
        self.dim = dim
        self.lam = lam
        self.mode = mode
        self.refresh_every = refresh_every
        self._updates = 0
        if mode == "full":
            self._logdet = 0.0
        else:
            self._diag = np.full(dim, lam)

    # Full mode's p x p arrays and scipy's routines are made and loaded on
    # first use: validation builds a policy only to run its constructor checks
    # and never touches them.
    @functools.cached_property
    def _z(self) -> np.ndarray:
        return _scaled_identity(self.dim, self.lam)

    @functools.cached_property
    def _z_inv(self) -> np.ndarray:
        return _scaled_identity(self.dim, 1.0 / self.lam)

    @functools.cached_property
    def _blas(self) -> SimpleNamespace:
        from scipy.linalg.blas import dsymv, dsyr
        from scipy.linalg.lapack import dpotrf, dpotri
        return SimpleNamespace(dsymv=dsymv, dsyr=dsyr, dpotrf=dpotrf, dpotri=dpotri)

    def rank_one_update(self, u) -> None:
        """Z += u u^T (full) or Z_kk += u_k^2 (diagonal)."""
        u = check_array("u", u, 1, self.dim)
        if self.mode == "diagonal":
            self._diag += u * u
            self._updates += 1
            return
        blas = self._blas
        zu = blas.dsymv(1.0, self._z_inv, u)
        denom = 1.0 + float(u @ zu)
        if not 0.0 < denom < math.inf:  # checked before Z and Z^{-1} change
            raise np.linalg.LinAlgError(f"rank-one update {self._updates + 1} at lam = {self.lam}: "
                                        f"1 + u^T Z^-1 u = {denom} is not finite and positive")
        # the arrays are F-contiguous, so overwrite_a updates them in place
        self._z = blas.dsyr(1.0, u, a=self._z, overwrite_a=1)
        self._z_inv = blas.dsyr(-1.0 / denom, zu, a=self._z_inv, overwrite_a=1)
        self._logdet += math.log(denom)
        self._updates += 1
        if self._updates % self.refresh_every == 0:
            self.refresh()

    def refresh(self) -> None:
        """Recompute the inverse and log-det from a direct Cholesky factorization."""
        if self.mode == "diagonal":
            return
        chol, info = self._blas.dpotrf(self._z, lower=0)
        if info != 0:
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        # read the log-det before dpotri overwrites the factor
        logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
        self._z_inv, info = self._blas.dpotri(chol, lower=0, overwrite_c=1)
        if info != 0:
            raise np.linalg.LinAlgError("Matrix is singular")
        self._logdet = logdet - self.dim * math.log(self.lam)

    def quadratic_form(self, v) -> float | np.ndarray:
        """v^T Z^{-1} v, nonnegative; for a (K, p) stack of rows, one value per row.

        Each row gets bit for bit its value alone, in any memory order: rows
        are summed C-ordered, and full mode runs one dsymv per row (one dsymm
        for the stack was slower and rounds differently).
        """
        v = np.asarray(v, dtype=np.float64)
        rows = np.ascontiguousarray(check_array("v", v, 2 if v.ndim == 2 else 1, self.dim)
                                    .reshape(-1, self.dim))
        if self.mode == "diagonal":
            forms = np.sum(rows * rows / self._diag, axis=1)
        else:
            dsymv, z_inv = self._blas.dsymv, self._z_inv
            forms = np.array([row @ dsymv(1.0, z_inv, row) for row in rows])
        return forms if v.ndim == 2 else float(forms[0])

    def solve(self, rhs) -> np.ndarray:
        """Z^{-1} rhs using the maintained inverse (or the diagonal)."""
        rhs = check_array("rhs", rhs, 1, self.dim)
        if self.mode == "diagonal":
            return rhs / self._diag
        return self._blas.dsymv(1.0, self._z_inv, rhs)

    def log_det_ratio(self) -> float:
        """log(det Z / det lam*I); zero for a fresh matrix, nondecreasing."""
        if self.mode == "diagonal":
            return float(np.sum(np.log(self._diag / self.lam)))
        return self._logdet

    @property
    def matrix(self) -> np.ndarray:
        """A fresh dense symmetric Z (diagonal mode materializes it); for inspection and tests."""
        if self.mode == "diagonal":
            return np.diag(self._diag)
        return _symmetric_copy(self._z)

    @property
    def inverse(self) -> np.ndarray:
        """A fresh dense symmetric copy of the maintained inverse (diagonal mode materializes it)."""
        if self.mode == "diagonal":
            return np.diag(1.0 / self._diag)
        return _symmetric_copy(self._z_inv)


def _scaled_identity(dim: int, value: float) -> np.ndarray:
    """value * I as a Fortran-ordered array, built without p x p temporaries."""
    out = np.zeros((dim, dim), order="F")
    np.fill_diagonal(out, value)
    return out


def _symmetric_copy(upper: np.ndarray) -> np.ndarray:
    """The symmetric matrix whose upper triangle is that of `upper`."""
    return np.triu(upper) + np.triu(upper, 1).T


class RidgeWidth:
    """Closed-form ridge width: nu * sqrt(logdet - 2 log delta) + sqrt(lam) * S."""

    def __init__(self, nu: float, delta: float, s_norm: float, lam: float):
        check_positive("nu", nu)
        check_real("delta", delta)
        if not 0 < delta < 1:
            raise ValueError(f"delta must lie in (0, 1), got {delta}")
        check_positive("s_norm", s_norm)
        check_positive("lam", lam)
        self.nu = nu
        self.delta = delta
        self.s_norm = s_norm
        self.lam = lam

    def __call__(self, t: int, logdet: float) -> float:
        return self.nu * math.sqrt(logdet - 2.0 * math.log(self.delta)) \
            + math.sqrt(self.lam) * self.s_norm


class NeuralWidth:
    """NeuralUCB's theoretical width: the ridge width inflated by the network's error terms.

    gamma_t = sqrt(1 + w) * ridge(t, logdet + w') + (lam + t L) * (decay + approx)

    where w = mfac L^4 t^(7/6) lam^(-7/6), w' = mfac L^4 t^(5/3) lam^(-1/6) and
    approx = mfac L^3.5 t^(5/3) lam^(-5/3) (1 + sqrt(t / lam)) carry the factor
    mfac = m^(-1/6) sqrt(log m) of the width m, and decay =
    (1 - eta m lam)^(J/2) sqrt(t / lam) is the optimization error of J gradient
    steps, with J = t when the training config leaves j_steps unset.

    The paper proves absolute constants C1, C2, C3 exist in front of w, w' and
    t L but never fixes them; here they are 1.  Their values change no
    action: the width terms make gamma_t about 5.7e5 at t = 1 and 1.5e16 at
    t = 2000 on the h1 protocol (m = 20, L = 2, lam = 0.01), and runs with
    other constants gave identical regret.  Every input has been checked by
    the ridge width, the network shape or the training config; the checks
    here are eta * m * lam < 1, which the decay term needs, and that
    lam^(-5/3), the largest of the fixed powers of lam, is finite.  A call
    whose width is not finite raises ValueError naming lam.
    """

    def __init__(self, ridge: RidgeWidth, shape: NetworkShape, train: "TrainingConfig"):
        decay_base = train.eta * shape.width * ridge.lam
        if decay_base >= 1.0:
            raise ValueError(
                f"eta*width*lam = {decay_base:.6g} >= 1: step size too large for the "
                "geometric decay term to be meaningful"
            )
        try:
            ridge.lam ** (-5.0 / 3.0)
        except OverflowError:
            raise ValueError(f"lam must be large enough that lam^(-5/3) is finite, "
                             f"got {ridge.lam}") from None
        self.ridge = ridge
        self.shape = shape
        self.train = train

    def __call__(self, t: int, logdet: float) -> float:
        if t < 0:
            raise ValueError(f"t must be >= 0, got {t}")
        if logdet < 0:
            raise ValueError(f"logdet must be nonnegative, got {logdet}")
        lam, m, L = self.ridge.lam, self.shape.width, self.shape.depth
        j = t if self.train.j_steps is None else self.train.j_steps
        mfac = m ** (-1.0 / 6.0) * math.sqrt(math.log(m))
        try:
            front = math.sqrt(1.0 + mfac * L**4 * t ** (7.0 / 6.0) * lam ** (-7.0 / 6.0))
            shift = mfac * L**4 * t ** (5.0 / 3.0) * lam ** (-1.0 / 6.0)
            decay = (1.0 - self.train.eta * m * lam) ** (j / 2.0) * math.sqrt(t / lam)
            approx = mfac * L ** 3.5 * t ** (5.0 / 3.0) * lam ** (-5.0 / 3.0) \
                * (1.0 + math.sqrt(t / lam))
            gamma = front * self.ridge(t, logdet + shift) + (lam + t * L) * (decay + approx)
        except OverflowError:  # a round t beyond the float range
            gamma = math.inf
        if not math.isfinite(gamma):
            raise ValueError(f"lam must be large enough that the width is finite at t = {t}, "
                             f"got {lam} (width {gamma})")
        return gamma
