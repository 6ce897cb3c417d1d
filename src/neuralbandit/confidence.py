"""Regularized design matrix with rank-one updates, and confidence widths.

The design matrix starts at lam * I and accumulates outer products u u^T of
scaled gradient features.  Full mode maintains the inverse by the
Sherman-Morrison identity and the log-determinant ratio by the matrix
determinant lemma, with a periodic refresh from a direct factorization to
bound floating-point drift.  It stores Z and its inverse as Fortran-ordered
p x p arrays of which only the upper triangles are kept current: BLAS dsyr
applies each rank-one update to them in place, dsymv computes products with
the inverse, and LAPACK dpotrf/dpotri recompute the inverse at a refresh.
A round reads only the inverse, so Z is brought up to date only when it is
read: the update vectors wait in a block of at most 64 rows, which dsyr
applies to Z in arrival order when the block fills, at a refresh and when
`matrix` is read, with the same result bit for bit as updating Z each round.
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

import numpy as np

from neuralbandit.network import (NetworkShape, check_array, check_integer, check_positive,
                                  check_real)

__all__ = [
    "DesignMatrix",
    "RidgeWidth",
    "NeuralWidth",
]

DEFAULT_REFRESH_EVERY = 512
_PENDING_ROWS = 64  # the most update vectors a full design holds back from Z


class DesignMatrix:
    """lam*I plus a stream of rank-one updates; owned by one policy run.

    In full mode the lower triangles hold stale values after a refresh, so
    every read goes through dsymv or through `matrix`/`inverse`, which
    return fresh symmetric copies.  Z^{-1} and the log-det take each update
    at once; Z lags behind by the updates held, as copies, in a pending
    block of min(refresh_every, 64) rows (215 KB at p = 420), which is
    applied before Z is read.  The BLAS and LAPACK routines are looked up
    once per design.  A refresh's dpotrf and dpotri round differently at 1
    and 2 BLAS threads, so a full design's results after its first refresh
    are bit-reproducible only at a fixed BLAS thread count.
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
            self._pending_rows = 0
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
    def _pending(self) -> np.ndarray:
        return np.empty((min(self.refresh_every, _PENDING_ROWS), self.dim))

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
        if not 0.0 < denom < math.inf:  # checked before the design changes
            raise np.linalg.LinAlgError(f"rank-one update {self._updates + 1} at lam = {self.lam}: "
                                        f"1 + u^T Z^-1 u = {denom} is not finite and positive")
        self._pending[self._pending_rows] = u  # a copy: the caller may reuse u
        self._pending_rows += 1
        # the arrays are F-contiguous, so overwrite_a updates them in place
        self._z_inv = blas.dsyr(-1.0 / denom, zu, a=self._z_inv, overwrite_a=1)
        self._logdet += math.log(denom)
        self._updates += 1
        if self._pending_rows == len(self._pending):
            self._apply_pending()
        if self._updates % self.refresh_every == 0:
            self.refresh()

    def _apply_pending(self) -> None:
        """Z += u u^T for each pending u, in arrival order; Z is then current."""
        if self._pending_rows:  # else a fresh design's `matrix` would load scipy
            for u in self._pending[:self._pending_rows]:
                self._z = self._blas.dsyr(1.0, u, a=self._z, overwrite_a=1)
            self._pending_rows = 0

    def refresh(self) -> None:
        """Recompute the inverse and log-det from a direct Cholesky factorization."""
        if self.mode == "diagonal":
            return
        self._apply_pending()
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
        self._apply_pending()
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
    """Closed-form ridge width: nu * sqrt(logdet - 2 log delta) + sqrt(lam) * S.

    A call whose width is not finite raises ValueError naming nu when the
    first term is not finite, and s_norm otherwise.
    """

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
        spread = self.nu * math.sqrt(logdet - 2.0 * math.log(self.delta))
        gamma = spread + math.sqrt(self.lam) * self.s_norm
        if not math.isfinite(gamma):
            name = "s_norm" if math.isfinite(spread) else "nu"
            raise ValueError(f"{name} must be small enough that the width is finite, "
                             f"got {getattr(self, name)} (width {gamma})")
        return gamma


class NeuralWidth:
    """NeuralUCB's theoretical width: the ridge width inflated by the network's error terms.

    gamma_t = sqrt(1 + w) * ridge(t, logdet + w') + (lam + t L) * (decay + approx)

    where w = mfac L^4 t^(7/6) lam^(-7/6), w' = mfac L^4 t^(5/3) lam^(-1/6) and
    approx = mfac L^3.5 t^(5/3) lam^(-5/3) (1 + sqrt(t / lam)) carry the factor
    mfac = m^(-1/6) sqrt(log m) of the width m, and decay =
    (1 - eta m lam)^(J/2) sqrt(t / lam) is the optimization error of J gradient
    steps of size eta, with J = t when j_steps is None.

    The paper proves absolute constants C1, C2, C3 exist in front of w, w' and
    t L but never fixes them; here they are 1.  Their values change no
    action: the width terms make gamma_t about 5.7e5 at t = 1 and 1.5e16 at
    t = 2000 on the h1 protocol (m = 20, L = 2, lam = 0.01), and runs with
    other constants gave identical regret.  The ridge width and the shape
    check their own inputs; the checks here are those of eta and j_steps,
    that eta * m * lam < 1, which the decay term needs, and that lam^(-5/3),
    the largest of the fixed powers of lam, is finite.  A width that is not
    finite raises ValueError naming lam, or the ridge width's nu or s_norm.
    """

    def __init__(self, ridge: RidgeWidth, shape: NetworkShape, eta: float, j_steps: int | None):
        check_positive("eta", eta)
        if j_steps is not None:
            check_integer("j_steps", j_steps, low=0)
        decay_base = eta * shape.width * ridge.lam
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
        self.eta = eta
        self.j_steps = j_steps

    def __call__(self, t: int, logdet: float) -> float:
        if t < 0:
            raise ValueError(f"t must be >= 0, got {t}")
        if logdet < 0:
            raise ValueError(f"logdet must be nonnegative, got {logdet}")
        lam, m, L = self.ridge.lam, self.shape.width, self.shape.depth
        j = t if self.j_steps is None else self.j_steps
        mfac = m ** (-1.0 / 6.0) * math.sqrt(math.log(m))
        try:
            front = math.sqrt(1.0 + mfac * L**4 * t ** (7.0 / 6.0) * lam ** (-7.0 / 6.0))
            shift = mfac * L**4 * t ** (5.0 / 3.0) * lam ** (-1.0 / 6.0)
            decay = (1.0 - self.eta * m * lam) ** (j / 2.0) * math.sqrt(t / lam)
            approx = mfac * L ** 3.5 * t ** (5.0 / 3.0) * lam ** (-5.0 / 3.0) \
                * (1.0 + math.sqrt(t / lam))
            gamma = (lam + t * L) * (decay + approx)
            if math.isfinite(gamma):  # the shift overflows only with this term, which is lam's
                gamma += front * self.ridge(t, logdet + shift)
        except OverflowError:  # a round t beyond the float range
            gamma = math.inf
        if not math.isfinite(gamma):
            raise ValueError(f"lam must be large enough that the width is finite at t = {t}, "
                             f"got {lam} (width {gamma})")
        return gamma
