"""Dense linear-algebra substrate: SPD solves with jitter escalation, a
thin SVD with a tolerance-cut rank and pseudoinverse, and the matrix product
that runs beside them.

The numpy and scipy wheels each bundle their own OpenBLAS, and each library
keeps its own pool of worker threads.  Idle OpenBLAS workers busy-wait
before they sleep, so code that alternates between the two libraries (a
scipy Cholesky solve, a numpy ``@``, another scipy solve) has one pool's
spinning workers take processor time from the other's working ones.  Every
matrix product here that runs beside a factorization or an SVD therefore
goes through scipy's BLAS, the library that also provides ``potrf``,
``potrs`` and ``gesdd``: ``matmul`` for products, and the residual of
``SpdFactor.solve`` for a matrix right-hand side.  At one BLAS thread
``matmul`` returns numpy's ``@`` bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.blas import ddot, dgemm, dgemv
from scipy.linalg.lapack import dpotri

from .errors import DimensionMismatch, NotPositiveDefinite

# Jitter escalation for near-singular Gram matrices: 0, then
# 1e-12*trace/n stepping x10 up to 1e-6*trace/n.
_JITTER_START = 1e-12
_JITTER_MAX = 1e-6


def _as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DimensionMismatch("matrix entries must be finite")
    return a


def _transposed(x: np.ndarray) -> tuple[np.ndarray, int]:
    """A Fortran-ordered array X and a BLAS trans flag with op(X) = x^T, so
    that f2py passes X without a copy: x^T itself for a C-ordered x (flag
    0), x for a Fortran-ordered one (flag 1)."""
    if x.flags.c_contiguous:
        return x.T, 0
    if x.flags.f_contiguous:
        return x, 1
    return np.ascontiguousarray(x).T, 0


def matmul(a, b) -> np.ndarray:
    """a @ b for 2-d a and b, on scipy's BLAS thread pool (see the module
    docstring).

    It makes the BLAS call numpy's ``@`` makes: none for an empty operand,
    dot for a row times a column, gemv when either side is a single row or
    column, and gemm otherwise, each the column-major mirror of numpy's
    row-major call (gemm forms (b^T a^T)^T).  So for C- or Fortran-ordered
    operands at one BLAS thread the result equals numpy's bit for bit; at
    more threads either library may split the sums differently.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if 0 in (a.shape[0], a.shape[1], b.shape[1]):
        return np.zeros((a.shape[0], b.shape[1]))
    if a.shape[0] == 1 and b.shape[1] == 1:
        return np.array([[ddot(a[0], b[:, 0])]])
    if b.shape[1] == 1:
        x, trans = _transposed(a)
        return dgemv(1.0, x, b[:, 0], trans=1 - trans)[:, None]
    if a.shape[0] == 1:
        y, trans = _transposed(b)
        return dgemv(1.0, y, a[0], trans=trans)[None, :]
    x, trans_x = _transposed(a)
    y, trans_y = _transposed(b)
    return dgemm(1.0, y, x, trans_a=trans_y, trans_b=trans_x).T


@dataclass(frozen=True)
class SpdFactor:
    """Cholesky factorization of (A + jitter*I), keeping A for refinement."""

    a: np.ndarray
    cho: tuple
    jitter: float

    @property
    def n(self) -> int:
        return self.a.shape[0]

    def solve(self, b) -> np.ndarray:
        """Solve A x = b; one iterative-refinement pass against the
        unjittered A cuts the residual on ill-conditioned Grams.  The factor
        was checked finite when it was built, so only b is checked here.

        For a matrix b the residual b - A x is formed by ``matmul``, on the
        same BLAS thread pool as the two Cholesky solves around it, and
        equals numpy's b - A @ x bit for bit at one thread.  A vector b
        keeps numpy's ``@``: the per-row power and identity solves that use
        it are not contended, and scipy's gemv there made the reports
        slower."""
        b = np.asarray(b, dtype=float)
        if b.shape[0] != self.n:
            raise DimensionMismatch(
                f"rhs has {b.shape[0]} rows, matrix is {self.n}x{self.n}")
        if not np.isfinite(b).all():
            raise DimensionMismatch("rhs entries must be finite")
        x = scipy.linalg.cho_solve(self.cho, b, check_finite=False)
        r = b - (self.a @ x if b.ndim == 1 else matmul(self.a, x))
        return x + scipy.linalg.cho_solve(self.cho, r, check_finite=False)

    def inverse_diagonal(self) -> np.ndarray:
        """Diagonal of (A + jitter*I)^-1, formed from the stored Cholesky
        factor by LAPACK potri (about n^3/3 flops, against n^3 for solving
        against the identity)."""
        c, lower = self.cho
        inv, info = dpotri(c, lower=lower)
        if info:
            raise NotPositiveDefinite(f"potri failed with info {info}")
        return np.diag(inv).copy()


def factor_spd(a) -> SpdFactor:
    """Factor a symmetric positive (semi)definite matrix.

    Tries jitter 0 first, then escalates the diagonal shift as
    1e-12*trace/n x 10^k up to 1e-6*trace/n.  Raises NotPositiveDefinite
    if every level fails.
    """
    a = _as_matrix(a)
    n, m = a.shape
    if n != m:
        raise DimensionMismatch(f"matrix is {n}x{m}, expected square")
    if n == 0:
        raise DimensionMismatch("matrix is empty")
    base = np.trace(a) / n
    scale = _JITTER_START
    jitter = 0.0
    while True:
        try:
            cho = scipy.linalg.cho_factor(
                a + jitter * np.eye(n) if jitter else a, lower=True)
            return SpdFactor(a=a, cho=cho, jitter=jitter)
        except scipy.linalg.LinAlgError:
            if jitter and scale > _JITTER_MAX:
                raise NotPositiveDefinite(
                    f"Cholesky failed at maximum jitter {jitter:.3e}") from None
            jitter = scale * base
            scale *= 10.0


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD A = U diag(s) Vt with s nonincreasing and nonnegative."""

    u: np.ndarray
    s: np.ndarray
    vt: np.ndarray

    def rank(self, rtol: float) -> int:
        if self.s.size == 0 or self.s[0] == 0.0:
            return 0
        return int(np.sum(self.s > rtol * self.s[0]))

    def pinv(self, rtol: float) -> np.ndarray:
        r = self.rank(rtol)
        inv_s = np.zeros_like(self.s)
        inv_s[:r] = 1.0 / self.s[:r]
        return matmul(self.vt.T * inv_s, self.u.T)


def svd(a) -> SvdResult:
    """Thin SVD by LAPACK gesdd, the driver numpy's ``svd`` uses, called
    through scipy so that it shares the factorizations' thread pool."""
    a = _as_matrix(a)
    u, s, vt = scipy.linalg.svd(a, full_matrices=False, lapack_driver="gesdd",
                                check_finite=False)
    return SvdResult(u=u, s=s, vt=vt)

