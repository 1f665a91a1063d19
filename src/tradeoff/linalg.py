"""Dense linear-algebra substrate: a plain Cholesky factorization and its
solves, a thin SVD with a tolerance-cut rank, and the matrix product that
runs beside them.

A failed Cholesky raises NotPositiveDefinite: a shifted Gram would be a
different problem.  No solve is refined: refinement in working precision
improves the backward error, not the forward error, which the roundoff floor
bounds (Higham, Accuracy and Stability, 2002, sections 10.1 and 12.2).

The numpy and scipy wheels each bundle their own OpenBLAS, and each library
keeps its own pool of worker threads.  Idle OpenBLAS workers busy-wait
before they sleep, so code that alternates between the two libraries (a
scipy Cholesky solve, then a numpy ``@``) has one pool's spinning workers
take processor time from the other's working ones.  Every matrix product
here that runs beside a factorization or an SVD therefore goes through
scipy's BLAS, the library that also provides ``potrf``, ``potrs`` and
``gesdd``, by ``matmul``.  At one BLAS thread ``matmul`` returns numpy's
``@`` bit for bit.

scipy.linalg, its BLAS and its LAPACK are imported on first use, by the
first product, factorization or SVD here, so importing this module loads
only numpy.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from types import SimpleNamespace

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite


@cache
def _scipy() -> SimpleNamespace:
    """The scipy BLAS and LAPACK routines used here, imported by the first
    call; later calls return the same bound names."""
    from scipy.linalg import svd
    from scipy.linalg.blas import ddot, dgemm, dgemv
    from scipy.linalg.lapack import dpotrf, dpotri, dpotrs
    return SimpleNamespace(ddot=ddot, dgemm=dgemm, dgemv=dgemv, dpotrf=dpotrf,
                           dpotri=dpotri, dpotrs=dpotrs, svd=svd)


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
    blas = _scipy()
    if a.shape[0] == 1 and b.shape[1] == 1:
        return np.array([[blas.ddot(a[0], b[:, 0])]])
    if b.shape[1] == 1:
        x, trans = _transposed(a)
        return blas.dgemv(1.0, x, b[:, 0], trans=1 - trans)[:, None]
    if a.shape[0] == 1:
        y, trans = _transposed(b)
        return blas.dgemv(1.0, y, a[0], trans=trans)[None, :]
    x, trans_x = _transposed(a)
    y, trans_y = _transposed(b)
    return blas.dgemm(1.0, y, x, trans_a=trans_y, trans_b=trans_x).T


@dataclass(frozen=True)
class SpdFactor:
    """Lower Cholesky factorization of a symmetric positive definite A, as
    scipy's (c, lower) pair: from LAPACK potrf, or any lower-triangular L
    with A = L L^T, such as the Newton rows of a P-greedy's picks (only the
    lower triangle of c is read)."""

    cho: tuple

    # no factorization is shifted; kept only because the benchmark's
    # factor_spd span reads it
    jitter = 0.0

    @property
    def n(self) -> int:
        return self.cho[0].shape[0]

    def solve(self, b) -> np.ndarray:
        """Solve A x = b (b a vector or a matrix) by one LAPACK potrs; the
        factor was checked finite when it was built, so only b is checked."""
        b = np.asarray(b, dtype=float)
        if b.shape[0] != self.n:
            raise DimensionMismatch(
                f"rhs has {b.shape[0]} rows, matrix is {self.n}x{self.n}")
        if not np.isfinite(b).all():
            raise DimensionMismatch("rhs entries must be finite")
        return _scipy().dpotrs(self.cho[0], b, lower=self.cho[1])[0]

    def inverse_diagonal(self) -> np.ndarray:
        """Diagonal of A^-1, formed from the stored Cholesky factor by LAPACK
        potri (about n^3/3 flops, against n^3 for solving against the
        identity)."""
        c, lower = self.cho
        inv, info = _scipy().dpotri(c, lower=lower)
        if info:
            raise NotPositiveDefinite(f"potri failed with info {info}")
        return np.diag(inv).copy()


def factor_spd(a) -> SpdFactor:
    """Cholesky-factor a symmetric positive definite matrix; NotPositiveDefinite,
    naming the size, if that fails in double precision."""
    a = _as_matrix(a)
    n, m = a.shape
    if n != m:
        raise DimensionMismatch(f"matrix is {n}x{m}, expected square")
    if n == 0:
        raise DimensionMismatch("matrix is empty")
    c, info = _scipy().dpotrf(a, lower=1, clean=0)
    if info:
        raise NotPositiveDefinite(
            f"Cholesky factorization of the {n}x{n} Gram failed: "
            "not positive definite in double precision")
    return SpdFactor(cho=(c, True))


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


def svd(a) -> SvdResult:
    """Thin SVD by LAPACK gesdd, the driver numpy's ``svd`` uses, called
    through scipy so that it shares the factorizations' thread pool."""
    a = _as_matrix(a)
    u, s, vt = _scipy().svd(a, full_matrices=False, lapack_driver="gesdd",
                            check_finite=False)
    return SvdResult(u=u, s=s, vt=vt)

