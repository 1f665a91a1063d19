"""Dense linear-algebra substrate: SPD solves with jitter escalation, and a
thin SVD with a tolerance-cut rank and pseudoinverse."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

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
        was checked finite when it was built, so only b is checked here."""
        b = np.asarray(b, dtype=float)
        if b.shape[0] != self.n:
            raise DimensionMismatch(
                f"rhs has {b.shape[0]} rows, matrix is {self.n}x{self.n}")
        if not np.isfinite(b).all():
            raise DimensionMismatch("rhs entries must be finite")
        x = scipy.linalg.cho_solve(self.cho, b, check_finite=False)
        r = b - self.a @ x
        return x + scipy.linalg.cho_solve(self.cho, r, check_finite=False)

    def inverse_diagonal(self) -> np.ndarray:
        return np.diag(scipy.linalg.cho_solve(self.cho, np.eye(self.n)))


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
        return (self.vt.T * inv_s) @ self.u.T


def svd(a) -> SvdResult:
    a = _as_matrix(a)
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    return SvdResult(u=u, s=s, vt=vt)

