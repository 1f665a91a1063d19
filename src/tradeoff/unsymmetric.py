"""Non-interpolatory recovery maps: Kansa unsymmetric collocation with a
pseudoinverse coefficient map, pseudo-Lagrangians and their power function,
and the SVD/Tikhonov linear-system case."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import kernels, linalg
from .errors import NoBumpExists
from .functionals import FunctionalSet, LaplacianEval, PointEval
from .kernel_recovery import PowerContext

# sigma_k counts as zero below this fraction of sigma_max
RANK_RTOL = 1e-12


def unit_square_perimeter(t) -> np.ndarray:
    """Arc-length parametrization of the boundary of [0,1]^2, t in [0,4)."""
    t = np.mod(np.asarray(t, dtype=float), 4.0)
    out = np.empty(t.shape + (2,))
    for lo, xy in ((0, lambda s: (s, 0.0 * s)), (1, lambda s: (1.0 + 0 * s, s - 1)),
                   (2, lambda s: (3.0 - s, 1.0 + 0 * s)), (3, lambda s: (0.0 * s, 4.0 - s))):
        m = (t >= lo) & (t < lo + 1)
        x, y = xy(t[m])
        out[m, 0], out[m, 1] = x, y
    return out


def _on_boundary(p) -> bool:
    x, y = p
    tol = 1e-12
    if not (-tol <= x <= 1 + tol and -tol <= y <= 1 + tol):
        return False
    return min(abs(x), abs(1 - x), abs(y), abs(1 - y)) <= tol


@dataclass(frozen=True)
class PoissonSetup:
    """Dirichlet Poisson discretization on the unit square: Laplacian data
    functionals at interior points, point-value data on the boundary, and
    kernel translates at trial points."""

    kernel: object
    interior: np.ndarray
    boundary: np.ndarray
    trial: np.ndarray

    def __post_init__(self):
        for name in ("interior", "boundary", "trial"):
            pts = np.asarray(getattr(self, name), dtype=float)
            if pts.ndim != 2 or pts.shape[1] != 2:
                raise ValueError(f"{name} points must be an (n, 2) array")
            object.__setattr__(self, name, pts)
        if np.any(self.interior <= 0.0) or np.any(self.interior >= 1.0):
            raise ValueError("interior points must lie strictly inside (0,1)^2")
        for p in self.boundary:
            if not _on_boundary(p):
                raise ValueError(f"boundary point {p} is not on the unit-square edge")

    @classmethod
    def regular(cls, kernel, n_side: int = 11, n_boundary: int = 16,
                include_corners: bool = True, trial_points=None) -> "PoissonSetup":
        """The regular layout: an n_side x n_side tensor grid strictly inside
        the square, boundary points equally spaced along the perimeter
        (starting at the origin corner when include_corners is set), and
        trial points defaulting to the interior grid."""
        h = np.arange(1, n_side + 1) / (n_side + 1.0)
        interior = np.array([[x, y] for x in h for y in h])
        t0 = 0.0 if include_corners else 2.0 / n_boundary
        boundary = unit_square_perimeter(t0 + np.arange(n_boundary) * 4.0 / n_boundary)
        trial = interior if trial_points is None else np.asarray(trial_points, float)
        return cls(kernel=kernel, interior=interior, boundary=boundary, trial=trial)

    def functionals(self) -> FunctionalSet:
        fs = [LaplacianEval(tuple(p)) for p in self.interior]
        fs += [PointEval(tuple(p)) for p in self.boundary]
        return FunctionalSet(fs)

    def trial_functionals(self) -> list[PointEval]:
        return [PointEval(tuple(p)) for p in self.trial]


@dataclass(frozen=True)
class UnsymmetricRecovery:
    """Recovery f -> v^T C Lambda(f) with trial functions v_k = K(z_k, .)."""

    kernel: object
    functionals: FunctionalSet
    trial: np.ndarray
    coefficient_map: np.ndarray  # C, N x M
    rtol: float
    rank: int
    vandermonde: np.ndarray = field(repr=False)  # A, M x N

    @property
    def m(self) -> int:
        return len(self.functionals)

    @property
    def n(self) -> int:
        return len(self.trial)

    def trial_functionals(self) -> list[PointEval]:
        return [PointEval(tuple(p)) for p in self.trial]

    @cached_property
    def context(self) -> PowerContext:
        """Symmetric collocation from the same data functionals, which the
        Kansa power is measured against: its one data Gram, assembled on
        first use, serves the Kansa power and the symmetric power alike."""
        return PowerContext(self.kernel, self.functionals)


def build_kansa(setup: PoissonSetup, rtol: float | None = None) -> UnsymmetricRecovery:
    """Assemble the generalized Vandermonde A with entries lambda_j(v_k) and
    take C as its pseudoinverse, cutting singular values at or below
    rtol * s_max; rtol must lie in (0, 1) and defaults to
    1e-12 * max(M, N)."""
    lam_set = setup.functionals()
    trial = setup.trial_functionals()
    a = setup.kernel.cross(lam_set, trial)  # M x N
    if rtol is None:
        rtol = 1e-12 * max(a.shape)
    if not 0.0 < rtol < 1.0:
        raise ValueError(f"rtol must lie in (0, 1), got {rtol}")
    dec = linalg.svd(a)
    return UnsymmetricRecovery(
        kernel=setup.kernel, functionals=lam_set, trial=setup.trial,
        coefficient_map=dec.pinv(rtol), rtol=rtol, rank=dec.rank(rtol),
        vandermonde=a)


def _kansa_p2(kmm, kml, b, gram) -> np.ndarray:
    """K_mumu - 2 b^T K_{Lambda,mu} + b^T K_{Lambda,Lambda} b per row,
    clamped at 0; b holds the pseudo-Lagrange values mu(a_k)."""
    p2 = (kmm - 2.0 * np.einsum("ij,ij->i", b, kml)
          + np.einsum("ij,jk,ik->i", b, gram, b))
    return np.maximum(p2, 0.0)


def kansa_power_squared_batch(rec: UnsymmetricRecovery, mus) -> tuple[np.ndarray, np.ndarray]:
    """Squared powers (p2_unsym, p2_sym) of the Kansa recovery and of
    symmetric collocation from the same data functionals, one per mu.

    Both share one kernel row K(mu, Lambda), one K(mu, mu) and the one data
    Gram of rec.context; only the coefficient row differs: the
    pseudo-Lagrange values b = mu(v) C against the Lagrange values of the
    symmetric solve, whose powers are power_batch's bit for bit.
    """
    mus = list(mus)
    kmm = rec.kernel.diag(mus)
    kml = rec.kernel.cross(mus, rec.functionals)
    b = rec.kernel.cross(mus, rec.trial_functionals()) @ rec.coefficient_map
    p2_sym, _ = rec.context.schur_batch(kmm, kml)
    return _kansa_p2(kmm, kml, b, rec.context.gram), p2_sym


def kansa_site_power_squared(rec: UnsymmetricRecovery) -> np.ndarray:
    """Squared Kansa power at each data functional, with no kernel call: the
    rows and diagonal of the one data Gram of rec.context are K(mu, Lambda)
    and K(mu, mu) there, and A C gives the pseudo-Lagrange values."""
    g = rec.context.gram
    return _kansa_p2(np.diag(g), g, rec.vandermonde @ rec.coefficient_map, g)


def pseudo_lagrangian_norms(rec: UnsymmetricRecovery) -> np.ndarray:
    """Squared norms ||a_k||^2, the diagonal of C^T K_{T,T} C."""
    c = rec.coefficient_map
    k_tt = kernels.gram(rec.kernel, rec.trial_functionals())
    return np.einsum("ji,jk,ki->i", c, k_tt, c)


# ---------------------------------------------------------------------------
# SVD / Tikhonov coefficient maps for overdetermined linear systems

@dataclass(frozen=True)
class SvdRecovery:
    """Diagonalized M x N system: nonincreasing singular values padded with
    zeros to length M, plus an optional Tikhonov parameter."""

    sigma: np.ndarray
    tau: float = 0.0

    def __init__(self, singular_values, m: int | None = None, tau: float = 0.0):
        s = np.atleast_1d(np.asarray(singular_values, dtype=float))
        if np.any(s < 0) or np.any(np.diff(s) > 0):
            raise ValueError("singular values must be nonincreasing and >= 0")
        if tau < 0:
            raise ValueError("Tikhonov parameter must be >= 0")
        if m is not None:
            if m < s.size:
                raise ValueError(f"cannot pad {s.size} singular values to length {m}")
            s = np.concatenate([s, np.zeros(m - s.size)])
        object.__setattr__(self, "sigma", s)
        object.__setattr__(self, "tau", float(tau))

    def zero_mask(self) -> np.ndarray:
        smax = self.sigma[0] if self.sigma.size else 0.0
        return self.sigma <= RANK_RTOL * smax


def svd_power_squared(rec: SvdRecovery, mu) -> float:
    """Squared power of the (possibly regularized) diagonal solver.

    Without regularization this sums mu_k^2 over the zero singular values;
    with tau > 0 it is sum_k mu_k^2 tau^2 / (sigma_k + tau)^2.
    """
    mu = np.asarray(mu, dtype=float)
    if mu.shape != rec.sigma.shape:
        raise ValueError(f"need {rec.sigma.size} coefficients, got {mu.shape}")
    if rec.tau > 0.0:
        return float(np.sum(mu ** 2 * rec.tau ** 2 / (rec.sigma + rec.tau) ** 2))
    return float(np.sum(mu[rec.zero_mask()] ** 2))


def svd_bump_min(rec: SvdRecovery, mu) -> tuple[np.ndarray, float]:
    """Minimum-norm bump vector: supported on the zero-sigma coordinates,
    f_k = mu_k / sum(mu_j^2), with norm the reciprocal root of that sum."""
    mu = np.asarray(mu, dtype=float)
    mask = rec.zero_mask()
    tail = mu[mask]
    denom = float(np.sum(tail ** 2))
    if not mask.any() or denom == 0.0:
        raise NoBumpExists(
            "no zero singular value carries a nonzero mu component "
            "(the excluded 1 <= 0*inf case)")
    f = np.zeros_like(mu)
    f[mask] = tail / denom
    return f, math.sqrt(float(np.sum(f ** 2)))
