"""Non-interpolatory recovery maps: Kansa unsymmetric collocation with a
truncated-SVD coefficient map, pseudo-Lagrangians and their power function,
and the SVD/Tikhonov linear-system case."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import kernels, linalg
from .errors import NoBumpExists, at_first_row
from .functionals import FunctionalSet, LaplacianEval, PointEval
from .kernel_recovery import PowerContext, _bordered_form, schur_batch

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
        if len(np.unique(self.trial, axis=0)) != len(self.trial):
            raise ValueError("trial points must be pairwise distinct")

    @classmethod
    def regular(cls, kernel, n_side: int = 11, n_boundary: int = 16,
                include_corners: bool = True, trial_points=None) -> "PoissonSetup":
        """The regular layout: an n_side x n_side tensor grid strictly inside
        the square, boundary points equally spaced along the perimeter
        (starting at the origin corner when include_corners is set), and
        trial points defaulting to the interior grid."""
        h = np.arange(1, n_side + 1) / (n_side + 1.0)
        interior = np.array([[x, y] for x in h for y in h])
        t0 = 2.0 / n_boundary if n_boundary and not include_corners else 0.0
        boundary = unit_square_perimeter(t0 + np.arange(n_boundary) * 4.0 / n_boundary)
        trial = interior if trial_points is None else np.asarray(trial_points, float)
        return cls(kernel=kernel, interior=interior, boundary=boundary, trial=trial)

    def functionals(self) -> FunctionalSet:
        fs = [LaplacianEval(tuple(p)) for p in self.interior]
        fs += [PointEval(tuple(p)) for p in self.boundary]
        return FunctionalSet(fs)

    @cached_property
    def trial_functionals(self) -> FunctionalSet | tuple:
        """Point evaluations at the trial points as one FunctionalSet, so every
        kernel call on the trial side reuses its radial layout; () when there
        are no trial points, a FunctionalSet being nonempty."""
        fs = [PointEval(tuple(p)) for p in self.trial]
        return FunctionalSet(fs) if fs else ()


@dataclass(frozen=True)
class UnsymmetricRecovery:
    """Recovery f -> v^T C Lambda(f) with trial functions v_k = K(z_k, .),
    the point evaluations trial_functionals.  C, the pseudoinverse of the
    generalized Vandermonde A cut at rank r, is kept as its SVD factors
    C = W U_r^T and never formed."""

    kernel: object
    functionals: FunctionalSet
    trial_functionals: FunctionalSet | tuple = field(repr=False)
    w: np.ndarray = field(repr=False)  # W = V_r diag(1/sigma_r), N x r
    u_r: np.ndarray = field(repr=False)  # U_r, M x r
    rtol: float
    vandermonde: np.ndarray = field(repr=False)  # A, M x N

    @property
    def m(self) -> int:
        return len(self.functionals)

    @property
    def n(self) -> int:
        return len(self.w)

    @property
    def rank(self) -> int:
        return self.u_r.shape[1]

    def times_c(self, x) -> np.ndarray:
        """x C for an N-column x, as (x W) U_r^T: two BLAS products
        (linalg.matmul), neither through the cut singular directions."""
        return linalg.matmul(linalg.matmul(x, self.w), self.u_r.T)

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
    1e-12 * max(M, N).  U_r is copied, so the full U is not kept alive."""
    lam_set = setup.functionals()
    trial = setup.trial_functionals
    a = setup.kernel.cross(lam_set, trial)  # M x N
    if rtol is None:
        rtol = 1e-12 * max(a.shape)
    if not 0.0 < rtol < 1.0:
        raise ValueError(f"rtol must lie in (0, 1), got {rtol}")
    dec = linalg.svd(a)
    r = dec.rank(rtol)
    return UnsymmetricRecovery(
        kernel=setup.kernel, functionals=lam_set, trial_functionals=trial,
        w=dec.vt[:r].T * (1.0 / dec.s[:r]), u_r=dec.u[:, :r].copy(), rtol=rtol,
        vandermonde=a)


def kansa_power_squared_batch(rec: UnsymmetricRecovery, mus) -> tuple[np.ndarray, np.ndarray]:
    """Squared powers (p2_unsym, p2_sym) of the Kansa recovery and of
    symmetric collocation from the same data functionals, one per mu.

    Both are ||mu - sum_j c_j lambda_j||^2 over the one data Gram of
    rec.context, from one K(mu, Lambda) and K(mu, mu): p2_unsym is the
    bordered form at the pseudo-Lagrange values c = mu(v) C, p2_sym its
    minimum, power_batch's Schur value bit for bit.  A FunctionalSet of mus
    computes its radial layout once for the three kernel calls.
    """
    mus = mus if isinstance(mus, FunctionalSet) else list(mus)
    kmm = rec.kernel.diag(mus)
    kml = rec.kernel.cross(mus, rec.functionals)
    b = rec.times_c(rec.kernel.cross(mus, rec.trial_functionals))
    p2_sym, _ = schur_batch(rec.context.factor, kmm, kml)
    p2_uns = _bordered_form(kmm, kml, b, rec.context.gram)
    return np.maximum(p2_uns, 0.0), np.maximum(p2_sym, 0.0)


def kansa_site_power_squared(rec: UnsymmetricRecovery) -> np.ndarray:
    """Squared Kansa power at each data functional, with no kernel call: the
    rows and diagonal of the one data Gram of rec.context are K(mu, Lambda)
    and K(mu, mu) there, and (A W) U_r^T gives the pseudo-Lagrange values:
    not U_r U_r^T, which equals A W only before rounding and moves the site
    powers by several roundoff floors."""
    g = rec.context.gram
    b = rec.times_c(rec.vandermonde)
    return np.maximum(_bordered_form(np.diag(g), g, b, g), 0.0)


def pseudo_lagrangian_norms(rec: UnsymmetricRecovery) -> np.ndarray:
    """Squared norms ||a_k||^2, the diagonal of C^T K_{T,T} C: the rows of
    U_r against the r x r core W^T K_{T,T} W.  times_c of (K_{T,T} W)^T is
    that core times U_r^T, and a row-wise dot with U_r ends it."""
    kw = linalg.matmul(kernels.gram(rec.kernel, rec.trial_functionals), rec.w)
    return np.einsum("ij,ji->i", rec.u_r, rec.times_c(kw.T))


# ---------------------------------------------------------------------------
# SVD / Tikhonov coefficient maps for overdetermined linear systems

@dataclass(frozen=True)
class SvdRecovery:
    """Diagonalized M x N system: nonincreasing singular values padded with
    zeros to length M, plus an optional Tikhonov parameter.

    singular_values may also be a batch, one system per row of its last
    axis (each row nonincreasing, all padded to the same M) sharing tau."""

    sigma: np.ndarray
    tau: float = 0.0

    def __init__(self, singular_values, m: int | None = None, tau: float = 0.0):
        s = np.atleast_1d(np.asarray(singular_values, dtype=float))
        # a NaN is rejected too, so the zero singular values always trail
        if not np.all(s >= 0) or np.any(np.diff(s) > 0):
            raise ValueError("singular values must be nonincreasing and >= 0")
        if tau < 0:
            raise ValueError("Tikhonov parameter must be >= 0")
        if m is not None:
            if m < s.shape[-1]:
                raise ValueError(f"cannot pad {s.shape[-1]} singular values to length {m}")
            s = np.concatenate([s, np.zeros(s.shape[:-1] + (m - s.shape[-1],))], axis=-1)
        object.__setattr__(self, "sigma", np.ascontiguousarray(s))
        object.__setattr__(self, "tau", float(tau))

    def zero_mask(self) -> np.ndarray:
        """The singular values at most RANK_RTOL times their row's largest:
        a trailing run of each row."""
        return self.sigma <= RANK_RTOL * self.sigma[..., :1]


def _svd_coeffs(rec: SvdRecovery, mu) -> np.ndarray:
    """mu as a C-ordered float array of rec.sigma's shape: one coefficient
    vector per system."""
    mu = np.asarray(mu, dtype=float, order="C")
    if mu.shape != rec.sigma.shape:
        raise ValueError(f"need coefficients of shape {rec.sigma.shape}, got {mu.shape}")
    return mu


def _tail_sum_of_squares(v: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """sum(v[mask] ** 2) for each row of the last axis, where each row's mask
    is a trailing run.  Rows are grouped by run length so that each sum runs
    over exactly its own entries: numpy's pairwise sum regroups past 8 terms,
    so zeros in place of the other entries would move the last bits."""
    shape = (math.prod(v.shape[:-1]), v.shape[-1])
    m = shape[1]
    rows, counts = v.reshape(shape), mask.reshape(shape).sum(-1)
    out = np.empty(shape[0])
    for k in np.unique(counts).tolist():
        at = counts == k
        out[at] = np.sum(rows[at, m - k:] ** 2, axis=-1)
    return out.reshape(v.shape[:-1])


def svd_power_squared(rec: SvdRecovery, mu):
    """Squared power of the (possibly regularized) diagonal solver.

    Without regularization this sums mu_k^2 over the zero singular values;
    with tau > 0 it is sum_k mu_k^2 tau^2 / (sigma_k + tau)^2.  One system
    and its coefficient vector give a float; a batch of systems and one
    coefficient vector per system (rows of the last axis) give an array,
    elementwise the single values bit for bit.
    """
    mu = _svd_coeffs(rec, mu)
    if rec.tau > 0.0:
        p2 = np.sum(mu ** 2 * rec.tau ** 2 / (rec.sigma + rec.tau) ** 2, axis=-1)
    else:
        p2 = _tail_sum_of_squares(mu, rec.zero_mask())
    return float(p2) if p2.ndim == 0 else p2


def svd_bump_min(rec: SvdRecovery, mu):
    """Minimum-norm bump vector: supported on the zero-sigma coordinates,
    f_k = mu_k / sum(mu_j^2), with norm the reciprocal root of that sum.

    Batches go as in svd_power_squared, giving (bumps, norms); raises
    NoBumpExists naming the first row without a bump."""
    mu = _svd_coeffs(rec, mu)
    mask = rec.zero_mask()
    denom = _tail_sum_of_squares(mu, mask)
    if (denom == 0.0).any():
        raise NoBumpExists(
            "no zero singular value carries a nonzero mu component "
            "(the excluded 1 <= 0*inf case)" + at_first_row(denom == 0.0))
    f = np.divide(mu, denom[..., None], out=np.zeros_like(mu), where=mask)
    norm = np.sqrt(np.sum(f ** 2, axis=-1))
    return f, float(norm) if norm.ndim == 0 else norm
