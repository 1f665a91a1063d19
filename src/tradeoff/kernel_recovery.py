"""Optimal kernel recovery: generalized interpolation, Lagrangians, the
bordered-Gram power function, and the equality form of the trade-off
principle (power times Lagrangian norm equals one).

One route per quantity: schur_batch gives every Schur power
P^2 = K_mumu - k^T w and the Lagrange values w = G^-1 k; _bordered_form
gives ||mu - sum_j c_j lambda_j||^2 = K_mumu - 2 k^T c + c^T G c, minimal
at c = w, where it is P^2 (the second route); at Kansa's pseudo-Lagrange
values it is the Kansa power (unsymmetric).  P-greedy keeps its powers in
the Newton basis instead and checks them against one fresh Cholesky
factorization per run (greedy).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .errors import ExcludedCase
from .functionals import Functional, FunctionalSet
from .kernels import gram
from .report import FLAG_EXCLUDED, FLAG_OK, FLAG_UNRESOLVED, TradeoffReport

# mu counts as reproduced (excluded case) below this fraction of K_mu_mu
EXCLUDED_RTOL = 1e-12

# a report row whose roundoff floor F exceeds this fraction of its P^2 is
# flagged unresolved.  Fixed once from the 50-digit oracle and the audit
# bench problems, not per workload: where F < 1e-5 P^2 the double P^2 lies
# within 1e-4 of the 50-digit value, and every audit row that failed the
# 1e-5 product check (seeds 0, 1, 3, 61, 101) had F >= 1.1e-3 P^2, ten
# times this threshold
UNRESOLVED_RTOL = 1e-4

# unit roundoff of a double
_U = 2.0 ** -53

# the two power-function routes must agree this closely, with an absolute
# floor so roundoff near the excluded case cannot trip the check
_AGREE_RTOL = 1e-7

# tradeoff_report evaluates its rows this many at a time: one diag, one
# cross call and one solve per block, while a block's cross and Lagrange
# values (rows x N each) stay small beside the Gram
_REPORT_BLOCK = 128


@dataclass(frozen=True)
class PowerEvaluation:
    """Squared add-one-in powers of a block of evaluation functionals, one
    entry or row each: the Schur-route P^2 (clamped at 0), the Lagrange
    values mu(u_j), K(mu, mu), the kernel rows mu^x lambda_j^y K, the
    bordered-form value B of the second route, whether the routes agree and
    the roundoff floor F of P^2 (roundoff_floor); for a single functional,
    that block's one row."""

    mu: Functional | tuple
    power_squared: np.ndarray
    lagrange_values: np.ndarray
    k_mu_mu: np.ndarray
    k_mu_lambda: np.ndarray
    bordered: np.ndarray
    agree: np.ndarray
    floor: np.ndarray

    @property
    def excluded(self):
        return self.power_squared <= EXCLUDED_RTOL * self.k_mu_mu

    @property
    def unresolved(self):
        """Rows double precision does not decide: routes that disagree, or
        F > UNRESOLVED_RTOL * P^2 (a NaN power or floor is not unresolved)."""
        return ~self.agree | (self.floor > UNRESOLVED_RTOL * self.power_squared)


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (rows, n) arrays, one BLAS dot per row,
    so a row rounds as the vector product a[i] @ b[i]."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def schur_batch(factor: linalg.SpdFactor, kmm: np.ndarray,
                kml: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Schur values K_mumu - k^T w (not clamped) and Lagrange values
    w = G^-1 k, one row each, from the factored data Gram, kmm = K(mu, mu)
    and kml = K(mu, Lambda); a row rounds the same in any batch."""
    w = factor.solve(kml.T).T
    return kmm - _rowdot(kml, w), w


def _bordered_form(kmm: np.ndarray, kml: np.ndarray, c: np.ndarray,
                   gram: np.ndarray) -> np.ndarray:
    """K_mumu - 2 k^T c + c^T G c (not clamped) for each coefficient row c
    against the data Gram G."""
    return kmm - 2.0 * _rowdot(kml, c) + _rowdot(linalg.matmul(c, gram), c)


def roundoff_floor(abs_gram: np.ndarray, kmm: np.ndarray, kml: np.ndarray,
                   w: np.ndarray) -> np.ndarray:
    """Roundoff floor of each squared power of a batch against the data
    Gram G, from |G| (abs_gram, entrywise) and the batch's K(mu, mu),
    K(mu, Lambda) and Lagrange values (one row each):

        F = n u (|K_mumu| + 2 |w|^T |k| + |w|^T |G| |w|)

    for n data functionals and u = 2^-53: the first-order error of
    P^2 = K_mumu - k^T w when the kernel values carry rounding errors of
    relative size u.  |W| |G| is one product for the batch.
    """
    n = len(abs_gram)
    if n == 0:
        return np.zeros(len(kmm))
    aw = np.abs(w)
    quad = np.einsum("ij,ij->i", linalg.matmul(aw, abs_gram), aw)
    cross = np.einsum("ij,ij->i", aw, np.abs(kml))
    return n * _U * (np.abs(kmm) + 2.0 * cross + quad)


class PowerContext:
    """Factorization of the dual Gram of a functional set, reused across
    many evaluation functionals; NotPositiveDefinite if it fails."""

    def __init__(self, kernel, lam_set: FunctionalSet | None):
        self.kernel = kernel
        self.lam_set = lam_set
        if lam_set is None or len(lam_set) == 0:
            self.gram = np.zeros((0, 0))
            self.factor = None
            self._gram_scale = 0.0
        else:
            self.gram = gram(kernel, lam_set)
            self.factor = linalg.factor_spd(self.gram)
            # max |diag(G)|, the scale of the cross-check's roundoff floor
            self._gram_scale = np.max(np.abs(np.diag(self.gram)))

    @cached_property
    def _abs_gram(self) -> np.ndarray:
        return np.abs(self.gram)

    def power_batch(self, mus) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(power_squared, lagrange_values, k_mu_mu) of the block
        power_squared(mus) without its cross-check."""
        ev = self.power_squared(mus, cross_check=False)
        return ev.power_squared, ev.lagrange_values, ev.k_mu_mu

    def power_squared(self, mu, cross_check: bool = True) -> PowerEvaluation:
        """Squared powers of a block of evaluation functionals mu via the
        Schur complement K_mumu - k^T w (schur_batch), with the Lagrange
        values w = G^-1 k, and the paper's second route: the bordered form
        B = K_mumu - 2 k^T w + w^T G w (_bordered_form at c = w), the form
        of (1, -w) over the Gram of {mu} + Lambda, one entry per row.
        agree marks the rows whose routes agree within _AGREE_RTOL, with an
        absolute floor at the backward-error level of their difference
        w^T (G w - k); with cross_check a disagreement raises ArithmeticError.
        Each row also gets its roundoff floor F, from one |W| |G| product.

        A single Functional is the block of one and gets that row.
        """
        single = isinstance(mu, Functional)
        mus = (mu,) if single else tuple(mu)
        # a FunctionalSet reaches the kernel as itself, with its layout
        block = mu if isinstance(mu, FunctionalSet) else mus
        n = len(self.gram)
        kmm = np.reshape(self.kernel.diag(block), len(mus))
        if self.factor is None:
            kml = w = np.zeros((len(mus), 0))
            schur = kmm
        else:
            kml = np.reshape(self.kernel.cross(block, self.lam_set), (len(mus), n))
            schur, w = schur_batch(self.factor, kmm, kml)
        bordered = _bordered_form(kmm, kml, w, self.gram)
        floor = 1e-13 * n * (np.abs(kmm) + _rowdot(w, w) * self._gram_scale)
        tol = _AGREE_RTOL * np.maximum(np.abs(schur), np.abs(bordered)) + floor
        # ~(>) so that a NaN difference counts as agreeing
        agree = ~(np.abs(bordered - schur) > tol)
        if cross_check and not agree.all():
            i = int(np.argmin(agree))
            raise ArithmeticError(
                f"power-function routes disagree at {mus[i]!r}: "
                f"schur={schur[i]:.6e} bordered={bordered[i]:.6e}")
        rows = (np.maximum(schur, 0.0), w, kmm, kml, bordered, agree,
                roundoff_floor(self._abs_gram, kmm, kml, w))
        if single:
            return PowerEvaluation(mu, *(v[0] for v in rows))
        return PowerEvaluation(mus, *rows)

    def lagrangian_norm_squared(self, ev: PowerEvaluation):
        """Squared norms of the add-one-in Lagrangians u_{mu,Lambda}, from
        the PowerEvaluation that power_squared returned: an array with NaN
        on excluded rows for a block, and a float for a single functional,
        which raises ExcludedCase if it is excluded.

        The Lagrangian is the representer of mu - sum_j mu(u_j) lambda_j
        scaled by 1/P^2, so its squared norm is the bordered form at
        (1, -w)/P^2, which is B/P^4.  The product with the Schur-route P^2
        is then B/P^2, the two routes' ratio: a genuine two-route
        consistency check.
        """
        excluded = ev.excluded
        if np.ndim(excluded) == 0 and excluded:
            raise ExcludedCase(
                f"power vanishes at {ev.mu!r}; no bump function exists")
        with np.errstate(divide="ignore", invalid="ignore"):
            norm2 = (1.0 / ev.k_mu_mu if self.factor is None
                     else np.maximum(ev.bordered, 0.0) / ev.power_squared ** 2)
        # [()] turns the 0-d result of a single functional into a scalar
        return np.where(excluded, np.nan, norm2)[()]


def power_squared(kernel, lam_set: FunctionalSet | None, mu: Functional) -> PowerEvaluation:
    return PowerContext(kernel, lam_set).power_squared(mu)


def lagrangian_norm_squared(kernel, lam_set: FunctionalSet | None, mu: Functional) -> float:
    ctx = PowerContext(kernel, lam_set)
    return ctx.lagrangian_norm_squared(ctx.power_squared(mu, cross_check=False))


def tradeoff_report(kernel, lam_set: FunctionalSet | None, eval_set) -> list[TradeoffReport]:
    """One report per evaluation functional: power, Lagrangian norm, product.
    Excluded (reproduced) functionals are flagged, not fatal, and so are
    unresolved ones (PowerEvaluation.unresolved), whose power lies below
    its roundoff floor F: F > UNRESOLVED_RTOL * P^2, or whose Schur and
    bordered routes disagree (PowerEvaluation.agree).  An
    unresolved row keeps its Schur power and the norm read off its bordered
    value, so its product is their ratio, but double precision does not
    decide them.  An excluded row stays excluded whatever its routes give.

    The rows come in blocks of _REPORT_BLOCK, and each block is one array
    pass: one power_squared call (one diag and one cross call, which spread
    the kernel's per-call cost over the block, one multi-right-hand-side
    solve of the factored Gram, the block's Schur values, bordered values,
    route checks and one product for the floors) and one
    lagrangian_norm_squared call.  The block solve rounds differently from
    a per-row one, so a row's power may differ from what power_squared of
    that functional alone gives by up to F.
    """
    ctx = PowerContext(kernel, lam_set)
    mus = list(eval_set)
    out = []
    for start in range(0, len(mus), _REPORT_BLOCK):
        ev = ctx.power_squared(mus[start:start + _REPORT_BLOCK], cross_check=False)
        norm = np.sqrt(ctx.lagrangian_norm_squared(ev))
        flags = np.where(ev.excluded, FLAG_EXCLUDED,
                         np.where(ev.unresolved, FLAG_UNRESOLVED, FLAG_OK))
        out += map(TradeoffReport, ev.mu, np.sqrt(ev.power_squared).tolist(),
                   norm.tolist(), flags.tolist())
    return out
