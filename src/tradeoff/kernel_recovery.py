"""Optimal kernel recovery: generalized interpolation, Lagrangians, the
bordered-Gram power function, and the equality form of the trade-off
principle (power times Lagrangian norm equals one)."""
from __future__ import annotations

import math
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
    """Squared add-one-in power of one evaluation functional, with the
    Lagrange values mu(u_j), the kernel row mu^x lambda_j^y K and the
    bordered-form value of the second route produced along the way."""

    mu: Functional
    power_squared: float
    lagrange_values: np.ndarray
    k_mu_mu: float
    k_mu_lambda: np.ndarray
    bordered: float
    clamped: bool = False

    @property
    def excluded(self) -> bool:
        return self.power_squared <= EXCLUDED_RTOL * self.k_mu_mu


def schur_batch(factor: linalg.SpdFactor, kmm: np.ndarray,
                kml: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Schur-complement powers (clamped at 0) and Lagrange values of a batch
    from the factored data Gram, kmm = K(mu, mu) and kml = K(mu, Lambda);
    the one symmetric solve behind every batched power."""
    w = factor.solve(kml.T)
    p2 = kmm - np.einsum("ij,ji->i", kml, w)
    return np.maximum(p2, 0.0), w.T


class PowerContext:
    """Factorization of the dual Gram of a functional set, reused across
    many evaluation functionals."""

    def __init__(self, kernel, lam_set: FunctionalSet | None):
        self.kernel = kernel
        self.lam_set = lam_set
        if lam_set is None or len(lam_set) == 0:
            self.gram = np.zeros((0, 0))
            self.factor = None
        else:
            self.gram = gram(kernel, lam_set)
            self.factor = linalg.factor_spd(self.gram)
            # max |diag(G)|, the scale of the cross-check's roundoff floor
            self._gram_scale = np.max(np.abs(np.diag(self.gram)))

    @property
    def jitter(self) -> float:
        return self.factor.jitter if self.factor is not None else 0.0

    @cached_property
    def _abs_gram(self) -> np.ndarray:
        return np.abs(self.gram)

    def roundoff_floor(self, kmm: np.ndarray, kml: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Roundoff floor of each squared power of a batch, from its
        K(mu, mu), K(mu, Lambda) and Lagrange values (one row each):

            F = n u (|K_mumu| + 2 |w|^T |k| + |w|^T |G| |w|) + jitter |w|^2

        for n data functionals and u = 2^-53.  The first term is the
        first-order error of P^2 = K_mumu - k^T w when the kernel values
        carry rounding errors of relative size u; the second is the shift a
        jittered factorization makes.  |W| |G| is one product for the batch.
        """
        n = len(self.gram)
        if n == 0:
            return np.zeros(len(kmm))
        aw = np.abs(w)
        quad = np.einsum("ij,ij->i", linalg.matmul(aw, self._abs_gram), aw)
        cross = np.einsum("ij,ij->i", aw, np.abs(kml))
        return (n * _U * (np.abs(kmm) + 2.0 * cross + quad)
                + self.jitter * np.einsum("ij,ij->i", w, w))

    def power_batch(self, mus) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Schur-complement powers for a batch of evaluation functionals.

        Returns (power_squared, lagrange_values, k_mu_mu); lagrange_values
        has one row per functional.
        """
        mus = list(mus)
        kmm = self.kernel.diag(mus)
        if self.factor is None:
            return np.maximum(kmm, 0.0), np.zeros((len(mus), 0)), kmm
        p2, lagrange = schur_batch(self.factor, kmm, self.kernel.cross(mus, self.lam_set))
        return p2, lagrange, kmm

    def power_squared(self, mu: Functional, cross_check: bool = True,
                      kernel_row: tuple | None = None,
                      lagrange_values: np.ndarray | None = None) -> PowerEvaluation:
        """Squared power via the Schur complement K_mumu - k^T w, with the
        Lagrange values w = G^-1 k, and the paper's second route: the
        bordered quadratic form B = K_mumu - 2 k^T w + w^T G w, the form of
        (1, -w) over the Gram of {mu} + Lambda.  With cross_check the two
        routes must agree or ArithmeticError is raised.

        kernel_row is (K(mu, mu), K(mu, Lambda)) when the caller already
        holds them (they must equal kernel.diag([mu])[0] and
        kernel.cross([mu], lam_set)[0]; the second is ignored without data);
        by default they are evaluated here.  lagrange_values is w when the
        caller has solved for it, as tradeoff_report does for a block of
        rows at once; by default it is solved for here.
        """
        if kernel_row is None:
            kmm = self.kernel.diag([mu])[0]
            kml = None if self.factor is None else self.kernel.cross([mu], self.lam_set)[0]
        else:
            kmm, kml = kernel_row
        kmm = float(kmm)
        if self.factor is None:
            return PowerEvaluation(mu, max(kmm, 0.0), np.zeros(0), kmm, np.zeros(0), kmm)
        w = self.factor.solve(kml) if lagrange_values is None else lagrange_values
        kw = float(kml @ w)
        schur = kmm - kw
        bordered = kmm - 2.0 * kw + float(w @ self.gram @ w)
        if cross_check:
            # the routes differ by w^T (G w - k); allow the backward-error
            # level of that residual besides the relative tolerance
            floor = 1e-13 * len(w) * (abs(kmm) + float(w @ w) * self._gram_scale)
            tol = _AGREE_RTOL * max(abs(schur), abs(bordered)) + floor
            if abs(bordered - schur) > tol:
                raise ArithmeticError(
                    f"power-function routes disagree: schur={schur:.6e} "
                    f"bordered={bordered:.6e}")
        return PowerEvaluation(mu, max(schur, 0.0), w, kmm, kml, bordered, schur < 0.0)

    def bordered_power_squared(self, mu: Functional) -> float:
        """The bordered quadratic form route on its own."""
        return self.power_squared(mu, cross_check=False).bordered

    def lagrangian_norm_squared(self, ev: PowerEvaluation) -> float:
        """Squared norm of the add-one-in Lagrangian u_{mu,Lambda}, from the
        PowerEvaluation of mu that power_squared returned.

        The Lagrangian is the representer of mu - sum_j mu(u_j) lambda_j
        scaled by 1/P^2, so its squared norm is the bordered form at
        (1, -w)/P^2, which is B/P^4.  The product with the Schur-route P^2
        is then B/P^2, the two routes' ratio: a genuine two-route
        consistency check.
        """
        if ev.excluded:
            raise ExcludedCase(
                f"power vanishes at {ev.mu!r}; no bump function exists")
        if self.factor is None:
            return 1.0 / ev.k_mu_mu
        return max(ev.bordered, 0.0) / ev.power_squared ** 2


def power_squared(kernel, lam_set: FunctionalSet | None, mu: Functional) -> PowerEvaluation:
    return PowerContext(kernel, lam_set).power_squared(mu)


def lagrangian_norm_squared(kernel, lam_set: FunctionalSet | None, mu: Functional) -> float:
    ctx = PowerContext(kernel, lam_set)
    return ctx.lagrangian_norm_squared(ctx.power_squared(mu, cross_check=False))


def tradeoff_report(kernel, lam_set: FunctionalSet | None, eval_set) -> list[TradeoffReport]:
    """One report per evaluation functional: power, Lagrangian norm, product.
    Excluded (reproduced) functionals are flagged, not fatal, and so are
    unresolved ones, whose power lies below its roundoff floor F
    (PowerContext.roundoff_floor): F > UNRESOLVED_RTOL * P^2, or whose
    Schur and bordered routes disagree (power_squared's cross-check).  An
    unresolved row keeps its Schur power and the norm read off its bordered
    value, so its product is their ratio, but double precision does not
    decide them.  An excluded row stays excluded whatever its routes give.

    The rows come in blocks of _REPORT_BLOCK.  Each block takes one diag
    and one cross call, which spreads the kernel's per-call cost (layout,
    Vandermonde) over the block, one multi-right-hand-side solve of the
    factored Gram for the block's Lagrange values, and one product for its
    floors.  Each row then gets its own Schur value and bordered-form
    cross-check from power_squared, and its norm is read off that bordered
    value.  The block solve rounds differently from a per-row one, so a
    row's power may differ from what power_squared alone gives by up to F.
    """
    ctx = PowerContext(kernel, lam_set)
    mus = list(eval_set)
    out = []
    for start in range(0, len(mus), _REPORT_BLOCK):
        block = mus[start:start + _REPORT_BLOCK]
        kmm = kernel.diag(block)
        if ctx.factor is None:
            kml = w = np.empty((len(block), 0))
        else:
            kml = kernel.cross(block, lam_set)
            w = ctx.factor.solve(kml.T).T
        floor = ctx.roundoff_floor(kmm, kml, w)
        for mu, kmm_i, kml_i, w_i, floor_i in zip(block, kmm, kml, w, floor):
            args = dict(kernel_row=(kmm_i, kml_i), lagrange_values=w_i)
            try:
                ev, disagree = ctx.power_squared(mu, **args), False
            except ArithmeticError:
                ev, disagree = ctx.power_squared(mu, cross_check=False, **args), True
            if ev.excluded:
                norm, flag = math.nan, FLAG_EXCLUDED
            else:
                norm = math.sqrt(ctx.lagrangian_norm_squared(ev))
                flag = (FLAG_UNRESOLVED
                        if disagree or floor_i > UNRESOLVED_RTOL * ev.power_squared
                        else FLAG_OK)
            out.append(TradeoffReport(mu=mu, power=math.sqrt(ev.power_squared),
                                      stability_norm=norm, flag=flag))
    return out
