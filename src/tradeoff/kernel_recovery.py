"""Optimal kernel recovery: generalized interpolation, Lagrangians, the
bordered-Gram power function, and the equality form of the trade-off
principle (power times Lagrangian norm equals one)."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ExcludedCase
from .functionals import Functional, FunctionalSet
from .kernels import gram
from .report import FLAG_EXCLUDED, FLAG_OK, TradeoffReport

# mu counts as reproduced (excluded case) below this fraction of K_mu_mu
EXCLUDED_RTOL = 1e-12

# the two power-function routes must agree this closely, with an absolute
# floor so roundoff near the excluded case cannot trip the check
_AGREE_RTOL = 1e-7

# tradeoff_report evaluates its rows' kernel values this many rows at a
# time: one diag and one cross call per block, while a block's cross
# (rows x N) stays small beside the Gram
_REPORT_BLOCK = 128


@dataclass(frozen=True)
class PowerEvaluation:
    """Squared add-one-in power of one evaluation functional, with the
    Lagrange values mu(u_j) and the kernel row mu^x lambda_j^y K produced
    along the way."""

    mu: Functional
    power_squared: float
    lagrange_values: np.ndarray
    k_mu_mu: float
    k_mu_lambda: np.ndarray
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

    def _bordered_form(self, c0: float, c: np.ndarray, kmm: float,
                       kml: np.ndarray) -> float:
        """Quadratic form of (c0, c) over the Gram of {mu} + Lambda bordered
        by the row kml = mu^x lambda_j^y K.

        This is the paper's second route to the power function, kept as the
        independent check of the Schur complement: at (1, -mu(u_j)) it is
        P^2, and at that vector over P^2 it is the squared Lagrangian norm.
        """
        return c0 * c0 * kmm + 2.0 * c0 * float(c @ kml) + float(c @ self.gram @ c)

    def power_squared(self, mu: Functional, cross_check: bool = True,
                      kernel_row: tuple | None = None) -> PowerEvaluation:
        """Squared power via the Schur complement, cross-checked against the
        bordered quadratic form with coefficients (1, -mu(u_1), ..., -mu(u_N)).

        kernel_row is (K(mu, mu), K(mu, Lambda)) when the caller already
        holds them (they must equal kernel.diag([mu])[0] and
        kernel.cross([mu], lam_set)[0]; the second is ignored without data);
        by default they are evaluated here.
        """
        if kernel_row is None:
            kmm = self.kernel.diag([mu])[0]
            kml = None if self.factor is None else self.kernel.cross([mu], self.lam_set)[0]
        else:
            kmm, kml = kernel_row
        kmm = float(kmm)
        if self.factor is None:
            return PowerEvaluation(mu, max(kmm, 0.0), np.zeros(0), kmm, np.zeros(0))
        w = self.factor.solve(kml)
        schur = kmm - float(kml @ w)
        if cross_check:
            bordered = self._bordered_form(1.0, -w, kmm, kml)
            # the routes differ by w^T (G w - k); allow the backward-error
            # level of that residual besides the relative tolerance
            floor = 1e-13 * len(w) * (abs(kmm) + float(w @ w) * self._gram_scale)
            tol = _AGREE_RTOL * max(abs(schur), abs(bordered)) + floor
            if abs(bordered - schur) > tol:
                raise ArithmeticError(
                    f"power-function routes disagree: schur={schur:.6e} "
                    f"bordered={bordered:.6e}")
        return PowerEvaluation(mu, max(schur, 0.0), w, kmm, kml, schur < 0.0)

    def bordered_power_squared(self, mu: Functional) -> float:
        """The bordered quadratic form route on its own."""
        ev = self.power_squared(mu, cross_check=False)
        return self._bordered_form(1.0, -ev.lagrange_values, ev.k_mu_mu, ev.k_mu_lambda)

    def lagrangian_norm_squared(self, ev: PowerEvaluation) -> float:
        """Squared norm of the add-one-in Lagrangian u_{mu,Lambda}, from the
        PowerEvaluation of mu that power_squared returned.

        The Lagrangian is the representer of mu - sum_j mu(u_j) lambda_j
        scaled by 1/P^2; its norm comes from the bordered quadratic form
        over the extended Gram, so the product with the Schur-route P^2
        is a genuine two-route consistency check.
        """
        if ev.excluded:
            raise ExcludedCase(
                f"power vanishes at {ev.mu!r}; no bump function exists")
        if self.factor is None:
            return 1.0 / ev.k_mu_mu
        c = np.concatenate(([1.0], -ev.lagrange_values)) / ev.power_squared
        return max(self._bordered_form(c[0], c[1:], ev.k_mu_mu, ev.k_mu_lambda), 0.0)


def power_squared(kernel, lam_set: FunctionalSet | None, mu: Functional) -> PowerEvaluation:
    return PowerContext(kernel, lam_set).power_squared(mu)


def lagrangian_norm_squared(kernel, lam_set: FunctionalSet | None, mu: Functional) -> float:
    ctx = PowerContext(kernel, lam_set)
    return ctx.lagrangian_norm_squared(ctx.power_squared(mu, cross_check=False))


def tradeoff_report(kernel, lam_set: FunctionalSet | None, eval_set) -> list[TradeoffReport]:
    """One report per evaluation functional: power, Lagrangian norm, product.
    Excluded (reproduced) functionals are flagged, not fatal.

    The rows' kernel values come in blocks of _REPORT_BLOCK rows, one diag
    and one cross call per block, which spreads the kernel's per-call cost
    (layout, Vandermonde) over the block and keeps a block's cross small.
    Each row then gets its own Schur solve and bordered-form cross-check, as
    power_squared does alone: a multi-right-hand-side solve rounds
    differently from the per-row one, so it would move the powers' bits.
    """
    ctx = PowerContext(kernel, lam_set)
    mus = list(eval_set)
    out = []
    for start in range(0, len(mus), _REPORT_BLOCK):
        block = mus[start:start + _REPORT_BLOCK]
        kmm = kernel.diag(block)
        kml = (np.empty((len(block), 0)) if ctx.factor is None
               else kernel.cross(block, lam_set))
        for mu, row in zip(block, zip(kmm, kml)):
            ev = ctx.power_squared(mu, kernel_row=row)
            norm = math.nan if ev.excluded else math.sqrt(ctx.lagrangian_norm_squared(ev))
            out.append(TradeoffReport(
                mu=mu, power=math.sqrt(ev.power_squared), stability_norm=norm,
                flag=FLAG_EXCLUDED if ev.excluded else FLAG_OK))
    return out
