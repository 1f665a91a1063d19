"""Recovery methods on spaces with weighted coefficient norms or classical
seminorms: polynomial interpolation, connect-the-dots, Taylor data,
orthogonal series, and weighted Chebyshev expansions."""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadWeights,
    DegenerateEvaluation,
    DuplicateNodes,
    NodeCoincidence,
    OutOfCell,
    RankDeficientConstraints,
    SingularVandermonde,
)
from .functionals import CHEBYSHEV, FunctionalSet, apply_to_coeffs, vandermonde
from .weights import WeightRule, parse_weight_rule, weight_array


@dataclass
class ExpansionFunction:
    """A function given by finitely many coefficients against a named basis,
    normed by sqrt(sum a_j^2 w_j)."""

    basis: str
    coeffs: np.ndarray
    weight_rule: WeightRule | None = field(default=None, repr=False)

    def __post_init__(self):
        self.coeffs = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("coefficients must be finite")

    def weight_vector(self) -> np.ndarray:
        if self.weight_rule is None:
            raise BadWeights("no weight rule attached to this expansion")
        return weight_array(self.weight_rule, len(self.coeffs) - 1)

    def norm_squared(self) -> float:
        return float(np.sum(self.coeffs ** 2 * self.weight_vector()))

    def norm(self) -> float:
        return math.sqrt(self.norm_squared())

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.basis == CHEBYSHEV:
            return np.polynomial.chebyshev.chebval(x, self.coeffs)
        return np.polynomial.polynomial.polyval(x, self.coeffs)


# ---------------------------------------------------------------------------
# polynomial interpolation under the sup-norm of the (n+1)-st derivative

def poly_power(nodes, x: float) -> float:
    """Add-one-in power of polynomial interpolation:
    (1/(n+1)!) * prod_j |x - x_j|."""
    nodes = np.asarray(nodes, dtype=float)
    if len(np.unique(nodes)) != nodes.size:
        raise DuplicateNodes("interpolation nodes must be distinct")
    n = nodes.size - 1
    return float(np.prod(np.abs(x - nodes)) / math.factorial(n + 1))


def poly_lagrangian_seminorm(nodes, x: float) -> float:
    """Sup-norm of the (n+1)-st derivative of the add-one-in Lagrangian:
    (n+1)! * prod_j |x - x_j|^-1.  Its product with poly_power is one."""
    nodes = np.asarray(nodes, dtype=float)
    if len(np.unique(nodes)) != nodes.size:
        raise DuplicateNodes("interpolation nodes must be distinct")
    diffs = np.abs(x - nodes)
    if np.any(diffs == 0.0):
        raise NodeCoincidence(f"x = {x} coincides with a node")
    n = nodes.size - 1
    return float(math.factorial(n + 1) / np.prod(diffs))


# ---------------------------------------------------------------------------
# connect-the-dots in C_0^1 under the sup norm of the first derivative

def _check_cell(xk: float, xk1: float, x: float):
    if not xk < x < xk1:
        raise OutOfCell(f"x = {x} is not inside ({xk}, {xk1})")


def ctd_power(xk: float, xk1: float, x: float) -> float:
    """Add-one-in power of piecewise-linear interpolation on a cell:
    2 (x_{k+1} - x)(x - x_k) / (x_{k+1} - x_k)."""
    _check_cell(xk, xk1, x)
    return 2.0 * (xk1 - x) * (x - xk) / (xk1 - xk)


def ctd_lagrangian_norm(xk: float, xk1: float, x: float) -> float:
    """Norm of the hat Lagrangian at x: 1 / min(x_{k+1} - x, x - x_k).
    The product with ctd_power lies in [1, 2], hitting 1 at midpoints."""
    _check_cell(xk, xk1, x)
    return 1.0 / min(xk1 - x, x - xk)


# ---------------------------------------------------------------------------
# Taylor data in weighted analytic spaces

_TAYLOR_PROBE = 200


def taylor_power(rho, k: int) -> float:
    """Leave-last-out power for Taylor data: sqrt(rho_k) / k!.

    rho is a weight rule: a rule string, a positive number or a WeightRule.
    Warns when the partial sums of rho_j / (j!)^2 look divergent up to the
    probe horizon _TAYLOR_PROBE; the constraint is analytic, so a finite
    check can only warn, never prove.
    """
    rule = parse_weight_rule(rho)
    rk = float(rule(k))
    if rk <= 0 or not np.isfinite(rk):
        raise BadWeights(f"rho_{k} = {rk} must be positive")
    log_terms = np.array(
        [rule.log(j) - 2.0 * math.lgamma(j + 1)
         for j in range(_TAYLOR_PROBE - 10, _TAYLOR_PROBE)])
    if np.all(np.diff(log_terms) > 0) and log_terms[-1] > -1.0:
        warnings.warn(
            "weight sequence rho_j/(j!)^2 looks divergent up to the probe "
            "horizon; the Taylor space may be ill-defined", stacklevel=2)
    return math.sqrt(rk) / math.factorial(k)


def taylor_lagrangian_norm(rho, k: int) -> float:
    """Norm of the monomial Lagrangian z^k: k! / sqrt(rho_k)."""
    rule = parse_weight_rule(rho)
    rk = float(rule(k))
    if rk <= 0 or not np.isfinite(rk):
        raise BadWeights(f"rho_{k} = {rk} must be positive")
    return math.factorial(k) / math.sqrt(rk)


# ---------------------------------------------------------------------------
# orthogonal series

def ortho_power_and_bump(mu_coeffs):
    """Tail power and norm-minimal bump for orthonormal-coefficient data.

    Given mu(u_j) for the tail indices j beyond the data cutoff, the squared
    power is the tail sum of squares, the minimal bump has coefficients
    a_j = mu(u_j)/power^2, and its norm is the reciprocal power.

    Returns (power, bump_coeffs, bump_norm).
    """
    mu_coeffs = np.atleast_1d(np.asarray(mu_coeffs, dtype=float))
    p2 = float(np.sum(mu_coeffs ** 2))
    if p2 == 0.0:
        raise DegenerateEvaluation(
            "all tail coefficients vanish; no bump function exists")
    power = math.sqrt(p2)
    bump = mu_coeffs / p2
    bump_norm = math.sqrt(float(np.sum(bump ** 2)))
    return power, bump, bump_norm


# ---------------------------------------------------------------------------
# weighted Chebyshev expansions (chebfun-style spaces)

def cheb_lagrangians(lam_set: FunctionalSet, weights, n: int) -> list[ExpansionFunction]:
    """Lagrange basis u_i with lambda_j(u_i) = delta_ij, as degree-n
    Chebyshev expansions; solves the functional-Vandermonde system."""
    if len(lam_set) != n + 1:
        raise SingularVandermonde(
            f"need exactly n+1 = {n + 1} functionals, got {len(lam_set)}")
    v = vandermonde(lam_set, CHEBYSHEV, n)
    try:
        a = np.linalg.solve(v.T, np.eye(n + 1))
    except np.linalg.LinAlgError as exc:
        raise SingularVandermonde(str(exc)) from None
    if not np.all(np.isfinite(a)):
        raise SingularVandermonde("Vandermonde solve produced non-finite values")
    rule = parse_weight_rule(weights)
    return [ExpansionFunction(CHEBYSHEV, a[i], rule) for i in range(n + 1)]


def cheb_power_addone(lam_set: FunctionalSet, weights, n: int, tail_order: int,
                      mu) -> float:
    """Add-one-in power of the degree-n interpolatory recovery in the
    weighted Chebyshev space, truncating the tail sum at tail_order:

        P^2 = sum_{k=n+1}^{K} mu(eps_k)^2 / w_k,
        eps_k = T_k - sum_j lambda_j(T_k) u_j.
    """
    if tail_order <= n:
        raise ValueError(f"tail order {tail_order} must exceed n = {n}")
    mu_eps = _tail_errors(lam_set, weights, n, tail_order, mu)
    w = weight_array(weights, tail_order)[n + 1:]
    return math.sqrt(float(np.sum(mu_eps ** 2 / w)))


def cheb_power_one_term(lam_set: FunctionalSet, weights, n: int, mu) -> float:
    """First-tail-term lower bound of the add-one-in power:
    |mu(eps_{n+1})| / sqrt(w_{n+1})."""
    mu_eps = _tail_errors(lam_set, weights, n, n + 1, mu)
    w = weight_array(weights, n + 1)
    return abs(float(mu_eps[0])) / math.sqrt(w[n + 1])


def _tail_errors(lam_set, weights, n, tail_order, mu) -> np.ndarray:
    lagr = cheb_lagrangians(lam_set, weights, n)
    mu_u = np.array([apply_to_coeffs(mu, CHEBYSHEV, u.coeffs) for u in lagr])
    lam_tail = vandermonde(lam_set, CHEBYSHEV, tail_order)[:, n + 1:]
    mu_tail = vandermonde([mu], CHEBYSHEV, tail_order)[0, n + 1:]
    return mu_tail - mu_u @ lam_tail


def cheb_bump_min(lam_set, weights, tail_order: int, mu) -> ExpansionFunction:
    """Norm-minimal bump in span(T_0..T_K): minimize sum a_k^2 w_k subject
    to lambda_j(f) = 0 for all j and mu(f) = 1, by the weighted least-norm
    solution a = W^-1 B^T (B W^-1 B^T)^-1 e."""
    lams = list(lam_set) if lam_set is not None else []
    b = vandermonde(lams + [mu], CHEBYSHEV, tail_order)
    w = weight_array(weights, tail_order)
    gram = (b / w) @ b.T
    e = np.zeros(len(lams) + 1)
    e[-1] = 1.0
    try:
        sol = np.linalg.solve(gram, e)
    except np.linalg.LinAlgError as exc:
        raise RankDeficientConstraints(str(exc)) from None
    coeffs = (b.T @ sol) / w
    if not np.all(np.isfinite(coeffs)) or np.max(np.abs(b @ coeffs - e)) > 1e-8:
        raise RankDeficientConstraints(
            "constraint system is rank deficient in the truncated space")
    return ExpansionFunction(CHEBYSHEV, coeffs, parse_weight_rule(weights))
