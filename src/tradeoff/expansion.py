"""Recovery methods on spaces with weighted coefficient norms or classical
seminorms: polynomial interpolation, connect-the-dots, Taylor data,
orthogonal series, and weighted Chebyshev expansions.

The closed forms (poly_*, ctd_*, taylor_*, ortho_power_and_bump) take one
case, returning floats, or a batch of cases as arrays, returning arrays that
equal the single values bit for bit; an error in a batch names its first
row at fault."""
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
    at_first_row,
)
from .functionals import FunctionalSet, apply_to_coeffs, vandermonde
from .weights import WeightRule, parse_weight_rule, weight_array


@dataclass
class ExpansionFunction:
    """A function given by finitely many Chebyshev coefficients, normed by
    sqrt(sum a_j^2 w_j) under its weight rule."""

    coeffs: np.ndarray
    weight_rule: WeightRule = field(repr=False)

    def __post_init__(self):
        self.coeffs = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("coefficients must be finite")

    def weight_vector(self) -> np.ndarray:
        return weight_array(self.weight_rule, len(self.coeffs) - 1)

    def norm_squared(self) -> float:
        return float(np.sum(self.coeffs ** 2 * self.weight_vector()))

    def norm(self) -> float:
        return math.sqrt(self.norm_squared())

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return np.polynomial.chebyshev.chebval(x, self.coeffs)


def _scalar_or_array(a: np.ndarray):
    """A single case's value as a float, a batch's as its array."""
    return float(a) if a.ndim == 0 else a


# ---------------------------------------------------------------------------
# polynomial interpolation under the sup-norm of the (n+1)-st derivative

def _poly_args(nodes, x) -> tuple[np.ndarray, np.ndarray]:
    """nodes as a C-ordered float array with one node set along its last
    axis, and x as a float array over the batch axes; raises DuplicateNodes
    naming the first node set with a repeated node."""
    nodes = np.ascontiguousarray(np.atleast_1d(np.asarray(nodes, dtype=float)))
    s = np.sort(nodes, axis=-1)
    # NaNs sort last, so a NaN before the last place means two of them
    repeated = ((s[..., 1:] == s[..., :-1]) | np.isnan(s[..., :-1])).any(-1)
    if repeated.any():
        raise DuplicateNodes("interpolation nodes must be distinct" + at_first_row(repeated))
    return nodes, np.asarray(x, dtype=float, order="C")


def poly_power(nodes, x):
    """Add-one-in power of polynomial interpolation:
    (1/(n+1)!) * prod_j |x - x_j|.

    nodes holds one node set of n+1 nodes along its last axis and x one
    point per node set; the batch axes broadcast.  Scalar x with one node
    set gives a float, a batch an array, elementwise the single values bit
    for bit: each product runs over exactly its own row."""
    nodes, x = _poly_args(nodes, x)
    prod = np.prod(np.abs(x[..., None] - nodes), axis=-1)
    return _scalar_or_array(prod / math.factorial(nodes.shape[-1]))


def poly_lagrangian_seminorm(nodes, x):
    """Sup-norm of the (n+1)-st derivative of the add-one-in Lagrangian:
    (n+1)! * prod_j |x - x_j|^-1.  Its product with poly_power is one.

    Takes batches as poly_power does; raises NodeCoincidence naming the
    first x that hits a node of its set."""
    nodes, x = _poly_args(nodes, x)
    diffs = np.abs(x[..., None] - nodes)
    hit = (diffs == 0.0).any(-1)
    if hit.any():
        x_at = np.broadcast_to(x, hit.shape)[hit].flat[0]
        raise NodeCoincidence(f"x = {x_at} coincides with a node" + at_first_row(hit))
    return _scalar_or_array(math.factorial(nodes.shape[-1]) / np.prod(diffs, axis=-1))


# ---------------------------------------------------------------------------
# connect-the-dots in C_0^1 under the sup norm of the first derivative

def _cell(xk, xk1, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """xk, xk1 and x as float arrays, each x strictly inside its cell
    (xk, xk1) after broadcasting; raises OutOfCell naming the first element
    that is not (a NaN is never inside)."""
    xk, xk1, x = (np.asarray(v, dtype=float) for v in (xk, xk1, x))
    inside = (xk < x) & (x < xk1)
    if not inside.all():
        xk, xk1, x, inside = np.broadcast_arrays(xk, xk1, x, inside)
        i = np.flatnonzero(~inside)[0]
        raise OutOfCell(f"x = {x.flat[i]} is not inside ({xk.flat[i]}, {xk1.flat[i]})")
    return xk, xk1, x


def ctd_power(xk, xk1, x):
    """Add-one-in power of piecewise-linear interpolation on a cell:
    2 (x_{k+1} - x)(x - x_k) / (x_{k+1} - x_k).

    Accepts scalars (returning a float) or arrays that broadcast together
    (returning an array, elementwise the scalar values bit for bit)."""
    xk, xk1, x = _cell(xk, xk1, x)
    return _scalar_or_array(2.0 * (xk1 - x) * (x - xk) / (xk1 - xk))


def ctd_lagrangian_norm(xk, xk1, x):
    """Norm of the hat Lagrangian at x: 1 / min(x_{k+1} - x, x - x_k).
    The product with ctd_power lies in [1, 2], hitting 1 at midpoints.

    Accepts scalars or broadcasting arrays, as ctd_power does."""
    xk, xk1, x = _cell(xk, xk1, x)
    return _scalar_or_array(1.0 / np.minimum(xk1 - x, x - xk))


# ---------------------------------------------------------------------------
# Taylor data in weighted analytic spaces

_TAYLOR_PROBE = 200


def _taylor_terms(rho, k) -> tuple[WeightRule, np.ndarray, np.ndarray]:
    """rho_k and k! as float arrays shaped like k, each evaluated once per
    distinct k by the scalar rule and math.factorial; raises BadWeights
    naming the first k whose rho_k is not positive and finite."""
    rule = parse_weight_rule(rho)
    k = np.asarray(k)
    ks, inverse = np.unique(k, return_inverse=True)
    ks, inverse = ks.tolist(), inverse.reshape(k.shape)
    rk = np.array([float(rule(j)) for j in ks])[inverse]
    bad = (rk <= 0) | ~np.isfinite(rk)
    if bad.any():
        i = np.flatnonzero(bad)[0]
        raise BadWeights(f"rho_{k.flat[i]} = {rk.flat[i]} must be positive"
                         + at_first_row(bad))
    return rule, rk, np.array([float(math.factorial(j)) for j in ks])[inverse]


def taylor_power(rho, k):
    """Leave-last-out power for Taylor data: sqrt(rho_k) / k!.

    rho is a weight rule: a rule string, a positive number or a WeightRule.
    k is an integer (giving a float) or an integer array (giving an array,
    elementwise the scalar values bit for bit).  Warns when the partial sums
    of rho_j / (j!)^2 look divergent up to the probe horizon _TAYLOR_PROBE;
    the probe depends on the rule alone, so it runs once per call.  The
    constraint is analytic, so a finite check can only warn, never prove.
    """
    rule, rk, fact = _taylor_terms(rho, k)
    log_terms = np.array(
        [rule.log(j) - 2.0 * math.lgamma(j + 1)
         for j in range(_TAYLOR_PROBE - 10, _TAYLOR_PROBE)])
    if np.all(np.diff(log_terms) > 0) and log_terms[-1] > -1.0:
        warnings.warn(
            "weight sequence rho_j/(j!)^2 looks divergent up to the probe "
            "horizon; the Taylor space may be ill-defined", stacklevel=2)
    return _scalar_or_array(np.sqrt(rk) / fact)


def taylor_lagrangian_norm(rho, k):
    """Norm of the monomial Lagrangian z^k: k! / sqrt(rho_k); k is an
    integer or an integer array, as in taylor_power."""
    _, rk, fact = _taylor_terms(rho, k)
    return _scalar_or_array(fact / np.sqrt(rk))


# ---------------------------------------------------------------------------
# orthogonal series

def ortho_power_and_bump(mu_coeffs):
    """Tail power and norm-minimal bump for orthonormal-coefficient data.

    Given mu(u_j) for the tail indices j beyond the data cutoff, the squared
    power is the tail sum of squares, the minimal bump has coefficients
    a_j = mu(u_j)/power^2, and its norm is the reciprocal power.

    Returns (power, bump_coeffs, bump_norm).  mu_coeffs is one tail, giving
    float power and norm, or a batch with one tail along its last axis,
    giving arrays, elementwise the single values bit for bit: each sum runs
    over exactly its own row, so tails of different lengths go in separate
    calls.  Raises DegenerateEvaluation naming the first tail that vanishes.
    """
    mu_coeffs = np.ascontiguousarray(np.atleast_1d(np.asarray(mu_coeffs, dtype=float)))
    p2 = np.sum(mu_coeffs ** 2, axis=-1)
    vanishing = p2 == 0.0
    if vanishing.any():
        raise DegenerateEvaluation(
            "all tail coefficients vanish; no bump function exists"
            + at_first_row(vanishing))
    bump = mu_coeffs / p2[..., None]
    bump_norm = np.sqrt(np.sum(bump ** 2, axis=-1))
    return _scalar_or_array(np.sqrt(p2)), bump, _scalar_or_array(bump_norm)


# ---------------------------------------------------------------------------
# weighted Chebyshev expansions (chebfun-style spaces)

def cheb_lagrangians(lam_set: FunctionalSet, weights, n: int) -> list[ExpansionFunction]:
    """Lagrange basis u_i with lambda_j(u_i) = delta_ij, as degree-n
    Chebyshev expansions; solves the functional-Vandermonde system."""
    if len(lam_set) != n + 1:
        raise SingularVandermonde(
            f"need exactly n+1 = {n + 1} functionals, got {len(lam_set)}")
    v = vandermonde(lam_set, n)
    try:
        a = np.linalg.solve(v.T, np.eye(n + 1))
    except np.linalg.LinAlgError as exc:
        raise SingularVandermonde(str(exc)) from None
    if not np.all(np.isfinite(a)):
        raise SingularVandermonde("Vandermonde solve produced non-finite values")
    rule = parse_weight_rule(weights)
    return [ExpansionFunction(a[i], rule) for i in range(n + 1)]


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
    mu_u = np.array([apply_to_coeffs(mu, u.coeffs) for u in lagr])
    lam_tail = vandermonde(lam_set, tail_order)[:, n + 1:]
    mu_tail = vandermonde([mu], tail_order)[0, n + 1:]
    return mu_tail - mu_u @ lam_tail


def cheb_bump_min(lam_set, weights, tail_order: int, mu) -> ExpansionFunction:
    """Norm-minimal bump in span(T_0..T_K): minimize sum a_k^2 w_k subject
    to lambda_j(f) = 0 for all j and mu(f) = 1, by the weighted least-norm
    solution a = W^-1 B^T (B W^-1 B^T)^-1 e."""
    lams = list(lam_set) if lam_set is not None else []
    b = vandermonde(lams + [mu], tail_order)
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
    return ExpansionFunction(coeffs, parse_weight_rule(weights))
