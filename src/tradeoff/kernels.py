"""Positive-definite kernels with functional application on each argument.

Both kernels expose the dual inner product (lambda, mu) = lambda^x mu^y K(x, y):
scalar application via ``apply``, vectorized set-against-set assembly via
``cross``.  The Whittle-Matern radial profile is

    phi(r) = 2^(1-nu)/Gamma(nu) * (r/c)^nu * K_nu(r/c),   nu = m - d/2,

normalized so phi(0) = 1; its native space is the Sobolev space H^m.
Derivative applications ride on the identity d/ds [s^a K_a(s)] = -s^(a-1)...
more precisely, with g_a(s) := s^a K_a(s),

    g_a'(s) = -s g_{a-1}(s),

so every mixed derivative of the kernel is a finite sum of terms
u^p g_a(|u|), differentiated termwise.  The radial Laplacian in d dimensions
maps s^p g_a to

    p(p+d-2) s^(p-2) g_a  -  (2p+d) s^p g_{a-1}  +  s^(p+2) g_{a-2}.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import gamma as _gamma
from scipy.special import kv as _kv

from .errors import UnsupportedPair
from .functionals import CHEBYSHEV, Functional, vandermonde
from .weights import weight_array

# below s = r/c < 1e-6 the g-terms switch to their r -> 0 limits
_SMALL_S = 1e-6


def _g_pow(p: int, a: float, s: np.ndarray) -> np.ndarray:
    """Evaluate |u|^p g_a(|u|) = s^(p+a) K_|a|(s) elementwise, s >= 0.

    The s -> 0 limit is 0 for p+a > |a| and 2^(|a|-1) Gamma(|a|) for
    p+a = |a| > 0; other cases are divergent and rejected upstream.
    """
    q, b = p + a, abs(a)
    if q < b or (q == b and b == 0.0):
        raise UnsupportedPair("kernel derivative does not exist (nu too small)")
    s = np.asarray(s, dtype=float)
    out = np.empty_like(s)
    small = s < _SMALL_S
    ns = s[~small]
    out[~small] = ns ** q * _kv(b, ns)
    if small.any():
        out[small] = 0.0 if q > b else 2.0 ** (b - 1.0) * _gamma(b)
    return out


def _d_du(terms: dict) -> dict:
    """Differentiate sum of coeff * u^p g_a(|u|) termwise in u."""
    out: dict = {}
    for (p, a), coeff in terms.items():
        if p:
            out[(p - 1, a)] = out.get((p - 1, a), 0.0) + p * coeff
        out[(p + 1, a - 1)] = out.get((p + 1, a - 1), 0.0) - coeff
    return {k: v for k, v in out.items() if v != 0.0}


def _laplace(terms: dict, d: int) -> dict:
    """Apply the d-dimensional radial Laplacian termwise (even profiles)."""
    out: dict = {}

    def add(p, a, v):
        if v != 0.0:
            out[(p, a)] = out.get((p, a), 0.0) + v

    for (p, a), coeff in terms.items():
        add(p - 2, a, p * (p + d - 2) * coeff)
        add(p, a - 1, -(2 * p + d) * coeff)
        add(p + 2, a - 2, coeff)
    return out


def _functional_order(f: Functional, d: int) -> int:
    """Total derivative order of f for a radial kernel on R^d."""
    if f.order is None:
        raise UnsupportedPair(f"{f!r} is not supported by a radial kernel")
    if f.dim != d:
        raise UnsupportedPair(f"{f!r} acts on R^{f.dim}, kernel lives on R^{d}")
    if f.order > 2:
        raise UnsupportedPair("derivative order > 2 is not supported")
    if d == 2 and f.order % 2:
        raise UnsupportedPair("in 2-d a radial kernel applies only the Laplacian")
    return f.order


class MaternSobolevKernel:
    """Whittle-Matern kernel of Sobolev order m on R^d at length scale c.

    Supports every functional on R^d with a radial-kernel ``order`` <= 2:
    point evaluations, LaplacianEval in 2-d, and DerivEval in 1-d.  An
    application needs nu = m - d/2 > (total derivative order)/2; in
    particular Laplacian-against-Laplacian needs nu > 2.
    """

    def __init__(self, m: int, d: int, c: float = 1.0):
        if d not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {d}")
        if m < 3:
            raise ValueError(f"Sobolev order must be >= 3, got {m}")
        if c <= 0:
            raise ValueError(f"scale must be positive, got {c}")
        self.m = int(m)
        self.d = int(d)
        self.c = float(c)
        self.nu = m - d / 2.0
        self._norm = 2.0 ** (1.0 - self.nu) / _gamma(self.nu)

    def __repr__(self) -> str:
        return f"MaternSobolevKernel(m={self.m}, d={self.d}, c={self.c})"

    def __eq__(self, other) -> bool:
        return (isinstance(other, MaternSobolevKernel)
                and (self.m, self.d, self.c) == (other.m, other.d, other.c))

    def __hash__(self) -> int:
        return hash((self.m, self.d, self.c))

    @lru_cache(maxsize=None)
    def _terms(self, n_total: int) -> tuple:
        """Term stack for n_total kernel derivatives (1-d) or n_total/2
        Laplacian applications (2-d)."""
        if self.nu <= n_total / 2.0:
            raise UnsupportedPair(
                f"nu = {self.nu} supports derivative order < {2 * self.nu}, "
                f"needed {n_total}")
        terms = {(0, self.nu): 1.0}
        if self.d == 1:
            for _ in range(n_total):
                terms = _d_du(terms)
        else:
            for _ in range(n_total // 2):
                terms = _laplace(terms, self.d)
        return tuple(sorted(terms.items()))

    def _radial(self, n_a: int, n_b: int, u: np.ndarray) -> np.ndarray:
        """lambda^x mu^y K for derivative orders (n_a, n_b); u is the signed
        difference (x-y)/c in 1-d, the distance r/c in 2-d."""
        n = n_a + n_b
        terms = self._terms(n)
        s = np.abs(u)
        acc = np.zeros_like(s)
        for (p, a), coeff in terms:
            val = _g_pow(p, a, s)
            if p % 2:
                val = val * np.sign(u)
            acc += coeff * val
        sign = -1.0 if (self.d == 1 and n_b % 2) else 1.0
        return sign * self._norm * acc / self.c ** n

    def apply(self, lam: Functional, mu: Functional) -> float:
        n_a = _functional_order(lam, self.d)
        n_b = _functional_order(mu, self.d)
        diff = np.asarray(lam.site, dtype=float) - np.asarray(mu.site, dtype=float)
        u = diff[0] / self.c if self.d == 1 else np.linalg.norm(diff) / self.c
        return float(self._radial(n_a, n_b, np.asarray(u)))

    def cross(self, set_a, set_b) -> np.ndarray:
        """Matrix of apply(a_i, b_j), assembled blockwise by derivative order."""
        fa, fb = list(set_a), list(set_b)
        orders_a = [_functional_order(f, self.d) for f in fa]
        orders_b = [_functional_order(f, self.d) for f in fb]
        pts_a = np.array([f.site for f in fa], dtype=float)
        pts_b = np.array([f.site for f in fb], dtype=float)
        out = np.empty((len(fa), len(fb)))
        for na in sorted(set(orders_a)):
            ia = np.flatnonzero(np.array(orders_a) == na)
            for nb in sorted(set(orders_b)):
                ib = np.flatnonzero(np.array(orders_b) == nb)
                diff = pts_a[ia][:, None, :] - pts_b[ib][None, :, :]
                if self.d == 1:
                    u = diff[:, :, 0] / self.c
                else:
                    u = np.sqrt(np.maximum((diff ** 2).sum(-1), 0.0)) / self.c
                out[np.ix_(ia, ib)] = self._radial(na, nb, u)
        return out

    def diag(self, fset) -> np.ndarray:
        return np.array([self.apply(f, f) for f in fset])


class ChebWeightKernel:
    """Truncated weighted-Chebyshev kernel K(x,y) = sum_j T_j(x) T_j(y) / w_j.

    Functional application is the finite sum over j <= K of
    lambda(T_j) mu(T_j) / w_j, so any functional realizable on the Chebyshev
    basis (point values, derivatives, coefficients) is supported.  The
    weights are a positive vector w_0 .. w_K; ``from_rule`` takes a weight
    rule instead: a rule string, a positive number or a WeightRule.
    """

    def __init__(self, weights):
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty vector")
        if np.any(w <= 0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be positive and finite")
        self.weights = w
        self.truncation = w.size - 1

    @classmethod
    def from_rule(cls, rule, truncation: int) -> "ChebWeightKernel":
        return cls(weight_array(rule, truncation))

    def __repr__(self) -> str:
        return f"ChebWeightKernel(K={self.truncation})"

    def apply(self, lam: Functional, mu: Functional) -> float:
        return float(self.cross([lam], [mu])[0, 0])

    def cross(self, set_a, set_b) -> np.ndarray:
        va = vandermonde(set_a, CHEBYSHEV, self.truncation)
        vb = vandermonde(set_b, CHEBYSHEV, self.truncation)
        return va @ (vb / self.weights).T

    def diag(self, fset) -> np.ndarray:
        v = vandermonde(fset, CHEBYSHEV, self.truncation)
        return np.einsum("ij,ij->i", v, v / self.weights)


def kernel_from_spec(spec: dict):
    family = spec.get("family")
    if family == "matern":
        return MaternSobolevKernel(spec["m"], spec["d"], spec.get("c", 1.0))
    if family == "chebweight":
        w = spec["weights"]
        if isinstance(w, str):
            return ChebWeightKernel.from_rule(w, spec["K"])
        return ChebWeightKernel(w)
    raise ValueError(f"unknown kernel family {family!r}")


def mirror_upper(g: np.ndarray) -> np.ndarray:
    """g made exactly symmetric by mirroring its upper triangle."""
    return np.triu(g) + np.triu(g, 1).T


def gram(kernel, fset) -> np.ndarray:
    """Gram matrix of dual inner products over fset, made exactly symmetric
    by mirroring the upper triangle of kernel.cross(fset, fset)."""
    return mirror_upper(kernel.cross(fset, fset))
