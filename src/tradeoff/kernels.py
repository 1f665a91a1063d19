"""Positive-definite kernels with functional application on each argument.

Both kernels expose the dual inner product (lambda, mu) = lambda^x mu^y K(x, y):
vectorized set-against-set assembly via ``cross``, and scalar application
via ``apply``, the 1 x 1 case of ``cross`` and bit for bit its entry.  The
Matern ``cross`` evaluates each distinct kernel argument of an order block
once and gathers the entries: grids and symmetric Grams repeat their
distances many times over.  The Whittle-Matern radial profile is

    phi(r) = 2^(1-nu)/Gamma(nu) * (r/c)^nu * K_nu(r/c),   nu = m - d/2,

normalized so phi(0) = 1; its native space is the Sobolev space H^m.
Derivative applications ride on the identity d/ds [s^a K_a(s)] = -s^(a-1)...
more precisely, with g_a(s) := s^a K_a(s),

    g_a'(s) = -s g_{a-1}(s),

so every mixed derivative of the kernel is a finite sum of terms
u^p g_a(|u|), differentiated termwise.  The radial Laplacian in d dimensions
maps s^p g_a to

    p(p+d-2) s^(p-2) g_a  -  (2p+d) s^p g_{a-1}  +  s^(p+2) g_{a-2}.

The Bessel values behind a block's terms are computed once per block and
shared by its terms.  In 2-d every order |a| is an integer (nu = m - 1), and
K_0 .. K_b follow from one ``k0`` and one ``k1`` call by the upward
recurrence K_{b+1}(s) = K_{b-1}(s) + (2b/s) K_b(s) (DLMF 10.29.1), which is
stable upward for K.  For orders 0 .. 7 on s in [1e-6, 700], where K_0(s)
is a normal double, it stays within 16 u of 50-digit values (at most 9 u
measured; kv's own error there reaches 14 u, and kv returns 0 at
s = 700).  In 1-d the orders are half integers, and each keeps its own
``kv`` call: the closed form e^-s * polynomial would move the 1-d Grams in
their last bits, and some 1-d identity checks sit at the roundoff floor,
where such a move turns a pass into a fail.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import gamma as _gamma
from scipy.special import k0 as _k0
from scipy.special import k1 as _k1
from scipy.special import kv as _kv

from .errors import UnsupportedPair
from .functionals import Functional, vandermonde
from .weights import weight_array

# below s = r/c < 1e-6 the g-terms switch to their leading r -> 0 terms
_SMALL_S = 1e-6


def _bessel_ladder(orders, s: np.ndarray) -> dict:
    """{b: K_b(s)} for each integer order b in orders, s > 0: one k0 and one
    k1 call, then the upward recurrence K_{b+1} = K_{b-1} + (2b/s) K_b up to
    the largest order, keeping only the orders asked for."""
    orders = {int(b) for b in orders}
    prev, cur = _k0(s), _k1(s)
    out = {b: k for b, k in ((0, prev), (1, cur)) if b in orders}
    for b in range(1, max(orders)):
        prev, cur = cur, prev + (2.0 * b / s) * cur
        if b + 1 in orders:
            out[b + 1] = cur
    return out


def _bessel(orders, s: np.ndarray) -> dict:
    """{b: K_b(s)} for each order b in orders, s > 0: the integer orders
    from one _bessel_ladder, the half-integer ones by kv (see the module
    docstring)."""
    whole = [b for b in orders if float(b).is_integer()]
    out = _bessel_ladder(whole, s) if whole else {}
    out.update((b, _kv(b, s)) for b in orders if b not in out)
    return out


def _g_pow(p: int, a: float, s: np.ndarray, k_b: np.ndarray | None = None) -> np.ndarray:
    """Evaluate |u|^p g_a(|u|) = s^(p+a) K_|a|(s) elementwise, s >= 0.

    k_b holds K_|a| at the entries s >= _SMALL_S, in their order, when the
    caller has them: _radial computes a block's Bessel values once for all
    its terms.  By default they come from _bessel, so an integer order
    takes the K_0/K_1 ladder and a half-integer one kv.

    Below s = _SMALL_S the leading term of K_b(s) as s -> 0 replaces the
    Bessel value: 2^(b-1) Gamma(b) s^(q-b) for b > 0 (the constant limit
    when q = b), and -s^q (ln(s/2) + gamma) for b = 0, 0 at s = 0.  Every
    b here is a multiple of 1/2, and the next term is O(s^2) smaller, or
    O(s^2 ln s) for b = 1, except for b = 1/2, where it is O(s); that case
    takes the exact K_1/2(s) = sqrt(pi / (2 s)) e^-s.  The case q < b, and
    q = b = 0, diverges and is rejected upstream.
    """
    q, b = p + a, abs(a)
    if q < b or (q == b and b == 0.0):
        raise UnsupportedPair("kernel derivative does not exist (nu too small)")
    s = np.asarray(s, dtype=float)
    out = np.empty_like(s)
    small = s < _SMALL_S
    ns = s[~small]
    if k_b is None:
        k_b = _bessel([b], ns)[b]
    out[~small] = ns ** q * k_b
    if small.any():
        ss = s[small]
        if b > 0.0:
            lead = 2.0 ** (b - 1.0) * _gamma(b) * ss ** (q - b)
            out[small] = lead * np.exp(-ss) if b == 0.5 else lead
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                lead = -ss ** q * (np.log(ss / 2.0) + np.euler_gamma)
            out[small] = np.where(ss > 0.0, lead, 0.0)
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


def _order_problem(orders, dim: int, d: int) -> str | None:
    """Why a radial kernel on R^d cannot apply functionals on R^dim whose total
    derivative orders are the ints in ``orders``, or None when it can."""
    if dim != d:
        return f"acts on R^{dim}, kernel lives on R^{d}"
    if max(orders, default=0) > 2:
        return "derivative order > 2 is not supported"
    if d == 2 and any(n % 2 for n in orders):
        return "in 2-d a radial kernel applies only the Laplacian"
    return None


def _functional_order(f: Functional, d: int) -> int:
    """Total derivative order of f for a radial kernel on R^d."""
    if f.order is None:
        raise UnsupportedPair(f"{f!r} is not supported by a radial kernel")
    problem = _order_problem((f.order,), f.dim, d)
    if problem is not None:
        raise UnsupportedPair(f"{f!r} {problem}")
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
        if not float(m).is_integer():
            raise ValueError(f"Sobolev order must be a whole number, got {m}")
        if not 0 < c < np.inf:
            raise ValueError(f"scale must be positive and finite, got {c}")
        self.m = int(m)
        self.d = int(d)
        self.c = float(c)
        self.nu = self.m - self.d / 2.0
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
        # each Bessel order once per block, shared by the terms that use it
        bessel = _bessel({abs(a) for (_, a), _ in terms}, s[s >= _SMALL_S])
        acc = np.zeros_like(s)
        for (p, a), coeff in terms:
            val = _g_pow(p, a, s, bessel[abs(a)])
            if p % 2:
                val = val * np.sign(u)
            acc += coeff * val
        sign = -1.0 if (self.d == 1 and n_b % 2) else 1.0
        return sign * self._norm * acc / self.c ** n

    def apply(self, lam: Functional, mu: Functional) -> float:
        (n_a, n_b), sites = self._layout([lam, mu])
        # Python ints: c ** n rounds differently for a NumPy integer n
        return float(self._radial_block(int(n_a), int(n_b), sites[:1], sites[1:])[0, 0])

    def _layout(self, fset) -> tuple[np.ndarray, np.ndarray]:
        """Derivative orders and sites of fset as arrays.  A FunctionalSet
        computes them once (``radial_layout``) and they are checked against
        this kernel here, by the rule ``_functional_order`` applies to one
        functional; any other sequence, or a set that fails the check, goes
        functional by functional, which names the one at fault."""
        layout = getattr(fset, "radial_layout", None)
        if layout is not None:
            orders, sites = layout
            if _order_problem(set(orders.tolist()), sites.shape[1], self.d) is None:
                return layout
        fs = list(fset)
        orders = np.array([_functional_order(f, self.d) for f in fs], dtype=int)
        return orders, np.array([f.site for f in fs], dtype=float)

    def _radial_block(self, n_a: int, n_b: int, pts_a, pts_b) -> np.ndarray:
        """_radial over every pair of sites, run once per distinct argument
        (distinct as a bit pattern, so -0.0 and 0.0 stay apart) and gathered;
        _radial is elementwise, so each entry is bit for bit the one a
        full-array evaluation gives.  The distances take one difference
        array per coordinate, squared in place: sqrt(dx*dx + dy*dy)."""
        u = pts_a[:, None, 0] - pts_b[None, :, 0]
        if self.d == 2:
            dy = pts_a[:, None, 1] - pts_b[None, :, 1]
            np.multiply(u, u, out=u)
            np.multiply(dy, dy, out=dy)
            u += dy
            np.sqrt(u, out=u)
        u /= self.c
        keys, inverse = np.unique(u.view(np.int64), return_inverse=True)
        return self._radial(n_a, n_b, keys.view(float))[inverse.reshape(u.shape)]

    def cross(self, set_a, set_b) -> np.ndarray:
        """Matrix of apply(a_i, b_j), assembled blockwise by derivative order,
        each block evaluating each distinct kernel argument once."""
        orders_a, pts_a = self._layout(set_a)
        orders_b, pts_b = self._layout(set_b)
        out = np.empty((len(orders_a), len(orders_b)))
        for na in sorted(set(orders_a.tolist())):
            ia = np.flatnonzero(orders_a == na)
            for nb in sorted(set(orders_b.tolist())):
                ib = np.flatnonzero(orders_b == nb)
                out[np.ix_(ia, ib)] = self._radial_block(na, nb, pts_a[ia], pts_b[ib])
        return out

    def diag(self, fset) -> np.ndarray:
        """apply(f, f) for each f in fset, evaluated once per distinct
        derivative order: the kernel argument is 0 for every member."""
        orders = self._layout(fset)[0].tolist()
        value: dict = {}
        for f, n in zip(fset, orders):
            if n not in value:
                value[n] = self.apply(f, f)
        return np.array([value[n] for n in orders])


class ChebWeightKernel:
    """Truncated weighted-Chebyshev kernel K(x,y) = sum_j T_j(x) T_j(y) / w_j.

    Functional application is the finite sum over j <= K of
    lambda(T_j) mu(T_j) / w_j, so any functional realizable on the Chebyshev
    basis (point values, derivatives, coefficients) is supported.  The
    weights are a positive vector w_0 .. w_K.
    """

    def __init__(self, weights):
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty vector")
        if np.any(w <= 0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be positive and finite")
        self.weights = w
        self.truncation = w.size - 1

    def __repr__(self) -> str:
        return f"ChebWeightKernel(K={self.truncation})"

    def apply(self, lam: Functional, mu: Functional) -> float:
        return float(self.cross([lam], [mu])[0, 0])

    def cross(self, set_a, set_b) -> np.ndarray:
        va = vandermonde(set_a, self.truncation)
        vb = vandermonde(set_b, self.truncation)
        return va @ (vb / self.weights).T

    def diag(self, fset) -> np.ndarray:
        v = vandermonde(fset, self.truncation)
        return np.einsum("ij,ij->i", v, v / self.weights)


def kernel_from_spec(spec: dict):
    """Kernel from a JSON spec: {"family": "matern", "m", "d", "c"} or
    {"family": "chebweight", "weights", "K"}, where the weights are a rule
    string, or a list of K + 1 entries w_0 .. w_K (K may then be omitted)."""
    if type(spec) is not dict:
        raise ValueError(f"a kernel spec must be a JSON object, got {spec!r}")
    family = spec.get("family")

    def need(*keys, may=()):
        # keys are required; no key but them, family and may is allowed
        missing = [k for k in keys if k not in spec]
        unknown = [k for k in spec if k not in ("family", *keys, *may)]
        for problem, bad in [("lacks key(s)", missing), ("has unknown key(s)", unknown)]:
            if bad:
                raise ValueError(f"{family} kernel spec {problem} {', '.join(map(repr, bad))}")
        for k, kind in [("m", "number"), ("d", "number"), ("c", "number"), ("K", "integer")]:
            if type(spec.get(k, 1)) not in ((int,) if kind == "integer" else (int, float)):
                raise ValueError(f"{family} kernel spec needs a JSON {kind} at {k!r}, "
                                 f"got {spec[k]!r}")

    if family == "matern":
        need("m", "d", may=("c",))
        return MaternSobolevKernel(spec["m"], spec["d"], spec.get("c", 1.0))
    if family == "chebweight":
        w = spec.get("weights")
        need("weights", *(("K",) if isinstance(w, str) else ()), may=("K",))
        if isinstance(w, str):
            return ChebWeightKernel(weight_array(w, spec["K"]))
        if "K" in spec and np.size(w) != spec["K"] + 1:
            raise ValueError(f"chebweight weights list has {np.size(w)} entries, "
                             f"K = {spec['K']} needs K + 1 = {spec['K'] + 1}")
        return ChebWeightKernel(w)
    raise ValueError(f"unknown kernel family {family!r}")


def mirror_upper(g: np.ndarray) -> np.ndarray:
    """g made exactly symmetric by mirroring its upper triangle."""
    return np.triu(g) + np.triu(g, 1).T


def gram(kernel, fset) -> np.ndarray:
    """Gram matrix of dual inner products over fset, made exactly symmetric
    by mirroring the upper triangle of kernel.cross(fset, fset)."""
    return mirror_upper(kernel.cross(fset, fset))
