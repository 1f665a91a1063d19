"""Positive-definite kernels with functional application on each argument.

Both kernels expose the dual inner product (lambda, mu) = lambda^x mu^y K(x, y):
vectorized set-against-set assembly via ``cross``, and scalar application
via ``apply``, the 1 x 1 case of ``cross`` and bit for bit its entry.  Both
also give ``columns``, a set's columns against its own members, each bit for
bit a one-column ``cross``.  Grids and symmetric Grams repeat their kernel
arguments many times over, so a Matern order block takes one of three
routes, chosen from its sites alone; the kernel keeps no state between
calls.  A 2-d block whose sites share coordinates squares each axis's
coordinate differences once, over the distinct coordinates, and runs the
kernel once per distinct (dx^2, dy^2) pair; ``columns`` reads every column
of such a set from that one table.  Any other symmetric block (one site
array on both sides, one derivative order) runs it on its upper triangle
and mirrors it.  Every other block, among them ``apply``, ``diag`` and
one-row and one-column blocks, runs it on all its entries.
The Whittle-Matern radial profile is

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

scipy.special (k0, k1, kv and gamma) is imported on first use, by the first
Matern kernel built, so importing this module loads only numpy; the
Chebyshev-weight kernel never loads scipy.
"""
from __future__ import annotations

from functools import cache, lru_cache
from types import SimpleNamespace

import numpy as np

from .errors import UnsupportedPair
from .functionals import Functional, FunctionalSet, radial_layout, vandermonde
from .weights import weight_array

# below s = r/c < 1e-6 the g-terms switch to their leading r -> 0 terms
_SMALL_S = 1e-6

@cache
def _special() -> SimpleNamespace:
    """scipy.special's k0, k1, kv and gamma, imported by the first call, so
    that importing this module, or any numpy-only part of the package, does
    not load scipy; later calls return the same bound names."""
    from scipy.special import gamma, k0, k1, kv
    return SimpleNamespace(k0=k0, k1=k1, kv=kv, gamma=gamma)


def _bessel_ladder(orders, s: np.ndarray) -> dict:
    """{b: K_b(s)} for each integer order b in orders, s > 0: one k0 and one
    k1 call, then the upward recurrence K_{b+1} = K_{b-1} + (2b/s) K_b up to
    the largest order, keeping only the orders asked for."""
    orders = {int(b) for b in orders}
    special = _special()
    prev, cur = special.k0(s), special.k1(s)
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
    kv = _special().kv
    out.update((b, kv(b, s)) for b in orders if b not in out)
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
            lead = 2.0 ** (b - 1.0) * _special().gamma(b) * ss ** (q - b)
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


@lru_cache(maxsize=None)
def _terms(nu: float, d: int, n_total: int) -> tuple:
    """Term stack for n_total kernel derivatives (1-d) or n_total/2
    Laplacian applications (2-d) of the profile of order nu; keyed by
    value, so the cache holds no kernel alive."""
    if nu <= n_total / 2.0:
        raise UnsupportedPair(
            f"nu = {nu} supports derivative order < {2 * nu}, needed {n_total}")
    terms = {(0, nu): 1.0}
    if d == 1:
        for _ in range(n_total):
            terms = _d_du(terms)
    else:
        for _ in range(n_total // 2):
            terms = _laplace(terms, d)
    return tuple(sorted(terms.items()))


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
        self._norm = 2.0 ** (1.0 - self.nu) / _special().gamma(self.nu)

    def __repr__(self) -> str:
        return f"MaternSobolevKernel(m={self.m}, d={self.d}, c={self.c})"

    def __eq__(self, other) -> bool:
        return (isinstance(other, MaternSobolevKernel)
                and (self.m, self.d, self.c) == (other.m, other.d, other.c))

    def __hash__(self) -> int:
        return hash((self.m, self.d, self.c))

    def _radial(self, n_a: int, n_b: int, u: np.ndarray) -> np.ndarray:
        """lambda^x mu^y K for derivative orders (n_a, n_b); u is the signed
        difference (x-y)/c in 1-d, the distance r/c in 2-d."""
        n = n_a + n_b
        terms = _terms(self.nu, self.d, n)
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
        (n_a, n_b), sites, _ = self._layout([lam, mu])
        # Python ints: c ** n rounds differently for a NumPy integer n
        return float(self._radial_block(int(n_a), int(n_b), sites[:1], sites[1:])[0, 0])

    def _layout(self, fset) -> tuple[np.ndarray, np.ndarray, tuple]:
        """Derivative orders and sites of fset as arrays, and its distinct
        orders, ascending (``radial_layout``, which a FunctionalSet computes
        once), checked against this kernel by the rule ``_functional_order``
        applies to one functional.  Only a sequence that fails that check
        goes functional by functional, which names the one at fault."""
        layout = fset.radial_layout if isinstance(fset, FunctionalSet) else radial_layout(fset)
        if layout is not None:
            _, sites, distinct = layout
            if _order_problem(distinct, sites.shape[1], self.d) is None:
                return layout
        for f in fset:
            _functional_order(f, self.d)
        # no functional to fail the check: an empty sequence
        return np.zeros(0, dtype=int), np.zeros((0, self.d)), ()

    def _distances(self, pts_a: np.ndarray, pts_b: np.ndarray) -> np.ndarray:
        """The kernel argument of every pair of sites, as a C-ordered array:
        one difference array per coordinate, squared in place,
        sqrt(dx*dx + dy*dy), over c.  The order matters to callers that
        hand a block to linalg.matmul, whose BLAS call follows it."""
        u = np.subtract.outer(pts_a[:, 0], pts_b[:, 0])
        if self.d == 2:
            dy = np.subtract.outer(pts_a[:, 1], pts_b[:, 1])
            np.multiply(u, u, out=u)
            np.multiply(dy, dy, out=dy)
            u += dy
            np.sqrt(u, out=u)
        u /= self.c
        return u

    def _table(self, pts_a: np.ndarray, pts_b: np.ndarray):
        """(dx2, dy2, codes) for a 2-d pair of site arrays whose per-axis
        tables hold fewer entries than their block, else None: each axis's
        distinct squared differences, and codes(j), each entry of column(s)
        j (an index or a slice) as a flat index into the (dx2, dy2) pair
        table.  Each squared difference (xa - xb) * (xa - xb) is computed
        once, over the axis's distinct coordinates, as _distances computes
        it.  A column's codes are gathered in O(n_a): the b-side column of
        each axis table first, then the a-side codes."""
        def distinct(pts, i):
            return np.unique(np.ascontiguousarray(pts[:, i]).view(np.int64), return_inverse=True)

        axes, cells = [], 0
        for i in range(2):
            a = distinct(pts_a, i)
            axes.append((a, a if pts_b is pts_a else distinct(pts_b, i)))
            cells += a[0].size * axes[i][1][0].size
            if cells >= len(pts_a) * len(pts_b):
                return None
        squares, pairs = [], []
        for (ka, _), (kb, _) in axes:
            diff = ka.view(float)[:, None] - kb.view(float)[None, :]
            sq, pair = np.unique((diff * diff).view(np.int64), return_inverse=True)
            squares.append(sq.view(float))
            pairs.append(pair.reshape(diff.shape))
        (dx2, dy2), (px, py) = squares, pairs
        px = px * dy2.size
        ((_, ax), (_, bx)), ((_, ay), (_, by)) = axes
        return dx2, dy2, lambda j: px[:, bx[j]].take(ax, 0) + py[:, by[j]].take(ay, 0)

    def _pair_values(self, n_a: int, n_b: int, dx2: np.ndarray, dy2: np.ndarray) -> np.ndarray:
        """_radial over the flat (dx2, dy2) pair table, run once per distinct
        argument sqrt(dx2 + dy2) / c (summed, square-rooted and divided as
        _distances does, so every argument keeps its bits)."""
        args, inverse = np.unique((np.sqrt(dx2[:, None] + dy2[None, :]) / self.c)
                                  .view(np.int64), return_inverse=True)
        return self._radial(n_a, n_b, args.view(float)).take(inverse.ravel())

    def _radial_block(self, n_a: int, n_b: int, pts_a, pts_b) -> np.ndarray:
        """_radial over every pair of sites, as a C-ordered array: the
        order matters to callers that hand a block to linalg.matmul, whose
        BLAS call follows it.  A block with more than one row and column
        takes the 2-d _table when there is one: the pair table's values
        when it is smaller than the block, else the block's distinct pair
        codes.  Else a symmetric block (pts_b is pts_a, n_b == n_a, so entry
        (j, i) has the bits of (i, j)) runs on its upper triangle and
        mirrors it.  Any other block runs on all its entries.  _radial is
        elementwise, so each entry has the same bits on every route."""
        if len(pts_a) > 1 and len(pts_b) > 1:
            table = self._table(pts_a, pts_b) if self.d == 2 else None
            if table is not None:
                dx2, dy2, codes = table
                if dx2.size * dy2.size < len(pts_a) * len(pts_b):
                    return self._pair_values(n_a, n_b, dx2, dy2).take(codes(slice(None)))
                used, inverse = np.unique(codes(slice(None)), return_inverse=True)
                args = np.sqrt(dx2[used // dy2.size] + dy2[used % dy2.size]) / self.c
                return self._radial(n_a, n_b, args).take(inverse.reshape(len(pts_a), -1))
            if pts_b is pts_a and n_b == n_a:
                upper = ~np.tri(len(pts_a), k=-1, dtype=bool)
                out = np.empty(upper.shape)
                out[upper] = out.T[upper] = self._radial(
                    n_a, n_b, self._distances(pts_a, pts_a)[upper])
                return out
        return self._radial(n_a, n_b, self._distances(pts_a, pts_b))

    def cross(self, set_a, set_b) -> np.ndarray:
        """Matrix of apply(a_i, b_j), assembled blockwise by derivative order;
        one block when each side has a single order.  Each block takes its
        route in _radial_block from its sites alone; a block of one order
        against itself on one site array is symmetric."""
        orders_a, pts_a, distinct_a = self._layout(set_a)
        orders_b, pts_b, distinct_b = self._layout(set_b)
        if len(distinct_a) == len(distinct_b) == 1:
            return self._radial_block(distinct_a[0], distinct_b[0], pts_a, pts_b)
        out = np.empty((len(orders_a), len(orders_b)))
        for na in distinct_a:
            ia = np.flatnonzero(orders_a == na)
            sites_a = pts_a[ia]
            for nb in distinct_b:
                ib = np.flatnonzero(orders_b == nb)
                sites_b = sites_a if pts_b is pts_a and nb == na else pts_b[ib]
                out[np.ix_(ia, ib)] = self._radial_block(na, nb, sites_a, sites_b)
        return out

    def columns(self, fset):
        """j -> K(fset, fset[j]), every entry bit for bit
        cross(fset, [fset[j]])[:, 0]: the columns of a set against its own
        members, which P-greedy reads one pick at a time.  A single-order
        2-d set whose _table against itself has a pair table smaller than
        its Gram (a tensor grid) runs the kernel once on that table and
        gathers each column from it; any other set (multi-order, scattered,
        every 1-d set) takes one cross call per column (cross_columns)."""
        _, sites, distinct = self._layout(fset)
        table = self._table(sites, sites) if self.d == 2 and len(distinct) == 1 else None
        if table is None or table[0].size * table[1].size >= len(sites) ** 2:
            return cross_columns(self, fset)
        dx2, dy2, codes = table
        values = self._pair_values(distinct[0], distinct[0], dx2, dy2)
        return lambda j: values.take(codes(j))

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

    def columns(self, fset):
        """j -> cross(fset, [fset[j]])[:, 0], one cross call per column."""
        return cross_columns(self, fset)

    def diag(self, fset) -> np.ndarray:
        v = vandermonde(fset, self.truncation)
        return np.einsum("ij,ij->i", v, v / self.weights)


def cross_columns(kernel, fset):
    """j -> kernel.cross(fset, [fset[j]])[:, 0]: the columns of a set
    against its own members, one cross call each."""
    return lambda j: kernel.cross(fset, [fset[j]])[:, 0]


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
