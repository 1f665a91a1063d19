"""Seeded checks of the closed-form trade-off identities, power times
stability norm equal to one for norm-minimal recovery: one suite per
recovery method, IDENTITY_SUITES.  The suites look up the closed forms as
expansion.X and unsymmetric.X at each call.
"""
from __future__ import annotations

import numpy as np

from . import expansion, kernel_recovery, linalg, unsymmetric
from .errors import NotPositiveDefinite
from .functionals import FunctionalSet, PointEval
from .kernels import MaternSobolevKernel


def _sample_distinct_nodes(rng, count: int) -> np.ndarray:
    while True:
        nodes = rng.uniform(-1.0, 1.0, count)
        nodes.sort()
        if (nodes[1:] - nodes[:-1] > 1e-12).all():
            return nodes


def _worst(products) -> float:
    """max |p - 1| over a list of product arrays (0 without products); a
    NaN product makes it NaN, which no tolerance passes."""
    return float(np.max(np.abs(np.concatenate(products) - 1.0), initial=0.0))


def _identity_poly(rng) -> float:
    """Each of 200 draws is a node count n, n + 1 distinct nodes and a point
    at least 1e-9 from them, drawn one at a time, rejection loops included;
    the closed forms then take all draws of one node count in one call."""
    draws: dict = {}  # n -> (node rows, points)
    for _ in range(200):
        n = int(rng.integers(1, 11))
        nodes = _sample_distinct_nodes(rng, n + 1)
        while True:
            x = float(rng.uniform(-1.0, 1.0))
            if np.abs(x - nodes).min() > 1e-9:
                break
        rows, xs = draws.setdefault(n, ([], []))
        rows.append(nodes)
        xs.append(x)
    products = []
    for rows, xs in draws.values():
        nodes, x = np.array(rows), np.array(xs)
        products.append(expansion.poly_power(nodes, x)
                        * expansion.poly_lagrangian_seminorm(nodes, x))
    return _worst(products)


def _identity_ctd(rng) -> tuple[float, float, float]:
    """Range of power x Lagrangian norm over 10 000 seeded cells and points,
    and the largest deviation from 1 at the cell midpoints.  Each row of
    rng.random is one (xk, width, t) draw scaled as lo + (hi - lo) U, which
    is what rng.uniform computes, so these are its draws bit for bit."""
    u = rng.random((10_000, 3))
    xk = -1.0 + 2.0 * u[:, 0]
    width = 1e-3 + (2.0 - 1e-3) * u[:, 1]
    t = 1e-6 + ((1.0 - 1e-6) - 1e-6) * u[:, 2]
    xk1 = xk + width
    x = xk + t * width
    prod = expansion.ctd_power(xk, xk1, x) * expansion.ctd_lagrangian_norm(xk, xk1, x)
    xm = xk + 0.5 * width
    pm = expansion.ctd_power(xk, xk1, xm) * expansion.ctd_lagrangian_norm(xk, xk1, xm)
    return float(prod.min()), float(prod.max()), float(np.abs(pm - 1.0).max())


_TAYLOR_RULES = ["1", "0.37", "(j+1)^2", "(j+2)^3", "factorial_sq_over:2^j",
                 "factorial_sq_over:3^j"]


def _identity_taylor(rng) -> float:
    """100 draws of a rule and an order k < 40, one at a time; the closed
    forms then take all orders of one rule in one call."""
    picks = np.empty(100, dtype=int)
    ks = np.empty(100, dtype=int)
    for i in range(100):
        picks[i] = rng.integers(0, len(_TAYLOR_RULES))
        ks[i] = rng.integers(0, 40)
    products = []
    for r, rule in enumerate(_TAYLOR_RULES):
        k = ks[picks == r]
        if k.size:
            products.append(expansion.taylor_power(rule, k)
                            * expansion.taylor_lagrangian_norm(rule, k))
    return _worst(products)


def _identity_ortho(rng) -> float:
    """100 normal tails of 1 to 49 terms, drawn one at a time; the closed
    form then takes all tails of one length in one call."""
    tails: dict = {}  # length -> tails
    for _ in range(100):
        size = int(rng.integers(1, 50))
        tails.setdefault(size, []).append(rng.normal(size=size))
    products = []
    for rows in tails.values():
        power, _, bump_norm = expansion.ortho_power_and_bump(np.array(rows))
        products.append(power * bump_norm)
    return _worst(products)


_KERNEL_SWEEP = [(m, d) for m in (3, 4, 5) for d in (1, 2)]


def _kernel_instance(rng, m: int, d: int):
    """A seeded point set plus evaluation points kept away from the data, so
    the identity check is not dominated by cancellation near the data."""
    kernel = MaternSobolevKernel(m, d, 1.0)
    n = int(rng.integers(5, 13 if d == 1 else 31))
    pts = rng.uniform(-1.0, 1.0, size=(n, d))
    lam_set = FunctionalSet([PointEval(tuple(p)) for p in pts])
    mus = []
    tries = 0
    while len(mus) < 8 and tries < 4000:
        tries += 1
        q = rng.uniform(-1.75, 1.75, size=d)
        if np.min(np.linalg.norm(pts - q, axis=1)) >= 0.25:
            mus.append(PointEval(tuple(q)))
    return kernel, lam_set, mus


def _identity_kernel(rng, perturb: bool = False) -> tuple[float, int]:
    """Max |product - 1| of the audit's squared power (one block
    power_squared call per (m, d) instance) and the squared Lagrangian norm
    of an independent solve with the extended Gram of {mu} + Lambda, over
    the resolved instances, and the count of unresolved ones, left out of
    that check: PowerEvaluation.unresolved, the audit's rule, or a data or
    extended Gram that fails its Cholesky factorization."""
    products, unresolved = [], 0
    for m, d in _KERNEL_SWEEP:
        kernel, lam_set, mus = _kernel_instance(rng, m, d)
        try:
            ctx = kernel_recovery.PowerContext(kernel, lam_set)
        except NotPositiveDefinite:
            unresolved += len(mus)
            continue
        ev = ctx.power_squared(mus, cross_check=False)
        for i in np.flatnonzero(~ev.excluded):
            if ev.unresolved[i]:
                unresolved += 1
                continue
            g = np.empty((len(lam_set) + 1,) * 2)
            g[0, 0] = ev.k_mu_mu[i]
            g[0, 1:] = g[1:, 0] = ev.k_mu_lambda[i]
            g[1:, 1:] = ctx.gram
            if perturb:
                # scaling K(mu, mu) keeps g positive definite, so the control
                # fails on the product itself, not on the Cholesky
                g[0, 0] *= 1.01
            try:
                norm2 = float(linalg.factor_spd(g).solve(np.eye(len(g))[0])[0])
            except NotPositiveDefinite:
                unresolved += 1
                continue
            products.append(ev.power_squared[i] * norm2)
    return _worst([np.array(products)]), unresolved


def _identity_svd(rng) -> float:
    """100 systems of 2 to 11 rows, each with fewer positive singular values
    than rows and a normal mu, drawn one at a time; the closed forms then
    take all systems of one size in one call."""
    draws: dict = {}  # m -> (positive singular values, mu) per system
    for _ in range(100):
        m = int(rng.integers(2, 12))
        n_pos = int(rng.integers(0, m))
        sigma = rng.uniform(0.1, 5.0, size=n_pos)
        draws.setdefault(m, []).append((sigma, rng.normal(size=m)))
    products = []
    for m, systems in draws.items():
        sigma = np.zeros((len(systems), m))
        for row, (s, _) in zip(sigma, systems):
            row[:s.size] = s
        rec = unsymmetric.SvdRecovery(np.sort(sigma, axis=-1)[:, ::-1])
        mu = np.array([mu for _, mu in systems])
        # a mu that vanishes on the zero singular values gets a last entry 1
        mu[~np.any((mu != 0.0) & rec.zero_mask(), axis=-1), -1] = 1.0
        p2 = unsymmetric.svd_power_squared(rec, mu)
        _, norm = unsymmetric.svd_bump_min(rec, mu)
        # Python's float ** 2 is libm pow, which rounds differently from
        # numpy's square on some inputs; the scalar suite used it
        products.append(p2 * np.array([v ** 2 for v in norm.tolist()]))
    return _worst(products)


def _max_dev(label: str, tol: str):
    """Pass test and detail of a suite whose check returns max |label - 1|."""
    return (lambda dev: dev <= float(tol),
            lambda dev: f"max |{label} - 1| = {dev:.3e} (tol {tol})")


# name -> (check(rng, perturb), pass test, detail) of each identity suite
_IDENTITY_CHECKS = {
    "poly": (lambda rng, _: _identity_poly(rng), *_max_dev("power*seminorm", "1e-11")),
    "ctd": (lambda rng, _: _identity_ctd(rng),
            lambda r: r[0] >= 1.0 - 1e-12 and r[1] <= 2.0 + 1e-12 and r[2] <= 1e-12,
            lambda r: (f"product range [{r[0]:.12f}, {r[1]:.12f}], "
                       f"midpoint dev {r[2]:.3e}")),
    "taylor": (lambda rng, _: _identity_taylor(rng), *_max_dev("product", "1e-12")),
    "ortho": (lambda rng, _: _identity_ortho(rng), *_max_dev("product", "1e-12")),
    "kernel": (_identity_kernel, lambda r: r[0] <= 1e-5,
               lambda r: f"max |P^2*norm^2 - 1| = {r[0]:.3e} (tol 1e-5), "
                         f"{r[1]} unresolved"),
    "svd": (lambda rng, _: _identity_svd(rng), *_max_dev("P^2*norm^2", "1e-12")),
}
IDENTITY_SUITES = tuple(_IDENTITY_CHECKS)


def run_suites(suites, seed: int, perturb: bool) -> tuple[str, bool]:
    """Report text of the named suites and whether all passed; suite i of
    IDENTITY_SUITES draws from seed + i, and perturb is the kernel suite's
    negative control."""
    lines = [f"identity suite (seed {seed})"]
    ok = True
    for i, name in enumerate(IDENTITY_SUITES):
        if name not in suites:
            continue
        check, passes, detail = _IDENTITY_CHECKS[name]
        # any error inside a suite counts as a failure, not a crash
        try:
            result = check(np.random.default_rng(seed + i), perturb)
        except Exception as exc:
            passed, text = False, f"raised {type(exc).__name__}: {exc}"
        else:
            passed, text = passes(result), detail(result)
        ok &= passed
        lines.append(f"{'PASS' if passed else 'FAIL'} {name}: {text}")
    lines.append("ALL PASS" if ok else "FAILURES PRESENT")
    return "\n".join(lines) + "\n", ok
