"""Experiment runner: reproduces the numerical experiments and exposes the
library as subcommands with CSV/JSON outputs and gnuplot-ready curves.

Subcommands
-----------
fig1        bump/Lagrangian norms and curves for 11-point interpolation
            with an extra evaluation point, equidistant vs Chebyshev nodes
kansa       power-function surfaces for unsymmetric vs symmetric collocation
            of a Poisson problem on the unit square
identities  seeded verification of every closed-form trade-off identity
greedy      power-greedy point selection on a candidate grid
audit       trade-off report for a user-supplied kernel + functional sets

Weight rules accepted anywhere a "weights" string appears:
"1" (constant), "(j+1)^2" (polynomial), "factorial_sq_over:2^j" ((j!)^2/2^j).
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import expansion, kernel_recovery, linalg, unsymmetric
from .errors import NotPositiveDefinite, TradeoffError
from .functionals import FunctionalSet, LaplacianEval, PointEval, functional_from_json
from .greedy import p_greedy
from .kernels import MaternSobolevKernel, gram, kernel_from_spec
from .report import FLAG_EXCLUDED, FLAG_UNRESOLVED, reports_to_csv
from .unsymmetric import PoissonSetup, build_kansa, unit_square_perimeter


@dataclass
class ExperimentConfig:
    """A run of subcommand name, its params checked against CONFIG_KEYS[name]."""

    name: str
    params: dict = field(default_factory=dict)
    out_dir: Path = None
    seed: int = 0

    def __post_init__(self):
        if self.out_dir is None:
            self.out_dir = Path(f"{self.name}_out")
        self.out_dir = Path(self.out_dir)
        table, given = CONFIG_KEYS[self.name], self.params
        for key, value in given.items():
            if key not in table:
                raise ValueError(f"unknown {self.name} config key {key!r}; "
                                 f"known: {', '.join(table)}")
            table[key][0](key, value)
        self.params = {key: given.get(key, default) for key, (_, default) in table.items()}
        missing = ", ".join(repr(key) for key, v in self.params.items() if v is _REQUIRED)
        if missing:
            raise ValueError(f"{self.name} config lacks key(s) {missing}")


def _write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _at_least(low: int):
    """Check of an integer >= low; a bool, float or string is rejected."""
    def check(key: str, value):
        _of(int, "an integer")(key, value)
        if value < low:
            raise ValueError(f"{key} must be >= {low}, got {value}")
    return check


def _real(key: str, value):
    """Check of a finite JSON number; a bool, string or NaN is rejected."""
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ValueError(f"{key} must be a finite number, got {value!r}")


def _of(kind: type, what: str):
    """Check of a value of one JSON type (bool is not int), which what names."""
    def check(key: str, value):
        if type(value) is not kind:
            raise ValueError(f"{key} must be {what}, got {value!r}")
    return check


def _names(known: tuple):
    """Check of a non-empty JSON array of names from known."""
    def check(key: str, value):
        if type(value) is not list or not value:
            raise ValueError(f"{key} must be a non-empty JSON array of names, got {value!r}")
        unknown = [name for name in value if name not in known]
        if unknown:
            raise ValueError(f"unknown {key} {unknown}; known: {', '.join(known)}")
    return check


# ---------------------------------------------------------------------------
# fig1: norms of Lagrangians vs norm-minimal bumps in a weighted Chebyshev space

# node family -> its n nodes on [-1, 1], in increasing order
FIG1_NODES = {
    "equidistant": lambda n: np.linspace(-1.0, 1.0, n),
    "chebyshev_extrema": lambda n: np.sort(np.cos(np.arange(n) * np.pi / (n - 1))),
    "chebyshev_zeros": lambda n: np.sort(np.cos((2 * np.arange(n) + 1) * np.pi / (2 * n))),
}


def run_fig1(config: ExperimentConfig) -> dict:
    """Norm-minimal bump functions versus add-one-in Lagrangians.

    The reported product pairs the one-tail-term power bound with the
    Lagrangian norm; the full truncated tail power is emitted alongside.
    """
    params = config.params
    n_points, tail, weights = params["n_points"], params["tail_order"], params["weights"]
    # a tail shorter than the node count leaves the constraints rank deficient
    _at_least(n_points)("tail_order", tail)

    xs = np.linspace(-1.0, 1.0, params["curve_points"])
    mu = PointEval(params["extra_point"])
    n = n_points - 1
    summary = {}
    curves = {}
    for fam in params["families"]:
        nodes = FIG1_NODES[fam](n_points)
        lam_set = FunctionalSet([PointEval(x) for x in nodes])
        ext_set = FunctionalSet([PointEval(x) for x in nodes] + [mu])
        lagr = expansion.cheb_lagrangians(ext_set, weights, n + 1)[-1]
        bump = expansion.cheb_bump_min(lam_set, weights, tail, mu)
        power = expansion.cheb_power_addone(lam_set, weights, n, tail, mu)
        power_lb = expansion.cheb_power_one_term(lam_set, weights, n, mu)
        summary[fam] = {
            "lagr_norm": lagr.norm(),
            "bump_norm": bump.norm(),
            "power": power,
            "power_one_term": power_lb,
            "product": power_lb * lagr.norm(),
        }
        curves[fam] = np.column_stack([xs, bump(xs), lagr(xs)])

    files = {}
    for fam, data in curves.items():
        lines = ["# x  bump  lagrangian"]
        lines += [f"{r[0]:.17g} {r[1]:.17g} {r[2]:.17g}" for r in data]
        files[f"fig1_{fam}.dat"] = "\n".join(lines) + "\n"
    files["fig1_summary.json"] = _json_dumps(summary)
    for name, text in files.items():
        _write(config.out_dir / name, text)
    return summary


# ---------------------------------------------------------------------------
# kansa: unsymmetric vs symmetric collocation power surfaces

KANSA_CSV_HEADER = "x,y,p2_unsym,p2_sym,recip_pseudo_norm2"


def _kansa_csv(points, p2u, p2s, recip=None) -> str:
    lines = [KANSA_CSV_HEADER]
    for i, (x, y) in enumerate(points):
        r = f"{recip[i]:.17g}" if recip is not None else "nan"
        lines.append(f"{x:.17g},{y:.17g},{p2u[i]:.17g},{p2s[i]:.17g},{r}")
    return "\n".join(lines) + "\n"


def run_kansa(config: ExperimentConfig) -> dict:
    """Squared power functions of pseudoinverse-based unsymmetric collocation
    against symmetric collocation, plus pseudo-Lagrangian stability norms."""
    params = config.params
    m, scale, rtol = params["m"], params["c"], params["rtol"]
    eval_side, eval_boundary = params["eval_interior_side"], params["eval_boundary"]

    kernel = MaternSobolevKernel(m, 2, scale)
    setup = PoissonSetup.regular(
        kernel, n_side=params["n_side"], n_boundary=params["n_boundary"],
        include_corners=params["include_corners"], trial_points=params["trial_points"])
    rec = build_kansa(setup, rtol=rtol)

    h = np.arange(1, eval_side + 1) / (eval_side + 1.0)
    grid_i = np.array([[x, y] for x in h for y in h])
    mus_i = [LaplacianEval(tuple(p)) for p in grid_i]
    grid_b = unit_square_perimeter(np.arange(eval_boundary) * 4.0 / eval_boundary)
    mus_b = [PointEval(tuple(p)) for p in grid_b]

    p2u_i, p2s_i = unsymmetric.kansa_power_squared_batch(rec, mus_i)
    p2u_b, p2s_b = unsymmetric.kansa_power_squared_batch(rec, mus_b)

    pl2 = unsymmetric.pseudo_lagrangian_norms(rec)
    recip = 1.0 / pl2
    # leave-one-out optimal powers at the data sites, and the kansa powers there
    loo_p2 = 1.0 / rec.context.factor.inverse_diagonal()
    p2u_sites = unsymmetric.kansa_site_power_squared(rec)
    sites = np.vstack([setup.interior, setup.boundary])
    factors = recip / loo_p2

    # K(mu, mu) of each interior Laplacian mu is the data Gram's first entry
    reproduced = p2s_i.max() <= kernel_recovery.EXCLUDED_RTOL * rec.context.gram[0, 0]
    viol_i = int(np.sum(p2u_i < p2s_i - 1e-8))
    viol_b = int(np.sum(p2u_b < p2s_b - 1e-8))
    summary = {
        "m": m, "c": scale, "rtol": rtol, "rank": rec.rank,
        "M": rec.m, "N": rec.n,
        "max_p2_unsym_interior": float(p2u_i.max()),
        "max_p2_sym_interior": float(p2s_i.max()),
        "ratio_max_interior": None if reproduced else float(p2u_i.max() / p2s_i.max()),
        "max_p2_unsym_boundary": float(p2u_b.max()),
        "max_p2_sym_boundary": float(p2s_b.max()),
        "median_pseudo_factor": float(np.median(factors)),
        "pointwise_violations": viol_i + viol_b,
    }
    _write(config.out_dir / "kansa_interior.csv", _kansa_csv(grid_i, p2u_i, p2s_i))
    _write(config.out_dir / "kansa_boundary.csv", _kansa_csv(grid_b, p2u_b, p2s_b))
    _write(config.out_dir / "kansa_data_sites.csv",
           _kansa_csv(sites, p2u_sites, loo_p2, recip))
    _write(config.out_dir / "kansa_summary.json", _json_dumps(summary))
    return summary


# ---------------------------------------------------------------------------
# identities: seeded verification of the closed-form trade-off identities

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
    """Max |product - 1| of the Schur-route squared power and the squared
    Lagrangian norm of an independent extended-Gram solve over the resolved
    instances, and the count of unresolved ones, left out of that check:
    F > UNRESOLVED_RTOL P^2 as in the audit report, or a data or extended
    Gram that fails its Cholesky factorization.

    The kernel values come from one Gram per (m, d) instance, over the
    evaluation functionals followed by the data: its data block is the
    context's Gram, its evaluation rows feed one block power_squared call,
    and each extended Gram of {mu} + Lambda is a slice of it.
    """
    products, unresolved = [], 0
    for m, d in _KERNEL_SWEEP:
        kernel, lam_set, mus = _kernel_instance(rng, m, d)
        k = len(mus)
        g_all = gram(kernel, FunctionalSet(mus + list(lam_set)))
        try:
            ctx = kernel_recovery.PowerContext(kernel, lam_set, g_all[k:, k:])
        except NotPositiveDefinite:
            unresolved += k
            continue
        kmm, kml = np.diag(g_all)[:k], g_all[:k, k:]
        ev = ctx.power_squared(mus, kernel_values=(kmm, kml))
        floor = ctx.roundoff_floor(kmm, kml, ev.lagrange_values)
        data = list(range(k, k + len(lam_set)))
        for i, (p2, excluded) in enumerate(zip(ev.power_squared, ev.excluded)):
            # a NaN floor or power is not unresolved: its product stays NaN
            if excluded or floor[i] > kernel_recovery.UNRESOLVED_RTOL * p2:
                unresolved += not excluded
                continue
            g = g_all[np.ix_([i] + data, [i] + data)]
            if perturb:
                # scaling K(mu, mu) keeps g positive definite, so the control
                # fails on the product itself, not on the Cholesky
                g[0, 0] *= 1.01
            try:
                norm2 = float(linalg.factor_spd(g).solve(np.eye(len(g))[0])[0])
            except NotPositiveDefinite:
                unresolved += 1
                continue
            products.append(p2 * norm2)
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


def run_identities(config: ExperimentConfig) -> tuple[str, bool]:
    """Run the identity suite; returns (report text, all passed).  Suite i
    of IDENTITY_SUITES draws from seed + i."""
    suites, perturb = config.params["suites"], config.params["perturb"]
    lines = [f"identity suite (seed {config.seed})"]
    ok = True
    for i, name in enumerate(IDENTITY_SUITES):
        if name not in suites:
            continue
        check, passes, detail = _IDENTITY_CHECKS[name]
        # any error inside a suite counts as a failure, not a crash
        try:
            result = check(np.random.default_rng(config.seed + i), perturb)
        except Exception as exc:
            passed, text = False, f"raised {type(exc).__name__}: {exc}"
        else:
            passed, text = passes(result), detail(result)
        ok &= passed
        lines.append(f"{'PASS' if passed else 'FAIL'} {name}: {text}")

    lines.append("ALL PASS" if ok else "FAILURES PRESENT")
    text = "\n".join(lines) + "\n"
    _write(config.out_dir / "identities_report.txt", text)
    return text, ok


# ---------------------------------------------------------------------------
# greedy

def run_greedy(config: ExperimentConfig) -> dict:
    params = config.params
    side, d, steps = params["grid_side"], params["d"], params["max_steps"]
    kernel = MaternSobolevKernel(params["m"], d, params["c"])
    h = (np.arange(side) + 0.5) / side
    if d == 2:
        pts = [(x, y) for x in h for y in h]
    else:
        pts = [(x,) for x in h]
    candidates = FunctionalSet([PointEval(p) for p in pts])
    trace = p_greedy(kernel, candidates, max_steps=steps, tolerance=params["tolerance"])
    _write(config.out_dir / "greedy_trace.csv", trace.to_csv())
    sel_lines = ["candidate_id," + ("x,y" if d == 2 else "x")]
    for idx, f in zip(trace.selected_indices, trace.selected):
        sel_lines.append(f"{idx}," + ",".join(f"{v:.17g}" for v in f.x))
    _write(config.out_dir / "greedy_selected.csv", "\n".join(sel_lines) + "\n")
    return {"steps": len(trace.selected), "stop_reason": trace.stop_reason,
            "final_max_power": trace.max_powers[-1],
            "unresolved_from": trace.unresolved_from}


# ---------------------------------------------------------------------------
# audit: generic tradeoff report from a JSON problem spec

def run_audit(config: ExperimentConfig) -> dict:
    spec = config.params
    kernel = kernel_from_spec(spec["kernel"])
    lam_set = FunctionalSet.from_json(spec["data"])
    eval_set = [functional_from_json(d) for d in spec["eval"]]
    reports = kernel_recovery.tradeoff_report(kernel, lam_set, eval_set)
    _write(config.out_dir / "audit_report.csv", reports_to_csv(reports))
    flags = [r.flag for r in reports]
    return {"evaluations": len(reports), "excluded": flags.count(FLAG_EXCLUDED),
            "unresolved": flags.count(FLAG_UNRESOLVED)}


# ---------------------------------------------------------------------------
# entry point

_REQUIRED = object()  # the default of a key that must be given
_COUNT, _SIZE, _ARRAY = _at_least(0), _at_least(1), _of(list, "a JSON array")
_FLAG = _of(bool, "true or false")

# subcommand -> key -> (check, default): the keys its config accepts, where
# check(key, value) raises a ValueError naming the key unless it takes value.
# m is a number the kernel checks is whole, as in an audit kernel spec; the
# kansa rtol reproduces the published magnitudes (kansa measures the rank)
CONFIG_KEYS = {
    "fig1": {"n_points": (_at_least(2), 11), "extra_point": (_real, -0.9056),
             "tail_order": (_at_least(2), 121),  # and >= n_points, checked in run_fig1
             "weights": (_of(str, "a weight rule string"), "(j+1)^2"),
             "families": (_names(tuple(FIG1_NODES)), tuple(FIG1_NODES)),
             "curve_points": (_COUNT, 401)},
    "kansa": {"n_side": (_SIZE, 11), "n_boundary": (_COUNT, 16),
              "include_corners": (_FLAG, True), "m": (_real, 5), "c": (_real, 1.0),
              "rtol": (_real, 4e-10), "eval_interior_side": (_SIZE, 21),
              "eval_boundary": (_SIZE, 64), "trial_points": (_ARRAY, None)},  # None: data grid
    "identities": {"suites": (_names(IDENTITY_SUITES), IDENTITY_SUITES),
                   "perturb": (_FLAG, False)},
    "greedy": {"grid_side": (_SIZE, 10), "max_steps": (_SIZE, 25), "tolerance": (_real, 0.0),
               "m": (_real, 5), "d": (_SIZE, 2), "c": (_real, 1.0)},
    "audit": {"kernel": (_of(dict, "a JSON object"), _REQUIRED),
              "data": (_ARRAY, _REQUIRED), "eval": (_ARRAY, _REQUIRED)},
}

_RUNNERS = {
    "fig1": run_fig1,
    "kansa": run_kansa,
    "greedy": run_greedy,
    "audit": run_audit,
}


def _seed(text: str) -> int:
    """A --seed value: numpy's generators take only non-negative integers."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


@functools.cache  # built once per process: parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tradeoff",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
            ("fig1", "bump vs Lagrangian norms for 11-point interpolation"),
            ("kansa", "unsymmetric vs symmetric collocation power surfaces"),
            ("identities", "verify the trade-off identities on seeded instances"),
            ("greedy", "power-greedy selection on a candidate grid"),
            ("audit", "trade-off report for a JSON problem spec")]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=Path, default=None,
                       help="JSON file with parameter overrides")
        p.add_argument("--out", type=Path, default=None, help="output directory")
        p.add_argument("--seed", type=_seed, default=0)
        if name == "identities":
            p.add_argument("--suite", action="append", dest="suites",
                           choices=IDENTITY_SUITES,
                           help="run only the named suites (repeatable)")
            p.add_argument("--perturb", action="store_true",
                           help="negative control: scale K(mu, mu) in each "
                                "extended Gram by 1.01")
    return parser


def main(argv=None) -> int:
    """Run one subcommand.  Exit code 0 on success, 1 when an identity suite
    fails or a Gram's Cholesky factorization fails (a numerical outcome, not
    bad input), 2 on bad input (argparse's code for usage errors): a bad
    command line, config or spec, or a config file that cannot be read."""
    args = build_parser().parse_args(argv)
    try:
        params = {}
        if args.config is not None:
            try:
                text = Path(args.config).read_text()
            except OSError as exc:
                raise ValueError(f"cannot read config file {args.config}: "
                                 f"{exc.strerror or exc}") from exc
            params = json.loads(text)
            if not isinstance(params, dict):
                raise ValueError(f"config file {args.config} must hold a JSON "
                                 f"object, not {type(params).__name__}")
        if getattr(args, "suites", None):
            params["suites"] = args.suites
        if getattr(args, "perturb", False):
            params["perturb"] = True
        config = ExperimentConfig(args.command, params, args.out, args.seed)

        if args.command == "identities":
            text, ok = run_identities(config)
            sys.stdout.write(text)
            return 0 if ok else 1
        summary = _RUNNERS[args.command](config)
    except (TradeoffError, ValueError) as exc:
        sys.stderr.write(f"tradeoff: error: {exc}\n")
        return 1 if isinstance(exc, NotPositiveDefinite) else 2
    sys.stdout.write(_json_dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
