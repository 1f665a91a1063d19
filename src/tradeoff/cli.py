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
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import expansion, kernel_recovery, linalg, unsymmetric
from .errors import TradeoffError
from .functionals import FunctionalSet, LaplacianEval, PointEval, functional_from_json
from .greedy import p_greedy
from .kernels import MaternSobolevKernel, gram, kernel_from_spec
from .report import reports_to_csv
from .unsymmetric import PoissonSetup, build_kansa, unit_square_perimeter


@dataclass
class ExperimentConfig:
    name: str
    params: dict = field(default_factory=dict)
    out_dir: Path = None
    seed: int = 0

    def __post_init__(self):
        if self.out_dir is None:
            self.out_dir = Path(f"{self.name}_out")
        self.out_dir = Path(self.out_dir)

    def get(self, key, default=None):
        return self.params.get(key, default)


def _write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# fig1: norms of Lagrangians vs norm-minimal bumps in a weighted Chebyshev space

def _fig1_nodes(kind: str, n_points: int) -> np.ndarray:
    n = n_points - 1
    if kind == "equidistant":
        return np.linspace(-1.0, 1.0, n_points)
    if kind == "chebyshev_extrema":
        return np.sort(np.cos(np.arange(n_points) * np.pi / n))
    if kind == "chebyshev_zeros":
        return np.sort(np.cos((2 * np.arange(n_points) + 1) * np.pi / (2 * n_points)))
    raise ValueError(f"unknown node family {kind!r}")


def run_fig1(config: ExperimentConfig) -> dict:
    """Norm-minimal bump functions versus add-one-in Lagrangians.

    The reported product pairs the one-tail-term power bound with the
    Lagrangian norm; the full truncated tail power is emitted alongside.
    """
    n_points = config.get("n_points", 11)
    extra = config.get("extra_point", -0.9056)
    tail = config.get("tail_order", 121)
    weights = config.get("weights", "(j+1)^2")
    n_curve = config.get("curve_points", 401)
    families = config.get(
        "families", ["equidistant", "chebyshev_extrema", "chebyshev_zeros"])

    xs = np.linspace(-1.0, 1.0, n_curve)
    mu = PointEval(extra)
    n = n_points - 1
    summary = {}
    curves = {}
    for fam in families:
        nodes = _fig1_nodes(fam, n_points)
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

# pseudoinverse cutoff reproducing the published magnitudes; the effective
# numerical rank of the collocation matrix is what the experiment measures
KANSA_DEFAULT_RTOL = 4e-10


def _kansa_csv(points, p2u, p2s, recip=None) -> str:
    lines = [KANSA_CSV_HEADER]
    for i, (x, y) in enumerate(points):
        r = f"{recip[i]:.17g}" if recip is not None else "nan"
        lines.append(f"{x:.17g},{y:.17g},{p2u[i]:.17g},{p2s[i]:.17g},{r}")
    return "\n".join(lines) + "\n"


def run_kansa(config: ExperimentConfig) -> dict:
    """Squared power functions of pseudoinverse-based unsymmetric collocation
    against symmetric collocation, plus pseudo-Lagrangian stability norms."""
    n_side = config.get("n_side", 11)
    n_boundary = config.get("n_boundary", 16)
    include_corners = config.get("include_corners", True)
    m = config.get("m", 5)
    scale = config.get("c", 1.0)
    rtol = config.get("rtol", KANSA_DEFAULT_RTOL)
    eval_side = config.get("eval_interior_side", 21)
    eval_boundary = config.get("eval_boundary", 64)

    kernel = MaternSobolevKernel(m, 2, scale)
    setup = PoissonSetup.regular(
        kernel, n_side=n_side, n_boundary=n_boundary,
        include_corners=include_corners,
        trial_points=config.get("trial_points"))
    rec = build_kansa(setup, rtol=rtol)
    lam_set = rec.functionals
    ctx = kernel_recovery.PowerContext(kernel, lam_set)

    h = np.arange(1, eval_side + 1) / (eval_side + 1.0)
    grid_i = np.array([[x, y] for x in h for y in h])
    mus_i = [LaplacianEval(tuple(p)) for p in grid_i]
    grid_b = unit_square_perimeter(np.arange(eval_boundary) * 4.0 / eval_boundary)
    mus_b = [PointEval(tuple(p)) for p in grid_b]

    p2s_i = ctx.power_batch(mus_i)[0]
    p2u_i = unsymmetric.kansa_power_squared_batch(rec, mus_i)
    p2s_b = ctx.power_batch(mus_b)[0]
    p2u_b = unsymmetric.kansa_power_squared_batch(rec, mus_b)

    pl2 = unsymmetric.pseudo_lagrangian_norms(rec)
    recip = 1.0 / pl2
    # leave-one-out optimal powers at the data sites, and the kansa powers there
    loo_p2 = 1.0 / ctx.factor.inverse_diagonal()
    p2u_sites = unsymmetric.kansa_power_squared_batch(rec, lam_set)
    sites = np.vstack([setup.interior, setup.boundary])
    factors = recip / loo_p2

    viol_i = int(np.sum(p2u_i < p2s_i - 1e-8))
    viol_b = int(np.sum(p2u_b < p2s_b - 1e-8))
    summary = {
        "m": m, "c": scale, "rtol": rtol, "rank": rec.rank,
        "M": rec.m, "N": rec.n,
        "jitter": ctx.jitter,
        "max_p2_unsym_interior": float(p2u_i.max()),
        "max_p2_sym_interior": float(p2s_i.max()),
        "ratio_max_interior": float(p2u_i.max() / p2s_i.max()),
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
        nodes = np.sort(rng.uniform(-1.0, 1.0, count))
        if np.all(np.diff(nodes) > 1e-12):
            return nodes


def _identity_poly(rng, checks: int = 200) -> float:
    worst = 0.0
    for _ in range(checks):
        n = int(rng.integers(1, 11))
        nodes = _sample_distinct_nodes(rng, n + 1)
        while True:
            x = float(rng.uniform(-1.0, 1.0))
            if np.min(np.abs(x - nodes)) > 1e-9:
                break
        prod = expansion.poly_power(nodes, x) * expansion.poly_lagrangian_seminorm(nodes, x)
        worst = max(worst, abs(prod - 1.0))
    return worst


def _identity_ctd(rng, checks: int = 10_000) -> tuple[float, float, float]:
    lo, hi, mid_dev = math.inf, -math.inf, 0.0
    for _ in range(checks):
        xk = float(rng.uniform(-1.0, 1.0))
        width = float(rng.uniform(1e-3, 2.0))
        xk1 = xk + width
        t = float(rng.uniform(1e-6, 1.0 - 1e-6))
        x = xk + t * width
        prod = expansion.ctd_power(xk, xk1, x) * expansion.ctd_lagrangian_norm(xk, xk1, x)
        lo, hi = min(lo, prod), max(hi, prod)
        xm = xk + 0.5 * width
        pm = expansion.ctd_power(xk, xk1, xm) * expansion.ctd_lagrangian_norm(xk, xk1, xm)
        mid_dev = max(mid_dev, abs(pm - 1.0))
    return lo, hi, mid_dev


_TAYLOR_RULES = ["1", "0.37", "(j+1)^2", "(j+2)^3", "factorial_sq_over:2^j",
                 "factorial_sq_over:3^j"]


def _identity_taylor(rng, checks: int = 100) -> float:
    worst = 0.0
    for _ in range(checks):
        rule = _TAYLOR_RULES[int(rng.integers(0, len(_TAYLOR_RULES)))]
        k = int(rng.integers(0, 40))
        prod = expansion.taylor_power(rule, k) * expansion.taylor_lagrangian_norm(rule, k)
        worst = max(worst, abs(prod - 1.0))
    return worst


def _identity_ortho(rng, checks: int = 100) -> float:
    worst = 0.0
    for _ in range(checks):
        size = int(rng.integers(1, 50))
        tail = rng.normal(size=size)
        power, _, bump_norm = expansion.ortho_power_and_bump(tail)
        worst = max(worst, abs(power * bump_norm - 1.0))
    return worst


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


def _identity_kernel(rng, perturb: bool = False) -> float:
    """Product of the Schur-route squared power with the squared Lagrangian
    norm obtained from an independent extended-Gram solve."""
    worst = 0.0
    for m, d in _KERNEL_SWEEP:
        kernel, lam_set, mus = _kernel_instance(rng, m, d)
        ctx = kernel_recovery.PowerContext(kernel, lam_set)
        for mu in mus:
            ev = ctx.power_squared(mu)
            if ev.excluded:
                continue
            ext = FunctionalSet([mu] + list(lam_set))
            g = gram(kernel, ext)
            if perturb:
                g[0, 1] *= 1.01
                g[1, 0] *= 1.01
            e0 = np.zeros(len(ext))
            e0[0] = 1.0
            norm2 = float(linalg.factor_spd(g).solve(e0)[0])
            worst = max(worst, abs(ev.power_squared * norm2 - 1.0))
    return worst


def _identity_svd(rng, checks: int = 100) -> float:
    worst = 0.0
    for _ in range(checks):
        m = int(rng.integers(2, 12))
        n_pos = int(rng.integers(0, m))
        sigma = np.sort(rng.uniform(0.1, 5.0, size=n_pos))[::-1]
        rec = unsymmetric.SvdRecovery(sigma, m=m)
        mu = rng.normal(size=m)
        if not np.any(mu[rec.zero_mask()] != 0.0):
            mu[-1] = 1.0
        p2 = unsymmetric.svd_power_squared(rec, mu)
        _, norm = unsymmetric.svd_bump_min(rec, mu)
        worst = max(worst, abs(p2 * norm ** 2 - 1.0))
    return worst


IDENTITY_SUITES = ("poly", "ctd", "taylor", "ortho", "kernel", "svd")


def run_identities(config: ExperimentConfig) -> tuple[str, bool]:
    """Run the identity suite; returns (report text, all passed)."""
    suites = config.get("suites", list(IDENTITY_SUITES))
    perturb = bool(config.get("perturb", False))
    lines = [f"identity suite (seed {config.seed})"]
    ok = True

    def record(name, passed, detail):
        nonlocal ok
        ok &= passed
        lines.append(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")

    def guarded(name, tol, fn, fmt):
        # any error inside a suite counts as a failure, not a crash
        try:
            dev = fn()
        except Exception as exc:
            record(name, False, f"raised {type(exc).__name__}: {exc}")
            return
        record(name, dev <= tol, fmt(dev))

    if "poly" in suites:
        rng = np.random.default_rng(config.seed)
        guarded("poly", 1e-11, lambda: _identity_poly(rng),
                lambda d: f"max |power*seminorm - 1| = {d:.3e} (tol 1e-11)")
    if "ctd" in suites:
        rng = np.random.default_rng(config.seed + 1)
        lo, hi, mid = _identity_ctd(rng)
        passed = lo >= 1.0 - 1e-12 and hi <= 2.0 + 1e-12 and mid <= 1e-12
        record("ctd", passed,
               f"product range [{lo:.12f}, {hi:.12f}], midpoint dev {mid:.3e}")
    if "taylor" in suites:
        rng = np.random.default_rng(config.seed + 2)
        guarded("taylor", 1e-12, lambda: _identity_taylor(rng),
                lambda d: f"max |product - 1| = {d:.3e} (tol 1e-12)")
    if "ortho" in suites:
        rng = np.random.default_rng(config.seed + 3)
        guarded("ortho", 1e-12, lambda: _identity_ortho(rng),
                lambda d: f"max |product - 1| = {d:.3e} (tol 1e-12)")
    if "kernel" in suites:
        rng = np.random.default_rng(config.seed + 4)
        guarded("kernel", 1e-5, lambda: _identity_kernel(rng, perturb=perturb),
                lambda d: f"max |P^2*norm^2 - 1| = {d:.3e} (tol 1e-5)")
    if "svd" in suites:
        rng = np.random.default_rng(config.seed + 5)
        guarded("svd", 1e-12, lambda: _identity_svd(rng),
                lambda d: f"max |P^2*norm^2 - 1| = {d:.3e} (tol 1e-12)")

    lines.append("ALL PASS" if ok else "FAILURES PRESENT")
    text = "\n".join(lines) + "\n"
    _write(config.out_dir / "identities_report.txt", text)
    return text, ok


# ---------------------------------------------------------------------------
# greedy

def run_greedy(config: ExperimentConfig) -> dict:
    side = config.get("grid_side", 10)
    steps = config.get("max_steps", 25)
    tolerance = config.get("tolerance", 0.0)
    m = config.get("m", 5)
    d = config.get("d", 2)
    scale = config.get("c", 1.0)
    kernel = MaternSobolevKernel(m, d, scale)
    h = (np.arange(side) + 0.5) / side
    if d == 2:
        pts = [(x, y) for x in h for y in h]
    else:
        pts = [(x,) for x in h]
    candidates = FunctionalSet([PointEval(p) for p in pts])
    trace = p_greedy(kernel, candidates, max_steps=steps, tolerance=tolerance)
    _write(config.out_dir / "greedy_trace.csv", trace.to_csv())
    sel_lines = ["candidate_id," + ("x,y" if d == 2 else "x")]
    for idx, f in zip(trace.selected_indices, trace.selected):
        sel_lines.append(f"{idx}," + ",".join(f"{v:.17g}" for v in f.x))
    _write(config.out_dir / "greedy_selected.csv", "\n".join(sel_lines) + "\n")
    return {"steps": len(trace.selected), "stop_reason": trace.stop_reason,
            "final_max_power": trace.max_powers[-1]}


# ---------------------------------------------------------------------------
# audit: generic tradeoff report from a JSON problem spec

def run_audit(config: ExperimentConfig) -> dict:
    spec = config.params
    if "kernel" not in spec or "data" not in spec or "eval" not in spec:
        raise TradeoffError(
            "audit config needs 'kernel', 'data', and 'eval' entries")
    kernel = kernel_from_spec(spec["kernel"])
    lam_set = FunctionalSet.from_json(spec["data"])
    eval_set = [functional_from_json(d) for d in spec["eval"]]
    reports = kernel_recovery.tradeoff_report(kernel, lam_set, eval_set)
    _write(config.out_dir / "audit_report.csv", reports_to_csv(reports))
    n_excl = sum(r.excluded for r in reports)
    return {"evaluations": len(reports), "excluded": n_excl}


# ---------------------------------------------------------------------------
# entry point

_RUNNERS = {
    "fig1": run_fig1,
    "kansa": run_kansa,
    "greedy": run_greedy,
    "audit": run_audit,
}


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
        p.add_argument("--seed", type=int, default=0)
        if name == "identities":
            p.add_argument("--suite", action="append", dest="suites",
                           choices=IDENTITY_SUITES,
                           help="run only the named suites (repeatable)")
            p.add_argument("--perturb", action="store_true",
                           help="negative control: perturb a Gram entry by 1.01")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    params = {}
    if args.config is not None:
        params = json.loads(Path(args.config).read_text())
    if getattr(args, "suites", None):
        params["suites"] = args.suites
    if getattr(args, "perturb", False):
        params["perturb"] = True
    config = ExperimentConfig(
        name=args.command, params=params,
        out_dir=args.out, seed=args.seed)

    if args.command == "identities":
        text, ok = run_identities(config)
        sys.stdout.write(text)
        return 0 if ok else 1
    summary = _RUNNERS[args.command](config)
    sys.stdout.write(_json_dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
