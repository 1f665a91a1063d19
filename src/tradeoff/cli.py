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
import itertools
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import expansion, kernel_recovery, unsymmetric
from .errors import BadWeights, NotPositiveDefinite, TradeoffError
from .functionals import FunctionalSet, LaplacianEval, PointEval, functional_from_json
from .greedy import p_greedy
from .identities import IDENTITY_SUITES, run_suites
from .kernels import MaternSobolevKernel, kernel_from_spec
from .report import FLAG_EXCLUDED, FLAG_UNRESOLVED, reports_to_csv
from .unsymmetric import PoissonSetup, build_kansa, unit_square_perimeter
from .weights import parse_weight_rule


@dataclass
class ExperimentConfig:
    """A run of subcommand name, its params checked against CONFIG_KEYS[name];
    seed is read by identities alone."""

    name: str
    params: dict = field(default_factory=dict)
    out_dir: Path = None
    seed: int = 0

    def __post_init__(self):
        self.out_dir = Path(f"{self.name}_out" if self.out_dir is None else self.out_dir)
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


def _must(what: str, ok):
    """Check of a value that ok accepts, which what names."""
    def check(key: str, value):
        if not ok(value):
            raise ValueError(f"{key} must be {what}, got {value!r}")
    return check


def _of(kind: type, what: str):
    """Check of a value of one JSON type (bool is not int), which what names."""
    return _must(what, lambda value: type(value) is kind)


def _is_real(value) -> bool:
    """Whether value is a finite JSON number (a bool, string or NaN is not)."""
    return type(value) in (int, float) and math.isfinite(value)


def _integer(low: int, high: float = math.inf):
    """Check of an integer in [low, high]; a bool, float or string is rejected."""
    def check(key: str, value):
        _of(int, "an integer")(key, value)
        if value < low:
            raise ValueError(f"{key} must be >= {low}, got {value}")
        if value > high:
            raise ValueError(f"{key} must be <= {high}, got {value}")
    return check


def _weight_rule(key: str, value):
    _of(str, "a weight rule string")(key, value)
    try:
        parse_weight_rule(value)
    except BadWeights as exc:
        raise ValueError(f"{key} must be a weight rule that parses: {exc}") from exc


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
    _integer(n_points)("tail_order", tail)

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

    for fam, data in curves.items():
        lines = ["# x  bump  lagrangian"] + [f"{r[0]:.17g} {r[1]:.17g} {r[2]:.17g}" for r in data]
        _write(config.out_dir / f"fig1_{fam}.dat", "\n".join(lines) + "\n")
    _write(config.out_dir / "fig1_summary.json", _json_dumps(summary))
    return summary


# ---------------------------------------------------------------------------
# kansa: unsymmetric vs symmetric collocation power surfaces

KANSA_CSV_HEADER = "x,y,p2_unsym,p2_sym,recip_pseudo_norm2"


def _kansa_csv(points, p2u, p2s, recip=None) -> str:
    recip = ["nan"] * len(points) if recip is None else [f"{r:.17g}" for r in recip.tolist()]
    lines = [KANSA_CSV_HEADER] + [
        f"{x:.17g},{y:.17g},{u:.17g},{v:.17g},{r}"
        for (x, y), u, v, r in zip(points.tolist(), p2u.tolist(), p2s.tolist(), recip)]
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
    mus_i = FunctionalSet([LaplacianEval(tuple(p)) for p in grid_i])
    grid_b = unit_square_perimeter(np.arange(eval_boundary) * 4.0 / eval_boundary)
    mus_b = FunctionalSet([PointEval(tuple(p)) for p in grid_b])

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

def run_identities(config: ExperimentConfig) -> tuple[str, bool]:
    """Run the identity suites (tradeoff.identities); returns (report text,
    all passed)."""
    params = config.params
    text, ok = run_suites(params["suites"], config.seed, params["perturb"])
    _write(config.out_dir / "identities_report.txt", text)
    return text, ok


# ---------------------------------------------------------------------------
# greedy

def run_greedy(config: ExperimentConfig) -> dict:
    params = config.params
    side, d, steps = params["grid_side"], params["d"], params["max_steps"]
    kernel = MaternSobolevKernel(params["m"], d, params["c"])
    h = (np.arange(side) + 0.5) / side
    candidates = FunctionalSet([PointEval(p) for p in itertools.product(h, repeat=d)])
    trace = p_greedy(kernel, candidates, max_steps=steps, tolerance=params["tolerance"])
    _write(config.out_dir / "greedy_trace.csv", trace.to_csv())
    sel_lines = ["candidate_id," + ("x,y" if d == 2 else "x")]
    for idx, f in zip(trace.selected_indices, trace.selected):
        sel_lines.append(f"{idx}," + ",".join(f"{v:.17g}" for v in f.x))
    _write(config.out_dir / "greedy_selected.csv", "\n".join(sel_lines) + "\n")
    return {"steps": len(trace.selected), "stop_reason": trace.stop_reason,
            "final_max_power": trace.max_powers[-1],
            "unresolved_from": trace.unresolved_from, "route_gap": trace.route_gap}


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
_COUNT, _SIZE, _ARRAY = _integer(0), _integer(1), _of(list, "a JSON array")
_FLAG, _REAL = _of(bool, "true or false"), _must("a finite number", _is_real)
_POSITIVE = _must("a finite number > 0", lambda v: _is_real(v) and v > 0)
_ORDER = _must("a finite number that is a whole number >= 3",  # a Sobolev order; 5.0 is one
               lambda v: _is_real(v) and v >= 3 and float(v).is_integer())
_POINTS = _must("a JSON array of [x, y] points of finite numbers",
                lambda v: type(v) is list and all(type(p) is list and len(p) == 2
                                                  and all(map(_is_real, p)) for p in v))

# subcommand -> key -> (check, default): the keys its config accepts, where
# check(key, value) raises a ValueError naming the key unless it takes value.
# The kernel and the weight parser check their own arguments too, for
# library callers; the kansa rtol reproduces the published magnitudes
# (kansa measures the rank)
CONFIG_KEYS = {
    "fig1": {"n_points": (_integer(2), 11), "extra_point": (_REAL, -0.9056),
             "tail_order": (_integer(2), 121),  # and >= n_points, checked in run_fig1
             "weights": (_weight_rule, "(j+1)^2"),
             "families": (_names(tuple(FIG1_NODES)), tuple(FIG1_NODES)),
             "curve_points": (_COUNT, 401)},
    "kansa": {"n_side": (_SIZE, 11), "n_boundary": (_COUNT, 16),
              "include_corners": (_FLAG, True), "m": (_ORDER, 5), "c": (_POSITIVE, 1.0),
              "rtol": (_REAL, 4e-10), "eval_interior_side": (_SIZE, 21),
              "eval_boundary": (_SIZE, 64), "trial_points": (_POINTS, None)},  # None: data grid
    "identities": {"suites": (_names(IDENTITY_SUITES), IDENTITY_SUITES),
                   "perturb": (_FLAG, False)},
    "greedy": {"grid_side": (_SIZE, 10), "max_steps": (_SIZE, 25), "tolerance": (_REAL, 0.0),
               "m": (_ORDER, 5), "d": (_integer(1, 2), 2), "c": (_POSITIVE, 1.0)},
    "audit": {"kernel": (_of(dict, "a JSON object"), _REQUIRED),
              "data": (_ARRAY, _REQUIRED), "eval": (_ARRAY, _REQUIRED)},
}

_RUNNERS = {"fig1": run_fig1, "kansa": run_kansa, "greedy": run_greedy, "audit": run_audit}


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
        if name == "identities":
            p.add_argument("--seed", type=_seed, default=0,
                           help="suite i draws from seed + i")
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
        config = ExperimentConfig(args.command, params, args.out, getattr(args, "seed", 0))

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
