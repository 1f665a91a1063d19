"""The benchmark's workloads: their jobs, seeded inputs and request counts.

Each job is one ``tradeoff.cli.main`` call, except ``p_greedy`` on scattered
candidates, which the CLI has no input for and which is therefore called
through the library.  The seed reaches only the generated inputs.  ``evals``
and ``ops`` are functions of the job parameters alone, so they are the same
on every commit of the program.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# CLI defaults, spelled out so the per-job counts below cannot drift from them
KANSA_EVAL_SIDE = 21
KANSA_EVAL_BOUNDARY = 64
KANSA_BOUNDARY = 16
IDENTITY_SUITES = ("poly", "ctd", "taylor", "ortho", "kernel", "svd")
FIG1_FAMILIES = ("equidistant", "chebyshev_extrema", "chebyshev_zeros")

# identity checks per seed as coded in the CLI suites (poly 200, ctd 10000
# random + 10000 midpoint, taylor 100, ortho 100, kernel 6 (m, d) pairs x 8
# evaluation points, svd 100); each check evaluates a power and a norm
IDENTITY_EVALS = 2 * (200 + 2 * 10_000 + 100 + 100 + 6 * 8 + 100)
# fig1 reports power, one-term power, Lagrangian and bump norm per family
FIG1_EVALS = 4 * len(FIG1_FAMILIES)

AUDIT_ROWS = 1000
AUDIT_NEAR_ROWS = 50
AUDIT_NEAR_RADIUS = 1e-3


@dataclass(frozen=True)
class Job:
    """One request of a workload."""

    name: str            # output directory name, unique within the workload
    command: str         # CLI subcommand, or "p_greedy" for the library call
    config: dict | None  # written to a --config file during set-up
    args: tuple = ()     # further CLI arguments
    evals: int = 0       # power or stability evaluations requested
    ops: int = 0         # operations the correctness check counts

    def argv(self, config_path, out_dir) -> list[str]:
        argv = [self.command, *self.args, "--out", str(out_dir)]
        if self.config is not None:
            argv += ["--config", str(config_path)]
        return argv


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    layers: tuple        # modules whose spans must record calls on this workload
    make_jobs: object    # seed -> list[Job]


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


# ---------------------------------------------------------------------------
# kansa

def kansa_job(name: str, n_side: int, trial=None) -> Job:
    rows = KANSA_EVAL_SIDE ** 2 + KANSA_EVAL_BOUNDARY
    sites = n_side ** 2 + KANSA_BOUNDARY
    config = {"n_side": n_side, "n_boundary": KANSA_BOUNDARY,
              "eval_interior_side": KANSA_EVAL_SIDE,
              "eval_boundary": KANSA_EVAL_BOUNDARY}
    if trial is not None:
        config["trial_points"] = trial
    # both powers on every surface row; Kansa power, leave-one-out power and
    # pseudo-Lagrangian norm at every data site
    return Job(name, "kansa", config, evals=2 * rows + 3 * sites, ops=rows)


def kansa_jobs(seed: int) -> list[Job]:
    trial = _rng(seed, 1).uniform(0.0, 1.0, size=(121, 2)).tolist()
    return [kansa_job(f"kansa_{n}", n) for n in (11, 17, 23)] + [
        kansa_job("kansa_11_scattered", 11, trial)]


# ---------------------------------------------------------------------------
# greedy

def greedy_evals(n_candidates: int, steps: int) -> int:
    """Powers requested: every remaining candidate at every step."""
    return steps * n_candidates - steps * (steps - 1) // 2


def _greedy_grid_job(side: int, steps: int) -> Job:
    config = {"grid_side": side, "max_steps": steps, "m": 5, "d": 2, "c": 1.0}
    return Job(f"greedy_{side}x{steps}", "greedy", config,
               evals=greedy_evals(side * side, steps), ops=steps)


def greedy_jobs(seed: int) -> list[Job]:
    pts = _rng(seed, 2).uniform(0.0, 1.0, size=(400, 2)).tolist()
    scattered = Job("p_greedy_400x50", "p_greedy",
                    {"candidates": pts, "max_steps": 50, "m": 5, "d": 2, "c": 1.0},
                    evals=greedy_evals(400, 50), ops=50)
    return [_greedy_grid_job(20, 50), _greedy_grid_job(30, 100), scattered]


def greedy_candidates(config: dict) -> list[tuple]:
    """Candidate points of a greedy job, in candidate-id order (the grid
    layout is the CLI's)."""
    if "candidates" in config:
        return [tuple(p) for p in config["candidates"]]
    side = config["grid_side"]
    h = (np.arange(side) + 0.5) / side
    return [(float(x), float(y)) for x in h for y in h]


# ---------------------------------------------------------------------------
# audit

def _points(xs) -> list[dict]:
    return [{"kind": "point", "x": list(np.atleast_1d(p))} for p in xs.tolist()]


def audit_problems(seed: int) -> dict[str, dict]:
    """(a) 2-d Matern at 400 scattered sites, with rows near the sites;
    (b) 1-d Matern with value and slope data, evaluated at orders 0..2;
    (c) a weighted-Chebyshev kernel, which bypasses the Matern kernel."""
    rng = _rng(seed, 3)
    sites = rng.uniform(0.0, 1.0, size=(400, 2))
    rows = rng.uniform(0.0, 1.0, size=(AUDIT_ROWS, 2))
    near = rng.choice(AUDIT_ROWS, AUDIT_NEAR_ROWS, replace=False)
    angle = rng.uniform(0.0, 2.0 * np.pi, AUDIT_NEAR_ROWS)
    radius = rng.uniform(0.0, AUDIT_NEAR_RADIUS, AUDIT_NEAR_ROWS)
    rows[near] = (sites[rng.choice(len(sites), AUDIT_NEAR_ROWS, replace=False)]
                  + radius[:, None] * np.column_stack([np.cos(angle), np.sin(angle)]))
    scattered = {"kernel": {"family": "matern", "m": 5, "d": 2, "c": 0.1},
                 "data": _points(sites), "eval": _points(rows)}

    h = 1.0 / 29
    xs = np.linspace(0.0, 1.0, 30) + rng.uniform(-0.3 * h, 0.3 * h, 30)
    data = []
    for x in xs.tolist():
        data += [{"kind": "point", "x": [x]}, {"kind": "deriv", "x": [x], "order": 1}]
    ev = rng.uniform(0.0, 1.0, AUDIT_ROWS).tolist()
    hermite = {"kernel": {"family": "matern", "m": 5, "d": 1, "c": 0.05},
               "data": data,
               "eval": [{"kind": "deriv", "x": [x], "order": i % 3}
                        for i, x in enumerate(ev)]}

    nodes = np.cos(np.arange(11) * np.pi / 10)
    cheb = {"kernel": {"family": "chebweight", "weights": "(j+1)^2", "K": 121},
            "data": _points(nodes),
            "eval": _points(rng.uniform(-1.0, 1.0, AUDIT_ROWS))}
    return {"audit_scattered": scattered, "audit_hermite": hermite,
            "audit_chebweight": cheb}


def audit_jobs(seed: int) -> list[Job]:
    return [Job(name, "audit", problem, evals=AUDIT_ROWS, ops=AUDIT_ROWS)
            for name, problem in audit_problems(seed).items()]


# ---------------------------------------------------------------------------
# identities

def identities_jobs(seed: int) -> list[Job]:
    jobs = [Job(f"identities_{s}", "identities", None, args=("--seed", str(s)),
                evals=IDENTITY_EVALS, ops=len(IDENTITY_SUITES))
            for s in range(seed, seed + 20)]
    jobs.append(Job("fig1", "fig1", None, evals=FIG1_EVALS, ops=len(FIG1_FAMILIES)))
    jobs.append(Job("fig1_21", "fig1", {"n_points": 21},
                    evals=FIG1_EVALS, ops=len(FIG1_FAMILIES)))
    return jobs


# ---------------------------------------------------------------------------

WORKLOADS = {w.name: w for w in [
    Workload(
        "kansa",
        "Laplacian-Laplacian kernel blocks carry the most Bessel calls; the "
        "Kansa Gram is rebuilt per call and the SVD and memory grow with n_side",
        ("kernels", "linalg", "unsymmetric", "cli"),
        kansa_jobs),
    Workload(
        "greedy",
        "build-heavy use of kernel recovery: a fresh Gram, factorization and "
        "cross-kernels every P-greedy step; the grids have true ties",
        ("kernels", "linalg", "kernel_recovery", "greedy", "cli"),
        greedy_jobs),
    Workload(
        "audit",
        "query-heavy use of kernel recovery: one factorization, then thousands "
        "of scalar report rows, near-site rows and a non-Matern kernel",
        ("kernels", "linalg", "kernel_recovery", "functionals", "report", "cli"),
        audit_jobs),
    Workload(
        "identities",
        "closed-form expansion identities and scalar loops that no other "
        "workload loads; kernel and factorization changes should not move it",
        ("expansion", "functionals", "cli"),
        identities_jobs),
]}
