"""Adaptive selection of data functionals: at each step, add the candidate
with the largest current power-function value.

The selection runs in the Newton basis (Mueller & Schaback, JAT 2009): the
Newton columns of the selected set are the columns of the pivoted Cholesky
factor of the candidate Gram (Harbrecht, Peters & Schneider, APNUM 2012),
and each candidate's squared power is K(mu, mu) less the sum of its Newton
values squared.  A step adds one Newton column at O(n k) for n candidates
and k selections, in place of a solve against the selected Gram per
candidate at O(k^2) each.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import NotPositiveDefinite
from .functionals import Functional, FunctionalSet
from .kernel_recovery import UNRESOLVED_RTOL, PowerContext, roundoff_floor
from .kernels import mirror_upper

STOP_TOLERANCE = "tolerance"
STOP_MAX_STEPS = "max_steps"
STOP_EXHAUSTED = "exhausted"
STOP_SINGULAR = "singular"

TRACE_CSV_HEADER = "step,candidate_id,x,y,max_power"


@dataclass(frozen=True)
class GreedyTrace:
    """Selection order, per-step maximal power, why the loop stopped,
    unresolved_from, the first step whose pick's power lies below its
    roundoff floor F (F > UNRESOLVED_RTOL * P^2, the audit's rule), None
    when double precision decided every pick, and route_gap, the largest
    |L_jj^2 - P^2_j| / F_j over picks j >= 1 between a fresh Cholesky factor
    L of the selected Gram and the Newton route's P^2 (inf if that Gram
    does not factor)."""

    selected: tuple[Functional, ...]
    selected_indices: tuple[int, ...]
    max_powers: tuple[float, ...]
    stop_reason: str
    unresolved_from: int | None = None
    route_gap: float = 0.0

    def to_csv(self) -> str:
        lines = [TRACE_CSV_HEADER]
        for step, (idx, f, p) in enumerate(
                zip(self.selected_indices, self.selected, self.max_powers)):
            _, x, y = f.csv_columns()
            lines.append(f"{step},{idx},{x:.17g},{y:.17g},{p:.17g}")
        return "\n".join(lines) + "\n"


def p_greedy(kernel, candidates: FunctionalSet, max_steps: int,
             tolerance: float = 0.0) -> GreedyTrace:
    """Select functionals by maximal power (ties break to the lowest
    candidate index among equal Newton powers).

    Every kernel value is computed once: the diagonal K(mu, mu) of all
    candidates at step 0, and after each selection the kernel column of all
    candidates against the new functional, from the one kernel.columns of
    the run (on a tensor grid a gather from one radial table, elsewhere a
    cross call per column, with the same bits).  That column, less the
    earlier Newton columns times their values at the pick and scaled by 1/P
    of the pick, is the pick's Newton column v, and every P^2 drops by v^2.

    The Newton rows of the selected set, in pick order, are the lower
    Cholesky factor of its Gram.  So each step solves them once for its
    pick's Lagrange values w and takes the pick's roundoff floor F
    (kernel_recovery.roundoff_floor, as for an audit row), which sets
    GreedyTrace.unresolved_from.

    Stops after the step whose maximal power is <= tolerance, when max_steps
    selections are made, when the candidates are exhausted, or, keeping the
    trace so far, when the next pick's P^2 lies at or below its F (singular):
    double precision does not decide that its pivot is positive.  The
    max-power sequence is nonincreasing: every step enlarges the data.
    After the loop one Cholesky factorization of the selected Gram, from the
    cached columns, checks the Newton route from scratch
    (GreedyTrace.route_gap).
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    pool = list(candidates)
    n = len(pool)
    p2, _, kmm = PowerContext(kernel, None).power_batch(candidates)
    column = kernel.columns(candidates)
    # column j: K(., j-th pick), and the j-th Newton column
    cols = np.empty((n, min(max_steps, n)), order="F")
    newton = np.empty_like(cols)
    # the picks' rows of newton (lower triangle only, which is all the
    # solve reads) and of |cols|, grown by one row and column per step: the
    # first k rows and columns are newton[selected, :k] and
    # np.abs(cols[selected, :k]), C-ordered as those gathers are, so that
    # the floor's product makes the same BLAS call
    picks_newton = np.zeros((cols.shape[1],) * 2)
    picks_abs = np.zeros_like(picks_newton)
    selected: list[int] = []
    pivots: list[float] = []
    floors: list[float] = []
    unresolved_from = None
    reason = STOP_EXHAUSTED
    for k in range(n):
        floor = 0.0
        if k:
            last = selected[-1]
            cols[:, k - 1] = column(last)
            at_last = linalg.matmul(newton[:, :k - 1], newton[last, :k - 1, None])[:, 0]
            newton[:, k - 1] = (cols[:, k - 1] - at_last) / math.sqrt(pivots[-1])
            p2 -= newton[:, k - 1] ** 2
            picks_newton[k - 1, :k] = newton[last, :k]
            picks_abs[k - 1, :k] = np.abs(cols[last, :k])
            picks_abs[:k - 1, k - 1] = np.abs(cols[selected[:-1], k - 1])
        best = int(np.argmax(p2))
        if k:
            kml = cols[best, :k]
            w = linalg.SpdFactor((picks_newton[:k, :k], True)).solve(kml)
            floor = roundoff_floor(picks_abs[:k, :k], kmm[best, None],
                                   kml[None], w[None])[0]
            if not p2[best] > floor:
                reason = STOP_SINGULAR
                break
            if unresolved_from is None and floor > UNRESOLVED_RTOL * p2[best]:
                unresolved_from = k
        selected.append(best)
        pivots.append(float(p2[best]))
        floors.append(floor)
        p2[best] = -np.inf
        if math.sqrt(pivots[-1]) <= tolerance:
            reason = STOP_TOLERANCE
            break
        if len(selected) >= max_steps:
            reason = STOP_MAX_STEPS
            break
    return GreedyTrace(
        selected=tuple(pool[i] for i in selected),
        selected_indices=tuple(selected),
        max_powers=tuple(math.sqrt(p) for p in pivots),
        stop_reason=reason,
        unresolved_from=unresolved_from,
        route_gap=_route_gap(cols, kmm, selected, pivots, floors))


def _route_gap(cols, kmm, selected, pivots, floors) -> float:
    """The from-scratch check of the Newton route: factor the selected Gram,
    assembled from the cached columns (entry (i, j), i < j, is column i at
    pick j) and the diagonal kmm, and return the largest |L_jj^2 - P^2_j|
    over F_j for picks j >= 1; inf if the Gram does not factor."""
    k = len(selected)
    gram = mirror_upper(cols[selected, :k].T)
    gram[np.diag_indices(k)] = kmm[selected]
    try:
        diag = np.diag(linalg.factor_spd(gram).cho[0]) ** 2
    except NotPositiveDefinite:
        return math.inf
    return float(np.max(np.abs(diag[1:] - pivots[1:]) / floors[1:], initial=0.0))
