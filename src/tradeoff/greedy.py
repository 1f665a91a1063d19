"""Adaptive selection of data functionals: at each step, add the candidate
with the largest current power-function value."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import NotPositiveDefinite
from .functionals import Functional, FunctionalSet
from .kernel_recovery import UNRESOLVED_RTOL, PowerContext, roundoff_floor, schur_batch
from .kernels import mirror_upper

STOP_TOLERANCE = "tolerance"
STOP_MAX_STEPS = "max_steps"
STOP_EXHAUSTED = "exhausted"
STOP_SINGULAR = "singular"

TRACE_CSV_HEADER = "step,candidate_id,x,y,max_power"


# each step re-solves the candidates whose bound can still win in blocks
# of this many, doubling from block to block
_FIRST_BLOCK = 32


@dataclass(frozen=True)
class GreedyTrace:
    """Selection order, per-step maximal power, why the loop stopped, and
    unresolved_from, the first step whose pick's power lies below its
    roundoff floor F (F > UNRESOLVED_RTOL * P^2, the audit's rule), None
    when double precision decided every pick."""

    selected: tuple[Functional, ...]
    selected_indices: tuple[int, ...]
    max_powers: tuple[float, ...]
    stop_reason: str
    unresolved_from: int | None = None

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
    candidate index).

    Every kernel value is computed once: the diagonal K(mu, mu) of all
    candidates at step 0, and after each selection one kernel column of all
    candidates against the new functional.  Step k takes the Gram of the
    selected set from those columns and factors it once.

    Adding data never raises a power (lazy greedy, Minoux 1978), so each
    candidate keeps a bound: its last computed P^2 plus that solve's
    roundoff floor F (kernel_recovery.roundoff_floor), the first-order
    rounding error of a computed P^2.  The margin is wide: a recomputed P^2
    rose above an earlier one by at most 0.024 F on the bench problems and
    0.16 F over 60 random point sets in 1-d and 2-d.  Step k re-solves the
    remaining candidates in descending-bound order with
    kernel_recovery.schur_batch, in blocks of _FIRST_BLOCK that double from
    block to block, one solve per block, and stops when the next bound lies
    below the best P^2 found: no skipped candidate can reach it.  On the
    bench grids a step solves about a sixth of the n - k remaining
    candidates in about two solves.  A candidate's P^2 rounds the same in
    any block (one solve column and one dot per candidate; checked at 1 and
    2 BLAS threads), so for the radial Matern kernel (every CLI path),
    whose cached entries equal the entries cross() computes in any batch,
    the selections and powers match the from-scratch recomputation bit for
    bit.  A kernel whose cross() rounds differently with the batch shape
    (ChebWeightKernel is a matmul) can flip a near-tie between candidates
    of equal power up to roundoff.  The pick's F also sets
    GreedyTrace.unresolved_from.

    Stops after the step whose maximal power is <= tolerance, when max_steps
    selections are made, when the candidates are exhausted, or, keeping the
    trace so far, when the selected Gram fails its Cholesky factorization.
    The max-power sequence is nonincreasing: every step enlarges the data.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    pool = list(candidates)
    n = len(pool)
    selected: list[int] = []
    powers: list[float] = []
    unresolved_from = None
    reason = STOP_EXHAUSTED
    # step 0's powers, exact bounds (no data, no floor); -inf once selected
    bound, _, kmm = PowerContext(kernel, None).power_batch(pool)
    cols = np.empty((n, min(max_steps, n)))  # column j: K(., j-th pick)
    for k in range(n):
        if k:
            cols[:, k - 1] = kernel.cross(candidates, [pool[selected[-1]]])[:, 0]
            gram = mirror_upper(cols[selected, :k])
            try:
                factor = linalg.factor_spd(gram)
            except NotPositiveDefinite:
                reason = STOP_SINGULAR
                break
            best, p2_best, floor = _lazy_step(factor, np.abs(gram), kmm, cols[:, :k],
                                              bound, n - k)
        else:
            best = int(np.argmax(bound))
            p2_best, floor = bound[best], 0.0
        max_power = math.sqrt(float(p2_best))
        if unresolved_from is None and floor > UNRESOLVED_RTOL * p2_best:
            unresolved_from = k
        selected.append(best)
        powers.append(max_power)
        bound[best] = -np.inf
        if max_power <= tolerance:
            reason = STOP_TOLERANCE
            break
        if len(selected) >= max_steps:
            reason = STOP_MAX_STEPS
            break
    return GreedyTrace(
        selected=tuple(pool[i] for i in selected),
        selected_indices=tuple(selected),
        max_powers=tuple(powers),
        stop_reason=reason,
        unresolved_from=unresolved_from)


def _lazy_step(factor, abs_gram, kmm, cols, bound, n_remaining) -> tuple[int, float, float]:
    """One greedy step over the remaining candidates (bound > -inf): re-solve
    them in descending-bound order and blocks of doubling size until the
    next bound lies below the best P^2 found, updating each solved bound to
    P^2 + F.  Returns the pick, the lowest index among the maximal P^2, its
    P^2 and its floor F."""
    order = np.argsort(-bound, kind="stable")[:n_remaining]
    solved = []
    best = -np.inf
    start, size = 0, _FIRST_BLOCK
    while start < n_remaining:
        block = order[start:start + size]
        block = block[bound[block] >= best]
        if not len(block):
            break
        kml = cols[block]
        schur, w = schur_batch(factor, kmm[block], kml)
        p2 = np.maximum(schur, 0.0)
        floor = roundoff_floor(abs_gram, kmm[block], kml, w)
        bound[block] = p2 + floor
        solved.append((block, p2, floor))
        best = max(best, p2.max())
        start += size
        size *= 2
    idx, p2, floor = map(np.concatenate, zip(*solved))
    ties = np.flatnonzero(p2 == best)
    j = ties[np.argmin(idx[ties])]
    return int(idx[j]), p2[j], floor[j]
