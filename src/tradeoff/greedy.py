"""Adaptive selection of data functionals: at each step, add the candidate
with the largest current power-function value."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import NotPositiveDefinite
from .functionals import Functional, FunctionalSet
from .kernel_recovery import PowerContext, schur_batch
from .kernels import mirror_upper

STOP_TOLERANCE = "tolerance"
STOP_MAX_STEPS = "max_steps"
STOP_EXHAUSTED = "exhausted"
STOP_SINGULAR = "singular"

TRACE_CSV_HEADER = "step,candidate_id,x,y,max_power"


@dataclass(frozen=True)
class GreedyTrace:
    """Selection order, per-step maximal power, and why the loop stopped."""

    selected: tuple[Functional, ...]
    selected_indices: tuple[int, ...]
    max_powers: tuple[float, ...]
    stop_reason: str

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
    selected set and the rows of the remaining candidates from those
    columns, then factors the Gram and solves for the Schur-complement
    powers with kernel_recovery.schur_batch.  For the radial Matern kernel
    (every CLI path) each cached entry equals the entry that cross()
    computes in any batch, so the selections and powers match the
    from-scratch recomputation bit for bit.  A kernel whose cross() rounds
    differently with the batch shape (ChebWeightKernel is a matmul) can
    flip a near-tie between candidates of equal power up to roundoff.

    Stops after the step whose maximal power is <= tolerance, when max_steps
    selections are made, when the candidates are exhausted, or, keeping the
    trace so far, when the selected Gram fails its Cholesky factorization.
    The max-power sequence is nonincreasing: every step enlarges the data.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    pool = list(candidates)
    remaining = list(range(len(pool)))
    selected: list[int] = []
    powers: list[float] = []
    reason = STOP_EXHAUSTED
    p2, _, kmm = PowerContext(kernel, None).power_batch(pool)
    cols = np.empty((len(pool), min(max_steps, len(pool))))  # column j: K(., j-th pick)
    while remaining:
        if selected:
            k = len(selected)
            cols[:, k - 1] = kernel.cross(candidates, [pool[selected[-1]]])[:, 0]
            try:
                factor = linalg.factor_spd(mirror_upper(cols[selected, :k]))
            except NotPositiveDefinite:
                reason = STOP_SINGULAR
                break
            p2, _ = schur_batch(factor, kmm[remaining], cols[remaining, :k])
        best = int(np.argmax(p2))  # argmax returns the first (lowest-id) maximizer
        max_power = math.sqrt(float(p2[best]))
        selected.append(remaining.pop(best))
        powers.append(max_power)
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
        stop_reason=reason)
