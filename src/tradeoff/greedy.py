"""Adaptive selection of data functionals: at each step, add the candidate
with the largest current power-function value."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .functionals import Functional, FunctionalSet, functional_csv_columns
from .kernel_recovery import PowerContext

STOP_TOLERANCE = "tolerance"
STOP_MAX_STEPS = "max_steps"
STOP_EXHAUSTED = "exhausted"

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
            _, x, y = functional_csv_columns(f)
            lines.append(f"{step},{idx},{x:.17g},{y:.17g},{p:.17g}")
        return "\n".join(lines) + "\n"


def p_greedy(kernel, candidates: FunctionalSet, max_steps: int,
             tolerance: float = 0.0) -> GreedyTrace:
    """Select functionals by maximal power, recomputing from scratch each
    step (ties break to the lowest candidate index).

    Stops after the step whose maximal power is <= tolerance, when max_steps
    selections are made, or when the candidates are exhausted.  The max-power
    sequence is nonincreasing because every step enlarges the data set.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    pool = list(candidates)
    remaining = list(range(len(pool)))
    selected: list[int] = []
    powers: list[float] = []
    reason = STOP_EXHAUSTED
    while remaining:
        current = FunctionalSet([pool[i] for i in selected]) if selected else None
        ctx = PowerContext(kernel, current)
        p2, _, _ = ctx.power_batch([pool[i] for i in remaining])
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
