import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tradeoff import linalg
from tradeoff.functionals import FunctionalSet, PointEval
from tradeoff.greedy import p_greedy
from tradeoff.kernel_recovery import PowerContext
from tradeoff.kernels import ChebWeightKernel, MaternSobolevKernel
from tradeoff.weights import weight_array

# bench/checks.py compares greedy powers at this relative precision
GREEDY_RTOL = 1e-9


def _grid_candidates(side, d=2):
    h = (np.arange(side) + 0.5) / side
    if d == 2:
        pts = [(x, y) for x in h for y in h]
    else:
        pts = [(x,) for x in h]
    return FunctionalSet([PointEval(p) for p in pts])


def _from_scratch(kernel, candidates, max_steps, tolerance=0.0):
    """Oracle for p_greedy's caches: a fresh PowerContext and power_batch
    over the remaining candidates at every step."""
    pool = list(candidates)
    remaining = list(range(len(pool)))
    selected, powers = [], []
    while remaining:
        prefix = FunctionalSet([pool[i] for i in selected]) if selected else None
        p2, _, _ = PowerContext(kernel, prefix).power_batch([pool[i] for i in remaining])
        best = int(np.argmax(p2))
        powers.append(math.sqrt(float(p2[best])))
        selected.append(remaining.pop(best))
        if powers[-1] <= tolerance or len(selected) >= max_steps:
            break
    return tuple(selected), tuple(powers)


def _assert_matches_oracle(kernel, cands, max_steps, tolerance=0.0):
    trace = p_greedy(kernel, cands, max_steps=max_steps, tolerance=tolerance)
    selected, powers = _from_scratch(kernel, cands, max_steps, tolerance)
    assert trace.selected_indices == selected
    assert trace.max_powers == powers  # bit for bit
    return trace


def test_matches_from_scratch_on_criterion_9_grid():
    # symmetric 10x10 grid: true ties at every step must break the same way
    trace = _assert_matches_oracle(MaternSobolevKernel(5, 2, 1.0), _grid_candidates(10), 25)
    assert len(trace.selected) == 25


def test_matches_from_scratch_on_1d_grid():
    trace = _assert_matches_oracle(MaternSobolevKernel(4, 1, 0.5),
                                   _grid_candidates(41, d=1), 15)
    assert trace.stop_reason == "max_steps"


def test_matches_from_scratch_with_tolerance_stop():
    rng = np.random.default_rng(7)
    cands = FunctionalSet([PointEval(tuple(p)) for p in rng.uniform(0, 1, size=(50, 2))])
    trace = _assert_matches_oracle(MaternSobolevKernel(5, 2, 1.0), cands, 50, tolerance=0.05)
    assert trace.stop_reason == "tolerance"
    assert len(trace.selected) < 50


@settings(max_examples=30, deadline=None)
@given(data=st.data(), d=st.sampled_from([1, 2]), m=st.integers(3, 6),
       tolerance=st.sampled_from([0.0, 1e-3, 0.1]))
def test_matches_from_scratch_on_scattered_sets(data, d, m, tolerance):
    # sites on a 1e-3 lattice: scattered, distinct, and ties still possible
    sites = data.draw(st.lists(st.tuples(*[st.integers(0, 1000)] * d),
                               min_size=1, max_size=12, unique=True))
    cands = FunctionalSet([PointEval(tuple(v / 1000 for v in s)) for s in sites])
    steps = data.draw(st.integers(1, len(sites)))
    _assert_matches_oracle(MaternSobolevKernel(m, d, 1.0), cands, steps, tolerance)


def test_chebweight_choices_attain_the_oracle_maximum():
    # ChebWeightKernel.cross is a matmul whose rounding depends on the batch
    # shape, so near-ties may break differently from the oracle; each choice
    # must still attain the maximal power on its own prefix
    k = ChebWeightKernel(weight_array("(j+1)^2", 20))
    cands = FunctionalSet([PointEval((x,)) for x in np.linspace(-1.0, 1.0, 201)])
    trace = p_greedy(k, cands, max_steps=20)
    assert len(trace.selected) == 20
    for step, idx in enumerate(trace.selected_indices):
        prefix = FunctionalSet(trace.selected[:step]) if step else None
        remaining = [i for i in range(len(cands)) if i not in trace.selected_indices[:step]]
        p2, _, _ = PowerContext(k, prefix).power_batch([cands[i] for i in remaining])
        best = math.sqrt(float(np.max(p2)))
        assert math.sqrt(float(p2[remaining.index(idx)])) >= best * (1.0 - GREEDY_RTOL)
        assert trace.max_powers[step] == pytest.approx(best, rel=GREEDY_RTOL)


class _CountingMatern(MaternSobolevKernel):
    """Matern kernel that records the batch size of each diag and cross call."""

    def __init__(self, *args):
        super().__init__(*args)
        self.calls = []

    def diag(self, fset):
        fset = list(fset)
        self.calls.append(("diag", len(fset)))
        return super().diag(fset)

    def cross(self, set_a, set_b):
        set_a, set_b = list(set_a), list(set_b)
        self.calls.append(("cross", len(set_a), len(set_b)))
        return super().cross(set_a, set_b)


def test_one_diagonal_and_one_kernel_column_per_step(monkeypatch):
    k = _CountingMatern(5, 2, 1.0)
    cands = _grid_candidates(5)
    n, steps = len(cands), 8
    solves = Counter()
    solve = linalg.SpdFactor.solve

    def counted_solve(self, b):
        solves["solve"] += 1
        return solve(self, b)

    monkeypatch.setattr(linalg.SpdFactor, "solve", counted_solve)
    trace = p_greedy(k, cands, max_steps=steps)
    assert len(trace.selected) == steps
    # the diagonal once, then one column against each new selection but the last
    assert k.calls == [("diag", n)] + [("cross", n, 1)] * (steps - 1)
    assert solves["solve"] == steps - 1


def test_one_context_and_one_factorization_per_step_after_the_first(monkeypatch):
    counts = Counter()
    init, factor_spd = PowerContext.__init__, linalg.factor_spd

    def counted_init(self, kernel, lam_set):
        counts["context"] += 1
        init(self, kernel, lam_set)

    def counted_factor(g):
        counts["factor"] += 1
        return factor_spd(g)

    monkeypatch.setattr(PowerContext, "__init__", counted_init)
    monkeypatch.setattr(linalg, "factor_spd", counted_factor)
    steps = 7
    trace = p_greedy(MaternSobolevKernel(5, 2, 1.0), _grid_candidates(4), max_steps=steps)
    assert len(trace.selected) == steps
    # step 0's powers are the diagonal, from one context without data; each
    # later step factors the Gram of the selected set, and builds no context
    assert counts == {"context": 1, "factor": steps - 1}


def test_first_step_tiebreak_lowest_index():
    k = MaternSobolevKernel(5, 2, 1.0)
    cands = _grid_candidates(4)
    trace = p_greedy(k, cands, max_steps=1)
    assert trace.selected_indices[0] == 0
    assert trace.max_powers[0] == pytest.approx(1.0)  # normalized kernel
    assert trace.stop_reason == "max_steps"


def test_three_collinear_second_pick_is_farthest():
    # brute-force oracle over 2-subsets: after picking index 0, the candidate
    # farthest from it maximizes the power for a radially decaying kernel
    k = MaternSobolevKernel(5, 1, 1.0)
    cands = FunctionalSet([PointEval(x) for x in (0.0, 0.5, 1.0)])
    trace = p_greedy(k, cands, max_steps=2)
    assert trace.selected_indices == (0, 2)


def test_trace_monotone_and_distinct():
    k = MaternSobolevKernel(5, 2, 1.0)
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 1, size=(50, 2))
    cands = FunctionalSet([PointEval(tuple(p)) for p in pts])
    trace = p_greedy(k, cands, max_steps=20)
    powers = np.array(trace.max_powers)
    assert np.all(np.diff(powers) <= 1e-9)
    assert np.all(np.diff(powers[:10]) < 0)  # strictly decreasing early on
    assert len(set(trace.selected)) == len(trace.selected)
    assert len(set(trace.selected_indices)) == 20


def test_tolerance_stops_after_first_step():
    k = MaternSobolevKernel(5, 2, 1.0)
    cands = _grid_candidates(3)
    trace = p_greedy(k, cands, max_steps=10, tolerance=1.0)
    assert len(trace.selected) == 1
    assert trace.stop_reason == "tolerance"


def test_exhausts_candidates():
    k = MaternSobolevKernel(5, 1, 1.0)
    cands = FunctionalSet([PointEval(x) for x in (0.0, 1.0)])
    trace = p_greedy(k, cands, max_steps=10)
    assert len(trace.selected) == 2
    assert trace.stop_reason == "exhausted"


def test_rerun_is_bitwise_identical():
    k = MaternSobolevKernel(4, 2, 0.8)
    rng = np.random.default_rng(5)
    pts = rng.uniform(0, 1, size=(30, 2))
    cands = FunctionalSet([PointEval(tuple(p)) for p in pts])
    t1 = p_greedy(k, cands, max_steps=12)
    t2 = p_greedy(k, cands, max_steps=12)
    assert t1.selected_indices == t2.selected_indices
    assert t1.max_powers == t2.max_powers
    assert t1.to_csv() == t2.to_csv()


def test_greedy_matches_bump_minimization():
    # by the equality form of the trade-off principle, maximizing the power
    # is the same as minimizing the Lagrangian(bump) norm
    from tradeoff.kernel_recovery import lagrangian_norm_squared
    k = MaternSobolevKernel(5, 2, 1.0)
    rng = np.random.default_rng(11)
    pts = rng.uniform(0, 1, size=(15, 2))
    cands = FunctionalSet([PointEval(tuple(p)) for p in pts])
    trace = p_greedy(k, cands, max_steps=4)
    selected = list(trace.selected)
    for step in range(1, 4):
        lam = FunctionalSet(selected[:step])
        norms = []
        for i, f in enumerate(cands):
            if f in selected[:step]:
                norms.append(np.inf)
            else:
                norms.append(lagrangian_norm_squared(k, lam, f))
        assert cands[int(np.argmin(norms))] == selected[step]


def test_invalid_max_steps():
    k = MaternSobolevKernel(5, 1, 1.0)
    with pytest.raises(ValueError):
        p_greedy(k, FunctionalSet([PointEval(0.0)]), max_steps=0)
