import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import oracle

from tradeoff import kernels, linalg
from tradeoff.functionals import FunctionalSet, PointEval
from tradeoff.greedy import STOP_SINGULAR, p_greedy
from tradeoff.kernel_recovery import UNRESOLVED_RTOL, PowerContext
from tradeoff.kernels import ChebWeightKernel, MaternSobolevKernel, gram
from tradeoff.weights import weight_array

# bench/checks.py compares greedy powers at this relative precision
GREEDY_RTOL = 1e-9
# unit roundoff of a double
_U = 2.0 ** -53


def _grid_candidates(side, d=2):
    h = (np.arange(side) + 0.5) / side
    if d == 2:
        pts = [(x, y) for x in h for y in h]
    else:
        pts = [(x,) for x in h]
    return FunctionalSet([PointEval(p) for p in pts])


def _assert_attains_oracle(kernel, candidates, max_steps, tolerance=0.0):
    """Oracle for p_greedy's Newton route: a fresh PowerContext on the
    trace's own prefix at every step.  The pick's Schur P^2 lies within
    F_pick + F_max of the from-scratch maximum (F the rows' roundoff floors),
    and the trace's power within F_pick of the pick's; before
    unresolved_from the pick is a from-scratch argmax, up to an exact tie:
    P^2 = K(mu, mu) - k^T w cancels, so the two routes may round a tie apart
    by a few units of roundoff in K(mu, mu).  The trace's own
    from-scratch check, route_gap, is at most 1."""
    trace = p_greedy(kernel, candidates, max_steps=max_steps, tolerance=tolerance)
    pool = list(candidates)
    for step, idx in enumerate(trace.selected_indices):
        prefix = FunctionalSet(trace.selected[:step]) if step else None
        remaining = [i for i in range(len(pool)) if i not in trace.selected_indices[:step]]
        ev = PowerContext(kernel, prefix).power_squared([pool[i] for i in remaining],
                                                        cross_check=False)
        p2, floor = ev.power_squared, ev.floor
        top, pick = int(np.argmax(p2)), remaining.index(idx)
        assert p2[top] - p2[pick] <= floor[top] + floor[pick]
        assert abs(trace.max_powers[step] ** 2 - p2[pick]) <= floor[pick] + 4 * _U * p2[pick]
        if trace.unresolved_from is None or step < trace.unresolved_from:
            assert p2[top] - p2[pick] <= 4 * _U * ev.k_mu_mu[top]
    assert trace.route_gap <= 1.0
    return trace


def test_matches_from_scratch_on_criterion_9_grid():
    # symmetric 10x10 grid: true ties at every step
    trace = _assert_attains_oracle(MaternSobolevKernel(5, 2, 1.0), _grid_candidates(10), 25)
    assert len(trace.selected) == 25


def test_matches_from_scratch_on_1d_grid():
    trace = _assert_attains_oracle(MaternSobolevKernel(4, 1, 0.5),
                                   _grid_candidates(41, d=1), 15)
    assert trace.stop_reason == "max_steps"


def test_matches_from_scratch_with_tolerance_stop():
    rng = np.random.default_rng(7)
    cands = FunctionalSet([PointEval(tuple(p)) for p in rng.uniform(0, 1, size=(50, 2))])
    trace = _assert_attains_oracle(MaternSobolevKernel(5, 2, 1.0), cands, 50, tolerance=0.05)
    assert trace.stop_reason == "tolerance"
    assert len(trace.selected) < 50


# a failing example is reported as found: shrinking it would build a
# from-scratch PowerContext per step of every try, for minutes
_NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate, Phase.target)


@settings(max_examples=30, deadline=None, phases=_NO_SHRINK)
@given(data=st.data(), d=st.sampled_from([1, 2]), m=st.integers(3, 6),
       tolerance=st.sampled_from([0.0, 1e-3, 0.1]))
def test_matches_from_scratch_on_scattered_sets(data, d, m, tolerance):
    # sites on a 1e-3 lattice: scattered, distinct, and ties still possible
    sites = data.draw(st.lists(st.tuples(*[st.integers(0, 1000)] * d),
                               min_size=1, max_size=12, unique=True))
    cands = FunctionalSet([PointEval(tuple(v / 1000 for v in s)) for s in sites])
    steps = data.draw(st.integers(1, len(sites)))
    _assert_attains_oracle(MaternSobolevKernel(m, d, 1.0), cands, steps, tolerance)


@settings(max_examples=25, deadline=None, phases=_NO_SHRINK)
@given(data=st.data(), d=st.sampled_from([1, 2]), m=st.integers(3, 6),
       c=st.floats(0.1, 10.0), tolerance=st.sampled_from([0.0, 1e-3]))
def test_matches_from_scratch_on_larger_scattered_sets(data, d, m, c, tolerance):
    # 40-150 candidates and up to 40 steps, on flat kernels past the
    # roundoff floor too
    sites = data.draw(st.lists(st.tuples(*[st.integers(0, 1000)] * d),
                               min_size=40, max_size=150, unique=True))
    cands = FunctionalSet([PointEval(tuple(v / 1000 for v in s)) for s in sites])
    steps = data.draw(st.integers(1, 40))
    _assert_attains_oracle(MaternSobolevKernel(m, d, c), cands, steps, tolerance)


def test_one_right_hand_side_per_step(monkeypatch):
    # each step after the first solves the Newton rows for its pick alone
    rhs = []
    solve = linalg.SpdFactor.solve

    def counted_solve(self, b):
        rhs.append(np.shape(b))
        return solve(self, b)

    monkeypatch.setattr(linalg.SpdFactor, "solve", counted_solve)
    steps = 40
    trace = p_greedy(MaternSobolevKernel(5, 2, 1.0), _grid_candidates(20), steps)
    assert rhs == [(k,) for k in range(1, steps)]
    monkeypatch.undo()
    # the two routes round the grid's exact tie at step 5 apart by 1.1e-16
    _assert_attains_oracle(MaternSobolevKernel(5, 2, 1.0), _grid_candidates(20), steps)
    assert trace.unresolved_from is None


def _first_unresolved_from_scratch(kernel, trace):
    """The first step whose pick has F > UNRESOLVED_RTOL * P^2, with F the
    row-by-row floor of tests/oracle.py from a fresh PowerContext on the
    prefix; None if there is none."""
    for step, pick in enumerate(trace.selected):
        if not step:
            continue
        prefix = FunctionalSet(trace.selected[:step])
        ctx = PowerContext(kernel, prefix)
        p2, w, kmm = ctx.power_batch([pick])
        floor = oracle.roundoff_floor(kmm[0], kernel.cross([pick], prefix)[0], w[0], ctx.gram)
        if floor > UNRESOLVED_RTOL * p2[0]:
            return step
    return None


def test_unresolved_from_matches_a_per_step_from_scratch_floor(tmp_path):
    # the flat 6x6 grid (c = 10): the picks fall below their roundoff floor
    # at step 7, before the run stops singular after 13 picks; from step 7
    # the powers move by roundoff from step to step, and each pick still
    # lies within the floors of the from-scratch maximum.  The CLI summary
    # reports the same step
    from tradeoff.cli import ExperimentConfig, run_greedy

    kernel = MaternSobolevKernel(5, 2, 10.0)
    trace = _assert_attains_oracle(kernel, _grid_candidates(6), 36)
    assert trace.stop_reason == STOP_SINGULAR
    assert len(trace.selected) == 13
    assert trace.unresolved_from == _first_unresolved_from_scratch(kernel, trace) == 7
    config = {"grid_side": 6, "max_steps": 36, "m": 5, "d": 2, "c": 10.0}
    summary = run_greedy(ExperimentConfig("greedy", params=config, out_dir=tmp_path))
    assert summary["unresolved_from"] == 7


def test_unresolved_from_is_none_when_every_pick_is_resolved():
    kernel = MaternSobolevKernel(5, 2, 1.0)
    trace = p_greedy(kernel, _grid_candidates(10), max_steps=25)
    assert trace.unresolved_from is None
    assert _first_unresolved_from_scratch(kernel, trace) is None


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
    solves = Counter()
    solve = linalg.SpdFactor.solve

    def counted_solve(self, b):
        solves["solve"] += 1
        return solve(self, b)

    monkeypatch.setattr(linalg.SpdFactor, "solve", counted_solve)
    scattered = np.random.default_rng(3).uniform(0, 1, size=(25, 2))
    for cands, per_step in [
            (FunctionalSet([PointEval(tuple(p)) for p in scattered]), [("cross", 25, 1)]),
            # a grid's columns come from one radial table: no cross call
            (_grid_candidates(5), [])]:
        k = _CountingMatern(5, 2, 1.0)
        solves.clear()
        steps = 8
        trace = p_greedy(k, cands, max_steps=steps)
        assert len(trace.selected) == steps
        # the diagonal once, then one column against each new selection but
        # the last
        assert k.calls == [("diag", len(cands))] + per_step * (steps - 1)
        # and one single-column solve per step after the first
        assert solves["solve"] == steps - 1


def test_one_context_and_one_factorization_per_run(monkeypatch):
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
    # step 0's powers are the diagonal, from one context without data; the
    # steps build no context and factor nothing, and the run's one
    # factorization is route_gap's check of the selected Gram
    assert counts == {"context": 1, "factor": 1}


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


def test_singular_selected_gram_stops_with_a_checked_trace(tmp_path, monkeypatch):
    # on a flat kernel (c = 10) the 6x6 grid's powers reach the roundoff
    # floor before the grid is used up: after 13 picks the next pick's P^2
    # lies at or below its floor, the run stops with "singular", and the
    # trace it keeps passes the benchmark's greedy check, whose from-scratch
    # PowerContext confirms the maximum at four steps
    from tradeoff.cli import ExperimentConfig, run_greedy
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import checks
    import workloads

    config = {"grid_side": 6, "max_steps": 36, "m": 5, "d": 2, "c": 10.0}
    summary = run_greedy(ExperimentConfig("greedy", params=config, out_dir=tmp_path))
    assert summary["stop_reason"] == STOP_SINGULAR
    assert summary["steps"] == 13 and summary["route_gap"] <= 1.0
    trace = (tmp_path / "greedy_trace.csv").read_text()
    job = workloads.Job("singular", "greedy", config, ops=summary["steps"])
    assert checks.greedy_failures(job, {"greedy_trace.csv": trace}) == 0


def test_matches_from_scratch_up_to_a_singular_gram():
    # two 1-d sites 1e-3 apart on a smooth kernel: after 6 picks the next
    # pick's P^2 lies at or below its roundoff floor, so the run stops
    # singular; from scratch, every remaining candidate's P^2 is below its
    # own floor too
    sites = [0.046, 0.0, 0.001, 0.133, 0.178, 0.192, 0.207, 0.226, 0.467]
    cands = FunctionalSet([PointEval((x,)) for x in sites])
    kernel = MaternSobolevKernel(6, 1, 1.0)
    trace = _assert_attains_oracle(kernel, cands, len(sites))
    assert trace.stop_reason == STOP_SINGULAR
    assert len(trace.selected) == 6
    rest = [f for f in cands if f not in trace.selected]
    ev = PowerContext(kernel, FunctionalSet(trace.selected)).power_squared(rest, cross_check=False)
    assert np.all(ev.power_squared <= ev.floor)


_MATERN_GRIDS = [(10, 25, 2, 1.0), (20, 50, 2, 1.0), (30, 100, 2, 1.0), (6, 36, 2, 10.0),
                 (41, 15, 1, 0.5)]


@pytest.mark.parametrize("side,steps,d,c", _MATERN_GRIDS)
def test_route_gap_is_within_the_floor_on_matern_grids(side, steps, d, c):
    trace = p_greedy(MaternSobolevKernel(5, d, c), _grid_candidates(side, d), steps)
    assert 0.0 < trace.route_gap <= 1.0


@pytest.mark.parametrize("side,steps,d,c", _MATERN_GRIDS)
def test_grid_traces_equal_the_per_column_route(monkeypatch, side, steps, d, c):
    # the 2-d grids read their kernel columns from one radial table; with
    # one cross call per column instead, every pick, power, unresolved_from and
    # route_gap is the same, the 20 x 20 grid's exact ties included
    kernel, cands = MaternSobolevKernel(5, d, c), _grid_candidates(side, d)
    trace = p_greedy(kernel, cands, steps)
    monkeypatch.setattr(MaternSobolevKernel, "columns", kernels.cross_columns)
    assert p_greedy(kernel, cands, steps) == trace


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_route_gap_is_within_the_floor_on_scattered_sets(seed):
    pts = np.random.default_rng(seed).uniform(0, 1, size=(400, 2))
    cands = FunctionalSet([PointEval(tuple(p)) for p in pts])
    trace = p_greedy(MaternSobolevKernel(5, 2, 1.0), cands, 50)
    assert len(trace.selected) == 50
    assert 0.0 < trace.route_gap <= 1.0


@pytest.mark.parametrize("kernel,side,d,steps", [
    (MaternSobolevKernel(5, 2, 1.0), 20, 2, 50),
    (MaternSobolevKernel(5, 2, 10.0), 6, 2, 36),
    (MaternSobolevKernel(4, 1, 0.5), 41, 1, 15)])
def test_newton_rows_equal_a_fresh_cholesky_of_the_selected_gram(monkeypatch, kernel, side,
                                                                 d, steps):
    # the lower triangle the last step solves with is the Newton rows of the
    # picks before it; against a fresh Cholesky factor L of their Gram, row
    # j moves its squared norm by sum_l |dL_jl| |L_jl|, at most the floor F_j
    # of pick j on the picks before it
    factors = []
    solve = linalg.SpdFactor.solve

    def recording_solve(self, b):
        factors.append(np.tril(self.cho[0]))
        return solve(self, b)

    monkeypatch.setattr(linalg.SpdFactor, "solve", recording_solve)
    trace = p_greedy(kernel, _grid_candidates(side, d), steps)
    rows = factors[-1]
    picks = trace.selected[:len(rows)]
    fresh = np.linalg.cholesky(gram(kernel, FunctionalSet(picks)))
    assert rows[0, 0] == pytest.approx(fresh[0, 0], rel=4 * _U)
    for j in range(1, len(rows)):
        ev = PowerContext(kernel, FunctionalSet(picks[:j])).power_squared([picks[j]],
                                                                           cross_check=False)
        assert np.abs(rows[j] - fresh[j]) @ np.abs(fresh[j]) <= ev.floor


def test_invalid_max_steps():
    k = MaternSobolevKernel(5, 1, 1.0)
    with pytest.raises(ValueError):
        p_greedy(k, FunctionalSet([PointEval(0.0)]), max_steps=0)
