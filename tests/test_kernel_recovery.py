import dataclasses
import math
from collections import Counter
from functools import cache

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracle

from tradeoff.errors import ExcludedCase, NotPositiveDefinite
from tradeoff.functionals import DerivEval, FunctionalSet, LaplacianEval, PointEval
from tradeoff.kernel_recovery import (
    PowerContext,
    PowerEvaluation,
    lagrangian_norm_squared,
    power_squared,
    tradeoff_report,
)
from tradeoff.kernels import MaternSobolevKernel
from tradeoff.report import FLAG_EXCLUDED, FLAG_OK, FLAG_UNRESOLVED, TradeoffReport
from tradeoff import kernel_recovery, linalg


def _point_set(rng, n, d, lo=-1.0, hi=1.0):
    pts = rng.uniform(lo, hi, size=(n, d))
    return FunctionalSet([PointEval(tuple(p)) for p in pts]), pts


def test_power_zero_on_data_functional():
    k = MaternSobolevKernel(5, 2, 1.0)
    rng = np.random.default_rng(4)
    lam, pts = _point_set(rng, 8, 2)
    ev = power_squared(k, lam, PointEval(tuple(pts[3])))
    assert ev.excluded
    assert ev.power_squared <= 1e-8 * ev.k_mu_mu


def test_power_empty_set_is_kmumu():
    k = MaternSobolevKernel(5, 2, 1.0)
    mu = PointEval((0.1, 0.9))
    ev = power_squared(k, None, mu)
    assert ev.power_squared == pytest.approx(k.apply(mu, mu))


def test_power_one_point_schur():
    k = MaternSobolevKernel(5, 1, 1.0)
    lam = FunctionalSet([PointEval(0.0)])
    r = 0.6
    phi = k.apply(PointEval(0.0), PointEval(r))
    ev = power_squared(k, lam, PointEval(r))
    assert ev.power_squared == pytest.approx(1.0 - phi ** 2, rel=1e-12)
    n2 = lagrangian_norm_squared(k, lam, PointEval(r))
    assert n2 == pytest.approx(1.0 / (1.0 - phi ** 2), rel=1e-10)


def test_lagrangian_norm_empty_set():
    k = MaternSobolevKernel(5, 2, 1.0)
    assert lagrangian_norm_squared(k, None, PointEval((0.2, 0.4))) \
        == pytest.approx(1.0)


def test_tradeoff_product_random_1d():
    # the equality degrades with gram conditioning, so keep the points
    # separated and the evaluations off the near-coincidence regime
    k = MaternSobolevKernel(5, 1, 1.0)
    rng = np.random.default_rng(8)
    xs = np.linspace(-1, 1, 10) + rng.uniform(-0.07, 0.07, 10)
    assert np.min(np.diff(xs)) > 0.08
    lam = FunctionalSet([PointEval(x) for x in xs])
    for mu_x in [-2.1, -0.4, 0.05, 2.3]:
        mu = PointEval(mu_x)
        if np.min(np.abs(xs - mu_x)) < 0.25:
            continue
        ev = power_squared(k, lam, mu)
        n2 = lagrangian_norm_squared(k, lam, mu)
        assert ev.power_squared * n2 == pytest.approx(1.0, rel=1e-6)


def test_excluded_case_raises():
    k = MaternSobolevKernel(5, 1, 1.0)
    lam = FunctionalSet([PointEval(0.0), PointEval(0.5)])
    with pytest.raises(ExcludedCase):
        lagrangian_norm_squared(k, lam, PointEval(0.5))


def test_tradeoff_report_flags_and_products():
    k = MaternSobolevKernel(4, 2, 0.7)
    rng = np.random.default_rng(12)
    lam, pts = _point_set(rng, 6, 2)
    evals = [PointEval(tuple(pts[0])), PointEval((1.4, 1.4)), PointEval((-1.3, 0.2))]
    reports = tradeoff_report(k, lam, evals)
    assert reports[0].excluded
    for r in reports[1:]:
        assert r.flag == "ok"
        assert r.product == pytest.approx(1.0, rel=1e-5)


class _CountingMatern(MaternSobolevKernel):
    """Matern kernel that counts its diag and cross calls and the rows and
    entries they evaluate."""

    def __init__(self, *args):
        super().__init__(*args)
        self.calls = Counter()

    def diag(self, fset):
        self.calls["diag"] += 1
        self.calls["diag_entries"] += len(fset)
        return super().diag(fset)

    def cross(self, set_a, set_b):
        self.calls["cross"] += 1
        self.calls["cross_entries"] += len(set_a) * len(set_b)
        return super().cross(set_a, set_b)


def test_tradeoff_report_evaluates_each_row_once(monkeypatch):
    # each row's kernel values are computed exactly once, in blocks of
    # _REPORT_BLOCK rows, and each block gets one solve with a right-hand
    # side per row
    k = _CountingMatern(4, 2, 0.7)
    rng = np.random.default_rng(12)
    lam, _ = _point_set(rng, 6, 2)
    n_rows = 2 * kernel_recovery._REPORT_BLOCK + 3
    evals = [PointEval(tuple(p)) for p in rng.uniform(1.3, 1.9, size=(n_rows, 2))]
    solves = Counter()
    solve = linalg.SpdFactor.solve

    def counted_solve(self, b):
        solves["solve"] += 1
        solves["rhs_cols"] += 1 if np.ndim(b) == 1 else np.shape(b)[1]
        return solve(self, b)

    monkeypatch.setattr(linalg.SpdFactor, "solve", counted_solve)
    reports = tradeoff_report(k, lam, evals)
    assert [r.flag for r in reports] == ["ok"] * n_rows
    # one diag and one cross per block, plus the one Gram
    n_blocks = 3
    assert k.calls == {"diag": n_blocks, "diag_entries": n_rows,
                       "cross": n_blocks + 1,
                       "cross_entries": len(lam) ** 2 + n_rows * len(lam)}
    assert solves == {"solve": n_blocks, "rhs_cols": n_rows}


def test_route_disagreement_flags_only_its_row(monkeypatch):
    # a row whose Schur and bordered routes disagree is flagged unresolved
    # and keeps its Schur P^2 and bordered norm; every other row is as before
    k = MaternSobolevKernel(4, 2, 0.7)
    rng = np.random.default_rng(12)
    lam, _ = _point_set(rng, 6, 2)
    evals = [PointEval(tuple(p)) for p in rng.uniform(1.3, 1.9, size=(5, 2))]
    plain = tradeoff_report(k, lam, evals)
    power_squared = PowerContext.power_squared

    def disagreeing(self, *args, **kwargs):
        ev = power_squared(self, *args, **kwargs)
        return dataclasses.replace(
            ev, agree=ev.agree & np.array([mu is not evals[2] for mu in ev.mu]))

    monkeypatch.setattr(PowerContext, "power_squared", disagreeing)
    reports = tradeoff_report(k, lam, evals)
    assert [r.flag for r in plain] == [FLAG_OK] * 5
    assert [r.flag for r in reports] == [FLAG_OK, FLAG_OK, FLAG_UNRESOLVED, FLAG_OK, FLAG_OK]
    assert _report_bits(reports)[0] == _report_bits(plain)[0]


def _report_bits(reports):
    """(power, stability_norm) bit patterns and flags of a report list."""
    vals = np.array([(r.power, r.stability_norm) for r in reports], dtype=float)
    return vals.view(np.int64).tolist(), [r.flag for r in reports]


def _row_by_row_report(kernel, lam_set, mus):
    """The report as plain per-row power_squared and lagrangian_norm_squared
    calls, each row evaluating its own kernel values and solving for its own
    Lagrange values, with each row's floor from tests/oracle.py; returns the
    reports and the rows' evaluations."""
    ctx = PowerContext(kernel, lam_set)
    out, evs = [], []
    for mu in mus:
        ev = ctx.power_squared(mu)
        if ev.excluded:
            norm, flag = math.nan, FLAG_EXCLUDED
        else:
            norm = math.sqrt(ctx.lagrangian_norm_squared(ev))
            floor = oracle.roundoff_floor(ev.k_mu_mu, ev.k_mu_lambda,
                                          ev.lagrange_values, ctx.gram)
            flag = (FLAG_UNRESOLVED if floor > kernel_recovery.UNRESOLVED_RTOL
                    * ev.power_squared else FLAG_OK)
        out.append(TradeoffReport(mu, math.sqrt(ev.power_squared), norm, flag))
        evs.append(ev)
    return out, evs


# the PowerEvaluation fields that hold one entry or row per functional
_ROW_FIELDS = [f.name for f in dataclasses.fields(PowerEvaluation)[1:]]


def _rows(ev):
    """A block's PowerEvaluation as one PowerEvaluation per row."""
    return [PowerEvaluation(mu, *(getattr(ev, name)[i] for name in _ROW_FIELDS))
            for i, mu in enumerate(ev.mu)]


def _block_evaluations(kernel, lam_set, mus):
    """tradeoff_report's reports and the evaluation it made for each row,
    recorded block by block as it makes them."""
    evs = []
    plain = PowerContext.power_squared

    def recording(self, *args, **kwargs):
        ev = plain(self, *args, **kwargs)
        evs.extend(_rows(ev))
        return ev

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PowerContext, "power_squared", recording)
        reports = tradeoff_report(kernel, lam_set, mus)
    return reports, evs


def _floors(kernel, lam_set, evs):
    """The roundoff floor of each evaluation's squared power."""
    gram = PowerContext(kernel, lam_set).gram
    return [oracle.roundoff_floor(ev.k_mu_mu, ev.k_mu_lambda, ev.lagrange_values, gram)
            for ev in evs]


def _near_site_matern():
    # 2-d Matern rows within 1e-3 of a site, some exactly on one (excluded)
    rng = np.random.default_rng(5)
    lam, pts = _point_set(rng, 80, 2, lo=0.0, hi=1.0)
    rows = rng.uniform(0.0, 1.0, size=(310, 2))
    near = rng.choice(len(rows), 60, replace=False)
    angle = rng.uniform(0.0, 2.0 * np.pi, len(near))
    radius = rng.uniform(0.0, 1e-3, len(near))
    rows[near] = (pts[rng.choice(len(pts), len(near), replace=False)]
                  + radius[:, None] * np.column_stack([np.cos(angle), np.sin(angle)]))
    rows[near[:5]] = pts[:5]
    return MaternSobolevKernel(5, 2, 0.3), lam, [PointEval(tuple(p)) for p in rows]


def _hermite_1d():
    # 1-d value and slope data, evaluated at derivative orders 0..2
    rng = np.random.default_rng(6)
    xs = np.linspace(0.0, 1.0, 15) + rng.uniform(-0.01, 0.01, 15)
    lam = FunctionalSet([f(x) for x in xs
                         for f in (PointEval, lambda x: DerivEval(x, 1))])
    mus = [DerivEval(x, i % 3) for i, x in enumerate(rng.uniform(0.0, 1.0, 320))]
    mus[:3] = [PointEval(xs[0]), DerivEval(xs[1], 1), DerivEval(xs[2], 2)]
    return MaternSobolevKernel(5, 1, 0.1), lam, mus


def _no_data():
    rng = np.random.default_rng(7)
    mus = [PointEval(tuple(p)) for p in rng.uniform(-1.0, 1.0, size=(300, 2))]
    return MaternSobolevKernel(4, 2, 0.7), None, mus


@pytest.mark.parametrize("problem", [_near_site_matern, _hermite_1d, _no_data])
def test_blocked_report_within_floor_of_row_by_row(problem):
    # one solve per block rounds differently from one solve per row, so each
    # row's Schur and bordered values may move, but by no more than the
    # roundoff floor F, and no flag may change
    kernel, lam, mus = problem()
    assert len(mus) > 2 * kernel_recovery._REPORT_BLOCK
    reports, evs = _block_evaluations(kernel, lam, mus)
    ref_reports, ref_evs = _row_by_row_report(kernel, lam, mus)
    assert [r.mu for r in reports] == [ev.mu for ev in evs] == mus
    assert [r.flag for r in reports] == [r.flag for r in ref_reports]
    for ev, ref, floor in zip(evs, ref_evs, _floors(kernel, lam, ref_evs)):
        assert abs(ev.power_squared - ref.power_squared) <= floor, ev.mu
        assert abs(ev.bordered - ref.bordered) <= floor, ev.mu
    if lam is None:
        # without data nothing is solved, so nothing may move
        assert _report_bits(reports) == _report_bits(ref_reports)
    else:
        # the cases the blocks must carry: excluded rows beside ok ones
        flags = Counter(r.flag for r in reports)
        assert flags[FLAG_EXCLUDED] >= 3 and flags[FLAG_OK] > len(mus) // 2


@cache
def _near_site_reference():
    """The near-site problem's rows in their own order, with each row's
    evaluation, floor and flag."""
    kernel, lam, mus = _near_site_matern()
    reports, evs = _block_evaluations(kernel, lam, mus)
    return kernel, lam, mus, evs, _floors(kernel, lam, evs), [r.flag for r in reports]


@settings(max_examples=20, deadline=None)
@given(order=st.permutations(range(310)))
def test_permuted_rows_keep_their_powers_within_the_floor(order):
    # rows that change blocks, or places in a block, get their Lagrange
    # values from a different multi-right-hand-side solve
    kernel, lam, mus, evs, floors, flags = _near_site_reference()
    reports, moved = _block_evaluations(kernel, lam, [mus[i] for i in order])
    assert [ev.mu for ev in moved] == [mus[i] for i in order]
    for ev, i in zip(moved, order):
        assert abs(ev.power_squared - evs[i].power_squared) <= floors[i], i
    assert [r.flag for r in reports] == [flags[i] for i in order]


def test_report_powers_within_the_floor_of_a_50_digit_oracle():
    # 2-d Matern point data against mpmath at 50 digits; six rows lie
    # within 1e-3 of a site, where the power can fall below its floor
    pytest.importorskip("mpmath")
    rng = np.random.default_rng(11)
    sites = rng.uniform(0.0, 1.0, size=(12, 2))
    rows = rng.uniform(0.0, 1.0, size=(10, 2))
    angle = rng.uniform(0.0, 2.0 * np.pi, 3)
    direction = np.column_stack([np.cos(angle), np.sin(angle)])
    rows[:3] = sites[:3] + rng.uniform(1e-4, 1e-3, 3)[:, None] * direction
    # three more rows 1e-5 to 1e-4 from a site: the closest is unresolved
    rows = np.vstack([rows, sites[3:6] + np.array([[1e-5], [3e-5], [1e-4]]) * direction])
    kernel = MaternSobolevKernel(5, 2, 0.3)
    lam = FunctionalSet([PointEval(tuple(p)) for p in sites])
    reports, evs = _block_evaluations(kernel, lam, [PointEval(tuple(p)) for p in rows])
    exact = oracle.MaternPointOracle(5, 2, 0.3).power_squared(sites.tolist(), rows.tolist())
    floors = _floors(kernel, lam, evs)
    for ev, p2, floor in zip(evs, exact, floors):
        assert abs(ev.power_squared - p2) <= floor, (ev.mu, ev.power_squared, p2, floor)
    unresolved = [floor > 1e-5 * p2 for p2, floor in zip(exact, floors)]
    assert any(unresolved) and not all(unresolved)
    # the rows the report resolves hold 1e-5 against 50 digits, and the
    # ones it flags unresolved are below their floor
    flags = [r.flag for r in reports]
    assert FLAG_UNRESOLVED in flags and FLAG_OK in flags
    for r, ev, p2, floor in zip(reports, evs, exact, floors):
        if r.flag == FLAG_OK:
            assert abs(ev.power_squared - p2) <= 1e-5 * p2, (ev.mu, ev.power_squared, p2)
        else:
            assert r.flag == FLAG_UNRESOLVED and floor > kernel_recovery.UNRESOLVED_RTOL * p2


@pytest.mark.parametrize("problem", [_near_site_matern, _hermite_1d])
def test_report_floor_equals_the_oracle_floor(problem):
    # the library's blocked floor (one |W| |G| product per block), as the
    # report's evaluations carry it, against the row-by-row formula of
    # tests/oracle.py, and the flags it decides
    kernel, lam, mus = problem()
    reports, evs = _block_evaluations(kernel, lam, mus)
    got = [ev.floor for ev in evs]
    ref = _floors(kernel, lam, evs)
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)
    for r, ev, floor in zip(reports, evs, ref):
        if not ev.excluded:
            unresolved = floor > kernel_recovery.UNRESOLVED_RTOL * ev.power_squared
            assert r.flag == (FLAG_UNRESOLVED if unresolved else FLAG_OK), r.mu
    flags = Counter(r.flag for r in reports)
    assert flags[FLAG_UNRESOLVED] and flags[FLAG_OK] > flags[FLAG_UNRESOLVED]


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.parametrize("problem", [_near_site_matern, _hermite_1d, _no_data])
def test_a_batch_of_one_is_the_single_functional_call_bit_for_bit(problem):
    # the single-functional call is the block of one, not a second route:
    # every field and the norm carry the same bits, and where the block
    # reads NaN for an excluded row the single call raises
    kernel, lam, mus = problem()
    ctx = PowerContext(kernel, lam)
    for mu in mus[:60]:
        block = ctx.power_squared([mu], cross_check=False)
        one = ctx.power_squared(mu, cross_check=False)
        assert block.mu == (mu,) and one.mu is mu
        for name in _ROW_FIELDS:
            assert _bits(getattr(block, name)[0]) == _bits(getattr(one, name)), (mu, name)
        norm2 = ctx.lagrangian_norm_squared(block)
        if one.excluded:
            assert np.isnan(norm2[0])
            with pytest.raises(ExcludedCase):
                ctx.lagrangian_norm_squared(one)
        else:
            assert _bits(norm2[0]) == _bits(ctx.lagrangian_norm_squared(one)), mu


def _random_problem(seed):
    """Matern point data of random (m, d) and size, 20 scattered rows and 10
    rows 1e-6 to 1e-2 from a site, where the power nears its floor."""
    rng = np.random.default_rng(seed)
    m, d = int(rng.integers(3, 6)), int(rng.integers(1, 3))
    sites = rng.uniform(0.0, 1.0, size=(int(rng.integers(4, 11 if d == 1 else 31)), d))
    near = (sites[rng.integers(0, len(sites), 10)]
            + rng.normal(size=(10, d)) * 10.0 ** rng.uniform(-6.0, -2.0, (10, 1)))
    rows = np.vstack([rng.uniform(-0.2, 1.2, size=(20, d)), near])
    return (MaternSobolevKernel(m, d, 0.5), [PointEval(tuple(p)) for p in sites],
            [PointEval(tuple(p)) for p in rows])


def _powers_and_floors(kernel, sites, mus):
    """The report's rows, their P^2 and their roundoff floors F; rejects the
    example when the data Gram fails its Cholesky factorization."""
    lam = FunctionalSet(sites)
    try:
        reports, evs = _block_evaluations(kernel, lam, mus)
    except NotPositiveDefinite:
        assume(False)
    return reports, np.array([ev.power_squared for ev in evs]), np.array(_floors(kernel, lam, evs))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_adding_a_data_site_never_raises_a_power_beyond_its_floor(seed):
    # nested data: P^2 with one more site is at most P^2 without it, up to
    # the row's floor in the larger report
    kernel, sites, mus = _random_problem(seed)
    _, fewer, _ = _powers_and_floors(kernel, sites[:-1], mus)
    _, more, floors = _powers_and_floors(kernel, sites, mus)
    assert np.all(more - fewer <= floors), seed


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_permuting_the_data_moves_each_power_at_most_its_floor(seed, data):
    kernel, sites, mus = _random_problem(seed)
    _, p2, floors = _powers_and_floors(kernel, sites, mus)
    order = data.draw(st.permutations(range(len(sites))))
    _, moved, _ = _powers_and_floors(kernel, [sites[i] for i in order], mus)
    assert np.all(np.abs(moved - p2) <= floors), seed


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_every_ok_row_holds_the_product_identity(seed):
    kernel, sites, mus = _random_problem(seed)
    reports, _, _ = _powers_and_floors(kernel, sites, mus)
    assert all(abs(r.product - 1.0) <= 1e-5 for r in reports if r.flag == FLAG_OK), seed


@pytest.mark.parametrize("seed", [0, 2, 3, 5])
def test_every_ok_row_lies_within_1e_4_of_a_30_digit_oracle(seed):
    # the rule that flags a row ok (PowerEvaluation.unresolved is false and
    # it is not excluded) must mean its power is right: each ok P^2 within
    # 1e-4 relative of mpmath at 30 digits.  Seeds 0 and 5 are 2-d (17 and
    # 4 sites), 2 and 3 are 1-d; 2-d problems of 20 sites and more take 3 s
    # or more each at 30 digits, so they are left out
    pytest.importorskip("mpmath")
    kernel, sites, mus = _random_problem(seed)
    reports = tradeoff_report(kernel, FunctionalSet(sites), mus)
    ok = [r.mu for r in reports if r.flag == FLAG_OK]
    p2 = np.array([r.power for r in reports if r.flag == FLAG_OK]) ** 2
    exact = oracle.MaternPointOracle(kernel.m, kernel.d, kernel.c, dps=30).power_squared(
        [f.x for f in sites], [f.x for f in ok])
    exact = np.array(exact, dtype=float)
    assert len(ok) >= 20
    assert np.all(np.abs(p2 - exact) <= 1e-4 * exact), seed


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_the_bordered_form_is_minimal_at_the_lagrange_values(seed):
    # ||mu - sum_j c_j lambda_j||^2 = P^2 + (c - w)^T G (c - w) >= P^2 for
    # any coefficient rows c, the paper's Kansa inequality: the computed form
    # at c lies at least P^2 - F(c), where F(c) is the roundoff floor with c
    # in place of w, and at c = w it is P^2 within F(w).  Both sides are
    # unclamped: near a site the Schur value may round below 0, where the
    # clamped power reads 0
    kernel, sites, mus = _random_problem(seed)
    try:
        ctx = PowerContext(kernel, FunctionalSet(sites))
    except NotPositiveDefinite:
        assume(False)
    kmm, kml = kernel.diag(mus), kernel.cross(mus, ctx.lam_set)
    p2, w = kernel_recovery.schur_batch(ctx.factor, kmm, kml)
    ev = ctx.power_squared(mus, cross_check=False)
    assert np.array_equal(ev.power_squared, np.maximum(p2, 0.0))
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-12.0, 0.0, size=(len(w), 1))
    abs_gram = np.abs(ctx.gram)
    for c in (w, w + scale * rng.normal(size=w.shape) * (np.abs(w) + 1.0),
              rng.normal(size=w.shape)):
        form = kernel_recovery._bordered_form(kmm, kml, c, ctx.gram)
        assert np.all(form >= p2 - kernel_recovery.roundoff_floor(abs_gram, kmm, kml, c)), seed
    assert np.array_equal(kernel_recovery._bordered_form(kmm, kml, w, ctx.gram), ev.bordered)
    assert np.all(np.abs(ev.bordered - p2) <= ev.floor), seed


def test_near_coincident_sites_raise_not_positive_definite():
    # two sites 1e-9 apart make the Gram singular in double precision; the
    # context raises, naming the Gram's size, instead of shifting the Gram
    k = MaternSobolevKernel(5, 2, 0.7)
    lam = FunctionalSet([PointEval(p) for p in [(0.0, 0.0), (0.5, 0.1), (0.5, 0.1 + 1e-9)]])
    with pytest.raises(NotPositiveDefinite, match="3x3"):
        PowerContext(k, lam)


def test_leave_one_out_equality():
    # removing lambda_i and evaluating there reproduces the equality, and
    # matches the inverse-gram diagonal identity
    k = MaternSobolevKernel(5, 2, 1.0)
    rng = np.random.default_rng(21)
    lam, pts = _point_set(rng, 9, 2, lo=0.0, hi=1.0)
    ctx = PowerContext(k, lam)
    inv_diag = ctx.factor.inverse_diagonal()
    for i in [0, 4, 8]:
        reduced = FunctionalSet(lam[:i] + lam[i + 1:])
        ev = power_squared(k, reduced, lam[i])
        n2 = lagrangian_norm_squared(k, reduced, lam[i])
        assert ev.power_squared * n2 == pytest.approx(1.0, rel=1e-6)
        assert ev.power_squared == pytest.approx(1.0 / inv_diag[i], rel=1e-6)


def test_power_monotone_under_set_growth():
    k = MaternSobolevKernel(4, 2, 1.0)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1, 1, size=(10, 2))
    mu = PointEval((0.33, -0.41))
    prev = math.inf
    for n in range(1, 11):
        lam = FunctionalSet([PointEval(tuple(p)) for p in pts[:n]])
        ev = power_squared(k, lam, mu)
        assert ev.power_squared <= prev + 1e-9
        prev = ev.power_squared


def test_schur_vs_bordered_agreement():
    rng = np.random.default_rng(17)
    for m, d in [(3, 1), (5, 1), (4, 2), (5, 2)]:
        k = MaternSobolevKernel(m, d, 0.4)
        n = int(rng.integers(5, 15))
        lam, pts = _point_set(rng, n, d)
        ctx = PowerContext(k, lam)
        for _ in range(5):
            q = rng.uniform(-1.5, 1.5, size=d)
            if np.min(np.linalg.norm(pts - q, axis=1)) < 0.2:
                continue
            mu = PointEval(tuple(q))
            ev = ctx.power_squared(mu, cross_check=False)
            s, b = ev.power_squared, ev.bordered
            assert b == pytest.approx(s, rel=1e-7)


def test_bounded_error_property():
    # P^2(mu) <= K_mumu + 1e-8
    k = MaternSobolevKernel(5, 2, 1.0)
    rng = np.random.default_rng(31)
    lam, _ = _point_set(rng, 7, 2)
    for _ in range(10):
        mu = PointEval(tuple(rng.uniform(-2, 2, size=2)))
        ev = power_squared(k, lam, mu)
        assert ev.power_squared <= ev.k_mu_mu + 1e-8


def test_minimum_norm_against_translate_superspace_bumps():
    # bump built by constrained minimization over kernel translates on
    # Lambda + mu + extras can only have a larger norm than the Lagrangian
    k = MaternSobolevKernel(5, 1, 1.0)
    rng = np.random.default_rng(42)
    xs = np.sort(rng.uniform(-1, 1, 6))
    lam = FunctionalSet([PointEval(x) for x in xs])
    mu = PointEval(0.85 if np.min(np.abs(xs - 0.85)) > 0.05 else 0.9)
    lagr_n2 = lagrangian_norm_squared(k, lam, mu)

    extras = [PointEval(x) for x in (-1.4, 1.5, 0.1234)]
    sites = list(lam) + [mu] + extras
    g = k.cross(sites, sites)
    g = np.triu(g) + np.triu(g, 1).T
    bmat = k.cross(list(lam) + [mu], sites)  # constraints rows
    e = np.zeros(len(lam) + 1)
    e[-1] = 1.0
    # minimize c^T G c subject to B c = e: c = G^-1 B^T (B G^-1 B^T)^-1 e
    ginv_bt = linalg.factor_spd(g).solve(bmat.T)
    sol = np.linalg.solve(bmat @ ginv_bt, e)
    c = ginv_bt @ sol
    bump_n2 = float(c @ g @ c)
    assert abs(bmat @ c - e).max() <= 1e-6
    assert bump_n2 >= lagr_n2 * (1.0 - 1e-6)


def test_mixed_functional_recovery():
    # Laplacian + point data, evaluated at both kinds
    k = MaternSobolevKernel(5, 2, 1.0)
    lam = FunctionalSet([
        LaplacianEval((0.3, 0.3)), LaplacianEval((0.7, 0.6)),
        PointEval((0.0, 0.0)), PointEval((1.0, 1.0)),
    ])
    for mu in [PointEval((0.5, 0.2)), LaplacianEval((0.2, 0.8))]:
        ev = power_squared(k, lam, mu)
        n2 = lagrangian_norm_squared(k, lam, mu)
        assert ev.power_squared * n2 == pytest.approx(1.0, rel=1e-6)
