from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from scipy.special import gamma, k0, k1, kv

import oracle

from tradeoff import kernels
from tradeoff.errors import UnsupportedPair
from tradeoff.functionals import (
    CoeffEval,
    DerivEval,
    Functional,
    FunctionalSet,
    LaplacianEval,
    PointEval,
    vandermonde,
)
from tradeoff.kernel_recovery import _REPORT_BLOCK, tradeoff_report
from tradeoff.kernels import (
    ChebWeightKernel,
    MaternSobolevKernel,
    gram,
    kernel_from_spec,
)
from tradeoff.report import reports_to_csv
from tradeoff.unsymmetric import PoissonSetup, unit_square_perimeter
from tradeoff.weights import weight_array


def test_diagonal_normalization():
    for m, d in [(3, 1), (4, 1), (5, 1), (3, 2), (4, 2), (5, 2)]:
        k = MaternSobolevKernel(m, d, 1.0)
        p = PointEval((0.3,) * d)
        assert k.apply(p, p) == pytest.approx(1.0, abs=1e-12)


def test_chebweight_two_term_sum():
    k = ChebWeightKernel([1.0, 1.0])
    val = k.apply(PointEval(0.0), PointEval(1.0))
    assert val == 1.0  # T0(0)T0(1) + T1(0)T1(1)


def test_symmetric_evaluation_is_exact():
    k2 = MaternSobolevKernel(5, 2, 1.3)
    pairs = [
        (PointEval((0.1, 0.2)), LaplacianEval((0.7, -0.3))),
        (LaplacianEval((0.1, 0.2)), LaplacianEval((0.7, -0.3))),
    ]
    for lam, mu in pairs:
        assert k2.apply(lam, mu) == k2.apply(mu, lam)
    k1 = MaternSobolevKernel(5, 1, 0.7)
    for lam, mu in [(PointEval(0.1), DerivEval(0.6, 1)),
                    (DerivEval(0.1, 2), DerivEval(0.6, 1))]:
        assert k1.apply(lam, mu) == k1.apply(mu, lam)


def test_radial_derivative_identity_against_fd():
    # g_nu(r) = r^nu K_nu(r) normalized; implemented identity g' = -r g_{nu-1}
    for nu in [2.5, 3.0, 4.0, 4.5]:
        norm = 2.0 ** (1 - nu) / gamma(nu)

        def g(r, a=nu):
            return norm * r ** a * kv(a, r)

        for r in np.linspace(0.1, 5.0, 23):
            h = 1e-6 * max(r, 1.0)
            fd = (g(r + h) - g(r - h)) / (2 * h)
            exact = -r * norm * r ** (nu - 1) * kv(nu - 1, r)
            assert fd == pytest.approx(exact, rel=1e-7)


def _fd_laplacian(f, x, h=1e-4):
    e1, e2 = np.array([h, 0.0]), np.array([0.0, h])
    return (f(x + e1) + f(x - e1) + f(x + e2) + f(x - e2) - 4 * f(x)) / h ** 2


def test_laplacian_matches_fd_2d():
    k = MaternSobolevKernel(5, 2, 1.0)
    p = np.array([0.3, 0.7])
    q = np.array([0.8, 0.45])  # distance 0.5-ish

    def kval(y):
        return k.apply(PointEval(tuple(p)), PointEval(tuple(y)))

    fd = _fd_laplacian(kval, q)
    exact = k.apply(PointEval(tuple(p)), LaplacianEval(tuple(q)))
    assert fd == pytest.approx(exact, rel=1e-6)


def test_double_laplacian_matches_fd_2d():
    k = MaternSobolevKernel(5, 2, 1.0)
    q = np.array([0.9, 0.1])

    def lap_in_y(x):
        return k.apply(PointEval(tuple(x)), LaplacianEval(tuple(q)))

    p = np.array([0.25, 0.55])
    fd = _fd_laplacian(lap_in_y, p)
    exact = k.apply(LaplacianEval(tuple(p)), LaplacianEval(tuple(q)))
    assert fd == pytest.approx(exact, rel=1e-6)


def test_deriv_1d_matches_fd():
    k = MaternSobolevKernel(5, 1, 0.8)
    x0, y0 = 0.2, 0.85
    h = 1e-5

    def kval(x, y):
        return k.apply(PointEval(x), PointEval(y))

    fd_x = (kval(x0 + h, y0) - kval(x0 - h, y0)) / (2 * h)
    assert fd_x == pytest.approx(k.apply(DerivEval(x0, 1), PointEval(y0)), rel=1e-8)
    fd_y = (kval(x0, y0 + h) - kval(x0, y0 - h)) / (2 * h)
    assert fd_y == pytest.approx(k.apply(PointEval(x0), DerivEval(y0, 1)), rel=1e-8)
    h2 = 1e-4  # second differences need a larger step against roundoff
    fd_xx = (kval(x0 + h2, y0) - 2 * kval(x0, y0) + kval(x0 - h2, y0)) / h2 ** 2
    assert fd_xx == pytest.approx(k.apply(DerivEval(x0, 2), PointEval(y0)), rel=1e-5)
    mixed = k.apply(DerivEval(x0, 1), DerivEval(y0, 1))
    fd_xy = (kval(x0 + h2, y0 + h2) - kval(x0 + h2, y0 - h2)
             - kval(x0 - h2, y0 + h2) + kval(x0 - h2, y0 - h2)) / (4 * h2 ** 2)
    assert fd_xy == pytest.approx(mixed, rel=1e-6)


def test_chebweight_deriv_consistency():
    k = ChebWeightKernel(weight_array("(j+1)^2", 12))
    x0, y0 = -0.3, 0.6
    h = 1e-6
    fd = (k.apply(PointEval(x0 + h), PointEval(y0))
          - k.apply(PointEval(x0 - h), PointEval(y0))) / (2 * h)
    assert fd == pytest.approx(k.apply(DerivEval(x0, 1), PointEval(y0)), rel=1e-7)


def test_coincidence_limits_are_continuous():
    k = MaternSobolevKernel(5, 2, 1.0)
    p = PointEval((0.5, 0.5))
    near = PointEval((0.5 + 3e-7, 0.5))
    lap = LaplacianEval((0.5, 0.5))
    lap_near = LaplacianEval((0.5 + 3e-7, 0.5))
    assert k.apply(p, p) == pytest.approx(k.apply(p, near), rel=1e-5)
    assert k.apply(p, lap) == pytest.approx(
        k.apply(near, lap), rel=1e-5)
    assert k.apply(lap, lap) == pytest.approx(
        k.apply(lap_near, lap), rel=1e-5)
    # closed-form limits at coincidence
    nu = 4.0
    assert k.apply(p, lap) == pytest.approx(-2.0 / (2 * (nu - 1)), rel=1e-12)
    assert k.apply(lap, lap) == pytest.approx(
        2 * 4 / (4 * (nu - 1) * (nu - 2)), rel=1e-12)


# distances on both sides of the small-distance switch at s = 1e-6
_SMALL_DISTANCES = ["2e-6", "1.0001e-6", "0.9999e-6", "1e-7", "1e-9", "1e-12"]


def _matern_entries_mp(d: int, m: int, s: str) -> dict:
    """50-digit kernel entries lambda^x mu^y K between functionals at
    distance s and at the origin, keyed by derivative orders (n_a, n_b): the
    1-d derivative pairs, or the 2-d point/Laplacian pairs.  With
    g_j = C r^(nu-j) K_(nu-j)(r), DLMF 10.29.4 gives (d/r dr)^j g_0 =
    (-1)^j g_j, from which the derivatives of phi = g_0 and the 2-d radial
    Laplacians f'' + f'/r below follow."""
    import mpmath

    mp = mpmath.mp.clone()
    mp.dps = 50
    nu = mp.mpf(m) - mp.mpf(d) / 2
    r = mp.mpf(s)
    c = mp.mpf(2) ** (1 - nu) / mp.gamma(nu)
    g = [c * r ** (nu - j) * mp.besselk(nu - j, r) if j < 2 * nu else None
         for j in range(5)]
    if d == 2:
        lap = -2 * g[1] + r ** 2 * g[2]
        return {(0, 0): g[0], (2, 0): lap, (0, 2): lap,
                (2, 2): 8 * g[2] - 8 * r ** 2 * g[3] + r ** 4 * g[4]}
    derivs = [g[0], -r * g[1], -g[1] + r ** 2 * g[2]]
    if g[3] is not None:
        derivs.append(3 * r * g[2] - r ** 3 * g[3])
    if g[4] is not None:
        derivs.append(3 * g[2] - 6 * r ** 2 * g[3] + r ** 4 * g[4])
    return {(na, nb): (-1) ** nb * derivs[na + nb]
            for na in range(3) for nb in range(3) if na + nb < len(derivs)}


@pytest.mark.parametrize("d,m", [(1, 3), (1, 4), (1, 5), (1, 6), (2, 4), (2, 5), (2, 6)])
def test_small_distance_entries_against_mpmath(d, m):
    # every entry near coincidence within 1e-10 relative of 50 digits; below
    # s = 1e-6 the kernel takes leading series terms in place of kv
    mpmath = pytest.importorskip("mpmath")
    k = MaternSobolevKernel(m, d, 1.0)

    def functional(order, x):
        if d == 1:
            return DerivEval(x, order)
        return (LaplacianEval if order else PointEval)((x, 0.0))

    for s in _SMALL_DISTANCES:
        for (na, nb), ref in _matern_entries_mp(d, m, s).items():
            got = k.apply(functional(na, float(s)), functional(nb, 0.0))
            assert abs((mpmath.mpf(got) - ref) / ref) <= 1e-10, (s, na, nb, got)


@pytest.mark.parametrize("p,a", [(0, 0.5), (1, -0.5), (1, 0.5), (2, 0.0), (4, 0.0),
                                 (1, 1.0), (3, -1.0), (2, 1.5), (4, -2.0), (1, 2.5)])
def test_small_distance_terms_against_mpmath(p, a):
    # each term s^(p+a) K_|a|(s) on its own, so that a branch too small to
    # show in a kernel entry, like the logarithm of b = 0, is checked too
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    s = np.array([float(v) for v in _SMALL_DISTANCES])
    got = kernels._g_pow(p, a, s)
    for si, gi in zip(_SMALL_DISTANCES, got):
        r = mp.mpf(si)
        ref = r ** (p + a) * mp.besselk(abs(a), r)
        assert abs((mp.mpf(gi) - ref) / ref) <= 1e-10, (si, gi)


# kernel arguments s = r/c from below the small-distance switch at 1e-6 to 50
_ORACLE_S = [3e-7, 9.9e-7, 1.01e-6, 1e-4, 0.03, 0.7, 3.0, 12.0, 50.0]


@pytest.mark.parametrize("d,m,c", [(1, 3, 1.0), (1, 4, 0.3), (1, 5, 1.0), (2, 4, 0.3),
                                   (2, 5, 1.0)])
def test_cross_against_the_50_digit_derivative_oracle(d, m, c):
    # one cross call against tests/oracle.py: 1-d derivative orders 0-2 on
    # either side with the second site on either side of the first, and 2-d
    # Laplacian against a point and against a Laplacian.  Error bound: 1e-11
    # of the Cauchy-Schwarz scale sqrt(K(lam, lam) K(mu, mu)); measured at
    # most 7.1e-12 just below s = 1e-6, where leading series terms replace
    # the Bessel values, and 2.5e-13 elsewhere
    pytest.importorskip("mpmath")
    k = MaternSobolevKernel(m, d, c)
    ref = oracle.MaternPointOracle(m, d, c)
    if d == 1:
        lam = [DerivEval(0.3, a) for a in range(3)]
        mus = [DerivEval(0.3 + side * s * c, b)
               for s in _ORACLE_S for side in (1, -1) for b in range(3)]
    else:
        angles = np.linspace(0.0, 2.0 * np.pi, len(_ORACLE_S), endpoint=False)
        sites = [(0.3 + s * c * np.cos(t), 0.4 + s * c * np.sin(t))
                 for s, t in zip(_ORACLE_S, angles)]
        lam = [PointEval((0.3, 0.4)), LaplacianEval((0.3, 0.4))]
        mus = [f(x) for x in sites for f in (PointEval, LaplacianEval)]
    got = k.cross(lam, mus)
    scale = np.sqrt(np.outer(k.diag(lam), k.diag(mus)))
    checked = 0
    for i, f in enumerate(lam):
        for j, g in enumerate(mus):
            if f.order + g.order == 0 or f.order + g.order >= 2 * k.nu:
                continue
            if d == 1:
                exact = ref.derivative(f.x, f.order, g.x, g.order)
            else:
                exact = ref.laplacian(f.x, g.x, (f.order + g.order) // 2)
            assert abs(got[i, j] - exact) <= 1e-11 * scale[i, j], (f, g, got[i, j])
            checked += 1
    assert checked >= 3 * len(_ORACLE_S)


def test_unsupported_applications():
    k2 = MaternSobolevKernel(3, 2, 1.0)  # nu = 2: Laplacian pairs unavailable
    lap = LaplacianEval((0.2, 0.2))
    assert k2.apply(PointEval((0.5, 0.5)), lap) is not None
    with pytest.raises(UnsupportedPair):
        k2.apply(lap, LaplacianEval((0.5, 0.5)))
    with pytest.raises(UnsupportedPair):
        k2.apply(PointEval(0.5), PointEval(0.6))  # wrong dimension
    k1 = MaternSobolevKernel(5, 1, 1.0)
    with pytest.raises(UnsupportedPair):
        k1.apply(DerivEval(0.0, 3), PointEval(0.5))
    with pytest.raises(UnsupportedPair):
        k1.apply(CoeffEval(0), PointEval(0.5))


class GridValue(Functional):
    """A 2-d point value declared outside the package, with only the facts a
    radial kernel and a report read."""

    kind = "grid_value"
    dim = 2
    order = 0

    def __init__(self, x):
        self.site = tuple(x)

    def csv_columns(self):
        return self.kind, self.site[0], self.site[1]


def test_kind_declared_outside_the_package():
    k = MaternSobolevKernel(5, 2, 1.0)
    pts = [(0.1, 0.2), (0.5, 0.8), (0.9, 0.1)]
    mine, ref = [GridValue(p) for p in pts], [PointEval(p) for p in pts]
    others = [LaplacianEval((0.3, 0.3)), PointEval((0.2, 0.7))]
    assert np.array_equal(k.cross(mine, others), k.cross(ref, others))
    assert np.array_equal(k.cross(others, mine), k.cross(others, ref))
    assert np.array_equal(k.diag(mine), k.diag(ref))
    assert k.apply(mine[0], others[0]) == k.apply(ref[0], others[0])
    lam = FunctionalSet([PointEval(p) for p in [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]])
    csv = reports_to_csv(tradeoff_report(k, lam, mine))
    assert csv == reports_to_csv(tradeoff_report(k, lam, ref)).replace(
        "\npoint,", "\ngrid_value,")

    class GridSlope(GridValue):
        order = 1  # in 2-d a radial kernel differentiates only by Laplacians

    with pytest.raises(UnsupportedPair):
        k.cross([GridSlope(pts[0])], others)


def test_cross_matches_scalar_apply():
    k = MaternSobolevKernel(4, 2, 0.9)
    fa = [PointEval((0.1, 0.2)), LaplacianEval((0.5, 0.8)), PointEval((0.9, 0.1))]
    fb = [LaplacianEval((0.3, 0.3)), PointEval((0.2, 0.7))]
    block = k.cross(fa, fb)
    for i, a in enumerate(fa):
        for j, b in enumerate(fb):
            assert block[i, j] == k.apply(a, b)


def test_apply_is_the_one_by_one_cross_bit_for_bit():
    rng = np.random.default_rng(5)
    pts = rng.uniform(0, 1, size=(20, 2))
    mixed_2d = ([PointEval(tuple(p)) for p in pts]
                + [LaplacianEval(tuple(p)) for p in pts])
    # c = 0.3: 0.3 ** 4 rounds differently from 0.3 ** np.int64(4)
    hermite = [DerivEval(x, o) for x in rng.uniform(-1, 1, 10) for o in range(3)]
    for k, fs in [(MaternSobolevKernel(4, 2, 0.9), mixed_2d),
                  (MaternSobolevKernel(5, 1, 0.3), hermite)]:
        applied = np.array([[k.apply(a, b) for b in fs] for a in fs])
        _assert_bitwise_equal(applied, k.cross(fs, fs))


def _diag_cases():
    rng = np.random.default_rng(9)
    pts = rng.uniform(-1, 1, size=(6, 2))
    return {
        "mixed_1d": (MaternSobolevKernel(5, 1, 0.3),
                     [DerivEval(x, i % 3) for i, x in enumerate(rng.uniform(-1, 1, 9))]
                     + [PointEval(-0.0), DerivEval(-0.0, 2)]),
        "mixed_2d": (MaternSobolevKernel(5, 2, 0.7),
                     [LaplacianEval(tuple(p)) if i % 2 else PointEval(tuple(p))
                      for i, p in enumerate(pts)]),
        "grid_value": (MaternSobolevKernel(5, 2, 1.0), [GridValue(tuple(p)) for p in pts]),
        "empty": (MaternSobolevKernel(5, 1, 1.0), []),
    }


@pytest.mark.parametrize("case", list(_diag_cases()))
def test_diag_is_per_row_apply_bit_for_bit_with_one_apply_per_order(case, monkeypatch):
    k, fs = _diag_cases()[case]
    ref = np.array([k.apply(f, f) for f in fs])
    calls = []
    apply = MaternSobolevKernel.apply

    def counting_apply(self, lam, mu):
        calls.append(lam.order)
        return apply(self, lam, mu)

    monkeypatch.setattr(MaternSobolevKernel, "apply", counting_apply)
    _assert_bitwise_equal(k.diag(fs), ref)
    assert sorted(calls) == sorted({f.order for f in fs})


def _cross_without_dedup(k, fa, fb):
    """The oracle of the deduplicated cross: _radial on the full argument
    array of each derivative-order block, one evaluation per entry."""
    fa, fb = list(fa), list(fb)
    oa, ob = np.array([f.order for f in fa]), np.array([f.order for f in fb])
    pa = np.array([f.site for f in fa], dtype=float)
    pb = np.array([f.site for f in fb], dtype=float)
    out = np.empty((len(fa), len(fb)))
    for na in sorted(set(oa.tolist())):
        ia = np.flatnonzero(oa == na)
        for nb in sorted(set(ob.tolist())):
            ib = np.flatnonzero(ob == nb)
            diff = pa[ia][:, None, :] - pb[ib][None, :, :]
            if k.d == 1:
                u = diff[:, :, 0] / k.c
            else:
                u = np.sqrt(np.maximum((diff ** 2).sum(-1), 0.0)) / k.c
            out[np.ix_(ia, ib)] = k._radial(na, nb, u)
    return out


def _assert_bitwise_equal(a, b):
    """Equal values and equal signs of zero."""
    assert np.array_equal(a, b)
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


def _dedup_cases():
    rng = np.random.default_rng(11)
    k2 = MaternSobolevKernel(5, 2, 1.0)
    setup = PoissonSetup.regular(k2, n_side=5, n_boundary=16)
    data = setup.functionals()
    k1 = MaternSobolevKernel(5, 1, 0.05)
    hermite = FunctionalSet([DerivEval(x, o) for x in rng.uniform(0, 1, 12)
                             for o in range(3)])
    scattered = FunctionalSet([PointEval(tuple(p))
                               for p in rng.uniform(0, 1, size=(40, 2))])
    # -0.0 == 0.0, so the signed zeros go in lists, not FunctionalSets
    zeros_a = [PointEval(-0.0), DerivEval(0.0, 1), DerivEval(-0.0, 2), PointEval(0.3)]
    zeros_b = [PointEval(0.0), DerivEval(-0.0, 1), DerivEval(0.0, 1),
               DerivEval(0.0, 2), PointEval(-0.0)]
    # kansa's evaluation rows: its 64-point boundary against the 17 x 17
    # grid, whose (dx^2, dy^2) table outnumbers the block (the pair-code
    # route), and its 21 x 21 grid against the 11 x 11 data grid (two
    # spacings)
    data_17 = PoissonSetup.regular(k2, n_side=17).functionals()
    eval_boundary = FunctionalSet([PointEval(tuple(p)) for p in
                                   unit_square_perimeter(np.arange(64) * 4.0 / 64)])
    h = np.arange(1, 22) / 22.0
    eval_grid = FunctionalSet([LaplacianEval((x, y)) for x in h for y in h])
    data_11 = PoissonSetup.regular(k2, n_side=11).functionals()
    return {
        "kansa_data_gram": (k2, data, data),
        "kansa_trial_cross": (k2, data, setup.trial_functionals),
        "kansa_cross_trial_first": (k2, setup.trial_functionals, data),
        "hermite_1d": (k1, hermite, hermite),
        "scattered_2d": (k2, scattered, scattered),
        "signed_zeros_1d": (MaternSobolevKernel(5, 1, 1.0), zeros_a, zeros_b),
        "eval_boundary_against_17x17": (k2, eval_boundary, data_17),
        "eval_grid_21_against_data_11": (k2, eval_grid, data_11),
        "one_row": (k2, data[7:8], data),
        "one_column": (k2, data, data[-1:]),
    }


@pytest.mark.parametrize("case", list(_dedup_cases()))
def test_cross_equals_full_block_evaluation_bit_for_bit(case):
    k, fa, fb = _dedup_cases()[case]
    ref = _cross_without_dedup(k, fa, fb)
    _assert_bitwise_equal(k.cross(fa, fb), ref)
    # a FunctionalSet's cached layout and a plain list give the same matrix
    _assert_bitwise_equal(k.cross(list(fa), list(fb)), ref)


def test_cross_on_a_warm_shared_kernel_equals_a_fresh_one_bit_for_bit():
    # every case twice, shuffled, through one kernel per (m, d, c): no call
    # may depend on the calls made before it
    cases = _dedup_cases()
    shared, state = {}, {}
    runs = [(name, form) for name in cases for form in (FunctionalSet, list)] * 2
    for i in np.random.default_rng(3).permutation(len(runs)):
        name, form = runs[i]
        k, fa, fb = cases[name]
        if form is FunctionalSet and not isinstance(fa, FunctionalSet):
            continue
        warm = shared.setdefault((k.m, k.d, k.c), MaternSobolevKernel(k.m, k.d, k.c))
        state.setdefault((k.m, k.d, k.c), dict(vars(warm)))
        got = warm.cross(form(fa), form(fb))
        _assert_bitwise_equal(got, _cross_without_dedup(k, fa, fb))
        _assert_bitwise_equal(got, MaternSobolevKernel(k.m, k.d, k.c).cross(fa, fb))
    # the kernel is a plain value: no call leaves state on it
    assert {key: vars(warm) for key, warm in shared.items()} == state


def test_each_block_takes_its_route_from_its_sites(monkeypatch):
    # apply, diag, one-row and one-column blocks and blocks of scattered
    # sites run the kernel on every entry; a grid block, from a
    # FunctionalSet or a plain sequence alike, runs it on fewer arguments
    # than it has entries; every block is bit for bit the full evaluation
    k = MaternSobolevKernel(5, 2, 1.0)
    h = np.arange(1, 6) / 6.0
    grid = FunctionalSet([PointEval((x, y)) for x in h for y in h]
                         + [LaplacianEval((x, 0.5)) for x in h])
    rows = tuple(PointEval((x, 0.3)) for x in h) + (LaplacianEval((0.2, 0.9)),)
    scattered = [PointEval(tuple(p)) for p in np.random.default_rng(5).uniform(0, 1, (6, 2))]
    radial, sizes = MaternSobolevKernel._radial, []

    def counting_radial(self, n_a, n_b, u):
        sizes.append(np.size(u))
        return radial(self, n_a, n_b, u)

    monkeypatch.setattr(MaternSobolevKernel, "_radial", counting_radial)
    value = k.apply(grid[3], grid[-1])
    diag = k.diag(grid)
    row = k.cross([grid[7]], grid)
    column = k.cross(grid, [grid[7]])
    apart = k.cross(scattered, scattered[:4])
    # diag: one apply per order; then 1 x 25 and 1 x 5 blocks each way
    assert sizes == [1, 1, 1, 25, 5, 25, 5, 24]
    sizes.clear()
    block = k.cross(rows, grid)
    assert sum(sizes) < len(rows) * len(grid)
    sizes.clear()
    full = k.cross(grid, grid)
    assert sum(sizes) < len(grid) ** 2
    # C-ordered, as the full evaluation is: linalg.matmul's BLAS call
    # follows the order of its operands
    assert all(b.flags.c_contiguous for b in (row, column, apart, block, full))
    monkeypatch.undo()
    assert value == _cross_without_dedup(k, [grid[3]], [grid[-1]])[0, 0]
    _assert_bitwise_equal(diag, np.diag(_cross_without_dedup(k, grid, grid)))
    _assert_bitwise_equal(row, _cross_without_dedup(k, [grid[7]], grid))
    _assert_bitwise_equal(column, _cross_without_dedup(k, grid, [grid[7]]))
    _assert_bitwise_equal(apart, _cross_without_dedup(k, scattered, scattered[:4]))
    _assert_bitwise_equal(block, _cross_without_dedup(k, rows, grid))
    _assert_bitwise_equal(full, _cross_without_dedup(k, grid, grid))


def test_the_eval_boundary_against_a_17x17_grid_deduplicates_its_pair_codes(monkeypatch):
    # its per-axis tables are smaller than the 64 x 289 block, but their
    # (dx^2, dy^2) pairs outnumber it: np.unique runs on one pair code per
    # entry, and the kernel on fewer arguments than entries
    k, fa, fb = _dedup_cases()["eval_boundary_against_17x17"]
    trial = PoissonSetup.regular(k, n_side=17).trial_functionals
    unique, radial, uniques, sizes = np.unique, MaternSobolevKernel._radial, [], []

    def counting_unique(*args, **kwargs):
        uniques.append(np.size(args[0]))
        return unique(*args, **kwargs)

    def counting_radial(self, n_a, n_b, u):
        sizes.append(np.size(u))
        return radial(self, n_a, n_b, u)

    monkeypatch.setattr(np, "unique", counting_unique)
    monkeypatch.setattr(MaternSobolevKernel, "_radial", counting_radial)
    got = k.cross(fa, trial)
    assert uniques[-1] == len(fa) * len(trial) and sizes[0] < len(fa) * len(trial)
    monkeypatch.undo()
    _assert_bitwise_equal(got, _cross_without_dedup(k, fa, trial))


_NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate, Phase.target)


def _perturbed_grid(data) -> list:
    """A tensor grid on a drawn lattice with points removed, points moved
    off it and a drawn derivative order per site; never empty."""
    steps = [data.draw(st.integers(1, 12)) for _ in range(2)]
    sides = [data.draw(st.integers(1, 6)) for _ in range(2)]
    out = []
    for i in range(sides[0]):
        for j in range(sides[1]):
            action = data.draw(st.sampled_from(["keep", "keep", "drop", "shift"]))
            if action == "drop":
                continue
            p = [i / steps[0], j / steps[1]]
            if action == "shift":
                p[data.draw(st.integers(0, 1))] += data.draw(st.sampled_from([1e-3, 0.37]))
            kind = data.draw(st.sampled_from([PointEval, LaplacianEval]))
            out.append(kind(tuple(p)))
    return out or [PointEval((0.0, 0.0))]


@settings(max_examples=40, deadline=None, phases=_NO_SHRINK)
@given(data=st.data(), m=st.integers(4, 6), c=st.sampled_from([0.1, 1.0, 10.0]),
       same=st.booleans())
def test_cross_and_columns_on_perturbed_grids_equal_the_full_evaluation(data, m, c, same):
    k = MaternSobolevKernel(m, 2, c)
    fa = FunctionalSet(_perturbed_grid(data))
    fb = fa if same else FunctionalSet(_perturbed_grid(data))
    _assert_bitwise_equal(k.cross(fa, fb), _cross_without_dedup(k, fa, fb))
    column, ref = k.columns(fa), _cross_without_dedup(k, fa, fa)
    for j in range(len(fa)):
        _assert_bitwise_equal(column(j), ref[:, j])


def _grid(xs, ys):
    return [(x, y) for x in xs for y in ys]


def _column_grids():
    rng = np.random.default_rng(23)
    h = (np.arange(8) + 0.5) / 8
    full = _grid((np.arange(9) + 0.5) / 9, (np.arange(9) + 0.5) / 9)
    return {
        "square": _grid(h, h),
        "unequal_7x3": _grid((np.arange(7) + 0.5) / 7, (np.arange(3) + 0.5) / 3),
        "points_removed": [p for p in full if rng.uniform() > 0.3],
        "shifted": _grid(h + 0.3, h / 3 - 0.7),
    }


def _columns_and_cross_calls(k, fs, monkeypatch):
    """Every column of k.columns(fs), and the cross calls they made."""
    calls = []
    cross = type(k).cross

    def counting_cross(self, set_a, set_b):
        calls.append(len(set_b))
        return cross(self, set_a, set_b)

    with monkeypatch.context() as mp:
        mp.setattr(type(k), "cross", counting_cross)
        column = k.columns(fs)
        cols = [column(j) for j in range(len(fs))]
    return cols, calls


@pytest.mark.parametrize("case", list(_column_grids()))
def test_grid_columns_come_from_one_table_bit_for_bit(case, monkeypatch):
    pts = _column_grids()[case]
    for m in (3, 4, 5, 6):
        for c in (0.1, 1.0, 10.0):
            k = MaternSobolevKernel(m, 2, c)
            kinds = (PointEval, LaplacianEval) if m > 3 else (PointEval,)
            for fs in [FunctionalSet([kind(p) for p in pts]) for kind in kinds]:
                cols, calls = _columns_and_cross_calls(k, fs, monkeypatch)
                assert calls == []
                for j, col in enumerate(cols):
                    _assert_bitwise_equal(col, k.cross(fs, [fs[j]])[:, 0])


def _per_column_cases():
    rng = np.random.default_rng(29)
    h = (np.arange(6) + 0.5) / 6
    xs, ys = rng.uniform(0, 1, 12), rng.uniform(0, 1, 13)
    return {
        "scattered_2d": (MaternSobolevKernel(5, 2, 1.0),
                         [PointEval(tuple(p)) for p in rng.uniform(0, 1, (30, 2))]),
        # each x shared by two sites and each inner y too: the per-axis
        # tables are half the Gram, but their distinct pairs outnumber it
        "staircase_2d": (MaternSobolevKernel(5, 2, 0.5),
                         [PointEval((x, y)) for i, x in enumerate(xs) for y in ys[i:i + 2]]),
        "grid_1d": (MaternSobolevKernel(4, 1, 0.5), [PointEval(x) for x in h]),
        "two_orders_on_a_grid": (MaternSobolevKernel(5, 2, 1.0),
                                 [PointEval(p) for p in _grid(h, h)]
                                 + [LaplacianEval(p) for p in _grid(h, h)]),
        "chebweight": (ChebWeightKernel(weight_array("(j+1)^2", 12)),
                       [PointEval(x) for x in np.linspace(-1.0, 1.0, 9)]),
    }


@pytest.mark.parametrize("case", list(_per_column_cases()))
def test_other_sets_take_one_cross_call_per_column(case, monkeypatch):
    k, fs = _per_column_cases()[case]
    fs = FunctionalSet(fs)
    cols, calls = _columns_and_cross_calls(k, fs, monkeypatch)
    assert calls == [1] * len(fs)
    for j, col in enumerate(cols):
        _assert_bitwise_equal(col, k.cross(fs, [fs[j]])[:, 0])


def _count_bessel_calls(monkeypatch):
    """Record (name, argument count) of every k0, k1, kv and ladder call;
    the kernels reach scipy.special through kernels._special()."""
    calls = []

    def counting(name, f):
        def wrapped(*args):
            calls.append((name, np.size(args[-1])))
            return f(*args)
        return wrapped

    special = SimpleNamespace(k0=counting("_k0", k0), k1=counting("_k1", k1),
                              kv=counting("_kv", kv), gamma=gamma)
    monkeypatch.setattr(kernels, "_special", lambda: special)
    monkeypatch.setattr(kernels, "_bessel_ladder",
                        counting("_bessel_ladder", kernels._bessel_ladder))
    return calls


def test_symmetric_grid_gram_calls_k0_and_k1_once_per_distinct_distance(monkeypatch):
    k = MaternSobolevKernel(5, 2, 1.0)
    h = np.arange(8) / 7.0
    fs = FunctionalSet([PointEval((x, y)) for x in h for y in h])
    calls = _count_bessel_calls(monkeypatch)
    g = gram(k, fs)
    pts = np.array([f.site for f in fs])
    n_distinct = np.unique(np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))).size
    n = len(fs)
    # the one point-point block: one ladder, so one k0 and one k1 call, each
    # on at most the distinct distances (far fewer than even the upper
    # triangle's entries), and no kv call for the integer order nu = 4
    assert sorted(name for name, _ in calls) == ["_bessel_ladder", "_k0", "_k1"]
    assert max(size for _, size in calls) <= n_distinct < n * (n + 1) // 2
    monkeypatch.undo()
    _assert_bitwise_equal(g, kernels.mirror_upper(_cross_without_dedup(k, fs, fs)))


def test_each_2d_block_makes_one_ladder_and_1d_blocks_keep_kv(monkeypatch):
    rng = np.random.default_rng(13)
    pts = rng.uniform(0, 1, size=(7, 2))
    laps = [LaplacianEval(tuple(p)) for p in pts]
    mixed = laps + [PointEval(tuple(p)) for p in pts]
    calls = _count_bessel_calls(monkeypatch)
    # a Laplacian-Laplacian block has terms of orders 2, 1 and 0 (m = 5):
    # one ladder serves all three
    MaternSobolevKernel(5, 2, 0.7).cross(laps, laps)
    assert sorted(name for name, _ in calls) == ["_bessel_ladder", "_k0", "_k1"]
    calls.clear()
    # four order blocks, one ladder each
    MaternSobolevKernel(5, 2, 0.7).cross(mixed, mixed)
    assert sorted(name for name, _ in calls) == sorted(
        ["_bessel_ladder", "_k0", "_k1"] * 4)
    calls.clear()
    # 1-d orders are half-integers: one kv call per order of the block
    MaternSobolevKernel(5, 1, 0.3).cross([DerivEval(0.1, 2)], [DerivEval(0.7, 2)])
    assert [name for name, _ in calls] == ["_kv"] * 3


# 50-digit K_0 .. K_7 at s across [1e-6, 700]; K_0(700) is still a normal
# double (about 4.7e-306)
_LADDER_S = np.geomspace(1e-6, 700.0, 25)


@lru_cache(maxsize=None)
def _besselk_mp(b: int) -> tuple:
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    return tuple(mp.besselk(b, mp.mpf(float(s))) for s in _LADDER_S)


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 8])
def test_bessel_ladder_against_mpmath(m):
    # orders 0 .. m - 1, every order a 2-d kernel of Sobolev order m uses;
    # k0 alone is up to 7 u off here, and order 7 at most 9 u
    pytest.importorskip("mpmath")
    u = 2.0 ** -53
    ladder = kernels._bessel_ladder(range(m), _LADDER_S)
    assert sorted(ladder) == list(range(m))
    for b in range(m):
        for s, got, ref in zip(_LADDER_S, ladder[b], _besselk_mp(b)):
            assert abs(got / float(ref) - 1.0) <= 16 * u, (b, s, got)
    # the ladder keeps only the orders asked for, with the same values
    top = kernels._bessel_ladder([m - 1], _LADDER_S)
    assert list(top) == [m - 1]
    _assert_bitwise_equal(top[m - 1], ladder[m - 1])


def test_a_sets_layout_is_computed_once(monkeypatch):
    k = MaternSobolevKernel(5, 1, 1.0)
    lam = FunctionalSet([PointEval(x) for x in (0.0, 0.4)] + [DerivEval(0.7, 1)])
    assert lam.radial_layout is lam.radial_layout
    orders, sites, distinct = lam.radial_layout
    assert orders.tolist() == [0, 0, 1] and sites.tolist() == [[0.0], [0.4], [0.7]]
    assert distinct == (0, 1)
    assert not orders.flags.writeable and not sites.flags.writeable
    assert k._layout(lam) is lam.radial_layout
    seen = []
    order = kernels._functional_order

    def counting_order(f, d):
        seen.append(f)
        return order(f, d)

    monkeypatch.setattr(kernels, "_functional_order", counting_order)
    mu = PointEval(0.2)
    # a plain sequence is checked as a whole, and functional by functional
    # only when that check fails, to name the one at fault
    for _ in range(3):
        k.cross([mu], lam)
    assert seen == []
    bad = DerivEval(0.5, 3)
    with pytest.raises(UnsupportedPair, match="order > 2"):
        k.cross([mu, bad], lam)
    assert seen == [mu, bad]
    # one order on each side: the block is the result, with no scatter
    points = FunctionalSet(lam[:2])
    block = k._radial_block(0, 0, np.array([[0.2]]), points.radial_layout[1])

    def no_scatter(*args):
        raise AssertionError("a single-order cross scattered its block")

    monkeypatch.setattr(np, "ix_", no_scatter)
    monkeypatch.setattr(np, "flatnonzero", no_scatter)
    _assert_bitwise_equal(k.cross([mu], points), block)


class _OddGridValue(GridValue):
    order = 1


def test_cross_rejects_sets_the_kernel_cannot_apply():
    k2, k1 = MaternSobolevKernel(5, 2, 1.0), MaternSobolevKernel(5, 1, 1.0)
    ok2, ok1 = [PointEval((0.5, 0.5))], [PointEval(0.5)]
    for k, fs, ok, match in [
            (k2, [PointEval(0.1), PointEval(0.2)], ok2, "acts on R"),
            (k1, [PointEval(0.1), CoeffEval(2)], ok1, "not supported"),
            (k1, [PointEval(0.1), DerivEval(0.2, 3)], ok1, "order > 2"),
            (k2, [PointEval((0.1, 0.1)), _OddGridValue((0.2, 0.2))], ok2, "only the Laplacian")]:
        for given in (fs, FunctionalSet(fs)):
            with pytest.raises(UnsupportedPair, match=match):
                k.cross(given, ok)
            with pytest.raises(UnsupportedPair, match=match):
                k.cross(ok, given)


def _assert_psd(g):
    assert np.linalg.eigvalsh(g)[0] >= -1e-10 * max(np.trace(g), 1e-300)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="np.longdouble is no wider than float64 here")
def test_chebweight_cross_and_diag_against_long_double():
    # ChebWeightKernel.cross is a matrix product, whose rounding depends on
    # the block's shape, so a report row's kernel values in a block of rows
    # need not equal the row's own call bit for bit.  Each entry, in the
    # report's blocks and alone, must sit within Higham's gamma_n =
    # n u / (1 - n u), n = K + 2, u = eps / 2, times the sum of its terms'
    # magnitudes of a long-double sum over the same float64 Vandermonde
    # rows: one rounding for v / w, one per product, K for the sum, in any
    # order, with or without FMA.
    k = ChebWeightKernel(weight_array("(j+1)^2", 121))
    rng = np.random.default_rng(9)
    data = FunctionalSet([PointEval(x) for x in np.cos(np.arange(11) * np.pi / 10)])
    rows = [PointEval(x) for x in rng.uniform(-1.0, 1.0, 290)]
    rows += [DerivEval(x, o) for x in rng.uniform(-1.0, 1.0, 5) for o in (1, 2)]
    rows += [CoeffEval(j) for j in (0, 7, 121)]
    n, u = k.truncation + 2, np.finfo(float).eps / 2.0
    ld = np.longdouble
    w = k.weights.astype(ld)

    def check(value, terms):
        err = np.abs(value.astype(ld) - terms.sum(-1))
        assert (err <= n * u / (1.0 - n * u) * np.abs(terms).sum(-1)).all()

    def cross_terms(va, vb):
        return va.astype(ld)[:, None, :] * (vb.astype(ld) / w)[None, :, :]

    v_rows, v_data = vandermonde(rows, k.truncation), vandermonde(data, k.truncation)
    check(k.cross(data, data), cross_terms(v_data, v_data))
    blocks = [slice(i, i + _REPORT_BLOCK) for i in range(0, len(rows), _REPORT_BLOCK)]
    blocks += [slice(i, i + 1) for i in range(0, len(rows), 37)]
    for block in blocks:
        check(k.cross(rows[block], data), cross_terms(v_rows[block], v_data))
    check(k.diag(rows), v_rows.astype(ld) * (v_rows.astype(ld) / w))


def test_gram_radial_invariance_and_pd():
    k = MaternSobolevKernel(5, 2, 1.0)
    # two pairs at equal distance: equal off-diagonal entries
    fs = FunctionalSet([PointEval((0.0, 0.0)), PointEval((0.5, 0.0)),
                        PointEval((2.0, 0.0)), PointEval((2.0, 0.5))])
    g = gram(k, fs)
    _assert_psd(g)
    assert g[0, 1] == pytest.approx(g[2, 3], rel=1e-14)
    assert np.array_equal(g, g.T)
    rng = np.random.default_rng(2)
    pts = rng.uniform(0, 1, size=(3, 2))
    g3 = gram(k, FunctionalSet([PointEval(tuple(p)) for p in pts]))
    assert np.linalg.eigvalsh(g3)[0] > 0
    # mixed Laplacian/point data and a weighted-Chebyshev set: exactly
    # symmetric, with the upper triangle taken from cross as is
    mixed = FunctionalSet([LaplacianEval((0.3, 0.3)), PointEval((0.1, 0.9)),
                           LaplacianEval((0.7, 0.6)), PointEval((0.5, 0.5))])
    cheb = FunctionalSet([PointEval(-0.5), DerivEval(0.2, 1), CoeffEval(3),
                          PointEval(0.75)])
    for kern, fset in [(k, mixed), (ChebWeightKernel(weight_array("(j+1)^2", 20)), cheb)]:
        g = gram(kern, fset)
        _assert_psd(g)
        assert np.array_equal(g, g.T)
        assert np.array_equal(np.triu(g), np.triu(kern.cross(fset, fset)))


def test_gram_cholesky_no_jitter_for_separated_points():
    from tradeoff.linalg import factor_spd
    k = MaternSobolevKernel(5, 1, 1.0)
    # at separation 0.01*c the gram of more than ~4 points exceeds double
    # precision (cond > 1e16); check that the plain Cholesky factors at sizes
    # where the spectrum is representable at all (it raises if it fails)
    for xs in [np.arange(4) * 0.011, np.arange(12) * 0.05, np.arange(20) * 0.1]:
        fs = FunctionalSet([PointEval(x) for x in xs])
        g = gram(k, fs)
        assert factor_spd(g).n == len(xs)


def test_single_functional_gram():
    k = MaternSobolevKernel(5, 2, 1.0)
    fs = FunctionalSet([LaplacianEval((0.4, 0.6))])
    g = gram(k, fs)
    assert g.shape == (1, 1)
    assert g[0, 0] == pytest.approx(
        k.apply(fs[0], fs[0]), rel=1e-15)


def test_kernel_spec_round_trip():
    # the two kernel specs documented in the README
    k = kernel_from_spec({"family": "matern", "m": 5, "d": 2, "c": 1.0})
    assert k == MaternSobolevKernel(5, 2, 1.0)
    cw = kernel_from_spec({"family": "chebweight", "weights": "(j+1)^2", "K": 121})
    assert isinstance(cw, ChebWeightKernel)
    assert np.array_equal(cw.weights, (np.arange(122) + 1.0) ** 2)
    # a weight list is w_0 .. w_K; K may be omitted, and must match if given
    for spec in ({"weights": [1, 4, 9]}, {"weights": [1, 4, 9], "K": 2}):
        cw = kernel_from_spec({"family": "chebweight", **spec})
        assert cw.truncation == 2 and np.array_equal(cw.weights, [1, 4, 9])
    with pytest.raises(ValueError, match=r"K = 3 needs K \+ 1 = 4"):
        kernel_from_spec({"family": "chebweight", "weights": [1, 4, 9], "K": 3})


def test_matern_validation():
    with pytest.raises(ValueError):
        MaternSobolevKernel(2, 1)
    with pytest.raises(ValueError):
        MaternSobolevKernel(5, 3)
    with pytest.raises(ValueError):
        MaternSobolevKernel(5, 2, -1.0)


def test_matern_rejects_an_order_that_is_not_whole():
    # m = 5.5 would compute with nu = 4.5 yet compare equal to m = 5,
    # sharing the cached term stacks of a genuine m = 5 kernel
    for make in (lambda: MaternSobolevKernel(5.5, 2),
                 lambda: MaternSobolevKernel(float("inf"), 1),
                 lambda: kernel_from_spec({"family": "matern", "m": 5.5, "d": 2})):
        with pytest.raises(ValueError, match="whole number"):
            make()
    k = MaternSobolevKernel(5, 2)
    assert MaternSobolevKernel(5.0, 2) == k and MaternSobolevKernel(5.0, 2).nu == k.nu == 4.0
    origin = PointEval((0.0, 0.0))
    assert k.apply(origin, origin) == 1.0
    assert 0.0 < k.apply(origin, PointEval((0.5, 0.0))) < 1.0
