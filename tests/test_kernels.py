from functools import lru_cache

import numpy as np
import pytest
from scipy.special import gamma, k0, k1, kv

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
from tradeoff.unsymmetric import PoissonSetup
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
    return {
        "kansa_data_gram": (k2, data, data),
        "kansa_trial_cross": (k2, data, setup.trial_functionals),
        "kansa_cross_trial_first": (k2, setup.trial_functionals, data),
        "hermite_1d": (k1, hermite, hermite),
        "scattered_2d": (k2, scattered, scattered),
        "signed_zeros_1d": (MaternSobolevKernel(5, 1, 1.0), zeros_a, zeros_b),
    }


@pytest.mark.parametrize("case", list(_dedup_cases()))
def test_cross_equals_full_block_evaluation_bit_for_bit(case):
    k, fa, fb = _dedup_cases()[case]
    ref = _cross_without_dedup(k, fa, fb)
    _assert_bitwise_equal(k.cross(fa, fb), ref)
    # a FunctionalSet's cached layout and a plain list give the same matrix
    _assert_bitwise_equal(k.cross(list(fa), list(fb)), ref)


def _count_bessel_calls(monkeypatch):
    """Record (name, argument count) of every k0, k1, kv and ladder call."""
    calls = []

    def counting(name, f):
        def wrapped(*args):
            calls.append((name, np.size(args[-1])))
            return f(*args)
        return wrapped

    for name, f in [("_k0", k0), ("_k1", k1), ("_kv", kv),
                    ("_bessel_ladder", kernels._bessel_ladder)]:
        monkeypatch.setattr(kernels, name, counting(name, f))
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
    orders, sites = lam.radial_layout
    assert orders.tolist() == [0, 0, 1] and sites.tolist() == [[0.0], [0.4], [0.7]]
    assert not orders.flags.writeable and not sites.flags.writeable
    seen = []
    order = kernels._functional_order

    def counting_order(f, d):
        seen.append(f)
        return order(f, d)

    monkeypatch.setattr(kernels, "_functional_order", counting_order)
    mu = PointEval(0.2)
    for _ in range(3):
        k.cross([mu], lam)
    assert seen == [mu] * 3


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
