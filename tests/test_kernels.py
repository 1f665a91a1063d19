import numpy as np
import pytest
from scipy.special import gamma, kv

from tradeoff.errors import UnsupportedPair
from tradeoff.functionals import (
    CoeffEval,
    DerivEval,
    Functional,
    FunctionalSet,
    LaplacianEval,
    PointEval,
)
from tradeoff.kernel_recovery import tradeoff_report
from tradeoff.kernels import (
    ChebWeightKernel,
    MaternSobolevKernel,
    gram,
    kernel_from_spec,
)
from tradeoff.report import reports_to_csv


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
    k = ChebWeightKernel.from_rule("(j+1)^2", 12)
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
            assert block[i, j] == pytest.approx(k.apply(a, b), rel=1e-14)


def _assert_psd(g):
    assert np.linalg.eigvalsh(g)[0] >= -1e-10 * max(np.trace(g), 1e-300)


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
    for kern, fset in [(k, mixed), (ChebWeightKernel.from_rule("(j+1)^2", 20), cheb)]:
        g = gram(kern, fset)
        _assert_psd(g)
        assert np.array_equal(g, g.T)
        assert np.array_equal(np.triu(g), np.triu(kern.cross(fset, fset)))


def test_gram_cholesky_no_jitter_for_separated_points():
    from tradeoff.linalg import factor_spd
    k = MaternSobolevKernel(5, 1, 1.0)
    # at separation 0.01*c the gram of more than ~4 points exceeds double
    # precision (cond > 1e16); check the jitter-free property at sizes where
    # the spectrum is representable at all
    for xs in [np.arange(4) * 0.011, np.arange(12) * 0.05, np.arange(20) * 0.1]:
        fs = FunctionalSet([PointEval(x) for x in xs])
        g = gram(k, fs)
        assert factor_spd(g).jitter == 0.0


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


def test_matern_validation():
    with pytest.raises(ValueError):
        MaternSobolevKernel(2, 1)
    with pytest.raises(ValueError):
        MaternSobolevKernel(5, 3)
    with pytest.raises(ValueError):
        MaternSobolevKernel(5, 2, -1.0)
