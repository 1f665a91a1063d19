import math
from collections import Counter

import numpy as np
import pytest

from tradeoff.errors import ExcludedCase
from tradeoff.functionals import FunctionalSet, LaplacianEval, PointEval
from tradeoff.kernel_recovery import (
    PowerContext,
    fit,
    lagrangian_norm_squared,
    power_squared,
    tradeoff_report,
)
from tradeoff.kernels import MaternSobolevKernel
from tradeoff import linalg


def _point_set(rng, n, d, lo=-1.0, hi=1.0):
    pts = rng.uniform(lo, hi, size=(n, d))
    return FunctionalSet([PointEval(tuple(p)) for p in pts]), pts


def test_fit_single_point():
    k = MaternSobolevKernel(5, 2, 1.0)
    lam = FunctionalSet([PointEval((0.0, 0.0))])
    itp = fit(k, lam, [1.0])
    assert itp.coefficients == pytest.approx([1.0])  # 1/K(0,0) for phi(0)=1
    assert itp.evaluate(PointEval((0.0, 0.0))) == pytest.approx(1.0)


def test_fit_zero_data():
    k = MaternSobolevKernel(4, 1, 1.0)
    lam = FunctionalSet([PointEval(x) for x in np.linspace(-1, 1, 5)])
    itp = fit(k, lam, np.zeros(5))
    assert np.allclose(itp.coefficients, 0.0)


def test_fit_reproduces_kernel_translate():
    # data sampled from K(., 0.3) with 0.3 among the points: coefficients
    # must select that translate
    k = MaternSobolevKernel(5, 1, 1.0)
    xs = np.array([-0.8, -0.2, 0.3, 0.6, 0.9])
    lam = FunctionalSet([PointEval(x) for x in xs])
    data = np.array([k.apply(PointEval(x), PointEval(0.3)) for x in xs])
    itp = fit(k, lam, data)
    expected = np.zeros(5)
    expected[2] = 1.0
    assert np.allclose(itp.coefficients, expected, atol=1e-7)


def test_fit_interpolates():
    rng = np.random.default_rng(0)
    k = MaternSobolevKernel(3, 2, 0.5)
    lam, _ = _point_set(rng, 12, 2)
    data = rng.normal(size=12)
    itp = fit(k, lam, data)
    assert itp.residual <= 1e-8
    back = k.cross(lam, lam) @ itp.coefficients
    assert np.allclose(back, data, rtol=1e-7, atol=1e-9)


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
    """Matern kernel that counts its diag and cross calls."""

    def __init__(self, *args):
        super().__init__(*args)
        self.calls = Counter()

    def diag(self, fset):
        self.calls["diag"] += 1
        return super().diag(fset)

    def cross(self, set_a, set_b):
        self.calls["cross"] += 1
        return super().cross(set_a, set_b)


def test_tradeoff_report_evaluates_each_row_once(monkeypatch):
    k = _CountingMatern(4, 2, 0.7)
    rng = np.random.default_rng(12)
    lam, _ = _point_set(rng, 6, 2)
    evals = [PointEval((1.4, 1.4)), PointEval((-1.3, 0.2)), PointEval((0.1, -1.6))]
    solves = Counter()
    solve = linalg.SpdFactor.solve

    def counted_solve(self, b):
        solves["solve"] += 1
        return solve(self, b)

    monkeypatch.setattr(linalg.SpdFactor, "solve", counted_solve)
    reports = tradeoff_report(k, lam, evals)
    assert [r.flag for r in reports] == ["ok"] * len(evals)
    # one diag, one cross row and one solve per row, plus the one Gram
    assert k.calls == {"diag": len(evals), "cross": len(evals) + 1}
    assert solves["solve"] == len(evals)


def test_leave_one_out_equality():
    # removing lambda_i and evaluating there reproduces the equality, and
    # matches the inverse-gram diagonal identity
    k = MaternSobolevKernel(5, 2, 1.0)
    rng = np.random.default_rng(21)
    lam, pts = _point_set(rng, 9, 2, lo=0.0, hi=1.0)
    ctx = PowerContext(k, lam)
    inv_diag = ctx.factor.inverse_diagonal()
    for i in [0, 4, 8]:
        reduced = lam.without(i)
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
            s = ctx.power_squared(mu, cross_check=False).power_squared
            b = ctx.bordered_power_squared(mu)
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
