import numpy as np
import pytest

from tradeoff.errors import NoBumpExists
from tradeoff.functionals import FunctionalSet, LaplacianEval, PointEval
from tradeoff.kernel_recovery import PowerContext
from tradeoff.kernels import MaternSobolevKernel, gram
from tradeoff.unsymmetric import (
    PoissonSetup,
    SvdRecovery,
    build_kansa,
    kansa_power_squared_batch,
    kansa_site_power_squared,
    pseudo_lagrangian_norms,
    svd_bump_min,
    svd_power_squared,
    unit_square_perimeter,
)


def test_perimeter_parametrization():
    pts = unit_square_perimeter(np.array([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5]))
    expected = [(0, 0), (0.5, 0), (1, 0), (1, 0.5), (1, 1), (0.5, 1), (0, 1), (0, 0.5)]
    assert np.allclose(pts, expected)


def test_regular_setup_counts_and_validation():
    k = MaternSobolevKernel(5, 2, 1.0)
    s = PoissonSetup.regular(k, n_side=11, n_boundary=16)
    assert s.interior.shape == (121, 2)
    assert s.boundary.shape == (16, 2)
    assert s.trial.shape == (121, 2)
    assert len(s.functionals()) == 137
    assert [0.0, 0.0] in s.boundary.tolist()  # corners included by default
    s2 = PoissonSetup.regular(k, n_side=3, n_boundary=8, include_corners=False)
    assert [0.0, 0.0] not in s2.boundary.tolist()
    with pytest.raises(ValueError):
        PoissonSetup(kernel=k, interior=np.array([[0.0, 0.5]]),
                     boundary=np.array([[0.0, 0.0]]), trial=np.array([[0.5, 0.5]]))
    with pytest.raises(ValueError):
        PoissonSetup(kernel=k, interior=np.array([[0.5, 0.5]]),
                     boundary=np.array([[0.3, 0.3]]), trial=np.array([[0.5, 0.5]]))


def _point_interpolation_setup(kernel, pts):
    """All-PointEval data at pts with trial translates at the same points."""
    lam_set = FunctionalSet([PointEval(tuple(p)) for p in pts])
    return lam_set


def test_square_case_is_interpolatory():
    # M = N with trial = data points: C = A^-1, lambda_j(a_k) = delta_jk
    k = MaternSobolevKernel(5, 2, 1.0)
    rng = np.random.default_rng(5)
    pts = rng.uniform(0.1, 0.9, size=(9, 2))
    setup = PoissonSetup(kernel=k, interior=pts,
                         boundary=np.array([[0.0, 0.0]]), trial=pts)
    # build manually to use point data everywhere (not Laplacians)
    lam_set = _point_interpolation_setup(k, pts)
    a = k.cross(lam_set, [PointEval(tuple(p)) for p in pts])
    from tradeoff import linalg
    c = linalg.svd(a).pinv(1e-12 * max(a.shape))
    lam_a = a @ c  # lambda_j(a_k) for the square case
    assert np.allclose(lam_a, np.eye(9), atol=1e-6)


def test_moore_penrose_invariant_of_c():
    k = MaternSobolevKernel(5, 2, 1.0)
    setup = PoissonSetup.regular(k, n_side=4, n_boundary=8)
    rec = build_kansa(setup)
    a, c = rec.vandermonde, rec.coefficient_map
    assert np.linalg.norm(c @ a @ c - c) <= 1e-7 * np.linalg.norm(c)


def test_kansa_reduces_to_symmetric_for_point_data():
    # trial points = data points, all-PointEval functionals: powers and
    # stability norms match the symmetric recovery
    k = MaternSobolevKernel(5, 2, 1.0)
    rng = np.random.default_rng(9)
    pts = rng.uniform(0.0, 1.0, size=(8, 2))
    lam_set = FunctionalSet([PointEval(tuple(p)) for p in pts])
    trial_fn = [PointEval(tuple(p)) for p in pts]
    a = k.cross(lam_set, trial_fn)
    from tradeoff import linalg
    from tradeoff.unsymmetric import UnsymmetricRecovery
    dec = linalg.svd(a)
    rtol = 1e-13
    rec = UnsymmetricRecovery(
        kernel=k, functionals=lam_set, trial=pts,
        coefficient_map=dec.pinv(rtol), rtol=rtol, rank=dec.rank(rtol),
        vandermonde=a)
    ctx = PowerContext(k, lam_set)
    mus = [PointEval((0.31, 0.77)), PointEval((0.9, 0.05)), PointEval((1.3, 1.2))]
    p2_sym = ctx.power_batch(mus)[0]
    p2_uns = kansa_power_squared_batch(rec, mus)[0]
    assert np.allclose(p2_uns, p2_sym, rtol=1e-6, atol=1e-10)
    # pseudo-Lagrangian norms equal the symmetric Lagrangian norms
    pl2 = pseudo_lagrangian_norms(rec)
    sym2 = ctx.factor.inverse_diagonal()
    assert np.allclose(pl2, sym2, rtol=1e-6)


def test_kansa_power_at_data_functional_square_case():
    k = MaternSobolevKernel(5, 2, 1.0)
    rng = np.random.default_rng(10)
    pts = rng.uniform(0.1, 0.9, size=(6, 2))
    lam_set = FunctionalSet([PointEval(tuple(p)) for p in pts])
    from tradeoff import linalg
    from tradeoff.unsymmetric import UnsymmetricRecovery
    a = k.cross(lam_set, list(lam_set))
    dec = linalg.svd(a)
    rec = UnsymmetricRecovery(
        kernel=k, functionals=lam_set, trial=pts,
        coefficient_map=dec.pinv(1e-13), rtol=1e-13, rank=dec.rank(1e-13),
        vandermonde=a)
    assert np.all(kansa_power_squared_batch(rec, lam_set)[0] <= 1e-7)
    assert np.all(kansa_site_power_squared(rec) <= 1e-7)


def test_kansa_empty_trial_gives_kmumu():
    k = MaternSobolevKernel(5, 2, 1.0)
    lam_set = FunctionalSet([PointEval((0.5, 0.5))])
    from tradeoff.unsymmetric import UnsymmetricRecovery
    rec = UnsymmetricRecovery(
        kernel=k, functionals=lam_set, trial=np.zeros((0, 2)),
        coefficient_map=np.zeros((0, 1)), rtol=1e-12, rank=0,
        vandermonde=np.zeros((1, 0)))
    mu = PointEval((0.2, 0.8))
    assert kansa_power_squared_batch(rec, [mu])[0][0] == pytest.approx(1.0)
    assert pseudo_lagrangian_norms(rec).tolist() == [0.0]


def test_kansa_never_beats_symmetric():
    k = MaternSobolevKernel(5, 2, 1.0)
    setup = PoissonSetup.regular(k, n_side=4, n_boundary=8)
    rec = build_kansa(setup, rtol=1e-9)
    rng = np.random.default_rng(3)
    mus = [LaplacianEval(tuple(p)) for p in rng.uniform(0.05, 0.95, size=(20, 2))]
    mus += [PointEval(tuple(p)) for p in unit_square_perimeter(rng.uniform(0, 4, 10))]
    p2_uns, p2_sym = kansa_power_squared_batch(rec, mus)
    # the symmetric half is power_batch's, bit for bit
    assert np.array_equal(p2_sym, PowerContext(k, rec.functionals).power_batch(mus)[0])
    kmm = k.diag(mus)
    assert np.all(p2_uns >= p2_sym - 1e-8 * kmm)


def test_kansa_site_power_reuses_the_data_gram():
    # the site powers equal the batch formula over freshly evaluated kernel
    # rows at the data functionals, bit for bit
    k = MaternSobolevKernel(5, 2, 1.0)
    rec = build_kansa(PoissonSetup.regular(k, n_side=4, n_boundary=8))
    lam = rec.functionals
    kmm, kml = k.diag(lam), k.cross(lam, lam)
    b = k.cross(lam, rec.trial_functionals()) @ rec.coefficient_map
    p2 = (kmm - 2.0 * np.einsum("ij,ij->i", b, kml)
          + np.einsum("ij,jk,ik->i", b, gram(k, lam), b))
    assert np.array_equal(kansa_site_power_squared(rec), np.maximum(p2, 0.0))


def test_kansa_data_gram_assembled_once():
    grams = []

    class GramCountingMatern(MaternSobolevKernel):
        def cross(self, set_a, set_b):
            if list(set_a) == list(set_b):
                grams.append(len(set_a))
            return super().cross(set_a, set_b)

    k = GramCountingMatern(5, 2, 1.0)
    rec = build_kansa(PoissonSetup.regular(k, n_side=3, n_boundary=8))
    mus = [PointEval((0.25, 0.5)), LaplacianEval((0.4, 0.6))]
    first = kansa_power_squared_batch(rec, mus)
    second = kansa_power_squared_batch(rec, mus)
    kansa_site_power_squared(rec)
    assert rec.context.gram.shape == (rec.m, rec.m)
    assert grams == [rec.m]
    assert all(np.array_equal(a, b) for a, b in zip(first, second))


# ---- SVD / Tikhonov ----

def test_svd_power_square_nonsingular_is_zero():
    rec = SvdRecovery([3.0, 2.0, 1.0])
    assert svd_power_squared(rec, [1.0, 2.0, 3.0]) == 0.0


def test_svd_power_values():
    rec = SvdRecovery([1.0, 0.0])
    assert svd_power_squared(rec, [3.0, 4.0]) == 16.0
    rec_t = SvdRecovery([1.0, 0.0], tau=1.0)
    assert svd_power_squared(rec_t, [3.0, 4.0]) == pytest.approx(18.25)


def test_svd_padding():
    rec = SvdRecovery([2.0], m=3)
    assert rec.sigma.tolist() == [2.0, 0.0, 0.0]
    assert svd_power_squared(rec, [1.0, 2.0, 2.0]) == 8.0


def test_svd_bump_values():
    rec = SvdRecovery([1.0, 0.0])
    f, norm = svd_bump_min(rec, [3.0, 4.0])
    assert f.tolist() == [0.0, 0.25]
    assert norm == 0.25
    assert svd_power_squared(rec, [3.0, 4.0]) * norm ** 2 == pytest.approx(1.0)
    rec2 = SvdRecovery([0.0, 0.0])
    f2, norm2 = svd_bump_min(rec2, [3.0, 4.0])
    assert np.allclose(f2, [0.12, 0.16])
    assert norm2 == pytest.approx(0.2)


def test_svd_bump_excluded():
    with pytest.raises(NoBumpExists):
        svd_bump_min(SvdRecovery([1.0, 1.0]), [3.0, 4.0])
    with pytest.raises(NoBumpExists):
        svd_bump_min(SvdRecovery([1.0, 0.0]), [3.0, 0.0])


def test_tikhonov_monotone_in_tau():
    rng = np.random.default_rng(7)
    sigma = np.sort(rng.uniform(0, 3, 6))[::-1]
    mu = rng.normal(size=6)
    taus = np.linspace(1e-4, 5.0, 20)
    vals = [svd_power_squared(SvdRecovery(sigma, tau=t), mu) for t in taus]
    assert np.all(np.diff(vals) >= -1e-12)


def test_svd_validation():
    with pytest.raises(ValueError):
        SvdRecovery([1.0, 2.0])  # increasing
    with pytest.raises(ValueError):
        SvdRecovery([1.0], tau=-0.5)
    with pytest.raises(ValueError):
        SvdRecovery([1.0, 0.5], m=1)
    with pytest.raises(ValueError):
        svd_power_squared(SvdRecovery([1.0, 0.0]), [1.0])
