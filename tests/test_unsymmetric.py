import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tradeoff import cli, linalg
from tradeoff.errors import NoBumpExists
from tradeoff.functionals import FunctionalSet, LaplacianEval, PointEval
from tradeoff.kernel_recovery import PowerContext, _bordered_form, roundoff_floor
from tradeoff.kernels import MaternSobolevKernel, gram
from tradeoff.unsymmetric import (
    PoissonSetup,
    SvdRecovery,
    UnsymmetricRecovery,
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
    # no boundary points at all, with or without corners
    for corners in (True, False):
        s0 = PoissonSetup.regular(k, n_side=3, n_boundary=0, include_corners=corners)
        assert s0.boundary.shape == (0, 2)
    with pytest.raises(ValueError):
        PoissonSetup(kernel=k, interior=np.array([[0.0, 0.5]]),
                     boundary=np.array([[0.0, 0.0]]), trial=np.array([[0.5, 0.5]]))
    with pytest.raises(ValueError):
        PoissonSetup(kernel=k, interior=np.array([[0.5, 0.5]]),
                     boundary=np.array([[0.3, 0.3]]), trial=np.array([[0.5, 0.5]]))
    # the trial functionals form one FunctionalSet, so a repeated trial
    # point is rejected when the setup is built
    with pytest.raises(ValueError, match="trial points must be pairwise distinct"):
        PoissonSetup(kernel=k, interior=np.array([[0.5, 0.5]]), boundary=np.array([[0.0, 0.0]]),
                     trial=np.array([[0.5, 0.5], [0.2, 0.3], [0.5, 0.5]]))


def _point_recovery(kernel, pts, rtol: float) -> UnsymmetricRecovery:
    """Kansa with all-PointEval data at pts and trial translates at the same
    points (build_kansa takes Laplacian data inside), C = W U_r^T cut as
    build_kansa cuts it."""
    lam_set = FunctionalSet([PointEval(tuple(p)) for p in pts])
    a = kernel.cross(lam_set, lam_set)
    dec = linalg.svd(a)
    r = dec.rank(rtol)
    return UnsymmetricRecovery(
        kernel=kernel, functionals=lam_set, trial_functionals=lam_set,
        w=dec.vt[:r].T * (1.0 / dec.s[:r]), u_r=dec.u[:, :r].copy(), rtol=rtol,
        vandermonde=a)


def test_square_case_is_interpolatory():
    # M = N with trial = data points: C = A^-1, lambda_j(a_k) = delta_jk
    rng = np.random.default_rng(5)
    rec = _point_recovery(MaternSobolevKernel(5, 2, 1.0), rng.uniform(0.1, 0.9, size=(9, 2)),
                          1e-12 * 9)
    assert rec.rank == 9
    assert np.allclose(rec.times_c(rec.vandermonde), np.eye(9), atol=1e-6)


def test_moore_penrose_invariant_of_c():
    # C = W U_r^T, formed here only, is the Moore-Penrose inverse of A cut at
    # rank r: C A C = C, A C and C A symmetric, and A C A = A up to the cut
    # singular values
    k = MaternSobolevKernel(5, 2, 1.0)
    rec = build_kansa(PoissonSetup.regular(k, n_side=4, n_boundary=8))
    a, c = rec.vandermonde, rec.w @ rec.u_r.T
    assert c.shape == (rec.n, rec.m) and rec.rank <= min(rec.m, rec.n)
    ac, ca = a @ c, c @ a
    assert np.linalg.norm(c @ a @ c - c) <= 1e-7 * np.linalg.norm(c)
    assert np.linalg.norm(ac.T - ac) <= 1e-7 * np.linalg.norm(ac)
    assert np.linalg.norm(ca.T - ca) <= 1e-7 * np.linalg.norm(ca)
    tail = np.linalg.norm(linalg.svd(a).s[rec.rank:])
    assert np.linalg.norm(a @ c @ a - a) <= tail + 1e-7 * np.linalg.norm(a)


def test_kansa_reduces_to_symmetric_for_point_data():
    # trial points = data points, all-PointEval functionals: powers and
    # stability norms match the symmetric recovery
    k = MaternSobolevKernel(5, 2, 1.0)
    rng = np.random.default_rng(9)
    rec = _point_recovery(k, rng.uniform(0.0, 1.0, size=(8, 2)), 1e-13)
    lam_set = rec.functionals
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
    rng = np.random.default_rng(10)
    rec = _point_recovery(MaternSobolevKernel(5, 2, 1.0), rng.uniform(0.1, 0.9, size=(6, 2)),
                          1e-13)
    assert np.all(kansa_power_squared_batch(rec, rec.functionals)[0] <= 1e-7)
    assert np.all(kansa_site_power_squared(rec) <= 1e-7)


def test_kansa_empty_trial_gives_kmumu():
    k = MaternSobolevKernel(5, 2, 1.0)
    lam_set = FunctionalSet([PointEval((0.5, 0.5))])
    rec = UnsymmetricRecovery(
        kernel=k, functionals=lam_set, trial_functionals=(), w=np.zeros((0, 0)),
        u_r=np.zeros((1, 0)), rtol=1e-12, vandermonde=np.zeros((1, 0)))
    assert (rec.n, rec.rank) == (0, 0)
    mu = PointEval((0.2, 0.8))
    assert kansa_power_squared_batch(rec, [mu])[0][0] == pytest.approx(1.0)
    assert pseudo_lagrangian_norms(rec).tolist() == [0.0]


def test_build_kansa_hands_the_setup_trial_set_to_the_recovery():
    # the trial point evaluations are built once, by the setup
    setup = PoissonSetup.regular(MaternSobolevKernel(5, 2, 1.0), n_side=4, n_boundary=8)
    rec = build_kansa(setup)
    assert rec.trial_functionals is setup.trial_functionals
    assert list(rec.trial_functionals) == [PointEval(tuple(p)) for p in setup.trial]


def test_build_kansa_keeps_only_the_truncated_factors():
    # C = W U_r^T is stored as W (N x r) and U_r (M x r), each owning its
    # memory: a view of U_r would keep the full M x min(M, N) U alive.  The
    # rank is U_r's width, the count of singular values above the cut
    setup = PoissonSetup.regular(MaternSobolevKernel(5, 2, 1.0), n_side=7, n_boundary=16)
    rec = build_kansa(setup, rtol=4e-10)
    s = linalg.svd(rec.vandermonde).s
    assert rec.rank == np.sum(s > 4e-10 * s[0]) < min(rec.m, rec.n)
    assert rec.w.shape == (rec.n, rec.rank) and rec.u_r.shape == (rec.m, rec.rank)
    assert rec.w.base is None and rec.u_r.base is None


def test_kansa_never_beats_symmetric():
    k = MaternSobolevKernel(5, 2, 1.0)
    setup = PoissonSetup.regular(k, n_side=4, n_boundary=8)
    rec = build_kansa(setup, rtol=1e-9)
    rng = np.random.default_rng(3)
    mus = [LaplacianEval(tuple(p)) for p in rng.uniform(0.05, 0.95, size=(20, 2))]
    mus += [PointEval(tuple(p)) for p in unit_square_perimeter(rng.uniform(0, 4, 10))]
    p2_uns, p2_sym = kansa_power_squared_batch(rec, mus)
    # the symmetric half is power_batch's and the block power_squared's, bit
    # for bit: one Schur route
    ctx = PowerContext(k, rec.functionals)
    assert np.array_equal(p2_sym, ctx.power_batch(mus)[0])
    assert np.array_equal(p2_sym, ctx.power_squared(mus).power_squared)
    kmm = k.diag(mus)
    assert np.all(p2_uns >= p2_sym - 1e-8 * kmm)


def test_kansa_site_power_reuses_the_data_gram():
    # the site powers equal the shared bordered form over freshly evaluated
    # kernel rows at the data functionals, bit for bit
    k = MaternSobolevKernel(5, 2, 1.0)
    rec = build_kansa(PoissonSetup.regular(k, n_side=4, n_boundary=8))
    lam = rec.functionals
    kmm, kml = k.diag(lam), k.cross(lam, lam)
    b = rec.times_c(k.cross(lam, rec.trial_functionals))
    p2 = _bordered_form(kmm, kml, b, gram(k, lam))
    assert np.array_equal(kansa_site_power_squared(rec), np.maximum(p2, 0.0))


def _gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u), u = eps / 2: the relative bound, in
    any summation order and with or without FMA, on the rounding error of a
    float64 sum of products carried through n roundings."""
    u = np.finfo(float).eps / 2.0
    return n * u / (1.0 - n * u)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="np.longdouble is no wider than float64 here")
@pytest.mark.parametrize("n_side", [4, 11])
def test_kansa_quadratic_forms_against_long_double(n_side):
    # the BLAS contractions of the site P^2, the surface P^2 and ||a_k||^2
    # against a long-double evaluation of the same float64 inputs: each value
    # must sit within gamma_m times the sum of its terms' magnitudes, where m
    # counts the roundings on a term's path.  A BLAS route rounds about 2n
    # times for inner sums of length n, in any blocking and at any thread
    # count; the naive three-operand einsum, kept as the second route, sums
    # n^2 products in one loop and is held to its own, larger bound.  Each
    # P^2 the library returns must also lie within its roundoff floor F of
    # the long-double P^2 at X C, with C = W U_r^T formed in long double from
    # the same factors: at the sites, the shortcut U_r U_r^T for
    # (A W) U_r^T, equal only before rounding, moves P^2 by 6 to 14 F.
    k = MaternSobolevKernel(5, 2, 1.0)
    rec = build_kansa(PoissonSetup.regular(k, n_side=n_side, n_boundary=16), rtol=4e-10)
    g, w, u = rec.context.gram, rec.w, rec.u_r
    h = np.arange(1, 22) / 22.0
    mus = [LaplacianEval((x, y)) for x in h for y in h]
    mus += [PointEval(tuple(p)) for p in unit_square_perimeter(np.arange(64) / 16.0)]
    ld = np.longdouble
    c_ld = w.astype(ld) @ u.T.astype(ld)

    def forms(kmm, kml, x, p2):
        """(shared bordered form, einsum, long double, sum of |terms|) P^2
        before the clamp, at b = (x W) U_r^T, once the library's clamped p2
        is checked against them."""
        b = rec.times_c(x)

        def exact(lb):
            return (kmm.astype(ld) - 2.0 * (lb * kml.astype(ld)).sum(1)
                    + ((lb @ g.astype(ld)) * lb).sum(1))

        ref = np.maximum(exact(x.astype(ld) @ c_ld), 0.0)
        assert (np.abs(p2 - ref) <= roundoff_floor(np.abs(g), kmm, kml, b)).all()
        bordered = _bordered_form(kmm, kml, b, g)
        assert np.array_equal(p2, np.maximum(bordered, 0.0))
        lin = kmm - 2.0 * np.einsum("ij,ij->i", b, kml)
        size = (np.abs(kmm) + 2.0 * (np.abs(b) * np.abs(kml)).sum(1)
                + ((np.abs(b) @ np.abs(g)) * np.abs(b)).sum(1))
        return (bordered, lin + np.einsum("ij,jk,ik->i", b, g, b), exact(b.astype(ld)),
                size, len(g))

    site = forms(np.diag(g), g, rec.vandermonde, kansa_site_power_squared(rec))
    kmm, kml = k.diag(mus), k.cross(mus, rec.functionals)
    surface = forms(kmm, kml, k.cross(mus, rec.trial_functionals),
                    kansa_power_squared_batch(rec, mus)[0])
    # ||a_k||^2 against the long-double diag(C^T K_TT C); its BLAS route
    # (K_TT W, the core W^T K_TT W, then U_r) rounds about 2n + 2r times, and
    # the naive route forms C in float64 first, so both are held to the sum
    # of the factored terms' magnitudes with n + r in place of n
    k_tt = gram(k, rec.trial_functionals)
    c = w @ u.T
    core = np.abs(w).T @ np.abs(k_tt) @ np.abs(w)
    norms = (pseudo_lagrangian_norms(rec), np.einsum("ji,jk,ki->i", c, k_tt, c),
             ((k_tt.astype(ld) @ c_ld) * c_ld).sum(0),
             ((np.abs(u) @ core) * np.abs(u)).sum(1), len(k_tt) + rec.rank)
    for blas, naive, ref, size, n in (site, surface, norms):
        assert (np.abs(blas.astype(ld) - ref) <= _gamma(2 * n + 4) * size).all()
        assert (np.abs(naive.astype(ld) - ref) <= _gamma(n * n + 4) * size).all()


def _d4_images(p: np.ndarray) -> list:
    """A square grid of values under x <-> y, x -> 1 - x and a quarter turn,
    the generators of the unit square's symmetry group."""
    return [p.T, p[::-1], np.rot90(p)]


@pytest.mark.parametrize("n_side", [7, 11])
def test_kansa_surfaces_keep_the_squares_symmetry(n_side):
    # data, trial and evaluation grids are all invariant under the square's
    # symmetries, so both power surfaces are too.  Singular values of A come
    # in equal pairs from that symmetry, and a rank cut through a pair breaks
    # it: a cheap oracle for the rank cut.  The centre, whose p2_sym is zero
    # (it is a data Laplacian), maps to itself and is left out
    params = {key: entry[1] for key, entry in cli.CONFIG_KEYS["kansa"].items()}
    k = MaternSobolevKernel(params["m"], 2, params["c"])
    setup = PoissonSetup.regular(k, n_side=n_side, n_boundary=params["n_boundary"],
                                 include_corners=params["include_corners"])
    rec = build_kansa(setup, rtol=params["rtol"])
    side = params["eval_interior_side"]
    h = np.arange(1, side + 1) / (side + 1.0)
    mus = FunctionalSet([LaplacianEval((x, y)) for x in h for y in h])
    off_centre = np.ones((side, side), dtype=bool)
    off_centre[side // 2, side // 2] = False
    for p2 in kansa_power_squared_batch(rec, mus):
        p2 = p2.reshape(side, side)
        for image in _d4_images(p2):
            assert np.all(np.abs(image - p2)[off_centre] <= 1e-6 * p2[off_centre])


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


def _hex(values) -> list:
    return [float(v).hex() for v in np.ravel(values)]


@st.composite
def _svd_batches(draw):
    """Systems of m singular values, each row nonincreasing with a trailing
    run of zeros of drawn length, and one normal mu per system, seeded so
    that the entries carry full mantissas; some mu rows vanish on their zero
    run, so have no bump."""
    m, rows = draw(st.integers(1, 16)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    sigma = -np.sort(-rng.uniform(0.1, 5.0, size=(rows, m)), axis=-1)
    mu = rng.normal(size=(rows, m))
    for row, v in zip(sigma, mu):
        n_pos = draw(st.integers(0, m))
        row[n_pos:] = 0.0
        if draw(st.integers(0, 9)) == 0:
            v[n_pos:] = 0.0
    return sigma, mu


def _single_bumps(sigma, mu):
    out = []
    for s, v in zip(sigma, mu):
        try:
            out.append(svd_bump_min(SvdRecovery(s), v))
        except NoBumpExists:
            out.append(None)
    return out


@settings(max_examples=80, deadline=None)
@given(batch=_svd_batches(), tau=st.sampled_from([0.0, 0.3]))
def test_svd_batches_equal_the_single_calls_bit_for_bit(batch, tau):
    sigma, mu = batch
    p2 = svd_power_squared(SvdRecovery(sigma, tau=tau), mu)
    assert _hex(p2) == _hex([svd_power_squared(SvdRecovery(s, tau=tau), v)
                             for s, v in zip(sigma, mu)])
    if tau == 0.0:
        # the sum runs over exactly the zero run, as a masked sum does
        assert _hex(p2) == _hex([np.sum(v[s <= 1e-12 * s[0]] ** 2) for s, v in zip(sigma, mu)])
    singles = _single_bumps(sigma, mu)
    if None in singles:
        with pytest.raises(NoBumpExists) as info:
            svd_bump_min(SvdRecovery(sigma), mu)
        assert str(info.value).endswith(f"(row {singles.index(None)})")
        return
    f, norm = svd_bump_min(SvdRecovery(sigma), mu)
    assert _hex(f) == _hex([b for b, _ in singles])
    assert _hex(norm) == _hex([n for _, n in singles])
    assert all(type(n) is float for _, n in singles)


def test_svd_validation():
    with pytest.raises(ValueError):
        SvdRecovery([1.0, 2.0])  # increasing
    with pytest.raises(ValueError):
        SvdRecovery([1.0], tau=-0.5)
    with pytest.raises(ValueError):
        SvdRecovery([1.0, 0.5], m=1)
    with pytest.raises(ValueError):
        svd_power_squared(SvdRecovery([1.0, 0.0]), [1.0])
    with pytest.raises(ValueError):
        SvdRecovery([1.0, np.nan])  # a NaN would break the trailing zero run
    with pytest.raises(ValueError):
        SvdRecovery([[2.0, 1.0], [1.0, 2.0]])  # each row must be nonincreasing
