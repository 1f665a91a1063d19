import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tradeoff.errors import (
    BadWeights,
    DegenerateEvaluation,
    DuplicateNodes,
    NodeCoincidence,
    OutOfCell,
    RankDeficientConstraints,
    SingularVandermonde,
)
from tradeoff import expansion as ex
from tradeoff.functionals import CoeffEval, FunctionalSet, PointEval, apply_to_coeffs
from tradeoff.weights import WeightRule, parse_weight_rule, weight_array


# ---- polynomial interpolation ----

def test_poly_power_values():
    assert ex.poly_power([-1.0, 1.0], 0.0) == 0.5
    assert ex.poly_power([-1.0, 0.0, 1.0], 0.5) == pytest.approx(0.0625, rel=1e-15)
    assert ex.poly_power([-1.0, 0.0, 1.0], 0.0) == 0.0


def test_poly_seminorm_values():
    assert ex.poly_lagrangian_seminorm([-1.0, 1.0], 0.0) == 2.0
    assert ex.poly_lagrangian_seminorm([-1.0, 0.0, 1.0], 0.5) == pytest.approx(16.0, rel=1e-15)


def test_poly_identity_random():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(1, 11))
        nodes = np.sort(rng.uniform(-1, 1, n + 1))
        x = float(rng.uniform(-1, 1))
        if np.min(np.abs(x - nodes)) < 1e-9:
            continue
        prod = ex.poly_power(nodes, x) * ex.poly_lagrangian_seminorm(nodes, x)
        assert prod == pytest.approx(1.0, rel=1e-12)


def test_poly_errors():
    with pytest.raises(DuplicateNodes):
        ex.poly_power([0.0, 0.0, 1.0], 0.5)
    with pytest.raises(NodeCoincidence):
        ex.poly_lagrangian_seminorm([-1.0, 0.0, 1.0], 0.0)


def _hex(values) -> list:
    return [float(v).hex() for v in np.ravel(values)]


_coords = st.floats(-4.0, 4.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n_nodes=st.integers(1, 12), rows=st.integers(1, 8))
def test_poly_batches_equal_the_single_calls_bit_for_bit(data, n_nodes, rows):
    nodes = np.array([data.draw(st.lists(_coords, min_size=n_nodes, max_size=n_nodes,
                                         unique=True)) for _ in range(rows)])
    x = np.array(data.draw(st.lists(_coords, min_size=rows, max_size=rows)))
    # no point on a node of its own set or of the first
    assume(not np.any(x[:, None] == nodes) and not np.any(x[:, None] == nodes[0]))
    # tiny differences may underflow a product, and so on: both paths alike
    with np.errstate(all="ignore"):
        _assert_poly_batch_is_single_calls(nodes, x)


def _assert_poly_batch_is_single_calls(nodes, x):
    for f in (ex.poly_power, ex.poly_lagrangian_seminorm):
        batch = f(nodes, x)
        assert batch.shape == x.shape
        assert _hex(batch) == _hex([f(r, v) for r, v in zip(nodes, x.tolist())])
        # one node set against many points, and a column-major batch
        assert _hex(f(nodes[0], x)) == _hex([f(nodes[0], v) for v in x.tolist()])
        assert _hex(f(np.asfortranarray(nodes), x)) == _hex(batch)


def test_poly_scalar_input_returns_a_float():
    assert type(ex.poly_power(np.array([-1.0, 1.0]), np.float64(0.0))) is float
    assert type(ex.poly_lagrangian_seminorm([-1.0, 1.0], 0.5)) is float


@settings(max_examples=40, deadline=None)
@given(data=st.data(), rows=st.integers(1, 8))
def test_poly_batches_name_their_first_bad_row(data, rows):
    bad = sorted(data.draw(st.sets(st.integers(0, rows - 1), min_size=1)))
    nodes = np.tile([-1.0, 0.0, 1.0], (rows, 1))
    x = np.full(rows, 0.5)
    for f in (ex.poly_power, ex.poly_lagrangian_seminorm):
        repeated = nodes.copy()
        repeated[bad, 2] = -1.0
        with pytest.raises(DuplicateNodes) as info:
            f(repeated, x)
        assert str(info.value) == f"interpolation nodes must be distinct (row {bad[0]})"
    hits = x.copy()
    hits[bad] = 1.0
    with pytest.raises(NodeCoincidence) as info:
        ex.poly_lagrangian_seminorm(nodes, hits)
    assert str(info.value) == f"x = 1.0 coincides with a node (row {bad[0]})"


# ---- connect-the-dots ----

def test_ctd_values():
    assert ex.ctd_power(0.0, 1.0, 0.5) == 0.5
    assert ex.ctd_lagrangian_norm(0.0, 1.0, 0.5) == 2.0
    assert ex.ctd_power(0.0, 2.0, 0.5) == 0.75
    assert ex.ctd_lagrangian_norm(0.0, 1.0, 0.25) == 4.0
    prod = ex.ctd_power(0.0, 1.0, 0.25) * ex.ctd_lagrangian_norm(0.0, 1.0, 0.25)
    assert prod == pytest.approx(1.5, rel=1e-15)


def test_ctd_band_and_midpoint():
    rng = np.random.default_rng(2)
    for _ in range(2000):
        xk = rng.uniform(-1, 1)
        xk1 = xk + rng.uniform(1e-3, 2)
        x = xk + rng.uniform(0.01, 0.99) * (xk1 - xk)
        prod = ex.ctd_power(xk, xk1, x) * ex.ctd_lagrangian_norm(xk, xk1, x)
        assert 1.0 - 1e-12 <= prod <= 2.0 + 1e-12
    assert ex.ctd_power(0.2, 0.8, 0.5) * ex.ctd_lagrangian_norm(0.2, 0.8, 0.5) \
        == pytest.approx(1.0, abs=1e-12)


def test_ctd_boundary_limit():
    # product -> 2 as x approaches a cell endpoint
    prod = ex.ctd_power(0.0, 1.0, 0.999999) * ex.ctd_lagrangian_norm(0.0, 1.0, 0.999999)
    assert prod == pytest.approx(2.0, rel=1e-5)


def test_ctd_out_of_cell():
    with pytest.raises(OutOfCell):
        ex.ctd_power(0.0, 1.0, 1.0)
    with pytest.raises(OutOfCell):
        ex.ctd_lagrangian_norm(0.0, 1.0, -0.5)


def test_ctd_scalar_input_returns_a_float():
    assert type(ex.ctd_power(0.0, 1.0, 0.5)) is float
    assert type(ex.ctd_lagrangian_norm(0, 1, 0.25)) is float


def test_ctd_arrays_equal_the_scalar_values_bit_for_bit():
    rng = np.random.default_rng(5)
    xk = rng.uniform(-1, 1, 500)
    xk1 = xk + rng.uniform(1e-3, 2, 500)
    x = xk + rng.uniform(1e-6, 1 - 1e-6, 500) * (xk1 - xk)
    x[:3] = (xk[:3] + xk1[:3]) / 2  # midpoints, where the product is 1
    for f in (ex.ctd_power, ex.ctd_lagrangian_norm):
        values = f(xk, xk1, x)
        assert values.shape == (500,)
        assert [v.hex() for v in values.tolist()] \
            == [f(a, b, c).hex() for a, b, c in zip(xk.tolist(), xk1.tolist(), x.tolist())]
    # scalars broadcast against arrays: one cell, many points
    assert ex.ctd_power(0.0, 1.0, np.array([0.25, 0.5])).tolist() == [0.375, 0.5]


@pytest.mark.parametrize("bad,shown", [(1.5, "x = 1.5 is not inside (0.0, 1.0)"),
                                       (np.nan, "x = nan is not inside (0.0, 1.0)")],
                         ids=["outside", "nan"])
def test_ctd_array_names_the_first_element_outside_its_cell(bad, shown):
    xk = np.array([-1.0, -0.5, 0.0, 0.2])
    xk1 = np.array([1.0, 0.5, 1.0, 0.9])
    x = np.array([0.0, 0.1, bad, 5.0])  # the last one is outside too
    for f in (ex.ctd_power, ex.ctd_lagrangian_norm):
        with pytest.raises(OutOfCell) as info:
            f(xk, xk1, x)
        assert str(info.value) == shown


# ---- Taylor data ----

def test_taylor_values():
    assert ex.taylor_power("1", 3) == pytest.approx(1.0 / 6.0, rel=1e-15)
    assert ex.taylor_lagrangian_norm("1", 3) == pytest.approx(6.0, rel=1e-15)
    assert ex.taylor_power("1", 0) == 1.0
    assert ex.taylor_power("factorial_sq_over:2^j", 2) == pytest.approx(0.5, rel=1e-14)


def test_taylor_product_one():
    for rule in ["1", "(j+1)^2", "factorial_sq_over:2^j"]:
        for k in [0, 1, 5, 20]:
            prod = ex.taylor_power(rule, k) * ex.taylor_lagrangian_norm(rule, k)
            assert prod == pytest.approx(1.0, abs=1e-14)


def test_taylor_bad_weights():
    with pytest.raises(BadWeights):
        ex.taylor_power(lambda j: -1.0, 2)


_TAYLOR_RULES = ["1", "0.37", "(j+1)^2", "(j+2)^3", "factorial_sq_over:2^j",
                 "factorial_sq_over:3^j"]


@settings(max_examples=60, deadline=None)
@given(rule=st.sampled_from(_TAYLOR_RULES),
       ks=st.lists(st.integers(0, 60), min_size=1, max_size=30))
def test_taylor_batches_equal_the_single_calls_bit_for_bit(rule, ks):
    for f in (ex.taylor_power, ex.taylor_lagrangian_norm):
        batch = f(rule, np.array(ks))
        assert batch.shape == (len(ks),)
        assert _hex(batch) == _hex([f(rule, k) for k in ks])
        assert type(f(rule, ks[0])) is float


@settings(max_examples=40, deadline=None)
@given(ks=st.lists(st.integers(0, 8), min_size=1, max_size=10).filter(lambda ks: min(ks) <= 3))
def test_taylor_batches_name_their_first_bad_row(ks):
    # rho_j = j - 3 is not positive for j <= 3
    rule = WeightRule(kind="poly", a=-3.0, p=1.0)
    first = next(i for i, k in enumerate(ks) if k <= 3)
    for f in (ex.taylor_power, ex.taylor_lagrangian_norm):
        with pytest.raises(BadWeights) as info:
            f(rule, np.array(ks))
        k = ks[first]
        assert str(info.value) == f"rho_{k} = {k - 3.0} must be positive (row {first})"


def test_taylor_divergence_warning():
    # rho_j = (j!)^2 2^j makes rho_j/(j!)^2 blow up
    with pytest.warns(UserWarning):
        ex.taylor_power("factorial_sq_over:0.5^j", 1)


# ---- orthogonal series ----

def test_ortho_single_term():
    power, bump, norm = ex.ortho_power_and_bump([2.0])
    assert power == 2.0 and norm == 0.5
    assert bump.tolist() == [0.5]


def test_ortho_345():
    power, bump, norm = ex.ortho_power_and_bump([3.0, 4.0])
    assert power == 5.0
    assert bump.tolist() == [0.12, 0.16]
    assert norm == pytest.approx(0.2, rel=1e-15)
    assert power * norm == pytest.approx(1.0, abs=1e-15)


def test_ortho_degenerate():
    with pytest.raises(DegenerateEvaluation):
        ex.ortho_power_and_bump([0.0, 0.0])


@settings(max_examples=60, deadline=None)
@given(data=st.data(), length=st.integers(1, 40), rows=st.integers(1, 6))
def test_ortho_batches_equal_the_single_calls_bit_for_bit(data, length, rows):
    # a zero tail is drawn now and then: the batch must then name the first
    tails = np.array([data.draw(st.lists(st.floats(-1e3, 1e3) | st.just(0.0),
                                         min_size=length, max_size=length))
                      for _ in range(rows)])
    with np.errstate(all="ignore"):
        _assert_ortho_batch_is_single_calls(tails)


def _assert_ortho_batch_is_single_calls(tails):
    singles = []
    for tail in tails:
        try:
            singles.append(ex.ortho_power_and_bump(tail))
        except DegenerateEvaluation:
            singles.append(None)
    if None in singles:
        with pytest.raises(DegenerateEvaluation) as info:
            ex.ortho_power_and_bump(tails)
        assert str(info.value).endswith(f"(row {singles.index(None)})")
        return
    for batch in (tails, np.asfortranarray(tails)):
        power, bump, norm = ex.ortho_power_and_bump(batch)
        assert _hex(power) == _hex([p for p, _, _ in singles])
        assert _hex(bump) == _hex([b for _, b, _ in singles])
        assert _hex(norm) == _hex([n for _, _, n in singles])
    assert all(type(p) is float and type(n) is float for p, _, n in singles)


# ---- weighted Chebyshev spaces ----

def test_cheb_lagrangians_linear():
    fs = FunctionalSet([PointEval(-1.0), PointEval(1.0)])
    u = ex.cheb_lagrangians(fs, "1", 1)
    assert np.allclose(u[0].coeffs, [0.5, -0.5])  # (T0 - T1)/2 = (1-x)/2
    assert np.allclose(u[1].coeffs, [0.5, 0.5])


def test_cheb_lagrangians_coeff_data():
    fs = FunctionalSet([CoeffEval(j) for j in range(4)])
    u = ex.cheb_lagrangians(fs, "1", 3)
    assert np.allclose([f.coeffs for f in u], np.eye(4))


def test_cheb_lagrangians_kronecker():
    n = 10
    nodes = np.sort(np.cos(np.arange(n + 1) * np.pi / n))
    fs = FunctionalSet([PointEval(x) for x in nodes])
    us = ex.cheb_lagrangians(fs, "(j+1)^2", n)
    vals = np.array([[apply_to_coeffs(lam, u.coeffs) for u in us] for lam in fs])
    assert np.max(np.abs(vals - np.eye(n + 1))) <= 1e-9


def test_cheb_lagrangians_errors():
    from tradeoff.functionals import DerivEval
    # structurally distinct functionals with identical action: singular rows
    fs = FunctionalSet([PointEval(0.5), DerivEval(0.5, 0)])
    with pytest.raises(SingularVandermonde):
        ex.cheb_lagrangians(fs, "1", 1)
    with pytest.raises(SingularVandermonde):
        ex.cheb_lagrangians(FunctionalSet([PointEval(0.0)]), "1", 3)


def test_cheb_power_zero_for_data_functional():
    nodes = np.linspace(-1, 1, 6)
    fs = FunctionalSet([PointEval(x) for x in nodes])
    p = ex.cheb_power_addone(fs, "(j+1)^2", 5, 40, PointEval(nodes[2]))
    assert p <= 1e-12


def test_cheb_power_single_tail_term():
    nodes = np.linspace(-1, 1, 4)
    fs = FunctionalSet([PointEval(x) for x in nodes])
    mu = PointEval(0.1)
    # with K = n+1 the sum has one term |mu(eps_{n+1})| / sqrt(w_{n+1})
    p = ex.cheb_power_addone(fs, "(j+1)^2", 3, 4, mu)
    assert p == pytest.approx(ex.cheb_power_one_term(fs, "(j+1)^2", 3, mu), rel=1e-14)


def test_cheb_power_monotone_in_tail_order():
    nodes = np.linspace(-1, 1, 6)
    fs = FunctionalSet([PointEval(x) for x in nodes])
    mu = PointEval(-0.37)
    prev = 0.0
    for K in [6, 10, 20, 40, 80]:
        p = ex.cheb_power_addone(fs, "(j+1)^2", 5, K, mu)
        assert p >= prev - 1e-15
        prev = p


def test_cheb_bump_examples():
    bump = ex.cheb_bump_min(None, "1", 3, CoeffEval(0))
    assert np.allclose(bump.coeffs, [1, 0, 0, 0])
    assert bump.norm() == pytest.approx(1.0)
    bump2 = ex.cheb_bump_min(FunctionalSet([PointEval(0.0)]), "1", 1, CoeffEval(1))
    assert np.allclose(bump2.coeffs, [0.0, 1.0])
    assert bump2.norm() == pytest.approx(1.0)


def test_cheb_bump_constraints_and_tradeoff():
    nodes = np.linspace(-1, 1, 8)
    fs = FunctionalSet([PointEval(x) for x in nodes])
    mu = PointEval(0.63)
    bump = ex.cheb_bump_min(fs, "(j+1)^2", 60, mu)
    assert abs(apply_to_coeffs(mu, bump.coeffs) - 1.0) <= 1e-8
    for lam in fs:
        assert abs(apply_to_coeffs(lam, bump.coeffs)) <= 1e-8
    power = ex.cheb_power_addone(fs, "(j+1)^2", 7, 60, mu)
    assert power * bump.norm() >= 1.0 - 1e-8


def test_cheb_bump_rank_deficient():
    with pytest.raises(RankDeficientConstraints):
        # more constraints than basis functions
        fs = FunctionalSet([PointEval(x) for x in np.linspace(-1, 1, 5)])
        ex.cheb_bump_min(fs, "1", 3, PointEval(0.123))


# ---- weight rules ----

def test_weight_rule_grammar():
    assert parse_weight_rule("1")(5) == 1.0
    assert parse_weight_rule("(j+1)^2")(3) == 16.0
    assert parse_weight_rule("factorial_sq_over:2^j")(2) == 1.0
    assert np.allclose(weight_array("(j+1)^2", 3), [1, 4, 9, 16])
    with pytest.raises(BadWeights):
        parse_weight_rule("j^2 + bogus")
    with pytest.raises(BadWeights):
        parse_weight_rule("-3")


def test_expansion_norm():
    f = ex.ExpansionFunction([1.0, 2.0], parse_weight_rule("(j+1)^2"))
    assert f.norm_squared() == pytest.approx(1.0 + 4.0 * 4.0)
