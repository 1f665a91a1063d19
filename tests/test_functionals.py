import json
import math

import numpy as np
import pytest

from tradeoff.errors import UnsupportedPair
from tradeoff.expansion import ExpansionFunction
from tradeoff.functionals import (
    CoeffEval,
    DerivEval,
    FunctionalSet,
    LaplacianEval,
    PointEval,
    apply,
    apply_to_coeffs,
    functional_from_json,
    vandermonde,
)


def test_point_on_constant():
    f = ExpansionFunction("chebyshev", [1.0])
    assert apply(PointEval(0.0), f) == 1.0


def test_deriv_on_linear():
    f = ExpansionFunction("monomial", [0.0, 1.0])
    assert apply(DerivEval(0.0, 1), f) == 1.0


def test_point_on_t2():
    f = ExpansionFunction("chebyshev", [0.0, 0.0, 1.0])
    assert apply(PointEval(0.5), f) == pytest.approx(-0.5, abs=1e-15)


def test_coeff_eval_and_zero_tail():
    f = ExpansionFunction("orthonormal", [1.0, 2.0, 3.0])
    assert apply(CoeffEval(1), f) == 2.0
    assert apply(CoeffEval(17), f) == 0.0


def test_unsupported_pairs():
    f = ExpansionFunction("chebyshev", [1.0, 1.0])
    with pytest.raises(UnsupportedPair):
        apply(LaplacianEval((0.0, 0.0)), f)
    g = ExpansionFunction("orthonormal", [1.0])
    with pytest.raises(UnsupportedPair):
        apply(PointEval(0.0), g)
    with pytest.raises(UnsupportedPair):
        apply(PointEval((0.0, 0.0)), f)


def test_linearity():
    rng = np.random.default_rng(5)
    for lam in [PointEval(0.3), DerivEval(-0.2, 1), DerivEval(0.1, 2), CoeffEval(2)]:
        for basis in ["chebyshev", "monomial"]:
            a, b = rng.normal(), rng.normal()
            fc, gc = rng.normal(size=6), rng.normal(size=6)
            lhs = apply_to_coeffs(lam, basis, a * fc + b * gc)
            rhs = a * apply_to_coeffs(lam, basis, fc) + b * apply_to_coeffs(lam, basis, gc)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_deriv_matches_finite_differences():
    rng = np.random.default_rng(9)
    coeffs = rng.normal(size=8)
    x = 0.37
    for basis in ["chebyshev", "monomial"]:
        exact = apply_to_coeffs(DerivEval(x, 1), basis, coeffs)
        best = np.inf
        for h in [1e-4, 1e-5, 1e-6]:
            fd = (apply_to_coeffs(PointEval(x + h), basis, coeffs)
                  - apply_to_coeffs(PointEval(x - h), basis, coeffs)) / (2 * h)
            best = min(best, abs(fd - exact) / abs(exact))
        assert best <= 1e-6


def test_high_order_derivative_of_short_expansion_is_zero():
    assert apply_to_coeffs(DerivEval(0.2, 5), "chebyshev", [1.0, 2.0]) == 0.0


def test_vandermonde_pm1():
    fs = FunctionalSet([PointEval(-1.0), PointEval(1.0)])
    assert vandermonde(fs, "chebyshev", 1).tolist() == [[1.0, -1.0], [1.0, 1.0]]


def test_vandermonde_coeff_identity():
    fs = FunctionalSet([CoeffEval(j) for j in range(4)])
    assert np.array_equal(vandermonde(fs, "monomial", 3), np.eye(4))
    assert np.array_equal(vandermonde(fs, "chebyshev", 3), np.eye(4))


def test_vandermonde_extrema():
    fs = FunctionalSet([PointEval(x) for x in (-1.0, 0.0, 1.0)])
    expected = [[1.0, -1.0, 1.0], [1.0, 0.0, -1.0], [1.0, 1.0, 1.0]]
    assert vandermonde(fs, "chebyshev", 2).tolist() == expected


def test_vandermonde_mixed_kinds():
    fs = FunctionalSet([PointEval(0.5), DerivEval(0.5, 1), CoeffEval(1)])
    v = vandermonde(fs, "chebyshev", 2)
    # T0=1, T1=x, T2=2x^2-1 at 0.5; derivatives 0, 1, 4x
    assert np.allclose(v[0], [1.0, 0.5, -0.5])
    assert np.allclose(v[1], [0.0, 1.0, 2.0])
    assert np.allclose(v[2], [0.0, 1.0, 0.0])


def test_functional_set_validation():
    with pytest.raises(ValueError):
        FunctionalSet([])
    with pytest.raises(ValueError):
        FunctionalSet([PointEval(0.0), PointEval(0.0)])


def test_json_round_trip():
    # each kind: its exact JSON dict and its (kind, x, y) CSV columns
    nan = math.nan
    contract = {
        PointEval(0.25): ({"kind": "point", "x": [0.25]}, ("point", 0.25, nan)),
        PointEval((0.1, 0.2)): ({"kind": "point", "x": [0.1, 0.2]}, ("point", 0.1, 0.2)),
        DerivEval(0.5, 2): ({"kind": "deriv", "x": [0.5], "order": 2},
                            ("deriv2", 0.5, nan)),
        LaplacianEval((0.3, 0.4)): ({"kind": "laplacian", "x": [0.3, 0.4]},
                                    ("laplacian", 0.3, 0.4)),
        CoeffEval(7): ({"kind": "coeff", "j": 7}, ("coeff", 7.0, nan)),
    }
    fs = FunctionalSet(contract)
    blob = json.dumps(fs.to_json())
    back = FunctionalSet.from_json(json.loads(blob))
    assert back == fs
    for f, (d, columns) in contract.items():
        assert f.to_json() == d
        assert functional_from_json(d) == f
        # nan != nan, so compare the columns by their text
        assert repr(f.csv_columns()) == repr(columns)
    for x in (0.5, [0.5]):
        assert functional_from_json({"kind": "deriv", "x": x, "order": 1}) \
            == DerivEval(0.5, 1)
    with pytest.raises(ValueError, match="unknown functional kind"):
        functional_from_json({"kind": "integral", "x": [0.5]})
    with pytest.raises(ValueError):
        functional_from_json({"kind": "deriv", "x": [0.5, 0.6], "order": 1})
