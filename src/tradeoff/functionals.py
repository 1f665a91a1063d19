"""Data and evaluation functionals: point values, derivatives, Laplacians,
and expansion-coefficient extraction, plus their action on expansion bases."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as _cheb
from numpy.polynomial import polynomial as _poly

from .errors import UnsupportedPair

CHEBYSHEV = "chebyshev"
MONOMIAL = "monomial"
ORTHONORMAL = "orthonormal"

_BASES = (CHEBYSHEV, MONOMIAL, ORTHONORMAL)


class Functional:
    """Base class for continuous linear functionals."""

    dim: int


def _point(x) -> tuple[float, ...]:
    if np.isscalar(x):
        x = (float(x),)
    pt = tuple(float(v) for v in x)
    if not all(np.isfinite(pt)):
        raise ValueError(f"point coordinates must be finite, got {pt}")
    return pt


@dataclass(frozen=True)
class PointEval(Functional):
    """f -> f(x) for x in R^d."""

    x: tuple[float, ...]

    def __init__(self, x):
        object.__setattr__(self, "x", _point(x))

    @property
    def dim(self) -> int:
        return len(self.x)


@dataclass(frozen=True)
class DerivEval(Functional):
    """f -> f^(order)(x) for univariate x."""

    x: float
    order: int

    def __init__(self, x, order: int):
        if order < 0:
            raise ValueError(f"derivative order must be >= 0, got {order}")
        if not np.isfinite(x):
            raise ValueError("point must be finite")
        object.__setattr__(self, "x", float(x))
        object.__setattr__(self, "order", int(order))

    dim = 1


@dataclass(frozen=True)
class LaplacianEval(Functional):
    """f -> (Laplace f)(x) for x in R^2."""

    x: tuple[float, float]

    def __init__(self, x):
        pt = _point(x)
        if len(pt) != 2:
            raise ValueError(f"LaplacianEval needs a 2-d point, got {pt}")
        object.__setattr__(self, "x", pt)

    dim = 2


@dataclass(frozen=True)
class CoeffEval(Functional):
    """f -> j-th expansion coefficient of f."""

    j: int

    def __init__(self, j: int):
        if j < 0:
            raise ValueError(f"coefficient index must be >= 0, got {j}")
        object.__setattr__(self, "j", int(j))

    dim = 1


@dataclass(frozen=True)
class FunctionalSet:
    """Ordered set Lambda of pairwise-distinct functionals."""

    functionals: tuple[Functional, ...]

    def __init__(self, functionals):
        fs = tuple(functionals)
        if not fs:
            raise ValueError("a functional set must be nonempty")
        if len(set(fs)) != len(fs):
            raise ValueError("functionals must be pairwise distinct")
        object.__setattr__(self, "functionals", fs)

    def __len__(self) -> int:
        return len(self.functionals)

    def __iter__(self):
        return iter(self.functionals)

    def __getitem__(self, i):
        return self.functionals[i]

    def extended(self, f: Functional) -> "FunctionalSet":
        return FunctionalSet(self.functionals + (f,))

    def without(self, i: int) -> "FunctionalSet":
        fs = self.functionals[:i] + self.functionals[i + 1:]
        return FunctionalSet(fs)

    def to_json(self) -> list[dict]:
        return [functional_to_json(f) for f in self.functionals]

    @classmethod
    def from_json(cls, items) -> "FunctionalSet":
        return cls([functional_from_json(d) for d in items])


def functional_to_json(f: Functional) -> dict:
    if isinstance(f, PointEval):
        return {"kind": "point", "x": list(f.x)}
    if isinstance(f, DerivEval):
        return {"kind": "deriv", "x": [f.x], "order": f.order}
    if isinstance(f, LaplacianEval):
        return {"kind": "laplacian", "x": list(f.x)}
    if isinstance(f, CoeffEval):
        return {"kind": "coeff", "j": f.j}
    raise TypeError(f"not a functional: {f!r}")


def functional_csv_columns(f: Functional) -> tuple[str, float, float]:
    """The (kind, x, y) columns of f in report and trace CSVs; unused
    coordinates are nan."""
    if isinstance(f, PointEval):
        return "point", f.x[0], f.x[1] if len(f.x) > 1 else math.nan
    if isinstance(f, DerivEval):
        return f"deriv{f.order}", f.x, math.nan
    if isinstance(f, LaplacianEval):
        return "laplacian", f.x[0], f.x[1]
    if isinstance(f, CoeffEval):
        return "coeff", float(f.j), math.nan
    return "unknown", math.nan, math.nan


def functional_from_json(d: dict) -> Functional:
    kind = d["kind"]
    if kind == "point":
        return PointEval(d["x"])
    if kind == "deriv":
        x = d["x"]
        return DerivEval(x[0] if isinstance(x, (list, tuple)) else x, d["order"])
    if kind == "laplacian":
        return LaplacianEval(d["x"])
    if kind == "coeff":
        return CoeffEval(d["j"])
    raise ValueError(f"unknown functional kind {kind!r}")


def _basis_mod(basis: str):
    if basis == CHEBYSHEV:
        return _cheb.chebval, _cheb.chebder
    if basis == MONOMIAL:
        return _poly.polyval, _poly.polyder
    raise UnsupportedPair(f"unknown basis {basis!r}")


def apply_to_coeffs(lam: Functional, basis: str, coeffs) -> float:
    """Apply a functional to the function with the given expansion coefficients.

    CoeffEval works on every basis (indices beyond the stored length read as
    zero, expansions being implicitly infinite with zero tails).  Point and
    derivative evaluation need a concrete univariate basis.
    """
    coeffs = np.atleast_1d(np.asarray(coeffs, dtype=float))
    if isinstance(lam, CoeffEval):
        return float(coeffs[lam.j]) if lam.j < len(coeffs) else 0.0
    if basis == ORTHONORMAL:
        raise UnsupportedPair(
            "an abstract orthonormal basis only supports coefficient functionals")
    if isinstance(lam, LaplacianEval):
        raise UnsupportedPair(
            f"LaplacianEval is 2-d; the {basis} expansion is univariate")
    val, der = _basis_mod(basis)
    if isinstance(lam, PointEval):
        if lam.dim != 1:
            raise UnsupportedPair(
                f"{lam!r} acts on R^{lam.dim}, expansion is univariate")
        return float(val(lam.x[0], coeffs))
    if isinstance(lam, DerivEval):
        d = der(coeffs, lam.order) if lam.order else coeffs
        if len(np.atleast_1d(d)) == 0:
            return 0.0
        return float(val(lam.x, d))
    raise UnsupportedPair(f"cannot apply {lam!r} to a {basis} expansion")


def apply(lam: Functional, f) -> float:
    """Apply lam to an expansion function (anything with .basis and .coeffs)."""
    return apply_to_coeffs(lam, f.basis, f.coeffs)


def vandermonde(lam_set, basis: str, n_max: int) -> np.ndarray:
    """Generalized Vandermonde matrix with entries lambda_j(b_k).

    Rows follow the ordering of lam_set (a FunctionalSet or any sequence of
    functionals), columns run over the basis functions b_0 .. b_{n_max}.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    lam_set = list(lam_set)
    m = len(lam_set)
    out = np.empty((m, n_max + 1))
    # point evaluations in one shot; other kinds row by row
    if basis == CHEBYSHEV:
        pts = [(i, f.x[0]) for i, f in enumerate(lam_set)
               if isinstance(f, PointEval) and f.dim == 1]
        if pts:
            idx, xs = zip(*pts)
            out[list(idx)] = _cheb.chebvander(np.asarray(xs), n_max)
    else:
        pts = []
    done = {i for i, _ in pts}
    eye = np.eye(n_max + 1)
    for i, lam in enumerate(lam_set):
        if i in done:
            continue
        if isinstance(lam, CoeffEval):
            out[i] = eye[lam.j] if lam.j <= n_max else 0.0
            continue
        out[i] = [apply_to_coeffs(lam, basis, eye[k]) for k in range(n_max + 1)]
    return out
