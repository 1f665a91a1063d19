"""Data and evaluation functionals: point values, derivatives, Laplacians,
and expansion-coefficient extraction, plus their action on expansion bases."""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from numpy.polynomial import chebyshev as _cheb
from numpy.polynomial import polynomial as _poly

from .errors import UnsupportedPair

CHEBYSHEV = "chebyshev"
MONOMIAL = "monomial"
ORTHONORMAL = "orthonormal"


class Functional:
    """Base class for continuous linear functionals.

    Each kind is one class, the only place that knows the kind.  It declares
    ``kind`` (its JSON tag and its key in ``_KINDS``), ``dim`` (the dimension
    of the space it acts on), ``order`` (its total derivative order for a
    radial kernel, None if a radial kernel cannot apply it), ``site`` (the
    point a radial kernel differences, a tuple), ``csv_columns()`` (its
    (kind, x, y) report columns, nan where unused) and ``on_coeffs(basis,
    coeffs)`` (its value on an expansion with float coefficients; by default
    UnsupportedPair).  Per-kind constants are unannotated class attributes,
    so they stay out of the dataclass fields, equality and hashing;
    ``to_json``/``from_json`` map those fields.  A new kind is one class
    plus one ``_KINDS`` entry.
    """

    kind = None
    order = None

    def to_json(self) -> dict:
        out = {"kind": self.kind}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out

    @classmethod
    def from_json(cls, d: dict) -> "Functional":
        return cls(**{f.name: d[f.name] for f in fields(cls)})

    def on_coeffs(self, basis: str, coeffs: np.ndarray) -> float:
        raise UnsupportedPair(f"cannot apply {self!r} to a {basis} expansion")


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

    kind = "point"
    order = 0

    def __init__(self, x):
        object.__setattr__(self, "x", _point(x))

    @property
    def dim(self) -> int:
        return len(self.x)

    @property
    def site(self) -> tuple[float, ...]:
        return self.x

    def csv_columns(self) -> tuple[str, float, float]:
        return self.kind, self.x[0], self.x[1] if len(self.x) > 1 else math.nan

    def on_coeffs(self, basis: str, coeffs: np.ndarray) -> float:
        val, _ = _basis_mod(basis)
        if self.dim != 1:
            raise UnsupportedPair(
                f"{self!r} acts on R^{self.dim}, expansion is univariate")
        return float(val(self.x[0], coeffs))


@dataclass(frozen=True)
class DerivEval(Functional):
    """f -> f^(order)(x) for univariate x."""

    x: float
    order: int

    kind = "deriv"
    dim = 1

    def __init__(self, x, order: int):
        if order < 0:
            raise ValueError(f"derivative order must be >= 0, got {order}")
        pt = _point(x)
        if len(pt) != 1:
            raise ValueError(f"DerivEval needs a 1-d point, got {pt}")
        object.__setattr__(self, "x", pt[0])
        object.__setattr__(self, "order", int(order))

    @property
    def site(self) -> tuple[float]:
        return (self.x,)

    def to_json(self) -> dict:
        return {**super().to_json(), "x": [self.x]}

    def csv_columns(self) -> tuple[str, float, float]:
        return f"{self.kind}{self.order}", self.x, math.nan

    def on_coeffs(self, basis: str, coeffs: np.ndarray) -> float:
        val, der = _basis_mod(basis)
        d = der(coeffs, self.order) if self.order else coeffs
        if len(np.atleast_1d(d)) == 0:
            return 0.0
        return float(val(self.x, d))


@dataclass(frozen=True)
class LaplacianEval(Functional):
    """f -> (Laplace f)(x) for x in R^2."""

    x: tuple[float, float]

    kind = "laplacian"
    dim = 2
    order = 2

    def __init__(self, x):
        pt = _point(x)
        if len(pt) != 2:
            raise ValueError(f"LaplacianEval needs a 2-d point, got {pt}")
        object.__setattr__(self, "x", pt)

    @property
    def site(self) -> tuple[float, float]:
        return self.x

    def csv_columns(self) -> tuple[str, float, float]:
        return self.kind, self.x[0], self.x[1]


@dataclass(frozen=True)
class CoeffEval(Functional):
    """f -> j-th expansion coefficient of f, on every basis (indices beyond
    the stored length read as zero, expansions being implicitly infinite
    with zero tails)."""

    j: int

    kind = "coeff"
    dim = 1

    def __init__(self, j: int):
        if j < 0:
            raise ValueError(f"coefficient index must be >= 0, got {j}")
        object.__setattr__(self, "j", int(j))

    def csv_columns(self) -> tuple[str, float, float]:
        return self.kind, float(self.j), math.nan

    def on_coeffs(self, basis: str, coeffs: np.ndarray) -> float:
        return float(coeffs[self.j]) if self.j < len(coeffs) else 0.0


_KINDS = {cls.kind: cls for cls in (PointEval, DerivEval, LaplacianEval, CoeffEval)}


def functional_from_json(d: dict) -> Functional:
    cls = _KINDS.get(d["kind"])
    if cls is None:
        raise ValueError(f"unknown functional kind {d['kind']!r}")
    return cls.from_json(d)


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

    def to_json(self) -> list[dict]:
        return [f.to_json() for f in self.functionals]

    @classmethod
    def from_json(cls, items) -> "FunctionalSet":
        return cls([functional_from_json(d) for d in items])


def _basis_mod(basis: str):
    if basis == CHEBYSHEV:
        return _cheb.chebval, _cheb.chebder
    if basis == MONOMIAL:
        return _poly.polyval, _poly.polyder
    if basis == ORTHONORMAL:
        raise UnsupportedPair(
            "an abstract orthonormal basis only supports coefficient functionals")
    raise UnsupportedPair(f"unknown basis {basis!r}")


def apply_to_coeffs(lam: Functional, basis: str, coeffs) -> float:
    """Apply a functional to the function with the given expansion coefficients.

    CoeffEval works on every basis.  Point and derivative evaluation need a
    concrete univariate basis.
    """
    return lam.on_coeffs(basis, np.atleast_1d(np.asarray(coeffs, dtype=float)))


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
    out = np.empty((len(lam_set), n_max + 1))
    # 1-d point evaluations in one shot on the Chebyshev basis; other rows one by one
    pts = {i: f.x[0] for i, f in enumerate(lam_set)
           if basis == CHEBYSHEV and f.kind == PointEval.kind and f.dim == 1}
    if pts:
        out[list(pts)] = _cheb.chebvander(np.asarray(list(pts.values())), n_max)
    eye = np.eye(n_max + 1)
    for i, lam in enumerate(lam_set):
        if i not in pts:
            out[i] = [lam.on_coeffs(basis, eye[k]) for k in range(n_max + 1)]
    return out
