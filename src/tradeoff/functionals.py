"""Data and evaluation functionals: point values, derivatives, Laplacians,
and expansion-coefficient extraction, plus their action on Chebyshev
expansions."""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cache, cached_property

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .errors import UnsupportedPair


class Functional:
    """Base class for continuous linear functionals.

    Each kind is one class, the only place that knows the kind.  It declares
    ``kind`` (its JSON tag and its key in ``_KINDS``), ``dim`` (the dimension
    of the space it acts on), ``order`` (its total derivative order for a
    radial kernel, None if a radial kernel cannot apply it), ``site`` (the
    point a radial kernel differences, a tuple), ``csv_columns()`` (its
    (kind, x, y) report columns, nan where unused) and ``on_coeffs(coeffs)``
    (its value on the Chebyshev expansion with those float coefficients; by
    default UnsupportedPair).  Per-kind constants are unannotated class
    attributes, so they stay out of the dataclass fields, equality and hashing;
    ``to_json``/``from_json`` map those fields.  A new kind is one class
    plus one ``_KINDS`` entry.
    """

    kind = None
    order = None

    def to_json(self) -> dict:
        out = {"kind": self.kind}
        for name in _field_names(type(self)):
            v = getattr(self, name)
            out[name] = list(v) if isinstance(v, tuple) else v
        return out

    @classmethod
    def from_json(cls, d: dict) -> "Functional":
        names = _field_names(cls)
        for problem, bad in [
                ("lacks key(s)", [n for n in names if n not in d]),
                ("has unknown key(s)", [k for k in d if k not in names and k != "kind"]),
                ("needs a JSON integer at", [n for n in names if type(d.get(n)) is not int
                                             and cls.__annotations__[n] == "int"]),
                ("needs JSON numbers at", [n for n in names if "float" in cls.__annotations__[n]
                                           and not _json_numbers(d.get(n))])]:
            if bad:
                raise ValueError(f"{cls.kind} functional {d} {problem} "
                                 f"{', '.join(map(repr, bad))}")
        return cls(**{name: d[name] for name in names})

    def on_coeffs(self, coeffs: np.ndarray) -> float:
        raise UnsupportedPair(f"cannot apply {self!r} to a Chebyshev expansion")


@cache
def _field_names(cls) -> tuple[str, ...]:
    """A functional class's dataclass field names, read once per class."""
    return tuple(f.name for f in fields(cls))


def _json_numbers(v) -> bool:
    """Whether v is a JSON number or a JSON array of them (a bool or a string
    is not), as a point's coordinates must be."""
    return all(type(c) in (int, float) for c in (v if type(v) is list else [v]))


def _point(x) -> tuple[float, ...]:
    pt = (float(x),) if np.isscalar(x) else tuple(map(float, x))
    if not all(map(math.isfinite, pt)):
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

    def on_coeffs(self, coeffs: np.ndarray) -> float:
        if self.dim != 1:
            raise UnsupportedPair(
                f"{self!r} acts on R^{self.dim}, expansion is univariate")
        return float(_cheb.chebval(self.x[0], coeffs))


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

    def on_coeffs(self, coeffs: np.ndarray) -> float:
        d = _cheb.chebder(coeffs, self.order) if self.order else coeffs
        if len(np.atleast_1d(d)) == 0:
            return 0.0
        return float(_cheb.chebval(self.x, d))


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
    """f -> j-th Chebyshev coefficient of f (indices beyond the stored length
    read as zero, expansions being implicitly infinite with zero tails)."""

    j: int

    kind = "coeff"
    dim = 1

    def __init__(self, j: int):
        if j < 0:
            raise ValueError(f"coefficient index must be >= 0, got {j}")
        object.__setattr__(self, "j", int(j))

    def csv_columns(self) -> tuple[str, float, float]:
        return self.kind, float(self.j), math.nan

    def on_coeffs(self, coeffs: np.ndarray) -> float:
        return float(coeffs[self.j]) if self.j < len(coeffs) else 0.0


_KINDS = {cls.kind: cls for cls in (PointEval, DerivEval, LaplacianEval, CoeffEval)}


def functional_from_json(d: dict) -> Functional:
    if type(d) is not dict:
        raise ValueError(f"a functional must be a JSON object, got {d!r}")
    cls = _KINDS.get(d["kind"]) if type(d.get("kind")) is str else None
    if cls is None:
        raise ValueError(f"unknown functional kind {d.get('kind')!r}")
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

    @cached_property
    def radial_layout(self) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]] | None:
        """radial_layout of the members, computed once per set because a
        radial kernel reads it on every call."""
        return radial_layout(self.functionals)

    def to_json(self) -> list[dict]:
        return [f.to_json() for f in self.functionals]

    @classmethod
    def from_json(cls, items) -> "FunctionalSet":
        return cls([functional_from_json(d) for d in items])


def radial_layout(functionals) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]] | None:
    """Each functional's ``order`` and ``site``, as a read-only int vector
    and (n, dim) array, and the distinct orders, ascending.  None when they
    do not form such arrays (no functionals, a functional without an order,
    or functionals on different R^dim).  Whether a kernel can apply them is
    the kernel's check, not this one's."""
    fs = tuple(functionals)
    orders = [f.order for f in fs]
    if None in orders or len({f.dim for f in fs}) != 1:
        return None
    distinct = tuple(sorted(set(orders)))
    orders = np.array(orders, dtype=int)
    sites = np.array([f.site for f in fs], dtype=float)
    orders.flags.writeable = sites.flags.writeable = False
    return orders, sites, distinct


def apply_to_coeffs(lam: Functional, coeffs) -> float:
    """Apply a functional to the function with the given Chebyshev
    coefficients.  Point and derivative evaluation need a univariate
    functional; Laplacians raise UnsupportedPair."""
    return lam.on_coeffs(np.atleast_1d(np.asarray(coeffs, dtype=float)))


def vandermonde(lam_set, n_max: int) -> np.ndarray:
    """Generalized Vandermonde matrix with entries lambda_j(T_k).

    Rows follow the ordering of lam_set (a FunctionalSet or any sequence of
    functionals), columns run over the Chebyshev polynomials T_0 .. T_{n_max}.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    lam_set = list(lam_set)
    out = np.empty((len(lam_set), n_max + 1))
    # 1-d point evaluations in one shot; other rows one by one
    pts = {i: f.x[0] for i, f in enumerate(lam_set)
           if f.kind == PointEval.kind and f.dim == 1}
    if pts:
        out[list(pts)] = _cheb.chebvander(np.asarray(list(pts.values())), n_max)
    eye = np.eye(n_max + 1)
    for i, lam in enumerate(lam_set):
        if i not in pts:
            out[i] = [lam.on_coeffs(eye[k]) for k in range(n_max + 1)]
    return out
