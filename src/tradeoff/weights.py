"""Coefficient-weight rules j -> w_j > 0, parseable from strings.

A rule is given as a string, a positive real number, or a WeightRule.
String grammar (documented in the CLI help):

    "1"                      constant weight (any positive literal)
    "(j+1)^2"                polynomial weight (j+a)^p with a, p literals
    "factorial_sq_over:2^j"  (j!)^2 / b^j  with b a positive literal
"""
from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass

import numpy as np

from .errors import BadWeights

_POLY_RE = re.compile(r"^\(j([+-]\d+(?:\.\d+)?)\)\^(\d+(?:\.\d+)?)$")
_FACT_RE = re.compile(r"^factorial_sq_over:(\d+(?:\.\d+)?)\^j$")


@dataclass(frozen=True)
class WeightRule:
    """Positive weight sequence with a log-space evaluator for large j."""

    kind: str
    a: float = 0.0
    p: float = 0.0

    def __call__(self, j: int) -> float:
        """w_j; BadWeights when it exceeds the largest double."""
        if self.kind == "const":
            return self.a
        try:
            if self.kind == "poly":
                return (j + self.a) ** self.p
            try:
                return math.factorial(j) ** 2 / self.a ** j
            except OverflowError:
                return math.exp(self.log(j))
        except OverflowError:
            raise BadWeights(f"weights overflow a double: w_{j} of {self}") from None

    def log(self, j: int) -> float:
        if self.kind == "const":
            return math.log(self.a)
        if self.kind == "poly":
            return self.p * math.log(j + self.a)
        # factorial_sq_over: (j!)^2 / b^j
        return 2.0 * math.lgamma(j + 1) - j * math.log(self.a)

    def array(self, n: int) -> np.ndarray:
        """Weights w_0 .. w_n as a vector."""
        return np.array([self(j) for j in range(n + 1)])


def parse_weight_rule(spec) -> WeightRule:
    """Parse a weight rule from a string or a real number (not a bool), or
    pass a WeightRule through; anything else is BadWeights."""
    if isinstance(spec, WeightRule):
        return spec
    if isinstance(spec, numbers.Real) and not isinstance(spec, bool):
        spec = repr(float(spec))
    if not isinstance(spec, str):
        raise BadWeights(
            f"a weight rule is a string, a number or a WeightRule, got {spec!r}")
    text = spec.strip()
    try:
        c = float(text)
    except ValueError:
        c = None
    if c is not None:
        if c <= 0:
            raise BadWeights(f"constant weight must be positive, got {c}")
        return WeightRule(kind="const", a=c)
    m = _POLY_RE.match(text)
    if m:
        a, p = float(m.group(1)), float(m.group(2))
        if a <= 0:
            raise BadWeights(f"(j{a:+g})^{p:g} is not positive at j=0")
        return WeightRule(kind="poly", a=a, p=p)
    m = _FACT_RE.match(text)
    if m:
        b = float(m.group(1))
        if b <= 0:
            raise BadWeights(f"base must be positive in {text!r}")
        return WeightRule(kind="factorial_sq_over", a=b)
    raise BadWeights(f"cannot parse weight rule {text!r}")


def weight_array(rule, n: int) -> np.ndarray:
    w = parse_weight_rule(rule).array(n)
    if np.any(w <= 0) or not np.all(np.isfinite(w)):
        raise BadWeights("weights must be positive and finite")
    return w
