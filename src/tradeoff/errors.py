"""Exception types shared across the package."""

import numpy as np


def at_first_row(bad) -> str:
    """' (row i)' naming the first True entry of a batch mask in an error
    message (in C order when the batch has several axes); '' when the mask
    is a single case."""
    bad = np.asarray(bad)
    return f" (row {np.flatnonzero(bad)[0]})" if bad.ndim else ""


class TradeoffError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(TradeoffError, ValueError):
    """Matrix/vector shapes do not conform."""


class NotPositiveDefinite(TradeoffError, ValueError):
    """A Cholesky factorization failed: the matrix is not positive definite
    in double precision."""


class UnsupportedPair(TradeoffError, ValueError):
    """A functional cannot act on a Chebyshev expansion or on the given kernel."""


class DuplicateNodes(TradeoffError, ValueError):
    """Interpolation nodes are not pairwise distinct."""


class NodeCoincidence(TradeoffError, ValueError):
    """Evaluation point coincides with a node (the excluded 1 <= 0*inf case)."""


class OutOfCell(TradeoffError, ValueError):
    """Evaluation point lies outside the open cell (x_k, x_{k+1})."""


class BadWeights(TradeoffError, ValueError):
    """A coefficient weight is not positive or a weight rule cannot be parsed."""


class DegenerateEvaluation(TradeoffError, ValueError):
    """All tail coefficients vanish; no bump function exists."""


class SingularVandermonde(TradeoffError, ValueError):
    """The functional-Vandermonde system is singular."""


class RankDeficientConstraints(TradeoffError, ValueError):
    """Constraint system has deficient row rank; no bump in the truncated space."""


class ExcludedCase(TradeoffError, ValueError):
    """The evaluation functional is reproduced exactly (power is zero)."""


class NoBumpExists(TradeoffError, ValueError):
    """All singular values are positive; no bump vector exists."""
