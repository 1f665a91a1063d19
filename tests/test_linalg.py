import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from tradeoff.errors import DimensionMismatch, NotPositiveDefinite
from tradeoff.linalg import factor_spd, svd


def test_solve_identity():
    b = np.array([3.0, -1.0, 2.0])
    assert np.allclose(factor_spd(np.eye(3)).solve(b), b)


def test_solve_diagonal():
    x = factor_spd(np.diag([2.0, 4.0])).solve(np.array([2.0, 8.0]))
    assert np.allclose(x, [1.0, 2.0])


def test_solve_random_spd_residual():
    # oracle: the residual of the returned solution
    rng = np.random.default_rng(7)
    m = rng.normal(size=(5, 5))
    a = m.T @ m + np.eye(5)
    b = rng.normal(size=5)
    x = factor_spd(a).solve(b)
    assert np.linalg.norm(a @ x - b) <= 1e-10


def test_solve_matrix_rhs():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(6, 6))
    a = m.T @ m + np.eye(6)
    b = rng.normal(size=(6, 4))
    x = factor_spd(a).solve(b)
    assert np.linalg.norm(a @ x - b) <= 1e-9 * np.linalg.norm(a) * np.linalg.norm(x)


def test_exactly_singular_matrix_raises_not_positive_definite():
    # no diagonal shift is tried: the error names the size
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(NotPositiveDefinite, match="2x2"):
        factor_spd(a)


@pytest.mark.parametrize("n,near_singular", [(60, False), (200, False), (40, True)])
def test_inverse_diagonal_from_the_factor_within_the_conditioning_bound(n, near_singular):
    # potri on the stored factor against solving the factored system for
    # the identity: both are backward stable, so their diagonals agree to
    # the first-order bound n u cond(A) relative; the near-singular case
    # (cond 1e13) still factors without a shift
    rng = np.random.default_rng(n)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    a = (q * np.geomspace(1.0, 1e-13 if near_singular else 1e-8, n)) @ q.T
    a = (a + a.T) / 2.0
    f = factor_spd(a)
    assert f.n == n and f.jitter == 0.0
    ref = np.diag(scipy.linalg.cho_solve(f.cho, np.eye(n)))
    bound = n * 2.0 ** -53 * np.linalg.cond(a)
    got = f.inverse_diagonal()
    assert got.shape == (n,) and np.all(got > 0.0)
    assert np.max(np.abs(got - ref) / ref) <= bound


def test_not_positive_definite():
    with pytest.raises(NotPositiveDefinite):
        factor_spd(np.array([[1.0, 0.0], [0.0, -5.0]]))


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        factor_spd(np.eye(3)).solve(np.zeros(4))
    with pytest.raises(DimensionMismatch):
        factor_spd(np.zeros((2, 3)))


def test_pinv_diagonal():
    d = np.diag([2.0, 0.0])
    assert np.allclose(svd(d).pinv(1e-12 * max(d.shape)), np.diag([0.5, 0.0]))


def test_pinv_orthogonal():
    th = 0.3
    q = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    assert np.allclose(svd(q).pinv(1e-12 * max(q.shape)), q.T, atol=1e-12)


def test_pinv_moore_penrose():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(6, 4))
    p = svd(a).pinv(1e-12 * max(a.shape))
    na = np.linalg.norm(a)
    assert np.linalg.norm(a @ p @ a - a) <= 1e-9 * na
    assert np.linalg.norm(p @ a @ p - p) <= 1e-8 * np.linalg.norm(p)
    assert np.linalg.norm((a @ p).T - a @ p) <= 1e-8
    assert np.linalg.norm((p @ a).T - p @ a) <= 1e-8


def test_pinv_rank_of_rank_deficient():
    # zero singular value: rank equals the retained count
    a = np.outer([1.0, 2.0, 3.0], [4.0, 5.0])
    dec = svd(a)
    assert dec.rank(1e-12) == 1
    p = svd(a).pinv(1e-12 * max(a.shape))
    assert np.linalg.matrix_rank(p, tol=1e-10) == 1


def test_svd_reconstruction():
    rng = np.random.default_rng(23)
    a = rng.normal(size=(8, 5))
    dec = svd(a)
    assert np.all(np.diff(dec.s) <= 0) and np.all(dec.s >= 0)
    assert np.linalg.norm((dec.u * dec.s) @ dec.vt - a) <= 1e-10 * np.linalg.norm(a)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("shape", [(3,), (3, 2)])
def test_solve_rejects_a_nonfinite_rhs(bad, shape):
    # the factor was checked when it was built; solve checks b itself
    b = np.ones(shape)
    b[1] = bad
    with pytest.raises(ValueError, match="finite"):
        factor_spd(np.eye(3) * 2.0).solve(b)


def _spd(rng, n: int) -> np.ndarray:
    m = rng.normal(size=(n, n))
    return m @ m.T + n * np.eye(n)


@pytest.mark.parametrize("n", [*range(1, 65), 400])
def test_vector_solve_equals_the_numpy_residual_bit_for_bit(n):
    # at any thread count, a solve is one plain cho_solve on the stored
    # factor, with no refinement pass: the per-row report and identity
    # solves keep its bits
    rng = np.random.default_rng(n)
    f = factor_spd(_spd(rng, n))
    b = rng.normal(size=n)
    assert np.array_equal(f.solve(b), scipy.linalg.cho_solve(f.cho, b))


# Run in a fresh interpreter, because the BLAS thread count is read when the
# libraries load: at one thread, matmul makes numpy's BLAS call, so products
# over C- and Fortran-ordered operands equal numpy's bits, and a 2-d solve
# is one plain cho_solve.
_ONE_THREAD_CHECK = """
import numpy as np
import scipy.linalg
from tradeoff import linalg

rng = np.random.default_rng(0)
bad = []
for n in [*range(1, 65), 305, 545]:
    m = rng.normal(size=(n, n))
    a = m @ m.T + n * np.eye(n)
    f = linalg.factor_spd(a)
    for cols in (1, 7, 64):
        b = rng.normal(size=(n, cols))
        for x in (a, np.asfortranarray(a)):
            for y in (b, np.asfortranarray(b)):
                for lhs, rhs in ((x, y), (y.T, x)):
                    if not np.array_equal(linalg.matmul(lhs, rhs), lhs @ rhs):
                        bad.append(("matmul", lhs.shape, rhs.shape))
        for y in (b, np.asfortranarray(b)):
            if not np.array_equal(f.solve(y), scipy.linalg.cho_solve(f.cho, y)):
                bad.append(("solve", n, cols))
print(len(bad), bad[:5])
"""


def test_products_and_matrix_solves_equal_numpy_at_one_blas_thread():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _ONE_THREAD_CHECK], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0 []"
