import numpy as np
import pytest

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


def test_jitter_escalation_recorded():
    # exactly singular: needs a positive shift to factor
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    f = factor_spd(a)
    assert f.jitter > 0.0


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

