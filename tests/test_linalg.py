import numpy as np
import pytest

from trslab import linalg as la


def test_ldl_two_step():
    T = la.SymmetricTridiagonal([2.0, 2.0], [1.0])
    d, l = la.ldl_shifted(T, 0.0)
    np.testing.assert_allclose(d, [2.0, 1.5])
    np.testing.assert_allclose(l, [0.5])


def test_ldl_single_entry_shift():
    T = la.SymmetricTridiagonal([2.0], [])
    d, _ = la.ldl_shifted(T, 1.0)
    np.testing.assert_allclose(d, [3.0])


def test_ldl_zero_pivot_signals_indefinite():
    T = la.SymmetricTridiagonal([0.0, 0.0], [1.0])
    with pytest.raises(la.IndefiniteShift) as info:
        la.ldl_shifted(T, 0.0)
    assert info.value.pivot_index == 0


def test_ldl_reconstructs_shifted_matrix():
    rng = np.random.default_rng(0)
    T = la.SymmetricTridiagonal(rng.uniform(2, 4, 12), rng.uniform(-1, 1, 11))
    lam = 0.7
    d, l = la.ldl_shifted(T, lam)
    m = T.order
    L = np.eye(m) + np.diag(l, -1)
    rec = L @ np.diag(d) @ L.T
    np.testing.assert_allclose(rec, T.to_dense() + lam * np.eye(m), rtol=1e-12, atol=1e-12)


def test_solve_shifted_examples():
    T = la.SymmetricTridiagonal([2.0], [])
    np.testing.assert_allclose(la.solve_shifted(T, 1.0, [3.0]), [1.0])
    T = la.SymmetricTridiagonal([1.0, 2.0], [0.0])
    np.testing.assert_allclose(la.solve_shifted(T, 0.0, [1.0, 1.0]), [1.0, 0.5])
    T = la.SymmetricTridiagonal([2.0, 2.0], [1.0])
    np.testing.assert_allclose(la.solve_shifted(T, 0.0, [1.0, 0.0]), [2 / 3, -1 / 3])


def test_solve_shifted_random_residuals():
    # 1000 well-conditioned instances; residual must stay at solver precision
    rng = np.random.default_rng(42)
    for _ in range(1000):
        m = int(rng.integers(1, 51))
        T = la.SymmetricTridiagonal(rng.uniform(2, 4, m), rng.uniform(-1, 1, max(m - 1, 0)))
        lam = float(rng.uniform(0, 1))
        rhs = rng.standard_normal(m)
        h = la.solve_shifted(T, lam, rhs)
        resid = np.linalg.norm(T.matvec(h) + lam * h - rhs)
        assert resid <= 1e-12 * np.linalg.norm(rhs)


def test_extremal_eig_examples():
    T = la.SymmetricTridiagonal([2.0, 2.0], [1.0])
    lo, hi = la.extremal_eig_tridiagonal(T)
    np.testing.assert_allclose([lo, hi], [1.0, 3.0], atol=1e-10)
    lo, hi = la.extremal_eig_tridiagonal(la.SymmetricTridiagonal([5.0], []))
    assert lo == hi == 5.0
    lo, hi = la.extremal_eig_tridiagonal(la.SymmetricTridiagonal([-2.0, 0.0, 2.0], [0.0, 0.0]))
    np.testing.assert_allclose([lo, hi], [-2.0, 2.0], atol=1e-10)


def test_extremal_eig_matches_dense_oracle():
    rng = np.random.default_rng(3)
    for _ in range(25):
        m = int(rng.integers(1, 51))
        T = la.SymmetricTridiagonal(rng.standard_normal(m), rng.standard_normal(max(m - 1, 0)))
        lo, hi = la.extremal_eig_tridiagonal(T, tol=1e-12)
        vals, _ = la.symmetric_eig_dense(T.to_dense())
        assert abs(lo - vals[0]) <= 1e-10 * (1 + abs(vals[0]))
        assert abs(hi - vals[-1]) <= 1e-10 * (1 + abs(vals[-1]))


def test_jacobi_examples():
    vals, _ = la.symmetric_eig_dense(np.diag([3.0, 1.0]))
    np.testing.assert_allclose(vals, [1.0, 3.0])
    vals, _ = la.symmetric_eig_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(vals, [-1.0, 1.0], atol=1e-14)
    vals, vecs = la.symmetric_eig_dense(np.array([[2.0, 1.0], [1.0, 2.0]]))
    np.testing.assert_allclose(vals, [1.0, 3.0], atol=1e-14)
    # eigenvectors (1, -+1)/sqrt(2) up to sign
    expect = np.array([1.0, -1.0]) / np.sqrt(2)
    overlap = abs(vecs[:, 0] @ expect)
    np.testing.assert_allclose(overlap, 1.0, atol=1e-12)


def test_jacobi_decomposition_quality():
    rng = np.random.default_rng(9)
    for m in (1, 2, 7, 40, 90):
        a = rng.standard_normal((m, m))
        a = 0.5 * (a + a.T)
        vals, vecs = la.symmetric_eig_dense(a)
        scale = max(np.abs(vals).max(), 1e-300)
        assert np.linalg.norm(a @ vecs - vecs * vals) <= 1e-11 * scale * m
        assert np.linalg.norm(vecs.T @ vecs - np.eye(m)) <= 1e-12 * m
        assert np.all(np.diff(vals) >= 0)


def test_operator_norm_examples():
    est = la.operator_norm_2(la.DenseOperator(np.diag([2.0, -5.0])))
    assert abs(est.value - 5.0) <= 1e-6
    est = la.operator_norm_2(la.DenseOperator(np.eye(17)))
    assert abs(est.value - 1.0) <= 1e-9
    est = la.operator_norm_2(la.DenseOperator(np.array([[0.0, 2.0], [0.0, 0.0]])))
    assert abs(est.value - 2.0) <= 1e-8


def test_operator_norm_matches_gram_eigenvalue():
    rng = np.random.default_rng(13)
    for m in (20, 60, 100):
        b = rng.standard_normal((m, m))
        est = la.operator_norm_2(la.DenseOperator(b), tol=1e-11, maxit=50000)
        gram_vals, _ = la.symmetric_eig_dense(b.T @ b)
        sigma = np.sqrt(gram_vals[-1])
        assert abs(est.value - sigma) <= 1e-6 * sigma


def test_orthonormal_complement_properties():
    rng = np.random.default_rng(21)
    # defining property on random unit vectors
    for m in (2, 3, 11):
        v = rng.standard_normal(m)
        v /= np.linalg.norm(v)
        comp = la.orthonormal_complement(v)
        assert comp.shape == (m, m - 1)
        np.testing.assert_allclose(comp.T @ comp, np.eye(m - 1), atol=1e-12)
        np.testing.assert_allclose(comp.T @ v, 0.0, atol=1e-12)
    # e1 in R^2 -> (0, 1) up to sign
    comp = la.orthonormal_complement(np.array([1.0, 0.0]))
    np.testing.assert_allclose(np.abs(comp[:, 0]), [0.0, 1.0], atol=1e-14)
    # symmetric vector
    comp = la.orthonormal_complement(np.array([1.0, 1.0]) / np.sqrt(2))
    np.testing.assert_allclose(np.abs(comp[:, 0]), np.array([1.0, 1.0]) / np.sqrt(2), atol=1e-12)
    with pytest.raises(la.ZeroVector):
        la.orthonormal_complement(np.zeros(3))


def test_cg_solver():
    rng = np.random.default_rng(2)
    m = 50
    a = rng.standard_normal((m, m))
    spd = a @ a.T + m * np.eye(m)
    b = rng.standard_normal(m)
    x = la.solve_spd_operator(lambda v: spd @ v, b, tol=1e-13)
    assert np.linalg.norm(spd @ x - b) <= 1e-11 * np.linalg.norm(b)
