import numpy as np
import pytest

from trslab import experiments as ex
from trslab import linalg as la
from trslab.lanczos import operator_norm_2

from oracles import ZeroVector, orthonormal_complement


def test_ldl_two_step():
    T = la.SymmetricTridiagonal([2.0, 2.0], [1.0])
    d, l = la.ldl_shifted_e1(T, 0.0, 0.0)[:2]
    np.testing.assert_allclose(d, [2.0, 1.5])
    np.testing.assert_allclose(l, [0.5])


def test_ldl_single_entry_shift():
    T = la.SymmetricTridiagonal([2.0], [])
    d, _ = la.ldl_shifted_e1(T, 1.0, 0.0)[:2]
    np.testing.assert_allclose(d, [3.0])


def test_ldl_zero_pivot_signals_indefinite():
    T = la.SymmetricTridiagonal([0.0, 0.0], [1.0])
    with pytest.raises(la.IndefiniteShift) as info:
        la.ldl_shifted_e1(T, 0.0, 0.0)
    assert info.value.pivot_index == 0


def test_ldl_reconstructs_shifted_matrix():
    rng = np.random.default_rng(0)
    T = la.SymmetricTridiagonal(rng.uniform(2, 4, 12), rng.uniform(-1, 1, 11))
    lam = 0.7
    d, l = la.ldl_shifted_e1(T, lam, 0.0)[:2]
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


def _ldl_shifted_array_kernel(T, lam):
    # the kernel that the list LDL' replaced: the shift added to the numpy
    # diagonal, pivots and multipliers returned as arrays
    diag = (T.diag + lam).tolist()
    off = T.offdiag.tolist()
    m = len(diag)
    d = [0.0] * m
    l = [0.0] * (m - 1)
    prev = diag[0]
    if prev <= 0.0:
        raise la.IndefiniteShift(0, prev)
    d[0] = prev
    for i in range(1, m):
        li = off[i - 1] / prev
        l[i - 1] = li
        prev = diag[i] - off[i - 1] * li
        if prev <= 0.0:
            raise la.IndefiniteShift(i, prev)
        d[i] = prev
    return np.array(d), np.array(l)


def _solve_shifted_array_kernel(T, lam, rhs):
    # the solve that solve_shifted replaced, reading numpy scalars one by one
    d, l = _ldl_shifted_array_kernel(T, lam)
    b = np.asarray(rhs, dtype=float).tolist()
    m = len(b)
    y = [0.0] * m
    y[0] = b[0]
    for i in range(1, m):
        y[i] = b[i] - l[i - 1] * y[i - 1]
    h = [0.0] * m
    h[m - 1] = y[m - 1] / d[m - 1]
    for i in range(m - 2, -1, -1):
        h[i] = y[i] / d[i] - l[i] * h[i + 1]
    return np.array(h)


def _ldl_factors(T, lam):
    return la.ldl_shifted_e1(T, lam, 0.0)[:2]


def _kernel_outcome(factor, solve, T, lam, rhs):
    try:
        d, l = factor(T, lam)
    except la.IndefiniteShift as exc:
        return ("indefinite", exc.pivot_index, np.float64(exc.pivot_value).tobytes())
    h = solve(T, lam, rhs)
    return tuple(np.asarray(a, dtype=float).tobytes() for a in (d, l, h))


def test_list_kernel_matches_array_kernel_bitwise():
    rng = np.random.default_rng(29)
    for m in range(1, 201):
        graded_diag = np.logspace(-8, 8, m)
        for T in (
            la.SymmetricTridiagonal(rng.standard_normal(m), rng.standard_normal(m - 1)),
            la.SymmetricTridiagonal(
                1.0 + 1e-10 * rng.uniform(size=m), 1e-10 * rng.uniform(size=m - 1)
            ),
            la.SymmetricTridiagonal(
                graded_diag, 0.5 * np.sqrt(graded_diag[:-1] * graded_diag[1:])
            ),
        ):
            vals = np.linalg.eigvalsh(T.to_dense())
            lo, hi = float(vals[0]), float(vals[-1])
            scale = 1.0 + abs(lo)
            shifts = [(-lo + 10.0 ** rng.uniform(-12, 0) * scale, False), (-lo + scale, False)]
            if hi - lo > 1e-8 * scale:
                shifts.append((-0.5 * (lo + hi), True))
            for lam, indefinite in shifts:
                rhs = rng.standard_normal(m)
                rhs[rng.uniform(size=m) < 0.3] = 0.0
                new = _kernel_outcome(_ldl_factors, la.solve_shifted, T, lam, rhs)
                old = _kernel_outcome(
                    _ldl_shifted_array_kernel, _solve_shifted_array_kernel, T, lam, rhs
                )
                assert new == old
                assert (new[0] == "indefinite") == indefinite


def _assert_extremal_eig_splits_pivots(T):
    # the contract that the secular solver's interior test and floor probe
    # rely on, checked by the LDL' pivots rather than by another eigensolver:
    # T - x*I factors just below theta_min and fails just above it, and
    # likewise -T + x*I around theta_max
    lo, hi = la.extremal_eig_tridiagonal(T)
    assert lo <= hi
    e = 1e-14 * T.inf_norm()
    negated = la.SymmetricTridiagonal(-T.diag, T.offdiag)
    la.ldl_shifted_e1(T, -(lo - e), 0.0)
    la.ldl_shifted_e1(negated, hi + e, 0.0)
    with pytest.raises(la.IndefiniteShift):
        la.ldl_shifted_e1(T, -(lo + e), 0.0)
    with pytest.raises(la.IndefiniteShift):
        la.ldl_shifted_e1(negated, hi - e, 0.0)


def test_extremal_eig_examples():
    T = la.SymmetricTridiagonal([2.0, 2.0], [1.0])
    lo, hi = la.extremal_eig_tridiagonal(T)
    np.testing.assert_allclose([lo, hi], [1.0, 3.0], atol=1e-10)
    lo, hi = la.extremal_eig_tridiagonal(la.SymmetricTridiagonal([5.0], []))
    assert lo == hi == 5.0
    lo, hi = la.extremal_eig_tridiagonal(la.SymmetricTridiagonal([-2.0, 0.0, 2.0], [0.0, 0.0]))
    np.testing.assert_allclose([lo, hi], [-2.0, 2.0], atol=1e-10)
    # repeated eigenvalues, decoupled blocks, a coupling whose square underflows
    for diag, offdiag in (
        ([3.0, -1.0, 3.0, -1.0, 3.0], [0.0] * 4),
        ([2.0, 2.0, 5.0, 5.0], [1.0, 0.0, -1.0]),
        ([1.0, 2.0], [1e-200]),
    ):
        _assert_extremal_eig_splits_pivots(la.SymmetricTridiagonal(diag, offdiag))


def test_extremal_eig_matches_dense_oracle():
    # the oracle is the LDL' pivot recurrence (see the helper above)
    rng = np.random.default_rng(3)
    for _ in range(25):
        m = int(rng.integers(1, 51))
        T = la.SymmetricTridiagonal(rng.standard_normal(m), rng.standard_normal(max(m - 1, 0)))
        _assert_extremal_eig_splits_pivots(T)
    m = 30
    signs = (-1.0) ** np.arange(m - 1)
    cluster = la.SymmetricTridiagonal(
        1.0 + 1e-9 * rng.uniform(size=m), 1e-10 * rng.uniform(size=m - 1)
    )
    mixed = la.SymmetricTridiagonal(rng.standard_normal(m), signs * rng.uniform(0.5, 2.0, m - 1))
    graded_diag = np.logspace(-8, 7, m)
    graded = la.SymmetricTridiagonal(graded_diag, 0.5 * np.sqrt(graded_diag[:-1] * graded_diag[1:]))
    scaled = la.SymmetricTridiagonal(1e6 * rng.standard_normal(m), 1e6 * rng.standard_normal(m - 1))
    for T in (cluster, mixed, graded, scaled):
        _assert_extremal_eig_splits_pivots(T)


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


class _Dense:
    """A dense matrix as an operator with shape, apply and apply_transpose."""

    def __init__(self, a):
        self.a = np.asarray(a, dtype=float)
        self.shape = self.a.shape

    def apply(self, v):
        return self.a @ v

    def apply_transpose(self, v):
        return self.a.T @ v


def test_operator_norm_examples():
    for a, expected in (
        (np.diag([2.0, -5.0]), 5.0),
        (np.eye(17), 1.0),
        (np.array([[0.0, 2.0], [0.0, 0.0]]), 2.0),
    ):
        assert abs(operator_norm_2(_Dense(a)) - expected) <= 1e-13 * expected
    assert operator_norm_2(_Dense(np.zeros((6, 6)))) == 0.0


def test_operator_norm_matches_gram_eigenvalue():
    rng = np.random.default_rng(13)
    for m in (20, 60, 100):
        b = rng.standard_normal((m, m))
        sigma = np.linalg.norm(b, 2)
        assert abs(operator_norm_2(_Dense(b)) - sigma) <= 1e-13 * sigma


def test_orthonormal_complement_properties():
    rng = np.random.default_rng(21)
    # defining property on random unit vectors
    for m in (2, 3, 11):
        v = rng.standard_normal(m)
        v /= np.linalg.norm(v)
        comp = orthonormal_complement(v)
        assert comp.shape == (m, m - 1)
        np.testing.assert_allclose(comp.T @ comp, np.eye(m - 1), atol=1e-12)
        np.testing.assert_allclose(comp.T @ v, 0.0, atol=1e-12)
    # e1 in R^2 -> (0, 1) up to sign
    comp = orthonormal_complement(np.array([1.0, 0.0]))
    np.testing.assert_allclose(np.abs(comp[:, 0]), [0.0, 1.0], atol=1e-14)
    # symmetric vector
    comp = orthonormal_complement(np.array([1.0, 1.0]) / np.sqrt(2))
    np.testing.assert_allclose(np.abs(comp[:, 0]), np.array([1.0, 1.0]) / np.sqrt(2), atol=1e-12)
    with pytest.raises(ZeroVector):
        orthonormal_complement(np.zeros(3))



def test_operator_states_what_it_knows_of_its_spectrum():
    d = np.array([3.0, -1.0, 2.0])
    A = la.SymmetricLinearOperator.from_diagonal(d)
    assert A.extremes == (-1.0, 3.0)
    w = np.array([1.0, 2.0, 3.0])
    assert A.spectrum.to_eigenbasis(w) is w and A.spectrum.from_eigenbasis(w) is w
    # extremes without a spectrum, or neither
    B = la.SymmetricLinearOperator.from_dense(np.diag(d), extremes=(-1.0, 3.0))
    assert B.spectrum is None and B.extremes == (-1.0, 3.0)
    assert la.SymmetricLinearOperator.from_dense(np.diag(d)).extremes is None
    # a spectrum fixes its extremes
    with pytest.raises(ValueError, match="spectrum fixes"):
        la.SymmetricLinearOperator(3, lambda v: d * v, spectrum=la.Spectrum(d), extremes=(0, 1))


def _block_operators(n):
    # (operator, rounding allowed per column) for every constructor, the
    # Householder similarity and a bare user function
    rng = np.random.default_rng(23)
    a = rng.standard_normal((n, n))
    a = a + a.T
    rows, cols = np.tril_indices(n)
    values = a[rows, cols]
    lower = rows != cols
    d = rng.standard_normal(n)
    spec = ex.ProblemSpec("1a", n, params={"orthogonal_similarity": True})
    return [
        ("diagonal", la.SymmetricLinearOperator.from_diagonal(d), 0.0),
        ("dense", la.SymmetricLinearOperator.from_dense(a), 4 * np.finfo(float).eps),
        (
            "triplets",
            la.SymmetricLinearOperator.from_triplets(
                n,
                np.concatenate([rows, cols[lower]]),
                np.concatenate([cols, rows[lower]]),
                np.concatenate([values, values[lower]]),
            ),
            0.0,
        ),
        ("similarity", ex.generate(spec)[0], 0.0),
        ("function", la.SymmetricLinearOperator(n, lambda v: a @ v + np.sin(v)), 0.0),
    ]


@pytest.mark.parametrize("n", [2, 7, 60, 300])
@pytest.mark.parametrize("p", [1, 2, 5])
def test_block_apply_matches_per_column_apply(n, p):
    # columns given contiguous, as Lanczos vectors are
    V = np.random.default_rng(n + p).standard_normal((n, p))
    for name, A, rtol in _block_operators(n):
        block = A.apply_block(V)
        assert block.shape == (n, p), name
        for j in range(p):
            column = A.apply(np.ascontiguousarray(V[:, j]))
            if rtol == 0.0:
                assert np.array_equal(block[:, j], column), name
            else:
                err = np.linalg.norm(block[:, j] - column)
                assert err <= rtol * np.linalg.norm(column), name
