import numpy as np
import pytest

from trslab import linalg as la
from trslab.lanczos import (
    AlreadyBrokenDown,
    ZeroStartVector,
    _gershgorin_scale,
    _reorthogonalize,
    extend_lanczos,
    lanczos_run,
    operator_norm_2,
)


def diag_op(d):
    return la.SymmetricLinearOperator.from_diagonal(np.asarray(d, dtype=float))


def test_identity_breaks_down_immediately():
    A = diag_op(np.ones(6))
    g = np.array([1.0, 2.0, -1.0, 0.5, 0.0, 3.0])
    f = lanczos_run(A, g, 10)
    assert f.broken_down
    assert f.k == 0
    np.testing.assert_allclose(f.tridiag.diag, [1.0])
    assert f.beta_next <= 1e-12


def test_eigenvector_start_breaks_down():
    A = diag_op([1.0, 2.0, 3.0])
    f = lanczos_run(A, np.array([1.0, 0.0, 0.0]), 10)
    assert f.broken_down and f.k == 0
    np.testing.assert_allclose(f.tridiag.diag, [1.0])


def test_two_by_two_recurrence():
    A = diag_op([1.0, 2.0])
    g = np.array([1.0, 1.0]) / np.sqrt(2)
    f = lanczos_run(A, g, 10)
    np.testing.assert_allclose(f.tridiag.diag, [1.5, 1.5], atol=1e-14)
    np.testing.assert_allclose(f.tridiag.offdiag, [0.5], atol=1e-14)
    assert f.broken_down and f.k == 1


def test_zero_start_vector_rejected():
    with pytest.raises(ZeroStartVector):
        lanczos_run(diag_op([1.0, 2.0]), np.zeros(2), 3)


def _assert_same_factorization(a, b):
    assert np.array_equal(a.basis, b.basis)
    assert np.array_equal(a.tridiag.diag, b.tridiag.diag)
    assert np.array_equal(a.tridiag.offdiag, b.tridiag.offdiag)
    assert a.beta_next == b.beta_next
    assert np.array_equal(a.next_vector, b.next_vector)


def test_extension_matches_longer_run_bitwise():
    rng = np.random.default_rng(7)
    A = diag_op(rng.standard_normal(500))
    g = rng.standard_normal(500)
    # a run reserves start + 1 basis columns; each extension below outgrows
    # that store at least once, so the doubling path is crossed
    for start, steps in [(2, 3), (0, 40), (7, 30)]:
        full = lanczos_run(A, g, start + steps)
        stepped = extend_lanczos(lanczos_run(A, g, start), A, steps)
        _assert_same_factorization(full, stepped)
        one_at_a_time = lanczos_run(A, g, start)
        for _ in range(steps):
            one_at_a_time = extend_lanczos(one_at_a_time, A, 1)
        _assert_same_factorization(full, one_at_a_time)


def test_extending_one_factorization_twice_keeps_both_values():
    rng = np.random.default_rng(11)
    A = diag_op(rng.standard_normal(300))
    g = rng.standard_normal(300)
    base = lanczos_run(A, g, 3)
    first = extend_lanczos(base, A, 4)
    first_basis = first.basis.copy()
    first_diag = first.tridiag.diag.copy()
    # base no longer ends its store, so this extension works on a copy
    second = extend_lanczos(base, A, 6)
    assert np.array_equal(first.basis, first_basis)
    assert np.array_equal(first.tridiag.diag, first_diag)
    _assert_same_factorization(base, lanczos_run(A, g, 3))
    _assert_same_factorization(first, lanczos_run(A, g, 7))
    _assert_same_factorization(second, lanczos_run(A, g, 9))
    # first still ends the original store and extends it in place
    _assert_same_factorization(extend_lanczos(first, A, 2), second)


def test_basis_is_read_only():
    # three distinct eigenvalues: breakdown after 3 of the 11 reserved columns
    A = diag_op(np.repeat([1.0, 2.0, 3.0], 10))
    f = lanczos_run(A, np.ones(30), 10)
    assert f.broken_down and f.k == 2
    trimmed = f.trimmed()
    assert trimmed is not f
    assert np.array_equal(trimmed.basis, f.basis)
    for basis in (f.basis, trimmed.basis):
        with pytest.raises(ValueError):
            basis[0, 0] = 1.0


def test_extend_by_zero_is_identity():
    A = diag_op(np.arange(1.0, 9.0))
    g = np.ones(8)
    f = lanczos_run(A, g, 2)
    assert extend_lanczos(f, A, 0) is f


def test_extend_past_breakdown_raises():
    A = diag_op([1.0, 2.0])
    f = lanczos_run(A, np.array([1.0, 1.0]) / np.sqrt(2), 10)
    assert f.broken_down
    with pytest.raises(AlreadyBrokenDown):
        extend_lanczos(f, A, 1)


def _sparse_symmetric(rng, n, nnz_per_row=4):
    rows = np.repeat(np.arange(n), nnz_per_row)
    cols = rng.integers(0, n, rows.size)
    vals = rng.standard_normal(rows.size)
    r = np.concatenate([rows, cols])
    c = np.concatenate([cols, rows])
    v = np.concatenate([vals, vals])
    return la.SymmetricLinearOperator.from_triplets(n, r, c, v)


def test_invariants_on_random_sparse_operator():
    rng = np.random.default_rng(17)
    n = 1500
    A = _sparse_symmetric(rng, n)
    g = rng.standard_normal(n)
    f = lanczos_run(A, g, 80)
    Q = f.basis
    k1 = Q.shape[1]
    # orthonormality and the projected-gradient relation at every prefix
    assert np.abs(Q.T @ Q - np.eye(k1)).max() <= 1e-10
    e1 = np.zeros(k1)
    e1[0] = 1.0
    assert np.linalg.norm(Q.T @ g - f.beta0 * e1) <= 1e-10 * f.beta0
    # three-term relation
    AQ = np.column_stack([A.apply(Q[:, j]) for j in range(k1)])
    resid = AQ - Q @ f.tridiag.to_dense()
    if not f.broken_down:
        resid[:, -1] -= f.beta_next * f.next_vector
    anorm = operator_norm_2(A)
    assert np.abs(resid).max() <= 1e-10 * anorm
    # T equals the projection of A
    t_proj = Q.T @ AQ
    assert np.abs(t_proj - f.tridiag.to_dense()).max() <= 1e-9 * anorm


@pytest.mark.parametrize("m", [2, 3, 5, 10])
def test_breakdown_at_distinct_eigenvalue_count(m):
    rng = np.random.default_rng(m)
    values = np.linspace(-3, 3, m)
    d = np.repeat(values, 12)
    A = diag_op(d)
    g = rng.standard_normal(d.size)
    f = lanczos_run(A, g, 50)
    assert f.broken_down
    assert f.k == m - 1


def test_breakdown_scale_matches_row_loop():
    # the per-row loop the vectorized scale replaced: same additions, same order
    def row_loop(diag, off, beta):
        scale = 1e-300
        for i in range(len(diag)):
            left = abs(off[i - 1]) if i > 0 else 0.0
            right = abs(off[i]) if i < len(off) else beta
            scale = max(scale, abs(diag[i]) + left + right)
        return scale

    rng = np.random.default_rng(17)
    cases = [([0.0], [], 0.0), ([-2.0], [], 1e-320), ([1.0, -3.0], [0.5], 2.0)]
    for _ in range(300):
        m = int(rng.integers(1, 40))
        exponents = rng.uniform(-12, 12, 2 * m)
        values = rng.standard_normal(2 * m) * 10.0**exponents
        # beta is a norm, so never negative
        cases.append((values[:m].tolist(), values[m : 2 * m - 1].tolist(), abs(float(values[-1]))))
    for diag, off, beta in cases:
        assert _gershgorin_scale(diag, off, beta) == row_loop(diag, off, beta)


def _max_component_along(Q, r):
    return np.abs(Q.T @ r).max() / np.linalg.norm(r)


def test_second_pass_runs_when_the_first_cancels():
    rng = np.random.default_rng(23)
    n, m = 2000, 40
    Q, _ = np.linalg.qr(rng.standard_normal((n, m)))
    c = rng.standard_normal(m)
    r = Q @ c + 1e-10 * rng.standard_normal(n)
    out, beta, passes = _reorthogonalize(Q, r)
    assert passes == 2
    assert beta == np.linalg.norm(out)
    assert _max_component_along(Q, out) <= 1e-14
    # one pass alone leaves a rounding-size multiple of ||c|| along Q, far
    # above the working precision of the 1e-10-sized remainder
    lone = r - Q @ (Q.T @ r)
    assert _max_component_along(Q, lone) >= 1e-9


def test_one_pass_suffices_without_cancellation():
    rng = np.random.default_rng(29)
    n, m = 2000, 40
    Q, _ = np.linalg.qr(rng.standard_normal((n, m)))
    r = 1e-3 * Q @ rng.standard_normal(m) + rng.standard_normal(n)
    out, beta, passes = _reorthogonalize(Q, r)
    assert passes == 1
    assert beta == np.linalg.norm(out)
    assert _max_component_along(Q, out) <= 1e-14


def test_basis_stays_orthonormal_over_long_runs_on_adversarial_spectra():
    rng = np.random.default_rng(31)
    n, steps = 3000, 300
    half = n // 2
    spectra = {
        "20 clusters of width 1e-10": np.repeat(np.linspace(-1.0, 1.0, 20), n // 20)
        + rng.uniform(-5e-11, 5e-11, n),
        "signed, graded 1e-8..1e8": np.logspace(-8, 8, n) * np.where(np.arange(n) % 2, -1.0, 1.0),
        "clusters near 0 and 1e6": np.concatenate(
            [1e-3 * rng.uniform(0.0, 1.0, half), 1e6 + rng.uniform(0.0, 1.0, n - half)]
        ),
    }
    for name, d in spectra.items():
        f = lanczos_run(diag_op(d), rng.standard_normal(n), steps)
        assert not f.broken_down and f.k == steps, name
        Q = f.basis
        loss = np.abs(Q.T @ Q - np.eye(steps + 1)).max()
        assert loss <= 1e-13, (name, loss)
