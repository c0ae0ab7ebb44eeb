import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trslab import augmented as aug
from trslab import linalg as la
from trslab import trs
from trslab.gltr import gltr_solve
from trslab.lanczos import operator_norm_2


def test_projected_assembly_examples():
    T = la.SymmetricTridiagonal([2.0], [])
    np.testing.assert_array_equal(
        aug.assemble_projected(T, 3.0, 1.0), np.array([[-2.0, 9.0], [1.0, -2.0]])
    )
    T0 = la.SymmetricTridiagonal([0.0], [])
    np.testing.assert_array_equal(
        aug.assemble_projected(T0, 1.0, 1.0), np.array([[0.0, 1.0], [1.0, 0.0]])
    )


def test_projected_assembly_matches_operator_projection():
    rng = np.random.default_rng(2)
    n, k = 50, 5
    d = rng.standard_normal(n)
    A = la.SymmetricLinearOperator.from_diagonal(d)
    g = rng.standard_normal(n)
    from trslab.lanczos import lanczos_run

    fact = lanczos_run(A, g, k)
    Q = fact.basis
    M = aug.AugmentedOperator(A, g, 1.0).to_dense()
    Qt = np.zeros((2 * n, 2 * (k + 1)))
    Qt[:n, : k + 1] = Q
    Qt[n:, k + 1 :] = Q
    projected = Qt.T @ M @ Qt
    assembled = aug.assemble_projected(fact.tridiag, fact.beta0, 1.0)
    np.testing.assert_allclose(projected, assembled, atol=1e-12)


def test_augmented_operator_blocks_match_dense():
    rng = np.random.default_rng(3)
    n = 30
    a = rng.standard_normal((n, n))
    a = a + a.T
    A = la.SymmetricLinearOperator.from_dense(a)
    g = rng.standard_normal(n)
    M = aug.AugmentedOperator(A, g, 0.7)
    dense = M.to_dense()
    for _ in range(5):
        x = rng.standard_normal(2 * n)
        np.testing.assert_allclose(M.apply(x), dense @ x, atol=1e-12)
        np.testing.assert_allclose(M.apply_transpose(x), dense.T @ x, atol=1e-12)


def test_eigpair_hand_instance():
    # A=[1], g=[2], delta=1: multiplier 1, eigenvector (2,1)/sqrt(5) up to sign
    T = la.SymmetricTridiagonal([1.0], [])
    pair = aug.eigpair_from_trs(T, 1.0, np.array([-1.0]), beta0=2.0, delta=1.0)
    z = pair.vector
    expect = np.array([2.0, 1.0]) / np.sqrt(5.0)
    assert abs(abs(z @ expect) - 1.0) <= 1e-12
    s = aug.recover_solution(pair.z1, pair.z2, np.array([2.0]), 1.0)
    np.testing.assert_allclose(s, [-1.0], atol=1e-12)


def test_eigpair_second_hand_instance():
    T = la.SymmetricTridiagonal([2.0], [])
    pair = aug.eigpair_from_trs(T, 2.0, np.array([-1.0]), beta0=4.0, delta=1.0)
    mk = aug.assemble_projected(T, 4.0, 1.0)
    z = pair.vector
    assert np.linalg.norm(mk @ z - 2.0 * z) <= 1e-12


def test_eigpair_scaling_invariance():
    rng = np.random.default_rng(9)
    T = la.SymmetricTridiagonal(rng.uniform(-2, -1, 6), rng.uniform(-0.5, 0.5, 5))
    sol = trs.solve_trs_tridiagonal(T, 1.3, 0.9)
    assert sol.case == trs.BOUNDARY
    p1 = aug.eigpair_from_trs(T, sol.lam, sol.h, beta0=1.3, delta=0.9)
    p2 = aug.eigpair_from_trs(T, sol.lam, 7.5 * sol.h, beta0=1.3, delta=0.9)
    np.testing.assert_allclose(np.abs(p1.vector), np.abs(p2.vector), atol=1e-13)


def test_eigpair_verification_rejects_wrong_multiplier():
    T = la.SymmetricTridiagonal([2.0], [])
    with pytest.raises(aug.VerificationFailed):
        aug.eigpair_from_trs(T, 2.5, np.array([-1.0]), beta0=4.0, delta=1.0)


def test_recover_solution_homogeneity_and_hard_signal():
    rng = np.random.default_rng(4)
    y1 = rng.standard_normal(5)
    y2 = rng.standard_normal(5)
    g = rng.standard_normal(5)
    s1 = aug.recover_solution(y1, y2, g, 1.2)
    s2 = aug.recover_solution(3.0 * y1, 3.0 * y2, g, 1.2)
    np.testing.assert_allclose(s1, s2, atol=1e-12)
    y2_perp = y2 - (y2 @ g) * g / (g @ g)
    with pytest.raises(aug.HardCaseSignal):
        aug.recover_solution(y1, y2_perp, g, 1.2)


def test_spectral_condition_scalar_instance():
    T = la.SymmetricTridiagonal([1.0], [])
    s5 = np.sqrt(5.0)
    value = aug.spectral_condition(T, 1.0, np.array([2.0 / s5]))
    assert value == pytest.approx(1.25, abs=1e-12)


def test_separation_examples():
    assert aug.separation(np.diag([1.0, 3.0]), np.eye(2)[:, 0], 1.0) == pytest.approx(2.0)
    assert aug.separation(np.diag([5.0, 1.0, 0.0]), np.eye(3)[:, 0], 5.0) == pytest.approx(
        4.0, abs=1e-9
    )


def test_separation_against_svd_oracle():
    rng = np.random.default_rng(6)
    m = 10
    mk = rng.standard_normal((m, m))
    z = rng.standard_normal(m)
    z /= np.linalg.norm(z)
    mu = 0.3
    sep = aug.separation(mk, z, mu)
    zperp = la.orthonormal_complement(z)
    c = zperp.T @ mk @ zperp
    sigma_min = np.linalg.svd(c - mu * np.eye(m - 1), compute_uv=False)[-1]
    assert sep == pytest.approx(sigma_min, rel=1e-12)


def test_subspace_sine_limits():
    Q = np.eye(4)[:, :2]
    y_in1 = np.array([0.6, 0.0, 0.0, 0.0])
    y_in2 = np.array([0.0, 0.8, 0.0, 0.0])
    assert aug.subspace_sine(y_in1, y_in2, Q) <= 1e-14
    y_out = np.array([0.0, 0.0, 1.0, 0.0])
    assert aug.subspace_sine(y_out, np.zeros(4), Q) == pytest.approx(1.0)
    Q1 = np.eye(2)[:, :1]
    assert aug.subspace_sine(np.array([0.0, 1.0]), np.zeros(2), Q1) == pytest.approx(1.0)


def test_gamma_tilde_properties():
    rng = np.random.default_rng(11)
    n = 100
    d = rng.standard_normal(n)
    A = la.SymmetricLinearOperator.from_diagonal(d)
    g = rng.standard_normal(n)
    g /= np.linalg.norm(g)
    M = aug.AugmentedOperator(A, g, 1.0)
    # full-space projector annihilates the off-diagonal block
    assert aug.gamma_tilde(M, np.eye(n)) <= 1e-10
    res = gltr_solve(A, g, 1.0, resid_tol=1e-10)
    Qk = res.factorization.basis[:, :8]
    gt = aug.gamma_tilde(M, Qk)
    assert gt <= operator_norm_2(M) * (1.0 + 1e-13)


def test_gamma_tilde_vanishes_for_invariant_coordinate_block():
    # diagonal M commutes with coordinate projectors
    d = np.arange(1.0, 9.0)
    A = la.SymmetricLinearOperator.from_diagonal(d)

    class DiagonalM:
        shape = (16, 16)

        def apply(self, x):
            return np.concatenate([-d * x[:8], -d * x[8:]])

        apply_transpose = apply

    Q = np.eye(8)[:, :3]
    assert aug.gamma_tilde(DiagonalM(), Q) <= 1e-12


def test_solution_sine_basic_and_small_angle():
    rng = np.random.default_rng(13)
    u = rng.standard_normal(9)
    u /= np.linalg.norm(u)
    sine, rel = aug.solution_sine(3.0 * u, u)
    assert sine <= 1e-12
    perp = rng.standard_normal(9)
    perp -= (perp @ u) * u
    perp /= np.linalg.norm(perp)
    sine, _ = aug.solution_sine(perp, u)
    assert sine == pytest.approx(1.0, abs=1e-12)
    # the norm-relative error and the sine coincide for small angles
    for theta in (1e-3, 3e-4, 1e-5):
        v = np.cos(theta) * u + np.sin(theta) * perp
        sine, rel = aug.solution_sine(2.2 * v, 2.2 * u)
        assert abs(sine - rel) <= 1e-6


def test_full_space_recovery_on_dense_instance():
    rng = np.random.default_rng(15)
    n = 120
    a = rng.standard_normal((n, n))
    a = 0.5 * (a + a.T)
    g = rng.standard_normal(n)
    g /= np.linalg.norm(g)
    sol = trs.solve_trs_dense(a, g, 1.0, tol=1e-14)
    vals, vecs = la.symmetric_eig_dense(a)
    # exact eigenvector of the block operator, built from the optimum
    y1 = sol.h.copy()
    y2 = vecs @ ((vecs.T @ y1) / (vals + sol.lam))
    scale = np.sqrt(y1 @ y1 + y2 @ y2)
    y1 /= scale
    y2 /= scale
    M = aug.AugmentedOperator(la.SymmetricLinearOperator.from_dense(a), g, 1.0)
    y = np.concatenate([y1, y2])
    m_norm = operator_norm_2(M)
    assert np.linalg.norm(M.apply(y) - sol.lam * y) <= 1e-10 * m_norm
    s_rec = aug.recover_solution(y1, y2, g, 1.0)
    assert np.abs(s_rec - sol.h).max() <= 1e-8


def test_trs_and_eigen_routes_agree_along_a_run(small_run):
    # the secular solution and the projected rightmost eigenpair describe the
    # same object: recovering the reduced solution from the eigenvector must
    # reproduce the secular h at every sampled iteration
    res = small_run
    beta0 = res.summary["beta0"]
    delta = res.spec.delta
    tridiag = res.run.factorization.tridiag
    for rec in res.run.history[::7]:
        h = rec.h
        assert rec.case == trs.BOUNDARY
        t_k = tridiag.leading(rec.k + 1)
        pair = aug.eigpair_from_trs(t_k, rec.lam, h, beta0=beta0, delta=delta)
        g_reduced = np.zeros(rec.k + 1)
        g_reduced[0] = beta0
        h_rec = aug.recover_solution(pair.z1, pair.z2, g_reduced, delta)
        assert np.abs(h_rec - h).max() <= 1e-10 * (1.0 + float(np.abs(h).max()))


def dense_m_norm(theta, c, delta):
    A = la.SymmetricLinearOperator.from_diagonal(theta)
    return np.linalg.norm(aug.AugmentedOperator(A, c, delta).to_dense(), 2)


M_NORM_SPECTRA = {
    "n=1": ([0.7], [1.3]),
    "n=1-negative": ([-2.5], [0.4]),
    "n=2": ([-1.0, 3.0], [0.6, -0.8]),
    "repeated-and-zero": ([0.0, 0.0, 1.5, 1.5, 1.5, -1.0], [0.3, -0.2, 0.5, 0.1, -0.4, 0.6]),
    "all-zero-theta": ([0.0, 0.0, 0.0], [0.1, -0.2, 0.05]),
    "all-positive": (np.linspace(0.5, 4.0, 12), np.linspace(1.0, -1.0, 12)),
    "all-negative": (-np.linspace(0.5, 4.0, 12), np.linspace(-0.3, 1.0, 12)),
    # the coefficient of the largest |theta| is zero, so is one in between
    "zero-at-argmax": ([-3.0, -1.0, 0.0, 2.0, 5.0], [0.5, 0.0, 0.2, -0.7, 0.0]),
    "zero-at-negative-argmax": ([-6.0, -1.0, 0.5, 2.0], [0.0, 0.4, 0.0, -0.9]),
    "only-one-coupled": ([-2.0, 1.0, 4.0], [0.0, 1e-3, 0.0]),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("delta", [1e-2, 1.0, 1e2])
@pytest.mark.parametrize("name", sorted(M_NORM_SPECTRA))
def test_m_norm_from_spectrum_matches_dense_two_norm(name, delta):
    theta, c = (np.asarray(v, dtype=float) for v in M_NORM_SPECTRA[name])
    dense = dense_m_norm(theta, c, delta)
    assert abs(aug.m_norm_from_spectrum(theta, c, delta) - dense) <= 1e-13 * dense


@st.composite
def spectral_instances(draw):
    kind = draw(st.sampled_from(["random", "clustered", "graded"]))
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        theta = rng.uniform(-3.0, 3.0, n)
    elif kind == "clustered":
        centers = rng.uniform(-3.0, 3.0, int(rng.integers(1, 4)))
        theta = rng.choice(centers, n) + 1e-10 * rng.uniform(-1.0, 1.0, n)
    else:
        theta = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-6.0, 3.0, n)
    # sparse coefficients, sometimes with the largest |theta| decoupled
    c = rng.standard_normal(n) * (rng.uniform(size=n) < rng.uniform(0.1, 1.0))
    if draw(st.booleans()):
        c[np.argmax(np.abs(theta))] = 0.0
    if not c.any():
        c[int(rng.integers(n))] = rng.standard_normal()
    delta = 10.0 ** rng.uniform(-3.0, 3.0)
    return theta, c, delta


@pytest.mark.filterwarnings("error")
@settings(max_examples=300, derandomize=True, deadline=None)
@given(spectral_instances())
def test_m_norm_from_spectrum_matches_dense_on_adversarial_spectra(instance):
    theta, c, delta = instance
    dense = dense_m_norm(theta, c, delta)
    assert abs(aug.m_norm_from_spectrum(theta, c, delta) - dense) <= 1e-13 * dense
