import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trslab import augmented as aug
from trslab import experiments as ex
from trslab import linalg as la
from trslab import trs
from trslab.gltr import gltr_solve
from trslab.lanczos import lanczos_run, operator_norm_2

from oracles import assemble_projected, complement_separation, gamma_tilde, orthonormal_complement


def test_projected_assembly_examples():
    T = la.SymmetricTridiagonal([2.0], [])
    np.testing.assert_array_equal(
        assemble_projected(T, 3.0, 1.0), np.array([[-2.0, 9.0], [1.0, -2.0]])
    )
    T0 = la.SymmetricTridiagonal([0.0], [])
    np.testing.assert_array_equal(
        assemble_projected(T0, 1.0, 1.0), np.array([[0.0, 1.0], [1.0, 0.0]])
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
    assembled = assemble_projected(fact.tridiag, fact.beta0, 1.0)
    np.testing.assert_allclose(projected, assembled, atol=1e-12)


def _blocks_inputs():
    rng = np.random.default_rng(3)
    n = 30
    a = rng.standard_normal((n, n))
    a = a + a.T
    rows, cols = np.triu_indices(n)
    keep = rng.random(rows.size) < 0.2
    rows, cols = rows[keep], cols[keep]
    values = rng.standard_normal(rows.size)
    lower = rows != cols
    return [
        la.SymmetricLinearOperator.from_dense(a),
        la.SymmetricLinearOperator.from_diagonal(rng.standard_normal(n)),
        la.SymmetricLinearOperator.from_triplets(
            n,
            np.concatenate([rows, cols[lower]]),
            np.concatenate([cols, rows[lower]]),
            np.concatenate([values, values[lower]]),
        ),
    ]


@pytest.mark.parametrize("A", _blocks_inputs(), ids=["dense", "diagonal", "triplets"])
def test_augmented_operator_blocks_match_dense(A):
    rng = np.random.default_rng(3)
    n = A.dim
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
    mk = assemble_projected(T, 4.0, 1.0)
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


def _dense_pair_residual(T, beta0, delta, z1, z2, mu):
    # the route the structured check replaced: assemble M_k and multiply
    mk = assemble_projected(T, beta0, delta)
    z = np.concatenate([z1, z2])
    return float(np.linalg.norm(mk @ z - mu * z)), float(np.linalg.norm(mk, axis=0).max())


def _random_boundary_trs(rng, order):
    T = la.SymmetricTridiagonal(rng.uniform(-2.0, 1.0, order), rng.uniform(-1.0, 1.0, order - 1))
    beta0, delta = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.02, 0.05))
    sol = trs.solve_trs_tridiagonal(T, beta0, delta)
    assert sol.case == trs.BOUNDARY
    return T, beta0, delta, sol


def _assert_structured_matches_dense(T, beta0, delta, z1, z2, mu):
    resid, col_norm = aug._pair_residual(T, beta0, delta, z1, z2, mu)
    dense_resid, dense_col_norm = _dense_pair_residual(T, beta0, delta, z1, z2, mu)
    assert abs(col_norm - dense_col_norm) <= 1e-13 * dense_col_norm
    # at an eigenpair both residuals are rounding noise, on M_k's scale
    assert abs(resid - dense_resid) <= 1e-13 * max(dense_resid, dense_col_norm)


def test_structured_eigpair_check_matches_dense_assembly():
    rng = np.random.default_rng(41)
    for order in range(1, 41):
        T, beta0, delta, sol = _random_boundary_trs(rng, order)
        pair = aug.eigpair_from_trs(T, sol.lam, sol.h, beta0=beta0, delta=delta)
        _assert_structured_matches_dense(T, beta0, delta, pair.z1, pair.z2, sol.lam)
        # off an eigenpair the residual is O(1) and agrees relative to itself
        z1, z2 = rng.standard_normal(order), rng.standard_normal(order)
        mu = float(rng.uniform(-2.0, 2.0))
        resid, _ = aug._pair_residual(T, beta0, delta, z1, z2, mu)
        dense_resid, _ = _dense_pair_residual(T, beta0, delta, z1, z2, mu)
        assert abs(resid - dense_resid) <= 1e-13 * dense_resid


def test_structured_eigpair_check_matches_dense_at_every_checkpoint():
    res = ex.run_experiment(ex.ProblemSpec(family="1a", n=1000, seed=3))
    beta0, delta = res.summary["beta0"], res.spec.delta
    tridiag = res.run.factorization.tridiag
    last_k = res.run.history[-1].k
    checkpoints = [
        rec for rec in res.run.history if rec.k % ex.CHECKPOINT_EVERY == 0 or rec.k == last_k
    ]
    assert len(checkpoints) >= 5
    for rec in checkpoints:
        assert rec.case == trs.BOUNDARY
        t_k = tridiag.leading(rec.k + 1)
        pair = aug.eigpair_from_trs(t_k, rec.lam, rec.h, beta0=beta0, delta=delta)
        _assert_structured_matches_dense(t_k, beta0, delta, pair.z1, pair.z2, rec.lam)


@pytest.mark.parametrize("order", [6, 12, 25, 40])
@pytest.mark.parametrize("shift", [1e-6, -1e-6])
def test_eigpair_verification_rejects_perturbed_multiplier(order, shift):
    T, beta0, delta, sol = _random_boundary_trs(np.random.default_rng(order), order)
    aug.eigpair_from_trs(T, sol.lam, sol.h, beta0=beta0, delta=delta)
    with pytest.raises(aug.VerificationFailed):
        aug.eigpair_from_trs(T, sol.lam + shift, sol.h, beta0=beta0, delta=delta)


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
    # T = [1] at lam = 1: the unit eigenvector (z1; z2) = (2; 1)/sqrt(5) has z1 = (T + lam I) z2
    s5 = np.sqrt(5.0)
    value = aug.spectral_condition(np.array([2.0 / s5]), np.array([1.0 / s5]))
    assert value == pytest.approx(1.25, abs=1e-12)


def test_separation_examples():
    # the complement route, the oracle that aug.separation is checked against
    assert complement_separation(np.diag([1.0, 3.0]), np.eye(2)[:, 0], 1.0) == pytest.approx(2.0)
    assert complement_separation(
        np.diag([5.0, 1.0, 0.0]), np.eye(3)[:, 0], 5.0
    ) == pytest.approx(4.0, abs=1e-9)


def test_separation_against_svd_oracle():
    rng = np.random.default_rng(6)
    m = 10
    mk = rng.standard_normal((m, m))
    z = rng.standard_normal(m)
    z /= np.linalg.norm(z)
    mu = 0.3
    sep = complement_separation(mk, z, mu)
    zperp = orthonormal_complement(z)
    c = zperp.T @ mk @ zperp
    sigma_min = np.linalg.svd(c - mu * np.eye(m - 1), compute_uv=False)[-1]
    assert sep == pytest.approx(sigma_min, rel=1e-12)


def _assert_separation_matches_complement_route(T, beta0, delta, z, mu):
    sep = aug.separation(T, beta0, delta, z, mu)
    oracle = complement_separation(assemble_projected(T, beta0, delta), z, mu)
    assert abs(sep - oracle) <= 1e-10 * oracle


def test_separation_matches_complement_route():
    # the deflated Gram against the complement route on random boundary
    # instances: at the pair's own eigenvalue, and at a larger multiplier as
    # the lab's lambda* is, where dropping the deflation term would give 0
    rng = np.random.default_rng(29)
    for order in range(1, 41):
        T, beta0, delta, sol = _random_boundary_trs(rng, order)
        pair = aug.eigpair_from_trs(T, sol.lam, sol.h, beta0=beta0, delta=delta)
        for mu in (sol.lam, sol.lam * (1.0 + float(rng.uniform(1e-6, 1e-2)))):
            _assert_separation_matches_complement_route(T, beta0, delta, pair.vector, mu)


def test_separation_matches_complement_route_at_every_checkpoint(small_run):
    res = small_run
    beta0, delta = res.summary["beta0"], res.spec.delta
    tridiag = res.run.factorization.tridiag
    checked = 0
    for rec, sep in zip(res.run.history, res.diagnostics["sep"]):
        if np.isnan(sep):
            continue
        t_k = tridiag.leading(rec.k + 1)
        pair = aug.eigpair_from_trs(t_k, rec.lam, rec.h, beta0=beta0, delta=delta)
        _assert_separation_matches_complement_route(
            t_k, beta0, delta, pair.vector, res.reference.lambda_opt
        )
        checked += 1
    assert checked >= 3


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
    assert gamma_tilde(M, np.eye(n)) <= 1e-10
    res = gltr_solve(A, g, 1.0, resid_tol=1e-10)
    Qk = res.factorization.basis[:, :8]
    gt = gamma_tilde(M, Qk)
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
    assert gamma_tilde(DiagonalM(), Q) <= 1e-12


@pytest.mark.parametrize(
    "spec",
    [
        ex.default_spec("1a", n=2000, seed=5),
        ex.default_spec("3", n=2000, seed=5),
        ex.default_spec("4", n=500, seed=5),
        ex.ProblemSpec("1a", 400, seed=5, params={"orthogonal_similarity": True}),
    ],
    ids=["1a", "3", "4", "1a-similarity"],
)
def test_gamma_tilde_is_the_next_lanczos_offdiagonal(spec):
    # g = beta0 q_1 lies in range(Q_k), so pi M (I - pi) keeps only the blocks
    # -Q_k beta_{k+1} e_k q_{k+1}' on its diagonal: its norm is beta_{k+1}
    A, g = ex.generate(spec)
    M = aug.AugmentedOperator(A, g, spec.delta)
    f = lanczos_run(A, g, 59)
    for k in (0, 5, 20, 39, 59):
        beta = f.leading(k + 1).beta_next
        assert abs(gamma_tilde(M, f.basis[:, : k + 1]) - beta) <= 1e-14 * beta


def test_solution_sine_basic_and_small_angle():
    rng = np.random.default_rng(13)
    u = rng.standard_normal(9)
    u /= np.linalg.norm(u)
    sine = aug.solution_sine(3.0 * u, u)
    assert sine <= 1e-12
    perp = rng.standard_normal(9)
    perp -= (perp @ u) * u
    perp /= np.linalg.norm(perp)
    sine = aug.solution_sine(perp, u)
    assert sine == pytest.approx(1.0, abs=1e-12)
    # the norm-relative error and the sine coincide for small angles
    for theta in (1e-3, 3e-4, 1e-5):
        v = np.cos(theta) * u + np.sin(theta) * perp
        sine = aug.solution_sine(2.2 * v, u)
        rel = np.linalg.norm(2.2 * v - 2.2 * u) / np.linalg.norm(2.2 * u)
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


def _m_norm_instance(delta):
    A, g = ex.generate(ex.default_spec("1b", n=20))
    dense = np.linalg.norm(aug.AugmentedOperator(A, g, delta).to_dense(), 2)
    return A.spectrum.values, A.spectrum.to_eigenbasis(g), dense


@pytest.mark.parametrize("delta", [2e-39, 1e-40, 1e-50])
def test_m_norm_from_spectrum_raises_past_the_limit(delta):
    # the dense norms are 2.5e77, 1e80 and 1e100; past M_NORM_LIMIT the
    # bisection's products overflow, where it used to return 2^256 silently
    theta, c, dense = _m_norm_instance(delta)
    assert dense > aug.M_NORM_LIMIT
    with pytest.raises(ValueError, match=f"delta={delta!r}"):
        aug.m_norm_from_spectrum(theta, c, delta)


@pytest.mark.parametrize("delta", [3e-39, 1e-38, 1e-30])
def test_m_norm_from_spectrum_matches_dense_just_inside_the_limit(delta):
    theta, c, dense = _m_norm_instance(delta)
    assert dense <= aug.M_NORM_LIMIT
    assert abs(aug.m_norm_from_spectrum(theta, c, delta) - dense) <= 1e-13 * dense
