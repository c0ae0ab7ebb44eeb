import numpy as np
import pytest

from trslab import linalg as la
from trslab import trs
from trslab.experiments import ProblemSpec, generate, reference_solution
from trslab.gltr import gltr_solve
from trslab.lanczos import lanczos_run
from trslab.verify import random_secular_instance


def test_boundary_one_by_one():
    T = la.SymmetricTridiagonal([2.0], [])
    sol = trs.solve_trs_tridiagonal(T, 4.0, 1.0)
    assert sol.case == trs.BOUNDARY
    assert abs(sol.lam - 2.0) <= 1e-12
    np.testing.assert_allclose(sol.h, [-1.0], atol=1e-12)


@pytest.mark.parametrize("a", [-0.028, -1.5, -1.6e7])
def test_negative_one_by_one_multiplier_is_exact(a):
    # the root beta0/delta - a is the upper end of the bracket's first bound
    beta0, delta = 1.0, 0.5
    sol = trs.solve_trs_tridiagonal(la.SymmetricTridiagonal([a], []), beta0, delta)
    exact = beta0 / delta - a
    assert sol.case == trs.BOUNDARY
    assert abs(sol.lam - exact) <= 4.0 * np.finfo(float).eps * exact


def test_interior_one_by_one():
    T = la.SymmetricTridiagonal([2.0], [])
    sol = trs.solve_trs_tridiagonal(T, 1.0, 1.0)
    assert sol.case == trs.INTERIOR
    assert sol.lam == 0.0
    np.testing.assert_allclose(sol.h, [-0.5])


def test_tridiagonal_matches_secular_oracle():
    T = la.SymmetricTridiagonal([2.0, 2.0, 2.0], [1.0, 1.0])
    sol = trs.solve_trs_tridiagonal(T, 1.0, 1.0)
    vals, vecs = la.symmetric_eig_dense(T.to_dense())
    coeffs = vecs.T @ np.array([1.0, 0.0, 0.0])
    lam_o, s_eig, _, _ = trs.solve_trs_spectral(vals, coeffs, 1.0, tol=1e-14)
    assert abs(sol.lam - lam_o) <= 1e-10 * (1 + lam_o)
    np.testing.assert_allclose(sol.h, vecs @ s_eig, atol=1e-10)


def test_oracle_equivalence_random_instances():
    rng = np.random.default_rng(77)
    worst_iters = 0
    for _ in range(150):
        T, beta0, delta, (lam_o, h_o, case_o) = random_secular_instance(rng)
        sol = trs.solve_trs_tridiagonal(T, beta0, delta)
        assert sol.case == case_o
        assert abs(sol.lam - lam_o) <= 1e-9 * (1.0 + lam_o)
        assert np.abs(sol.h - h_o).max() <= 1e-8
        worst_iters = max(worst_iters, sol.secular_iterations)
        if sol.case == trs.BOUNDARY:
            # the positive definite shift is strict
            theta_min, _ = la.extremal_eig_tridiagonal(T)
            assert sol.lam > -theta_min
    assert worst_iters <= 50


def test_dense_identity_instance():
    g = np.zeros(5)
    g[0] = 2.0
    sol = trs.solve_trs_dense(np.eye(5), g, 1.0)
    assert sol.case == trs.BOUNDARY
    assert abs(sol.lam - 1.0) <= 1e-12
    np.testing.assert_allclose(sol.h, -g / 2.0, atol=1e-12)


def test_dense_self_consistency():
    # ||A^{-1} g|| = 0.6736 < 1, so this instance is interior with lam = 0
    a = np.diag([1.0, 2.0, 3.0])
    g = np.ones(3) / np.sqrt(3)
    sol = trs.solve_trs_dense(a, g, 1.0, tol=1e-14)
    assert sol.case == trs.INTERIOR
    assert sol.lam == 0.0
    assert np.linalg.norm(sol.h) == pytest.approx(0.67357531405456, abs=1e-10)
    assert np.linalg.norm(a @ sol.h + sol.lam * sol.h + g) <= 1e-10
    # shrinking the radius produces the boundary case with the norm pinned
    sol_b = trs.solve_trs_dense(a, g, 0.5, tol=1e-14)
    assert sol_b.case == trs.BOUNDARY
    assert abs(np.linalg.norm(sol_b.h) - 0.5) <= 1e-10 * 0.5
    assert np.linalg.norm(a @ sol_b.h + sol_b.lam * sol_b.h + g) <= 1e-10


def test_dense_near_hard_case():
    with pytest.raises(trs.NearHardCase) as info:
        trs.solve_trs_dense(np.diag([-1.0, 1.0]), np.array([0.0, 1.0]), 1.0)
    assert info.value.gap == pytest.approx(0.5, abs=1e-6)


def test_tridiagonal_near_hard_case():
    # gradient decoupled from the extreme block
    T = la.SymmetricTridiagonal([1.0, -1.0], [0.0])
    with pytest.raises(trs.NearHardCase):
        trs.solve_trs_tridiagonal(T, 1.0, 10.0)


def test_near_hard_probe_raises_where_newton_would_reach_the_boundary():
    # g is nearly orthogonal to the lowest eigenvector, so ||h(lam)|| stays
    # below delta down to lam = -theta_min + 1e-14 scale, where the probe
    # looks; without the probe, Newton returns a boundary lam near 3
    d = np.concatenate([[-3.0], np.linspace(-1.0, 2.0, 49)])
    g = np.ones(50)
    g[0] = 1e-12
    T = lanczos_run(la.SymmetricLinearOperator.from_diagonal(d), g, 49).tridiag
    with pytest.raises(trs.NearHardCase) as exc:
        trs.solve_trs_tridiagonal(T, float(np.linalg.norm(g)), 43.0)
    assert exc.value.gap == pytest.approx(19.5, abs=0.05)


def test_near_hard_probe_second_try(monkeypatch):
    # theta_min reported 5e-14 (1 + |theta_min|) too high puts the first
    # probe below -theta_min, so only the second, ten times as far up, factors
    T = la.SymmetricTridiagonal([1.0, 0.5, -1.0], [0.3, 0.0])
    true_eig = trs.extremal_eig_tridiagonal

    def high_theta_min(T):
        lo, hi = true_eig(T)
        return lo + 5e-14 * (1.0 + abs(lo)), hi

    factored = []

    def spy(T, lam, y0):
        factored.append(lam)
        return la.ldl_shifted_e1(T, lam, y0)

    monkeypatch.setattr(trs, "extremal_eig_tridiagonal", high_theta_min)
    monkeypatch.setattr(trs, "ldl_shifted_e1", spy)
    with pytest.raises(trs.NearHardCase) as exc:
        trs.solve_trs_tridiagonal(T, 1.0, 10.0)
    # the start at lam = 0, then the two probes; T + lam I is definite
    # exactly when lam > 1, its decoupled last pivot being lam - 1
    assert len(factored) == 3
    assert factored[0] == 0.0 and factored[1] < 1.0 < factored[2]
    h = np.linalg.solve([[2.0, 0.3], [0.3, 1.5]], [-1.0, 0.0])
    assert abs(exc.value.gap - (10.0 - np.linalg.norm(h))) <= 1e-12


def test_dense_oracle_cap():
    with pytest.raises(ValueError):
        trs.solve_trs_dense(np.eye(501), np.ones(501), 1.0)


def test_warm_start_is_honored():
    rng = np.random.default_rng(5)
    T = la.SymmetricTridiagonal(rng.standard_normal(12), rng.standard_normal(11))
    sol = trs.solve_trs_tridiagonal(T, 1.5, 0.8)
    warm = trs.solve_trs_tridiagonal(T, 1.5, 0.8, lam_lower=sol.lam * 0.999)
    assert abs(warm.lam - sol.lam) <= 1e-9 * (1 + sol.lam)
    assert warm.secular_iterations <= sol.secular_iterations + 2


def test_kkt_exact_solution():
    A = la.SymmetricLinearOperator.from_dense([[2.0]])
    rep = trs.check_kkt(A, np.array([4.0]), 1.0, 2.0, np.array([-1.0]))
    assert rep.passed
    assert abs(rep.feasibility_gap) <= 1e-12
    assert rep.stationarity <= 1e-12
    assert abs(rep.complementarity) <= 1e-12
    assert rep.curvature_margin >= -1e-12
    # an operator that states no extremes: theta_min comes from the Krylov estimate
    A = la.SymmetricLinearOperator(1, lambda v: 2.0 * v)
    rep = trs.check_kkt(A, np.array([4.0]), 1.0, 2.0, np.array([-1.0]))
    assert rep.passed
    assert rep.curvature_margin == pytest.approx(4.0, abs=1e-12)


def test_kkt_detects_perturbed_multiplier():
    A = la.SymmetricLinearOperator.from_dense([[2.0]])
    rep = trs.check_kkt(A, np.array([4.0]), 1.0, 2.1, np.array([-1.0]))
    assert not rep.passed
    assert rep.stationarity == pytest.approx(0.1, rel=1e-10)


def test_kkt_curvature_margin_sign():
    # boundary multiplier must stay above the negative of the smallest eigenvalue
    d = np.linspace(-2.0, 2.0, 40)
    A = la.SymmetricLinearOperator.from_diagonal(d)
    rng = np.random.default_rng(1)
    g = rng.standard_normal(40)
    g /= np.linalg.norm(g)
    sol = trs.solve_trs_dense(np.diag(d), g, 1.0)
    rep = trs.check_kkt(A, g, 1.0, sol.lam, sol.h, tol=1e-9)
    assert rep.passed
    assert rep.curvature_margin == pytest.approx(sol.lam - 2.0, abs=1e-9)


def test_kkt_curvature_is_exact_for_a_known_spectrum(monkeypatch):
    # an operator with a known spectrum needs no Krylov estimate of theta_min
    def no_estimate(A):
        raise AssertionError("the spectrum is known")

    monkeypatch.setattr(trs, "estimate_extremal_eigenvalues", no_estimate)
    A, g = generate(ProblemSpec("1a", 400, 1.0, 3, {"orthogonal_similarity": True}))
    assert A.diagonal is None
    ref = reference_solution(A, g, 1.0)
    rep = trs.check_kkt(A, g, 1.0, ref.lambda_opt, ref.s_opt)
    assert rep.passed
    assert rep.curvature_margin == -2.0 + ref.lambda_opt


def test_kkt_curvature_reads_stated_extremes(monkeypatch):
    # family 4 states the extremes it was scaled by; above the order at which
    # a dense eigvalsh once stood in, check_kkt still runs no Krylov estimate
    def no_estimate(A):
        raise AssertionError("the extremes are stated")

    monkeypatch.setattr(trs, "estimate_extremal_eigenvalues", no_estimate)
    A, g = generate(ProblemSpec("4", 700, 1.0, 5))
    result = gltr_solve(A, g, 1.0)
    rep = trs.check_kkt(A, g, 1.0, result.lam, result.s)
    assert rep.passed
    assert A.spectrum is None
    assert rep.curvature_margin == A.extremes[0] + result.lam


@pytest.mark.parametrize(
    "beta0, delta, name",
    [
        pytest.param(np.nan, 1.0, "beta0", id="beta0=nan"),
        pytest.param(np.inf, 1.0, "beta0", id="beta0=inf"),
        pytest.param(0.0, 1.0, "beta0", id="beta0=0"),
        pytest.param(-1.0, 1.0, "beta0", id="beta0=-1"),
        pytest.param(1.0, np.nan, "delta", id="delta=nan"),
        pytest.param(1.0, np.inf, "delta", id="delta=inf"),
        pytest.param(1.0, 0.0, "delta", id="delta=0"),
        pytest.param(1.0, -1.0, "delta", id="delta=-1"),
    ],
)
def test_invalid_scalars_rejected_before_factorizing(monkeypatch, beta0, delta, name):
    calls = []
    for kernel in ("ldl_shifted_e1", "solve_shifted", "extremal_eig_tridiagonal"):
        monkeypatch.setattr(trs, kernel, lambda *args: calls.append(args))
    T = la.SymmetricTridiagonal([2.0, -1.0], [0.5])
    with pytest.raises(ValueError, match=name):
        trs.solve_trs_tridiagonal(T, beta0, delta)
    assert calls == []


def test_warm_boundary_and_interior_need_no_theta_min(monkeypatch):
    calls = []
    monkeypatch.setattr(trs, "extremal_eig_tridiagonal", lambda T: calls.append(T))
    T = la.SymmetricTridiagonal([2.0, 2.0, 2.0], [1.0, 1.0])
    interior = trs.solve_trs_tridiagonal(T, 0.1, 1.0)
    assert interior.case == trs.INTERIOR and interior.secular_iterations == 1
    cold = trs.solve_trs_tridiagonal(T, 1.0, 0.1)
    warm = trs.solve_trs_tridiagonal(T, 1.0, 0.1, lam_lower=0.5 * cold.lam)
    assert cold.case == warm.case == trs.BOUNDARY
    assert abs(warm.lam - cold.lam) <= 1e-12 * cold.lam
    assert calls == []


def test_warm_boundary_factors_once_per_multiplier(monkeypatch):
    # h and the Newton derivative (T + lam I)^-1 h share one factorization
    factored = []

    def counting_ldl(T, lam, y0):
        factored.append(lam)
        return la.ldl_shifted_e1(T, lam, y0)

    def no_call(*args):
        raise AssertionError("a warm boundary solve needs no other kernel")

    monkeypatch.setattr(trs, "ldl_shifted_e1", counting_ldl)
    monkeypatch.setattr(trs, "solve_shifted", no_call)
    monkeypatch.setattr(trs, "extremal_eig_tridiagonal", no_call)
    rng = np.random.default_rng(41)
    solves = 0
    while solves < 60:
        T, beta0, delta, (lam_o, _, case_o) = random_secular_instance(rng)
        if case_o != trs.BOUNDARY:
            continue
        floor = max(0.0, -float(np.linalg.eigvalsh(T.to_dense())[0]))
        factored.clear()
        sol = trs.solve_trs_tridiagonal(T, beta0, delta, lam_lower=floor + 0.5 * (lam_o - floor))
        assert sol.case == trs.BOUNDARY
        assert len(factored) == sol.secular_iterations >= 2
        solves += 1
