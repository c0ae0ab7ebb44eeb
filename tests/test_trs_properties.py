"""Property tests: the tridiagonal secular solver against the dense oracle.

Each instance is a Krylov projection T of a diagonal operator whose spectrum
is random, clustered (clusters of width 1e-10) or graded (magnitudes from
1e-8 to 1e8).  The radius is chosen from a known multiplier, so the case is
known in advance: interior, boundary, or near-hard (the lowest eigenvector
of T nearly orthogonal to e1 and the multiplier just above -theta_min).
Both entries of solve_trs_tridiagonal are checked: the cold call, and the
warm call that gltr_solve makes, with lam_lower the multiplier of the
leading block of order m - 1; with that block's factors carried along, the
warm call must give bitwise what it gives without them.  The one-sweep
Newton derivative is checked against the full solve it replaced.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trslab import linalg as la
from trslab import trs
from trslab.lanczos import lanczos_run

PROPERTY_SETTINGS = settings(max_examples=300, derandomize=True, deadline=None)
EPS = np.finfo(float).eps


def spectrum(kind, m, rng):
    if kind == "random":
        return rng.uniform(-3.0, 3.0, m)
    if kind == "clustered":
        centers = rng.uniform(-3.0, 3.0, int(rng.integers(1, 5)))
        return rng.choice(centers, m) + 1e-10 * rng.uniform(-1.0, 1.0, m)
    return rng.choice([-1.0, 1.0], m) * 10.0 ** rng.uniform(-8.0, 8.0, m)


def boundary_norm(theta, c, lam):
    return float(np.linalg.norm(c / (theta + lam)))


@st.composite
def instances(draw):
    kind = draw(st.sampled_from(["random", "clustered", "graded"]))
    case = draw(st.sampled_from(["interior", "boundary", "near-hard"]))
    m = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = spectrum(kind, m, rng)
    start = rng.standard_normal(m)
    if case == "near-hard":
        start[np.argmin(d)] = 10.0 ** rng.uniform(-8.0, -3.0)
    T = lanczos_run(la.SymmetricLinearOperator.from_diagonal(d), start, m - 1).tridiag
    beta0 = float(rng.uniform(0.5, 2.0))
    theta, vecs = np.linalg.eigh(T.to_dense())
    c = beta0 * vecs[0]
    scale = 1.0 + abs(theta[0])
    if case == "interior" and theta[0] > 0.0:
        delta = boundary_norm(theta, c, 0.0) * float(rng.uniform(1.05, 10.0))
    else:
        if case == "near-hard" and theta[0] < 0.0:
            gap = scale * 10.0 ** rng.uniform(-6.0, -3.0)
        else:
            case = "boundary"
            gap = scale * 10.0 ** rng.uniform(-3.0, 1.0)
        delta = boundary_norm(theta, c, max(0.0, -theta[0]) + gap)
    return T, beta0, delta, case


def assert_matches_oracle(sol, oracle, T, beta0, delta):
    theta = np.linalg.eigvalsh(T.to_dense())
    t_norm = T.inf_norm()
    assert sol.case == oracle.case
    # both routes resolve lam to rounding in the largest entries of T + lam I,
    # and h to that rounding relative to theta_min + lam (the oracle's
    # eigenvalues carry absolute errors of order eps ||T||)
    assert abs(sol.lam - oracle.lam) <= 1e-12 * (1.0 + t_norm + oracle.lam)
    kappa = (t_norm + oracle.lam) / (theta[0] + oracle.lam)
    assert np.linalg.norm(sol.h - oracle.h) <= 1e-12 * kappa * delta
    # the solver's own answer satisfies the optimality conditions
    rhs = np.zeros(T.order)
    rhs[0] = -beta0
    residual = T.matvec(sol.h) + sol.lam * sol.h - rhs
    assert np.linalg.norm(residual) <= 1e-14 * (beta0 + (t_norm + sol.lam) * delta)
    if sol.case == trs.BOUNDARY:
        assert abs(np.linalg.norm(sol.h) - delta) <= 1e-12 * delta
        assert sol.lam > -theta[0]
    else:
        assert sol.lam == 0.0 and np.linalg.norm(sol.h) < delta


@PROPERTY_SETTINGS
@given(instances())
def test_cold_solve_matches_dense_oracle(instance):
    T, beta0, delta, case = instance
    oracle = trs.solve_trs_dense(T.to_dense(), beta0 * np.eye(T.order)[0], delta)
    assert oracle.case == (trs.INTERIOR if case == "interior" else trs.BOUNDARY)
    sol = trs.solve_trs_tridiagonal(T, beta0, delta)
    assert_matches_oracle(sol, oracle, T, beta0, delta)


@PROPERTY_SETTINGS
@given(instances())
def test_warm_solve_from_leading_block_matches_dense_oracle(instance):
    T, beta0, delta, _ = instance
    if T.order < 2:
        return
    try:
        lam_prev = trs.solve_trs_tridiagonal(T.leading(T.order - 1), beta0, delta).lam
    except trs.NearHardCase:
        lam_prev = None
    oracle = trs.solve_trs_dense(T.to_dense(), beta0 * np.eye(T.order)[0], delta)
    sol = trs.solve_trs_tridiagonal(T, beta0, delta, lam_lower=lam_prev)
    assert_matches_oracle(sol, oracle, T, beta0, delta)


@PROPERTY_SETTINGS
@given(instances())
def test_carried_factors_give_the_uncarried_solve_bitwise(instance):
    T, beta0, delta, _ = instance
    if T.order < 2:
        return
    try:
        prev = trs.solve_trs_tridiagonal(T.leading(T.order - 1), beta0, delta)
    except trs.NearHardCase:
        return
    outcomes = []
    for factors in (None, prev.factors):
        try:
            sol = trs.solve_trs_tridiagonal(T, beta0, delta, lam_lower=prev.lam, factors=factors)
        except (trs.NearHardCase, la.NoConvergence) as exc:
            outcomes.append(repr(exc))
        else:
            outcomes.append((sol.lam, sol.h.tobytes(), sol.case, sol.secular_iterations, sol.factors))
    assert outcomes[0] == outcomes[1]


@PROPERTY_SETTINGS
@given(instances(), st.floats(-12.0, 1.0))
def test_one_sweep_derivative_matches_the_two_sweep_solve(instance, gap_exponent):
    # h'(T + lam I)^-1 h as z'D^-1 z from one forward sweep L z = h, against
    # the forward and back sweep and dot product it replaced, at the Newton
    # h of a positive definite shift above -theta_min
    T, beta0, _, _ = instance
    theta_min = float(np.linalg.eigvalsh(T.to_dense())[0])
    lam = max(0.0, -theta_min) + (1.0 + abs(theta_min)) * 10.0**gap_exponent
    try:
        d, l, y = la.ldl_shifted_e1(T, lam, -beta0)
    except la.IndefiniteShift:
        return  # a gap below the rounding of theta_min
    h, hh = la.ldl_back(d, l, y)
    reference = float(np.array(h) @ la.solve_shifted(T, lam, h))
    one_sweep = la.ldl_quadratic_form(d, l, h)
    # fixed beforehand: a few roundings for each of the m terms
    m = T.order
    assert abs(one_sweep - reference) <= 4 * m * EPS * reference
    assert abs(hh - float(np.dot(h, h))) <= 4 * m * EPS * hh


@pytest.mark.parametrize("lam_lower", [None, 0.5])
def test_decoupled_lowest_block_is_near_hard_on_both_entries(lam_lower):
    # e1 never reaches the -1 block: an exact hard case for both routes
    T = la.SymmetricTridiagonal([1.0, 0.5, -1.0], [0.3, 0.0])
    with pytest.raises(trs.NearHardCase):
        trs.solve_trs_dense(T.to_dense(), np.eye(3)[0], 10.0)
    with pytest.raises(trs.NearHardCase):
        trs.solve_trs_tridiagonal(T, 1.0, 10.0, lam_lower=lam_lower)
