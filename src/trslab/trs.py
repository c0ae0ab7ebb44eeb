"""Safeguarded secular-equation solvers for the trust-region subproblem.

Two routes are provided on purpose.  The production path solves the reduced
tridiagonal problem (T + lam*I) h = -beta0*e1 with a bracketed Newton
iteration on 1/||h(lam)|| - 1/delta, using LDL^T solves only at positive
definite shifts and Sturm bisection for theta_min(T).  The oracle path
eigendecomposes a small dense matrix with LAPACK (numpy.linalg.eigh) and
solves the explicit secular function in the eigenbasis; it is the
brute-force reference in every equivalence test and shares no code with the
production path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    IndefiniteShift,
    NoConvergence,
    SymmetricLinearOperator,
    extremal_eig_tridiagonal,
    smallest_eig_dense,
    solve_shifted,
    symmetric_eig_dense,
)
from . import lanczos as _lanczos

BOUNDARY = "boundary"
INTERIOR = "interior"


class NearHardCase(Exception):
    """The boundary multiplier would need lam -> -theta_min with ||h|| < delta."""

    def __init__(self, gap, theta_min=None):
        self.gap = gap
        self.theta_min = theta_min
        super().__init__(f"near-hard case: boundary norm gap {gap:.3e}")


@dataclass
class KktReport:
    feasibility_gap: float  # delta - ||s||
    stationarity: float  # ||(A + lam I)s + g||
    complementarity: float  # lam * (delta - ||s||)
    curvature_margin: float  # theta_min(A) + lam (estimated)
    passed: bool


@dataclass
class TrsSolution:
    lam: float
    h: np.ndarray  # reduced coordinates (tridiagonal route) or full space (dense)
    case: str
    secular_iterations: int
    kkt: KktReport | None = None


def solve_trs_tridiagonal(T, beta0, delta, tol=1e-13, max_iter=50, lam_lower=None):
    """Solve min beta0*e1^T h + h^T T h / 2 subject to ||h|| <= delta.

    Returns an interior solution (lam = 0) when T is positive definite and
    the unconstrained minimizer fits inside the radius; otherwise finds the
    boundary multiplier by safeguarded Newton with the bracket maintained at
    every step.  `lam_lower` warm-starts the iteration (a valid lower bound
    when multipliers are known to be nondecreasing).
    """
    if beta0 <= 0.0:
        raise ValueError("beta0 must be positive")
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    m = T.order
    rhs = np.zeros(m)
    rhs[0] = -beta0

    theta_min, _ = extremal_eig_tridiagonal(T)
    iterations = 0

    if theta_min > 0.0 and (lam_lower is None or lam_lower <= 0.0):
        try:
            h0 = solve_shifted(T, 0.0, rhs)
            iterations += 1
            if float(np.linalg.norm(h0)) < delta:
                return TrsSolution(0.0, h0, INTERIOR, iterations)
        except IndefiniteShift:
            pass  # theta_min estimate was optimistic; treat as boundary

    lam_floor = max(0.0, -theta_min)
    scale = 1.0 + abs(theta_min)

    # Probe just above the floor: if the solution norm is already inside the
    # radius there, no positive definite shift can reach the boundary.
    if lam_floor > 0.0:
        probe = lam_floor + 1e-14 * scale
        for _ in range(8):
            try:
                hp = solve_shifted(T, probe, rhs)
                iterations += 1
                break
            except IndefiniteShift:
                probe = lam_floor + 10.0 * (probe - lam_floor)
        else:
            hp = None
        if hp is not None and probe - lam_floor <= 1e-13 * scale:
            np_norm = float(np.linalg.norm(hp))
            if np_norm < delta * (1.0 - tol):
                raise NearHardCase(delta - np_norm, theta_min=theta_min)

    lo = lam_floor
    hi = beta0 / delta + T.inf_norm()
    if lam_lower is not None:
        lo = max(lo, lam_lower - 1e-9 * (1.0 + abs(lam_lower)))
    hi = max(hi, lo + 1.0)

    lam = lam_floor + max(beta0 / delta - theta_min, 1.0) * 1e-3
    if lam_lower is not None:
        lam = max(lam, lam_lower)
    if not (lo < lam < hi):
        lam = lo + 0.5 * (hi - lo)

    saw_excess = False
    h = None
    for _ in range(max_iter):
        iterations += 1
        try:
            h = solve_shifted(T, lam, rhs)
        except IndefiniteShift:
            lo = max(lo, lam)
            lam = lo + 0.5 * (hi - lo)
            continue
        nh = float(np.linalg.norm(h))
        if abs(nh - delta) <= tol * delta:
            return TrsSolution(lam, h, BOUNDARY, iterations)
        if nh > delta:
            saw_excess = True
            lo = lam
        else:
            hi = lam
        if hi - lo <= 1e-14 * scale:
            if not saw_excess:
                raise NearHardCase(delta - nh, theta_min=theta_min)
            # bracket pinched to rounding resolution; accept if close enough
            if abs(nh - delta) <= 100.0 * tol * delta:
                return TrsSolution(lam, h, BOUNDARY, iterations)
            raise NoConvergence(
                f"secular bracket collapsed with boundary residual {abs(nh - delta):.3e}",
                residual=abs(nh - delta),
            )
        w = solve_shifted(T, lam, h)
        hw = float(h @ w)
        lam_new = lam + (nh - delta) / delta * (nh * nh / hw)
        if not (lo < lam_new < hi):
            lam_new = lo + 0.5 * (hi - lo)
        lam = lam_new
    raise NoConvergence(f"secular iteration budget ({max_iter}) exhausted")


def solve_trs_spectral(eigenvalues, coeffs, delta, tol=1e-14, max_iter=300):
    """Explicit secular solve given the eigendecomposition of the matrix.

    `coeffs` are the components of the gradient in the eigenbasis.  Returns
    (lam, s_eig, iterations, case) with the solution expressed in eigen
    coordinates.  This is the brute-force oracle path.
    """
    theta = np.asarray(eigenvalues, dtype=float)
    c = np.asarray(coeffs, dtype=float)
    w2 = c * c
    theta_min = float(theta.min())

    def norm_at(lam):
        return math.sqrt(float(np.sum(w2 / (theta + lam) ** 2)))

    def dnorm2_at(lam):
        return -2.0 * float(np.sum(w2 / (theta + lam) ** 3))

    iterations = 0
    if theta_min > 0.0:
        n0 = norm_at(0.0)
        iterations += 1
        if n0 < delta:
            return 0.0, -c / theta, iterations, INTERIOR

    lam_floor = max(0.0, -theta_min)
    scale = 1.0 + abs(theta_min)
    if lam_floor > 0.0:
        probe = lam_floor + 1e-14 * scale
        n_probe = norm_at(probe)
        iterations += 1
        if n_probe < delta * (1.0 - tol):
            raise NearHardCase(delta - n_probe, theta_min=theta_min)

    lo = lam_floor
    hi = max(math.sqrt(float(np.sum(w2))) / delta - theta_min, lam_floor) + 1.0
    lam = lam_floor + max(hi - lam_floor, 1.0) * 1e-3
    saw_excess = False
    for _ in range(max_iter):
        iterations += 1
        nh = norm_at(lam)
        if abs(nh - delta) <= tol * delta:
            return lam, -c / (theta + lam), iterations, BOUNDARY
        if nh > delta:
            saw_excess = True
            lo = lam
        else:
            hi = lam
        if hi - lo <= 1e-15 * scale:
            if not saw_excess:
                raise NearHardCase(delta - nh, theta_min=theta_min)
            return lam, -c / (theta + lam), iterations, BOUNDARY
        # Newton on 1/||s|| - 1/delta
        dn = dnorm2_at(lam) / (2.0 * nh)
        phi = 1.0 / nh - 1.0 / delta
        dphi = -dn / (nh * nh)
        lam_new = lam - phi / dphi if dphi != 0.0 else lo + 0.5 * (hi - lo)
        if not (lo < lam_new < hi):
            lam_new = lo + 0.5 * (hi - lo)
        lam = lam_new
    raise NoConvergence(f"spectral secular budget ({max_iter}) exhausted")


def solve_trs_dense(A, g, delta, tol=1e-13, oracle_cap=500):
    """Brute-force dense solver: full eigendecomposition plus explicit secular.

    Intended for small instances (order <= oracle_cap); serves as the
    reference in all equivalence tests.
    """
    dense = np.asarray(A, dtype=float)
    m = dense.shape[0]
    if m > oracle_cap:
        raise ValueError(f"order {m} exceeds the oracle cap {oracle_cap}")
    g = np.asarray(g, dtype=float)
    vals, vecs = symmetric_eig_dense(dense)
    c = vecs.T @ g
    lam, s_eig, iterations, case = solve_trs_spectral(vals, c, delta, tol=tol)
    s = vecs @ s_eig
    return TrsSolution(lam, s, case, iterations)


def _theta_min_estimate(apply_a, g, n, operator=None):
    """Smallest-eigenvalue estimate for the curvature margin of the KKT check."""
    if operator is not None and getattr(operator, "diagonal", None) is not None:
        return float(np.min(operator.diagonal))
    if operator is not None and getattr(operator, "dense", None) is not None:
        if operator.dense.shape[0] <= 600:
            return smallest_eig_dense(operator.dense)
    if n == 1:
        return float(apply_a(np.ones(1))[0])

    rng = np.random.default_rng(20240925)
    start = rng.standard_normal(n) + np.asarray(g, dtype=float)
    op = SymmetricLinearOperator(n, apply_a)
    fact = _lanczos.lanczos_run(op, start, min(n - 1, 120))
    lo, _ = extremal_eig_tridiagonal(fact.tridiag)
    return lo


def check_kkt(apply_a, g, delta, lam, s, tol=1e-10):
    """Evaluate the four optimality residuals of a candidate (lam, s).

    The curvature margin theta_min(A) + lam uses the exact spectrum when the
    operator carries one and a Krylov estimate otherwise.  `apply_a` may be a
    bare callable or an operator object.
    """
    operator = None
    if hasattr(apply_a, "apply"):
        operator = apply_a
        apply_fn = apply_a.apply
    else:
        apply_fn = apply_a
    g = np.asarray(g, dtype=float)
    s = np.asarray(s, dtype=float)
    n = g.size
    ns = float(np.linalg.norm(s))
    feasibility = delta - ns
    stationarity = float(np.linalg.norm(apply_fn(s) + lam * s + g))
    complementarity = lam * feasibility
    theta_min = _theta_min_estimate(apply_fn, g, n, operator=operator)
    margin = theta_min + lam
    scale = float(np.linalg.norm(g)) + abs(lam) * delta + 1.0
    passed = (
        feasibility >= -tol * (1.0 + delta)
        and stationarity <= tol * scale
        and abs(complementarity) <= tol * (1.0 + delta) * (1.0 + abs(lam))
        and margin >= -tol * (1.0 + abs(theta_min))
    )
    return KktReport(feasibility, stationarity, complementarity, margin, passed)
