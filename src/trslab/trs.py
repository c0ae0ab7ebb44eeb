"""Safeguarded secular-equation solvers for the trust-region subproblem.

Two routes are provided on purpose.  The production path solves the reduced
tridiagonal problem (T + lam*I) h = -beta0*e1 with a bracketed Newton
iteration on 1/||h(lam)|| - 1/delta, using LDL^T solves only at positive
definite shifts.  Each lam takes three sweeps over the order-m factors:
one LDL' recurrence that also sweeps -beta0*e1 forward, a back sweep that
gives h and ||h||^2, and one forward sweep L z = h that gives the Newton
derivative h'(T + lam*I)^-1 h = z'D^-1 z (More and Sorensen 1983); h
becomes an array once, when the solution is returned.  The first shift is
the previous Krylov step's multiplier, where that step's factors, extended
by T's new row, give the factorization in O(1); it alone decides whether
theta_min(T) is needed: LAPACK (numpy.linalg.eigvalsh) is asked for it only
when that shift is indefinite or falls short of the boundary.  A near-hard
probe then factors like a Newton iterate, in at most two tries.  The oracle
path eigendecomposes a small dense matrix with LAPACK (numpy.linalg.eigh)
and solves the explicit secular function in the eigenbasis; it is the
brute-force reference in every equivalence test and shares neither the
LDL' kernels nor the secular iteration with the production path.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .linalg import (
    IndefiniteShift,
    NoConvergence,
    extremal_eig_tridiagonal,
    ldl_back,
    ldl_quadratic_form,
    ldl_shifted_e1,
    symmetric_eig_dense,
)
# not called here; perfbench/layers.py rebinds them
from .linalg import smallest_eig_dense, solve_shifted  # noqa: F401
from .lanczos import estimate_extremal_eigenvalues

BOUNDARY = "boundary"
INTERIOR = "interior"

SECULAR_TOL = 1e-13  # relative tolerance on ||h|| = delta in the tridiagonal solve
SECULAR_MAX_ITER = 50  # Newton steps per tridiagonal solve
SPECTRAL_MAX_ITER = 300  # iterations of the oracle's explicit secular solve
ORACLE_CAP = 500  # largest order solve_trs_dense accepts
NORMAL_MIN = sys.float_info.min  # below it the secular Newton derivative leaves the normal floats


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
    curvature_margin: float  # theta_min(A) + lam (A.extremes, else estimated)
    passed: bool


@dataclass
class TrsSolution:
    lam: float
    h: np.ndarray  # reduced coordinates (tridiagonal route) or full space (dense)
    case: str
    secular_iterations: int
    factors: tuple | None = None  # _factor at lam, None after _boundary_between


def solve_trs_tridiagonal(T, beta0, delta, lam_lower=None, factors=None):
    """Solve min beta0*e1^T h + h^T T h / 2 subject to ||h|| <= delta.

    `lam_lower` is a lower bound on the multiplier (the previous Krylov
    step's, since multipliers are nondecreasing).  The first factorization
    is of T + start*I, start = max(lam_lower, 0), and it alone decides
    whether theta_min(T) is needed (More and Sorensen 1983).  If it is
    positive definite, start = 0 and ||h|| < delta, the solution is interior
    (lam = 0); if ||h|| >= delta*(1 - SECULAR_TOL), the multiplier lies
    above start and safeguarded Newton runs from there.  Only an indefinite
    start, or a positive start whose ||h|| falls short of delta (a lower
    bound that rounding pushed above the root), asks LAPACK for
    theta_min(T): a near-hard probe just above max(0, -theta_min) follows,
    factored and swept as a Newton iterate is (at most two tries, the
    second ten times as far up), then Newton.

    `factors` may carry the `factors` of the solution for the leading block
    of order m - 1 of T with the same beta0; taken at start, they leave the
    first factorization one row to add (see _factor).

    Once the bracket pinches to the resolution of lam, the boundary point
    between its ends is returned (see _boundary_between).  Raises
    ValueError unless beta0 and delta are positive and finite, NearHardCase
    when no positive definite shift reaches the boundary, and NoConvergence
    when SECULAR_MAX_ITER Newton steps do not converge.
    """
    if not 0.0 < beta0 < math.inf:
        raise ValueError(f"beta0 must be positive and finite, got {beta0!r}")
    if not 0.0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, got {delta!r}")
    t_norm = T.inf_norm()
    # lam <= beta0/delta - theta_min <= beta0/delta + ||T||, with equality for
    # a negative 1 x 1 T: doubling keeps the root strictly inside
    hi = 2.0 * (beta0 / delta + t_norm)
    # lam lies within ||T|| of beta0/delta, and T + lam*I resolves it no finer
    # than rounding in its largest entries; hi - pinch stays above the root
    pinch = 1e-14 * (t_norm + beta0 / delta)
    start = lam_lower if lam_lower is not None and lam_lower > 0.0 else 0.0
    try:
        fac = _factor(T, start, beta0, factors)
    except IndefiniteShift:
        first = None
    else:
        h, hh = ldl_back(*fac[1:])
        nh = math.sqrt(hh)
        if start == 0.0 and nh < delta:
            return TrsSolution(0.0, np.array(h), INTERIOR, 1, factors=fac)
        first = fac, h, hh
        if nh >= delta * (1.0 - SECULAR_TOL):
            return _secular_newton(T, beta0, delta, start, hi, start, pinch, first=first)

    theta_min, _ = extremal_eig_tridiagonal(T)
    lam_floor = max(0.0, -theta_min)
    scale = 1.0 + abs(theta_min)
    iterations = 1
    # Probe just above the floor: if the solution norm is already inside the
    # radius there, no positive definite shift can reach the boundary.  When
    # rounding in theta_min leaves the first try indefinite, a second goes ten
    # times as far up; a probe further up is no longer near the floor.
    if lam_floor > 0.0:
        probe = lam_floor + 1e-14 * scale
        for _ in range(2):
            try:
                fac = _factor(T, probe, beta0)
            except IndefiniteShift:
                probe = lam_floor + 10.0 * (probe - lam_floor)
                continue
            iterations += 1
            nh = math.sqrt(ldl_back(*fac[1:])[1])
            if probe - lam_floor <= 1e-13 * scale and nh < delta * (1.0 - SECULAR_TOL):
                raise NearHardCase(delta - nh, theta_min=theta_min)
            break

    # A positive definite start whose ||h|| fell short of delta lies above the
    # root, and Newton steps down from it; after an indefinite one, Newton
    # starts just above the floor.
    if first is None:
        start = lam_floor + max(beta0 / delta - theta_min, 1.0) * 1e-3
        if not start < hi:
            start = lam_floor + 0.5 * (hi - lam_floor)
    return _secular_newton(
        T, beta0, delta, lam_floor, hi, start, pinch, theta_min=theta_min, first=first,
        iterations=iterations,
    )


def _factor(T, lam, beta0, carried=None):
    """(lam, d, l, y): the LDL' factors of T + lam*I and y solving L y = -beta0*e1.

    `carried`, the same for the leading block of order m - 1 taken at lam,
    gains the last row by the arithmetic of ldl_shifted_e1 (bitwise the same
    factors); its pivots are positive, so by Sylvester's law of inertia the
    new pivot alone decides definiteness.
    """
    if carried is None or carried[0] != lam or len(carried[1]) != T.order - 1:
        return (lam, *ldl_shifted_e1(T, lam, -beta0))
    _, d, l, y = carried
    a, b = T.diag[-1].item(), T.offdiag[-1].item()
    li = b / d[-1]
    pivot = a + lam - b * li
    if pivot <= 0.0:
        raise IndefiniteShift(len(d), pivot)
    return lam, d + [pivot], l + [li], y + [0.0 - li * y[-1]]


def _secular_newton(
    T, beta0, delta, lo, hi, lam, pinch, theta_min=None, first=None, iterations=1
):
    """Safeguarded Newton on 1/||h(lam)|| - 1/delta inside the bracket [lo, hi].

    `first`, if given, is (fac, h, ||h||^2) at the first iterate lam, fac its
    _factor (counted in `iterations`).  Each lam is factored once, in the
    sweep that also solves L y = -beta0*e1; a back sweep gives h and ||h||^2,
    and one forward sweep L z = h gives the Newton derivative
    h^T (T + lam I)^-1 h = z^T D^-1 z (More and Sorensen 1983).  h stays a
    list until it is returned.  Once the bracket is pinched
    (hi - lo <= pinch) the boundary point between its ends is returned; if
    no evaluated lam had ||h|| > delta, the case is near-hard.
    """
    h_lo = h_hi = None  # solutions at the bracket ends, once evaluated
    for _ in range(SECULAR_MAX_ITER):
        if first is None:
            iterations += 1
            try:
                fac = _factor(T, lam, beta0)
            except IndefiniteShift:
                lo = max(lo, lam)
                lam = lo + 0.5 * (hi - lo)
                continue
            h, hh = ldl_back(*fac[1:])
        else:
            (fac, h, hh), first = first, None
        nh = math.sqrt(hh)
        if abs(nh - delta) <= SECULAR_TOL * delta:
            return TrsSolution(lam, np.array(h), BOUNDARY, iterations, factors=fac)
        if nh > delta:
            lo, h_lo = lam, h
        else:
            hi, h_hi = lam, h
        if hi - lo <= pinch:
            if h_lo is None:
                raise NearHardCase(delta - nh, theta_min=theta_min)
            return _boundary_between(lo, h_lo, hi, h_hi, delta, iterations)
        qf = ldl_quadratic_form(fac[1], fac[2], h)
        if qf < NORMAL_MIN:  # about delta^3 / beta0: take both for h / ||h|| instead
            hh, qf = 1.0, ldl_quadratic_form(fac[1], fac[2], [x / nh for x in h])
        step = (nh - delta) / delta * (hh / qf)
        if abs(step) < 0.5 * pinch:
            # a step below the resolution of lam: take half a pinch, so that
            # the bracket can close around the root
            step = math.copysign(0.5 * pinch, step)
        lam_new = lam + step
        if not (lo < lam_new < hi):
            lam_new = lo + 0.5 * (hi - lo)
        lam = lam_new
    raise NoConvergence(f"secular iteration budget ({SECULAR_MAX_ITER}) exhausted")


def _boundary_between(lo, h_lo, hi, h_hi, delta, iterations):
    """The point of norm delta on the segment from h(lo) to h(hi).

    Near the hard case ||h(lam)|| can move by more than the tolerance within
    one rounding unit of lam, so no representable lam meets it.  With
    t in (0, 1) chosen so that ||(1 - t) h_lo + t h_hi|| = delta and
    lam = (1 - t) lo + t hi, the residual (T + lam I) h + beta0 e1 equals
    t (1 - t) (hi - lo) (h_lo - h_hi): the width of the pinched bracket.
    """
    h_lo = np.array(h_lo)
    d = np.array(h_hi) - h_lo
    a = float(d @ d)
    b = 2.0 * float(h_lo @ d)
    c = float(h_lo @ h_lo) - delta * delta
    # f(t) = a t^2 + b t + c falls from f(0) > 0 to f(1) < 0, so b < 0; this
    # is the smaller root in the form that does not cancel
    t = 2.0 * c / (-b + math.sqrt(b * b - 4.0 * a * c))
    return TrsSolution(lo + t * (hi - lo), h_lo + t * d, BOUNDARY, iterations)


def solve_trs_spectral(eigenvalues, coeffs, delta, tol=1e-14):
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
    for _ in range(SPECTRAL_MAX_ITER):
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
    raise NoConvergence(f"spectral secular budget ({SPECTRAL_MAX_ITER}) exhausted")


def solve_trs_dense(A, g, delta, tol=1e-13):
    """Brute-force dense solver: full eigendecomposition plus explicit secular.

    Intended for small instances (order <= ORACLE_CAP); serves as the
    reference in all equivalence tests.
    """
    dense = np.asarray(A, dtype=float)
    m = dense.shape[0]
    if m > ORACLE_CAP:
        raise ValueError(f"order {m} exceeds the oracle cap {ORACLE_CAP}")
    g = np.asarray(g, dtype=float)
    vals, vecs = symmetric_eig_dense(dense)
    c = vecs.T @ g
    lam, s_eig, iterations, case = solve_trs_spectral(vals, c, delta, tol=tol)
    s = vecs @ s_eig
    return TrsSolution(lam, s, case, iterations)


def explicit_residual(A, g, lam, s):
    """||(A + lam I) s + g|| by one operator apply."""
    s = np.asarray(s, dtype=float)
    return float(np.linalg.norm(A.apply(s) + lam * s + np.asarray(g, dtype=float)))


def check_kkt(A, g, delta, lam, s, tol=1e-10):
    """Evaluate the four optimality residuals of a candidate (lam, s).

    The curvature margin theta_min(A) + lam reads theta_min from the
    operator's `extremes` when it states them, and from a Krylov estimate
    otherwise.
    """
    g = np.asarray(g, dtype=float)
    s = np.asarray(s, dtype=float)
    ns = float(np.linalg.norm(s))
    feasibility = delta - ns
    stationarity = explicit_residual(A, g, lam, s)
    complementarity = lam * feasibility
    theta_min = (A.extremes or estimate_extremal_eigenvalues(A))[0]
    margin = theta_min + lam
    scale = float(np.linalg.norm(g)) + abs(lam) * delta + 1.0
    passed = (
        feasibility >= -tol * (1.0 + delta)
        and stationarity <= tol * scale
        and abs(complementarity) <= tol * (1.0 + delta) * (1.0 + abs(lam))
        and margin >= -tol * (1.0 + abs(theta_min))
    )
    return KktReport(feasibility, stationarity, complementarity, margin, passed)
