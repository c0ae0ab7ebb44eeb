"""Krylov trust-region driver.

Grows the Lanczos factorization one step at a time, solves each projected
tridiagonal subproblem exactly, and records the full convergence history.
The cheap residual formula beta_{k+1} * |last entry of h_k| equals the true
residual norm ||(A + lam_k I) s_k + g||, so the driver needs only h_k at each
step: the full-space vector s = Q_k h_k is formed once, at termination.  A
caller that wants an earlier iterate forms s_k = Q[:, :k+1] h_k from the
returned basis and the record's h.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lanczos import extend_lanczos, lanczos_run
from .trs import BOUNDARY, solve_trs_tridiagonal

RESIDUAL_TOL = "residual_tol"
BREAKDOWN = "breakdown"
K_MAX = "k_max"


class ZeroGradient(ValueError):
    """The gradient is zero: invalid input, like a non-finite one."""


@dataclass
class ConvergenceRecord:
    k: int
    h: np.ndarray  # solution of the projected TRS at step k, k + 1 entries
    lam: float
    q: float
    resid_formula: float
    case: str
    secular_iterations: int


@dataclass
class GltrResult:
    history: list[ConvergenceRecord]
    lam: float
    s: np.ndarray
    q: float
    termination: str
    factorization: object = None

    @property
    def iterations(self):
        return len(self.history)


def objective_via_tridiagonal(h, lam, beta0, delta):
    """Closed-form objective value for a boundary solution h of the reduced TRS.

    (T + lam I) h = -beta0 e1 and ||h|| = delta give
    beta0 h_0 + h'Th/2 = beta0 h_0 / 2 - lam delta^2 / 2, with no solve.
    """
    return 0.5 * beta0 * float(h[0]) - 0.5 * lam * delta * delta


def explicit_residual(A, g, lam, s):
    """||(A + lam I) s + g|| by one operator apply."""
    s = np.asarray(s, dtype=float)
    return float(np.linalg.norm(A.apply(s) + lam * s + np.asarray(g, dtype=float)))


def check_budget(k_max, resid_tol):
    """Raise ValueError if k_max is negative or resid_tol is not >= 0 (a NaN
    would disable the stopping test)."""
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max!r}")
    if not resid_tol >= 0.0:
        raise ValueError(f"resid_tol must be >= 0, got {resid_tol!r}")


def gltr_solve(A, g, delta, resid_tol=1e-13, k_max=300):
    """Solve min g^T s + s^T A s / 2 over ||s|| <= delta by Krylov projection.

    Stops when the residual formula drops below resid_tol, on Lanczos
    breakdown (the projected solution is then exact), or at k_max.  The
    multiplier from step k seeds the secular solve at step k+1; multipliers
    are nondecreasing, so the previous value is a valid lower bound.  The
    LDL' factors at that multiplier come along: T_{k+1} extends T_k by one
    row, so the solve at step k+1 factors only that row at its first shift.

    Each step's record holds h_k, so the iterate s_k is
    factorization.basis[:, :k+1] @ h_k; only the final s is formed here.
    The Lanczos basis reserves min(n, k_max + 1) columns up front; pages
    become resident as columns are written, give or take a 2 MiB huge page
    on a store of 4 MiB or more.  The returned factorization holds
    only the columns it uses, and not the run's step workspace.  Raises
    ValueError, before any Lanczos work, if g has a non-finite entry, delta
    is not in (0, inf), or `check_budget` rejects k_max or resid_tol, and
    ZeroGradient (a ValueError) if g = 0.
    """
    g = np.asarray(g, dtype=float)
    if not np.all(np.isfinite(g)):
        raise ValueError("gradient must be finite")
    if not 0.0 < delta < np.inf:
        raise ValueError(f"delta must be positive and finite, got {delta!r}")
    check_budget(k_max, resid_tol)
    beta0 = float(np.linalg.norm(g))
    if beta0 == 0.0:
        raise ZeroGradient("gradient must be nonzero")

    fact = lanczos_run(A, g, 0, capacity=k_max + 1)
    history: list[ConvergenceRecord] = []
    warm = factors = None

    for k in range(k_max + 1):
        T = fact.tridiag
        sol = solve_trs_tridiagonal(T, beta0, delta, lam_lower=warm, factors=factors)
        h = sol.h
        lam = sol.lam
        if sol.case == BOUNDARY:
            q = objective_via_tridiagonal(h, lam, beta0, delta)
        else:
            q = beta0 * float(h[0]) + 0.5 * float(h @ T.matvec(h))
        resid_formula = fact.beta_next * abs(float(h[-1]))
        history.append(
            ConvergenceRecord(
                k=k,
                h=h,
                lam=lam,
                q=q,
                resid_formula=resid_formula,
                case=sol.case,
                secular_iterations=sol.secular_iterations,
            )
        )
        warm, factors = lam, sol.factors
        if fact.broken_down:
            termination = BREAKDOWN
            break
        if resid_formula <= resid_tol:
            termination = RESIDUAL_TOL
            break
        if k == k_max:
            termination = K_MAX
            break
        fact = extend_lanczos(fact, A, 1)

    final = history[-1]
    return GltrResult(
        history=history,
        lam=final.lam,
        s=fact.basis @ h,
        q=final.q,
        termination=termination,
        factorization=fact.trimmed(),
    )
