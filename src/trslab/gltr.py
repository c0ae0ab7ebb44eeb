"""Krylov trust-region driver.

Runs the Lanczos process once and, from inside it, solves each step's
projected tridiagonal subproblem exactly: the solve is the run's per-step
`stop` hook, which records the full convergence history and ends the run
at the stopping rule.
The cheap residual formula beta_{k+1} * |last entry of h_k| equals the true
residual norm ||(A + lam_k I) s_k + g||, so the driver needs only h_k at each
step: the full-space vector s = Q_k h_k is formed once, at termination.  A
caller that wants an earlier iterate forms s_k = Q[:, :k+1] h_k from the
returned basis and the record's h.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lanczos import _clipped, extend_lanczos, lanczos_run, q_times
from .trs import BOUNDARY, explicit_residual, solve_trs_tridiagonal  # noqa: F401  re-exported

RESIDUAL_TOL = "residual_tol"
BREAKDOWN = "breakdown"
K_MAX = "k_max"
MIN_DELTA = 1e-150  # the secular solve's ||h||^2, about delta^2, stays a normal float


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


def check_budget(k_max, resid_tol):
    """Raise ValueError if k_max is negative or resid_tol is not >= 0 (a NaN
    would disable the stopping test)."""
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max!r}")
    if not resid_tol >= 0.0:
        raise ValueError(f"resid_tol must be >= 0, got {resid_tol!r}")


def _termination(rec, broken_down, resid_tol, k_max):
    """gltr_solve's stopping rule at record rec, None to go on: breakdown at
    rec, then resid_formula <= resid_tol, then k == k_max."""
    if broken_down:
        return BREAKDOWN
    if rec.resid_formula <= resid_tol:
        return RESIDUAL_TOL
    if rec.k == k_max:
        return K_MAX
    return None


def _result(history, termination, fact):
    """The GltrResult ending at history[-1], whose factorization is fact.

    s is formed from fact's basis before it is trimmed: trimming may copy the
    basis, and a BLAS product can round differently on other alignments.
    """
    final = history[-1]
    s = q_times(fact.basis, final.h)
    return GltrResult(history, final.lam, s, final.q, termination, fact.trimmed())


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
    The per-step work (projected solve, record, stopping rule) is the
    `stop` hook of one lanczos_run call, so no factorization value is built
    per step.  The Lanczos basis reserves min(n, k_max + 1) columns up
    front, or as many as lanczos.RESERVE_BYTES holds if fewer; the run
    fills them, and past them each extend_lanczos call fills a copy of
    twice the order.  Pages become resident as columns are written, give or
    take a 2 MiB huge page on a store of 4 MiB or more.  The returned
    factorization holds only the columns it uses, and not the run's step
    workspace.  Raises ValueError, before any Lanczos work, if g has a
    non-finite entry or a length other than A's order, delta is not in
    [MIN_DELTA, inf), or `check_budget` rejects k_max or resid_tol, and
    ZeroGradient (a ValueError) if g = 0.  An exception from a step's
    projected solve propagates out of the run.
    """
    g = np.asarray(g, dtype=float)
    if not np.all(np.isfinite(g)):
        raise ValueError("gradient must be finite")
    if not MIN_DELTA <= delta < np.inf:
        raise ValueError(f"delta must lie in [{MIN_DELTA:g}, inf), got {delta!r}")
    check_budget(k_max, resid_tol)
    beta0 = float(np.linalg.norm(g))
    if beta0 == 0.0:
        raise ZeroGradient("gradient must be nonzero")

    history: list[ConvergenceRecord] = []
    warm = factors = termination = None

    def step(T, beta_next, broken_down):
        # one projected solve per Lanczos step, called by the run itself
        nonlocal warm, factors, termination
        sol = solve_trs_tridiagonal(T, beta0, delta, lam_lower=warm, factors=factors)
        h, lam = sol.h, sol.lam
        if sol.case == BOUNDARY:
            q = objective_via_tridiagonal(h, lam, beta0, delta)
        else:
            q = beta0 * float(h[0]) + 0.5 * float(h @ T.matvec(h))
        resid_formula = beta_next * abs(float(h[-1]))
        k = len(history)
        rec = ConvergenceRecord(k, h, lam, q, resid_formula, sol.case, sol.secular_iterations)
        history.append(rec)
        termination = _termination(rec, broken_down, resid_tol, k_max)
        warm, factors = lam, sol.factors
        return termination is not None

    # the run fills the columns it reserves; past a reservation capped by
    # RESERVE_BYTES, each extension fills a copy of twice the order
    steps = max(0, _clipped(k_max + 1, g.size) - 1)
    fact = lanczos_run(A, g, steps, capacity=k_max + 1, stop=step)
    while termination is None:
        fact = extend_lanczos(fact, A, min(fact.k + 1, k_max - fact.k), stop=step)
    return _result(history, termination, fact)


def gltr_prefix(run, resid_tol, k_max):
    """The GltrResult that gltr_solve(A, g, delta, resid_tol, k_max) returns,
    read off `run`, a gltr_solve result on the same (A, g, delta) that ran
    further; None when `run` stopped first.

    The Krylov spaces are nested and each step depends only on the steps
    before it, so a run at a tighter tolerance or a larger k_max passes
    through the same records, bitwise.  gltr_solve's stopping rule applies to
    each record, breakdown only at the run's last.  The factorization is the
    run's leading one (views of its arrays), and s is formed from its basis
    as gltr_solve forms it.  Raises ValueError if `check_budget` rejects
    k_max or resid_tol.
    """
    check_budget(k_max, resid_tol)
    last = run.history[-1]
    for rec in run.history:
        broken_down = rec is last and run.factorization.broken_down
        termination = _termination(rec, broken_down, resid_tol, k_max)
        if termination is not None:
            fact = run.factorization.leading(rec.k + 1)
            return _result(run.history[: rec.k + 1], termination, fact)
    return None
