"""Reference routes for what the package computes from T's structure.

The tests check the structured code against these: the assembled projected
operator M_k, a Householder orthonormal complement, the separation through
that complement, the norm of the projected off-diagonal block pi M (I - pi)
by the Lanczos estimator (the package reads it as beta_{k+1}), and the
spectral condition by a fresh solve (the package reads it off the pair).
It also holds a Lanczos process that reorthogonalizes fully on every step,
for tests whose T must not follow the package's reorthogonalization rule,
and gltr_solve as a loop of one-step extensions, the regression reference
for the gltr_solve whose projected solves run inside the Lanczos run.
"""

import math

import numpy as np

from trslab.gltr import (
    BOUNDARY,
    BREAKDOWN,
    K_MAX,
    RESIDUAL_TOL,
    ConvergenceRecord,
    GltrResult,
    objective_via_tridiagonal,
)
from trslab.lanczos import extend_lanczos, lanczos_run, operator_norm_2, q_times
from trslab.linalg import IndefiniteShift, SymmetricTridiagonal, solve_shifted
from trslab.trs import solve_trs_tridiagonal


class ZeroVector(Exception):
    pass


def assemble_projected(T, beta0, delta):
    """Dense projected operator [[-T, beta0^2 e1 e1^T/delta^2], [I, -T]]."""
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    m = T.order
    td = T.to_dense()
    out = np.zeros((2 * m, 2 * m))
    out[:m, :m] = -td
    out[0, m] = beta0 * beta0 / (delta * delta)
    out[m:, :m] = np.eye(m)
    out[m:, m:] = -td
    return out


def orthonormal_complement(v):
    """Orthonormal basis of the complement of a unit vector, via one Householder
    reflector; returns an m x (m-1) matrix."""
    v = np.asarray(v, dtype=float)
    m = v.size
    nv = float(np.linalg.norm(v))
    if nv == 0.0:
        raise ZeroVector("cannot complement the zero vector")
    if abs(nv - 1.0) > 1e-8:
        raise ValueError(f"input must have unit norm, got {nv!r}")
    v = v / nv
    sigma = -1.0 if v[0] >= 0.0 else 1.0
    u = v.copy()
    u[0] -= sigma
    unorm2 = float(u @ u)
    comp = np.zeros((m, m - 1))
    comp[1:, :] = np.eye(m - 1)
    if unorm2 > 0.0:
        comp -= np.outer(u, (2.0 / unorm2) * u[1:])
    return comp


def complement_separation(mk_dense, z, mu):
    """sep(mu, C) = sigma_min(C - mu I) with C = Z' M Z for a Householder
    complement Z of the unit vector z, from the smallest eigenvalue of the
    Gram matrix (C - mu I)'(C - mu I)."""
    mk_dense = np.asarray(mk_dense, dtype=float)
    zperp = orthonormal_complement(np.asarray(z, dtype=float))
    c = zperp.T @ mk_dense @ zperp
    shifted = c - mu * np.eye(c.shape[0])
    smallest = float(np.linalg.eigvalsh(shifted.T @ shifted)[0])
    return math.sqrt(max(smallest, 0.0))


class _ProjectedOffdiagonal:
    """Operator pi * M * (I - pi) with pi the projector onto the doubled basis."""

    def __init__(self, M, Q):
        self.M = M
        self.Q = Q
        self.shape = M.shape

    def _project(self, x):
        n = self.Q.shape[0]
        u = self.Q @ (self.Q.T @ x[:n])
        v = self.Q @ (self.Q.T @ x[n:])
        return np.concatenate([u, v])

    def apply(self, x):
        return self._project(self.M.apply(x - self._project(x)))

    def apply_transpose(self, x):
        y = self.M.apply_transpose(self._project(x))
        return y - self._project(y)


def gamma_tilde(M, Q):
    """Norm of the projected off-diagonal block pi M (I - pi), by Lanczos on its Gram."""
    return operator_norm_2(_ProjectedOffdiagonal(M, Q))


def fresh_spectral_condition(T, lam, z1):
    """1/(2 z1^T (T + lam I)^{-1} z1) by a fresh LDL' solve, for the leading half
    z1 of a unit eigenvector (z1; z2); it does not assume z2 = (T + lam I)^{-1} z1."""
    z1 = np.asarray(z1, dtype=float)
    denom = 2.0 * float(z1 @ solve_shifted(T, lam, z1))
    if denom <= 0.0:
        raise IndefiniteShift(-1, denom)
    return 1.0 / denom


def full_reorthogonalization_tridiagonal(A, g, order):
    """T of the given order from the Lanczos process on (A, g), run without a
    breakdown test.  Every step subtracts a classical Gram-Schmidt pass
    against the whole basis, and a second when the first leaves less than
    1/sqrt(2) of the residual (Kahan-Parlett), written with out-of-place
    expressions."""
    g = np.asarray(g, dtype=float)
    Q = np.empty((g.size, order), order="F")
    Q[:, 0] = g / np.linalg.norm(g)
    diag, off = [], []
    for j in range(1, order + 1):
        q = Q[:, j - 1]
        w = A.apply(q)
        diag.append(float(q @ w))
        if j == order:
            break
        r = w - diag[-1] * q
        if off:
            r = r - off[-1] * Q[:, j - 2]
        before = float(np.linalg.norm(r))
        r = r - Q[:, :j] @ (Q[:, :j].T @ r)
        if np.linalg.norm(r) < before / math.sqrt(2.0):
            r = r - Q[:, :j] @ (Q[:, :j].T @ r)
        off.append(float(np.linalg.norm(r)))
        Q[:, j] = r / off[-1]
    return SymmetricTridiagonal(np.array(diag), np.array(off))


def gltr_one_step_at_a_time(A, g, delta, resid_tol=1e-13, k_max=300):
    """gltr_solve's result by a loop over one-step extensions: lanczos_run to
    step 0 with k_max + 1 columns reserved, then one projected solve per step
    and extend_lanczos(f, A, 1) until breakdown, resid_tol or k_max.  Each
    solve is handed a T rebuilt from the factorization's arrays, so the
    carried LDL' factors read T's last row from the arrays."""
    beta0 = float(np.linalg.norm(g))
    fact = lanczos_run(A, g, 0, capacity=k_max + 1)
    history = []
    warm = factors = None
    for k in range(k_max + 1):
        T = SymmetricTridiagonal(fact.tridiag.diag, fact.tridiag.offdiag, fact.tridiag.inf_norm())
        sol = solve_trs_tridiagonal(T, beta0, delta, lam_lower=warm, factors=factors)
        h, lam = sol.h, sol.lam
        if sol.case == BOUNDARY:
            q = objective_via_tridiagonal(h, lam, beta0, delta)
        else:
            q = beta0 * float(h[0]) + 0.5 * float(h @ T.matvec(h))
        resid_formula = fact.beta_next * abs(float(h[-1]))
        history.append(
            ConvergenceRecord(k, h, lam, q, resid_formula, sol.case, sol.secular_iterations)
        )
        if fact.broken_down:
            termination = BREAKDOWN
        elif resid_formula <= resid_tol:
            termination = RESIDUAL_TOL
        elif k == k_max:
            termination = K_MAX
        else:
            warm, factors = lam, sol.factors
            fact = extend_lanczos(fact, A, 1)
            continue
        return GltrResult(history, lam, q_times(fact.basis, h), q, termination, fact.trimmed())
