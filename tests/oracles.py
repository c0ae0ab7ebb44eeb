"""Reference routes for what the package computes from T's structure.

The tests check the structured code against these: the assembled projected
operator M_k, a Householder orthonormal complement, the separation through
that complement, the norm of the projected off-diagonal block pi M (I - pi)
by the Lanczos estimator (the package reads it as beta_{k+1}), and the
spectral condition by a fresh solve (the package reads it off the pair).
It also holds a Lanczos process that reorthogonalizes fully on every step,
for tests whose T must not follow the package's reorthogonalization rule.
"""

import math

import numpy as np

from trslab.lanczos import operator_norm_2
from trslab.linalg import IndefiniteShift, SymmetricTridiagonal, solve_shifted


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
