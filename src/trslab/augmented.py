"""Eigenvalue-problem view of the trust-region subproblem.

The boundary TRS is equivalent to the rightmost eigenpair of the 2n x 2n
block operator M = [[-A, g g^T / delta^2], [I, -A]]: the rightmost
eigenvalue equals the optimal multiplier and the leading half of its
eigenvector is the solution up to scaling.  The projected counterpart M_k
inherits the same structure with T_k and beta0^2 e1 e1^T / delta^2, and its
rightmost eigenpair is available in closed form from the reduced TRS
solution, so no nonsymmetric eigensolver is ever needed.  This module also
provides the spectral quantities (spectral condition number, separation,
subspace angles, projected off-diagonal norm) that feed the convergence
bounds.  ||M|| is exact when A's spectrum is known, from a 2 x 2 secular
equation (Golub 1973; Bunch, Nielsen and Sorensen 1978); other operator norms
come from the Lanczos estimator in the lanczos module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lanczos import operator_norm_2
from .linalg import IndefiniteShift, orthonormal_complement, smallest_eig_dense, solve_shifted


EIGPAIR_TOL = 1e-10  # eigpair_from_trs residual, relative to M_k's largest column norm


class VerificationFailed(Exception):
    pass


class HardCaseSignal(Exception):
    pass


class AugmentedOperator:
    """Matrix-free M = [[-A, g g^T / delta^2], [I, -A]] acting on R^{2n}."""

    def __init__(self, A, g, delta):
        self.A = A
        self.g = np.asarray(g, dtype=float)
        self.delta = float(delta)
        self.n = self.g.size
        self.shape = (2 * self.n, 2 * self.n)

    def apply(self, x):
        n = self.n
        u = x[:n]
        v = x[n:]
        coeff = float(self.g @ v) / (self.delta * self.delta)
        top = -self.A.apply(u) + coeff * self.g
        bottom = u - self.A.apply(v)
        return np.concatenate([top, bottom])

    def apply_transpose(self, x):
        n = self.n
        u = x[:n]
        v = x[n:]
        top = -self.A.apply(u) + v
        coeff = float(self.g @ u) / (self.delta * self.delta)
        bottom = coeff * self.g - self.A.apply(v)
        return np.concatenate([top, bottom])

    def to_dense(self):
        n = self.n
        if n > 500:
            raise ValueError("dense assembly is for small instances only")
        a = np.column_stack([self.A.apply(np.eye(n)[:, j]) for j in range(n)])
        m = np.zeros((2 * n, 2 * n))
        m[:n, :n] = -a
        m[:n, n:] = np.outer(self.g, self.g) / (self.delta * self.delta)
        m[n:, :n] = np.eye(n)
        m[n:, n:] = -a
        return m


@dataclass(frozen=True)
class AugmentedEigenpair:
    mu: float
    z1: np.ndarray
    z2: np.ndarray

    @property
    def vector(self):
        return np.concatenate([self.z1, self.z2])


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


def eigpair_from_trs(T, lam, h, beta0, delta):
    """Rightmost eigenpair of the projected augmented matrix, in closed form.

    For a boundary TRS solution (lam, h) the eigenvector is z1 ~ h,
    z2 = (T + lam I)^{-1} z1, normalized to unit length; the eigenvalue is
    lam itself.  The residual ||M_k z - lam z|| is verified against EIGPAIR_TOL
    times the largest column norm of M_k, a lower bound on ||M_k||_2.
    """
    h = np.asarray(h, dtype=float)
    z1 = h / float(np.linalg.norm(h))
    z2 = solve_shifted(T, lam, z1)
    scale = math.sqrt(float(z1 @ z1 + z2 @ z2))
    z1 = z1 / scale
    z2 = z2 / scale
    mk = assemble_projected(T, beta0, delta)
    z = np.concatenate([z1, z2])
    resid = float(np.linalg.norm(mk @ z - lam * z))
    col_norm = float(np.linalg.norm(mk, axis=0).max())
    if resid > EIGPAIR_TOL * max(col_norm, 1e-300):
        raise VerificationFailed(
            f"eigenpair residual {resid:.3e} exceeds {EIGPAIR_TOL:.1e} * max column norm "
            f"{col_norm:.3e}"
        )
    return AugmentedEigenpair(mu=lam, z1=z1, z2=z2)


def recover_solution(y1, y2, g, delta):
    """TRS solution from the rightmost eigenvector: s = -delta^2/(g^T y2) * y1."""
    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    g = np.asarray(g, dtype=float)
    gy2 = float(g @ y2)
    scale = float(np.linalg.norm(g)) * float(np.linalg.norm(y2))
    if abs(gy2) <= 1e-13 * scale:
        raise HardCaseSignal("g is numerically orthogonal to y2")
    return -(delta * delta / gy2) * y1


def spectral_condition(T, lam, z1):
    """Sensitivity of the rightmost projected eigenvalue: 1/(2 z1^T (T+lam I)^{-1} z1).

    z1 is the leading half of the unit-length eigenvector (z1; z2).  The
    solve is done fresh, so the identity z1^T z2 = z1^T (T+lam I)^{-1} z1
    is not assumed.
    """
    z1 = np.asarray(z1, dtype=float)
    w = solve_shifted(T, lam, z1)
    denom = 2.0 * float(z1 @ w)
    if denom <= 0.0:
        raise IndefiniteShift(-1, denom)
    return 1.0 / denom


def separation(mk_dense, z, mu):
    """sep(mu, C) = sigma_min(C - mu I) with C the complement block of z.

    C is built with an orthonormal complement of z; the smallest singular
    value comes from the smallest eigenvalue of the Gram matrix.
    """
    mk_dense = np.asarray(mk_dense, dtype=float)
    z = np.asarray(z, dtype=float)
    zperp = orthonormal_complement(z)
    c = zperp.T @ mk_dense @ zperp
    shifted = c - mu * np.eye(c.shape[0])
    gram = shifted.T @ shifted
    smallest = smallest_eig_dense(gram)
    return math.sqrt(max(smallest, 0.0))


def subspace_sine(y1, y2, Q):
    """sin of the angle between (y1; y2) and the doubled Krylov subspace.

    sin^2 = ||(I - pi)y1||^2 + ||(I - pi)y2||^2 for a unit-length stacked
    vector, with pi the projector onto range(Q).
    """
    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    r1 = y1 - Q @ (Q.T @ y1)
    r2 = y2 - Q @ (Q.T @ y2)
    s2 = float(r1 @ r1 + r2 @ r2)
    return math.sqrt(min(max(s2, 0.0), 1.0))


def m_norm_from_spectrum(theta, c, delta):
    """||M||_2 for A = V diag(theta) V' and c = V'g, without forming M.

    In the eigenbasis M'M = D + U S U': D is block diagonal with blocks
    [[t^2 + 1, -t], [-t, t^2]], U = [(-theta c / delta^2, 0), (0, c)] and
    S = [[0, 1], [1, ||c||^2 / delta^4]].  Blocks with c_i = 0 are invariant.
    Over the others det S = -1, so at most one eigenvalue exceeds their top
    block eigenvalue dmax, and at least one reaches it: bisection finds where
    det(S^-1 - U'(mu - D)^-1 U) changes sign, else returns dmax.
    """
    t2, c = np.asarray(theta, dtype=float) ** 2, np.asarray(c, dtype=float)
    root = np.sqrt(t2 + 0.25)
    top = t2 + 0.5 + root
    coupled = c != 0.0
    best = float(top[~coupled].max(initial=0.0))
    if coupled.any():
        t2, top, bottom, c2 = t2[coupled], top[coupled], (t2 + 0.5 - root)[coupled], c[coupled] ** 2
        d2 = float(delta) ** 2
        w, s = c2 * t2 / d2, float(c2.sum()) / d2
        lo, hi = float(top.max()), (math.sqrt(float(t2.max())) + 1.0 + s) ** 2
        mid = 0.5 * (lo + hi)
        while lo < mid < hi:
            inv = 1.0 / ((mid - top) * (mid - bottom))
            w11, w12, w22 = (w * (mid - t2)) @ inv / d2, w @ inv, (c2 * (mid - t2 - 1.0)) @ inv
            if (s / d2 + w11) * w22 > (1.0 - w12) ** 2:
                lo = mid
            else:
                hi = mid
            mid = 0.5 * (lo + hi)
        best = max(best, lo)
    return math.sqrt(best)


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
    """Norm of the projected off-diagonal block pi M (I - pi); diagnostic only."""
    return operator_norm_2(_ProjectedOffdiagonal(M, Q))


def solution_sine(s_k, s_opt):
    """Sine of the acute angle between two nonzero vectors plus relative error."""
    s_k = np.asarray(s_k, dtype=float)
    s_opt = np.asarray(s_opt, dtype=float)
    nk = float(np.linalg.norm(s_k))
    no = float(np.linalg.norm(s_opt))
    if nk == 0.0 or no == 0.0:
        raise ValueError("vectors must be nonzero")
    u = s_k / nk
    v = s_opt / no
    w = u - float(u @ v) * v
    sine = min(float(np.linalg.norm(w)), 1.0)
    rel = float(np.linalg.norm(s_k - s_opt)) / no
    return sine, rel
