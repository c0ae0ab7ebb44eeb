"""Eigenvalue-problem view of the trust-region subproblem.

The boundary TRS is equivalent to the rightmost eigenpair of the 2n x 2n
block operator M = [[-A, g g^T / delta^2], [I, -A]]: the rightmost
eigenvalue equals the optimal multiplier and the leading half of its
eigenvector is the solution up to scaling.  The projected counterpart M_k
inherits the same structure with T_k and beta0^2 e1 e1^T / delta^2, and its
rightmost eigenpair is available in closed form from the reduced TRS
solution, so no nonsymmetric eigensolver is ever needed.  This module also
provides the spectral quantities (spectral condition number, separation,
subspace angles) that feed the convergence bounds.  Two need no estimate:
the projected eigenvalue's condition is 1/(2 z1'z2) of the checked pair, and
as g lies in range(Q_k), ||pi M (I - pi)|| is the next Lanczos off-diagonal
beta_{k+1}.  The separation needs no complement of the eigenvector z: with
B = M_k - mu I, B'(I - zz')B + c zz' has the complement Gram's eigenvalues
and c, and is built from T's entries.  ||M|| is exact when A's spectrum is
known, from a 2 x 2 secular equation (Golub 1973; Bunch, Nielsen and
Sorensen 1978); other operator norms come from the Lanczos estimator in the
lanczos module, whose M'M applies reach A in n x 2 blocks.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .lanczos import operator_norm_2  # noqa: F401  not called here; perfbench/layers.py rebinds it
from .linalg import IndefiniteShift, smallest_eig_dense, solve_shifted


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

    def _halves(self, x):
        """(u, v, A u, A v) for x = (u; v), from one block apply of A."""
        x = np.asarray(x, dtype=float)
        return (x[: self.n], x[self.n :], *self.A.apply_block(x.reshape(2, self.n).T).T)

    def apply(self, x):
        u, v, au, av = self._halves(x)
        coeff = float(self.g @ v) / (self.delta * self.delta)
        return np.concatenate([-au + coeff * self.g, u - av])

    def apply_transpose(self, x):
        u, v, au, av = self._halves(x)
        coeff = float(self.g @ u) / (self.delta * self.delta)
        return np.concatenate([-au + v, coeff * self.g - av])

    def to_dense(self):
        n = self.n
        if n > 500:
            raise ValueError("dense assembly is for small instances only")
        a = self.A.apply_block(np.eye(n))
        gg = np.outer(self.g, self.g) / (self.delta * self.delta)
        return np.block([[-a, gg], [np.eye(n), -a]])


@dataclass(frozen=True)
class AugmentedEigenpair:
    mu: float
    z1: np.ndarray
    z2: np.ndarray

    @property
    def vector(self):
        return np.concatenate([self.z1, self.z2])


def _pair_residual(T, beta0, delta, z1, z2, mu):
    """(||M_k z - mu z||, M_k's largest column norm) for z = (z1; z2), from T.

    M_k z = (-T z1 + b (e1'z2) e1; z1 - T z2) with b = beta0^2 / delta^2, so
    two T.matvec calls give the residual.  Column j of M_k's left half is
    (-T e_j; e_j), the first of its right half (b e1; -T e1) and the others
    (0; -T e_j), so the largest column norm is the square root of the larger
    of max_j ||T e_j||^2 + 1 and ||T e1||^2 + b^2.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    b = beta0 * beta0 / (delta * delta)
    top = -T.matvec(z1) - mu * z1
    top[0] += b * z2[0]
    bottom = z1 - T.matvec(z2) - mu * z2
    resid = math.sqrt(float(top @ top + bottom @ bottom))
    cols = T.diag * T.diag
    cols[:-1] += T.offdiag * T.offdiag
    cols[1:] += T.offdiag * T.offdiag
    return resid, math.sqrt(max(float(cols.max()) + 1.0, float(cols[0]) + b * b))


def eigpair_from_trs(T, lam, h, beta0, delta):
    """Rightmost eigenpair of the projected augmented matrix, in closed form.

    For a boundary TRS solution (lam, h) the eigenvector is z1 ~ h,
    z2 = (T + lam I)^{-1} z1, normalized to unit length; the eigenvalue is
    lam itself.  The residual ||M_k z - lam z|| is verified against EIGPAIR_TOL
    times the largest column norm of M_k, a lower bound on ||M_k||_2; both
    come from T's entries and matvec, without assembling M_k.
    """
    h = np.asarray(h, dtype=float)
    z1 = h / float(np.linalg.norm(h))
    z2 = solve_shifted(T, lam, z1)
    scale = math.sqrt(float(z1 @ z1 + z2 @ z2))
    z1 = z1 / scale
    z2 = z2 / scale
    resid, col_norm = _pair_residual(T, beta0, delta, z1, z2, lam)
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


def spectral_condition(z1, z2):
    """Sensitivity of the rightmost projected eigenvalue: 1/(2 z1^T z2).

    (z1; z2) is the unit eigenvector from eigpair_from_trs, whose residual
    check certifies z1 = (T + lam I) z2, so z1^T z2 = z1^T (T + lam I)^{-1} z1.
    """
    denom = 2.0 * float(np.dot(z1, z2))
    if denom <= 0.0:
        raise IndefiniteShift(-1, denom)
    return 1.0 / denom


def separation(T, beta0, delta, z, mu):
    """sep(mu, C) = sigma_min(C - mu I), C the complement block of the unit
    eigenvector z of M_k, from T's entries.

    z is an eigenvector of B = M_k - mu I too, so B'(I - zz')B has z in its
    null space and on z's complement is the Gram (C - mu I)'(C - mu I).  The
    deflated Gram G = B'B - ww' + c zz', w = B'z, has its eigenvalues and c,
    and c = ||B||_1 ||B||_inf >= ||B'B|| bounds them all: sep^2 is G's least.
    With S = T + mu I and b = beta0^2/delta^2, B'B = [[S^2 + I, -S - b S e1 e1'],
    [-S - b e1 e1' S, S^2 + b^2 e1 e1']] and w = (z2 - S z1; b z1[0] e1 - S z2).
    """
    m = T.order
    b = beta0 * beta0 / (delta * delta)
    s = T.to_dense() + mu * np.eye(m)
    s2 = (T.diag + mu)[:, None] * s  # S^2 = S times each column of S, by T.matvec's recurrence
    s2[:-1] += T.offdiag[:, None] * s[1:]
    s2[1:] += T.offdiag[:, None] * s[:-1]
    gram = np.empty((2 * m, 2 * m))
    gram[:m, :m], gram[m:, m:], gram[:m, m:], gram[m:, :m] = s2 + np.eye(m), s2, -s, -s
    gram[:m, m] -= b * s[:, 0]
    gram[m, :m] -= b * s[0]
    gram[m, m] += b * b
    w = np.concatenate([z[m:] - s @ z[:m], -(s @ z[m:])])
    w[m] += b * z[0]
    c = max(np.abs(s).sum(axis=1).max() + 1.0, np.abs(s[0]).sum() + b) ** 2  # ||B||_1 ||B||_inf
    gram -= np.column_stack([w, -c * z]) @ np.stack([w, z])
    return math.sqrt(max(smallest_eig_dense(gram), 0.0))


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


# both ||M|| routes form about ||M||^4: the bisection below multiplies two
# shifts of ||M||^2, and Lanczos on M'M squares the entries of M'M v
M_NORM_LIMIT = sys.float_info.max ** 0.25


def m_norm_from_spectrum(theta, c, delta):
    """||M||_2 for A = V diag(theta) V' and c = V'g, without forming M.

    In the eigenbasis M'M = D + U S U': D is block diagonal with blocks
    [[t^2 + 1, -t], [-t, t^2]], U = [(-theta c / delta^2, 0), (0, c)] and
    S = [[0, 1], [1, ||c||^2 / delta^4]].  Blocks with c_i = 0 are invariant.
    Over the others det S = -1, so at most one eigenvalue exceeds their top
    block eigenvalue dmax, and at least one reaches it: bisection finds where
    det(S^-1 - U'(mu - D)^-1 U) changes sign, else returns dmax.  Raises
    ValueError when ||M|| may pass M_NORM_LIMIT, where its products overflow.
    """
    t2, c = np.asarray(theta, dtype=float) ** 2, np.asarray(c, dtype=float)
    bound = math.sqrt(float(t2.max(initial=0.0))) + 1.0 + float(c @ c) / delta / delta
    if bound > M_NORM_LIMIT:
        raise ValueError(f"radius delta={delta!r} is too small: ||M|| may reach {bound:.3e}")
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


def solution_sine(s_k, unit):
    """Sine of the acute angle between a nonzero vector and a unit vector."""
    s_k = np.asarray(s_k, dtype=float)
    nk = float(np.linalg.norm(s_k))
    if nk == 0.0:
        raise ValueError("vectors must be nonzero")
    u = s_k / nk
    w = u - float(u @ unit) * unit
    return min(float(np.linalg.norm(w)), 1.0)
