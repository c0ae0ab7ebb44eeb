"""Dense and tridiagonal linear-algebra kernels.

The tridiagonal kernels are the solver's own: LDL^T factorization of
shifted symmetric tridiagonals and Sturm-sequence bisection for their
extremal eigenvalues.  Dense symmetric eigenproblems, which only the oracle
and the harness need, go to LAPACK through numpy.linalg.  Also here: power
iteration for operator 2-norms, a Householder orthonormal complement and
conjugate gradients.  All randomness flows through explicitly seeded
generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class IndefiniteShift(Exception):
    """T + lambda*I is not positive definite; carries the first bad pivot index."""

    def __init__(self, pivot_index, pivot_value=None):
        self.pivot_index = pivot_index
        self.pivot_value = pivot_value
        super().__init__(f"nonpositive pivot {pivot_value!r} at index {pivot_index}")


class NoConvergence(Exception):
    """An iterative kernel hit its iteration budget; carries the final residual."""

    def __init__(self, message, residual=None):
        self.residual = residual
        super().__init__(message)


class ZeroVector(Exception):
    pass


@dataclass(frozen=True)
class SymmetricTridiagonal:
    """Symmetric tridiagonal matrix stored as main and first off-diagonal."""

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        d = np.atleast_1d(np.asarray(self.diag, dtype=float))
        e = np.asarray(self.offdiag, dtype=float).reshape(-1)
        if d.size < 1:
            raise ValueError("empty diagonal")
        if e.size != d.size - 1:
            raise ValueError(f"offdiag length {e.size} != order-1 = {d.size - 1}")
        if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
            raise ValueError("nonfinite entries")
        object.__setattr__(self, "diag", d)
        object.__setattr__(self, "offdiag", e)

    @property
    def order(self):
        return self.diag.size

    def to_dense(self):
        m = self.order
        a = np.zeros((m, m))
        a[np.arange(m), np.arange(m)] = self.diag
        if m > 1:
            idx = np.arange(m - 1)
            a[idx, idx + 1] = self.offdiag
            a[idx + 1, idx] = self.offdiag
        return a

    def matvec(self, x):
        x = np.asarray(x, dtype=float)
        y = self.diag * x
        if self.order > 1:
            y[:-1] += self.offdiag * x[1:]
            y[1:] += self.offdiag * x[:-1]
        return y

    def inf_norm(self):
        m = self.order
        r = np.abs(self.diag).astype(float)
        if m > 1:
            r[:-1] += np.abs(self.offdiag)
            r[1:] += np.abs(self.offdiag)
        return float(r.max())

    def leading(self, order):
        """Leading principal submatrix of the given order."""
        return SymmetricTridiagonal(self.diag[:order], self.offdiag[: order - 1])


class SymmetricLinearOperator:
    """Symmetric operator given by matrix-vector products.

    Concrete storage (a diagonal vector or a dense array) is optional and
    kept around so callers can take cheap exact shortcuts when the structure
    allows it.
    """

    def __init__(self, dim, apply_fn, diagonal=None, dense=None):
        self.dim = int(dim)
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")
        self._apply = apply_fn
        self.diagonal = None if diagonal is None else np.asarray(diagonal, dtype=float)
        self.dense = None if dense is None else np.asarray(dense, dtype=float)

    @property
    def shape(self):
        return (self.dim, self.dim)

    def apply(self, v):
        return self._apply(np.asarray(v, dtype=float))

    # symmetric by contract
    def apply_transpose(self, v):
        return self.apply(v)

    @classmethod
    def from_diagonal(cls, d):
        d = np.asarray(d, dtype=float)
        return cls(d.size, lambda v: d * v, diagonal=d)

    @classmethod
    def from_dense(cls, a, sym_tol=1e-12):
        a = np.asarray(a, dtype=float)
        scale = max(1.0, float(np.abs(a).max()))
        if np.abs(a - a.T).max() > sym_tol * scale:
            raise ValueError("matrix is not symmetric")
        return cls(a.shape[0], lambda v: a @ v, dense=a)

    @classmethod
    def from_triplets(cls, dim, rows, cols, values):
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        values = np.asarray(values, dtype=float)
        if not (rows.size == cols.size == values.size):
            raise ValueError("triplet arrays must have equal length")

        def apply_fn(v):
            out = np.zeros(dim)
            np.add.at(out, rows, values * v[cols])
            return out

        return cls(dim, apply_fn)


class DenseOperator:
    """General (possibly nonsymmetric) dense operator for norm estimation."""

    def __init__(self, a):
        self.a = np.asarray(a, dtype=float)
        self.shape = self.a.shape

    def apply(self, v):
        return self.a @ v

    def apply_transpose(self, v):
        return self.a.T @ v


def ldl_shifted(T, lam):
    """LDL^T factorization of T + lam*I without pivoting.

    Returns (d, l) with unit-lower-bidiagonal L (subdiagonal l) and positive
    pivots d.  Raises IndefiniteShift at the first nonpositive pivot, which
    signals lam <= -theta_min(T).
    """
    if not math.isfinite(lam):
        raise ValueError("shift must be finite")
    diag = (T.diag + lam).tolist()
    off = T.offdiag.tolist()
    m = len(diag)
    d = [0.0] * m
    l = [0.0] * (m - 1)
    prev = diag[0]
    if prev <= 0.0:
        raise IndefiniteShift(0, prev)
    d[0] = prev
    for i in range(1, m):
        li = off[i - 1] / prev
        l[i - 1] = li
        prev = diag[i] - off[i - 1] * li
        if prev <= 0.0:
            raise IndefiniteShift(i, prev)
        d[i] = prev
    return np.array(d), np.array(l)


def solve_shifted(T, lam, rhs):
    """Solve (T + lam*I) h = rhs via LDL^T; requires a positive definite shift."""
    d, l = ldl_shifted(T, lam)
    b = np.asarray(rhs, dtype=float).tolist()
    m = len(b)
    # forward: L y = rhs
    y = [0.0] * m
    y[0] = b[0]
    for i in range(1, m):
        y[i] = b[i] - l[i - 1] * y[i - 1]
    # diagonal and backward: L^T h = D^{-1} y
    h = [0.0] * m
    h[m - 1] = y[m - 1] / d[m - 1]
    for i in range(m - 2, -1, -1):
        h[i] = y[i] / d[i] - l[i] * h[i + 1]
    return np.array(h)


def _sturm_counts(diag, off_sq, shifts):
    """Number of eigenvalues of the tridiagonal strictly below each shift."""
    shifts = np.asarray(shifts, dtype=float)
    tiny = np.finfo(float).tiny
    d = diag[0] - shifts
    d = np.where(d == 0.0, -tiny, d)
    count = (d < 0.0).astype(np.intp)
    for i in range(1, diag.size):
        d = diag[i] - shifts - off_sq[i - 1] / d
        d = np.where(d == 0.0, -tiny, d)
        count += d < 0.0
    return count


def extremal_eig_tridiagonal(T, tol=None):
    """Extremal eigenvalues (theta_min, theta_max) by Sturm-sequence bisection.

    The bracket starts from the Gershgorin discs; default tolerance is
    1e-13 times the bracket width.
    """
    m = T.order
    if m == 1:
        v = float(T.diag[0])
        return v, v
    radius = np.zeros(m)
    radius[:-1] += np.abs(T.offdiag)
    radius[1:] += np.abs(T.offdiag)
    lo = float(np.min(T.diag - radius))
    hi = float(np.max(T.diag + radius))
    width = max(hi - lo, np.finfo(float).tiny)
    if tol is None or tol <= 0.0:
        tol = 1e-13 * width
    off_sq = T.offdiag * T.offdiag

    # bisect for the smallest and largest eigenvalue simultaneously
    a = np.array([lo, lo])
    b = np.array([hi, hi])
    for _ in range(200):
        if float(np.max(b - a)) <= tol:
            break
        mid = 0.5 * (a + b)
        counts = _sturm_counts(T.diag, off_sq, mid)
        # smallest: keep count >= 1 on the right end
        if counts[0] >= 1:
            b[0] = mid[0]
        else:
            a[0] = mid[0]
        # largest: keep count <= m-1 on the left end
        if counts[1] >= m:
            b[1] = mid[1]
        else:
            a[1] = mid[1]
    return float(0.5 * (a[0] + b[0])), float(0.5 * (a[1] + b[1]))


def symmetric_eig_dense(a):
    """Eigendecomposition of a dense symmetric matrix by LAPACK.

    Returns (values ascending, orthonormal eigenvectors as columns).
    """
    return np.linalg.eigh(a)


def smallest_eig_dense(a):
    """Smallest eigenvalue of a dense symmetric matrix (no eigenvectors)."""
    return float(np.linalg.eigvalsh(a)[0])


class NormEstimate(NamedTuple):
    value: float
    converged: bool
    iterations: int


def operator_norm_2(op, tol=1e-8, maxit=5000, seed=0):
    """Spectral norm estimate by power iteration on op^T op.

    Starts from a seeded Gaussian vector and stops when the relative change
    of the estimate stays below tol on two consecutive iterations; always
    returns the best estimate together with a convergence flag.
    """
    rows, cols = op.shape
    if cols < 1:
        raise ValueError("dimension must be >= 1")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(cols)
    nv = float(np.linalg.norm(v))
    v = v / nv
    sigma = 0.0
    quiet = 0
    it = 0
    for it in range(1, maxit + 1):
        w = op.apply(v)
        z = op.apply_transpose(w)
        new_sigma = float(np.linalg.norm(w))
        nz = float(np.linalg.norm(z))
        if nz == 0.0:
            # v lies in the null space of op^T op; redraw
            v = rng.standard_normal(cols)
            v /= float(np.linalg.norm(v))
            if new_sigma == 0.0 and it > 3:
                return NormEstimate(0.0, True, it)
            continue
        v = z / nz
        if abs(new_sigma - sigma) <= tol * max(new_sigma, np.finfo(float).tiny):
            quiet += 1
        else:
            quiet = 0
        sigma = new_sigma
        if quiet >= 2:
            return NormEstimate(sigma, True, it)
    return NormEstimate(sigma, False, it)


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


def solve_spd_operator(apply_fn, b, tol=1e-13, maxit=None):
    """Conjugate gradient solve for a symmetric positive definite operator."""
    b = np.asarray(b, dtype=float)
    n = b.size
    if maxit is None:
        maxit = 20 * n
    x = np.zeros(n)
    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    bnorm = math.sqrt(float(b @ b))
    if bnorm == 0.0:
        return x
    for _ in range(maxit):
        if math.sqrt(rs) <= tol * bnorm:
            return x
        ap = apply_fn(p)
        denom = float(p @ ap)
        if denom <= 0.0:
            raise IndefiniteShift(-1, denom)
        alpha = rs / denom
        x = x + alpha * p
        r = r - alpha * ap
        rs_new = float(r @ r)
        p = r + (rs_new / rs) * p
        rs = rs_new
    raise NoConvergence("conjugate gradient stalled", residual=math.sqrt(rs) / bnorm)
