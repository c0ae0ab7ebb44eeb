"""Dense and tridiagonal linear-algebra kernels.

The tridiagonal kernels are the solver's own: LDL^T factorization of a
shifted symmetric tridiagonal (ldl_shifted) and substitution from its
factors (solve_ldl, or its sweeps ldl_forward and ldl_back), so that
several right-hand sides share one factorization.  A leading block's factors
and forward sweep are prefixes of the whole matrix's.  All run on Python
floats, with one tolist() per input: at the orders of a projected Krylov
problem, numpy's per-element and per-call costs would outweigh the
arithmetic.  Eigenvalues go to LAPACK through numpy.linalg: the extremal
ones of a tridiagonal that the solver needs, and the dense symmetric
eigenproblems of the oracle and the harness.
Also here: a Householder orthonormal complement.
Operator 2-norms and extremal eigenvalues of operators are estimated by
Lanczos in the lanczos module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

SYM_TOL = 1e-12  # largest asymmetry |a_ij - a_ji| accepted, relative to max(1, max |a|)


class IndefiniteShift(Exception):
    """T + lambda*I is not positive definite; carries the first bad pivot index."""

    def __init__(self, pivot_index, pivot_value=None):
        self.pivot_index = pivot_index
        self.pivot_value = pivot_value
        super().__init__(f"nonpositive pivot {pivot_value!r} at index {pivot_index}")


class NoConvergence(Exception):
    """An iterative kernel hit its iteration budget."""


class ZeroVector(Exception):
    pass


@dataclass(frozen=True)
class SymmetricTridiagonal:
    """Symmetric tridiagonal matrix stored as main and first off-diagonal."""

    diag: np.ndarray
    offdiag: np.ndarray
    # known inf_norm(): lanczos passes it, having checked each entry when produced
    _inf_norm: float | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self._inf_norm is not None:
            return
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
        idx = np.arange(m - 1)
        a[idx, idx + 1] = self.offdiag
        a[idx + 1, idx] = self.offdiag
        return a

    def matvec(self, x):
        x = np.asarray(x, dtype=float)
        y = self.diag * x
        y[:-1] += self.offdiag * x[1:]
        y[1:] += self.offdiag * x[:-1]
        return y

    def inf_norm(self):
        if self._inf_norm is not None:
            return self._inf_norm
        r = np.abs(self.diag)
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
    def from_dense(cls, a):
        a = np.asarray(a, dtype=float)
        scale = max(1.0, float(np.abs(a).max()))
        if np.abs(a - a.T).max() > SYM_TOL * scale:
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


def ldl_shifted(T, lam):
    """LDL^T factorization of T + lam*I without pivoting.

    Returns (d, l) as lists of Python floats: the positive pivots d and the
    subdiagonal l of the unit-lower-bidiagonal L.  Raises IndefiniteShift at
    the first nonpositive pivot, which signals lam <= -theta_min(T).  The
    factors of a leading block of T are the prefixes d[:k], l[:k - 1].
    """
    if not math.isfinite(lam):
        raise ValueError("shift must be finite")
    lam = float(lam)
    diag = T.diag.tolist()
    prev = diag[0] + lam
    if prev <= 0.0:
        raise IndefiniteShift(0, prev)
    d = [prev]
    l = []
    for a, b in zip(diag[1:], T.offdiag.tolist()):
        li = b / prev
        l.append(li)
        prev = a + lam - b * li
        if prev <= 0.0:
            raise IndefiniteShift(len(d), prev)
        d.append(prev)
    return d, l


def ldl_forward(l, rhs):
    """Solve L y = rhs, for the L of ldl_shifted and rhs a list; returns a list."""
    y = rhs[0]
    ys = [y]
    for bi, li in zip(rhs[1:], l):
        y = bi - li * y
        ys.append(y)
    return ys


def ldl_back(d, l, y):
    """Solve D L^T h = y, the back sweep after ldl_forward; returns h as an array."""
    x = y[-1] / d[-1]
    h = [x]
    for yi, di, li in zip(reversed(y[:-1]), reversed(d[:-1]), reversed(l)):
        x = yi / di - li * x
        h.append(x)
    h.reverse()
    return np.array(h)


def solve_ldl(d, l, rhs):
    """Solve L D L^T h = rhs given the factors (d, l) from ldl_shifted."""
    return ldl_back(d, l, ldl_forward(l, np.asarray(rhs, dtype=float).tolist()))


def solve_shifted(T, lam, rhs):
    """Solve (T + lam*I) h = rhs via LDL^T; requires a positive definite shift."""
    return solve_ldl(*ldl_shifted(T, lam), rhs)


def extremal_eig_tridiagonal(T):
    """Extremal eigenvalues (theta_min, theta_max) of T by LAPACK.

    One dense eigvalsh of the order-m matrix costs O(m^3).  The secular
    solver calls it only when the shift at the previous multiplier is
    indefinite or falls short of the boundary, a few steps per Krylov solve.
    """
    vals = np.linalg.eigvalsh(T.to_dense())
    return float(vals[0]), float(vals[-1])


def symmetric_eig_dense(a):
    """Eigendecomposition of a dense symmetric matrix by LAPACK.

    Returns (values ascending, orthonormal eigenvectors as columns).
    """
    return np.linalg.eigh(a)


def smallest_eig_dense(a):
    """Smallest eigenvalue of a dense symmetric matrix (no eigenvectors)."""
    return float(np.linalg.eigvalsh(a)[0])


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

