"""Dense and tridiagonal linear-algebra kernels.

The tridiagonal kernels are the solver's own, four LDL^T functions: one
recurrence for a shifted symmetric tridiagonal that also sweeps a multiple
of e1 forward (ldl_shifted_e1), the back sweep from its factors, which also
sums ||h||^2 (ldl_back), the quadratic form v'(L D L')^-1 v in one forward
sweep (ldl_quadratic_form), and a solve for a general right-hand side from
those factors (solve_shifted).  The secular Newton iteration uses the first
three, so h and its derivative share one factorization.  A leading block's
factors and forward sweep are prefixes of the whole matrix's.  All run on
Python floats, with one tolist() per array input: at the orders of a
projected Krylov problem, numpy's per-element and per-call costs would
outweigh the arithmetic.
Eigenvalues go to LAPACK through numpy.linalg: the extremal
ones of a tridiagonal that the solver needs, and the dense symmetric
eigenproblems of the oracle and the harness.
Also here: the symmetric operator type, which applies one vector or an
n x p block, and states when it is built what is known of its spectrum: the
eigenvalues with the maps to and from the eigenbasis (a Spectrum), or only
its extremes.  What an operator does not state is estimated by Lanczos in
the lanczos module, as are operator 2-norms.
"""

from __future__ import annotations

import math
from collections.abc import Callable
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


@dataclass(frozen=True)
class SymmetricTridiagonal:
    """Symmetric tridiagonal matrix stored as main and first off-diagonal."""

    diag: np.ndarray
    offdiag: np.ndarray
    # known inf_norm(): lanczos passes it, having checked each entry when produced
    _inf_norm: float | None = field(default=None, repr=False, compare=False)
    # (diag[-1], offdiag[-1]) as floats, passed by the Lanczos step that made them
    _last_row: tuple | None = field(default=None, repr=False, compare=False)

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


def _identity(v):
    return v


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of a symmetric operator A = V diag(values) V', with the maps
    v -> V'v into its eigenbasis and w -> V w back (the identity for a
    diagonal A)."""

    values: np.ndarray
    to_eigenbasis: Callable = _identity
    from_eigenbasis: Callable = _identity


class SymmetricLinearOperator:
    """Symmetric operator given by matrix-vector products.

    What the operator knows about its spectrum is stated when it is built:
    `spectrum` (a Spectrum, or None) and `extremes` (theta_min, theta_max),
    which a spectrum fixes and an operator without one may still be given.
    The storage it was built from (`diagonal`, `dense`) stays readable but
    says nothing about what is known.
    `apply_block(V)` is A V for an n x p block: one product by `block_fn`
    where the constructor gives one (`from_dense`, `from_triplets`, the
    operators whose ||M|| comes from the Lanczos estimator), else `apply`
    column by column; a column is bitwise `apply` of it but for a dense
    product's rounding.
    """

    def __init__(
        self, dim, apply_fn, diagonal=None, dense=None, spectrum=None, extremes=None, block_fn=None
    ):
        self.dim = int(dim)
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")
        self._apply = apply_fn
        self._apply_block = block_fn
        self.diagonal = None if diagonal is None else np.asarray(diagonal, dtype=float)
        self.dense = None if dense is None else np.asarray(dense, dtype=float)
        self.spectrum = spectrum
        if spectrum is not None:
            if extremes is not None:
                raise ValueError("a spectrum fixes its extremes; give one or the other")
            extremes = (float(spectrum.values.min()), float(spectrum.values.max()))
        self.extremes = extremes

    @property
    def shape(self):
        return (self.dim, self.dim)

    def apply(self, v):
        return self._apply(np.asarray(v, dtype=float))

    # symmetric by contract
    def apply_transpose(self, v):
        return self.apply(v)

    def apply_block(self, V):
        V = np.asarray(V, dtype=float)
        if self._apply_block is None:  # column by column, each one contiguous
            return np.column_stack([self.apply(v) for v in np.ascontiguousarray(V.T)])
        return self._apply_block(V)

    @classmethod
    def from_diagonal(cls, d):
        d = np.asarray(d, dtype=float)
        return cls(d.size, lambda v: d * v, diagonal=d, spectrum=Spectrum(d))

    @classmethod
    def from_dense(cls, a, extremes=None):
        a = np.asarray(a, dtype=float)
        scale = max(1.0, float(np.abs(a).max()))
        if np.abs(a - a.T).max() > SYM_TOL * scale:
            raise ValueError("matrix is not symmetric")
        return cls(a.shape[0], lambda v: a @ v, dense=a, extremes=extremes, block_fn=a.__matmul__)

    @classmethod
    def from_triplets(cls, dim, rows, cols, values):
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        values = np.asarray(values, dtype=float)
        if not (rows.size == cols.size == values.size):
            raise ValueError("triplet arrays must have equal length")

        def apply_fn(v):  # v one vector or an n x p block
            out = np.zeros((dim, *v.shape[1:]))
            np.add.at(out, rows, (values * v[cols].T).T)
            return out

        return cls(dim, apply_fn, block_fn=apply_fn)


def ldl_shifted_e1(T, lam, y0):
    """LDL^T factorization of T + lam*I without pivoting, and in the same
    sweep the solution y of L y = y0*e1.

    Returns (d, l, y) as lists of Python floats: the positive pivots d, the
    subdiagonal l of the unit-lower-bidiagonal L, and y.  Raises
    IndefiniteShift at the first nonpositive pivot, which signals
    lam <= -theta_min(T).  The factors and y of a leading block of T are
    the prefixes d[:k], l[:k - 1], y[:k].
    """
    if not math.isfinite(lam):
        raise ValueError("shift must be finite")
    lam = float(lam)
    diag = T.diag.tolist()
    prev = diag[0] + lam
    if prev <= 0.0:
        raise IndefiniteShift(0, prev)
    y = float(y0)
    d = [prev]
    l = []
    ys = [y]
    for a, b in zip(diag[1:], T.offdiag.tolist()):
        li = b / prev
        l.append(li)
        prev = a + lam - b * li
        if prev <= 0.0:
            raise IndefiniteShift(len(d), prev)
        d.append(prev)
        y = 0.0 - li * y
        ys.append(y)
    return d, l, ys


def ldl_back(d, l, y):
    """Solve D L^T h = y, the back sweep after a forward one; returns h as a
    list and ||h||^2, accumulated in the same sweep."""
    x = y[-1] / d[-1]
    h = [x]
    hh = x * x
    for yi, di, li in zip(y[-2::-1], d[-2::-1], l[::-1]):
        x = yi / di - li * x
        h.append(x)
        hh += x * x
    h.reverse()
    return h, hh


def ldl_quadratic_form(d, l, v):
    """v^T (L D L^T)^-1 v for the factors (d, l) and v a list.

    With L z = v this is z^T D^-1 z, a sum of positive terms taken in one
    forward sweep (More and Sorensen 1983) rather than a full solve and a
    dot product.
    """
    z = v[0]
    acc = z * z / d[0]
    for vi, li, di in zip(v[1:], l, d[1:]):
        z = vi - li * z
        acc += z * z / di
    return acc


def solve_shifted(T, lam, rhs):
    """Solve (T + lam*I) h = rhs, rhs a sequence, by the factors of
    ldl_shifted_e1, a forward sweep L y = rhs and ldl_back; returns h as an
    array and raises IndefiniteShift unless the shift is positive definite."""
    d, l, _ = ldl_shifted_e1(T, lam, 0.0)
    rhs = np.asarray(rhs, dtype=float).tolist()
    y = rhs[0]
    ys = [y]
    for bi, li in zip(rhs[1:], l):
        y = bi - li * y
        ys.append(y)
    return np.array(ldl_back(d, l, ys)[0])


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

