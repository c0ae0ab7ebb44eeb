"""Symmetric Lanczos process with complete reorthogonalization.

A run produces the orthonormal basis Q_k and the projected tridiagonal T_k
satisfying the three-term relation A Q_k = Q_k T_k + beta_{k+1} q_{k+1} e_{k+1}^T.
Every step reorthogonalizes against every stored basis vector: one classical
Gram-Schmidt pass, a second only when the first cancels (Kahan-Parlett
"twice is enough").  That keeps the basis orthonormal to machine precision,
which all downstream accuracy checks rely on, and most steps read the basis
twice (Q' r, then Q times the result) rather than four times.  Each new
entry of T is checked finite once, when it is produced, and a factorization
carries the running row maxima of T (the breakdown test's Gershgorin scale
and T's inf-norm), so neither is rebuilt from all rows at every step.

A run writes its basis into one column-major n x capacity store that grows
in place (doubling when full), and the reorthogonalization works on the
filled prefix of that store directly.  A factorization's `basis` is a
read-only view of that prefix.  Factorizations are immutable values:
extending one appends to its store when it is the newest value on that store,
and otherwise copies its basis into a new store first, so earlier values
never change.  Either way the result is entrywise identical to a longer
fresh run.

A step allocates no n-vector of its own: the recurrence and the
Gram-Schmidt passes write through `out=` into a two-vector workspace that
each store owns (a branch copy gets its own), and a continuing step divides
its residual straight into the store's next column.  The operations and
their order are those of the plain out-of-place expressions, so the results
are bitwise the same.  Nothing is written into the array that A.apply
returns, which may be the operator's input or a buffer it reuses.

The package's one estimator of extremal eigenvalues and operator 2-norms
also lives here: a seeded run grown until its extreme Ritz values settle
(Lanczos, not the power method: Kuczynski and Wozniakowski, SIAM J. Matrix
Anal. Appl. 1992).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .linalg import SymmetricLinearOperator, SymmetricTridiagonal, extremal_eig_tridiagonal

_NO_ROWS = (1e-300, 0.0)  # row maxima before any row closes; breakdown scale > 0


class ZeroStartVector(Exception):
    pass


class AlreadyBrokenDown(Exception):
    pass


class _ColumnStore:
    """Column-major n x capacity buffer whose first `filled` columns are written.

    Column-major keeps every prefix contiguous with leading dimension n, so
    BLAS sees the same operands, and rounds the same way, whatever the
    capacity.  `work` is the step's scratch, two n-vectors allocated once
    with the store: the residual being built and one product.
    """

    def __init__(self, n, capacity):
        self.array = np.empty((n, capacity), order="F")
        self.filled = 0
        self.work = np.empty((2, n))

    def claim(self):
        """The next column, counted as filled; the caller writes it."""
        n, capacity = self.array.shape
        if self.filled == capacity:
            grown = np.empty((n, min(n, 2 * capacity)), order="F")
            grown[:, :capacity] = self.array
            self.array = grown
        self.filled += 1
        return self.array[:, self.filled - 1]

    def append(self, column):
        self.claim()[:] = column

    def prefix(self):
        view = self.array[:, : self.filled]
        view.flags.writeable = False
        return view


@dataclass(frozen=True)
class LanczosFactorization:
    basis: np.ndarray  # n x (k+1), orthonormal columns q_0 .. q_k, read-only
    tridiag: SymmetricTridiagonal  # order k+1
    beta0: float  # ||g||
    beta_next: float  # beta_{k+1}
    broken_down: bool
    next_vector: np.ndarray | None  # q_{k+1}, kept so the run can be resumed
    _store: _ColumnStore | None = dataclasses.field(default=None, repr=False, compare=False)
    # maxima (Gershgorin, inf_norm) over the rows of T that beta_next does not close
    _row_max: tuple = dataclasses.field(default=None, repr=False, compare=False)

    @property
    def k(self):
        return self.tridiag.order - 1

    @property
    def dim(self):
        return self.basis.shape[0]

    def trimmed(self):
        """The same factorization, holding no more basis columns than it uses.

        Returns self when its store has no spare columns; otherwise the basis
        is copied out and the store is dropped.
        """
        if self._store is None or self._store.array.shape[1] == self.basis.shape[1]:
            return self
        basis = self.basis.copy(order="F")
        basis.flags.writeable = False
        return dataclasses.replace(self, basis=basis, _store=None)


def _close_row(row_max, diag, off, beta):
    """The running row maxima (Gershgorin, inf_norm) of T with its last row
    closed by beta.  Gershgorin rows, the breakdown test's estimate of ||A||,
    add |d_i| + |e_{i-1}| + |e_i|; inf_norm adds |d_i| + |e_i| + |e_{i-1}|."""
    d, right = abs(diag[-1]), abs(beta)
    left = abs(off[-1]) if off else 0.0
    return max(row_max[0], d + left + right), max(row_max[1], d + right + left)


def _reorthogonalize(qmat, r, work):
    """Remove from r, in place, its components along the orthonormal columns
    of qmat; `work` is an n-vector of scratch.

    One classical Gram-Schmidt pass, and a second only when the first left
    ||r|| below ||r_before|| / sqrt(2): a pass that shrinks r less than that
    leaves it orthogonal to working precision (Kahan-Parlett "twice is
    enough"; Parlett, The Symmetric Eigenvalue Problem; Giraud, Langou and
    Rozloznik 2005).  Returns (||r||, passes).
    """
    before = float(np.linalg.norm(r))
    np.matmul(qmat, qmat.T @ r, out=work)
    np.subtract(r, work, out=r)
    beta = float(np.linalg.norm(r))
    if beta >= before / np.sqrt(2.0):
        return beta, 1
    np.matmul(qmat, qmat.T @ r, out=work)
    np.subtract(r, work, out=r)
    return float(np.linalg.norm(r)), 2


def _grow(A, store, diag, off, row_max, order_target, breakdown_tol):
    """Advance the three-term recurrence until `order_target` steps are done.

    Invariant on entry: `diag` has one entry fewer than `store.filled`, and
    the last filled column is the vector still to be processed.  The store
    and the lists are mutated in place; returns (beta_next, q_next,
    broken_down, row_max), row_max covering the rows that `off` closes.
    A step writes only into the store's workspace and its next column,
    never into the array that A.apply returns: an operator may hand back
    its input or a buffer of its own.
    """
    n = store.array.shape[0]
    r, work = store.work
    while True:
        j = store.filled
        q_cur = store.array[:, j - 1]
        w = A.apply(q_cur)
        delta = float(q_cur @ w)
        if not math.isfinite(delta):  # checked once, here, before any arithmetic on w
            raise ValueError("nonfinite entries")
        diag.append(delta)
        np.multiply(q_cur, delta, out=work)
        np.subtract(w, work, out=r)
        if off:
            np.multiply(store.array[:, j - 2], off[-1], out=work)
            np.subtract(r, work, out=r)
        # complete reorthogonalization: one classical Gram-Schmidt pass, a
        # second only when the first cancels (Kahan-Parlett)
        beta, _ = _reorthogonalize(store.array[:, :j], r, work)
        if not math.isfinite(beta):  # checked once, here
            raise ValueError("nonfinite entries")
        closed = _close_row(row_max, diag, off, beta)
        if beta <= breakdown_tol * closed[0] or j >= n:
            return beta, None, True, row_max
        if j == order_target:
            return beta, r / beta, False, row_max
        off.append(beta)
        row_max = closed
        np.divide(r, beta, out=store.claim())


def _assemble(store, diag, off, beta0, beta_next, q_next, broken, row_max):
    last = abs(diag[-1]) + (abs(off[-1]) if off else 0.0)  # beta_next is not in T
    tridiag = SymmetricTridiagonal(np.array(diag), np.array(off), max(row_max[1], last))
    return LanczosFactorization(
        basis=store.prefix(),
        tridiag=tridiag,
        beta0=beta0,
        beta_next=beta_next,
        broken_down=broken,
        next_vector=q_next,
        _store=store,
        _row_max=row_max,
    )


def lanczos_run(A, g, k_max, breakdown_tol=1e-12, capacity=None):
    """Run the Lanczos process on (A, g) through step min(k_max, breakdown).

    The first basis vector is g normalized, so Q_k^T g = beta0 * e_1.
    `capacity` is the number of basis columns to reserve, k_max + 1 by
    default (at most n); a caller that will extend the run passes the final
    count it expects.  Only the columns written become resident memory.
    """
    g = np.asarray(g, dtype=float)
    beta0 = float(np.linalg.norm(g))
    if beta0 == 0.0:
        raise ZeroStartVector("start vector has zero norm")
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    if capacity is None:
        capacity = k_max + 1
    store = _ColumnStore(g.size, max(1, min(g.size, capacity)))
    store.append(g / beta0)
    diag: list[float] = []
    off: list[float] = []
    grown = _grow(A, store, diag, off, _NO_ROWS, k_max + 1, breakdown_tol)
    return _assemble(store, diag, off, beta0, *grown)


def extend_lanczos(f, A, steps, breakdown_tol=1e-12):
    """Continue a factorization by the given number of steps.

    Extending is deterministic: the result matches a single longer run
    entrywise, and f itself is left unchanged.  Raises AlreadyBrokenDown if
    the process already terminated.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if steps == 0:
        return f
    if f.broken_down:
        raise AlreadyBrokenDown("Lanczos process has already broken down")
    order = f.tridiag.order
    store = f._store
    if store is None or store.filled != order:
        # f has no store or was extended before: branch into a copy
        store = _ColumnStore(f.dim, min(f.dim, order + steps))
        store.array[:, :order] = f.basis
        store.filled = order
    diag = f.tridiag.diag.tolist()
    off = f.tridiag.offdiag.tolist()
    # re-enter the recurrence at the dangling (beta_next, q_next) step
    row_max = _close_row(f._row_max, diag, off, f.beta_next)
    off.append(f.beta_next)
    store.append(f.next_vector)
    grown = _grow(A, store, diag, off, row_max, order + steps, breakdown_tol)
    return _assemble(store, diag, off, f.beta0, *grown)


def _settled_extremes(A, watch_bottom):
    """Extreme Ritz values (theta_min, theta_max) of one seeded run on A.

    The run starts from a fixed seeded Gaussian vector and grows 10 steps at
    a time until it breaks down, reaches min(n - 1, 260) steps, or its
    watched extremes (the top one, and the bottom one if watch_bottom) move
    by at most 1e-14 * max(|theta_min|, |theta_max|) over a block.
    """
    k_cap = min(A.dim - 1, 260)
    start = np.random.default_rng(0).standard_normal(A.dim)
    f = lanczos_run(A, start, min(k_cap, 10), capacity=k_cap + 1)
    lo, hi = extremal_eig_tridiagonal(f.tridiag)
    while not f.broken_down and f.k < k_cap:
        f = extend_lanczos(f, A, min(10, k_cap - f.k))
        prev_lo, prev_hi = lo, hi
        lo, hi = extremal_eig_tridiagonal(f.tridiag)
        moved = max(abs(hi - prev_hi), abs(lo - prev_lo) if watch_bottom else 0.0)
        if moved <= 1e-14 * max(abs(lo), abs(hi)):
            break
    return lo, hi


def estimate_extremal_eigenvalues(A):
    """Smallest and largest eigenvalue (lo, hi) of a symmetric operator."""
    return _settled_extremes(A, watch_bottom=True)


def operator_norm_2(op):
    """Spectral norm of an operator with `shape`, `apply` and `apply_transpose`.

    Lanczos on op' op watches only the top end: the bottom end of a Gram
    operator converges slowly and is not needed.
    """
    gram = SymmetricLinearOperator(op.shape[1], lambda v: op.apply_transpose(op.apply(v)))
    _, top = _settled_extremes(gram, watch_bottom=False)
    return math.sqrt(max(top, 0.0))
