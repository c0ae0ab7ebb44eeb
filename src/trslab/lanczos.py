"""Symmetric Lanczos process with complete reorthogonalization.

A run produces the orthonormal basis Q_k and the projected tridiagonal T_k
satisfying the three-term relation A Q_k = Q_k T_k + beta_{k+1} q_{k+1} e_{k+1}^T.
Every step reorthogonalizes against every stored basis vector: one classical
Gram-Schmidt pass, a second only when the first cancels (Kahan-Parlett
"twice is enough").  That keeps the basis orthonormal to machine precision,
which all downstream accuracy checks rely on, and most steps read the basis
twice (Q' r, then Q times the result) rather than four times.

A run writes its basis into one column-major n x capacity store that grows
in place (doubling when full), and the reorthogonalization works on the
filled prefix of that store directly.  A factorization's `basis` is a
read-only view of that prefix.  Factorizations are immutable values:
extending one appends to its store when it is the newest value on that store,
and otherwise copies its basis into a new store first, so earlier values
never change.  Either way the result is entrywise identical to a longer
fresh run.

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


class ZeroStartVector(Exception):
    pass


class AlreadyBrokenDown(Exception):
    pass


class _ColumnStore:
    """Column-major n x capacity buffer whose first `filled` columns are written.

    Column-major keeps every prefix contiguous with leading dimension n, so
    BLAS sees the same operands, and rounds the same way, whatever the
    capacity.
    """

    def __init__(self, n, capacity):
        self.array = np.empty((n, capacity), order="F")
        self.filled = 0

    def append(self, column):
        n, capacity = self.array.shape
        if self.filled == capacity:
            grown = np.empty((n, min(n, 2 * capacity)), order="F")
            grown[:, :capacity] = self.array
            self.array = grown
        self.array[:, self.filled] = column
        self.filled += 1

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


def _gershgorin_scale(diag, off, beta):
    """Largest Gershgorin row of T so far, beta closing the last row: a
    running estimate of ||A|| for the breakdown test.

    Row i adds |off[i-1]|, then |off[i]|, to |diag[i]|, in that order.
    """
    rows = np.abs(np.array(diag))
    edges = np.abs(np.array(off + [beta]))
    rows[1:] += edges[:-1]
    rows += edges
    return max(1e-300, float(rows.max()))


def _reorthogonalize(qmat, r):
    """Remove from r its components along the orthonormal columns of qmat.

    One classical Gram-Schmidt pass, and a second only when the first left
    ||r|| below ||r_before|| / sqrt(2): a pass that shrinks r less than that
    leaves it orthogonal to working precision (Kahan-Parlett "twice is
    enough"; Parlett, The Symmetric Eigenvalue Problem; Giraud, Langou and
    Rozloznik 2005).  Returns (r, ||r||, passes).
    """
    before = float(np.linalg.norm(r))
    r = r - qmat @ (qmat.T @ r)
    beta = float(np.linalg.norm(r))
    if beta >= before / np.sqrt(2.0):
        return r, beta, 1
    r = r - qmat @ (qmat.T @ r)
    return r, float(np.linalg.norm(r)), 2


def _grow(A, store, diag, off, q_prev, beta_cur, order_target, breakdown_tol):
    """Advance the three-term recurrence until `order_target` steps are done.

    Invariant on entry: `diag` has one entry fewer than `store.filled`, and
    the last filled column is the vector still to be processed.  The store
    and the lists are mutated in place; returns (beta_next, q_next, broken_down).
    """
    n = store.array.shape[0]
    while True:
        j = store.filled
        q_cur = store.array[:, j - 1]
        w = A.apply(q_cur)
        delta = float(q_cur @ w)
        diag.append(delta)
        r = w - delta * q_cur
        if q_prev is not None:
            r = r - beta_cur * q_prev
        # complete reorthogonalization: one classical Gram-Schmidt pass, a
        # second only when the first cancels (Kahan-Parlett)
        r, beta, _ = _reorthogonalize(store.array[:, :j], r)
        if beta <= breakdown_tol * _gershgorin_scale(diag, off, beta) or j >= n:
            return beta, None, True
        q_next = r / beta
        if j == order_target:
            return beta, q_next, False
        off.append(beta)
        store.append(q_next)
        q_prev, beta_cur = q_cur, beta


def _assemble(store, diag, off, beta0, beta_next, q_next, broken):
    tridiag = SymmetricTridiagonal(np.array(diag), np.array(off))
    return LanczosFactorization(
        basis=store.prefix(),
        tridiag=tridiag,
        beta0=beta0,
        beta_next=beta_next,
        broken_down=broken,
        next_vector=q_next,
        _store=store,
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
    beta_next, q_next, broken = _grow(A, store, diag, off, None, 0.0, k_max + 1, breakdown_tol)
    return _assemble(store, diag, off, beta0, beta_next, q_next, broken)


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
    off.append(f.beta_next)
    store.append(f.next_vector)
    q_prev = store.array[:, order - 1]
    beta_next, q_next, broken = _grow(
        A, store, diag, off, q_prev, f.beta_next, order + steps, breakdown_tol
    )
    return _assemble(store, diag, off, f.beta0, beta_next, q_next, broken)


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
