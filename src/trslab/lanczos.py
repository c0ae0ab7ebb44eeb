"""Symmetric Lanczos process with complete reorthogonalization.

A run produces the orthonormal basis Q_k and the projected tridiagonal T_k
satisfying the three-term relation A Q_k = Q_k T_k + beta_{k+1} q_{k+1} e_{k+1}^T.
Every step measures the residual's components c = Q'r along the stored
basis, and subtracts Qc only when ||c|| > ORTH_ETA ||r||, with ORTH_ETA =
2^-50, 8 unit roundoffs.  A step that skips the subtraction leaves r as it
is, so the next basis vector's inner products with the basis are the
measured c / ||r||, at most ORTH_ETA on every step.  A step that subtracts
takes one classical Gram-Schmidt pass, and a second only when the first
cancels (Kahan-Parlett "twice is enough").  That keeps the basis orthonormal
to machine precision, which all downstream accuracy checks rely on.  A step
reads the basis once when it skips (Q'r), twice on one pass (Q'r, then Qc)
and four times on two; the deep solve (family 2 at n = 100 000, 71 steps)
skipped on 37 of its steps at seed 5.  Each new entry of T is checked finite
once, when it is produced, and a factorization carries the running maximum
of T's absolute row sums, which scales the breakdown test and gives T's
inf-norm, so it is never rebuilt from all rows at every step.

A run writes its basis into one column-major n x capacity store, whose
capacity is fixed when it is made, and the reorthogonalization works on the
filled prefix of that store directly.  The store also holds T's diagonal and
off-diagonal in buffers of the same capacity, and, when it has room, the
dangling q_{k+1} in its first unfilled column.  A factorization's `basis`,
`tridiag` and `next_vector` are slices of read-only views that the store
makes once, when it is made.  Factorizations are immutable values: extending
one appends to its store in place when it is the newest value on that store
and the new steps fit, claiming q_{k+1} where it lies, and otherwise copies
its basis and T into a new store first, of at least twice its order, so
earlier values never change.  Either way the result is entrywise identical
to a longer fresh run.

Re-entering a run is O(1) Python work beyond the recurrence, so extending
one step at a time, as gltr does, costs little more than one longer run: a
factorization carries the row maximum its last step closed, so resuming
reads nothing back from T; the store's fill count and capacity say whether
the value can append in place, with q_{k+1} already in the spare column;
and a new value is two constructor calls on slices of the store's views.
On a diagonal operator at 1 BLAS thread (2-core Xeon), 60 one-step
extensions take about 5 to 7 us per step more than one 60-step run, whose
steps take about 16 us at n = 100 and 39 us at n = 2000.

A step allocates no n-vector of its own: the recurrence and the
Gram-Schmidt passes write through `out=` into a two-vector workspace that
each store owns (a branch copy gets its own), and a step divides its
residual straight into the store's next column (the spare, when it stops).
The operations and their order are those of the plain out-of-place
expressions, so the results are bitwise the same.  Nothing is written into the array that A.apply
returns, which may be the operator's input or a buffer it reuses.

The two products of a Gram-Schmidt pass, Q'r and Qc, read the whole basis,
and at large n they are most of a run's time, bound by how fast one core
streams memory.  When the basis holds at least SPLIT_BYTES and two CPUs are
usable, `qt_times` and `q_times` split each between the caller and one
worker thread: Q'r by columns, at a multiple of 4, and Qc by rows, at a
multiple of 64, each part a BLAS product into its own slice of the result.
The parts run at once only while each releases the interpreter lock.
`np.matmul` does so for a row block of Q times c, but holds the lock for its
whole BLAS call on a transposed column block Q[:, a:b].T (numpy 2.4.6),
which would run the two parts of Q'r one after the other; `np.dot` on the
same operands releases it.  So Qc's parts are `np.matmul` products and Q'r's
`np.dot` products.  An entry of Q'r is one column's dot product with r and
an entry of Qc one row's sum over the columns, and with those cuts each part
forms its entries bitwise as the one call does (checked at one BLAS thread
on OpenBLAS 0.3.31, for n from 65 to 123 457 and j from 2 to 80; a
multi-threaded BLAS divides the one call its own way).  A part of one column
or one row would be a numpy dot product, summed in another order, so such a
product stays one call.  A hand-over costs about 50 us, so a small product
stays one call too.  At one BLAS thread the split pass was faster at every
basis measured, from 1.5 MiB up; SPLIT_BYTES sits just above 4.59 MiB, the
largest basis of a default-length solve at n = 2000, which keeps such
solves on the one-call path.  gltr's final s, the CLI's per-step iterates
and the Krylov reference's y2 use the same two functions.  The worker is one
daemon thread, started by a process's first split product (a forked child
starts its own), that serves one queue: the halves of callers that split at
the same time wait in line for it.

The package's one estimator of extremal eigenvalues and operator 2-norms
also lives here: a seeded run grown until its extreme Ritz values settle
(Lanczos, not the power method: Kuczynski and Wozniakowski, SIAM J. Matrix
Anal. Appl. 1992).
"""

from __future__ import annotations

import dataclasses
import functools
import math
import os
import queue
import threading
from dataclasses import dataclass

import numpy as np

from .linalg import SymmetricLinearOperator, SymmetricTridiagonal, extremal_eig_tridiagonal

BREAKDOWN_TOL = 1e-12  # breakdown: beta_{k+1} <= this * T's largest row sum (floor 1e-300)
# a step subtracts Q(Q'r) only when ||Q'r|| > this * ||r||: 8 unit roundoffs
ORTH_ETA = 2.0**-50
RESERVE_BYTES = 256 * 2**20  # a capacity hint reserves at most this much basis
# a product over at least this much basis splits over two threads: just above the basis of a
# default-length solve at n = 2000 (301 columns, 4.59 MiB); crossover measured in
# BENCH_gil_releasing_halves.json
SPLIT_BYTES = 5 * 2**20
_SQRT2 = math.sqrt(2.0)


class ZeroStartVector(Exception):
    pass


class AlreadyBrokenDown(Exception):
    pass


class _ColumnStore:
    """Column-major n x capacity buffer whose first `filled` columns are written,
    with T's diagonal and off-diagonal in two buffers of the same capacity.

    Column-major keeps every prefix contiguous with leading dimension n, so
    BLAS sees the same operands, and rounds the same way, whatever the
    capacity.  `views` holds read-only views of the three buffers, made once
    with the store: a value's basis, T and spare q_{k+1} are slices of them,
    and a slice of a read-only view is read-only.  `work` is the step's
    scratch, two n-vectors allocated once with the store: the residual being
    built and one product.  The capacity never changes.  A run that stops
    with room left writes its dangling q_{k+1} into the first unfilled
    column, the spare, which resuming then claims as it stands.
    """

    def __init__(self, n, capacity):
        self.array = np.empty((n, capacity), order="F")
        self.diag, self.off = np.empty(capacity), np.empty(capacity)
        self.views = tuple(_frozen(buffer.view()) for buffer in (self.array, self.diag, self.off))
        self.filled = 0
        self.work = tuple(np.empty((2, n)))

    def claim(self):
        """The next column, counted as filled; the caller writes it unless it
        is the spare."""
        self.filled += 1
        return self.array[:, self.filled - 1]

    @classmethod
    def copy_of(cls, f, capacity):
        """A new store holding a copy of f's basis and T."""
        order = f.tridiag.order
        store = cls(f.dim, capacity)
        store.array[:, :order] = f.basis
        store.diag[:order] = f.tridiag.diag
        store.off[: order - 1] = f.tridiag.offdiag
        store.filled = order
        return store


def _frozen(view):
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class LanczosFactorization:
    basis: np.ndarray  # n x (k+1), orthonormal columns q_0 .. q_k, read-only
    tridiag: SymmetricTridiagonal  # order k+1, read-only
    beta0: float  # ||g||
    beta_next: float  # beta_{k+1}
    broken_down: bool
    next_vector: np.ndarray | None  # q_{k+1}, read-only, kept so the run can be resumed
    _store: _ColumnStore | None = dataclasses.field(default=None, repr=False, compare=False)
    # the largest absolute row sum of T, its last row closed by beta_next
    _row_max: float = dataclasses.field(default=None, repr=False, compare=False)

    @property
    def k(self):
        return self.tridiag.order - 1

    @property
    def dim(self):
        return self.basis.shape[0]

    def trimmed(self):
        """The same factorization, holding no more basis columns than it uses.

        The store is dropped, and with it its step workspace.  When the store
        has no spare columns the basis and T stay views of it; otherwise they
        and q_{k+1} are copied out.  Returns self when there is no store.
        """
        if self._store is None:
            return self
        if self._store.array.shape[1] == self.basis.shape[1]:
            return dataclasses.replace(self, _store=None)
        T = self.tridiag
        return dataclasses.replace(
            self,
            basis=_frozen(self.basis.copy(order="F")),
            tridiag=SymmetricTridiagonal(
                _frozen(T.diag.copy()), _frozen(T.offdiag.copy()), T.inf_norm()
            ),
            next_vector=None if self.next_vector is None else _frozen(self.next_vector.copy()),
            _store=None,
        )

    def leading(self, order):
        """The factorization of this run's first `order` steps, as a run that
        stopped there would return it, trimmed.

        Its basis is the first `order` columns, T is the leading block, and
        beta_next and q_{k+1} are the next off-diagonal entry and column; they
        are views, not copies.  The row maximum is that of its own rows, the
        last closed by beta_next, so extend_lanczos on it matches a fresh
        longer run entrywise.  Returns self.trimmed() at this run's order.
        """
        if not 1 <= order <= self.tridiag.order:
            raise ValueError(f"order must lie in 1..{self.tridiag.order}, got {order!r}")
        if order == self.tridiag.order:
            return self.trimmed()
        T = self.tridiag.leading(order)
        right = np.abs(self.tridiag.offdiag[:order])
        # each row's |d_i| + |e_i| + |e_{i-1}|, in _close_row's order
        row_max = float((np.abs(T.diag) + right + np.concatenate(([0.0], right[:-1]))).max())
        beta_next, q_next = float(self.tridiag.offdiag[order - 1]), self.basis[:, order]
        return LanczosFactorization(
            self.basis[:, :order], T, self.beta0, beta_next, False, q_next, None, row_max
        )


def _close_row(row_max, delta, left, beta):
    """The running row maximum of T with its last row, diagonal entry delta
    and off-diagonal `left` above it (0.0 in the first row), closed by beta.
    A row adds |d_i| + |e_i| + |e_{i-1}|, SymmetricTridiagonal.inf_norm's
    order, so a row closed inside T sums bitwise as in T's inf-norm."""
    return max(row_max, abs(delta) + abs(beta) + abs(left))


def qt_times(Q, v):
    """Q'v for a column-major n x j basis Q, bitwise the one-call product.
    Split, the worker thread forms the entries of the columns from `cut` on,
    a multiple of 4 near j/2, and the caller the others, each part an
    `np.dot` product, which releases the interpreter lock during BLAS."""
    j = Q.shape[1]
    cut = 4 * ((j + 4) // 8)
    if not _splits(Q, cut, j):
        return Q.T @ v
    out = np.empty(j)
    _split(
        lambda: np.dot(Q[:, :cut].T, v, out=out[:cut]),
        lambda: np.dot(Q[:, cut:].T, v, out=out[cut:]),
    )
    return out


def q_times(Q, c, out=None):
    """Qc for a column-major n x j basis Q, written into `out` when given,
    bitwise the one-call product.  Split, the worker thread forms the rows
    from `cut` on, a multiple of 64 near n/2, and the caller the others."""
    n = Q.shape[0]
    if out is None:
        out = np.empty(n)
    cut = 64 * ((n + 64) // 128)
    if not _splits(Q, cut, n):
        return np.matmul(Q, c, out=out)
    _split(
        lambda: np.matmul(Q[:cut], c, out=out[:cut]),
        lambda: np.matmul(Q[cut:], c, out=out[cut:]),
    )
    return out


def _splits(Q, cut, size):
    """Whether a product over Q splits its `size` columns or rows at `cut`:
    Q holds at least SPLIT_BYTES, two CPUs are usable, and neither part is
    empty or one column or row, a dot product that numpy sums its own way."""
    return Q.nbytes >= SPLIT_BYTES and 0 < cut < size - 1 and _two_cpus()


@functools.cache
def _two_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) >= 2
    return (os.cpu_count() or 1) >= 2


_jobs = None  # this process's queue of (job, reply) pairs, made by its first split product
_jobs_start = threading.Lock()


def _split(first, second):
    """Run `first` on the caller and `second` on this process's worker
    thread, trslab-split, and return when both are done, re-raising an
    exception of either.  Each call waits on a reply queue of its own, so
    an interrupted wait leaves nothing that a later call shares."""
    global _jobs
    with _jobs_start:
        if _jobs is None:
            _jobs = queue.SimpleQueue()
            threading.Thread(target=_serve, args=(_jobs,), name="trslab-split", daemon=True).start()
    reply = queue.SimpleQueue()
    _jobs.put((second, reply))
    try:
        first()
    finally:
        error = reply.get()
    if error is not None:
        raise error


def _serve(jobs):
    while True:
        job, reply = jobs.get()
        try:
            job()
            reply.put(None)
        except Exception as exc:  # re-raised by the caller
            reply.put(exc)
        del job, reply  # a held job would keep a view of a finished run's basis alive


def _forget_jobs():  # a forked child's copy of the queue has no thread behind it
    global _jobs, _jobs_start
    _jobs, _jobs_start = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_jobs)


def _reorthogonalize(qmat, r, work):
    """Remove from r, in place, its components along the orthonormal columns
    of qmat; `work` is an n-vector of scratch.

    It first forms c = qmat' r.  When ||c|| <= ORTH_ETA ||r||, r is left as
    it is: the inner products of r / ||r|| with the basis, as measured, are
    the entries of c / ||r||, each at most ORTH_ETA, a bound checked on every
    step rather than an estimate of the loss (as partial reorthogonalization,
    Simon 1984, makes).  Otherwise r -= qmat c is one classical Gram-Schmidt
    pass, and a second follows only when the first left ||r|| below
    ||r_before|| / sqrt(2): a pass that shrinks r less than that leaves it
    orthogonal to working precision (Kahan-Parlett "twice is enough";
    Parlett, The Symmetric Eigenvalue Problem; Giraud, Langou and Rozloznik
    2005).  Returns (||r||, subtractions), with 0, 1 or 2 subtractions.
    Norms are sqrt(x'x), numpy.linalg.norm's own formula for a real vector,
    without its per-call overhead.
    """
    before = math.sqrt(r @ r)
    c = qt_times(qmat, r)
    if math.sqrt(c @ c) <= ORTH_ETA * before:
        return before, 0
    np.subtract(r, q_times(qmat, c, out=work), out=r)
    beta = math.sqrt(r @ r)
    if beta >= before / _SQRT2:
        return beta, 1
    np.subtract(r, q_times(qmat, qt_times(qmat, r), out=work), out=r)
    return math.sqrt(r @ r), 2


def _grow(A, store, row_max, left, order_target):
    """Advance the three-term recurrence until `order_target` steps are done.

    Invariant on entry: T holds one row fewer than `store.filled`, the last
    filled column is the vector still to be processed, `left` is the
    off-diagonal entry above its row (0.0 for the first row) and row_max
    covers the rows above it.  The store is mutated in place; returns
    (beta_next, q_next, broken_down, row_max, inf_norm), row_max now covering
    every row of T, the last closed by beta_next, and inf_norm T's own, whose
    last row leaves out beta_next.  A step writes only into the store's
    workspace, its T buffers and its next column, never into the array that
    A.apply returns: an operator may hand back its input or a buffer of its
    own.
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
        store.diag[j - 1] = delta
        np.multiply(q_cur, delta, out=work)
        np.subtract(w, work, out=r)
        if j > 1:
            np.multiply(store.array[:, j - 2], left, out=work)
            np.subtract(r, work, out=r)
        # complete reorthogonalization: Q'r measured, then no pass when it is
        # at rounding level, one, or a second when the first cancels
        beta, _ = _reorthogonalize(store.array[:, :j], r, work)
        if not math.isfinite(beta):  # checked once, here
            raise ValueError("nonfinite entries")
        closed = _close_row(row_max, delta, left, beta)
        # the scale is floored here, not in row_max, so T's inf-norm stays exact
        if beta <= BREAKDOWN_TOL * max(closed, 1e-300) or j >= n:
            q_next, broken = None, True
        elif j == order_target:
            broken = False
            if j < store.array.shape[1]:  # room left: q_next waits in the spare column
                np.divide(r, beta, out=store.array[:, j])
                q_next = store.views[0][:, j]
            else:
                q_next = _frozen(r / beta)
        else:
            store.off[j - 1] = left = beta
            row_max = closed
            np.divide(r, beta, out=store.claim())
            continue
        # T's inf-norm: row_max covers the rows above the last, whose sum leaves out beta
        return beta, q_next, broken, closed, max(row_max, abs(delta) + abs(left))


def _assemble(store, beta0, beta_next, q_next, broken, row_max, inf_norm):
    # positional: keywords add about a third to the frozen dataclasses' __init__
    m = store.filled
    basis, diag, off = store.views
    tridiag = SymmetricTridiagonal(diag[:m], off[: m - 1], inf_norm)
    return LanczosFactorization(
        basis[:, :m], tridiag, beta0, beta_next, broken, q_next, store, row_max
    )


def lanczos_run(A, g, k_max, capacity=None):
    """Run the Lanczos process on (A, g) through step min(k_max, breakdown).

    The first basis vector is g normalized, so Q_k^T g = beta0 * e_1.
    max(capacity, k_max + 1) basis columns are reserved, at most n; a caller
    that will extend the run passes the final count it expects, so that the
    extensions append in place.  The capacity hint is clipped to the columns
    that RESERVE_BYTES holds; a longer run then grows by extend_lanczos's
    copy, with the same entries.  Pages become resident as columns are
    written, but numpy asks for transparent huge pages on arrays of 4 MiB or
    more, so a large store may hold up to 2 MiB beyond its written columns.
    """
    g = np.asarray(g, dtype=float)
    if g.size != A.dim:
        raise ValueError(f"start vector has length {g.size}, operator order {A.dim}")
    beta0 = float(np.linalg.norm(g))
    if beta0 == 0.0:
        raise ZeroStartVector("start vector has zero norm")
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    hint = min(capacity or 0, RESERVE_BYTES // (8 * g.size))
    store = _ColumnStore(g.size, min(g.size, max(hint, k_max + 1)))
    np.divide(g, beta0, out=store.claim())
    grown = _grow(A, store, 0.0, 0.0, k_max + 1)
    return _assemble(store, beta0, *grown)


def extend_lanczos(f, A, steps):
    """Continue a factorization by the given number of steps.

    Extending is deterministic: the result matches a single longer run
    entrywise, and f itself is left unchanged.  Extending the newest value
    on a store whose capacity holds the new steps appends to it in place,
    claiming q_{k+1} where it lies in the spare column.  Any other value is
    copied first into a new store of min(n, max(order + steps, 2 * order))
    columns, so one-step extensions past a full store copy the basis only
    at doublings.  In place the call costs O(1) beyond the steps themselves,
    whatever k is, so a caller may extend one step at a time.  Raises
    AlreadyBrokenDown if the process already terminated.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if steps == 0:
        return f
    if f.broken_down:
        raise AlreadyBrokenDown("Lanczos process has already broken down")
    if A.dim != f.dim:
        raise ValueError(f"operator order {A.dim}, factorization length {f.dim}")
    order, store = f.basis.shape[1], f._store
    end = min(f.dim, order + steps)
    if store is not None and store.filled == order and end <= store.array.shape[1]:
        # f is the newest value on its store, which has room, so q_{k+1}
        # lies in the spare column
        store.claim()
    else:
        store = _ColumnStore.copy_of(f, max(end, min(f.dim, 2 * order)))
        store.claim()[:] = f.next_vector
    # re-enter the recurrence at the dangling (beta_next, q_next) step
    store.off[order - 1] = f.beta_next
    grown = _grow(A, store, f._row_max, f.beta_next, order + steps)
    return _assemble(store, f.beta0, *grown)


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
