import math
import multiprocessing
import os
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from oracles import settled_extremes_in_blocks

from trslab import lanczos
from trslab import linalg as la
from trslab.experiments import ProblemSpec, generate
from trslab.lanczos import (
    AlreadyBrokenDown,
    LanczosFactorization,
    ZeroStartVector,
    _close_row,
    _reorthogonalize,
    _row_maximum,
    extend_lanczos,
    lanczos_run,
    operator_norm_2,
)


def diag_op(d):
    return la.SymmetricLinearOperator.from_diagonal(np.asarray(d, dtype=float))


def test_identity_breaks_down_immediately():
    A = diag_op(np.ones(6))
    g = np.array([1.0, 2.0, -1.0, 0.5, 0.0, 3.0])
    f = lanczos_run(A, g, 10)
    assert f.broken_down
    assert f.k == 0
    np.testing.assert_allclose(f.tridiag.diag, [1.0])
    assert f.beta_next <= 1e-12


def test_eigenvector_start_breaks_down():
    A = diag_op([1.0, 2.0, 3.0])
    f = lanczos_run(A, np.array([1.0, 0.0, 0.0]), 10)
    assert f.broken_down and f.k == 0
    np.testing.assert_allclose(f.tridiag.diag, [1.0])


def test_two_by_two_recurrence():
    A = diag_op([1.0, 2.0])
    g = np.array([1.0, 1.0]) / np.sqrt(2)
    f = lanczos_run(A, g, 10)
    np.testing.assert_allclose(f.tridiag.diag, [1.5, 1.5], atol=1e-14)
    np.testing.assert_allclose(f.tridiag.offdiag, [0.5], atol=1e-14)
    assert f.broken_down and f.k == 1


def test_zero_start_vector_rejected():
    with pytest.raises(ZeroStartVector):
        lanczos_run(diag_op([1.0, 2.0]), np.zeros(2), 3)


def _assert_same_factorization(a, b):
    assert np.array_equal(a.basis, b.basis)
    assert np.array_equal(a.tridiag.diag, b.tridiag.diag)
    assert np.array_equal(a.tridiag.offdiag, b.tridiag.offdiag)
    assert a.beta_next == b.beta_next
    assert np.array_equal(a.next_vector, b.next_vector)


def _assert_row_maximum(f):
    # the maximum an extension recomputes is T's largest absolute row sum with
    # its last row closed by beta_next: the inf-norm of T bordered by [beta_next, 0]
    T = f.tridiag
    bordered = la.SymmetricTridiagonal(np.append(T.diag, 0.0), np.append(T.offdiag, f.beta_next))
    assert _row_maximum(T.diag, np.append(T.offdiag, f.beta_next)) == bordered.inf_norm()
    # and T's carried inf-norm is the one recomputed from all its rows
    assert T.inf_norm() == la.SymmetricTridiagonal(T.diag.copy(), T.offdiag.copy()).inf_norm()


def test_extension_matches_longer_run_bitwise():
    rng = np.random.default_rng(7)
    A = diag_op(rng.standard_normal(500))
    g = rng.standard_normal(500)
    # each extension copies the run into a store of its own
    for start, steps in [(2, 3), (0, 40), (7, 30)]:
        full = lanczos_run(A, g, start + steps)
        stepped = extend_lanczos(lanczos_run(A, g, start), A, steps)
        _assert_same_factorization(full, stepped)
        one_at_a_time = lanczos_run(A, g, start)
        for _ in range(steps):
            one_at_a_time = extend_lanczos(one_at_a_time, A, 1)
        _assert_same_factorization(full, one_at_a_time)


def test_extending_one_factorization_twice_keeps_both_values():
    rng = np.random.default_rng(11)
    A = diag_op(rng.standard_normal(300))
    g = rng.standard_normal(300)
    base = lanczos_run(A, g, 3)
    first = extend_lanczos(base, A, 4)
    first_basis = first.basis.copy()
    first_diag = first.tridiag.diag.copy()
    second = extend_lanczos(base, A, 6)
    assert np.array_equal(first.basis, first_basis)
    assert np.array_equal(first.tridiag.diag, first_diag)
    _assert_same_factorization(base, lanczos_run(A, g, 3))
    _assert_same_factorization(first, lanczos_run(A, g, 7))
    _assert_same_factorization(second, lanczos_run(A, g, 9))
    _assert_same_factorization(extend_lanczos(first, A, 2), second)


def test_leading_is_the_shorter_run_and_resumes_bitwise():
    rng = np.random.default_rng(23)
    A = diag_op(rng.standard_normal(300) * 10.0 ** rng.uniform(-3, 3, 300))
    g = rng.standard_normal(300)
    full = lanczos_run(A, g, 30)
    for order in (1, 2, 7, 30, 31):
        lead = full.leading(order)
        fresh = lanczos_run(A, g, order - 1)
        _assert_same_factorization(lead, fresh)
        assert (lead.beta0, lead.broken_down) == (fresh.beta0, fresh.broken_down)
        assert lead.tridiag.inf_norm() == fresh.tridiag.inf_norm()
        _assert_row_maximum(lead)
        assert lead._store is None
        _assert_same_factorization(extend_lanczos(lead, A, 5), lanczos_run(A, g, order + 4))
    for order in (0, 32):
        with pytest.raises(ValueError, match="order must lie in 1..31"):
            full.leading(order)

    # a run that broke down: only its full order keeps the breakdown
    A = diag_op(np.repeat([-1.0, 0.5, 2.0, 3.0, 7.0], 4))
    broken = lanczos_run(A, np.ones(20) + np.arange(20.0), 10)
    assert broken.broken_down and broken.k == 4
    assert broken.leading(5).broken_down
    lead, fresh = broken.leading(3), lanczos_run(A, np.ones(20) + np.arange(20.0), 2)
    _assert_same_factorization(lead, fresh)
    assert not lead.broken_down


def test_basis_is_read_only():
    # three distinct eigenvalues: breakdown after 3 of the 11 reserved columns
    A = diag_op(np.repeat([1.0, 2.0, 3.0], 10))
    f = lanczos_run(A, np.ones(30), 10)
    assert f.broken_down and f.k == 2
    trimmed = f.trimmed()
    assert trimmed is not f
    assert np.array_equal(trimmed.basis, f.basis)
    for basis in (f.basis, trimmed.basis):
        with pytest.raises(ValueError):
            basis[0, 0] = 1.0


def _exposed_arrays(f):
    arrays = [f.basis, f.tridiag.diag, f.tridiag.offdiag]
    return arrays if f.next_vector is None else arrays + [f.next_vector]


def _snapshot(f):
    return [a.tobytes() for a in _exposed_arrays(f)] + [f.beta_next]


def test_older_values_stay_bitwise_unchanged():
    rng = np.random.default_rng(19)
    A = diag_op(rng.standard_normal(300))
    g = rng.standard_normal(300)
    values = [lanczos_run(A, g, 2)]
    snapshots = [_snapshot(values[0])]
    # one step at a time, and a branch from an older value
    for _ in range(10):
        values.append(extend_lanczos(values[-1], A, 1))
        snapshots.append(_snapshot(values[-1]))
    branch = extend_lanczos(values[4], A, 6)
    _assert_same_factorization(branch, values[-1])
    values.append(extend_lanczos(values[-1], A, 30))
    # every extension writes into a store of its own
    assert len({id(value._store) for value in values + [branch]}) == len(values) + 1
    for value, snapshot in zip(values, snapshots):
        assert _snapshot(value) == snapshot
        _assert_same_factorization(value, lanczos_run(A, g, value.k))


def test_exposed_arrays_are_read_only():
    rng = np.random.default_rng(37)
    A = diag_op(rng.standard_normal(200))
    g = rng.standard_normal(200)
    base = lanczos_run(A, g, 3)
    newest = extend_lanczos(base, A, 2)
    branch = extend_lanczos(base, A, 4)
    full = lanczos_run(A, g, 3)
    for f in (base, newest, branch, full, newest.trimmed()):
        assert f.next_vector is not None
        for array in _exposed_arrays(f):
            with pytest.raises(ValueError):
                array[0] = 1.0


def test_trimmed_shares_no_memory_with_the_store():
    rng = np.random.default_rng(47)
    A = diag_op(rng.standard_normal(500))
    g = rng.standard_normal(500)
    # stopped after 8 of its 50 reserved columns
    f = lanczos_run(A, g, 49, stop=lambda T, beta_next, broken_down: T.order == 8)
    store = f._store
    assert store.array.shape[1] == 50
    trimmed = f.trimmed()
    assert trimmed._store is None
    for array in _exposed_arrays(trimmed):
        for buffer in (store.array, store.diag, store.off):
            assert not np.shares_memory(array, buffer)
    _assert_same_factorization(trimmed, f)
    assert trimmed.tridiag.inf_norm() == f.tridiag.inf_norm()
    _assert_same_factorization(extend_lanczos(trimmed, A, 5), lanczos_run(A, g, 12))


def test_one_step_extensions_match_fresh_runs_bitwise():
    rng = np.random.default_rng(53)
    A = diag_op(rng.standard_normal(300))
    g = rng.standard_normal(300)

    def step(f):
        grown = extend_lanczos(f, A, 1)
        fresh = lanczos_run(A, g, grown.k)
        _assert_same_factorization(grown, fresh)
        assert grown.tridiag.inf_norm() == fresh.tridiag.inf_norm()
        _assert_row_maximum(grown)
        # a copy of f, reserved for its one new step
        assert grown._store is not f._store and grown._store.array.shape[1] == grown.k + 1
        return grown

    values = [lanczos_run(A, g, 2)]
    for _ in range(3):
        values.append(step(values[-1]))
    # the same value again: another copy
    branch = step(values[-2])
    assert branch._store is not values[-1]._store
    # every value, before and after the copies, is still read-only
    for f in values + [branch]:
        for array in _exposed_arrays(f):
            with pytest.raises(ValueError):
                array[0] = 1.0
    # trimming a value on a full store keeps its basis and T as views of the
    # store, with no copy, but drops the store and its step workspace
    full = lanczos_run(A, g, 6)
    full_trimmed = full.trimmed()
    assert full_trimmed._store is None
    assert full_trimmed.basis is full.basis and full_trimmed.tridiag is full.tridiag
    assert np.shares_memory(full_trimmed.basis, full._store.array)
    snapshot = _snapshot(full_trimmed)
    step(full_trimmed)
    step(full)
    assert _snapshot(full_trimmed) == snapshot


def test_extend_by_zero_is_identity():
    A = diag_op(np.arange(1.0, 9.0))
    g = np.ones(8)
    f = lanczos_run(A, g, 2)
    assert extend_lanczos(f, A, 0) is f


def test_extend_past_breakdown_raises():
    A = diag_op([1.0, 2.0])
    f = lanczos_run(A, np.array([1.0, 1.0]) / np.sqrt(2), 10)
    assert f.broken_down
    with pytest.raises(AlreadyBrokenDown):
        extend_lanczos(f, A, 1)


def _assert_bitwise(a, b):
    # every field of two factorizations, byte for byte
    assert a.basis.tobytes() == b.basis.tobytes()
    assert a.tridiag.diag.tobytes() == b.tridiag.diag.tobytes()
    assert a.tridiag.offdiag.tobytes() == b.tridiag.offdiag.tobytes()
    assert a.tridiag.inf_norm() == b.tridiag.inf_norm()
    assert (a.beta0, a.beta_next, a.broken_down) == (b.beta0, b.beta_next, b.broken_down)
    assert (a.next_vector is None) == (b.next_vector is None)
    if a.next_vector is not None:
        assert a.next_vector.tobytes() == b.next_vector.tobytes()


class _Recorder:
    """A stop hook that records what it is shown and asks to stop at one order."""

    def __init__(self, stop_order=None):
        self.stop_order = stop_order
        self.seen = []  # (T's order, beta_next, broken_down) per call
        self.last_T = None

    def __call__(self, T, beta_next, broken_down):
        assert not T.diag.flags.writeable and not T.offdiag.flags.writeable
        # the floats the step hands along are T's last row
        assert T._last_row[0] == T.diag[-1]
        assert T.order == 1 or T._last_row[1] == T.offdiag[-1]
        self.seen.append((T.order, beta_next, broken_down))
        self.last_T = T
        return T.order == self.stop_order


@pytest.mark.parametrize("k", [0, 7])
def test_stop_hook_ends_a_run_as_the_shorter_run_bitwise(k):
    rng = np.random.default_rng(59)
    A = diag_op(rng.standard_normal(300))
    g = rng.standard_normal(300)
    hook = _Recorder(stop_order=k + 1)
    stopped = lanczos_run(A, g, 40, stop=hook)
    shorter = lanczos_run(A, g, k)
    _assert_bitwise(stopped, shorter)
    # called once per step, with the T and beta_next of the run that ended there
    assert [order for order, _, _ in hook.seen] == list(range(1, k + 2))
    assert hook.seen[-1] == (k + 1, shorter.beta_next, False)
    assert hook.last_T.diag.tobytes() == shorter.tridiag.diag.tobytes()
    assert hook.last_T.inf_norm() == shorter.tridiag.inf_norm()
    for order, beta, _ in hook.seen[:-1]:
        assert beta == shorter.tridiag.offdiag[order - 1]
    _assert_bitwise(extend_lanczos(stopped, A, 5), lanczos_run(A, g, k + 5))


def test_stop_hook_sees_breakdown_once():
    # n = 8 distinct eigenvalues: the process breaks down at j = n
    A = diag_op(np.linspace(1.0, 8.0, 8))
    g = np.random.default_rng(61).standard_normal(8)
    hook = _Recorder()
    f = lanczos_run(A, g, 20, stop=hook)
    assert f.broken_down and f.k == 7
    _assert_bitwise(f, lanczos_run(A, g, 20))
    assert [broken for _, _, broken in hook.seen] == [False] * 7 + [True]
    assert hook.seen[-1][:2] == (8, f.beta_next)
    # a hook that asks to stop at the breakdown step changes nothing
    _assert_bitwise(lanczos_run(A, g, 20, stop=_Recorder(stop_order=8)), f)


def test_stop_hook_ends_a_growing_run_as_the_shorter_run_bitwise(monkeypatch):
    rng = np.random.default_rng(67)
    A = diag_op(rng.standard_normal(300))
    g = rng.standard_normal(300)
    reference = [lanczos_run(A, g, k) for k in (8, 12)]
    # a store of 3 columns: the run goes on in copies of 6 and 12 columns
    monkeypatch.setattr(lanczos, "RESERVE_BYTES", 3 * 8 * 300)
    hook = _Recorder(stop_order=9)
    stopped = lanczos_run(A, g, 20, stop=hook)
    assert stopped._store.array.shape[1] == 12
    assert [order for order, _, _ in hook.seen] == list(range(1, 10))
    _assert_bitwise(stopped, reference[0])
    _assert_bitwise(stopped, extend_lanczos(lanczos_run(A, g, 2), A, 6))
    _assert_bitwise(extend_lanczos(stopped, A, 4), reference[1])


def test_an_exception_in_the_stop_hook_propagates():
    rng = np.random.default_rng(71)
    A = diag_op(rng.standard_normal(200))
    g = rng.standard_normal(200)
    reference = lanczos_run(A, g, 12)

    def failing(T, beta_next, broken_down):
        if T.order == 5:
            raise RuntimeError("hook failed")
        return False

    with pytest.raises(RuntimeError, match="hook failed"):
        lanczos_run(A, g, 12, stop=failing)
    base = lanczos_run(A, g, 2)
    before = _snapshot(base)
    with pytest.raises(RuntimeError, match="hook failed"):
        lanczos_run(A, g, 12, stop=failing)
    # earlier values, and later runs, are as if it had not happened
    assert _snapshot(base) == before
    _assert_bitwise(extend_lanczos(base, A, 10), reference)
    _assert_bitwise(lanczos_run(A, g, 12), reference)
    _assert_bitwise(lanczos_run(A, g, 12, stop=_Recorder()), reference)


def test_capped_run_grows_by_copy_bitwise(monkeypatch):
    # a reservation held to 3 columns by RESERVE_BYTES: the run goes on in
    # copies of twice the order, bitwise the run that reserved all its columns
    n = 2000
    rng = np.random.default_rng(8)
    A = diag_op(np.linspace(-1.0, 100.0, n))
    g = rng.standard_normal(n)
    capacities = []

    class RecordingStore(lanczos._ColumnStore):
        def __init__(self, basis, diag, off, capacity):
            capacities.append(capacity)
            super().__init__(basis, diag, off, capacity)

    monkeypatch.setattr(lanczos, "_ColumnStore", RecordingStore)
    uncapped = lanczos_run(A, g, 47)
    assert capacities == [48]
    capacities.clear()
    monkeypatch.setattr(lanczos, "RESERVE_BYTES", 3 * 8 * n)
    capped = lanczos_run(A, g, 47)
    assert capacities == [3, 6, 12, 24, 48]
    _assert_bitwise(capped, uncapped)


@pytest.mark.parametrize("count", [1e3, 2.0, True, False, "3", None, -1])
def test_counts_that_are_not_ints_at_least_zero_rejected(count):
    A, g = diag_op(np.arange(1.0, 9.0)), np.ones(8)
    f = lanczos_run(A, g, 2)
    with pytest.raises(ValueError, match="k_max must be"):
        lanczos_run(A, g, count)
    with pytest.raises(ValueError, match="steps must be"):
        extend_lanczos(f, A, count)
    # numpy integers are ints
    _assert_bitwise(lanczos_run(A, g, np.int64(3)), extend_lanczos(f, A, np.int32(1)))


def _counting(d):
    # a diagonal operator and the list its applies append to
    applies, A = [], diag_op(d)
    return la.SymmetricLinearOperator(len(d), lambda v: applies.append(1) or A.apply(v)), applies


@pytest.mark.parametrize(
    "d, steps",
    [
        ([3.0], 1),
        ([1.0, 2.0], 2),
        (np.repeat([-2.0, 0.5, 1.0, 3.0, 7.0], 10), 5),
        (np.concatenate([[-50.0], np.linspace(0.0, 1.0, 298), [50.0]]), 21),
        (np.linspace(1.0, 2.0, 3000), 261),
    ],
    ids=["n=1", "n=2", "breakdown-at-4", "settled-at-20", "cap-260"],
)
def test_estimator_matches_the_ten_step_extension_loop_bitwise(d, steps):
    # one run with the settling test as its hook reads the extremes where the
    # loop of 10-step extensions read them, and stops where it stopped
    A, applies = _counting(d)
    estimate = lanczos.estimate_extremal_eigenvalues(A)
    assert len(applies) == steps
    applies.clear()
    reference = settled_extremes_in_blocks(A, watch_bottom=True)
    assert len(applies) == steps
    assert np.array(estimate).tobytes() == np.array(reference).tobytes()


class _Dense:
    def __init__(self, M):
        self.M, self.shape, self.applies = M, M.shape, []

    def apply(self, v):
        self.applies.append(1)
        return self.M @ v

    def apply_transpose(self, v):
        return self.M.T @ v


def test_operator_norm_matches_the_ten_step_extension_loop_bitwise():
    # graded singular values: watching only the top end of M'M, the loop
    # settles before the one that also watches the bottom end
    rng = np.random.default_rng(83)
    U, _ = np.linalg.qr(rng.standard_normal((400, 300)))
    V, _ = np.linalg.qr(rng.standard_normal((300, 300)))
    op = _Dense(U @ np.diag(np.logspace(0, -6, 300)) @ V.T)
    norm = operator_norm_2(op)
    steps = len(op.applies)
    gram = la.SymmetricLinearOperator(300, lambda v: op.apply_transpose(op.apply(v)))
    op.applies.clear()
    _, top = settled_extremes_in_blocks(gram, watch_bottom=False)
    assert len(op.applies) == steps
    assert norm.hex() == math.sqrt(max(top, 0.0)).hex()
    op.applies.clear()
    settled_extremes_in_blocks(gram, watch_bottom=True)
    assert steps < len(op.applies)


def test_operator_of_another_order_rejected_before_any_apply():
    f = lanczos_run(diag_op(np.arange(1.0, 11.0)), np.ones(10), 3)
    applies = []
    A = la.SymmetricLinearOperator(11, lambda v: applies.append(1) or 2.0 * v)
    with pytest.raises(ValueError, match="operator order 11, factorization length 10"):
        extend_lanczos(f, A, 2)
    assert applies == []


def test_operator_returning_its_input():
    # the identity hands back the very array it is given, a column of the
    # basis store: the step must not write into it
    g = np.array([1.0, 2.0, -1.0, 0.5, 3.0])
    f = lanczos_run(la.SymmetricLinearOperator(5, lambda v: v), g, 3)
    assert f.broken_down and f.k == 0
    assert np.linalg.norm(f.basis[:, 0]) == pytest.approx(1.0, abs=1e-15)
    assert np.array_equal(f.basis[:, 0], g / np.linalg.norm(g))
    _assert_same_factorization(f, lanczos_run(la.SymmetricLinearOperator(5, np.copy), g, 3))


def test_operator_returning_a_shared_buffer():
    # every apply overwrites and returns the same array
    rng = np.random.default_rng(41)
    n = 800
    d = rng.standard_normal(n)
    buf = np.empty(n)
    shared = la.SymmetricLinearOperator(n, lambda v: np.multiply(d, v, out=buf))
    g = rng.standard_normal(n)
    runs = [extend_lanczos(lanczos_run(A, g, 10), A, 20) for A in (shared, diag_op(d))]
    assert not runs[0].broken_down
    _assert_same_factorization(*runs)


def _out_of_place_run(A, g, steps):
    """The Lanczos step written with out-of-place expressions, each
    allocating its result, in the order the in-place step runs them: Q'r on
    every step, then no subtraction while ||Q'r|| <= ORTH_ETA ||r||, else one
    or, when the first cancels, two.

    Runs `steps` steps without a breakdown and returns (Q, diag, off): Q has
    the steps + 1 basis columns and the dangling next vector after them, off
    ends with that vector's beta.
    """
    n = g.size
    beta0 = float(np.linalg.norm(g))
    Q = np.empty((n, steps + 2), order="F")  # column-major, as the store
    Q[:, 0] = g / beta0
    diag, off = [], []
    for j in range(1, steps + 2):
        q = Q[:, j - 1]
        w = A.apply(q)
        delta = float(q @ w)
        diag.append(delta)
        r = w - delta * q
        if off:
            r = r - off[-1] * Q[:, j - 2]
        before = beta = float(np.linalg.norm(r))
        c = Q[:, :j].T @ r
        if np.linalg.norm(c) > lanczos.ORTH_ETA * before:
            r = r - Q[:, :j] @ c
            beta = float(np.linalg.norm(r))
            if beta < before / np.sqrt(2.0):
                r = r - Q[:, :j] @ (Q[:, :j].T @ r)
                beta = float(np.linalg.norm(r))
        off.append(beta)
        Q[:, j] = r / beta
    return Q, diag, off


def _assert_matches_reference(f, reference):
    Q, diag, off = reference
    k = f.k
    assert not f.broken_down
    assert np.array_equal(f.basis, Q[:, : k + 1])
    assert np.array_equal(f.tridiag.diag, diag[: k + 1])
    assert np.array_equal(f.tridiag.offdiag, off[:k])
    assert f.beta_next == off[k]
    assert np.array_equal(f.next_vector, Q[:, k + 1])


def test_in_place_step_matches_out_of_place_arithmetic_bitwise(monkeypatch):
    passes = []

    def recording(qmat, r, work):
        beta, count = reorthogonalize(qmat, r, work)
        passes.append(count)
        return beta, count

    reorthogonalize = lanczos._reorthogonalize
    monkeypatch.setattr(lanczos, "_reorthogonalize", recording)
    rng = np.random.default_rng(43)
    n = 5000
    A = diag_op(rng.standard_normal(n))
    g = rng.standard_normal(n)
    reference = _out_of_place_run(A, g, 40)
    # extended in blocks from a 4-column run, each block in a copy that just holds it
    grown = lanczos_run(A, g, 3)
    stores = []
    for steps in (1, 3, 33):
        grown = extend_lanczos(grown, A, steps)
        stores.append(grown._store)
        _assert_matches_reference(grown, reference)
    assert [store.array.shape[1] for store in stores] == [5, 8, 41]
    # two extensions branched from one factorization
    base = lanczos_run(A, g, 10)
    first = extend_lanczos(base, A, 15)
    second = extend_lanczos(base, A, 30)
    for f in (base, first, second):
        _assert_matches_reference(f, reference)
    # one step per call
    stepped = lanczos_run(A, g, 0)
    for _ in range(40):
        stepped = extend_lanczos(stepped, A, 1)
    _assert_matches_reference(stepped, reference)
    # a run that outgrows a 3-column reservation goes on in copies of twice the order
    monkeypatch.setattr(lanczos, "RESERVE_BYTES", 3 * 8 * n)
    grown = lanczos_run(A, g, 40)
    assert grown._store.array.shape[1] == 41
    _assert_matches_reference(grown, reference)
    # steps whose Q'r is at rounding level subtract nothing, the others once
    assert {0, 1} == set(passes)

    # an outlier eigenvector in the basis and exactly repeated eigenvalues:
    # each time the Krylov space is exhausted, the residual is rounding error
    # from the outlier's coordinate, which the first pass cancels
    d = np.concatenate([[1e6], np.repeat([1.0, 2.0], n // 2)[: n - 1]])
    A = diag_op(d)
    reference = _out_of_place_run(A, g, 30)
    passes.clear()
    monkeypatch.setattr(lanczos, "BREAKDOWN_TOL", 0.0)
    f = lanczos_run(A, g, 12)
    f = extend_lanczos(f, A, 18)
    _assert_matches_reference(f, reference)
    assert {0, 1, 2} == set(passes)


def _sparse_symmetric(rng, n, nnz_per_row=4):
    rows = np.repeat(np.arange(n), nnz_per_row)
    cols = rng.integers(0, n, rows.size)
    vals = rng.standard_normal(rows.size)
    r = np.concatenate([rows, cols])
    c = np.concatenate([cols, rows])
    v = np.concatenate([vals, vals])
    return la.SymmetricLinearOperator.from_triplets(n, r, c, v)


def test_invariants_on_random_sparse_operator():
    rng = np.random.default_rng(17)
    n = 1500
    A = _sparse_symmetric(rng, n)
    g = rng.standard_normal(n)
    f = lanczos_run(A, g, 80)
    Q = f.basis
    k1 = Q.shape[1]
    # orthonormality and the projected-gradient relation at every prefix
    assert np.abs(Q.T @ Q - np.eye(k1)).max() <= 1e-10
    e1 = np.zeros(k1)
    e1[0] = 1.0
    assert np.linalg.norm(Q.T @ g - f.beta0 * e1) <= 1e-10 * f.beta0
    # three-term relation
    AQ = np.column_stack([A.apply(Q[:, j]) for j in range(k1)])
    resid = AQ - Q @ f.tridiag.to_dense()
    if not f.broken_down:
        resid[:, -1] -= f.beta_next * f.next_vector
    anorm = operator_norm_2(A)
    assert np.abs(resid).max() <= 1e-10 * anorm
    # T equals the projection of A
    t_proj = Q.T @ AQ
    assert np.abs(t_proj - f.tridiag.to_dense()).max() <= 1e-9 * anorm


@pytest.mark.parametrize("m", [2, 3, 5, 10])
def test_breakdown_at_distinct_eigenvalue_count(m):
    rng = np.random.default_rng(m)
    values = np.linspace(-3, 3, m)
    d = np.repeat(values, 12)
    A = diag_op(d)
    g = rng.standard_normal(d.size)
    f = lanczos_run(A, g, 50)
    assert f.broken_down
    assert f.k == m - 1


def test_breakdown_scale_matches_row_loop():
    # a per-row loop over the closed rows, each summed |d_i| + |e_i| + |e_{i-1}|,
    # the order of SymmetricTridiagonal.inf_norm, with beta closing the last
    def row_loop(diag, off, beta):
        scale = 0.0
        for i in range(len(diag)):
            left = abs(off[i - 1]) if i > 0 else 0.0
            right = abs(off[i]) if i < len(off) else beta
            scale = max(scale, abs(diag[i]) + right + left)
        return scale

    def running_maximum(diag, off, beta):
        # the rows closed one off-diagonal at a time, as _grow closes them
        row_max = 0.0
        for i, edge in enumerate(off):
            row_max = _close_row(row_max, diag[i], off[i - 1] if i else 0.0, edge)
        return _close_row(row_max, diag[-1], off[-1] if off else 0.0, beta)

    rng = np.random.default_rng(17)
    cases = [([0.0], [], 0.0), ([0.0, 0.0], [0.0], 0.0), ([-2.0], [], 1e-320)]
    cases.append(([1.0, -3.0], [0.5], 2.0))
    for _ in range(300):
        m = int(rng.integers(1, 40))
        exponents = rng.uniform(-12, 12, 2 * m)
        values = rng.standard_normal(2 * m) * 10.0**exponents
        # beta is a norm, so never negative
        cases.append((values[:m].tolist(), values[m : 2 * m - 1].tolist(), abs(float(values[-1]))))
    for diag, off, beta in cases:
        row_max = running_maximum(diag, off, beta)
        assert row_max == row_loop(diag, off, beta)
        # beta closing the last row is the inf-norm of T bordered by [beta, 0]
        assert row_max == la.SymmetricTridiagonal(diag + [0.0], off + [beta]).inf_norm()
        # the vectorized sum that an extension recomputes agrees
        assert _row_maximum(np.array(diag), np.array(off + [beta])) == row_max

    # after a run, and resumed from a branch: extend_lanczos copies base into
    # a new store, recomputing the maximum, and matches a fresh run
    rng = np.random.default_rng(18)
    A = diag_op(rng.standard_normal(300) * 10.0 ** rng.uniform(-3, 3, 300))
    g = rng.standard_normal(300)
    base = lanczos_run(A, g, 8)
    extend_lanczos(base, A, 3)
    branched = extend_lanczos(base, A, 12)
    fresh = lanczos_run(A, g, 20)
    _assert_same_factorization(branched, fresh)
    diag, off = fresh.tridiag.diag.tolist(), fresh.tridiag.offdiag.tolist()
    assert branched.tridiag.inf_norm() == row_loop(diag, off, 0.0)
    closed = np.append(branched.tridiag.offdiag, branched.beta_next)
    assert _row_maximum(branched.tridiag.diag, closed) == row_loop(diag, off, branched.beta_next)
    for f in (base, branched, fresh):
        _assert_row_maximum(f)


def test_zero_operator_breaks_down_at_step_zero():
    # the breakdown test floors its scale, not the carried maximum, so a zero
    # T keeps inf-norm 0.0
    f = lanczos_run(diag_op(np.zeros(5)), np.arange(1.0, 6.0), 4)
    assert f.broken_down and f.k == 0
    assert f.beta_next == 0.0 and f.tridiag.inf_norm() == 0.0


def _max_component_along(Q, r):
    return np.abs(Q.T @ r).max() / np.linalg.norm(r)


def test_second_pass_runs_when_the_first_cancels():
    rng = np.random.default_rng(23)
    n, m = 2000, 40
    Q, _ = np.linalg.qr(rng.standard_normal((n, m)))
    c = rng.standard_normal(m)
    r = Q @ c + 1e-10 * rng.standard_normal(n)
    # one pass alone leaves a rounding-size multiple of ||c|| along Q, far
    # above the working precision of the 1e-10-sized remainder
    lone = r - Q @ (Q.T @ r)
    assert _max_component_along(Q, lone) >= 1e-9
    beta, passes = _reorthogonalize(Q, r, np.empty(n))  # r is reduced in place
    assert passes == 2
    assert beta == np.linalg.norm(r)
    assert _max_component_along(Q, r) <= 1e-14


def test_one_pass_suffices_without_cancellation():
    rng = np.random.default_rng(29)
    n, m = 2000, 40
    Q, _ = np.linalg.qr(rng.standard_normal((n, m)))
    r = 1e-3 * Q @ rng.standard_normal(m) + rng.standard_normal(n)
    beta, passes = _reorthogonalize(Q, r, np.empty(n))
    assert passes == 1
    assert beta == np.linalg.norm(r)
    assert _max_component_along(Q, r) <= 1e-14


def test_no_subtraction_when_the_measured_components_are_at_rounding_level():
    rng = np.random.default_rng(37)
    n, m = 2000, 40
    Q, _ = np.linalg.qr(rng.standard_normal((n, m)))
    r = rng.standard_normal(n)
    for _ in range(2):
        r -= Q @ (Q.T @ r)
    assert np.linalg.norm(Q.T @ r) <= lanczos.ORTH_ETA * np.linalg.norm(r)
    unchanged = r.copy()
    beta, passes = _reorthogonalize(Q, r, np.empty(n))
    assert passes == 0
    assert np.array_equal(r, unchanged)
    assert beta == np.linalg.norm(r)


def test_basis_stays_orthonormal_over_long_runs_on_adversarial_spectra(monkeypatch):
    _check_orthonormal_over_long_runs_on_adversarial_spectra(monkeypatch)


def test_split_basis_stays_orthonormal_over_long_runs_on_adversarial_spectra(monkeypatch):
    # the same runs with every Gram-Schmidt product split over two threads
    monkeypatch.setattr(lanczos, "_two_cpus", lambda: True)
    monkeypatch.setattr(lanczos, "SPLIT_BYTES", 0)
    _check_orthonormal_over_long_runs_on_adversarial_spectra(monkeypatch)


def _check_orthonormal_over_long_runs_on_adversarial_spectra(monkeypatch):
    subtractions, skipped = _record_subtractions(monkeypatch)
    rng = np.random.default_rng(31)
    n, steps = 3000, 300
    half = n // 2
    spectra = {
        "20 clusters of width 1e-10": np.repeat(np.linspace(-1.0, 1.0, 20), n // 20)
        + rng.uniform(-5e-11, 5e-11, n),
        "signed, graded 1e-8..1e8": np.logspace(-8, 8, n) * np.where(np.arange(n) % 2, -1.0, 1.0),
        "clusters near 0 and 1e6": np.concatenate(
            [1e-3 * rng.uniform(0.0, 1.0, half), 1e6 + rng.uniform(0.0, 1.0, n - half)]
        ),
        # an outlier over two repeated values, run past the breakdown: each
        # residual is then rounding error that the first pass mostly cancels
        "outlier 1e6 over 0 and 1": np.concatenate(
            [[1e6], np.repeat([0.0, 1.0], (n - 1) // 2), [1.0]]
        ),
    }
    for name, d in spectra.items():
        tol = 0.0 if name.startswith("outlier") else 1e-12
        subtractions.clear()
        monkeypatch.setattr(lanczos, "BREAKDOWN_TOL", tol)
        f = lanczos_run(diag_op(d), rng.standard_normal(n), steps)
        assert not f.broken_down and f.k == steps, name
        Q = f.basis
        loss = np.abs(Q.T @ Q - np.eye(steps + 1)).max()
        assert loss <= 1e-13, (name, loss)
    # the outlier run, the last, takes the second pass on a third of its
    # steps: a first pass that cancels is never skipped
    assert subtractions.count(2) >= 100
    # the runs skip steps, each on a measured Q'r at rounding level
    assert skipped and max(skipped) <= lanczos.ORTH_ETA


def _record_subtractions(monkeypatch):
    """Lists, filled as Lanczos runs: each step's number of Gram-Schmidt
    subtractions, and ||Q'r|| / ||r|| of each step that made none.  Q'r is
    formed as the step forms it: at rounding level its entries are rounding
    error, which another summation order, such as one call in place of a
    split product, changes by a few percent."""
    subtractions, skipped = [], []

    def recording(qmat, r, work):
        ratio = np.linalg.norm(lanczos.qt_times(qmat, r)) / np.linalg.norm(r)
        beta, count = reorthogonalize(qmat, r, work)
        subtractions.append(count)
        if count == 0:
            skipped.append(ratio)
        return beta, count

    reorthogonalize = lanczos._reorthogonalize
    monkeypatch.setattr(lanczos, "_reorthogonalize", recording)
    return subtractions, skipped


def test_large_runs_skip_the_subtraction_at_rounding_level(monkeypatch):
    # family 2 at n = 100 000, the benchmark's deep solve: Q'r is at rounding
    # level on about half the steps, and a change that stops skipping there
    # gives up the one-read steps
    subtractions, skipped = _record_subtractions(monkeypatch)
    A, g = generate(ProblemSpec("2", 100_000, 1.0, 5))
    f = lanczos_run(A, g, 70)
    assert f.k == 70 and len(subtractions) == 71
    assert subtractions.count(0) >= len(subtractions) / 3
    assert max(skipped) <= lanczos.ORTH_ETA
    gram = f.basis.T @ f.basis
    assert np.abs(gram - np.eye(71)).max() <= 1e-13


# -- basis products split over two threads ---------------------------------

SRC = Path(lanczos.__file__).resolve().parents[1]
ONE_BLAS_THREAD = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")


def _python(code, timeout=300):
    """Run code in a fresh interpreter at 1 BLAS thread; returns its stdout.

    A split product is bitwise the one-call product only when BLAS does not
    split the calls itself, and BLAS reads its thread count when numpy loads.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC), **ONE_BLAS_THREAD)
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, capture_output=True, text=True, timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_split_products_equal_one_call_products_bitwise():
    # n = 65 and j = 5 would leave one row or one column to the worker, a dot
    # product that numpy sums in another order; those stay one call
    out = _python(
        """
        import threading
        import numpy as np
        from trslab import lanczos
        lanczos._two_cpus = lambda: True
        lanczos.SPLIT_BYTES = 0
        rng = np.random.default_rng(3)
        differ = []
        for n in (65, 66, 130, 3000, 4097, 65537, 123457):
            store = np.asfortranarray(rng.standard_normal((n, 80)))
            r = rng.standard_normal(n)
            for j in (2, 3, 5, 6, 7, 8, 9, 13, 31, 64, 80):
                Q, c, out = store[:, :j], rng.standard_normal(j), np.empty(n)
                lanczos.q_times(Q, c, out=out)
                if not (
                    np.array_equal(lanczos.qt_times(Q, r), Q.T @ r)
                    and np.array_equal(lanczos.q_times(Q, c), Q @ c)
                    and np.array_equal(out, Q @ c)
                ):
                    differ.append((n, j))
        assert "trslab-split" in [t.name for t in threading.enumerate()]
        print(differ)
        """
    )
    assert out.strip() == "[]"


def test_split_run_matches_the_one_call_run_bitwise():
    # at n = 100 000 the products split from j = 7 on at the default SPLIT_BYTES
    out = _python(
        """
        import threading
        import numpy as np
        from trslab import lanczos, linalg
        lanczos._two_cpus = lambda: True
        rng = np.random.default_rng(5)
        n = 100_000
        A = linalg.SymmetricLinearOperator.from_diagonal(rng.standard_normal(n))
        g = rng.standard_normal(n)
        split = lanczos.lanczos_run(A, g, 30)
        assert "trslab-split" in [t.name for t in threading.enumerate()]
        lanczos.SPLIT_BYTES = float("inf")
        one = lanczos.lanczos_run(A, g, 30)
        print(
            np.array_equal(split.basis, one.basis),
            np.array_equal(split.tridiag.diag, one.tridiag.diag),
            np.array_equal(split.tridiag.offdiag, one.tridiag.offdiag),
            split.beta_next == one.beta_next,
            np.array_equal(split.next_vector, one.next_vector),
        )
        """
    )
    assert out.split() == ["True"] * 5


def test_concurrent_solves_each_get_the_one_thread_result():
    # three caller threads share the one worker, their halves waiting in line
    # for it, and each gets the one-thread result bitwise
    out = _python(
        """
        import sys, threading
        import numpy as np
        from trslab import experiments as ex, lanczos
        from trslab.gltr import gltr_solve
        lanczos._two_cpus = lambda: True
        A, g = ex.generate(ex.ProblemSpec("2", 20_000, 1.0, 3))
        lanczos.SPLIT_BYTES = float("inf")
        alone = gltr_solve(A, g, 1.0, resid_tol=0.0, k_max=40)
        lanczos.SPLIT_BYTES = 0
        results = []

        def solve():
            for _ in range(2):
                results.append(gltr_solve(A, g, 1.0, resid_tol=0.0, k_max=40))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=solve) for _ in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        same = [
            r.lam == alone.lam
            and np.array_equal(r.s, alone.s)
            and np.array_equal(r.factorization.basis, alone.factorization.basis)
            and np.array_equal(r.factorization.tridiag.diag, alone.factorization.tridiag.diag)
            and np.array_equal(r.factorization.tridiag.offdiag, alone.factorization.tridiag.offdiag)
            for r in results
        ]
        print(len(results), all(same), threading.active_count())
        """
    )
    assert out.split() == ["6", "True", "2"]  # the main thread and one worker


def test_worker_never_blocks_interpreter_exit():
    out = _python(
        """
        import threading
        import numpy as np
        from trslab import lanczos
        lanczos._two_cpus = lambda: True
        lanczos.SPLIT_BYTES = 0
        Q = np.asfortranarray(np.ones((3000, 12)))
        lanczos.q_times(Q, lanczos.qt_times(Q, np.ones(3000)))
        print(threading.active_count())
        """,
        timeout=60,
    )
    assert out.strip() == "2"


def _seen_while_running(half):
    """The events that the main thread sees first while another thread
    appends "start", runs `half` and appends "done".

    At a switch interval of 100 s a thread keeps the interpreter lock until
    it blocks, so the polling main thread runs again while the half is still
    in BLAS only if the half released the lock; one that holds it is always
    seen done.
    """
    events = []

    def run():
        events.append("start")
        half()
        events.append("done")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(100)
    try:
        thread = threading.Thread(target=run)
        thread.start()
        while not events:
            time.sleep(0)
        seen = list(events)
    finally:
        sys.setswitchinterval(interval)
    thread.join(60)
    assert not thread.is_alive()
    return seen


@pytest.mark.parametrize("product", ["qt_times", "q_times"])
def test_split_halves_release_the_interpreter_lock(monkeypatch, product):
    # Each half reads 32 MiB of a 64 MiB basis, a millisecond or two, and
    # can end before the main thread is scheduled, so a half passes when one
    # of ten tries sees it running: no timing threshold, and a half that
    # holds the lock never passes.
    halves = []
    monkeypatch.setattr(lanczos, "_two_cpus", lambda: True)
    monkeypatch.setattr(lanczos, "SPLIT_BYTES", 0)
    monkeypatch.setattr(lanczos, "_split", lambda first, second: halves.extend((first, second)))
    Q = np.ones((2**20, 8), order="F")
    getattr(lanczos, product)(Q, np.ones(2**20) if product == "qt_times" else np.ones(8))
    assert len(halves) == 2
    for half in halves:
        seen = [_seen_while_running(half) for _ in range(10)]
        assert ["start"] in seen, seen


def test_one_usable_cpu_starts_no_thread(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(lanczos, "_jobs", None)
    monkeypatch.setattr(lanczos, "SPLIT_BYTES", 0)
    lanczos._two_cpus.cache_clear()
    try:
        threads = threading.active_count()
        rng = np.random.default_rng(41)
        Q, r = np.asfortranarray(rng.standard_normal((3000, 12))), rng.standard_normal(3000)
        assert np.array_equal(lanczos.qt_times(Q, r), Q.T @ r)
        assert np.array_equal(lanczos.q_times(Q, r[:12]), Q @ r[:12])
        assert threading.active_count() == threads
        assert lanczos._jobs is None
    finally:
        lanczos._two_cpus.cache_clear()


def test_an_exception_in_the_worker_reaches_the_caller():
    ran = []
    with pytest.raises(ZeroDivisionError):
        lanczos._split(lambda: ran.append("caller"), lambda: 1 / 0)
    assert ran == ["caller"]
    # the worker takes the next job
    lanczos._split(lambda: None, lambda: ran.append(threading.current_thread().name))
    assert ran == ["caller", "trslab-split"]


def test_an_interrupted_wait_leaves_later_splits_on_the_worker():
    # Ctrl-C while the caller waits for the worker's half: the interrupted
    # half still ends, and the next split runs on the worker after it
    out = _python(
        """
        import signal, threading, time
        from trslab import lanczos
        lanczos._two_cpus = lambda: True
        main = threading.main_thread().ident
        threading.Timer(0.2, signal.pthread_kill, (main, signal.SIGINT)).start()
        try:
            lanczos._split(lambda: None, lambda: time.sleep(1))
        except KeyboardInterrupt:
            print("interrupted")
        ran = []
        lanczos._split(lambda: None, lambda: ran.append(threading.current_thread().name))
        print(*ran)
        """,
        timeout=60,
    )
    assert out.split() == ["interrupted", "trslab-split"]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
@pytest.mark.filterwarnings("ignore::DeprecationWarning")  # fork of a threaded process
def test_forked_child_starts_its_own_worker(monkeypatch):
    monkeypatch.setattr(lanczos, "_two_cpus", lambda: True)
    monkeypatch.setattr(lanczos, "SPLIT_BYTES", 0)
    rng = np.random.default_rng(37)
    Q, r = np.asfortranarray(rng.standard_normal((3000, 12))), rng.standard_normal(3000)
    lanczos.qt_times(Q, r)
    assert _split_threads() == ["trslab-split"]
    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)

    def child():
        # the child holds only its forking thread until its first split
        before = _split_threads()
        coords = lanczos.qt_times(Q, r)
        sender.send((before, _split_threads(), np.allclose(coords, Q.T @ r)))

    proc = ctx.Process(target=child, daemon=True)
    proc.start()
    try:
        assert receiver.poll(60)
        assert receiver.recv() == ([], ["trslab-split"], True)
    finally:
        proc.join(60)
        if proc.is_alive():
            proc.kill()
    assert proc.exitcode == 0


def _split_threads():
    return [t.name for t in threading.enumerate() if t.name == "trslab-split"]


def test_stream_and_lab_sizes_stay_on_the_one_call_path():
    # The largest bases the benchmark's stream and lab workloads multiply:
    # n = 2000 at gltr_solve's default k_max = 300, and family 4's two
    # estimators, on A (n = 500) and on M'M (2n = 1000), 261 columns each.
    # A retune that moves them onto the split path has to change this test.
    largest = 8 * max(2000 * 301, 500 * 261, 1000 * 261)
    assert lanczos.SPLIT_BYTES > largest
