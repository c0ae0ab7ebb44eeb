import numpy as np
import pytest

from trslab import lanczos
from trslab import linalg as la
from trslab import trs
from trslab.gltr import (
    BREAKDOWN,
    K_MAX,
    RESIDUAL_TOL,
    ZeroGradient,
    explicit_residual,
    gltr_prefix,
    gltr_solve,
    objective_via_tridiagonal,
)
from trslab.lanczos import lanczos_run


def diag_op(d):
    return la.SymmetricLinearOperator.from_diagonal(np.asarray(d, dtype=float))


def test_identity_matrix_solved_at_breakdown():
    A = diag_op(np.ones(4))
    g = np.full(4, 1.0)  # norm 2
    res = gltr_solve(A, g, 1.0)
    assert res.termination == BREAKDOWN
    assert res.iterations == 1
    assert abs(res.lam - 1.0) <= 1e-12
    np.testing.assert_allclose(res.s, -g / 2, atol=1e-12)


def test_three_distinct_eigenvalues_match_dense_oracle():
    A = diag_op([1.0, 2.0, 3.0])
    g = np.ones(3) / np.sqrt(3)
    res = gltr_solve(A, g, 1.0)
    assert res.termination == BREAKDOWN
    assert res.history[-1].k == 2
    oracle = trs.solve_trs_dense(np.diag([1.0, 2.0, 3.0]), g, 1.0, tol=1e-14)
    assert abs(res.lam - oracle.lam) <= 1e-10
    np.testing.assert_allclose(res.s, oracle.h, atol=1e-10)


def test_history_records_secular_iterations():
    # gltr_solve carries each step's LDL' factors into the next; a cold solve
    # of the same leading block from the same lower bound must agree bitwise
    late = np.concatenate([[-1.0], np.linspace(0.5, 10.0, 199)])
    cases = {
        "indefinite": (np.linspace(-1.0, 1.0, 50), np.ones(50), 1.0),
        "interior": (np.linspace(1.0, 2.0, 50), np.ones(50), 100.0),
        # interior steps, then near-hard ones whose bracket pinches: those end
        # in _boundary_between and leave no factors to carry
        "pinched": (late, np.concatenate([[1e-6], np.ones(199)]), 0.5),
    }
    seen = {}
    for name, (d, g, delta) in cases.items():
        g = g / np.linalg.norm(g)
        res = gltr_solve(diag_op(d), g, delta)
        warm = None
        for rec in res.history:
            T = res.factorization.tridiag.leading(rec.k + 1)
            sol = trs.solve_trs_tridiagonal(T, float(np.linalg.norm(g)), delta, lam_lower=warm)
            assert rec.secular_iterations == sol.secular_iterations >= 1
            assert rec.lam == sol.lam and np.array_equal(rec.h, sol.h)
            seen.setdefault(name, set()).add((sol.case, sol.factors is None))
            warm = rec.lam
        assert max(rec.secular_iterations for rec in res.history) > 1 or name == "interior"
    assert seen["indefinite"] == {(trs.BOUNDARY, False)}
    assert seen["interior"] == {(trs.INTERIOR, False)}
    assert {(trs.INTERIOR, False), (trs.BOUNDARY, True)} <= seen["pinched"]


def test_zero_gradient_rejected():
    with pytest.raises(ZeroGradient):
        gltr_solve(diag_op([1.0, 2.0]), np.zeros(2), 1.0)


@pytest.mark.parametrize(
    "g_entry, delta, kwargs",
    [
        pytest.param(np.nan, 1.0, {}, id="nan-1.0"),
        pytest.param(np.inf, 1.0, {}, id="inf-1.0"),
        pytest.param(-np.inf, 1.0, {}, id="-inf-1.0"),
        pytest.param(1.0, np.inf, {}, id="1.0-inf"),
        pytest.param(1.0, np.nan, {}, id="1.0-nan"),
        pytest.param(1.0, 0.0, {}, id="1.0-0.0"),
        pytest.param(1.0, -1.0, {}, id="1.0--1.0"),
        pytest.param(1.0, 1.0, {"k_max": -1}, id="k_max=-1"),
        pytest.param(1.0, 1.0, {"resid_tol": np.nan}, id="resid_tol=nan"),
        pytest.param(1.0, 1.0, {"resid_tol": -1e-13}, id="resid_tol=-1e-13"),
    ],
)
def test_nonfinite_input_rejected_before_lanczos(g_entry, delta, kwargs):
    applies = []

    def apply(v):
        applies.append(1)
        return 2.0 * v

    A = la.SymmetricLinearOperator(3, apply)
    g = np.array([1.0, g_entry, 0.5])
    with pytest.raises(ValueError):
        gltr_solve(A, g, delta, **kwargs)
    assert applies == []


@pytest.mark.parametrize("n", [49, 51])
@pytest.mark.parametrize("build", ["from_diagonal", "from_dense", "from_triplets"])
def test_gradient_of_another_length_rejected_before_lanczos(monkeypatch, build, n):
    d = np.linspace(1.0, 2.0, 50)
    args = {
        "from_diagonal": (d,),
        "from_dense": (np.diag(d),),
        "from_triplets": (50, np.arange(50), np.arange(50), d),
    }[build]
    A = getattr(la.SymmetricLinearOperator, build)(*args)
    applies, apply = [], A.apply
    monkeypatch.setattr(A, "apply", lambda v: applies.append(1) or apply(v))
    with pytest.raises(ValueError, match=f"length {n}, operator order 50"):
        gltr_solve(A, np.ones(n), 1.0)
    assert applies == []


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("at_apply", [1, 4])
# the step that produces the bad entry stops before any arithmetic on it
@pytest.mark.filterwarnings("error")
def test_nonfinite_operator_output_raises(bad, at_apply):
    # each entry of T is checked once, when the Lanczos step produces it
    applies = []

    def apply(v):
        applies.append(1)
        w = np.linspace(1.0, 2.0, 20) * v
        if len(applies) == at_apply:
            w[3] = bad
        return w

    A = la.SymmetricLinearOperator(20, apply)
    with pytest.raises(ValueError, match="nonfinite entries"):
        gltr_solve(A, np.ones(20), 1.0)
    assert len(applies) == at_apply


@pytest.mark.parametrize("k_max, resid_tol", [(40, 1e-10), (12, 0.0)])
def test_returned_basis_matches_fresh_run_bitwise(k_max, resid_tol):
    rng = np.random.default_rng(21)
    A = diag_op(rng.standard_normal(400))
    g = rng.standard_normal(400)
    res = gltr_solve(A, g, 1.0, resid_tol=resid_tol, k_max=k_max)
    k = res.history[-1].k
    # the basis is reserved for k_max + 1 columns, a fresh run for k + 1
    assert (k == k_max) == (res.termination == K_MAX)
    fresh = lanczos_run(A, g, k)
    assert np.array_equal(res.factorization.basis, fresh.basis)
    assert np.array_equal(res.factorization.tridiag.diag, fresh.tridiag.diag)
    assert res.factorization.trimmed() is res.factorization
    # no store, so no step workspace, whether or not the run filled its columns
    assert res.factorization._store is None


def test_capped_reservation_grows_by_copy_bitwise(monkeypatch):
    # a store held to 3 columns by RESERVE_BYTES grows by extend_lanczos's
    # copy, and the solve is bitwise the one with all k_max + 1 columns
    n = 2000
    rng = np.random.default_rng(8)
    A = diag_op(np.linspace(-1.0, 100.0, n))
    g = rng.standard_normal(n)
    capacities = []

    class RecordingStore(lanczos._ColumnStore):
        def __init__(self, n, capacity):
            capacities.append(capacity)
            super().__init__(n, capacity)

    monkeypatch.setattr(lanczos, "_ColumnStore", RecordingStore)
    full = gltr_solve(A, g, 1.0)
    assert capacities == [301]
    capacities.clear()
    monkeypatch.setattr(lanczos, "RESERVE_BYTES", 3 * 8 * n)
    capped = gltr_solve(A, g, 1.0)
    assert capacities == [3, 6, 12, 24, 48] and capped.iterations == 42
    assert capped.lam == full.lam and capped.s.tobytes() == full.s.tobytes()
    assert len(capped.history) == len(full.history)
    for a, b in zip(capped.history, full.history):
        assert a.h.tobytes() == b.h.tobytes()
        assert a.secular_iterations == b.secular_iterations
    fa, fb = capped.factorization, full.factorization
    assert fa.basis.tobytes() == fb.basis.tobytes()
    assert fa.tridiag.diag.tobytes() == fb.tridiag.diag.tobytes()
    assert fa.tridiag.offdiag.tobytes() == fb.tridiag.offdiag.tobytes()
    # a run still reserves its own k_max + 1 columns, whatever the cap
    capacities.clear()
    lanczos_run(A, g, 10, capacity=261)
    assert capacities == [11]


@pytest.mark.parametrize(
    "d, delta, kwargs, termination",
    [
        (np.repeat([-2.0, 0.3, 1.1, 4.5], 25), 1.0, {}, BREAKDOWN),
        (np.linspace(-1.0, 1.0, 300), 1.0, {}, RESIDUAL_TOL),
        (np.linspace(1.0, 2.0, 300), 100.0, {"resid_tol": 0.0, "k_max": 12}, K_MAX),
    ],
    ids=[BREAKDOWN, RESIDUAL_TOL, K_MAX],
)
def test_records_carry_h_and_its_residual_formula(d, delta, kwargs, termination):
    # each record's h_k is all the driver keeps of step k: its last entry
    # times beta_{k+1} is the residual formula, and the final one gives s
    g = np.random.default_rng(7).standard_normal(d.size)
    res = gltr_solve(diag_op(d), g, delta, **kwargs)
    assert res.termination == termination
    f = res.factorization
    betas = list(f.tridiag.offdiag) + [f.beta_next]
    for rec, beta in zip(res.history, betas, strict=True):
        assert rec.h.size == rec.k + 1
        assert rec.resid_formula == beta * abs(rec.h[-1])
    assert np.array_equal(res.s, f.basis @ res.history[-1].h)


def test_prefix_of_a_longer_run_is_the_shorter_solve_bitwise(assert_same_result):
    # nested Krylov spaces: a run to a tighter tolerance or a larger k_max
    # passes through every record of the shorter one
    rng = np.random.default_rng(31)
    cases = [
        (diag_op(rng.standard_normal(400)), 1.0, 0.0, 60),
        (diag_op(np.repeat([-2.0, 0.3, 1.1, 4.5, 6.0], 20)), 1.0, 0.0, 60),
        (diag_op(np.linspace(1.0, 2.0, 200)), 100.0, 1e-15, 80),
    ]
    seen = set()  # the terminations read off, and None where the long run stopped first
    for A, delta, long_tol, long_k_max in cases:
        g = rng.standard_normal(A.dim)
        long = gltr_solve(A, g, delta, resid_tol=long_tol, k_max=long_k_max)
        last = long.history[-1].k
        for resid_tol in (1e-4, 1e-10, 1e-13, long_tol):
            for k_max in (0, 3, last, last + 1, 300):
                prefix = gltr_prefix(long, resid_tol, k_max)
                fresh = gltr_solve(A, g, delta, resid_tol=resid_tol, k_max=k_max)
                seen.add(fresh.termination if prefix is not None else None)
                if prefix is None:
                    assert fresh.history[-1].k > last
                else:
                    assert_same_result(prefix, fresh)
    assert seen == {BREAKDOWN, RESIDUAL_TOL, K_MAX, None}
    with pytest.raises(ValueError, match="k_max must be >= 0"):
        gltr_prefix(long, 1e-13, -1)


def test_objective_closed_form_one_by_one():
    # T = [2], beta0 = 4, delta = 1: (T + 2) h = -4 gives h = [-1] on the boundary
    h = np.array([-1.0])
    assert objective_via_tridiagonal(h, 2.0, 4.0, 1.0) == pytest.approx(-3.0, abs=1e-14)


def test_explicit_residual_examples():
    A = diag_op([1.0, 2.0])
    g = np.array([1.0, 0.0])
    assert explicit_residual(A, g, 0.0, np.zeros(2)) == pytest.approx(1.0)
    # exact stationarity: (A + I) s = -g with s = -g/2
    assert explicit_residual(A, g, 1.0, np.array([-0.5, 0.0])) <= 1e-15


@pytest.fixture(scope="module")
def medium_run():
    rng = np.random.default_rng(31)
    n = 1500
    i = np.arange(1, n + 1)
    d = np.where(i <= n // 2, -2 + 4.0 / n * (i - 1), 2 - 4.0 / n * (n - i))
    A = diag_op(d)
    g = rng.standard_normal(n)
    g /= np.linalg.norm(g)
    res = gltr_solve(A, g, 1.0, resid_tol=1e-13)
    return A, g, d, res


def _iterates(res):
    """(record, s_k) at every step, s_k formed from the returned basis."""
    Q = res.factorization.basis
    return [(rec, Q[:, : rec.k + 1] @ rec.h) for rec in res.history]


def test_residual_identity_every_iteration(medium_run):
    A, g, d, res = medium_run
    scale = np.abs(d).max() * 1.0 + np.linalg.norm(g)
    for rec, s in _iterates(res):
        assert abs(rec.resid_formula - explicit_residual(A, g, rec.lam, s)) <= 1e-9 * scale


def test_multiplier_and_objective_monotonicity(medium_run):
    A, g, d, res = medium_run
    lams = np.array([r.lam for r in res.history])
    qs = np.array([r.q for r in res.history])
    assert np.all(np.diff(lams) >= 0.0)
    assert np.all(np.diff(qs) <= 1e-12)
    lam_ref, s_eig, _, _ = trs.solve_trs_spectral(d, g, 1.0, tol=1e-15)
    assert np.all(lams <= lam_ref + 1e-10)


def test_objective_identity_along_history(medium_run):
    A, g, d, res = medium_run
    for rec, s in _iterates(res):
        direct = float(g @ s + 0.5 * s @ A.apply(s))
        assert abs(rec.q - direct) <= 1e-10 * (1 + abs(rec.q))


def test_termination_by_residual_tolerance(medium_run):
    _, _, _, res = medium_run
    assert res.termination == RESIDUAL_TOL
    assert res.history[-1].resid_formula <= 1e-13
    assert abs(np.linalg.norm(res.s) - 1.0) <= 1e-12


def test_breakdown_exactness_with_few_distinct_eigenvalues():
    rng = np.random.default_rng(4)
    values = np.array([-2.0, -0.5, 0.3, 1.1, 2.0, 3.0, 4.5, 5.0])
    d = np.repeat(values, 30)
    A = diag_op(d)
    g = rng.standard_normal(d.size)
    g /= np.linalg.norm(g)
    res = gltr_solve(A, g, 1.0)
    assert res.termination == BREAKDOWN
    assert res.history[-1].k == values.size - 1
    lam_ref, s_eig, _, _ = trs.solve_trs_spectral(d, g, 1.0, tol=1e-15)
    assert np.abs(res.s - s_eig).max() <= 1e-8
    assert abs(res.lam - lam_ref) <= 1e-10


def test_warm_start_keeps_multiplier_nondecreasing_at_floor():
    # tiny instance iterated far past convergence
    A = diag_op(np.linspace(-1.5, 1.5, 400))
    rng = np.random.default_rng(12)
    g = rng.standard_normal(400)
    g /= np.linalg.norm(g)
    res = gltr_solve(A, g, 1.0, resid_tol=0.0, k_max=60)
    lams = np.array([r.lam for r in res.history])
    assert np.all(np.diff(lams) >= 0.0)


def test_fallback_when_a_low_ritz_value_appears_late(monkeypatch):
    # -1 lies below a positive definite bulk and carries weight 1e-6 in g, so
    # the Ritz value that finds it appears only after some twenty steps.  At
    # those steps T_k + lam_{k-1} I is indefinite and the solve falls back to
    # theta_min; every step whose shift at lam_{k-1} is positive definite with
    # ||h|| >= delta starts Newton there without it.
    d = np.concatenate([[-1.0], np.linspace(0.5, 10.0, 199)])
    g = np.concatenate([[1e-6], np.full(199, 1.0 / np.sqrt(199))])
    delta = 0.5
    orders = []

    def counting(T):
        orders.append(T.order)
        return la.extremal_eig_tridiagonal(T)

    monkeypatch.setattr(trs, "extremal_eig_tridiagonal", counting)
    res = gltr_solve(diag_op(d), g, delta)
    lam_ref, s_ref, _, case = trs.solve_trs_spectral(d, g, delta)
    assert case == trs.BOUNDARY and res.termination == RESIDUAL_TOL
    assert abs(res.lam - lam_ref) <= 1e-13 * lam_ref
    # lam + theta_min is about 2e-6 here, so s carries rounding times 1e6
    assert np.abs(res.s - s_ref).max() <= 1e-8

    T = res.factorization.tridiag
    indefinite, warm_steps = [], []
    for prev, rec in zip(res.history, res.history[1:]):
        Tk = T.leading(rec.k + 1)
        rhs = -np.linalg.norm(g) * np.eye(Tk.order)[0]
        try:
            h = la.solve_shifted(Tk, prev.lam, rhs)
        except la.IndefiniteShift:
            indefinite.append(Tk.order)
            continue
        if np.linalg.norm(h) >= delta * (1.0 - 1e-13):
            warm_steps.append(Tk.order)
    assert min(indefinite) >= 20
    assert set(indefinite) <= set(orders)
    assert warm_steps and not set(warm_steps) & set(orders)
