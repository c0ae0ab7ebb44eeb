import json

import numpy as np
import pytest

from trslab import experiments as ex
from trslab import linalg as la
from trslab import trs
from trslab.augmented import AugmentedOperator
from trslab.gltr import BREAKDOWN, K_MAX, RESIDUAL_TOL
from trslab.lanczos import extend_lanczos, lanczos_run
from trslab.trs import check_kkt


def test_spec_json_roundtrip(tmp_path):
    spec = ex.ProblemSpec(family="3", n=500, delta=1.5, seed=9, params={"rho": 0.95})
    text = spec.to_json()
    data = json.loads(text)
    assert set(data) == {"family", "n", "delta", "seed", "params"}
    spec2 = ex.ProblemSpec.from_json(text)
    assert spec2 == spec
    with pytest.raises(ex.InvalidSpec):
        ex.ProblemSpec.from_json('{"family": "3", "n": 10, "bogus": 1}')
    with pytest.raises(ex.InvalidSpec):
        ex.ProblemSpec.from_json('{"n": 10}')
    # the top level must be an object, n and seed JSON integers, delta a JSON
    # number and params an object
    for text in (
        "5",
        "null",
        '{"family": "3", "n": null}',
        '{"family": "3", "n": "50"}',
        '{"family": "3", "n": 50.9}',
        '{"family": "3", "n": true}',
        '{"family": "3", "n": 50, "seed": null}',
        '{"family": "3", "n": 50, "delta": null}',
        '{"family": "3", "n": 50, "delta": "1.0"}',
        '{"family": "3", "n": 50, "params": [1]}',
    ):
        with pytest.raises(ex.InvalidSpec):
            ex.ProblemSpec.from_json(text)
    assert ex.ProblemSpec.from_json('{"family": "3", "n": 50, "delta": 2}').delta == 2.0
    with pytest.raises(ex.InvalidSpec):
        ex.ProblemSpec(family="9z", n=100)
    with pytest.raises(ex.InvalidSpec):
        ex.ProblemSpec(family="2", n=100, delta=-1.0)
    for delta in (0.0, float("nan"), float("inf")):
        with pytest.raises(ex.InvalidSpec):
            ex.ProblemSpec(family="2", n=100, delta=delta)


@pytest.mark.parametrize(
    "kwargs, message",
    [({"k_max": -1}, "k_max must be >= 0"), ({"resid_tol": float("nan")}, "resid_tol must be >= 0")],
    ids=["k_max", "resid_tol"],
)
def test_run_experiment_rejects_budget_before_generating(monkeypatch, kwargs, message):
    def fail(spec):
        raise AssertionError("generate ran before the budget was checked")

    monkeypatch.setattr(ex, "generate", fail)
    with pytest.raises(ValueError, match=message):
        ex.run_experiment(ex.default_spec("4", n=50), **kwargs)


def test_evenly_spaced_spectrum_endpoints():
    A, g = ex.generate(ex.ProblemSpec(family="1a", n=1000, seed=1))
    d = A.diagonal
    assert d.min() == -2.0
    assert d.max() == 2.0
    assert abs(np.linalg.norm(g) - 1.0) <= 1e-14
    # symmetric spectrum, zero excluded
    assert np.abs(d).min() > 0


def test_exponential_spectrum_range():
    A, _ = ex.generate(ex.ProblemSpec(family="1b", n=1000, seed=1))
    d = A.diagonal
    assert d.min() == pytest.approx(-np.e, rel=1e-12)
    assert d.max() == pytest.approx(np.e, rel=1e-12)
    inner = np.abs(d)
    assert inner.min() >= 1.0002 - 1e-4


def test_chebyshev_node_value():
    A, _ = ex.generate(ex.ProblemSpec(family="2", n=2, seed=0))
    # first node: 5 cos(pi/4)
    assert A.diagonal[0] == pytest.approx(5 * np.cos(np.pi / 4), rel=1e-14)
    assert A.diagonal[0] == pytest.approx(3.53553, abs=1e-5)


def test_strakos_spectrum_endpoints_and_clustering():
    A, _ = ex.generate(ex.ProblemSpec(family="3", n=1000, seed=0))
    d = A.diagonal
    assert d.min() == -2.0
    assert d.max() == 8.0
    # the bulk clusters at the smallest eigenvalue; large ones are separated
    assert np.mean(d < -1.5) > 0.5
    top = np.sort(d)[-5:]
    assert np.all(np.diff(top) > 1e-3)


def test_strakos_interior_value_ascending_form():
    A, _ = ex.generate(ex.ProblemSpec(family="3", n=4, seed=0))
    expect = -2.0 + (1.0 / 3.0) * 10.0 * 0.99**2
    assert A.diagonal[1] == pytest.approx(expect, rel=1e-14)


def test_random_symmetric_family_is_unit_norm():
    spec = ex.ProblemSpec(family="4", n=300, seed=3)
    A, g = ex.generate(spec)
    vals = np.linalg.eigvalsh(A.dense)
    assert max(abs(vals[0]), abs(vals[-1])) == pytest.approx(1.0, abs=1e-9)
    # the scaled extremes the operator is built with
    np.testing.assert_allclose(A.extremes, (vals[0], vals[-1]), rtol=0, atol=1e-13)
    dense = A.dense
    assert np.abs(dense - dense.T).max() == 0.0


def test_generate_rejects_bad_params(tmp_path):
    with pytest.raises(ex.InvalidSpec):
        ex.generate(ex.ProblemSpec(family="3", n=100, params={"rho": 1.5}))
    with pytest.raises(ex.InvalidSpec):
        ex.generate(ex.ProblemSpec(family="2", n=100, params={"nonsense": 1}))
    with pytest.raises(ex.InvalidSpec):
        ex.generate(ex.ProblemSpec(family="1a", n=4000, params={"orthogonal_similarity": True}))
    mtx = tmp_path / "m.mtx"
    mtx.write_text("%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 1.0\n2 2 -1.0\n")
    params = {"path": str(mtx), "orthogonal_similarity": True}
    with pytest.raises(ex.InvalidSpec):
        ex.generate(ex.ProblemSpec("file", 2, params=params))


def test_orthogonal_similarity_preserves_measurements():
    base = ex.ProblemSpec(family="1a", n=400, seed=6)
    rotated = ex.ProblemSpec(
        family="1a", n=400, seed=6, params={"orthogonal_similarity": True}
    )
    A, g = ex.generate(rotated)
    assert A.diagonal is None
    ref = ex.reference_solution(A, g, 1.0)
    ref_base = ex.reference_solution(*ex.generate(base), 1.0)
    # identical spectrum, different effective gradient coefficients
    assert ref.alpha1 == ref_base.alpha1
    assert ref.alpha_n == ref_base.alpha_n
    rep = check_kkt(A, g, 1.0, ref.lambda_opt, ref.s_opt, tol=1e-10)
    assert rep.passed


SIMILARITY = {"orthogonal_similarity": True}


@pytest.mark.parametrize(
    "family, params",
    [pytest.param(fam, {}, id=fam) for fam in ("1a", "1b", "2", "3")]
    + [pytest.param(fam, SIMILARITY, id=f"{fam}-similarity") for fam in ("1a", "1b", "2", "3")],
)
def test_reference_m_norm_matches_dense_two_norm(family, params):
    A, g = ex.generate(ex.ProblemSpec(family=family, n=150, seed=2, params=params))
    ref = ex.reference_solution(A, g, 1.0)
    dense = np.linalg.norm(AugmentedOperator(A, g, 1.0).to_dense(), 2)
    assert abs(ref.m_norm - dense) <= 1e-13 * dense


def test_only_operators_without_a_known_spectrum_estimate_m_norm(monkeypatch):
    # perfbench rebinds experiments.operator_norm_2, so the call must go through it
    calls = []
    estimate = ex.operator_norm_2
    monkeypatch.setattr(ex, "operator_norm_2", lambda op: calls.append(op) or estimate(op))
    for family in ("1a", "1b", "2", "3"):
        for params in ({}, SIMILARITY):
            ex.reference_solution(*ex.generate(ex.ProblemSpec(family, 200, 1.0, 4, params)), 1.0)
    assert calls == []
    ex.reference_solution(*ex.generate(ex.ProblemSpec("4", 200, 1.0, 4)), 1.0)
    assert len(calls) == 1


def test_reference_identity_instance():
    import trslab.linalg as la

    eye = la.SymmetricLinearOperator.from_diagonal(np.ones(3))
    g = np.array([2.0, 0.0, 0.0])
    ref = ex.reference_solution(eye, g, 1.0)
    assert ref.lambda_opt == pytest.approx(1.0, abs=1e-12)
    assert ref.q_opt == pytest.approx(-1.5, abs=1e-12)


def test_reference_passes_kkt(small_run):
    res = small_run
    A, g = ex.generate(res.spec)
    rep = check_kkt(A, g, res.spec.delta, res.reference.lambda_opt, res.reference.s_opt, tol=1e-12)
    assert rep.passed


def test_reference_eigvector_relation(small_run):
    # the second eigenvector half solves the shifted system against the first
    res = small_run
    A, _ = ex.generate(res.spec)
    lhs = A.apply(res.reference.y2) + res.reference.lambda_opt * res.reference.y2
    assert np.abs(lhs - res.reference.y1).max() <= 1e-8


def test_reference_eigvector_relation_on_a_general_operator():
    # family 4 has no known spectrum: y2 comes from the reference run's
    # projected factorization, Q (T + lam I)^-1 Q' s_opt
    A, g = ex.generate(ex.ProblemSpec("4", 300, 1.0, 3))
    ref = ex.reference_solution(A, g, 1.0)
    lhs = A.dense @ ref.y2 + ref.lambda_opt * ref.y2
    assert np.abs(lhs - ref.y1).max() <= 1e-12


def test_run_experiment_row_structure(small_run):
    res = small_run
    t = res.table
    assert list(t) == ex.CSV_COLUMNS
    ks = t["k"]
    assert np.array_equal(ks, np.arange(res.run.iterations, dtype=float))
    # measured gaps stay nonnegative up to roundoff dust
    for name in ("lambda_gap", "q_gap", "cg_gap"):
        assert t[name].min() >= -1e-12


def test_resolvent_moments_match_per_step_solves():
    # one factorization of T + lam* I serves every leading block t_k
    spec = ex.ProblemSpec(family="2", n=300, seed=3)
    res = ex.run_experiment(spec)
    _, g = ex.generate(spec)
    ref = res.reference
    beta0 = float(np.linalg.norm(g))
    ref_moment = -float(g @ ref.s_opt) / (beta0 * beta0)
    tridiag = res.run.factorization.tridiag
    assert len(res.table["k"]) == tridiag.order > 10
    for idx, k in enumerate(res.table["k"].astype(int)):
        e1 = np.zeros(k + 1)
        e1[0] = 1.0
        x = la.solve_shifted(tridiag.leading(k + 1), ref.lambda_opt, e1)
        denom = spec.delta * spec.delta + beta0 * beta0 * float(x @ x)
        assert res.table["cg_gap"][idx] == ref_moment - float(x[0])
        assert res.diagnostics["eta1"][idx] == beta0 * beta0 / denom
        assert res.diagnostics["eta2"][idx] == 2.0 / denom


def test_lambda_gap_column_nonincreasing(small_run):
    gaps = small_run.table["lambda_gap"]
    floor = 1e-12
    live = gaps > floor
    assert np.all(np.diff(gaps[live]) <= 1e-13)


def test_csv_roundtrip_and_determinism(tmp_path):
    spec = ex.ProblemSpec(family="3", n=600, seed=21)
    res1 = ex.run_experiment(spec)
    res2 = ex.run_experiment(spec)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    ex.emit_csv(res1.table, p1)
    ex.emit_csv(res2.table, p2)
    assert p1.read_bytes() == p2.read_bytes()
    parsed = ex.parse_csv(p1)
    for name in ex.CSV_COLUMNS:
        np.testing.assert_allclose(
            parsed[name], res1.table[name], rtol=0, atol=1e-15, equal_nan=True
        )


def test_emit_rejects_empty_table(tmp_path):
    empty = {name: np.array([]) for name in ex.CSV_COLUMNS}
    with pytest.raises(ValueError):
        ex.emit_csv(empty, tmp_path / "x.csv")
    with pytest.raises(ValueError):
        ex.emit_plot_script(empty, tmp_path / "x.plt", "x.csv")


def test_plot_script_contents(tmp_path, small_run):
    path = tmp_path / "2.plt"
    ex.emit_plot_script(small_run.table, path, "2.csv")
    text = path.read_text()
    assert text.count("plot '2.csv'") == 4
    assert "logscale y" in text
    assert "1e-16" in text  # clipping floor
    for label in ("(a)", "(b)", "(c)", "(d)"):
        assert label in text


def test_summary_parameter_block(small_run):
    rounded = small_run.summary["rounded"]
    assert rounded["alpha1"] == 5.0
    assert rounded["alpha_n"] == -5.0
    assert set(rounded) == {"alpha1", "alpha_n", "kappa", "t", "lambda_opt", "q_opt"}


def test_all_families_reach_deep_residual(family_runs):
    runs, _ = family_runs
    for fam, result in runs.items():
        formulas = result.table["resid_formula"]
        assert formulas.min() <= 1e-12, fam
        assert result.summary["final_k"] <= 300


def test_file_family_matrix_market(tmp_path):
    mtx = tmp_path / "small.mtx"
    mtx.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "3 3 4\n"
        "1 1 1.0\n"
        "2 2 2.0\n"
        "3 3 3.0\n"
        "2 1 0.1\n"
    )
    spec = ex.ProblemSpec(family="file", n=3, seed=5, params={"path": str(mtx)})
    A, g = ex.generate(spec)
    assert A.dim == 3
    dense = np.array([[1.0, 0.1, 0.0], [0.1, 2.0, 0.0], [0.0, 0.0, 3.0]])
    v = np.array([1.0, -2.0, 0.5])
    np.testing.assert_allclose(A.apply(v), dense @ v, atol=1e-14)
    sol = trs.solve_trs_dense(dense, g, 1.0, tol=1e-13)
    run = ex.reference_solution(A, g, 1.0)
    assert run.lambda_opt == pytest.approx(sol.lam, abs=1e-9)


def _tridiagonal_file_spec(directory, n):
    # T with diagonal cos(0), ..., cos(n - 1) and off-diagonal 0.3, indefinite
    lines = [f"{i} {i} {float(np.cos(i - 1))!r}" for i in range(1, n + 1)]
    lines += [f"{i + 1} {i} 0.3" for i in range(1, n)]
    header = f"%%MatrixMarket matrix coordinate real symmetric\n{n} {n} {len(lines)}\n"
    path = directory / f"tridiagonal{n}.mtx"
    path.write_text(header + "\n".join(lines) + "\n")
    return ex.ProblemSpec(family="file", n=n, seed=3, params={"path": str(path)})


@pytest.mark.parametrize(
    "which, kwargs, termination, solves",
    [
        ("4", {}, RESIDUAL_TOL, 1),
        ("file-60", {}, RESIDUAL_TOL, 1),
        ("4", {"k_max": 10}, K_MAX, 1),
        ("file-12", {}, BREAKDOWN, 1),
        ("4", {"resid_tol": 0.0, "k_max": 60}, K_MAX, 2),
    ],
    ids=["family-4", "file", "k_max", "breakdown", "past-the-reference"],
)
def test_measured_run_is_a_fresh_solve_bitwise(
    tmp_path, monkeypatch, assert_same_result, which, kwargs, termination, solves
):
    # on an operator without a known spectrum the measured run is read off the
    # reference's REFERENCE_TOL run, and solved again only when it would go
    # further; either way it is what a fresh gltr_solve returns
    if which == "4":
        spec = ex.default_spec("4", n=300, seed=2)
    else:
        spec = _tridiagonal_file_spec(tmp_path, int(which.split("-")[1]))
    solve, calls = ex.gltr_solve, []

    def counted(*args, **kw):
        calls.append(kw["resid_tol"])
        return solve(*args, **kw)

    monkeypatch.setattr(ex, "gltr_solve", counted)
    result = ex.run_experiment(spec, **kwargs)
    assert len(calls) == solves and calls[0] == ex.REFERENCE_TOL
    assert result.run.termination == termination
    A, g = ex.generate(spec)
    budget = {"resid_tol": 1e-13, "k_max": 300, **kwargs}
    assert_same_result(result.run, solve(A, g, spec.delta, **budget))

    f = result.run.factorization
    if f.broken_down:
        return
    longer, fresh = extend_lanczos(f, A, 5), lanczos_run(A, g, f.k + 5)
    assert np.array_equal(longer.basis, fresh.basis)
    assert np.array_equal(longer.tridiag.diag, fresh.tridiag.diag)
    assert np.array_equal(longer.tridiag.offdiag, fresh.tridiag.offdiag)
    assert longer.beta_next == fresh.beta_next
    assert np.array_equal(longer.next_vector, fresh.next_vector)


def test_reference_keeps_its_krylov_run_only():
    spectral = ex.reference_solution(*ex.generate(ex.ProblemSpec("2", 200, 1.0, 4)), 1.0)
    assert spectral.run is None
    A, g = ex.generate(ex.ProblemSpec("4", 200, 1.0, 4))
    ref = ex.reference_solution(A, g, 1.0)
    assert ref.run.termination == RESIDUAL_TOL
    assert (ref.run.lam, ref.run.q) == (ref.lambda_opt, ref.q_opt)
    assert np.array_equal(ref.run.s, ref.s_opt)
