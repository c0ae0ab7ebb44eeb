"""End-to-end acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line with the
measured margin.  The five seeded default-size family runs (n = 10000 for
the diagonal families, n = 2000 for the dense Gaussian one) are shared via
the session fixture; they are run deep enough that every error series
reaches its floating floor.
"""

import math
import time

import numpy as np
import pytest

from trslab import bounds as bd
from trslab import experiments as ex
from trslab import linalg as la
from trslab import trs
from trslab.augmented import AugmentedOperator, eigpair_from_trs, recover_solution
from trslab.trs import BOUNDARY
from trslab.verify import (
    asymptotic_start,
    check_dominance,
    check_monotonicity,
    check_oracle_equivalence,
    check_rates,
    fit_log_slope,
)

FAMILIES = ("1a", "1b", "2", "3", "4")


@pytest.fixture(scope="session")
def acceptance_runs(family_runs):
    runs, timings = family_runs
    data = {}
    for fam in FAMILIES:
        spec = runs[fam].spec
        A, g = ex.generate(spec)
        data[fam] = {"result": runs[fam], "A": A, "g": g, "seconds": timings[fam]}
    return data


def _report(ok, label, detail):
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


def _scale(result):
    ref = result.reference
    a_norm = max(abs(ref.alpha1), abs(ref.alpha_n))
    return a_norm * result.spec.delta + result.summary["beta0"]


def _first_k_at_or_below(result, column, threshold):
    cols = result.table.columns
    idx = np.nonzero(cols[column] <= threshold)[0]
    if idx.size == 0:
        return None
    return int(cols["k"][idx[0]])


def test_criterion_1_residual_identity(acceptance_runs):
    worst = 0.0
    slowest = 0.0
    for fam in FAMILIES:
        entry = acceptance_runs[fam]
        result = entry["result"]
        cols = result.table.columns
        gap = float(np.max(np.abs(cols["resid"] - cols["resid_formula"])))
        rel = gap / (1e-9 * _scale(result))
        worst = max(worst, rel)
        slowest = max(slowest, entry["seconds"])
    ok = worst <= 1.0 and slowest <= 60.0
    _report(
        ok,
        "criterion 1 (residual identity)",
        f"worst gap = {worst:.3e} of budget, slowest family {slowest:.1f}s",
    )


def test_criterion_2_objective_identity(acceptance_runs):
    worst = 0.0
    for fam in FAMILIES:
        entry = acceptance_runs[fam]
        result, A, g = entry["result"], entry["A"], entry["g"]
        Q = result.run.factorization.basis
        for rec in result.run.history:
            s = Q[:, : rec.k + 1] @ rec.h
            direct = float(g @ s + 0.5 * s @ A.apply(s))
            rel = abs(rec.q - direct) / (1.0 + abs(rec.q))
            worst = max(worst, rel)
    ok = worst <= 1e-10
    _report(ok, "criterion 2 (objective identity)", f"worst relative gap = {worst:.3e}")


def test_criterion_3_eigen_equivalence(acceptance_runs):
    checked = 0
    for fam in FAMILIES:
        result = acceptance_runs[fam]["result"]
        beta0 = result.summary["beta0"]
        delta = result.spec.delta
        tridiag = result.run.factorization.tridiag
        for rec in result.run.history:
            if rec.case != BOUNDARY:
                continue
            t_k = tridiag.leading(rec.k + 1)
            # raises VerificationFailed beyond 1e-10 * ||M_k||
            eigpair_from_trs(t_k, rec.lam, rec.h, beta0=beta0, delta=delta)
            checked += 1

    # full-space recovery on dense instances
    rng = np.random.default_rng(90)
    worst_rec = 0.0
    for n in (60, 120, 200):
        a = rng.standard_normal((n, n))
        a = 0.5 * (a + a.T)
        g = rng.standard_normal(n)
        g /= np.linalg.norm(g)
        sol = trs.solve_trs_dense(a, g, 1.0, tol=1e-14)
        vals, vecs = la.symmetric_eig_dense(a)
        y1 = sol.h.copy()
        y2 = vecs @ ((vecs.T @ y1) / (vals + sol.lam))
        norm = math.sqrt(float(y1 @ y1 + y2 @ y2))
        s_rec = recover_solution(y1 / norm, y2 / norm, g, 1.0)
        worst_rec = max(worst_rec, float(np.abs(s_rec - sol.h).max()))
    ok = worst_rec <= 1e-8
    _report(
        ok,
        "criterion 3 (eigen-equivalence)",
        f"{checked} projected eigenpairs verified at 1e-10, recovery gap = {worst_rec:.3e}",
    )


def test_criterion_4_oracle_equivalence():
    start = time.perf_counter()
    passed, margin, detail = check_oracle_equivalence(instances=500, seed=123)
    elapsed = time.perf_counter() - start
    ok = passed and elapsed <= 30.0
    _report(ok, "criterion 4 (oracle equivalence)", f"{detail}, {elapsed:.1f}s")


def test_criterion_5_monotonicity(acceptance_runs):
    details = []
    ok = True
    for fam in FAMILIES:
        passed, _, detail = check_monotonicity(acceptance_runs[fam]["result"])
        ok = ok and passed
        details.append(f"{fam}:{'ok' if passed else detail}")
    _report(ok, "criterion 5 (monotonicity)", " ".join(details))


def test_criterion_6_bound_dominance(acceptance_runs):
    ok = True
    ratios = []
    for fam in FAMILIES:
        passed, ratio, detail = check_dominance(acceptance_runs[fam]["result"])
        ok = ok and passed
        ratios.append(f"{fam}:{ratio:.2f}")
    _report(ok, "criterion 6 (bound dominance)", "min bound/error " + " ".join(ratios))


def _bound_slope_checks(result):
    """Fitted log-slopes of the bound columns against their theoretical rates."""
    cols = result.table.columns
    ref = result.reference
    t = ref.t
    ks = cols["k"]
    out = []

    # exact-rate columns, fitted over the run's own late window
    half = len(ks) // 2
    for name, target in (
        ("q_gap_bound", 2 * math.log(t)),
        ("cg_gap_bound", 2 * math.log(t)),
        ("s_gap_bound", math.log(t)),
        ("lambda_gap_bound", 2 * math.log(t)),
    ):
        slope = float(np.polyfit(ks[half:], np.log(cols[name][half:]), 1)[0])
        out.append((name, slope, target))

    # asymptotic-rate columns: extend the formulas far past the run, with the
    # run-level constants frozen at their final values
    sd = bd.spectrum_data(ref.alpha1, ref.alpha_n, ref.lambda_opt, result.summary["beta0"], result.spec.delta)
    eta1 = result.diagnostics["eta1"][-1]
    eta2 = result.diagnostics["eta2"][-1]
    sep_vals = result.diagnostics["sep"]
    sep = float(sep_vals[~np.isnan(sep_vals)][-1])
    k_far = np.arange(4 * len(ks), 4 * len(ks) + 30)
    resid_far = np.array([bd.residual_bound(k, sd, eta1, eta2) for k in k_far])
    sine_far = np.array([bd.sin_angle_bound(k, sd, ref.m_norm, sep) for k in k_far])
    out.append(("resid_bound", float(np.polyfit(k_far, np.log(resid_far), 1)[0]), math.log(t)))
    out.append(("sin_angle_bound", float(np.polyfit(k_far, np.log(sine_far), 1)[0]), math.log(t)))
    return out


def test_criterion_7_rates(acceptance_runs):
    ok = True
    details = []
    for fam in FAMILIES:
        result = acceptance_runs[fam]["result"]
        passed, margin, detail = check_rates(result)
        ok = ok and passed
        worst_bound_dev = 0.0
        for name, slope, target in _bound_slope_checks(result):
            dev = abs(slope - target) / abs(target)
            worst_bound_dev = max(worst_bound_dev, dev)
            ok = ok and dev <= 0.02
        details.append(f"{fam}[meas {'ok' if passed else detail}; bound dev {worst_bound_dev:.3f}]")
    _report(ok, "criterion 7 (rates)", " ".join(details))


def test_criterion_8_table_reproduction(acceptance_runs):
    r1a = acceptance_runs["1a"]["result"]
    k_lam = _first_k_at_or_below(r1a, "lambda_gap", 1e-12)
    k_sin = _first_k_at_or_below(r1a, "sin_angle", 1e-13)
    ok = k_lam is not None and 23 <= k_lam <= 45
    ok = ok and k_sin is not None and 46 <= k_sin <= 88

    r2 = acceptance_runs["2"]["result"]
    rounded2 = r2.summary["rounded"]
    ok = ok and rounded2["alpha1"] == 5.0 and rounded2["alpha_n"] == -5.0
    ok = ok and 4.5 <= r2.reference.lambda_opt <= 6.0

    r3 = acceptance_runs["3"]["result"]
    ok = ok and r3.reference.alpha1 == 8.0 and r3.reference.alpha_n == -2.0

    total = sum(acceptance_runs[f]["seconds"] for f in ("1a", "2", "3"))
    ok = ok and total <= 300.0
    _report(
        ok,
        "criterion 8 (table-level reproduction)",
        f"1a: lambda-gap<=1e-12 at k={k_lam}, sine<=1e-13 at k={k_sin}; "
        f"2: lambda_opt={r2.reference.lambda_opt:.4f}; 3: alphas exact; "
        f"runtime {total:.1f}s",
    )


def test_criterion_9_chebyshev_machinery():
    rng = np.random.default_rng(2)
    j = np.arange(200.0)
    worst = 0.0
    for _ in range(100):
        x = float(rng.uniform(-1.0, 1.0))
        t = float(rng.uniform(0.05, 0.9))
        u = bd.chebyshev_u_values(200, np.array([x]))[:, 0]
        val = float(np.sum((j + 1.0) * t**j * u))
        target = bd.generating_series_value(t, x)
        worst = max(worst, abs(val - target) / (1.0 + abs(target)))
    ok = worst <= 1e-8

    u60 = bd.chebyshev_u_values(60, np.array([0.0]))[:, 0]
    j60 = np.arange(60.0)
    origin = float(np.sum((j60 + 1.0) * 0.5**j60 * u60))
    ok = ok and abs(origin - 0.48) <= 1e-6

    sd = bd.spectrum_data(2.0, -2.0, 2.2333, 1.0, 1.0)
    grid = np.linspace(-1.0, 1.0, 1001)
    target_fn = 1.0 / (grid - sd.eta) ** 2
    errs = []
    for k_trunc in range(30, 61, 5):
        p = bd.cheb_gen_poly_eval(k_trunc, sd.eta, grid)
        errs.append(float(np.max(np.abs(target_fn - p))))
    per_step = (np.array(errs[1:]) / np.array(errs[:-1])) ** (1.0 / 5.0)
    ratio = float(per_step[-1])
    ok = ok and abs(ratio - sd.t) <= 0.1 * sd.t
    _report(
        ok,
        "criterion 9 (Chebyshev machinery)",
        f"identity worst = {worst:.2e}, origin value = {origin:.8f}, grid ratio = {ratio:.4f}",
    )


def test_criterion_10_iterations_halving(acceptance_runs):
    ok = True
    details = []
    for fam in FAMILIES:
        result = acceptance_runs[fam]["result"]
        k_lam = _first_k_at_or_below(result, "lambda_gap", 1e-10)
        k_res = _first_k_at_or_below(result, "resid", 1e-10)
        good = k_lam is not None and k_res is not None and k_lam <= 0.65 * k_res
        ok = ok and good
        details.append(f"{fam}:{k_lam}/{k_res}")
    _report(ok, "criterion 10 (iterations halving)", " ".join(details))
