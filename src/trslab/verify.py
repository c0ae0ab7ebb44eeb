"""Self-verification suites for the solver and the bound catalogue.

Each check returns (name, passed, margin, detail); margins are the factor
by which the property held (values above 1 mean slack).  The quick scale
runs reduced problem sizes; full scale uses the default experiment sizes.
All checks are deterministic for fixed seeds.
"""

from __future__ import annotations

import math

import numpy as np

from . import bounds as bnd
from . import experiments as ex
from .lanczos import lanczos_run
from .linalg import SymmetricLinearOperator, symmetric_eig_dense
from .trs import NearHardCase, solve_trs_spectral, solve_trs_tridiagonal

_FAMILY_SIZES = {
    "quick": {"1a": 2000, "1b": 2000, "2": 2000, "3": 2000, "4": 500},
    "full": {"1a": 10000, "1b": 10000, "2": 10000, "3": 10000, "4": 2000},
}

MAX_ORDER = 40  # largest order of a random_secular_instance
HARD_MARGIN = 1e-3  # its least theta_min + lam, relative to 1 + |theta_min|
CHEBYSHEV_TERMS = 200  # series terms in check_chebyshev_identity


def random_secular_instance(rng):
    """A random tridiagonal TRS instance kept clear of the hard case.

    The tridiagonals are Krylov projections of random diagonal operators,
    the same class the solver receives in production; unlike raw random
    tridiagonals (whose extreme eigenvectors localize away from the first
    coordinate), these stay strongly coupled to e1.  Draws are still
    rejected if the boundary shift theta_min + lam is not comfortably
    positive, since below that the boundary norm is too steep in lam for
    any two routes to be comparable at full accuracy.
    """
    n_ambient = 6 * MAX_ORDER
    while True:
        m = int(rng.integers(1, MAX_ORDER + 1))
        spectrum = rng.uniform(-3.0, 3.0, n_ambient)
        op = SymmetricLinearOperator.from_diagonal(spectrum)
        start = rng.standard_normal(n_ambient)
        T = lanczos_run(op, start, m - 1).tridiag
        m = T.order
        beta0 = float(rng.uniform(0.5, 2.0))
        delta = float(rng.uniform(0.3, 3.0))
        vals, vecs = symmetric_eig_dense(T.to_dense())
        coeffs = vecs.T @ (beta0 * np.eye(m)[:, 0])
        try:
            lam, s_eig, _, case = solve_trs_spectral(vals, coeffs, delta, tol=1e-14)
        except NearHardCase:
            continue
        if vals[0] + lam < HARD_MARGIN * (1.0 + abs(vals[0])):
            continue
        return T, beta0, delta, (lam, vecs @ s_eig, case)


def check_oracle_equivalence(instances=500, seed=123):
    """Tridiagonal secular solver vs eigendecomposition oracle."""
    rng = np.random.default_rng(seed)
    worst_lam = 0.0
    worst_h = 0.0
    worst_it = 0
    for _ in range(instances):
        T, beta0, delta, (lam_o, h_o, case_o) = random_secular_instance(rng)
        sol = solve_trs_tridiagonal(T, beta0, delta)
        worst_it = max(worst_it, sol.secular_iterations)
        worst_lam = max(worst_lam, abs(sol.lam - lam_o) / (1.0 + lam_o))
        worst_h = max(worst_h, float(np.max(np.abs(sol.h - h_o))))
    passed = worst_lam <= 1e-9 and worst_h <= 1e-8 and worst_it <= 50
    margin = min(
        1e-9 / max(worst_lam, 1e-300),
        1e-8 / max(worst_h, 1e-300),
        50.0 / max(worst_it, 1),
    )
    detail = f"dlam={worst_lam:.2e} dh={worst_h:.2e} iters<={worst_it}"
    return passed, margin, detail


def _run_family(family, scale, seed=0):
    n = _FAMILY_SIZES[scale][family]
    spec = ex.default_spec(family, n=n, seed=seed)
    return ex.run_experiment(spec)


def check_residual_identity(result):
    cols = result.table.columns
    ref = result.reference
    scale = (abs(ref.alpha1) + abs(ref.alpha_n)) * result.spec.delta + result.summary["beta0"]
    worst = float(np.nanmax(np.abs(cols["resid"] - cols["resid_formula"])))
    limit = 1e-9 * scale
    return worst <= limit, limit / max(worst, 1e-300), f"max |formula-explicit| = {worst:.2e}"


def check_monotonicity(result):
    lams = np.array([r.lam for r in result.run.history])
    qs = np.array([r.q for r in result.run.history])
    lam_opt = result.reference.lambda_opt
    slack = 1e-10 * (1.0 + abs(lam_opt))
    nondecr = bool(np.all(np.diff(lams) >= -0.0))
    capped = bool(np.all(lams <= lam_opt + 1e-10))
    nonincr = bool(np.all(np.diff(qs) <= slack))
    passed = nondecr and capped and nonincr
    overshoot = float(np.max(lams) - lam_opt)
    margin = min(1e-10 / max(overshoot, 1e-300), 1e6)
    return passed, margin, (
        f"nondecr={nondecr} capped={capped} q_noninc={nonincr} overshoot={overshoot:.2e}"
    )


def _floor_threshold(col_name, result):
    ref = result.reference
    beta0 = result.summary["beta0"]
    delta = result.spec.delta
    if col_name == "lambda_gap":
        return 1e-13 * (1.0 + abs(ref.lambda_opt))
    if col_name == "q_gap":
        return 1e-13 * (1.0 + abs(ref.q_opt))
    if col_name == "resid":
        return 1e-13 * ((abs(ref.alpha1) + abs(ref.alpha_n)) * delta + beta0)
    return 1e-13  # angles and solution gaps live on an O(1) scale


def asymptotic_start(result):
    """First index where the multiplier gap drops below alpha_n + lambda_opt."""
    cols = result.table.columns
    ref = result.reference
    shift = ref.alpha_n + ref.lambda_opt
    idx = np.nonzero(cols["lambda_gap"] <= shift)[0]
    return int(idx[0]) if idx.size else result.table.nrows


def check_dominance(result):
    """Every bound column >= its measured error above the floating floor."""
    cols = result.table.columns
    k0 = asymptotic_start(result)
    pairs = [
        ("lambda_gap", "lambda_gap_bound", k0),
        ("q_gap", "q_gap_bound", 0),
        ("sin_angle", "sin_angle_bound", 0),
        ("s_gap", "s_gap_bound", 0),
        ("resid", "resid_bound", k0),
        ("cg_gap", "cg_gap_bound", 0),
    ]
    worst_ratio = math.inf
    failures = []
    for err_name, bound_name, start in pairs:
        err = cols[err_name][start:]
        bound = cols[bound_name][start:]
        floor = _floor_threshold(err_name, result)
        mask = (err >= floor) & ~np.isnan(bound)
        if not mask.any():
            continue
        ratios = bound[mask] / err[mask]
        worst_ratio = min(worst_ratio, float(ratios.min()))
        if np.any(ratios < 1.0):
            failures.append(err_name)
    passed = not failures
    detail = f"min bound/error ratio = {worst_ratio:.3f}" + (
        f" failures={failures}" if failures else ""
    )
    return passed, worst_ratio, detail


def fit_log_slope(ks, values, floor, ceiling):
    mask = (values > floor) & (values < ceiling) & np.isfinite(values)
    if mask.sum() < 4:
        return None
    return float(np.polyfit(ks[mask], np.log(values[mask]), 1)[0])


def check_rates(result):
    """Fitted decay slopes against the theoretical t and t^2 rates."""
    cols = result.table.columns
    t = result.reference.t
    ks = cols["k"]
    two = 2.0 * math.log(t)
    one = math.log(t)
    checks = []
    for name, target in (("lambda_gap", two), ("q_gap", two), ("sin_angle", one), ("resid", one)):
        vals = cols[name]
        top = np.nanmax(vals)
        floor = max(100.0 * _floor_threshold(name, result), 1e-12)
        slope = fit_log_slope(ks, vals, floor, 1e-2 * top)
        if slope is None:
            checks.append((name, False, 0.0))
            continue
        # within 15 percent of the target rate on both sides
        ok = (slope <= target + 0.15 * abs(target)) and (slope >= target - 0.15 * abs(target))
        checks.append((name, ok, slope / target))
    passed = all(ok for _, ok, _ in checks)
    detail = " ".join(f"{n}:{r:.3f}" for n, _, r in checks) + " (slope/target)"
    margin = min((r for _, _, r in checks), default=0.0)
    return passed, margin, detail


def check_chebyshev_identity(samples=100, seed=2):
    """Truncated generating series against its closed form.

    The 200-term tail at the extreme corner (t near 0.9, x near 1) decays
    slowly enough to reach ~1.6e-7 relative, so the sampled check is
    complemented by a denser sweep over t <= 0.85 where the tail is far
    below the tolerance.
    """
    rng = np.random.default_rng(seed)
    j = np.arange(float(CHEBYSHEV_TERMS))

    def rel_err(t, x):
        u = bnd.chebyshev_u_values(CHEBYSHEV_TERMS, np.array([x]))[:, 0]
        val = float(np.sum((j + 1.0) * t**j * u))
        target = bnd.generating_series_value(t, x)
        return abs(val - target) / (1.0 + abs(target))

    worst = 0.0
    for _ in range(samples):
        x = float(rng.uniform(-1.0, 1.0))
        t = float(rng.uniform(0.05, 0.9))
        worst = max(worst, rel_err(t, x))
    for t in np.linspace(0.05, 0.85, 17):
        for x in np.linspace(-1.0, 1.0, 21):
            worst = max(worst, rel_err(float(t), float(x)))
    passed = worst <= 1e-8
    return passed, 1e-8 / max(worst, 1e-300), f"worst rel err = {worst:.2e}"


def verify(scale="quick", seed=0, stream=None):
    """Run all property suites; returns True when everything passed."""
    if scale not in _FAMILY_SIZES:
        raise ValueError(f"scale must be 'quick' or 'full', got {scale!r}")
    emit = (lambda s: None) if stream is None else (lambda s: print(s, file=stream))

    oracle_instances = 120 if scale == "quick" else 500
    families = ("1a", "2", "3") if scale == "quick" else ("1a", "1b", "2", "3", "4")

    checks = []
    checks.append(("oracle_equivalence", *check_oracle_equivalence(instances=oracle_instances)))
    checks.append(("chebyshev_identity", *check_chebyshev_identity()))
    for fam in families:
        res = _run_family(fam, scale, seed=seed)
        checks.append((f"residual_identity[{fam}]", *check_residual_identity(res)))
        checks.append((f"monotonicity[{fam}]", *check_monotonicity(res)))
        checks.append((f"bound_dominance[{fam}]", *check_dominance(res)))
        checks.append((f"rates[{fam}]", *check_rates(res)))

    all_passed = True
    for name, passed, margin, detail in checks:
        flag = "PASS" if passed else "FAIL"
        emit(f"{flag} {name:28s} margin={margin:9.3g}  {detail}")
        all_passed = all_passed and passed
    return all_passed
