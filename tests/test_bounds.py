import math

import numpy as np
import pytest

from trslab import bounds as bd
from trslab import linalg as la


@pytest.fixture(scope="module")
def sd_1a():
    return bd.spectrum_data(2.0, -2.0, 2.2333, 1.0, 1.0)


def test_spectrum_data_reference_values(sd_1a):
    # kappa is hypersensitive to the rounding of lambda_opt (the quoted 4-digit
    # multiplier gives 18.1454); t is the robust quantity
    assert sd_1a.kappa == pytest.approx(18.148, abs=5e-3)
    assert sd_1a.t == pytest.approx(0.6198, abs=1e-4)
    sd3 = bd.spectrum_data(8.0, -2.0, 2.9850, 1.0, 1.0)
    assert sd3.kappa == pytest.approx(11.152, abs=1e-3)
    assert sd3.t == pytest.approx(0.5391, abs=1e-4)


def test_spectrum_data_degenerate_and_invalid():
    sd = bd.spectrum_data(3.0, 3.0, 0.5, 1.0, 1.0)
    assert sd.kappa == 1.0
    assert sd.t == 0.0
    with pytest.raises(bd.HardOrIndefiniteShift):
        bd.spectrum_data(1.0, -2.0, 2.0, 1.0, 1.0)


def test_t_expressions_agree():
    rng = np.random.default_rng(8)
    for _ in range(1000):
        kappa = float(np.exp(rng.uniform(math.log(1.0 + 1e-9), math.log(1e6))))
        t_direct = (math.sqrt(kappa) - 1.0) / (math.sqrt(kappa) + 1.0)
        eta = (kappa + 1.0) / (kappa - 1.0)
        assert abs(bd.t_from_eta(eta) - t_direct) <= 1e-12


def test_distance_bound_values(sd_1a):
    assert bd.cg_distance_bound(0, bd.spectrum_data(1, 1, 0.5, 1, 1)) == 0.0
    sd_half = bd.SpectrumData(1, -1, 2, 9, 0.5, 1.25, 1, 1)
    assert bd.cg_distance_bound(0, sd_half) == pytest.approx(1.0)
    assert bd.cg_distance_bound(34, sd_1a) == pytest.approx(1.07e-7, rel=2e-2)


def test_generating_identity_random_box():
    rng = np.random.default_rng(2)
    j = np.arange(200.0)
    for _ in range(100):
        x = float(rng.uniform(-1, 1))
        t = float(rng.uniform(0.05, 0.9))
        u = bd.chebyshev_u_values(200, np.array([x]))[:, 0]
        val = float(np.sum((j + 1.0) * t**j * u))
        target = bd.generating_series_value(t, x)
        assert abs(val - target) <= 1e-8 * (1.0 + abs(target))


def test_generating_identity_slow_corner_characterized():
    # the 200-term tail decays slowly at the (t, x) -> (0.9, 1) corner; pin
    # its measured size so the behaviour is visible rather than sampled away
    j = np.arange(200.0)
    u = bd.chebyshev_u_values(200, np.array([1.0]))[:, 0]
    val = float(np.sum((j + 1.0) * 0.9**j * u))
    target = bd.generating_series_value(0.9, 1.0)
    rel = abs(val - target) / (1.0 + abs(target))
    assert 1e-9 <= rel <= 2e-7


def test_truncated_series_value_at_origin():
    # closed form (1 - t^2)/(1 + t^2)^2 = 0.48 at t = 1/2
    j = np.arange(60.0)
    u = bd.chebyshev_u_values(60, np.array([0.0]))[:, 0]
    val = float(np.sum((j + 1.0) * 0.5**j * u))
    assert val == pytest.approx(0.48, abs=1e-6)


def test_gen_poly_single_term():
    # truncation at j=0 leaves the constant 4t^2/(1-t^2)
    eta = 1.25  # t = 0.5
    value = bd.cheb_gen_poly_eval(0, eta, np.array([0.3]))
    assert value[0] == pytest.approx(4 * 0.25 / 0.75, rel=1e-12)


def test_gen_poly_grid_error_decays_at_rate_t(sd_1a):
    eta = sd_1a.eta
    t = sd_1a.t
    grid = np.linspace(-1.0, 1.0, 1001)
    target = 1.0 / (grid - eta) ** 2
    errs = []
    for k_trunc in range(10, 61, 5):
        p = bd.cheb_gen_poly_eval(k_trunc, eta, grid)
        errs.append(float(np.max(np.abs(target - p))))
    errs = np.array(errs)
    per_step = (errs[1:] / errs[:-1]) ** (1.0 / 5.0)
    # late truncations approach the geometric factor from above
    assert per_step[-1] == pytest.approx(t, rel=0.1)
    assert np.all(np.diff(per_step) < 0)


def test_epsilon2_bound_values(sd_1a):
    sd_half = bd.SpectrumData(1.0, -1.0, 1.5, 9.0, 0.5, 1.25, 1.0, 1.0)
    assert bd.epsilon2_bound(0, sd_half) == pytest.approx(2.5903, abs=2e-4)
    zero_t = bd.spectrum_data(1, 1, 0.5, 1, 1)
    assert bd.epsilon2_bound(5, zero_t) == 0.0
    # decay ratio approaches t
    vals = [bd.epsilon2_bound(k, sd_1a) for k in range(40, 46)]
    ratios = np.array(vals[1:]) / np.array(vals[:-1])
    assert ratios[-1] == pytest.approx(sd_1a.t, rel=0.05)


def test_ck_factor_reference_value():
    sd = bd.SpectrumData(2.0, -2.0, 2.2333, 18.1481, 0.6198, 1.1166, 1.0, 1.0)
    assert bd.ck_factor(10, sd) == pytest.approx(70.9, rel=5e-3)
    # vanishing decay factor leaves only the constant term
    zero_t = bd.SpectrumData(2.0, -2.0, 2.2333, 1.0, 0.0, np.inf, 1.0, 1.0)
    assert bd.ck_factor(3, zero_t) == 2.0
    with pytest.raises(bd.DegenerateSpectrum):
        bd.ck_factor(3, bd.SpectrumData(1.0, 1.0, 0.5, 1.0, 0.0, np.inf, 1.0, 1.0))
    # growth is asymptotically linear in k
    d1 = bd.ck_factor(41, sd) - bd.ck_factor(40, sd)
    d2 = bd.ck_factor(81, sd) - bd.ck_factor(80, sd)
    assert d1 == pytest.approx(d2, rel=1e-9)


def test_y2_distance_bound_identities(sd_1a):
    # epsilon2 scaled by 4 (alpha1 + lam) ||y1|| / (alpha1 - alpha_n)^2, and
    # the terms of sin_subspace_bound beyond its constant 2, times t^2
    spectra = [
        sd_1a,
        bd.spectrum_data(8.0, -2.0, 2.9850, 1.0, 1.0),
        bd.spectrum_data(1.0, 0.5, 0.1, 1.0, 1.0),  # t near 0.15
        bd.spectrum_data(1e3, -1.0, 1.001, 1.0, 1.0),  # kappa near 1e6, t near 0.998
    ]
    for sd in spectra:
        spread = sd.alpha1 - sd.alpha_n
        scale = 4.0 * (sd.alpha1 + sd.lambda_opt) / (spread * spread)
        for y1_norm in (1e-3, 0.7, 25.0):
            for k in (0, 1, 10, 60):
                bound = bd.y2_distance_bound(k, sd, y1_norm)
                assert bound > 0.0
                via_epsilon2 = scale * y1_norm * bd.epsilon2_bound(k, sd)
                via_ck = (bd.ck_factor(k, sd) - 2.0) * y1_norm * sd.t ** (k + 1)
                assert bound == pytest.approx(via_epsilon2, rel=1e-12, abs=0.0)
                assert bound == pytest.approx(via_ck, rel=1e-12, abs=0.0)
    # t = 0: a single eigenvalue, or kappa = 1, leaves nothing to bound
    assert bd.y2_distance_bound(5, bd.spectrum_data(3.0, 3.0, 0.5, 1.0, 1.0), 1.0) == 0.0
    zero_t = bd.SpectrumData(2.0, -2.0, 2.2333, 1.0, 0.0, np.inf, 1.0, 1.0)
    assert bd.y2_distance_bound(5, zero_t, 1.0) == 0.0
    # alpha1 == alpha_n with t > 0 is inconsistent data
    with pytest.raises(bd.DegenerateSpectrum):
        bd.y2_distance_bound(3, bd.SpectrumData(1.0, 1.0, 0.5, 9.0, 0.5, 1.25, 1.0, 1.0), 1.0)


def test_eta_factors_scalar_instance():
    T = la.SymmetricTridiagonal([1.0], [])
    x = la.solve_shifted(T, 1.0, [1.0])
    ef = bd.eta_factors(float(x @ x), 1.0, 2.0, 1.0, 1.0)
    assert ef.eta1 == pytest.approx(2.0, abs=1e-12)
    assert ef.eta2 == pytest.approx(1.0, abs=1e-12)
    # with T = [alpha1] the exact factors sit on their caps
    assert ef.eta1_cap == pytest.approx(2.0, abs=1e-12)
    assert ef.eta2_cap == pytest.approx(1.0, abs=1e-12)


def test_eta_factors_cap_and_ratio():
    rng = np.random.default_rng(3)
    for _ in range(25):
        m = int(rng.integers(1, 30))
        T = la.SymmetricTridiagonal(rng.uniform(0.5, 2.0, m), rng.uniform(-0.4, 0.4, max(m - 1, 0)))
        lam = float(rng.uniform(0.5, 2.0))
        beta0 = float(rng.uniform(0.5, 2.0))
        delta = float(rng.uniform(0.5, 2.0))
        hi = la.extremal_eig_tridiagonal(T)[1]
        x = la.solve_shifted(T, lam, np.eye(m)[0])
        ef = bd.eta_factors(float(x @ x), lam, beta0, delta, hi)
        assert ef.eta1 <= ef.eta1_cap * (1 + 1e-12)
        assert ef.eta2 <= ef.eta2_cap * (1 + 1e-12)
        assert ef.eta2 / ef.eta1 == pytest.approx(2.0 / beta0**2, rel=1e-12)


def test_bound_formula_arithmetic():
    sd = bd.SpectrumData(1.0, -1.0, 2.0, 4.0, 1.0 / 3.0, 5.0 / 3.0, 1.0, 1.0)
    # s-gap: 4 sqrt(kappa) delta t^{k+1} at k=0
    assert bd.s_gap_bound(0, sd) == pytest.approx(4 * 2 * (1 / 3))
    # cg energy: 4 delta/beta0 t^{2(k+1)}
    sd_half = bd.SpectrumData(1.0, -1.0, 1.5, 9.0, 0.5, 1.25, 1.0, 1.0)
    assert bd.cg_energy_bound(1, sd_half) == pytest.approx(4 * 0.5**4)
    # q-gap: 8 (alpha1+lam) delta^2 t^{2(k+1)}
    assert bd.q_gap_bound(0, sd_half) == pytest.approx(8 * 2.5 * 0.25)


def test_lambda_bound_log_slope(sd_1a):
    ks = np.arange(10, 40)
    vals = np.array([bd.lambda_gap_bound(k, sd_1a, 0.3, 0.2) for k in ks])
    slope = np.polyfit(ks, np.log(vals), 1)[0]
    assert slope == pytest.approx(2 * math.log(sd_1a.t), rel=1e-9)


def test_residual_bound_asymptotic_ratio(sd_1a):
    vals = np.array([bd.residual_bound(k, sd_1a, 0.3, 0.2) for k in range(60, 70)])
    ratios = vals[1:] / vals[:-1]
    assert ratios[-1] == pytest.approx(sd_1a.t, rel=1e-3)


def test_sin_angle_bound_limits(sd_1a):
    huge_sep = bd.sin_angle_bound(7, sd_1a, 3.0, 1e300)
    assert huge_sep == pytest.approx(bd.ck_factor(7, sd_1a) * sd_1a.t**8, rel=1e-9)
    with pytest.raises(bd.NonpositiveSep):
        bd.sin_angle_bound(3, sd_1a, 3.0, 0.0)


def test_run_level_bound_dominance(small_run):
    # measured subspace angle must sit below its bound at every iteration
    diag = small_run.diagnostics
    mask = ~np.isnan(diag["subspace_sine"])
    assert mask.sum() > 10
    assert np.all(
        diag["subspace_sine_bound"][mask] >= diag["subspace_sine"][mask]
    )


def test_first_lambda_bound_is_a_gross_overestimate(small_run):
    # diagnostic bound: dominates the multiplier gap but by orders of magnitude
    res = small_run
    cols = res.table
    sd = bd.spectrum_data(
        res.reference.alpha1,
        res.reference.alpha_n,
        res.reference.lambda_opt,
        res.summary["beta0"],
        res.spec.delta,
    )
    gamma = res.diagnostics["gamma_tilde_final"]
    scond = res.diagnostics["spectral_condition"]
    mask = ~np.isnan(scond)
    ks = cols["k"][mask].astype(int)
    gaps = cols["lambda_gap"][mask]
    for k, gap, sc in zip(ks[2:], gaps[2:], scond[mask][2:]):
        if gap < 1e-12:
            break
        value = bd.first_lambda_bound(int(k), sd, sc, gamma, res.reference.y1_norm)
        assert value >= gap


def test_spectral_condition_converges_along_run(small_run):
    # projected condition numbers approach the full-space value
    res = small_run
    scond = res.diagnostics["spectral_condition"]
    mask = ~np.isnan(scond)
    ref = res.reference
    # full-space spectral condition from the exact eigenvector halves
    y1, y2 = ref.y1, ref.y2
    full = 1.0 / (2.0 * abs(float(y1 @ y2)))
    tail = scond[mask][-1]
    assert tail == pytest.approx(full, rel=1e-6)
