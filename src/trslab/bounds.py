"""A-priori convergence bounds for the Krylov trust-region solver.

All bounds are explicit scalar functions of the iteration index k, the
spectrum data (extremal eigenvalues, optimal multiplier) and a few run
quantities.  The geometric factor is t = (sqrt(kappa)-1)/(sqrt(kappa)+1)
with kappa the condition number of A + lam_opt I; multiplier and objective
errors decay like t^{2(k+1)} while solution and residual errors decay like
t^{k+1}.  The rational function 1/(x-eta)^2 is approximated through its
Chebyshev second-kind generating series, which supplies the polynomial
behind the k-dependent constant c_k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class HardOrIndefiniteShift(Exception):
    pass


class DegenerateT(Exception):
    pass


class DegenerateSpectrum(Exception):
    pass


class NonpositiveSep(Exception):
    pass


@dataclass(frozen=True)
class SpectrumData:
    alpha1: float  # largest eigenvalue of A
    alpha_n: float  # smallest eigenvalue of A
    lambda_opt: float
    kappa: float
    t: float
    eta: float
    beta0: float
    delta: float


def spectrum_data(alpha1, alpha_n, lambda_opt, beta0, delta):
    """Condition number, decay factor t and eta for a boundary instance."""
    if alpha_n + lambda_opt <= 0.0:
        raise HardOrIndefiniteShift(
            f"alpha_n + lambda_opt = {alpha_n + lambda_opt:.3e} must be positive"
        )
    kappa = (alpha1 + lambda_opt) / (alpha_n + lambda_opt)
    rk = math.sqrt(kappa)
    t = (rk - 1.0) / (rk + 1.0)
    eta = (kappa + 1.0) / (kappa - 1.0) if kappa > 1.0 else math.inf
    return SpectrumData(alpha1, alpha_n, lambda_opt, kappa, t, eta, beta0, delta)


def t_from_eta(eta):
    """Alternative expression of the decay factor: eta - sqrt(eta^2 - 1)."""
    return eta - math.sqrt(eta * eta - 1.0)


def cg_distance_bound(k, sd):
    """2 t^{k+1}: relative Krylov distance of the optimal solution (and of y1)."""
    return 2.0 * sd.t ** (k + 1)


def chebyshev_u_values(count, x):
    """First `count` Chebyshev polynomials of the second kind at x.

    Standard recurrence U_0 = 1, U_1 = 2x, U_{j+1} = 2x U_j - U_{j-1};
    vectorized over x.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((count,) + x.shape)
    if count >= 1:
        out[0] = 1.0
    if count >= 2:
        out[1] = 2.0 * x
    for j in range(2, count):
        out[j] = 2.0 * x * out[j - 1] - out[j - 2]
    return out


def cheb_gen_poly_eval(k_trunc, eta, x):
    """Truncated generating-series polynomial approximating 1/(x-eta)^2.

    p(x) = 4t^2/(1-t^2) * sum_{j=0}^{k_trunc} (j+1) t^j U_j(x) with
    t = eta - sqrt(eta^2 - 1); vectorized over x in [-1, 1].
    """
    if eta <= 1.0:
        raise ValueError("eta must exceed 1")
    t = t_from_eta(eta)
    u = chebyshev_u_values(k_trunc + 1, x)
    j = np.arange(k_trunc + 1, dtype=float)
    weights = (j + 1.0) * t**j
    series = np.tensordot(weights, u, axes=(0, 0))
    return (4.0 * t * t / (1.0 - t * t)) * series


def generating_series_value(t, x):
    """Closed form of sum (j+1) t^j U_j(x) = (1-t^2)/(1+t^2-2tx)^2."""
    return (1.0 - t * t) / (1.0 + t * t - 2.0 * t * x) ** 2


def epsilon2_bound(k, sd):
    """(1 + (k+2)/|ln t|) * 4/(1-t^2) * t^{k+3}: uniform approximation error cap."""
    t = sd.t
    if t == 0.0:
        return 0.0
    if t >= 1.0:
        raise DegenerateT(f"t = {t!r} is not in (0, 1)")
    return (1.0 + (k + 2.0) / abs(math.log(t))) * 4.0 / (1.0 - t * t) * t ** (k + 3)


def y2_distance_bound(k, sd, y1_norm):
    """Krylov distance cap for the second eigenvector half, epsilon2 scaled by
    16 (alpha1+lam) ||y1|| / (alpha1-alpha_n)^2 / (1-t^2) ... t^{k+3}."""
    t = sd.t
    if t == 0.0:
        return 0.0
    spread = sd.alpha1 - sd.alpha_n
    if spread == 0.0:
        raise DegenerateSpectrum("alpha1 == alpha_n")
    lead = 16.0 * (sd.alpha1 + sd.lambda_opt) * y1_norm / (spread * spread * (1.0 - t * t))
    return lead * (1.0 + (k + 2.0) / abs(math.log(t))) * t ** (k + 3)


def ck_factor(k, sd):
    """k-dependent constant in the subspace-angle bound, >= 2, slowly growing."""
    if sd.alpha1 == sd.alpha_n:
        raise DegenerateSpectrum("alpha1 == alpha_n")
    t = sd.t
    if t == 0.0:
        return 2.0
    if t >= 1.0:
        raise DegenerateT(f"t = {t!r} is not in (0, 1)")
    spread = sd.alpha1 - sd.alpha_n
    lead = 16.0 * (sd.alpha1 + sd.lambda_opt) / (spread * spread * (1.0 - t * t))
    return 2.0 + lead * (1.0 + (k + 2.0) / abs(math.log(t))) * t * t


def sin_subspace_bound(k, sd, y1_norm):
    """c_k ||y1|| t^{k+1}: angle between the exact eigenvector and the doubled
    Krylov subspace."""
    return ck_factor(k, sd) * y1_norm * sd.t ** (k + 1)


def first_lambda_bound(k, sd, s_cond, gamma, y1_norm):
    """c_k s(lam_k) gamma_k ||y1|| t^{k+1}: asymptotic, a considerable overestimate.

    s(lam_k) = 1/(2 z1'z2) for the projected eigenvector (z1; z2), and gamma_k =
    ||pi M (I - pi)|| = beta_{k+1}, the next off-diagonal of the Lanczos T.
    """
    return ck_factor(k, sd) * s_cond * gamma * y1_norm * sd.t ** (k + 1)


def cg_energy_bound(k, sd):
    """(4 delta / beta0) t^{2(k+1)}: cap on the leading-entry resolvent gap."""
    if sd.beta0 <= 0.0:
        raise ValueError("beta0 must be positive")
    return 4.0 * sd.delta / sd.beta0 * sd.t ** (2 * (k + 1))


@dataclass(frozen=True)
class EtaFactors:
    eta1: float
    eta2: float
    eta1_cap: float
    eta2_cap: float


def eta_factors(moment, lambda_opt, beta0, delta, alpha1):
    """Exact multiplier-bound factors plus their k-independent caps.

    eta1 = beta0^2 / (delta^2 + beta0^2 moment) and eta2 = 2 / (same
    denominator), with the resolvent moment e1^T (T+lam I)^{-2} e1 =
    ||(T+lam I)^{-1} e1||^2 of the projected T at lam = lambda_opt.  Raises
    ValueError if a factor exceeds its cap by more than rounding.
    """
    denom = delta * delta + beta0 * beta0 * moment
    eta1 = beta0 * beta0 / denom
    eta2 = 2.0 / denom
    a = alpha1 + lambda_opt
    cap_denom = beta0 * beta0 + a * a * delta * delta
    eta1_cap = beta0 * beta0 * a * a / cap_denom
    eta2_cap = 2.0 * a * a / cap_denom
    tol = 1e-10 * max(eta1_cap, eta2_cap, 1.0)
    if eta1 > eta1_cap + tol or eta2 > eta2_cap + tol:
        raise ValueError(
            f"exact factors ({eta1:.6e}, {eta2:.6e}) exceed caps "
            f"({eta1_cap:.6e}, {eta2_cap:.6e})"
        )
    return EtaFactors(eta1, eta2, eta1_cap, eta2_cap)


def lambda_gap_bound(k, sd, eta1, eta2):
    """(4 eta1 delta / beta0 + 8 (alpha1+lam) eta2 delta^2) t^{2(k+1)}."""
    lead = 4.0 * eta1 * sd.delta / sd.beta0 + 8.0 * (
        sd.alpha1 + sd.lambda_opt
    ) * eta2 * sd.delta * sd.delta
    return lead * sd.t ** (2 * (k + 1))


def q_gap_bound(k, sd):
    """8 (alpha1+lam) delta^2 t^{2(k+1)}: objective-value error cap."""
    return 8.0 * (sd.alpha1 + sd.lambda_opt) * sd.delta * sd.delta * sd.t ** (2 * (k + 1))


def sin_angle_bound(k, sd, m_norm, sep):
    """c_k (1 + ||M||/sep) t^{k+1}: solution-angle cap, with the uncomputable
    subspace-angle term in the denominator set to zero."""
    if sep <= 0.0:
        raise NonpositiveSep(f"sep = {sep!r}")
    return ck_factor(k, sd) * (1.0 + m_norm / sep) * sd.t ** (k + 1)


def s_gap_bound(k, sd):
    """4 sqrt(kappa) delta t^{k+1}: solution-error cap."""
    return 4.0 * math.sqrt(sd.kappa) * sd.delta * sd.t ** (k + 1)


def residual_bound(k, sd, eta1, eta2):
    """Residual-norm cap: the multiplier term decays like t^{2(k+1)} and the
    solution term, which dominates, like t^{k+1}."""
    quad = (
        4.0 * eta1 * sd.delta * sd.delta / sd.beta0
        + 8.0 * (sd.alpha1 + sd.lambda_opt) * eta2 * sd.delta**3
    )
    lin = 4.0 * math.sqrt(sd.kappa) * sd.delta * (sd.alpha1 + sd.lambda_opt)
    return quad * sd.t ** (2 * (k + 1)) + lin * sd.t ** (k + 1)
