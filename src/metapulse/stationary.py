"""Traveling-profile (stationary) solutions.

In the co-moving coordinate xi = x - v t the Klein-Gordon pair reduces to
R'' = k^2 R (exponential branch, right waves) and L'' = -k^2 L (oscillating
branch, left waves) with k^2 = pq/(c v). The unidirectional Kerr equation
reduces to a cubic in the second derivative,

    K_v y^3 + c y + pq Pi = 0,   y = Pi_xixi,  K_v = mu0 chi3 c^3 v^6 / (2 p^3 q),

whose unique real root F(Pi) drives the nonlinear oscillator Pi'' = F(Pi).
The solvers read v, K_v and the medium from the profile they are given.
"""

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "StationaryParams",
    "stationary_params",
    "linear_r_profile",
    "linear_l_profile",
    "cardano_f",
    "integrate_oscillator",
    "series_f",
]


@dataclass(frozen=True)
class StationaryParams:
    """Speed, wavenumber, frequency and medium of one traveling profile."""

    v: float
    k: float
    omega: float
    big_k_v: float
    params: object

    def __post_init__(self):
        if not self.v > 0:
            raise ValueError("profile speed must be positive")


def stationary_params(v, params):
    """The profile of speed v in medium params: k = sqrt(pq/(cv))."""
    if not v > 0:
        raise ValueError("profile speed must be positive")
    p, q, c = params.omega_pe, params.omega_pm, params.c
    k = np.sqrt(p * q / (c * v))
    omega = v * k
    big_k_v = params.mu0 * params.chi3 * c**3 * v**6 / (2.0 * p**3 * q)
    return StationaryParams(v, k, omega, big_k_v, params)


def linear_r_profile(amplitude, sp, xi_samples):
    """Exponential right-wave branch A exp(k xi), xi = x - v t.

    Grows in xi at fixed t; equivalently decays in t at fixed x for v > 0.
    """
    xi = np.asarray(xi_samples, dtype=float)
    return amplitude * np.exp(sp.k * xi)


def linear_l_profile(amplitude, sp, xi_samples):
    """Oscillating left-wave branch B sin(k xi)."""
    xi = np.asarray(xi_samples, dtype=float)
    return amplitude * np.sin(sp.k * xi)


def cardano_f(pi_value, sp):
    """Real root y of K_v y^3 + c y + pq Pi = 0 (the oscillator force).

    For K_v >= 0 the cubic is strictly monotone in y, so the real root is
    unique; the closed-form Cardano root is polished by two Newton steps to
    push the back-substitution residual to rounding level.
    """
    p, q, c = sp.params.omega_pe, sp.params.omega_pm, sp.params.c
    pi_value = np.asarray(pi_value, dtype=float)
    kv = sp.big_k_v
    if kv == 0.0:
        out = -(p * q / c) * pi_value
        return float(out) if out.ndim == 0 else out

    # depressed cubic y^3 + P y + Q = 0 with P = c/kv > 0 (single real root)
    big_p = c / kv
    big_q = (p * q / kv) * pi_value
    disc = np.sqrt(big_q**2 / 4.0 + big_p**3 / 27.0)
    y = np.cbrt(-big_q / 2.0 + disc) + np.cbrt(-big_q / 2.0 - disc)
    for _ in range(2):
        f = kv * y**3 + c * y + p * q * pi_value
        fp = 3.0 * kv * y**2 + c
        y = y - f / fp
    return float(y) if y.ndim == 0 else y


def integrate_oscillator(pi0, dpi0, xi_end, n_steps, sp):
    """RK4 integration of Pi'' = F(Pi) from (pi0, dpi0) over [0, xi_end].

    Returns (xi, Pi, Pi') arrays sampled at every step.
    """
    if n_steps < 4:
        raise ValueError("n_steps must be at least 4")
    h = xi_end / n_steps
    xi = np.linspace(0.0, xi_end, n_steps + 1)
    pi = np.empty(n_steps + 1)
    slope = np.empty(n_steps + 1)
    y, s = float(pi0), float(dpi0)
    pi[0], slope[0] = y, s

    def f(val):
        return cardano_f(val, sp)

    for i in range(n_steps):
        k1y, k1s = s, f(y)
        k2y, k2s = s + 0.5 * h * k1s, f(y + 0.5 * h * k1y)
        k3y, k3s = s + 0.5 * h * k2s, f(y + 0.5 * h * k2y)
        k4y, k4s = s + h * k3s, f(y + h * k3y)
        y = y + (h / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        s = s + (h / 6.0) * (k1s + 2.0 * k2s + 2.0 * k3s + k4s)
        if not (np.isfinite(y) and np.isfinite(s)):
            raise FloatingPointError(
                f"oscillator state non-finite at xi = {xi[i + 1]:g}"
            )
        pi[i + 1], slope[i + 1] = y, s
    return xi, pi, slope


def series_f(pi_value, sp, order=3):
    """Perturbative expansion of the oscillator force F(Pi).

    order 1:  -(pq/c) Pi
    order 3:  -(pq/c) Pi + K_v (pq)^3 / c^4 * Pi^3

    The order-3 coefficient comes from one fixed-point iteration of
    y = -(pq Pi + K_v y^3)/c around the linear root; it is validated
    against :func:`cardano_f` in the test suite.
    """
    if order not in (1, 3):
        raise ValueError("order must be 1 or 3")
    p, q, c = sp.params.omega_pe, sp.params.omega_pm, sp.params.c
    pi_value = np.asarray(pi_value, dtype=float)
    lin = -(p * q / c) * pi_value
    if order == 1:
        out = lin
    else:
        out = lin + sp.big_k_v * (p * q) ** 3 / c**4 * pi_value**3
    if sp.big_k_v > 0:
        # series converges while the cubic term stays subdominant
        radius = c**1.5 / (np.sqrt(sp.big_k_v) * p * q)
        if np.any(np.abs(pi_value) > radius):
            warnings.warn("series_f input outside its convergence estimate",
                          stacklevel=2)
    return float(out) if out.ndim == 0 else out
