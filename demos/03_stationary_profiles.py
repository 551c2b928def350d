"""Traveling-wave profiles Pi(x - vt) of the Kerr system.

Seeking solutions that depend only on xi = x - vt reduces the PDE to an
oscillator in xi. With the cubic term the restoring force comes from a
depressed-cubic (Cardano) root; the linear limit is harmonic with
wavenumber k = sqrt(pq / (c v)). A profile from stationary_params records
its medium, so the solvers take the profile alone.
"""

import numpy as np

from metapulse import (
    DrudeParams,
    cardano_f,
    integrate_oscillator,
    series_f,
    stationary_params,
)

kerr = DrudeParams(1.0, 1.0, c=1.0, eps0=1.0, mu0=1.0, chi3=1.0)
sp = stationary_params(0.8, kerr)
print(f"profile speed v = {sp.v}, wavenumber k = {sp.k:.6f}, "
      f"omega = {sp.omega:.6f}, K_v = {sp.big_k_v:.6f}\n")

# the nonlinear restoring force softens against its linear limit
print(f"{'Pi':>6} {'linear -pq Pi/c':>16} {'cardano f(Pi)':>14} "
      f"{'series order 3':>15}")
lin = DrudeParams(1.0, 1.0, c=1.0, eps0=1.0, mu0=1.0)
sp_lin = stationary_params(0.8, lin)
for pi in (0.1, 0.5, 1.0, 2.0):
    f_lin = float(cardano_f(pi, sp_lin))
    f_nl = float(cardano_f(pi, sp))
    f_s3 = float(series_f(pi, sp, order=3))
    print(f"{pi:>6.2f} {f_lin:>16.6f} {f_nl:>14.6f} {f_s3:>15.6f}")

# integrate one nonlinear period and report the amplitude excursion
xi, pi, slope = integrate_oscillator(1.0, 0.0, 20.0, 4000, sp)
print(f"\noscillator from Pi(0) = 1: min {pi.min():.4f}, max {pi.max():.4f}")
print("the nonlinear period is longer than the harmonic 2*pi/k = "
      f"{2.0 * np.pi / sp.k:.4f}")
