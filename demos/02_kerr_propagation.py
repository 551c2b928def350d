"""March a pulse through the Kerr-coupled directed-wave system.

The right amplitude obeys c Pi_xt + pq Pi = -K ((Pi - Lambda)_tt)^3; at
small amplitude the correction to the linear (Klein-Gordon-Fock type)
propagation scales with the cube of the amplitude.
"""

import numpy as np

from metapulse import (
    DirectedPair,
    DrudeParams,
    Signal,
    TimeGrid,
    propagate_nonlinear,
)

grid = TimeGrid(8192, 0.05)
t = grid.times
t0 = 0.5 * grid.window
env = np.exp(-((t - t0) ** 2) / (2.0 * 30.0**2))
pulse = env * np.sin(0.3 * (t - t0))
pulse -= np.mean(pulse)

x, n_steps = 2.0, 200
print(f"marching to x = {x} in {n_steps} Lawson RK4 steps\n")
print(f"{'amplitude':>10} {'chi3':>6} {'rel. nonlinear correction':>26}")
for amp in (0.01, 0.02, 0.04):
    dp0 = DirectedPair(Signal(grid, amp * pulse), Signal.zeros(grid))
    # same marcher with chi3 = 0 so only the cubic term differs
    linear = propagate_nonlinear(
        dp0, x, n_steps,
        DrudeParams(1.0, 1.0, c=1.0, eps0=1.0, mu0=1.0), grid,
    ).final
    kerr = propagate_nonlinear(
        dp0, x, n_steps,
        DrudeParams(1.0, 1.0, c=1.0, eps0=1.0, mu0=1.0, chi3=1.0), grid,
    ).final
    corr = np.linalg.norm(
        kerr.pi.samples - linear.pi.samples
    ) / np.linalg.norm(linear.pi.samples)
    print(f"{amp:>10.3f} {1.0:>6.1f} {corr:>26.3e}")
print("\ndoubling the amplitude multiplies the correction by ~4 "
      "(quadratic in amplitude relative to the field itself, cubic "
      "in absolute terms)")
