"""Split a boundary pulse into right/left wave amplitudes and rebuild it.

A Drude metamaterial with both plasma frequencies equal to 1 rad/s supports
propagating waves below 1 rad/s with a negative refraction index. The
directed amplitudes Pi (right) and Lambda (left) are linear combinations of
the boundary fields B and E through the slowness operator a-hat: split and
reconstruct are the paper's projector pair. Each takes the medium beside
the pair it acts on and reads the grid from that pair.
"""

import numpy as np

from metapulse import (
    DrudeParams,
    FieldPair,
    Signal,
    TimeGrid,
    reconstruct,
    split,
)

params = DrudeParams(1.0, 1.0, c=1.0, eps0=1.0, mu0=1.0)
grid = TimeGrid(4096, 0.05)

# modulated Gaussian E(0, t), no magnetic drive: the pulse splits evenly
t = grid.times
t0 = 0.5 * grid.window
env = np.exp(-((t - t0) ** 2) / (2.0 * 15.0**2))
j = Signal(grid, env * np.sin(0.4 * (t - t0)))
j = Signal(grid, j.samples - np.mean(j.samples))

dp = split(FieldPair(b=Signal.zeros(grid), e=j), params)
print(f"input E peak          : {j.peak:.6f}")
print(f"right amplitude peak  : {dp.pi.peak:.6f}")
print(f"left amplitude peak   : {dp.lam.peak:.6f}")

back = reconstruct(dp, params)
err_e = np.max(np.abs(back.e.samples - j.samples)) / j.peak
err_b = np.max(np.abs(back.b.samples)) / j.peak
print(f"round-trip error in E : {err_e:.2e}")
print(f"residual B (was zero) : {err_b:.2e}")
