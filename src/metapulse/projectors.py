"""Projection onto directed-wave subspaces.

The 2x2 projector pair acting on the field column (B, E):

    P1 = 1/2 [[1, -a-hat], [-a-hat^{-1}, 1]]
    P2 = 1/2 [[1, +a-hat], [+a-hat^{-1}, 1]]

Each off-diagonal entry is a convolution operator realized spectrally.
The algebra (completeness, idempotence, orthogonality) holds on the
zero-mean subspace; the DC bin is annihilated by a-hat and its inverse,
so constant offsets are outside the projectors' domain by construction.
"""

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError
from .spectral import Multiplier, Signal, TimeGrid, apply, make_multiplier

__all__ = ["FieldPair", "ProjectorPair", "build_projectors", "apply_projector",
           "l_operator", "commutation_check"]


@dataclass
class FieldPair:
    """Physical field column (B, E) at one x-station."""

    b: Signal
    e: Signal

    def __post_init__(self):
        if self.b.grid != self.e.grid:
            raise GridMismatchError("B and E must share a grid")

    @property
    def grid(self):
        return self.b.grid

    @property
    def peak(self):
        return max(self.b.peak, self.e.peak)

    def __add__(self, other):
        return FieldPair(self.b + other.b, self.e + other.e)

    def __sub__(self, other):
        return FieldPair(self.b - other.b, self.e - other.e)

    def __mul__(self, scalar):
        return FieldPair(self.b * scalar, self.e * scalar)

    __rmul__ = __mul__


@dataclass
class ProjectorPair:
    """Directed-wave projectors sharing one a-hat realization."""

    grid: TimeGrid
    a: Multiplier
    a_inv: Multiplier


def build_projectors(params, grid):
    """Construct the projector pair on an admissible grid.

    The grid must have no bins in the evanescent band and must keep
    |a(w)|*c above ``spectral.TOL_A`` so that a-hat^{-1} stays bounded.
    """
    return ProjectorPair(
        grid=grid,
        a=make_multiplier("a", params, grid),
        a_inv=make_multiplier("a_inv", params, grid),
    )


def apply_projector(pair, which, psi):
    """Apply projector 1 or 2 to a field pair.

    Returns (B/2 -+ a-hat E /2, -+ a-hat^{-1} B /2 + E/2); the upper sign
    is projector 1 (the Lambda combination), the lower projector 2 (the
    Pi combination).
    """
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    if psi.grid != pair.grid:
        raise GridMismatchError("field pair grid differs from projector grid")
    s = -1.0 if which == 1 else 1.0
    b_out = 0.5 * psi.b + (0.5 * s) * apply(pair.a, psi.e)
    e_out = (0.5 * s) * apply(pair.a_inv, psi.b) + 0.5 * psi.e
    return FieldPair(b_out, e_out)


def l_operator(params, grid, psi):
    """Apply the x-evolution generator L = [[0, -dt a^2], [-dt, 0]]."""
    d_dt = make_multiplier("d_dt", params, grid)
    a_sq = make_multiplier("a_sq", params, grid)
    b_out = -1.0 * apply(d_dt, apply(a_sq, psi.e))
    e_out = -1.0 * apply(d_dt, psi.b)
    return FieldPair(b_out, e_out)


def commutation_check(pair, params, grid, n_trials=50, seed=0):
    """Max residual of (P1 L - L P1) psi over random zero-mean fields.

    Residuals are normalized by the peak of L psi (the operator gain grows
    like w^3, so the input peak alone would overstate the error). Diagonal
    frequency multipliers commute bin-wise, so this measures only
    transform round-off.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_trials):
        psi = _random_zero_mean_pair(grid, rng)
        l_psi = l_operator(params, grid, psi)
        lhs = l_operator(params, grid, apply_projector(pair, 1, psi))
        rhs = apply_projector(pair, 1, l_psi)
        diff = lhs - rhs
        worst = max(worst, diff.peak / max(psi.peak, l_psi.peak))
    return worst


def _random_zero_mean_pair(grid, rng):
    """Smooth random zero-mean field pair for property checks."""

    def one():
        spec = np.zeros(grid.n // 2 + 1, dtype=complex)
        # populate a mid-band of half-spectrum bins, no DC/Nyquist
        k = np.arange(1, grid.n // 4)
        spec[k] = rng.standard_normal(k.size) + 1j * rng.standard_normal(k.size)
        return Signal(grid, np.fft.irfft(spec, grid.n))

    return FieldPair(one(), one())
