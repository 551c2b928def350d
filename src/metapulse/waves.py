"""Boundary regimes and directed-wave amplitudes.

The boundary regime fixes E(0,t) = j(t) and B(0,t) = k(t) at the entry
plane; splitting turns it into right/left wave amplitudes

    Pi     = (k + a-hat j) / 2,
    Lambda = (k - a-hat j) / 2,

both carrying the units of B. Reconstruction inverts the map:
B = Pi + Lambda, E = a-hat^{-1} (Pi - Lambda).
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError
from .spectral import Signal, apply, make_multiplier

__all__ = ["DirectedPair", "BoundaryRegime", "split", "reconstruct"]

#: relative thresholds for clean pulse data
DC_TOL = 1e-8
EDGE_TOL = 1e-8


@dataclass
class DirectedPair:
    """Right (pi) and left (lam) wave amplitudes at one x-station."""

    pi: Signal
    lam: Signal

    def __post_init__(self):
        if self.pi.grid != self.lam.grid:
            raise GridMismatchError("pi and lambda must share a grid")

    @property
    def grid(self):
        return self.pi.grid

    @property
    def peak(self):
        return max(self.pi.peak, self.lam.peak)


@dataclass
class BoundaryRegime:
    """Entry-plane time series j = E(0,t), k = B(0,t).

    Pulses should be zero-mean and decayed at the window edges; violations
    are reported as warnings (the periodic spectral machinery silently
    wraps anything else around).
    """

    j: Signal
    k: Signal

    def __post_init__(self):
        if self.j.grid != self.k.grid:
            raise GridMismatchError("j and k must share a grid")
        for name, s in (("j", self.j), ("k", self.k)):
            peak = s.peak
            if peak == 0.0:
                continue
            if abs(np.mean(s.samples)) > DC_TOL * peak:
                warnings.warn(
                    f"boundary signal {name} has DC content above "
                    f"{DC_TOL:g} of peak", stacklevel=2,
                )
            edge = max(abs(s.samples[0]), abs(s.samples[-1]))
            if edge > EDGE_TOL * peak:
                warnings.warn(
                    f"boundary signal {name} does not decay at window edges",
                    stacklevel=2,
                )

    @property
    def grid(self):
        return self.j.grid


def split(regime, params, grid):
    """Split a boundary regime into directed-wave amplitudes."""
    if regime.grid != grid:
        raise GridMismatchError("regime grid differs from requested grid")
    a = make_multiplier("a", params, grid)
    aj = apply(a, regime.j)
    lam = 0.5 * (regime.k - aj)
    pi = 0.5 * (regime.k + aj)
    return DirectedPair(pi=pi, lam=lam)


def reconstruct(dp, params, grid):
    """Recover the physical (B, E) pair from directed amplitudes.

    Requires a-hat^{-1} on the grid, which is a stricter admissibility
    condition than split needs.
    """
    from .projectors import FieldPair

    if dp.grid != grid:
        raise GridMismatchError("directed pair grid differs from requested grid")
    a_inv = make_multiplier("a_inv", params, grid)
    b = dp.pi + dp.lam
    e = apply(a_inv, dp.pi - dp.lam)
    return FieldPair(b=b, e=e)
