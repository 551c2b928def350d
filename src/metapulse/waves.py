"""The projector pair: field columns and directed-wave amplitudes.

The entry plane holds the field column psi = (B, E), B(0,t) = k(t) and
E(0,t) = j(t). The paper's projecting operators act on it as

    P1 = 1/2 [[1, -a-hat], [-a-hat^{-1}, 1]],
    P2 = 1/2 [[1, +a-hat], [+a-hat^{-1}, 1]],

each off-diagonal entry a convolution operator realized spectrally. Their
B rows are the directed-wave amplitudes that ``split`` returns,

    Pi     = (k + a-hat j) / 2,
    Lambda = (k - a-hat j) / 2,

both carrying the units of B, and ``reconstruct`` inverts the map,
B = Pi + Lambda, E = a-hat^{-1} (Pi - Lambda). So the projectors are

    P2 psi = reconstruct(split(psi).pi, 0),
    P1 psi = reconstruct(0, split(psi).lam).

Completeness, idempotence and orthogonality hold on the zero-mean
subspace: a-hat and its inverse annihilate the DC bin.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError
from .spectral import Signal, apply, make_multiplier

__all__ = ["FieldPair", "DirectedPair", "split", "reconstruct"]

#: clean pulse data: mean and window-edge samples at most this fraction
#: of the peak
CLEAN_TOL = 1e-8


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


def split(fields, params, grid):
    """Split the entry-plane fields (B, E) into directed-wave amplitudes.

    Pulses should be zero-mean and decayed at the window edges; split
    treats the record as periodic and silently wraps anything else around,
    so violations in j = E or k = B are reported as warnings.
    """
    if fields.grid != grid:
        raise GridMismatchError("field pair grid differs from requested grid")
    for name, s in (("j", fields.e), ("k", fields.b)):
        peak = s.peak
        if peak == 0.0:
            continue
        if abs(np.mean(s.samples)) > CLEAN_TOL * peak:
            warnings.warn(f"boundary signal {name} has DC content above "
                          f"{CLEAN_TOL:g} of peak", stacklevel=2)
        if max(abs(s.samples[0]), abs(s.samples[-1])) > CLEAN_TOL * peak:
            warnings.warn(f"boundary signal {name} does not decay at window "
                          "edges", stacklevel=2)
    a = make_multiplier("a", params, grid)
    aj = apply(a, fields.e)
    lam = 0.5 * (fields.b - aj)
    pi = 0.5 * (fields.b + aj)
    return DirectedPair(pi=pi, lam=lam)


def reconstruct(dp, params, grid):
    """Recover the physical (B, E) pair from directed amplitudes.

    Requires a-hat^{-1} on the grid, which is a stricter admissibility
    condition than split needs.
    """
    if dp.grid != grid:
        raise GridMismatchError("directed pair grid differs from requested grid")
    a_inv = make_multiplier("a_inv", params, grid)
    b = dp.pi + dp.lam
    e = apply(a_inv, dp.pi - dp.lam)
    return FieldPair(b=b, e=e)
