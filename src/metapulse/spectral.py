"""Periodic time grid and diagonal-in-frequency convolution operators.

All material operators of the model (eps-hat, mu-hat, a-hat, their inverses
and powers, and time derivatives) are convolution operators, so on a uniform
periodic grid they act as diagonal multipliers in the discrete Fourier
domain. The transform pair uses the exp(+i w t) synthesis convention, which
numpy's ifft realizes directly; hence d/dt maps to multiplication by i*w.

Every Drude-derived multiplier and the inverse time derivative annihilate
the zero-frequency bin: the underlying symbols are singular at w = 0 and all
admissible physical signals are zero-mean pulses.
"""

from dataclasses import dataclass, field

import numpy as np

from . import medium
from .errors import GridMismatchError, InadmissibleGridError

__all__ = [
    "TimeGrid",
    "Signal",
    "Spectrum",
    "Multiplier",
    "to_spectrum",
    "from_spectrum",
    "make_multiplier",
    "apply",
    "MULTIPLIER_KINDS",
]

MULTIPLIER_KINDS = ("eps", "mu", "mu_inv", "a", "a_inv", "a_sq", "d_dt", "d_dt_inv")

#: lower bound on |a(w)|*c below which a_inv is considered unbounded
TOL_A = 1e-6


class TimeGrid:
    """Uniform periodic time sampling: n power-of-two samples, spacing dt.

    Attributes
    ----------
    times : ndarray
        Sample instants 0, dt, ..., (n-1)*dt.
    omegas : ndarray
        Signed angular frequencies 2*pi*k/T in fft bin order.
    window : float
        Period T = n*dt.
    """

    def __init__(self, n, dt):
        n = int(n)
        if n < 8 or n & (n - 1) != 0:
            raise ValueError("n must be a power of two >= 8")
        if not dt > 0:
            raise ValueError("dt must be positive")
        self.n = n
        self.dt = float(dt)
        self.window = n * self.dt
        self.times = np.arange(n) * self.dt
        self.omegas = 2.0 * np.pi * np.fft.fftfreq(n, self.dt)

    def __eq__(self, other):
        return (
            isinstance(other, TimeGrid)
            and self.n == other.n
            and self.dt == other.dt
        )

    def __hash__(self):
        return hash((self.n, self.dt))

    def __repr__(self):
        return f"TimeGrid(n={self.n}, dt={self.dt!r})"


def _require_same_grid(a, b):
    if a.grid != b.grid:
        raise GridMismatchError(f"grids differ: {a.grid} vs {b.grid}")


@dataclass
class Signal:
    """Real samples on a time grid."""

    grid: TimeGrid
    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.shape != (self.grid.n,):
            raise ValueError(
                f"expected {self.grid.n} samples, got shape {self.samples.shape}"
            )
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("signal contains non-finite samples")

    @property
    def peak(self):
        return float(np.max(np.abs(self.samples)))

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros(grid.n))

    def __add__(self, other):
        _require_same_grid(self, other)
        return Signal(self.grid, self.samples + other.samples)

    def __sub__(self, other):
        _require_same_grid(self, other)
        return Signal(self.grid, self.samples - other.samples)

    def __mul__(self, scalar):
        return Signal(self.grid, self.samples * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return Signal(self.grid, -self.samples)


@dataclass
class Spectrum:
    """Complex Fourier coefficients on a grid, unitary normalization."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.grid.n,):
            raise ValueError("spectrum length must match grid")


def to_spectrum(signal):
    """Forward transform (unitary). Inverse of :func:`from_spectrum`."""
    return Spectrum(signal.grid, np.fft.fft(signal.samples, norm="ortho"))


def from_spectrum(spectrum):
    """Inverse transform; the imaginary residue is discarded."""
    return Signal(spectrum.grid, np.fft.ifft(spectrum.values, norm="ortho").real)


@dataclass
class Multiplier:
    """Diagonal frequency-domain operator.

    ``values[k]`` multiplies Fourier bin k. ``hermitian`` records whether
    values(-w) = conj(values(w)), i.e. whether the operator maps real
    signals to real signals; it is derived from the values at construction.
    """

    grid: TimeGrid
    values: np.ndarray
    kind: str = "custom"
    hermitian: bool = field(init=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.grid.n,):
            raise ValueError("multiplier length must match grid")
        neg = np.concatenate(([self.values[0]], self.values[:0:-1]))
        self.hermitian = bool(np.allclose(neg, np.conj(self.values), atol=1e-14))

    def __call__(self, signal):
        return apply(self, signal)


def apply(m, s):
    """Apply a diagonal multiplier to a signal.

    For Hermitian-symmetric multipliers the output must be real up to
    1e-10 of the larger of input/output peaks; the residue is truncated
    after the check.
    """
    if m.grid != s.grid:
        raise GridMismatchError("multiplier and signal grids differ")
    out = np.fft.ifft(m.values * np.fft.fft(s.samples))
    if not np.all(np.isfinite(out)):
        raise FloatingPointError(f"non-finite output from multiplier {m.kind!r}")
    if m.hermitian:
        scale = max(s.peak, float(np.max(np.abs(out.real))), 1e-300)
        residue = float(np.max(np.abs(out.imag)))
        if residue > 1e-10 * scale:
            raise FloatingPointError(
                f"imaginary residue {residue:.3e} exceeds 1e-10 of peak {scale:.3e}"
            )
    return Signal(s.grid, out.real)


def _check_band_free(params, grid, kind):
    aw = np.abs(grid.omegas)
    lo, hi = params.band_low, params.band_high
    bad = (aw > lo) & (aw < hi)
    if np.any(bad):
        raise InadmissibleGridError(
            f"{int(np.sum(bad))} grid bins lie in the evanescent band "
            f"({lo:g}, {hi:g}) rad/s; cannot build {kind!r}"
        )


def make_multiplier(kind, params, grid):
    """Build the discrete realization of one of the model's operators.

    kind: one of ``eps, mu, mu_inv, a, a_inv, a_sq, d_dt, d_dt_inv``.
    The zero-frequency bin is annihilated for every kind. The Nyquist bin
    of odd-symbol operators (d_dt, d_dt_inv) is zeroed as well, since it is
    unpaired and would break real-to-real closure.
    """
    if kind not in MULTIPLIER_KINDS:
        raise ValueError(f"unknown multiplier kind {kind!r}")
    w = grid.omegas
    nz = w != 0.0
    wn = w[nz]
    vals = np.zeros(grid.n, dtype=complex)

    if kind == "eps":
        vals[nz] = params.eps0 * medium.drude_response("electric", params, wn)
    elif kind == "mu":
        vals[nz] = params.mu0 * medium.drude_response("magnetic", params, wn)
    elif kind == "mu_inv":
        mu = params.mu0 * medium.drude_response("magnetic", params, wn)
        if np.any(np.abs(mu) < 1e-300):
            raise InadmissibleGridError("mu(w) vanishes on a grid bin")
        vals[nz] = 1.0 / mu
    elif kind in ("a", "a_inv"):
        _check_band_free(params, grid, kind)
        a = medium.a_symbol(params, wn)
        if kind == "a":
            vals[nz] = a
        else:
            if np.any(np.abs(a) * params.c < TOL_A):
                raise InadmissibleGridError(
                    f"|a(w)|*c below {TOL_A:g} on a grid bin; "
                    "a_inv would be unbounded"
                )
            vals[nz] = 1.0 / a
    elif kind == "a_sq":
        vals[nz] = medium.a_squared(params, wn)
    elif kind == "d_dt":
        vals = 1j * w.astype(complex)
        vals[grid.n // 2] = 0.0
    elif kind == "d_dt_inv":
        vals[nz] = 1.0 / (1j * wn)
        vals[grid.n // 2] = 0.0

    return Multiplier(grid, vals, kind=kind)
