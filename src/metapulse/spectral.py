"""Periodic time grid and diagonal-in-frequency convolution operators.

All material operators of the model and the time derivatives are
convolution operators, so on a uniform periodic grid they act as diagonal
multipliers in the discrete Fourier domain; :func:`make_multiplier` builds
a-hat, its inverse and the time derivatives. Every signal is real and every
symbol is Hermitian, m(-w) = conj(m(w)), so the real half-spectrum (rfft
bins 0..n/2, at frequencies ``TimeGrid.half_omegas``) carries all of it:
an operator is ``irfft(values * rfft(s), n)``, real by construction. The
transform pair uses the exp(+i w t) synthesis convention that irfft
realizes; hence d/dt maps to multiplication by i*w. irfft reads only the
real part of the DC and Nyquist bins.

Every multiplier annihilates the zero-frequency bin: the underlying symbols
are singular at w = 0 and all admissible physical signals are zero-mean
pulses.
"""

from dataclasses import dataclass, field

import numpy as np

from . import medium
from .errors import GridMismatchError, InadmissibleGridError

__all__ = [
    "TimeGrid",
    "Signal",
    "Multiplier",
    "make_multiplier",
    "apply",
    "MULTIPLIER_KINDS",
]

MULTIPLIER_KINDS = ("a", "a_inv", "d_dt", "d_dt_inv")

#: lower bound on |a(w)|*c below which a_inv is considered unbounded
TOL_A = 1e-6


@dataclass(frozen=True)
class TimeGrid:
    """Uniform periodic time sampling: n power-of-two samples, spacing dt.
    Equality, hash and repr read (n, dt) alone.

    Attributes
    ----------
    times : ndarray
        Sample instants 0, dt, ..., (n-1)*dt.
    half_omegas : ndarray
        Angular frequencies 2*pi*k/T of the rfft bins k = 0..n/2, on which
        every multiplier is built.
    window : float
        Period T = n*dt.
    """

    n: int
    dt: float
    window: float = field(init=False, repr=False, compare=False)
    times: np.ndarray = field(init=False, repr=False, compare=False)
    half_omegas: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = int(self.n)
        if n < 8 or n & (n - 1) != 0:
            raise ValueError("n must be a power of two >= 8")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        dt = float(self.dt)
        for name, value in (("n", n), ("dt", dt), ("window", n * dt),
                            ("times", np.arange(n) * dt),
                            ("half_omegas",
                             2.0 * np.pi * np.fft.rfftfreq(n, dt))):
            object.__setattr__(self, name, value)


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
class Multiplier:
    """Diagonal frequency-domain operator on real signals.

    ``values[k]`` multiplies rfft bin k = 0..n/2; the negative frequencies
    follow by conjugate symmetry, so the operator maps real signals to real
    signals.
    """

    grid: TimeGrid
    values: np.ndarray
    kind: str = "custom"

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.grid.n // 2 + 1,):
            raise ValueError("a multiplier holds the n//2+1 rfft bins only")


def apply(m, s):
    """Apply a diagonal multiplier to a signal: irfft(values * rfft(s))."""
    if m.grid != s.grid:
        raise GridMismatchError("multiplier and signal grids differ")
    out = np.fft.irfft(m.values * np.fft.rfft(s.samples), s.grid.n)
    if not np.all(np.isfinite(out)):
        raise FloatingPointError(f"non-finite output from multiplier {m.kind!r}")
    return Signal(s.grid, out)


def make_multiplier(kind, params, grid):
    """Build the discrete realization of one of the model's operators.

    kind: one of ``a, a_inv, d_dt, d_dt_inv``. Runs apply a-hat, its
    inverse and the inverse time derivative; ``d_dt`` reaches no run, and
    is kept for the benchmark's tracer self-test. The symbols are evaluated
    on ``grid.half_omegas``. The zero-frequency bin is annihilated for every
    kind. The Nyquist bin of odd-symbol operators (d_dt, d_dt_inv) is zeroed
    as well: it is unpaired, and irfft would drop its imaginary product
    anyway. ``params`` is unused by the time derivatives and may be None for
    them. ``a`` and ``a_inv`` raise :func:`medium.a_symbol`'s
    EvanescentBandError on a grid with bins in the evanescent band, and
    ``a_inv`` raises InadmissibleGridError where |a(w)|*c < TOL_A.
    """
    if kind not in MULTIPLIER_KINDS:
        raise ValueError(f"unknown multiplier kind {kind!r}")
    w = grid.half_omegas
    nz = w != 0.0
    wn = w[nz]
    vals = np.zeros(w.size, dtype=complex)

    if kind in ("a", "a_inv"):
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
    elif kind == "d_dt":
        vals = 1j * w.astype(complex)
        vals[-1] = 0.0
    elif kind == "d_dt_inv":
        vals[nz] = 1.0 / (1j * wn)
        vals[-1] = 0.0

    return Multiplier(grid, vals, kind=kind)
