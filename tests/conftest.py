"""Shared fixtures: natural-unit media, band-limited random pulses, the
projector pair on field columns and the Drude multipliers no run applies."""

import numpy as np
import pytest

from metapulse import (
    DirectedPair,
    DrudeParams,
    FieldPair,
    Multiplier,
    Signal,
    TimeGrid,
    a_squared,
    drude_response,
    reconstruct,
    split,
)

#: the multipliers of the model that no run applies; ``drude_multiplier``
#: builds them beside the production kinds of ``make_multiplier``
DRUDE_KINDS = ("eps", "mu", "mu_inv", "a_sq")


@pytest.fixture
def unit_params():
    # p = q = c = 1 keeps the evanescent band empty (a single point)
    return DrudeParams(1.0, 1.0, c=1.0, eps0=1.0, mu0=1.0)


@pytest.fixture
def kerr_params():
    return DrudeParams(1.0, 1.0, c=1.0, eps0=1.0, mu0=1.0, chi3=1.0)


@pytest.fixture
def grid():
    return TimeGrid(4096, 0.05)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def fft_omegas(grid):
    """Signed angular frequencies 2 pi k / T of ``grid`` in full fft bin
    order: 0..n/2-1, then -n/2..-1."""
    return 2.0 * np.pi * np.fft.fftfreq(grid.n, grid.dt)


def drude_multiplier(kind, params, grid):
    """eps-hat, mu-hat, mu-hat^{-1} or a-hat^2 = eps mu/(eps0 mu0 c^2) on
    ``grid.half_omegas``, from :func:`drude_response` and :func:`a_squared`,
    with the zero-frequency bin annihilated."""
    w = grid.half_omegas
    nz = w != 0.0
    eps = params.eps0 * drude_response("electric", params, w[nz])
    mu = params.mu0 * drude_response("magnetic", params, w[nz])
    values = np.zeros(w.size, dtype=complex)
    values[nz] = {"eps": eps, "mu": mu, "mu_inv": 1.0 / mu,
                  "a_sq": a_squared(params, w[nz])}[kind]
    return Multiplier(grid, values, kind=kind)


def random_zero_mean(grid, rng, k_max=None, scale=1.0):
    """Real random signal supported on bins 1..k_max (zero DC, no Nyquist)."""
    n = grid.n
    k_max = n // 4 if k_max is None else k_max
    spec = np.zeros(n, dtype=complex)
    amps = rng.standard_normal(k_max) + 1j * rng.standard_normal(k_max)
    spec[1 : k_max + 1] = amps
    spec[-k_max:] = np.conj(amps[::-1])
    samples = np.fft.ifft(spec).real
    samples *= scale / np.max(np.abs(samples))
    return Signal(grid, samples)


def gaussian_pulse(grid, carrier, width, amplitude=1.0):
    """Zero-mean Gaussian-modulated sine centered in the window."""
    t = grid.times
    t0 = 0.5 * grid.window
    env = np.exp(-((t - t0) ** 2) / (2.0 * width**2))
    samples = amplitude * env * np.sin(carrier * (t - t0))
    samples = samples - np.mean(samples)
    return Signal(grid, samples)


def projections(psi, params, grid):
    """(P1 psi, P2 psi) of the field pair psi through the production
    split: P1 psi = reconstruct(0, Lambda), P2 psi = reconstruct(Pi, 0)."""
    dp = split(psi, params)
    zero = Signal.zeros(grid)
    return (reconstruct(DirectedPair(zero, dp.lam), params),
            reconstruct(DirectedPair(dp.pi, zero), params))


def field_peak(f, g=None):
    """Largest |sample| of the field pair f, or of f - g."""
    if g is not None:
        f = FieldPair(f.b - g.b, f.e - g.e)
    return max(f.b.peak, f.e.peak)
