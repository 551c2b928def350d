"""Shared fixtures: natural-unit media, band-limited random pulses, the
projector pair on field columns, the Drude multipliers no run applies and
the paper's convolution kernels in the time domain."""

import functools

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


def bessel_j1(z):
    """J1 at the 1-D points ``z`` from numpy alone: (1/pi) int_0^pi
    cos(tau - z sin tau) dtau on 512 midpoints. The integrand is even and
    2 pi-periodic, so this is the midpoint rule on a whole period, exact to
    rounding while |z| stays well below 1024."""
    tau = (np.arange(512) + 0.5) * (np.pi / 512)
    sin = np.sin(tau)
    out = np.empty(z.size)
    for s in range(0, z.size, 2048):  # 8 MiB of integrand at a time
        out[s:s + 2048] = np.cos(tau - z[s:s + 2048, None] * sin).mean(axis=1)
    return out


@functools.cache
def _bessel_term(beta, dtau, count):
    """sqrt(beta/tau) J1(2 sqrt(beta tau)) at tau = k dtau, k < count; its
    limit beta at tau = 0."""
    tau = np.arange(1, count) * dtau
    return np.concatenate([[beta], np.sqrt(beta / tau)
                           * bessel_j1(2.0 * np.sqrt(beta * tau))])


def kernel_response(f, grid, beta, delay=0.0, reflect=False):
    """The paper's convolution kernel delta(t) - sqrt(beta/t) J1(2
    sqrt(beta t)), t > 0, applied after a ``delay`` to the callable pulse
    ``f``, at ``grid.times``, in the time domain and so free of the
    window's wrap. It is the causal inverse of exp(+i beta/w) in numpy's
    exp(+i w t) synthesis: Pi's long-wave factor, beta = pq x/c, and on
    p = q the exact factor once a delay x/c is taken out, beta = p^2 x/c.
    ``reflect`` reflects the kernel and the delay in time, as Lambda's.

    The integral runs over tau in [0, window] by the trapezoid rule at
    tau steps dt and dt/2, with one Richardson step, each step's sum one
    zero-padded (so linear) FFT convolution. ``f`` must be negligible
    outside [0, window).
    """
    n, dt = grid.n, grid.dt
    if reflect:  # the causal response of f(window - v), read at v = window - t
        window = n * dt
        return kernel_response(lambda v: f(window - v), grid, beta,
                               delay)[-np.arange(n)]
    term = _bessel_term(beta, dt / 2, 2 * n + 1)
    sums = []
    for k in (1, 2):  # tau steps of dt / k
        weights = term[::2 // k] * (dt / k)
        weights[[0, -1]] *= 0.5
        g = f(np.arange(-k * n, k * n) * (dt / k) - delay)
        size = 1 << (weights.size + g.size - 2).bit_length()
        conv = np.fft.irfft(np.fft.rfft(weights, size) * np.fft.rfft(g, size),
                            size)
        at = k * n + k * np.arange(n)  # g's index of t_i - delay
        sums.append(g[at] - conv[at])
    return (4.0 * sums[1] - sums[0]) / 3.0
