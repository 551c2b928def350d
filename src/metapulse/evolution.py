"""Propagation of directed waves along x.

Three propagation models, from exact to reduced:

* exact linear: per-bin phases exp(-/+ i w a(w) x), the closed solution of
  dPi/dx = -a-hat dt Pi, dLambda/dx = +a-hat dt Lambda;
* Klein-Gordon-Fock reduction: only the leading dispersion term is kept,
  dPi/dx = -(pq/c) dt^{-1} Pi (and the opposite sign for Lambda);
* Kerr-coupled nonlinear system,

      c Pi_xt     + pq Pi     = -K [(Pi - Lambda)_tt]^3,
      c Lambda_xt - pq Lambda = +K [(Pi - Lambda)_tt]^3,

  with K = mu0 chi3 c^3 / (2 p^3 q), marched as a first-order-in-x system
  after applying dt^{-1} (classical RK4, cubic term evaluated pointwise in
  time with optional 2/3-rule dealiasing). The march state is one stacked
  complex array of real half-spectra (rfft bins 0..n/2), one row per
  field: two rows for (Pi, Lambda), one row for the unidirectional model,
  which is the same right-hand side with Lambda frozen at zero. Both Kerr
  marchers keep only ``n_stations`` evenly spread steps (default 2: entry
  and exit), so memory grows with the stations kept, not with ``n_steps``.

The dimensionless form pi = Pi_tt/alpha, lam = Lambda_tt/alpha, zeta = x/beta
with alpha = sqrt(2 p^4 q^2 / (mu0 chi3 c^3)), beta = c/(pq) has unit
coefficients. Its solver keeps its own right-hand side on purpose: it is the
independent reference that the physical path is checked against, and it
records only entry and exit.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import BlowUpError, InadmissibleGridError
from .spectral import Signal, apply, make_multiplier
from .waves import DirectedPair

__all__ = [
    "PropagationRecord",
    "KerrCoupling",
    "kerr_coupling",
    "propagate_linear_exact",
    "propagate_kg",
    "propagate_nonlinear",
    "propagate_unidirectional",
    "propagate_dimensionless",
    "to_dimensionless",
    "from_dimensionless",
    "build_nonlinearity",
]


@dataclass
class PropagationRecord:
    """Sequence of directed-pair snapshots along x plus run metadata."""

    stations: np.ndarray
    states: list
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.stations = np.asarray(self.stations, dtype=float)
        if self.stations.size != len(self.states):
            raise ValueError("one state per station required")
        if self.stations.size and (
            self.stations[0] != 0.0 or np.any(np.diff(self.stations) <= 0)
        ):
            raise ValueError("stations must increase strictly from 0")
        grids = {s.grid for s in self.states}
        if len(grids) > 1:
            raise ValueError("all states must share one grid")

    @property
    def final(self):
        return self.states[-1]


@dataclass(frozen=True)
class KerrCoupling:
    """Kerr coefficient and the natural amplitude/length scales."""

    big_k: float
    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha > 0 and self.beta > 0):
            raise ValueError("scales must be positive")


def kerr_coupling(params):
    """Derive (K, alpha, beta) from medium parameters; needs chi3 > 0."""
    if not params.chi3 > 0:
        raise ValueError("Kerr scales are undefined for chi3 = 0")
    p, q, c, mu0 = params.omega_pe, params.omega_pm, params.c, params.mu0
    big_k = mu0 * params.chi3 * c**3 / (2.0 * p**3 * q)
    alpha = np.sqrt(2.0 * p**4 * q**2 / (mu0 * params.chi3 * c**3))
    beta = c / (p * q)
    return KerrCoupling(big_k=big_k, alpha=alpha, beta=beta)


def _unimodular(grid, phase_exponent):
    """Phase factors from exponent array; DC and Nyquist forced to 1."""
    factors = np.exp(1j * phase_exponent)
    factors[0] = 1.0
    factors[grid.n // 2] = 1.0
    return factors


def _apply_phases(grid, dp, f_pi, f_lam):
    pi = np.fft.ifft(f_pi * np.fft.fft(dp.pi.samples)).real
    lam = np.fft.ifft(f_lam * np.fft.fft(dp.lam.samples)).real
    return DirectedPair(Signal(grid, pi), Signal(grid, lam))


def propagate_linear_exact(dp0, x, params, grid):
    """Exact linear propagation by x >= 0: per-bin phase -/+ w a(w) x."""
    if x < 0:
        raise ValueError("x must be nonnegative")
    a_vals = make_multiplier("a", params, grid).values.real
    w = grid.omegas
    f_pi = _unimodular(grid, -w * a_vals * x)
    f_lam = _unimodular(grid, +w * a_vals * x)
    return _apply_phases(grid, dp0, f_pi, f_lam)


def propagate_kg(dp0, x, params, grid):
    """Klein-Gordon-Fock propagation by x: per-bin phase +/- pq x/(c w).

    Valid for spectra concentrated well below the plasma frequencies;
    warns when significant energy sits above min(p, q) / 2.
    """
    if x < 0:
        raise ValueError("x must be nonnegative")
    w = grid.omegas
    _warn_band(dp0, grid, 0.5 * params.band_low)
    pq_c = params.omega_pe * params.omega_pm / params.c
    expo = np.zeros(grid.n)
    nz = w != 0.0
    expo[nz] = pq_c * x / w[nz]
    f_pi = _unimodular(grid, expo)
    f_lam = _unimodular(grid, -expo)
    return _apply_phases(grid, dp0, f_pi, f_lam)


def _warn_band(dp, grid, w_max):
    spec = np.abs(np.fft.fft(dp.pi.samples)) + np.abs(np.fft.fft(dp.lam.samples))
    peak = np.max(spec)
    if peak == 0.0:
        return
    outside = np.abs(grid.omegas) > w_max
    if np.max(spec[outside], initial=0.0) > 1e-6 * peak:
        warnings.warn(
            f"spectral content above {w_max:g} rad/s; the long-wave "
            "reduction may be inaccurate", stacklevel=3,
        )


def _half_spectrum(grid, dealias):
    """dt^{-1}, w^2 and the 2/3-rule mask on the rfft bins 0..n/2.

    dt^{-1} annihilates DC and the unpaired Nyquist bin; without
    ``dealias`` the mask keeps every bin.
    """
    n = grid.n
    w = 2.0 * np.pi * np.fft.rfftfreq(n, grid.dt)
    inv_iw = np.zeros(n // 2 + 1, dtype=complex)
    inv_iw[1:-1] = 1.0 / (1j * w[1:-1])
    k = np.arange(n // 2 + 1)
    mask = (k <= n // 3).astype(float) if dealias else np.ones(n // 2 + 1)
    return inv_iw, w * w, mask


def _cube(grid, u_hat):
    """Half-spectrum of the pointwise cube of u_hat's time-domain image."""
    u = np.fft.irfft(u_hat, grid.n)
    return np.fft.rfft(u * u * u)


def _kerr_rhs(params, grid, dealias, linear_sign):
    """Right-hand side of the physical Kerr system on stacked half-spectra.

    A state of two rows (Pi-hat, Lambda-hat) follows the coupled system of
    :func:`propagate_nonlinear`; a state of one row follows its first row
    with Lambda frozen at zero, the unidirectional equation. Each row is
    ``lin * row + nl * cube(-w^2 mask u)`` with u = Pi - Lambda, where
    ``lin = -+(pq/c) dt^{-1}`` and ``nl = -+(K/c) dt^{-1} mask``;
    ``linear_sign`` multiplies the +-(pq/c) pair.
    """
    if params.chi3 < 0:
        raise ValueError("chi3 must be nonnegative")
    inv_iw, w2, mask = _half_spectrum(grid, dealias)
    pq_c = linear_sign * params.omega_pe * params.omega_pm / params.c
    k_c = (
        params.mu0 * params.chi3 * params.c**2
        / (2.0 * params.omega_pe**3 * params.omega_pm)
    )
    row_sign = np.array([[-1.0], [1.0]])
    lin = row_sign * (pq_c * inv_iw)
    nl = row_sign * (k_c * (inv_iw * mask))
    to_cube = -w2 * mask

    def rhs(state, out):
        rows = len(state)
        u_hat = state[0] - state[1] if rows == 2 else state[0]
        np.multiply(lin[:rows], state, out=out)
        out += nl[:rows] * _cube(grid, to_cube * u_hat)
        return out

    return rhs


def _march_rk4(rhs, state, x_end, n_steps, n_stations, grid, meta):
    """Classical RK4 over [0, x_end], keeping only the requested stations.

    ``state`` is a stacked complex array of half-spectra, one row per field;
    ``rhs(state, out)`` writes the derivative into ``out`` and returns it, so
    the four stages reuse three buffers. The kept steps are
    ``linspace(0, n_steps, n_stations)`` truncated to integers, duplicates
    dropped, so entry and exit are always kept. Aborts via BlowUpError when
    the state turns non-finite; its record holds the stations kept so far
    plus the last finite state.
    """
    if not x_end > 0:
        raise ValueError(f"x_end (zeta_end) must be positive, got {x_end!r}")
    if n_steps < 4:
        raise ValueError(f"n_steps must be at least 4, got {n_steps!r}")
    if n_stations < 2:
        raise ValueError(f"n_stations must be at least 2, got {n_stations!r}")
    h = x_end / n_steps
    keep = set(np.linspace(0, n_steps, n_stations).astype(int).tolist())
    steps = [0]
    states = [_to_pair(grid, state)]
    acc, k, arg = (np.empty_like(state) for _ in range(3))
    for step in range(1, n_steps + 1):
        rhs(state, acc)
        np.multiply(acc, 0.5 * h, out=arg)
        arg += state
        acc += 2.0 * rhs(arg, k)
        np.multiply(k, 0.5 * h, out=arg)
        arg += state
        acc += 2.0 * rhs(arg, k)
        np.multiply(k, h, out=arg)
        arg += state
        acc += rhs(arg, k)
        acc *= h / 6.0
        new = state + acc
        if not np.all(np.isfinite(new)):
            if steps[-1] != step - 1:
                steps.append(step - 1)
                states.append(_to_pair(grid, state))
            partial = PropagationRecord(
                np.array(steps) * h, states, {**meta, "aborted_at": step * h}
            )
            raise BlowUpError(
                f"non-finite state at step {step} (x = {step * h:g})",
                record=partial,
            )
        state = new
        if step in keep:
            steps.append(step)
            states.append(_to_pair(grid, state))
    return PropagationRecord(np.array(steps) * h, states, meta)


def _to_pair(grid, state):
    """Time-domain pair of a half-spectrum state; one row has Lambda = 0."""
    rows = np.fft.irfft(state, grid.n)
    lam = Signal(grid, rows[1]) if len(rows) == 2 else Signal.zeros(grid)
    return DirectedPair(Signal(grid, rows[0]), lam)


def propagate_nonlinear(dp0, x_end, n_steps, params, grid, dealias=True,
                        n_stations=2, _linear_sign=1.0):
    """March the coupled Kerr system from the entry plane to x_end.

    The second-order-in-(x,t) system is integrated in its dt^{-1}-applied
    first-order form

        dPi/dx     = dt^{-1} [ -(pq/c) Pi     - (K/c) ((Pi-Lambda)_tt)^3 ],
        dLambda/dx = dt^{-1} [ +(pq/c) Lambda + (K/c) ((Pi-Lambda)_tt)^3 ],

    which poses the boundary-regime data as an x-initial-value problem.
    The record keeps ``n_stations`` evenly spread steps, entry and exit
    included.

    ``_linear_sign`` flips the +-(pq/c) pair; the system maps onto itself
    under (Pi, Lambda) -> (-Lambda, -Pi) together with that flip, which the
    test suite uses as a solver diagnostic.
    """
    rhs = _kerr_rhs(params, grid, dealias, _linear_sign)
    state0 = np.fft.rfft(np.stack([dp0.pi.samples, dp0.lam.samples]))
    meta = _run_meta("nonlinear-coupled", params, grid, n_steps, dealias)
    return _march_rk4(rhs, state0, x_end, n_steps, n_stations, grid, meta)


def propagate_unidirectional(pi0, x_end, n_steps, params, grid, dealias=True,
                             n_stations=2):
    """Kerr marching with the left wave frozen at zero (and not marched)."""
    rhs = _kerr_rhs(params, grid, dealias, 1.0)
    meta = _run_meta("nonlinear-unidirectional", params, grid, n_steps, dealias)
    return _march_rk4(rhs, np.fft.rfft(pi0.samples[None]), x_end, n_steps,
                      n_stations, grid, meta)


def propagate_dimensionless(dp0, zeta_end, n_steps, grid, dealias=True):
    """March the unit-coefficient system in (pi, lam, zeta) variables:

        pi_zeta  = dt^{-1} [ -pi  - ((pi - lam)^3)_tt ],
        lam_zeta = dt^{-1} [ +lam + ((pi - lam)^3)_tt ].

    Kept apart from the physical right-hand side as an independent
    reference for it; records only entry and exit.
    """
    inv_iw, w2, mask = _half_spectrum(grid, dealias)

    def rhs(state, out):
        pi_hat, lam_hat = state
        w_hat = -w2 * mask * _cube(grid, mask * (pi_hat - lam_hat))
        np.multiply(inv_iw, -pi_hat - w_hat, out=out[0])
        np.multiply(inv_iw, lam_hat + w_hat, out=out[1])
        return out

    state0 = np.fft.rfft(np.stack([dp0.pi.samples, dp0.lam.samples]))
    meta = {"model": "nonlinear-dimensionless", "n_steps": n_steps,
            "dealias": dealias, "grid": {"n": grid.n, "dt": grid.dt}}
    return _march_rk4(rhs, state0, zeta_end, n_steps, 2, grid, meta)


def _run_meta(model, params, grid, n_steps, dealias):
    return {
        "model": model,
        "params": {
            "omega_pe": params.omega_pe,
            "omega_pm": params.omega_pm,
            "c": params.c,
            "chi3": params.chi3,
        },
        "grid": {"n": grid.n, "dt": grid.dt},
        "n_steps": n_steps,
        "dealias": dealias,
    }


def _second_t_derivative(grid, samples, scale):
    w2 = grid.omegas**2
    return np.fft.ifft(-w2 * np.fft.fft(samples)).real * scale


def _inverse_second_t_derivative(grid, samples, scale):
    w2 = grid.omegas**2
    inv = np.zeros(grid.n)
    nz = w2 != 0.0
    inv[nz] = -1.0 / w2[nz]
    return np.fft.ifft(inv * np.fft.fft(samples)).real * scale


def to_dimensionless(record, coupling):
    """Rescale a physical record to (pi, lam, zeta) variables."""
    grid = record.states[0].grid
    states = [
        DirectedPair(
            Signal(grid, _second_t_derivative(grid, s.pi.samples, 1.0 / coupling.alpha)),
            Signal(grid, _second_t_derivative(grid, s.lam.samples, 1.0 / coupling.alpha)),
        )
        for s in record.states
    ]
    meta = {**record.meta, "variables": "dimensionless"}
    return PropagationRecord(record.stations / coupling.beta, states, meta)


def from_dimensionless(record, coupling):
    """Invert :func:`to_dimensionless`; dt^{-2} annihilates the DC bin."""
    grid = record.states[0].grid
    states = [
        DirectedPair(
            Signal(grid, _inverse_second_t_derivative(grid, s.pi.samples, coupling.alpha)),
            Signal(grid, _inverse_second_t_derivative(grid, s.lam.samples, coupling.alpha)),
        )
        for s in record.states
    ]
    meta = {**record.meta, "variables": "physical"}
    return PropagationRecord(record.stations * coupling.beta, states, meta)


def build_nonlinearity(e, params, grid, dominant_only=True):
    """Kerr source driven by the electric field.

    Dominant form (chi3/2) * mu0 * q^2 * dt^{-1}(e^3), keeping only the
    q^2 dt^{-2} part of mu-hat. With ``dominant_only=False`` the identity
    part of mu-hat is retained for sensitivity studies:
    (chi3/2) * mu0 * (q^2 dt^{-1} e^3 - dt e^3).
    """
    cube = Signal(grid, e.samples * e.samples * e.samples)
    d_dt_inv = make_multiplier("d_dt_inv", params, grid)
    q2 = params.omega_pm**2
    lead = (0.5 * params.chi3 * params.mu0 * q2) * apply(d_dt_inv, cube)
    if dominant_only:
        return lead
    d_dt = make_multiplier("d_dt", params, grid)
    return lead - (0.5 * params.chi3 * params.mu0) * apply(d_dt, cube)
