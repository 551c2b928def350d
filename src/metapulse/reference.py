"""Independent time-domain Maxwell oracle (1D Yee grid, Drude ADE).

The Drude responses eps = 1 - wpe^2/w^2, mu = 1 - wpm^2/w^2 correspond
exactly to first-order auxiliary current ODEs

    eps0 dE/dt = -dH/dx - j_e,     dj_e/dt = eps0 * wpe^2 * E,
    mu0  dH/dt = -dE/dx - j_m,     dj_m/dt = mu0  * wpm^2 * H,

leapfrogged on a staggered grid: E and j_e at integer nodes, H and j_m at
half nodes; j_e lives at half time steps, j_m at integer ones, keeping the
whole update second order. This solver shares nothing with the spectral
machinery it validates.

``params=None`` selects vacuum (both plasma frequencies zero), used by the
free-space sanity checks; DrudeParams itself requires positive plasma
frequencies.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import constants
from scipy.interpolate import CubicSpline

__all__ = ["YeeGrid1D", "MaxwellState", "step", "run_boundary_source"]


@dataclass(frozen=True)
class YeeGrid1D:
    """Staggered 1D grid: nx E-nodes, spacing dx, time step from courant."""

    nx: int
    dx: float
    courant: float = 0.5
    c: float = constants.c

    def __post_init__(self):
        if self.nx < 64:
            raise ValueError("nx must be at least 64")
        if not 0 < self.courant <= 0.99:
            raise ValueError("courant ratio must lie in (0, 0.99]")
        if not (self.dx > 0 and self.c > 0):
            raise ValueError("dx and c must be positive")

    @property
    def dt_fdtd(self):
        return self.courant * self.dx / self.c

    @property
    def x_nodes(self):
        return np.arange(self.nx) * self.dx


@dataclass
class MaxwellState:
    """Fields and auxiliary currents; h and j_m live on half nodes."""

    e: np.ndarray
    h: np.ndarray
    j_e: np.ndarray
    j_m: np.ndarray

    def __post_init__(self):
        self.e = np.asarray(self.e, dtype=float)
        self.h = np.asarray(self.h, dtype=float)
        self.j_e = np.asarray(self.j_e, dtype=float)
        self.j_m = np.asarray(self.j_m, dtype=float)
        if self.h.shape[0] != self.e.shape[0] - 1:
            raise ValueError("h must have one fewer node than e")
        if self.j_e.shape != self.e.shape or self.j_m.shape != self.h.shape:
            raise ValueError("current arrays must match their field arrays")
        for a in (self.e, self.h, self.j_e, self.j_m):
            if not np.all(np.isfinite(a)):
                raise ValueError("non-finite state")

    @classmethod
    def zeros(cls, grid1d):
        nx = grid1d.nx
        return cls(np.zeros(nx), np.zeros(nx - 1), np.zeros(nx), np.zeros(nx - 1))


def _material(params):
    if params is None:
        return 0.0, 0.0, constants.epsilon_0, constants.mu_0
    return params.omega_pe, params.omega_pm, params.eps0, params.mu0


def _warn_underresolved(wpe, wpm, dt):
    """Warn (at the driver's caller) when dt does not resolve the currents."""
    if max(wpe, wpm) * dt > 0.5:
        warnings.warn("plasma frequency underresolved: dt * wp > 0.5",
                      stacklevel=3)


def _advance(e, h, j_e, j_m, dt, dx, wpe, wpm, eps0, mu0):
    """One in-place leapfrog update; e endpoints stay fixed (PEC walls)."""
    j_m += dt * mu0 * wpm**2 * h
    h += (dt / mu0) * (-(e[1:] - e[:-1]) / dx - j_m)
    j_e += dt * eps0 * wpe**2 * e
    e[1:-1] += (dt / eps0) * (-(h[1:] - h[:-1]) / dx - j_e[1:-1])


def step(state, grid1d, params, source_peak=None):
    """Advance the state by one time step (pure: returns a new state).

    ``source_peak`` enables the blow-up guard: any field exceeding 1e6
    times the source peak aborts.
    """
    wpe, wpm, eps0, mu0 = _material(params)
    _warn_underresolved(wpe, wpm, grid1d.dt_fdtd)
    e = state.e.copy()
    h = state.h.copy()
    j_e = state.j_e.copy()
    j_m = state.j_m.copy()
    _advance(e, h, j_e, j_m, grid1d.dt_fdtd, grid1d.dx, wpe, wpm, eps0, mu0)
    if source_peak is not None and np.max(np.abs(e)) > 1e6 * source_peak:
        raise FloatingPointError("FDTD instability: field growth > 1e6x source")
    return MaxwellState(e, h, j_e, j_m)


def run_boundary_source(source, grid1d, params, duration, probes,
                        source_index=None):
    """Drive the grid with a soft E source and record probe time series.

    Parameters
    ----------
    source : Signal
        Boundary waveform j(t); resampled onto the FDTD clock by cubic
        spline (zero outside its window).
    probes : sequence of float
        Probe positions in meters, measured from the source plane.
    source_index : int, optional
        Grid node carrying the source. Defaults to nx//4 so that leftward
        radiation disappears into padding instead of reflecting off the
        wall back into the probes.

    Returns
    -------
    dict with keys ``t`` (ndarray), ``e`` and ``b`` (lists of ndarray, one
    per probe), ``x`` (probe positions) and ``contaminated`` (bool flag
    from the wall-activity heuristic).
    """
    wpe, wpm, eps0, mu0 = _material(params)
    dt, dx = grid1d.dt_fdtd, grid1d.dx
    n_steps = int(round(duration / dt))
    i_src = grid1d.nx // 4 if source_index is None else int(source_index)

    idx = []
    for xp in probes:
        i = i_src + int(round(xp / dx))
        if not 0 < i < grid1d.nx - 1:
            raise ValueError(f"probe at {xp:g} m falls outside the grid")
        if abs(i_src + xp / dx - i) > 1e-6:
            raise ValueError(f"probe at {xp:g} m is not on a grid node")
        idx.append(i)

    _warn_underresolved(wpe, wpm, dt)
    t = np.arange(n_steps + 1) * dt
    # soft current-sheet source: dE/dt term with 1/dx density so the
    # radiated amplitude is resolution-independent; zero outside its window
    kick = CubicSpline(source.grid.times, source.samples,
                       extrapolate=False)(t) * dt / dx
    kick[~np.isfinite(kick)] = 0.0
    src_peak = max(source.peak, 1e-300)

    e = np.zeros(grid1d.nx)
    h = np.zeros(grid1d.nx - 1)
    j_e = np.zeros(grid1d.nx)
    j_m = np.zeros(grid1d.nx - 1)
    # B from dB/dt = -dE/dx (exact Maxwell law) is needed only on the two
    # half nodes beside each probe, so it is integrated from e at the probe
    # and its two neighbours alone
    taps = np.add.outer(np.asarray(idx, dtype=int), [-1, 0, 1])
    b = np.zeros((len(idx), 2))

    rec_e = np.zeros((len(idx), n_steps + 1))
    rec_b = np.zeros((len(idx), n_steps + 1))
    wall_peak = 0.0

    for n in range(1, n_steps + 1):
        _advance(e, h, j_e, j_m, dt, dx, wpe, wpm, eps0, mu0)
        e[i_src] += kick[n]
        # b on half nodes, half times: stepping it here (with the final e
        # of this instant) keeps the probe average centered on t[n]
        tap = e[taps]
        b_prev = b
        b = b + -dt * (tap[:, 1:] - tap[:, :-1]) / dx
        if np.max(np.abs(e)) > 1e6 * src_peak:
            raise FloatingPointError("FDTD instability during source run")
        rec_e[:, n] = tap[:, 1]
        rec_b[:, n] = 0.25 * (b_prev[:, 0] + b_prev[:, 1] + b[:, 0] + b[:, 1])
        wall_peak = max(wall_peak,
                        abs(e[1]), abs(e[-2]), abs(e[2]), abs(e[-3]))

    contaminated = wall_peak > 1e-4 * float(np.max(np.abs(rec_e), initial=0.0))
    if contaminated:
        warnings.warn("field activity near the walls; probe data may be "
                      "contaminated by reflections", stacklevel=2)
    return {
        "t": t,
        "e": [rec_e[m] for m in range(len(idx))],
        "b": [rec_b[m] for m in range(len(idx))],
        "x": list(probes),
        "contaminated": bool(contaminated),
    }
