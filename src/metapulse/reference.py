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

#: largest Courant ratio c*dt/dx that YeeGrid1D accepts (1D limit: 1)
MAX_COURANT = 0.99

#: source-run steps per block: the blow-up guard and the probe records run
#: once per block, on one gathered row per step
BLOCK_STEPS = 256


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
        if not 0 < self.courant <= MAX_COURANT:
            raise ValueError(f"courant ratio must lie in (0, {MAX_COURANT}]")
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


def off_node(x, dx):
    """True when x lies more than 1e-6 cells from a node of the dx grid."""
    return not abs(x / dx - np.rint(x / dx)) <= 1e-6


def _warn_underresolved(wpe, wpm, dt):
    """Warn (at the driver's caller) when dt does not resolve the currents."""
    if max(wpe, wpm) * dt > 0.5:
        warnings.warn("plasma frequency underresolved: dt * wp > 0.5",
                      stacklevel=3)


def _leapfrog(e, h, j_e, j_m, dt, dx, wpe, wpm, eps0, mu0):
    """``advance()``: one in-place leapfrog update of the given arrays; the
    e endpoints stay fixed (PEC walls).

    Every intermediate lives in a buffer or slice view made here, so a call
    allocates no array. The ufuncs run in the order of the plain update
    ``h += (dt/mu0) * (-(e[1:] - e[:-1]) / dx - j_m)`` (and its E twin),
    with ``-(a - b)`` written as the exact ``b - a``, so the bits match it.
    """
    jm_gain, h_gain = dt * mu0 * wpm**2, dt / mu0
    je_gain, e_gain = dt * eps0 * wpe**2, dt / eps0
    tmp_h = np.empty_like(h)
    tmp_e = np.empty_like(e)
    e_lo, e_hi, h_lo, h_hi = e[:-1], e[1:], h[:-1], h[1:]
    e_in, j_e_in, tmp_in = e[1:-1], j_e[1:-1], tmp_e[1:-1]

    def advance():
        np.multiply(h, jm_gain, out=tmp_h)
        np.add(j_m, tmp_h, out=j_m)
        np.subtract(e_lo, e_hi, out=tmp_h)
        np.divide(tmp_h, dx, out=tmp_h)
        np.subtract(tmp_h, j_m, out=tmp_h)
        np.multiply(tmp_h, h_gain, out=tmp_h)
        np.add(h, tmp_h, out=h)
        np.multiply(e, je_gain, out=tmp_e)
        np.add(j_e, tmp_e, out=j_e)
        np.subtract(h_lo, h_hi, out=tmp_in)
        np.divide(tmp_in, dx, out=tmp_in)
        np.subtract(tmp_in, j_e_in, out=tmp_in)
        np.multiply(tmp_in, e_gain, out=tmp_in)
        np.add(e_in, tmp_in, out=e_in)

    return advance


def step(state, grid1d, params, source_peak=None):
    """Advance the state by one time step (pure: returns a new state).

    ``source_peak`` enables the blow-up guard: any field exceeding 1e6
    times the source peak, or not finite, aborts.
    """
    wpe, wpm, eps0, mu0 = _material(params)
    _warn_underresolved(wpe, wpm, grid1d.dt_fdtd)
    e, h = state.e.copy(), state.h.copy()
    j_e, j_m = state.j_e.copy(), state.j_m.copy()
    _leapfrog(e, h, j_e, j_m, grid1d.dt_fdtd, grid1d.dx, wpe, wpm, eps0, mu0)()
    if source_peak is not None and not np.max(np.abs(e)) <= 1e6 * source_peak:
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

    Raises FloatingPointError when a field exceeds 1e6 times the source
    peak or is not finite. The guard runs once per ``BLOCK_STEPS`` steps,
    so the abort comes within one block of the blow-up.
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
        if off_node(xp, dx):
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

    nx = grid1d.nx
    e, h = np.zeros(nx), np.zeros(nx - 1)
    j_e, j_m = np.zeros(nx), np.zeros(nx - 1)
    advance = _leapfrog(e, h, j_e, j_m, dt, dx, wpe, wpm, eps0, mu0)
    # one gather per step fills a block row: each probe with its two
    # neighbours, then the four nodes beside the walls; the guard and the
    # records run once per block
    n_probes = len(idx)
    taps = np.concatenate([np.add.outer(np.asarray(idx, dtype=int),
                                        [-1, 0, 1]).ravel(),
                           [1, nx - 2, 2, nx - 3]])
    block = np.empty((BLOCK_STEPS, taps.size))
    rows = list(block)
    # B from dB/dt = -dE/dx (exact Maxwell law) is needed only on the two
    # half nodes beside each probe, so it is integrated from the gathers
    b = np.zeros((1, n_probes, 2))

    rec_e = np.zeros((n_probes, n_steps + 1))
    rec_b = np.zeros((n_probes, n_steps + 1))
    wall_peak = 0.0

    for n0 in range(1, n_steps + 1, BLOCK_STEPS):
        n1 = min(n0 + BLOCK_STEPS, n_steps + 1)
        for n, row in zip(range(n0, n1), rows):
            advance()
            e[i_src] += kick[n]
            np.take(e, taps, out=row, mode="clip")
        if not np.max(np.abs(e)) <= 1e6 * src_peak:
            raise FloatingPointError(
                f"FDTD instability during source run by step {n1 - 1}")
        blk = block[:n1 - n0]
        tap = blk[:, :3 * n_probes].reshape(len(blk), n_probes, 3)
        rec_e[:, n0:n1] = tap[:, :, 1].T
        # b on half nodes, half times: stepping it with the final e of each
        # instant keeps the probe average centered on t[n]; accumulate adds
        # in sequence from the last b, as a per-step update would
        b = np.add.accumulate(np.concatenate(
            [b[-1:], -dt * (tap[:, :, 1:] - tap[:, :, :-1]) / dx]), axis=0)
        rec_b[:, n0:n1] = (0.25 * (b[:-1, :, 0] + b[:-1, :, 1]
                                   + b[1:, :, 0] + b[1:, :, 1])).T
        wall_peak = max(wall_peak,
                        float(np.max(np.abs(blk[:, 3 * n_probes:]))))

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
