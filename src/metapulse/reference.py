"""Independent time-domain Maxwell oracle (1D Yee grid, Drude ADE).

The Drude responses eps = 1 - wpe^2/w^2, mu = 1 - wpm^2/w^2 correspond
exactly to first-order auxiliary current ODEs

    eps0 dE/dt = -dH/dx - j_e,     dj_e/dt = eps0 * wpe^2 * E,
    mu0  dH/dt = -dE/dx - j_m,     dj_m/dt = mu0  * wpm^2 * H,

leapfrogged on a staggered grid: E and j_e at integer nodes, H and j_m at
half nodes; j_e lives at half time steps, j_m at integer ones, keeping the
whole update second order. This solver shares nothing with the spectral
machinery it validates.

The step runs in normalised variables (Taflove & Hagness, ch. 9): E stays
in SI, and

    H = (mu0 dx / dt) h,    M = dx j_m,    Q = (dt / eps0) j_e,

so that, with a = (wpm dt)^2, b = (wpe dt)^2 and s = dt^2 / (eps0 mu0 dx^2)
(the Courant ratio squared, since c^2 eps0 mu0 = 1),

    M += a H,                  H += (E[:-1] - E[1:]) - M,
    Q[1:-1] += b E[1:-1],      E[1:-1] += s (H[:-1] - H[1:]) - Q[1:-1].

This is the SI scheme with its gains folded into the stored variables: no
step divides, and far fewer values are left subnormal in the vanishing tail
ahead of a front, where numpy's arithmetic is slow.

``cubic_spline`` resamples a record between clocks: the boundary source onto
the FDTD clock here, and the FDTD probe records back onto the spectral grid.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .medium import C

__all__ = ["YeeGrid1D", "run_boundary_source", "cubic_spline"]

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
    c: float = C

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


def _cyclic_reduction(lo, diag, up, rhs):
    """Solve lo[i] x[i-1] + diag[i] x[i] + up[i] x[i+1] = rhs[i] (lo[0] and
    up[-1] unused) for a diagonally dominant system, without pivoting.

    Each level folds the odd rows into their even neighbours, halving the
    system; the odd unknowns follow from the even ones on the way back.
    """
    n = len(diag)
    if n == 1:
        return rhs / diag
    n_even, n_odd = (n + 1) // 2, n // 2
    lo_o, diag_o, up_o, rhs_o = lo[1::2], diag[1::2], up[1::2], rhs[1::2]
    # even row 2k reaches odd row k - 1 on its left and odd row k on its right
    left = -lo[2::2] / diag_o[:n_even - 1]
    right = -up[:2 * n_odd:2] / diag_o
    lo_e, up_e = np.zeros(n_even), np.zeros(n_even)
    diag_e, rhs_e = diag[::2].copy(), rhs[::2].copy()
    lo_e[1:] = left * lo_o[:n_even - 1]
    diag_e[1:] += left * up_o[:n_even - 1]
    rhs_e[1:] += left * rhs_o[:n_even - 1]
    up_e[:n_odd] = right * up_o
    diag_e[:n_odd] += right * lo_o
    rhs_e[:n_odd] += right * rhs_o
    x_e = np.append(_cyclic_reduction(lo_e, diag_e, up_e, rhs_e), 0.0)
    x = np.empty(n)
    x[::2] = x_e[:-1]
    x[1::2] = (rhs_o - lo_o * x_e[:n_odd] - up_o * x_e[1:n_odd + 1]) / diag_o
    return x


def cubic_spline(t, values, at):
    """Not-a-knot cubic spline through (t, values), evaluated at ``at``;
    zero outside [t[0], t[-1]].

    t must be finite and strictly increasing, with at least 4 knots. The
    knot slopes solve the tridiagonal not-a-knot system by cyclic
    reduction, so nothing loops over knots in Python.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(values, dtype=float)
    if t.ndim != 1 or y.shape != t.shape:
        raise ValueError("spline knots and values must be 1-D of one length")
    if t.size < 4:
        raise ValueError(f"spline needs at least 4 knots, got {t.size}")
    if not np.all(np.isfinite(t)):
        raise ValueError("spline knots must be finite")
    h = np.diff(t)
    if not np.all(h > 0):
        raise ValueError("spline knots must be strictly increasing")
    slope = np.diff(y) / h
    # interior rows: h[i] s[i-1] + 2 (h[i-1] + h[i]) s[i] + h[i-1] s[i+1]
    # = 3 (h[i] slope[i-1] + h[i-1] slope[i]); each not-a-knot end row
    # (h[1] s[0] + (h[0] + h[1]) s[1] = r0, and its mirror) is subtracted
    # from its neighbour, which leaves a diagonally dominant system in
    # s[1:-1]
    rhs = 3.0 * (h[1:] * slope[:-1] + h[:-1] * slope[1:])
    w0, w1 = h[0] + h[1], h[-2] + h[-1]
    r0 = ((h[0] + 2.0 * w0) * h[1] * slope[0] + h[0] ** 2 * slope[1]) / w0
    r1 = (h[-1] ** 2 * slope[-2] + (2.0 * w1 + h[-1]) * h[-2] * slope[-1]) / w1
    diag = 2.0 * (h[:-1] + h[1:])
    diag[0], diag[-1] = w0, w1
    rhs[0] -= r0
    rhs[-1] -= r1
    s = np.empty_like(t)
    s[1:-1] = _cyclic_reduction(h[1:], diag, h[:-1], rhs)
    s[0] = (r0 - w0 * s[1]) / h[1]
    s[-1] = (r1 - w1 * s[-2]) / h[-2]

    at = np.asarray(at, dtype=float)
    inside = (at >= t[0]) & (at <= t[-1])
    q = at[inside]
    i = np.clip(np.searchsorted(t, q, side="right") - 1, 0, t.size - 2)
    hi, si, sj, mi = h[i], s[i], s[i + 1], slope[i]
    curv = (si + sj - 2.0 * mi) / hi
    dq = q - t[i]
    out = np.zeros(at.shape)
    out[inside] = (((curv / hi) * dq + ((mi - si) / hi - curv)) * dq
                   + si) * dq + y[i]
    return out


def off_node(x, dx):
    """True when x lies more than 1e-6 cells from a node of the dx grid."""
    return not abs(x / dx - np.rint(x / dx)) <= 1e-6


def _leapfrog(e, h, m, q, dt, dx, wpe, wpm, eps0, mu0):
    """``advance()``: one in-place leapfrog update of e and the normalised
    h, m and q (see the module docstring); the e endpoints stay fixed (PEC
    walls), so only q[1:-1] is updated.

    Every intermediate lives in a buffer or slice view made here, so a call
    allocates no array. The 11 ufuncs run in the order of the plain update
    ``m += a*h; h += (e[:-1] - e[1:]) - m`` (and its E twin), so the bits
    match it.
    """
    a, b = (wpm * dt) ** 2, (wpe * dt) ** 2
    s = dt * dt / (eps0 * mu0 * dx * dx)
    tmp_h = np.empty_like(h)
    tmp_in = np.empty_like(e[1:-1])
    e_lo, e_hi, h_lo, h_hi = e[:-1], e[1:], h[:-1], h[1:]
    e_in, q_in = e[1:-1], q[1:-1]

    def advance():
        np.multiply(h, a, out=tmp_h)
        np.add(m, tmp_h, out=m)
        np.subtract(e_lo, e_hi, out=tmp_h)
        np.subtract(tmp_h, m, out=tmp_h)
        np.add(h, tmp_h, out=h)
        np.multiply(e_in, b, out=tmp_in)
        np.add(q_in, tmp_in, out=q_in)
        np.subtract(h_lo, h_hi, out=tmp_in)
        np.multiply(tmp_in, s, out=tmp_in)
        np.subtract(tmp_in, q_in, out=tmp_in)
        np.add(e_in, tmp_in, out=e_in)

    return advance


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

    Raises ValueError, before any step, when ``grid1d.c`` and ``params.c``
    differ by more than 1e-12 relative. Raises FloatingPointError when E
    exceeds 1e6 times the source peak or is not finite. The guard runs once
    per ``BLOCK_STEPS`` steps, so the abort comes within one block of the
    blow-up.
    """
    if not abs(grid1d.c - params.c) <= 1e-12 * params.c:
        raise ValueError(f"grid speed c = {grid1d.c!r} differs from the "
                         f"medium's c = {params.c!r}")
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

    if params.band_high * dt > 0.5:
        warnings.warn("plasma frequency underresolved: dt * wp > 0.5",
                      stacklevel=2)
    t = np.arange(n_steps + 1) * dt
    # soft current-sheet source: dE/dt term with 1/dx density so the
    # radiated amplitude is resolution-independent; zero outside its window
    kick = cubic_spline(source.grid.times, source.samples, t) * dt / dx
    src_peak = max(source.peak, 1e-300)

    nx = grid1d.nx
    e, h, m, q = np.zeros(nx), np.zeros(nx - 1), np.zeros(nx - 1), np.zeros(nx)
    advance = _leapfrog(e, h, m, q, dt, dx, params.omega_pe,
                        params.omega_pm, params.eps0, params.mu0)
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
