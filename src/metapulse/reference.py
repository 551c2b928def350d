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

    M += a H,      Q += b E,      H += (E[:-1] - E[1:]) - M,
    E[1:-1] += s (H[:-1] - H[1:]) - Q[1:-1].

This is the SI scheme with its gains folded into the stored variables: no
step divides, and far fewer values are left subnormal in the vanishing tail
ahead of a front, where numpy's arithmetic is slow.

The oracle steps m times per sample of its source: it is driven by the
source's band-limited interpolant and records every m-th step on the
source's grid.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .medium import C

__all__ = ["YeeGrid1D", "source_layout", "steps_per_sample", "upsample",
           "run_boundary_source"]

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
            raise ValueError(f"nx must be at least 64, got {self.nx}")
        if not 0 < self.courant <= MAX_COURANT:
            raise ValueError(f"courant ratio must lie in (0, {MAX_COURANT}]")
        if not (self.dx > 0 and self.c > 0):
            raise ValueError("dx and c must be positive")

    @property
    def dt_fdtd(self):
        return self.courant * self.dx / self.c


def _aligned_zeros(n):
    """n float64 zeros starting on a 64-byte boundary: where malloc starts
    the leapfrog's arrays moves its step time by up to 20%."""
    buf = np.zeros(n + 8)
    skip = -buf.ctypes.data % 64 // 8
    return buf[skip:skip + n]


def _leapfrog(nx, dt, dx, wpe, wpm, eps0, mu0):
    """The zero state (e, h, m, q) of an nx-node grid, normalised as in the
    module docstring, and ``advance()``, its in-place leapfrog update; the
    e endpoints stay fixed (PEC walls).

    h and e share one buffer x = [h | e] and m and q another, y = [m | q],
    so that both Drude currents advance in one pass, y += coef x, with
    coef a on h and b on e. The q endpoints take b times the fixed e
    endpoints and are never read. Every intermediate lives in a buffer or
    view made here, so a call allocates no array. The 9 ufuncs run in the
    order of the plain update ``m += a*h; h += (e[:-1] - e[1:]) - m`` (and
    its E twin), so the bits match it.

    The buffers start on cache lines, and e and q are padded so that their
    interiors do too: every array the step writes then starts on a cache
    line, which took 0.3-1 us off a 6124-cell step against e and q
    themselves on one.
    """
    # e[1] is element off + 1 of x, a multiple of 8 at or past h's end
    off = -(-nx // 8) * 8 - 1
    x, y, coef, tmp = (_aligned_zeros(off + nx) for _ in range(4))
    h, e, m, q = x[:nx - 1], x[off:], y[:nx - 1], y[off:]
    coef[:nx - 1], coef[off:] = (wpm * dt) ** 2, (wpe * dt) ** 2
    # a 0-d array, which numpy takes without the per-call conversion of a
    # Python float
    s = np.array(dt * dt / (eps0 * mu0 * dx * dx))
    tmp_h, tmp_in = tmp[:nx - 1], tmp[off + 1:off + nx - 1]
    e_lo, e_hi, h_lo, h_hi = e[:-1], e[1:], h[:-1], h[1:]
    e_in, q_in = e[1:-1], q[1:-1]
    add, subtract, multiply = np.add, np.subtract, np.multiply

    def advance():
        multiply(coef, x, tmp)
        add(y, tmp, y)
        subtract(e_lo, e_hi, tmp_h)
        subtract(tmp_h, m, tmp_h)
        add(h, tmp_h, h)
        subtract(h_lo, h_hi, tmp_in)
        multiply(tmp_in, s, tmp_in)
        subtract(tmp_in, q_in, tmp_in)
        add(e_in, tmp_in, e_in)

    return advance, (e, h, m, q)


def source_layout(grid1d, duration, probes, source_index=None):
    """(steps, source node, probe nodes) of a :func:`run_boundary_source`
    run; ValueError when the source or a probe is off the nodes inside the
    walls."""
    dx, nx = grid1d.dx, grid1d.nx
    i_src = nx // 4 if source_index is None else int(source_index)
    if not 0 < i_src < nx - 1:
        raise ValueError(f"source node {i_src} falls outside the {nx}-node "
                         f"grid")
    idx = []
    for xp in probes:
        i = i_src + int(round(xp / dx))
        if not 0 < i < nx - 1:
            raise ValueError(f"probe at {xp:g} m falls outside the {nx}-node "
                             f"grid")
        if not abs(xp / dx - np.rint(xp / dx)) <= 1e-6:
            raise ValueError(f"probe at {xp:g} m is not on a grid node")
        idx.append(i)
    return int(round(duration / grid1d.dt_fdtd)), i_src, idx


def steps_per_sample(sample_dt, dt):
    """The fewest steps of at most ``dt`` that make ``sample_dt``; a ratio
    within 1e-9 relative of an integer counts as that integer."""
    return int(np.ceil(sample_dt / dt * (1 - 1e-9)))


def upsample(signal, m):
    """The band-limited interpolant of ``signal``, m points per sample."""
    half = np.fft.rfft(signal.samples)
    half[-1] *= 0.5 if m > 1 else 1.0  # on m n points, bin n/2 is +-n/2
    return m * np.fft.irfft(half, m * signal.grid.n)


def run_boundary_source(source, grid1d, params, duration, probes,
                        source_index=None):
    """Drive the grid with a soft E source and record probe time series.

    The node ``source_index`` (default nx // 4, so that leftward radiation
    fades into the padding, not off the wall into the probes) takes the
    band-limited interpolant (:func:`upsample`) of the Signal ``source``,
    sampled every m steps and zero past its window; ``probes`` are meters
    from it. Returns a dict: ``e`` and ``b``, of shape (probes, n), every
    m-th step of each probe on ``source.grid.times``, zero past
    ``duration``; ``steps_per_sample``, m; and ``contaminated``, the
    wall-activity flag.

    Raises ValueError, before any step, when ``grid1d.c`` and ``params.c``
    differ by more than 1e-12 relative, when the m steps of
    :func:`steps_per_sample` miss ``source.grid.dt`` by more than 1e-9
    relative, or when :func:`source_layout`
    finds the source or a probe off the nodes inside the walls. Raises
    FloatingPointError when E exceeds 1e6 times the source peak or is not
    finite. The guard runs once per ``BLOCK_STEPS`` steps, so the abort
    comes within one block of the blow-up.
    """
    if not abs(grid1d.c - params.c) <= 1e-12 * params.c:
        raise ValueError(f"grid speed c = {grid1d.c!r} differs from the "
                         f"medium's c = {params.c!r}")
    dt, dx, nx, n = grid1d.dt_fdtd, grid1d.dx, grid1d.nx, source.grid.n
    m = steps_per_sample(source.grid.dt, dt)
    if not abs(m * dt - source.grid.dt) <= 1e-9 * source.grid.dt:
        raise ValueError(f"FDTD step {dt!r} s does not divide the source's "
                         f"step {source.grid.dt!r} s")
    n_steps, i_src, idx = source_layout(grid1d, duration, probes,
                                        source_index)
    if params.band_high * dt > 0.5:
        warnings.warn("plasma frequency underresolved: dt * wp > 0.5",
                      stacklevel=2)
    # soft current-sheet source: dE/dt term with 1/dx density so the
    # radiated amplitude is resolution-independent; zero past its window
    kick = np.zeros(n_steps + 1)
    kick[:m * n] = upsample(source, m)[:n_steps + 1] * (dt / dx)
    src_peak = max(source.peak, 1e-300)

    advance, (e, *_) = _leapfrog(nx, dt, dx, params.omega_pe,
                                 params.omega_pm, params.eps0, params.mu0)
    take = e.take
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

    # step j m is record j; records past the window are dropped at the end
    rec_e, rec_b = np.zeros((2, n_probes, max(n, n_steps // m + 1)))
    wall_peak = 0.0

    for n0 in range(1, n_steps + 1, BLOCK_STEPS):
        n1 = min(n0 + BLOCK_STEPS, n_steps + 1)
        for k, row in zip(kick[n0:n1].tolist(), rows):
            advance()
            e[i_src] += k
            take(taps, out=row, mode="clip")
        if not np.max(np.abs(e)) <= 1e6 * src_peak:
            raise FloatingPointError(
                f"FDTD instability during source run by step {n1 - 1}")
        blk = block[:n1 - n0]
        tap = blk[:, :3 * n_probes].reshape(len(blk), n_probes, 3)
        # steps j m, ceil(n0/m) <= j < ceil(n1/m), fall on the source's grid
        on, j = slice(-n0 % m, None, m), np.s_[:, -(-n0 // m):-(-n1 // m)]
        rec_e[j] = tap[on, :, 1].T
        # b on half nodes, half times: stepping it with the final e of each
        # instant keeps the probe average centered on t[n]; accumulate adds
        # in sequence from the last b, as a per-step update would
        b = np.add.accumulate(np.concatenate(
            [b[-1:], -dt * (tap[:, :, 1:] - tap[:, :, :-1]) / dx]), axis=0)
        rec_b[j] = (0.25 * (b[:-1, :, 0] + b[:-1, :, 1]
                            + b[1:, :, 0] + b[1:, :, 1]))[on].T
        wall_peak = max(wall_peak,
                        float(np.max(np.abs(blk[:, 3 * n_probes:]))))

    contaminated = wall_peak > 1e-4 * float(np.max(np.abs(rec_e), initial=0.0))
    if contaminated:
        warnings.warn("field activity near the walls; probe data may be "
                      "contaminated by reflections", stacklevel=2)
    return {"e": rec_e[:, :n], "b": rec_b[:, :n], "steps_per_sample": m,
            "contaminated": bool(contaminated)}
