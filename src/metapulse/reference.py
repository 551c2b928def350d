"""Independent time-domain Maxwell oracle (1D Yee grid, Drude ADE).

The Drude responses eps = 1 - wpe^2/w^2, mu = 1 - wpm^2/w^2 correspond
exactly to first-order auxiliary current ODEs

    eps0 dE/dt = -dH/dx - j_e,     dj_e/dt = eps0 * wpe^2 * E,
    mu0  dH/dt = -dE/dx - j_m,     dj_m/dt = mu0  * wpm^2 * H,

leapfrogged on a staggered grid: E and j_e at integer nodes, H and j_m at
half nodes; j_e lives at half time steps, j_m at integer ones, keeping the
whole update second order. This solver shares nothing with the spectral
machinery it validates.

The step runs in normalised variables (Taflove & Hagness, ch. 9), E in SI:

    H = (mu0 dx / dt) h,    M = dx j_m,    Q = (dt / eps0) j_e,

so that, with a = (wpm dt)^2, b = (wpe dt)^2 and s = dt^2 / (eps0 mu0 dx^2)
(the Courant ratio squared, since c^2 eps0 mu0 = 1),

    M += a H,      Q += b E,      H += (E[:-1] - E[1:]) - M,
    E[:-1] += s ([ghost, H][:-1] - H) - Q[:-1].

This is the SI scheme with its gains folded into the stored variables: no
step divides, and far fewer values are left subnormal in the vanishing tail
ahead of a front, where numpy's arithmetic is slow. The oracle steps m
times per sample of its source: it is driven by the source's band-limited
interpolant and records every m-th step on the source's grid.

The grid is the half-line the paper's boundary problem poses. A soft
current sheet at node 0 radiates an E field even about that node and an H
field odd about it, so node 0 is a symmetry plane: a ghost H at -dx/2 holds
-H(dx/2), and a position x < 0 reads the mirror image of -x. One PEC wall
closes the grid behind a layer where both currents decay at gamma_max
(d/L)^2 at depth d: a passive collisional Drude medium, which unlike a PML
cannot amplify backward waves (Becache, Joly & Vinoles 2018, Math. Comp.
87:2775).
"""

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = ["YeeGrid1D", "source_layout", "steps_per_sample", "upsample",
           "run_boundary_source"]

#: largest Courant number c dt/dx that run_boundary_source steps, within
#: the 1e-9 of steps_per_sample (1D limit: 1)
MAX_COURANT = 0.99

#: source-run steps per block: the blow-up guard and the probe records run
#: once per block, on one gathered row per step
BLOCK_STEPS = 256

#: the absorbing layer's band floor, impedance change and attenuation, and
#: the undamped span beyond it in the oracle's pad, in c / min(wpe, wpm)
BAND_FLOOR, LAYER_MISMATCH, LAYER_ATTENUATION = 1e-3, 0.05, 1e-3
LAYER_GAP = 1.0


@dataclass(frozen=True)
class YeeGrid1D:
    """Staggered 1D grid: nx E-nodes, spacing dx, and the time step dt_fdtd
    its leapfrog takes."""

    nx: int
    dx: float
    dt_fdtd: float

    def __post_init__(self):
        if self.nx < 64:
            raise ValueError(f"nx must be at least 64, got {self.nx}")
        if not (self.dx > 0 and self.dt_fdtd > 0):
            raise ValueError("dx and dt_fdtd must be positive")


def _aligned_zeros(n):
    """n float64 zeros starting on a 64-byte boundary: where malloc starts
    the leapfrog's arrays moves its step time by up to 20%."""
    buf = np.zeros(n + 8)
    skip = -buf.ctypes.data % 64 // 8
    return buf[skip:skip + n]


def _leapfrog(nx, dt, dx, wpe, wpm, eps0, mu0, damping=(1.0, 1.0)):
    """The zero state (e, h, m, q) of an nx-node grid, normalised as in the
    module docstring, and ``advance(kick=0.0)``, its in-place leapfrog
    update. Node 0 is the symmetry plane: between the H and E updates the
    step sets the ghost h at -dx/2 to kick - h[0], so e[0] also takes s
    kick. e[-1] stays fixed (the PEC wall behind the absorbing layer).

    h and e share one buffer x = [ghost | h | e] and m and q another, y =
    [m | q], so that both Drude currents advance in one pass, y += coef x,
    coef a on h and b on e, and decay in one more, y *= g, g the
    ``damping`` (g_h, g_e). The q wall entry takes b times the fixed e[-1]
    and is never read. Every intermediate lives in a buffer or view made
    here, so a call allocates no array. Its 10 ufuncs and one scalar store
    match the plain update bit for bit: ``m += a*h; m *= g_h; h += (e[:-1]
    - e[1:]) - m`` and its E twin.

    Every array the step writes starts on a cache line: that took 0.3-1 us
    off a 6124-cell step.
    """
    # h from element 8 of x, after the ghost; e from the next multiple of 8
    off = 8 + -(-(nx - 1) // 8) * 8
    x, y, coef, g, tmp = (_aligned_zeros(off + nx) for _ in range(5))
    on_h = slice(8, 7 + nx)
    h, e, m, q = x[on_h], x[off:], y[on_h], y[off:]
    coef[on_h], coef[off:] = (wpm * dt) ** 2, (wpe * dt) ** 2
    g[:], (g[on_h], g[off:]) = 1.0, damping
    # 0-d: numpy takes it without converting a Python float at each call
    s = np.array(dt * dt / (eps0 * mu0 * dx * dx))
    tmp_h, tmp_e = tmp[on_h], tmp[off:off + nx - 1]
    e_lo, e_hi, h_lo, q_lo = e[:-1], e[1:], x[7:6 + nx], q[:-1]
    add, subtract, multiply = np.add, np.subtract, np.multiply

    def advance(kick=0.0):
        multiply(coef, x, tmp)
        add(y, tmp, y)
        multiply(y, g, y)
        subtract(e_lo, e_hi, tmp_h)
        subtract(tmp_h, m, tmp_h)
        add(h, tmp_h, h)
        x[7] = kick - h[0]
        subtract(h_lo, h, tmp_e)
        multiply(tmp_e, s, tmp_e)
        subtract(tmp_e, q_lo, tmp_e)
        add(e_lo, tmp_e, e_lo)

    return advance, (e, h, m, q)


def source_layout(grid1d, duration, probes):
    """(steps, probe nodes) of a :func:`run_boundary_source` run, a probe
    behind the source on a negative node; ValueError when a probe, or its
    mirror image, is off the nodes before the wall."""
    dx, nx = grid1d.dx, grid1d.nx
    idx = []
    for xp in probes:
        i = int(round(xp / dx))
        if not abs(i) < nx - 1:
            raise ValueError(f"probe at {xp:g} m falls outside the {nx}-node "
                             f"grid")
        if not abs(xp / dx - np.rint(xp / dx)) <= 1e-6:
            raise ValueError(f"probe at {xp:g} m is not on a grid node")
        idx.append(i)
    return int(round(duration / grid1d.dt_fdtd)), idx


def steps_per_sample(sample_dt, dt):
    """The fewest steps of at most ``dt`` that make ``sample_dt``; a ratio
    within 1e-9 relative of an integer counts as that integer."""
    return int(np.ceil(sample_dt / dt * (1 - 1e-9)))


def upsample(signal, m):
    """The band-limited interpolant of ``signal``, m points per sample."""
    half = np.fft.rfft(signal.samples)
    half[-1] *= 0.5 if m > 1 else 1.0  # on m n points, bin n/2 is +-n/2
    return m * np.fft.irfft(half, m * signal.grid.n)


def absorbing_layer(params, source):
    """(length, rate, decay) of the layer for the band w that ``source``'s
    bins within BAND_FLOOR of its peak span, p = wpe and q = wpm: decay at
    both edges, the mean |Im k| over g = rate (d/length)^2, c k = sqrt((w -
    p^2/(w - i g)) (w - q^2/(w - i g))), and exp(-decay length) at most
    LAYER_ATTENUATION. The rate makes the shortest such layer of w_max
    2^(j/16), -32 <= j <= 64, each held where the impedance change w rate
    |p^2 - q^2| / |(w^2 - p^2)(w^2 - q^2)| passes LAYER_MISMATCH; j = 0,
    the band top, is one of them, so no layer is longer than it gives."""
    mag = np.abs(np.fft.rfft(source.samples))
    w = source.grid.half_omegas[mag >= BAND_FLOOR * np.max(mag)][[0, -1]]
    p2, q2 = params.omega_pe**2, params.omega_pm**2
    with np.errstate(divide="ignore"):
        slope = np.max(w * abs(p2 - q2) / np.abs((w * w - p2) * (w * w - q2)))
        rates = np.minimum(w[1] * 2.0 ** (np.arange(-32, 65) / 16),
                           LAYER_MISMATCH / slope)
    # rates x edges x depths, at the layer's midpoints
    w, g = w[:, None], rates[:, None, None] * ((np.arange(64) + 0.5) / 64)**2
    d = w * w + g * g
    (ap, bp), (aq, bq) = ((w - s * w / d, s * g / d) for s in (p2, q2))
    re, im = ap * aq - bp * bq, ap * bq + aq * bp  # (c k)^2, in real terms
    decay = np.mean(np.sqrt(0.5 * (np.hypot(re, im) - re)), -1) / params.c
    best = np.argmax(np.min(decay, 1))
    return (float(np.log(LAYER_ATTENUATION) / -np.min(decay[best])),
            rates[best], decay[best])


def layer_damping(grid1d, length, rate):
    """(g_h, g_e) on the half nodes and nodes: exp(-rate (d/length)^2 dt)
    at depth d into the layer before the wall."""
    x = np.arange(2 * grid1d.nx - 1) * (0.5 * grid1d.dx)
    depth = np.maximum(length - (x[-1] - x), 0.0)
    g = np.exp(-rate * grid1d.dt_fdtd * (depth / max(length, 1e-300))**2)
    return g[1::2], g[::2]


def run_boundary_source(source, grid1d, params, duration, probes):
    """Drive the grid with a soft E source and record probe time series.

    Node 0, the symmetry plane, takes the band-limited interpolant
    (:func:`upsample`) of the Signal ``source``, sampled every m steps and
    zero past its window; ``probes`` are meters from it, and one behind it
    reads the mirror image: E(-x) = E(x), B(-x) = -B(x). Returns a dict:
    ``e`` and ``b``, of shape (probes, n), every m-th step of each probe on
    ``source.grid.times``, zero past ``duration``; ``steps_per_sample``, m;
    ``contaminated``, the wall-activity flag; the ``layer`` length, and its
    ``attenuation``.

    Raises ValueError, before any step, when the Courant number
    ``params.c`` dt / dx passes MAX_COURANT by more than the 1e-9 of
    :func:`steps_per_sample`, when the m steps of
    :func:`steps_per_sample` miss ``source.grid.dt`` by more than 1e-9
    relative, or when :func:`source_layout` finds a probe off the nodes
    before the wall. Raises FloatingPointError when E exceeds 1e6 times
    the source peak or is not finite. The guard runs once per
    ``BLOCK_STEPS`` steps, so the abort comes within one block of the
    blow-up.
    """
    dt, dx, nx, n = grid1d.dt_fdtd, grid1d.dx, grid1d.nx, source.grid.n
    m = steps_per_sample(source.grid.dt, dt)
    # m counted as the plan counts it: a grid the plan builds passes
    if m < steps_per_sample(source.grid.dt, MAX_COURANT * dx / params.c):
        raise ValueError(f"Courant number c dt/dx = {params.c * dt / dx!r} "
                         f"exceeds {MAX_COURANT}")
    if not abs(m * dt - source.grid.dt) <= 1e-9 * source.grid.dt:
        raise ValueError(f"FDTD step {dt!r} s does not divide the source's "
                         f"step {source.grid.dt!r} s")
    n_steps, idx = source_layout(grid1d, duration, probes)
    if params.band_high * dt > 0.5:
        warnings.warn("plasma frequency underresolved: dt * wp > 0.5",
                      stacklevel=2)
    # soft current-sheet source: a dE/dt term with 1/dx density, so the
    # radiated amplitude is resolution-independent, carried by the ghost h
    # as the kick over s; zero past its window
    kick = np.zeros(n_steps + 1)
    kick[:m * n] = upsample(source, m)[:n_steps + 1] * (
        params.eps0 * params.mu0 * dx / dt)
    src_peak = max(source.peak, 1e-300)
    length, rate, decay = absorbing_layer(params, source)
    # a probe on node i reads node |i| and its neighbours, the mirror image
    # of its own; the layer reaches the farthest at most
    taps = np.abs(np.add.outer(np.asarray(idx, dtype=int), [-1, 0, 1]))
    length = min(length, dx * (nx - 1 - np.max(taps[:, 1], initial=0)))
    attenuation = np.exp(-length * decay).tolist()

    advance, (e, *_) = _leapfrog(nx, dt, dx, params.omega_pe,
                                 params.omega_pm, params.eps0, params.mu0,
                                 layer_damping(grid1d, length, rate))
    take = e.take
    # one gather a step fills a block row: each probe with its neighbours,
    # then two nodes by the wall; guard and records run once per block
    n_probes = len(idx)
    taps = np.concatenate([taps.ravel(), [nx - 2, nx - 3]])
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
            advance(k)
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

    back = wall_peak * max(attenuation)  # a reflection crosses it again
    contaminated = back > 1e-4 * float(np.max(np.abs(rec_e), initial=0.0))
    return {"e": rec_e[:, :n], "b": rec_b[:, :n], "steps_per_sample": m,
            "contaminated": bool(contaminated), "layer": length,
            "attenuation": attenuation}
