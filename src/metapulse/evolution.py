"""Propagation of directed waves along x.

Three propagation models, from exact to reduced:

* exact linear: per-bin phases exp(-/+ i w a(w) x), the closed solution of
  dPi/dx = -a-hat dt Pi, dLambda/dx = +a-hat dt Lambda;
* Klein-Gordon-Fock reduction: only the leading dispersion term is kept,
  dPi/dx = -(pq/c) dt^{-1} Pi (and the opposite sign for Lambda);
* Kerr-coupled nonlinear system,

      c Pi_xt     + pq Pi     = -K [(Pi - Lambda)_tt]^3,
      c Lambda_xt - pq Lambda = +K [(Pi - Lambda)_tt]^3,

  with K = mu0 chi3 c^3 / (2 p^3 q), marched in x after applying dt^{-1}
  by Lawson RK4: the Klein-Gordon phase is an exact integrating factor,
  and the cubic term, pointwise in time under a 2/3-rule mask, sets the
  step (``kerr_default_steps``). The state stacks real half-spectra (rfft
  bins 0..n/2), one row per field: (Pi, Lambda), or Pi alone for the
  unidirectional model, Lambda frozen at zero. The cubic term runs on the
  band the field occupies, the leading bins of a grid of m <= n points on
  the same window: content at or below m/4 cubes onto aliases at
  m - 3k >= m/4, inside the band (m/4, m/3] whose filling past
  ``KERR_TAIL`` grows m by 5/4, 6/5 and 4/3 in turn (see ``_kerr_rhs``).
  Only ``n_stations`` evenly spread steps are kept (default 2: entry and
  exit).

The two linear models are diagonal in frequency: given a 1-D sequence of
distances, each returns one DirectedPair per distance from one rfft of the
entry pair, one (stations x bins) phase table and one stacked irfft on the
entry's own grid. The Kerr marchers refuse an entry off their ``grid``.

The unit-coefficient form pi = Pi_tt/alpha, lam = Lambda_tt/alpha,
zeta = x/beta is solved in the test suite, as an independent reference.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import BlowUpError, GridMismatchError
from .spectral import Signal, make_multiplier
from .waves import DirectedPair

__all__ = ["PropagationRecord", "propagate_linear_exact", "propagate_kg",
           "propagate_nonlinear", "propagate_unidirectional",
           "kerr_default_steps", "KERR_STIFFNESS", "KERR_PHASE_STEP",
           "KERR_TAIL"]

#: h sigma_0 that default Kerr step counts stay at or below: about 0.71 of
#: the 2 sqrt(2) limit of RK4 on the imaginary axis
KERR_STIFFNESS = 2.0

#: h Omega_0 that default Kerr step counts stay at or below: the rms
#: Klein-Gordon phase a step advances the entry spectrum by, in radians
KERR_PHASE_STEP = 0.25

#: relative L2 a Kerr march on m points lets its entry hold above bin m/12
#: and a step's state in (m/4, m/3]; more there redoes the step on more
KERR_TAIL = 1e-8


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


def _distances(xs):
    """``xs`` as a 1-D float array of finite distances >= 0."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1 or not np.all(np.isfinite(xs) & (xs >= 0)):
        raise ValueError(f"x must be a 1-D sequence of finite distances "
                         f">= 0, got {xs!r}")
    return xs


def _entry_spectrum(entry):
    """Stacked rfft half-spectra of an entry: (Pi-hat, Lambda-hat) of a
    DirectedPair, (Pi-hat,) of a Signal (Pi)."""
    if isinstance(entry, DirectedPair):
        return np.fft.rfft([entry.pi.samples, entry.lam.samples])
    return np.fft.rfft(entry.samples[None])


def _advance(spec, grid, theta):
    """One pair per row of the (stations, bins) phase table ``theta``: the
    entry half-spectra ``spec`` (Pi-hat, Lambda-hat) times exp(-/+ i theta),
    with DC and Nyquist kept, through one stacked irfft. The paper's kernel
    delta(t) - sqrt(beta/t) J1(2 sqrt(beta t)) annihilates DC, since its
    Bessel term integrates to 1; the DC bin keeps factor 1 here, which the
    zero-mean entries of runs make moot."""
    factors = 1j * np.array([[-1.0], [1.0]]) * theta[:, None, :]
    np.exp(factors, out=factors)
    factors[..., [0, -1]] = 1.0
    factors *= spec
    return [DirectedPair(Signal(grid, pi), Signal(grid, lam))
            for pi, lam in np.fft.irfft(factors, grid.n)]


def propagate_linear_exact(dp0, xs, params):
    """Exact linear propagation to each distance x >= 0 in ``xs``: per-bin
    phase -/+ w a(w) x. Returns one DirectedPair per distance."""
    xs, grid = _distances(xs), dp0.grid
    a_vals = make_multiplier("a", params, grid).values.real
    theta = np.multiply.outer(xs, grid.half_omegas * a_vals)
    return _advance(_entry_spectrum(dp0), grid, theta)


def propagate_kg(dp0, xs, params):
    """Klein-Gordon-Fock propagation to each distance x >= 0 in ``xs``:
    per-bin phase +/- pq x/(c w). Returns one DirectedPair per distance.

    Valid for spectra concentrated well below the plasma frequencies; warns
    when significant energy sits above min(p, q) / 2.
    """
    xs, grid = _distances(xs), dp0.grid
    spec = _entry_spectrum(dp0)
    w, w_max = grid.half_omegas, 0.5 * params.band_low
    mag = np.abs(spec).sum(axis=0)
    if np.max(mag[w > w_max], initial=0.0) > 1e-6 * np.max(mag):
        warnings.warn(f"spectral content above {w_max:g} rad/s; the long-wave "
                      "reduction may be inaccurate", stacklevel=2)
    pq_c = params.omega_pe * params.omega_pm / params.c
    theta = np.zeros((xs.size, w.size))
    theta[:, 1:] = np.divide.outer(-pq_c * xs, w[1:])
    return _advance(spec, grid, theta)


def _cube(grid):
    """``cube(u_hat)``: half-spectrum of the cube of u_hat's time image on
    m = 2 (len(u_hat) - 1) points, scaled to the full grid's, in a buffer
    that every call reuses."""
    u = np.empty(grid.n)
    u3 = np.empty(grid.n)
    out = np.empty(grid.n // 2 + 1, dtype=complex)

    def cube(u_hat):
        m = 2 * (len(u_hat) - 1)
        np.fft.irfft(u_hat, m, out=u[:m])
        np.multiply(u[:m], u[:m], out=u3[:m])
        np.multiply(u3[:m], u[:m], out=u3[:m])
        if m < grid.n:  # each coarse sample is n/m times the full grid's
            u3[:m] *= (m / grid.n)**2
        return np.fft.rfft(u3[:m], out=out[:len(u_hat)])

    return cube


def _kerr_rhs(params, grid):
    """The physical Kerr system on stacked half-spectra, split for
    :func:`_march_rk4` into a diagonal linear part and a cubic term.

    ``rhs(state, out)``, allocating no array, is the cubic term
    ``-+ nl * cube(-w^2 u)`` per row, ``nl = (K/c) dt^{-1}``, u = Pi -
    Lambda for two rows, u = Pi for one (Lambda frozen at zero), on the
    bins 0..m/2 that ``state`` holds, cut at m/3: the full grid's symbols,
    sliced. The cut dealiases quadratic terms only: a tone at m/4 < k <= m/3
    cubes into bin 3k, an alias of kept bin m - 3k, so content kept at or
    below m/4 cubes onto aliases at m - 3k >= m/4, inside the band the
    march watches (m/4, m/3]. ``rhs.lin`` is the linear part ``-+(pq/c)
    dt^{-1}`` per row, ``rhs.stiffness(state)`` sigma_0 about a state's
    bins 0..m/2 (:func:`_stiffness`).
    """
    # dt^{-1} annihilates DC and the unpaired Nyquist bin
    inv_iw = make_multiplier("d_dt_inv", None, grid).values
    w2 = grid.half_omegas * grid.half_omegas
    pq_c = params.omega_pe * params.omega_pm / params.c
    k_c = _kerr_k_c(params)
    nl = -k_c * inv_iw
    # complex, so that multiplying a complex row needs no casting buffer
    to_cube = (-w2).astype(complex)
    cube, u_hat = _cube(grid), np.empty_like(to_cube)

    def rhs(state, out):
        v = u_hat[:state.shape[-1]]  # bins 0..m/2 of the march's m points
        cut = 2 * (len(v) - 1) // 3 + 1
        u = np.subtract(*state, out=v) if len(state) == 2 else state[0]
        np.multiply(to_cube[:cut], u[:cut], out=v[:cut])
        v[cut:] = 0.0
        np.multiply(nl[:cut], cube(v)[:cut], out=out[0, :cut])
        out[0, cut:] = 0.0
        if len(state) == 2:
            np.negative(out[0], out=out[1])
        return out

    rhs.lin = np.array([[-1.0], [1.0]]) * (pq_c * inv_iw)
    rhs.stiffness = lambda state: _stiffness(state, k_c, -w2, grid)
    return rhs


def _kerr_k_c(params):
    """K/c = mu0 chi3 c^2 / (2 p^3 q), the cubic term's coefficient."""
    return (params.mu0 * params.chi3 * params.c**2
            / (2.0 * params.omega_pe**3 * params.omega_pm))


def _stiffness(state, coefficient, to_cube, grid):
    """sigma_0 = 3 rows coefficient max_t(v^2) w_top, the cubic term's
    largest rate about ``state``, the bins 0..m/2 of m points on the same
    window: v is the full grid's time image of the cube's input ``to_cube
    * u`` cut at w_top, m's 2/3 cut (bin m/3)."""
    cut = 2 * (state.shape[-1] - 1) // 3 + 1
    u = state[0, :cut] - state[1, :cut] if len(state) == 2 else state[0, :cut]
    v = np.fft.irfft(to_cube[:cut] * u, grid.n)
    w_top = grid.half_omegas[cut - 1]
    with np.errstate(over="ignore"):  # inf for a state too big to square
        return 3.0 * len(state) * coefficient * float(np.max(v * v)) * w_top


def _march_rk4(rhs, state, x_end, n_steps, n_stations, grid):
    """Lawson RK4 over [0, x_end], keeping only the requested stations.

    The system is d(state)/dx = lin * state + rhs(state), lin the rows of
    ``rhs.lin`` that ``state`` has: diagonal, one row of bins per field,
    and its integrating factor E = exp(h lin / 2) is built once and applied
    exactly, so only ``rhs`` limits the step's stability. A step is Lawson's
    RK4 (Lawson 1967) in the form of Hult's RK4IP (2007), with v = E u:

        k1 = E N(u),  k2 = N(v + h/2 k1),  k3 = N(v + h/2 k2),
        k4 = N(E (v + h k3)),  u' = E (v + h/6 (k1 + 2 k2 + 2 k3)) + h/6 k4.

    ``state`` is a stacked complex array of half-spectra, one row per
    field, which the march overwrites; ``rhs(state, out)`` writes N into
    ``out`` and returns it, on the leading m/2+1 bins: a grid of m points
    on the same window, from m0 = n/2^j grown by 5/4, 6/5 and 4/3 in turn
    to the 5-smooth m0 {5/4, 3/2, 2, 5/2, ...} as ``KERR_TAIL`` sets, each
    growth redoing its step. The bins above m/2 carry the entry's exact
    linear phase exp(lin x), filled in as m grows or a station is kept.
    Neither a step nor a growth allocates an array: the stages reuse three
    full-width buffers through views, v and then the new state go to a
    fourth that swaps with the old, and the stage weights of 2 are applied
    in place ((2k)(h/4) is k(h/2) exactly). It keeps steps
    ``linspace(0, n_steps, n_stations)`` as integers. Its meta:
    ``kerr_stiffness(_exit)``, h ``rhs.stiffness`` at entry on the full
    grid (at exit on the last m; past RK4's limit of about 2 sqrt(2) the
    march steepened past its step), ``kerr_march_n``, the last m, and
    ``kerr_tail``, the largest top-band fraction of the entry and of every
    step kept. A non-finite state raises BlowUpError, its record holding
    the stations kept so far and the last finite state.
    """
    if not x_end > 0:
        raise ValueError(f"x_end (zeta_end) must be positive, got {x_end!r}")
    if n_steps < 4:
        raise ValueError(f"n_steps must be at least 4, got {n_steps!r}")
    if n_stations < 2:
        raise ValueError(f"n_stations must be at least 2, got {n_stations!r}")
    h = x_end / n_steps
    meta = {"kerr_stiffness": h * rhs.stiffness(state)}
    lin = rhs.lin[:len(state)]
    half = np.exp(0.5 * h * lin)
    keep = set(np.linspace(0, n_steps, n_stations).astype(int).tolist())
    steps, states = [0], [_to_pair(grid, state)]
    m = grid.n  # the smallest m = n/2^j >= 16 whose entry's cube fits m/4
    while m > 16 and _fraction(state, np.s_[m // 24 + 1:]) <= KERR_TAIL:
        m //= 2
    width = m // 2 + 1
    tail = _fraction(state, np.s_[m // 4 + 1:m // 3 + 1], width)
    # the columns past the crop hold the entry in both swapping buffers
    new = state.copy()
    acc, k, arg = (np.empty_like(state) for _ in range(3))

    def full(x):  # the state at x, the entry's bins above it in phase
        spectrum = state.copy()
        spectrum[:, width:] *= np.exp(lin[:, width:] * x)
        return spectrum

    step = 1
    with np.errstate(over="ignore", invalid="ignore"):
        while step <= n_steps:
            u, e, a, kk, ac, out = (buf[:, :width] for buf in
                                    (state, half, arg, k, acc, new))
            rhs(u, kk)
            np.multiply(e, u, out=out)
            np.multiply(e, kk, out=ac)
            np.multiply(ac, 0.5 * h, out=a)
            a += out
            for weight in (0.25, 0.5):
                rhs(a, kk)
                kk *= 2.0
                ac += kk
                np.multiply(kk, weight * h, out=a)
                a += out
            a *= e
            rhs(a, kk)
            ac *= h / 6.0
            ac += out
            ac *= e
            kk *= h / 6.0
            np.add(ac, kk, out=out)
            fraction = _fraction(new, np.s_[m // 4 + 1:m // 3 + 1], width)
            if fraction > KERR_TAIL and m < grid.n:  # redo it on more points
                up = 4 if m % 3 == 0 else 6 if m % 5 == 0 else 5
                m = m * up // (up - 1)  # 2^j m0: x 5/4, 6/5, 4/3
                band = np.s_[:, width:m // 2 + 1]
                np.multiply(lin[band], (step - 1) * h, out=arg[band])
                np.exp(arg[band], out=arg[band])
                state[band] *= arg[band]
                width = m // 2 + 1
                continue
            # row by row: isfinite copies a strided complex view first
            if not all(np.isfinite(row[:width]).all() for row in new):
                if steps[-1] != step - 1:
                    steps.append(step - 1)
                    states.append(_to_pair(grid, full((step - 1) * h)))
                partial = PropagationRecord(
                    np.array(steps) * h, states,
                    {**meta, "aborted_at": step * h})
                raise BlowUpError(
                    f"non-finite state at step {step} (x = {step * h:g}) "
                    f"with kerr_stiffness {meta['kerr_stiffness']:.3g}; "
                    + _more_steps(meta["kerr_stiffness"], n_steps),
                    record=partial)
            tail = max(tail, fraction)
            state, new = new, state
            if step in keep:
                spectrum = full(step * h)
                steps.append(step)
                states.append(_to_pair(grid, spectrum))
            step += 1
    meta.update(kerr_stiffness_exit=h * rhs.stiffness(spectrum[:, :width]),
                kerr_march_n=m, kerr_tail=tail)
    return PropagationRecord(np.array(steps) * h, states, meta)


def _fraction(state, band, width=None):
    """Relative L2 of the bins ``band`` among the first ``width`` (all by
    default), rows pooled, through ``vdot``: no array is allocated."""
    part = total = 0.0
    for row in state:
        part += np.vdot(row[band], row[band]).real
        total += np.vdot(row[:width], row[:width]).real
    return float(np.sqrt(part / total)) if total else 0.0


def _more_steps(stiffness, n_steps):
    """What a march with entry h sigma_0 ``stiffness`` that turned
    non-finite should change."""
    if stiffness > KERR_STIFFNESS:
        return (f"raise run.n_steps until kerr_stiffness is at most "
                f"{KERR_STIFFNESS:g}")
    # the entry met the bound; the pulse steepened past it
    return (f"the cubic term's rate grew during the march; raise "
            f"run.n_steps above {n_steps} (for example to {2 * n_steps})")


def _to_pair(grid, state):
    """Time-domain pair of a half-spectrum state; one row has Lambda = 0."""
    rows = np.fft.irfft(state, grid.n)
    lam = Signal(grid, rows[1]) if len(rows) == 2 else Signal.zeros(grid)
    return DirectedPair(Signal(grid, rows[0]), lam)


def _phase_rate(state, params, grid):
    """Omega_0, the rms of the Klein-Gordon rate pq/(c w) over the power
    spectrum of ``state``, its rows pooled; DC and Nyquist, which dt^{-1}
    annihilates, count with rate 0."""
    w = grid.half_omegas
    rate2 = np.zeros(w.size)
    rate2[1:-1] = (params.omega_pe * params.omega_pm / params.c / w[1:-1])**2
    power = np.sum(np.abs(state)**2, axis=0)
    return float(np.sqrt(rate2 @ power / (np.sum(power) or 1.0)))


def kerr_default_steps(entry, x_end, params, n_stations=2):
    """Default Kerr step count for a march from ``entry`` to ``x_end``:
    ``max(4, n_stations - 1, ceil(x_end sigma_0 / KERR_STIFFNESS),
    ceil(x_end Omega_0 / KERR_PHASE_STEP))``.

    sigma_0 is the full grid's cubic-term rate at ``entry`` (a DirectedPair,
    or the Signal Pi of the unidirectional model; :func:`_stiffness`),
    Omega_0 its rms Klein-Gordon rate (:func:`_phase_rate`), at which the
    cubic term turns as seen through the integrating factor.
    """
    # the symbols alone, not a whole right-hand side: its buffers, freed
    # again before the march allocates its own, raised the peak RSS
    grid, state = entry.grid, _entry_spectrum(entry)
    w = grid.half_omegas
    sigma = _stiffness(state, _kerr_k_c(params), -(w * w), grid)
    omega = _phase_rate(state, params, grid)
    return max(4, n_stations - 1,
               int(np.ceil(x_end * sigma / KERR_STIFFNESS)),
               int(np.ceil(x_end * omega / KERR_PHASE_STEP)))


def propagate_nonlinear(dp0, x_end, n_steps, params, grid, n_stations=2):
    """March the coupled Kerr system from the entry plane to x_end, in its
    dt^{-1}-applied first-order form

        dPi/dx     = dt^{-1} [ -(pq/c) Pi     - (K/c) ((Pi-Lambda)_tt)^3 ],
        dLambda/dx = dt^{-1} [ +(pq/c) Lambda + (K/c) ((Pi-Lambda)_tt)^3 ],

    which poses the boundary-regime data as an x-initial-value problem.
    The record keeps ``n_stations`` evenly spread steps, entry and exit
    included; its meta is :func:`_march_rk4`'s.
    """
    if dp0.grid != grid:
        raise GridMismatchError("entry grid differs from requested grid")
    return _march_rk4(_kerr_rhs(params, grid), _entry_spectrum(dp0),
                      x_end, n_steps, n_stations, grid)


def propagate_unidirectional(pi0, x_end, n_steps, params, grid, n_stations=2):
    """Kerr marching with the left wave frozen at zero (and not marched)."""
    if pi0.grid != grid:
        raise GridMismatchError("entry grid differs from requested grid")
    return _march_rk4(_kerr_rhs(params, grid), _entry_spectrum(pi0),
                      x_end, n_steps, n_stations, grid)
