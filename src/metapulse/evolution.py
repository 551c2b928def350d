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
  after applying dt^{-1} (Lawson RK4: the linear Klein-Gordon phase is
  applied exactly as an integrating factor; the cubic term, evaluated
  pointwise in time under a fixed 2/3-rule mask, which dealiases
  quadratic terms but not this cubic one (see ``_half_spectrum``), and the
  phase that the factor turns it through set the step, and
  ``kerr_default_steps`` derives a count from the entry state).
  The march state is one stacked complex array of real half-spectra (rfft
  bins 0..n/2), one row per field: two rows for (Pi, Lambda), one row for
  the unidirectional model, which is the same right-hand side with Lambda
  frozen at zero. Both Kerr marchers keep only ``n_stations`` evenly
  spread steps (default 2: entry and exit), so memory grows with the
  stations kept, not with ``n_steps``.

The two linear models are diagonal in frequency: given a 1-D sequence of
distances, each returns one DirectedPair per distance from one rfft of the
entry pair, one (stations x bins) phase table and one stacked irfft.

The dimensionless form pi = Pi_tt/alpha, lam = Lambda_tt/alpha, zeta = x/beta
with alpha = sqrt(2 p^4 q^2 / (mu0 chi3 c^3)), beta = c/(pq) has unit
coefficients. Its solver lives in the test suite, beside the acceptance
test it serves: it keeps its own right-hand side as the independent
reference that the physical path is checked against.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import BlowUpError, GridMismatchError
from .spectral import Signal, make_multiplier
from .waves import DirectedPair

__all__ = [
    "PropagationRecord",
    "propagate_linear_exact",
    "propagate_kg",
    "propagate_nonlinear",
    "propagate_unidirectional",
    "kerr_default_steps",
    "KERR_STIFFNESS",
    "KERR_PHASE_STEP",
]

#: h sigma_0 that default Kerr step counts stay at or below: about 0.71 of
#: the 2 sqrt(2) limit of RK4 on the imaginary axis
KERR_STIFFNESS = 2.0

#: h Omega_0 that default Kerr step counts stay at or below: the rms
#: Klein-Gordon phase a step advances the entry spectrum by, in radians
KERR_PHASE_STEP = 0.25


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


def _entry_spectrum(entry, grid):
    """Stacked rfft half-spectra of an entry on ``grid``: (Pi-hat,
    Lambda-hat) of a DirectedPair, (Pi-hat,) of a Signal (Pi)."""
    if entry.grid != grid:
        raise GridMismatchError("entry grid differs from requested grid")
    if isinstance(entry, DirectedPair):
        return np.fft.rfft([entry.pi.samples, entry.lam.samples])
    return np.fft.rfft(entry.samples[None])


def _advance(spec, grid, theta):
    """One pair per row of the (stations, bins) phase table ``theta``: the
    entry half-spectra ``spec`` (Pi-hat, Lambda-hat) times exp(-/+ i theta),
    with DC and Nyquist kept, through one stacked irfft."""
    factors = 1j * np.array([[-1.0], [1.0]]) * theta[:, None, :]
    np.exp(factors, out=factors)
    factors[..., [0, -1]] = 1.0
    factors *= spec
    return [DirectedPair(Signal(grid, pi), Signal(grid, lam))
            for pi, lam in np.fft.irfft(factors, grid.n)]


def propagate_linear_exact(dp0, xs, params, grid):
    """Exact linear propagation to each distance x >= 0 in ``xs``: per-bin
    phase -/+ w a(w) x. Returns one DirectedPair per distance."""
    xs = _distances(xs)
    a_vals = make_multiplier("a", params, grid).values.real
    theta = np.multiply.outer(xs, grid.half_omegas * a_vals)
    return _advance(_entry_spectrum(dp0, grid), grid, theta)


def propagate_kg(dp0, xs, params, grid):
    """Klein-Gordon-Fock propagation to each distance x >= 0 in ``xs``:
    per-bin phase +/- pq x/(c w). Returns one DirectedPair per distance.

    Valid for spectra concentrated well below the plasma frequencies; warns
    when significant energy sits above min(p, q) / 2.
    """
    xs = _distances(xs)
    spec = _entry_spectrum(dp0, grid)
    w, w_max = grid.half_omegas, 0.5 * params.band_low
    mag = np.abs(spec).sum(axis=0)
    if np.max(mag[w > w_max], initial=0.0) > 1e-6 * np.max(mag):
        warnings.warn(f"spectral content above {w_max:g} rad/s; the long-wave "
                      "reduction may be inaccurate", stacklevel=2)
    pq_c = params.omega_pe * params.omega_pm / params.c
    theta = np.zeros((xs.size, w.size))
    theta[:, 1:] = np.divide.outer(-pq_c * xs, w[1:])
    return _advance(spec, grid, theta)


def _half_spectrum(grid):
    """dt^{-1}, w^2 and the 2/3-rule mask on the rfft bins 0..n/2.

    The mask keeps bins k <= n/3, which dealiases quadratic terms only: a
    tone at n/4 < k <= n/3 cubes into bin 3k, an alias of kept bin n - 3k.
    dt^{-1} annihilates DC and the unpaired Nyquist bin.
    """
    inv_iw = make_multiplier("d_dt_inv", None, grid).values
    w = grid.half_omegas
    mask = (np.arange(w.size) <= grid.n // 3).astype(float)
    return inv_iw, w * w, mask


def _cube(grid):
    """``cube(u_hat)``: half-spectrum of the pointwise cube of u_hat's time
    image, written into one buffer that every call reuses and returns."""
    u = np.empty(grid.n)
    u3 = np.empty(grid.n)
    out = np.empty(grid.n // 2 + 1, dtype=complex)

    def cube(u_hat):
        np.fft.irfft(u_hat, grid.n, out=u)
        np.multiply(u, u, out=u3)
        np.multiply(u3, u, out=u3)
        return np.fft.rfft(u3, out=out)

    return cube


def _kerr_rhs(params, grid):
    """The physical Kerr system on stacked half-spectra, split for
    :func:`_march_rk4` into a diagonal linear part and a cubic term.

    Returns ``rhs(state, out)``, the cubic term: a state of two rows
    (Pi-hat, Lambda-hat) follows the coupled system of
    :func:`propagate_nonlinear`, a state of one row its first row with
    Lambda frozen at zero, the unidirectional equation. Row by row it is
    ``-+ nl * cube(-w^2 mask u)`` with u = Pi - Lambda and
    ``nl = (K/c) dt^{-1} mask``; every intermediate lives in a buffer made
    here, so a call allocates no array. ``rhs.lin`` holds the linear part
    ``-+(pq/c) dt^{-1}`` per row, which :func:`_march_rk4` reads, and
    ``rhs.stiffness(state)`` is the state's sigma_0 (see :func:`_stiffness`).
    """
    inv_iw, w2, mask = _half_spectrum(grid)
    pq_c = params.omega_pe * params.omega_pm / params.c
    k_c = _kerr_k_c(params)
    nl = -k_c * (inv_iw * mask)
    # complex, so that multiplying a complex row needs no casting buffer
    to_cube = (-w2 * mask).astype(complex)
    cube = _cube(grid)
    u_hat = np.empty_like(to_cube)

    def rhs(state, out):
        u = np.subtract(*state, out=u_hat) if len(state) == 2 else state[0]
        np.multiply(to_cube, u, out=u_hat)
        np.multiply(nl, cube(u_hat), out=out[0])
        if len(state) == 2:
            np.negative(out[0], out=out[1])
        return out

    rhs.lin = np.array([[-1.0], [1.0]]) * (pq_c * inv_iw)
    rhs.stiffness = lambda state: _stiffness(state, k_c, to_cube, grid)
    return rhs


def _kerr_k_c(params):
    """K/c = mu0 chi3 c^2 / (2 p^3 q), the cubic term's coefficient."""
    return (params.mu0 * params.chi3 * params.c**2
            / (2.0 * params.omega_pe**3 * params.omega_pm))


def _stiffness(state, coefficient, to_cube, grid):
    """sigma_0 = 3 rows coefficient max_t(v^2) w_top, the largest rate of
    the cubic term linearized about ``state``.

    v is the time image of ``to_cube * u_hat``, the cube's input, so the
    term's Jacobian is 3 coefficient v^2 times dt^{-1} w^2 per bin, largest
    at w_top, the highest bin the Kerr symbol reaches, n//3 under the 2/3
    rule. A coupled state feeds u = Pi - Lambda to two rows.
    """
    u = state[0] - state[1] if len(state) == 2 else state[0]
    v = np.fft.irfft(to_cube * u, grid.n)
    w_top = grid.half_omegas[grid.n // 3]
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
    ``out`` and returns it. A step allocates no array: the stages reuse
    three buffers, and v and then the new state go to a fourth that swaps
    with the old. The stage weights of 2 are applied in place; (2k)(h/4)
    equals k(h/2) exactly. The kept steps are
    ``linspace(0, n_steps, n_stations)`` truncated to integers, duplicates
    dropped, so entry and exit are always kept. The record's meta holds
    ``kerr_stiffness`` and ``kerr_stiffness_exit``, h sigma with sigma the
    cubic term's rate ``rhs.stiffness(state)`` at entry and at exit; the
    method is stable up to about 2 sqrt(2), so an exit value above that
    flags a march that steepened past its step. Aborts via BlowUpError
    when the state turns non-finite; its record holds the stations kept
    so far plus the last finite state.
    """
    if not x_end > 0:
        raise ValueError(f"x_end (zeta_end) must be positive, got {x_end!r}")
    if n_steps < 4:
        raise ValueError(f"n_steps must be at least 4, got {n_steps!r}")
    if n_stations < 2:
        raise ValueError(f"n_stations must be at least 2, got {n_stations!r}")
    h = x_end / n_steps
    meta = {"kerr_stiffness": h * rhs.stiffness(state)}
    half = np.exp(0.5 * h * rhs.lin[:len(state)])
    keep = set(np.linspace(0, n_steps, n_stations).astype(int).tolist())
    steps = [0]
    states = [_to_pair(grid, state)]
    acc, k, arg, new = (np.empty_like(state) for _ in range(4))
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, n_steps + 1):
            rhs(state, k)
            np.multiply(half, state, out=new)
            np.multiply(half, k, out=acc)
            np.multiply(acc, 0.5 * h, out=arg)
            arg += new
            for weight in (0.25, 0.5):
                rhs(arg, k)
                k *= 2.0
                acc += k
                np.multiply(k, weight * h, out=arg)
                arg += new
            arg *= half
            rhs(arg, k)
            acc *= h / 6.0
            acc += new
            acc *= half
            k *= h / 6.0
            np.add(acc, k, out=new)
            if not np.all(np.isfinite(new)):
                if steps[-1] != step - 1:
                    steps.append(step - 1)
                    states.append(_to_pair(grid, state))
                partial = PropagationRecord(
                    np.array(steps) * h, states,
                    {**meta, "aborted_at": step * h})
                raise BlowUpError(
                    f"non-finite state at step {step} (x = {step * h:g}) "
                    f"with kerr_stiffness {meta['kerr_stiffness']:.3g}; "
                    + _more_steps(meta["kerr_stiffness"], n_steps),
                    record=partial)
            state, new = new, state
            if step in keep:
                steps.append(step)
                states.append(_to_pair(grid, state))
    meta["kerr_stiffness_exit"] = h * rhs.stiffness(state)
    return PropagationRecord(np.array(steps) * h, states, meta)


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


def kerr_default_steps(entry, x_end, params, grid, n_stations=2):
    """Default Kerr step count for a march from ``entry`` to ``x_end``:
    ``max(4, n_stations - 1, ceil(x_end sigma_0 / KERR_STIFFNESS),
    ceil(x_end Omega_0 / KERR_PHASE_STEP))``.

    sigma_0 is the entry's cubic-term rate, 6 (K/c) max_t(u_tt^2) w_top for
    the coupled system (``entry`` a DirectedPair) and 3 (K/c) max_t(Pi_tt^2)
    w_top for the unidirectional equation (``entry`` the Signal Pi), with
    u_tt the masked cube input and w_top the highest bin the Kerr symbol
    reaches; h sigma_0 <= KERR_STIFFNESS keeps the cubic term stable.
    Omega_0 is the entry's rms Klein-Gordon rate (see :func:`_phase_rate`):
    the integrating factor carries that phase exactly, but the cubic term
    seen through it turns at such rates, and RK4 resolves it only while a
    step advances the phase by a fraction of a radian.
    """
    # the symbols alone, not a whole right-hand side: its buffers, freed
    # again before the march allocates its own, raised the peak RSS
    _, w2, mask = _half_spectrum(grid)
    state = _entry_spectrum(entry, grid)
    sigma = _stiffness(state, _kerr_k_c(params), -w2 * mask, grid)
    omega = _phase_rate(state, params, grid)
    return max(4, n_stations - 1,
               int(np.ceil(x_end * sigma / KERR_STIFFNESS)),
               int(np.ceil(x_end * omega / KERR_PHASE_STEP)))


def propagate_nonlinear(dp0, x_end, n_steps, params, grid, n_stations=2):
    """March the coupled Kerr system from the entry plane to x_end.

    The second-order-in-(x,t) system is integrated in its dt^{-1}-applied
    first-order form

        dPi/dx     = dt^{-1} [ -(pq/c) Pi     - (K/c) ((Pi-Lambda)_tt)^3 ],
        dLambda/dx = dt^{-1} [ +(pq/c) Lambda + (K/c) ((Pi-Lambda)_tt)^3 ],

    which poses the boundary-regime data as an x-initial-value problem.
    Lawson RK4 carries the linear (Klein-Gordon) phase exactly, so only the
    cubic term limits the step's stability; the record's
    ``kerr_stiffness`` meta is h sigma_0 (see :func:`kerr_default_steps`)
    and ``kerr_stiffness_exit`` the same number at x_end. The record keeps
    ``n_stations`` evenly spread steps, entry and exit included.
    """
    return _march_rk4(_kerr_rhs(params, grid), _entry_spectrum(dp0, grid),
                      x_end, n_steps, n_stations, grid)


def propagate_unidirectional(pi0, x_end, n_steps, params, grid, n_stations=2):
    """Kerr marching with the left wave frozen at zero (and not marched)."""
    return _march_rk4(_kerr_rhs(params, grid), _entry_spectrum(pi0, grid),
                      x_end, n_steps, n_stations, grid)
