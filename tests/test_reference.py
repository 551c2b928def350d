"""Independent FDTD oracle: vacuum sanity, dispersion, convergence."""

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from metapulse import (
    DrudeParams,
    MaxwellState,
    Signal,
    TimeGrid,
    YeeGrid1D,
    a_symbol,
    run_boundary_source,
    step,
)
from metapulse.reference import BLOCK_STEPS, _material
from conftest import gaussian_pulse


def test_grid_validation():
    with pytest.raises(ValueError):
        YeeGrid1D(32, 0.01)
    with pytest.raises(ValueError):
        YeeGrid1D(128, 0.01, courant=1.2)
    g = YeeGrid1D(128, 0.01, courant=0.5, c=1.0)
    assert g.dt_fdtd == pytest.approx(0.005)


def test_state_validation():
    with pytest.raises(ValueError):
        MaxwellState(np.zeros(10), np.zeros(10), np.zeros(10), np.zeros(9))
    with pytest.raises(ValueError):
        MaxwellState(np.full(10, np.inf), np.zeros(9), np.zeros(10), np.zeros(9))


def test_zero_fields_stay_zero(unit_params):
    g = YeeGrid1D(128, 0.05, c=1.0)
    s = MaxwellState.zeros(g)
    for _ in range(20):
        s = step(s, g, unit_params)
    assert np.all(s.e == 0.0) and np.all(s.h == 0.0)


def test_vacuum_pulse_speed():
    # SI vacuum: the grid speed must match the material constants
    g = YeeGrid1D(2048, 0.01, courant=0.5)
    _, _, eps0, mu0 = _material(None)
    c_med = 1.0 / np.sqrt(eps0 * mu0)
    x = g.x_nodes
    x0, sigma = 4.0, 0.25

    def f(xx):
        return np.exp(-((xx - x0) ** 2) / (2.0 * sigma**2))

    dt = g.dt_fdtd
    e = f(x)
    # h staggered half a cell right and half a step ahead for a +x wave
    h = f(x[:-1] + 0.5 * g.dx + 0.5 * c_med * dt) / (mu0 * c_med)
    s = MaxwellState(e, h, np.zeros(g.nx), np.zeros(g.nx - 1))
    n_steps = 1000
    for _ in range(n_steps):
        s = step(s, g, None)
    peak = x[np.argmax(s.e)]
    assert abs(peak - (x0 + c_med * n_steps * dt)) <= g.dx


def test_vacuum_energy_conserved():
    g = YeeGrid1D(512, 0.05, courant=0.5)
    _, _, eps0, mu0 = _material(None)
    x = g.x_nodes
    e = np.exp(-((x - 12.8) ** 2) / (2.0 * 1.0**2))
    e[0] = e[-1] = 0.0
    s = MaxwellState(e, np.zeros(g.nx - 1), np.zeros(g.nx), np.zeros(g.nx - 1))
    # staggered-consistent energy e^n e^{n+1} + (h^{n+1/2})^2 is exact for Yee
    u0 = None
    for _ in range(600):
        s2 = step(s, g, None)
        u = 0.5 * eps0 * np.sum(s.e * s2.e) + 0.5 * mu0 * np.sum(s2.h**2)
        if u0 is None:
            u0 = u
        assert u <= u0 * (1.0 + 1e-10)
        assert u == pytest.approx(u0, rel=1e-10)
        s = s2


def test_superposition(unit_params, rng):
    g = YeeGrid1D(128, 0.05, c=1.0)

    def rand_state():
        return MaxwellState(
            rng.standard_normal(g.nx),
            rng.standard_normal(g.nx - 1),
            rng.standard_normal(g.nx),
            rng.standard_normal(g.nx - 1),
        )

    s1, s2 = rand_state(), rand_state()
    both = MaxwellState(
        s1.e + s2.e, s1.h + s2.h, s1.j_e + s2.j_e, s1.j_m + s2.j_m
    )
    for _ in range(5):
        s1 = step(s1, g, unit_params)
        s2 = step(s2, g, unit_params)
        both = step(both, g, unit_params)
    assert np.max(np.abs(both.e - s1.e - s2.e)) <= 1e-12 * np.max(np.abs(both.e))


def test_underresolved_warning():
    # both drivers warn, and the warning points at their caller
    params = DrudeParams(1.0, 1.0, c=1.0, eps0=1.0, mu0=1.0)
    g = YeeGrid1D(128, 2.0, courant=0.5, c=1.0)  # dt = 1.0, wp*dt = 1
    source = gaussian_pulse(TimeGrid(256, 1.0), carrier=0.3, width=10.0)
    with pytest.warns(UserWarning, match="underresolved") as rec:
        step(MaxwellState.zeros(g), g, params)
    assert rec[0].filename == __file__
    with pytest.warns(UserWarning, match="underresolved") as rec:
        run_boundary_source(source, g, params, 5.0, [2.0])
    assert rec[0].filename == __file__


def _advance(e, h, j_e, j_m, dt, dx, wpe, wpm, eps0, mu0):
    """The plain allocating leapfrog update, kept here as the reference."""
    j_m += dt * mu0 * wpm**2 * h
    h += (dt / mu0) * (-(e[1:] - e[:-1]) / dx - j_m)
    j_e += dt * eps0 * wpe**2 * e
    e[1:-1] += (dt / eps0) * (-(h[1:] - h[:-1]) / dx - j_e[1:-1])


def _full_grid_source_run(source, grid1d, params, duration, probes,
                          source_index):
    """Reference oracle loop: B on every half node, one spline call, the
    blow-up guard and one Python loop over the probes per step. Raises
    FloatingPointError carrying the first step past the guard."""
    wpe, wpm, eps0, mu0 = _material(params)
    dt, dx, nx = grid1d.dt_fdtd, grid1d.dx, grid1d.nx
    n_steps = int(round(duration / dt))
    idx = [source_index + int(round(xp / dx)) for xp in probes]
    src = CubicSpline(source.grid.times, source.samples, extrapolate=False)
    src_peak = max(source.peak, 1e-300)
    e, h, j_e, j_m = np.zeros(nx), np.zeros(nx - 1), np.zeros(nx), np.zeros(nx - 1)
    b = np.zeros(nx - 1)
    rec_e = np.zeros((len(idx), n_steps + 1))
    rec_b = np.zeros((len(idx), n_steps + 1))
    wall_peak = 0.0
    for n in range(1, n_steps + 1):
        _advance(e, h, j_e, j_m, dt, dx, wpe, wpm, eps0, mu0)
        sval = src(n * dt)
        if np.isfinite(sval):
            e[source_index] += float(sval) * dt / dx
        b_prev = b.copy()
        b += -dt * (e[1:] - e[:-1]) / dx
        if not np.max(np.abs(e)) <= 1e6 * src_peak:
            raise FloatingPointError(n)
        for m, i in enumerate(idx):
            rec_e[m, n] = e[i]
            rec_b[m, n] = 0.25 * (b_prev[i - 1] + b_prev[i] + b[i - 1] + b[i])
        wall_peak = max(wall_peak,
                        abs(e[1]), abs(e[-2]), abs(e[2]), abs(e[-3]))
    contaminated = wall_peak > 1e-4 * float(np.max(np.abs(rec_e), initial=0.0))
    return rec_e, rec_b, bool(contaminated)


@pytest.mark.filterwarnings("ignore:field activity near the walls")
@pytest.mark.parametrize("nx, i_src, duration, probes, walls_hit", [
    # adjacent probes, the first next to the source, one behind it
    (200, 100, 16.0, [0.1, 0.2, 0.3, -0.1], False),
    # probes on the nodes beside both walls and on the source; the pulse
    # reaches the walls and the run outlasts the source window (NaN tail)
    (80, 40, 60.0, [-3.9, 0.0, 3.8], True),
    # shorter than one block of steps (dt = 0.05)
    (200, 100, 5.0, [0.1, 0.2, 0.3, -0.1], False),
    # exactly two blocks of steps; the pulse reaches the walls
    (200, 100, 2 * BLOCK_STEPS * 0.05, [0.1, 0.2, 0.3, -0.1], True),
    # source midway between the walls: the fronts have passed the 1e-4
    # threshold at nodes 3 and nx-4 (1.3x) but not at nodes 2 and nx-3
    # (0.87x), so reading any tap one node inwards flips the flag
    (201, 100, 18.0, [0.1, 0.2, 0.3, -0.1], False),
])
def test_source_run_records_match_full_grid_loop(nx, i_src, duration, probes,
                                                 walls_hit):
    params = DrudeParams(0.8, 1.25, c=1.0, eps0=1.0, mu0=1.0)
    source = gaussian_pulse(TimeGrid(128, 0.2), carrier=0.5, width=2.5)
    g = YeeGrid1D(nx, 0.1, courant=0.5, c=1.0)
    out = run_boundary_source(source, g, params, duration, probes,
                              source_index=i_src)
    rec_e, rec_b, contaminated = _full_grid_source_run(
        source, g, params, duration, probes, i_src)
    assert contaminated is walls_hit
    assert out["contaminated"] is contaminated
    assert np.stack(out["e"]).tobytes() == rec_e.tobytes()
    assert np.stack(out["b"]).tobytes() == rec_b.tobytes()
    assert np.all(np.max(np.abs(rec_b), axis=1) > 0.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_source_run_aborts_on_blow_up_within_one_block():
    # dt * wp = 10: the leapfrog is unstable, overflows to inf and then to
    # NaN well inside the first block; a NaN-blind guard returned NaN records
    params = DrudeParams(10.0, 10.0, c=1.0, eps0=1.0, mu0=1.0)
    g = YeeGrid1D(128, 2.0, courant=0.5, c=1.0)
    source = gaussian_pulse(TimeGrid(256, 1.0), carrier=0.3, width=10.0)
    duration = 250 * g.dt_fdtd
    with pytest.warns(UserWarning, match="underresolved"):
        with pytest.raises(FloatingPointError) as old:
            _full_grid_source_run(source, g, params, duration, [2.0], 32)
        with pytest.raises(FloatingPointError, match="by step") as new:
            run_boundary_source(source, g, params, duration, [2.0],
                                source_index=32)
    first = old.value.args[0]
    aborted = int(str(new.value).rsplit(" ", 1)[1])
    assert first <= aborted < first + BLOCK_STEPS


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_step_guard_catches_nan():
    # j_m overflows to inf, so h = (inf - inf) and then e turn NaN in one
    # step, which a NaN-blind comparison lets through
    params = DrudeParams(10.0, 10.0, c=1.0, eps0=1.0, mu0=1.0)
    g = YeeGrid1D(64, 2.0, courant=0.5, c=1.0)
    s = MaxwellState(np.resize([1e308, -1e308], 64), np.full(63, 1e308),
                     np.zeros(64), np.zeros(63))
    with pytest.warns(UserWarning, match="underresolved"):
        with pytest.raises(FloatingPointError):
            step(s, g, params, source_peak=1.0)


def _probe_run(dx, probes, duration=400.0, pad=85.0):
    params = DrudeParams(1.0, 1.0, c=1.0, eps0=1.0, mu0=1.0)
    src_grid = TimeGrid(4096, 0.1)
    source = gaussian_pulse(src_grid, carrier=0.3, width=30.0)
    nx = int(round((max(probes) + 2.0 * pad) / dx))
    g = YeeGrid1D(nx, dx, courant=0.5, c=1.0)
    out = run_boundary_source(source, g, params, duration, probes)
    return source, out


def test_causality_and_probe_phase():
    params = DrudeParams(1.0, 1.0, c=1.0, eps0=1.0, mu0=1.0)
    source, out = _probe_run(0.02, [1.0, 1.5])
    assert not out["contaminated"]

    # causality: the probe is quiet before the front can arrive
    t = out["t"]
    t_start = 0.5 * source.grid.window - 6.0 * 30.0  # envelope onset
    quiet = t < t_start
    assert np.max(np.abs(out["e"][0][quiet])) <= 1e-6 * source.peak

    # transfer phase between the two probes matches k(w) = w a(w)
    s1 = np.fft.rfft(out["e"][0])
    s2 = np.fft.rfft(out["e"][1])
    w = 2.0 * np.pi * np.fft.rfftfreq(t.size, t[1] - t[0])
    occupied = np.abs(s1) > 0.1 * np.max(np.abs(s1))
    occupied &= (w > 0.26) & (w < 0.34)
    assert np.count_nonzero(occupied) >= 3
    k_meas = -np.angle(s2[occupied] / s1[occupied]) / 0.5
    k_true = w[occupied] * a_symbol(params, w[occupied])
    # negative-index band: measured k reproduces the backward phase
    assert np.max(np.abs(k_meas - k_true) / np.abs(k_true)) <= 0.005
    k03 = np.interp(0.3, w[occupied], k_meas)
    assert abs(k03 - 0.3 * a_symbol(params, 0.3)) <= 0.01 * abs(
        0.3 * a_symbol(params, 0.3)
    )


def test_probe_errors():
    params = DrudeParams(1.0, 1.0, c=1.0, eps0=1.0, mu0=1.0)
    src_grid = TimeGrid(1024, 0.1)
    source = gaussian_pulse(src_grid, carrier=0.3, width=10.0)
    g = YeeGrid1D(256, 0.02, courant=0.5, c=1.0)
    with pytest.raises(ValueError):
        run_boundary_source(source, g, params, 10.0, [100.0])
    with pytest.raises(ValueError):
        run_boundary_source(source, g, params, 10.0, [0.0301])
    # 1e-4 cells off a node is off the grid
    with pytest.raises(ValueError, match="not on a grid node"):
        run_boundary_source(source, g, params, 10.0, [0.02 * (1 + 1e-4)])


def test_convergence_second_order():
    params = DrudeParams(1.0, 1.0, c=1.0, eps0=1.0, mu0=1.0)
    src_grid = TimeGrid(2048, 0.1)
    source = gaussian_pulse(src_grid, carrier=0.3, width=15.0)
    duration, probe, pad = 200.0, 0.48, 60.0

    def probe_series(dx):
        nx = int(round((probe + 2.0 * pad) / dx))
        g = YeeGrid1D(nx, dx, courant=0.5, c=1.0)
        out = run_boundary_source(source, g, params, duration, [probe])
        spline = CubicSpline(out["t"], out["e"][0])
        tt = src_grid.times[src_grid.times <= duration - 1.0]
        return spline(tt)

    ref = probe_series(0.01)
    scale = np.linalg.norm(ref)
    errs = [
        np.linalg.norm(probe_series(dx) - ref) / scale for dx in (0.08, 0.04, 0.02)
    ]
    assert errs[0] < 0.05
    ratios = np.array(errs[:-1]) / np.array(errs[1:])
    assert np.all(ratios >= 3.0) and np.all(ratios <= 5.5)
