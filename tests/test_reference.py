"""Independent FDTD oracle: vacuum sanity, dispersion, convergence."""

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from metapulse import (
    DrudeParams,
    TimeGrid,
    YeeGrid1D,
    a_symbol,
    run_boundary_source,
)
from metapulse import reference
from metapulse.medium import EPS0, MU0
from metapulse.reference import BLOCK_STEPS, _leapfrog, cubic_spline
from conftest import gaussian_pulse


def test_grid_validation():
    with pytest.raises(ValueError):
        YeeGrid1D(32, 0.01)
    with pytest.raises(ValueError):
        YeeGrid1D(128, 0.01, courant=1.2)
    g = YeeGrid1D(128, 0.01, courant=0.5, c=1.0)
    assert g.dt_fdtd == pytest.approx(0.005)


def _fields(g, e=None, h=None, m=None, q=None):
    """The normalised (e, h, m, q) on the grid's nodes and half nodes, zero
    where not given, as fresh float arrays the leapfrog may overwrite."""
    nx = g.nx
    return [np.array(a if a is not None else np.zeros(n), dtype=float)
            for a, n in ((e, nx), (h, nx - 1), (m, nx - 1), (q, nx))]


def _material(params=None):
    """(wpe, wpm, eps0, mu0) of ``params``, or of SI vacuum without one
    (both plasma frequencies zero)."""
    return ((params.omega_pe, params.omega_pm, params.eps0, params.mu0)
            if params else (0.0, 0.0, EPS0, MU0))


def _stepper(fields, g, params=None):
    """The in-place leapfrog of ``fields`` on g (see ``_material``)."""
    return _leapfrog(*fields, g.dt_fdtd, g.dx, *_material(params))


def _to_si(fields, dt, dx, eps0, mu0):
    """(e, h, j_e, j_m) in SI from the normalised (e, h, m, q):
    h = H dt/(mu0 dx), j_e = Q eps0/dt, j_m = M/dx."""
    e, h, m, q = fields
    return [e, h * (dt / (mu0 * dx)), q * (eps0 / dt), m / dx]


def test_zero_fields_stay_zero(unit_params):
    g = YeeGrid1D(128, 0.05, c=1.0)
    fields = _fields(g)
    advance = _stepper(fields, g, unit_params)
    for _ in range(20):
        advance()
    assert all(np.all(a == 0.0) for a in fields)


def test_vacuum_pulse_speed():
    # SI vacuum: the grid speed must match the material constants
    g = YeeGrid1D(2048, 0.01, courant=0.5)
    c_med = 1.0 / np.sqrt(EPS0 * MU0)
    x = g.x_nodes
    x0, sigma = 4.0, 0.25

    def f(xx):
        return np.exp(-((xx - x0) ** 2) / (2.0 * sigma**2))

    dt = g.dt_fdtd
    # h staggered half a cell right and half a step ahead for a +x wave,
    # stored as H = (mu0 dx/dt) h
    h_si = f(x[:-1] + 0.5 * g.dx + 0.5 * c_med * dt) / (MU0 * c_med)
    fields = _fields(g, e=f(x), h=(MU0 * g.dx / dt) * h_si)
    advance = _stepper(fields, g)
    n_steps = 1000
    for _ in range(n_steps):
        advance()
    peak = x[np.argmax(fields[0])]
    assert abs(peak - (x0 + c_med * n_steps * dt)) <= g.dx


def test_vacuum_energy_conserved():
    g = YeeGrid1D(512, 0.05, courant=0.5)
    x = g.x_nodes
    e = np.exp(-((x - 12.8) ** 2) / (2.0 * 1.0**2))
    e[0] = e[-1] = 0.0
    fields = _fields(g, e=e)
    e, h = fields[:2]
    advance = _stepper(fields, g)
    # staggered-consistent energy e^n e^{n+1} + (h^{n+1/2})^2 is exact for
    # Yee; the SI h is the stored H over mu0 dx/dt
    h_to_si = g.dt_fdtd / (MU0 * g.dx)
    u0 = None
    for _ in range(600):
        e_old = e.copy()
        advance()
        u = (0.5 * EPS0 * np.sum(e_old * e)
             + 0.5 * MU0 * np.sum((h_to_si * h)**2))
        if u0 is None:
            u0 = u
        assert u <= u0 * (1.0 + 1e-10)
        assert u == pytest.approx(u0, rel=1e-10)


def test_superposition(unit_params, rng):
    g = YeeGrid1D(128, 0.05, c=1.0)
    s1, s2 = ([rng.standard_normal(n)
               for n in (g.nx, g.nx - 1, g.nx - 1, g.nx)]
              for _ in range(2))
    both = [a + b for a, b in zip(s1, s2)]
    runs = [_stepper(s, g, unit_params) for s in (s1, s2, both)]
    for _ in range(5):
        for advance in runs:
            advance()
    assert np.max(np.abs(both[0] - s1[0] - s2[0])) <= 1e-12 * np.max(
        np.abs(both[0]))


def test_source_run_rejects_grid_speed_unlike_the_medium():
    # the normalised step's s = courant^2 holds only when the speeds agree;
    # a mismatch ran until the blow-up guard fired
    params = DrudeParams(1.0, 1.0, c=1.0, eps0=1.0, mu0=1.0)
    source = gaussian_pulse(TimeGrid(256, 1.0), carrier=0.3, width=10.0)
    g = YeeGrid1D(128, 0.5, courant=0.5, c=1.0 + 1e-9)
    with pytest.raises(ValueError, match=r"c = 1\.000000001.* c = 1\.0\b"):
        run_boundary_source(source, g, params, 5.0, [2.0])
    # a difference within 1e-12 relative runs
    g = YeeGrid1D(128, 0.5, courant=0.5, c=1.0 + 1e-13)
    run_boundary_source(source, g, params, 5.0, [2.0])


def test_underresolved_warning():
    # the warning points at the driver's caller
    params = DrudeParams(1.0, 1.0, c=1.0, eps0=1.0, mu0=1.0)
    g = YeeGrid1D(128, 2.0, courant=0.5, c=1.0)  # dt = 1.0, wp*dt = 1
    source = gaussian_pulse(TimeGrid(256, 1.0), carrier=0.3, width=10.0)
    with pytest.warns(UserWarning, match="underresolved") as rec:
        run_boundary_source(source, g, params, 5.0, [2.0])
    assert rec[0].filename == __file__


def _advance(e, h, j_e, j_m, dt, dx, wpe, wpm, eps0, mu0):
    """The plain allocating leapfrog update in SI, kept here as the physics
    reference."""
    j_m += dt * mu0 * wpm**2 * h
    h += (dt / mu0) * (-(e[1:] - e[:-1]) / dx - j_m)
    j_e += dt * eps0 * wpe**2 * e
    e[1:-1] += (dt / eps0) * (-(h[1:] - h[:-1]) / dx - j_e[1:-1])


def _advance_normalised(e, h, m, q, dt, dx, wpe, wpm, eps0, mu0):
    """The plain allocating update in the normalised variables, with the
    gains written as the oracle writes them."""
    a, b = (wpm * dt) ** 2, (wpe * dt) ** 2
    s = dt * dt / (eps0 * mu0 * dx * dx)
    m += a * h
    h += (e[:-1] - e[1:]) - m
    q[1:-1] += b * e[1:-1]
    e[1:-1] += s * (h[:-1] - h[1:]) - q[1:-1]


@pytest.mark.parametrize("params, g", [
    # p = q: the evanescent band is one point
    (DrudeParams(1.0, 1.0, c=1.0, eps0=1.0, mu0=1.0),
     YeeGrid1D(256, 0.05, c=1.0)),
    # p != q: a real gap
    (DrudeParams(0.8, 1.25, c=1.0, eps0=1.0, mu0=1.0),
     YeeGrid1D(256, 0.05, c=1.0)),
    # SI scale: GHz plasma frequencies, wp dt = 0.05 and 0.08
    (DrudeParams(2.0 * np.pi * 5e9, 2.0 * np.pi * 8e9),
     YeeGrid1D(256, 1e-3, courant=0.5)),
])
def test_normalised_leapfrog_matches_si_update(params, g, rng):
    dt, dx = g.dt_fdtd, g.dx
    material = _material(params)
    fields = _fields(g, *(rng.standard_normal(n)
                          for n in (g.nx, g.nx - 1, g.nx - 1, g.nx)))
    si = [a.copy() for a in _to_si(fields, dt, dx, params.eps0, params.mu0)]
    advance = _stepper(fields, g, params)
    for _ in range(500):
        advance()
        _advance(*si, dt, dx, *material)
    got = _to_si(fields, dt, dx, params.eps0, params.mu0)
    # the walls' j_e never reaches e, and the normalised step leaves it be
    for name, want, have in zip(("e", "h", "j_e", "j_m"), si, got):
        if name == "j_e":
            want, have = want[1:-1], have[1:-1]
        assert np.max(np.abs(have - want)) <= 1e-12 * np.max(np.abs(want)), name


def test_leapfrog_step_is_eleven_ufuncs_without_allocation(unit_params,
                                                           monkeypatch):
    import tracemalloc
    from types import SimpleNamespace

    g = YeeGrid1D(4096, 0.05, c=1.0)
    fields = _fields(g, e=np.ones(g.nx))
    advance = _stepper(fields, g, unit_params)
    calls = []

    def counted(ufunc):
        def call(*args, **kwargs):
            calls.append(ufunc.__name__)
            return ufunc(*args, **kwargs)
        return call

    ufuncs = {name: counted(getattr(np, name))
              for name in ("add", "subtract", "multiply", "divide")}
    monkeypatch.setattr(reference, "np", SimpleNamespace(**ufuncs))
    advance()
    assert len(calls) == 11 and "divide" not in calls
    monkeypatch.undo()

    tracemalloc.start()
    try:
        advance()
        tracemalloc.reset_peak()
        current, _ = tracemalloc.get_traced_memory()
        for _ in range(3):
            advance()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - current < fields[0].nbytes / 4


def _full_grid_source_run(source, grid1d, params, duration, probes,
                          source_index):
    """Reference oracle loop: B on every half node, the blow-up guard and
    one Python loop over the probes per step, with the source kick read
    from one spline resampling. Raises FloatingPointError carrying the
    first step past the guard."""
    dt, dx, nx = grid1d.dt_fdtd, grid1d.dx, grid1d.nx
    n_steps = int(round(duration / dt))
    idx = [source_index + int(round(xp / dx)) for xp in probes]
    kick = cubic_spline(source.grid.times, source.samples,
                        np.arange(n_steps + 1) * dt)
    src_peak = max(source.peak, 1e-300)
    e, h, m, q = np.zeros(nx), np.zeros(nx - 1), np.zeros(nx - 1), np.zeros(nx)
    b = np.zeros(nx - 1)
    rec_e = np.zeros((len(idx), n_steps + 1))
    rec_b = np.zeros((len(idx), n_steps + 1))
    wall_peak = 0.0
    for n in range(1, n_steps + 1):
        _advance_normalised(e, h, m, q, dt, dx, *_material(params))
        e[source_index] += kick[n] * dt / dx
        b_prev = b.copy()
        b += -dt * (e[1:] - e[:-1]) / dx
        if not np.max(np.abs(e)) <= 1e6 * src_peak:
            raise FloatingPointError(n)
        for k, i in enumerate(idx):
            rec_e[k, n] = e[i]
            rec_b[k, n] = 0.25 * (b_prev[i - 1] + b_prev[i] + b[i - 1] + b[i])
        wall_peak = max(wall_peak,
                        abs(e[1]), abs(e[-2]), abs(e[2]), abs(e[-3]))
    contaminated = wall_peak > 1e-4 * float(np.max(np.abs(rec_e), initial=0.0))
    return rec_e, rec_b, bool(contaminated)


@pytest.mark.filterwarnings("ignore:field activity near the walls")
@pytest.mark.parametrize("nx, i_src, duration, probes, walls_hit", [
    # adjacent probes, the first next to the source, one behind it
    (200, 100, 16.0, [0.1, 0.2, 0.3, -0.1], False),
    # probes on the nodes beside both walls and on the source; the pulse
    # reaches the walls and the run outlasts the source window (zero kick)
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


def _knots(n, uniform, rng):
    if uniform:
        return -3.0 + 0.25 * np.arange(n)
    return np.cumsum(rng.uniform(0.01, 1.0, n))


@pytest.mark.parametrize("uniform", [True, False])
@pytest.mark.parametrize("n", [4, 5, 7, 16, 17, 1024, 1025, 40001])
def test_cubic_spline_matches_scipy_not_a_knot(n, uniform):
    rng = np.random.default_rng(n)
    t = _knots(n, uniform, rng)
    y = rng.standard_normal(n)
    span = t[-1] - t[0]
    # the knots (both ends among them), points between, and points outside
    at = np.concatenate([t, rng.uniform(t[0], t[-1], 3 * n),
                         [t[0] - 0.1 * span, t[0] - 1e-9, t[-1] + 1e-9,
                          t[-1] + 0.1 * span]])
    want = CubicSpline(t, y, extrapolate=False)(at)
    got = cubic_spline(t, y, at)
    outside = ~np.isfinite(want)
    assert outside.sum() == 4
    assert np.all(got[outside] == 0.0)
    assert np.max(np.abs(got - np.where(outside, 0.0, want))) <= (
        1e-13 * np.max(np.abs(want[~outside])))


@pytest.mark.parametrize("t, why", [
    ([0.0, 1.0, np.nan, 3.0, 4.0], "finite"),
    ([0.0, 1.0, np.inf, 3.0, 4.0], "finite"),
    ([0.0, 1.0, 1.0, 3.0, 4.0], "increasing"),
    ([0.0, 2.0, 1.0, 3.0, 4.0], "increasing"),
    ([4.0, 3.0, 2.0, 1.0, 0.0], "increasing"),
    ([0.0, 1.0, 2.0], "at least 4"),
])
def test_cubic_spline_rejects_unusable_knots(t, why):
    with pytest.raises(ValueError, match=why):
        cubic_spline(t, np.ones(len(t)), [0.5])
