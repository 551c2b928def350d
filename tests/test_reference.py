"""Independent FDTD oracle: vacuum sanity, dispersion, convergence."""

import numpy as np
import pytest

from metapulse import (
    DrudeParams,
    Signal,
    TimeGrid,
    YeeGrid1D,
    a_symbol,
    run_boundary_source,
)
from metapulse import reference
from metapulse.medium import C, EPS0, MU0
from metapulse.reference import BLOCK_STEPS, _leapfrog, upsample
from conftest import gaussian_pulse


def test_grid_validation():
    with pytest.raises(ValueError, match="at least 64"):
        YeeGrid1D(32, 0.01, 0.005)
    for dx, dt in ((0.0, 0.005), (0.01, 0.0), (0.01, -0.005)):
        with pytest.raises(ValueError, match="positive"):
            YeeGrid1D(128, dx, dt)


def _material(params=None):
    """(wpe, wpm, eps0, mu0) of ``params``, or of SI vacuum without one
    (both plasma frequencies zero)."""
    return ((params.omega_pe, params.omega_pm, params.eps0, params.mu0)
            if params else (0.0, 0.0, EPS0, MU0))


def _stepper(g, params=None, e=None, h=None, m=None, q=None):
    """The in-place leapfrog on g (see ``_material``) and its normalised
    (e, h, m, q) on the grid's nodes and half nodes, set to the values
    given and zero elsewhere."""
    advance, fields = _leapfrog(g.nx, g.dt_fdtd, g.dx, *_material(params))
    for a, values in zip(fields, (e, h, m, q)):
        if values is not None:
            a[:] = values
    return advance, fields


def _to_si(fields, dt, dx, eps0, mu0):
    """(e, h, j_e, j_m) in SI from the normalised (e, h, m, q):
    h = H dt/(mu0 dx), j_e = Q eps0/dt, j_m = M/dx."""
    e, h, m, q = fields
    return [e, h * (dt / (mu0 * dx)), q * (eps0 / dt), m / dx]


def test_zero_fields_stay_zero(unit_params):
    g = YeeGrid1D(128, 0.05, 0.025)
    advance, fields = _stepper(g, unit_params)
    for _ in range(20):
        advance()
    assert all(np.all(a == 0.0) for a in fields)


def test_vacuum_pulse_speed():
    # SI vacuum: the grid speed must match the material constants
    g = YeeGrid1D(2048, 0.01, 0.005 / C)
    c_med = 1.0 / np.sqrt(EPS0 * MU0)
    x = np.arange(g.nx) * g.dx
    x0, sigma = 4.0, 0.25

    def f(xx):
        return np.exp(-((xx - x0) ** 2) / (2.0 * sigma**2))

    dt = g.dt_fdtd
    # h staggered half a cell right and half a step ahead for a +x wave,
    # stored as H = (mu0 dx/dt) h
    h_si = f(x[:-1] + 0.5 * g.dx + 0.5 * c_med * dt) / (MU0 * c_med)
    advance, fields = _stepper(g, e=f(x), h=(MU0 * g.dx / dt) * h_si)
    n_steps = 1000
    for _ in range(n_steps):
        advance()
    peak = x[np.argmax(fields[0])]
    assert abs(peak - (x0 + c_med * n_steps * dt)) <= g.dx


def test_vacuum_energy_conserved():
    g = YeeGrid1D(512, 0.05, 0.025 / C)
    x = np.arange(g.nx) * g.dx
    e = np.exp(-((x - 12.8) ** 2) / (2.0 * 1.0**2))
    e[-1] = 0.0
    advance, (e, h, _, _) = _stepper(g, e=e)
    # staggered-consistent energy e^n e^{n+1} + (h^{n+1/2})^2 is exact for
    # Yee; the SI h is the stored H over mu0 dx/dt. Node 0 sits on the
    # symmetry plane, so half its cell lies on this side
    h_to_si = g.dt_fdtd / (MU0 * g.dx)
    cell = np.ones(g.nx)
    cell[0] = 0.5
    u0 = None
    for _ in range(600):
        e_old = e.copy()
        advance()
        u = (0.5 * EPS0 * np.sum(cell * e_old * e)
             + 0.5 * MU0 * np.sum((h_to_si * h)**2))
        if u0 is None:
            u0 = u
        assert u <= u0 * (1.0 + 1e-10)
        assert u == pytest.approx(u0, rel=1e-10)


def test_superposition(unit_params, rng):
    g = YeeGrid1D(128, 0.05, 0.025)
    s1, s2 = ([rng.standard_normal(n)
               for n in (g.nx, g.nx - 1, g.nx - 1, g.nx)]
              for _ in range(2))
    both = [a + b for a, b in zip(s1, s2)]
    runs = [_stepper(g, unit_params, *s) for s in (s1, s2, both)]
    for _ in range(5):
        for advance, _ in runs:
            advance()
    e1, e2, e12 = (fields[0] for _, fields in runs)
    assert np.max(np.abs(e12 - e1 - e2)) <= 1e-12 * np.max(np.abs(e12))


@pytest.mark.filterwarnings("ignore:plasma frequency underresolved")
@pytest.mark.parametrize("courant, runs", [
    pytest.param(1.0, False, id="1"),
    pytest.param(0.99 * 1.000000002, False, id="0.99-past-2e-9"),
    pytest.param(0.99 * 1.000000001, True, id="0.99-past-1e-9")])
def test_source_run_refuses_a_courant_number_past_the_bound(courant, runs,
                                                           monkeypatch):
    # one step a sample at c dt / dx = courant, with the medium's c: past
    # MAX_COURANT by more than the 1e-9 of steps_per_sample, the run
    # refuses before any step and names the bound
    params = DrudeParams(1.0, 1.0, c=1.0, eps0=1.0, mu0=1.0)
    source = gaussian_pulse(TimeGrid(256, courant), carrier=0.3, width=10.0)
    g = YeeGrid1D(128, 1.0, courant)
    built = []

    def spy(*args):
        built.append(None)
        return _leapfrog(*args)

    monkeypatch.setattr(reference, "_leapfrog", spy)
    if runs:
        assert run_boundary_source(source, g, params, 5.0,
                                   [2.0])["steps_per_sample"] == 1
        return
    with pytest.raises(ValueError, match=r"Courant number .* exceeds 0\.99$"):
        run_boundary_source(source, g, params, 5.0, [2.0])
    assert built == []


@pytest.mark.parametrize("dx, steps", [(0.6, r"0\.3"), (4.0, r"2\.0"),
                                       (0.7, r"0\.35")])
def test_source_run_rejects_a_step_that_does_not_divide_the_source(dx,
                                                                   steps):
    # the records are every m-th step on the source's grid, so m steps
    # must make its dt: 3.33, 0.5 and 2.86 steps per sample are refused
    params = DrudeParams(1.0, 1.0, c=1.0, eps0=1.0, mu0=1.0)
    source = gaussian_pulse(TimeGrid(256, 1.0), carrier=0.3, width=10.0)
    g = YeeGrid1D(128, dx, 0.5 * dx)
    with pytest.raises(ValueError, match=f"step {steps}.* step 1\\.0 s"):
        run_boundary_source(source, g, params, 5.0, [2.0])


@pytest.mark.parametrize("m", [1, 3, 10])
def test_upsample_is_the_sources_trigonometric_interpolant(m, rng):
    # every bin filled, the Nyquist one too; the direct sum over samples of
    # (1/n) [1 + 2 sum_{0<k<n/2} cos(w_k s) + cos(w_{n/2} s)], s = t - t_j,
    # is the real interpolant of period n dt that passes through them
    grid = TimeGrid(64, 0.3)
    source = Signal(grid, rng.standard_normal(grid.n))
    t = np.arange(m * grid.n) * (grid.dt / m)
    s = t[:, None] - grid.times[None, :]
    w = 2.0 * np.pi * np.arange(1, grid.n // 2 + 1) / grid.window
    terms = np.cos(w[None, None, :] * s[:, :, None])
    kernel = (1.0 + 2.0 * terms[:, :, :-1].sum(axis=2) + terms[:, :, -1])
    want = kernel @ source.samples / grid.n
    got = upsample(source, m)
    assert got.shape == t.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * source.peak
    assert np.max(np.abs(got[::m] - source.samples)) <= 1e-12 * source.peak


def test_underresolved_warning():
    # the warning points at the driver's caller
    params = DrudeParams(1.0, 1.0, c=1.0, eps0=1.0, mu0=1.0)
    g = YeeGrid1D(128, 2.0, 1.0)  # wp*dt = 1
    source = gaussian_pulse(TimeGrid(256, 1.0), carrier=0.3, width=10.0)
    with pytest.warns(UserWarning, match="underresolved") as rec:
        run_boundary_source(source, g, params, 5.0, [2.0])
    assert rec[0].filename == __file__


def _advance(e, h, j_e, j_m, dt, dx, wpe, wpm, eps0, mu0):
    """The plain allocating leapfrog update in SI, the H at -dx/2 the
    mirror image -H(dx/2) of node 0's symmetry plane, kept here as the
    physics reference."""
    j_m += dt * mu0 * wpm**2 * h
    h += (dt / mu0) * (-(e[1:] - e[:-1]) / dx - j_m)
    j_e += dt * eps0 * wpe**2 * e
    h_behind = np.concatenate([-h[:1], h[:-1]])
    e[:-1] += (dt / eps0) * (-(h - h_behind) / dx - j_e[:-1])


def _advance_normalised(e, h, m, q, dt, dx, wpe, wpm, eps0, mu0, g_h, g_e,
                        kick=0.0):
    """The plain allocating update in the normalised variables, with the
    gains written as the oracle writes them, each Drude current damped by
    its factors ``g_h`` or ``g_e`` once it has taken its field, and the
    ghost H at -dx/2 set to ``kick`` - H(dx/2)."""
    a, b = (wpm * dt) ** 2, (wpe * dt) ** 2
    s = dt * dt / (eps0 * mu0 * dx * dx)
    m += a * h
    m *= g_h
    h += (e[:-1] - e[1:]) - m
    q[:-1] += b * e[:-1]
    q[:-1] *= g_e[:-1]
    e[:-1] += s * (np.concatenate([[kick - h[0]], h[:-1]]) - h) - q[:-1]


@pytest.mark.parametrize("params, g", [
    # p = q: the evanescent band is one point
    (DrudeParams(1.0, 1.0, c=1.0, eps0=1.0, mu0=1.0),
     YeeGrid1D(256, 0.05, 0.025)),
    # p != q: a real gap
    (DrudeParams(0.8, 1.25, c=1.0, eps0=1.0, mu0=1.0),
     YeeGrid1D(256, 0.05, 0.025)),
    # SI scale: GHz plasma frequencies, wp dt = 0.05 and 0.08
    (DrudeParams(2.0 * np.pi * 5e9, 2.0 * np.pi * 8e9),
     YeeGrid1D(256, 1e-3, 5e-4 / C)),
])
def test_normalised_leapfrog_matches_si_update(params, g, rng):
    dt, dx = g.dt_fdtd, g.dx
    material = _material(params)
    advance, fields = _stepper(g, params, *(
        rng.standard_normal(n) for n in (g.nx, g.nx - 1, g.nx - 1, g.nx)))
    si = [a.copy() for a in _to_si(fields, dt, dx, params.eps0, params.mu0)]
    for _ in range(500):
        advance()
        _advance(*si, dt, dx, *material)
    got = _to_si(fields, dt, dx, params.eps0, params.mu0)
    # the wall's j_e never reaches e, and the normalised step leaves it be
    for name, want, have in zip(("e", "h", "j_e", "j_m"), si, got):
        if name == "j_e":
            want, have = want[:-1], have[:-1]
        assert np.max(np.abs(have - want)) <= 1e-12 * np.max(np.abs(want)), name


def test_leapfrog_step_is_ten_ufuncs_without_allocation(unit_params,
                                                        monkeypatch):
    import tracemalloc

    g = YeeGrid1D(4096, 0.05, 0.025)
    calls = []

    def counted(ufunc):
        def call(*args, **kwargs):
            calls.append(ufunc.__name__)
            return ufunc(*args, **kwargs)
        return call

    # the step binds its ufuncs when it is made
    for name in ("add", "subtract", "multiply", "divide"):
        monkeypatch.setattr(np, name, counted(getattr(np, name)))
    advance, fields = _stepper(g, unit_params, e=np.ones(g.nx))
    calls.clear()
    advance(0.5)
    assert len(calls) == 10 and "divide" not in calls
    monkeypatch.undo()

    advance, fields = _stepper(g, unit_params, e=np.ones(g.nx))
    tracemalloc.start()
    try:
        advance(0.5)
        tracemalloc.reset_peak()
        current, _ = tracemalloc.get_traced_memory()
        for _ in range(3):
            advance(0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - current < fields[0].nbytes / 4


def _undamped_leapfrog(nx, dt, dx, wpe, wpm, eps0, mu0):
    """The oracle's 9-ufunc step before its absorbing layer, verbatim."""
    off = -(-nx // 8) * 8 - 1
    x, y, coef, tmp = (reference._aligned_zeros(off + nx) for _ in range(4))
    h, e, m, q = x[:nx - 1], x[off:], y[:nx - 1], y[off:]
    coef[:nx - 1], coef[off:] = (wpm * dt) ** 2, (wpe * dt) ** 2
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


def _full_grid_leapfrog(nx, dt, dx, wpe, wpm, eps0, mu0, damping=(1.0, 1.0)):
    """The oracle's 10-ufunc step on a grid with PEC walls at both ends,
    before its source node became a symmetry plane, verbatim."""
    # e[1] is element off + 1 of x, a multiple of 8 at or past h's end
    off = -(-nx // 8) * 8 - 1
    x, y, coef, g, tmp = (reference._aligned_zeros(off + nx)
                          for _ in range(5))
    h, e, m, q = x[:nx - 1], x[off:], y[:nx - 1], y[off:]
    coef[:nx - 1], coef[off:] = (wpm * dt) ** 2, (wpe * dt) ** 2
    g[:], (g[:nx - 1], g[off:]) = 1.0, damping
    # 0-d: numpy takes it without converting a Python float at each call
    s = np.array(dt * dt / (eps0 * mu0 * dx * dx))
    tmp_h, tmp_in = tmp[:nx - 1], tmp[off + 1:off + nx - 1]
    e_lo, e_hi, h_lo, h_hi = e[:-1], e[1:], h[:-1], h[1:]
    e_in, q_in = e[1:-1], q[1:-1]
    add, subtract, multiply = np.add, np.subtract, np.multiply

    def advance():
        multiply(coef, x, tmp)
        add(y, tmp, y)
        multiply(y, g, y)
        subtract(e_lo, e_hi, tmp_h)
        subtract(tmp_h, m, tmp_h)
        add(h, tmp_h, h)
        subtract(h_lo, h_hi, tmp_in)
        multiply(tmp_in, s, tmp_in)
        subtract(tmp_in, q_in, tmp_in)
        add(e_in, tmp_in, e_in)

    return advance, (e, h, m, q)


def _mirrored(e, h, m, q):
    """The full grid whose right half, from the centre node on, holds
    (e, h, m, q): E and Q even about the centre, H and M odd."""
    return (np.concatenate([e[:0:-1], e]), np.concatenate([-h[::-1], h]),
            np.concatenate([-m[::-1], m]), np.concatenate([q[:0:-1], q]))


def _right_half(fields, nx):
    return [a[a.size - n:] for a, n in zip(fields, (nx, nx - 1, nx - 1, nx))]


@pytest.mark.parametrize("damping", [None, "ones"])
def test_undamped_leapfrog_matches_the_step_without_a_layer_bit_for_bit(
        damping, rng):
    # g = 1 multiplies exactly and the ghost's -h[0] negates exactly, so a
    # grid without a layer steps as the right half of the symmetric full
    # grid of the step before both
    params = DrudeParams(0.8, 1.25, c=1.0, eps0=1.0, mu0=1.0)
    g = YeeGrid1D(203, 0.05, 0.025)
    args = (g.dt_fdtd, g.dx, *_material(params))
    extra = () if damping is None else ((np.ones(g.nx - 1), np.ones(g.nx)),)
    runs = [_leapfrog(g.nx, *args, *extra),
            _undamped_leapfrog(2 * g.nx - 1, *args)]
    start = [rng.standard_normal(n) for n in (g.nx, g.nx - 1, g.nx - 1, g.nx)]
    for (_, fields), values in zip(runs, (start, _mirrored(*start))):
        for a, v in zip(fields, values):
            a[:] = v
    for _ in range(300):
        for advance, _ in runs:
            advance()
    (_, new), (_, old) = runs
    assert all(a.tobytes() == b.tobytes()
               for a, b in zip(new, _right_half(old, g.nx)))


@pytest.mark.parametrize("params, dx", [
    (DrudeParams(1.0, 1.0, c=1.0, eps0=1.0, mu0=1.0), 0.05),
    (DrudeParams(0.8, 1.25, c=1.0, eps0=1.0, mu0=1.0), 0.05),
    (DrudeParams(2.0 * np.pi * 5e9, 2.0 * np.pi * 8e9), 1e-3),
], ids=["p=q=1", "p=0.8,q=1.25", "SI"])
def test_mirrored_run_is_the_right_half_of_a_symmetric_full_grid(params, dx):
    # a soft source kicking the centre of a full grid with PEC walls and a
    # layer at both ends radiates E even and H odd about it: the half grid
    # from the source on steps the same fields, bit for bit with the kick
    # added to e[0] after the step, and to 1e-13 relative with the kick
    # carried by the ghost h
    nx = 160
    g = YeeGrid1D(nx, dx, 0.5 * dx / params.c)
    dt, s = g.dt_fdtd, (g.dt_fdtd / dx) ** 2 / (params.eps0 * params.mu0)
    args = (g.dt_fdtd, dx, *_material(params))
    g_h, g_e = reference.layer_damping(g, 40 * dx, 0.5 / dt)
    full = (np.concatenate([g_h[::-1], g_h]),
            np.concatenate([g_e[:0:-1], g_e]))
    w0 = params.band_low
    t = np.arange(1, 600) * dt
    kicks = (dt / dx) * np.exp(-((t - 60 * dt) * w0 / 8) ** 2) * np.sin(w0 * t)
    runs = [_leapfrog(nx, *args, (g_h, g_e)) for _ in range(2)]
    (whole, whole_fields) = _full_grid_leapfrog(2 * nx - 1, *args, full)
    (apart, apart_fields), (fused, fused_fields) = runs
    for k in kicks.tolist():
        whole()
        whole_fields[0][nx - 1] += k
        apart()
        apart_fields[0][0] += k
        fused(k / s)
    want = _right_half(whole_fields, nx)
    # the pulse has crossed the layer
    assert np.max(np.abs(want[0][-40:])) > 1e-3 * np.max(np.abs(want[0]))
    assert all(a.tobytes() == b.tobytes() for a, b in zip(apart_fields, want))
    for a, b in zip(fused_fields, want):
        assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))


def test_layer_damping_rises_as_the_square_of_the_depth():
    # nodes at i dx, half nodes at (i + 1/2) dx; depth into the 2 m layer
    # before the wall at 10 m; the symmetry plane at 0 takes none
    g = YeeGrid1D(101, 0.1, 0.05)
    length, rate = 2.0, 3.0
    g_h, g_e = reference.layer_damping(g, length, rate)
    for got, x in ((g_e, np.arange(101) * 0.1),
                   (g_h, (np.arange(100) + 0.5) * 0.1)):
        depth = np.clip(length - (10.0 - x), 0.0, None)
        want = np.exp(-rate * g.dt_fdtd * (depth / length) ** 2)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
        assert np.all(got[x <= 10.0 - length] == 1.0)
    assert g_e[0] == 1.0 and g_e[-1] == np.exp(-rate * g.dt_fdtd)
    # no layer damps nothing
    assert all(np.all(a == 1.0) for a in reference.layer_damping(g, 0.0, rate))


def _scaled_acceptance_9_pulse(params):
    """Acceptance 9's pulse and oracle in units of w0 = min(p, q) and
    c / w0: the source, dx, the duration, the probe offsets from the
    source and the unit length."""
    w0 = params.band_low
    unit = params.c / w0
    source = gaussian_pulse(TimeGrid(4096, 0.1 / w0), carrier=0.3 * w0,
                            width=30.0 / w0)
    probes = [x * unit for x in (0.48, 1.48, 2.48)]
    return source, 0.04 * unit, 400.0 / w0, probes, unit


def _padded_run(params, source, dx, duration, probes, pad):
    """run_boundary_source on a grid padded by ``pad`` past the last probe,
    at the plan's Courant number, and the damping its leapfrog took, which
    leaves the nodes from the source to the last probe undamped."""
    m = reference.steps_per_sample(source.grid.dt, 0.5 * dx / params.c)
    g = YeeGrid1D(int(np.ceil((probes[-1] + pad) / dx)), dx,
                  source.grid.dt / m)
    taken = []

    def spy(*args):
        taken.append(args[-1])
        return _leapfrog(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reference, "_leapfrog", spy)
        out = run_boundary_source(source, g, params, duration, probes)
    g_h, g_e = taken[0]
    inside = np.s_[:int(round(probes[-1] / dx)) + 1]
    assert np.all(g_e[inside] == 1.0) and np.all(g_h[inside][:-1] == 1.0)
    return out, taken[0]


@pytest.mark.parametrize("params", [
    DrudeParams(1.0, 1.0, c=1.0, eps0=1.0, mu0=1.0),
    DrudeParams(0.8, 1.25, c=1.0, eps0=1.0, mu0=1.0),
    DrudeParams(2.0 * np.pi * 5e9, 2.0 * np.pi * 8e9),
], ids=["p=q=1", "p=0.8,q=1.25", "SI"])
def test_layer_records_match_a_clean_pec_run(params, monkeypatch):
    # the derived layer and its gap against PEC walls 60 c/w0 away, where
    # nothing returns within the run
    source, dx, duration, probes, unit = _scaled_acceptance_9_pulse(params)
    length = reference.absorbing_layer(params, source)[0]
    pad = length + reference.LAYER_GAP * unit
    out, (g_h, g_e) = _padded_run(params, source, dx, duration, probes, pad)
    assert out["layer"] == pytest.approx(length, rel=1e-12)
    assert not out["contaminated"]
    assert np.min(g_e) < 1.0 and np.min(g_h) < 1.0

    monkeypatch.setattr(reference, "absorbing_layer",
                        lambda *_: (0.0, 0.0, np.zeros(2)))
    clean, _ = _padded_run(params, source, dx, duration, probes, 60.0 * unit)
    assert not clean["contaminated"]
    for name in ("e", "b"):
        for got, want in zip(out[name], clean[name]):
            assert np.linalg.norm(got - want) <= 1e-5 * np.linalg.norm(want)


@pytest.mark.parametrize("pad, moved, raw", [(4.0, True, True),
                                             (6.0, False, True),
                                             (None, False, False)])
def test_wall_flag_reads_wall_activity_through_the_layer(pad, moved, raw,
                                                         unit_params,
                                                         monkeypatch):
    # pads of 4 and 6 c/w0 move the records by 6.2e-4 and 2.4e-5 from the
    # clean run, and the derived pad by 1.5e-7; the raw wall activity
    # passes 1e-4 of the record peak at 6 too, but not once it has crossed
    # the layer back
    source, dx, duration, probes, unit = _scaled_acceptance_9_pulse(
        unit_params)
    length, rate, _ = reference.absorbing_layer(unit_params, source)
    if pad is None:
        pad = length + reference.LAYER_GAP * unit
    out, _ = _padded_run(unit_params, source, dx, duration, probes, pad)
    assert out["contaminated"] is moved
    # the same layer, read as if it did not attenuate
    monkeypatch.setattr(reference, "absorbing_layer",
                        lambda *_: (length, rate, np.zeros(2)))
    assert _padded_run(unit_params, source, dx, duration, probes,
                       pad)[0]["contaminated"] is raw
    monkeypatch.setattr(reference, "absorbing_layer",
                        lambda *_: (0.0, 0.0, np.zeros(2)))
    clean, _ = _padded_run(unit_params, source, dx, duration, probes, 60.0)
    change = max(np.linalg.norm(got - want) / np.linalg.norm(want)
                 for name in ("e", "b")
                 for got, want in zip(out[name], clean[name]))
    assert bool(change > 1e-4) is moved


def test_oracle_arrays_start_on_cache_lines(monkeypatch):
    # the leapfrog's step time moved by up to 20% with where malloc put its
    # arrays, so an unrelated allocation could slow the oracle; every array
    # the step writes starts on a cache line
    params = DrudeParams(1.0, 1.0, c=1.0, eps0=1.0, mu0=1.0)
    source = gaussian_pulse(TimeGrid(256, 1.0), carrier=0.3, width=10.0)
    arrays = {}

    def spy(*args):
        advance, fields = _leapfrog(*args)
        arrays.update(zip("ehmq", fields))
        arrays.update((name, cell.cell_contents) for name, cell in
                      zip(advance.__code__.co_freevars, advance.__closure__)
                      if name in ("x", "y", "coef", "g", "tmp", "tmp_h",
                                  "tmp_e"))
        return advance, fields

    monkeypatch.setattr(reference, "_leapfrog", spy)
    for nx in (127, 128, 129, 130):
        arrays.clear()
        run_boundary_source(source, YeeGrid1D(nx, 0.5, 0.25), params, 5.0,
                            [2.0])
        assert sorted(arrays) == ["coef", "e", "g", "h", "m", "q", "tmp",
                                  "tmp_e", "tmp_h", "x", "y"]
        starts = {name: a.ctypes.data for name, a in arrays.items()}
        assert all(start % 64 == 0 for start in starts.values()), starts
        # the ghost's cache line, h and e fill x, m and q fill y, each in
        # that order
        for buf, lo, hi in (("x", "h", "e"), ("y", "m", "q")):
            buf, lo, hi = arrays[buf], arrays[lo], arrays[hi]
            assert lo.ctypes.data == buf.ctypes.data + 64
            assert lo.size == nx - 1
            assert hi.ctypes.data + hi.nbytes == buf.ctypes.data + buf.nbytes
            assert hi.size == nx
            assert hi.ctypes.data >= lo.ctypes.data + lo.nbytes


def _plain_source_run(source, grid1d, params, duration, probes):
    """Reference oracle loop: B on every half node, the blow-up guard and
    one Python loop over the probes per step, with the source kick read
    from the upsampled source, zero past its window, and carried by the
    ghost H behind node 0, and the records of every step decimated to the
    source's grid. A probe behind the source reads the mirror image, E even
    and B odd about node 0. The derived absorbing layer reaches from the
    wall to the farthest probe at most, and the wall activity counts once
    it has crossed the layer again. Raises FloatingPointError carrying the
    first step past the guard."""
    dt, dx, nx = grid1d.dt_fdtd, grid1d.dx, grid1d.nx
    n_steps = int(round(duration / dt))
    idx = [int(round(xp / dx)) for xp in probes]
    length, rate, decay = reference.absorbing_layer(params, source)
    length = min(length, (nx - 1 - max(abs(i) for i in idx)) * dx)
    g_h, g_e = reference.layer_damping(grid1d, length, rate)
    back = max(np.exp(-length * decay).tolist())
    steps_per_sample = int(round(source.grid.dt / dt))
    kick = upsample(source, steps_per_sample) * (
        params.eps0 * params.mu0 * dx / dt)
    src_peak = max(source.peak, 1e-300)
    e, h, m, q = np.zeros(nx), np.zeros(nx - 1), np.zeros(nx - 1), np.zeros(nx)
    b = np.zeros(nx - 1)

    def b_at(b, k):
        """B on the half node (k + 1/2) dx, B(-x) = -B(x) behind node 0."""
        return b[k] if k >= 0 else 0.0 - b[-k - 1]  # never -0.0

    rec_e = np.zeros((len(idx), n_steps + 1))
    rec_b = np.zeros((len(idx), n_steps + 1))
    wall_peak = 0.0
    for n in range(1, n_steps + 1):
        _advance_normalised(e, h, m, q, dt, dx, *_material(params), g_h, g_e,
                            kick[n] if n < kick.size else 0.0)
        b_prev = b.copy()
        b += -dt * (e[1:] - e[:-1]) / dx
        if not np.max(np.abs(e)) <= 1e6 * src_peak:
            raise FloatingPointError(n)
        for k, i in enumerate(idx):
            rec_e[k, n] = e[abs(i)]
            rec_b[k, n] = 0.25 * (b_at(b_prev, i - 1) + b_at(b_prev, i)
                                  + b_at(b, i - 1) + b_at(b, i))
        wall_peak = max(wall_peak, abs(e[-2]), abs(e[-3]))
    on_grid = np.zeros((2, len(idx), source.grid.n))
    for rec, out in zip((rec_e, rec_b), on_grid):
        kept = rec[:, ::steps_per_sample][:, :source.grid.n]
        out[:, :kept.shape[1]] = kept
    rec_e, rec_b = on_grid
    contaminated = (wall_peak * back
                    > 1e-4 * float(np.max(np.abs(rec_e), initial=0.0)))
    return rec_e, rec_b, bool(contaminated)


@pytest.mark.parametrize("nx, duration, probes, walls_hit", [
    # adjacent probes, the first next to the source, one behind it
    (100, 16.0, [0.1, 0.2, 0.3, -0.1], False),
    # probes on the node beside the wall, on the source and behind it; the
    # pulse reaches the wall and the run outlasts the source window (zero
    # kick)
    (64, 60.0, [-6.1, 0.0, 6.2], True),
    # shorter than one block of steps (dt = 0.05)
    (100, 5.0, [0.1, 0.2, 0.3, -0.1], False),
    # exactly two blocks of steps; the pulse reaches the wall
    (100, 2 * BLOCK_STEPS * 0.05, [0.1, 0.2, 0.3, -0.1], True),
    # one node more: the fronts half a step from the threshold
    (101, 18.0, [0.1, 0.2, 0.3, -0.1], False),
    # through the layer, the fronts have passed the 1e-4 threshold at node
    # nx - 4 but not at nodes nx - 3 or nx - 2, so reading the taps one
    # node inwards flips the flag
    (100, 18.0, [0.1, 0.2, 0.3, -0.1], False),
])
def test_source_run_records_match_plain_loop(nx, duration, probes, walls_hit):
    params = DrudeParams(0.8, 1.25, c=1.0, eps0=1.0, mu0=1.0)
    source = gaussian_pulse(TimeGrid(128, 0.2), carrier=0.5, width=2.5)
    g = YeeGrid1D(nx, 0.1, 0.05)
    out = run_boundary_source(source, g, params, duration, probes)
    rec_e, rec_b, contaminated = _plain_source_run(source, g, params,
                                                   duration, probes)
    assert contaminated is walls_hit
    assert out["contaminated"] is contaminated
    assert np.stack(out["e"]).tobytes() == rec_e.tobytes()
    assert np.stack(out["b"]).tobytes() == rec_b.tobytes()
    # B is odd about the source, so its record there is zero
    on_source = np.asarray(probes) == 0.0
    assert np.all(rec_b[on_source] == 0.0)
    assert np.all(np.max(np.abs(rec_b[~on_source]), axis=1) > 0.0)


def _two_wall_damping(grid1d, length, rate):
    """(g_h, g_e) of a layer before each wall of ``grid1d``: exp(-rate
    (d/length)^2 dt) at depth d from the nearer wall, as the oracle damped
    its grid before the source became a symmetry plane, verbatim."""
    x = np.arange(2 * grid1d.nx - 1) * (0.5 * grid1d.dx)
    depth = np.maximum(length - np.minimum(x, x[-1] - x), 0.0)
    g = np.exp(-rate * grid1d.dt_fdtd * (depth / max(length, 1e-300))**2)
    return g[1::2], g[::2]


def _full_grid_source_run(source, grid1d, params, duration, probes,
                          source_index):
    """Reference loop on a grid with PEC walls at both ends: the source
    kick added to E on node ``source_index`` after each step of
    :func:`_full_grid_leapfrog`, B on every half node, the probes read on
    their own side of the source, and the records of every step decimated
    to the source's grid. The derived absorbing layer reaches from each
    wall to the source or the outermost probe at most, and the wall
    activity at both walls counts once it has crossed the layer again."""
    dt, dx, nx = grid1d.dt_fdtd, grid1d.dx, grid1d.nx
    n_steps = int(round(duration / dt))
    idx = [source_index + int(round(xp / dx)) for xp in probes]
    length, rate, decay = reference.absorbing_layer(params, source)
    inner = [source_index] + idx
    length = min(length, min(inner) * dx, (nx - 1 - max(inner)) * dx)
    back = max(np.exp(-length * decay).tolist())
    advance, (e, *_) = _full_grid_leapfrog(
        nx, dt, dx, *_material(params),
        _two_wall_damping(grid1d, length, rate))
    steps_per_sample = int(round(source.grid.dt / dt))
    kick = upsample(source, steps_per_sample)
    b = np.zeros(nx - 1)
    rec_e = np.zeros((len(idx), n_steps + 1))
    rec_b = np.zeros((len(idx), n_steps + 1))
    wall_peak = 0.0
    for n in range(1, n_steps + 1):
        advance()
        if n < kick.size:
            e[source_index] += kick[n] * (dt / dx)
        b_prev = b.copy()
        b += -dt * (e[1:] - e[:-1]) / dx
        for k, i in enumerate(idx):
            rec_e[k, n] = e[i]
            rec_b[k, n] = 0.25 * (b_prev[i - 1] + b_prev[i] + b[i - 1] + b[i])
        wall_peak = max(wall_peak,
                        abs(e[1]), abs(e[-2]), abs(e[2]), abs(e[-3]))
    on_grid = np.zeros((2, len(idx), source.grid.n))
    for rec, out in zip((rec_e, rec_b), on_grid):
        kept = rec[:, ::steps_per_sample][:, :source.grid.n]
        out[:, :kept.shape[1]] = kept
    rec_e, rec_b = on_grid
    contaminated = (wall_peak * back
                    > 1e-4 * float(np.max(np.abs(rec_e), initial=0.0)))
    return rec_e, rec_b, bool(contaminated)


@pytest.mark.parametrize("nx, i_src, duration, probes, walls_hit", [
    # the nodes from i_src of an nx-node grid with the source on node
    # i_src, as the oracle laid its grid out before the source became a
    # symmetry plane; adjacent probes, the first next to the source, one
    # behind it
    (200, 100, 16.0, [0.1, 0.2, 0.3, -0.1], False),
    # the half-line takes 64 nodes, the grid's floor; probes on the nodes
    # beside the wall and its mirror image and on the source; the pulse
    # reaches the walls and the run outlasts the source window (zero kick)
    (80, 40, 60.0, [-6.1, 0.0, 6.2], True),
    # shorter than one block of steps (dt = 0.05)
    (200, 100, 5.0, [0.1, 0.2, 0.3, -0.1], False),
    # exactly two blocks of steps; the pulse reaches the walls
    (200, 100, 2 * BLOCK_STEPS * 0.05, [0.1, 0.2, 0.3, -0.1], True),
    # source midway between the walls, the fronts half a step from the
    # threshold
    (201, 100, 18.0, [0.1, 0.2, 0.3, -0.1], False),
    (200, 100, 18.0, [0.1, 0.2, 0.3, -0.1], False),
])
def test_source_run_records_match_full_grid_loop(nx, i_src, duration, probes,
                                                 walls_hit):
    # the half-line oracle on those nodes records what a grid
    # stepped on both sides of its source records, when that grid is the
    # half-line's mirror image: the source midway between two walls and
    # two layers, and a probe behind the source read on its own node. The
    # kick the ghost carries rounds differently from one added to E
    params = DrudeParams(0.8, 1.25, c=1.0, eps0=1.0, mu0=1.0)
    source = gaussian_pulse(TimeGrid(128, 0.2), carrier=0.5, width=2.5)
    half = YeeGrid1D(max(nx - i_src, 64), 0.1, 0.05)
    whole = YeeGrid1D(2 * half.nx - 1, 0.1, 0.05)
    out = run_boundary_source(source, half, params, duration, probes)
    rec_e, rec_b, contaminated = _full_grid_source_run(
        source, whole, params, duration, probes, half.nx - 1)
    assert contaminated is walls_hit
    assert out["contaminated"] is contaminated
    for got, want in ((out["e"], rec_e), (out["b"], rec_b)):
        peak = np.max(np.abs(want))
        assert peak > 0.0
        assert np.max(np.abs(np.stack(got) - want)) <= 1e-13 * peak


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_source_run_aborts_on_blow_up_within_one_block():
    # dt * wp = 10: the leapfrog is unstable, overflows to inf and then to
    # NaN well inside the first block; a NaN-blind guard returned NaN records
    params = DrudeParams(10.0, 10.0, c=1.0, eps0=1.0, mu0=1.0)
    g = YeeGrid1D(128, 2.0, 1.0)
    source = gaussian_pulse(TimeGrid(256, 1.0), carrier=0.3, width=10.0)
    duration = 250 * g.dt_fdtd
    with pytest.warns(UserWarning, match="underresolved"):
        with pytest.raises(FloatingPointError) as old:
            _plain_source_run(source, g, params, duration, [2.0])
        with pytest.raises(FloatingPointError, match="by step") as new:
            run_boundary_source(source, g, params, duration, [2.0])
    first = old.value.args[0]
    aborted = int(str(new.value).rsplit(" ", 1)[1])
    assert first <= aborted < first + BLOCK_STEPS


def _probe_run(dx, probes, duration=400.0, pad=85.0):
    params = DrudeParams(1.0, 1.0, c=1.0, eps0=1.0, mu0=1.0)
    src_grid = TimeGrid(4096, 0.1)
    source = gaussian_pulse(src_grid, carrier=0.3, width=30.0)
    nx = int(round((max(probes) + pad) / dx))
    g = YeeGrid1D(nx, dx, 0.5 * dx)
    out = run_boundary_source(source, g, params, duration, probes)
    return source, out


def test_causality_and_probe_phase():
    params = DrudeParams(1.0, 1.0, c=1.0, eps0=1.0, mu0=1.0)
    source, out = _probe_run(0.02, [1.0, 1.5])
    assert not out["contaminated"]

    # causality: the probe is quiet before the front can arrive
    t = source.grid.times
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
    g = YeeGrid1D(256, 0.02, 0.01)
    with pytest.raises(ValueError):
        run_boundary_source(source, g, params, 10.0, [100.0])
    with pytest.raises(ValueError):
        run_boundary_source(source, g, params, 10.0, [0.0301])
    # 1e-4 cells off a node is off the grid
    with pytest.raises(ValueError, match="not on a grid node"):
        run_boundary_source(source, g, params, 10.0, [0.02 * (1 + 1e-4)])
    # a probe reads its mirror image, which must lie before the wall node
    # 255, behind the source as ahead of it
    for xp in (5.1, -5.1, -100.0):
        with pytest.raises(ValueError, match=f"probe at {xp:g} m falls "
                                             f"outside the 256-node grid"):
            run_boundary_source(source, g, params, 10.0, [xp])
    run_boundary_source(source, g, params, 10.0, [-5.08, 5.08])


@pytest.mark.parametrize("params", [
    DrudeParams(1.0, 1.0, c=1.0, eps0=1.0, mu0=1.0),
    DrudeParams(0.8, 1.25, c=1.0, eps0=1.0, mu0=1.0),
    DrudeParams(2.0 * np.pi * 5e9, 2.0 * np.pi * 8e9),
], ids=["p=q=1", "p=0.8,q=1.25", "SI"])
def test_reference_plane_behind_the_source_reads_the_mirror_image(params):
    # E is even and B odd about the source: a plane at -d reads E(d) and
    # -B(d), the B up to the order its four half-node terms are summed in
    source, dx, duration, probes, unit = _scaled_acceptance_9_pulse(params)
    d = probes[0]
    out, _ = _padded_run(params, source, dx, duration, [-d, d, probes[-1]],
                         10.0 * unit)
    (e_behind, e_ahead, _), (b_behind, b_ahead, _) = out["e"], out["b"]
    assert e_behind.tobytes() == e_ahead.tobytes()
    peak = np.max(np.abs(b_ahead))
    assert peak > 0.0
    np.testing.assert_allclose(b_behind, -b_ahead, rtol=0, atol=1e-14 * peak)


def _band_top_layer(params, source):
    """The layer's length at the rate of the band top w_max, or less where
    the impedance change passes LAYER_MISMATCH: the rule before the rate
    was searched, verbatim but for its return value."""
    mag = np.abs(np.fft.rfft(source.samples))
    w = source.grid.half_omegas[mag >= reference.BAND_FLOOR
                                * np.max(mag)][[0, -1]]
    p2, q2 = params.omega_pe**2, params.omega_pm**2
    with np.errstate(divide="ignore"):
        slope = np.max(w * abs(p2 - q2) / np.abs((w * w - p2) * (w * w - q2)))
        rate = min(w[1], reference.LAYER_MISMATCH / slope)
    w, g = w[:, None], rate * ((np.arange(64) + 0.5) / 64) ** 2  # midpoints
    d = w * w + g * g
    (ap, bp), (aq, bq) = ((w - s * w / d, s * g / d) for s in (p2, q2))
    re, im = ap * aq - bp * bq, ap * bq + aq * bp  # (c k)^2, in real terms
    decay = np.mean(np.sqrt(0.5 * (np.hypot(re, im) - re)), 1) / params.c
    return float(np.log(reference.LAYER_ATTENUATION) / -np.min(decay))


def test_derived_layer_is_never_longer_than_the_band_top_rule(rng):
    # over random media (p = q among them) and pulses, the searched rate's
    # layer reaches LAYER_ATTENUATION within the band-top rule's length,
    # and its impedance change at the band edges stays within
    # LAYER_MISMATCH
    shorter = 0
    for draw in range(40):
        p = rng.uniform(0.5, 2.0)
        q = p if draw % 4 == 0 else rng.uniform(0.5, 2.0)
        scale = 10.0 ** rng.uniform(-3.0, 10.0)
        c = rng.uniform(0.5, 2.0)
        params = DrudeParams(p * scale, q * scale, c=c, eps0=1.0 / c,
                             mu0=1.0 / c)
        w0 = params.band_low
        source = gaussian_pulse(TimeGrid(2048, 0.1 / w0),
                                carrier=rng.uniform(0.1, 0.6) * w0,
                                width=rng.uniform(10.0, 40.0) / w0)
        length, rate, decay = reference.absorbing_layer(params, source)
        top = _band_top_layer(params, source)
        assert length <= top * (1.0 + 1e-12)
        assert np.exp(-length * np.min(decay)) <= (
            reference.LAYER_ATTENUATION * (1.0 + 1e-12))
        mag = np.abs(np.fft.rfft(source.samples))
        w = source.grid.half_omegas[mag >= reference.BAND_FLOOR
                                    * np.max(mag)][[0, -1]]
        mismatch = np.max(w * rate * abs(p * p - q * q) * scale**2 / np.abs(
            (w * w - (p * scale) ** 2) * (w * w - (q * scale) ** 2)))
        assert mismatch <= reference.LAYER_MISMATCH * (1.0 + 1e-12)
        shorter += length < top * (1.0 - 1e-3)
    assert shorter >= 5


def test_convergence_second_order():
    params = DrudeParams(1.0, 1.0, c=1.0, eps0=1.0, mu0=1.0)
    src_grid = TimeGrid(2048, 0.1)
    source = gaussian_pulse(src_grid, carrier=0.3, width=15.0)
    duration, probe, pad = 200.0, 0.48, 60.0

    def probe_series(dx):
        nx = int(round((probe + pad) / dx))
        # the plan's step: at most dx / 2, dividing 0.1
        g = YeeGrid1D(nx, dx, {0.08: 0.1 / 3}.get(dx, 0.5 * dx))
        out = run_boundary_source(source, g, params, duration, [probe])
        return out["e"][0][src_grid.times <= duration - 1.0]

    ref = probe_series(0.01)
    scale = np.linalg.norm(ref)
    errs = [
        np.linalg.norm(probe_series(dx) - ref) / scale for dx in (0.08, 0.04, 0.02)
    ]
    assert errs[0] < 0.05
    ratios = np.array(errs[:-1]) / np.array(errs[1:])
    assert np.all(ratios >= 3.0) and np.all(ratios <= 5.5)
