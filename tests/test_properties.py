"""Property tests over random media, grids and band-limited pulses.

Media range over natural units (p, q, c of order 1) and SI magnitudes
(plasma frequencies 1e14-1e16 rad/s, the SI light speed), with p != q in
general. Every grid keeps its rfft bins out of the evanescent band: either
all nonzero bins sit below min(p, q), or the lowest nonzero bin sits above
max(p, q). The configs of the validate-and-run property are the exception:
their grids may cross the band, which the run's plan refuses where p != q.
"""

import contextlib
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from metapulse import (
    DirectedPair,
    DrudeParams,
    FieldPair,
    Signal,
    TimeGrid,
    a_symbol,
    apply,
    drude_response,
    kerr_default_steps,
    make_multiplier,
    propagate_linear_exact,
    propagate_nonlinear,
    propagate_unidirectional,
    reconstruct,
    split,
)
from metapulse import cli
from metapulse.cli import MAX_SAMPLES, SCENARIOS, _oracle, main
from metapulse.medium import C
from metapulse.render import table_chunks
from metapulse.spectral import MULTIPLIER_KINDS
from metapulse.evolution import KERR_TAIL
from conftest import DRUDE_KINDS, drude_multiplier, fft_omegas, gaussian_pulse
from test_evolution import _full_spectrum_lawson

# derandomized, so every run draws the same examples; no example database
PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                             database=None)


@st.composite
def media(draw):
    ratio = draw(st.floats(1.0, 4.0))
    if draw(st.booleans()):
        low = draw(st.floats(1e14, 1e16))
        p, q = low, low * ratio
        params = {}
    else:
        low = draw(st.floats(0.2, 5.0))
        p, q = low, low * ratio
        c = draw(st.floats(0.5, 4.0))
        params = {"c": c, "eps0": 1.0 / c, "mu0": 1.0 / c}
    if draw(st.booleans()):
        p, q = q, p
    return DrudeParams(p, q, **params)


@st.composite
def cases(draw):
    """(params, grid, seed) with every grid bin clear of the band."""
    params = draw(media())
    n = draw(st.sampled_from([64, 256, 1024]))
    if draw(st.booleans()):
        # every bin below the band: Nyquist at a fraction of min(p, q)
        dt = np.pi / (draw(st.floats(0.2, 0.9)) * params.band_low)
    else:
        # lowest nonzero bin above the band
        dt = 2.0 * np.pi / (n * draw(st.floats(1.05, 3.0)) * params.band_high)
    return params, TimeGrid(n, dt), draw(st.integers(0, 2**32 - 1))


def random_signal(grid, rng):
    """Real zero-mean signal on every rfft bin 1..n/2."""
    spec = np.zeros(grid.n // 2 + 1, dtype=complex)
    k = grid.n // 2
    spec[1:] = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    return Signal(grid, np.fft.irfft(spec, grid.n))


def full_spectrum_symbol(kind, params, grid):
    """The multiplier's symbol on every fft bin, DC (and the Nyquist bin of
    the odd symbols) zeroed."""
    w = fft_omegas(grid)
    nz = w != 0.0
    wn = w[nz]
    eps = params.eps0 * drude_response("electric", params, wn)
    mu = params.mu0 * drude_response("magnetic", params, wn)
    a = a_symbol(params, wn)
    values = {
        "eps": eps,
        "mu": mu,
        "mu_inv": 1.0 / mu,
        "a": a,
        "a_inv": 1.0 / a,
        "a_sq": a * a,
        "d_dt": 1j * wn,
        "d_dt_inv": 1.0 / (1j * wn),
    }[kind]
    out = np.zeros(grid.n, dtype=complex)
    out[nz] = values
    if kind in ("d_dt", "d_dt_inv"):
        out[grid.n // 2] = 0.0
    return out


@PROPERTY_SETTINGS
@given(cases())
def test_half_spectrum_apply_matches_full_fft(case):
    params, grid, seed = case
    s = random_signal(grid, np.random.default_rng(seed))
    for kind in MULTIPLIER_KINDS + DRUDE_KINDS:
        build = drude_multiplier if kind in DRUDE_KINDS else make_multiplier
        out = apply(build(kind, params, grid), s).samples
        symbol = full_spectrum_symbol(kind, params, grid)
        ref = np.fft.ifft(symbol * np.fft.fft(s.samples)).real
        err = np.max(np.abs(out - ref))
        assert err <= 1e-12 * np.max(np.abs(ref)), kind


@pytest.mark.filterwarnings(
    "ignore:boundary signal [jk] does not decay at window edges")
@PROPERTY_SETTINGS
@given(cases())
def test_split_then_reconstruct_is_identity(case):
    params, grid, seed = case
    rng = np.random.default_rng(seed)
    # E = a-hat^{-1} of a random signal, so that a-hat j and k share one
    # scale whatever the units (SI E and B differ by about c)
    a_inv = make_multiplier("a_inv", params, grid)
    j, k = apply(a_inv, random_signal(grid, rng)), random_signal(grid, rng)
    fields = reconstruct(split(FieldPair(b=k, e=j), params), params)
    assert np.max(np.abs(fields.e.samples - j.samples)) <= 1e-10 * j.peak
    assert np.max(np.abs(fields.b.samples - k.samples)) <= 1e-12 * k.peak


@pytest.mark.filterwarnings(
    "ignore:boundary signal [jk] does not decay at window edges")
@PROPERTY_SETTINGS
@given(cases(), st.floats(0.1, 50.0), st.floats(0.05, 0.95))
def test_exact_propagation_is_additive_in_x(case, max_phase, fraction):
    params, grid, seed = case
    rng = np.random.default_rng(seed)
    j, k = random_signal(grid, rng), random_signal(grid, rng)
    dp0 = split(FieldPair(b=k, e=j), params)
    # x sized so that the largest per-bin phase |w a(w)| x is max_phase
    w = grid.half_omegas[1:]
    x = max_phase / np.max(np.abs(w * a_symbol(params, w)))
    x1 = fraction * x
    once = propagate_linear_exact(dp0, [x], params)[0]
    twice = propagate_linear_exact(
        propagate_linear_exact(dp0, [x1], params)[0], [x - x1], params)[0]
    for a, b in ((once.pi, twice.pi), (once.lam, twice.lam)):
        assert np.max(np.abs(a.samples - b.samples)) <= 1e-10 * dp0.peak


def cube_rate(pi, lam, params):
    """sigma_0 = 3 rows (K/c) max_t(u_tt^2) w_top of a Kerr entry, on full
    spectra: u = Pi - Lambda (u = Pi for ``lam`` None), u_tt masked by
    the 2/3 rule, w_top the highest bin that rule keeps."""
    grid = pi.grid
    keep = np.abs(np.fft.fftfreq(grid.n) * grid.n) <= grid.n // 3
    u = pi.samples - (0.0 if lam is None else lam.samples)
    u_tt = np.fft.ifft(-fft_omegas(grid)**2 * keep * np.fft.fft(u)).real
    k_c = params.mu0 * params.chi3 * params.c**2 / (
        2.0 * params.omega_pe**3 * params.omega_pm)
    w_top = 2.0 * np.pi * (grid.n // 3) / grid.window
    return 3.0 * (1 if lam is None else 2) * k_c * np.max(u_tt**2) * w_top


def phase_rate(pi, lam, params):
    """Omega_0, the rms of the Klein-Gordon rate pq/(c w) over the power
    of Pi and Lambda (``lam`` None: Pi alone) on the rfft bins; DC and
    Nyquist count with rate 0."""
    w = pi.grid.half_omegas
    rows = [pi.samples] if lam is None else [pi.samples, lam.samples]
    power = np.sum(np.abs(np.fft.rfft(rows)) ** 2, axis=0)
    rate = params.omega_pe * params.omega_pm / (params.c * w[1:-1])
    return np.sqrt(np.sum(rate**2 * power[1:-1]) / np.sum(power))


@PROPERTY_SETTINGS
@given(media(), st.sampled_from([256, 1024]), st.floats(0.2, 0.9),
       st.integers(0, 2**32 - 1), st.booleans(), st.floats(-1.0, 1.0),
       st.floats(0.0, 3.0))
def test_kerr_default_count_is_stable(medium, n, fraction, seed, coupled,
                                      log_x, log_phase):
    # every bin below the band; random pulses on the lower half of the
    # bins, scaled so that x_end sigma_0 (twice the count the cubic term
    # asks for) spans 1 to 1000, over 0.1 to 10 natural lengths
    # beta = c/(pq); the count is the closed form, it keeps h sigma_0 <= 2
    # and h Omega_0 <= 1/4, and the march stays finite
    params = dataclasses.replace(medium, chi3=1.0)
    grid = TimeGrid(n, np.pi / (fraction * params.band_low))
    rng = np.random.default_rng(seed)
    pi, lam = random_signal(grid, rng), random_signal(grid, rng)
    half = np.fft.rfft([pi.samples, lam.samples])
    half[:, n // 4:] = 0.0
    pi, lam = (Signal(grid, row) for row in np.fft.irfft(half, n))
    lam = lam if coupled else None
    x_end = 10.0**log_x * params.c / (params.omega_pe * params.omega_pm)
    scale = np.sqrt(10.0**log_phase / (x_end * cube_rate(pi, lam, params)))
    pi = Signal(grid, scale * pi.samples)
    if coupled:
        lam = Signal(grid, scale * lam.samples)
        entry = DirectedPair(pi, lam)
    else:
        entry = pi
    sigma = cube_rate(pi, lam, params)
    omega = phase_rate(pi, lam, params)
    n_steps = kerr_default_steps(entry, x_end, params)
    assert n_steps == max(4, int(np.ceil(x_end * sigma / 2.0)),
                          int(np.ceil(x_end * omega / 0.25)))
    assert x_end / n_steps * omega <= 0.25
    march = propagate_nonlinear if coupled else propagate_unidirectional
    rec = march(entry, x_end, n_steps, params, grid, n_stations=3)
    # the spectra fill the lower quarter of the bins, so no crop holds them
    assert rec.meta["kerr_march_n"] == n
    assert rec.meta["kerr_stiffness"] <= 2.0
    assert rec.meta["kerr_stiffness"] == pytest.approx(
        x_end / n_steps * sigma, rel=1e-9)
    assert all(np.all(np.isfinite(s.pi.samples))
               and np.all(np.isfinite(s.lam.samples)) for s in rec.states)


@PROPERTY_SETTINGS
@given(media(), st.floats(1.05, 3.0), st.floats(12.0, 24.0),
       st.floats(3.0, 5.0), st.floats(-1.0, 1.0), st.floats(0.0, 1.0),
       st.booleans())
def test_cropped_march_stays_within_ten_kerr_tails_of_the_full_march(
        medium, fraction, carrier_bin, ratio, log_x, log_rate, coupled):
    # the lowest nonzero bin above the band; a Gaussian pulse on bin 12 to
    # 24 of 2048, its spectral width a third to a fifth of its carrier,
    # starts the march on 512 or 1024 points, and x_end sigma_0 from 1 to
    # 10 grows it up the ladder, short of the full grid. At the default
    # count every kept station is within 10 KERR_TAIL of a full-grid
    # march's, rows pooled as the watch pools them, and the march ends on
    # a power of two times 1, 5/4 or 3/2
    params = dataclasses.replace(medium, chi3=1.0)
    n = 2048
    grid = TimeGrid(n, 2.0 * np.pi / (n * fraction * params.band_high))
    carrier = 2.0 * np.pi * carrier_bin / grid.window
    pi = gaussian_pulse(grid, carrier, ratio / carrier)
    lam = gaussian_pulse(grid, 1.1 * carrier, 1.2 * ratio / carrier, 0.3)
    if not coupled:
        lam = Signal.zeros(grid)
    pq_c = params.omega_pe * params.omega_pm / params.c
    x_end = 10.0**log_x / pq_c
    rate = cube_rate(pi, lam if coupled else None, params)
    scale = np.sqrt(10.0**log_rate / (x_end * rate))
    pi, lam = (Signal(grid, scale * s.samples) for s in (pi, lam))
    entry = DirectedPair(pi, lam) if coupled else pi
    n_steps = kerr_default_steps(entry, x_end, params, n_stations=5)
    march = propagate_nonlinear if coupled else propagate_unidirectional
    rec = march(entry, x_end, n_steps, params, grid, n_stations=5)
    k_c = params.mu0 * params.chi3 * params.c**2 / (
        2.0 * params.omega_pe**3 * params.omega_pm)
    full = _full_spectrum_lawson(DirectedPair(pi, lam), x_end, n_steps, grid,
                                 True, pq_c, k_c, coupled=coupled)
    steps = np.linspace(0, n_steps, 5).astype(int)
    for state, step in zip(rec.states, steps):
        got = np.stack([state.pi.samples, state.lam.samples])
        assert np.linalg.norm(got - full[step]) <= (
            10 * KERR_TAIL * np.linalg.norm(full[step]))
    assert rec.meta["kerr_march_n"] in {
        k * 2**j for k in (4, 5, 6) for j in range(n.bit_length())}


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(), min_size=1, max_size=12))
def test_format_table_renders_every_float_as_percent_17e(values):
    # any double st.floats() draws (nan, +-inf, -0.0, subnormals included)
    # is written exactly as '%.17e' % v writes it
    table = b"".join(table_chunks("v (1)", [np.array(values)]))
    assert table == b"v (1)\n" + b"".join(b"%.17e\n" % v for v in values)


def _config_text(scenario, medium, grid, pulse, run):
    sections = {"scenario": {"name": scenario}, "medium": medium,
                "grid": grid, "pulse": pulse, "run": run}
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n"
                                          for k, v in keys.items())
                   for name, keys in sections.items() if keys)


_UNIT = {"c": 1.0, "eps0": 1.0, "mu0": 1.0}

#: configs that passed ``validate`` and failed in ``run`` with a message
#: that named no key, or wrote fewer station tables than asked, and the
#: keys that the plan, or for the stations rule parse_config, now names
PLAN_CASES = {
    "grid bins in the gap": (_config_text(
        "split", {"omega_pe": 1.0, "omega_pm": 2.0, **_UNIT},
        {"n": 1024, "dt": 0.2}, {"carrier": 0.5, "width": 12.0}, {}),
        "grid.dt/grid.n"),
    "undecayed pulse": (_config_text(
        "split", {"omega_pe": 1.0, "omega_pm": 1.0, **_UNIT},
        {"n": 256, "dt": 0.1}, {"carrier": 0.3, "width": 15.0}, {}),
        "pulse.width/grid.n/grid.dt"),
    # dt = 2 pi 64 / 4096 puts bin 64 on w = p = q, where a(w) = 0
    "bin on w = p": (_config_text(
        "propagate-linear", {"omega_pe": 1.0, "omega_pm": 1.0, **_UNIT},
        {"n": 4096, "dt": 2.0 * np.pi * 64 / 4096},
        {"carrier": 0.5, "width": 12.0}, {"x_end": 1.0}),
        "grid.dt/grid.n"),
    # stations fall on steps: 4 steps held 5 of the 10 stations
    "steps below stations": (_config_text(
        "propagate-nonlinear",
        {"omega_pe": 1.0, "omega_pm": 1.0, **_UNIT, "chi3": 0.01},
        {"n": 1024, "dt": 0.2}, {"carrier": 0.5, "width": 12.0},
        {"x_end": 1.0, "n_steps": 4, "n_stations": 10}),
        "run.n_steps/run.n_stations"),
}


@st.composite
def cli_configs(draw):
    """Config text for any scenario: unit or SI media, p = q or p != q,
    grids below the band, across it or derived from the carrier, and
    Gaussians whose tails reach the window edge or not; now and then a
    run key the oracle cannot take."""
    rare = lambda: draw(st.integers(0, 3)) == 3  # noqa: E731
    scenario = draw(st.sampled_from(sorted(SCENARIOS)))
    si = draw(st.booleans())
    low = draw(st.floats(1e14, 1e16) if si else st.floats(0.5, 2.0))
    high = low * (1.0 if draw(st.booleans()) else draw(st.floats(1.2, 3.0)))
    p, q = (high, low) if draw(st.booleans()) else (low, high)
    medium = {"omega_pe": p, "omega_pm": q}
    c = C
    if not si:
        c = draw(st.floats(0.5, 2.0))
        medium.update(c=c, eps0=1.0 / c, mu0=1.0 / c,
                      chi3=draw(st.sampled_from([0.0, 0.01])))
    t_unit, x_unit = 1.0 / low, c / low
    xi_unit = float(np.sqrt(c / (p * q)))  # the stationary profiles' length

    n = draw(st.sampled_from([256, 512, 1024]))
    carrier = draw(st.floats(0.2, 0.5)) * low
    where = draw(st.sampled_from(["below", "across", "derived"]))
    if where == "below":  # Nyquist below min(p, q)
        dt = np.pi / (draw(st.floats(0.75, 0.95)) * low)
    elif where == "across":  # Nyquist above max(p, q)
        dt = np.pi / (draw(st.floats(1.1, 3.0)) * high)
    else:
        dt = 2.0 * np.pi / (32.0 * carrier)
    window = n * dt
    # the edge sample falls below 1e-8 of the peak from about window / 13
    edge = st.floats(11.0, 12.5) if rare() else st.floats(13.5, 18.0)
    pulse = {"carrier": carrier, "width": window / draw(edge)}
    grid = {"n": n} if where == "derived" else {"n": n, "dt": dt}

    run = {}
    if scenario in ("split", "propagate-linear", "propagate-kg",
                    "propagate-nonlinear"):
        run["boundary"] = draw(st.sampled_from(["e-only", "pure-right"]))
    if scenario in ("propagate-linear", "propagate-kg"):
        run.update(x_end=draw(st.floats(0.2, 3.0)) * x_unit, n_stations=3)
    if scenario in ("propagate-nonlinear", "propagate-unidirectional"):
        run.update(x_end=0.5 * x_unit, n_stations=draw(st.integers(2, 12)),
                   n_steps=draw(st.sampled_from([0, 8])))
    if scenario.startswith("stationary"):
        run["v"] = draw(st.floats(0.3, 2.0)) * c
    if scenario == "stationary-linear":
        run.update(xi_min=-2.0 * xi_unit, xi_max=2.0 * xi_unit, n_xi=21)
    if scenario == "stationary-nonlinear":
        run.update(pi0=draw(st.floats(0.1, 1.0)), xi_end=2.0 * xi_unit,
                   n_steps=40)
    if scenario == "taylor-error":
        run["n_points"] = 10
    if scenario == "reference-compare":
        dx = draw(st.sampled_from([0.1, 0.2])) * x_unit
        # a pad of 0.4 dx puts the source on the wall, one of 10 dx leaves
        # fewer than 64 nodes; 0.01 t_unit may end before the first step
        run.update(dx=dx, courant=1.2 if rare() else 0.5, x_ref=2.0 * dx,
                   x_probes=(5.5 if rare() else 4.0) * dx,
                   duration=(0.01 if rare() else 30.0) * t_unit,
                   pad=(draw(st.sampled_from([0.4, 10.0])) if rare()
                        else 30.0) * dx)
        if rare():
            run["duration"] = 1.05 * window
    return _config_text(scenario, medium, grid, pulse, run)


def _cli(*argv):
    """(exit status, stderr) of ``metapulse`` called with ``argv``."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        status = main(list(argv))
    return status, err.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(cli_configs())
@example(PLAN_CASES["grid bins in the gap"][0])
@example(PLAN_CASES["undecayed pulse"][0])
@example(PLAN_CASES["bin on w = p"][0])
@example(PLAN_CASES["steps below stations"][0])
def test_validate_exits_0_exactly_when_run_does(text):
    # validate is parse_config then the run's plan, so it fails exactly
    # when run does, naming a key; aborts that depend on the march are left
    # aside: BlowUpError, the oracle's instability and the oscillator's
    # non-finite state (both FloatingPointError). A run that exits 0 writes
    # one station table per run.n_stations.
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        config, out = Path(tmp) / "cfg.ini", Path(tmp) / "out"
        config.write_text(text)
        validated, checked = _cli("validate", str(config))
        ran, _ = _cli("run", str(config), "--out", str(out))
        diag = out / "error.txt"
        error = diag.read_text() if diag.exists() else ""
        if ran == 0:
            run = json.loads((out / "manifest.json").read_text())["run"]
            stations = len(list(out.glob("*_station_*.csv")))
            assert stations == run.get("n_stations", 0), (text, stations)
    if validated == 0 and error.startswith(("BlowUpError",
                                            "FloatingPointError")):
        return
    assert validated == ran, (text, checked, error)
    invalid = [ln for ln in checked.splitlines() if ln.startswith("invalid:")]
    assert len(invalid) == validated * len(checked.splitlines())
    assert all(re.match(r"invalid: [a-z0-9]+\.[a-z_0-9]+", ln)
               for ln in invalid)
    if error:  # a plan failure: run names what validate named
        assert error == f"ConfigError: {invalid[0][len('invalid: '):]}\n"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(dx=st.floats(1e-3, 10.0), courant=st.floats(1e-3, 0.99),
       dt=st.floats(1e-3, 10.0), c=st.floats(0.1, 10.0))
# c dt / (courant dx) rounds to 7.000000000000001, which counts as 7
@example(dx=0.02, courant=0.5, dt=0.07, c=1.0)
@example(dx=0.08, courant=0.5, dt=0.1, c=1.0)
# 1e-9 above 2, which counts as 2
@example(dx=1.0, courant=0.5, dt=1.000000001, c=1.0)
def test_oracle_steps_divide_the_grid_step_within_the_courant_bound(
        dx, courant, dt, c):
    # m steps make grid.dt within 1e-9 at a Courant number within the
    # bound (past it by at most the 1e-9 that counts a ratio as integer),
    # and no fewer steps can: m - 1 steps of at most courant dx / c fall
    # short of grid.dt by more than 1e-9
    params = DrudeParams(1.0, 1.0, c=c, eps0=1.0 / c, mu0=1.0 / c)
    grid = TimeGrid(8, dt)
    # more steps than that are refused by the plan before any is taken
    assume(c * dt / (courant * dx) < MAX_SAMPLES / grid.n)
    source = Signal(grid, np.sin(2.0 * np.pi * grid.times / grid.window))
    grid1d, *_ = _oracle(params, source, dx, courant, x_ref=dx,
                         x_probes=[dx], duration=dt, pad=40.0 * dx)
    m = round(dt / grid1d.dt_fdtd)
    assert abs(m * grid1d.dt_fdtd - dt) <= 1e-9 * dt
    assert c * grid1d.dt_fdtd / dx <= courant * (1.0 + 1.01e-9)
    assert m == 1 or (m - 1) * courant * dx / c < dt * (1.0 - 1e-9)


@pytest.mark.parametrize("case", sorted(PLAN_CASES))
def test_plan_names_the_keys_validate_missed(tmp_path, case):
    text, keys = PLAN_CASES[case]
    config = tmp_path / "cfg.ini"
    config.write_text(text)
    status, err = _cli("validate", str(config))
    assert status == 1 and err.startswith(f"invalid: {keys}: ")
    status, err = _cli("run", str(config), "--out", str(tmp_path / "out"))
    assert status == 1
    # a plan error goes to error.txt; parse_config's, before any output
    # directory is made, to stderr as validate prints it
    diag = tmp_path / "out" / "error.txt"
    if diag.exists():
        assert diag.read_text().startswith(f"ConfigError: {keys}: ")
    else:
        assert err.startswith(f"invalid: {keys}: ")


#: every finite double, subnormals included, drawn as often at or above 0,
#: where the rules that are not signs bind, as anywhere
_DOUBLES = st.floats(0.0, 1e308) | st.floats(-1e308, 1e308)
#: every finite value of each schema type
_FULL_RANGE = {float: _DOUBLES, int: st.integers(-2**62, 2**62),
               list: st.lists(_DOUBLES, min_size=1, max_size=3)}


@st.composite
def full_range_overrides(draw):
    """(scenario, overrides): one to three of the numeric keys the scenario
    reads, each set to any finite value of its type."""
    scenario = draw(st.sampled_from(sorted(SCENARIOS)))
    _, _, takes_pulse, run_keys = SCENARIOS[scenario]
    sections = {"medium": cli._MEDIUM_KEYS, "run": run_keys}
    if takes_pulse:
        sections.update(grid=cli._GRID_KEYS, pulse=cli._PULSE_KEYS)
    types = {f"{name}.{key}": typ for name, schema in sections.items()
             for key, (typ, _, _) in schema.items() if typ is not str}
    keys = draw(st.lists(st.sampled_from(sorted(types)), min_size=1,
                         max_size=3, unique=True))
    text = {float: repr, int: str, list: lambda xs: ", ".join(map(repr, xs))}
    return scenario, [f"{key}={text[types[key]](draw(_FULL_RANGE[types[key]]))}"
                      for key in keys]


@settings(max_examples=1500, deadline=None, derandomize=True, database=None)
@given(full_range_overrides())
# each printed a traceback: an OverflowError from c^2 in DrudeParams, p^2
# in a_squared, width^2 in synthesize_pulse, and int() of the infinite
# count kerr_default_steps derived
@example(("propagate-nonlinear", ["medium.c=1e300"]))
@example(("propagate-nonlinear", ["medium.omega_pe=1e300"]))
@example(("propagate-nonlinear", ["pulse.width=1e300"]))
@example(("propagate-nonlinear", ["medium.chi3=1e308", "run.n_steps=0"]))
def validate_over_full_ranges(case):
    """``validate`` of an acceptance-10 config under ``case``'s overrides
    exits 0, or 1 with only ``invalid:`` lines; a traceback, a MemoryError
    among them, fails. Run by the test below in a child process."""
    from test_acceptance import BASE_MEDIUM, SCENARIO_CONFIGS

    scenario, overrides = case
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        config = Path(tmp) / "cfg.ini"
        config.write_text(f"[scenario]\nname = {scenario}\n" + BASE_MEDIUM
                          + SCENARIO_CONFIGS[scenario])
        status, err = _cli("validate", str(config),
                           *(a for o in overrides for a in ("--override", o)))
    assert status in (0, 1), (case, status)
    assert status == bool(err), (case, err)
    assert all(line.startswith("invalid: ") for line in err.splitlines()), (
        case, err)


def test_validate_prints_no_traceback_for_any_finite_value():
    # the child's address space is capped at 1 GiB, which the plans of the
    # largest runs the ceilings admit fit in, so a run that a missing rule
    # lets allocate more fails at once in a MemoryError, on any machine;
    # one BLAS thread, as each reserves about 40 MB of address space
    resource = pytest.importorskip("resource")
    cap = 1 << 30
    tests = Path(__file__).resolve().parent
    out = subprocess.run(
        [sys.executable, "-c",
         "import test_properties; test_properties.validate_over_full_ranges()"],
        cwd=tests, text=True, capture_output=True, timeout=600,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1",
             "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"),
                                            str(tests)])},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    assert out.returncode == 0, out.stderr[-4000:]
