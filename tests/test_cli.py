"""Config parsing, pulse synthesis and scenario running."""

import collections
import configparser
import errno
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from metapulse import (ConfigError, DirectedPair, DrudeParams, Signal,
                       TimeGrid, cli, evolution, reference, render, spectral,
                       waves)
from metapulse.cli import (
    MAX_DEFAULT_KERR_STEPS,
    main,
    parse_config,
    plan,
    run_scenario,
    synthesize_pulse,
)
from metapulse.render import CSV_CHUNK_VALUES, table_chunks
from conftest import fft_omegas

# the two warnings the acceptance-10 configs emit, filtered by message so
# that any other fails its test: split's on the oracle's records, and the
# long-wave reduction's on propagate-kg
edge_decay = pytest.mark.filterwarnings(
    "ignore:boundary signal [jk] does not decay at window edges")
kg_band = pytest.mark.filterwarnings("ignore:spectral content above")

BASE = """
[scenario]
name = split

[medium]
omega_pe = 1.0
omega_pm = 1.0
c = 1.0
eps0 = 1.0
mu0 = 1.0

[grid]
n = 1024
dt = 0.2

[pulse]
carrier = 0.5
width = 12.0
"""


def test_parse_minimal_valid():
    cfg = parse_config(BASE)
    assert cfg.scenario == "split"
    assert cfg.grid["n"] == 1024
    assert cfg.pulse["amplitude"] == 1.0  # default filled
    assert cfg.run["boundary"] == "e-only"
    assert cfg.params.omega_pe == 1.0


def test_parse_collects_all_violations():
    bad = BASE + "\n[run]\nbogus = 1\n\n[extra]\nx = 2\n"
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    msgs = "\n".join(err.value.violations)
    assert "run.bogus: unknown key" in msgs
    assert "extra: unknown section" in msgs


@pytest.mark.parametrize("scenario, medium, pulse, run, expected", [
    ("propagate-linear", "", "", "bogus = 1\nx_end = -1\nn_stations = 1\n",
     ["run.bogus: unknown key", "run.x_end: must be positive",
      "run.n_stations: must be at least 2 (entry and exit)"]),
    ("split", "", "bogus = 1\namplitude = 0\n", "",
     ["pulse.bogus: unknown key", "pulse.amplitude: must be nonzero"]),
    # pulse rules bind only the scenarios that take a pulse
    ("stationary-linear", "", "amplitude = 0\n",
     "v = 0.8\nxi_min = -5.0\nxi_max = 5.0\n", []),
    # the medium and the rules that span keys were checked only on a config
    # with no other violation, so these three took three rounds
    ("propagate-linear", "chi3 = -1\n", "shape = user-file\n",
     "x_end = -1\n",
     ["run.x_end: must be positive", "medium.chi3: must not be negative",
      "pulse.file: required for shape user-file"]),
    # a refused medium skips the rules that read it: the band's gap and
    # taylor-error's p <= q
    ("propagate-kg", "chi3 = -1\n", "", "x_end = 1\n",
     ["medium.chi3: must not be negative"]),
    ("taylor-error", "chi3 = -1\n", "", "",
     ["medium.chi3: must not be negative"]),
    # an output violation hid the cross-key pulse rules
    ("propagate-linear", "", "shape = user-file\n",
     "x_end = 1\n\n[output]\nbogus = 1\n",
     ["output.bogus: unknown key",
      "pulse.file: required for shape user-file"]),
    # a Kerr run's range rules, its medium and its pulse in one pass
    ("propagate-nonlinear", "chi3 = -1\n", "shape = user-file\n",
     "x_end = 1\nn_stations = 1\n",
     ["run.n_stations: must be at least 2 (entry and exit)",
      "medium.chi3: must not be negative",
      "pulse.file: required for shape user-file"]),
    # the Kerr stations rule ran in the plan, so it came one round late
    ("propagate-nonlinear", "", "",
     "x_end = -1\nn_steps = 4\nn_stations = 10\n",
     ["run.x_end: must be positive",
      "run.n_steps/run.n_stations: 4 steps hold at most 5 stations; "
      "raise run.n_steps or lower run.n_stations"]),
    # the Gaussian's rules run on a refused medium too, after it
    ("propagate-linear", "chi3 = -1\n", "carrier = -0.5\n", "x_end = -1\n",
     ["run.x_end: must be positive", "medium.chi3: must not be negative",
      "pulse.carrier: must be positive"]),
    # an unknown name leaves no scenario whose keys could be checked
    ("bogus", "", "", "",
     [f"scenario.name: unknown scenario 'bogus'; choose from "
      f"{sorted(cli.SCENARIOS)}"]),
], ids=["run-keys", "pulse-keys", "pulse-unused", "medium-pulse-run",
        "medium-refused", "medium-refused-taylor", "output-pulse",
        "kerr-run-medium-pulse", "kerr-stations-run",
        "medium-pulse-run-gaussian", "unknown-scenario"])
def test_validate_reports_every_key_violation_in_one_pass(
        tmp_path, capsys, scenario, medium, pulse, run, expected):
    # a typo hid every range violation: only the unknown key was listed; a
    # pulse key of the row replaces BASE's, any other is added after them
    keys = {line.partition(" = ")[0]: line
            for line in ["carrier = 0.5", "width = 12.0", *pulse.splitlines()]}
    text = BASE.replace("name = split", f"name = {scenario}").replace(
        "mu0 = 1.0\n", f"mu0 = 1.0\n{medium}").replace(
        "carrier = 0.5\nwidth = 12.0\n",
        "".join(f"{line}\n" for line in keys.values())) + f"\n[run]\n{run}"
    f = tmp_path / "cfg.ini"
    f.write_text(text)
    assert main(["validate", str(f)]) == (1 if expected else 0)
    assert capsys.readouterr().err.splitlines() == [
        f"invalid: {v}" for v in expected]


def test_parse_rejects_a_band_at_nyquist():
    # every sample of sin(carrier t) was ~0 at Nyquist, and the pulse was
    # rejected for its window edge although the window holds 13.5 widths
    text = (BASE.replace("omega_pe = 1.0", "omega_pe = 0.5")
            .replace("omega_pm = 1.0", "omega_pm = 0.6")
            .replace("n = 1024", "n = 256")
            .replace("dt = 0.2", f"dt = {np.pi / 0.15!r}")
            .replace("carrier = 0.5\nwidth = 12.0",
                     "carrier = 0.15\nwidth = 397.0"))
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.violations == [
        "pulse.carrier/width/grid.dt: band reaches the Nyquist frequency "
        "pi/grid.dt = 0.15 rad/s; lower grid.dt or narrow the bandwidth"]


def test_parse_band_violation():
    bad = BASE.replace("omega_pm = 1.0", "omega_pm = 2.0").replace(
        "carrier = 0.5", "carrier = 1.5"
    )
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert any("evanescent" in v for v in err.value.violations)


def test_parse_negative_chi3():
    bad = BASE + "\n[medium]\n"  # configparser forbids dup section; edit text
    bad = BASE.replace("mu0 = 1.0", "mu0 = 1.0\nchi3 = -1.0")
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert any("chi3" in v for v in err.value.violations)


def test_parse_missing_required():
    cfg_text = BASE.replace("name = split", "name = propagate-linear")
    with pytest.raises(ConfigError) as err:
        parse_config(cfg_text)
    assert any("run.x_end" in v for v in err.value.violations)


@pytest.mark.parametrize("n_stations", [0, 1, -3])
@pytest.mark.parametrize("scenario", [
    "propagate-linear", "propagate-kg", "propagate-nonlinear",
    "propagate-unidirectional",
])
def test_parse_rejects_fewer_than_two_stations(scenario, n_stations):
    text = BASE.replace("name = split", f"name = {scenario}")
    text += f"\n[run]\nx_end = 1.0\nn_stations = {n_stations}\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert any(v.startswith("run.n_stations:") for v in err.value.violations)
    parse_config(text.replace(f"n_stations = {n_stations}", "n_stations = 2"))


def test_synthesize_gaussian():
    grid = TimeGrid(1024, 0.2)
    sig = synthesize_pulse(grid, carrier=0.5, width=12.0)
    assert abs(np.mean(sig.samples)) <= 1e-8 * sig.peak
    spec = np.abs(np.fft.fft(sig.samples))
    k_peak = int(np.argmax(spec[: grid.n // 2]))
    assert fft_omegas(grid)[k_peak] == pytest.approx(
        0.5, abs=2.0 * np.pi / grid.window)


def test_synthesize_rejects_dirty():
    grid = TimeGrid(1024, 0.2)
    with pytest.raises(ValueError):
        synthesize_pulse(grid, carrier=0.5, width=grid.window)  # no edge decay
    with pytest.raises(ValueError):
        synthesize_pulse(grid, shape="sawtooth", carrier=0.5, width=12.0)


def test_synthesize_file_round_trip(tmp_path):
    grid = TimeGrid(1024, 0.2)
    sig = synthesize_pulse(grid, carrier=0.5, width=12.0)
    f = tmp_path / "pulse.txt"
    np.savetxt(f, np.column_stack([grid.times, sig.samples]))
    back = synthesize_pulse(grid, shape="user-file", file=str(f))
    assert np.max(np.abs(back.samples - sig.samples)) <= 1e-9 * sig.peak
    # pulse.amplitude scales a user file's samples too
    louder = synthesize_pulse(grid, shape="user-file", amplitude=5.0,
                              file=str(f))
    assert np.max(np.abs(louder.samples - 5.0 * back.samples)) <= (
        1e-14 * louder.peak)


def test_user_file_lists_a_middle_run_of_grid_times(tmp_path, capsys):
    # a file's rows are the samples at their grid times, and every time it
    # does not list is zero: nothing is resampled
    grid = TimeGrid(1024, 0.2)
    sig = synthesize_pulse(grid, carrier=0.5, width=12.0)
    mid = slice(64, 960)
    f = tmp_path / "pulse.txt"
    np.savetxt(f, np.column_stack([grid.times[mid], sig.samples[mid]]),
               fmt="%.17e")
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(BASE.replace("carrier = 0.5\nwidth = 12.0\n",
                                f"shape = user-file\nfile = {f}\n"))
    assert main(["validate", str(cfg)]) == 0
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    want = np.zeros(grid.n)
    want[mid] = sig.samples[mid]
    back = synthesize_pulse(grid, shape="user-file", file=str(f))
    assert np.array_equal(back.samples, want - np.mean(want))


def _off_grid_times(times, dt, case):
    """``times`` with one row, or all of them, moved off the contract."""
    t = times.copy()
    if case == "off-grid":
        t[100] += 1e-6 * dt
    elif case == "at-window":
        t += dt
    elif case == "past-window":
        t[-1] = 2.0 * (times[-1] + dt)
    elif case == "negative":
        t -= dt
    elif case == "repeated":
        t[200] = t[199]
    elif case == "decreasing":
        t[200], t[201] = t[201], t[200]
    return t


@pytest.mark.parametrize("case", ["off-grid", "at-window", "past-window",
                                  "negative", "repeated", "decreasing"])
def test_pulse_file_off_the_grid_names_the_keys(tmp_path, capsys, case):
    grid = TimeGrid(1024, 0.2)
    sig = synthesize_pulse(grid, carrier=0.5, width=12.0)
    f = tmp_path / "pulse.txt"
    np.savetxt(f, np.column_stack([_off_grid_times(grid.times, grid.dt, case),
                                   sig.samples]), fmt="%.17e")
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(BASE.replace("carrier = 0.5\nwidth = 12.0\n",
                                f"shape = user-file\nfile = {f}\n"))
    assert main(["validate", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid: pulse.file/grid.dt: ") and str(f) in err
    assert "Traceback" not in err
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    assert (out / "error.txt").read_text().startswith(
        "ConfigError: pulse.file/grid.dt: ")


def test_cli_import_loads_no_scipy():
    code = ("import sys, metapulse.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", code], check=True, text=True,
                         capture_output=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"


def test_run_split_scenario(tmp_path):
    cfg = parse_config(BASE)
    status, written = run_scenario(cfg, out_dir=tmp_path / "a")
    assert status == 0
    names = sorted(p.split("/")[-1] for p in written)
    assert "split.csv" in names and "manifest.json" in names
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert manifest["scenario"] == "split"
    assert "pi_peak (T)" in manifest["summary"]
    table = (tmp_path / "a" / "split.csv").read_text().splitlines()
    assert table[0].startswith("t (s),")

    # byte determinism of one scenario (the full sweep is in acceptance)
    run_scenario(cfg, out_dir=tmp_path / "b")
    assert (tmp_path / "a" / "split.csv").read_bytes() == (
        tmp_path / "b" / "split.csv"
    ).read_bytes()
    assert (tmp_path / "a" / "manifest.json").read_bytes() == (
        tmp_path / "b" / "manifest.json"
    ).read_bytes()


def _format_per_value(header, columns):
    """Reference rendering: one f-string per value, one row at a time,
    encoded as ASCII."""
    rows = np.column_stack(columns)
    return (header + "\n" + "".join(
        ",".join(f"{v:.17e}" for v in row) + "\n" for row in rows
    )).encode("ascii")


def _eager_decimal_constants():
    """Reference for the renderer's per-binade constants: (decade,
    threshold, scale) for all 2098 binades at once, from exact Python ints,
    with scale's column 2 (ex + 1073) + d for the decade E + d."""
    exs = range(-1073, 1025)
    decade = np.empty(len(exs), dtype=np.int32)
    threshold = np.empty(len(exs))
    scale = np.empty((len(exs), 2, 3))
    for i, ex in enumerate(exs):
        n = ex - 1
        e = len(str(1 << n)) - 1 if n >= 0 else len(str(5**-n)) - 1 + n
        e2 = ex - 53
        decade[i] = e
        num = 10 ** max(e + 1, 0) << max(-e2, 0)
        den = 10 ** max(-e - 1, 0) << max(e2, 0)
        threshold[i] = min(-(-num // den), 1 << 53)
        for d in (0, 1):
            k = 17 - e - d
            num = 10 ** max(k, 0) << max(e2, 0)
            den = 10 ** max(-k, 0) << max(-e2, 0)
            hi = num / den
            hn, hd = hi.as_integer_ratio()
            lo = (num * hd - hn * den) / (den * hd)
            split = hi * 134217729.0
            high = split - (split - hi)
            scale[i, d] = high, hi - high, lo
    return decade, threshold, scale.reshape(-1, 3).T


def test_binades_built_on_demand_match_the_eager_constants():
    render._decimal_table.cache_clear()
    # 2^(ex-1) is in the binade ex, for every ex in -1073..1024
    b"".join(table_chunks("a", [np.ldexp(0.5, np.arange(-1073, 1025))]))
    built, *constants = render._decimal_table()[:4]
    assert built.all()
    for have, want in zip(constants, _eager_decimal_constants()):
        assert have.dtype == want.dtype
        assert np.array_equal(have, want)


def test_a_table_builds_only_the_binades_it_meets():
    # all 2098 binades took about 40 ms to build, where a run meets 42-95
    render._decimal_table.cache_clear()
    columns = list(np.random.default_rng(3).standard_normal((5, 65536)))
    b"".join(table_chunks("a,b,c,d,e", columns))
    built = render._decimal_table()[0]
    met = np.unique(np.frexp(np.concatenate(columns))[1]) + 1073
    assert np.array_equal(np.flatnonzero(built), met)
    assert built.sum() < 150


def _near_ties():
    """Doubles whose 18-digit rounding lies within 2^-40 of a tie without
    being one, which the renderer leaves to Python: v = q 2^(ex-53), where
    p/q is a continued-fraction convergent of 2^(ex-52) 10^(17-E) (twice
    the renderer's scale for the decade E of v) with p odd and q in
    [2^52, 2^53)."""
    found = []
    for ex in range(-1021, 1025):
        low = math.floor((ex - 1) * math.log10(2.0))
        for e in (low, low + 1):
            x = Fraction(2) ** (ex - 52) * Fraction(10) ** (17 - e)
            num, den = x.numerator, x.denominator
            p0, q0, p1, q1 = 0, 1, 1, 0
            while den and q1 < 2**53:
                a, (num, den) = num // den, (den, num % den)
                p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
                if not (2**52 <= q1 < 2**53 and p1 % 2
                        and 0 < abs(q1 * x - p1) < Fraction(1, 2**39)):
                    continue
                v = math.ldexp(q1, ex - 53)
                if Fraction(10) ** e <= v < Fraction(10) ** (e + 1):
                    found.append(v)
    return np.array(found)


def _with_neighbours(values):
    return np.concatenate([values, np.nextafter(values, -np.inf),
                           np.nextafter(values, np.inf)])


def _edge_values(name):
    rng = np.random.default_rng(7)
    if name == "powers-of-two":
        return _with_neighbours(np.ldexp(1.0, np.arange(-1074, 1024)))
    if name == "powers-of-ten":
        return _with_neighbours(
            np.array([float(f"1e{k}") for k in range(-323, 309)]))
    if name == "subnormals":
        tiny = rng.integers(1, 2**52, 10_000).view(float)
        return np.concatenate([[0.0, -0.0, 5e-324, -5e-324], tiny, -tiny])
    if name == "integers":
        return np.concatenate([np.arange(10_000.0),
                               2.0**53 - np.arange(10_000.0),
                               rng.integers(0, 2**53, 10_000) * 1.0])
    if name == "exact-ties":
        # 153 of them end in an exact tie at the 18th digit (2^-27 =
        # 7.450580596923828125e-09 among them), which rounds half-even
        odd = np.arange(1.0, 200.0, 2.0)
        return np.ldexp(odd[:, None], np.arange(-60, 1)).ravel()
    if name == "near-ties":
        return _near_ties()
    if name == "next-decade":
        # the one double whose 18 digits round up into the next decade:
        # it is just below 10^153
        return np.array([1e153, -1e153])
    if name == "non-finite":
        return np.array([np.inf, -np.inf, np.nan, -np.nan])
    if name == "random-bits":
        return rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max,
                            1_000_000, endpoint=True).view(float)
    raise KeyError(name)


def _chunk_rows(n_cols):
    """Rows of an n_cols-column table that ``table_chunks`` renders at a
    time."""
    return max(1, CSV_CHUNK_VALUES // n_cols)


def _wide_exponents(n_rows, n_cols):
    """An n_rows x n_cols table of random values of both signs, about half
    with 3-digit exponents (|E| >= 100) and half with 2-digit ones. The
    last value of each chunk, and so of the table, has a 3-digit exponent,
    positive in even chunks and negative in odd ones."""
    rng = np.random.default_rng(n_rows * 10 + n_cols)
    chunk = _chunk_rows(n_cols)
    shape = (n_rows, n_cols)
    wide = np.concatenate([np.arange(-323, -99), np.arange(100, 308)])
    exponents = np.where(rng.random(shape) < 0.5, rng.choice(wide, shape),
                         rng.integers(-99, 100, shape))
    signs = rng.choice([-1.0, 1.0], shape)
    table = signs * rng.uniform(2.0, 8.0, shape) * 10.0**exponents
    ends = np.unique(np.append(np.arange(chunk - 1, n_rows, chunk),
                               n_rows - 1))
    table[ends, -1] = np.where(ends // chunk % 2, -3.5e-250, 6.5e300)
    return table


def _slot_widths(n_cols):
    """Four chunks of zeros of both signs whose first and last values take
    turns at the edge of 2-digit exponents, so the chunks' slots go 25,
    26, 25, 26 bytes: 1e-99 against the double below it (9.99...e-100),
    and the double below 1e100 against 1e100."""
    below_100 = np.nextafter(1e100, 0.0)
    below_m99 = np.nextafter(1e-99, 0.0)
    chunk = _chunk_rows(n_cols) * n_cols
    values = np.resize([0.0, -0.0], 4 * chunk)
    firsts = [1e-99, -below_m99, below_100, -0.0]
    lasts = [-below_100, 0.0, -1e-99, 1e100]
    values[::chunk] = firsts
    values[chunk - 1::chunk] = lasts
    return values.reshape(-1, n_cols)


# the chunk edges of an n_cols-column table: (chunks, rows past them)
_CHUNK_EDGES = {"chunk-1": (1, -1), "chunk": (1, 0), "chunk+1": (1, 1),
                "3chunk+7": (3, 7)}


@pytest.mark.parametrize("n_cols", [1, 2, 5])
@pytest.mark.parametrize("n_rows", [
    1, 511, 512, 513, 1543, *_CHUNK_EDGES,
    "powers-of-two", "powers-of-ten", "subnormals", "integers", "exact-ties",
    "near-ties", "next-decade", "non-finite", "random-bits", "wide-exponents",
    "slot-widths",
])
def test_format_table_bytes_match_per_value_rendering(n_rows, n_cols):
    # random rows of every magnitude, in a table of a fixed size or of one
    # at a chunk edge; a named set of edge values laid out row by row in
    # n_cols columns (zero-padded); wide exponents in a table one row short
    # of a chunk and in one a row past it; or chunks that switch slot width
    if n_rows in _CHUNK_EDGES:
        chunks, extra = _CHUNK_EDGES[n_rows]
        n_rows = chunks * _chunk_rows(n_cols) + extra
    if n_rows == "wide-exponents":
        tables = [_wide_exponents(_chunk_rows(n_cols) + extra, n_cols)
                  for extra in (-1, 1)]
    elif n_rows == "slot-widths":
        tables = [_slot_widths(n_cols)]
    elif isinstance(n_rows, str):
        values = _edge_values(n_rows)
        values = np.append(values, np.zeros(-len(values) % n_cols))
        tables = [values.reshape(-1, n_cols)]
    else:
        rng = np.random.default_rng(n_rows * 10 + n_cols)
        special = [0.0, -0.0, 5e-324, -1e308, 1.0 / 3.0]
        columns = [np.arange(n_rows, dtype=float)]  # integer-valued times
        for c in range(1, n_cols):
            exponents = rng.integers(-300, 300, n_rows)
            col = rng.standard_normal(n_rows) * 10.0**exponents
            col[: len(special)] = np.roll(special, c)[: n_rows]
            columns.append(col)
        tables = [np.column_stack(columns)]
    header = ",".join(f"c{i}" for i in range(n_cols))
    for rows in tables:
        columns = list(rows.T)
        table = b"".join(table_chunks(header, columns))
        assert table == _format_per_value(header, columns)
        assert table.count(b"\n") == len(rows) + 1


@edge_decay
@kg_band
def test_cli_tables_match_per_value_rendering(tmp_path):
    # every CSV that `metapulse run` writes for the 9 acceptance-10 configs,
    # parsed back with float() and rendered one value at a time, is the
    # file's text; its header names one field a column (split.csv's
    # "j=E(0,t)" read as two), and the manifest lists exactly these tables,
    # each station's and probe's under its own name
    from test_acceptance import BASE_MEDIUM, SCENARIO_CONFIGS

    tables = 0
    for name, extra in SCENARIO_CONFIGS.items():
        config = tmp_path / f"{name}.ini"
        config.write_text(f"[scenario]\nname = {name}\n{BASE_MEDIUM}{extra}")
        assert main(["run", str(config), "--out", str(tmp_path / name)]) == 0
        paths = sorted((tmp_path / name).glob("*.csv"))
        for path in paths:
            table = path.read_bytes()
            header, *lines = table.decode("ascii").splitlines()
            rows = np.array([[float(v) for v in line.split(",")]
                             for line in lines])
            assert len(header.split(",")) == rows.shape[1]
            assert table == _format_per_value(header, list(rows.T))
            tables += 1
        manifest = json.loads((tmp_path / name / "manifest.json").read_text())
        assert list(manifest["tables"]) == [path.name for path in paths]
        xs = [meta["x (m)"] for meta in manifest["tables"].values()
              if "x (m)" in meta]
        run = manifest["run"]
        if "x_probes" in run:
            assert xs == run["x_probes"]
        elif "x_end" in run:  # Kerr stations fall on steps
            assert xs[0] == 0.0 and xs[-1] == run["x_end"]
            assert np.all(np.diff(xs) > 0)
    assert tables == 25


@pytest.mark.parametrize("n_steps", [80, None])
@pytest.mark.parametrize("scenario, rows", [
    ("propagate-nonlinear", 2), ("propagate-unidirectional", 1),
])
def test_kerr_manifest_records_kerr_stiffness(tmp_path, scenario, rows,
                                              n_steps):
    # kerr_stiffness = h sigma_0 with sigma_0 = 3 rows (K/c) max_t(u_tt^2)
    # w_top: u_tt the masked second derivative of Pi - Lambda at entry,
    # w_top the highest bin the 2/3-rule mask keeps, n/3. Without
    # run.n_steps the count is the least that keeps h sigma_0 <= 2 and
    # h Omega_0 <= 1/4, Omega_0 the rms of pq/(c w) over the entry's power
    # spectrum.
    # p != q with the evanescent band (20, 30) above every grid bin
    text = BASE.replace("name = split", f"name = {scenario}")
    text = text.replace("omega_pe = 1.0\nomega_pm = 1.0",
                        "omega_pe = 20.0\nomega_pm = 30.0")
    text = text.replace("c = 1.0\neps0 = 1.0\nmu0 = 1.0",
                        "c = 2.0\neps0 = 0.5\nmu0 = 0.5\nchi3 = 10.0")
    text += "\n[run]\nx_end = 0.5\n"
    if n_steps is not None:
        text += f"n_steps = {n_steps}\n"
    status, _ = run_scenario(parse_config(text), out_dir=tmp_path)
    assert status == 0
    summary = json.loads((tmp_path / "manifest.json").read_text())["summary"]
    stations = [np.loadtxt(path, delimiter=",", skiprows=1)
                for path in sorted(tmp_path.glob("*_station_*.csv"))]
    grid = TimeGrid(1024, 0.2)
    k = np.abs(np.fft.fftfreq(grid.n) * grid.n)
    k_c = 0.5 * 10.0 * 2.0**2 / (2.0 * 20.0**3 * 30.0)

    def sigma_at(station, m=grid.n):  # cut at bin m/3 of m points
        top = m // 3
        u_tt = np.fft.ifft(-fft_omegas(grid)**2 * (k <= top)
                           * np.fft.fft(station[:, 1] - station[:, 2])).real
        w_top = 2.0 * np.pi * top / grid.window
        return 3.0 * rows * k_c * np.max(u_tt**2) * w_top

    entry = stations[0]
    sigma = sigma_at(entry)
    fields = entry[:, 1:1 + rows].T
    power = np.sum(np.abs(np.fft.rfft(fields))**2, axis=0)
    rate = 20.0 * 30.0 / 2.0 / grid.half_omegas[1:-1]
    omega = np.sqrt(np.sum(rate**2 * power[1:-1]) / np.sum(power))
    expected_steps = n_steps or max(int(np.ceil(0.5 * sigma / 2.0)),
                                    int(np.ceil(0.5 * omega / 0.25)))
    assert summary["n_steps"] == expected_steps
    assert summary["kerr_stiffness (1)"] == pytest.approx(
        0.5 / expected_steps * sigma, rel=1e-12)
    # the same rate read from the exit station, at the cut of the last
    # grid the march ran on
    assert summary["kerr_stiffness_exit (1)"] == pytest.approx(
        0.5 / expected_steps
        * sigma_at(stations[-1], summary["kerr_march_n (1)"]), rel=1e-9)
    if n_steps is None:
        assert summary["kerr_stiffness (1)"] <= 2.0


def test_derived_kerr_count_has_a_ceiling(tmp_path):
    # the derived count grows with pulse.amplitude squared; past
    # MAX_DEFAULT_KERR_STEPS the run stops before marching and names the
    # count and the settings to change
    text = _readme_config().replace("amplitude = 0.1", "amplitude = 1000.0")
    status, _ = run_scenario(parse_config(text), out_dir=tmp_path)
    assert status == 1
    message = (tmp_path / "error.txt").read_text()
    n_steps = float(message.split("step count ")[1].split()[0])
    assert n_steps > MAX_DEFAULT_KERR_STEPS
    assert "run.n_steps" in message and "pulse.amplitude" in message


@pytest.mark.parametrize("scenario", ["propagate-nonlinear",
                                      "propagate-unidirectional"])
def test_kerr_scenarios_have_no_dealias_switch(tmp_path, capsys, scenario):
    # the 2/3-rule mask is fixed: run.dealias is an unknown key, and neither
    # the scenario listing nor the manifest names it
    text = (BASE.replace("name = split", f"name = {scenario}")
            .replace("mu0 = 1.0", "mu0 = 1.0\nchi3 = 0.01")
            + "\n[run]\nx_end = 0.5\nn_steps = 8\n")
    f = tmp_path / "cfg.ini"
    f.write_text(text + "dealias = false\n")
    assert main(["validate", str(f)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "invalid: run.dealias: unknown key"]

    assert main(["scenarios"]) == 0
    listing = capsys.readouterr().out
    assert scenario in listing and "dealias" not in listing

    f.write_text(text)
    assert main(["run", str(f), "--out", str(tmp_path / "out")]) == 0
    assert "dealias" not in (tmp_path / "out" / "manifest.json").read_text()


@pytest.mark.parametrize("n_steps, refused", [(9, False), (8, True)])
@pytest.mark.parametrize("scenario", ["propagate-nonlinear",
                                      "propagate-unidirectional"])
def test_kerr_plan_refuses_fewer_steps_than_stations(tmp_path, scenario,
                                                     n_steps, refused):
    # stations fall on steps: n_steps steps hold n_steps + 1 stations, and
    # 10 stations at 8 steps validated, then wrote 9 tables; parse_config
    # refuses the pair, so no plan is built
    text = (BASE.replace("name = split", f"name = {scenario}")
            .replace("mu0 = 1.0", "mu0 = 1.0\nchi3 = 0.01")
            + f"\n[run]\nx_end = 0.5\nn_steps = {n_steps}\n"
            "n_stations = 10\n")
    if refused:
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.violations == [
            "run.n_steps/run.n_stations: 8 steps hold at most 9 stations; "
            "raise run.n_steps or lower run.n_stations"]
        return
    status, written = run_scenario(parse_config(text), out_dir=tmp_path)
    assert status == 0
    assert len([p for p in written if "_station_" in p]) == 10


def _readme_config():
    """The INI example of README.md, as the README gives it."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.split("```ini\n", 1)[1].split("```", 1)[0]


@pytest.mark.parametrize("dt", ["0.05", "0.2", None])
def test_readme_kerr_config_runs_with_defaults(tmp_path, dt):
    # the README's propagate-nonlinear example at its own grid.dt, at a
    # coarser one and with grid.dt derived from the carrier
    text = _readme_config()
    assert "name = propagate-nonlinear" in text and "dt = 0.05\n" in text
    text = text.replace("dt = 0.05\n", "" if dt is None else f"dt = {dt}\n")
    status, written = run_scenario(parse_config(text), out_dir=tmp_path)
    assert status == 0
    stations = [p for p in written if "_station_" in p]
    assert len(stations) == 5
    for path in stations:
        assert np.all(np.isfinite(np.loadtxt(path, delimiter=",",
                                             skiprows=1)))
    summary = json.loads((tmp_path / "manifest.json").read_text())["summary"]
    assert summary["kerr_stiffness (1)"] <= 2.0


@pytest.mark.parametrize("scenario", ["propagate-nonlinear",
                                      "propagate-unidirectional"])
def test_pure_right_entry_warns_of_undecayed_k(tmp_path, scenario):
    # on the scenario-sweep's seed-1 propagate-nonlinear pulse, the
    # pure-right entry k = a-hat j (propagate-nonlinear's default boundary,
    # propagate-unidirectional's only one) keeps low-frequency tails at the
    # window edges (edge/peak 2.9e-8), which split reports
    from test_acceptance import BASE_MEDIUM

    cfg = parse_config(
        f"[scenario]\nname = {scenario}\n" + BASE_MEDIUM
        + "[grid]\nn = 1024\ndt = 0.2\n"
        "[pulse]\ncarrier = 0.482784719636615\nwidth = 12.005440049519311\n"
        "amplitude = 0.9503770682948983\n[run]\nx_end = 1.0\nn_steps = 50\n")
    with pytest.warns(UserWarning, match="boundary signal k does not decay "
                                         "at window edges"):
        status, _ = run_scenario(cfg, out_dir=tmp_path)
    assert status == 0


@edge_decay
@pytest.mark.parametrize("forced", [None, True, False])
def test_reference_compare_manifest_records_fdtd_contamination(
        tmp_path, monkeypatch, forced):
    # the summary carries run_boundary_source's wall-reflection flag as it
    # came out of the FDTD run (None), and follows it when it is set
    from test_acceptance import BASE_MEDIUM, SCENARIO_CONFIGS

    run_source = reference.run_boundary_source
    flags = []

    def recorded(*args, **kwargs):
        out = run_source(*args, **kwargs)
        if forced is not None:
            out["contaminated"] = forced
        flags.append(out["contaminated"])
        return out

    monkeypatch.setattr(reference, "run_boundary_source", recorded)
    cfg = parse_config("[scenario]\nname = reference-compare\n"
                       + BASE_MEDIUM + SCENARIO_CONFIGS["reference-compare"])
    status, _ = run_scenario(cfg, out_dir=tmp_path)
    assert status == 0
    summary = json.loads((tmp_path / "manifest.json").read_text())["summary"]
    assert len(flags) == 1
    assert summary["fdtd_contaminated"] is flags[0]


@edge_decay
def test_reference_compare_takes_user_file_pulse(tmp_path):
    # the acceptance-10 Gaussian, sampled at the grid's own times and read
    # back from a file, gives the Gaussian run's probe tables
    from test_acceptance import BASE_MEDIUM, SCENARIO_CONFIGS

    text = ("[scenario]\nname = reference-compare\n" + BASE_MEDIUM
            + SCENARIO_CONFIGS["reference-compare"])
    gauss = parse_config(text)
    grid = TimeGrid(gauss.grid["n"], gauss.grid["dt"])
    pulse = synthesize_pulse(grid, **gauss.pulse)
    f = tmp_path / "pulse.txt"
    np.savetxt(f, np.column_stack([grid.times, pulse.samples]), fmt="%.17e")
    user = parse_config(text.replace("carrier = 0.3\nwidth = 15.0\n",
                                     f"shape = user-file\nfile = {f}\n"))
    for cfg, name in ((gauss, "gauss"), (user, "user")):
        status, _ = run_scenario(cfg, out_dir=tmp_path / name)
        assert status == 0, name
    tables = sorted(p.name for p in (tmp_path / "gauss").glob("compare_*.csv"))
    assert tables
    for table in tables:
        want, got = (np.loadtxt(tmp_path / name / table, delimiter=",",
                                skiprows=1) for name in ("gauss", "user"))
        assert np.all(np.max(np.abs(got - want), axis=0)
                      <= 1e-12 * np.max(np.abs(want), axis=0))


def _scenario_config(scenario, overrides=()):
    """The acceptance-10 config of ``scenario``, parsed."""
    from test_acceptance import BASE_MEDIUM, SCENARIO_CONFIGS

    return parse_config(f"[scenario]\nname = {scenario}\n" + BASE_MEDIUM
                        + SCENARIO_CONFIGS[scenario], overrides)


@edge_decay
@pytest.mark.parametrize("l2_e, l2_b, passed", [
    (0.01, 0.03, False), (0.03, 0.01, False), (math.nan, 0.01, False),
    (0.01, math.nan, False), (0.01, 0.02, True)])
def test_reference_compare_passes_only_when_e_and_b_pass(monkeypatch, l2_e,
                                                         l2_b, passed):
    # each probe's L2 is taken for E, then for B; pass needs both within
    # the 0.02 budget, and a NaN fails
    calls = []

    def rel_l2(a, b):
        calls.append(None)
        return (l2_b, l2_e)[len(calls) % 2]

    monkeypatch.setattr(cli, "_rel_l2", rel_l2)
    tables, summary = plan(_scenario_config("reference-compare"))
    tables = list(tables)
    assert len(calls) == 2 * len(tables) == 2
    np.testing.assert_equal(summary["l2_errors_e"], [l2_e])
    np.testing.assert_equal(summary["l2_errors_b"], [l2_b])
    (*_, meta), = tables
    np.testing.assert_equal([meta["l2_error_e"], meta["l2_error_b"]],
                            [l2_e, l2_b])
    assert summary["pass"] is passed


def test_reference_compare_of_empty_records_fails_without_a_warning():
    # a duration shorter than one oracle step leaves every record zero, and
    # the relative L2 of a zero record, 0/0, warned "invalid value
    # encountered in scalar divide"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        tables, summary = plan(_scenario_config("reference-compare",
                                                ["run.duration=0.01"]))
        list(tables)
    assert np.isnan(summary["l2_errors_e"] + summary["l2_errors_b"]).all()
    assert summary["pass"] is False


@edge_decay
def test_reference_compare_records_the_oracle_clock():
    # at the Courant bound of 0.5, dx 0.08 steps 0.04, 2.5 steps a sample
    # of 0.1; the oracle steps 3 times a sample, at Courant 5/12
    tables, summary = plan(_scenario_config("reference-compare"))
    list(tables)
    assert summary["fdtd_steps_per_sample"] == 3
    assert summary["fdtd_courant"] == pytest.approx(5.0 / 12.0, rel=1e-15)


@pytest.mark.filterwarnings("ignore:plasma frequency underresolved")
@pytest.mark.parametrize("dt, courant", [
    *(pytest.param(dt, 0.5, id=repr(dt))
      for dt in (0.5000000005, 1.000000001, 2.000000002)),
    # at the bound itself, which the plan refused as a grid past it
    *(pytest.param(0.99 * k * 1.000000001, 0.99, id=f"0.99-{k}")
      for k in (1, 2, 4))])
def test_oracle_run_takes_the_step_its_plan_makes(dt, courant):
    # c dt / (courant dx) lies 1e-9 above an integer k, which counts as k;
    # the plan's Courant number c dt / (k dx) is then 1e-9 past courant.
    # Clamped to courant, k steps missed dt by over 1e-9, so the plan
    # passed and the run refused the step
    params = DrudeParams(1.0, 1.0, c=1.0, eps0=1.0, mu0=1.0)
    grid = TimeGrid(64, dt)
    source = Signal(grid, np.sin(2.0 * np.pi * grid.times / grid.window))
    grid1d, probes, _ = cli._oracle(params, source, 1.0, courant, x_ref=1.0,
                                    x_probes=[1.0], duration=4.0 * dt,
                                    pad=40.0)
    run = reference.run_boundary_source(source, grid1d, params, 4.0 * dt,
                                        probes)
    assert run["steps_per_sample"] == round(dt / courant)
    assert params.c * grid1d.dt_fdtd / grid1d.dx > courant


@pytest.mark.parametrize("ceiling, refused", [(6144, False), (6143, True)])
def test_plan_bounds_the_oracle_source_interpolant(monkeypatch, ceiling,
                                                   refused):
    # 3 oracle steps a sample of a 2048-sample window: 6144 points
    monkeypatch.setattr(cli, "MAX_SAMPLES", ceiling)
    config = _scenario_config("reference-compare")
    if not refused:
        plan(config)
        return
    with pytest.raises(ConfigError) as exc:
        plan(config)
    assert exc.value.violations == [
        "run.dx/run.courant/grid.dt/grid.n: 3 oracle steps a sample x 2048 "
        "samples exceed 6143; raise run.dx or run.courant, or lower grid.n"]


@edge_decay
@pytest.mark.parametrize("pad", [40.0, 5.0, 4.0, 1e6, 1e12])
def test_reference_compare_pads_to_its_layer_at_most(pad):
    # run.pad bounds the pad past the probe: 40 m pads to the derived layer
    # and its gap (12.4 m), 5 m and 4 m stay as they are; the summary
    # states the grid and the layer. The wall activity a 4 m pad lets
    # through is the fdtd_contaminated flag alone: the oracle also warned
    # of it. The plan sizes the same grid, so 1e6 m and 1e12 m plan the
    # nodes of 40 m, not 2.5e7 and 2.5e13
    config = _scenario_config("reference-compare", [f"run.pad={pad}"])
    with warnings.catch_warnings():
        warnings.filterwarnings("error", message="field activity")
        tables, summary = plan(config)
        list(tables)
    params, dx = config.params, config.run["dx"]
    source = synthesize_pulse(TimeGrid(2048, 0.1), **config.pulse)
    length, _, decay = reference.absorbing_layer(params, source)
    used = min(pad, length + reference.LAYER_GAP * params.c / params.band_low)
    assert used < 40.0
    assert summary["fdtd_pad (m)"] == used
    nodes = math.ceil((0.48 + 0.96 + used) / dx)
    assert summary["fdtd_nodes (1)"] == nodes
    layer = min(length, (nodes - 1 - round(1.44 / dx)) * dx)
    assert summary["fdtd_layer (m)"] == pytest.approx(layer, rel=1e-12)
    np.testing.assert_allclose(
        summary["fdtd_layer_attenuation (1)"], np.exp(-layer * decay),
        rtol=1e-12)
    assert summary["fdtd_contaminated"] is (pad == 4.0)


@edge_decay
@pytest.mark.parametrize("overrides, nodes", [
    # the derived pad, 12.4 m, is 13 nodes of 0.96 m: the grid keeps 64
    (["run.dx=0.96", "run.x_ref=0.96"], 64),
    # a reference plane 20 m behind the source reads its mirror image,
    # which stays 12.4 m off the wall
    (["run.x_ref=-20.0", "run.x_probes=20.96"], 406),
    # probes in any order: the grid reaches the farthest, 2.4 m, not the
    # last listed
    (["run.x_probes=1.92, 0.96"], 186),
])
def test_oracle_pad_keeps_the_grid_the_plan_accepts(overrides, nodes):
    tables, summary = plan(_scenario_config("reference-compare", overrides))
    list(tables)
    assert summary["fdtd_nodes (1)"] == nodes


# the benchmark's oracle-fdtd workload at seed 1
ORACLE_FDTD_SEED_1 = (
    "[scenario]\nname = reference-compare\n[medium]\nomega_pe = 1.0\n"
    "omega_pm = 1.0\nc = 1.0\neps0 = 1.0\nmu0 = 1.0\nchi3 = 0.0\n[grid]\n"
    "n = 4096\ndt = 0.1\n[run]\ndx = 0.02\ncourant = 0.5\nx_ref = 0.48\n"
    "x_probes = 1.0, 2.0\nduration = 400.0\npad = 60.0\n[pulse]\n"
    "carrier = 0.2888637361980836\nwidth = 29.488630186200727\n"
    "amplitude = 1.0270176185996716\n")


def _oracle_fields(text):
    """fdtd_nodes (1), fdtd_pad (m), fdtd_layer (m) and
    fdtd_layer_attenuation (1) of a reference-compare config, derived from
    its keys alone: the Gaussian pulse's band edges w (bins within 1e-3 of
    its peak), c k = sqrt((w - p^2/(w - i g))(w - q^2/(w - i g))) along a
    layer of rate r (d/L)^2 for the r among w_max 2^(j/16), -32 <= j <=
    64, held to an impedance change of 0.05, whose edges' least mean
    |Im k| is largest; the layer that attenuates both edges to 1e-3, a pad
    of it and c/min(p, q) within run.pad, and a grid of 64 nodes at least
    from the source to that pad past the farthest position or its mirror
    image, whose layer reaches that position at most."""
    cfg = configparser.ConfigParser()
    cfg.read_string(text)
    med, grid, run, pulse = (cfg[s] for s in ("medium", "grid", "run",
                                               "pulse"))
    p, q, c = (float(med[k]) for k in ("omega_pe", "omega_pm", "c"))
    n, dt = int(grid["n"]), float(grid["dt"])
    tt = np.arange(n) * dt - 0.5 * n * dt
    width, carrier = float(pulse["width"]), float(pulse["carrier"])
    samples = (float(pulse.get("amplitude", "1.0"))
               * np.exp(-tt**2 / (2.0 * width**2)) * np.sin(carrier * tt))
    mag = np.abs(np.fft.rfft(samples - np.mean(samples)))
    w = (2.0 * np.pi / (n * dt) * np.arange(mag.size))[
        mag >= 1e-3 * np.max(mag)][[0, -1]]
    with np.errstate(divide="ignore"):
        cap = 0.05 / np.max(w * abs(p * p - q * q)
                            / np.abs((w * w - p * p) * (w * w - q * q)))
    depth = (np.arange(64) + 0.5) / 64
    decays = []
    for j in range(-32, 65):
        g = min(w[1] * 2.0 ** (j / 16), cap) * depth**2
        decays.append([np.mean(np.abs(np.sqrt(
            (wi - p * p / (wi - 1j * g)) * (wi - q * q / (wi - 1j * g))).imag))
            / c for wi in w])
    decay = max(decays, key=min)
    length = math.log(1e3) / min(decay)
    pad = min(float(run["pad"]), length + c / min(p, q))
    dx, x_ref = float(run["dx"]), float(run["x_ref"])
    far = max(-x_ref, x_ref + max(float(x)
                                  for x in run["x_probes"].split(",")))
    nodes = max(math.ceil((far + pad) / dx), 64)
    layer = min(length, dx * (nodes - 1 - round(far / dx)))
    return nodes, pad, layer, [math.exp(-layer * d) for d in decay]


@edge_decay
@pytest.mark.parametrize("config", ["acceptance-10", "oracle-fdtd"])
def test_oracle_manifest_fields_follow_from_the_config_keys(tmp_path,
                                                            config):
    from test_acceptance import BASE_MEDIUM, SCENARIO_CONFIGS

    text = {"acceptance-10": "[scenario]\nname = reference-compare\n"
                             + BASE_MEDIUM
                             + SCENARIO_CONFIGS["reference-compare"],
            "oracle-fdtd": ORACLE_FDTD_SEED_1}[config]
    assert run_scenario(parse_config(text), out_dir=tmp_path)[0] == 0
    summary = json.loads((tmp_path / "manifest.json").read_text())["summary"]
    nodes, pad, layer, attenuation = _oracle_fields(text)
    assert summary["fdtd_contaminated"] is False
    assert summary["fdtd_nodes (1)"] == nodes
    assert summary["fdtd_pad (m)"] == pytest.approx(pad, rel=1e-12)
    assert summary["fdtd_layer (m)"] == pytest.approx(layer, rel=1e-12)
    np.testing.assert_allclose(summary["fdtd_layer_attenuation (1)"],
                               attenuation, rtol=1e-9)
    # run.pad does not cut the pad: the whole layer and its gap, 1 m, fit
    assert layer == pytest.approx(pad - 1.0, rel=1e-12)


@pytest.mark.parametrize("dx", [0.04, 0.02])
def test_acceptance_9_oracle_sees_no_wall_reflection(dx):
    # the derived pad, 12.7 m against the 60 m bound, keeps reflections
    # off the probes at both of acceptance 9's dx
    from test_acceptance import UNIT as unit

    source = synthesize_pulse(TimeGrid(4096, 0.1), carrier=0.3, width=30.0)
    _, summary = cli.reference_compare(unit, source, dx=dx, courant=0.5,
                                       x_ref=0.48, x_probes=[1.0, 2.0],
                                       duration=400.0, pad=60.0)
    assert summary["fdtd_contaminated"] is False
    assert summary["fdtd_nodes (1)"] < 6124 * 0.02 / dx


def test_reference_compare_splits_records_without_dc():
    # the FDTD run's raw B record at the reference plane keeps a mean of
    # about 6.5e-5 of its peak, which split would report; the oracle's
    # E and B are split less their means
    with warnings.catch_warnings():
        warnings.filterwarnings("error", message=".*DC content")
        warnings.filterwarnings("ignore", message=".*decay")
        tables, summary = plan(_scenario_config("reference-compare"))
        assert len(list(tables)) == 1
    assert summary["budget"] == 0.02


@pytest.mark.filterwarnings("ignore:spectral content above")
def test_kg_budget_grows_with_x_end():
    budgets = []
    for x in (3.0, 6.0):
        tables, summary = plan(_scenario_config("propagate-kg",
                                                [f"run.x_end={x}"]))
        list(tables)
        budgets.append(summary["kg_error_budget (1)"])
    assert budgets[0] > 0.0
    assert budgets[1] == 2.0 * budgets[0]


def test_kg_budget_is_none_for_a_band_edge_on_p():
    # the truncation error is defined only below min(p, q), and a top
    # occupied bin exactly on w = p has none
    grid = TimeGrid(256, 0.5)
    k = 12
    p = float(grid.half_omegas[k])
    params = DrudeParams(p, 1.5 * p, c=1.0, eps0=1.0, mu0=1.0)
    wave = np.cos(grid.half_omegas[[k - 4, k]][:, None] * grid.times).sum(0)
    dp0 = DirectedPair(Signal(grid, wave), Signal.zeros(grid))
    assert cli._kg_budget(params, dp0, 3.0) == {"band_edge (rad/s)": p,
                                                "kg_error_budget (1)": None}


@edge_decay
@kg_band
@pytest.mark.parametrize("scenario, derived, calls", [
    ("split", False, {"synthesize_pulse": 1, "split": 1,
                      "make_multiplier": 1}),
    ("propagate-linear", False, {"synthesize_pulse": 1, "split": 1,
                                 "make_multiplier": 8}),
    ("propagate-kg", False, {"synthesize_pulse": 1, "split": 1,
                             "make_multiplier": 7}),
    ("propagate-nonlinear", False, {"synthesize_pulse": 1, "split": 1,
                                    "make_multiplier": 3}),
    ("propagate-nonlinear", True, {"synthesize_pulse": 1, "split": 1,
                                   "make_multiplier": 3,
                                   "kerr_default_steps": 1}),
    ("propagate-unidirectional", False, {"synthesize_pulse": 1, "split": 1,
                                         "make_multiplier": 3}),
    ("propagate-unidirectional", True, {"synthesize_pulse": 1, "split": 1,
                                        "make_multiplier": 3,
                                        "kerr_default_steps": 1}),
    ("stationary-linear", False, {}),
    ("stationary-nonlinear", False, {}),
    ("taylor-error", False, {}),
    ("reference-compare", False, {"synthesize_pulse": 1, "split": 1,
                                  "make_multiplier": 4}),
])
def test_plan_and_execute_do_no_extra_work(tmp_path, monkeypatch, scenario,
                                           derived, calls):
    # the counts of one run before the split into plan and execute, with
    # one a_inv build more in the plan of each scenario that reconstructs
    # (linear 7, KG 6, reference-compare 3 before); a derived Kerr count
    # builds no d_dt_inv of its own. Every binding of each function in the
    # package is wrapped, as the benchmark's tracer does
    from test_acceptance import BASE_MEDIUM, SCENARIO_CONFIGS

    text = (f"[scenario]\nname = {scenario}\n" + BASE_MEDIUM
            + SCENARIO_CONFIGS[scenario])
    if derived:
        text = text.replace("n_steps = 50\n", "")
    counts = collections.Counter()
    for fn in (cli.synthesize_pulse, waves.split, spectral.make_multiplier,
               evolution.kerr_default_steps):
        def counted(*args, _fn=fn, **kwargs):
            counts[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] != "metapulse":
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    assert run_scenario(parse_config(text), out_dir=tmp_path)[0] == 0
    assert counts == calls


@pytest.mark.parametrize("old, new", [
    ("dt = 0.2", "dt = -0.2"),
    ("dt = 0.2", "dt = nan"),
    # a user-file pulse leaves no carrier to derive the default dt from
    ("dt = 0.2\n", ""),
])
def test_validate_rejects_unusable_grid_dt(tmp_path, capsys, old, new):
    text = _user_file_config(tmp_path / "pulse.txt")
    f = tmp_path / "cfg.ini"
    f.write_text(text)
    assert main(["validate", str(f)]) == 0
    f.write_text(text.replace(old, new))
    assert main(["validate", str(f)]) == 1
    # a negative grid.dt is the grid's to reject, naming grid.dt/grid.n
    assert "invalid: grid.dt" in capsys.readouterr().err


def test_validate_names_grid_bins_in_the_gap_once(tmp_path, capsys):
    # the split's a-hat meets the gap in medium.a_symbol alone, which counts
    # the frequencies inside it
    text = BASE.replace("omega_pm = 1.0", "omega_pm = 2.0")
    f = tmp_path / "cfg.ini"
    f.write_text(text)
    assert main(["validate", str(f)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "invalid: grid.dt/grid.n: 33 frequencies lie in the evanescent band "
        "(1, 2) rad/s"]


@pytest.mark.parametrize("text, override, expected", [
    (BASE, "pulse.width=0", ["invalid: pulse.width: must be positive"]),
    (BASE.replace("width = 12.0", "width = 0"), "pulse.width=12.0", []),
], ids=["breaks", "fixes"])
def test_validate_and_run_agree_under_an_override(tmp_path, capsys, text,
                                                  override, expected):
    # validate refused --override ("unrecognized arguments", exit 2), so
    # a run's own command line could not be validated
    f = tmp_path / "cfg.ini"
    f.write_text(text)
    status = 1 if expected else 0
    assert main(["validate", str(f), "--override", override]) == status
    assert capsys.readouterr().err.splitlines() == expected
    out = tmp_path / "out"
    assert main(["run", str(f), "--out", str(out),
                 "--override", override]) == status
    assert capsys.readouterr().err.splitlines() == expected
    assert (out / "manifest.json").exists() is not bool(expected)


@pytest.mark.parametrize("edits, key", [
    ({"dx = 0.08\n": "dx = 0.08\ncourant = 1.5\n"}, "courant"),
    ({"dx = 0.08\n": "dx = 0.08\ncourant = 0.0\n"}, "courant"),
    ({"x_ref = 0.48": "x_ref = 0.5"}, "x_ref"),
    ({"x_probes = 0.96": "x_probes = 0.96, 0.1"}, "x_probes"),
    # 2048 * 0.1 = 204.8 < 250
    ({"duration = 150.0": "duration = 250.0"}, "duration"),
    # the carrier's default dt, 2 pi / (32 * 0.3), makes a window of 1340
    ({"dt = 0.1\n": ""}, None),
    ({"dt = 0.1\n": "", "duration = 150.0": "duration = 1400.0"}, "duration"),
    # the oracle grid: 4.1e10 nodes, and 5000 steps a sample of 2048
    ({"dx = 0.08": "dx = 1e-9"}, "dx"),
    ({"dx = 0.08": "dx = 4e-5"}, "dx"),
    # run failed in run_boundary_source ("probe at ... falls outside the
    # grid"); a grid under 64 nodes takes 64, so pads that left fewer run
    ({"pad = 40.0": "pad = 0.5"}, None),
    ({"dx = 0.08": "dx = 0.02", "pad = 40.0": "pad = 0.0"}, "pad"),
    ({"dx = 0.08": "dx = 0.02", "pad = 40.0": "pad = 0.01"}, "pad"),
    ({"dx = 0.08": "dx = 0.02", "x_probes = 0.96": "x_probes = 2.0",
      "pad = 40.0": "pad = -0.1"}, "pad"),
    # the farthest probe lands on the wall node nx - 1 = 73
    ({"dx = 0.08": "dx = 0.02", "pad = 40.0": "pad = 0.02"}, "pad"),
    # the mirror image of a reference plane 2 m behind the source lands on
    # the wall node nx - 1 = 100
    ({"dx = 0.08": "dx = 0.02", "x_ref = 0.48": "x_ref = -2.0",
      "x_probes = 0.96": "x_probes = 2.0", "pad = 40.0": "pad = 0.01"},
     "x_ref"),
    # a pad past the layer and its gap plans the grid the run steps, not
    # the 2.5e13 and 2.5e7 nodes of run.pad itself
    ({"pad = 40.0": "pad = 1e12"}, None),
    ({"pad = 40.0": "pad = 1e6"}, None),
    # no pad leaves 18 nodes, and the grid takes 64; a negative pad is
    # refused by its own range
    ({"pad = 40.0": "pad = 0.0"}, None),
    ({"pad = 40.0": "pad = -0.1"}, "pad"),
])
def test_validate_rejects_oracle_run_keys(tmp_path, capsys, edits, key):
    # keys that YeeGrid1D, run_boundary_source or reference_compare would
    # reject at run time are rejected by the plan, before the oracle runs;
    # the violation names the keys that set the rejected value
    from test_acceptance import BASE_MEDIUM, SCENARIO_CONFIGS

    text = ("[scenario]\nname = reference-compare\n" + BASE_MEDIUM
            + SCENARIO_CONFIGS["reference-compare"])
    for old, new in edits.items():
        assert old in text
        text = text.replace(old, new)
    f = tmp_path / "cfg.ini"
    f.write_text(text)
    assert main(["validate", str(f)]) == (0 if key is None else 1)
    violations = [ln for ln in capsys.readouterr().err.splitlines()
                  if ln.startswith("invalid:")]
    assert len(violations) == (key is not None)
    assert all(f"run.{key}" in v.split(": ")[1].split("/")
               for v in violations)


@pytest.mark.parametrize("pad, nx", [("0.0", 124), ("0.01", 125)])
def test_validate_names_the_oracle_probe_off_the_grid(pad, nx):
    # the farthest probe, 2.48 m from the source on node 0, lands on node
    # 124: on or past the wall node nx - 1
    from test_acceptance import BASE_MEDIUM, SCENARIO_CONFIGS

    text = ("[scenario]\nname = reference-compare\n" + BASE_MEDIUM
            + SCENARIO_CONFIGS["reference-compare"])
    with pytest.raises(ConfigError) as exc:
        plan(parse_config(text, ["run.dx=0.02", "run.x_probes=2.0",
                                 f"run.pad={pad}"]))
    assert exc.value.violations == [
        f"run.x_ref/run.x_probes/run.pad: probe at 2.48 m falls outside the "
        f"{nx}-node grid"]


@edge_decay
def test_tightest_oracle_pad_that_validates_runs(tmp_path):
    # pad 0.021 on dx 0.02, just over one node: 74 nodes, the source on
    # node 0 and the farthest probe on node 72, the last one before the
    # wall
    from test_acceptance import BASE_MEDIUM, SCENARIO_CONFIGS

    text = ("[scenario]\nname = reference-compare\n" + BASE_MEDIUM
            + SCENARIO_CONFIGS["reference-compare"])
    cfg = parse_config(text, ["run.dx=0.02", "run.pad=0.021",
                              "run.duration=20.0"])
    assert run_scenario(cfg, out_dir=tmp_path)[0] == 0



@pytest.mark.parametrize("scenario, key, value", [
    ("propagate-linear", "run.x_end", "nan"),
    ("propagate-kg", "run.x_end", "inf"),
    ("stationary-nonlinear", "run.xi_end", "nan"),
    ("split", "medium.chi3", "nan"),
    ("split", "pulse.carrier", "nan"),
    ("split", "pulse.carrier", "inf"),
    ("split", "pulse.width", "nan"),
    ("split", "pulse.width", "inf"),
    ("split", "pulse.amplitude", "nan"),
    ("split", "pulse.amplitude", "inf"),
    ("split", "pulse.amplitude", "-inf"),
    ("propagate-linear", "pulse.amplitude", "0"),
    # the oracle ran before the propagator rejected the negative distance,
    # and the empty list failed in max()
    ("reference-compare", "run.x_probes", "0.96, -0.96"),
    ("reference-compare", "run.x_probes", ","),
    # run stopped at "n_steps must be at least 4", or wrote a header-only
    # table; a Kerr n_steps of 0 asks for the derived count
    ("propagate-nonlinear", "run.n_steps", "2"),
    ("propagate-nonlinear", "run.n_steps", "-5"),
    ("propagate-unidirectional", "run.n_steps", "3"),
    ("stationary-nonlinear", "run.n_steps", "0"),
    ("stationary-linear", "run.n_xi", "0"),
    ("taylor-error", "run.n_points", "0"),
    # run failed and wrote error.txt; the taylor-error message named no key
    ("split", "run.boundary", "bogus"),
    ("taylor-error", "medium.omega_pe", "2.0"),
])
def test_validate_rejects_non_finite_and_unusable_numbers(
        tmp_path, capsys, scenario, key, value):
    # each passed validate and failed only in run, with a message that did
    # not name the key
    from test_acceptance import BASE_MEDIUM, SCENARIO_CONFIGS

    text = (f"[scenario]\nname = {scenario}\n" + BASE_MEDIUM
            + SCENARIO_CONFIGS[scenario])
    f = tmp_path / "cfg.ini"
    f.write_text(text)
    assert main(["validate", str(f)]) == 0
    out = tmp_path / "out"
    assert main(["run", str(f), "--out", str(out),
                 "--override", f"{key}={value}"]) == 1
    assert not out.exists()
    violations = [ln for ln in capsys.readouterr().err.splitlines()
                  if ln.startswith("invalid:")]
    assert len(violations) == 1
    assert violations[0].startswith(f"invalid: {key}:")


@pytest.mark.parametrize("key", ["pulse.amplitude", "pulse.file"])
def test_validate_names_the_key_of_a_non_finite_pulse(tmp_path, capsys,
                                                      key):
    # the Gaussian's mean overflowed at amplitude 1e308, and a NaN in a
    # user file passed the spline: both left Signal's ValueError, naming no
    # key, in a traceback
    f = tmp_path / "cfg.ini"
    argv = ["validate", str(f)]
    if key == "pulse.amplitude":
        f.write_text(BASE)
        argv += ["--override", "pulse.amplitude=1e308"]
    else:
        pulse = tmp_path / "pulse.txt"
        f.write_text(_user_file_config(pulse))
        data = np.loadtxt(pulse)
        data[300, 1] = np.nan
        np.savetxt(pulse, data)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"invalid: {key}:") and "Traceback" not in err


_X_END_SCENARIOS = ["propagate-linear", "propagate-kg", "propagate-nonlinear",
                    "propagate-unidirectional"]


def _x_end_config(scenario, run, n_steps=4):
    """BASE as ``scenario`` with the run keys ``run``; a Kerr scenario
    marches ``n_steps``."""
    if scenario in ("propagate-nonlinear", "propagate-unidirectional"):
        run += f"n_steps = {n_steps}\n"
    return (BASE.replace("name = split", f"name = {scenario}")
            + "\n[run]\n" + run)


@pytest.mark.parametrize("scenario", _X_END_SCENARIOS)
def test_validate_refuses_a_phase_below_rounding(tmp_path, capsys, scenario):
    # run.x_end = 1e308 printed "config ok", and run wrote stations whose
    # phases were rounding alone. BASE's largest phase is pq x/(c w_1),
    # 32.6 rad per unit x, so x_end may reach 9.01e7 / 32.6 = 2.76e6
    f = tmp_path / "cfg.ini"
    for x_end, status in ((2.7e6, 0), (2.8e6, 1), (1e308, 1)):
        f.write_text(_x_end_config(scenario, f"x_end = {x_end!r}\n"))
        assert main(["validate", str(f)]) == status
        err = capsys.readouterr().err
        if status:
            assert err.startswith("invalid: run.x_end: largest phase ")
            assert "exceeds 9.01e+07 rad" in err and "Traceback" not in err


@pytest.mark.parametrize("scenario", _X_END_SCENARIOS)
def test_validate_refuses_stations_over_the_ceiling(tmp_path, capsys,
                                                    scenario):
    # run.n_stations = 100000000 printed "config ok" for a run that would
    # build a 1e8 x 513 phase table and write 1e8 tables; at grid.n 1024
    # the ceiling of 2^23 samples allows 8192 stations
    f = tmp_path / "cfg.ini"
    for stations, status in ((8192, 0), (8193, 1), (100_000_000, 1)):
        f.write_text(_x_end_config(
            scenario, f"x_end = 1.0\nn_stations = {stations}\n", stations))
        assert main(["validate", str(f)]) == status
        err = capsys.readouterr().err
        if status:
            assert err == (f"invalid: run.n_stations/grid.n: {stations * 1024} "
                           f"station samples exceed 8388608; lower "
                           f"run.n_stations or grid.n\n")


def _validate(tmp_path, capsys, scenario, *overrides):
    """(exit status, stderr) of ``validate`` on the acceptance-10 config of
    ``scenario`` under ``overrides``."""
    from test_acceptance import BASE_MEDIUM, SCENARIO_CONFIGS

    f = tmp_path / "cfg.ini"
    f.write_text(f"[scenario]\nname = {scenario}\n" + BASE_MEDIUM
                 + SCENARIO_CONFIGS[scenario])
    status = main(["validate", str(f),
                   *(arg for item in overrides for arg in ("--override", item))])
    return status, capsys.readouterr().err


@pytest.mark.parametrize("scenario, override, violation", [
    ("stationary-linear", "run.n_xi=100000000000",
     "run.n_xi: must lie in [1, 8388608]"),
    ("taylor-error", "run.n_points=100000000000",
     "run.n_points: must lie in [1, 8388608]"),
    ("stationary-nonlinear", "run.n_steps=1000000000",
     "run.n_steps: must lie in [4, 8388607]"),
    ("split", "grid.n=16777216", "grid.n: must lie in [1, 8388608]"),
])
def test_validate_refuses_each_size_over_the_ceiling(tmp_path, capsys,
                                                     scenario, override,
                                                     violation):
    # each printed "config ok" (the split after building its 2^24 samples),
    # and run of the first died in a MemoryError for 745 GiB; validate
    # alone, since a run that a lost rule let through would allocate that
    # much (test_validate_rejects_non_finite_and_unusable_numbers runs)
    assert _validate(tmp_path, capsys, scenario, override) == (
        1, f"invalid: {violation}\n")


@pytest.mark.parametrize("scenario, key, ceiling", [
    ("stationary-linear", "run.n_xi", 2**23),
    ("taylor-error", "run.n_points", 2**23),
    # the profile holds n_steps + 1 points
    ("stationary-nonlinear", "run.n_steps", 2**23 - 1),
])
def test_a_size_key_passes_at_the_ceiling_and_not_past_it(tmp_path, capsys,
                                                          scenario, key,
                                                          ceiling):
    assert _validate(tmp_path, capsys, scenario, f"{key}={ceiling}") == (
        0, "")
    status, err = _validate(tmp_path, capsys, scenario,
                            f"{key}={ceiling + 1}")
    assert status == 1 and err.startswith(f"invalid: {key}: must lie in [")


@pytest.mark.parametrize("probe, refused", [(1048567.5, False),
                                            (1048567.5625, True)])
def test_plan_bounds_the_oracle_nodes(probe, refused):
    # at dx 1/8, the first probe past x_ref 0.5 lies 8388544 nodes out and
    # the pad of 8 m, below the layer and its gap, takes 64 more: exactly
    # 2^23 nodes, one more at the second probe; the plan allocates nothing
    # of the nodes' size
    config = _scenario_config("reference-compare", [
        "run.dx=0.125", "run.x_ref=0.5", f"run.x_probes={probe}",
        "run.pad=8.0"])
    if not refused:
        plan(config)
        return
    with pytest.raises(ConfigError) as exc:
        plan(config)
    assert exc.value.violations == [
        "run.dx/run.x_ref/run.x_probes/run.pad: 8.39e+06 oracle nodes exceed "
        "8388608; raise run.dx, or lower run.pad, run.x_ref or run.x_probes"]


@pytest.mark.parametrize("n_probes, status", [(4095, 0), (4096, 1),
                                               (5000, 1)])
def test_validate_bounds_the_oracle_records(tmp_path, capsys, n_probes,
                                            status):
    # 5000 probes printed "config ok" for oracle records of 10.2e6 values a
    # field; at grid.n 2048, x_ref and 4095 probes hold 2^23 values each
    probes = ",".join(f"{0.08 * k:.2f}" for k in range(1, n_probes + 1))
    assert _validate(tmp_path, capsys, "reference-compare",
                     f"run.x_probes={probes}") == (status, (
        f"invalid: run.x_probes/grid.n: {n_probes + 1} oracle records x "
        f"2048 samples exceed 8388608; list fewer run.x_probes or lower "
        f"grid.n\n" if status else ""))


@pytest.mark.parametrize("override, keys", [
    ("medium.c=1e300", "medium.c/medium.eps0/medium.mu0"),
    ("medium.omega_pe=1e300", "medium.omega_pe/medium.omega_pm"),
    ("pulse.width=1e300", "pulse.width"),
])
def test_validate_names_the_keys_of_an_overflow(tmp_path, capsys, override,
                                                keys):
    # each printed a traceback: OverflowError from c^2 in DrudeParams, p^2
    # in a_squared and width^2 in synthesize_pulse
    status, err = _validate(tmp_path, capsys, "propagate-nonlinear",
                            "run.n_steps=0", override)
    assert status == 1 and err.count("\n") == 1
    assert err.startswith(f"invalid: {keys}: ") and "Traceback" not in err


@pytest.mark.parametrize("override, violation", [
    ("medium.omega_pm=0", "medium.omega_pe/medium.omega_pm: plasma "
     "frequencies must be positive"),
    ("medium.c=-1", "medium.c: must be positive"),
    ("medium.eps0=2", "medium.c/medium.eps0/medium.mu0: c^2 * eps0 * mu0 is "
     "2; it must equal 1"),
    ("medium.c=1e300", "medium.c/medium.eps0/medium.mu0: c^2 * eps0 * mu0 "
     "overflows; it must equal 1"),
    ("medium.chi3=-1", "medium.chi3: must not be negative"),
])
def test_validate_names_the_keys_of_a_refused_medium(tmp_path, capsys,
                                                     override, violation):
    # each read "medium: <reason>", the overflow Python's errno text
    assert _validate(tmp_path, capsys, "propagate-linear", override) == (
        1, f"invalid: {violation}\n")


@pytest.mark.parametrize("chi3, count", [("1e300", "8.09e+300"),
                                         ("1e308", "inf")])
def test_validate_prints_a_huge_derived_count_in_three_digits(tmp_path,
                                                              capsys, chi3,
                                                              count):
    # at chi3 1e300 the count was printed in all its 301 digits; at 1e308
    # int() of the infinite count kerr_default_steps derived printed a
    # traceback
    assert _validate(tmp_path, capsys, "propagate-nonlinear", "run.n_steps=0",
                     f"medium.chi3={chi3}") == (
        1, f"invalid: run.n_steps: derived Kerr step count {count} exceeds "
           f"100000; set run.n_steps to march that many, or lower "
           f"pulse.amplitude or run.x_end\n")


def test_validate_names_grid_n_that_cannot_be_allocated(tmp_path):
    # numpy's MemoryError on the 8 GiB times of TimeGrid escaped the key
    # context; grid.n's range rule now refuses it before any allocation,
    # and the child's address space is capped at 4 GiB, so a run that
    # tried would fail at once on any machine
    resource = pytest.importorskip("resource")
    f = tmp_path / "cfg.ini"
    f.write_text(BASE)
    cap = 4 << 30
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-m", "metapulse.cli", "validate", str(f),
         "--override", "grid.n=1073741824"],
        text=True, capture_output=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    assert out.returncode == 1, out.stderr
    assert out.stderr.startswith("invalid: grid.n:")
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("override, violation", [
    ("grid.n=8.5", "grid.n: cannot parse '8.5' as int"),
    ("grid.n", "override 'grid.n': expected section.key=value"),
    ("n=4", "override 'n=4': expected section.key=value"),
])
def test_validate_refuses_a_value_it_cannot_read(tmp_path, capsys, override,
                                                 violation):
    assert _validate(tmp_path, capsys, "split", override) == (
        1, f"invalid: {violation}\n")


def test_constant_pulse_file_is_refused_as_zero(tmp_path, capsys):
    # a constant on every grid time is all mean, so nothing is left of it
    pulse = tmp_path / "pulse.txt"
    f = tmp_path / "cfg.ini"
    f.write_text(_user_file_config(pulse))
    grid = TimeGrid(1024, 0.2)
    np.savetxt(pulse, np.column_stack([grid.times, np.full(grid.n, 0.5)]))
    assert main(["validate", str(f)]) == 1
    assert capsys.readouterr().err == (
        "invalid: pulse.file/grid.n/grid.dt: pulse is identically zero\n")


def _user_file_config(path):
    """BASE with its Gaussian written to ``path`` and read back as a
    user-file pulse."""
    grid = TimeGrid(1024, 0.2)
    pulse = synthesize_pulse(grid, carrier=0.5, width=12.0)
    np.savetxt(path, np.column_stack([grid.times, pulse.samples]))
    return BASE.replace("carrier = 0.5\nwidth = 12.0\n",
                        f"shape = user-file\nfile = {path}\n")


@pytest.mark.parametrize("via_override", [False, True])
def test_percent_in_a_value_is_taken_literally(tmp_path, capsys,
                                               via_override):
    # '%' in a value died in a traceback: InterpolationSyntaxError from the
    # file in validate and run, ValueError from --override in run
    pulse = tmp_path / "100%.txt"
    text = _user_file_config(pulse)
    f = tmp_path / "cfg.ini"
    out = tmp_path / "out"
    argv = ["run", str(f), "--out", str(out)]
    if via_override:
        text = text.replace(str(pulse), "elsewhere.txt")
        argv += ["--override", f"pulse.file={pulse}"]
    f.write_text(text)
    if not via_override:
        assert main(["validate", str(f)]) == 0
    assert main(argv) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["pulse"]["file"] == str(pulse)


def test_run_with_overrides_reports_config_syntax(tmp_path, capsys):
    # the override pass parsed the text first and died in a ParsingError
    f = tmp_path / "bad.ini"
    f.write_text(BASE.replace("[grid]", "[grid"))
    assert main(["run", str(f), "--override", "grid.n=8"]) == 1
    assert "invalid: config syntax:" in capsys.readouterr().err


@pytest.mark.parametrize("missing", ["config file", "pulse.file"])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_missing_file_is_invalid(tmp_path, capsys, command, missing):
    # a missing config file ended in a FileNotFoundError traceback; a
    # missing pulse.file passed validate, and run failed naming no key.
    # The run's plan reads the pulse file, so run reports it in error.txt
    lost = tmp_path / "missing"
    f = tmp_path / "cfg.ini"
    f.write_text(BASE.replace("carrier = 0.5\nwidth = 12.0\n",
                              f"shape = user-file\nfile = {lost}\n"))
    out = tmp_path / "out"
    argv = [command, str(lost if missing == "config file" else f)]
    assert main(argv + (["--out", str(out)] if command == "run" else [])) == 1
    err = capsys.readouterr().err
    if command == "run" and missing == "pulse.file":
        err = (out / "error.txt").read_text()
        assert err.startswith("ConfigError: pulse.file:") and str(lost) in err
    else:
        assert not out.exists()
        assert err.startswith(f"invalid: {missing}:") and str(lost) in err


def test_unreadable_pulse_file_names_the_key(tmp_path, capsys):
    # a pulse.file of text passed validate, and run failed in np.loadtxt
    # with a message that named no key
    bad = tmp_path / "pulse.txt"
    bad.write_text("a b\nc d\n")
    f = tmp_path / "cfg.ini"
    f.write_text(BASE.replace("carrier = 0.5\nwidth = 12.0\n",
                              f"shape = user-file\nfile = {bad}\n"))
    assert main(["validate", str(f)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid: pulse.file:") and str(bad) in err
    assert "could not convert" in err
    with pytest.raises(ValueError) as exc:
        synthesize_pulse(TimeGrid(1024, 0.2), shape="user-file", file=str(bad))
    assert str(exc.value).startswith(f"pulse.file: {bad}: could not convert")


@pytest.mark.parametrize("text", ["", "# t (s), value\n# no rows\n"],
                         ids=["zero-byte", "comment-only"])
def test_empty_pulse_file_names_the_key_without_a_warning(tmp_path, capsys,
                                                          text):
    # np.loadtxt warned "input contained no data" before the refusal, and
    # under python -W error validate ended in that warning's traceback
    empty = tmp_path / "pulse.txt"
    empty.write_text(text)
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(BASE.replace("carrier = 0.5\nwidth = 12.0\n",
                                f"shape = user-file\nfile = {empty}\n"))
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert main(["validate", str(cfg)]) == 1
        assert main(["run", str(cfg), "--out", str(out)]) == 1
    assert [str(w.message) for w in seen] == []
    err = capsys.readouterr().err
    assert err.startswith(f"invalid: pulse.file: {empty}: ")
    assert (out / "error.txt").read_text().startswith(
        f"ConfigError: pulse.file: {empty}: ")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_run_error_path(tmp_path):
    text = BASE.replace("name = split", "name = propagate-nonlinear")
    text = text.replace("mu0 = 1.0", "mu0 = 1.0\nchi3 = 1.0")
    text = text.replace("width = 12.0", "width = 12.0\namplitude = 1000.0")
    text += "\n[run]\nx_end = 5.0\nn_steps = 10\n"
    cfg = parse_config(text)
    status, written = run_scenario(cfg, out_dir=tmp_path)
    assert status == 1
    assert (tmp_path / "error.txt").exists()


def test_rerun_with_fewer_stations_removes_the_old_tables(tmp_path):
    # a rerun kept linear_station_002..004.csv beside a manifest that
    # listed only 000 and 001
    text = BASE.replace("name = split", "name = propagate-linear")
    text += "\n[run]\nx_end = 3.0\n"
    (tmp_path / "notes.txt").write_text("kept")
    (tmp_path / "other.csv").write_text("kept")
    status, first = run_scenario(parse_config(text), out_dir=tmp_path)
    assert status == 0 and len(first) == 6
    cfg = parse_config(text, ["run.n_stations=2"])
    status, second = run_scenario(cfg, out_dir=tmp_path)
    assert status == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "linear_station_000.csv", "linear_station_001.csv", "manifest.json",
        "notes.txt", "other.csv"]
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert sorted(manifest["tables"]) == [Path(p).name for p in second[:-1]]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_good_run_after_a_failed_run_removes_error_txt(tmp_path, capsys):
    # the failed Kerr run's error.txt stayed beside a successful manifest;
    # validate, the plan alone, accepts the loud run that blows up on its
    # march
    text = BASE.replace("name = split", "name = propagate-nonlinear")
    text = text.replace("mu0 = 1.0", "mu0 = 1.0\nchi3 = 1.0")
    text = text.replace("width = 12.0", "width = 12.0\namplitude = 0.1")
    text += "\n[run]\nx_end = 5.0\nn_steps = 10\n"
    out = tmp_path / "out"
    assert run_scenario(parse_config(text), out_dir=out)[0] == 0
    config = tmp_path / "kerr.ini"
    config.write_text(text)
    loud = ["--override", "pulse.amplitude=1000.0"]
    assert main(["validate", str(config), *loud]) == 0
    assert capsys.readouterr().out == "config ok\n"
    assert main(["run", str(config), "--out", str(out), *loud]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert sorted(p.name for p in out.iterdir()) == ["error.txt"]
    assert (out / "error.txt").read_text().startswith("BlowUpError: ")
    status, written = run_scenario(parse_config(text), out_dir=out)
    assert status == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(
        Path(p).name for p in written)


def test_a_run_that_fails_on_its_second_table_leaves_only_error_txt(
        tmp_path, monkeypatch):
    # each table is written before the next is built: the first station's
    # table is on disk when the second station's reconstruction fails, and
    # the failed run deletes it, so no later run finds it stale
    config = tmp_path / "linear.ini"
    config.write_text(BASE.replace("name = split", "name = propagate-linear")
                      + "\n[run]\nx_end = 3.0\n")
    out = tmp_path / "out"
    reconstruct, calls = waves.reconstruct, []

    def fails_second(state, params):
        calls.append(None)
        if len(calls) == 2:
            assert (out / "linear_station_000.csv").is_file()
            raise RuntimeError("no second station")
        return reconstruct(state, params)

    monkeypatch.setattr(waves, "reconstruct", fails_second)
    assert main(["run", str(config), "--out", str(out)]) == 1
    assert len(calls) == 2
    assert sorted(p.name for p in out.iterdir()) == ["error.txt"]
    assert (out / "error.txt").read_text() == (
        "RuntimeError: no second station\n")
    monkeypatch.undo()
    status, written = run_scenario(parse_config(BASE), out_dir=out)
    assert status == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "manifest.json", "split.csv"]


@pytest.mark.parametrize("manifest", [
    "not json", '{"tool": "other", "tables": {"split.csv": {}}}',
    '{"tool": "metapulse", "tables": {"../split.csv": {}, "a.txt": {}}}',
])
def test_previous_run_removal_deletes_only_listed_csv_names(tmp_path,
                                                            manifest):
    out = tmp_path / "out"
    out.mkdir()
    (out / "manifest.json").write_text(manifest)
    for name in ("split.csv", "a.txt"):
        (tmp_path / name).write_text("kept")
        (out / name).write_text("kept")
    assert run_scenario(parse_config(BASE, ["scenario.name=taylor-error"]),
                        out_dir=out)[0] == 0
    assert (out / "split.csv").read_text() == "kept"
    assert (out / "a.txt").read_text() == "kept"
    assert (tmp_path / "split.csv").read_text() == "kept"


def _fills(header, columns):
    """A table's chunks on a disk that fills after the first."""
    yield f"{header}\n".encode()
    raise OSError(28, "No space left on device")


@pytest.mark.parametrize("via", ["--out", "output.directory", "table",
                                 "full-disk"])
def test_output_directory_errors_name_the_setting(tmp_path, capsys,
                                                  monkeypatch, via):
    # an --out that is a file died in a FileExistsError traceback; a table
    # that cannot be opened, or whose disk fills after its first chunk, is
    # the output directory's error too, and writes no error.txt
    f = tmp_path / "cfg.ini"
    f.write_text(BASE)
    out = tmp_path / "out"
    if via in ("table", "full-disk"):
        if via == "table":
            (out / "split.csv").mkdir(parents=True)
        else:
            monkeypatch.setattr(cli, "table_chunks", _fills)
        argv = ["run", str(f), "--out", str(out)]
    else:
        out.write_text("a file")
        argv = (["run", str(f), "--out", str(out)] if via == "--out" else
                ["run", str(f), "--override", f"output.directory={out}"])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: output directory {out}: ")
    setting = "--out" if via in ("table", "full-disk") else via
    assert err.endswith(f"(set by {setting})\n")
    assert "Traceback" not in err
    assert not (out / "error.txt").exists()
    if via == "full-disk":  # the header-only split.csv stayed
        assert list(out.iterdir()) == []


class _FullDisk:
    """A file handle on a disk that is full: every write raises EFBIG."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        raise OSError(errno.EFBIG, "File too large")

    def writelines(self, chunks):
        for chunk in chunks:
            self.write(chunk)


@pytest.mark.parametrize("fails_at", ["linear_station_000.csv",
                                      "linear_station_002.csv",
                                      "manifest.json"])
def test_a_run_whose_output_fails_leaves_no_file_of_its_own(
        tmp_path, capsys, monkeypatch, fails_at):
    # the tables written before the failing file, and that file's partial
    # bytes, stayed with no manifest, so a rerun with fewer stations kept
    # linear_station_002.csv beside a manifest that listed 000 and 001
    config = tmp_path / "linear.ini"
    config.write_text(BASE.replace("name = split", "name = propagate-linear")
                      + "\n[run]\nx_end = 3.0\n")
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_text("kept")
    real_open = Path.open

    def open_(path, mode="r", *args, **kwargs):
        fh = real_open(path, mode, *args, **kwargs)
        return _FullDisk(fh) if path.name == fails_at else fh

    monkeypatch.setattr(Path, "open", open_)
    assert main(["run", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: output directory {out}: [Errno {errno.EFBIG}] File too "
        "large (set by --out)\n")
    assert sorted(p.name for p in out.iterdir()) == ["notes.txt"]
    monkeypatch.undo()
    assert main(["run", str(config), "--out", str(out),
                 "--override", "run.n_stations=2"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [*manifest["tables"], "manifest.json", "notes.txt"])
    assert sorted(manifest["tables"]) == [
        "linear_station_000.csv", "linear_station_001.csv"]


def test_writing_a_table_holds_one_chunk(tmp_path):
    # the whole rendered table (8 MB) and a stacked copy of its columns
    # (2.6 MB) were held before the first byte was written
    import tracemalloc

    rng = np.random.default_rng(5)
    columns = list(rng.standard_normal((5, 65536)))
    # allocate the digit constants and build the binades the table meets
    b"".join(table_chunks("a,b,c,d,e", columns))
    tracemalloc.start()
    try:
        with (tmp_path / "t.csv").open("wb") as fh:
            fh.writelines(table_chunks("a,b,c,d,e", columns))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "t.csv").stat().st_size > 8_000_000
    assert peak < 2**20


def test_run_scenario_memory_stays_below_the_bytes_it_writes(tmp_path):
    # every rendered table of a run was held until the first file was
    # written: a 58.8 MiB peak against 39.9 MB written
    import tracemalloc

    text = BASE.replace("name = split", "name = propagate-linear")
    text = text.replace("n = 1024", "n = 65536") + "\n[run]\nx_end = 3.0\n"
    cfg = parse_config(text)
    # allocate the digit constants; the run builds the binades it meets
    b"".join(table_chunks("a", [np.ones(8)]))
    tracemalloc.start()
    try:
        status, written = run_scenario(cfg, out_dir=tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 0 and len(written) == 6
    size = sum(os.path.getsize(p) for p in written)
    assert size > 35_000_000
    assert peak < size / 2


def test_main_subcommands(tmp_path, capsys):
    assert main(["scenarios"]) == 0
    out = capsys.readouterr().out
    # one unindented line a scenario, its run keys indented below it
    names = [ln.partition(":")[0] for ln in out.splitlines()
             if not ln.startswith(" ")]
    assert len(names) == 9 and names == sorted(cli.SCENARIOS)

    f = tmp_path / "cfg.ini"
    f.write_text(BASE)
    assert main(["validate", str(f)]) == 0

    bad = tmp_path / "bad.ini"
    bad.write_text(BASE.replace("carrier = 0.5", "carrier = -1"))
    assert main(["validate", str(bad)]) == 1

    out_dir = tmp_path / "run"
    assert main(["run", str(f), "--out", str(out_dir),
                 "--override", "grid.n=512", "--override", "grid.dt=0.4"]) == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["grid"]["n"] == 512
