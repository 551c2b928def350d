"""Config parsing, pulse synthesis and scenario running."""

import json

import numpy as np
import pytest

from metapulse import ConfigError, TimeGrid
from metapulse.cli import (
    CSV_CHUNK_ROWS,
    _format_table,
    main,
    parse_config,
    run_scenario,
    synthesize_pulse,
)

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
    assert grid.omegas[k_peak] == pytest.approx(0.5, abs=2.0 * np.pi / grid.window)


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
    """Reference rendering: one f-string per value, one row at a time."""
    rows = np.column_stack(columns)
    return header + "\n" + "".join(
        ",".join(f"{v:.17e}" for v in row) + "\n" for row in rows
    )


@pytest.mark.parametrize("n_cols", [2, 5])
@pytest.mark.parametrize("n_rows", [
    1, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1,
    3 * CSV_CHUNK_ROWS + 7,
])
def test_format_table_bytes_match_per_value_rendering(n_rows, n_cols):
    rng = np.random.default_rng(n_rows * 10 + n_cols)
    special = [0.0, -0.0, 5e-324, -1e308, 1.0 / 3.0]
    columns = [np.arange(n_rows, dtype=float)]  # integer-valued times
    for c in range(1, n_cols):
        exponents = rng.integers(-300, 300, n_rows)
        col = rng.standard_normal(n_rows) * 10.0**exponents
        col[: len(special)] = np.roll(special, c)[: n_rows]
        columns.append(col)
    header = ",".join(f"c{i}" for i in range(n_cols))
    text = _format_table(header, columns)
    assert text == _format_per_value(header, columns)
    assert text.count("\n") == n_rows + 1


@pytest.mark.parametrize("scenario", [
    "propagate-nonlinear", "propagate-unidirectional",
])
def test_kerr_manifest_records_rk4_stiffness(tmp_path, scenario):
    # |h lambda|max = h pq / (c w_min), w_min = 2 pi / T the lowest bin
    # p != q with the evanescent band (20, 30) above every grid bin
    text = BASE.replace("name = split", f"name = {scenario}")
    text = text.replace("omega_pe = 1.0\nomega_pm = 1.0",
                        "omega_pe = 20.0\nomega_pm = 30.0")
    text = text.replace("c = 1.0\neps0 = 1.0\nmu0 = 1.0",
                        "c = 2.0\neps0 = 0.5\nmu0 = 0.5\nchi3 = 0.01")
    text += "\n[run]\nx_end = 0.005\nn_steps = 40\n"
    status, _ = run_scenario(parse_config(text), out_dir=tmp_path)
    assert status == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    window = 1024 * 0.2
    expected = (0.005 / 40) * 20.0 * 30.0 / (2.0 * 2.0 * np.pi / window)
    assert manifest["summary"]["rk4_stiffness (1)"] == pytest.approx(
        expected, rel=1e-14)


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


def test_main_subcommands(tmp_path, capsys):
    assert main(["scenarios"]) == 0
    out = capsys.readouterr().out
    assert "reference-compare" in out

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
