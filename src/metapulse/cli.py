"""Scenario runner and serialization layer.

Configs are flat INI-style files (sections of ``key = value``); see
``metapulse scenarios`` for the scenario list and their run keys. Every run
writes comma-separated tables (header row carries units) plus one JSON
manifest that fully describes the run; outputs are byte-identical for a
fixed config.
"""

import argparse
import configparser
import functools
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, evolution, medium, reference, stationary, waves
from .errors import ConfigError
from .spectral import Signal, TimeGrid, apply, make_multiplier
from .waves import CLEAN_TOL, FieldPair

__all__ = ["ScenarioConfig", "parse_config", "synthesize_pulse",
           "run_scenario", "main", "SCENARIOS"]

#: most Kerr steps a run derives by itself; the derived count grows with
#: run.x_end and with pulse.amplitude squared, and more must be asked for
#: by run.n_steps
MAX_DEFAULT_KERR_STEPS = 100_000

#: rows rendered per numpy pass of ``_table_chunks``; a pass's work arrays
#: peak at about 320 bytes per value, 0.8 MB for 512 rows of 5 columns
CSV_CHUNK_ROWS = 512

#: one rendered value: sign, "d.dd", five "ddd" groups, "e+dd" or "e+ddd"
#: and a separator, each field padded with NUL bytes that are dropped
_VALUE = np.dtype([("sign", "u1"), ("lead", "<u4"), ("rest", "<u4", (5,)),
                   ("exp", "<u8"), ("sep", "u1")])

# scenario -> (description, {run key: (type, default or REQUIRED)})
REQUIRED = object()

SCENARIOS = {
    "split": (
        "split a boundary pulse into right/left wave amplitudes",
        {"boundary": (str, "e-only")},
    ),
    "propagate-linear": (
        "exact linear spectral propagation, snapshots along x",
        {"x_end": (float, REQUIRED), "n_stations": (int, 5),
         "boundary": (str, "e-only")},
    ),
    "propagate-kg": (
        "Klein-Gordon-Fock reduced propagation, snapshots along x",
        {"x_end": (float, REQUIRED), "n_stations": (int, 5),
         "boundary": (str, "e-only")},
    ),
    "propagate-nonlinear": (
        "coupled Kerr system marched with Lawson RK4",
        {"x_end": (float, REQUIRED), "n_steps": (int, 0),
         "dealias": (bool, True), "boundary": (str, "pure-right"),
         "n_stations": (int, 5)},
    ),
    "propagate-unidirectional": (
        "unidirectional Kerr equation (left wave frozen at zero)",
        {"x_end": (float, REQUIRED), "n_steps": (int, 0),
         "dealias": (bool, True), "n_stations": (int, 5)},
    ),
    "stationary-linear": (
        "analytic traveling R/L profiles",
        {"v": (float, REQUIRED), "amplitude_r": (float, 1.0),
         "amplitude_l": (float, 1.0), "xi_min": (float, REQUIRED),
         "xi_max": (float, REQUIRED), "n_xi": (int, 401)},
    ),
    "stationary-nonlinear": (
        "Cardano-reduced nonlinear oscillator profile",
        {"v": (float, REQUIRED), "pi0": (float, REQUIRED),
         "dpi0": (float, 0.0), "xi_end": (float, REQUIRED),
         "n_steps": (int, 400)},
    ),
    "taylor-error": (
        "truncation-error curve of the leading dispersion term",
        {"n_points": (int, 200)},
    ),
    "reference-compare": (
        "FDTD oracle vs split/propagate/reconstruct pipeline",
        {"dx": (float, REQUIRED), "courant": (float, 0.5),
         "x_ref": (float, REQUIRED), "x_probes": (list, REQUIRED),
         "duration": (float, REQUIRED), "pad": (float, 60.0)},
    ),
}

_MEDIUM_KEYS = {
    "omega_pe": (float, REQUIRED),
    "omega_pm": (float, REQUIRED),
    "c": (float, None),
    "eps0": (float, None),
    "mu0": (float, None),
    "chi3": (float, 0.0),
}
_GRID_KEYS = {"n": (int, 4096), "dt": (float, 0.0)}
_PULSE_KEYS = {
    "shape": (str, "gaussian-modulated"),
    "carrier": (float, 0.0),
    "width": (float, 0.0),
    "amplitude": (float, 1.0),
    "file": (str, ""),
}
_OUTPUT_KEYS = {"directory": (str, "out")}
_SECTIONS = ("scenario", "medium", "grid", "pulse", "run", "output")
_BOUNDARY_MODES = ("e-only", "pure-right")

#: scenarios whose pulse spectrum must avoid the evanescent band
_BAND_CHECKED = {"split", "propagate-linear", "propagate-kg",
                 "propagate-nonlinear", "propagate-unidirectional",
                 "reference-compare"}


@dataclass
class ScenarioConfig:
    """Validated scenario description."""

    scenario: str
    medium: dict
    grid: dict
    pulse: dict
    run: dict
    output: dict
    params: object = field(default=None, repr=False)


def _coerce(raw, typ, path, violations):
    try:
        if typ is bool:
            return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
        value = ([float(v) for v in raw.split(",") if v.strip()]
                 if typ is list else typ(raw))
    except (KeyError, TypeError, ValueError):
        violations.append(f"{path}: cannot parse {raw!r} as {typ.__name__}")
        return None
    if typ in (float, list) and not np.all(np.isfinite(value)):
        violations.append(f"{path}: must be finite, got {raw!r}")
        return None
    return value


def _read_section(cp, name, schema, violations):
    out = {}
    present = dict(cp[name]) if cp.has_section(name) else {}
    for key, raw in present.items():
        if key not in schema:
            violations.append(f"{name}.{key}: unknown key")
    for key, (typ, default) in schema.items():
        if key in present:
            out[key] = _coerce(present[key], typ, f"{name}.{key}", violations)
        elif default is REQUIRED:
            violations.append(f"{name}.{key}: required key missing")
        else:
            out[key] = default
    return out


def parse_config(text, overrides=()):
    """Parse and validate a config, each ``SECTION.KEY=VALUE`` of
    ``overrides`` set over the text's value; values are taken literally
    (``%`` included). Raises ConfigError listing all problems."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                   interpolation=None)
    violations = []
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"config syntax: {exc}"]) from exc
    for item in overrides:
        key, _, value = item.partition("=")
        section, _, option = key.strip().partition(".")
        if not (section and option and value != ""):
            raise ConfigError([f"override {item!r}: expected section.key=value"])
        cp.read_dict({section: {option: value.strip()}})

    for section in cp.sections():
        if section not in _SECTIONS:
            violations.append(f"{section}: unknown section")

    scenario = _read_section(cp, "scenario", {"name": (str, REQUIRED)},
                             violations).get("name")
    if scenario is not None and scenario not in SCENARIOS:
        violations.append(
            f"scenario.name: unknown scenario {scenario!r}; "
            f"choose from {sorted(SCENARIOS)}"
        )

    med = _read_section(cp, "medium", _MEDIUM_KEYS, violations)
    grid = _read_section(cp, "grid", _GRID_KEYS, violations)
    pulse = _read_section(cp, "pulse", _PULSE_KEYS, violations)
    output = _read_section(cp, "output", _OUTPUT_KEYS, violations)
    run_schema = SCENARIOS.get(scenario, (None, {}))[1]
    run = _read_section(cp, "run", run_schema, violations)

    params = None
    if not violations:
        kwargs = {k: v for k, v in med.items() if v is not None}
        try:
            params = medium.DrudeParams(**kwargs)
        except (TypeError, ValueError) as exc:
            violations.append(f"medium: {exc}")

    if params is not None:
        _validate_physics(scenario, params, grid, pulse, run, violations)

    if violations:
        raise ConfigError(violations)
    return ScenarioConfig(scenario, med, grid, pulse, run, output, params)


def _validate_physics(scenario, params, grid, pulse, run, violations):
    if grid["n"] < 8 or grid["n"] & (grid["n"] - 1):
        violations.append("grid.n: must be a power of two >= 8")
    if not grid["dt"] >= 0:
        violations.append("grid.dt: must be positive, or omitted to derive "
                          "it from pulse.carrier")
    carrier = pulse["carrier"]
    if scenario in _BAND_CHECKED and grid["dt"] == 0 and not carrier > 0:
        violations.append("grid.dt: required when no positive pulse.carrier "
                          "sets its default")
    if scenario in _BAND_CHECKED and pulse["amplitude"] == 0:
        violations.append("pulse.amplitude: must be nonzero")
    if scenario not in _BAND_CHECKED:
        pass  # scenario takes no pulse; skip pulse validation
    elif pulse["shape"] == "gaussian-modulated":
        if carrier <= 0:
            violations.append("pulse.carrier: must be positive")
        if pulse["width"] <= 0:
            violations.append("pulse.width: must be positive")
        if carrier > 0 and pulse["width"] > 0:
            lo = carrier - 4.0 / pulse["width"]
            hi = carrier + 4.0 / pulse["width"]
            if lo <= 0:
                violations.append(
                    "pulse.carrier/width: band extends to DC; narrow the "
                    "bandwidth or raise the carrier"
                )
            if hi > params.band_low and lo < params.band_high:
                violations.append(
                    "pulse.carrier: band intersects the evanescent band "
                    f"({params.band_low:g}, {params.band_high:g}) rad/s"
                )
    elif pulse["shape"] == "user-file":
        if not pulse["file"]:
            violations.append("pulse.file: required for shape user-file")
        elif not Path(pulse["file"]).is_file():
            violations.append(f"pulse.file: no such file {pulse['file']!r}")
        else:
            try:
                _load_pulse_file(pulse["file"])
            except ValueError as exc:
                violations.append(
                    f"pulse.file: cannot read {pulse['file']!r}: {exc}")
    else:
        violations.append(f"pulse.shape: unknown shape {pulse['shape']!r}")
    # only reached without earlier violations, so every run key holds a value
    for key in ("x_end", "xi_end", "duration", "dx", "v"):
        if key in run and run[key] <= 0:
            violations.append(f"run.{key}: must be positive")
    if "boundary" in run and run["boundary"] not in _BOUNDARY_MODES:
        violations.append(f"run.boundary: unknown mode {run['boundary']!r}; "
                          f"choose from {list(_BOUNDARY_MODES)}")
    if "n_stations" in run and run["n_stations"] < 2:
        violations.append("run.n_stations: must be at least 2 (entry and exit)")
    # the Kerr scenarios read n_steps = 0 as "derive the count"
    if "n_steps" in run and run["n_steps"] < 4:
        if scenario == "stationary-nonlinear":
            violations.append("run.n_steps: must be at least 4")
        elif run["n_steps"] != 0:
            violations.append("run.n_steps: must be at least 4, or 0 for "
                              "the derived count")
    for key in ("n_xi", "n_points"):
        if key in run and run[key] < 1:
            violations.append(f"run.{key}: must be at least 1")
    if scenario == "taylor-error" and params.omega_pe > params.omega_pm:
        violations.append("medium.omega_pe: must not exceed medium.omega_pm "
                          "for taylor-error, so the sweep stays in the lower "
                          "band")
    if scenario == "reference-compare":
        _validate_oracle(grid, pulse, run, violations)


def _validate_oracle(grid, pulse, run, violations):
    """The FDTD oracle's own limits, so that ``run`` does not find them."""
    if not 0 < run["courant"] <= reference.MAX_COURANT:
        violations.append(
            f"run.courant: must lie in (0, {reference.MAX_COURANT}]")
    if not run["x_probes"] or min(run["x_probes"]) < 0:
        violations.append("run.x_probes: must list distances >= 0")
    dx = run["dx"]
    if dx > 0:
        off = [f"{xp:g}" for xp in run["x_probes"]
               if reference.off_node(run["x_ref"] + xp, dx)]
        if reference.off_node(run["x_ref"], dx):
            violations.append(f"run.x_ref: {run['x_ref']:g} is not on the "
                              f"run.dx grid")
        elif off:
            violations.append(f"run.x_probes: x_ref + {', '.join(off)} is "
                              f"not on the run.dx grid")
    if dx > 0 and run["x_probes"]:
        nx, i_src = _oracle_nodes(dx, run["x_ref"], run["x_probes"],
                                  run["pad"])
        far = i_src + int(round((run["x_ref"] + max(run["x_probes"])) / dx))
        if nx < 64:
            violations.append(
                f"run.dx: the oracle grid (x_ref + max(x_probes) + 2 pad) "
                f"/ dx has {nx} nodes, fewer than 64; lower run.dx or raise "
                f"run.pad")
        elif not 0 < i_src < nx - 1:
            violations.append(
                f"run.pad: the source node round(pad / dx) = {i_src} is not "
                f"inside the {nx}-node oracle grid; pad must exceed dx / 2")
        elif not 0 < i_src + int(round(run["x_ref"] / dx)):
            violations.append(f"run.x_ref: {run['x_ref']:g} puts the "
                              f"reference probe on or behind the oracle's "
                              f"wall")
        elif not far < nx - 1:
            violations.append(
                f"run.pad: the farthest probe lands on node {far}, not below "
                f"the wall at nx - 1 = {nx - 1}; raise run.pad")
    if grid["dt"] > 0 or grid["dt"] == 0 < pulse["carrier"]:
        window = grid["n"] * _grid_dt(grid, pulse)
        if run["duration"] > window:
            violations.append(f"run.duration: longer than the spectral window "
                              f"grid.n * grid.dt = {window:g}")


def _grid_dt(grid, pulse):
    # an omitted grid.dt defaults to >= 32 samples per carrier period;
    # parse_config rejects pulse scenarios that have neither
    return grid["dt"] or 2.0 * np.pi / (32.0 * pulse["carrier"])


def _resolve_grid(config):
    return TimeGrid(config.grid["n"], _grid_dt(config.grid, config.pulse))


def _load_pulse_file(file):
    """The (t, value) rows of a user pulse file; ValueError when it cannot
    be read as two numeric columns."""
    try:
        data = np.loadtxt(file, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ValueError(str(exc)) from exc
    if data.shape[1] != 2:
        raise ValueError("must have two numeric columns")
    return data


def synthesize_pulse(grid, shape="gaussian-modulated", carrier=0.0,
                     width=0.0, amplitude=1.0, file=""):
    """Build a clean boundary pulse on the grid.

    Gaussian-modulated: amplitude * exp(-(t-t0)^2/(2 width^2)) *
    sin(carrier*(t-t0)) centered in the window, mean-subtracted. User files
    are two numeric columns (t, value) resampled by cubic spline and scaled
    by amplitude.

    Raises ValueError when the result keeps DC content or window-edge
    energy above 1e-8 of peak.
    """
    if shape == "gaussian-modulated":
        t0 = grid.window / 2.0
        tt = grid.times - t0
        samples = amplitude * np.exp(-(tt**2) / (2.0 * width**2)) * np.sin(
            carrier * tt
        )
    elif shape == "user-file":
        try:
            data = _load_pulse_file(file)
            samples = amplitude * reference.cubic_spline(
                data[:, 0], data[:, 1], grid.times)
        except ValueError as exc:
            raise ValueError(f"pulse.file {file}: {exc}") from exc
    else:
        raise ValueError(f"unknown pulse shape {shape!r}")

    samples = samples - np.mean(samples)
    sig = Signal(grid, samples)
    peak = sig.peak
    if peak == 0.0:
        raise ValueError("pulse is identically zero")
    problems = []
    if abs(np.mean(samples)) > CLEAN_TOL * peak:
        problems.append("DC content above 1e-8 of peak")
    if max(abs(samples[0]), abs(samples[-1])) > CLEAN_TOL * peak:
        problems.append("window-edge energy above 1e-8 of peak")
    if problems:
        raise ValueError("; ".join(problems))
    return sig


def _boundary(config, grid, mode):
    """Entry-plane fields (B, E) = (k, j) from the pulse spec: j = pulse,
    k per ``mode``.

    ``pure-right`` sets k = a-hat j, so the entry pair is Pi = k, Lambda = 0;
    ``e-only`` sets k = 0.
    """
    j = synthesize_pulse(grid, **config.pulse)
    if mode == "pure-right":
        return FieldPair(b=apply(make_multiplier("a", config.params, grid), j),
                         e=j)
    return FieldPair(b=Signal.zeros(grid), e=j)


def _table_chunks(header, columns):
    """A table's ASCII bytes, comma-separated %.17e, as a sequence of
    chunks: the header line, then ``CSV_CHUNK_ROWS`` rows at a time.

    Every value is written exactly as ``'%.17e' % v`` writes it, by
    :func:`_render_rows` in numpy. Only one chunk's rows are stacked and
    rendered at a time, so writing a table holds no more than that.
    """
    yield header.encode() + b"\n"
    for start in range(0, len(columns[0]), CSV_CHUNK_ROWS):
        rows = slice(start, start + CSV_CHUNK_ROWS)
        yield _render_rows(np.column_stack([c[rows] for c in columns])
                           .astype(float, copy=False))


def _ascii_table(strings, dtype):
    """``strings`` as one NUL-padded ``dtype`` integer each."""
    size = np.dtype(dtype).itemsize
    return np.frombuffer(b"".join(s.encode().ljust(size, b"\0")
                                  for s in strings), dtype)


@functools.cache
def _decimal_table():
    """Constants of :func:`_render_rows`, allocated on first use, not at
    import. The per-binade ones are filled in by :func:`_fill_binades` as
    the rendered values reach their binades: all 2098 took about 40 ms,
    and a run meets 42-95 of them.

    A finite v != 0 is M 2^(ex-53) with the integer M in [2^52, 2^53) and
    the frexp exponent ex in -1073..1024, row ex + 1073 of:

    * ``built``: whether the binade's row is filled in;
    * ``decade``: E, the decade of the binade's low end 2^(ex-1);
    * ``threshold``: the least M whose value reaches 10^(E+1), or 2^53
      when none in the binade does, so v's decade is E + (M >= threshold);
    * ``scale``, row 2 (ex + 1073) + d for the decade E + d: the
      double-double hi + lo of S = 2^(ex-53) 10^(17-E-d), hi the double
      nearest S, lo the one nearest S - hi, with hi split (Veltkamp) into
      its high 26 bits and the rest.

    Then the ASCII of "d.dd" and "ddd" for 0..999 and of "e-324".."e+308".
    """
    n = 2098  # binades
    return (np.zeros(n, dtype=bool), np.empty(n, dtype=np.int64),
            np.empty(n), np.empty((2 * n, 3)),
            _ascii_table([f"{k // 100}.{k % 100:02d}" for k in range(1000)],
                         "<u4"),
            _ascii_table([f"{k:03d}" for k in range(1000)], "<u4"),
            _ascii_table([f"e{k:+03d}" for k in range(-324, 309)], "<u8"))


def _fill_binades(rows):
    """Fill in the ``_decimal_table`` rows ``rows`` (ex + 1073 each) from
    exact Python-int arithmetic, about 12 us a binade."""
    built, decade, threshold, scale = _decimal_table()[:4]
    for i in rows.tolist():
        ex = i - 1073
        # floor(log10(2^n)); for n < 0, 2^n = 5^-n / 10^-n
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
            hi = num / den  # int / int rounds to nearest
            hn, hd = hi.as_integer_ratio()
            lo = (num * hd - hn * den) / (den * hd)
            split = hi * 134217729.0  # Veltkamp: 2^27 + 1
            high = split - (split - hi)
            scale[2 * i + d] = high, hi - high, lo
        built[i] = True


def _render_rows(block):
    """The CSV rows of a 2-D float block as ASCII bytes, each value as
    ``'%.17e' % v``.

    The digits come from a table of scaled powers of ten, as in Ryu-printf
    (Adams 2019), in double-double arithmetic. v = M 2^(ex-53) in the
    decade E (see :func:`_decimal_table`) has the 18 digits D = round(R),
    R = M S in [10^17, 10^18). Dekker's TwoProduct, exact without FMA for
    M split at 2^27, gives M hi = p + e1 exactly, so R = p + t with
    t = e1 + M lo, and p is an even integer (ulp(p) >= 16).

    Error bound: t is within 2^-43 of R - p. S - hi - lo is at most
    2^-105 S, which M carries to at most 2^-45; rounding M lo (|M lo| <
    2^7) errs by at most 2^-47, and rounding e1 + M lo (|t| < 2^8) by at
    most 2^-45. So rint(t) gives D, rounded half-even, wherever t lies
    2^-30 or more from a half-integer.

    Ties: R = (odd part of M) 5^(17-E) 2^(tz+ex-36-E), tz the trailing
    zero bits of M, so R is a half-integer exactly when tz + ex - E = 35;
    M lo and t are then exact, and rint rounds the tie to even. Values
    within 2^-30 of a half-integer that are no tie, +-inf and nan are
    rendered by Python's ``'%.17e'`` one at a time. The table's rows for
    the binades of ``block`` that no earlier call met are filled in first.
    """
    built, decade, threshold, scale, lead, rest, exps = _decimal_table()
    finite = np.isfinite(block)
    mantissa, ex = np.frexp(np.where(finite, np.abs(block), 0.0))
    m = np.ldexp(mantissa, 53)
    i = ex + 1073
    missing = i[~built[i]]
    if missing.size:
        _fill_binades(np.unique(missing))
    upper = m >= threshold[i]
    high, low, lo = np.moveaxis(scale.take(2 * i + upper, axis=0), -1, 0)
    e = decade[i] + upper
    m_high = np.ldexp(np.rint(np.ldexp(m, -27)), 27)
    m_low = m - m_high
    p = m * (high + low)
    t = (((m_high * high - p) + m_high * low + m_low * high) + m_low * low
         + m * lo)
    m_int = m.astype(np.int64)
    tz = np.frexp((m_int & -m_int).astype(float))[1] - 1
    near_tie = np.abs(t - np.floor(t) - 0.5) < 2.0**-30
    slow = ~finite | (near_tie & (tz + ex - e != 35))
    digits = p.astype(np.int64) + np.rint(t).astype(np.int64)
    # 9.99...95e(E) rounds up to 1.00...0e(E+1)
    carry = digits == 10**18
    digits[carry] = 10**17
    e += carry
    e[m == 0] = 0
    upper_half = digits // 10**9
    x = np.stack([upper_half, digits - upper_half * 10**9], -1).astype(float)
    top = np.floor((x + 0.5) * 1e-6)
    x -= top * 1e6
    mid = np.floor((x + 0.5) * 1e-3)
    groups = np.stack([top, mid, x - mid * 1e3], -1).astype(np.intp)
    groups = groups.reshape(block.shape + (6,))
    out = np.empty(block.shape, _VALUE)
    out["sign"] = np.signbit(block) * np.uint8(ord("-"))
    out["lead"] = lead[groups[..., 0]]
    out["rest"] = rest[groups[..., 1:]]
    out["exp"] = exps[e + 324]
    out["sep"] = ord(",")
    out["sep"][:, -1] = ord("\n")
    raw = out.reshape(-1).view(np.uint8).reshape(-1, _VALUE.itemsize)
    for j in np.flatnonzero(slow):
        text = b"%.17e" % block.flat[j]
        raw[j, :-1] = 0
        raw[j, :len(text)] = np.frombuffer(text, np.uint8)
    return out.tobytes().translate(None, b"\0")


def _station_tables(prefix, grid, xs, states, params=None):
    """One table per station x of ``xs``: t, Pi and Lambda, and with
    ``params`` the reconstructed B and E."""
    tables = {}
    for i, (x, state) in enumerate(zip(xs, states)):
        cols = [grid.times, state.pi.samples, state.lam.samples]
        header = "t (s),Pi (T),Lambda (T)"
        if params is not None:
            fp = waves.reconstruct(state, params, grid)
            cols += [fp.b.samples, fp.e.samples]
            header += ",B (T),E (V/m)"
        tables[f"{prefix}_station_{i:03d}.csv"] = (header, cols,
                                                    {"x (m)": float(x)})
    return tables


def _remove_previous_run(out):
    """Delete an earlier run's ``error.txt``, and a metapulse
    ``manifest.json`` with the plain ``*.csv`` names it lists; nothing else."""
    (out / "error.txt").unlink(missing_ok=True)
    mpath = out / "manifest.json"
    try:
        manifest = json.loads(mpath.read_text())
    except (OSError, ValueError):
        return
    if not (isinstance(manifest, dict) and manifest.get("tool") == "metapulse"
            and isinstance(manifest.get("tables"), dict)):
        return
    for name in manifest["tables"]:
        path = out / name
        if name.endswith(".csv") and path.name == name and path.is_file():
            path.unlink()
    mpath.unlink()


def run_scenario(config, out_dir=None):
    """Execute a scenario; returns (exit_status, written file paths).

    An earlier run's files are deleted first, and each table is streamed
    to its file chunk by chunk; output ``OSError``s propagate."""
    out = Path(out_dir if out_dir is not None else config.output["directory"])
    out.mkdir(parents=True, exist_ok=True)
    _remove_previous_run(out)
    runner = _RUNNERS[config.scenario]
    try:
        tables, summary = runner(config)
    except Exception as exc:  # propagate module errors to a diagnostic file
        diag = out / "error.txt"
        diag.write_text(f"{type(exc).__name__}: {exc}\n")
        print(f"error: {exc}", file=sys.stderr)
        return 1, [str(diag)]

    written = []
    for name, (header, columns, _) in tables.items():
        path = out / name
        with path.open("wb") as fh:
            fh.writelines(_table_chunks(header, columns))
        written.append(str(path))
    manifest = {
        "tool": "metapulse",
        "version": __version__,
        "scenario": config.scenario,
        "medium": config.medium,
        "grid": config.grid,
        "pulse": config.pulse,
        "run": config.run,
        "tables": {name: meta for name, (*_, meta) in sorted(tables.items())},
        "summary": summary,
    }
    mpath = out / "manifest.json"
    mpath.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    written.append(str(mpath))
    return 0, written


# ---------------------------------------------------------------- runners


def _run_split(config):
    grid = _resolve_grid(config)
    fields = _boundary(config, grid, config.run["boundary"])
    dp = waves.split(fields, config.params, grid)
    header = "t (s),j=E(0,t) (V/m),k=B(0,t) (T),Pi (T),Lambda (T)"
    columns = [grid.times, fields.e.samples, fields.b.samples,
               dp.pi.samples, dp.lam.samples]
    summary = {"pi_peak (T)": dp.pi.peak, "lambda_peak (T)": dp.lam.peak}
    return {"split.csv": (header, columns, {})}, summary


def _linear_runner(config, propagator, tag):
    grid = _resolve_grid(config)
    fields = _boundary(config, grid, config.run["boundary"])
    dp0 = waves.split(fields, config.params, grid)
    xs = np.linspace(0.0, config.run["x_end"], config.run["n_stations"])
    states = propagator(dp0, xs, config.params, grid)
    tables = _station_tables(tag, grid, xs, states, config.params)
    summary = {"stations (m)": [float(x) for x in xs]}
    return tables, summary, dp0


def _run_linear(config):
    return _linear_runner(config, evolution.propagate_linear_exact, "linear")[:2]


def _run_kg(config):
    tables, summary, dp0 = _linear_runner(config, evolution.propagate_kg, "kg")
    # document the reduction-error budget: truncation error at the occupied
    # band edge times the accumulated exact phase over the full distance
    grid = dp0.grid
    spec = np.abs(evolution._entry_spectrum(dp0)).sum(axis=0)
    occupied = spec > 1e-8 * np.max(spec)
    w_occ = grid.half_omegas[occupied]
    w_edge = float(np.max(w_occ))
    summary["band_edge (rad/s)"] = w_edge
    if w_edge < config.params.band_low:
        phase = float(
            np.max(np.abs(w_occ * medium.a_symbol(config.params, w_occ)))
        )
        summary["kg_error_budget (1)"] = float(
            medium.taylor_truncation_error(config.params, w_edge)
            * phase * config.run["x_end"]
        )
    else:
        summary["kg_error_budget (1)"] = None
    return tables, summary


def _kerr_steps(config, entry, grid):
    """``run.n_steps``, or when it is 0 the count derived from the entry,
    which may not exceed MAX_DEFAULT_KERR_STEPS."""
    run = config.run
    if run["n_steps"]:
        return run["n_steps"]
    n_steps = evolution.kerr_default_steps(
        entry, run["x_end"], config.params, grid, dealias=run["dealias"],
        n_stations=run["n_stations"])
    if n_steps > MAX_DEFAULT_KERR_STEPS:
        raise ValueError(
            f"derived Kerr step count {n_steps} exceeds "
            f"{MAX_DEFAULT_KERR_STEPS}; set run.n_steps to march that many, "
            f"or lower pulse.amplitude or run.x_end")
    return n_steps


def _run_nonlinear(config):
    grid = _resolve_grid(config)
    fields = _boundary(config, grid, config.run["boundary"])
    dp0 = waves.split(fields, config.params, grid)
    n_steps = _kerr_steps(config, dp0, grid)
    record = evolution.propagate_nonlinear(
        dp0, config.run["x_end"], n_steps, config.params, grid,
        dealias=config.run["dealias"], n_stations=config.run["n_stations"],
    )
    tables = _station_tables("nonlinear", grid, record.stations,
                             record.states)
    summary = {"n_steps": n_steps, "dealias": config.run["dealias"],
               "kerr_stiffness (1)": record.meta["kerr_stiffness"],
               "kerr_stiffness_exit (1)": record.meta["kerr_stiffness_exit"],
               "final_pi_peak (T)": record.final.pi.peak,
               "final_lambda_peak (T)": record.final.lam.peak}
    return tables, summary


def _run_unidirectional(config):
    grid = _resolve_grid(config)
    # the pure-right entry splits into Pi = k and Lambda = 0 exactly
    pi0 = waves.split(_boundary(config, grid, "pure-right"), config.params,
                      grid).pi
    n_steps = _kerr_steps(config, pi0, grid)
    record = evolution.propagate_unidirectional(
        pi0, config.run["x_end"], n_steps, config.params, grid,
        dealias=config.run["dealias"], n_stations=config.run["n_stations"],
    )
    tables = _station_tables("unidirectional", grid, record.stations,
                             record.states)
    summary = {"n_steps": n_steps,
               "kerr_stiffness (1)": record.meta["kerr_stiffness"],
               "kerr_stiffness_exit (1)": record.meta["kerr_stiffness_exit"],
               "final_pi_peak (T)": record.final.pi.peak}
    return tables, summary


def _run_stationary_linear(config):
    sp = stationary.stationary_params(config.run["v"], config.params)
    xi = np.linspace(config.run["xi_min"], config.run["xi_max"],
                     config.run["n_xi"])
    r = stationary.linear_r_profile(config.run["amplitude_r"], sp, xi)
    lw = stationary.linear_l_profile(config.run["amplitude_l"], sp, xi)
    summary = {"k (1/m)": sp.k, "omega (rad/s)": sp.omega, "v (m/s)": sp.v}
    return {"stationary_linear.csv": ("xi (m),R (T),L (T)", [xi, r, lw],
                                      {})}, summary


def _run_stationary_nonlinear(config):
    sp = stationary.stationary_params(config.run["v"], config.params)
    xi, pi, slope = stationary.integrate_oscillator(
        config.run["pi0"], config.run["dpi0"], config.run["xi_end"],
        config.run["n_steps"], sp, config.params,
    )
    summary = {"k (1/m)": sp.k, "K_v": sp.big_k_v}
    return {"stationary_nonlinear.csv": ("xi (m),Pi (T),dPi/dxi (T/m)",
                                         [xi, pi, slope], {})}, summary


def _run_taylor_error(config):
    p = config.params
    omegas = np.linspace(0.0, 0.95, config.run["n_points"] + 1)[1:] * p.omega_pe
    err = medium.taylor_truncation_error(p, omegas)
    at = lambda frac: float(
        medium.taylor_truncation_error(p, frac * p.omega_pe)
    )
    summary = {
        "error_at_0.5_omega_pe": at(0.5),
        "error_at_0.9_omega_pe": at(0.9),
        "claimed_below_0.5": 5e-5,
        "claimed_below_0.9": 0.10,
        "claim_met_at_0.5": at(0.5) <= 5e-5,
        "claim_met_at_0.9": at(0.9) <= 0.10,
        "note": "claims reported, not gated",
    }
    return {"taylor_error.csv": ("omega/omega_pe (1),relative error (1)",
                                 [omegas / p.omega_pe, err], {})}, summary


def _run_reference_compare(config):
    source = synthesize_pulse(_resolve_grid(config), **config.pulse)
    res = reference_compare(config.params, source, **config.run)
    tables = {}
    for i, probe in enumerate(res["probes"]):
        header = ("t (s),E fdtd (V/m),E spectral (V/m),"
                  "B fdtd (T),B spectral (T)")
        tables[f"compare_probe_{i:03d}.csv"] = (
            header,
            [probe["t"], probe["e_fdtd"], probe["e_spectral"],
             probe["b_fdtd"], probe["b_spectral"]],
            {"x (m)": probe["x"], "l2_error_e": probe["l2_e"],
             "l2_error_b": probe["l2_b"]},
        )
    summary = {
        "l2_errors_e": [p["l2_e"] for p in res["probes"]],
        "l2_errors_b": [p["l2_b"] for p in res["probes"]],
        "budget": 0.02,
        "pass": res["pass"],
        "fdtd_contaminated": res["contaminated"],
    }
    return tables, summary


def reference_compare(params, source, dx, courant, x_ref, x_probes,
                      duration, pad):
    """FDTD oracle vs split -> propagate -> reconstruct, at given probes.

    The FDTD run, driven by the boundary ``source`` Signal, records (E, B)
    at the reference plane and at each probe; the reference-plane pair is
    resampled onto ``source.grid``, split into directed waves, propagated
    the exact linear way, reconstructed, and compared in relative L2.
    ``contaminated`` passes on the FDTD run's wall-reflection flag.
    """
    grid = source.grid
    if grid.window < duration:
        raise ValueError("spectral window shorter than FDTD duration")

    nx, i_src = _oracle_nodes(dx, x_ref, x_probes, pad)
    grid1d = reference.YeeGrid1D(nx=nx, dx=dx, courant=courant, c=params.c)
    probes_abs = [x_ref] + [x_ref + xp for xp in x_probes]
    run = reference.run_boundary_source(
        source, grid1d, params, duration, probes_abs, source_index=i_src,
    )

    e_ref, b_ref = (reference.cubic_spline(run["t"], run[k][0], grid.times)
                    for k in ("e", "b"))
    fields = FieldPair(b=Signal(grid, b_ref - np.mean(b_ref)),
                       e=Signal(grid, e_ref - np.mean(e_ref)))
    dp0 = waves.split(fields, params, grid)

    probes = []
    ok = True
    states = evolution.propagate_linear_exact(dp0, x_probes, params, grid)
    for i, (xp, dp) in enumerate(zip(x_probes, states)):
        fp = waves.reconstruct(dp, params, grid)
        e_fd = reference.cubic_spline(run["t"], run["e"][i + 1], grid.times)
        b_fd = reference.cubic_spline(run["t"], run["b"][i + 1], grid.times)
        l2_e = _rel_l2(fp.e.samples, e_fd)
        l2_b = _rel_l2(fp.b.samples, b_fd)
        ok = ok and l2_e <= 0.02 and l2_b <= 0.02
        probes.append({
            "x": float(xp), "t": grid.times,
            "e_fdtd": e_fd, "e_spectral": fp.e.samples,
            "b_fdtd": b_fd, "b_spectral": fp.b.samples,
            "l2_e": l2_e, "l2_b": l2_b,
        })
    return {"probes": probes, "pass": bool(ok),
            "contaminated": run["contaminated"]}


def _oracle_nodes(dx, x_ref, x_probes, pad):
    """(nx, source node) of the oracle grid: pad, the source, x_ref and
    the probes, then pad again."""
    return (int(np.ceil((x_ref + max(x_probes) + 2.0 * pad) / dx)),
            int(round(pad / dx)))


def _rel_l2(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


_RUNNERS = {
    "split": _run_split,
    "propagate-linear": _run_linear,
    "propagate-kg": _run_kg,
    "propagate-nonlinear": _run_nonlinear,
    "propagate-unidirectional": _run_unidirectional,
    "stationary-linear": _run_stationary_linear,
    "stationary-nonlinear": _run_stationary_nonlinear,
    "taylor-error": _run_taylor_error,
    "reference-compare": _run_reference_compare,
}


# ------------------------------------------------------------------- CLI


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="metapulse",
        description="directed-wave pulse propagation in 1D Drude metamaterials",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario from a config file")
    p_run.add_argument("config", type=Path)
    p_run.add_argument("--out", type=Path, default=None)
    p_run.add_argument("--override", action="append", default=[],
                       metavar="SECTION.KEY=VALUE")

    p_val = sub.add_parser("validate", help="validate a config file")
    p_val.add_argument("config", type=Path)
    p_val.set_defaults(override=())

    sub.add_parser("scenarios", help="list scenarios and their run keys")

    args = parser.parse_args(argv)

    if args.command == "scenarios":
        for name in sorted(SCENARIOS):
            desc, schema = SCENARIOS[name]
            keys = ", ".join(
                f"{k}{'*' if d is REQUIRED else ''}"
                for k, (_, d) in sorted(schema.items())
            )
            print(f"{name}: {desc}")
            print(f"    run keys (* = required): {keys or '(none)'}")
        return 0

    try:
        config = parse_config(args.config.read_text(), args.override)
    except (OSError, UnicodeDecodeError) as exc:
        violations = [f"config file: {exc}"]
    except ConfigError as exc:
        violations = exc.violations
    else:
        if args.command == "validate":
            print("config ok")
            return 0
        out = args.out if args.out is not None else config.output["directory"]
        try:
            status, written = run_scenario(config, out_dir=out)
        except OSError as exc:
            setting = "--out" if args.out is not None else "output.directory"
            print(f"error: output directory {out}: {exc} (set by {setting})",
                  file=sys.stderr)
            return 1
        for path in written:
            print(path)
        return status
    for v in violations:
        print(f"invalid: {v}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
