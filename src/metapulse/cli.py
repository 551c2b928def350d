"""Config parsing, each scenario's plan and run, and the output files.

Configs are flat INI-style files (sections of ``key = value``); see
``metapulse scenarios`` for the scenario list and their run keys. A run is
its :func:`plan`, which decides whether it can work, then its march; every
run writes comma-separated tables (header row carries units) plus one JSON
manifest that fully describes the run; outputs are byte-identical for a
fixed config.
"""

import argparse
import configparser
import contextlib
import json
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, evolution, medium, reference, stationary, waves
from .errors import ConfigError, ParameterError
from .render import table_chunks
from .spectral import Signal, TimeGrid, apply, make_multiplier
from .waves import CLEAN_TOL, FieldPair

__all__ = ["ScenarioConfig", "parse_config", "synthesize_pulse", "plan",
           "run_scenario", "reference_compare", "main", "SCENARIOS"]

#: most Kerr steps a run derives by itself; the derived count grows with
#: run.x_end and with pulse.amplitude squared, and more must be asked for
#: by run.n_steps
MAX_DEFAULT_KERR_STEPS = 100_000

#: largest phase (rad) a run may turn a bin through: a phase theta is
#: known to theta 2^-53, within CLEAN_TOL up to here
MAX_PHASE = CLEAN_TOL * 2.0**53
#: most values in a run's largest array: grid.n, station or profile points,
#: oracle nodes or source points; at most 36 bytes of each at once, 300 MB
MAX_SAMPLES = 2**23

REQUIRED = object()


def _rule(ok, problem):
    """A range rule: a function of one parsed value that returns None
    where ``ok(value)``, else ``problem`` formatted with the value."""
    return lambda value: None if ok(value) else problem.format(value)


_POSITIVE = _rule(lambda v: v > 0, "must be positive")
_COUNT = _rule(lambda n: 1 <= n <= MAX_SAMPLES,
               f"must lie in [1, {MAX_SAMPLES}]")
_STATIONS = _rule(lambda n: n >= 2, "must be at least 2 (entry and exit)")
# the Kerr scenarios read n_steps = 0 as "derive the count"
_KERR_STEPS = _rule(lambda n: n >= 4 or n == 0,
                    "must be at least 4, or 0 for the derived count")
_BOUNDARY = _rule(lambda mode: mode in ("e-only", "pure-right"),
                  "unknown mode {!r}; choose from ['e-only', 'pure-right']")
_COURANT = _rule(lambda v: 0 < v <= reference.MAX_COURANT,
                 f"must lie in (0, {reference.MAX_COURANT}]")

# section key -> (type, default or REQUIRED, range rule or None)
_MEDIUM_KEYS = {
    "omega_pe": (float, REQUIRED, None),
    "omega_pm": (float, REQUIRED, None),
    "c": (float, None, None),
    "eps0": (float, None, None),
    "mu0": (float, None, None),
    "chi3": (float, 0.0, None),
}
# the range rules of the grid and pulse keys bind only the scenarios that
# take a pulse, which alone build a grid
_GRID_KEYS = {"n": (int, 4096, _COUNT), "dt": (float, 0.0, None)}
_PULSE_KEYS = {
    "shape": (str, "gaussian-modulated",
              _rule(lambda shape: shape in ("gaussian-modulated", "user-file"),
                    "unknown shape {!r}")),
    "carrier": (float, 0.0, None),
    "width": (float, 0.0, None),
    "amplitude": (float, 1.0, _rule(lambda a: a != 0, "must be nonzero")),
    "file": (str, "", None),
}
_OUTPUT_KEYS = {"directory": (str, "out", None)}
_SECTIONS = ("scenario", "medium", "grid", "pulse", "run", "output")


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
        value = ([float(v) for v in raw.split(",") if v.strip()]
                 if typ is list else typ(raw))
    except (TypeError, ValueError):
        violations.append(f"{path}: cannot parse {raw!r} as {typ.__name__}")
        return None
    if typ in (float, list) and not np.all(np.isfinite(value)):
        violations.append(f"{path}: must be finite, got {raw!r}")
        return None
    return value


def _read_section(cp, name, schema, violations, checked=True):
    """The section's values by ``schema``, defaults filled in; each value
    the text gives is checked against its key's range rule if ``checked``.
    Every problem is appended to ``violations``."""
    out = {}
    present = dict(cp[name]) if cp.has_section(name) else {}
    for key in present:
        if key not in schema:
            violations.append(f"{name}.{key}: unknown key")
    for key, (typ, default, rule) in schema.items():
        path = f"{name}.{key}"
        if key in present:
            value = out[key] = _coerce(present[key], typ, path, violations)
            problem = checked and rule and value is not None and rule(value)
            if problem:
                violations.append(f"{path}: {problem}")
        elif default is REQUIRED:
            violations.append(f"{name}.{key}: required key missing")
        else:
            out[key] = default
    return out


def parse_config(text, overrides=()):
    """Parse a config and check its schema and each key's range rule, each
    ``SECTION.KEY=VALUE`` of ``overrides`` set over the text's value; values
    are taken literally (``%`` included). Raises ConfigError listing all
    problems in one pass: the medium is built wherever its section is clean,
    each rule that spans keys runs wherever the keys it reads are clean, and
    what only the run's own objects can decide is left to :func:`plan`."""
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

    first = len(violations)
    scenario = _read_section(cp, "scenario", {"name": (str, REQUIRED, None)},
                             violations).get("name")
    if scenario is not None and scenario not in SCENARIOS:
        violations.append(
            f"scenario.name: unknown scenario {scenario!r}; "
            f"choose from {sorted(SCENARIOS)}"
        )

    _, _, takes_pulse, run_schema = SCENARIOS.get(scenario,
                                                  (None, None, False, {}))
    before = len(violations)
    med = _read_section(cp, "medium", _MEDIUM_KEYS, violations)
    medium_clean = len(violations) == before
    grid = _read_section(cp, "grid", _GRID_KEYS, violations, takes_pulse)
    pulse = _read_section(cp, "pulse", _PULSE_KEYS, violations, takes_pulse)
    spanned_clean = len(violations) == first
    output = _read_section(cp, "output", _OUTPUT_KEYS, violations)
    run = _read_section(cp, "run", run_schema, violations)
    # stations fall on steps, so fewer would drop some; the count derived
    # for n_steps = 0 holds them all
    steps, stations = run.get("n_steps"), run.get("n_stations")
    if (steps and stations and _KERR_STEPS(steps) is None
            and steps < stations - 1):
        violations.append(
            f"run.n_steps/run.n_stations: {steps} steps hold at most "
            f"{steps + 1} stations; raise run.n_steps or lower "
            f"run.n_stations")

    params = None
    if medium_clean:
        kwargs = {k: v for k, v in med.items() if v is not None}
        try:
            params = medium.DrudeParams(**kwargs)
        except ParameterError as exc:
            violations.append("/".join(f"medium.{name}" for name in exc.names)
                              + f": {exc.reason}")

    if spanned_clean:
        _validate_physics(scenario, params, grid, pulse, violations)

    if violations:
        raise ConfigError(violations)
    return ScenarioConfig(scenario, med, grid, pulse, run, output, params)


def _validate_physics(scenario, params, grid, pulse, violations):
    """Rules that span keys, which no object that :func:`plan` builds
    decides: a Gaussian band that reaches DC, meets [band_low, band_high]
    (also at w = p = q, where no grid bin need fall) or reaches the Nyquist
    frequency of an explicit grid.dt; a user file's name; and taylor-error's
    medium, whose run builds none. The two medium rules are skipped where
    ``params`` is None, a medium refused."""
    carrier, width, dt = pulse["carrier"], pulse["width"], grid["dt"]
    if not SCENARIOS[scenario][2]:
        pass  # scenario takes no pulse; skip pulse validation
    elif pulse["shape"] == "gaussian-modulated":
        if carrier <= 0:
            violations.append("pulse.carrier: must be positive")
        if width <= 0:
            violations.append("pulse.width: must be positive")
        if carrier > 0 and width > 0:
            lo, hi = carrier - 4.0 / width, carrier + 4.0 / width
            if lo <= 0:
                violations.append(
                    "pulse.carrier/width: band extends to DC; narrow the "
                    "bandwidth or raise the carrier"
                )
            if params and hi > params.band_low and lo < params.band_high:
                violations.append(
                    "pulse.carrier: band intersects the evanescent band "
                    f"({params.band_low:g}, {params.band_high:g}) rad/s"
                )
            # a derived dt puts Nyquist at 16 carrier, past the DC rule
            if dt > 0 and hi >= np.pi / dt:
                violations.append(
                    "pulse.carrier/width/grid.dt: band reaches the Nyquist "
                    f"frequency pi/grid.dt = {np.pi / dt:g} rad/s; lower "
                    "grid.dt or narrow the bandwidth"
                )
    elif not pulse["file"]:
        violations.append("pulse.file: required for shape user-file")
    if (scenario == "taylor-error" and params
            and params.omega_pe > params.omega_pm):
        violations.append("medium.omega_pe: must not exceed medium.omega_pm "
                          "for taylor-error, so the sweep stays in the lower "
                          "band")


@contextlib.contextmanager
def _keys(*keys):
    """Re-raise a ValueError or an overflow (ArithmeticError) of the block
    as a ConfigError naming ``keys``, the config keys that set its values."""
    try:
        yield
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError([f"{'/'.join(keys)}: {exc}"]) from exc


def _grid(config):
    """The run's TimeGrid; an omitted grid.dt defaults to 32 samples per
    pulse.carrier period."""
    dt, carrier = config.grid["dt"], config.pulse["carrier"]
    if dt == 0 and not carrier > 0:
        raise ConfigError(["grid.dt: required when no positive "
                           "pulse.carrier sets its default"])
    with _keys("grid.dt", "grid.n"):
        return TimeGrid(config.grid["n"], dt or 2.0 * np.pi / (32.0 * carrier))


def _check_size(samples, keys, what, remedy):
    """Refuse, naming ``keys``, a run whose largest array would hold
    ``samples`` values (``what``, a NaN count included) over MAX_SAMPLES."""
    if not samples <= MAX_SAMPLES:
        raise ConfigError([f"{keys}: {what} exceed {MAX_SAMPLES}; {remedy}"])


def _check_ceilings(config, grid):
    """Refuse station samples (:func:`_check_size`), or a phase w |a(w)| x
    or pq x/(c w) on a nonzero bin, x = run.x_end, over MAX_PHASE."""
    samples = config.run["n_stations"] * grid.n
    _check_size(samples, "run.n_stations/grid.n", f"{samples} station samples",
                "lower run.n_stations or grid.n")
    p, w = config.params, grid.half_omegas[1:]
    with _keys("medium.omega_pe", "medium.omega_pm"):  # p^2 or q^2 overflows
        theta = config.run["x_end"] * max(
            float(np.max(w * np.sqrt(np.abs(medium.a_squared(p, w))))),
            p.omega_pe * p.omega_pm / (p.c * float(w[0])))
    if theta > MAX_PHASE:
        raise ConfigError([f"run.x_end: largest phase {theta:.3g} rad exceeds "
                           f"{MAX_PHASE:.3g} rad, past which its rounding "
                           f"exceeds {CLEAN_TOL:g}; lower run.x_end"])


def synthesize_pulse(grid, shape="gaussian-modulated", carrier=0.0,
                     width=0.0, amplitude=1.0, file=""):
    """Build a clean boundary pulse on the grid.

    Gaussian-modulated: amplitude * exp(-(t-t0)^2/(2 width^2)) *
    sin(carrier*(t-t0)) centered in the window, mean-subtracted. User files
    are two numeric columns (t, value): each t is k*grid.dt, within 1e-9 of
    grid.dt, for a k that increases from row to row within 0 <= k < grid.n.
    The values, scaled by amplitude, are the samples at those times, and
    every time the file does not list is zero; nothing is resampled. The
    result is mean-subtracted too.

    Raises ConfigError, naming the keys to change, when a user file is not
    two finite numeric columns or lists a time off that grid, when the
    samples overflow (pulse.amplitude), or when the result is zero or keeps
    window-edge energy above 1e-8 of peak.
    """
    if shape == "gaussian-modulated":
        t0 = grid.window / 2.0
        tt = grid.times - t0
        with _keys("pulse.width"):  # width^2 overflows
            samples = (amplitude * np.exp(-(tt**2) / (2.0 * width**2))
                       * np.sin(carrier * tt))
        keys = "pulse.width/grid.n/grid.dt"
    elif shape == "user-file":
        try:
            with warnings.catch_warnings():  # an empty file warns, then fails
                warnings.simplefilter("ignore")
                data = np.loadtxt(file, ndmin=2)
            if data.shape[1] != 2:
                raise ValueError("must have two numeric columns")
            if not np.all(np.isfinite(data)):
                raise ValueError("holds a non-finite value")
        except (OSError, ValueError) as exc:
            raise ConfigError([f"pulse.file: {file}: {exc}"]) from exc
        t, values = data.T
        with np.errstate(all="ignore"):  # t / dt may overflow
            k = np.rint(t / grid.dt)
            on = (np.abs(t - k * grid.dt) <= 1e-9 * grid.dt) & (0 <= k) & (
                k < grid.n)
        on[1:] &= k[1:] > k[:-1]
        if not on.all():
            raise ConfigError([
                f"pulse.file/grid.dt: {file}: time {float(t[~on][0])!r} s "
                "is off the grid; each time must be k*grid.dt, k an integer "
                f"that increases row by row from 0 to below grid.n = {grid.n}"])
        samples = np.zeros(grid.n)
        samples[k.astype(int)] = amplitude * values
        keys = "pulse.file/grid.n/grid.dt"
    else:
        raise ValueError(f"unknown pulse shape {shape!r}")

    # finite samples turn non-finite only where their sum overflows
    with np.errstate(all="ignore"), _keys("pulse.amplitude"):
        samples = samples - np.mean(samples)
        sig = Signal(grid, samples)
    if sig.peak == 0.0:
        raise ConfigError([f"{keys}: pulse is identically zero"])
    if max(abs(samples[0]), abs(samples[-1])) > CLEAN_TOL * sig.peak:
        raise ConfigError([f"{keys}: window-edge energy above 1e-8 of peak"])
    return sig


def _entry(config, grid, mode):
    """The entry-plane fields (B, E) = (k, j), j the pulse and k per
    ``mode``, and their directed pair.

    ``pure-right`` sets k = a-hat j, so the pair is Pi = k, Lambda = 0;
    ``e-only`` sets k = 0.
    """
    j = synthesize_pulse(grid, **config.pulse)
    with _keys("grid.dt", "grid.n"):
        k = (apply(make_multiplier("a", config.params, grid), j)
             if mode == "pure-right" else Signal.zeros(grid))
        fields = FieldPair(b=k, e=j)
        return fields, waves.split(fields, config.params)


def _check_a_inv(config, grid):
    """Stop the plan, not the reconstruction, where a-hat^{-1} is unbounded."""
    with _keys("grid.dt", "grid.n"):
        make_multiplier("a_inv", config.params, grid)


def _station_tables(prefix, grid, xs, states, params=None):
    """One table per station x of ``xs``, built when it is asked for: t, Pi
    and Lambda, and with ``params`` the reconstructed B and E."""
    header = "t (s),Pi (T),Lambda (T)" + ("" if params is None
                                          else ",B (T),E (V/m)")
    for i, (x, state) in enumerate(zip(xs, states)):
        cols = [grid.times, state.pi.samples, state.lam.samples]
        if params is not None:
            fp = waves.reconstruct(state, params)
            cols += [fp.b.samples, fp.e.samples]
        yield (f"{prefix}_station_{i:03d}.csv", header, cols,
               {"x (m)": float(x)})


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


def plan(config):
    """The run of ``config`` up to its march: the part that costs O(n) and
    decides whether the run can work.

    It builds the TimeGrid, the pulse, the entry pair and its split, the
    a-hat^{-1} of the scenarios that reconstruct, the Kerr step count and
    the FDTD oracle's grid, and raises ConfigError naming the config keys
    that set whatever of these cannot be built. Returns (tables, summary):
    the runner paused after that, whose steps give each table as (name,
    header, columns, meta) in write order, and the summary they fill.
    """
    summary = {}
    tables = SCENARIOS[config.scenario][1](config, summary)
    next(tables)
    return tables, summary


def run_scenario(config, out_dir):
    """Plan and execute a scenario into the directory ``out_dir``; returns
    (exit_status, written file paths).

    An earlier run's files are deleted first. Each table is built, streamed
    to its file chunk by chunk and dropped, then ``manifest.json`` is
    written. A run that stops deletes every file it opened; an output
    ``OSError`` then propagates, any other error goes to ``error.txt``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _remove_previous_run(out)
    metas, written = {}, []
    try:
        tables, summary = plan(config)
        for name, header, columns, meta in tables:
            with (out / name).open("wb") as fh:
                written.append(out / name)
                metas[name] = meta
                fh.writelines(table_chunks(header, columns))
        manifest = {
            "tool": "metapulse",
            "version": __version__,
            "scenario": config.scenario,
            "medium": config.medium,
            "grid": config.grid,
            "pulse": config.pulse,
            "run": config.run,
            "tables": metas,
            "summary": summary,
        }
        with (out / "manifest.json").open("w") as fh:
            written.append(out / "manifest.json")
            fh.write(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    except Exception as exc:
        for path in written:
            path.unlink(missing_ok=True)
        if isinstance(exc, OSError):  # the output's; main names its setting
            raise
        diag = out / "error.txt"
        diag.write_text(f"{type(exc).__name__}: {exc}\n")
        print(f"error: {exc}", file=sys.stderr)
        return 1, [str(diag)]
    return 0, [str(path) for path in written]


# ---------------------------------------------------------------- runners


def _run_split(config, summary):
    grid = _grid(config)
    fields, dp = _entry(config, grid, config.run["boundary"])
    yield
    summary.update({"pi_peak (T)": dp.pi.peak, "lambda_peak (T)": dp.lam.peak})
    yield ("split.csv", "t (s),j (V/m),k (T),Pi (T),Lambda (T)",
           [grid.times, fields.e.samples, fields.b.samples, dp.pi.samples,
            dp.lam.samples], {})


def _run_linear(config, summary):
    grid = _grid(config)
    _check_ceilings(config, grid)
    dp0 = _entry(config, grid, config.run["boundary"])[1]
    _check_a_inv(config, grid)
    yield
    tag = config.scenario.removeprefix("propagate-")
    propagator = (evolution.propagate_kg if tag == "kg"
                  else evolution.propagate_linear_exact)
    xs = np.linspace(0.0, config.run["x_end"], config.run["n_stations"])
    states = propagator(dp0, xs, config.params)
    summary["stations (m)"] = [float(x) for x in xs]
    if tag == "kg":
        summary.update(_kg_budget(config.params, dp0, config.run["x_end"]))
    yield from _station_tables(tag, grid, xs, states, config.params)


def _kg_budget(params, dp0, x_end):
    """The reduction-error budget: truncation error at the occupied band
    edge times the accumulated exact phase over the full distance."""
    spec = np.abs(evolution._entry_spectrum(dp0)).sum(axis=0)
    w_occ = dp0.grid.half_omegas[spec > 1e-8 * np.max(spec)]
    w_edge = float(np.max(w_occ))
    budget = None
    if w_edge < params.band_low:
        phase = float(np.max(np.abs(w_occ * medium.a_symbol(params, w_occ))))
        budget = float(medium.taylor_truncation_error(params, w_edge)
                       * phase * x_end)
    return {"band_edge (rad/s)": w_edge, "kg_error_budget (1)": budget}


def _run_kerr(config, summary):
    run, grid = config.run, _grid(config)
    _check_ceilings(config, grid)
    tag = config.scenario.removeprefix("propagate-")
    coupled = tag == "nonlinear"
    # the pure-right entry splits into Pi = k and Lambda = 0 exactly
    dp0 = _entry(config, grid, run["boundary"] if coupled else "pure-right")[1]
    entry = dp0 if coupled else dp0.pi
    # run.n_steps, or when it is 0 the count derived from the entry; one
    # that no int holds (inf or NaN) reads as inf, over the ceiling
    try:
        n_steps = run["n_steps"] or evolution.kerr_default_steps(
            entry, run["x_end"], config.params, n_stations=run["n_stations"])
    except (OverflowError, ValueError):
        n_steps = np.inf
    if not run["n_steps"] and n_steps > MAX_DEFAULT_KERR_STEPS:
        raise ConfigError([
            f"run.n_steps: derived Kerr step count {n_steps:.3g} exceeds "
            f"{MAX_DEFAULT_KERR_STEPS}; set run.n_steps to march that many, "
            f"or lower pulse.amplitude or run.x_end"])
    yield
    march = (evolution.propagate_nonlinear if coupled
             else evolution.propagate_unidirectional)
    record = march(entry, run["x_end"], n_steps, config.params, grid,
                   n_stations=run["n_stations"])
    summary["n_steps"] = n_steps
    summary["final_pi_peak (T)"] = record.final.pi.peak
    summary.update({f"{key} (1)": value for key, value in record.meta.items()})
    if coupled:
        summary["final_lambda_peak (T)"] = record.final.lam.peak
    yield from _station_tables(tag, grid, record.stations, record.states)


def _run_stationary_linear(config, summary):
    with _keys("medium.omega_pe", "medium.c", "run.v"):  # p^3, c^3, v^6
        sp = stationary.stationary_params(config.run["v"], config.params)
    yield
    xi = np.linspace(config.run["xi_min"], config.run["xi_max"],
                     config.run["n_xi"])
    r = stationary.linear_r_profile(config.run["amplitude_r"], sp, xi)
    lw = stationary.linear_l_profile(config.run["amplitude_l"], sp, xi)
    summary.update({"k (1/m)": sp.k, "omega (rad/s)": sp.omega,
                    "v (m/s)": sp.v})
    yield "stationary_linear.csv", "xi (m),R (T),L (T)", [xi, r, lw], {}


def _run_stationary_nonlinear(config, summary):
    with _keys("medium.omega_pe", "medium.c", "run.v"):  # p^3, c^3, v^6
        sp = stationary.stationary_params(config.run["v"], config.params)
    yield
    xi, pi, slope = stationary.integrate_oscillator(
        config.run["pi0"], config.run["dpi0"], config.run["xi_end"],
        config.run["n_steps"], sp)
    summary.update({"k (1/m)": sp.k, "K_v": sp.big_k_v})
    yield ("stationary_nonlinear.csv", "xi (m),Pi (T),dPi/dxi (T/m)",
           [xi, pi, slope], {})


def _run_taylor_error(config, summary):
    yield
    p = config.params
    omegas = np.linspace(0.0, 0.95, config.run["n_points"] + 1)[1:] * p.omega_pe
    err = medium.taylor_truncation_error(p, omegas)
    summary["note"] = "claims reported, not gated"
    # omega/omega_pe -> the claimed bound on the long-wave term's error
    for frac, claim in {0.5: 5e-5, 0.9: 0.10}.items():
        at = float(medium.taylor_truncation_error(p, frac * p.omega_pe))
        summary.update({f"error_at_{frac}_omega_pe": at,
                        f"claimed_below_{frac}": claim,
                        f"claim_met_at_{frac}": at <= claim})
    yield ("taylor_error.csv", "omega/omega_pe (1),relative error (1)",
           [omegas / p.omega_pe, err], {})


def _run_reference_compare(config, summary):
    grid = _grid(config)
    source = synthesize_pulse(grid, **config.pulse)
    _check_a_inv(config, grid)
    _oracle(config.params, source, **config.run)
    yield
    tables, compared = reference_compare(config.params, source, **config.run)
    summary.update(compared)
    yield from tables


def reference_compare(params, source, dx, courant, x_ref, x_probes,
                      duration, pad):
    """FDTD oracle vs split -> propagate -> reconstruct, at given probes.

    The FDTD run, driven by the boundary ``source`` Signal, records (E, B)
    on ``source.grid`` at the reference plane and at each probe; the
    reference-plane pair less its mean is split into directed waves,
    propagated the exact linear way, reconstructed, and compared in
    relative L2 with each probe's record, on the grid of :func:`_oracle`.
    Returns the reference-compare scenario's (tables, summary): a list of
    one (name, header, columns, meta) table per probe in probe order (t, E
    and B of both sides; its x and L2s as meta), and the L2s, the 0.02
    budget, ``pass`` (every L2 within it), the FDTD run's wall-reflection
    flag as ``fdtd_contaminated``, its Courant number, steps per sample,
    nodes and pad (before the 64-node floor), and its layer's length and
    one-way attenuation at the edges of the source's occupied band.
    """
    grid = source.grid
    grid1d, probes_abs, pad = _oracle(params, source, dx, courant, x_ref,
                                      x_probes, duration, pad)
    run = reference.run_boundary_source(source, grid1d, params, duration,
                                        probes_abs)
    (e_ref, *e_fdtd), (b_ref, *b_fdtd) = run["e"], run["b"]
    fields = FieldPair(b=Signal(grid, b_ref - np.mean(b_ref)),
                       e=Signal(grid, e_ref - np.mean(e_ref)))
    states = evolution.propagate_linear_exact(
        waves.split(fields, params), x_probes, params)

    tables, l2_e, l2_b = [], [], []
    for i, (xp, dp, e_fd, b_fd) in enumerate(zip(x_probes, states, e_fdtd,
                                                 b_fdtd)):
        fp = waves.reconstruct(dp, params)
        l2_e.append(_rel_l2(fp.e.samples, e_fd))
        l2_b.append(_rel_l2(fp.b.samples, b_fd))
        tables.append((
            f"compare_probe_{i:03d}.csv",
            "t (s),E fdtd (V/m),E spectral (V/m),B fdtd (T),B spectral (T)",
            [grid.times, e_fd, fp.e.samples, b_fd, fp.b.samples],
            {"x (m)": float(xp), "l2_error_e": l2_e[-1],
             "l2_error_b": l2_b[-1]}))
    # a NaN error fails, as it would not under max(...) <= 0.02
    ok = all(e <= 0.02 and b <= 0.02 for e, b in zip(l2_e, l2_b))
    return tables, {"l2_errors_e": l2_e, "l2_errors_b": l2_b, "budget": 0.02,
                    "pass": ok, "fdtd_contaminated": run["contaminated"],
                    "fdtd_courant": params.c * grid.dt / (
                        run["steps_per_sample"] * dx),
                    "fdtd_steps_per_sample": run["steps_per_sample"],
                    "fdtd_nodes (1)": grid1d.nx, "fdtd_pad (m)": pad,
                    "fdtd_layer (m)": run["layer"],
                    "fdtd_layer_attenuation (1)": run["attenuation"]}


def _oracle(params, source, dx, courant, x_ref, x_probes, duration, pad):
    """The FDTD oracle of :func:`reference_compare`, sized here alone: its
    grid (the source on node 0, the farthest of x_ref and the probes or
    their mirror images, then the pad, on 64 nodes at least) stepping
    grid.dt / m for the m of :func:`reference.steps_per_sample` within
    ``courant``, the probe positions from the source, and the pad, ``pad``
    capped by the source's absorbing layer and its gap. Raises ConfigError
    naming the keys when the spectral window, the oracle grid or
    MAX_SAMPLES (its nodes, source points and records) cannot take them."""
    grid = source.grid
    if grid.window < duration:
        raise ConfigError([f"run.duration: longer than the spectral window "
                           f"grid.n * grid.dt = {grid.window:g}"])
    layer = reference.absorbing_layer(params, source)[0]
    pad = min(pad, layer + reference.LAYER_GAP * params.c / params.band_low)
    probes = [x_ref] + [x_ref + xp for xp in x_probes]
    nodes = max(np.ceil((max(map(abs, probes)) + pad) / dx), 64.0)
    _check_size(nodes, "run.dx/run.x_ref/run.x_probes/run.pad",
                f"{nodes:.3g} oracle nodes",
                "raise run.dx, or lower run.pad, run.x_ref or run.x_probes")
    _check_size(len(probes) * grid.n, "run.x_probes/grid.n",
                f"{len(probes)} oracle records x {grid.n} samples",
                "list fewer run.x_probes or lower grid.n")
    with _keys("run.dx", "run.pad", "run.courant"):
        m = reference.steps_per_sample(grid.dt, courant * dx / params.c)
        grid1d = reference.YeeGrid1D(int(nodes), dx, grid.dt / m)
    _check_size(m * grid.n, "run.dx/run.courant/grid.dt/grid.n",
                f"{m} oracle steps a sample x {grid.n} samples",
                "raise run.dx or run.courant, or lower grid.n")
    with _keys("run.x_ref", "run.x_probes", "run.pad"):
        reference.source_layout(grid1d, duration, probes)
    return grid1d, probes, pad


def _rel_l2(a, b):
    with np.errstate(divide="ignore", invalid="ignore"):  # b = 0 fails
        return float(np.linalg.norm(a - b) / np.linalg.norm(b))


_LINEAR_KEYS = {"x_end": (float, REQUIRED, _POSITIVE),
                "n_stations": (int, 5, _STATIONS),
                "boundary": (str, "e-only", _BOUNDARY)}
_KERR_KEYS = {"x_end": (float, REQUIRED, _POSITIVE),
              "n_steps": (int, 0, _KERR_STEPS),
              "n_stations": (int, 5, _STATIONS)}

# scenario -> (description, runner, whether it takes a pulse,
#              {run key: (type, default or REQUIRED, range rule or None)})
SCENARIOS = {
    "split": ("split a boundary pulse into right/left wave amplitudes",
              _run_split, True, {"boundary": (str, "e-only", _BOUNDARY)}),
    "propagate-linear": (
        "exact linear spectral propagation, snapshots along x",
        _run_linear, True, _LINEAR_KEYS),
    "propagate-kg": (
        "Klein-Gordon-Fock reduced propagation, snapshots along x",
        _run_linear, True, _LINEAR_KEYS),
    "propagate-nonlinear": (
        "coupled Kerr system marched with Lawson RK4", _run_kerr, True,
        {**_KERR_KEYS, "boundary": (str, "pure-right", _BOUNDARY)}),
    "propagate-unidirectional": (
        "unidirectional Kerr equation (left wave frozen at zero)",
        _run_kerr, True, _KERR_KEYS),
    "stationary-linear": (
        "analytic traveling R/L profiles", _run_stationary_linear, False,
        {"v": (float, REQUIRED, _POSITIVE), "amplitude_r": (float, 1.0, None),
         "amplitude_l": (float, 1.0, None), "xi_min": (float, REQUIRED, None),
         "xi_max": (float, REQUIRED, None),
         "n_xi": (int, 401, _COUNT)}),
    "stationary-nonlinear": (
        "Cardano-reduced nonlinear oscillator profile",
        _run_stationary_nonlinear, False,
        {"v": (float, REQUIRED, _POSITIVE), "pi0": (float, REQUIRED, None),
         "dpi0": (float, 0.0, None), "xi_end": (float, REQUIRED, _POSITIVE),
         # its profile holds n_steps + 1 points
         "n_steps": (int, 400, _rule(lambda n: 4 <= n < MAX_SAMPLES,
                                     f"must lie in [4, {MAX_SAMPLES - 1}]"))}),
    "taylor-error": (
        "truncation-error curve of the leading dispersion term",
        _run_taylor_error, False,
        {"n_points": (int, 200, _COUNT)}),
    "reference-compare": (
        "FDTD oracle vs split/propagate/reconstruct pipeline",
        _run_reference_compare, True,
        {"dx": (float, REQUIRED, _POSITIVE), "courant": (float, 0.5, _COURANT),
         "x_ref": (float, REQUIRED, None),
         "x_probes": (list, REQUIRED, _rule(lambda xs: xs and min(xs) >= 0,
                                            "must list distances >= 0")),
         "duration": (float, REQUIRED, _POSITIVE),
         "pad": (float, 60.0, _rule(lambda v: v >= 0,
                                     "must not be negative"))}),
}


# ------------------------------------------------------------------- CLI


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="metapulse",
        description="directed-wave pulse propagation in 1D Drude metamaterials",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # run and validate read one config the same way
    config_args = argparse.ArgumentParser(add_help=False)
    config_args.add_argument("config", type=Path)
    config_args.add_argument("--override", action="append", default=[],
                             metavar="SECTION.KEY=VALUE")
    p_run = sub.add_parser("run", parents=[config_args],
                           help="run a scenario from a config file")
    p_run.add_argument("--out", type=Path, default=None)
    sub.add_parser("validate", parents=[config_args],
                   help="validate a config file")

    sub.add_parser("scenarios", help="list scenarios and their run keys")

    args = parser.parse_args(argv)

    if args.command == "scenarios":
        for name in sorted(SCENARIOS):
            desc, _, _, schema = SCENARIOS[name]
            keys = ", ".join(
                f"{k}{'*' if d is REQUIRED else ''}"
                for k, (_, d, _) in sorted(schema.items())
            )
            print(f"{name}: {desc}")
            print(f"    run keys (* = required): {keys or '(none)'}")
        return 0

    try:
        config = parse_config(args.config.read_text(), args.override)
        if args.command == "validate":
            plan(config)
            print("config ok")
            return 0
    except (OSError, UnicodeDecodeError) as exc:
        violations = [f"config file: {exc}"]
    except ConfigError as exc:
        violations = exc.violations
    else:
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
