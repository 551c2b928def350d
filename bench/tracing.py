"""In-memory span tracer installed from outside the package.

``Tracer.install`` replaces the public functions named in ``TARGETS`` on
every ``metapulse`` module that binds them (``from .spectral import
make_multiplier`` gives that function three bindings besides its own), and
wraps the ``numpy.fft`` transform entry points so that each transform is
charged to the innermost open span. Nothing under ``src/`` changes.

Spans keep a name, start, end, parent index, FFT count and a few attributes
read from the call's arguments and result; ``layer_metrics`` derives the
per-layer metrics of one pass from them.
"""

import functools
import inspect
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

FFT_ENTRY_POINTS = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft",
                    "fft2", "ifft2", "rfft2", "irfft2",
                    "fftn", "ifftn", "rfftn", "irfftn")

SCENARIOS = ("split", "propagate-linear", "propagate-kg",
             "propagate-nonlinear", "propagate-unidirectional",
             "stationary-linear", "stationary-nonlinear", "taylor-error",
             "reference-compare")


def _record_size(args, result):
    states = result.states
    return {"n_steps": args["n_steps"], "n": args["grid"].n,
            "states": len(states),
            "state_bytes": sum(s.pi.samples.nbytes + s.lam.samples.nbytes
                               for s in states)}


def _written(args, result):
    _, paths = result
    return {"scenario": args["config"].scenario, "files": len(paths),
            "bytes": sum(os.path.getsize(p) for p in paths)}


def _cell_steps(args, result):
    g = args["grid1d"]
    return {"cell_steps": g.nx * int(round(args["duration"] / g.dt_fdtd))}


def _oscillator_steps(args, result):
    return {"n_steps": args["n_steps"]}


#: (module, function) -> attribute reader, or None for timing only
TARGETS = {
    ("cli", "run_scenario"): _written,
    ("cli", "parse_config"): None,
    ("cli", "reference_compare"): None,
    ("evolution", "propagate_linear_exact"): None,
    ("evolution", "propagate_kg"): None,
    ("evolution", "propagate_nonlinear"): _record_size,
    ("evolution", "propagate_unidirectional"): _record_size,
    ("spectral", "make_multiplier"): None,
    ("spectral", "apply"): None,
    ("waves", "split"): None,
    ("waves", "reconstruct"): None,
    ("reference", "run_boundary_source"): _cell_steps,
    ("medium", "taylor_truncation_error"): None,
    ("stationary", "integrate_oscillator"): _oscillator_steps,
}

#: per-layer metric -> (unit, better); a layer that does not run reports 0.
#: Counts and ``_ms`` totals are per pass unless the name says per call/step.
LAYER_METRICS = {
    "evolution.kerr_step_ms": ("ms", "lower"),
    "evolution.kerr_ns_per_sample_step": ("ns", "lower"),
    "evolution.fft_calls_per_step": ("count", "lower"),
    "evolution.stored_states": ("count", "lower"),
    "evolution.stored_state_mib": ("MiB", "lower"),
    "evolution.unidirectional_step_ms": ("ms", "lower"),
    "evolution.linear_exact_ms": ("ms", "lower"),
    "evolution.kg_ms": ("ms", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.bytes_written": ("B", "lower"),
    "cli.files_written": ("count", "lower"),
    "cli.write_mb_per_s": ("MB/s", "higher"),
    "cli.reference_compare_self_s": ("s", "lower"),
    "cli.parse_config_ms": ("ms", "lower"),
    "cli.import_ms": ("ms", "lower"),
    **{f"cli.scenario.{s}_ms": ("ms", "lower") for s in SCENARIOS},
    "spectral.make_multiplier_calls": ("count", "lower"),
    "spectral.make_multiplier_ms": ("ms", "lower"),
    "spectral.apply_calls": ("count", "lower"),
    "spectral.apply_ms": ("ms", "lower"),
    "waves.split_ms": ("ms", "lower"),
    "waves.reconstruct_calls": ("count", "lower"),
    "waves.reconstruct_ms": ("ms", "lower"),
    "reference.run_s": ("s", "lower"),
    "reference.cell_steps": ("count", "lower"),
    "reference.ns_per_cell_step": ("ns", "lower"),
    "reference.import_ms": ("ms", "lower"),
    "medium.import_ms": ("ms", "lower"),
    "medium.taylor_truncation_error_ms": ("ms", "lower"),
    "stationary.oscillator_us_per_step": ("us", "lower"),
    "trace_overhead_frac": ("1", "lower"),
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = None
    fft_calls: int = 0
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Collects spans for one process; install, run, uninstall, read."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self._patched = []

    def wrap(self, name, fn, attrs=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        signature = inspect.signature(fn) if attrs else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, parent=stack[-1] if stack else None)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if attrs is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.attrs = attrs(bound.arguments, result)
            return result

        return traced

    def count_fft(self, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if stack:  # transforms outside every span are not charged
                spans[stack[-1]].fft_calls += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every binding of the target functions in loaded metapulse modules."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "metapulse" or name.startswith("metapulse.")]
        for (module, func), attrs in TARGETS.items():
            original = getattr(sys.modules[f"metapulse.{module}"], func)
            traced = self.wrap(f"{module}.{func}", original, attrs)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, traced)
        for name in FFT_ENTRY_POINTS:
            self._patch(np.fft, name, self.count_fft(getattr(np.fft, name)))

    def uninstall(self):
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    def dump(self):
        """Spans as JSON-ready rows: name, start, end, parent, fft, attrs."""
        return [[s.name, s.start, s.end, s.parent, s.fft_calls, s.attrs]
                for s in self.spans]


def self_times(spans):
    """Each span's duration minus the part of it its child spans cover."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for s, kids in zip(spans, children):
        covered, reach = 0.0, s.start
        for lo, hi in sorted((spans[k].start, spans[k].end) for k in kids):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def _subtree_fft(spans):
    total = [s.fft_calls for s in spans]
    for i in range(len(spans) - 1, -1, -1):  # children follow their parent
        if spans[i].parent is not None:
            total[spans[i].parent] += total[i]
    return total


def layer_metrics(spans):
    """Per-layer metrics of one pass from its spans (0 where a layer idles)."""
    selfs = self_times(spans)
    ffts = _subtree_fft(spans)
    by = {}
    for i, s in enumerate(spans):
        by.setdefault(s.name, []).append(i)

    def calls(name):
        return len(by.get(name, ()))

    def total(name, value=lambda i: spans[i].end - spans[i].start):
        return sum(value(i) for i in by.get(name, ()))

    def attr(name, key):  # a call that raised has no attributes
        return total(name, lambda i: spans[i].attrs.get(key, 0))

    def ratio(num, den):
        return num / den if den else 0.0

    kerr, uni = "evolution.propagate_nonlinear", "evolution.propagate_unidirectional"
    run, ref = "cli.run_scenario", "reference.run_boundary_source"
    osc = "stationary.integrate_oscillator"
    cli_self = total(run, lambda i: selfs[i])
    sample_steps = total(kerr, lambda i: spans[i].attrs.get("n_steps", 0)
                         * spans[i].attrs.get("n", 0))
    m = {
        "evolution.kerr_step_ms": 1e3 * ratio(total(kerr), attr(kerr, "n_steps")),
        "evolution.kerr_ns_per_sample_step": 1e9 * ratio(total(kerr), sample_steps),
        "evolution.fft_calls_per_step":
            total(kerr, lambda i: ffts[i]) // max(attr(kerr, "n_steps"), 1),
        "evolution.stored_states": ratio(attr(kerr, "states"), calls(kerr)),
        "evolution.stored_state_mib":
            ratio(attr(kerr, "state_bytes"), calls(kerr)) / 2**20,
        "evolution.unidirectional_step_ms":
            1e3 * ratio(total(uni), attr(uni, "n_steps")),
        "evolution.linear_exact_ms": 1e3 * ratio(
            total("evolution.propagate_linear_exact"),
            calls("evolution.propagate_linear_exact")),
        "evolution.kg_ms": 1e3 * ratio(total("evolution.propagate_kg"),
                                       calls("evolution.propagate_kg")),
        "cli.self_s": cli_self,
        "cli.bytes_written": attr(run, "bytes"),
        "cli.files_written": attr(run, "files"),
        "cli.write_mb_per_s": ratio(attr(run, "bytes") / 1e6, cli_self),
        "cli.reference_compare_self_s":
            total("cli.reference_compare", lambda i: selfs[i]),
        "cli.parse_config_ms": 1e3 * ratio(total("cli.parse_config"),
                                           calls("cli.parse_config")),
    }
    for scenario in SCENARIOS:
        mine = [i for i in by.get(run, ()) if spans[i].attrs.get("scenario") == scenario]
        m[f"cli.scenario.{scenario}_ms"] = 1e3 * ratio(
            sum(spans[i].end - spans[i].start for i in mine), len(mine))
    for name in ("spectral.make_multiplier", "spectral.apply", "waves.reconstruct"):
        m[f"{name}_calls"] = calls(name)
        m[f"{name}_ms"] = 1e3 * total(name)
    m["waves.split_ms"] = 1e3 * total("waves.split")
    m["reference.run_s"] = total(ref)
    m["reference.cell_steps"] = attr(ref, "cell_steps")
    m["reference.ns_per_cell_step"] = 1e9 * ratio(total(ref), attr(ref, "cell_steps"))
    m["medium.taylor_truncation_error_ms"] = 1e3 * total("medium.taylor_truncation_error")
    m["stationary.oscillator_us_per_step"] = 1e6 * ratio(total(osc), attr(osc, "n_steps"))
    return m


def import_times(stderr_text):
    """Cumulative ms per module from ``python -X importtime`` output."""
    out = {}
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue  # the header row
        out[parts[2].strip()] = int(parts[1]) / 1e3
    return out
