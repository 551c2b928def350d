"""Hand mutants of ``src/``, each with the tests expected to kill it.

Every mutant replaces one text of one file that occurs there exactly once.
The runner copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary
directory, checks that the named tests pass there, then applies each mutant
on its own and runs only its named tests. A mutant survives when they all
pass, and is killed only when one of them fails (pytest's exit status 1).
The run exits 1 on any survivor, and 2 when the list no longer matches the
source, a mutant does not compile, a named test fails unmutated or a
mutated run ends in any other way. Mutants marked ``equivalent`` cannot be
killed; they are checked against the source only.

    python tools/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

CLI, EVOLUTION, REFERENCE, RENDER, STATIONARY = (
    f"src/metapulse/{name}.py"
    for name in ("cli", "evolution", "reference", "render", "stationary"))

MUTANTS = [
    # summaries and warnings
    {"name": "pass-from-E-alone", "file": CLI,
     "old": "ok = all(e <= 0.02 and b <= 0.02 for e, b in",
     "new": "ok = all(e <= 0.02 for e, b in",
     "tests": ["tests/test_cli.py::"
               "test_reference_compare_passes_only_when_e_and_b_pass"]},
    {"name": "B-mean-kept", "file": CLI,
     "old": "b=Signal(grid, b_ref - np.mean(b_ref))",
     "new": "b=Signal(grid, b_ref)",
     "tests": ["tests/test_cli.py::"
               "test_reference_compare_splits_records_without_dc"]},
    {"name": "kg-budget-without-x_end", "file": CLI,
     "old": "* phase * x_end)", "new": "* phase)",
     "tests": ["tests/test_cli.py::test_kg_budget_grows_with_x_end"]},
    {"name": "kg-budget-edge-on-p", "file": CLI,
     "old": "if w_edge < params.band_low:",
     "new": "if w_edge <= params.band_low:",
     "tests": ["tests/test_cli.py::"
               "test_kg_budget_is_none_for_a_band_edge_on_p"]},
    {"name": "series-radius-x10", "file": STATIONARY,
     "old": "radius = c**1.5 / (np.sqrt(sp.big_k_v) * p * q)",
     "new": "radius = 10.0 * c**1.5 / (np.sqrt(sp.big_k_v) * p * q)",
     "tests": ["tests/test_stationary.py::"
               "test_series_radius_is_where_the_cubic_term_takes_over"]},
    {"name": "taylor-claim-0.10-to-0.20", "file": CLI,
     "old": "{0.5: 5e-5, 0.9: 0.10}", "new": "{0.5: 5e-5, 0.9: 0.20}",
     "equivalent": "the error at 0.9 omega_pe is at least 1.29 for every "
                   "p <= q, so the claim fails against either bound"},
    # the cropped Kerr march
    {"name": "KERR_TAIL-x100", "file": EVOLUTION,
     "old": "KERR_TAIL = 1e-8", "new": "KERR_TAIL = 1e-6",
     "tests": ["tests/test_evolution.py::"
               "test_cropped_march_is_within_a_thousandth_of_the_full_march_"
               "error"]},
    *({"name": f"watched-band-{end}-{way}", "file": EVOLUTION,
       "old": "fraction = _fraction(new, np.s_[m // 4 + 1:m // 3 + 1], width)",
       "new": "fraction = _fraction(new, np.s_[" + band + "], width)",
       "tests": ["tests/test_evolution.py::"
                 "test_kerr_tail_is_the_largest_top_band_fraction"]}
      for end, way, band in (
          ("low", "down", "m // 4:m // 3 + 1"),
          ("low", "up", "m // 4 + 2:m // 3 + 1"),
          ("high", "down", "m // 4 + 1:m // 3"),
          ("high", "up", "m // 4 + 1:m // 3 + 2"))),
    {"name": "growth-without-redo", "file": EVOLUTION,
     "old": "np.multiply(lin[band], (step - 1) * h, out=arg[band])\n"
            "                np.exp(arg[band], out=arg[band])\n"
            "                state[band] *= arg[band]\n"
            "                m, width = 2 * m, m + 1\n"
            "                continue\n",
     "new": "np.multiply(lin[band], step * h, out=arg[band])\n"
            "                np.exp(arg[band], out=arg[band])\n"
            "                new[band] *= arg[band]\n"
            "                m, width = 2 * m, m + 1\n",
     "tests": ["tests/test_evolution.py::"
               "test_cropped_march_keeps_its_top_band_within_kerr_tail"]},
    # the oracle's clock
    {"name": "steps-per-sample-rounded", "file": REFERENCE,
     "old": "return int(np.ceil(sample_dt / dt",
     "new": "return int(np.round(sample_dt / dt",
     "tests": ["tests/test_properties.py::"
               "test_oracle_steps_divide_the_grid_step_within_the_courant_"
               "bound",
               "tests/test_cli.py::test_reference_compare_records_the_oracle_"
               "clock"]},
    {"name": "steps-per-sample-without-tolerance", "file": REFERENCE,
     "old": "sample_dt / dt * (1 - 1e-9)",
     "new": "sample_dt / dt",
     "tests": ["tests/test_properties.py::"
               "test_oracle_steps_divide_the_grid_step_within_the_courant_"
               "bound"]},
    {"name": "plan-clamps-the-courant-number", "file": CLI,
     "old": "courant=params.c * grid.dt / (m * dx))",
     "new": "courant=min(params.c * grid.dt / (m * dx), courant))",
     "tests": ["tests/test_cli.py::test_oracle_run_takes_the_step_its_plan_"
               "makes"]},
    {"name": "records-from-step-1", "file": REFERENCE,
     "old": "on, j = slice(-n0 % m, None, m)",
     "new": "on, j = slice((1 - n0) % m, None, m)",
     "tests": ["tests/test_reference.py::"
               "test_source_run_records_match_full_grid_loop"]},
    {"name": "kick-without-m", "file": REFERENCE,
     "old": "return m * np.fft.irfft(half, m * signal.grid.n)",
     "new": "return np.fft.irfft(half, m * signal.grid.n)",
     "tests": ["tests/test_reference.py::"
               "test_upsample_is_the_sources_trigonometric_interpolant"]},
    {"name": "kick-nyquist-whole", "file": REFERENCE,
     "old": "half[-1] *= 0.5 if m > 1 else 1.0",
     "new": "half[-1] *= 1.0 if m > 1 else 1.0",
     "tests": ["tests/test_reference.py::"
               "test_upsample_is_the_sources_trigonometric_interpolant"]},
    # the size ceiling and the plan's overflows
    {"name": "size-ceiling-inclusive", "file": CLI,
     "old": "if not samples <= MAX_SAMPLES:",
     "new": "if not samples < MAX_SAMPLES:",
     "tests": ["tests/test_cli.py::test_plan_bounds_the_oracle_source_"
               "interpolant",
               "tests/test_cli.py::test_validate_refuses_stations_over_the_"
               "ceiling",
               "tests/test_cli.py::test_plan_bounds_the_oracle_nodes"]},
    {"name": "oracle-nodes-unbounded", "file": CLI,
     "old": "    _check_size(nodes, \"run.dx/run.x_ref/run.x_probes/run.pad\",\n"
            "                f\"{nodes:.3g} oracle nodes\",\n"
            "                \"raise run.dx, or lower run.pad, run.x_ref or "
            "run.x_probes\")\n",
     "new": "",
     "tests": ["tests/test_cli.py::test_plan_bounds_the_oracle_nodes"]},
    {"name": "oracle-records-unbounded", "file": CLI,
     "old": "_check_size(len(probes) * grid.n,",
     "new": "_check_size(grid.n,",
     "tests": ["tests/test_cli.py::test_validate_bounds_the_oracle_records"]},
    {"name": "count-without-ceiling", "file": CLI,
     "old": "_COUNT = _rule(lambda n: 1 <= n <= MAX_SAMPLES,",
     "new": "_COUNT = _rule(lambda n: 1 <= n,",
     "tests": ["tests/test_cli.py::test_a_size_key_passes_at_the_ceiling_and_"
               "not_past_it"]},
    *({"name": f"oscillator-steps-{name}", "file": CLI,
       "old": "_rule(lambda n: 4 <= n < MAX_SAMPLES,",
       "new": f"_rule(lambda n: {rule},",
       "tests": ["tests/test_cli.py::test_a_size_key_passes_at_the_ceiling_"
                 "and_not_past_it"]}
      for name, rule in (("without-ceiling", "4 <= n"),
                         ("ceiling-inclusive", "4 <= n <= MAX_SAMPLES"))),
    {"name": "keys-without-overflow", "file": CLI,
     "old": "except (ValueError, ArithmeticError) as exc:",
     "new": "except ValueError as exc:",
     "tests": ["tests/test_cli.py::test_validate_names_the_keys_of_an_"
               "overflow"]},
    {"name": "derived-count-in-all-its-digits", "file": CLI,
     "old": "derived Kerr step count {n_steps:.3g} exceeds",
     "new": "derived Kerr step count {n_steps} exceeds",
     "tests": ["tests/test_cli.py::test_validate_prints_a_huge_derived_count_"
               "in_three_digits"]},
    {"name": "zero-record-l2-warns", "file": CLI,
     "old": "with np.errstate(divide=\"ignore\", invalid=\"ignore\"):",
     "new": "with np.errstate():",
     "tests": ["tests/test_cli.py::test_reference_compare_of_empty_records_"
               "fails_without_a_warning"]},
    # the CSV renderer's chunks and slots
    *({"name": name, "file": RENDER,
       "old": "width = 26 if max(e.max(), -e.min()) >= 100 else 25",
       "new": new,
       "tests": ["tests/test_cli.py::test_format_table_bytes_match_per_"
                 "value_rendering[slot-widths-1]"]}
      for name, new in (
          ("slot-width-past-E-100",
           "width = 26 if max(e.max(), -e.min()) > 100 else 25"),
          ("slot-fixed-at-25-bytes", "width = 25"))),
    {"name": "chunk-rows-not-divided-by-columns", "file": RENDER,
     "old": "step = max(1, CSV_CHUNK_VALUES // len(columns))",
     "new": "step = CSV_CHUNK_VALUES",
     "tests": ["tests/test_cli.py::test_writing_a_table_holds_one_chunk"]},
]


def _pytest(root, tests):
    """Exit status of pytest on ``tests`` in the copy at ``root``, with no
    bytecode written, so that a mutant is never read from a stale cache."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    try:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", *tests], cwd=root, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=900).returncode
    except subprocess.TimeoutExpired:
        return "timeout"


def main():
    repo = Path(__file__).resolve().parent.parent
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for name in ("src", "tests"):
            shutil.copytree(repo / name, root / name, ignore=skip)
        shutil.copy(repo / "pyproject.toml", root)

        stale = [mu["name"] for mu in MUTANTS
                 if (root / mu["file"]).read_text().count(mu["old"]) != 1]
        if stale:
            print(f"old text not found exactly once: {stale}")
            return 2
        tests = sorted({t for mu in MUTANTS for t in mu.get("tests", [])})
        if _pytest(root, tests) != 0:
            print("the named tests do not pass on the unmutated source")
            return 2

        survivors, broken = [], []
        for mu in MUTANTS:
            if "equivalent" in mu:
                print(f"{mu['name']}: equivalent ({mu['equivalent']})")
                continue
            path = root / mu["file"]
            text = path.read_text()
            mutated = text.replace(mu["old"], mu["new"])
            try:
                compile(mutated, str(path), "exec")
            except SyntaxError:
                status = "syntax error"
            else:
                path.write_text(mutated)
                status = _pytest(root, mu["tests"])
                path.write_text(text)
            verdict = {0: "survived", 1: "killed"}.get(status, status)
            print(f"{mu['name']}: {verdict}")
            if status == 0:
                survivors.append(mu["name"])
            elif status != 1:
                broken.append(mu["name"])
    print(f"{len(survivors)} survivor(s)" + (f": {survivors}" if survivors
                                              else ""))
    if broken:
        print(f"neither killed nor survived: {broken}")
    return 1 if survivors else 2 if broken else 0


if __name__ == "__main__":
    raise SystemExit(main())
