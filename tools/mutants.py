"""Hand mutants of ``src/``, each with the tests expected to kill it.

Every mutant replaces one text of one file that occurs there exactly once.
The runner copies ``src/``, ``tests/``, ``pyproject.toml`` and ``README.md``
(whose INI example is a test input) to a temporary directory, checks that
the named tests pass there, then applies each mutant on its own and runs
only its named tests. A mutant survives when they all pass, and is killed
only when one of them fails (pytest's exit status 1).
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

CLI, EVOLUTION, MEDIUM, REFERENCE, RENDER, SPECTRAL, STATIONARY, WAVES = (
    f"src/metapulse/{name}.py"
    for name in ("cli", "evolution", "medium", "reference", "render",
                 "spectral", "stationary", "waves"))

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
    {"name": "series-radius-unchecked", "file": STATIONARY,
     "old": "if sp.big_k_v > 0:", "new": "if sp.big_k_v < 0:",
     "tests": ["tests/test_stationary.py::"
               "test_series_radius_is_where_the_cubic_term_takes_over"]},
    {"name": "kg-band-warning-never-fires", "file": EVOLUTION,
     "old": "> 1e-6 * np.max(mag):", "new": "> 1.0 * np.max(mag):",
     "tests": ["tests/test_evolution.py::test_kg_band_warning_threshold"]},
    {"name": "contamination-flag-at-any-wall-activity", "file": REFERENCE,
     "old": "contaminated = back > 1e-4 *", "new": "contaminated = back > 0.0 *",
     "tests": ["tests/test_cli.py::test_oracle_manifest_fields_follow_from_"
               "the_config_keys[oracle-fdtd]"]},
    {"name": "empty-pulse-file-warns", "file": CLI,
     "old": 'warnings.simplefilter("ignore")',
     "new": 'warnings.simplefilter("always")',
     "tests": ["tests/test_cli.py::"
               "test_empty_pulse_file_names_the_key_without_a_warning"]},
    # the stationary solvers read the medium from their profile
    {"name": "cardano-c-read-as-1", "file": STATIONARY,
     "old": "p, q, c = sp.params.omega_pe, sp.params.omega_pm, sp.params.c\n"
            "    pi_value = np.asarray(pi_value, dtype=float)\n"
            "    kv = sp.big_k_v\n",
     "new": "p, q, c = sp.params.omega_pe, sp.params.omega_pm, 1.0\n"
            "    pi_value = np.asarray(pi_value, dtype=float)\n"
            "    kv = sp.big_k_v\n",
     "tests": ["tests/test_acceptance.py::"
               "test_acceptance_08_stationary_suite"]},
    {"name": "series-c-read-as-1", "file": STATIONARY,
     "old": "p, q, c = sp.params.omega_pe, sp.params.omega_pm, sp.params.c\n"
            "    pi_value = np.asarray(pi_value, dtype=float)\n"
            "    lin = ",
     "new": "p, q, c = sp.params.omega_pe, sp.params.omega_pm, 1.0\n"
            "    pi_value = np.asarray(pi_value, dtype=float)\n"
            "    lin = ",
     "tests": ["tests/test_acceptance.py::"
               "test_acceptance_08_stationary_suite"]},
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
            "                width = m // 2 + 1\n"
            "                continue\n",
     "new": "np.multiply(lin[band], step * h, out=arg[band])\n"
            "                np.exp(arg[band], out=arg[band])\n"
            "                new[band] *= arg[band]\n"
            "                width = m // 2 + 1\n",
     "tests": ["tests/test_evolution.py::"
               "test_cropped_march_keeps_its_top_band_within_kerr_tail"]},
    {"name": "growth-by-doubling", "file": EVOLUTION,
     "old": "m = m * up // (up - 1)", "new": "m = 2 * m",
     "tests": ["tests/test_evolution.py::"
               "test_kerr_march_that_grows_allocates_no_sixteenth_of_the_"
               "state"]},
    {"name": "ratios-out-of-turn", "file": EVOLUTION,
     "old": "up = 4 if m % 3 == 0 else 6 if m % 5 == 0 else 5",
     "new": "up = 6 if m % 3 == 0 else 4 if m % 5 == 0 else 5",
     "tests": ["tests/test_properties.py::"
               "test_cropped_march_stays_within_ten_kerr_tails_of_the_full_"
               "march"]},
    {"name": "redo-band-one-bin-short", "file": EVOLUTION,
     "old": "band = np.s_[:, width:m // 2 + 1]",
     "new": "band = np.s_[:, width:m // 2]",
     "tests": ["tests/test_evolution.py::"
               "test_bins_above_the_last_cut_keep_the_entrys_linear_phase"]},
    {"name": "start-descends-the-ladder", "file": EVOLUTION,
     "old": "    while m > 16 and _fraction(state, np.s_[m // 24 + 1:]) <= "
            "KERR_TAIL:\n"
            "        m //= 2\n",
     # from n, m x 3/4, 5/6 and 4/5 in turn: the inverse of the growth
     "new": "    def down(m):\n"
            "        up = 4 if m & (m - 1) == 0 else 5 if m % 5 == 0 else 6\n"
            "        return m * (up - 1) // up\n"
            "    while m > 16 and _fraction(state, np.s_[down(m) // 12 + 1:]) "
            "<= KERR_TAIL:\n"
            "        m = down(m)\n",
     "tests": ["tests/test_acceptance.py::test_acceptance_06_nonlinear_"
               "solver"]},
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
     "old": "grid.dt / m)", "new": "courant * dx / params.c)",
     "tests": ["tests/test_cli.py::test_oracle_run_takes_the_step_its_plan_"
               "makes"]},
    {"name": "courant-bound-without-margin", "file": REFERENCE,
     "old": "if m < steps_per_sample(source.grid.dt, MAX_COURANT * dx / "
            "params.c):",
     "new": "if m < source.grid.dt / (MAX_COURANT * dx / params.c):",
     "tests": ["tests/test_reference.py::"
               "test_source_run_refuses_a_courant_number_past_the_bound"]},
    {"name": "courant-bound-doubled", "file": REFERENCE,
     "old": "MAX_COURANT * dx / params.c)",
     "new": "2 * MAX_COURANT * dx / params.c)",
     "tests": ["tests/test_reference.py::"
               "test_source_run_refuses_a_courant_number_past_the_bound"]},
    {"name": "records-from-step-1", "file": REFERENCE,
     "old": "on, j = slice(-n0 % m, None, m)",
     "new": "on, j = slice((1 - n0) % m, None, m)",
     "tests": ["tests/test_reference.py::"
               "test_source_run_records_match_plain_loop",
               "tests/test_acceptance.py::test_acceptance_09_on_an_optical_"
               "si_medium"]},
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
    # the absorbing layer and the pad it needs
    {"name": "layer-profile-linear-in-depth", "file": REFERENCE,
     "old": "(depth / max(length, 1e-300))**2",
     "new": "(depth / max(length, 1e-300))",
     "tests": ["tests/test_reference.py::"
               "test_layer_damping_rises_as_the_square_of_the_depth"]},
    {"name": "layer-damps-m-only", "file": REFERENCE,
     "old": "g[:], (g[on_h], g[off:]) = 1.0, damping",
     "new": "g[:], (g[on_h], g[off:]) = 1.0, (damping[0], 1.0)",
     "tests": ["tests/test_reference.py::"
               "test_source_run_records_match_plain_loop"]},
    {"name": "layer-rate-search-without-mismatch-bound", "file": REFERENCE,
     "old": "rates = np.minimum(w[1] * 2.0 ** (np.arange(-32, 65) / 16),\n"
            "                           LAYER_MISMATCH / slope)",
     "new": "rates = w[1] * 2.0 ** (np.arange(-32, 65) / 16)",
     "tests": ["tests/test_reference.py::"
               "test_derived_layer_is_never_longer_than_the_band_top_rule"]},
    {"name": "wall-flag-without-the-layer", "file": REFERENCE,
     "old": "back = wall_peak * max(attenuation)",
     "new": "back = wall_peak",
     "tests": ["tests/test_reference.py::"
               "test_wall_flag_reads_wall_activity_through_the_layer"]},
    # the layer at SI scale, where c is not 1
    {"name": "layer-decay-without-c", "file": REFERENCE,
     "old": "np.hypot(re, im) - re)), -1) / params.c",
     "new": "np.hypot(re, im) - re)), -1)",
     "tests": ["tests/test_acceptance.py::test_acceptance_09_on_an_optical_"
               "si_medium"]},
    {"name": "pad-ceiling-as-max", "file": CLI,
     "old": "pad = min(pad, layer",
     "new": "pad = max(pad, layer",
     "tests": ["tests/test_cli.py::"
               "test_reference_compare_pads_to_its_layer_at_most",
               "tests/test_acceptance.py::test_acceptance_09_on_an_optical_"
               "si_medium"]},
    {"name": "plan-pads-uncapped", "file": CLI,
     "old": "    pad = min(pad, layer + reference.LAYER_GAP * params.c / "
            "params.band_low)\n",
     "new": "",
     "tests": ["tests/test_cli.py::"
               "test_reference_compare_pads_to_its_layer_at_most",
               "tests/test_acceptance.py::test_acceptance_09_on_an_optical_"
               "si_medium"]},
    {"name": "grid-without-64-nodes", "file": CLI,
     "old": "nodes = max(np.ceil((max(map(abs, probes)) + pad) / dx), 64.0)",
     "new": "nodes = np.ceil((max(map(abs, probes)) + pad) / dx)",
     "tests": ["tests/test_cli.py::"
               "test_oracle_pad_keeps_the_grid_the_plan_accepts"]},
    {"name": "grid-without-the-reference-plane", "file": CLI,
     "old": "max(map(abs, probes))",
     "new": "max(probes)",
     "tests": ["tests/test_cli.py::"
               "test_oracle_pad_keeps_the_grid_the_plan_accepts"]},
    {"name": "grid-to-the-last-probe", "file": CLI,
     "old": "max(map(abs, probes))",
     "new": "abs(probes[-1])",
     "tests": ["tests/test_cli.py::"
               "test_oracle_pad_keeps_the_grid_the_plan_accepts"]},
    {"name": "wall-taps-one-node-inward", "file": REFERENCE,
     "old": "[nx - 2, nx - 3]",
     "new": "[nx - 3, nx - 4]",
     "tests": ["tests/test_reference.py::"
               "test_source_run_records_match_plain_loop"]},
    # the source node as a symmetry plane
    {"name": "ghost-as-plus-h", "file": REFERENCE,
     "old": "x[7] = kick - h[0]",
     "new": "x[7] = kick + h[0]",
     "tests": ["tests/test_reference.py::"
               "test_mirrored_run_is_the_right_half_of_a_symmetric_full_"
               "grid"]},
    {"name": "taps-clipped-not-mirrored", "file": REFERENCE,
     "old": "taps = np.abs(np.add.outer(",
     "new": "taps = (np.add.outer(",
     "tests": ["tests/test_reference.py::"
               "test_reference_plane_behind_the_source_reads_the_mirror_"
               "image"]},
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
               "not_past_it",
               "tests/test_cli.py::test_validate_refuses_each_size_over_the_"
               "ceiling[stationary-linear-run.n_xi=100000000000-run.n_xi: "
               "must lie in [1, 8388608]]",
               "tests/test_cli.py::test_validate_names_grid_n_that_cannot_be_"
               "allocated"]},
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
    # user-file samples placed on the grid's own times
    *({"name": name, "file": CLI, "old": old, "new": new,
       "tests": [f"tests/test_cli.py::test_pulse_file_off_the_grid_names_the_"
                 f"keys[{case}]"]}
      for name, old, new, case in (
          ("placement-tolerance-1e-3", "<= 1e-9 * grid.dt)",
           "<= 1e-3 * grid.dt)", "off-grid"),
          ("placement-k-up-to-n", "k < grid.n)", "k <= grid.n)", "at-window"),
          ("placement-k-from--1", "(0 <= k)", "(-1 <= k)", "negative"),
          ("placement-k-may-repeat", "k[1:] > k[:-1]", "k[1:] >= k[:-1]",
           "repeated"))),
    {"name": "placement-without-amplitude", "file": CLI,
     "old": "samples[k.astype(int)] = amplitude * values",
     "new": "samples[k.astype(int)] = values",
     "tests": ["tests/test_cli.py::test_synthesize_file_round_trip"]},
    # each table written as it is built
    {"name": "partial-tables-kept", "file": CLI,
     "old": "        for path in written:\n"
            "            path.unlink(missing_ok=True)\n",
     "new": "",
     "tests": ["tests/test_cli.py::test_a_run_that_fails_on_its_second_"
               "table_leaves_only_error_txt"]},
    {"name": "last-station-table-dropped", "file": CLI,
     "old": "enumerate(zip(xs, states))",
     "new": "enumerate(zip(xs[:-1], states))",
     "tests": ["tests/test_cli.py::test_cli_tables_match_per_value_"
               "rendering"]},
    {"name": "station-meta-under-the-mirrored-name", "file": CLI,
     "old": "enumerate(zip(xs, states))",
     "new": "enumerate(zip(xs[::-1], states))",
     "tests": ["tests/test_cli.py::test_cli_tables_match_per_value_"
               "rendering"]},
    {"name": "output-oserror-to-error-txt", "file": CLI,
     "old": "        if isinstance(exc, OSError):  # the output's; main names "
            "its setting\n            raise\n",
     "new": "",
     "tests": ["tests/test_cli.py::test_output_directory_errors_name_the_"
               "setting[full-disk]"]},
    {"name": "output-oserror-raised-before-cleanup", "file": CLI,
     "old": "        for path in written:\n"
            "            path.unlink(missing_ok=True)\n"
            "        if isinstance(exc, OSError):  # the output's; main names "
            "its setting\n            raise\n",
     "new": "        if isinstance(exc, OSError):\n            raise\n"
            "        for path in written:\n"
            "            path.unlink(missing_ok=True)\n",
     "tests": ["tests/test_cli.py::test_a_run_whose_output_fails_leaves_no_"
               "file_of_its_own[linear_station_002.csv]"]},
    {"name": "partial-manifest-kept", "file": CLI,
     "old": "            written.append(out / \"manifest.json\")\n"
            "            fh.write(json.dumps(manifest, sort_keys=True, "
            "indent=2) + \"\\n\")\n",
     "new": "            fh.write(json.dumps(manifest, sort_keys=True, "
            "indent=2) + \"\\n\")\n"
            "        written.append(out / \"manifest.json\")\n",
     "tests": ["tests/test_cli.py::test_a_run_whose_output_fails_leaves_no_"
               "file_of_its_own[manifest.json]"]},
    # the linear propagators against the paper's convolution kernels
    {"name": "advance-signs-swapped", "file": EVOLUTION,
     "old": "1j * np.array([[-1.0], [1.0]]) * theta",
     "new": "1j * np.array([[1.0], [-1.0]]) * theta",
     "tests": ["tests/test_evolution.py::test_kg_matches_the_bessel_kernel",
               "tests/test_evolution.py::test_exact_on_p_eq_q_is_the_delayed_"
               "bessel_kernel",
               "tests/test_evolution.py::test_exact_pi_holds_nothing_before_"
               "its_front_arrives"]},
    # the DC bin keeps factor 1, a convention no physics test reads: the
    # paper's kernel annihilates DC, and the entries of runs have none
    {"name": "advance-dc-factor-zero", "file": EVOLUTION,
     "old": "factors[..., [0, -1]] = 1.0\n",
     "new": "factors[..., [0, -1]] = 1.0\n    factors[..., 0] = 0.0\n",
     "tests": [f"tests/test_evolution.py::test_batched_linear_stations_match_"
               f"per_x_bit_for_bit[{case}]"
               for case in ("exact-unit", "exact-p_ne_q", "kg-unit",
                            "kg-p_ne_q")]},
    # the Kerr marcher against the stationary profile at |v| = 1
    {"name": "kerr-k-c-halved", "file": EVOLUTION,
     "old": "/ (2.0 * params.omega_pe**3 * params.omega_pm))",
     "new": "/ (4.0 * params.omega_pe**3 * params.omega_pm))",
     "tests": ["tests/test_evolution.py::test_kerr_march_carries_the_"
               "stationary_profile_one_shift",
               "tests/test_acceptance.py::test_acceptance_07_dimensionless_"
               "equivalence"]},
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
    {"name": "near-tie-window-narrowed", "file": RENDER,
     "old": "> 0.5 - 2.0**-30] = True", "new": "> 0.5 - 2.0**-60] = True",
     "tests": [f"tests/test_cli.py::test_format_table_bytes_match_per_value_"
               f"rendering[near-ties-{n_cols}]" for n_cols in (1, 2, 5)]},
    {"name": "chunk-rows-not-divided-by-columns", "file": RENDER,
     "old": "step = max(1, CSV_CHUNK_VALUES // len(columns))",
     "new": "step = CSV_CHUNK_VALUES",
     "tests": ["tests/test_cli.py::test_writing_a_table_holds_one_chunk"]},
    # what the CI job once checked through the shell, each a tier-1 test
    {"name": "override-refused", "file": CLI,
     "old": 'if not (section and option and value != ""):',
     "new": 'if not (section and option and value == ""):',
     "tests": ["tests/test_cli.py::test_validate_and_run_agree_under_an_"
               "override"]},
    {"name": "kerr-summary-not-json", "file": CLI,
     "old": 'summary["n_steps"] = n_steps',
     "new": 'summary["n_steps"] = np.int64(n_steps)',
     "tests": ["tests/test_cli.py::test_readme_kerr_config_runs_with_"
               "defaults[0.2]",
               "tests/test_acceptance.py::test_acceptance_10_determinism"]},
    {"name": "amplitude-overflow-keyed-to-the-section", "file": CLI,
     "old": 'with np.errstate(all="ignore"), _keys("pulse.amplitude"):',
     "new": 'with np.errstate(all="ignore"), _keys("pulse"):',
     "tests": ["tests/test_cli.py::test_validate_names_the_key_of_a_non_"
               "finite_pulse[pulse.amplitude]"]},
    {"name": "file-values-unchecked", "file": CLI,
     "old": "if not np.all(np.isfinite(data)):",
     "new": "if not np.all(np.isfinite(data[:, 0])):",
     "tests": ["tests/test_cli.py::test_validate_names_the_key_of_a_non_"
               "finite_pulse[pulse.file]"]},
    {"name": "empty-pulse-file-unfiltered", "file": CLI,
     "old": 'warnings.simplefilter("ignore")',
     "new": "pass",
     "tests": ["tests/test_cli.py::"
               "test_empty_pulse_file_names_the_key_without_a_warning"]},
    {"name": "phase-without-x_end", "file": CLI,
     "old": 'theta = config.run["x_end"] * max(',
     "new": "theta = max(",
     "tests": ["tests/test_cli.py::test_validate_refuses_a_phase_below_"
               "rounding"]},
    {"name": "station-samples-without-n_stations", "file": CLI,
     "old": 'samples = config.run["n_stations"] * grid.n',
     "new": "samples = grid.n",
     "tests": ["tests/test_cli.py::test_validate_refuses_stations_over_the_"
               "ceiling"]},
    {"name": "product-refusal-names-c-alone", "file": MEDIUM,
     "old": 'raise ParameterError(("c", "eps0", "mu0"),',
     "new": 'raise ParameterError(("c",),',
     "tests": ["tests/test_cli.py::test_validate_names_the_keys_of_an_"
               "overflow[medium.c=1e300-medium.c/medium.eps0/medium.mu0]"]},
    {"name": "derived-count-overflow-uncaught", "file": CLI,
     "old": "except (OverflowError, ValueError):\n        n_steps = np.inf",
     "new": "except ValueError:\n        n_steps = np.inf",
     "tests": ["tests/test_cli.py::test_validate_prints_a_huge_derived_count_"
               "in_three_digits[1e308-inf]"]},
    {"name": "manifest-keeps-the-last-table", "file": CLI,
     "old": "metas[name] = meta", "new": "metas = {name: meta}",
     "tests": ["tests/test_acceptance.py::test_acceptance_10_determinism"]},
    {"name": "split-header-without-lambda", "file": CLI,
     "old": '"t (s),j (V/m),k (T),Pi (T),Lambda (T)"',
     "new": '"t (s),j (V/m),k (T),Pi (T)"',
     "tests": ["tests/test_acceptance.py::test_acceptance_10_determinism"]},
    {"name": "scenario-list-drops-the-first", "file": CLI,
     "old": "for name in sorted(SCENARIOS):",
     "new": "for name in sorted(SCENARIOS)[1:]:",
     "tests": ["tests/test_cli.py::test_main_subcommands"]},
    {"name": "range-rules-skipped-after-a-violation", "file": CLI,
     "old": "problem = checked and rule and value is not None and rule(value)",
     "new": "problem = (checked and rule and value is not None\n"
            "                       and not violations and rule(value))",
     "tests": ["tests/test_cli.py::test_validate_reports_every_key_violation_"
               "in_one_pass[run-keys]"]},
    {"name": "pulse-rules-skipped-for-a-refused-medium", "file": CLI,
     "old": "    if spanned_clean:\n",
     "new": "    if spanned_clean and params:\n",
     "tests": ["tests/test_cli.py::test_validate_reports_every_key_violation_"
               "in_one_pass[medium-pulse-run-gaussian]"]},
    {"name": "kerr-stations-rule-dropped", "file": CLI,
     "old": "    if (steps and stations and _KERR_STEPS(steps) is None",
     "new": "    if (False and steps and stations and _KERR_STEPS(steps) is None",
     "tests": ["tests/test_cli.py::test_validate_reports_every_key_violation_"
               "in_one_pass[kerr-stations-run]",
               "tests/test_cli.py::test_kerr_plan_refuses_fewer_steps_than_"
               "stations"]},
    # each acceptance criterion is the one home of its checks
    *({"name": name, "file": file, "old": old, "new": new,
       "tests": [f"tests/test_acceptance.py::test_acceptance_{test}"]}
      for name, file, old, new, test in (
          ("split-lambda-doubled", WAVES, "lam = 0.5 * (fields.b - aj)",
           "lam = fields.b - aj", "01_projector_algebra"),
          ("reconstruct-e-negated", WAVES, "e = apply(a_inv, dp.pi - dp.lam)",
           "e = apply(a_inv, dp.lam - dp.pi)", "01_projector_algebra"),
          ("reconstruct-pi-without-a_inv", WAVES,
           "e = apply(a_inv, dp.pi - dp.lam)",
           "e = dp.pi - apply(a_inv, dp.lam)", "01_projector_algebra"),
          ("pi-phase-as-lambdas", EVOLUTION,
           "factors = 1j * np.array([[-1.0], [1.0]]) * theta",
           "factors = 1j * np.array([[1.0], [1.0]]) * theta",
           "03_exact_linear"),
          ("advance-factor-off-the-unit-circle", EVOLUTION,
           "factors = 1j * np.array([[-1.0], [1.0]]) * theta",
           "factors = (1j + 1e-3) * np.array([[-1.0], [1.0]]) * theta",
           "03_exact_linear"),
          ("exact-phase-quadratic-in-x", EVOLUTION,
           "theta = np.multiply.outer(xs, grid.half_omegas * a_vals)",
           "theta = np.multiply.outer(xs * xs, grid.half_omegas * a_vals)",
           "03_exact_linear"),
          ("truncation-error-squared", MEDIUM,
           "out = np.abs(lead - a) / np.abs(a)",
           "out = (np.abs(lead - a) / np.abs(a)) ** 2", "04_kg_reduction"),
          ("truncation-error-over-the-lead", MEDIUM,
           "out = np.abs(lead - a) / np.abs(a)",
           "out = np.abs(lead - a) / np.abs(lead)", "05_taylor_claims"),
          ("entry-offset-below-rounding", EVOLUTION,
           "return np.fft.rfft([entry.pi.samples, entry.lam.samples])",
           "return np.fft.rfft([entry.pi.samples + 1e-300, "
           "entry.lam.samples])", "06_nonlinear_solver"),
          ("cube-is-a-square", EVOLUTION,
           "        np.multiply(u3[:m], u[:m], out=u3[:m])\n", "",
           "06_nonlinear_solver"),
          ("r-profile-at-omega", STATIONARY, "np.exp(sp.k * xi)",
           "np.exp(sp.omega * xi)", "08_stationary_suite"),
          ("l-profile-at-omega", STATIONARY, "np.sin(sp.k * xi)",
           "np.sin(sp.omega * xi)", "08_stationary_suite"),
          ("stationary-k-over-v-squared", STATIONARY,
           "k = np.sqrt(p * q / (c * v))", "k = np.sqrt(p * q / (c * v * v))",
           "08_stationary_suite"),
          ("cardano-discriminant-over-9", STATIONARY, "big_p**3 / 27.0",
           "big_p**3 / 9.0", "08_stationary_suite"),
          ("series-cubic-doubled", STATIONARY,
           "out = lin + sp.big_k_v * (p * q) ** 3",
           "out = lin + 2.0 * sp.big_k_v * (p * q) ** 3",
           "08_stationary_suite"),
          ("oscillator-k4-from-k2", STATIONARY, "k4y, k4s = s + h * k3s,",
           "k4y, k4s = s + h * k2s,", "08_stationary_suite"))),
    # a Kerr march without the cubic term is Klein-Gordon to rounding
    *({"name": name, "file": EVOLUTION, "old": old, "new": new,
       "tests": [f"tests/test_evolution.py::test_chi3_zero_march_is_kg_to_"
                 f"rounding[unit-{n}]" for n in (4, 37)]}
      for name, old, new in (
          ("kerr-linear-signs-swapped",
           "rhs.lin = np.array([[-1.0], [1.0]]) * (pq_c * inv_iw)",
           "rhs.lin = np.array([[1.0], [-1.0]]) * (pq_c * inv_iw)"),
          ("one-row-lambda-below-rounding", "else Signal.zeros(grid)",
           "else Signal(grid, 1e-300 * rows[0])"))),
    {"name": "gap-rule-never-raises", "file": MEDIUM,
     "old": "    if inside:\n        raise EvanescentBandError(",
     "new": "    if False:\n        raise EvanescentBandError(",
     "tests": ["tests/test_spectral.py::test_every_a_hat_build_meets_one_gap_"
               "rule"]},
    # refusals that no workload reaches
    {"name": "unparsable-value-unquoted", "file": CLI,
     "old": "cannot parse {raw!r} as", "new": "cannot parse {raw} as",
     "tests": ["tests/test_cli.py::test_validate_refuses_a_value_it_cannot_"
               "read[grid.n=8.5-grid.n: cannot parse '8.5' as int]"]},
    {"name": "override-without-key-or-value", "file": CLI,
     "old": 'if not (section and option and value != ""):',
     "new": "if not section:",
     "tests": ["tests/test_cli.py::test_validate_refuses_a_value_it_cannot_"
               "read"]},
    {"name": "unknown-scenario-accepted", "file": CLI,
     "old": "if scenario is not None and scenario not in SCENARIOS:",
     "new": "if scenario is None and scenario not in SCENARIOS:",
     "tests": ["tests/test_cli.py::test_validate_reports_every_key_violation_"
               "in_one_pass[unknown-scenario]"]},
    {"name": "zero-pulse-accepted", "file": CLI,
     "old": "if sig.peak == 0.0:", "new": "if sig.peak < 0.0:",
     "tests": ["tests/test_cli.py::test_constant_pulse_file_is_refused_as_"
               "zero"]},
    {"name": "record-states-on-two-grids", "file": EVOLUTION,
     "old": "if len(grids) > 1:", "new": "if len(grids) > 2:",
     "tests": ["tests/test_evolution.py::test_record_validation"]},
    {"name": "signal-grids-compared-by-n", "file": SPECTRAL,
     "old": "if a.grid != b.grid:", "new": "if a.grid.n != b.grid.n:",
     "tests": ["tests/test_spectral.py::test_signal_arithmetic_refuses_"
               "another_grid"]},
    {"name": "apply-output-unchecked", "file": SPECTRAL,
     "old": "    if not np.all(np.isfinite(out)):\n",
     "new": "    if False:\n",
     "tests": ["tests/test_spectral.py::test_apply_names_the_multiplier_of_a_"
               "non_finite_output"]},
    {"name": "profile-speed-zero-accepted", "file": STATIONARY,
     "old": "if not self.v > 0:", "new": "if not self.v >= 0:",
     "tests": ["tests/test_stationary.py::test_profile_refuses_a_speed_that_"
               "is_not_positive"]},
    {"name": "oscillator-takes-three-steps", "file": STATIONARY,
     "old": "if n_steps < 4:", "new": "if n_steps < 3:",
     "tests": ["tests/test_stationary.py::test_oscillator_refuses_fewer_than_"
               "four_steps"]},
    {"name": "pair-grids-compared-by-n", "file": WAVES,
     "old": "if self.pi.grid != self.lam.grid:",
     "new": "if self.pi.grid.n != self.lam.grid.n:",
     "tests": ["tests/test_waves.py::test_directed_pair_refuses_two_grids"]},
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
        for name in ("pyproject.toml", "README.md"):
            shutil.copy(repo / name, root)

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
