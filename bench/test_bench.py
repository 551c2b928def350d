"""Self-tests of the benchmark: output checks, span arithmetic, metric names.

Run from the repository root with ``python3 -m pytest bench -q``.
"""

import json
import re
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run as bench_run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def sweep_outputs(tmp_path_factory):
    """One scenario-sweep pass written to disk: {scenario: (run, dir)}."""
    import warnings

    from metapulse.cli import parse_config, run_scenario

    root = tmp_path_factory.mktemp("sweep")
    runs, _ = generate("scenario-sweep", 7)
    out = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for run in runs:
            status, _ = run_scenario(parse_config(run.text), out_dir=root / run.name)
            assert status == 0, run.name
            out[run.name] = (run, root / run.name)
    return out


def corrupted(sweep_outputs, scenario, tmp_path):
    run, src = sweep_outputs[scenario]
    dst = tmp_path / scenario
    shutil.copytree(src, dst)
    return run, dst


def edit_column(path, column, fn):
    header = path.read_text().splitlines()[0]
    data = checks.load_table(path)
    data[:, column] = fn(data[:, column])
    np.savetxt(path, data, fmt="%.17e", delimiter=",", header=header, comments="")


def station(out_dir, index):
    return sorted(out_dir.glob("*_station_*.csv"))[index]


def copy_station(out_dir, src, dst):
    """Overwrite station ``dst``'s table with station ``src``'s."""
    station(out_dir, dst).write_text(station(out_dir, src).read_text())


def linear_station(out_dir, index):
    """Replace station ``index``'s Pi by the Kerr-free march of station 0."""
    out = checks.Output(out_dir)
    (x, _), (_, cols0) = out.tables()[index], out.tables()[0]
    t, pi0 = cols0[:2]
    w = checks.omegas(t)
    f = np.exp(1j * checks.kg_phase(w, x, out))
    f[0] = f[w.size // 2] = 1.0
    edit_column(station(out_dir, index), 1, lambda _: checks.apply(f, pi0))


def test_clean_outputs_pass(sweep_outputs):
    for name, (run, out_dir) in sweep_outputs.items():
        assert checks.check_output(run, out_dir) == [], name


CORRUPTIONS = {
    "split: sign-flipped Pi": (
        "split", lambda d: edit_column(d / "split.csv", 3, np.negative)),
    "linear: sign-flipped Pi on one station": (
        "propagate-linear", lambda d: edit_column(station(d, 2), 1, np.negative)),
    "linear: E off by 1e-6 at station 0": (
        "propagate-linear", lambda d: edit_column(station(d, 0), 4,
                                                  lambda c: c * (1 + 1e-6))),
    "kg: sign-flipped Lambda on one station": (
        "propagate-kg", lambda d: edit_column(station(d, 3), 2, np.negative)),
    "kerr: station scaled by 1.01": (
        "propagate-nonlinear", lambda d: [edit_column(station(d, 2), c,
                                                      lambda v: 1.01 * v)
                                          for c in (1, 2)]),
    "kerr: station copied from station 0": (
        "propagate-nonlinear", lambda d: copy_station(d, 0, 2)),
    "kerr: station holds the state at about half its x": (
        "propagate-nonlinear", lambda d: copy_station(d, 1, 2)),
    "kerr: station marched without the Kerr term": (
        "propagate-nonlinear", lambda d: linear_station(d, 3)),
    "unidirectional: station copied from station 0": (
        "propagate-unidirectional", lambda d: copy_station(d, 0, 3)),
    "kerr: non-finite value": (
        "propagate-nonlinear", lambda d: edit_column(
            station(d, 4), 1, lambda v: np.where(np.arange(v.size) == 7, np.nan, v))),
    "unidirectional: station scaled by 1.01": (
        "propagate-unidirectional", lambda d: edit_column(station(d, 4), 1,
                                                          lambda v: 1.01 * v)),
    "stationary-linear: L scaled by 1.01": (
        "stationary-linear", lambda d: edit_column(d / "stationary_linear.csv", 2,
                                                   lambda v: 1.01 * v)),
    "stationary-nonlinear: late slope scaled by 1.01": (
        "stationary-nonlinear", lambda d: edit_column(
            d / "stationary_nonlinear.csv", 2,
            lambda v: np.where(np.arange(v.size) > 100, 1.01 * v, v))),
    "taylor-error: curve scaled by 1.01": (
        "taylor-error", lambda d: edit_column(d / "taylor_error.csv", 1,
                                              lambda v: 1.01 * v)),
    "reference-compare: spectral E scaled by 1.05": (
        "reference-compare", lambda d: edit_column(d / "compare_probe_000.csv", 2,
                                                   lambda v: 1.05 * v)),
    "missing station file": (
        "propagate-linear", lambda d: station(d, 1).unlink()),
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_check_rejects_corruption(sweep_outputs, tmp_path, case):
    scenario, corrupt = CORRUPTIONS[case]
    run, out_dir = corrupted(sweep_outputs, scenario, tmp_path)
    corrupt(out_dir)
    assert checks.check_output(run, out_dir) != []


def test_oracle_budget_is_gated(sweep_outputs):
    # the sweep's coarse dx = 0.08 grid misses the 0.02 budget of the fine one
    run, out_dir = sweep_outputs["reference-compare"]
    gated = type(run)(run.name, run.text, run.pulse, checks.ORACLE_L2)
    assert checks.check_output(run, out_dir) == []
    assert any("budget" in p for p in checks.check_output(gated, out_dir))


def test_kerr_invariant_moves_under_scaling(sweep_outputs):
    _, out_dir = sweep_outputs["propagate-nonlinear"]
    out = checks.Output(out_dir)
    t, pi, lam = out.tables()[0][1][:3]
    lin, quart = checks.kerr_invariant(t, pi, lam, out)
    lin2, quart2 = checks.kerr_invariant(t, 1.01 * pi, 1.01 * lam, out)
    drift = abs(lin2 + quart2 - lin - quart) / (abs(lin) + abs(quart))
    assert drift > 100 * checks.KERR_DRIFT


def span_tree():
    S = tracing.Span
    return [
        S("root", 0.0, 10.0),
        S("a", 1.0, 4.0, parent=0, fft_calls=2),
        S("a.inner", 2.0, 3.0, parent=1, fft_calls=5),
        S("b", 5.0, 6.0, parent=0),
        S("c", 5.5, 7.0, parent=0),  # overlaps b: covered once
        S("d", 9.0, 12.0, parent=0),  # runs past its parent: clipped
    ]


def test_self_times_on_synthetic_tree():
    selfs = tracing.self_times(span_tree())
    assert selfs == pytest.approx([10 - (3 + 2 + 1), 2.0, 1.0, 1.0, 1.5, 3.0])


def test_fft_calls_roll_up_to_ancestors():
    assert tracing._subtree_fft(span_tree()) == [7, 7, 5, 0, 0, 0]


def test_layer_metrics_from_spans():
    S = tracing.Span
    spans = [
        S("cli.run_scenario", 0.0, 2.0,
          attrs={"scenario": "propagate-nonlinear", "files": 6, "bytes": 4_000_000}),
        S("evolution.propagate_nonlinear", 0.5, 1.5, parent=0, fft_calls=1004,
          attrs={"n_steps": 100, "n": 1000, "states": 101, "state_bytes": 2**20}),
    ]
    m = tracing.layer_metrics(spans)
    assert set(m) | {"cli.import_ms", "medium.import_ms", "reference.import_ms",
                     "trace_overhead_frac"} == set(tracing.LAYER_METRICS)
    assert m["evolution.fft_calls_per_step"] == 10
    assert m["evolution.kerr_step_ms"] == pytest.approx(10.0)
    assert m["evolution.kerr_ns_per_sample_step"] == pytest.approx(1e4)
    assert m["evolution.stored_states"] == 101
    assert m["evolution.stored_state_mib"] == 1.0
    assert m["cli.self_s"] == pytest.approx(1.0)
    assert m["cli.write_mb_per_s"] == pytest.approx(4.0)
    assert m["cli.scenario.propagate-nonlinear_ms"] == pytest.approx(2000.0)
    assert m["reference.ns_per_cell_step"] == 0.0


def test_tracer_wraps_every_binding_and_restores():
    import metapulse.cli  # noqa: F401  loads the whole package
    from metapulse import cli, evolution, spectral, waves

    original = spectral.make_multiplier
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for mod in (spectral, evolution, waves):
            assert mod.make_multiplier is not original
        assert cli.run_scenario.__wrapped__ is not None
        grid = spectral.TimeGrid(64, 0.5)
        spectral.apply(spectral.make_multiplier("d_dt", None, grid),
                       spectral.Signal(grid, np.sin(grid.times)))
    finally:
        tracer.uninstall()
    assert evolution.make_multiplier is original
    assert [s.name for s in tracer.spans] == ["spectral.make_multiplier",
                                              "spectral.apply"]
    assert tracer.spans[1].fft_calls == 2


def test_import_times_parser():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:       611 |        611 |     metapulse.errors\n"
            "import time:     15731 |     916080 | metapulse.cli\n")
    assert tracing.import_times(text) == {"metapulse.errors": 0.611,
                                          "metapulse.cli": 916.08}


def test_tail_percentile():
    assert bench_run.tail_percentile(list(range(10))) is None
    tail = bench_run.tail_percentile(list(range(40)))
    assert tail == {"percentile": 75, "value": 29}
    assert sum(v > tail["value"] for v in range(40)) == 10


@pytest.mark.parametrize("trace", [0, 1])
def test_broken_program_still_reports(monkeypatch, tmp_path, capsys, trace):
    def broken(work, runs, repeats, traced, tag):
        return {"error": "worker exit 1: ImportError", "elapsed": 6.0}

    monkeypatch.setattr(bench_run, "run_worker", broken)
    monkeypatch.setattr(bench_run, "WORK", tmp_path / "work")
    monkeypatch.setattr(bench_run, "RESULTS", tmp_path / "results")
    assert bench_run.main(["--workload", "kerr-16k", "--seed", "1",
                           "--seconds", "10", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False
    assert result["attempted"] == result["failed"] >= 1
    assert result["metrics"] == ({} if trace else
                                 {"pass_rate": {"value": 0.0, "unit": "1"}})


def test_every_seed_gives_a_valid_config():
    from metapulse.cli import parse_config

    for workload in WORKLOADS:
        for seed in range(40):
            runs, repeats = generate(workload, seed)
            assert repeats >= 1
            for run in runs:
                assert parse_config(run.text).scenario == run.name
    assert generate("kerr-16k", 3) == generate("kerr-16k", 3)
    assert generate("kerr-16k", 3) != generate("kerr-16k", 4)


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layers = {m["name"]: m for m in spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {n: m["unit"] for n, m in e2e.items()} == bench_run.E2E_UNITS
    assert {n: (m["unit"], m["better"]) for n, m in layers.items()} == \
        tracing.LAYER_METRICS
    assert len(e2e) <= 16 and len(layers) <= 128
    for name in list(e2e) + list(layers) + list(WORKLOADS):
        assert NAME.fullmatch(name), name
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
