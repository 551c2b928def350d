"""metapulse benchmark: one workload, one seed, one run.

Usage (from the root of a checkout):

    python3 bench/run.py --workload kerr-16k --seed 1 --seconds 15 --trace 0

Each pass runs in a fresh interpreter (``worker.py``) with ``PYTHONPATH``
set to the checkout's ``src``, through ``parse_config`` and
``run_scenario``, the path ``metapulse run`` takes. Passes follow one
another from one caller (a closed loop, one pass in flight) until the
workers have used ``--seconds``. After each pass this process checks the
written files (``checks.py``) and deletes them.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics
(``tracing.py``), per-module import times from ``python -X importtime`` and
the tracing overhead. The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``. The full report, with
the seed, the inputs, every sample and the machine's provenance, is
written to ``bench/results/``.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from checks import check_output
from tracing import LAYER_METRICS, import_times
from workloads import WORKLOADS, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
RESULTS = HERE / "results"

#: set-up is sampled at least this often per run; its median is reported
MIN_SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
#: a pass that takes longer has hung; the run must end within 180 s
WORKER_TIMEOUT_S = 90


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_worker(work, runs, repeats, traced, tag):
    """One fresh worker process; returns its result dict plus ``setup_s``."""
    out = work / tag
    job = {"src": str(SRC), "runs": [(r.name, r.text) for r in runs],
           "repeats": repeats, "trace": traced, "out": str(out),
           "result": str(work / f"{tag}.result.json")}
    job_path = work / f"{tag}.job.json"
    job_path.write_text(json.dumps(job))
    log_path = work / f"{tag}.log"
    with open(log_path, "w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"),
                                 str(job_path)], env=worker_env(), cwd=ROOT,
                                stdout=log, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = "timeout"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        elapsed = time.perf_counter() - start
    if code != 0:
        tail = log_path.read_text()[-2000:]
        return {"error": f"worker exit {code}: {tail}", "elapsed": elapsed}
    result = json.loads(Path(job["result"]).read_text())
    result["setup_s"] = result["ready"] - start
    result["elapsed"] = elapsed
    return result


def one_pass(work, runs, repeats, traced, index):
    tag = f"pass{index:03d}"
    res = run_worker(work, runs, repeats, traced, tag)
    problems = [res["error"]] if "error" in res else []
    if not problems:
        bad = [s for s in res["statuses"] if s != 0]
        if bad:
            problems.append(f"run_scenario returned {bad}")
        for r in range(repeats):
            for run in runs:
                problems += [f"{r}/{run.name}: {p}" for p in
                             check_output(run, work / tag / str(r) / run.name)]
    shutil.rmtree(work / tag, ignore_errors=True)
    res["traced"] = traced
    res["problems"] = problems
    return res


def module_import_ms():
    """Median cumulative import ms of ``metapulse.cli`` and the scipy users."""
    rows = []
    for _ in range(IMPORTTIME_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import metapulse.cli"], env=worker_env(),
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=30, check=True)
        rows.append(import_times(proc.stderr))
    return {f"{layer}.import_ms": statistics.median(r[f"metapulse.{layer}"]
                                                    for r in rows)
            for layer in ("cli", "medium", "reference")}


def tail_percentile(samples):
    """Highest whole percentile with at least ten samples above it, or None."""
    n = len(samples)
    if n < 11:
        return None
    return {"percentile": int(100 * (n - 10) / n),
            "value": sorted(samples)[n - 11]}


def provenance():
    info = {"python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": None, "caches": {}, "git_commit": None}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            info["caches"][f"L{level} {kind}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        info["git_commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass  # the benchmark also runs from exported trees
    files = sorted(SRC.rglob("*.py"))
    info["src_lines"] = sum(len(f.read_text().splitlines()) for f in files)
    return info


#: end-to-end metric -> unit; ``pass_rate`` is 1 - failed/attempted
E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB",
             "setup_s": "s", "pass_rate": "1"}


def end_to_end(passes, setups):
    """The end-to-end metrics; only ``pass_rate`` when no pass has timings."""
    values = {"pass_rate": sum(not p["problems"] for p in passes) / len(passes)}
    ok = [p for p in passes if "error" not in p]
    if ok:
        values.update({name: statistics.median(p[name] for p in ok)
                       for name in ("wall_s", "cpu_s", "peak_rss_mib")})
        values["setup_s"] = statistics.median(setups)
    return {name: (values[name], unit) for name, unit in E2E_UNITS.items()
            if name in values}


def per_layer(passes):
    """The per-layer metrics; none unless a traced and a plain pass ran."""
    traced = [p for p in passes if p["traced"] and "layers" in p]
    plain = [p for p in passes if not p["traced"] and "error" not in p]
    if not (traced and plain):
        return {}
    names = traced[0]["layers"]
    layers = {n: statistics.fmean(p["layers"][n] for p in traced) for n in names}
    layers.update(module_import_ms())
    layers["trace_overhead_frac"] = (
        statistics.median(p["wall_s"] for p in traced)
        / statistics.median(p["wall_s"] for p in plain) - 1.0)
    return {n: (layers[n], unit) for n, (unit, _) in LAYER_METRICS.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "metapulse" / "cli.py").is_file():
        print(f"error: no metapulse sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    runs, repeats = generate(args.workload, args.seed)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    passes, setups, spans = [], [], None
    try:
        used = 0.0
        # trace mode needs a second, traced pass unless the first one broke
        while used < args.seconds or (args.trace and len(passes) == 1
                                      and "error" not in passes[0]):
            traced = bool(args.trace) and len(passes) % 2 == 1
            p = one_pass(work, runs, repeats, traced, len(passes))
            used += p["elapsed"]
            passes.append(p)
            if not traced and "error" not in p:
                setups.append(p["setup_s"])
        while not args.trace and setups and len(setups) < MIN_SETUP_SAMPLES:
            res = run_worker(work, runs, 0, False, f"setup{len(setups):03d}")
            if "error" in res:
                break
            setups.append(res["setup_s"])
        if args.trace:
            metrics = per_layer(passes)
            spans = next((p["spans"] for p in passes if p.get("spans")), None)
        else:
            metrics = end_to_end(passes, setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(bool(p["problems"]) for p in passes)
    walls = [p["wall_s"] for p in passes if "wall_s" in p and not p["traced"]]
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": provenance(),
        "inputs": [{"scenario": r.name, "config": r.text} for r in runs],
        "repeats_per_pass": repeats,
        "passes": [{k: p.get(k) for k in ("traced", "wall_s", "cpu_s",
                                          "peak_rss_mib", "setup_s",
                                          "problems", "error")}
                   for p in passes],
        "setup_samples": setups,
        "wall_s_samples": len(walls),
        "wall_s_tail": tail_percentile(walls),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if spans is not None:
        (RESULTS / f"{stem}.spans.json").write_text(json.dumps(spans) + "\n")
    for p in passes:
        for problem in p["problems"]:
            print(f"check failed: {problem}")
    print(f"report: {RESULTS / stem}.json")
    print(json.dumps({"correct": failed == 0, "attempted": len(passes),
                      "failed": failed, "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
