"""One pass of a workload in a fresh interpreter, as ``metapulse run`` pays it.

Usage: ``python bench/worker.py JOB.json`` (``run.py`` writes the job and
sets ``PYTHONPATH`` to the checkout's ``src``). The job holds the generated
config texts, the repeat count, the output directory and whether to trace.
The worker imports ``metapulse.cli`` and parses every config first; the
``ready`` clock reading marks the end of that set-up. It then runs every
config ``repeats`` times through ``run_scenario`` and writes its timings,
peak RSS, the statuses and, when traced, the spans and layer metrics, to
the job's result path.
"""

import sys
import time

import metapulse.cli as cli  # first, so set-up time covers the import

import json  # noqa: E402  (already loaded by metapulse.cli)
import os  # noqa: E402
import resource  # noqa: E402


def main(job_path):
    with open(job_path) as fh:
        job = json.load(fh)
    src = os.path.realpath(job["src"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"metapulse imported from {cli.__file__}, not {src}")

    tracer = None
    if job["trace"]:
        from tracing import Tracer, layer_metrics  # beside this script

        tracer = Tracer()
        tracer.install()
    configs = [(name, cli.parse_config(text)) for name, text in job["runs"]]
    ready = time.perf_counter()

    statuses = []
    t0, c0 = time.perf_counter(), os.times()
    for r in range(job["repeats"]):
        for name, config in configs:
            status, _ = cli.run_scenario(
                config, out_dir=os.path.join(job["out"], str(r), name))
            statuses.append(status)
    t1, c1 = time.perf_counter(), os.times()

    result = {
        "ready": ready,
        "wall_s": t1 - t0,
        "cpu_s": (c1.user - c0.user) + (c1.system - c0.system),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "statuses": statuses,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = layer_metrics(tracer.spans)
        result["spans"] = tracer.dump()
    with open(job["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
