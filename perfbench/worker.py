"""One pass of one workload in a fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py WORKLOAD SEED {setup,run,trace}

`setup` stops once the inputs are ready; `run` times every case with
tracing off; `trace` runs the same cases inside spans and adds the
per-layer metrics.  The line carries `ready`, the CLOCK_MONOTONIC reading
when the inputs were ready, which the parent compares with its own reading
taken before it started this interpreter.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import json  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402

import workloads  # noqa: E402


def run_cases(workload, cases, digests):
    """Failure messages of the cases that failed."""
    failures = (workloads.run_case(workload, case, digests) for case in cases)
    return [f for f in failures if f]


def main(workload, seed, mode):
    cases = workloads.make_cases(workload, seed)
    digests = workloads.load_digests()
    out = {"ready": time.monotonic()}
    if mode == "setup":
        print(json.dumps(out))
        return
    tracer = None
    if mode == "trace":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    c0 = time.process_time()
    t0 = time.perf_counter()
    if tracer:
        failures = tracer.run(lambda: run_cases(workload, cases, digests))
    else:
        failures = run_cases(workload, cases, digests)
    out["wall_s"] = time.perf_counter() - t0
    out["cpu_s"] = time.process_time() - c0
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["attempted"] = len(cases)
    out["failures"] = failures
    if tracer:
        out["layers"] = tracer.layer_metrics()
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3])
