"""Benchmark of picolim's four engines, run from the root of a checkout.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Every pass of a workload runs in a fresh interpreter (perfbench/worker.py),
one at a time, so passes never share the catalog cache, subgroup lattices,
pc power tables or lazy Wu subgroups.  With --trace 0 the run starts
interpreters that only set up, then timed passes until the next one would
end after --seconds, and reports medians of the end-to-end metrics.  With
--trace 1 it makes one untraced pass and one traced pass, and
reports the per-layer metrics.  The last line of standard output is one
JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("wu-sphere", "tensor-build", "tensor-kernel", "finite-lattice")
SETUP_PROBES = 7  # interpreters that stop once the inputs are ready
DEADLINE_S = 170  # a run must end within 180 s


class PassFailed(Exception):
    """A worker interpreter crashed, timed out or printed no result."""


def src_lines():
    total = 0
    for name in sorted(os.listdir(os.path.join(SRC, "picolim"))):
        if name.endswith(".py"):
            with open(os.path.join(SRC, "picolim", name)) as fh:
                total += sum(1 for _ in fh)
    return total


def one_pass(workload, seed, mode, deadline):
    """Start a worker; returns its result with setup_s added."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), mode]
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired:
        raise PassFailed(f"{workload} {mode} pass ran past the {DEADLINE_S} s deadline") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise PassFailed(f"{workload} {mode} pass exited {proc.returncode}: {proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["ready"] - started
    return out


def measure(workload, seed, seconds, deadline):
    """Untraced run: setup probes, then timed passes within `seconds`."""
    start = time.monotonic()
    setups = [one_pass(workload, seed, "setup", deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    passes = []
    while True:
        t0 = time.monotonic()
        passes.append(one_pass(workload, seed, "run", deadline))
        took = time.monotonic() - t0
        if time.monotonic() + took > min(start + seconds, deadline):
            break
    setups += [p["setup_s"] for p in passes]
    metrics = {
        name: statistics.median(p[name] for p in passes) for name in ("wall_s", "cpu_s", "peak_rss_mb")
    }
    metrics["setup_s"] = statistics.median(setups)
    return passes, metrics


def measure_traced(workload, seed, deadline):
    plain = one_pass(workload, seed, "run", deadline)
    traced = one_pass(workload, seed, "trace", deadline)
    metrics = dict(traced["layers"])
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    # every span's self time belongs to exactly one layer, so the layer
    # totals must add up to the traced wall time
    total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    gap = abs(total - traced["wall_s"])
    if gap > max(abs(metrics["trace.overhead_s"]), 1e-3):
        traced["failures"].append(f"layer self times sum to {total:.4f} s, traced wall is {traced['wall_s']:.4f} s")
    return [plain, traced], metrics, traced


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def run_workload(workload, seed, seconds, trace, deadline):
    traced = None
    if trace:
        passes, metrics, traced = measure_traced(workload, seed, deadline)
    else:
        passes, metrics = measure(workload, seed, seconds, deadline)
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    for f in failures[:20]:
        print(f"FAILED {workload}: {f}", file=sys.stderr)
    walls = ", ".join(f"{p['wall_s']:.3f}" for p in passes)
    print(f"{workload}: {len(passes)} passes of {attempted // len(passes)} cases, wall_s {walls}")
    print(f"  {'failed_frac':32s} {len(failures) / attempted:.6g} ratio")
    if failures:
        # a run with a mismatch is reported as failed, never as a time
        print("  no metrics: a case failed")
        return attempted, len(failures), {}
    for name, value in sorted(metrics.items()):
        share = ""
        if name.endswith(".self_s"):
            share = f"  ({100 * value / traced['wall_s']:.1f} % of traced wall)"
        print(f"  {name:32s} {value:.6g} {unit_of(name)}{share}")
    rendered = {name: {"value": v, "unit": unit_of(name)} for name, v in metrics.items()}
    return attempted, len(failures), rendered


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=33.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "picolim", "__init__.py")):
        print(f"no picolim sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    print(json.dumps({"nproc": os.cpu_count(), "python": sys.version.split()[0],
                      "src_lines": src_lines(), "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace}))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            a, f, m = run_workload(name, args.seed, args.seconds, args.trace,
                                   min(deadline, time.monotonic() + DEADLINE_S))
            attempted += a
            failed += f
            prefix = "" if len(names) == 1 else f"{name}."
            metrics.update({prefix + k: v for k, v in m.items()})
    except PassFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics if correct else {}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
