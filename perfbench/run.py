"""Run one demuskin benchmark workload and print its metrics.

    python3 perfbench/run.py --workload deep-precision --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the end-to-end ones, measured for `--seconds` seconds of whole
rounds; with `--trace 1` they are the per-layer ones, from a fixed number of
rounds run under the tracer, so that their counts repeat exactly.  The
program is imported from `src/` of the checkout this file lives in.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_RUNS = 11


def use_checkout_source():
    """Import demuskin from this checkout's src/, and from nowhere else."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import demuskin
    origin = os.path.abspath(demuskin.__file__)
    if not origin.startswith(SRC + os.sep):
        raise ImportError(f"demuskin imported from {origin}, not from {SRC}")


def setup_seconds(workload):
    """Median wall time of importing the package and setting a workload up,
    each time in a fresh interpreter."""
    times = []
    for _ in range(SETUP_RUNS):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe",
             "--workload", workload],
            check=True, capture_output=True, text=True, timeout=120)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    t0 = time.perf_counter()
    try:
        use_checkout_source()
    except ImportError as exc:
        print(f"cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    params, forged = workloads.setup(wl)
    if args.setup_probe:
        print(time.perf_counter() - t0)
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
        try:
            res = workloads.run(wl, params, forged, args.seed, args.seconds,
                                tracer=tracer, rounds=wl.trace_rounds)
        finally:
            tracer.uninstall()
    else:
        setup_s = setup_seconds(wl.name)
        res = workloads.run(wl, params, forged, args.seed, args.seconds)
    if not res.points:
        print(f"{wl.name}: every point failed, so there are no metrics",
              file=sys.stderr)
        return 1

    if tracer:
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"trace-{wl.name}-seed{args.seed}.json"))
        metrics = tracer.metrics()
        for clause in "abcde":
            metrics[f"paths.verify.entries.{clause}"] = (res.entries[clause], "count")
        metrics["paths.cert.segments"] = (res.segments, "count")
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = workloads.end_to_end(res, setup_s, rss_mb)

    for err in res.errors:
        print(f"{wl.name}: check failed: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": not res.errors,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
