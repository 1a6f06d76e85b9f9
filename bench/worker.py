"""One workload in one fresh process (started by run.py, not by hand).

Modes:
  setup  build inputs, warm up, print READY and exit
  run    then serve requests in a closed loop for --seconds, checking each
         output outside its timed region, and print a JSON summary
  trace  then run one cycle of requests three times -- untraced, with
         span wrappers, and counting semiring operations -- plus the fixed
         layer probes, and print the per-layer metrics as JSON

Usage: python3 bench/worker.py WORKLOAD SEED SECONDS MODE
"""

import gc
import json
import os
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_work")
MIN_REQUESTS = 100    # so that ten samples lie beyond the 90th percentile
MAX_LOOP_SECONDS = 120  # a stuck request must not hold the run forever
REFERENCE_WINDOW = 5  # a request's reference: the median of 2*5+1 loops

sys.path.insert(0, SRC)
import wfst  # noqa: E402

if not os.path.realpath(wfst.__file__).startswith(os.path.realpath(SRC) + os.sep):
    raise SystemExit(f"imported wfst from {wfst.__file__}, not from {SRC}")

from reference import measured_reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def closed_loop(workload, reference, pool_mb, seconds):
    """Requests back to back until ``seconds`` of request time have passed,
    at least MIN_REQUESTS are done and the last cycle of shapes is whole.
    The reference loop runs after each request, outside its timed region.
    A run cut short by MAX_LOOP_SECONDS is marked ``truncated``: its size
    mix and sample count differ from a whole run's."""
    k = len(workload.SHAPES)
    latencies, failures, reference_ms = [], [], []
    busy = 0.0
    items = 0
    i = 0
    started = time.perf_counter()
    while (busy < seconds or i < MIN_REQUESTS or i % k) \
            and time.perf_counter() - started < MAX_LOOP_SECONDS:
        request = workload.make(i)
        latencies.append(workload.serve(i, request, failures))
        reference_ms.append(reference.ms())
        busy += latencies[-1]
        items += workload.items(request)
        i += 1
    truncated = busy < seconds or i < MIN_REQUESTS or i % k != 0
    # Each request over the median reference time around it, so that the
    # ratio is taken in the phase of the machine the request ran in.
    local = [statistics.median(reference_ms[max(0, j - REFERENCE_WINDOW):
                                            j + REFERENCE_WINDOW + 1])
             for j in range(i)]
    ratios = [t / (1e-3 * r) for t, r in zip(latencies, local)]
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    ratio_deciles = statistics.quantiles(ratios, n=10, method="inclusive")
    return {
        "requests": i,
        "truncated": truncated,
        "failures": failures,
        "items": items,
        "busy_s": busy,
        "reference_ms": statistics.median(reference_ms),
        "latency_p50_ms": 1e3 * deciles[4],
        "latency_p90_ms": 1e3 * deciles[8],
        "items_per_s": items / busy,
        "latency_p50_ref": ratio_deciles[4],
        "latency_p90_ref": ratio_deciles[8],
        "items_per_ref": items / sum(ratios),
        "peak_rss_mb": workload.peak_rss_mb(own_extra_mb=pool_mb),
    }


def main():
    name, seed, seconds, mode = sys.argv[1:5]
    os.makedirs(WORKDIR, exist_ok=True)
    workdir = os.path.join(WORKDIR, f"{name}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        # Built first, so that every peak of the process includes the pool
        # and subtracting its size leaves the workload's own peak.
        reference, pool_mb = measured_reference()
        workload = WORKLOADS[name](int(seed), workdir)
        workload.warm_up()
        gc.collect()  # the timed loop starts without the warm-up's garbage
        print("READY", flush=True)
        if mode == "run":
            result = closed_loop(workload, reference, pool_mb, float(seconds))
            if result["truncated"]:
                print(f"{name} (seed {seed}) stopped after {MAX_LOOP_SECONDS} s "
                      f"and {result['requests']} requests, short of a whole run",
                      file=sys.stderr)
        elif mode == "trace":
            import layers
            result = layers.traced_run(workload)
        else:
            return
        for i, reason in result["failures"]:
            print(f"{name} request {i} (seed {seed}) failed: {reason}",
                  file=sys.stderr)
        result["failed"] = len(result.pop("failures"))
        print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
