"""Benchmark of the wfst checkout this file sits in.

    python3 bench/run.py --workload decode --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --runs 10 --out BENCH_new.json
    python3 bench/run.py --compare BENCH_old.json BENCH_new.json
    python3 bench/run.py --self-test

Each workload runs in a fresh process started from this one (bench/worker.py).
With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json;
``setup_s`` is the median of several set-ups, each timed from starting
the process to its first request, and ``setup_ref`` the median of each
set-up over the start-up of a reference process, timed just before and
just after it.  With ``--trace 1`` it reports the per-layer metrics from
one traced cycle of requests.  The last line of output is a JSON object
with the keys correct, attempted, failed and metrics.  See
bench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
REFERENCE = os.path.join(BENCH, "reference.py")
WORKLOADS = ("lexicon", "decode", "train", "cli")
SETUP_SAMPLES = 7     # set-ups per run; setup_s is their median
WORKER_TIMEOUT = 170  # seconds; a run must end within 180
COUNT_SUFFIXES = (".calls", ".states_out", ".arcs_out")
COUNT_METRICS = ("semirings.ops", "autodiff.tape_nodes", "io.parse_text.arcs",
                 "io.bytes_in", "io.bytes_out")


class BenchError(Exception):
    pass


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def start_until_ready(argv, what):
    """Start a Python child and wait for READY; return (process, seconds)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable] + argv, stdout=subprocess.PIPE,
                            text=True, cwd=ROOT)
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "READY":
        proc.kill()
        proc.communicate()
        raise BenchError(f"{what} failed during set-up")
    return proc, setup


def start_worker(workload, seed, seconds, mode):
    """Start a worker and wait for READY; return (process, set-up seconds)."""
    return start_until_ready([WORKER, workload, str(seed), str(seconds), mode],
                             f"{workload} worker")


def reference_start():
    """Seconds from starting the reference process to its READY."""
    proc, seconds = start_until_ready([REFERENCE], "reference process")
    proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"reference process exited with {proc.returncode}")
    return seconds


def finish_worker(proc, workload):
    """Wait for a started worker; return its JSON result (None after a
    set-up-only worker)."""
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} worker timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with {proc.returncode}")
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def setup_only(workload, seed):
    """Seconds from starting a worker to its first request."""
    proc, setup = start_worker(workload, seed, 0, "setup")
    finish_worker(proc, workload)
    return setup


def run_once(workload, seed, seconds, trace):
    """One run of one workload.

    Returns the result object (the metrics BENCHMARK.json lists) and every
    printed metric as (name, value, unit, samples) rows.
    """
    if trace:
        proc, _ = start_worker(workload, seed, seconds, "trace")
        raw = finish_worker(proc, workload)
        k = raw["requests"] // 3
        rows = [(name, m["value"], m["unit"],
                 raw["samples"].get(name, f"per request of {k}"))
                for name, m in raw["metrics"].items()]
        listed = raw["metrics"]
    else:
        # Set-ups before and after the measured run, so that they fall in
        # different phases of the machine's speed.  Each one lies between
        # two reference start-ups, and its ratio is to their mean, so that
        # the ratio is taken in one phase.
        reference_start()  # the first start after a pause is slow
        before = SETUP_SAMPLES // 2
        setups, refs = [], [reference_start()]
        for k in range(SETUP_SAMPLES):
            if k == before:
                proc, setup = start_worker(workload, seed, seconds, "run")
                raw = finish_worker(proc, workload)
            else:
                setup = setup_only(workload, seed)
            setups.append(setup)
            refs.append(reference_start())
        ratios = [s / ((a + b) / 2) for s, a, b in zip(setups, refs, refs[1:])]
        n, ref = raw["requests"], raw["reference_ms"]
        rows = [
            ("setup_s", statistics.median(setups), "s",
             f"median of {SETUP_SAMPLES} set-ups"),
            ("setup_ref", statistics.median(ratios), "ref",
             f"median of {SETUP_SAMPLES} set-ups over reference start-ups"),
            ("latency_p50_ms", raw["latency_p50_ms"], "ms", f"{n} requests"),
            ("latency_p90_ms", raw["latency_p90_ms"], "ms", f"{n} requests"),
            ("items_per_s", raw["items_per_s"], "items/s",
             f"{raw['items']} items in {raw['busy_s']:.2f} s"),
            ("failed_ratio", raw["failed"] / n, "ratio", f"{n} requests"),
            ("peak_rss_mb", raw["peak_rss_mb"], "MB",
             "max over CLI children" if workload == "cli" else "workload process"),
            ("reference_ms", ref, "ms", f"median of {n} reference loops"),
            ("latency_p50_ref", raw["latency_p50_ref"], "ref",
             "median of latency / local reference_ms"),
            ("latency_p90_ref", raw["latency_p90_ref"], "ref",
             "90th percentile of latency / local reference_ms"),
            ("items_per_ref", raw["items_per_ref"], "items/ref",
             "items / sum of latency / local reference_ms"),
        ]
        listed = {m["name"]: None for m in load_spec()["end_to_end"]}
    # A run that MAX_LOOP_SECONDS cut short is not comparable to a whole one.
    result = {"correct": raw["failed"] == 0 and not raw.get("truncated", False),
              "attempted": raw["requests"],
              "failed": raw["failed"],
              "metrics": {name: {"value": value, "unit": unit}
                          for name, value, unit, _ in rows if name in listed}}
    return result, rows


def run(args):
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results, recorded = {}, {}
    for name in names:
        for seed in range(args.seed, args.seed + args.runs):
            result, rows = run_once(name, seed, args.seconds, args.trace)
            print(f"{name}  seed {seed}  {result['attempted']} requests  "
                  f"{result['failed']} failed"
                  + ("" if result["correct"] or result["failed"]
                     else "  TRUNCATED (not comparable)"))
            for metric, value, unit, samples in rows:
                print(f"  {metric:40s} {value:14.6g} {unit:9s} {samples}")
            results.setdefault(name, []).append(result)
            recorded.setdefault(name, []).append(
                dict(result, metrics={m: {"value": v, "unit": u}
                                      for m, v, u, _ in rows}))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(recorded, f, indent=1)
    everything = [r for rs in results.values() for r in rs]
    if len(everything) == 1:
        final = everything[0]
    else:
        final = {
            "correct": all(r["correct"] for r in everything),
            "attempted": sum(r["attempted"] for r in everything),
            "failed": sum(r["failed"] for r in everything),
            "metrics": {
                f"{name}.{metric}": {
                    "value": statistics.median(r["metrics"][metric]["value"] for r in rs),
                    "unit": rs[0]["metrics"][metric]["unit"]}
                for name, rs in results.items() for metric in rs[0]["metrics"]},
        }
    print(json.dumps(final))
    return 0


def spread(values):
    """Distance between the first and third quartile, over the median."""
    if len(values) < 2:
        return float("inf")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def compare(old_path, new_path):
    """Print each metric's ratio new/old with both medians and a verdict."""
    spec = load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    with open(old_path, encoding="utf-8") as f:
        old = json.load(f)
    with open(new_path, encoding="utf-8") as f:
        new = json.load(f)
    print(f"{'workload':8s} {'metric':42s} {'old':>12s} {'new':>12s} "
          f"{'new/old':>8s} {'spread':>13s}  verdict")
    for workload in [w for w in old if w in new]:
        # Runs that failed a check or were cut short are left out.
        runs_a = [r for r in old[workload] if r["correct"]]
        runs_b = [r for r in new[workload] if r["correct"]]
        left_out = len(old[workload]) + len(new[workload]) - len(runs_a) - len(runs_b)
        if left_out:
            print(f"{workload:8s} {left_out} runs left out: failed or truncated")
        if not runs_a or not runs_b:
            continue
        metrics = runs_a[0]["metrics"]
        for metric, first in metrics.items():
            a = [r["metrics"][metric]["value"] for r in runs_a]
            b = [r["metrics"][metric]["value"] for r in runs_b]
            ma, mb = statistics.median(a), statistics.median(b)
            ratio = mb / ma if ma else float("nan")
            sa, sb = spread(a), spread(b)
            verdict = "no bound"
            if metric in bounds:
                bound = bounds[metric]["bound"]
                worse = ratio - 1 if bounds[metric]["better"] == "lower" else 1 - ratio
                if max(sa, sb) > bound:
                    verdict = "unresolved (spread above bound)"
                elif worse > bound:
                    verdict = "regressed"
                elif -worse > bound:
                    verdict = "better beyond bound"
                else:
                    verdict = "within bound"
            print(f"{workload:8s} {metric:42s} {ma:12.6g} {mb:12.6g} {ratio:8.4f} "
                  f"{sa:6.3f}/{sb:6.3f}  {verdict} [{first['unit']}; "
                  f"{len(a)} vs {len(b)} runs]")
    return 0


def is_count(metric):
    return metric.endswith(COUNT_SUFFIXES) or metric in COUNT_METRICS


def self_test(workload, seed):
    """Traced runs of one workload: the same seed must give identical
    counts, and another seed other inputs."""
    runs = []
    for s in (seed, seed, seed + 1):
        proc, _ = start_worker(workload, s, 0, "trace")
        runs.append(finish_worker(proc, workload))
    ok = all(r["failed"] == 0 for r in runs)
    counts = [{k: v["value"] for k, v in r["metrics"].items() if is_count(k)}
              for r in runs]
    for metric in counts[0]:
        if counts[0][metric] != counts[1][metric]:
            print(f"FAIL {metric}: {counts[0][metric]} then {counts[1][metric]}")
            ok = False
    if runs[0]["inputs"] == runs[2]["inputs"]:
        print(f"FAIL seeds {seed} and {seed + 1} gave the same inputs")
        ok = False
    listed = [m["name"] for m in load_spec()["per_layer"]]
    if listed != list(runs[0]["metrics"]):
        print("FAIL the traced run's metrics differ from BENCHMARK.json per_layer")
        ok = False
    print(f"self-test {workload}: {len(counts[0])} counts compared, "
          f"{'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="request time per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, with seeds SEED, SEED+1, ...")
    parser.add_argument("--out", help="write every run's result to this file")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "wfst", "__init__.py")):
        print(f"error: {ROOT} holds no wfst source tree (src/wfst)", file=sys.stderr)
        return 2
    try:
        if args.compare:
            return compare(*args.compare)
        if args.self_test:
            return self_test("decode" if args.workload == "all" else args.workload,
                             args.seed)
        if args.seconds is None:
            args.seconds = load_spec()["run_seconds"]
        return run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
