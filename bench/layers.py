"""The traced run: per-layer metrics of one workload.

One cycle of requests (every shape once) runs three times in the same
process: untraced, with span wrappers, and with counting-only semiring
wrappers.  Counts and self times are reported per request, so they repeat
exactly for a seed wherever the work does.  Layers a workload never
reaches report 0.  The fixed probes (semiring operation cost, CLI
start-up, the cyclic shortest-distance error) run after the passes.
"""

import hashlib
import json
import os
import statistics
import time

import wfst.algorithms as A
import wfst.autodiff as AD
from wfst.semirings import MinWeight, RealWeight

from tracing import ALGORITHMS, OpCounter, Tracer
from workloads import CLI_COMMANDS, Cli, exact_total

LAUNCHER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launcher.py")
OP_LOOP = 200_000     # operations per semiring probe loop
OP_ROUNDS = 3         # the probe reports the median round
STARTUP_SAMPLES = 10


def _metric_names():
    """Every per-layer metric with its unit, in report order."""
    names = [(f"semirings.{s}.op_ns", "ns") for s in ("real", "min", "diff")]
    names += [("semirings.ops", "count"),
              ("fst.add_arc.calls", "count"), ("fst.add_arc.self_ms", "ms"),
              ("fst.add_state.calls", "count"),
              ("fst.fst_from_sequence.self_ms", "ms")]
    for name, returns_fst in ALGORITHMS.items():
        names += [(f"algorithms.{name}.calls", "count"),
                  (f"algorithms.{name}.self_ms", "ms")]
        if returns_fst:
            names += [(f"algorithms.{name}.states_out", "count"),
                      (f"algorithms.{name}.arcs_out", "count")]
    names += [("algorithms.sum_paths.cyclic_rel_err", "ratio"),
              ("io.parse_text.self_ms", "ms"), ("io.parse_text.arcs", "count"),
              ("io.render_text.self_ms", "ms"), ("io.render_html.self_ms", "ms"),
              ("io.bytes_in", "bytes"), ("io.bytes_out", "bytes"),
              ("autodiff.train.self_ms", "ms"),
              ("autodiff.loglikelihood_loss.self_ms", "ms"),
              ("autodiff.backward.self_ms", "ms"),
              ("autodiff.tape_nodes", "count"), ("autodiff.loss_last", "nats"),
              ("cli.startup_ms", "ms"), ("cli.import_ms", "ms"),
              ("cli.child_cpu_ms", "ms")]
    names += [(f"cli.{cmd}.wall_ms", "ms") for cmd in CLI_COMMANDS]
    names += [("trace.overhead_ratio", "ratio")]
    return names


PER_LAYER = _metric_names()


def _load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def op_ns(semiring):
    """Nanoseconds per ``+`` or ``*`` over a fixed loop of OP_LOOP
    operations; the median of OP_ROUNDS rounds.  ``semiring()`` gives the
    weight class, so the diff probe gets a fresh tape each round."""
    rounds = []
    for _ in range(OP_ROUNDS):
        sr = semiring()
        a, b = sr.cast(0.5), sr.cast(0.25)
        start = time.perf_counter_ns()
        for _ in range(OP_LOOP // 2):
            a + b
            a * b
        rounds.append((time.perf_counter_ns() - start) / OP_LOOP)
    return statistics.median(rounds)


def startup_ms(workload):
    samples = []
    for _ in range(STARTUP_SAMPLES):
        start = time.perf_counter()
        workload.spawn(["-m", "wfst.cli", "compile", "--string", "a"],
                       workload._path("stdout.txt"))
        samples.append(1e3 * (time.perf_counter() - start))
    return statistics.median(samples)


def traced_run(workload):
    k = len(workload.SHAPES)
    requests = [workload.make(i) for i in range(k)]
    failures = []
    is_cli = isinstance(workload, Cli)
    dump = workload._path("dump.json") if is_cli else None

    # Untraced pass: the base of trace.overhead_ratio and the CLI wall times.
    untraced = [workload.serve(i, r, failures) for i, r in enumerate(requests)]
    child_cpu_ms = 1e3 * workload.cpu_s / k if is_cli else 0.0

    # Traced pass.  CLI children start from the launcher, which installs
    # the same wrappers and dumps its spans for this process to merge.
    tracer = Tracer()
    import_ms = []
    traced = 0.0
    with tracer.installed():
        if is_cli:
            workload.launcher = lambda: [LAUNCHER, "trace", dump, repr(time.time())]
        for i, request in enumerate(requests):
            traced += workload.serve(i, request, failures, tracer)
            if is_cli:
                data = _load(dump)
                tracer.merge(data, i)
                import_ms.append(data["import_ms"])

    # Counting pass, with the same wrappers in the CLI children.
    counter = OpCounter()
    with counter.installed():
        if is_cli:
            workload.launcher = lambda: [LAUNCHER, "count", dump, "0"]
        for i, request in enumerate(requests):
            workload.serve(i, request, failures, counter)
            if is_cli:
                counter.count += _load(dump)["ops"]
    workload.launcher = None

    values = dict.fromkeys((name for name, _ in PER_LAYER), 0.0)
    for name, (calls, self_ns) in tracer.self_times().items():
        values[name + ".calls"] = calls / k
        values[name + ".self_ms"] = self_ns / 1e6 / k
    for name, total in tracer.counts.items():
        values[name] = total / k
    values["semirings.ops"] = counter.count / k
    values["semirings.real.op_ns"] = op_ns(lambda: RealWeight)
    values["semirings.min.op_ns"] = op_ns(lambda: MinWeight)
    values["semirings.diff.op_ns"] = op_ns(AD.make_diff_semiring)
    values["trace.overhead_ratio"] = traced / sum(untraced)
    if workload.name == "train":
        total = A.sum_paths(workload.model).value
        exact = exact_total(workload.model)
        values["algorithms.sum_paths.cyclic_rel_err"] = abs(total - exact) / exact
    if is_cli:
        values["cli.startup_ms"] = startup_ms(workload)
        values["cli.import_ms"] = statistics.median(import_ms)
        values["cli.child_cpu_ms"] = child_cpu_ms
        for cmd in CLI_COMMANDS:
            walls = [t for (c, _), t in zip(requests, untraced) if c == cmd]
            values[f"cli.{cmd}.wall_ms"] = 1e3 * statistics.fmean(walls)
    tracer.dump(os.path.join(os.path.dirname(workload.workdir),
                             f"spans-{workload.name}.json"))
    samples = {f"semirings.{s}.op_ns": f"median of {OP_ROUNDS} loops"
               for s in ("real", "min", "diff")}
    samples.update({
        "algorithms.sum_paths.cyclic_rel_err": "train model only",
        "cli.startup_ms": f"median of {STARTUP_SAMPLES} children",
        "cli.import_ms": f"median of {k} children",
        "cli.child_cpu_ms": f"per command of {k}",
        "trace.overhead_ratio": f"over {k} requests",
    })
    samples.update({f"cli.{cmd}.wall_ms": "mean over its commands"
                    for cmd in CLI_COMMANDS})
    return {
        "requests": 3 * k,
        "samples": samples,
        "failures": failures,
        "inputs": hashlib.sha256(workload.fingerprint().encode()).hexdigest(),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in PER_LAYER},
    }
