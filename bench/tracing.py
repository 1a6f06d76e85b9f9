"""Span and operation-count recorders wrapped around the package's layers.

Spans are recorded from outside the program: the public functions of
``wfst.algorithms``, ``wfst.io`` and ``wfst.autodiff`` and the ``Fst``
construction methods are replaced, for the length of a pass, by wrappers
that note name, start, end, parent span and request id.  Spans stay in
memory and are written out when the run ends.  Semiring operations are
counted in a separate pass with counting-only wrappers, so that a
per-operation wrapper never distorts the timed numbers.
"""

import functools
import json
from contextlib import contextmanager
from time import perf_counter_ns

import wfst.algorithms as A
import wfst.autodiff as AD
import wfst.cli as CLI
import wfst.fst as F
import wfst.io as IO
from wfst import semirings as S

# Algorithms whose calls and self time are reported; True marks those
# that return an Fst, whose output size is also reported.
ALGORITHMS = {
    "union": True, "remove_epsilon": True, "determinize": True,
    "compose": True, "lift": True, "project": True,
    "shortest_distance": False, "sum_paths": False,
    "shortest_path": False, "random_path": False,
}

SEMIRING_CLASSES = (S.BooleanWeight, S.RealWeight, S.MinWeight, S.MaxWeight,
                    S.FeaturizedWeight, AD._DiffWeightBase)


def _fst_out(tracer, name, args, result):
    tracer.add(name + ".states_out", result.num_states)
    tracer.add(name + ".arcs_out", result.num_arcs)


def _parse_in(tracer, name, args, result):
    tracer.add("io.bytes_in", len(args[0].encode("utf-8")))
    tracer.add("io.parse_text.arcs", result.num_arcs)


def _render_out(tracer, name, args, result):
    tracer.add("io.bytes_out", len(result.encode("utf-8")))


def _tape_size(tracer, name, args, result):
    tracer.add("autodiff.tape_nodes", len(args[0].nodes))


def _train_loss(tracer, name, args, result):
    tracer.add("autodiff.loss_last", result[1][-1])


def targets():
    """(owner, attribute, span name, count hook) for every wrapped name.

    Names are patched where callers look them up: ``wfst.algorithms``
    binds ``enumerate_paths`` at import, and ``wfst.cli`` binds the io
    functions, ``fst_from_sequence`` and ``enumerate_paths`` at import.
    ``loglikelihood_loss`` imports its algorithms at call time, so the
    wrappers on ``wfst.algorithms`` see those calls.
    """
    out = [(A, name, "algorithms." + name, _fst_out if fst else None)
           for name, fst in ALGORITHMS.items()]
    out += [
        (F.Fst, "add_arc", "fst.add_arc", None),
        (F.Fst, "add_state", "fst.add_state", None),
        (AD, "train", "autodiff.train", _train_loss),
        (AD, "loglikelihood_loss", "autodiff.loglikelihood_loss", None),
        (AD.GradientTape, "backward", "autodiff.backward", _tape_size),
    ]
    for owner in (F, A, CLI):
        out.append((owner, "enumerate_paths", "fst.enumerate_paths", None))
    for owner in (F, CLI):
        out.append((owner, "fst_from_sequence", "fst.fst_from_sequence", None))
    for owner in (IO, CLI):
        out += [
            (owner, "parse_text", "io.parse_text", _parse_in),
            (owner, "render_text", "io.render_text", _render_out),
            (owner, "render_html", "io.render_html", _render_out),
        ]
    return out


@contextmanager
def _patched(replacements):
    saved = [(owner, attr, getattr(owner, attr))
             for owner, attr, _ in replacements]
    try:
        for owner, attr, new in replacements:
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in saved:
            setattr(owner, attr, old)


class Tracer:
    """Spans of one pass.  Calls made while ``rid`` is None (set-up and
    oracle checks) are not recorded."""

    def __init__(self):
        self.spans = []   # [name, start_ns, end_ns, parent index, rid]
        self.stack = []
        self.counts = {}
        self.rid = None

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.rid is None:
                return fn(*args, **kwargs)
            spans, stack = tracer.spans, tracer.stack
            record = [name, 0, 0, stack[-1] if stack else -1, tracer.rid]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter_ns()
                stack.pop()
            if hook is not None:
                hook(tracer, name, args, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        with _patched([(owner, attr, self.wrap(name, getattr(owner, attr), hook))
                       for owner, attr, name, hook in targets()]):
            yield self

    def self_times(self):
        """Per span name: (calls, self ns), where self time is a span's
        duration minus the time its child spans cover."""
        covered = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals = {}
        for (name, start, end, _, _), cover in zip(self.spans, covered):
            calls, ns = totals.get(name, (0, 0))
            totals[name] = (calls + 1, ns + end - start - cover)
        return totals

    def dump(self, path, **extra):
        with open(path, "w", encoding="utf-8") as f:
            json.dump(dict(spans=self.spans, counts=self.counts, **extra), f)

    def merge(self, data, rid):
        """Append the spans and counts another process dumped."""
        offset = len(self.spans)
        for name, start, end, parent, _ in data["spans"]:
            self.spans.append([name, start, end,
                               parent + offset if parent >= 0 else -1, rid])
        for key, value in data["counts"].items():
            self.add(key, value)


class OpCounter:
    """Counts ``+``, ``*`` and ``/`` on every built-in semiring while
    ``rid`` is set."""

    def __init__(self):
        self.count = 0
        self.rid = None

    @contextmanager
    def installed(self):
        counter = self

        def counted(fn):
            @functools.wraps(fn)
            def wrapper(self, other):
                if counter.rid is not None:
                    counter.count += 1
                return fn(self, other)
            return wrapper

        with _patched([(cls, op, counted(cls.__dict__[op]))
                       for cls in SEMIRING_CLASSES
                       for op in ("__add__", "__mul__", "__truediv__")
                       if op in cls.__dict__]):
            yield self
