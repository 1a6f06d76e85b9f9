"""The four benchmark workloads: seeded inputs, one request each, oracles.

Every workload is a closed loop with one client.  Requests are laid out
in cycles of ``SHAPES``: each cycle holds every shape once, in an order
shuffled by the seed, so every run sees the same mix of request sizes and
only the content changes with the seed.  The number of shapes is odd and
a multiple of five, so the median and the 90th percentile fall inside a
size class rather than on the edge between two.

The library is only reached through module attributes (``A.compose``,
``F.fst_from_sequence``, ...), never through names re-exported by
``wfst/__init__``, so that the span wrappers of the traced run see every
call.  Oracles never call the function they check.
"""

import hashlib
import math
import os
import random
import resource
import subprocess
import sys
import time
import traceback

import wfst.algorithms as A
import wfst.autodiff as AD
import wfst.fst as F
import wfst.io as IO
from wfst.semirings import DEFAULT_DELTA, MinWeight, RealWeight


class CheckFailed(Exception):
    """An output disagreed with its oracle."""


def _expect(condition, message):
    if not condition:
        raise CheckFailed(message)


def _rel_close(x, y, rel):
    return abs(x - y) <= rel * max(abs(x), abs(y))


def _rng(*parts):
    # String seeds hash through SHA-512, independent of PYTHONHASHSEED.
    return random.Random(":".join(str(p) for p in parts))


class Workload:
    """Base class: a seeded request schedule over a fixed list of shapes."""

    name = ""
    SHAPES = ()

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def shape(self, i):
        """Shape of request ``i``: cycle ``i // K`` is a seeded shuffle."""
        k = len(self.SHAPES)
        order = list(range(k))
        _rng(self.name, self.seed, "cycle", i // k).shuffle(order)
        return self.SHAPES[order[i % k]]

    def make(self, i):
        """The input of request ``i`` (same seed and index, same input)."""
        raise NotImplementedError

    def run(self, request):
        """Serve one request; this is the timed part."""
        raise NotImplementedError

    def check(self, request, output):
        """Raise CheckFailed unless ``output`` matches the oracle."""
        raise NotImplementedError

    def serve(self, i, request, failures, tracer=None):
        """Run request ``i`` and check it; return its run time in seconds.

        Only ``run`` is timed, and only ``run`` is traced.  An exception or
        a failed check appends ``(i, reason)`` to ``failures``.
        """
        if tracer is not None:
            tracer.rid = i
        error = None
        start = time.perf_counter()
        try:
            output = self.run(request)
        except Exception:  # noqa: BLE001 - any error is a failed request
            error = traceback.format_exc(limit=4)
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.rid = None
        if error is None:
            try:
                self.check(request, output)
            except CheckFailed as exc:
                error = str(exc)
            except Exception:  # noqa: BLE001 - a check that raises fails too
                error = traceback.format_exc(limit=4)
        if error is not None:
            failures.append((i, error))
        return elapsed

    def warm_up(self):
        failures = []
        self.serve("warm-up", self.make("warm-up"), failures)
        if failures:
            raise SystemExit(f"{self.name} warm-up failed: {failures[0][1]}")

    def peak_rss_mb(self, own_extra_mb=0.0):
        """Peak resident memory of the process serving the requests, less
        ``own_extra_mb`` that the benchmark itself holds there."""
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return peak_kb / 1024 - own_extra_mb

    def fingerprint(self):
        """A string that identifies the inputs of the first cycle."""
        return repr([self.make(i) for i in range(len(self.SHAPES))])


# -- lexicon -----------------------------------------------------------

class Lexicon(Workload):
    """Union of seeded real-weighted words, then ε-removal, then
    determinization."""

    name = "lexicon"
    # 15 word counts, geometric from 20 to 100.
    SHAPES = tuple(round(20 * 5 ** (k / 14)) for k in range(15))
    ALPHABET = "abcdef"

    def make(self, i):
        rng = _rng(self.name, self.seed, i)
        n = self.SHAPES[0] if i == "warm-up" else self.shape(i)
        words = {}
        while len(words) < n:
            word = "".join(rng.choice(self.ALPHABET)
                           for _ in range(rng.randint(2, 6)))
            words[word] = round(rng.uniform(0.1, 1.0), 6)
        return words

    def items(self, request):
        return len(request)

    def run(self, words):
        lexicon = None
        for word, weight in words.items():
            chain = F.fst_from_sequence(word, RealWeight)
            chain.set_final_weight(chain.num_states - 1, weight)
            lexicon = chain if lexicon is None else A.union(lexicon, chain)
        return A.determinize(A.remove_epsilon(lexicon))

    def check(self, words, fst):
        paths = F.enumerate_paths(fst, max_paths=len(words) + 1)
        _expect(not paths.truncated, "path enumeration truncated")
        got = {}
        for path in paths:
            got[path.input_str] = got.get(path.input_str, 0.0) + path.weight.value
        _expect(got.keys() == words.keys(),
                f"accepted {len(got)} strings, expected {len(words)} words")
        for word, weight in words.items():
            _expect(abs(got[word] - weight) <= DEFAULT_DELTA,
                    f"{word!r} weighs {got[word]}, expected {weight}")


# -- decode ------------------------------------------------------------

class Decode(Workload):
    """String acceptor composed with a fixed 1-state, 64-arc rewrite
    transducer, then sum, best path and samples."""

    name = "decode"
    # 15 string lengths, evenly spaced from 100 to 600.
    SHAPES = tuple(100 + round(500 * k / 14) for k in range(15))
    LETTERS = "abcdefgh"
    SAMPLES = 3

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = _rng(self.name, seed, "model")
        # Each input letter's row of 8 rewrite weights sums to about 1,
        # so products over hundreds of symbols stay finite.
        self.rows = {}
        model = F.Fst(RealWeight)
        state = model.add_state()
        model.set_initial_state(state)
        model.set_final_weight(state, 1.0)
        for x in self.LETTERS:
            raw = [rng.uniform(0.2, 1.0) for _ in self.LETTERS]
            row = [w / sum(raw) for w in raw]
            self.rows[x] = row
            for y, w in zip(self.LETTERS, row):
                model.add_arc(state, state, w, x, y)
        self.model = model

    def make(self, i):
        rng = _rng(self.name, self.seed, i)
        n = self.SHAPES[0] if i == "warm-up" else self.shape(i)
        text = "".join(rng.choice(self.LETTERS) for _ in range(n))
        return text, [rng.randrange(2 ** 31) for _ in range(self.SAMPLES)]

    def items(self, request):
        return len(request[0])

    def run(self, request):
        text, sample_seeds = request
        lattice = A.compose(F.fst_from_sequence(text, RealWeight), self.model)
        total = A.sum_paths(lattice)
        best = A.shortest_path(A.lift(lattice, MinWeight))
        samples = [A.random_path(lattice, seed=s) for s in sample_seeds]
        return total, best, samples

    def check(self, request, output):
        text, _ = request
        total, best, samples = output
        # Lifting copies weight values, so the final weight 1 becomes cost 1.
        expected_total = 1.0
        expected_cost = 1.0
        for x in text:
            expected_total *= sum(self.rows[x])
            expected_cost += min(self.rows[x])
        _expect(_rel_close(total.value, expected_total, 1e-9),
                f"sum_paths {total.value}, expected {expected_total}")
        _expect(_rel_close(best.distance.value, expected_cost, 1e-9),
                f"shortest cost {best.distance.value}, expected {expected_cost}")
        _expect(best.path.input_str == text, "best path reads another string")
        for path in samples:
            _expect(path.input_str == text, "sampled path reads another string")
            product = 1.0
            for arc in path.arcs:
                product *= arc.weight.value
            _expect(_rel_close(path.weight.value, product, 1e-12),
                    f"sampled path weight {path.weight.value}, arcs give {product}")


# -- train -------------------------------------------------------------

def cyclic_model(seed, cycle=0):
    """Seeded 8-state cyclic transducer over {a, b}, one per cycle.

    Every state has two arcs for each of the four label pairs, carrying
    0.9 of its mass in total, and final weight 0.1, so the total weight
    converges (it is 1) and every equal-length pair has a path.
    """
    rng = _rng("train", seed, "model", cycle)
    model = F.Fst(RealWeight)
    for _ in range(8):
        model.add_state()
    model.set_initial_state(0)
    for state in range(8):
        raw = [rng.uniform(0.2, 1.0) for _ in range(8)]
        k = 0
        for i in "ab":
            for o in "ab":
                for _ in range(2):
                    model.add_arc(state, rng.randrange(8),
                                  0.9 * raw[k] / sum(raw), i, o)
                    k += 1
        model.set_final_weight(state, 0.1)
    return model


def exact_total(fst):
    """Total weight of a real machine by solving (I - A) x = f.

    Gaussian elimination with partial pivoting; the benchmark's own
    oracle for the cyclic shortest distance.
    """
    n = fst.num_states
    m = [[float(i == j) for j in range(n)] + [0.0] for i in range(n)]
    for state in range(n):
        for arc in fst.arcs(state):
            m[state][arc.target] -= arc.weight.value
        m[state][n] = fst.final_weight(state).value
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(m[r][col]))
        m[col], m[pivot] = m[pivot], m[col]
        for r in range(n):
            if r != col and m[r][col]:
                factor = m[r][col] / m[col][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return m[fst.initial][n] / m[fst.initial][fst.initial]


class Train(Workload):
    """A few gradient steps of the cyclic model on a seeded batch."""

    name = "train"
    # 15 batches: three of each pair length from 2 to 6.
    SHAPES = tuple(2 + k // 3 for k in range(15))
    PAIRS = 4
    STEPS = 3
    RATE = 1e-3

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        # One model per cycle of requests, so that a run's time is not
        # that of a single seeded model, whose relaxation may be quick or
        # slow to converge.  ``model`` is the first.
        self.models = {0: cyclic_model(seed)}
        self.model = self.models[0]

    def make(self, i):
        rng = _rng(self.name, self.seed, i)
        n = self.SHAPES[0] if i == "warm-up" else self.shape(i)
        cycle = 0 if i == "warm-up" else i // len(self.SHAPES)
        if cycle not in self.models:
            self.models[cycle] = cyclic_model(self.seed, cycle)
        return cycle, [("".join(rng.choice("ab") for _ in range(n)),
                        "".join(rng.choice("ab") for _ in range(n)))
                       for _ in range(self.PAIRS)]

    def items(self, request):
        return len(request[1]) * self.STEPS

    def run(self, request):
        cycle, pairs = request
        return AD.train(self.models[cycle], pairs, steps=self.STEPS, rate=self.RATE)

    def check(self, request, output):
        _, losses = output
        _expect(len(losses) == self.STEPS, f"{len(losses)} losses")
        _expect(all(math.isfinite(x) for x in losses), f"losses {losses}")
        _expect(losses[-1] < losses[0], f"loss did not fall: {losses}")


# -- cli ---------------------------------------------------------------

def _lattice_text(text, rows, letters, semiring="real"):
    """Text format of a string composed with the rewrite transducer."""
    lines = [f"#semiring {semiring}", "#initial 0", f"#states {len(text) + 1}"]
    for t, x in enumerate(text):
        lines.extend(f"{t} {t + 1} {ord(x)} {ord(y)} {w!r}"
                     for y, w in zip(letters, rows[x]))
    lines.append(f"{len(text)} 1")
    return "\n".join(lines) + "\n"


def _chain_text(text):
    lines = ["#semiring real", "#initial 0", f"#states {len(text) + 1}"]
    lines.extend(f"{t} {t + 1} {ord(x)} {ord(x)} 1" for t, x in enumerate(text))
    lines.append(f"{len(text)} 1")
    return "\n".join(lines) + "\n"


def _model_text(rows, letters):
    lines = ["#semiring real", "#initial 0", "#states 1"]
    for x in letters:
        lines.extend(f"0 0 {ord(x)} {ord(y)} {w!r}"
                     for y, w in zip(letters, rows[x]))
    lines.append("0 1")
    return "\n".join(lines) + "\n"


def _epsilon_lexicon_text(rng, words):
    """A start state with ε-arcs into one chain per word."""
    arcs, finals = [], []
    state = 1
    for _ in range(words):
        arcs.append(f"0 {state} 0 0 1")
        for _ in range(rng.randint(2, 6)):
            x = ord(rng.choice("abcdef"))
            arcs.append(f"{state} {state + 1} {x} {x} 1")
            state += 1
        finals.append(f"{state} {round(rng.uniform(0.1, 1.0), 6)!r}")
        state += 1
    header = ["#semiring real", "#initial 0", f"#states {state}"]
    return "\n".join(header + arcs + finals) + "\n"


def _path_line(path):
    """One path in the CLI's ``input<TAB>output<TAB>weight`` format."""
    labels = ["".join(F.label_str(x) for x in side)
              for side in (path.input_labels, path.output_labels)]
    return f"{labels[0]}\t{labels[1]}\t{path.weight.text()}\n"


# String lengths of the CLI lattices: 1000, 4480 and 20000 arcs.
CLI_SIZES = (125, 560, 2500)

# command -> (CLI arguments with {n} for the size, library answer as the
# CLI prints it, given the parsed input files in argument order).
CLI_COMMANDS = {
    "print": (["print", "real{n}.fst"], IO.render_text),
    "compose": (["compose", "chain{n}.fst", "model.fst"],
                lambda a, b: IO.render_text(A.compose(a, b))),
    "lift": (["lift", "real{n}.fst", "--to", "min"],
             lambda f: IO.render_text(A.lift(f, MinWeight))),
    "shortestpath": (["shortestpath", "min{n}.fst"],
                     lambda f: _path_line(A.shortest_path(f).path)),
    "sumpaths": (["sumpaths", "real{n}.fst"],
                 lambda f: A.sum_paths(f).text() + "\n"),
    "union": (["union", "real{n}.fst", "other{n}.fst"],
              lambda a, b: IO.render_text(A.union(a, b))),
    "determinize": (["determinize", "real{n}.fst"],
                    lambda f: IO.render_text(A.determinize(f))),
    "draw": (["draw", "real{n}.fst", "--format", "html"], IO.render_html),
    "rmepsilon": (["rmepsilon", "epsilon.fst"],
                  lambda f: IO.render_text(A.remove_epsilon(f))),
}


def _digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


class Cli(Workload):
    """One ``python -m wfst.cli`` command per request, on seeded files.

    The children run one at a time and write to files, so at most the
    waiting parent and one child exist.  Each (command, file size) pair is
    a shape; its expected output is computed in-process once, after the
    first run of that shape and outside the timed region.
    """

    name = "cli"
    EPSILON_WORDS = 40
    # Every command on every lattice size; ε-removal only on one small file.
    SHAPES = tuple([(cmd, n) for cmd in CLI_COMMANDS if cmd != "rmepsilon"
                    for n in CLI_SIZES] + [("rmepsilon", 0)])

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.env = dict(os.environ)
        self.src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [self.src] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        # When set, a callable giving the argv that replaces ``-m wfst.cli``.
        self.launcher = None
        self.expected = {}   # shape -> digest of the library's answer
        self.peak_kb = 0     # of the command children
        self.cpu_s = 0.0     # of the command children
        rng = _rng(self.name, seed, "files")
        rows = {}
        for x in Decode.LETTERS:
            raw = [rng.uniform(0.2, 1.0) for _ in Decode.LETTERS]
            rows[x] = [w / sum(raw) for w in raw]
        self._write("model.fst", _model_text(rows, Decode.LETTERS))
        for n in CLI_SIZES:
            text = "".join(rng.choice(Decode.LETTERS) for _ in range(n))
            other = "".join(rng.choice(Decode.LETTERS) for _ in range(n))
            self._write(f"chain{n}.fst", _chain_text(text))
            self._write(f"real{n}.fst", _lattice_text(text, rows, Decode.LETTERS))
            self._write(f"other{n}.fst", _lattice_text(other, rows, Decode.LETTERS))
            self._write(f"min{n}.fst",
                        _lattice_text(text, rows, Decode.LETTERS, "min"))
        self._write("epsilon.fst", _epsilon_lexicon_text(rng, self.EPSILON_WORDS))

    def _path(self, name):
        return os.path.join(self.workdir, name)

    def _write(self, name, text):
        with open(self._path(name), "w", encoding="utf-8") as f:
            f.write(text)

    def argv(self, shape):
        cmd, n = shape
        return [self._path(a.format(n=n)) if a.endswith(".fst") else a
                for a in CLI_COMMANDS[cmd][0]]

    def make(self, i):
        return ("print", CLI_SIZES[0]) if i == "warm-up" else self.shape(i)

    def items(self, request):
        return 1

    def spawn(self, argv, out):
        """Run one Python child to completion with stdout in ``out``;
        return its resource usage."""
        err = self._path("stderr.txt")
        with open(out, "w", encoding="utf-8") as stdout, \
                open(err, "w", encoding="utf-8") as stderr:
            proc = subprocess.Popen([sys.executable] + argv, stdout=stdout,
                                    stderr=stderr, env=self.env, cwd=self.workdir)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            with open(err, encoding="utf-8") as f:
                raise CheckFailed(f"exit code {proc.returncode}: {f.read().strip()}")
        return usage

    def run(self, shape):
        out = self._path("stdout.txt")
        prefix = self.launcher() if self.launcher else ["-m", "wfst.cli"]
        usage = self.spawn(prefix + self.argv(shape), out)
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        self.cpu_s += usage.ru_utime + usage.ru_stime
        return out

    def peak_rss_mb(self, own_extra_mb=0.0):
        # The peak over the command children, which hold nothing of the
        # benchmark's, so ``own_extra_mb`` does not apply.  A child's
        # ru_maxrss also counts this process's peak before the child's
        # exec, which is why the oracles run in children of their own and
        # this process keeps only hashes.
        return self.peak_kb / 1024

    def check(self, shape, out):
        if shape not in self.expected:
            expected = self._path("expected.txt")
            cmd, _ = shape
            self.spawn([os.path.abspath(__file__), cmd]
                       + [a for a in self.argv(shape) if a.endswith(".fst")], expected)
            self.expected[shape] = _digest(expected)
        _expect(_digest(out) == self.expected[shape],
                f"{shape[0]} output differs from the library's")

    def warm_up(self):
        # Confirms that the children import this checkout's package.
        probe = self._path("probe.txt")
        self.spawn(["-c", "import wfst; print(wfst.__file__)"], probe)
        with open(probe, encoding="utf-8") as f:
            where = os.path.realpath(f.read().strip())
        if not where.startswith(os.path.realpath(self.src) + os.sep):
            raise SystemExit(f"CLI children import wfst from {where}, not {self.src}")
        self.spawn(["-m", "wfst.cli", "compile", "--string", "a"],
                   self._path("stdout.txt"))

    def fingerprint(self):
        texts = []
        for name in sorted(os.listdir(self.workdir)):
            if name.endswith(".fst"):
                with open(self._path(name), encoding="utf-8") as f:
                    texts.append(f.read())
        return super().fingerprint() + "".join(texts)


WORKLOADS = {w.name: w for w in (Lexicon, Decode, Train, Cli)}


def _oracle(cmd, paths):
    """Print the library's answer for one CLI command on ``paths``."""
    inputs = []
    for path in paths:
        with open(path, encoding="utf-8") as f:
            inputs.append(IO.parse_text(f.read()))
    sys.stdout.write(CLI_COMMANDS[cmd][1](*inputs))


if __name__ == "__main__":
    # python3 bench/workloads.py COMMAND FILE...: the cli workload's oracle.
    _oracle(sys.argv[1], sys.argv[2:])
