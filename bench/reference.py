"""The reference work that the bounded time metrics are divided by.

It imports nothing from ``wfst``, so a change to the package cannot move
it.  Two uses:

- ``Reference.ms()``: a fixed pure-Python loop that the worker times
  after every request (bench/worker.py).
- ``python3 bench/reference.py``: a process that starts, builds a
  ``Reference``, runs its loop ``SETUP_LOOPS`` times and prints READY.
  run.py times it from start to READY next to each workload set-up, so
  that ``setup_ref`` is a set-up time over a start-up time taken in the
  same phase of the machine.
"""

import gc
import random
import resource
import sys
import time
from dataclasses import dataclass

SETUP_LOOPS = 10


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y


@dataclass(frozen=True)
class _Edge:
    source: int
    target: int
    input: int
    output: int
    weight: float


class Reference:
    """A fixed pure-Python loop that never touches wfst.

    The machine's speed swings by a third within seconds.  The loop has
    two parts, so that its time swings with the workloads' times:

    - it reads a 32k-object pool in a shuffled order, builds small
      objects and fills a dict;
    - it builds lists of frozen dataclass edges, copies them twice into
      new lists and indexes them in a dict, as a union of machines does.

    Alone, the first part tracks ``decode`` and ``train`` but swings
    about twice as far as ``lexicon`` does; the second tracks
    ``lexicon``.  A loop over a cache-resident table alone swings about
    twice as far as either.
    """

    SIZE = 1 << 15
    STEPS = 2000
    EDGES = 750

    def __init__(self):
        self.pool = [_Point(float(i), 1.0) for i in range(self.SIZE)]
        self.order = list(range(self.SIZE))
        random.Random(0).shuffle(self.order)

    def ms(self):
        """Milliseconds of one loop.

        The cyclic garbage collector is off while it runs, so that the
        garbage a request left behind is collected inside the next
        request, as it would be without the benchmark, and not here.
        """
        pool, order, mask = self.pool, self.order, self.SIZE - 1
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            table = {}
            total = 0.0
            j = 0
            for i in range(self.STEPS):
                q = pool[order[j]]
                j = (j + 40503) & mask
                point = _Point(q.x * 0.5, q.y)
                table[i & 4095] = point
                total += point.x
            states = [[] for _ in range(self.EDGES // 3)]
            for i in range(self.EDGES):
                states[i // 3].append(
                    _Edge(i // 3, i // 3 + 1, 97 + (i & 7), 97 + (i & 7), 0.5))
            for _ in range(2):
                states = [[_Edge(e.source + 1, e.target + 1, e.input, e.output,
                                 e.weight) for e in edges] for edges in states]
            index = {}
            for edges in states:
                for e in edges:
                    index[e.source, e.input] = e
            return 1e3 * (time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()


def measured_reference():
    """A new ``Reference`` and the megabytes of peak resident memory that
    building it added.  Built first thing in a process, while its resident
    memory is still at its peak, that is the memory the pool holds.  The
    worker subtracts it from its peak."""
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reference = Reference()
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return reference, (after - before) / 1024


if __name__ == "__main__":
    reference = Reference()
    for _ in range(SETUP_LOOPS):
        reference.ms()
    print("READY", flush=True)
    sys.exit(0)
