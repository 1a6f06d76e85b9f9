import random

import pytest

from wfst import BooleanWeight, Fst, RealWeight
from wfst.semirings import _unbox


def plant_arc(fst, arc, index=None):
    """Write ``arc``, an ``Arc``, into ``fst`` past ``add_arc``'s gate, in
    the stored form: as the ``index``-th arc of its source, or appended
    when ``index`` is None.  A weight of the machine's own semiring is
    stored as its kernel value; anything else is stored as it is, a fault
    for ``validate`` to find."""
    source, target, ilabel, olabel, weight = arc
    if weight.__class__ is fst.semiring:
        weight = _unbox(fst.semiring)(weight)
    stored = (target, ilabel, olabel, weight)
    if index is None:
        fst._writable(source).append(stored)
    else:
        fst._writable(source)[index] = stored


def plant_final(fst, state, weight):
    """Write ``weight`` as ``state``'s final weight in ``fst``, past
    ``set_final_weight``'s gate, in the stored form, as ``plant_arc``
    writes an arc, and drops the sampling tables as ``set_final_weight``
    does."""
    if weight.__class__ is fst.semiring:
        weight = _unbox(fst.semiring)(weight)
    fst._finals[state] = weight
    fst._tables = None


def build_hello_world_troll():
    """Weighted transducer sending "hello" to "world" (weight 6) and
    "troll" (weight 12), with the 1*1*1*2*1*3 / 1*1*1*2*2*3 arc weights."""
    f = Fst(RealWeight)
    for _ in range(11):
        f.add_state()
    f.set_initial_state(0)
    world = [(0, 1, "h", "w", 1), (1, 2, "e", "o", 1), (2, 3, "l", "r", 1),
             (3, 4, "l", "l", 2), (4, 5, "o", "d", 1)]
    troll = [(0, 6, "h", "t", 1), (6, 7, "e", "r", 1), (7, 8, "l", "o", 1),
             (8, 9, "l", "l", 2), (9, 10, "o", "l", 2)]
    for s, t, i, o, w in world + troll:
        f.add_arc(s, t, w, i, o)
    f.set_final_weight(5, 3)
    f.set_final_weight(10, 3)
    return f


def build_double_a_machine():
    """Real-weighted transducer over {a, b}: symbols pass through on the
    weight-1 self loops, and "aa" is nondeterministically rewritten to
    "b" with weight 0.5 via the detour through state 1."""
    f = Fst(RealWeight)
    f.add_state()
    f.add_state()
    f.set_initial_state(0)
    f.add_arc(0, 0, 1.0, "a", "a")
    f.add_arc(0, 0, 1.0, "b", "b")
    f.add_arc(0, 1, 0.5, "a", "b")
    f.add_arc(1, 0, 1.0, "a", 0)
    f.set_final_weight(0, 1.0)
    return f


def random_acyclic_fst(rng, semiring=RealWeight, max_states=8, max_arcs=16,
                       weight=None, acceptor=False):
    """Random acyclic machine; arcs only go from lower to higher ids, the
    last state is final, and weights default to positive reals."""
    n = rng.randint(2, max_states)
    f = Fst(semiring)
    for _ in range(n):
        f.add_state()
    f.set_initial_state(0)
    alphabet = [97, 98, 99]
    for _ in range(rng.randint(1, max_arcs)):
        s = rng.randint(0, n - 2)
        t = rng.randint(s + 1, n - 1)
        i = rng.choice(alphabet)
        o = i if acceptor else rng.choice(alphabet)
        w = weight(rng) if weight is not None else rng.uniform(0.1, 2.0)
        f.add_arc(s, t, w, i, o)
    f.set_final_weight(n - 1, semiring.one)
    if n > 2 and rng.random() < 0.3:
        extra = rng.randint(1, n - 1)
        w = weight(rng) if weight is not None else rng.uniform(0.1, 2.0)
        f.set_final_weight(extra, semiring.cast(w) if semiring is RealWeight
                           else semiring.one)
    return f


def random_cyclic_fst(rng, max_states=6):
    """Random real machine with cycles (arcs go to any state, self-loops
    included) whose total weight converges: each state's arcs weigh 0.9
    or less in total.  A state without arcs is final, others may be."""
    n = rng.randint(1, max_states)
    f = Fst(RealWeight)
    for _ in range(n):
        f.add_state()
    f.set_initial_state(0)
    for s in range(n):
        targets = [rng.randrange(n) for _ in range(rng.randint(0, 3))]
        raw = [rng.uniform(0.1, 1.0) for _ in targets]
        mass = rng.uniform(0.3, 0.9)
        for t, r in zip(targets, raw):
            f.add_arc(s, t, mass * r / sum(raw), rng.choice("ab"), "a")
        if not targets or rng.random() < 0.6:
            f.set_final_weight(s, rng.uniform(0.1, 1.0))
    return f


def random_boolean_fst(rng, max_states=8, max_arcs=16):
    return random_acyclic_fst(rng, BooleanWeight, max_states, max_arcs,
                              weight=lambda r: True, acceptor=True)


@pytest.fixture
def troll_fst():
    return build_hello_world_troll()


@pytest.fixture
def rewrite_fst():
    return build_double_a_machine()


@pytest.fixture
def rng():
    return random.Random(12345)


def single_scc_real_fst(rng, n):
    """Real machine whose n states form one strongly connected component:
    a ring plus three random arcs per state, each state's arcs weighing
    0.9 in total and its final weight 0.1, so the total weight is 1."""
    f = Fst(RealWeight)
    for _ in range(n):
        f.add_state()
    f.set_initial_state(0)
    for s in range(n):
        targets = [(s + 1) % n] + [rng.randrange(n) for _ in range(3)]
        raw = [rng.uniform(0.1, 1.0) for _ in targets]
        for t, r in zip(targets, raw):
            f.add_arc(s, t, 0.9 * r / sum(raw), "a", "a")
        f.set_final_weight(s, 0.1)
    return f
