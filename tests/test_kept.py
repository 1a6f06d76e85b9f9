"""What a machine keeps between queries: its forward search and, on a
float kernel, its sampling tables.  Every answer read through them must
equal the answer of a machine rebuilt from ``all_arcs()``, which keeps
nothing, after any write; and a write to one machine must reach no other
that shares its storage."""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

from wfst import (Fst, MinWeight, RealWeight, connect, featurized_semiring,
                  lift, random_path, shortest_distance, shortest_path,
                  sum_paths, union)
from wfst.algorithms import _components, _sampling_table
from wfst.errors import WfstError
from wfst.fst import Arc
from wfst.semirings import _kernel
from conftest import plant_arc, plant_final

SEEDS = range(6)


def rebuilt(f):
    """``f`` built anew through the public API: it keeps nothing."""
    g = Fst(f.semiring)
    for _ in f.states():
        g.add_state()
    if f.initial is not None:
        g.set_initial_state(f.initial)
    for arc in f.all_arcs():
        g.add_arc(arc.source, arc.target, arc.weight, arc.input, arc.output)
    for state, weight in f.finals.items():
        g.set_final_weight(state, weight)
    return g


def outcome(call):
    try:
        return call()
    except WfstError as exc:
        return type(exc), str(exc)


def answers(f):
    """Every query that reads what ``f`` keeps, each as its result or its
    error."""
    trimmed = connect(f)
    out = [outcome(lambda: sum_paths(f)),
           outcome(lambda: shortest_distance(f)),
           (trimmed.initial, list(trimmed.all_arcs()), dict(trimmed.finals))]
    if "path" in f.semiring.semiring_properties:
        out.append(outcome(lambda: shortest_path(f)))
    out += [outcome(lambda: random_path(f, seed=s, max_steps=200))
            for s in SEEDS]
    return out


def small_machine(semiring=RealWeight):
    """0 -a-> 1 -c-> 3 and 0 -b-> 2 -d-> 3, a self-loop on 1, final 1 and
    3: acyclic but for the loop, and every write below changes an
    answer."""
    f = Fst(semiring)
    for _ in range(4):
        f.add_state()
    f.set_initial_state(0)
    for s, t, label, w in [(0, 1, "a", 0.5), (0, 2, "b", 0.3),
                           (1, 3, "c", 0.6), (2, 3, "d", 0.7),
                           (1, 1, "e", 0.2)]:
        f.add_arc(s, t, w, label, label)
    f.set_final_weight(3, 1.0)
    f.set_final_weight(1, 0.1)
    return f


MUTATORS = {
    "add_state": lambda f: f.add_state(),
    "add_arc": lambda f: f.add_arc(0, 3, 0.05, "x", "x"),
    "set_initial_state": lambda f: f.set_initial_state(2),
    "set_final_weight": lambda f: f.set_final_weight(2, 0.9),
    "assign initial": lambda f: setattr(f, "initial", 1),
    "plant_arc": lambda f: plant_arc(
        f, Arc(0, 3, 120, 120, f.semiring(0.05)), index=0),
    "plant_final": lambda f: plant_final(f, 2, f.semiring(0.9)),
}


class TestKeptDataFollowsWrites:
    @pytest.mark.parametrize("semiring", [RealWeight, MinWeight],
                             ids=lambda sr: sr.name)
    @pytest.mark.parametrize("mutator", sorted(MUTATORS))
    def test_answers_after_a_write_are_a_fresh_machine_s(self, mutator,
                                                         semiring):
        f = small_machine(semiring)
        before = answers(f)
        assert f._search is not None and f._tables
        MUTATORS[mutator](f)
        after = answers(f)
        assert after == answers(rebuilt(f))
        if mutator != "add_state":  # a state no path reaches changes none
            assert after != before

    @pytest.mark.parametrize("semiring", [RealWeight, MinWeight],
                             ids=lambda sr: sr.name)
    def test_a_write_to_a_copy_reaches_neither_machine_s_kept_data(
            self, semiring):
        f = small_machine(semiring)
        before = answers(f)
        g = f.copy()
        assert g._search is f._search
        assert answers(g) == before
        g.add_arc(0, 3, 0.05, "x", "x")
        assert answers(g) == answers(rebuilt(g)) != before
        assert answers(f) == before
        f.set_final_weight(1, 0.9)
        f.add_arc(2, 1, 0.1, "y", "y")
        assert answers(f) == answers(rebuilt(f)) != before
        assert answers(g) == answers(rebuilt(g))

    def test_lift_hands_on_the_search_and_not_the_tables(self):
        f = small_machine()
        answers(f)
        g = lift(f, MinWeight)
        assert g._search is f._search and g._tables is None
        assert answers(g) == answers(rebuilt(g))

    def test_a_sampling_error_stores_nothing_and_repeats(self):
        f = small_machine()
        f.add_arc(2, 3, -0.5, "n", "n")
        first = [outcome(lambda: random_path(f, seed=s)) for s in SEEDS]
        assert any(isinstance(o, tuple) for o in first)
        assert 2 not in f._tables
        assert [outcome(lambda: random_path(f, seed=s))
                for s in SEEDS] == first

    def test_a_featurized_machine_follows_its_weight_table(self):
        # The generic kernel keeps no tables: a sampling weight reads the
        # table, which may change between calls.
        table = {"a": 1.0, "b": 0.0, "stop": 1.0}
        sr = featurized_semiring(table)
        f = Fst(sr)
        f.add_state()
        f.add_state()
        f.set_initial_state(0)
        f.add_arc(0, 1, sr({"a": 1}), "a", "a")
        f.add_arc(0, 1, sr({"b": 1}), "b", "b")
        f.set_final_weight(1, sr({"stop": 1}))
        assert {random_path(f, seed=s).input_str for s in SEEDS} == {"a"}
        table.update(a=0.0, b=1.0)
        assert {random_path(f, seed=s).input_str for s in SEEDS} == {"b"}
        assert f._tables is None


WEIGHTS = st.sampled_from([0.125, 0.25, 0.5, 1.0, 2.0])
LABELS = st.sampled_from("abc")


def stored(f):
    """What ``f`` stores, as plain values to compare."""
    return f.initial, [tuple(arcs) for arcs in f._arcs], dict(f._finals)


class KeptDataMachine(RuleBasedStateMachine):
    """Random writes and queries on a few machines, some sharing arcs or
    whole tables (``copy``, ``lift``, ``union``).  After every step each
    machine's kept search and sampling tables equal fresh ones, and every
    machine but the one the step wrote to stores what it stored before;
    each query equals its answer on a rebuilt machine."""

    @initialize(semiring=st.sampled_from([RealWeight, MinWeight]),
                states=st.integers(1, 4))
    def start(self, semiring, states):
        f = Fst(semiring)
        for _ in range(states):
            f.add_state()
        f.set_initial_state(0)
        f.set_final_weight(states - 1, 1.0)
        self.machines = [f]
        self.stored, self.picked = [], None

    def pick(self, data, write=False):
        f = data.draw(st.sampled_from(self.machines))
        self.picked = f if write else None
        return f

    @rule(data=st.data())
    def add_state(self, data):
        self.pick(data, write=True).add_state()

    @rule(data=st.data(), weight=WEIGHTS, label=LABELS)
    def add_arc(self, data, weight, label):
        f = self.pick(data, write=True)
        s, t = (data.draw(st.integers(0, f.num_states - 1)) for _ in "st")
        f.add_arc(s, t, weight, label, label)

    @rule(data=st.data(), weight=WEIGHTS, label=LABELS)
    def plant_arc(self, data, weight, label):
        f = self.pick(data, write=True)
        s, t = (data.draw(st.integers(0, f.num_states - 1)) for _ in "st")
        arcs = len(f._arcs[s])
        index = data.draw(st.integers(0, arcs - 1)) if arcs else None
        plant_arc(f, Arc(s, t, ord(label), ord(label), f.semiring(weight)),
                  index)

    @rule(data=st.data())
    def set_initial_state(self, data):
        f = self.pick(data, write=True)
        f.set_initial_state(data.draw(st.integers(0, f.num_states - 1)))

    @rule(data=st.data())
    def assign_initial(self, data):
        f = self.pick(data, write=True)
        f.initial = data.draw(st.none() | st.integers(0, f.num_states - 1))

    @rule(data=st.data(),
          weight=st.sampled_from([0.0, 0.25, 1.0]) | st.just(None))
    def set_final_weight(self, data, weight):
        f = self.pick(data, write=True)
        state = data.draw(st.integers(0, f.num_states - 1))
        f.set_final_weight(state, f.semiring.zero if weight is None
                           else weight)

    @precondition(lambda self: len(self.machines) < 5)
    @rule(data=st.data())
    def copy(self, data):
        self.machines.append(self.pick(data).copy())

    @precondition(lambda self: len(self.machines) < 5)
    @rule(data=st.data())
    def lift(self, data):
        f = self.pick(data)
        target = RealWeight if f.semiring is MinWeight else MinWeight
        self.machines.append(lift(f, target))

    @precondition(lambda self: len(self.machines) < 5)
    @rule(data=st.data())
    def union(self, data):
        f, g = self.pick(data), self.pick(data)
        self.machines.append(union(f, g if g.semiring is f.semiring else f))

    @rule(data=st.data())
    def query(self, data):
        f = self.pick(data)
        assert answers(f) == answers(rebuilt(f))

    @rule(data=st.data())
    def sample_again(self, data):
        f = self.pick(data)
        seed = data.draw(st.integers(0, 3))
        assert (outcome(lambda: random_path(f, seed=seed, max_steps=200))
                == outcome(lambda: random_path(rebuilt(f), seed=seed,
                                               max_steps=200)))

    @invariant()
    def a_write_reaches_no_other_machine(self):
        machines = getattr(self, "machines", ())
        for f, before in zip(machines, getattr(self, "stored", ())):
            if f is not self.picked:
                assert stored(f) == before
            assert f.validate()
        self.stored = [stored(f) for f in machines]

    @invariant()
    def kept_data_is_fresh(self):
        for f in getattr(self, "machines", ()):
            if f._search is not None and f._search[0] == f.initial:
                assert f._search[1] == _components(f._arcs, [f.initial])
            kernel = _kernel(f.semiring)
            for state, table in (f._tables or {}).items():
                assert table == _sampling_table(
                    kernel, state, f._arcs[state], f._finals.get(state))


KeptDataMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=25, deadline=None)
TestKeptDataMachine = KeptDataMachine.TestCase
