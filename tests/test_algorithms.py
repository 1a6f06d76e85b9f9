
import math
import re
import sys
import random

import numpy as np
import pytest
from scipy import linalg

import wfst.algorithms as algorithms
from wfst import (
    BooleanWeight,
    FeaturizedWeight,
    Fst,
    MaxWeight,
    MinWeight,
    RealWeight,
    TropicalWeight,
    cast_from_boolean,
    check_semiring_axioms,
    closure,
    make_diff_semiring,
    compose,
    concat,
    connect,
    determinize,
    enumerate_paths,
    equivalent_by_enumeration,
    featurized_semiring,
    fst_from_sequence,
    invert,
    lift,
    project,
    push,
    random_path,
    remove_epsilon,
    reverse,
    shortest_distance,
    shortest_path,
    sum_paths,
    union,
)
from wfst.errors import (
    ConvergenceError,
    DeterminizationLimitError,
    DivergenceError,
    DivisionByZeroError,
    InvalidWeightError,
    NoAcceptingPathError,
    SamplingError,
    SemiringMismatchError,
    UnsupportedOperationError,
    WfstError,
)
from wfst.autodiff import _losses, _restrict
from wfst.fst import EPSILON, Arc
from wfst.io import parse_text, render_text
from wfst.semirings import DEFAULT_DELTA, _kernel
from conftest import (plant_arc, random_acyclic_fst, random_boolean_fst,
                      random_cyclic_fst, single_scc_real_fst)


def accepted_strings(fst, max_paths=1000):
    return sorted({p.input_str for p in enumerate_paths(fst, max_paths)})


def hello_world_transducer():
    f = Fst()
    for _ in range(6):
        f.add_state()
    f.set_initial_state(0)
    for s, (i, o) in enumerate(zip("hello", "world")):
        f.add_arc(s, s + 1, None, i, o)
    f.set_final_weight(5, True)
    return f


class TestUnion:
    def test_hello_help(self):
        u = union(fst_from_sequence("hello"), fst_from_sequence("help"))
        assert accepted_strings(u) == ["hello", "help"]

    def test_union_with_empty_is_identity(self, rng):
        for _ in range(20):
            f = random_acyclic_fst(rng)
            assert equivalent_by_enumeration(union(f, Fst(RealWeight)), f)

    def test_shared_string_weights_sum(self):
        a = fst_from_sequence("x", RealWeight)
        a.set_final_weight(1, 2.0)
        b = fst_from_sequence("x", RealWeight)
        b.set_final_weight(1, 3.0)
        total = sum_paths(union(a, b))
        assert total.value == pytest.approx(5.0)

    def test_mismatched_semirings_rejected(self):
        with pytest.raises(SemiringMismatchError):
            union(fst_from_sequence("a", RealWeight),
                  fst_from_sequence("a", MinWeight))

    def test_pairwise_rendering_pinned(self):
        a = fst_from_sequence("ab", RealWeight)
        a.set_final_weight(2, 0.5)
        b = fst_from_sequence("c", RealWeight)
        b.add_arc(1, 1, 0.25, "c", "d")
        # As in OpenFST: a keeps its ids, b follows, the start is last.
        assert render_text(union(a, b)) == (
            "#semiring real\n#initial 5\n#states 6\n"
            "0 1 97 97 1\n1 2 98 98 1\n3 4 99 99 1\n4 4 99 100 0.25\n"
            "5 0 0 0 1\n5 3 0 0 1\n2 0.5\n4 1\n")

    def test_first_operand_keeps_its_arcs(self, rng):
        for _ in range(20):
            a, b = random_acyclic_fst(rng), random_acyclic_fst(rng)
            u = union(a, b)
            for state in a.states():
                assert u.arcs(state) == a.arcs(state)
            assert u.initial == a.num_states + b.num_states

    def test_n_ary_start_arcs_in_argument_order(self):
        words = ["one", "two", "three", "four"]
        u = union(*(fst_from_sequence(w) for w in words))
        starts = [arc.target for arc in u.arcs(u.initial)]
        assert all(arc.input == arc.output == EPSILON
                   for arc in u.arcs(u.initial))
        assert starts == sorted(starts) and len(starts) == 4
        assert [u.arcs(s)[0].input for s in starts] == [ord(w[0]) for w in words]
        assert accepted_strings(u) == sorted(words)

    def test_n_ary_matches_pairwise_fold(self, rng):
        for _ in range(20):
            parts = [random_acyclic_fst(rng) for _ in range(rng.randint(1, 5))]
            folded = parts[0]
            for part in parts[1:]:
                folded = union(folded, part)
            assert equivalent_by_enumeration(union(*parts), folded)
            assert sum_paths(union(*parts)).approx_eq(
                RealWeight(sum(sum_paths(p).value for p in parts)), 1e-9)

    def test_n_ary_casts_boolean_operands(self):
        real = fst_from_sequence("b", RealWeight)
        real.set_final_weight(1, 0.5)
        u = union(fst_from_sequence("a"), real, fst_from_sequence("c"))
        assert u.semiring is RealWeight
        assert sum_paths(u).value == pytest.approx(2.5)

    def test_n_ary_mismatch_rejected(self):
        with pytest.raises(SemiringMismatchError):
            union(fst_from_sequence("a"), fst_from_sequence("a", RealWeight),
                  fst_from_sequence("a", MinWeight))

    def test_no_operands_rejected(self):
        with pytest.raises(WfstError):
            union()

    def test_semiring_without_its_own_one_rejected(self):
        # The inherited one is a RealWeight, no member of the subclass.
        class NoOneReal(RealWeight):
            pass

        f = Fst(NoOneReal)
        f.set_initial_state(f.add_state())
        for build in (lambda: union(f, f), lambda: closure(f)):
            with pytest.raises(SemiringMismatchError,
                               match="cannot cast real weight"):
                build()


class TestInheritedOne:
    """A subclass with a zero of its own but RealWeight's one: each
    operation that needs one refuses it with ``add_arc``'s text."""

    class NoOneReal(RealWeight):
        name = "noone"

    NoOneReal.zero = NoOneReal(0.0)
    TEXT = ("cannot cast real weight to the noone semiring; NoOneReal must "
            "declare its own zero and one")

    def machine(self):
        sr = self.NoOneReal
        f = Fst(sr)
        f.add_state()
        f.add_state()
        f.set_initial_state(0)
        f.add_arc(0, 1, sr(0.5), "a", "a")
        f.set_final_weight(1, sr(0.5))
        with pytest.raises(SemiringMismatchError) as exc:
            f.add_arc(0, 1, input_label="a")
        assert str(exc.value) == self.TEXT
        return f

    @pytest.mark.parametrize("operation", [shortest_distance, sum_paths,
                                           reverse])
    def test_refused_with_the_text_of_add_arc(self, operation):
        f = self.machine()
        with pytest.raises(SemiringMismatchError) as exc:
            operation(f)
        assert str(exc.value) == self.TEXT


class TestConcat:
    def test_string_concatenation(self):
        c = concat(fst_from_sequence("he"), fst_from_sequence("llo"))
        assert accepted_strings(c) == ["hello"]

    def test_epsilon_identity(self, rng):
        for _ in range(20):
            f = random_acyclic_fst(rng)
            unit = fst_from_sequence("", RealWeight)
            assert equivalent_by_enumeration(concat(f, unit), f)
            assert equivalent_by_enumeration(concat(unit, f), f)

    def test_weights_multiply(self):
        a = fst_from_sequence("a", RealWeight)
        a.set_final_weight(1, 2.0)
        b = fst_from_sequence("b", RealWeight)
        b.set_final_weight(1, 3.0)
        c = concat(a, b)
        paths = enumerate_paths(c)
        assert len(paths) == 1
        assert paths[0].input_str == "ab"
        assert paths[0].weight.value == pytest.approx(6.0)


class TestClosure:
    def test_repetitions(self):
        c = closure(fst_from_sequence("ab"))
        strings = {p.input_str for p in enumerate_paths(c, max_paths=50)}
        assert {"", "ab", "abab"} <= strings

    def test_closure_of_empty_language_is_epsilon(self):
        c = closure(Fst())
        paths = enumerate_paths(c)
        assert [p.input_str for p in paths] == [""]

    def test_repetition_weights_multiply(self):
        a = fst_from_sequence("a", RealWeight)
        weight_half = RealWeight(0.5)
        plant_arc(a, Arc(0, 1, 97, 97, weight_half), 0)
        c = closure(a)
        by_string = {p.input_str: p.weight.value
                     for p in enumerate_paths(c, max_paths=40, max_length=12)}
        assert by_string["aaa"] == pytest.approx(0.125)


class TestSharedArcs:
    """Copies, the rational operations and lift share the arc storage of
    the states they keep unchanged, or the whole table, and a write to one
    machine reaches no other: each operand takes an add_state and then an
    add_arc on every state, the result an add_state and then a plant_arc
    on every state, and every other machine reads as before."""

    OPERATIONS = {
        "copy": lambda a, b: ([a], a.copy()),
        "union(a, b)": lambda a, b: ([a, b], union(a, b)),
        "union(a, a)": lambda a, b: ([a], union(a, a)),
        "concat(a, b)": lambda a, b: ([a, b], concat(a, b)),
        "concat(a, a)": lambda a, b: ([a], concat(a, a)),
        "closure(a)": lambda a, b: ([a], closure(a)),
        "lift(a, MinWeight)": lambda a, b: ([a], lift(a, MinWeight)),
        "union(union(a, b), a)": lambda a, b: (
            [a, b, u := union(a, b)], union(u, a)),
        "union(a, b).copy()": lambda a, b: (
            [a, b, u := union(a, b)], u.copy()),
        "lift(union(a, b), MinWeight)": lambda a, b: (
            [a, b, u := union(a, b)], lift(u, MinWeight)),
    }

    @staticmethod
    def add_arcs(f):
        for state in f.states():
            f.add_arc(state, state, 0.5, "z", "z")

    @staticmethod
    def plant_arcs(f):
        for state in f.states():
            plant_arc(f, Arc(state, state, 122, 122, f.semiring.one))

    @pytest.mark.parametrize("operation", OPERATIONS)
    def test_a_write_reaches_no_other_machine(self, operation, rng):
        for _ in range(10):
            a, b = random_acyclic_fst(rng), random_acyclic_fst(rng)
            before = [render_text(a), render_text(b)]
            operands, result = self.OPERATIONS[operation](a, b)
            assert [render_text(a), render_text(b)] == before
            machines = operands + [result]
            for k, f in enumerate(machines):
                arcs = self.plant_arcs if f is result else self.add_arcs
                for write in (Fst.add_state, arcs):
                    texts = [render_text(g) for g in machines]
                    write(f)
                    after = [render_text(g) for g in machines]
                    assert after[k] != texts[k]
                    del texts[k], after[k]
                    assert after == texts
                    assert all(g.validate() for g in machines)

    def test_a_pairwise_fold_shares_the_first_operands_storage(self):
        first, second, third = (fst_from_sequence(w, RealWeight)
                                for w in ("ab", "cd", "ef"))
        folded = union(first, second)
        last = union(folded, third)
        # A union's table is a tuple of tuples, and the next union shares
        # every state of it, as the same objects; a copy shares the table.
        assert type(folded._arcs) is type(last._arcs) is tuple
        for state in range(folded.num_states):
            assert last._arcs[state] is folded._arcs[state]
        for f in (folded, last):
            assert f.copy()._arcs is f._arcs


class TestCompose:
    def test_nan_product_is_refused(self):
        # inf * 0 is no real number: the arc it made could be rendered
        # but not read back.
        a = parse_text("#semiring real\n#initial 0\n#states 2\n"
                       "0 1 97 98 inf\n1 1\n")
        b = parse_text("#semiring real\n#initial 0\n#states 2\n"
                       "0 1 98 99 0\n1 1\n")
        with pytest.raises(InvalidWeightError,
                           match=r"RealWeight\(nan\) is not a member"):
            compose(a, b)

    def test_only_hello_transduced(self):
        acceptor = union(fst_from_sequence("hello"), fst_from_sequence("help"))
        composed = compose(acceptor, hello_world_transducer())
        outputs = {p.output_str for p in enumerate_paths(composed)}
        assert outputs == {"world"}
        fsa = project(composed, "output")
        assert accepted_strings(fsa) == ["world"]

    def test_double_a_three_paths(self, rewrite_fst):
        composed = compose(fst_from_sequence("aaa"), rewrite_fst)
        by_output = {p.output_str: p.weight.value
                     for p in enumerate_paths(composed)}
        assert by_output == {"aaa": pytest.approx(1.0),
                             "ba": pytest.approx(0.5),
                             "ab": pytest.approx(0.5)}

    def test_autocast_equals_explicit_lift(self, rewrite_fst):
        auto = compose(fst_from_sequence("aaa"), rewrite_fst)
        explicit = compose(
            cast_from_boolean(fst_from_sequence("aaa"), RealWeight), rewrite_fst
        )
        assert equivalent_by_enumeration(auto, explicit)

    def test_provenance_names_the_operand_arcs_and_states(self):
        # The restriction that trains on a pair is a 3-way composition,
        # input projection, model, output projection, which names for
        # each arc the operand arcs that made it (their slots) and for
        # each final state the operands' final states.  Machines with
        # epsilon on either tape exercise every move of both filters.
        rng = random.Random(12)
        for k in range(40):
            model, obs = (one_sided_epsilons(rng, random_epsilon_fst(
                rng, RealWeight, reachable_cycles=k % 2 == 1))
                for _ in range(2))
            search, [(arcs, initial, finals, factors, _)], constants = \
                _restrict(model, [obs])
            composed = compose(compose(project(obs, "input"), model),
                               project(obs, "output"))
            # The very machine that composing twice gives, zero finals too.
            assert initial == composed.initial
            assert [[arc[:3] for arc in state_arcs] for state_arcs in arcs] \
                == [[arc[:3] for arc in state_arcs]
                    for state_arcs in composed._arcs]
            assert [arc[3:] for state_arcs in arcs for arc in state_arcs] \
                + list(finals.values()) == factors
            values = ([arc[3] for state_arcs in model._arcs
                       for arc in state_arcs]
                      + list(model._finals.values()) + constants)
            assert [(values[a] * values[b]) * values[c]
                    for state_arcs in arcs for _, _, _, a, b, c in state_arcs] \
                == [arc[3] for state_arcs in composed._arcs
                    for arc in state_arcs]
            assert {s: (values[a] * values[b]) * values[c]
                    for s, (a, b, c) in finals.items()
                    if (values[a] * values[b]) * values[c]} \
                == composed._finals
            # A slot is a position in all_arcs() order: the model's arcs
            # and finals, then the observed machine's, then the 1.0 of a
            # side that stood still.  Each arc's slots must lead from the
            # operand states of its source to those of its target.
            one = len(values) - 1
            model_arcs = list(model.all_arcs())
            obs_arcs = list(obs.all_arcs())
            base = len(model_arcs) + len(model.finals)
            states = {initial: (obs.initial, model.initial, obs.initial)}
            for source, state_arcs in enumerate(arcs):
                qi, qm, qo = states[source]
                for target, i, o, a, b, c in state_arcs:
                    ti, tm, to = qi, qm, qo
                    if a == one:
                        assert i == EPSILON
                    else:
                        arc = obs_arcs[a - base]
                        assert (arc.source, arc.input) == (qi, i)
                        ti = arc.target
                    if b == one:
                        assert o == EPSILON
                    else:
                        arc = model_arcs[b]
                        assert (arc.source, arc.input, arc.output) \
                            == (qm, i, o)
                        tm = arc.target
                    if c == one:
                        assert o == EPSILON
                    else:
                        arc = obs_arcs[c - base]
                        assert (arc.source, arc.output) == (qo, o)
                        to = arc.target
                    assert states.setdefault(target, (ti, tm, to)) \
                        == (ti, tm, to)
            assert len(states) == len(arcs)
            final_slot = {s: len(model_arcs) + k
                          for k, s in enumerate(model.finals)}
            obs_final = {s: base + len(obs_arcs) + k
                         for k, s in enumerate(obs.finals)}
            assert finals == {
                s: (obs_final[qi], final_slot[qm], obs_final[qo])
                for s, (qi, qm, qo) in states.items()
                if qi in obs_final and qm in final_slot and qo in obs_final}

    def test_composed_weight_is_product_of_parts(self, rng):
        for _ in range(30):
            a = random_acyclic_fst(rng, max_states=5, max_arcs=8)
            b = random_acyclic_fst(rng, max_states=5, max_arcs=8)
            composed = compose(a, b)
            ga = {}
            for pa in enumerate_paths(a):
                for pb in enumerate_paths(b):
                    if pa.output_labels != pb.input_labels:
                        continue
                    key = (pa.input_labels, pb.output_labels)
                    w = pa.weight * pb.weight
                    ga[key] = ga[key] + w if key in ga else w
            gc = {}
            for p in enumerate_paths(composed):
                key = (p.input_labels, p.output_labels)
                gc[key] = gc[key] + p.weight if key in gc else p.weight
            assert set(ga) == set(gc)
            for key in ga:
                assert ga[key].approx_eq(gc[key], 1e-6)

    def test_epsilon_paths_not_duplicated(self):
        # a emits an output epsilon while b consumes an input epsilon;
        # interleavings must be counted exactly once.
        a = Fst(RealWeight)
        for _ in range(3):
            a.add_state()
        a.set_initial_state(0)
        a.add_arc(0, 1, 1.0, "x", 0)
        a.add_arc(1, 2, 1.0, "y", "y")
        a.set_final_weight(2, 1.0)
        b = Fst(RealWeight)
        for _ in range(3):
            b.add_state()
        b.set_initial_state(0)
        b.add_arc(0, 1, 1.0, 0, "z")
        b.add_arc(1, 2, 1.0, "y", "y")
        b.set_final_weight(2, 1.0)
        composed = compose(a, b)
        paths = enumerate_paths(composed)
        assert len(paths) == 1
        assert paths[0].weight.value == pytest.approx(1.0)

    def test_incompatible_semirings_rejected(self):
        with pytest.raises(SemiringMismatchError):
            compose(fst_from_sequence("a", RealWeight),
                    fst_from_sequence("a", TropicalWeight))


class TestProjectInvert:
    def test_project_output(self):
        fsa = project(hello_world_transducer(), "output")
        assert accepted_strings(fsa) == ["world"]

    def test_project_acceptor_is_identity(self, rng):
        for _ in range(10):
            f = random_acyclic_fst(rng, acceptor=True)
            assert equivalent_by_enumeration(project(f, "input"), f)
            assert equivalent_by_enumeration(project(f, "output"), f)

    def test_project_idempotent(self, rng):
        f = random_acyclic_fst(rng)
        once = project(f, "output")
        assert equivalent_by_enumeration(project(once, "input"), once)

    def test_invalid_side(self):
        with pytest.raises(Exception):
            project(fst_from_sequence("a"), "sideways")

    def test_invert_swaps(self):
        inv = invert(hello_world_transducer())
        paths = enumerate_paths(inv)
        assert paths[0].input_str == "world"
        assert paths[0].output_str == "hello"

    def test_invert_involution(self, rng):
        for _ in range(10):
            f = random_acyclic_fst(rng)
            assert equivalent_by_enumeration(invert(invert(f)), f)


class TestRemoveEpsilon:
    @pytest.mark.parametrize("arcs", [
        "0 1 0 0 inf\n1 2 97 97 0\n2 1\n",   # an arc weight inf * 0
        "0 1 0 0 inf\n1 2 0 0 0\n2 1\n",     # a final weight inf * 0
    ])
    def test_nan_product_is_refused(self, arcs):
        f = parse_text("#semiring real\n#initial 0\n#states 3\n" + arcs)
        with pytest.raises(InvalidWeightError,
                           match=r"RealWeight\(nan\) is not a member"):
            remove_epsilon(f)

    def test_union_result_is_epsilon_free(self):
        u = union(fst_from_sequence("hello"), fst_from_sequence("help"))
        r = remove_epsilon(u)
        assert not any(a.input == 0 and a.output == 0 for a in r.all_arcs())
        assert accepted_strings(r) == ["hello", "help"]

    def test_epsilon_free_input_unchanged_language(self, rng):
        for _ in range(20):
            f = random_acyclic_fst(rng)
            assert equivalent_by_enumeration(remove_epsilon(f), f)

    def test_parallel_epsilon_routes_sum(self):
        f = Fst(RealWeight)
        for _ in range(4):
            f.add_state()
        f.set_initial_state(0)
        f.add_arc(0, 1, 0.2, 0, 0)
        f.add_arc(0, 2, 0.3, 0, 0)
        f.add_arc(1, 3, 1.0, "a", "a")
        f.add_arc(2, 3, 1.0, "a", "a")
        f.set_final_weight(3, 1.0)
        r = remove_epsilon(f)
        assert sum_paths(r).value == pytest.approx(0.5)
        assert equivalent_by_enumeration(r, f)

    def test_divergent_epsilon_cycle_errors(self):
        f = Fst(RealWeight)
        f.add_state()
        f.add_state()
        f.set_initial_state(0)
        f.add_arc(0, 0, 1.0, 0, 0)  # epsilon cycle with weight 1: diverges
        f.add_arc(0, 1, 1.0, "a", "a")
        f.set_final_weight(1, 1.0)
        with pytest.raises(ConvergenceError):
            remove_epsilon(f)

    def test_arcs_follow_the_state_order_of_the_closure(self):
        # State 0's closure is reached as 0, 2, 1; its arcs come from 0,
        # then 1, then 2.
        f = Fst(RealWeight)
        for _ in range(4):
            f.add_state()
        f.set_initial_state(0)
        f.add_arc(0, 2, 0.5, EPSILON, EPSILON)
        f.add_arc(2, 1, 0.25, EPSILON, EPSILON)
        f.add_arc(0, 3, 1.0, "c", "c")
        f.add_arc(1, 3, 1.0, "a", "a")
        f.add_arc(2, 3, 1.0, "b", "b")
        f.set_final_weight(3, 1.0)
        r = remove_epsilon(f)
        assert [(chr(a.input), a.weight.value) for a in r.arcs(0)] == [
            ("c", 1.0), ("a", 0.125), ("b", 0.5)]

    def test_matches_enumeration_on_epsilon_dags(self, rng):
        # Shared epsilon targets, zero-weight epsilon arcs and epsilon
        # cycles that the initial state cannot reach.
        for semiring in (RealWeight, TropicalWeight):
            for _ in range(60):
                f = random_epsilon_fst(rng, semiring, reachable_cycles=False)
                r = remove_epsilon(f)
                assert not any(a.input == a.output == EPSILON
                               for a in r.all_arcs())
                assert equivalent_by_enumeration(r, f, delta=1e-9)

    def test_matches_closed_form_on_epsilon_cycles(self, rng):
        for _ in range(60):
            f = random_epsilon_fst(rng, RealWeight, reachable_cycles=True)
            r = remove_epsilon(f)
            assert not any(a.input == a.output == EPSILON
                           for a in r.all_arcs())
            assert equivalent_by_enumeration(r, exact_epsilon_removal(f),
                                             delta=1e-9)

    def test_closures_visit_only_reachable_states(self):
        n = 2000
        f = Fst(CountingWeight)
        for _ in range(n):
            f.add_state()
        f.set_initial_state(0)
        for s in range(n - 1):
            label = EPSILON if s == n // 2 else "a"
            f.add_arc(s, s + 1, 0.5, label, label)
        f.set_final_weight(n - 1, 1.0)
        CountingWeight.counts.update({"*": 0, "==": 0})
        r = remove_epsilon(f)
        # State n // 2 + 1 is reached only by the epsilon arc, so it goes.
        assert r.num_arcs == n - 2
        # A scan of all n states per closure would compare n * n times.
        # The subclass has no float kernel, so its own operators ran.
        assert 0 < CountingWeight.counts["*"] < 4 * f.num_arcs
        assert CountingWeight.counts["=="] < 4 * f.num_arcs

    def test_every_state_of_the_result_is_accessible(self, rng):
        for semiring in (RealWeight, TropicalWeight):
            for k in range(40):
                r = remove_epsilon(random_epsilon_fst(
                    rng, semiring, reachable_cycles=k % 2 == 1))
                assert accessible(r) == set(r.states())

    def test_a_machine_without_initial_state_gives_an_empty_one(self):
        f = fst_from_sequence("ab", RealWeight)
        f.initial = None
        r = remove_epsilon(f)
        assert (r.num_states, r.initial, r.finals) == (0, None, {})

    def test_pairwise_lexicon_costs_linear_products(self):
        # Each pairwise union nests the previous start state; closures
        # for those nested starts, which nothing reaches, once made the
        # products quadratic in the number of words.
        rng = random.Random(3)
        f = None
        for _ in range(200):
            word = "".join(rng.choice("abc") for _ in range(rng.randint(2, 6)))
            chain = fst_from_sequence(word, CountingWeight)
            f = chain if f is None else union(f, chain)
        CountingWeight.counts["*"] = 0
        r = remove_epsilon(f)
        assert 0 < CountingWeight.counts["*"] < 3 * f.num_arcs
        assert equivalent_by_enumeration(r, f)

    def test_epsilon_free_closures_need_no_sums(self):
        f = fst_from_sequence("a" * 499, CountingWeight)
        CountingWeight.counts["+"] = 0
        r = remove_epsilon(f)
        assert render_text(r) == render_text(f)
        # The final weight of the one final state is the only sum; a
        # distance pass per closure would add zero + one for each state.
        assert CountingWeight.counts["+"] == 1


def accessible(fst):
    """States reachable from the initial state, by a fixpoint over all
    arcs (a brute-force oracle, independent of the library's search)."""
    seen = set() if fst.initial is None else {fst.initial}
    grew = True
    while grew:
        grew = False
        for a in fst.all_arcs():
            if a.source in seen and a.target not in seen:
                seen.add(a.target)
                grew = True
    return seen


def coaccessible(fst):
    """States from which a final state is reachable, by the same fixpoint
    run backwards."""
    seen = set(fst.finals)
    grew = True
    while grew:
        grew = False
        for a in fst.all_arcs():
            if a.target in seen and a.source not in seen:
                seen.add(a.source)
                grew = True
    return seen


class TestConnect:
    @staticmethod
    def machines(rng):
        """Seeded (machine, whether its paths are finitely many) pairs,
        with unreachable states, dead states and cycles among them."""
        for k in range(30):
            yield random_acyclic_fst(rng), True
            yield random_epsilon_fst(rng, RealWeight,
                                     reachable_cycles=k % 2 == 1), k % 2 == 0
            yield random_cyclic_fst(rng), False

    def test_keeps_exactly_the_useful_states_in_order(self, rng):
        for f, _ in self.machines(rng):
            keep = sorted(accessible(f) & coaccessible(f))
            rank = {s: i for i, s in enumerate(keep)}
            c = connect(f)
            assert c.num_states == len(keep)
            assert c.initial == rank.get(f.initial)
            for s in keep:
                assert c.arcs(rank[s]) == tuple(
                    Arc(rank[s], rank[a.target], a.input, a.output, a.weight)
                    for a in f.arcs(s) if a.target in rank)
            assert c.finals == {rank[s]: w for s, w in f.finals.items()
                                if s in rank}

    def test_weighted_language_unchanged(self, rng):
        for f, finite in self.machines(rng):
            c = connect(f)
            assert sum_paths(c).approx_eq(sum_paths(f), 1e-12)
            if finite:
                assert equivalent_by_enumeration(c, f, delta=1e-12)

    def test_empty_language_gives_no_states(self):
        f = fst_from_sequence("ab", RealWeight)
        f.set_final_weight(2, 0.0)
        c = connect(f)
        assert (c.num_states, c.initial, c.finals) == (0, None, {})


class CountingWeight(RealWeight):
    """Real weights that count their sums, products and comparisons."""

    name = "counting"
    counts = {"+": 0, "*": 0, "==": 0}

    def __add__(self, other):
        CountingWeight.counts["+"] += 1
        return super().__add__(other)

    def __mul__(self, other):
        CountingWeight.counts["*"] += 1
        return super().__mul__(other)

    def __eq__(self, other):
        CountingWeight.counts["=="] += 1
        return super().__eq__(other)

    __hash__ = RealWeight.__hash__


CountingWeight.zero = CountingWeight(0.0)
CountingWeight.one = CountingWeight(1.0)


class StarlessReal(RealWeight):
    """Real weights that declare neither a star nor an idempotent plus,
    as a custom semiring may: a machine of theirs answers while it is
    acyclic, and a cycle raises UnsupportedOperationError."""

    name = "starless"
    star = None


StarlessReal.zero = StarlessReal(0.0)
StarlessReal.one = StarlessReal(1.0)


def starless_fst(cyclic):
    """0 -a/0.5-> 1 -eps/0.25-> 2 over StarlessReal, final weights 0.1 at
    0 and 0.8 at 2, and with ``cyclic`` an epsilon arc 2 -> 1 of 0.5, so
    that states 1 and 2 form one component, an epsilon cycle."""
    f = Fst(StarlessReal)
    for _ in range(3):
        f.add_state()
    f.set_initial_state(0)
    f.add_arc(0, 1, 0.5, "a", "a")
    f.add_arc(1, 2, 0.25, EPSILON, EPSILON)
    if cyclic:
        f.add_arc(2, 1, 0.5, EPSILON, EPSILON)
    f.set_final_weight(0, 0.1)
    f.set_final_weight(2, 0.8)
    return f


# Every public entry point that solves a machine's cycles, with its answer
# as plain values.
CYCLE_SOLVERS = {
    "sum_paths": lambda f: sum_paths(f).value,
    "shortest_distance": lambda f: [w.value for w in shortest_distance(f)],
    "remove_epsilon": lambda f: arc_values(remove_epsilon(f)),
    "push_initial": lambda f: arc_values(push(f, "initial")),
    "push_final": lambda f: arc_values(push(f, "final")),
}


def string_sums(f):
    """Each (input, output) string's summed path weight, by enumeration."""
    paths = enumerate_paths(f)
    assert not paths.truncated
    sums = {}
    for path in paths:
        key = path.input_str, path.output_str
        sums[key] = sums.get(key, 0.0) + path.weight.value
    return sums


def random_epsilon_fst(rng, semiring, reachable_cycles):
    """Random machine in layers: labelled arcs go to a later layer, epsilon
    arcs to a later layer (some of weight zero, some sharing a target) or,
    with ``reachable_cycles``, to any state of the same layer.  Two extra
    states that the initial state cannot reach form an epsilon cycle.
    Every language is finite."""
    layers, n = [], 0
    for _ in range(rng.randint(2, 4)):
        size = rng.randint(1, 3)
        layers.append(list(range(n, n + size)))
        n += size
    f = Fst(semiring)
    for _ in range(n + 2):
        f.add_state()
    f.set_initial_state(0)
    real = semiring is RealWeight

    def weight(low, high):
        w = rng.uniform(low, high)
        return w if real else -math.log(w)

    later = [(s, t) for i, layer in enumerate(layers) for s in layer
             for later_layer in layers[i + 1:] for t in later_layer]
    for _ in range(rng.randint(1, 2 * n)):
        s, t = rng.choice(later)
        label = rng.choice("ab")
        f.add_arc(s, t, weight(0.1, 1.0), label, rng.choice([label, "c"]))
    for _ in range(rng.randint(1, n)):
        s, t = rng.choice(later)
        w = semiring.zero if rng.random() < 0.15 else weight(0.1, 1.0)
        f.add_arc(s, t, w, EPSILON, EPSILON)
    if reachable_cycles:
        for layer in layers:
            for _ in range(rng.randint(0, len(layer) + 1)):
                f.add_arc(rng.choice(layer), rng.choice(layer),
                          weight(0.05, 0.25), EPSILON, EPSILON)
    f.add_arc(n, n + 1, weight(0.1, 0.5), EPSILON, EPSILON)
    f.add_arc(n + 1, n, weight(0.1, 0.5), EPSILON, EPSILON)
    f.add_arc(n + 1, rng.randrange(n), weight(0.1, 1.0), "a", "a")
    for s in layers[-1] + [rng.randrange(n)]:
        f.set_final_weight(s, weight(0.2, 1.0))
    return f


def one_sided_epsilons(rng, f):
    """``f`` with about a quarter of its arcs' input labels, and another
    quarter of their output labels, replaced by epsilon, so that a
    composition with it takes the moves of one side alone."""
    arcs = []
    for state_arcs in f._arcs:
        arcs.append([])
        for target, i, o, w in state_arcs:
            r = rng.random()
            arcs[-1].append((target, EPSILON if r < 0.25 else i,
                             EPSILON if 0.25 <= r < 0.5 else o, w))
    return algorithms._rebuilt(f, f.semiring, arcs, f._finals)


def exact_epsilon_removal(f):
    """Closed form for a real machine: the epsilon closure matrix is
    (I - E)^-1, inverted by Gauss-Jordan elimination."""
    n = f.num_states
    m = [[float(i == j) for j in range(n)] + [float(i == j) for j in range(n)]
         for i in range(n)]
    for a in f.all_arcs():
        if a.input == a.output == EPSILON:
            m[a.source][a.target] -= a.weight.value
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(m[r][col]))
        m[col], m[pivot] = m[pivot], m[col]
        m[col] = [x / m[col][col] for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                m[r] = [x - m[r][col] * y for x, y in zip(m[r], m[col])]
    closure_w = [row[n:] for row in m]
    g = Fst(RealWeight)
    for _ in range(n):
        g.add_state()
    g.set_initial_state(f.initial)
    for s in range(n):
        final = 0.0
        for t in range(n):
            if closure_w[s][t] == 0.0:
                continue
            for a in f.arcs(t):
                if not a.input == a.output == EPSILON:
                    g.add_arc(s, a.target, closure_w[s][t] * a.weight.value,
                              a.input, a.output)
            final += closure_w[s][t] * f.final_weight(t).value
        if final:
            g.set_final_weight(s, final)
    return g


class TestDeterminize:
    def test_hello_help_seven_states(self):
        u = union(fst_from_sequence("hello"), fst_from_sequence("help"))
        d = determinize(remove_epsilon(u))
        assert d.num_states == 7
        assert accepted_strings(d) == ["hello", "help"]
        self.assert_deterministic(d)

    @staticmethod
    def assert_deterministic(fst):
        for state in fst.states():
            labels = [a.input for a in fst.arcs(state)]
            assert len(labels) == len(set(labels))

    @pytest.mark.parametrize("delta", [0, -1, math.nan, math.inf, "0.1"])
    def test_delta_is_finite_and_above_zero(self, delta):
        message = f"delta must be a finite number above 0, got {delta!r}"
        f = fst_from_sequence("ab")
        for run in (lambda: determinize(f, delta),
                    lambda: RealWeight(1).quantize(delta),
                    lambda: BooleanWeight.one.quantize(delta),
                    lambda: FeaturizedWeight.one.quantize(delta),
                    lambda: equivalent_by_enumeration(f, f, delta=delta),
                    lambda: check_semiring_axioms(RealWeight, 5, delta)):
            with pytest.raises(WfstError) as exc:
                run()
            assert str(exc.value) == message

    def test_already_deterministic_preserved(self):
        f = fst_from_sequence("abc")
        d = determinize(f)
        assert equivalent_by_enumeration(d, f)
        self.assert_deterministic(d)

    def test_shared_prefix_merged(self):
        u = remove_epsilon(union(fst_from_sequence("ab"),
                                 fst_from_sequence("ac")))
        d = determinize(u)
        assert d.num_states == 4
        assert accepted_strings(d) == ["ab", "ac"]
        self.assert_deterministic(d)

    def test_random_boolean_machines(self, rng):
        for _ in range(100):
            f = random_boolean_fst(rng)
            d = determinize(remove_epsilon(f))
            assert equivalent_by_enumeration(d, f)
            self.assert_deterministic(d)

    def test_weighted_determinization_preserves_language(self, rng):
        for _ in range(30):
            f = random_acyclic_fst(rng, acceptor=True)
            d = determinize(f, delta=1e-9)
            assert equivalent_by_enumeration(d, f, delta=1e-6)
            self.assert_deterministic(d)

    def test_epsilon_input_rejected(self):
        u = union(fst_from_sequence("a"), fst_from_sequence("b"))
        with pytest.raises(UnsupportedOperationError):
            determinize(u)

    def test_limit_error_says_what_grew(self):
        # The residual of the costlier loop grows by one per step, so
        # every subset is new until the cap of 10 * 3 + 1000.
        f = parse_text("#semiring min\n#initial 0\n#states 3\n"
                       "0 1 97 98 0\n0 2 97 98 0\n1 1 97 98 1\n"
                       "2 2 97 98 2\n1 0\n2 0\n")
        with pytest.raises(DeterminizationLimitError) as exc:
            determinize(f)
        err = exc.value
        assert (err.subsets, err.cap, err.label) == (1030, 1030, (97, 98))
        assert str(err) == (
            "subset construction hit its cap of 1030 states: 1030 subsets "
            "built, and the arc a:b out of state 1029 needs one more")

    @pytest.mark.parametrize("arcs", [
        "0 1 97 97 inf\n0 2 97 97 0.5\n1 1\n2 1\n",   # residual inf / inf
        "0 1 97 97 inf\n0 2 97 97 -inf\n1 1\n2 1\n",  # total inf + -inf
        "0 1 97 97 0\n0 2 97 97 0.5\n1 inf\n2 1\n",   # final 0 * inf
        # inf / inf at state 1, which has no arcs and is not final, so
        # only the residual gate sees the NaN.
        "0 1 97 97 inf\n0 2 97 97 0.5\n2 1\n",
    ])
    def test_nan_weight_is_refused(self, arcs):
        f = parse_text("#semiring real\n#initial 0\n#states 3\n" + arcs)
        with pytest.raises(InvalidWeightError,
                           match=r"RealWeight\(nan\) is not a member"):
            determinize(f)


class TestReverse:
    def test_hello_reversed(self):
        r = reverse(fst_from_sequence("hello"))
        assert accepted_strings(r) == ["olleh"]

    def test_double_reverse_equivalent(self, rng):
        for _ in range(20):
            f = random_acyclic_fst(rng)
            assert equivalent_by_enumeration(reverse(reverse(f)), f)

    def test_weighted_reverse(self, troll_fst):
        r = reverse(troll_fst)
        by_output = {}
        for p in enumerate_paths(r):
            key = p.output_str
            by_output[key] = by_output.get(key, 0) + p.weight.value
        assert by_output["dlrow"] == pytest.approx(6.0)
        assert by_output["llort"] == pytest.approx(12.0)


class TestPush:
    def test_path_weights_preserved(self, troll_fst):
        for direction in ("initial", "final"):
            p = push(troll_fst, direction)
            assert equivalent_by_enumeration(p, troll_fst)

    def test_single_path_concentrates_weight_initially(self):
        f = fst_from_sequence("ab", RealWeight)
        plant_arc(f, Arc(0, 1, 97, 97, RealWeight(2.0)), 0)
        plant_arc(f, Arc(1, 2, 98, 98, RealWeight(3.0)), 0)
        p = push(f, "initial")
        arcs = [a for s in p.states() for a in p.arcs(s)]
        assert arcs[0].weight.value == pytest.approx(6.0)
        assert arcs[1].weight.value == pytest.approx(1.0)
        assert p.final_weight(2).value == pytest.approx(1.0)
        assert equivalent_by_enumeration(p, f)

    def test_all_one_machine_unchanged(self):
        f = fst_from_sequence("abc", RealWeight)
        assert equivalent_by_enumeration(push(f, "initial"), f)
        assert equivalent_by_enumeration(push(f, "final"), f)

    def test_push_without_division_rejected(self):
        class NoDivReal(RealWeight):
            name = "nodiv"
            has_division = False

        NoDivReal.zero = NoDivReal(0.0)
        NoDivReal.one = NoDivReal(1.0)
        f = fst_from_sequence("a", NoDivReal)
        with pytest.raises(UnsupportedOperationError):
            push(f)

    @pytest.mark.parametrize("direction", ["initial", "final"])
    def test_nan_potential_rejected(self, direction):
        for doc in (
                # inf * 0 makes a NaN potential: backward at states 0 and
                # 1, forward at state 3.
                "#states 4\n0 1 97 97 1\n1 2 97 97 inf\n2 3 97 97 0\n3 1\n",
                # The potentials are members, but inf / inf makes a NaN
                # arc or final weight in either direction.
                "#states 3\n0 1 97 97 1\n1 2 98 98 inf\n2 1\n",
                "#states 2\n0 1 97 97 inf\n1 inf\n"):
            f = parse_text("#semiring real\n#initial 0\n" + doc)
            with pytest.raises(InvalidWeightError):
                push(f, direction)

    @pytest.mark.parametrize("semiring", [RealWeight, StarlessReal])
    def test_a_state_the_initial_state_cannot_reach_decides_nothing(
            self, semiring):
        # 0 -a/0.5-> 1, final 0.5, and state 2, which state 0 cannot
        # reach, with a self-loop of weight 1 (it diverges on reals, and
        # the starless semiring cannot sum it) and an arc into state 1.
        # Only the reachable part is pushed; state 2 keeps its arcs.
        f = Fst(semiring)
        for _ in range(3):
            f.add_state()
        f.set_initial_state(0)
        f.add_arc(0, 1, 0.5, "a", "a")
        f.add_arc(2, 2, 1.0, "b", "b")
        f.add_arc(2, 1, 0.5, "b", "b")
        f.set_final_weight(1, 0.5)
        pushed = push(f, "initial")
        assert [(a.source, a.target, a.weight.value)
                for a in pushed.all_arcs()] == [(0, 1, 0.25), (2, 2, 1.0),
                                                (2, 1, 0.5)]
        assert {s: w.value for s, w in pushed.finals.items()} == {1: 1.0}
        assert sum_paths(pushed).value == sum_paths(f).value == 0.25
        assert equivalent_by_enumeration(push(f, "final"), f)

    def test_partial_featurized_division_is_unsupported(self):
        # Toward the final state, a:1 / (a:1, b:1) has no quotient; toward
        # the initial state every potential divides.
        f = parse_text("#semiring featurized\n#initial 0\n#states 2\n"
                       "0 1 97 97 a:1\n0 1 98 98 b:1\n1 -\n")
        assert equivalent_by_enumeration(push(f, "initial"), f)
        with pytest.raises(UnsupportedOperationError,
                           match="potential of state 1 cannot be divided out; "
                                 "featurized division is partial"):
            push(f, "final")


class TestLiftCast:
    @pytest.mark.parametrize("target", [RealWeight, MinWeight])
    def test_default_lift_from_diff(self, target, rng):
        f = random_acyclic_fst(rng)
        diff = lift(f, make_diff_semiring())
        out = lift(diff, target)
        assert out.semiring is target
        assert [(a.target, a.input, a.output, a.weight.value)
                for a in out.all_arcs()] == \
            [(a.target, a.input, a.output, a.weight.value)
             for a in f.all_arcs()]
        assert {s: w.value for s, w in out.finals.items()} == \
            {s: w.value for s, w in f.finals.items()}
        assert all(type(a.weight) is target for a in out.all_arcs())

    @pytest.mark.parametrize("target", [RealWeight, MinWeight])
    def test_default_lift_rejects_nan(self, target):
        f = fst_from_sequence("a", RealWeight)
        plant_arc(f, Arc(0, 1, 97, 97, RealWeight(float("nan"))), 0)
        with pytest.raises(InvalidWeightError):
            lift(f, target)

    def test_custom_cast_result_passes_the_same_gate(self):
        f = fst_from_sequence("a", RealWeight)
        with pytest.raises(InvalidWeightError):
            lift(f, MinWeight, cast=lambda w: MinWeight(float("nan")))
        with pytest.raises(SemiringMismatchError):
            lift(f, MinWeight, cast=lambda w: TropicalWeight(w.value))

    def test_identity_lift(self, rng):
        for _ in range(20):
            f = random_acyclic_fst(rng)
            assert equivalent_by_enumeration(lift(f, RealWeight), f)

    def test_boolean_default_cast_gives_one_weights(self):
        f = lift(fst_from_sequence("ab"), RealWeight)
        assert all(a.weight == RealWeight.one for a in f.all_arcs())
        assert f.final_weight(2) == RealWeight.one

    def test_cast_preserves_counts(self, rewrite_fst):
        boolean = fst_from_sequence("aaa")
        lifted = cast_from_boolean(boolean, RealWeight)
        assert lifted.num_states == boolean.num_states
        assert lifted.num_arcs == boolean.num_arcs

    def test_double_cast_idempotent(self):
        f = cast_from_boolean(fst_from_sequence("ab"), RealWeight)
        again = lift(f, RealWeight)
        assert equivalent_by_enumeration(f, again)

    def test_min_lift_enables_shortest_path(self, rewrite_fst):
        composed = compose(fst_from_sequence("aaa"), rewrite_fst)
        m = lift(composed, MinWeight)
        result = shortest_path(m)
        costs = [sum(a.weight.value for a in p.arcs)
                 + m.final_weight(p.arcs[-1].target).value
                 for p in enumerate_paths(m)]
        assert result.distance.value == pytest.approx(min(costs))


class TestShortestDistance:
    def test_troll_final_distance(self, troll_fst):
        d = shortest_distance(troll_fst)
        total = d[5] * troll_fst.final_weight(5) + \
            d[10] * troll_fst.final_weight(10)
        assert total.value == pytest.approx(18.0)

    def test_initial_distance_is_one(self, rng):
        for _ in range(10):
            f = random_acyclic_fst(rng)
            assert shortest_distance(f)[f.initial] == RealWeight.one

    def test_matches_enumeration_oracle(self, rng):
        for _ in range(50):
            f = random_acyclic_fst(rng)
            d = shortest_distance(f)
            # Oracle: plus-sum of prefix weights into each state.
            oracle = [RealWeight.zero] * f.num_states
            oracle[f.initial] = RealWeight.one
            for s in range(f.num_states):  # ids are topological here
                for arc in f.arcs(s):
                    oracle[arc.target] = oracle[arc.target] + \
                        oracle[s] * arc.weight
            for s in range(f.num_states):
                assert d[s].approx_eq(oracle[s], 1e-9)

    def test_cyclic_convergent(self):
        f = Fst(RealWeight)
        f.add_state()
        f.add_state()
        f.set_initial_state(0)
        f.add_arc(0, 0, 0.5, "a", "a")
        f.add_arc(0, 1, 1.0, "b", "b")
        f.set_final_weight(1, 1.0)
        assert sum_paths(f).value == pytest.approx(2.0, abs=1e-6)

    def test_cyclic_divergent_errors(self):
        f = Fst(RealWeight)
        f.add_state()
        f.set_initial_state(0)
        f.add_arc(0, 0, 1.0, "a", "a")
        f.set_final_weight(0, 1.0)
        with pytest.raises(ConvergenceError):
            shortest_distance(f)

    def test_nan_distance_rejected(self):
        # inf * 0 makes the distance of state 2 a NaN.
        f = parse_text("#semiring real\n#initial 0\n#states 3\n"
                       "0 1 120 120 inf\n1 2 121 121 0\n")
        with pytest.raises(InvalidWeightError):
            shortest_distance(f)


class TestShortestPath:
    def test_min_and_max_disagree(self, rewrite_fst):
        composed = compose(fst_from_sequence("aaa"), rewrite_fst)
        min_result = shortest_path(lift(composed, MinWeight))
        max_result = shortest_path(lift(composed, MaxWeight))
        assert min_result.distance.value == pytest.approx(3.5)
        assert max_result.distance.value == pytest.approx(4.0)
        assert min_result.path.output_str != max_result.path.output_str

    def test_single_path_machine(self):
        f = lift(fst_from_sequence("abc"), TropicalWeight)
        result = shortest_path(f)
        assert result.path.input_str == "abc"

    def test_picks_cheaper_of_two(self):
        f = Fst(TropicalWeight)
        for _ in range(3):
            f.add_state()
        f.set_initial_state(0)
        f.add_arc(0, 1, 5.0, "a", "a")
        f.add_arc(0, 2, 3.0, "b", "b")
        f.set_final_weight(1, 0.0)
        f.set_final_weight(2, 0.0)
        result = shortest_path(f)
        assert result.path.input_str == "b"
        assert result.distance.value == 3.0

    def test_non_path_semiring_rejected(self):
        with pytest.raises(UnsupportedOperationError):
            shortest_path(fst_from_sequence("a", RealWeight))

    def test_empty_language_rejected(self):
        f = Fst(TropicalWeight)
        f.add_state()
        f.set_initial_state(0)
        with pytest.raises(NoAcceptingPathError):
            shortest_path(f)

    def test_matches_enumeration_on_random_machines(self, rng):
        for _ in range(30):
            f = random_acyclic_fst(rng, TropicalWeight,
                                   weight=lambda r: r.uniform(0.0, 5.0))
            paths = enumerate_paths(f)
            if not paths:
                continue
            best = min(p.weight.value for p in paths)
            assert shortest_path(f).distance.value == pytest.approx(best)

    @pytest.mark.parametrize("semiring, sign", [
        (MinWeight, 1), (TropicalWeight, 1), (MaxWeight, -1)])
    def test_ties_break_toward_the_first_optimal_path_enumerated(
            self, semiring, sign):
        # Whole costs, so every path weight is exact and ties are common.
        # enumerate_paths lists paths depth first, stopping before the
        # arcs, in arc order: by arc-index sequence, a prefix first.
        rng = random.Random(11)
        ties = 0
        for _ in range(300):
            f = random_acyclic_fst(
                rng, semiring, max_states=7, max_arcs=14,
                weight=lambda r: (sign * r.randint(0, 3) if r.random() < 0.9
                                  else semiring.zero.value))
            paths = enumerate_paths(f)
            best = (min if sign > 0 else max)(
                (p.weight.value for p in paths), default=semiring.zero.value)
            optimal = [p for p in paths if p.weight.value == best]
            if best == semiring.zero.value:
                with pytest.raises(NoAcceptingPathError):
                    shortest_path(f)
                continue
            ties += len(optimal) > 1
            result = shortest_path(f)
            assert result.distance.value == best
            assert result.path == optimal[0]
        assert ties > 50


def reversed_arc_beta(fst, kernel):
    """The backward values as the reversed-arc pass computes them, the
    oracle of ``_backward_values``: a Tarjan search over the reversed
    arcs from the final states, and one distance pass in its order."""
    arcs = algorithms._backward_arcs(fst)
    d = algorithms._generic_distance(
        fst.semiring, kernel, arcs, fst._finals,
        algorithms._components(arcs, list(fst._finals)))
    return [d.get(s, kernel.zero) for s in fst.states()]


def tangled_fst(rng, semiring, weight, cyclic=True):
    """Up to 9 states with arcs between any two (self-loops and cycles),
    or with ``cyclic`` False only to later states, so that some states
    are unreachable, some dead ends, and about a third final."""
    n = rng.randint(1, 9)
    f = Fst(semiring)
    for _ in range(n):
        f.add_state()
    f.set_initial_state(0)
    for _ in range(rng.randint(0, 2 * n)):
        s, t = rng.randrange(n), rng.randrange(n)
        if cyclic or s < t:
            f.add_arc(s, t, weight(rng), "a", "b")
    for s in range(n):
        if rng.random() < 0.3:
            f.set_final_weight(s, weight(rng))
    return f


def with_infinities(weight):
    """``weight``, drawn in place of inf and of -inf 6 % of the time each."""
    def draw(rng):
        r = rng.random()
        return math.inf if r < 0.06 else -math.inf if r < 0.12 else weight(rng)
    return draw


def value_bits(values):
    """Float values as their exact hex spellings; other values as they
    are, compared by their own ``==``."""
    return [v.hex() if isinstance(v, float) else v for v in values]


class TestBackwardPull:
    """``_backward_values`` pulls beta over the forward arcs; the
    reversed-arc pass is its oracle."""

    WEIGHTS = {
        BooleanWeight: lambda r: r.random() < 0.8,
        MinWeight: with_infinities(lambda r: r.uniform(0.0, 5.0)),
        TropicalWeight: with_infinities(lambda r: r.uniform(-1.0, 5.0)),
        MaxWeight: with_infinities(lambda r: r.uniform(-5.0, 0.0)),
        FeaturizedWeight: lambda r: {f: 1 for f in "xy" if r.random() < 0.3},
    }

    def assert_pulls_as_reversed(self, f):
        kernel = _kernel(f.semiring)
        want = outcome(reversed_arc_beta, f, kernel)
        got = outcome(lambda: algorithms._backward_values(f, kernel)[0])
        if isinstance(want, tuple):  # an error
            # Two divergent components may be met in either order.
            assert isinstance(got, tuple) and got[0] is want[0]
            return False
        assert value_bits(got) == value_bits(want)
        return True

    @pytest.mark.parametrize("semiring", list(WEIGHTS),
                             ids=lambda cls: cls.name)
    def test_matches_the_reversed_arc_pass(self, semiring):
        rng = random.Random(3)
        solved = sum(self.assert_pulls_as_reversed(
            tangled_fst(rng, semiring, self.WEIGHTS[semiring]))
            for _ in range(500))
        assert solved > 250

    def test_matches_the_reversed_arc_pass_on_exact_reals(self):
        # Sixteenths: every product and sum on an acyclic machine is
        # exact, so any term added or dropped, or added as inf·0, shows
        # in the bits.
        rng = random.Random(3)
        weight = with_infinities(lambda r: r.randint(0, 4) / 16)
        for _ in range(1000):
            f = tangled_fst(rng, RealWeight, weight, cyclic=False)
            assert self.assert_pulls_as_reversed(f)

    def test_cyclic_reals_match_up_to_summation_order(self):
        # Each state sums its terms in arc order, where the reversed-arc
        # pass summed them in its own search order, so the last bits of
        # a sum of three or more terms may differ.
        rng = random.Random(3)
        weight = with_infinities(lambda r: r.uniform(0.0, 0.3))
        kernel = _kernel(RealWeight)
        for _ in range(1000):
            f = tangled_fst(rng, RealWeight, weight)
            want = outcome(reversed_arc_beta, f, kernel)
            got = outcome(lambda: algorithms._backward_values(f, kernel)[0])
            if isinstance(want, tuple):  # an error
                assert isinstance(got, tuple) and got[0] is want[0]
                continue
            for x, y in zip(got, want):
                assert x == pytest.approx(y, rel=1e-12, nan_ok=True)
                assert math.isfinite(x) == math.isfinite(y)

    def test_an_infinite_arc_into_a_dead_end_adds_no_nan(self):
        f = Fst(RealWeight)
        for _ in range(3):
            f.add_state()
        f.set_initial_state(0)
        f.add_arc(0, 1, 0.5, "a", "a")
        f.add_arc(0, 2, math.inf, "b", "b")  # state 2 reaches no final
        f.set_final_weight(1, 1.0)
        assert algorithms._backward_values(f, _kernel(RealWeight))[0] == [
            0.5, 1.0, 0.0]


class TestSumPaths:
    def test_troll_machine(self, troll_fst):
        assert sum_paths(troll_fst).value == pytest.approx(18.0)

    def test_boolean_single_word(self):
        assert sum_paths(fst_from_sequence("hello")) == BooleanWeight.one

    def test_empty_language_is_zero(self):
        f = Fst(RealWeight)
        f.add_state()
        f.set_initial_state(0)
        assert sum_paths(f) == RealWeight.zero

    def test_union_additivity(self, rng):
        for _ in range(30):
            a = random_acyclic_fst(rng)
            b = random_acyclic_fst(rng)
            assert sum_paths(union(a, b)).approx_eq(
                sum_paths(a) + sum_paths(b), 1e-6)

    def test_concat_multiplicativity(self, rng):
        for _ in range(30):
            a = random_acyclic_fst(rng)
            b = random_acyclic_fst(rng)
            assert sum_paths(concat(a, b)).approx_eq(
                sum_paths(a) * sum_paths(b), 1e-6)

    def test_exact_when_only_an_unreachable_part_is_cyclic(self):
        # The cycle cannot be reached, so the search never visits it and
        # the small path weight comes out exactly.
        f = Fst(RealWeight)
        for _ in range(3):
            f.add_state()
        f.set_initial_state(0)
        f.add_arc(0, 1, 1e-4, "a", "a")
        f.set_final_weight(1, 1.0)
        f.add_arc(2, 2, 0.5, "b", "b")
        assert sum_paths(f).value == 1e-4
        assert shortest_distance(f) == [RealWeight.one, RealWeight(1e-4),
                                        RealWeight.zero]

    def test_nan_total_rejected(self):
        f = Fst(RealWeight)
        for _ in range(3):
            f.add_state()
        f.set_initial_state(0)
        f.add_arc(0, 1, float("inf"), "x", "x")
        f.add_arc(1, 2, 0.0, "y", "y")
        f.set_final_weight(2, 1.0)
        with pytest.raises(InvalidWeightError):
            sum_paths(f)


def simple_path_optimum(f, select):
    """Per-state best distance over the simple paths from the initial
    state, summed in path order: the exact optimum of a path semiring
    whose cycles cannot improve a distance."""
    best = [None] * f.num_states

    def walk(state, cost, seen):
        if best[state] is None or select(best[state], cost) != best[state]:
            best[state] = cost
        for arc in f.arcs(state):
            if arc.target not in seen:
                walk(arc.target, cost + arc.weight.value, seen | {arc.target})

    walk(f.initial, 0.0, {f.initial})
    return best


def small_cyclic_path_fst(rng, semiring, sign):
    n = rng.randint(2, 6)
    f = Fst(semiring)
    for _ in range(n):
        f.add_state()
    f.set_initial_state(0)
    for _ in range(rng.randint(n, 3 * n)):
        f.add_arc(rng.randrange(n), rng.randrange(n),
                  sign * rng.choice([0.0, rng.uniform(0.0, 5.0)]), "a", "a")
    f.set_final_weight(n - 1, semiring.one)
    return f


def negative_cycle_through(f, state):
    """Whether a simple cycle through ``state`` has a negative weight."""
    def walk(s, cost, seen):
        for arc in f.arcs(s):
            total = cost + arc.weight.value
            if arc.target == state and total < 0:
                return True
            if arc.target not in seen and walk(arc.target, total,
                                               seen | {arc.target}):
                return True
        return False

    return walk(state, 0.0, {state})


class TestExactCyclicDistance:
    def test_near_one_self_loop_sums_exactly(self):
        f = Fst(RealWeight)
        f.add_state()
        f.set_initial_state(0)
        f.add_arc(0, 0, 0.99, "a", "a")
        f.set_final_weight(0, 1.0)
        assert sum_paths(f).value == pytest.approx(100.0, rel=1e-12)

    def test_small_improvement_on_a_cycle_is_kept(self):
        # The second route to state 1 is better by 1e-4, less than the
        # default delta; the cycle through state 0 makes the part cyclic.
        f = Fst(TropicalWeight)
        for _ in range(3):
            f.add_state()
        f.set_initial_state(0)
        f.add_arc(0, 1, 1.0, "a", "a")
        f.add_arc(0, 2, 0.5, "b", "b")
        f.add_arc(2, 1, 0.4999, "c", "c")
        f.add_arc(1, 0, 1.0, "d", "d")
        f.set_final_weight(1, 0.0)
        assert shortest_distance(f)[1].value == 0.9999
        assert shortest_path(f).path.input_str == "bc"

    def test_real_distances_match_a_linear_solve(self, rng):
        np = pytest.importorskip("numpy")
        linalg = pytest.importorskip("scipy.linalg")
        for _ in range(60):
            f = random_cyclic_fst(rng, max_states=12)
            n = f.num_states
            a = np.zeros((n, n))
            rho = np.zeros(n)
            for arc in f.all_arcs():
                a[arc.source, arc.target] += arc.weight.value
            for s, w in f.finals.items():
                rho[s] = w.value
            e = np.zeros(n)
            e[0] = 1.0
            alpha = linalg.solve((np.eye(n) - a).T, e)
            got = np.array([w.value for w in shortest_distance(f)])
            assert np.allclose(got, alpha, rtol=1e-12, atol=1e-15)
            assert sum_paths(f).value == pytest.approx(alpha @ rho, rel=1e-12)

    @pytest.mark.parametrize("semiring, sign, select", [
        (MinWeight, 1.0, min), (TropicalWeight, 1.0, min),
        (MaxWeight, -1.0, max)])
    def test_path_distances_match_enumeration(self, rng, semiring, sign,
                                              select):
        # Weights of one sign, so that no cycle improves a distance.
        for _ in range(60):
            f = small_cyclic_path_fst(rng, semiring, sign)
            best = simple_path_optimum(f, select)
            got = shortest_distance(f)
            for s in f.states():
                want = semiring.zero.value if best[s] is None else best[s]
                assert got[s].value == want

    @pytest.mark.parametrize("semiring, weight", [
        (MinWeight, -1.0), (MaxWeight, 1.0)])
    def test_improving_cycle_names_a_state_on_it(self, semiring, weight):
        # States 1, 2 and 3 form one component; only 2 <-> 3 improves.
        f = Fst(semiring)
        for _ in range(5):
            f.add_state()
        f.set_initial_state(0)
        f.add_arc(0, 1, 0.0, "a", "a")
        f.add_arc(1, 2, -weight, "a", "a")
        f.add_arc(2, 1, -weight, "a", "a")
        f.add_arc(2, 3, weight, "a", "a")
        f.add_arc(3, 2, weight, "a", "a")
        f.add_arc(3, 4, 0.0, "a", "a")
        f.set_final_weight(4, 0.0)
        with pytest.raises(DivergenceError) as exc:
            shortest_distance(f)
        assert exc.value.scc == (1, 2, 3)
        assert exc.value.state in (2, 3)
        assert f"through state {exc.value.state}" in str(exc.value)
        assert isinstance(exc.value, ConvergenceError)

    def test_improving_cycles_are_found_and_named(self, rng):
        # Integer weights, so sums are exact; brute force over the simple
        # cycles tells whether a reachable cycle is negative and whether
        # the named state lies on one.
        raised = 0
        for _ in range(150):
            f = small_cyclic_path_fst(rng, MinWeight, 1.0)
            for s in f.states():
                for k, a in enumerate(f.arcs(s)):
                    plant_arc(f, a._replace(
                        weight=MinWeight(float(rng.randint(-2, 4)))), k)
            reachable = {s for s, w in enumerate(shortest_distance(
                lift(f, BooleanWeight, cast=lambda w: True))) if w.value}
            on_negative = {s for s in reachable
                           if negative_cycle_through(f, s)}
            if not on_negative:
                shortest_distance(f)
                continue
            with pytest.raises(DivergenceError) as exc:
                shortest_distance(f)
            assert exc.value.state in on_negative
            raised += 1
        assert raised > 20

    def test_divergent_cycle_names_its_component(self):
        f = Fst(RealWeight)
        for _ in range(4):
            f.add_state()
        f.set_initial_state(0)
        f.add_arc(0, 1, 0.5, "a", "a")
        f.add_arc(1, 2, 1.0, "a", "a")
        f.add_arc(2, 1, 1.0, "a", "a")
        f.add_arc(2, 3, 0.5, "a", "a")
        f.set_final_weight(3, 1.0)
        with pytest.raises(DivergenceError) as exc:
            sum_paths(f)
        assert exc.value.scc == (1, 2)
        assert "component of 2 states (1, 2)" in str(exc.value)

    @pytest.mark.parametrize("solver", sorted(CYCLE_SOLVERS))
    def test_a_starless_cycle_is_refused_naming_its_component(self, solver):
        with pytest.raises(UnsupportedOperationError) as exc:
            CYCLE_SOLVERS[solver](starless_fst(cyclic=True))
        message = str(exc.value)
        assert message.startswith(
            "the strongly connected component of 2 states (1, 2) has a "
            "cycle, and the starless semiring has neither a star nor an "
            "idempotent plus")
        assert "declare a star classmethod" in message
        assert "'idempotent' semiring property" in message
        assert not isinstance(exc.value, ConvergenceError)

    def test_a_declared_star_solves_starless_cycles_exactly(self,
                                                            monkeypatch):
        machines = [lift(single_scc_real_fst(random.Random(seed), n),
                         StarlessReal) for seed, n in ((61, 12), (62, 40))]
        with pytest.raises(UnsupportedOperationError,
                           match=r"component of 12 states \(0, 1, "):
            sum_paths(machines[0])
        monkeypatch.setattr(StarlessReal, "star", classmethod(
            lambda cls, a: cls(1.0 / (1.0 - a.value))))
        for f in machines:
            n = f.num_states
            a = np.zeros((n, n))
            for arc in f.all_arcs():
                a[arc.source, arc.target] += arc.weight.value
            final = np.array([f.final_weight(s).value for s in range(n)])
            total = linalg.solve(np.eye(n) - a, final)
            forward = linalg.solve((np.eye(n) - a).T, np.eye(n)[f.initial])
            assert sum_paths(f).value == pytest.approx(total[0], rel=1e-12)
            assert [w.value for w in shortest_distance(f)] == \
                pytest.approx(list(forward), rel=1e-12)
        # With the star, the refused machine gives the built-in real answers,
        # bit for bit, at every entry point: one solver on the same floats.
        f = starless_fst(cyclic=True)
        for solver in CYCLE_SOLVERS.values():
            assert solver(f) == solver(lift(f, RealWeight))
        assert sum_paths(f).value == pytest.approx(0.1 + 0.1 / 0.875,
                                                   rel=1e-15)

    def test_a_starless_acyclic_machine_agrees_with_enumeration(self):
        f = starless_fst(cyclic=False)
        want = string_sums(f)
        assert want == pytest.approx({("", ""): 0.1, ("a", "a"): 0.1},
                                     rel=1e-15)
        total = sum(want.values())
        assert sum_paths(f).value == pytest.approx(total, rel=1e-12)
        d = shortest_distance(f)
        assert sum(d[s].value * w.value for s, w in f.finals.items()) == \
            pytest.approx(total, rel=1e-12)
        for g in (remove_epsilon(f), push(f, "initial"), push(f, "final")):
            assert string_sums(g) == pytest.approx(want, rel=1e-12)

    def test_featurized_cycle_that_adds_features_diverges(self):
        f = parse_text("#semiring featurized\n#initial 0\n#states 2\n"
                       "0 1 97 97 -\n1 1 97 97 f:1\n1 -\n")
        with pytest.raises(DivergenceError) as exc:
            sum_paths(f)
        assert exc.value.state == 1
        assert exc.value.scc == (1,)

    def test_featurized_cycle_without_new_features_is_exact(self):
        # The loop adds nothing, so the per-feature maximum is reached
        # without it.
        f = parse_text("#semiring featurized\n#initial 0\n#states 3\n"
                       "0 1 97 97 f:2\n1 2 98 98 -\n2 1 99 99 -\n"
                       "2 g:1\n")
        assert sum_paths(f).text() == "f:2,g:1"

    def test_boolean_distances_are_reachability(self, rng):
        for _ in range(100):
            f = lift(random_cyclic_fst(rng, max_states=8), BooleanWeight,
                     cast=lambda w: True)
            reached, frontier = {f.initial}, [f.initial]
            while frontier:
                for arc in f.arcs(frontier.pop()):
                    if arc.target not in reached:
                        reached.add(arc.target)
                        frontier.append(arc.target)
            assert shortest_distance(f) == [
                BooleanWeight(s in reached) for s in f.states()]

    @pytest.mark.parametrize("semiring, sign", [
        (MinWeight, 1.0), (TropicalWeight, 1.0), (MaxWeight, -1.0)])
    def test_shortest_path_on_cycles_of_weight_one(self, semiring, sign):
        # Weights of one sign: no cycle improves a distance, but cycles
        # of weight one (cost 0) are common, and the walk must not loop.
        rng = random.Random(5)
        accepting = 0
        for _ in range(600):
            f = small_cyclic_path_fst(rng, semiring, sign)
            total = sum_paths(f)
            if total == semiring.zero:
                continue
            accepting += 1
            result = shortest_path(f)
            state = f.initial
            for arc in result.path.arcs:
                assert arc in f.arcs(state)
                state = arc.target
            weight = semiring.one
            for arc in result.path.arcs:
                weight = weight * arc.weight
            assert result.distance == total == weight * f.final_weight(state)
        assert accepting >= 300

    def test_components_are_passed_in_topological_order(self):
        # Two cycles in sequence, reached in an order that is not the
        # order of the state ids: 0 -> {3, 4} -> {1, 2}.
        f = Fst(RealWeight)
        for _ in range(5):
            f.add_state()
        f.set_initial_state(0)
        f.add_arc(0, 3, 1.0, "a", "a")
        f.add_arc(3, 4, 0.5, "a", "a")
        f.add_arc(4, 3, 0.5, "a", "a")
        f.add_arc(4, 1, 1.0, "a", "a")
        f.add_arc(1, 2, 0.5, "a", "a")
        f.add_arc(2, 1, 0.5, "a", "a")
        f.set_final_weight(2, 1.0)
        # Each cycle sums to 1 / (1 - 1/4); entering and crossing it
        # weighs 0.5 of that.
        assert sum_paths(f).value == pytest.approx(
            (0.5 * 4 / 3) * (0.5 * 4 / 3), rel=1e-15)


def random_graph(rng, n):
    """Arcs by state, as (target, weight) pairs to uniform random targets,
    so self-loops, parallel arcs and cycles of every size occur."""
    return [[(rng.randrange(n), 1.0) for _ in range(rng.randrange(4))]
            for _ in range(n)]


def components_oracle(arcs_by_state, sources):
    """The states reachable from ``sources``, each state's strongly
    connected component as a frozenset (mutual reachability in the
    transitive closure), and the set of components that hold a cycle."""
    n = len(arcs_by_state)
    reach = [{s} | {t for t, _ in arcs}
             for s, arcs in enumerate(arcs_by_state)]
    for k in range(n):  # Warshall
        for row in reach:
            if k in row:
                row |= reach[k]
    reachable = set().union(*(reach[s] for s in sources))
    component = {s: frozenset(t for t in reach[s] if s in reach[t])
                 for s in reachable}
    cyclic = {c for s, c in component.items()
              if len(c) > 1 or any(t == s for t, _ in arcs_by_state[s])}
    return reachable, component, cyclic


def reverse_postorder(arcs_by_state, sources):
    """Recursive depth-first search from the sources, and each state's arcs,
    taken last to first; the postorder, reversed."""
    postorder, seen = [], set()

    def visit(s):
        seen.add(s)
        for t, _ in reversed(arcs_by_state[s]):
            if t not in seen:
                visit(t)
        postorder.append(s)

    for s in reversed(sources):
        if s not in seen:
            visit(s)
    return postorder[::-1]


class TestComponents:
    def test_matches_mutual_reachability(self):
        rng = random.Random(14)
        seen_cyclic = seen_unreached = 0
        for _ in range(300):
            n = rng.randint(1, 14)
            graph = random_graph(rng, n)
            sources = dict.fromkeys(
                rng.sample(range(n), rng.randint(1, min(n, 3))))
            order, cyclic = algorithms._components(graph, sources)
            reachable, component, cyclic_oracle = components_oracle(
                graph, sources)
            assert sorted(order) == sorted(reachable)
            position = {s: i for i, s in enumerate(order)}
            for s in order:
                for t, _ in graph[s]:
                    assert (position[t] > position[s]
                            or component[t] == component[s])
            # Each component is one run of consecutive states, sorted.
            runs = [[order[0]]]
            for s in order[1:]:
                if component[s] == component[runs[-1][0]]:
                    runs[-1].append(s)
                else:
                    runs.append([s])
            assert [frozenset(run) for run in runs] == \
                [component[run[0]] for run in runs]
            assert all(run == sorted(run) for run in runs)
            assert len(runs) == len(set(component.values()))
            assert {frozenset(c) for c in cyclic.values()} == cyclic_oracle
            assert all(states == sorted(states) and first == states[0]
                       for first, states in cyclic.items())
            seen_cyclic += bool(cyclic)
            seen_unreached += len(reachable) < n
        assert seen_cyclic > 100 and seen_unreached > 100

    def test_acyclic_order_is_the_reverse_postorder(self):
        # Arcs only to higher ids: siblings keep their arc order.
        rng = random.Random(15)
        for _ in range(200):
            n = rng.randint(1, 14)
            graph = [[(rng.randrange(s + 1, n), 1.0)
                      for _ in range(rng.randrange(4))] if s < n - 1 else []
                     for s in range(n)]
            sources = dict.fromkeys(
                rng.sample(range(n), rng.randint(1, min(n, 3))))
            order, cyclic = algorithms._components(graph, sources)
            assert order == reverse_postorder(graph, sources)
            assert cyclic == {}

    def test_chain_of_two_state_cycles_deeper_than_the_recursion_limit(self):
        # Pair k is 2k <-> 2k+1 (0.5 each way), left by 2k+1 -> 2k+2 (1.5):
        # each pair's paths sum to 0.5 * 1.5 / (1 - 0.25) = 1, and the last
        # pair, ending at its final state 1999, to 0.5 / (1 - 0.25).
        pairs = 1000
        f = Fst(RealWeight)
        for _ in range(2 * pairs):
            f.add_state()
        f.set_initial_state(0)
        for k in range(0, 2 * pairs, 2):
            f.add_arc(k, k + 1, 0.5, "a", "a")
            f.add_arc(k + 1, k, 0.5, "a", "a")
            if k + 2 < 2 * pairs:
                f.add_arc(k + 1, k + 2, 1.5, "a", "a")
        f.set_final_weight(2 * pairs - 1, 1.0)
        assert f.num_states > sys.getrecursionlimit()
        graph = [[(t, 1.0) for t in targets] for targets in
                 ([a.target for a in f.arcs(s)] for s in f.states())]
        order, cyclic = algorithms._components(graph, {0: None})
        assert order == list(range(2 * pairs))
        assert cyclic == {k: [k, k + 1] for k in range(0, 2 * pairs, 2)}
        assert sum_paths(f).value == pytest.approx(2 / 3, rel=1e-12)


def epsilon_machine():
    """Four real states with epsilon arcs 0->1->2, labelled arcs on every
    state but the last, a b:epsilon arc back from 2 to 1, and finals 2
    and 3."""
    f = Fst(RealWeight)
    for _ in range(4):
        f.add_state()
    f.set_initial_state(0)
    f.add_arc(0, 1, 0.5, EPSILON, EPSILON)
    f.add_arc(0, 2, 0.25, "a", "x")
    f.add_arc(1, 2, 0.5, EPSILON, EPSILON)
    f.add_arc(1, 3, 2.0, "b", "b")
    f.add_arc(2, 3, 1.0, "a", "a")
    f.add_arc(2, 1, 4.0, "b", EPSILON)
    f.set_final_weight(2, 0.5)
    f.set_final_weight(3, 1.0)
    return f


HEADER = "#semiring real\n#initial {}\n#states {}\n"

# The rendering of each construction on epsilon_machine(): the numbering
# of states and the order of arcs are part of the answer.
PINNED = {
    "concat": HEADER.format(0, 8) + (
        "0 1 0 0 0.5\n0 2 97 120 0.25\n1 2 0 0 0.5\n1 3 98 98 2\n"
        "2 3 97 97 1\n2 1 98 0 4\n2 4 0 0 0.5\n3 4 0 0 1\n"
        "4 5 0 0 0.5\n4 6 97 120 0.25\n5 6 0 0 0.5\n5 7 98 98 2\n"
        "6 7 97 97 1\n6 5 98 0 4\n6 0.5\n7 1\n"),
    "closure": HEADER.format(0, 5) + (
        "0 1 0 0 1\n1 2 0 0 0.5\n1 3 97 120 0.25\n2 3 0 0 0.5\n"
        "2 4 98 98 2\n3 4 97 97 1\n3 2 98 0 4\n3 0 0 0 0.5\n"
        "4 0 0 0 1\n0 1\n"),
    "reverse": HEADER.format(4, 5) + (
        "1 0 0 0 0.5\n1 2 98 0 4\n2 0 97 120 0.25\n2 1 0 0 0.5\n"
        "3 1 98 98 2\n3 2 97 97 1\n4 2 0 0 0.5\n4 3 0 0 1\n0 1\n"),
    "remove_epsilon": HEADER.format(0, 4) + (
        "0 2 97 120 0.25\n0 3 98 98 1\n0 3 97 97 0.25\n0 1 98 0 1\n"
        "1 3 98 98 2\n1 3 97 97 0.5\n1 1 98 0 2\n2 3 97 97 1\n"
        "2 1 98 0 4\n0 0.125\n1 0.25\n2 0.5\n3 1\n"),
    "determinize": HEADER.format(0, 4) + (
        "0 1 97 97 0.25\n0 2 97 120 0.25\n0 3 98 0 1\n0 1 98 98 1\n"
        "2 1 97 97 1\n2 3 98 0 4\n3 1 97 97 0.5\n3 3 98 0 2\n"
        "3 1 98 98 2\n0 0.125\n1 1\n2 0.5\n3 0.25\n"),
}

CONSTRUCTIONS = {
    "concat": lambda f: concat(f, f),
    "closure": closure,
    "reverse": reverse,
    "remove_epsilon": remove_epsilon,
    "determinize": lambda f: determinize(remove_epsilon(f)),
}


class TestConstructionOrder:
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_rendering_is_pinned(self, name):
        assert render_text(CONSTRUCTIONS[name](epsilon_machine())) == \
            PINNED[name]

    @pytest.mark.parametrize("build", [
        union, concat, lambda a, b: closure(a), lambda a, b: connect(a)],
        ids=["union", "concat", "closure", "connect"])
    def test_operands_are_not_mutated(self, build):
        a, b = epsilon_machine(), fst_from_sequence("ab", RealWeight)
        before = render_text(a), render_text(b)
        out = build(a, b)
        # The result shares no arc list with an operand either.
        for state in out.states():
            out.add_arc(state, state, 3.0, "z", "z")
        out.set_final_weight(0, 7.0)
        assert (render_text(a), render_text(b)) == before


class TestRandomPath:
    def test_single_path_any_seed(self):
        f = fst_from_sequence("abc")
        for seed in range(5):
            assert random_path(f, seed=seed).input_str == "abc"

    @pytest.mark.parametrize("value", [-1, 2.5, math.nan, "3"])
    def test_max_steps_is_an_integer_of_at_least_zero(self, value):
        with pytest.raises(WfstError) as exc:
            random_path(fst_from_sequence("ab"), max_steps=value)
        assert type(exc.value) is WfstError
        assert str(exc.value) == (
            f"max_steps must be an integer of at least 0, got {value!r}")

    def test_deterministic_given_seed(self, troll_fst):
        a = random_path(troll_fst, seed=42)
        b = random_path(troll_fst, seed=42)
        assert a == b

    def test_branch_frequencies(self):
        # Two arcs from the start with weights 1 and 2: the second branch
        # must be taken about 2/3 of the time.
        f = Fst(RealWeight)
        for _ in range(3):
            f.add_state()
        f.set_initial_state(0)
        f.add_arc(0, 1, 1.0, "w", "w")
        f.add_arc(0, 2, 2.0, "t", "t")
        f.set_final_weight(1, 1.0)
        f.set_final_weight(2, 1.0)
        hits = sum(random_path(f, seed=s).input_str == "t"
                   for s in range(10_000))
        assert abs(hits / 10_000 - 2 / 3) < 0.03

    def test_zero_weight_branch_never_taken(self):
        f = Fst(RealWeight)
        for _ in range(3):
            f.add_state()
        f.set_initial_state(0)
        f.add_arc(0, 1, 0.0, "x", "x")
        f.add_arc(0, 2, 1.0, "y", "y")
        f.set_final_weight(1, 1.0)
        f.set_final_weight(2, 1.0)
        for seed in range(200):
            assert random_path(f, seed=seed).input_str == "y"

    def test_dead_end_errors(self):
        f = Fst(RealWeight)
        f.add_state()
        f.add_state()
        f.set_initial_state(0)
        f.add_arc(0, 1, 0.0, "a", "a")
        f.set_final_weight(1, 1.0)
        with pytest.raises(SamplingError):
            random_path(f, seed=0)

    def test_negative_sampling_weight_errors(self):
        f = Fst(RealWeight)
        f.add_state()
        f.add_state()
        f.set_initial_state(0)
        f.add_arc(0, 1, -1.0, "a", "a")
        f.set_final_weight(1, 1.0)
        with pytest.raises(SamplingError):
            random_path(f, seed=0)

    @pytest.mark.parametrize("weights", [
        (math.inf, 1.0),      # an infinite weight outweighs any share
        (1e308, 1e308),       # a finite sum that overflows
    ])
    def test_total_that_is_not_finite_errors(self, weights):
        # Drawing r * inf gave inf, which no running sum exceeds, so the
        # walk used to fall through to the last choice on every seed.
        f = Fst(RealWeight)
        for _ in range(4):
            f.add_state()
        f.set_initial_state(0)
        f.add_arc(0, 1, 1.0, "x", "x")
        f.add_arc(1, 2, weights[0], "a", "a")
        f.add_arc(1, 3, weights[1], "b", "b")
        f.set_final_weight(2, 1.0)
        f.set_final_weight(3, 1.0)
        for seed in range(10):
            with pytest.raises(SamplingError, match=(
                    r"sampling at state 1: its choices' sampling weights "
                    r"sum to inf")):
                random_path(f, seed=seed)

    def test_featurized_without_a_weight_table_is_refused(self):
        # Every choice of such a class weighs zero: refused before a draw.
        text = ("#semiring featurized\n#initial 0\n#states 2\n"
                "0 1 97 97 f:1\n1 -\n")
        for f in (parse_text(text),
                  fst_from_sequence("a", featurized_semiring({}))):
            with pytest.raises(UnsupportedOperationError,
                               match=r"bind one with featurized_semiring"):
                random_path(f, seed=0)
        sr = featurized_semiring({"f": 1.0})
        f = Fst(sr)
        f.add_state()
        f.add_state()
        f.set_initial_state(0)
        f.add_arc(0, 1, sr({"f": 1}), "a", "a")
        f.set_final_weight(1, sr({"f": 1}))
        assert random_path(f, seed=0).input_str == "a"


class TestEquivalence:
    def test_self_equivalence(self, rng):
        f = random_acyclic_fst(rng)
        assert equivalent_by_enumeration(f, f)

    def test_different_words_differ(self):
        assert not equivalent_by_enumeration(fst_from_sequence("hello"),
                                             fst_from_sequence("help"))

    def test_different_weights_differ(self):
        a = fst_from_sequence("x", RealWeight)
        b = fst_from_sequence("x", RealWeight)
        b.set_final_weight(1, 2.0)
        assert not equivalent_by_enumeration(a, b)

    def test_truncated_enumeration_is_refused(self):
        # At max_paths=1 (and so max_length=1) neither side lists a
        # path, so the listed paths alone would compare equal.
        ab_cd = union(fst_from_sequence("ab"), fst_from_sequence("cd"))
        ab_ce = union(fst_from_sequence("ab"), fst_from_sequence("ce"))
        assert not equivalent_by_enumeration(ab_cd, ab_ce)
        for a, b, operand in ((ab_cd, ab_ce, "first"),
                              (fst_from_sequence(""), ab_ce, "second")):
            with pytest.raises(WfstError, match=(
                    f"the enumeration of the {operand} operand truncated "
                    f"at max_paths=1")):
                equivalent_by_enumeration(a, b, max_paths=1)

    def test_nan_path_weight_is_refused(self):
        # inf * 0 makes the one path's weight a NaN, which sum_paths
        # refuses; enumeration once yielded it and compared it unequal.
        f = parse_text("#semiring real\n#initial 0\n#states 3\n"
                       "0 1 97 97 inf\n1 2 98 98 0\n2 1\n")
        message = re.escape(
            "RealWeight(nan) is not a member of the real semiring")
        for run in (sum_paths, enumerate_paths,
                    lambda f: equivalent_by_enumeration(f, f)):
            with pytest.raises(InvalidWeightError, match=message):
                run(f)


def counting_pair(semiring):
    """A real machine with an epsilon cycle (states 0 and 1) and a
    self-loop (state 2), built over ``semiring``."""
    f = Fst(semiring)
    for _ in range(3):
        f.add_state()
    f.set_initial_state(0)
    f.add_arc(0, 1, 0.5, EPSILON, EPSILON)
    f.add_arc(1, 0, 0.25, EPSILON, EPSILON)
    f.add_arc(0, 2, 0.5, "a", "a")
    f.add_arc(1, 2, 0.5, "b", "b")
    f.add_arc(2, 2, 0.3, "a", "a")
    f.set_final_weight(2, 1.0)
    return f


def arc_values(f):
    return [(a.source, a.target, a.input, a.output, a.weight.value)
            for a in f.all_arcs()], {s: w.value for s, w in f.finals.items()}


KERNEL_OPERATIONS = {
    **{name: CYCLE_SOLVERS[name]
       for name in ("sum_paths", "shortest_distance", "remove_epsilon")},
    "compose": lambda f: arc_values(compose(f, f)),
}


class TestFloatKernels:
    """The built-in float semirings run on plain floats; a class has a
    float kernel only if it declares one itself."""

    @pytest.mark.parametrize("operation", sorted(KERNEL_OPERATIONS))
    def test_subclass_operators_are_called(self, operation):
        run = KERNEL_OPERATIONS[operation]
        expected = run(counting_pair(RealWeight))
        machine = counting_pair(CountingWeight)
        CountingWeight.counts.update({"+": 0, "*": 0})
        assert run(machine) == expected
        assert CountingWeight.counts["*"] > 0
        if operation != "compose":  # composition only multiplies
            assert CountingWeight.counts["+"] > 0

    def test_kernels_are_declared_not_inherited(self):
        w = RealWeight(2.0)
        assert _kernel(RealWeight).unbox(w) == 2.0
        boxed = _kernel(TropicalWeight).box(2.0)
        assert type(boxed) is TropicalWeight and boxed.value == 2.0
        for subclass in (CountingWeight, StarlessReal):
            kernel = _kernel(subclass)
            assert kernel.unbox(w) is w
            assert kernel.star == subclass.star

    @pytest.mark.parametrize("semiring",
                             [RealWeight, MinWeight, MaxWeight, TropicalWeight])
    def test_results_are_weights_of_the_machine_semiring(self, semiring):
        # Negated for max, so that no cycle improves.
        sign = -1.0 if semiring is MaxWeight else 1.0
        f = lift(counting_pair(RealWeight), semiring,
                 cast=lambda w: sign * w.value)
        assert all(type(w) is semiring for w in shortest_distance(f))
        assert type(sum_paths(f)) is semiring
        assert all(type(a.weight) is semiring
                   for a in remove_epsilon(f).all_arcs())
        if semiring is not RealWeight:
            assert type(shortest_path(f).distance) is semiring

    @pytest.mark.parametrize("solver", sorted(CYCLE_SOLVERS))
    def test_a_starless_subclass_refuses_only_a_cycle(self, solver):
        # RealWeight's float kernel star solves the cycle that StarlessReal,
        # which inherits no kernel, refuses; without the cycle both answer
        # alike.
        run = CYCLE_SOLVERS[solver]
        cyclic, acyclic = starless_fst(cyclic=True), starless_fst(cyclic=False)
        run(lift(cyclic, RealWeight))
        with pytest.raises(UnsupportedOperationError):
            run(cyclic)
        assert run(acyclic) == run(lift(acyclic, RealWeight))

    def test_single_component_sum_matches_a_linear_solve(self):
        f = single_scc_real_fst(random.Random(60), 60)
        n = f.num_states
        a = np.zeros((n, n))
        for arc in f.all_arcs():
            a[arc.source, arc.target] += arc.weight.value
        final = np.array([f.final_weight(s).value for s in range(n)])
        start = np.eye(n)[f.initial]
        total = linalg.solve(np.eye(n) - a, final)[f.initial]
        forward = linalg.solve((np.eye(n) - a).T, start)
        assert sum_paths(f).value == pytest.approx(total, rel=1e-12)
        assert [w.value for w in shortest_distance(f)] == \
            pytest.approx(list(forward), rel=1e-12)


class PlainReal(RealWeight):
    """RealWeight without a float kernel of its own: the generic kernel."""


class PlainMin(MinWeight):
    """MinWeight without a float kernel of its own: the generic kernel."""


PlainReal.zero, PlainReal.one = PlainReal(0.0), PlainReal(1.0)
PlainMin.zero, PlainMin.one = PlainMin(math.inf), PlainMin(0.0)


def path_values(path):
    arcs, weight = path
    return [tuple(a[:4]) + (a.weight.value,) for a in arcs], weight.value


def enumeration_values(f):
    paths = enumerate_paths(f, max_paths=50)
    return [path_values(path) for path in paths], paths.truncated


def outcome(run, *args):
    """``run(*args)``, or the type and text of the WfstError it raised."""
    try:
        return run(*args)
    except WfstError as exc:
        return type(exc), str(exc)


class TestKernelEquivalence:
    """The float kernels against the generic kernel as an oracle: a
    subclass with no float kernel of its own runs every algorithm on its
    weights' operators, and must get the very same values."""

    @staticmethod
    def machines(semiring, plain, count=30):
        rng = random.Random(17)
        for k in range(count):
            f = random_epsilon_fst(rng, semiring, reachable_cycles=k % 2 == 1)
            yield f, lift(f, plain)

    @pytest.mark.parametrize("semiring, plain", [(RealWeight, PlainReal),
                                                 (MinWeight, PlainMin)])
    def test_algorithms_agree(self, semiring, plain):
        assert _kernel(plain).box is not plain  # the generic kernel
        other = MinWeight if semiring is RealWeight else RealWeight
        runs = [lambda f: arc_values(compose(f, f)),
                lambda f: arc_values(remove_epsilon(f)),
                lambda f: arc_values(determinize(remove_epsilon(f))),
                # A coarse delta, so that subsets merge.
                lambda f: arc_values(determinize(remove_epsilon(f), 0.1)),
                lambda f: arc_values(push(f, "initial")),
                lambda f: arc_values(push(f, "final")),
                lambda f: arc_values(lift(f, other)),
                enumeration_values]
        runs += [lambda f, seed=seed: path_values(random_path(f, seed))
                 for seed in range(5)]
        if semiring is MinWeight:
            runs.append(lambda f: path_values(
                shortest_path(remove_epsilon(f)).path))
        answers = 0
        for fast, slow in self.machines(semiring, plain):
            assert arc_values(slow) == arc_values(fast)
            for run in runs:
                result = outcome(run, fast)
                assert outcome(run, slow) == result
                answers += isinstance(result[0], list)  # not an error
            # The float lift into the generic kernel's class, and back.
            assert arc_values(lift(fast, plain)) == \
                arc_values(lift(slow, semiring))
        assert answers > 0.8 * 30 * len(runs)

    def test_coarse_delta_merges_subsets(self):
        merged = 0
        for fast, _ in self.machines(RealWeight, PlainReal):
            f = remove_epsilon(fast)
            merged += (determinize(f, 0.1).num_states
                       < determinize(f).num_states)
        assert merged > 0

    @pytest.mark.parametrize("semiring",
                             [RealWeight, MinWeight, MaxWeight, TropicalWeight])
    def test_divide_and_quantize_match_the_operators(self, semiring):
        kernel = _kernel(semiring)
        values = [0.0, -0.0, 0.25, -3.5, 2.5, 1e308, 1e-300, math.inf,
                  -math.inf]
        assert repr(kernel.zero) == repr(semiring.zero.value)
        assert repr(kernel.one) == repr(semiring.one.value)
        for a in values:
            score = a if kernel.score is None else kernel.score(a)
            assert repr(score) == repr(semiring(a).sampling_weight())
            for b in values:
                assert repr(semiring(kernel.plus(a, b))) == \
                    repr(semiring(a) + semiring(b))
                assert repr(semiring(kernel.times(a, b))) == \
                    repr(semiring(a) * semiring(b))
                fast = outcome(kernel.divide, a, b)
                slow = outcome(lambda: semiring(a) / semiring(b))
                if isinstance(slow, tuple):  # an error: the same one
                    assert fast == slow
                else:
                    assert repr(semiring(fast)) == repr(slow)
            # Half-even ties (2.5 -> 2, 3.5 -> 4 steps of 1.0), and a
            # quotient that overflows (1e308 / 1e-320) keeps the value.
            for delta in (1.0, 0.5, 0.1, DEFAULT_DELTA, 1e-320):
                fast = kernel.quantize(a, delta)
                assert type(fast) is float
                slow = semiring(a).quantize(delta)
                assert repr(semiring(fast)) == repr(slow)
        assert kernel.quantize(2.5, 1.0) == 2.0
        assert kernel.quantize(3.5, 1.0) == 4.0
        assert kernel.quantize(1e308, 1e-320) == 1e308
        # -0.0 is zero steps, as the weight operator has it: +0.0.
        assert math.copysign(1.0, kernel.quantize(-0.0, 1.0)) == 1.0
        zero = semiring.zero.value
        message = re.escape(f"{semiring.name} division by zero element")
        with pytest.raises(DivisionByZeroError, match=message):
            kernel.divide(1.0, zero)
        # A renamed subclass divides with its base's kernel, whose error
        # names the base.
        renamed = type("Renamed", (semiring,), {"name": "renamed"})
        with pytest.raises(DivisionByZeroError, match=message):
            renamed(1.0) / renamed(zero)
        if semiring is RealWeight:
            # inf / inf is a NaN, which the gate refuses with one text.
            message = re.escape(
                "RealWeight(nan) is not a member of the real semiring")
            with pytest.raises(InvalidWeightError, match=message):
                kernel.checked(kernel.divide(math.inf, math.inf))
            with pytest.raises(InvalidWeightError, match=message):
                RealWeight.cast(RealWeight(math.inf) / RealWeight(math.inf))

    @pytest.mark.parametrize("semiring, arcs, finals", [
        (RealWeight, ["0 1 97 97 0", "0 2 97 97 0", "0 3 98 98 0.5",
                      "3 4 97 97 0", "3 4 98 98 2", "0 5 99 99 0.5",
                      "0 6 99 99 0"], ["1 1", "2 1", "4 0.5", "5 1", "6 1"]),
        (MinWeight, ["0 1 97 97 inf", "0 2 97 97 inf", "0 3 98 98 0.5",
                     "3 4 97 97 inf", "3 4 98 98 2", "0 5 99 99 0.5",
                     "0 6 99 99 inf"], ["1 0", "2 0", "4 0.5", "5 0", "6 0"]),
    ])
    @pytest.mark.parametrize("generic", [False, True])
    def test_determinize_drops_zero_total_label_pairs(self, semiring, arcs,
                                                      finals, generic):
        # Both a-arcs out of state 0, and the a-arc out of state 3, weigh
        # zero, so no path reading a there counts.  The c-arcs total 0.5,
        # so the zero-weighted one stays as a residual.
        f = parse_text(f"#semiring {semiring.name}\n#initial 0\n"
                       f"#states 7\n" + "\n".join(arcs + finals) + "\n")
        if generic:
            f = lift(f, PlainReal if semiring is RealWeight else PlainMin)
        d = determinize(f)
        assert equivalent_by_enumeration(d, f, delta=1e-12)
        assert [a.input for a in d.arcs(d.initial)] == [98, 99]
        assert [a.input for a in d.arcs(d.arcs(d.initial)[0].target)] == [98]

    def test_generic_residuals_pass_member(self):
        class NoHalves(RealWeight):
            """Reals whose member() refuses 0.5, which no NaN test finds,
            and whose quantize keeps its weight without a cast."""

            name = "nohalves"

            def member(self):
                return self.value != 0.5

            def quantize(self, delta=DEFAULT_DELTA):
                return self

        NoHalves.zero, NoHalves.one = NoHalves(0.0), NoHalves(1.0)
        f = Fst(NoHalves)
        for _ in range(4):
            f.add_state()
        f.set_initial_state(0)
        for middle in (1, 2):
            f.add_arc(0, middle, 1.0, "a", "a")
            f.add_arc(middle, 3, 1.0, "b", "b")
        f.set_final_weight(3, 1.0)
        # The residuals after a are 1 / 2; every weight after them is 1.
        with pytest.raises(InvalidWeightError, match=re.escape(
                "NoHalves(0.5) is not a member of the nohalves semiring")):
            determinize(f)

    @pytest.mark.parametrize("semiring", [RealWeight, PlainReal])
    def test_determinize_cancelling_total_still_raises(self, semiring):
        # The a-arcs total zero, but neither weighs zero: the string a
        # weighs 0.5 - 1, so the pair cannot be left out, and there is no
        # total to divide by.
        f = parse_text("#semiring real\n#initial 0\n#states 3\n"
                       "0 1 97 97 0.5\n0 2 97 97 -0.5\n1 1\n2 2\n")
        f = lift(f, semiring)
        with pytest.raises(DivisionByZeroError,
                           match="real division by zero element"):
            determinize(f)

    @pytest.mark.parametrize("semiring",
                             [RealWeight, MinWeight, MaxWeight, TropicalWeight])
    def test_checked_builds_the_weight(self, semiring):
        checked = _kernel(semiring).checked
        for v in (0.0, -0.0, 0.25, -3.5, 1e300, math.inf, -math.inf):
            w = checked(v)
            assert type(w) is semiring and type(w.value) is float
            assert w == semiring(v) and repr(w) == repr(semiring(v))
        with pytest.raises(InvalidWeightError, match=re.escape(
                f"{semiring.__name__}(nan) is not a member of the "
                f"{semiring.name} semiring")):
            checked(math.nan)

    @pytest.mark.parametrize("semiring", [RealWeight, PlainReal])
    def test_nan_products_raise_the_same_text(self, semiring):
        message = re.escape(f"{semiring.__name__}(nan) is not a member of "
                            f"the real semiring")
        a = fst_from_sequence("a", semiring)
        a.add_arc(0, 1, math.inf, "b", "b")
        b = fst_from_sequence("b", semiring)
        b.add_arc(0, 1, 0.0, "b", "b")
        with pytest.raises(InvalidWeightError, match=message):
            compose(a, b)
        f = fst_from_sequence("ab", semiring)
        f.add_arc(0, 1, math.inf, EPSILON, EPSILON)
        plant_arc(f, f.arcs(1)[0]._replace(weight=semiring(0.0)), 0)
        with pytest.raises(InvalidWeightError, match=message):
            remove_epsilon(f)
        # A NaN smuggled past the gate is caught when it is lifted.
        plant_arc(f, f.arcs(0)[0]._replace(weight=semiring(math.nan)), 0)
        with pytest.raises(InvalidWeightError, match=message):
            lift(f, semiring)


class TestFinalValues:
    """Final weights are stored as kernel values, as arc weights are, and
    a final weight equal to zero is never stored."""

    def assert_no_final(self, f, state):
        assert not f.is_final(state) and state not in f.finals
        assert f.final_weight(state) == f.semiring.zero
        text = render_text(f)
        back = parse_text(text)
        assert render_text(back) == text
        assert dict(back.finals) == dict(f.finals) == {}
        assert connect(f).num_states == 0

    def test_lift_leaves_out_a_final_weight_that_lifts_to_zero(self):
        # A cost of 0 is the real 0: the lifted final weight is zero.
        r = lift(fst_from_sequence("ab", MinWeight), RealWeight)
        self.assert_no_final(r, 2)
        assert render_text(r).splitlines()[-1] == "1 2 98 98 0"

    def test_compose_leaves_out_a_final_product_that_underflows(self):
        a = fst_from_sequence("ab", RealWeight)
        a.set_final_weight(2, 1e-200)
        c = compose(a, a)
        assert c.num_states == 3
        self.assert_no_final(c, 2)
        # The restriction that trains on a pair keeps every triple of
        # final states final, a zero product included: the observed
        # machine's final slot (5), the model's (2), the observed's again.
        # Its total is then zero, which the first step refuses.
        restricted = _restrict(a, [a])
        assert restricted[1][0][2] == {2: (5, 2, 5)}
        with pytest.raises(WfstError, match="non-positive total weight 0.0"):
            _losses(a, *restricted)

    @pytest.mark.parametrize("semiring", [RealWeight, MinWeight])
    def test_every_algorithm_stores_float_final_values(self, semiring):
        f = Fst(semiring)
        for _ in range(4):
            f.add_state()
        f.set_initial_state(0)
        for s, t, i, o, w in [(0, 1, "a", "b", 0.5), (0, 2, "a", "a", 0.25),
                              (1, 3, "b", "b", 0.5), (2, 3, "b", "a", 1.0)]:
            f.add_arc(s, t, w, i, o)
        f.set_final_weight(1, 0.5)
        f.set_final_weight(3, 2.0)
        eps_free = remove_epsilon(project(f, "input"))
        for out in [union(f, f), concat(f, f), closure(f),
                    project(f, "input"), invert(f), compose(f, invert(f)),
                    lift(f, RealWeight), remove_epsilon(closure(f)),
                    determinize(eps_free), reverse(f), push(f),
                    push(f, "final"), connect(f)]:
            assert out.validate()
            assert out._finals
            assert all(v.__class__ is float for v in out._finals.values())
