
import math

import pytest

from wfst import (
    BooleanWeight,
    FeaturizedWeight,
    Fst,
    MaxWeight,
    MinWeight,
    RealWeight,
    TropicalWeight,
    cast_from_boolean,
    closure,
    make_diff_semiring,
    compose,
    concat,
    determinize,
    enumerate_paths,
    equivalent_by_enumeration,
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
    DivergenceError,
    InvalidWeightError,
    NoAcceptingPathError,
    SamplingError,
    SemiringMismatchError,
    UnsupportedOperationError,
    WfstError,
)
from wfst.fst import EPSILON, Arc
from wfst.io import parse_text, render_text
from conftest import (random_acyclic_fst, random_boolean_fst,
                      random_cyclic_fst)


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
        assert render_text(union(a, b)) == (
            "#semiring real\n#initial 0\n#states 6\n"
            "0 1 0 0 1\n0 4 0 0 1\n1 2 97 97 1\n2 3 98 98 1\n"
            "4 5 99 99 1\n5 5 99 100 0.25\n3 0.5\n5 1\n")

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
        a._arcs[0][0] = a._arcs[0][0].__class__(0, 1, 97, 97, weight_half)
        c = closure(a)
        by_string = {p.input_str: p.weight.value
                     for p in enumerate_paths(c, max_paths=40, max_length=12)}
        assert by_string["aaa"] == pytest.approx(0.125)


class TestCompose:
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
            r = remove_epsilon(f, delta=1e-13)
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
        assert r.num_arcs == n - 1
        # A scan of all n states per closure would compare n * n times.
        assert CountingWeight.counts["*"] < 4 * f.num_arcs
        assert CountingWeight.counts["=="] < 4 * f.num_arcs

    def test_epsilon_free_closures_need_no_sums(self):
        f = fst_from_sequence("a" * 499, CountingWeight)
        CountingWeight.counts["+"] = 0
        r = remove_epsilon(f)
        assert render_text(r) == render_text(f)
        # The final weight of the one final state is the only sum; a
        # distance pass per closure would add zero + one for each state.
        assert CountingWeight.counts["+"] == 1


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
        from wfst.fst import Arc

        f._arcs[0][0] = Arc(0, 1, 97, 97, RealWeight(2.0))
        f._arcs[1][0] = Arc(1, 2, 98, 98, RealWeight(3.0))
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
        f._arcs[0][0] = Arc(0, 1, 97, 97, RealWeight(float("nan")))
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
        assert sum_paths(f, delta=1e-9).value == pytest.approx(2.0, abs=1e-6)

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
        # The accepting path weighs less than the 1/1024 cut-off of the
        # cyclic relaxation; the cycle cannot be reached, so the exact
        # topological pass applies.
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
            f._arcs = [[a._replace(weight=MinWeight(float(rng.randint(-2, 4))))
                        for a in arcs] for arcs in f._arcs]
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

    def test_relaxation_cap_names_component_and_residual(self):
        # Featurized weights have no star: a growing cycle is relaxed
        # until the sweep cap.
        f = Fst(FeaturizedWeight)
        f.add_state()
        f.add_state()
        f.set_initial_state(0)
        f.add_arc(0, 1, {}, "a", "a")
        f.add_arc(1, 1, {"f": 1}, "a", "a")
        f.set_final_weight(1, {})
        with pytest.raises(ConvergenceError) as exc:
            sum_paths(f)
        assert not isinstance(exc.value, DivergenceError)
        assert exc.value.scc == (1,)
        assert exc.value.residual is not None
        assert "last residual" in str(exc.value)
        assert "component of 1 state (1)" in str(exc.value)

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
        union, concat, lambda a, b: closure(a)],
        ids=["union", "concat", "closure"])
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
