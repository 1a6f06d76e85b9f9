import math
import random

import pytest

from wfst import (
    BooleanWeight,
    FeaturizedWeight,
    Fst,
    MaxWeight,
    MinWeight,
    RealWeight,
    TropicalWeight,
    enumerate_paths,
    fst_from_sequence,
    lift,
    make_diff_semiring,
)
from wfst.errors import (
    InvalidLabelError,
    InvalidStateError,
    InvalidWeightError,
    SemiringMismatchError,
    WfstError,
)
from wfst.fst import EPSILON, Arc, Path, as_label
from conftest import plant_arc, plant_final, random_acyclic_fst


class TestLabels:
    def test_epsilon_is_zero(self):
        assert EPSILON == 0

    def test_char_labels_use_code_points(self):
        assert as_label("h") == 104
        assert as_label("w") == 119

    def test_multichar_string_rejected(self):
        with pytest.raises(InvalidLabelError):
            as_label("ab")

    def test_integers_pass_through(self):
        assert as_label(12345) == 12345

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidLabelError):
            as_label(-1)
        with pytest.raises(InvalidLabelError):
            as_label(2 ** 64)


class TestArc:
    def arc(self, weight=2.0):
        return Arc(0, 1, 97, 98, RealWeight(weight))

    @pytest.mark.parametrize("name", ["source", "target", "input", "output",
                                      "weight", "extra"])
    def test_fields_cannot_be_assigned(self, name):
        arc = self.arc()
        with pytest.raises(AttributeError):
            setattr(arc, name, 5)
        assert arc == self.arc()

    def test_equal_fields_give_equal_arcs_and_hashes(self):
        assert self.arc() == self.arc()
        assert hash(self.arc()) == hash(self.arc())
        assert len({self.arc(), self.arc(), self.arc(3.0)}) == 2
        assert self.arc() != self.arc(3.0)

    def test_repr_names_every_field(self):
        assert repr(self.arc()) == ("Arc(source=0, target=1, input=97, "
                                    "output=98, weight=RealWeight(2.0))")

    def test_is_a_tuple_record(self):
        arc = self.arc()
        assert arc == (0, 1, 97, 98, RealWeight(2.0))
        assert arc._replace(weight=RealWeight(3.0)) == self.arc(3.0)
        assert type(arc._replace(target=4)) is Arc


class TestConstruction:
    def test_new_fst_is_empty(self):
        f = Fst(BooleanWeight)
        assert f.num_states == 0
        assert f.initial is None
        assert not f.finals
        assert len(enumerate_paths(f)) == 0

    def test_add_state_ids_are_consecutive(self):
        f = Fst()
        assert f.add_state() == 0
        for expected in range(1, 6):
            before = f.num_states
            assert f.add_state() == expected
            assert f.num_states == before + 1
        # sixth state carries id 5, like the final state of "hello"
        assert f.num_states == 6

    def test_add_arc_char_labels(self):
        f = Fst(RealWeight)
        f.add_state()
        f.add_state()
        f.add_arc(0, 1, input_label="h", output_label="w")
        arc = f.arcs(0)[0]
        assert (arc.input, arc.output) == (104, 119)

    @pytest.mark.parametrize("semiring", [RealWeight, MinWeight])
    @pytest.mark.parametrize("raw", [True, False], ids=["raw", "weight"])
    def test_nan_weight_is_rejected_where_it_enters(self, semiring, raw):
        nan = float("nan") if raw else semiring(float("nan"))
        f = Fst(semiring)
        f.add_state()
        f.add_state()
        with pytest.raises(InvalidWeightError):
            f.add_arc(0, 1, nan, "a")
        with pytest.raises(InvalidWeightError):
            f.set_final_weight(1, nan)
        assert f.num_arcs == 0 and not f.finals

    def test_add_arc_default_weight_is_one(self):
        f = Fst(RealWeight)
        f.add_state()
        f.add_state()
        f.add_arc(0, 1, input_label="a")
        assert f.arcs(0)[0].weight == RealWeight.one

    def test_default_weight_passes_the_same_gate_as_a_final_weight(self):
        # A subclass that sets no one of its own inherits RealWeight.one,
        # which its cast refuses wherever that weight enters.
        class NoOneReal(RealWeight):
            pass

        f = Fst(NoOneReal)
        f.add_state()
        f.add_state()
        with pytest.raises(SemiringMismatchError):
            f.set_final_weight(1, NoOneReal.one)
        with pytest.raises(SemiringMismatchError):
            f.add_arc(0, 1, input_label="a")
        assert f.num_arcs == 0 and not f.finals

    def test_self_loop(self):
        f = Fst(RealWeight)
        f.add_state()
        f.add_arc(0, 0, 1, "a", "a")
        arc = f.arcs(0)[0]
        assert arc.source == arc.target == 0

    def test_add_arc_unknown_state(self):
        f = Fst()
        f.add_state()
        with pytest.raises(InvalidStateError):
            f.add_arc(0, 3, input_label="a")

    def test_add_arc_boolean_weight_autocast(self):
        f = Fst(RealWeight)
        f.add_state()
        f.add_state()
        f.add_arc(0, 1, BooleanWeight.one, "a")
        assert f.arcs(0)[0].weight == RealWeight.one

    def test_add_arc_foreign_weight_rejected(self):
        from wfst import MinWeight

        f = Fst(RealWeight)
        f.add_state()
        f.add_state()
        with pytest.raises(SemiringMismatchError):
            f.add_arc(0, 1, MinWeight(3), "a")

    def test_set_initial_state_replaces(self):
        f = Fst()
        f.add_state()
        f.add_state()
        f.set_initial_state(0)
        f.set_initial_state(1)
        assert f.initial == 1

    def test_set_initial_unknown_state(self):
        f = Fst()
        with pytest.raises(InvalidStateError):
            f.set_initial_state(0)

    def test_fst_without_initial_accepts_nothing(self):
        f = fst_from_sequence("abc")
        f.initial = None
        assert len(enumerate_paths(f)) == 0

    def test_zero_final_weight_means_non_final(self):
        f = fst_from_sequence("a", RealWeight)
        f.set_final_weight(1, RealWeight.zero)
        assert not f.is_final(1)
        assert len(enumerate_paths(f)) == 0

    def test_multiple_final_states(self):
        f = Fst()
        for _ in range(3):
            f.add_state()
        f.set_initial_state(0)
        f.add_arc(0, 1, input_label="a")
        f.add_arc(0, 2, input_label="b")
        f.set_final_weight(1, True)
        f.set_final_weight(2, True)
        assert sorted(p.input_str for p in enumerate_paths(f)) == ["a", "b"]


class TestFromSequence:
    def test_hello_has_six_states(self):
        f = fst_from_sequence("hello")
        assert f.num_states == 6
        assert f.initial == 0
        assert f.is_final(5)

    def test_empty_sequence(self):
        f = fst_from_sequence("")
        assert f.num_states == 1
        assert f.initial == 0
        assert f.is_final(0)
        paths = enumerate_paths(f)
        assert len(paths) == 1
        assert paths[0].input_str == ""

    def test_aaa_single_path(self):
        f = fst_from_sequence("aaa")
        assert f.num_states == 4
        paths = enumerate_paths(f)
        assert len(paths) == 1
        assert paths[0].output_str == "aaa"

    def test_epsilon_label_rejected(self):
        with pytest.raises(InvalidLabelError):
            fst_from_sequence([0, 1])

    @pytest.mark.parametrize("labels", [None, 5])
    def test_a_non_iterable_is_a_bad_label_sequence(self, labels):
        with pytest.raises(InvalidLabelError) as exc:
            fst_from_sequence(labels)
        assert str(exc.value) == f"bad label sequence {labels!r}"

    def test_first_bad_label_in_order_is_reported(self):
        with pytest.raises(InvalidLabelError, match="reserved for epsilon"):
            fst_from_sequence(iter(["a", 0, "bc"]))
        with pytest.raises(InvalidLabelError, match="single character"):
            fst_from_sequence(["a", "bc", 0])

    @pytest.mark.parametrize("semiring", [BooleanWeight, RealWeight])
    def test_matches_the_chain_built_arc_by_arc(self, semiring):
        labels = ["h", 105, "!", 2 ** 64 - 1]
        f = Fst(semiring)
        f.set_initial_state(f.add_state())
        for label in labels:
            f.add_arc(f.num_states - 1, f.add_state(), None, label, label)
        f.set_final_weight(f.num_states - 1, semiring.one)
        chain = fst_from_sequence(iter(labels), semiring)
        assert chain._arcs == f._arcs
        assert all(type(a) is Arc for a in chain.all_arcs())
        assert (chain.initial, chain.finals) == (f.initial, f.finals)
        assert chain.validate()

    def test_accepts_exactly_its_string(self):
        rng = random.Random(7)
        alphabet = "abcxyz"
        for _ in range(1000):
            s = "".join(rng.choice(alphabet)
                        for _ in range(rng.randint(0, 8)))
            f = fst_from_sequence(s)
            paths = enumerate_paths(f)
            assert len(paths) == 1
            assert paths[0].input_str == s
            assert paths[0].output_str == s


class TestEnumeratePaths:
    def test_troll_machine_paths(self, troll_fst):
        paths = enumerate_paths(troll_fst)
        results = {(p.output_str, p.weight.value) for p in paths}
        assert results == {("world", 6.0), ("troll", 12.0)}
        assert all(p.input_str == "hello" for p in paths)

    def test_path_weight_matches_recomputation(self, rng):
        for _ in range(50):
            f = random_acyclic_fst(rng)
            for path in enumerate_paths(f):
                w = f.semiring.one
                for arc in path.arcs:
                    w = w * arc.weight
                w = w * f.final_weight(path.arcs[-1].target
                                       if path.arcs else f.initial)
                assert w.approx_eq(path.weight, 1e-9)

    def test_path_arcs_chain(self, rng):
        for _ in range(50):
            f = random_acyclic_fst(rng)
            for path in enumerate_paths(f):
                if not path.arcs:
                    continue
                assert path.arcs[0].source == f.initial
                for prev, cur in zip(path.arcs, path.arcs[1:]):
                    assert prev.target == cur.source
                assert f.is_final(path.arcs[-1].target)

    def test_truncation_flag_on_cycles(self):
        f = Fst()
        f.add_state()
        f.set_initial_state(0)
        f.add_arc(0, 0, input_label="a")
        f.set_final_weight(0, True)
        result = enumerate_paths(f, max_paths=10)
        assert isinstance(result, list)
        assert len(result) == 10
        assert result.truncated
        # The first cap hit ends the search: no path at max_paths=0, though
        # the initial state is final; the paths of up to three arcs within
        # three steps; those of up to two arcs at max_length=2.
        for caps, count in (({"max_paths": 0}, 0), ({"max_steps": 3}, 4),
                            ({"max_length": 2}, 3)):
            result = enumerate_paths(f, **caps)
            assert [p.input_str for p in result] == \
                ["a" * k for k in range(count)]
            assert result.truncated

    def test_result_equals_a_list_of_its_paths(self):
        f = fst_from_sequence("ab", RealWeight)
        result = enumerate_paths(f)
        assert result == [Path(tuple(f.all_arcs()), RealWeight.one)]
        assert not result.truncated
        assert enumerate_paths(f, max_paths=2.0) == result

    @pytest.mark.parametrize("cap", ["max_paths", "max_length", "max_steps"])
    @pytest.mark.parametrize("value", [-1, 2.5, math.nan, math.inf, "3"])
    def test_caps_are_integers_of_at_least_zero(self, cap, value):
        message = f"{cap} must be an integer of at least 0, got {value!r}"
        with pytest.raises(WfstError) as exc:
            enumerate_paths(fst_from_sequence("ab"), **{cap: value})
        assert str(exc.value) == message

    def test_deterministic_order(self, rng):
        for _ in range(10):
            f = random_acyclic_fst(rng)
            a = [(p.input_labels, p.output_labels) for p in enumerate_paths(f)]
            b = [(p.input_labels, p.output_labels) for p in enumerate_paths(f)]
            assert a == b


class HalfReal(RealWeight):
    """A real subclass, so it runs on the generic kernel."""


HalfReal.zero = HalfReal(0.0)
HalfReal.one = HalfReal(1.0)

# name -> (semiring factory, two weights, whether the generic kernel runs it)
EDGE_SEMIRINGS = {
    "real": (lambda: RealWeight, 0.5, 2.0, False),
    "min": (lambda: MinWeight, 1.5, math.inf, False),
    "max": (lambda: MaxWeight, -0.25, 3.0, False),
    "tropical": (lambda: TropicalWeight, 0.0, 7.0, False),
    "boolean": (lambda: BooleanWeight, True, False, True),
    "featurized": (lambda: FeaturizedWeight, {"f": 1}, {"g": 2}, True),
    "diff": (make_diff_semiring, 0.5, 2.0, True),
    "subclass": (lambda: HalfReal, 0.5, 2.0, True),
}


class TestPublicEdge:
    """Arcs are stored as kernel values and read back as Arc records."""

    @pytest.mark.parametrize("name", list(EDGE_SEMIRINGS))
    def test_arcs_read_back_as_added(self, name):
        make, first, second, generic = EDGE_SEMIRINGS[name]
        semiring = make()
        first, second = semiring.cast(first), semiring.cast(second)
        f = Fst(semiring)
        for _ in range(3):
            f.add_state()
        f.add_arc(0, 1, first, "a", "b")
        f.add_arc(0, 2, second, "c")
        f.add_arc(1, 2)
        expected = [Arc(0, 1, 97, 98, first), Arc(0, 2, 99, 99, second),
                    Arc(1, 2, EPSILON, EPSILON, semiring.one)]
        read = list(f.all_arcs())
        assert read == expected
        assert [f.arcs(s) for s in f.states()] == \
            [tuple(expected[:2]), (expected[2],), ()]
        assert all(type(a) is Arc and type(a.weight) is semiring
                   for a in read)
        # The generic kernel stores the very weights that were added,
        # which the diff semiring's tape nodes rely on; a float kernel
        # boxes its value anew on each read.
        assert [a.weight is b.weight for a, b in zip(read, expected)] == \
            [generic] * 3

    def test_lift_from_real_to_min_and_back_keeps_every_bit(self):
        values = [0.1, 1e-300, 5e-324, -0.0, 1 / 3, math.inf, 2.0 ** 60]
        f = Fst(RealWeight)
        f.set_initial_state(f.add_state())
        for value in values:
            f.add_arc(0, f.add_state(), value, "a")
        f.set_final_weight(1, 0.5)
        back = lift(lift(f, MinWeight), RealWeight)
        assert [a.weight.value.hex() for a in back.all_arcs()] == \
            [v.hex() for v in values]
        assert back.final_weight(1).value.hex() == (0.5).hex()
        assert list(back.all_arcs()) == list(f.all_arcs())


class TestInvariants:
    def test_validate_after_random_mutations(self, rng):
        for _ in range(100):
            f = random_acyclic_fst(rng)
            assert f.validate()
            assert f.num_states == max(f.states()) + 1

    # A min machine stores its weights as floats, so the raw value
    # planted is an int: a raw float would be a min weight's stored form.
    @pytest.mark.parametrize("weight", [BooleanWeight.one, 1,
                                        TropicalWeight(0.0)],
                             ids=["boolean", "raw", "subclass"])
    def test_validate_catches_weight_of_another_class(self, weight):
        f = fst_from_sequence("a", MinWeight)
        plant_arc(f, Arc(0, 1, 97, 97, weight))
        with pytest.raises(WfstError):
            f.validate()

    def test_validate_catches_nan_weights(self):
        f = fst_from_sequence("a", RealWeight)
        plant_final(f, 1, RealWeight(float("nan")))
        with pytest.raises(InvalidWeightError):
            f.validate()

    def test_validate_catches_bad_target(self):
        f = fst_from_sequence("ab")
        plant_arc(f, Arc(0, 99, 97, 97, BooleanWeight.one))
        with pytest.raises(InvalidStateError):
            f.validate()

    def test_validate_catches_a_list_in_a_shared_table(self):
        # A tuple table is shared, so a list in it would be written
        # through by a machine that shares it.
        f = fst_from_sequence("abc", RealWeight).copy()
        assert type(f._arcs) is tuple and f.validate()
        f._arcs = f._arcs[:2] + (list(f._arcs[2]),) + f._arcs[3:]
        with pytest.raises(InvalidStateError, match="state 2's arcs"):
            f.validate()


def every_builtin_semiring():
    return [BooleanWeight, RealWeight, MinWeight, MaxWeight, TropicalWeight,
            FeaturizedWeight, make_diff_semiring()]


class TestFinals:
    """Final weights are stored as kernel values, like arc weights, and
    read through the read-only ``finals`` mapping."""

    def test_writing_through_finals_raises_type_error(self):
        f = fst_from_sequence("ab", RealWeight)
        with pytest.raises(TypeError):
            f.finals[1] = RealWeight(0.5)
        with pytest.raises(TypeError):
            f.finals[2] = 0.5
        with pytest.raises(TypeError):
            del f.finals[2]
        assert dict(f.finals) == {2: RealWeight.one}

    @pytest.mark.parametrize("semiring", every_builtin_semiring(),
                             ids=lambda sr: sr.name)
    def test_finals_final_weight_and_is_final_agree(self, semiring):
        rng = random.Random(11)
        f = Fst(semiring)
        for _ in range(6):
            f.add_state()
        weights = {s: semiring.random_member(rng) for s in (1, 3, 4)}
        for s, w in weights.items():
            f.set_final_weight(s, w)
        f.set_final_weight(4, semiring.zero)  # non-final again
        del weights[4]
        weights = {s: w for s, w in weights.items() if w != semiring.zero}
        assert dict(f.finals) == weights
        for s in f.states():
            assert f.is_final(s) == (s in f.finals) == (s in weights)
            assert f.final_weight(s) == f.finals.get(s, semiring.zero)
            assert f.final_weight(s).__class__ is semiring

    def test_copy_does_not_share_finals(self):
        f = fst_from_sequence("ab", RealWeight)
        g = f.copy()
        assert g._finals == f._finals and g._finals is not f._finals
        g.set_final_weight(1, 0.5)
        g.set_final_weight(2, 0.0)
        assert dict(f.finals) == {2: RealWeight.one}
        assert dict(g.finals) == {1: RealWeight(0.5)}

    @pytest.mark.parametrize("value", [RealWeight(0.5), 1, BooleanWeight.one],
                             ids=["weight", "raw", "boolean"])
    def test_validate_refuses_a_non_float_final_value(self, value):
        f = fst_from_sequence("a", RealWeight)
        assert f.validate()
        f._finals[1] = value  # a float kernel stores floats only
        with pytest.raises(InvalidWeightError):
            f.validate()

    def test_validate_refuses_a_nan_final_value(self):
        f = fst_from_sequence("a", MinWeight)
        f._finals[1] = math.nan
        with pytest.raises(InvalidWeightError):
            f.validate()

    @pytest.mark.parametrize("weight", [MinWeight(0.5), TropicalWeight(0.5),
                                        make_diff_semiring().constant(0.5)],
                             ids=["min", "tropical", "diff"])
    def test_foreign_final_weight_is_refused(self, weight):
        f = fst_from_sequence("a", RealWeight)
        with pytest.raises(SemiringMismatchError):
            f.set_final_weight(1, weight)
        assert dict(f.finals) == {1: RealWeight.one}
