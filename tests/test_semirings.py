import math
import operator
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import wfst
from wfst import (
    BUILTIN_SEMIRINGS,
    BooleanWeight,
    FeaturizedWeight,
    MaxWeight,
    MinWeight,
    RealWeight,
    TropicalWeight,
    check_semiring_axioms,
    featurized_semiring,
    make_diff_semiring,
)
from wfst.errors import (
    DivisionByZeroError,
    InvalidWeightError,
    SemiringMismatchError,
    UnsupportedOperationError,
    WfstError,
)
from wfst.semirings import DEFAULT_DELTA, AbstractSemiringWeight

ALL_SEMIRINGS = [BooleanWeight, RealWeight, MinWeight, MaxWeight,
                 TropicalWeight, FeaturizedWeight]
NUMERIC = [RealWeight, MinWeight, MaxWeight, TropicalWeight]


class TestPlusTimes:
    def test_real_plus_groups_path_weights(self):
        assert (RealWeight(6) + RealWeight(12)).value == 18

    def test_real_plus_identity(self, rng):
        for _ in range(50):
            x = RealWeight.random_member(rng)
            assert (x + RealWeight.zero) == x

    def test_min_plus_is_min(self):
        assert (MinWeight(3) + MinWeight(5)).value == 3

    def test_real_times_world_path(self):
        weights = [1, 1, 1, 2, 1, 3]
        product = RealWeight.one
        for w in weights:
            product = product * RealWeight(w)
        assert product.value == 6

    def test_real_times_troll_path(self):
        weights = [1, 1, 1, 2, 2, 3]
        product = RealWeight.one
        for w in weights:
            product = product * RealWeight(w)
        assert product.value == 12

    @pytest.mark.parametrize("semiring", ALL_SEMIRINGS)
    def test_times_identity(self, semiring, rng):
        for _ in range(50):
            x = semiring.random_member(rng)
            assert (x * semiring.one) == x

    def test_mixed_semiring_plus_rejected(self):
        with pytest.raises(SemiringMismatchError):
            RealWeight(1) + MinWeight(1)
        with pytest.raises(SemiringMismatchError):
            MinWeight(1) * TropicalWeight(1)

    def test_boolean_autocast_in_plus_and_times(self):
        assert (RealWeight(2) + BooleanWeight.one).value == 3
        assert (BooleanWeight.one * RealWeight(2)).value == 2
        assert (BooleanWeight.zero + MinWeight(4)).value == 4
        # Division promotes a boolean left operand the same way.
        assert BooleanWeight.one / RealWeight(0.5) == RealWeight(2)
        assert RealWeight(0.5) / BooleanWeight.one == RealWeight(0.5)
        assert BooleanWeight.one / MinWeight(3) == MinWeight(-3)
        # A non-weight right operand is a mismatch under every operator.
        for op in (operator.add, operator.mul, operator.truediv):
            for left, right in ((BooleanWeight.one, 1), (RealWeight(1), 1),
                                (BooleanWeight.zero, None)):
                with pytest.raises(SemiringMismatchError):
                    op(left, right)


class TestDivide:
    def test_real_division(self):
        assert (RealWeight(6) / RealWeight(2)).value == 3

    def test_tropical_division_is_subtraction(self):
        # Solves x (*) 2 = 5 in <min, +>.
        x = TropicalWeight(5) / TropicalWeight(2)
        assert x.value == 3
        assert (x * TropicalWeight(2)) == TropicalWeight(5)

    @pytest.mark.parametrize("semiring", NUMERIC)
    def test_divide_by_one_is_identity(self, semiring, rng):
        for _ in range(20):
            x = semiring.random_member(rng)
            assert (x / semiring.one) == x

    @pytest.mark.parametrize("semiring", ALL_SEMIRINGS)
    def test_divide_by_zero_rejected(self, semiring):
        with pytest.raises(DivisionByZeroError):
            semiring.one / semiring.zero

    def test_divide_times_round_trips(self, rng):
        for _ in range(100):
            a = RealWeight.random_member(rng)
            b = RealWeight.random_member(rng)
            if abs(b.value) < 1e-6:
                continue
            assert ((a / b) * b).approx_eq(a)

    def test_unsupported_division_errors(self):
        with pytest.raises(UnsupportedOperationError):
            AbstractSemiringWeight().__truediv__(None)

    def test_featurized_division_subtracts_counts(self):
        a = FeaturizedWeight({"f": 3, "g": 1})
        b = FeaturizedWeight({"f": 1})
        assert (a / b) == FeaturizedWeight({"f": 2, "g": 1})
        with pytest.raises(InvalidWeightError):
            b / a


class TestPower:
    def test_real_power(self):
        assert (RealWeight(2) ** 3).value == 8

    def test_tropical_power_is_repeated_addition(self):
        assert (TropicalWeight(2) ** 3).value == 6

    @pytest.mark.parametrize("semiring", ALL_SEMIRINGS)
    def test_power_zero_is_one(self, semiring, rng):
        a = semiring.random_member(rng)
        assert (a ** 0) == semiring.one

    @pytest.mark.parametrize("semiring", ALL_SEMIRINGS)
    def test_power_matches_repeated_times(self, semiring, rng):
        for _ in range(20):
            a = semiring.random_member(rng)
            product = semiring.one
            for n in range(4):
                assert (a ** n).approx_eq(product)
                product = product * a

    @pytest.mark.parametrize("semiring", ALL_SEMIRINGS)
    @pytest.mark.parametrize("n", [-1, 0.5, math.nan, math.inf, "2", None])
    def test_exponent_is_an_integer_of_at_least_zero(self, semiring, n):
        message = (f"the exponent of a {semiring.name} power must be an "
                   f"integer of at least 0, got {n!r}")
        with pytest.raises(UnsupportedOperationError) as exc:
            semiring.one ** n
        assert str(exc.value) == message

    @pytest.mark.parametrize("semiring", ALL_SEMIRINGS)
    def test_integral_float_exponent(self, semiring, rng):
        a = semiring.random_member(rng)
        assert a ** 2.0 == a ** 2

    def test_real_power_of_a_negative_base(self):
        assert RealWeight(-2) ** 3 == RealWeight(-8)
        with pytest.raises(UnsupportedOperationError):
            RealWeight(-2) ** 0.5

    def test_real_power_overflows_to_a_signed_infinity(self):
        # As *: 1e200 * 1e200 is inf, and 1e200 * -1e200 is -inf.
        assert RealWeight(10) ** 400 == RealWeight(math.inf)
        assert RealWeight(-10) ** 401 == RealWeight(-math.inf)
        assert RealWeight(-10) ** 400 == RealWeight(math.inf)
        assert RealWeight(0.1) ** 400 == RealWeight(0.1 ** 400)
        # Past the float range, the exact power rounded to a float, its
        # sign by parity (float(2 ** 53 + 1) is even; 10 ** 400 is no float).
        huge = 10 ** 400
        assert RealWeight(2) ** huge == RealWeight(math.inf)
        assert RealWeight(0.5) ** huge == RealWeight(0.0)
        assert RealWeight(-2) ** huge == RealWeight(math.inf)
        assert RealWeight(-2) ** (huge + 1) == RealWeight(-math.inf)
        assert RealWeight(-2) ** (2 ** 53 + 1) == RealWeight(-math.inf)
        assert RealWeight(-1) ** (huge + 1) == RealWeight(-1)
        assert RealWeight(1) ** huge == RealWeight(1)
        assert math.copysign(1, (RealWeight(-0.5) ** (huge + 1)).value) == -1

    @pytest.mark.parametrize("semiring", [MinWeight, TropicalWeight, MaxWeight])
    def test_infinite_path_power_is_zero_from_two_on(self, semiring):
        # The infinity that is not zero: a * a is zero, and so is a ** n.
        a = semiring(-semiring.zero.value)
        assert a ** 1 == a
        assert a ** 2 == a * a == semiring.zero
        assert a ** 3 == a * a * a == semiring.zero

    def test_diff_power_keeps_real_exponents(self):
        sr = make_diff_semiring()
        x = sr(sr.tape.parameter(4.0))
        root = x ** 0.5
        assert root.value == 2.0
        assert sr.tape.backward(root.node)[x.node.node_id] == 0.25

    @pytest.mark.parametrize("n", [-1, -0.5, math.nan, math.inf, "2", None])
    def test_diff_exponent_is_a_finite_real_of_at_least_zero(self, n):
        sr = make_diff_semiring()
        message = ("the exponent of a diff power must be a finite number "
                   f"of at least 0, got {n!r}")
        with pytest.raises(UnsupportedOperationError) as exc:
            sr.constant(2.0) ** n
        assert str(exc.value) == message

    def test_diff_power_of_a_negative_base_must_be_real(self):
        sr = make_diff_semiring()
        assert (sr.constant(-2.0) ** 3).value == -8.0
        assert (sr.constant(-2.0) ** 2.0).value == 4.0
        with pytest.raises(UnsupportedOperationError) as exc:
            sr.constant(-2.0) ** 0.5
        assert str(exc.value) == "DiffWeight(-2.0) ** 0.5 is not a real number"

    def test_diff_power_past_the_float_range_rounds_as_real_weights(self):
        # The value is RealWeight's **, and the partial n·x ** (n - 1) is
        # the exact product of n and RealWeight's x ** (n - 1), rounded.
        def rounded(x, n):
            if not math.isfinite(x):
                return x
            try:
                return float(Fraction(x) * n)
            except OverflowError:
                return math.copysign(math.inf, x)

        sr = make_diff_semiring()
        huge = 10 ** 400
        for base in (2.0, 0.5, -2.0, -1.0, 1.0, -0.5, 0.0):
            for n in (huge, huge + 1, 2 ** 53 + 1):
                x = sr(sr.tape.parameter(base))
                power = x ** n
                assert power.value == (RealWeight(base) ** n).value
                partial = rounded((RealWeight(base) ** (n - 1)).value, n)
                assert sr.tape.backward(power.node)[x.node.node_id] == partial

    def test_diff_power_partial_at_zero_below_one_is_infinite(self):
        sr = make_diff_semiring()
        x = sr(sr.tape.parameter(0.0))
        root = x ** 0.5
        assert root.value == 0.0
        assert sr.tape.backward(root.node)[x.node.node_id] == math.inf


class TestAxiomCheckArguments:
    @pytest.mark.parametrize("name", ["sample_count", "max_violations"])
    @pytest.mark.parametrize("value", [-1, 2.5, math.nan, "3"])
    def test_counts_are_integers_of_at_least_zero(self, name, value):
        with pytest.raises(WfstError) as exc:
            check_semiring_axioms(RealWeight, **{name: value})
        assert type(exc.value) is WfstError
        assert str(exc.value) == (
            f"{name} must be an integer of at least 0, got {value!r}")


class TestApproxEqQuantize:
    def test_below_default_delta(self):
        assert RealWeight(1.0).approx_eq(RealWeight(1.0 + 1 / 4096))

    def test_above_delta(self):
        assert not RealWeight(1.0).approx_eq(RealWeight(1.5))

    def test_boolean_exact(self):
        assert BooleanWeight.one.approx_eq(BooleanWeight.one)
        assert not BooleanWeight.one.approx_eq(BooleanWeight.zero)

    def test_quantize_rounds_to_grid(self):
        q = RealWeight(0.10009765625).quantize()
        assert q.value in (0.099609375, 0.1005859375)
        # half-even: 102.5 * delta rounds to the even grid point 102.
        assert RealWeight(102.5 / 1024).quantize().value == 102 / 1024

    def test_quantize_fixed_point(self):
        v = 37 * DEFAULT_DELTA
        assert RealWeight(v).quantize().value == v

    def test_quantize_idempotent(self, rng):
        for _ in range(200):
            a = RealWeight.random_member(rng)
            assert a.quantize().quantize() == a.quantize()

    def test_boolean_quantize_identity(self):
        assert BooleanWeight.one.quantize() == BooleanWeight.one

    @given(st.floats(-1e6, 1e6))
    def test_quantize_within_delta(self, value):
        q = RealWeight(value).quantize()
        assert abs(q.value - value) <= DEFAULT_DELTA / 2 + 1e-9


class TestMember:
    def test_nan_not_member(self):
        assert not RealWeight(float("nan")).member()

    def test_plain_real_member(self):
        assert RealWeight(1.5).member()

    def test_min_zero_is_member(self):
        assert MinWeight(math.inf).member()
        assert MinWeight.zero.member()


class TestReverseSampling:
    @pytest.mark.parametrize("semiring", ALL_SEMIRINGS)
    def test_reverse_is_identity_for_commutative(self, semiring, rng):
        for _ in range(20):
            a = semiring.random_member(rng)
            assert a.reverse() == a

    def test_real_samples_as_itself(self):
        assert RealWeight(0.5).sampling_weight() == 0.5

    def test_boolean_sampling(self):
        assert BooleanWeight.one.sampling_weight() == 1.0
        assert BooleanWeight.zero.sampling_weight() == 0.0

    def test_featurized_sampling_dot_product(self):
        semiring = featurized_semiring({"f": 2})
        assert semiring({"f": 3}).sampling_weight() == 6
        assert semiring({"f": 3, "unknown": 5}).sampling_weight() == 6
        assert semiring.zero.sampling_weight() == 0.0


class TestFeaturized:
    def test_plus_takes_per_feature_max(self):
        a = FeaturizedWeight({"f": 2, "g": 1})
        b = FeaturizedWeight({"f": 1, "h": 4})
        assert (a + b) == FeaturizedWeight({"f": 2, "g": 1, "h": 4})

    def test_times_sums_counts(self):
        a = FeaturizedWeight({"f": 2})
        b = FeaturizedWeight({"f": 1, "h": 4})
        assert (a * b) == FeaturizedWeight({"f": 3, "h": 4})

    def test_zero_is_absorbing_and_identity(self):
        a = FeaturizedWeight({"f": 2})
        assert (FeaturizedWeight.zero + a) == a
        assert (FeaturizedWeight.zero * a) == FeaturizedWeight.zero
        assert FeaturizedWeight.zero != FeaturizedWeight.one

    def test_one_is_empty_multiset(self):
        assert FeaturizedWeight.one == FeaturizedWeight({})

    def test_negative_counts_rejected(self):
        with pytest.raises(InvalidWeightError):
            FeaturizedWeight({"f": -1})

    def test_approx_eq_is_count_distance(self):
        a = FeaturizedWeight({"f": 2})
        assert a.approx_eq(FeaturizedWeight({"f": 2}))
        assert not a.approx_eq(FeaturizedWeight({"f": 3}))
        assert not a.approx_eq(FeaturizedWeight.zero)

    def test_bound_table_independent_of_global(self):
        table = {"f": 10}
        semiring = featurized_semiring(table)
        assert semiring({"f": 1}).sampling_weight() == 10
        assert FeaturizedWeight({"f": 1}).sampling_weight() == 0

    def test_the_builtin_table_is_read_only(self):
        # featurized_semiring(table) is the one way to weight features.
        with pytest.raises(TypeError):
            FeaturizedWeight.weight_table["f"] = 1.0
        assert dict(FeaturizedWeight.weight_table) == {}
        assert not hasattr(wfst.semirings, "feature_weights")


class TestDescriptor:
    def test_path_property_flags(self):
        for semiring in (MinWeight, MaxWeight, TropicalWeight):
            assert "path" in semiring.descriptor().properties
        for semiring in (BooleanWeight, RealWeight, FeaturizedWeight):
            assert "path" not in semiring.descriptor().properties

    def test_idempotent_property_flags(self):
        for semiring in ALL_SEMIRINGS:
            properties = semiring.descriptor().properties
            assert ("idempotent" in properties) == (semiring is not RealWeight)

    def test_exactly_one_boolean(self):
        booleans = [s for s in ALL_SEMIRINGS if s.descriptor().is_boolean]
        assert booleans == [BooleanWeight]


class TestAxiomSuite:
    @pytest.mark.parametrize("semiring", ALL_SEMIRINGS)
    def test_builtins_pass_1000_samples(self, semiring):
        report = check_semiring_axioms(semiring, sample_count=1000)
        assert report.ok, [str(v) for v in report.violations]

    def test_broken_plus_reports_violation_with_witness(self):
        class BrokenWeight(RealWeight):
            name = "broken"

            def __add__(self, other):
                other = self._coerce(other)
                return BrokenWeight(self.value - other.value)

        BrokenWeight.zero = BrokenWeight(0.0)
        BrokenWeight.one = BrokenWeight(1.0)
        report = check_semiring_axioms(BrokenWeight, sample_count=200)
        assert not report.ok
        axioms = {v.axiom for v in report.violations}
        assert "plus associativity" in axioms
        assert all(v.witnesses for v in report.violations)

    def test_false_idempotent_claim_is_reported(self):
        class ClaimsIdempotent(RealWeight):
            name = "claims-idempotent"
            semiring_properties = frozenset({"base", "idempotent"})

        ClaimsIdempotent.zero = ClaimsIdempotent(0.0)
        ClaimsIdempotent.one = ClaimsIdempotent(1.0)
        report = check_semiring_axioms(ClaimsIdempotent, sample_count=200)
        assert {v.axiom for v in report.violations} == {"plus idempotence"}

    @pytest.mark.parametrize("semiring", [MinWeight, MaxWeight, TropicalWeight])
    def test_path_total_order(self, semiring, rng):
        for _ in range(500):
            a = semiring.random_member(rng)
            b = semiring.random_member(rng)
            s = a + b
            assert s == a or s == b


class TestHashEq:
    @pytest.mark.parametrize("semiring", ALL_SEMIRINGS)
    def test_eq_implies_same_hash(self, semiring, rng):
        seen = {}
        for _ in range(10_000 // len(ALL_SEMIRINGS)):
            a = semiring.random_member(rng)
            b = semiring.random_member(rng)
            if a == b:
                assert hash(a) == hash(b)
            seen[a] = True

    def test_min_and_tropical_are_distinct_semirings(self):
        assert MinWeight(1) != TropicalWeight(1)


def _equality_pairs():
    """(left, right) weights of two different semirings that carry the
    same value, and same-class pairs that must stay equal."""
    bound = featurized_semiring({"a": 1.0})
    d1, d2 = make_diff_semiring(), make_diff_semiring()
    unequal = {
        "featurized-vs-bound": (bound({"a": 1}), FeaturizedWeight({"a": 1})),
        "featurized-one-vs-bound-one": (bound.one, FeaturizedWeight.one),
        "featurized-zero-vs-bound-zero": (bound.zero, FeaturizedWeight.zero),
        "bound-vs-bound": (bound({"a": 1}),
                           featurized_semiring({"a": 1.0})({"a": 1})),
        "diff-two-tapes": (d1.constant(2.0), d2.constant(2.0)),
        "diff-vs-real": (d1.constant(2.0), RealWeight(2.0)),
        "min-vs-tropical": (MinWeight(1), TropicalWeight(1)),
        "real-vs-min": (RealWeight(0.0), MinWeight(0.0)),
    }
    equal = {
        "bound-same-class": (bound({"a": 1}), bound({"a": 1})),
        "diff-same-tape": (d1.parameter(2.0), d1.constant(2.0)),
        "featurized-zero": (FeaturizedWeight.zero, FeaturizedWeight.zero),
    }
    return unequal, equal


UNEQUAL_PAIRS, EQUAL_PAIRS = _equality_pairs()


class TestExactClassEquality:
    """== holds only within one weight class, which is exactly when +
    between the two operands is defined."""

    @pytest.mark.parametrize("pair", UNEQUAL_PAIRS.values(),
                             ids=UNEQUAL_PAIRS.keys())
    def test_different_semirings_compare_unequal(self, pair):
        left, right = pair
        assert left != right and right != left
        assert not left == right
        assert len({left, right}) == 2
        with pytest.raises(SemiringMismatchError):
            left + right

    @pytest.mark.parametrize("pair", EQUAL_PAIRS.values(),
                             ids=EQUAL_PAIRS.keys())
    def test_same_semiring_compares_by_value(self, pair):
        left, right = pair
        assert left == right and hash(left) == hash(right)

    def test_featurized_zero_differs_from_one(self):
        assert FeaturizedWeight.zero != FeaturizedWeight.one


class TestCastGate:
    @pytest.mark.parametrize("semiring", NUMERIC + [make_diff_semiring()],
                             ids=lambda cls: cls.name)
    def test_nan_is_rejected(self, semiring):
        with pytest.raises(InvalidWeightError):
            semiring.cast(float("nan"))

    @pytest.mark.parametrize("semiring", NUMERIC, ids=lambda cls: cls.name)
    def test_nan_weight_of_the_same_class_is_rejected(self, semiring):
        with pytest.raises(InvalidWeightError):
            semiring.cast(semiring(float("nan")))

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_infinities_are_members(self, value):
        assert RealWeight.cast(value).value == value


class TestRawConstruction:
    @pytest.mark.parametrize("semiring", NUMERIC, ids=lambda cls: cls.name)
    @pytest.mark.parametrize("value", ["x", None, 1j, [1.0]])
    def test_a_non_number_raises_what_cast_raises(self, semiring, value):
        with pytest.raises(SemiringMismatchError) as want:
            semiring.cast(value)
        with pytest.raises(SemiringMismatchError) as got:
            semiring(value)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("semiring", NUMERIC, ids=lambda cls: cls.name)
    def test_a_bool_is_one_or_zero_as_cast_reads_it(self, semiring):
        # MinWeight(True) was a cost of 1 and MaxWeight(False) max's one.
        assert semiring(True) == semiring.cast(True) == semiring.one
        assert semiring(False) == semiring.cast(False) == semiring.zero
        assert type(semiring(True).value) is float

    @pytest.mark.parametrize("semiring", NUMERIC, ids=lambda cls: cls.name)
    @pytest.mark.parametrize("value", ["1.5", "inf", b"2", Decimal("1.5")])
    def test_a_numeric_string_raises_what_cast_raises(self, semiring, value):
        # RealWeight("1.5") was RealWeight(1.5).
        with pytest.raises(SemiringMismatchError) as want:
            semiring.cast(value)
        with pytest.raises(SemiringMismatchError) as got:
            semiring(value)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("semiring", NUMERIC, ids=lambda cls: cls.name)
    @pytest.mark.parametrize("value", [2, 2.5, Fraction(5, 2), -math.inf])
    def test_a_real_number_is_its_float(self, semiring, value):
        weight = semiring(value)
        assert type(weight.value) is float and weight.value == float(value)
        assert weight == semiring.cast(value)

    def test_the_diff_semiring_is_unaffected(self):
        sr = make_diff_semiring()
        assert sr.cast(True) is sr.one and sr.cast(False) is sr.zero
        node = sr.tape.constant(1.5)
        assert sr(node).node is node and sr(node).value == 1.5
        with pytest.raises(SemiringMismatchError):
            sr.cast("1.5")


class TestDiffIsNumeric:
    def test_diff_reuses_the_numeric_weight_rules(self):
        from wfst.autodiff import _DiffWeightBase
        from wfst.semirings import _NumericWeight

        assert issubclass(_DiffWeightBase, _NumericWeight)
        for name in ("value", "__eq__", "__hash__", "__repr__",
                     "approx_eq", "member"):
            assert name not in _DiffWeightBase.__dict__, name

    def test_quantize_records_a_constant_of_the_same_class(self):
        sr = make_diff_semiring()
        x = sr.parameter(1.0 + DEFAULT_DELTA / 3)
        size = len(sr.tape.nodes)
        q = x.quantize()
        assert type(q) is sr and q.value == 1.0
        assert len(sr.tape.nodes) == size + 1
        assert sr.constant(math.inf).quantize().value == math.inf

    def test_text_and_repr_are_unchanged(self):
        w = make_diff_semiring().constant(2.0)
        assert w.text() == str(w) == "2.0"
        assert repr(w) == "DiffWeight(2.0)"
        assert w.approx_eq(type(w).constant(2.0 + DEFAULT_DELTA / 2))


PATH_SEMIRINGS = [(MinWeight, min, math.inf), (TropicalWeight, min, math.inf),
                  (MaxWeight, max, -math.inf)]
PATH_VALUES = [-math.inf, -2.5, 0.0, 3.0, math.inf]


class TestPathSemiringTable:
    """Pins +, *, / and ** of the path semirings on every pair of values,
    infinities included, against their closed forms."""

    @pytest.mark.parametrize("semiring, select, zero", PATH_SEMIRINGS)
    @pytest.mark.parametrize("a", PATH_VALUES)
    @pytest.mark.parametrize("b", PATH_VALUES)
    def test_plus_times_divide(self, semiring, select, zero, a, b):
        x, y = semiring(a), semiring(b)
        plus, times = x + y, x * y
        assert type(plus) is semiring and plus.value == select(a, b)
        # Any infinite operand gives zero, even the opposite infinity.
        expected = zero if math.isinf(a) or math.isinf(b) else a + b
        assert type(times) is semiring and times.value == expected
        if b == zero:
            with pytest.raises(DivisionByZeroError):
                x / y
            return
        quotient = x / y
        expected = a if math.isinf(a) else a - b
        assert type(quotient) is semiring and quotient.value == expected

    @pytest.mark.parametrize("semiring, select, zero", PATH_SEMIRINGS)
    @pytest.mark.parametrize("a", PATH_VALUES)
    @pytest.mark.parametrize("n", [
        0, 1, 2, 3, pytest.param(10 ** 400, id="10**400"),
        pytest.param(10 ** 400 + 1, id="10**400+1")])
    def test_power(self, semiring, select, zero, a, n):
        result = semiring(a) ** n
        assert type(result) is semiring
        # a * n, which past the float range is an infinity unless a is 0.
        expected = (0.0 if n == 0 else a * n if n < 4
                    else math.copysign(math.inf, a) if a else 0.0)
        if n > 1 and math.isinf(expected):  # as a * a: an infinite factor
            expected = zero
        assert result.value == expected
        with pytest.raises(UnsupportedOperationError):
            semiring(a) ** -1


class TestPathTimes:
    @pytest.mark.parametrize("semiring, select, zero", PATH_SEMIRINGS)
    def test_one_finiteness_test_keeps_the_rule_bit_for_bit(
            self, semiring, select, zero):
        def rule(a, b):
            # The rule as first written, with two infinity tests: zero
            # for an infinite operand (inf + -inf included), else the
            # sum, which keeps the infinity of a finite overflow.
            if math.isinf(a) or math.isinf(b):
                return zero
            return a + b

        times = semiring._float_kernel.times
        grid = [0.0, -0.0, 1e308, -1e308, math.inf, -math.inf]
        for a in grid:
            for b in grid:
                assert times(a, b).hex() == rule(a, b).hex(), (a, b)
        assert times(1e308, 1e308) == math.inf  # a finite overflow
        assert times(-0.0, -0.0).hex() == "-0x0.0p+0"


class TestPathSampling:
    @pytest.mark.parametrize("semiring", [MinWeight, TropicalWeight, MaxWeight])
    def test_zero_samples_as_zero(self, semiring):
        assert semiring.zero.sampling_weight() == 0.0

    def test_large_score_is_capped_not_overflowing(self):
        assert MinWeight(-800).sampling_weight() == math.exp(700)
        assert MaxWeight(800).sampling_weight() == math.exp(700)

    def test_min_cost_above_700_keeps_decaying(self):
        assert MinWeight(720).sampling_weight() == math.exp(-720)

    @pytest.mark.parametrize("cost", [-800.0, -3.0, 0.0, 2.5, 699.0, 720.0,
                                      800.0, math.inf])
    def test_min_cost_samples_as_negated_max_score(self, cost):
        assert (MinWeight(cost).sampling_weight()
                == MaxWeight(-cost).sampling_weight())


def _raw_examples(semiring):
    """(raw value, the element it must cast to) pairs for ``semiring``."""
    if semiring.is_boolean:
        return [(1, semiring.one), (0, semiring.zero)]
    if issubclass(semiring, FeaturizedWeight):
        return [({"f": 2}, semiring({"f": 2})), ({}, semiring.one)]
    if semiring.name == "diff":
        return [(2.5, semiring.constant(2.5)), (-1, semiring.constant(-1.0))]
    return [(2.5, semiring(2.5)), (-1, semiring(-1.0))]


CAST_SEMIRINGS = list(BUILTIN_SEMIRINGS.values()) + [
    make_diff_semiring(), featurized_semiring({"f": 2.0}, name="bound")]
FOREIGN_WEIGHTS = [RealWeight.one, MinWeight.one, TropicalWeight.one,
                   FeaturizedWeight.one, make_diff_semiring().one]


@pytest.mark.parametrize("semiring", CAST_SEMIRINGS,
                         ids=lambda cls: cls.name)
class TestCastContract:
    def test_boolean_weight_and_bool_map_to_one_and_zero(self, semiring):
        assert semiring.cast(BooleanWeight.one) == semiring.one
        assert semiring.cast(BooleanWeight.zero) == semiring.zero
        assert semiring.cast(True) == semiring.one
        assert semiring.cast(False) == semiring.zero

    def test_raw_values_cast_and_same_class_is_returned_as_is(self, semiring):
        for raw, expected in _raw_examples(semiring):
            weight = semiring.cast(raw)
            assert type(weight) is semiring and weight == expected
            assert semiring.cast(weight) is weight

    def test_other_semiring_weight_is_a_mismatch(self, semiring):
        for weight in FOREIGN_WEIGHTS:
            if type(weight) is not semiring:
                with pytest.raises(SemiringMismatchError):
                    semiring.cast(weight)

    @pytest.mark.parametrize("value", ["x", None])
    def test_unknown_raw_value_is_a_mismatch(self, semiring, value):
        with pytest.raises(SemiringMismatchError):
            semiring.cast(value)


def test_public_names_are_pinned_and_resolve():
    assert sorted(wfst.__all__) == [
        "AbstractSemiringWeight", "Arc", "AxiomReport", "AxiomViolation",
        "BUILTIN_SEMIRINGS", "BooleanWeight", "ConvergenceError",
        "CycleLimitError", "DEFAULT_DELTA", "DeterminizationLimitError",
        "DivergenceError", "DivisionByZeroError", "EPSILON",
        "FeaturizedWeight", "Fst",
        "FstParseError", "GradientTape", "InvalidLabelError",
        "InvalidStateError", "InvalidWeightError", "MaxWeight", "MinWeight",
        "NoAcceptingPathError", "Path", "PathEnumeration", "RealWeight",
        "SamplingError", "SemiringDescriptor", "SemiringMismatchError",
        "ShortestPathResult", "TapeNode", "TropicalWeight",
        "UnsupportedOperationError", "WfstError", "backward",
        "cast_from_boolean", "check_semiring_axioms", "closure", "compose",
        "concat", "connect", "determinize", "enumerate_paths",
        "equivalent_by_enumeration", "featurized_semiring",
        "fst_from_sequence", "invert", "lift", "loglikelihood_loss",
        "make_diff_semiring", "pair_acceptor", "parse_text", "project",
        "push", "random_path", "remove_epsilon", "render_dot", "render_html",
        "render_text", "reverse", "shortest_distance", "shortest_path",
        "sum_paths", "train", "union",
    ]
    for name in wfst.__all__:
        assert getattr(wfst, name) is not None
