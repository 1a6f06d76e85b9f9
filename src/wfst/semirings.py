"""Semiring weight classes.

A semiring is a tuple <plus, times, zero, one> where plus is associative
and commutative, times is associative and distributes over plus, zero is
the plus-identity and annihilates under times, and one is the
times-identity.  Weight classes here are the semirings: the class carries
the algebra (zero/one/properties) and instances are its elements.

Semirings that declare the 'idempotent' property have a + a == a; those
that declare 'path' also pick one operand of plus, which induces the total
order a <= b  iff  a + b == a used by shortest-path.

A machine stores its arc and final weights as the values of its
semiring's kernel (``_kernel``), on which the algorithms compute.  A
float semiring (real, min, max, tropical) is declared once, by a kernel
whose values are its weights' plain floats: ``_float_semiring`` sets the
class's kernel, zero and one, and ``_path_semiring`` builds the path
semirings' operations.  A weight operator gives the bits of its kernel
operation: the path operators, and each float ``/`` and ``quantize``,
call the kernel's very functions.  Every other semiring, a subclass too
(it may override an operator or ``star``), runs on the generic kernel,
whose values are the weights themselves, and which divides with ``/``
and quantizes with the weight's ``quantize``.  ``Fst.add_arc``,
``Fst.set_final_weight`` and ``parse_text`` unbox a weight once, after
``cast`` has checked it; ``Fst.arcs``, ``Fst.all_arcs``, ``Fst.finals``,
``Fst.final_weight`` and every ``Path`` box it on read, unchecked.  A
computed value passes the gate unboxed (``_gate``) or on its way into a
weight (``checked``).
"""

import math
import numbers
import operator
import sys
from collections import Counter, namedtuple

from .errors import (
    DivergenceError,
    DivisionByZeroError,
    InvalidWeightError,
    SemiringMismatchError,
    UnsupportedOperationError,
    WfstError,
)

DEFAULT_DELTA = 1.0 / 1024


def _shown(value):
    """``repr(value)`` for an error message; an int with more digits than
    repr() prints (``sys.get_int_max_str_digits()``) shows its size."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, int):
            return f"an int of {value.bit_length()} bits"
        return f"a {type(value).__name__} too long to print"


def _argument(name, value, integer=False, error=WfstError, zero=False):
    """``value`` if it is a number above 0 (at least 0, with ``zero``)
    within the float range or, for an ``integer``, a whole number of at
    least 0 (as an int); else ``error``, naming it."""
    if integer:
        if (isinstance(value, numbers.Integral) or isinstance(value, float)
                and value.is_integer()) and value >= 0:
            return int(value)
        raise error(f"{name} must be an integer of at least 0, got "
                    f"{_shown(value)}")
    if (isinstance(value, numbers.Real) and value <= sys.float_info.max
            and (0 <= value if zero else 0 < value)):
        return value
    bound = "of at least 0" if zero else "above 0"
    raise error(f"{name} must be a finite number {bound}, got {_shown(value)}")


def _seeded(seed):
    """``random.Random(seed)``; a seed of a type it refuses raises
    WfstError."""
    import random

    try:
        return random.Random(seed)
    except TypeError:
        raise WfstError("seed must be None, an int, a float, a str or "
                        f"bytes, got {_shown(seed)}") from None


def _exponent(weight, n):
    """``n``, if an integer of at least 0; else UnsupportedOperationError."""
    return _argument(f"the exponent of a {weight.name} power", n,
                     integer=True, error=UnsupportedOperationError)


def _float_power(value, n):
    """``value ** n`` for an integer ``n`` of at least 0, or any real ``n``
    and a ``value`` of at least 0: the exact power rounded to a float, so
    an infinity or a zero past the float range, and negative for a
    negative ``value`` and an odd ``n``, as ``*`` gives it.  (``float **
    int`` converts ``n`` to a float, which can fail or round off its
    parity.)"""
    try:
        # Past 2 ** 1023, |value| ** n is 0, 1, inf or NaN as at 2 ** 1023.
        magnitude = abs(value) ** min(n, 2 ** 1023)
    except OverflowError:
        magnitude = math.inf
    odd = n % 2 == 1
    return -magnitude if odd and math.copysign(1.0, value) < 0 else magnitude


def _float_multiple(value, n):
    """``value * n`` for an integer ``n`` of at least 0: the exact product
    rounded to a float, so an infinity past the float range."""
    if n < 2 ** 53:  # n is a float exactly
        return value * n
    if not math.isfinite(value):
        return value
    numerator, denominator = value.as_integer_ratio()
    try:
        return numerator * n / denominator  # int / int rounds once
    except OverflowError:
        return math.copysign(math.inf, value)


class SemiringDescriptor(namedtuple(
        "SemiringDescriptor",
        "name properties has_division has_power is_boolean")):
    """A semiring's name, its property set (a frozenset) and its three
    capability flags.  A named tuple: it equals a plain tuple of its
    fields and unpacks like one."""

    __slots__ = ()


class AbstractSemiringWeight:
    """Base class every semiring weight extends.

    Subclasses must provide __add__ (plus), __mul__ (times), __eq__,
    __hash__, and the class-level ``zero`` and ``one`` elements.  The
    remaining methods have default implementations that may be overridden:
    division (used by push), power, quantize, member, reverse (used by FST
    reversal) and sampling_weight (used by random_path).

    Two class-level hooks are None unless a semiring supplies them:

    - ``star``, a classmethod giving the closure a* = one + a + a² + ...
      of an element, or raising DivergenceError where it does not exist.
      With it, shortest distance solves each strongly connected component
      exactly by elimination.
    - ``total_weight``, a classmethod ``(fst)`` that sum_paths returns
      in place of its own distance pass.
    """

    name = "abstract"
    semiring_properties = frozenset({"base"})
    has_division = False
    has_power = False
    is_boolean = False
    zero = None
    one = None
    star = None
    total_weight = None

    @classmethod
    def descriptor(cls):
        return SemiringDescriptor(
            name=cls.name,
            properties=frozenset(cls.semiring_properties),
            has_division=cls.has_division,
            has_power=cls.has_power,
            is_boolean=cls.is_boolean,
        )

    def _coerce(self, other):
        """Return ``other`` as an element of this semiring.

        Boolean weights are auto-cast into any other semiring; everything
        else must already belong to the same semiring.
        """
        if other.__class__ is self.__class__:
            return other
        if isinstance(other, AbstractSemiringWeight) and other.is_boolean:
            return self.__class__.cast(other)
        raise SemiringMismatchError(
            f"cannot combine {self.__class__.name} weight with "
            f"{type(other).__name__}"
        )

    def __add__(self, other):
        raise NotImplementedError

    def __mul__(self, other):
        raise NotImplementedError

    def __truediv__(self, other):
        raise UnsupportedOperationError(
            f"{self.name} semiring does not support division"
        )

    def __pow__(self, n):
        raise UnsupportedOperationError(
            f"{self.name} semiring does not support power"
        )

    def approx_eq(self, other, delta=DEFAULT_DELTA):
        _argument("delta", delta)
        return self == other

    def quantize(self, delta=DEFAULT_DELTA):
        _argument("delta", delta)
        return self

    def member(self):
        return True

    def reverse(self):
        # Identity for all commutative semirings.
        return self

    def sampling_weight(self):
        raise UnsupportedOperationError(
            f"{self.name} semiring does not define a sampling weight"
        )

    @classmethod
    def cast(cls, value):
        """Convert ``value`` (a weight, bool or raw value) into this semiring.

        A weight of this class is kept; a boolean weight or a bool maps to
        ``one``/``zero``; any other weight is a mismatch.  Raw values go to
        ``_cast_raw``.  This is where weights enter a machine, so a result
        that is not a ``member()`` raises ``InvalidWeightError``.
        """
        if value.__class__ is cls:
            result = value
        elif isinstance(value, AbstractSemiringWeight):
            if not value.is_boolean:
                text = (f"cannot cast {value.name} weight to the "
                        f"{cls.name} semiring")
                if value is cls.zero or value is cls.one:  # inherited
                    text += (f"; {cls.__name__} must declare its own zero "
                             "and one")
                raise SemiringMismatchError(text)
            result = cls.one if value.value else cls.zero
        elif isinstance(value, bool):
            result = cls.one if value else cls.zero
        else:
            result = cls._cast_raw(value)
            if result is None:
                raise SemiringMismatchError(
                    f"cannot cast {_shown(value)} to the {cls.name} "
                    "semiring"
                )
        if not result.member():
            raise _not_a_member(cls, result)
        return result

    @classmethod
    def _cast_raw(cls, value):
        """The element a raw (non-weight, non-bool) value denotes, or None."""
        return None

    @classmethod
    def random_member(cls, rng):
        """A random element, used by the axiom checker and property tests."""
        raise NotImplementedError

    def text(self):
        """Render for the FST text format (must round-trip via from_text)."""
        return str(self)

    @classmethod
    def from_text(cls, s):
        raise NotImplementedError


class BooleanWeight(AbstractSemiringWeight):
    """<or, and, False, True>; the default semiring, auto-cast into others."""

    name = "boolean"
    semiring_properties = frozenset({"base", "idempotent"})
    is_boolean = True
    has_division = True
    has_power = True
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = bool(value)

    def _promoted(self, other):
        """This weight cast into the richer semiring of ``other``."""
        if isinstance(other, AbstractSemiringWeight):
            return type(other).cast(self)
        raise SemiringMismatchError(
            f"cannot combine boolean weight with {type(other).__name__}")

    def __add__(self, other):
        if other.__class__ is not BooleanWeight:
            return self._promoted(other) + other
        return BooleanWeight(self.value or other.value)

    def __mul__(self, other):
        if other.__class__ is not BooleanWeight:
            return self._promoted(other) * other
        return BooleanWeight(self.value and other.value)

    def __truediv__(self, other):
        if other.__class__ is not BooleanWeight:
            return self._promoted(other) / other
        if not other.value:
            raise DivisionByZeroError("boolean division by zero element")
        return self

    def __pow__(self, n):
        return BooleanWeight.one if _exponent(self, n) == 0 else self

    def __eq__(self, other):
        return other.__class__ is BooleanWeight and self.value == other.value

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        return f"BooleanWeight({self.value})"

    def __str__(self):
        return "1" if self.value else "0"

    text = __str__

    def sampling_weight(self):
        return 1.0 if self.value else 0.0

    @classmethod
    def _cast_raw(cls, value):
        if isinstance(value, int) and value in (0, 1):
            return cls(bool(value))
        return None

    @classmethod
    def random_member(cls, rng):
        return cls(rng.random() < 0.5)

    @classmethod
    def from_text(cls, s):
        if s in ("1", "true", "True"):
            return cls(True)
        if s in ("0", "false", "False"):
            return cls(False)
        raise InvalidWeightError(f"bad boolean weight {s!r}")


BooleanWeight.zero = BooleanWeight(False)
BooleanWeight.one = BooleanWeight(True)


def _not_a_member(semiring, weight):
    """The error for a weight that fails the membership gate."""
    return InvalidWeightError(
        f"{weight!r} is not a member of the {semiring.name} semiring")


# The arithmetic of a semiring as the algorithms run it: plus and times on
# the kernel's values, their zero and one, star (or None), divide (x / y,
# raising DivisionByZeroError for a zero y), quantize (value and delta to
# the value's nearest multiple of delta), unbox (weight to value), box
# (value to weight, unchecked), checked (value to weight through the
# membership gate, in one call) and score (value to its sampling weight, or
# None where a value is its own sampling weight).
_Kernel = namedtuple(
    "_Kernel",
    "plus times zero one star divide quantize unbox box checked score")


def _float_semiring(semiring, plus, times, zero, one, divide, star=None,
                    score=None):
    """Declare ``semiring`` a float semiring: set its ``zero`` and ``one``
    weights and its kernel, whose values are its weights' plain floats."""
    new = object.__new__

    def box(value):
        # The values are floats already, so __init__'s checks are skipped.
        weight = new(semiring)
        weight.value = value
        return weight

    def checked(value):
        if value != value:  # NaN, the one float that is no member
            raise _not_a_member(semiring, box(value))
        weight = new(semiring)
        weight.value = value
        return weight

    semiring.zero, semiring.one = box(zero), box(one)
    semiring._float_kernel = _Kernel(
        plus, times, zero, one, star, divide, _quantize,
        operator.attrgetter("value"), box, checked, score)


def _same(value):
    return value


def _kernel(semiring):
    """The float kernel that ``semiring``'s own class declares, else the
    generic kernel, whose values are the weights themselves.

    A float kernel is looked up in the class's own namespace, never
    inherited: a subclass may override an operator or ``star``, and its
    weights then run through those overrides.  The generic kernel's zero
    and one pass ``cast``, so a subclass that inherits either from its
    base is refused here, with the text ``add_arc`` gives it.
    """
    kernel = semiring.__dict__.get("_float_kernel")
    if kernel is None:
        def checked(weight):
            if not weight.member():
                raise _not_a_member(semiring, weight)
            return weight

        kernel = _Kernel(operator.add, operator.mul,
                         semiring.cast(semiring.zero),
                         semiring.cast(semiring.one), semiring.star,
                         operator.truediv,
                         semiring.quantize, _same, _same, checked,
                         operator.methodcaller("sampling_weight"))
    return kernel


def _box(semiring):
    """``_kernel(semiring).box``, without building a generic kernel."""
    kernel = semiring.__dict__.get("_float_kernel")
    return _same if kernel is None else kernel.box


def _unbox(semiring):
    """``_kernel(semiring).unbox``, without building a generic kernel."""
    kernel = semiring.__dict__.get("_float_kernel")
    return _same if kernel is None else kernel.unbox


def _quantize(value, delta):
    """``value`` rounded half-even to its nearest multiple of ``delta``.
    An infinite value, or a quotient that overflows (a tiny delta), has no
    nearest step and is returned as it is."""
    steps = value / delta
    if not math.isfinite(steps):
        return value
    # round() is banker's rounding, so quantization is half-even.
    return round(steps) * delta


def _float_text(v):
    if v == math.inf:
        return "inf"
    if v == -math.inf:
        return "-inf"
    if math.isnan(v):
        return "nan"
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


class _NumericWeight(AbstractSemiringWeight):
    """Shared plumbing for the real / min / max / tropical / diff semirings:
    a float ``value``, equality within the exact class, NaN is no member.

    The constructor reads a raw value as ``cast`` does: a bool is the
    semiring's one or zero, any other real number its float, and anything
    else (a numeric string, say) raises SemiringMismatchError, and one
    beyond the float range InvalidWeightError.  Unlike ``cast``, it does
    not refuse a NaN."""

    has_division = True
    has_power = True
    __slots__ = ("value",)

    def __init__(self, value):
        if value.__class__ is not float:
            if value.__class__ is bool:
                value = (self.one if value else self.zero).value
            elif isinstance(value, numbers.Real):
                try:
                    value = float(value)
                except OverflowError:
                    raise InvalidWeightError(
                        f"{_shown(value)} is beyond the float range") from None
            else:
                raise SemiringMismatchError(
                    f"cannot cast {_shown(value)} to the {self.name} semiring")
        self.value = value

    def __eq__(self, other):
        return other.__class__ is self.__class__ and self.value == other.value

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        return f"{type(self).__name__}({self.value})"

    def __str__(self):
        return _float_text(self.value)

    text = __str__

    def approx_eq(self, other, delta=DEFAULT_DELTA):
        other = self._coerce(other)
        delta = _argument("delta", delta)
        if self.value == other.value:  # covers matching infinities
            return True
        return abs(self.value - other.value) < delta

    def quantize(self, delta=DEFAULT_DELTA):
        value = _quantize(self.value, _argument("delta", delta))
        # A value without a nearest step keeps its weight (and a diff
        # weight its tape node).
        return self if value is self.value else self.cast(value)

    def member(self):
        return not math.isnan(self.value)

    def sampling_weight(self):
        return self.value

    @classmethod
    def random_member(cls, rng):
        return cls.cast(rng.uniform(-2.0, 2.0))

    @classmethod
    def from_text(cls, s):
        try:
            return cls(float(s))
        except ValueError as exc:
            raise InvalidWeightError(f"bad {cls.name} weight {s!r}") from exc

    @classmethod
    def _cast_raw(cls, value):
        if value.__class__ is float or isinstance(value, numbers.Real):
            return cls(value)
        return None


def _real_star(value):
    """1 / (1 - a): the sum 1 + a + a² + ... for |a| < 1, and for a <= -1
    the solution of x = 1 + a·x, which elimination over weights of mixed
    sign needs.  For a >= 1 (or NaN) it does not exist."""
    if not value < 1.0:
        raise DivergenceError(
            f"the star of {value!r} does not exist: 1 + a + a² + ... diverges"
        )
    return 1.0 / (1.0 - value)


def _real_divide(a, b):
    if b == 0.0:
        raise DivisionByZeroError("real division by zero element")
    return a / b


class RealWeight(_NumericWeight):
    """<+, *, 0, 1> over the reals (the probability semiring)."""

    name = "real"

    @classmethod
    def star(cls, a):
        if not isinstance(a, _NumericWeight):
            raise SemiringMismatchError(
                f"cannot take the {cls.name} star of {_shown(a)}")
        return cls(_real_star(a.value))

    def __add__(self, other):
        other = self._coerce(other)
        return type(self)(self.value + other.value)

    def __mul__(self, other):
        other = self._coerce(other)
        return type(self)(self.value * other.value)

    def __truediv__(self, other):
        other = self._coerce(other)
        return type(self)(_real_divide(self.value, other.value))

    def __pow__(self, n):
        return type(self)(_float_power(self.value, _exponent(self, n)))


_float_semiring(RealWeight, operator.add, operator.mul, 0.0, 1.0,
                _real_divide, _real_star)


class _PathWeight(_NumericWeight):
    """An idempotent path semiring <select, +, zero, 0> over the extended
    reals, where select is min (zero +inf) or max (zero -inf); its
    operators run the kernel that ``_path_semiring`` declares for it."""

    semiring_properties = frozenset({"base", "path", "idempotent"})

    def __add__(self, other):
        other = self._coerce(other)
        return type(self)(self._float_kernel.plus(self.value, other.value))

    def __mul__(self, other):
        other = self._coerce(other)
        return type(self)(self._float_kernel.times(self.value, other.value))

    def __truediv__(self, other):
        other = self._coerce(other)
        return type(self)(self._float_kernel.divide(self.value, other.value))

    def __pow__(self, n):
        n = _exponent(self, n)
        if n == 0:
            return type(self).one
        # Once n - 1 factors make an infinity, times gives zero (a * a does).
        if n > 1 and math.isinf(_float_multiple(self.value, n - 1)):
            return type(self).zero
        return type(self)(_float_multiple(self.value, n))

    def sampling_weight(self):
        return self._float_kernel.score(self.value)

    @classmethod
    def random_member(cls, rng):
        if rng.random() < 0.05:
            return cls.zero
        return cls(rng.uniform(-5.0, 5.0))


def _path_semiring(semiring, select, zero_value, sign):
    """Declare ``semiring`` the path semiring <select, +, zero_value, 0>:
    times gives zero_value if an operand is infinite, divide keeps an
    infinite dividend and names the semiring for a zero divisor, and a
    value scores exp(sign·value), capped at exp(700) to stay finite (so a
    lower cost, or a higher score, is a likelier arc)."""
    isfinite, isinf, exp = math.isfinite, math.isinf, math.exp

    def times(a, b):
        s = a + b
        if isfinite(s):
            return s
        # An infinite operand (inf + -inf included) gives zero; a finite
        # overflow keeps its infinity.
        return zero_value if isinf(a) or isinf(b) else s

    def divide(a, b):
        if b == zero_value:
            raise DivisionByZeroError(
                f"{semiring.name} division by zero element")
        return a if isinf(a) else a - b

    def score(value):
        return exp(min(sign * value, 700.0))

    _float_semiring(semiring, select, times, zero_value, 0.0, divide,
                    score=score)


class MinWeight(_PathWeight):
    """<min, +, +inf, 0>; an idempotent path semiring over costs."""

    name = "min"


class TropicalWeight(MinWeight):
    """Same <min, +> algebra as MinWeight under its conventional name."""

    name = "tropical"


class MaxWeight(_PathWeight):
    """<max, +, -inf, 0>; the max-plus path semiring over scores."""

    name = "max"


_path_semiring(MinWeight, min, math.inf, -1.0)
_path_semiring(TropicalWeight, min, math.inf, -1.0)
_path_semiring(MaxWeight, max, -math.inf, 1.0)


# Default global feature-weight table used by FeaturizedWeight's
# sampling_weight.  featurized_semiring() builds a class bound to its own
# table instead, which is what concurrent users should do.
feature_weights = {}

_ZERO_HASH = object()


class FeaturizedWeight(AbstractSemiringWeight):
    """Multiset-of-feature-counts semiring.

    times sums feature counts along a path; plus takes the per-feature
    maximum across alternative paths.  one is the empty multiset; zero is
    a distinguished absorbing sentinel (no multiset behaves as zero).
    sampling_weight is the dot product of the counts with the semiring's
    feature-weight table.
    """

    name = "featurized"
    semiring_properties = frozenset({"base", "idempotent"})
    has_division = True
    has_power = True
    weight_table = feature_weights
    __slots__ = ("features", "is_zero", "_hash")

    def __init__(self, features=None, *, _zero=False):
        self.is_zero = _zero
        if _zero:
            self.features = Counter()
            self._hash = hash(_ZERO_HASH)
            return
        try:
            counts = Counter(features if features is not None else ())
        except TypeError:
            raise InvalidWeightError(
                f"featurized weight needs a mapping of feature counts, got "
                f"{_shown(features)}") from None
        for key, count in counts.items():
            if not isinstance(count, int) or count < 0:
                raise InvalidWeightError(
                    f"feature count for {_shown(key)} must be a nonnegative "
                    "int"
                )
        self.features = Counter({k: v for k, v in counts.items() if v > 0})
        self._hash = hash(frozenset(self.features.items()))

    def __add__(self, other):
        other = self._coerce(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        # Counter | is the per-feature max.
        return type(self)(self.features | other.features)

    def __mul__(self, other):
        other = self._coerce(other)
        if self.is_zero or other.is_zero:
            return type(self).zero
        return type(self)(self.features + other.features)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero:
            raise DivisionByZeroError("featurized division by zero element")
        if self.is_zero:
            return self
        result = Counter(self.features)
        result.subtract(other.features)
        if any(v < 0 for v in result.values()):
            raise InvalidWeightError(
                "featurized division would produce negative counts"
            )
        return type(self)(+result)

    def __pow__(self, n):
        n = _exponent(self, n)
        if n == 0:
            return type(self).one
        if self.is_zero:
            return self
        return type(self)(Counter({k: v * n for k, v in self.features.items()}))

    def __eq__(self, other):
        # zero and one both have no features; is_zero tells them apart.
        return (other.__class__ is self.__class__
                and self._hash == other._hash
                and self.is_zero == other.is_zero
                and self.features == other.features)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.is_zero:
            return "FeaturizedWeight.zero"
        return f"FeaturizedWeight({dict(self.features)})"

    def approx_eq(self, other, delta=DEFAULT_DELTA):
        other = self._coerce(other)
        delta = _argument("delta", delta)
        if self.is_zero or other.is_zero:
            return self.is_zero and other.is_zero
        a, b = self.features, other.features
        # Counter subtraction keeps positive counts, so this sums |a - b|.
        return sum(((a - b) + (b - a)).values()) < delta

    def sampling_weight(self):
        if self.is_zero:
            return 0.0
        result = 0.0
        for key, val in self.features.items():
            result += self.weight_table.get(key, 0) * val
        return result

    @classmethod
    def _cast_raw(cls, value):
        if isinstance(value, dict):
            return cls(value)
        return None

    @classmethod
    def random_member(cls, rng):
        if rng.random() < 0.05:
            return cls.zero
        names = ["f1", "f2", "f3", "f4", "f5"]
        picked = {n: rng.randint(1, 3) for n in names if rng.random() < 0.4}
        return cls(picked)

    def text(self):
        if self.is_zero:
            return "!"
        if not self.features:
            return "-"
        return ",".join(f"{k}:{v}" for k, v in sorted(self.features.items()))

    __str__ = text

    @classmethod
    def from_text(cls, s):
        if s == "!":
            return cls.zero
        if s == "-":
            return cls.one
        counts = {}
        for part in s.split(","):
            name, sep, count = part.partition(":")
            if not sep or not name:
                raise InvalidWeightError(f"bad featurized weight {s!r}")
            try:
                counts[name] = int(count)
            except ValueError as exc:
                raise InvalidWeightError(f"bad featurized weight {s!r}") from exc
        return cls(counts)


FeaturizedWeight.zero = FeaturizedWeight(_zero=True)
FeaturizedWeight.one = FeaturizedWeight()


def featurized_semiring(weight_table, name="featurized"):
    """A featurized semiring class bound to its own feature-weight table."""
    cls = type("FeaturizedWeight", (FeaturizedWeight,), {})
    cls.name = name
    cls.weight_table = weight_table
    cls.zero = cls(_zero=True)
    cls.one = cls()
    return cls


BUILTIN_SEMIRINGS = {
    "boolean": BooleanWeight,
    "real": RealWeight,
    "min": MinWeight,
    "max": MaxWeight,
    "tropical": TropicalWeight,
    "featurized": FeaturizedWeight,
}


class AxiomViolation(namedtuple("AxiomViolation", "axiom witnesses")):
    """One broken law: the axiom's name and the tuple of elements that
    break it.  A named tuple, like ``SemiringDescriptor``."""

    __slots__ = ()

    def __str__(self):
        parts = ", ".join(repr(w) for w in self.witnesses)
        return f"{self.axiom} violated by ({parts})"


class AxiomReport:
    """What ``check_semiring_axioms`` found: the semiring's name, the
    number of samples drawn, and the list of violations it collected."""

    __slots__ = ("semiring", "samples", "violations")

    def __init__(self, semiring, samples, violations=None):
        self.semiring = semiring
        self.samples = samples
        self.violations = [] if violations is None else violations

    def __repr__(self):
        return (f"AxiomReport(semiring={self.semiring!r}, "
                f"samples={self.samples!r}, violations={self.violations!r})")

    def __eq__(self, other):
        if type(other) is not AxiomReport:
            return NotImplemented
        return ((self.semiring, self.samples, self.violations)
                == (other.semiring, other.samples, other.violations))

    __hash__ = None

    @property
    def ok(self):
        return not self.violations


def check_semiring_axioms(semiring, sample_count=1000, delta=DEFAULT_DELTA,
                          seed=0, max_violations=20):
    """Probe the semiring axioms on random elements.

    Violations are collected into the report, never raised; each carries
    the witness elements that broke the law.  ``sample_count`` and
    ``max_violations`` are integers of at least 0 and ``delta`` a finite
    number above 0, else WfstError.
    """
    sample_count = _argument("sample_count", sample_count, integer=True)
    max_violations = _argument("max_violations", max_violations, integer=True)
    delta = _argument("delta", delta)

    rng = _seeded(seed)
    report = AxiomReport(semiring=semiring.name, samples=sample_count)
    zero, one = semiring.zero, semiring.one
    is_path = "path" in semiring.semiring_properties
    is_idempotent = is_path or "idempotent" in semiring.semiring_properties

    def ok(x, y):
        return x.approx_eq(y, delta)

    def add(axiom, *witnesses):
        if len(report.violations) < max_violations:
            report.violations.append(AxiomViolation(axiom, witnesses))

    for _ in range(sample_count):
        a = semiring.random_member(rng)
        b = semiring.random_member(rng)
        c = semiring.random_member(rng)
        if not ok((a + b) + c, a + (b + c)):
            add("plus associativity", a, b, c)
        if not ok(a + b, b + a):
            add("plus commutativity", a, b)
        if not ok((a * b) * c, a * (b * c)):
            add("times associativity", a, b, c)
        if not ok(a * (b + c), a * b + a * c):
            add("left distributivity", a, b, c)
        if not ok((a + b) * c, a * c + b * c):
            add("right distributivity", a, b, c)
        if not ok(a + zero, a) or not ok(zero + a, a):
            add("zero is plus identity", a)
        if not ok(a * one, a) or not ok(one * a, a):
            add("one is times identity", a)
        if not ok(a * zero, zero) or not ok(zero * a, zero):
            add("zero annihilates", a)
        if is_idempotent and not a + a == a:
            add("plus idempotence", a)
        if is_path:
            s = a + b
            if not (s == a or s == b):
                add("total order", a, b)
    return report
