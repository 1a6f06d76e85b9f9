"""Semiring weight classes.

A semiring is a tuple <plus, times, zero, one> where plus is associative
and commutative, times is associative and distributes over plus, zero is
the plus-identity and annihilates under times, and one is the
times-identity.  Weight classes here are the semirings: the class carries
the algebra (zero/one/properties) and instances are its elements.

Semirings that declare the 'idempotent' property have a + a == a; those
that declare 'path' also pick one operand of plus, which induces the total
order a <= b  iff  a + b == a used by shortest-path.

The algorithms compute through a semiring's kernel (``_kernel``).  The
real, min, max and tropical classes each set a float kernel on the class
itself, so shortest distance, lift and shortest path run on the plain
float values and box them into weights only for the result.  A subclass
inherits no float kernel: it may override an operator or ``star``, so it
runs, like every other semiring, on the generic kernel of weight objects
and their operators.
"""

import math
import numbers
import operator
from collections import Counter, namedtuple

from .errors import (
    DivergenceError,
    DivisionByZeroError,
    InvalidWeightError,
    SemiringMismatchError,
    UnsupportedOperationError,
)

DEFAULT_DELTA = 1.0 / 1024


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
        return self == other

    def quantize(self, delta=DEFAULT_DELTA):
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
                raise SemiringMismatchError(
                    f"cannot cast {value.name} weight to the {cls.name} "
                    "semiring"
                )
            result = cls.one if value.value else cls.zero
        elif isinstance(value, bool):
            result = cls.one if value else cls.zero
        else:
            result = cls._cast_raw(value)
            if result is None:
                raise SemiringMismatchError(
                    f"cannot cast {value!r} to the {cls.name} semiring"
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

    def __add__(self, other):
        if other.__class__ is not BooleanWeight:
            # Auto-cast: delegate to the richer semiring, preserving order.
            return type(other).cast(self) + other
        return BooleanWeight(self.value or other.value)

    def __mul__(self, other):
        if other.__class__ is not BooleanWeight:
            return type(other).cast(self) * other
        return BooleanWeight(self.value and other.value)

    def __truediv__(self, other):
        other = self._coerce(other)
        if not other.value:
            raise DivisionByZeroError("boolean division by zero element")
        return self

    def __pow__(self, n):
        if n < 0:
            raise UnsupportedOperationError("negative power")
        return BooleanWeight.one if n == 0 else self

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
# the kernel's values, their zero and one, star (or None), unbox (weight
# to value) and box (value to weight), and nonmember, true of a value that
# fails the membership gate.
_Kernel = namedtuple(
    "_Kernel", "plus times zero one star unbox box nonmember")


def _make_float_kernel(semiring, plus, times, zero, one, star=None):
    """A kernel on the plain float ``value`` of ``semiring``'s weights."""
    return _Kernel(plus, times, zero, one, star,
                   operator.attrgetter("value"), semiring, math.isnan)


def _same(value):
    return value


def _is_nonmember(weight):
    return not weight.member()


def _kernel(semiring):
    """The float kernel that ``semiring``'s own class declares, else the
    generic kernel, whose values are the weights themselves.

    A float kernel is looked up in the class's own namespace, never
    inherited: a subclass may override an operator or ``star``, and its
    weights then run through those overrides.
    """
    kernel = semiring.__dict__.get("_float_kernel")
    if kernel is None:
        kernel = _Kernel(operator.add, operator.mul, semiring.zero,
                         semiring.one, semiring.star, _same, _same,
                         _is_nonmember)
    return kernel


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
    a float ``value``, equality within the exact class, NaN is no member."""

    has_division = True
    has_power = True
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = float(value)

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
        if self.value == other.value:  # covers matching infinities
            return True
        return abs(self.value - other.value) < delta

    def quantize(self, delta=DEFAULT_DELTA):
        steps = self.value / delta
        # An infinite value, or a quotient that overflows (a tiny delta),
        # has no nearest step.
        if not math.isfinite(steps):
            return self
        # round() is banker's rounding, so quantization is half-even.
        return self.cast(round(steps) * delta)

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
        if isinstance(value, numbers.Real):
            return cls(float(value))
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


class RealWeight(_NumericWeight):
    """<+, *, 0, 1> over the reals (the probability semiring)."""

    name = "real"

    @classmethod
    def star(cls, a):
        return cls(_real_star(a.value))

    def __add__(self, other):
        other = self._coerce(other)
        return type(self)(self.value + other.value)

    def __mul__(self, other):
        other = self._coerce(other)
        return type(self)(self.value * other.value)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.value == 0.0:
            raise DivisionByZeroError("real division by zero element")
        return type(self)(self.value / other.value)

    def __pow__(self, n):
        if n < 0:
            raise UnsupportedOperationError("negative power")
        return type(self)(self.value ** n)


RealWeight.zero = RealWeight(0.0)
RealWeight.one = RealWeight(1.0)
RealWeight._float_kernel = _make_float_kernel(
    RealWeight, operator.add, operator.mul, 0.0, 1.0, _real_star)


def _path_times(zero_value):
    """times of the path semiring whose zero has ``zero_value``: the sum
    of two values, or zero_value when either is infinite."""
    isinf = math.isinf

    def times(a, b):
        if isinf(a) or isinf(b):
            return zero_value
        return a + b

    return times


def _path_kernel(semiring):
    return _make_float_kernel(semiring, semiring._select, semiring._times,
                              semiring._zero_value, 0.0)


class _PathWeight(_NumericWeight):
    """An idempotent path semiring <select, +, zero, 0> over the extended
    reals, where select is min (zero +inf) or max (zero -inf).

    ``_sign`` turns a value into a sampling score (higher is likelier).
    ``_times`` (see ``_path_times``) gives zero whenever an operand is
    infinite.
    """

    semiring_properties = frozenset({"base", "path", "idempotent"})

    def __add__(self, other):
        other = self._coerce(other)
        return type(self)(self._select(self.value, other.value))

    def __mul__(self, other):
        other = self._coerce(other)
        return type(self)(self._times(self.value, other.value))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.value == self._zero_value:
            raise DivisionByZeroError(f"{self.name} division by zero element")
        if math.isinf(self.value):
            return type(self)(self.value)
        return type(self)(self.value - other.value)

    def __pow__(self, n):
        if n < 0:
            raise UnsupportedOperationError("negative power")
        if n == 0:
            return type(self).one
        return type(self)(self.value * n)

    def sampling_weight(self):
        # Capping the score at 700 keeps exp() finite; zero's score is
        # -inf, which samples as 0.0.
        return math.exp(min(self._sign * self.value, 700.0))

    @classmethod
    def random_member(cls, rng):
        if rng.random() < 0.05:
            return cls.zero
        return cls(rng.uniform(-5.0, 5.0))


class MinWeight(_PathWeight):
    """<min, +, +inf, 0>; an idempotent path semiring over costs."""

    name = "min"
    _select = min
    _zero_value = math.inf
    _times = staticmethod(_path_times(math.inf))
    _sign = -1.0  # lower cost, likelier arc


MinWeight.zero = MinWeight(math.inf)
MinWeight.one = MinWeight(0.0)
MinWeight._float_kernel = _path_kernel(MinWeight)


class TropicalWeight(MinWeight):
    """Same <min, +> algebra as MinWeight under its conventional name."""

    name = "tropical"


TropicalWeight.zero = TropicalWeight(math.inf)
TropicalWeight.one = TropicalWeight(0.0)
TropicalWeight._float_kernel = _path_kernel(TropicalWeight)


class MaxWeight(_PathWeight):
    """<max, +, -inf, 0>; the max-plus path semiring over scores."""

    name = "max"
    _select = max
    _zero_value = -math.inf
    _times = staticmethod(_path_times(-math.inf))
    _sign = 1.0


MaxWeight.zero = MaxWeight(-math.inf)
MaxWeight.one = MaxWeight(0.0)
MaxWeight._float_kernel = _path_kernel(MaxWeight)


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
        counts = Counter(features if features is not None else ())
        for key, count in counts.items():
            if not isinstance(count, int) or count < 0:
                raise InvalidWeightError(
                    f"feature count for {key!r} must be a nonnegative int"
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
        if n < 0:
            raise UnsupportedOperationError("negative power")
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
    the witness elements that broke the law.
    """
    import random as _random

    rng = _random.Random(seed)
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
