"""The FST data model and mutation-based construction API.

States are dense integers labeled from 0.  Arc labels are nonnegative
integers with 0 reserved for epsilon; single characters are converted via
their code point.  Construction methods mutate in place; everything in
the algorithms module treats a finished FST as immutable.

Each state's arcs are stored as plain ``(target, input, output, value)``
tuples, value being the weight's kernel value (see ``semirings``), and
``Arc`` records are built from them on read; final weights are stored as
values too, and the read-only ``finals`` mapping boxes them on read.
``enumerate_paths`` walks those values on the semiring's kernel, as the
path queries in ``algorithms`` do, and boxes only the paths it returns.

The same storage rule holds at two levels.  A machine's table
(``_arcs``) is either a list that the machine owns or a tuple of state
tuples that any number of machines share, and so is each state's arc
storage in a list table.  ``copy`` and ``lift`` between float kernels
hand a tuple table on as it is, so ``copy()`` of a shared machine copies
only its final weights, and build one once from a list table; ``union``
returns a tuple table, so a pairwise ``union`` fold copies one pointer
per earlier state.  Code that builds a machine
fills the lists it creates; any other write goes through ``add_state``
or ``Fst._writable``, which first swap a shared table, then a shared
state tuple, for a list of the machine's own, so no write to one machine
reaches another.  A list inside a tuple table would be shared and
written through, so ``validate`` refuses one.

A machine also keeps what the algorithms derive from its arcs, as
OpenFST keeps its property bits, and drops it on any write that could
change it:

- the forward search from its initial state (``algorithms._components``),
  recorded with that state, which ``sum_paths``, ``shortest_distance``,
  ``shortest_path``, ``connect`` and training read.  ``_writable`` (so
  ``add_arc``), ``add_state`` and ``set_initial_state`` drop it, and a
  reassigned ``initial`` misses it.  ``copy`` and every algorithm that
  keeps each arc's target and the initial state (``lift``, ``project``,
  ``invert``, ``push``) hand it to their result, since it reads only the
  targets;
- on a float kernel only, each state's sampling table that
  ``random_path`` has built: the running sums of its choices' sampling
  weights and their total.  ``_writable`` and ``set_final_weight`` drop
  them.  On the generic kernel a sampling weight may read mutable state
  (a featurized semiring's ``weight_table``, say), so its tables last one
  call.

Reassigning ``semiring`` is unsupported: build the machine anew, or
``lift`` it.
"""

from collections import namedtuple
from itertools import chain
from types import MappingProxyType

from .errors import InvalidLabelError, InvalidStateError, InvalidWeightError
from .semirings import (BooleanWeight, _argument, _box, _kernel, _same,
                        _shown, _unbox)

EPSILON = 0
MAX_LABEL = 2 ** 64 - 1


def as_label(label):
    """Convert a label argument (int or single character) to an integer."""
    if isinstance(label, bool):
        raise InvalidLabelError(f"bad label {label!r}")
    if isinstance(label, int):
        if not 0 <= label <= MAX_LABEL:
            raise InvalidLabelError(
                f"label {_shown(label)} out of 64-bit range")
        return label
    if isinstance(label, str):
        if len(label) != 1:
            raise InvalidLabelError(
                f"label must be a single character, got {label!r}"
            )
        return ord(label)
    raise InvalidLabelError(f"bad label {_shown(label)}")


def label_str(label):
    """Human-readable rendering of a single label."""
    if label == EPSILON:
        return "ε"
    if 0 < label < 0x110000:
        ch = chr(label)
        if ch.isprintable() and not ch.isspace():
            return ch
    return f"[{label}]"


class Arc(namedtuple("Arc", "source target input output weight")):
    """An immutable arc record, built anew on each read (compare with
    ``==``, not ``is``); ``arc._replace(weight=w)`` makes a changed copy.
    Being a tuple, it also equals a plain tuple of its fields."""

    __slots__ = ()


class Path(namedtuple("Path", "arcs weight")):
    """An accepting path: its tuple of arcs plus the accumulated weight.

    The weight includes the final weight of the terminal state.  Like
    ``Arc``, a named tuple: ``arcs, weight = path`` unpacks it, and it
    equals a plain ``(arcs, weight)`` tuple.
    """

    __slots__ = ()

    @property
    def input_labels(self):
        return tuple(a.input for a in self.arcs if a.input != EPSILON)

    @property
    def output_labels(self):
        return tuple(a.output for a in self.arcs if a.output != EPSILON)

    @property
    def input_str(self):
        return "".join(chr(x) for x in self.input_labels)

    @property
    def output_str(self):
        return "".join(chr(x) for x in self.output_labels)


class Fst:
    """A mutable weighted finite-state transducer.

    ``semiring`` is a weight class; all arc and final weights are
    instances of it.  There is at most one initial state.  Final weights
    are stored sparsely: a state without an entry is non-final
    (equivalently, final weight zero), as is one set to zero.
    """

    def __init__(self, semiring=BooleanWeight):
        self.semiring = semiring
        self._arcs = []  # its own list, or a shared tuple of tuples
        self.initial = None
        self._finals = {}  # final state -> kernel value
        self._search = None  # (initial state, its forward search), or None
        self._tables = None  # state -> its sampling table, or None

    @property
    def finals(self):
        """A read-only mapping from each final state to its weight, built
        on each read; ``set_final_weight`` changes the weights."""
        box = _box(self.semiring)
        return MappingProxyType({s: box(v) for s, v in self._finals.items()})

    @property
    def num_states(self):
        return len(self._arcs)

    @property
    def num_arcs(self):
        return sum(len(arcs) for arcs in self._arcs)

    def states(self):
        return range(len(self._arcs))

    def arcs(self, state):
        """The arcs leaving ``state``, as new ``Arc`` records."""
        self._check_state(state)
        box, new = _box(self.semiring), tuple.__new__
        return tuple([new(Arc, (state, target, ilabel, olabel, box(value)))
                      for target, ilabel, olabel, value in self._arcs[state]])

    def all_arcs(self):
        """Every arc, by state then insertion order, as new ``Arc``s."""
        box, new = _box(self.semiring), tuple.__new__
        for state, arcs in enumerate(self._arcs):
            for target, ilabel, olabel, value in arcs:
                yield new(Arc, (state, target, ilabel, olabel, box(value)))

    def _check_state(self, state):
        if not isinstance(state, int) or not 0 <= state < len(self._arcs):
            raise InvalidStateError(f"unknown state {_shown(state)}")

    def add_state(self):
        """Add a new state and return its id (consecutive from 0)."""
        if self._arcs.__class__ is tuple:
            self._arcs = list(self._arcs)
        self._arcs.append([])
        self._search = None
        return len(self._arcs) - 1

    def add_arc(self, from_state, to_state, weight=None,
                input_label=EPSILON, output_label=None):
        """Append an arc.  Omitted weight defaults to the semiring's one;
        an omitted output label mirrors the input label.  Either way the
        weight passes ``cast``, as in ``set_final_weight``."""
        self._check_state(from_state)
        self._check_state(to_state)
        ilabel = as_label(input_label)
        olabel = ilabel if output_label is None else as_label(output_label)
        sr = self.semiring
        weight = sr.cast(sr.one if weight is None else weight)
        self._writable(from_state).append(
            (to_state, ilabel, olabel, _unbox(sr)(weight)))

    def _writable(self, state):
        """``state``'s arc list, ready for an in-place write: a shared
        table, then a shared tuple, is first replaced by a list copy that
        this machine owns.  A write may change a target or a choice, so
        what the machine keeps goes."""
        self._search = self._tables = None
        if self._arcs.__class__ is tuple:
            self._arcs = list(self._arcs)
        arcs = self._arcs[state]
        if arcs.__class__ is tuple:
            arcs = self._arcs[state] = list(arcs)
        return arcs

    def set_initial_state(self, state):
        """Set the (single) initial state, replacing any previous one."""
        self._check_state(state)
        self.initial = state
        self._search = None

    def set_final_weight(self, state, weight):
        """Set a state's final weight; weight zero makes it non-final."""
        self._check_state(state)
        weight = self.semiring.cast(weight)
        self._tables = None
        if weight == self.semiring.zero:
            self._finals.pop(state, None)
        else:
            self._finals[state] = _unbox(self.semiring)(weight)

    def final_weight(self, state):
        self._check_state(state)
        if state in self._finals:
            return _box(self.semiring)(self._finals[state])
        return self.semiring.zero

    def is_final(self, state):
        self._check_state(state)
        return state in self._finals

    def copy(self):
        """An independent machine with the same states, arcs and weights.
        The copy shares this machine's table if it is a tuple, in
        constant time; else it gets a tuple of each state's arcs as a
        tuple, made once from a list (``tuple()`` of a tuple is that
        tuple).  A later write to either machine copies the table and the
        state that it touches.  The copy keeps the forward search too,
        which no write changes in place."""
        out = Fst(self.semiring)
        out._arcs = _frozen(self._arcs)
        out.initial = self.initial
        out._finals = dict(self._finals)
        out._search = self._search
        return out

    def validate(self):
        """Check structural invariants; raises WfstError on violation.

        A stored value, of an arc or a final weight, is valid when it is
        a float on a float kernel, or any weight on the generic kernel,
        and the semiring's ``cast`` keeps its weight as is, which rules
        out non-members and elements of other semirings.
        """
        sr = self.semiring
        n = len(self._arcs)
        if self.initial is not None and not 0 <= self.initial < n:
            raise InvalidStateError(f"initial state {self.initial} unknown")
        if self._arcs.__class__ is tuple:
            for state, arcs in enumerate(self._arcs):
                if arcs.__class__ is not tuple:
                    raise InvalidStateError(
                        f"state {state}'s arcs are a list in a shared table")
        for target in [arc[0] for arcs in self._arcs for arc in arcs]:
            if not 0 <= target < n:
                raise InvalidStateError(f"arc target {target} unknown")
        for state in self._finals:
            if not 0 <= state < n:
                raise InvalidStateError(f"final state {state} unknown")
        box = _box(sr)
        for value in chain([arc[3] for arcs in self._arcs for arc in arcs],
                           self._finals.values()):
            weight = box(value) if value.__class__ is float else value
            if (sr.cast(weight) is not weight
                    or weight is value and box is not _same):
                raise InvalidWeightError(f"weight {weight!r} not in {sr.name}")
        return True

    def __repr__(self):
        return (
            f"<Fst semiring={self.semiring.name} states={self.num_states} "
            f"arcs={self.num_arcs} initial={self.initial} "
            f"finals={sorted(self._finals)}>"
        )


def _frozen(table):
    """``table``, a machine's ``_arcs``, as a tuple of tuples that any
    number of machines may share: a tuple table as it is, a list table
    copied once."""
    return table if table.__class__ is tuple else tuple(map(tuple, table))


def fst_from_sequence(labels, semiring=BooleanWeight):
    """Linear-chain acceptor for an iterable of labels (e.g. a string);
    the first bad label, epsilon included, raises InvalidLabelError, as
    does a ``labels`` that is not iterable."""
    try:
        labels = iter(labels)
    except TypeError:
        raise InvalidLabelError(
            f"bad label sequence {_shown(labels)}") from None
    values = []
    for value in map(as_label, labels):
        if value == EPSILON:
            raise InvalidLabelError("label 0 is reserved for epsilon")
        values.append(value)
    one = _unbox(semiring)(semiring.cast(semiring.one))
    fst = Fst(semiring)
    fst._arcs = [[(k + 1, v, v, one)] for k, v in enumerate(values)]
    fst._arcs.append([])
    fst.initial = 0
    fst._finals[len(values)] = one
    return fst


def _read_path(fst, steps, weight):
    """The ``Path`` of ``weight`` through ``steps``, (source, stored arc)
    pairs of ``fst``, its arcs built as ``all_arcs()`` builds them."""
    box, new = _box(fst.semiring), tuple.__new__
    return Path(tuple([new(Arc, (s, t, i, o, box(v)))
                       for s, (t, i, o, v) in steps]), weight)


class PathEnumeration(list):
    """The paths that enumerate_paths found, in order: a list, whose
    ``truncated`` flag says whether a cap cut the search short."""

    def __init__(self, paths=(), truncated=False):
        super().__init__(paths)
        self.truncated = truncated


def enumerate_paths(fst, max_paths=1000, max_length=None, max_steps=200_000):
    """All accepting paths, depth-first by arc insertion order.

    At each state, stopping (if final) is considered before its outgoing
    arcs, so shorter paths precede their extensions.  Three caps, each an
    integer of at least 0 (else WfstError), bound it: ``max_paths`` paths,
    ``max_length`` arcs per path (default ``max_paths``), and ``max_steps``
    arcs taken; the first one hit ends it and sets ``truncated``.  It
    walks kernel values, as ``shortest_path`` does, and each path weight
    passes the membership gate, so a NaN raises InvalidWeightError.
    """
    max_paths = _argument("max_paths", max_paths, integer=True)
    max_length = _argument("max_length", max_paths if max_length is None
                           else max_length, integer=True)
    max_steps = _argument("max_steps", max_steps, integer=True)
    paths = PathEnumeration()
    if fst.initial is None:
        return paths
    kernel = _kernel(fst.semiring)
    times, finals = kernel.times, fst._finals
    taken = []  # (source, arc) pairs: the path to the state being entered
    stack = []  # (state, its arcs still to try, the path's value there)
    state, value, steps = fst.initial, kernel.one, 0
    while True:
        if state in finals:  # stopping comes before the outgoing arcs
            if len(paths) >= max_paths:
                break
            paths.append(_read_path(
                fst, taken, kernel.checked(times(value, finals[state]))))
        stack.append((state, iter(fst._arcs[state]), value))
        arc = None
        while stack and arc is None:
            source, arcs, value = stack[-1]
            arc = next(arcs, None)
            if arc is None:
                stack.pop()
                del taken[-1:]  # the arc into ``source``, if any
        if arc is None:
            return paths
        if len(taken) >= max_length or steps >= max_steps:
            break
        steps += 1
        taken.append((source, arc))
        state, value = arc[0], times(value, arc[3])
    paths.truncated = True
    return paths
