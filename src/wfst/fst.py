"""The FST data model and mutation-based construction API.

States are dense integers labeled from 0.  Arc labels are nonnegative
integers with 0 reserved for epsilon; single characters are converted via
their code point.  Construction methods mutate in place; everything in
the algorithms module treats a finished FST as immutable.
"""

from collections import namedtuple
from itertools import chain

from .errors import (
    InvalidLabelError,
    InvalidStateError,
    InvalidWeightError,
    WfstError,
)
from .semirings import BooleanWeight

EPSILON = 0
MAX_LABEL = 2 ** 64 - 1


def as_label(label):
    """Convert a label argument (int or single character) to an integer."""
    if isinstance(label, bool):
        raise InvalidLabelError(f"bad label {label!r}")
    if isinstance(label, int):
        if not 0 <= label <= MAX_LABEL:
            raise InvalidLabelError(f"label {label} out of 64-bit range")
        return label
    if isinstance(label, str):
        if len(label) != 1:
            raise InvalidLabelError(
                f"label must be a single character, got {label!r}"
            )
        return ord(label)
    raise InvalidLabelError(f"bad label {label!r}")


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
    """An immutable arc record; ``arc._replace(weight=w)`` makes a changed
    copy.  Being a tuple, it also equals a plain tuple of its fields."""

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
    are stored sparsely; a state without an entry is non-final
    (equivalently, final weight zero).
    """

    def __init__(self, semiring=BooleanWeight):
        self.semiring = semiring
        self._arcs = []
        self.initial = None
        self.finals = {}

    @property
    def num_states(self):
        return len(self._arcs)

    @property
    def num_arcs(self):
        return sum(len(arcs) for arcs in self._arcs)

    def states(self):
        return range(len(self._arcs))

    def arcs(self, state):
        self._check_state(state)
        return tuple(self._arcs[state])

    def all_arcs(self):
        for arcs in self._arcs:
            yield from arcs

    def _check_state(self, state):
        if not isinstance(state, int) or not 0 <= state < len(self._arcs):
            raise InvalidStateError(f"unknown state {state!r}")

    def add_state(self):
        """Add a new state and return its id (consecutive from 0)."""
        self._arcs.append([])
        return len(self._arcs) - 1

    def add_arc(self, from_state, to_state, weight=None,
                input_label=EPSILON, output_label=None):
        """Append an arc.  Omitted weight defaults to the semiring's one;
        an omitted output label mirrors the input label."""
        self._check_state(from_state)
        self._check_state(to_state)
        ilabel = as_label(input_label)
        olabel = ilabel if output_label is None else as_label(output_label)
        weight = (self.semiring.one if weight is None
                  else self.semiring.cast(weight))
        self._arcs[from_state].append(
            Arc(from_state, to_state, ilabel, olabel, weight)
        )

    def set_initial_state(self, state):
        """Set the (single) initial state, replacing any previous one."""
        self._check_state(state)
        self.initial = state

    def set_final_weight(self, state, weight):
        """Set a state's final weight; weight zero makes it non-final."""
        self._check_state(state)
        weight = self.semiring.cast(weight)
        if weight == self.semiring.zero:
            self.finals.pop(state, None)
        else:
            self.finals[state] = weight

    def final_weight(self, state):
        self._check_state(state)
        return self.finals.get(state, self.semiring.zero)

    def is_final(self, state):
        self._check_state(state)
        return state in self.finals

    def copy(self):
        out = Fst(self.semiring)
        out._arcs = [list(arcs) for arcs in self._arcs]
        out.initial = self.initial
        out.finals = dict(self.finals)
        return out

    def validate(self):
        """Check structural invariants; raises WfstError on violation.

        A weight is valid when the semiring's ``cast`` keeps it as is,
        which rules out non-members and elements of other semirings.
        """
        n = len(self._arcs)
        if self.initial is not None and not 0 <= self.initial < n:
            raise InvalidStateError(f"initial state {self.initial} unknown")
        for state, arcs in enumerate(self._arcs):
            for arc in arcs:
                if arc.source != state:
                    raise WfstError(f"arc {arc} filed under state {state}")
                if not 0 <= arc.target < n:
                    raise InvalidStateError(f"arc target {arc.target} unknown")
        for state in self.finals:
            if not 0 <= state < n:
                raise InvalidStateError(f"final state {state} unknown")
        arc_weights = (arc.weight for arc in self.all_arcs())
        for weight in chain(arc_weights, self.finals.values()):
            if self.semiring.cast(weight) is not weight:
                raise InvalidWeightError(
                    f"weight {weight!r} not in {self.semiring.name}")
        return True

    def __repr__(self):
        return (
            f"<Fst semiring={self.semiring.name} states={self.num_states} "
            f"arcs={self.num_arcs} initial={self.initial} "
            f"finals={sorted(self.finals)}>"
        )


def fst_from_sequence(labels, semiring=BooleanWeight):
    """Linear-chain acceptor for an iterable of labels (e.g. a string)."""
    fst = Fst(semiring)
    state = fst.add_state()
    fst.set_initial_state(state)
    for label in labels:
        value = as_label(label)
        if value == EPSILON:
            raise InvalidLabelError("label 0 is reserved for epsilon")
        nxt = fst.add_state()
        fst.add_arc(state, nxt, semiring.one, value, value)
        state = nxt
    fst.set_final_weight(state, semiring.one)
    return fst


class PathEnumeration:
    """Paths found by enumerate_paths plus a truncation flag."""

    def __init__(self, paths, truncated):
        self.paths = paths
        self.truncated = truncated

    def __iter__(self):
        return iter(self.paths)

    def __len__(self):
        return len(self.paths)

    def __getitem__(self, idx):
        return self.paths[idx]


def enumerate_paths(fst, max_paths=1000, max_length=None, max_steps=200_000):
    """All accepting paths, depth-first by arc insertion order.

    At each state, stopping (if final) is considered before its outgoing
    arcs, so shorter paths precede their extensions.  Enumeration is
    bounded by ``max_paths`` accepting paths, ``max_length`` arcs per path
    (cycles), and ``max_steps`` arc traversals overall; hitting any bound
    sets the truncation flag.
    """
    if max_length is None:
        max_length = max_paths
    paths = []
    truncated = False
    if fst.initial is None:
        return PathEnumeration(paths, truncated)

    sr = fst.semiring

    def emit(state, acc):
        fw = fst.finals.get(state)
        if fw is None:
            return True
        if len(paths) >= max_paths:
            return False
        paths.append(Path(tuple(taken), acc * fw))
        return True

    taken = []
    # Each frame: [state, next arc index]; weights holds the running product.
    frames = [[fst.initial, 0]]
    weights = [sr.one]
    steps = 0
    if not emit(fst.initial, weights[0]):
        truncated = True
    while frames and not truncated:
        state, idx = frames[-1]
        arcs = fst._arcs[state]
        if idx >= len(arcs) or len(taken) >= max_length:
            if idx < len(arcs):
                truncated = True  # depth cap cut off unexplored arcs
            frames.pop()
            weights.pop()
            if taken:
                taken.pop()
            continue
        frames[-1][1] = idx + 1
        steps += 1
        if steps > max_steps:
            truncated = True
            break
        arc = arcs[idx]
        taken.append(arc)
        acc = weights[-1] * arc.weight
        frames.append([arc.target, 0])
        weights.append(acc)
        if not emit(arc.target, acc):
            truncated = True
    return PathEnumeration(paths, truncated)
