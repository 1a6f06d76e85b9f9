"""Exception hierarchy for the wfst library."""


class WfstError(Exception):
    """Base class for all errors raised by this library."""


class SemiringMismatchError(WfstError):
    """Two weights (or FSTs) from incompatible semirings were combined."""


class UnsupportedOperationError(WfstError):
    """The semiring does not support the requested operation."""


class DivisionByZeroError(WfstError):
    """Semiring division by the additive identity."""


class InvalidStateError(WfstError):
    """A state id that does not exist in the FST."""


class InvalidLabelError(WfstError):
    """A label that cannot be converted to a valid arc label."""


class InvalidWeightError(WfstError):
    """A weight that is not a member of the required semiring."""


class ConvergenceError(WfstError):
    """A cyclic shortest-distance computation has no answer.

    ``scc`` is the tuple of states of the strongly connected component
    where it failed.  Every cyclic sum is solved exactly, so the one kind
    raised is its subclass DivergenceError; handlers of this class catch
    it.
    """

    def __init__(self, message, scc=()):
        super().__init__(message)
        self.scc = tuple(scc)


class DivergenceError(ConvergenceError):
    """A cycle has no closure: its star (one + a + a² + ...) does not
    exist, or in an idempotent semiring it still improves the distances
    after one round per state (a negative cycle under min, a featurized
    cycle that adds features).  ``state`` is a state on it, when known.
    """

    def __init__(self, message, scc=(), state=None):
        super().__init__(message, scc)
        self.state = state


class DeterminizationLimitError(WfstError):
    """Subset construction exceeded the state-expansion cap.

    ``subsets`` is the number of subsets built when it stopped, ``cap``
    the cap, and ``label`` the (input, output) label pair of the arc whose
    new subset would have crossed the cap.
    """

    def __init__(self, message, subsets=None, cap=None, label=None):
        super().__init__(message)
        self.subsets = subsets
        self.cap = cap
        self.label = label


class NoAcceptingPathError(WfstError):
    """The FST accepts nothing, so no path can be returned."""


class SamplingError(WfstError):
    """Random path sampling hit a dead end or an invalid sampling weight."""


class CycleLimitError(WfstError):
    """A path-walking operation exceeded its step cap on a cyclic machine."""


class FstParseError(WfstError):
    """Malformed FST text document."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
