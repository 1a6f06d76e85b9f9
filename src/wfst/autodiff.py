"""Differentiable real semiring backed by a scalar reverse-mode tape.

Weights are <+, *, 0, 1> real numbers whose operations are recorded on a
GradientTape, so the total weight produced by sum_paths can be
differentiated with respect to designated arc-weight parameters.  A tape
is confined to a single thread; training creates a fresh tape per step.

sum_paths does not record its distance pass.  Through the semiring's
``total_weight`` hook it computes the forward distances alpha and the
backward distances beta on the weights' float values, with the exact
real-semiring solver, and records the total as one node whose parents
are the arc and final weights: the partial of an arc s -> t is
alpha(s)·beta(t) and that of a final weight at f is alpha(f) (Eisner,
"Inside-Outside and Forward-Backward Algorithms Are Just Backprop",
2016).  So the gradient of a cyclic sum is exact, and a loss costs
O(arcs) tape nodes.  Elsewhere (shortest_distance, push) the operators
record as usual, ``star`` included.
"""

import math

from .errors import (
    DivisionByZeroError,
    InvalidWeightError,
    SemiringMismatchError,
    UnsupportedOperationError,
    WfstError,
)
from .fst import Fst
from .semirings import RealWeight, _NumericWeight, _real_star


class TapeNode:
    """One recorded operation: a value, parent nodes and local partials."""

    __slots__ = ("value", "parents", "partials", "node_id")

    def __init__(self, value, parents, partials, node_id):
        self.value = value
        self.parents = parents
        self.partials = partials
        self.node_id = node_id

    def __repr__(self):
        return f"TapeNode(id={self.node_id}, value={self.value})"


class GradientTape:
    """Append-only record of scalar operations for reverse accumulation."""

    def __init__(self):
        self.nodes = []
        self.parameters = set()

    def record(self, value, parents=(), partials=()):
        node = TapeNode(float(value), tuple(parents), tuple(partials),
                        len(self.nodes))
        self.nodes.append(node)
        return node

    def constant(self, value):
        return self.record(value)

    def parameter(self, value):
        node = self.record(value)
        self.parameters.add(node.node_id)
        return node

    def backward(self, node):
        """Gradients of ``node`` w.r.t. every parameter on the tape.

        Parameters the output does not depend on get gradient 0.
        """
        nid = getattr(node, "node_id", None)
        if (nid is None or not 0 <= nid < len(self.nodes)
                or self.nodes[nid] is not node):
            raise InvalidWeightError("node is not on this tape")
        adjoint = [0.0] * (nid + 1)
        adjoint[nid] = 1.0
        for i in range(nid, -1, -1):
            grad = adjoint[i]
            if grad == 0.0:
                continue
            cur = self.nodes[i]
            for parent, partial in zip(cur.parents, cur.partials):
                adjoint[parent.node_id] += grad * partial
        return {
            pid: (adjoint[pid] if pid <= nid else 0.0)
            for pid in self.parameters
        }


class _DiffWeightBase(_NumericWeight):
    """Real <+, *> semiring element recording onto a class-bound tape.

    Everything but the recording operators is the numeric semiring's,
    on ``value``: equality ignores tape structure, and ``quantize`` and
    ``random_member`` go through ``cast``, which records a constant.
    """

    name = "diff"
    tape = None
    __slots__ = ("node",)

    def __init__(self, node):
        self.node = node
        self.value = node.value

    def __add__(self, other):
        other = self._coerce(other)
        node = self.tape.record(self.value + other.value,
                                (self.node, other.node), (1.0, 1.0))
        return type(self)(node)

    def __mul__(self, other):
        other = self._coerce(other)
        node = self.tape.record(self.value * other.value,
                                (self.node, other.node),
                                (other.value, self.value))
        return type(self)(node)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.value == 0.0:
            raise DivisionByZeroError("diff division by zero element")
        node = self.tape.record(
            self.value / other.value,
            (self.node, other.node),
            (1.0 / other.value, -self.value / (other.value ** 2)),
        )
        return type(self)(node)

    def __pow__(self, n):
        if n < 0:
            raise UnsupportedOperationError("negative power")
        if n == 0:
            return type(self).one
        node = self.tape.record(self.value ** n, (self.node,),
                                (n * self.value ** (n - 1),))
        return type(self)(node)

    @classmethod
    def star(cls, a):
        value = _real_star(a.value)
        # d/da 1 / (1 - a) = 1 / (1 - a)²
        return cls(cls.tape.record(value, (a.node,), (value * value,)))

    @classmethod
    def total_weight(cls, fst, delta):
        """The total weight of ``fst`` as one tape node (forward-backward)."""
        from .algorithms import _backward_distance, _forward_distance, lift

        real = lift(fst, RealWeight)
        alpha = [w.value for w in _forward_distance(real, delta)]
        beta = [w.value for w in _backward_distance(real, delta)]
        parents, partials = [], []
        for arc in fst.all_arcs():
            parents.append(arc.weight.node)
            partials.append(alpha[arc.source] * beta[arc.target])
        total = 0.0
        for state, weight in fst.finals.items():
            parents.append(weight.node)
            partials.append(alpha[state])
            total += alpha[state] * weight.value
        return cls(cls.tape.record(total, parents, partials))

    def log(self):
        if self.value <= 0.0:
            raise WfstError(f"log of non-positive weight {self.value}")
        node = self.tape.record(math.log(self.value), (self.node,),
                                (1.0 / self.value,))
        return type(self)(node)

    def __sub__(self, other):
        other = self._coerce(other)
        node = self.tape.record(self.value - other.value,
                                (self.node, other.node), (1.0, -1.0))
        return type(self)(node)

    def text(self):
        return repr(self.value)

    __str__ = text

    @classmethod
    def from_text(cls, s):
        # Loaded diff weights become fresh trainable parameters.
        try:
            return cls.parameter(float(s))
        except ValueError as exc:
            raise InvalidWeightError(f"bad diff weight {s!r}") from exc

    @classmethod
    def _cast_raw(cls, value):
        if isinstance(value, (int, float)):
            return cls.constant(value)
        return None

    @classmethod
    def constant(cls, value):
        return cls(cls.tape.constant(float(value)))

    @classmethod
    def parameter(cls, value):
        """A trainable leaf weight."""
        return cls(cls.tape.parameter(float(value)))


def make_diff_semiring(tape=None):
    """A diff semiring class bound to ``tape`` (a fresh one by default)."""
    if tape is None:
        tape = GradientTape()
    cls = type("DiffWeight", (_DiffWeightBase,), {"__slots__": ()})
    cls.tape = tape
    cls.zero = cls.constant(0.0)
    cls.one = cls.constant(1.0)
    return cls


def backward(tape, output):
    """Module-level spelling of tape.backward for a weight or node."""
    node = output.node if isinstance(output, _DiffWeightBase) else output
    return tape.backward(node)


def loglikelihood_loss(full_fst, observed_fst):
    """Negative log-probability of the observed pair under the machine.

    The numerator restricts the machine to paths agreeing with the
    observed pair on both tapes (by composing with the pair's input and
    output projections); the denominator is the machine's total weight.
    Returns log(denominator) - log(numerator) as a recorded diff weight.
    """
    from .algorithms import compose, project, sum_paths

    if not issubclass(full_fst.semiring, _DiffWeightBase):
        raise SemiringMismatchError("loglikelihood_loss needs a diff-semiring FST")
    restricted = compose(
        compose(project(observed_fst, "input"), full_fst),
        project(observed_fst, "output"),
    )
    numerator = sum_paths(restricted)
    denominator = sum_paths(full_fst)
    if numerator.value <= 0.0:
        raise WfstError(
            f"observed pair has non-positive total weight {numerator.value}"
        )
    if denominator.value <= 0.0:
        raise WfstError(
            f"machine has non-positive total weight {denominator.value}"
        )
    return denominator.log() - numerator.log()


def pair_acceptor(input_str, output_str):
    """Boolean transducer whose input/output projections accept exactly
    the observed input and output strings.

    Shorter strings are padded with epsilon; loglikelihood_loss only uses
    the two projections, so the padding alignment is immaterial.
    """
    fst = Fst()
    state = fst.add_state()
    fst.set_initial_state(state)
    n = max(len(input_str), len(output_str))
    for k in range(n):
        i = input_str[k] if k < len(input_str) else 0
        o = output_str[k] if k < len(output_str) else 0
        nxt = fst.add_state()
        fst.add_arc(state, nxt, None, i, o)
        state = nxt
    fst.set_final_weight(state, fst.semiring.one)
    return fst


def train(real_fst, pairs, steps=200, rate=0.05, min_weight=1e-6):
    """Gradient descent on the summed pair log-likelihood loss.

    ``real_fst`` supplies the initial arc and final weights (real
    semiring); each step rebuilds the machine on a fresh tape with every
    weight as a parameter, backpropagates through sum_paths and updates
    with plain gradient descent.  Each sum_paths is exact, cycles
    included, and adds one tape node, so a step's tape holds O(arcs)
    nodes.  A model whose total weight diverges (a cycle of weight 1 or
    more) raises DivergenceError.  Weights are clamped positive so the
    probability model stays well defined.  Returns (trained real FST,
    per-step losses).
    """
    from .algorithms import lift

    observed = [pair_acceptor(i, o) for i, o in pairs]
    model = lift(real_fst, RealWeight)
    losses = []
    for _ in range(steps):
        semiring = make_diff_semiring()
        dfst = lift(model, semiring,
                    cast=lambda w: semiring.parameter(w.value))
        total = None
        for obs in observed:
            loss = loglikelihood_loss(dfst, obs)
            total = loss if total is None else total + loss
        losses.append(total.value)
        grads = semiring.tape.backward(total.node)
        model = lift(dfst, RealWeight, cast=lambda w: RealWeight(
            max(min_weight, w.value - rate * grads[w.node.node_id])))
    return model, losses
