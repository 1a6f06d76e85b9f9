"""Differentiable real semiring backed by a scalar reverse-mode tape,
and training by the expected-count gradient.

Weights are <+, *, 0, 1> real numbers whose operations are recorded on a
GradientTape, so the total weight produced by sum_paths can be
differentiated with respect to designated arc-weight parameters.  A tape
is confined to a single thread.

sum_paths does not record its distance pass.  Through the semiring's
``total_weight`` hook it computes the forward distances alpha and the
backward distances beta on the weights' float values, with the exact
real-semiring solver, and records the total as one node whose parents
are the arc and final weights: the partial of an arc s -> t is
alpha(s)·beta(t) and that of a final weight at f is alpha(f) (Eisner,
"Inside-Outside and Forward-Backward Algorithms Are Just Backprop",
2016).  So the gradient of a cyclic sum is exact.  Elsewhere
(shortest_distance, push) the operators record as usual, ``star``
included.

The log-likelihood loss of an observed pair, log Z - log Z_obs, is
computed with all its partials on float values (``_losses``).  The
machine restricted to the pair is composed on the real float kernel,
and the composition reports which model arc made each of its arcs, so
the partial of a model arc is its expected count under the model minus
its expected count on the paths that agree with the pair (Eisner,
"Parameter Estimation for Probabilistic Finite-State Transducers",
2002).  loglikelihood_loss records the loss as one tape node; train
keeps no tape and solves the model's total once per step.
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
from .semirings import RealWeight, _kernel, _NumericWeight, _real_star


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
    def total_weight(cls, fst):
        """The total weight of ``fst`` as one tape node (forward-backward):
        the distances run on the weights' values, with the real kernel."""
        from .algorithms import lift

        total, partials = _forward_backward(lift(fst, RealWeight))
        return cls(cls.tape.record(total, _weight_nodes(fst), partials))

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
    Returns log(denominator) - log(numerator) as a diff weight recorded
    as one tape node, whose parents are the machine's arc and final
    weights, and the observed machine's too when it is diff-weighted.
    The loss and its partials, the expected-count gradient, are computed
    on the weights' float values (see ``_losses``).
    """
    from .algorithms import lift

    semiring = full_fst.semiring
    if not issubclass(semiring, _DiffWeightBase):
        raise SemiringMismatchError("loglikelihood_loss needs a diff-semiring FST")
    if not (observed_fst.semiring is semiring
            or observed_fst.semiring.is_boolean):
        raise SemiringMismatchError(
            f"incompatible semirings: {observed_fst.semiring.name} vs "
            f"{semiring.name}")
    model = lift(full_fst, RealWeight)
    (loss,), partials = _losses(model, *_project_observed(
        model, [lift(observed_fst, RealWeight)]))
    parents = _weight_nodes(full_fst)
    if observed_fst.semiring is semiring:
        parents += _weight_nodes(observed_fst)
    return semiring(semiring.tape.record(loss, parents,
                                         partials[:len(parents)]))


def _weight_nodes(fst):
    """The tape nodes of a diff machine's weights, which it stores as they
    are: arcs in ``all_arcs()`` order, then finals in ``finals`` order."""
    return ([arc[3].node for arcs in fst._arcs for arc in arcs]
            + [weight.node for weight in fst.finals.values()])


def _project_observed(model, observed):
    """The input and output projections of each real machine in
    ``observed``, and the parameter number of its first arc: ([(machine,
    input projection, output projection, first), ...], the total
    parameter count).  Parameters are numbered as ``_losses`` lays out
    its partials.  ``train`` builds them once for all its steps, which
    keep the model's parameter count."""
    from .algorithms import project

    first = model.num_arcs + len(model.finals)
    projected = []
    for obs in observed:
        projected.append((obs, project(obs, "input"), project(obs, "output"),
                          first))
        first += obs.num_arcs + len(obs.finals)
    return projected, first


def _losses(model, projected, size):
    """Each observed machine's loss log Z - log Z_obs under ``model``, and
    the partials of their sum, all on float values.

    ``model`` is a real FST; ``projected`` and ``size`` are
    ``_project_observed(model, observed)`` for the observed real machines.
    The model's forward and backward values alpha and beta, and its total
    weight Z, are computed once for all the observed machines.  For each,
    the restricted machine R (the observed input projection, composed
    with the model, composed with the observed output projection) is
    built on the real float kernel, with every product through the
    membership gate, and its own alpha_R, beta_R and total Z_obs are
    computed.

    The partials come as one flat list: the model's arc weights in
    ``all_arcs()`` order, then its final weights in ``finals`` order, then
    each observed machine's the same way.  Log Z contributes
    alpha(s)·beta(t)/Z to the model arc s -> t and alpha(f)/Z to the final
    weight at f.  Each arc of R is the product of up to three factors, one
    arc weight from each machine, whose positions the composition reports
    (its provenance), and -log Z_obs contributes to each factor
    -alpha_R(source)·beta_R(target) times the product of the other
    factors, over Z_obs; R's final weights work the same way.  This is
    the expected-count gradient (Eisner, "Parameter Estimation for
    Probabilistic Finite-State Transducers", 2002): the chain rule of the
    diff tape, summed without recording it.

    A non-positive Z_obs or Z raises WfstError, and a divergent total
    DivergenceError.
    """
    from .algorithms import _compose

    if model.initial is None:  # every restricted machine is empty
        raise WfstError("observed pair has non-positive total weight 0.0")
    total, total_partials = _forward_backward(model)
    model_values = [arc[3] for arcs in model._arcs for arc in arcs]
    model_finals = {state: len(model_values) + k
                    for k, state in enumerate(model.finals)}
    partials = [0.0] * size
    losses = []
    for obs, p_in, p_out, first in projected:
        middle, middle_origins, middle_pairs = _compose(p_in, model, True)
        restricted, origins, pairs = _compose(middle, p_out, True)
        observed_total = 0.0
        if restricted.initial is not None:
            observed_total, restricted_partials = _forward_backward(restricted)
        if observed_total <= 0.0:
            raise WfstError("observed pair has non-positive total weight "
                            f"{observed_total}")
        if total <= 0.0:
            raise WfstError(f"machine has non-positive total weight {total}")
        losses.append(math.log(total) - math.log(observed_total))
        scale = 1.0 / total
        for k, partial in enumerate(total_partials):
            partials[k] += scale * partial
        # Back through the two products that made each weight of R: its
        # partial, times the output side's factor, then the input side's.
        # Both projections have the observed machine's arc values.
        scale = -1.0 / observed_total
        obs_values = [arc[3] for arcs in obs._arcs for arc in arcs]
        restricted_partials = iter(restricted_partials)
        for (middle_slot, out_slot), partial in zip(origins,
                                                    restricted_partials):
            adjoint = scale * partial
            if adjoint == 0.0:
                continue
            in_slot = model_slot = None
            if middle_slot is not None:
                in_slot, model_slot = middle_origins[middle_slot]
            w_in = 1.0 if in_slot is None else obs_values[in_slot]
            w_model = 1.0 if model_slot is None else model_values[model_slot]
            if out_slot is not None:
                partials[first + out_slot] += adjoint * (w_in * w_model)
                adjoint *= obs_values[out_slot]
            if in_slot is not None:
                partials[first + in_slot] += adjoint * w_model
            if model_slot is not None:
                partials[model_slot] += adjoint * w_in
        obs_finals = {state: first + len(obs_values) + k
                      for k, state in enumerate(obs.finals)}
        for state, partial in zip(restricted.finals, restricted_partials):
            adjoint = scale * partial
            middle_state, out_state = pairs[state]
            in_state, model_state = middle_pairs[middle_state]
            w_in = obs.finals[in_state].value
            w_model = model.finals[model_state].value
            partials[obs_finals[out_state]] += adjoint * (w_in * w_model)
            adjoint *= obs.finals[out_state].value
            partials[obs_finals[in_state]] += adjoint * w_model
            partials[model_finals[model_state]] += adjoint * w_in
    return losses, partials


def _forward_backward(fst):
    """The total weight of a real ``fst``, which has an initial state, and
    its partials, all on float values: alpha(s)·beta(t) for each arc
    s -> t in ``all_arcs()`` order, then alpha(f) for each final state f
    in ``finals`` order, from the exact real-semiring solver."""
    from .algorithms import _backward_values, _forward_values

    kernel = _kernel(RealWeight)
    alpha = _forward_values(fst, kernel)
    beta = _backward_values(fst, kernel)
    total = 0.0
    for state, weight in fst.finals.items():
        total += alpha[state] * weight.value
    return total, ([alpha[source] * beta[arc[0]]
                    for source, arcs in enumerate(fst._arcs) for arc in arcs]
                   + [alpha[state] for state in fst.finals])


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

    ``real_fst`` supplies the initial arc and final weights (real or diff
    semiring); every arc and final weight is a parameter.  The pairs'
    input and output projections are built once, before the first step.
    Each step
    computes the model's total weight Z, with its forward and backward
    values, once, then each pair's loss and the expected-count gradient
    on float values (see ``_losses``), and updates with plain gradient
    descent.  No tape is kept: a step neither records nor backpropagates.
    Z and every pair's total are exact, cycles included.  A model whose
    total weight diverges (a cycle of weight 1 or more) raises
    DivergenceError.  Weights are clamped to at least ``min_weight`` so
    the probability model stays well defined.  Returns (trained real FST,
    per-step losses).  An empty ``pairs`` raises WfstError.
    """
    from .algorithms import _gate_arcs, _rebuilt, lift

    if not pairs:
        raise WfstError("train needs at least one observed pair")
    model = lift(real_fst, RealWeight)
    projected, size = _project_observed(
        model, [lift(pair_acceptor(i, o), RealWeight) for i, o in pairs])
    kernel = _kernel(RealWeight)
    # Floats, so that every descended value is one, as the kernel needs.
    floor, rate = float(min_weight), float(rate)
    losses = []
    for _ in range(steps):
        step_losses, partials = _losses(model, projected, size)
        losses.append(sum(step_losses))
        # The arcs in all_arcs() order, then the finals in finals order:
        # the order of the partials.
        descent = iter(partials)

        def descend(value):
            return max(floor, value - rate * next(descent))

        arcs = [[(t, i, o, descend(v)) for t, i, o, v in arcs]
                for arcs in model._arcs]
        model = _rebuilt(model, RealWeight, _gate_arcs(kernel, arcs),
                         lambda w: kernel.checked(descend(w.value)))
    return model, losses
