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
machine restricted to the pair is built once per call, by one 3-way
composition of the pair's input projection, the model and the pair's
output projection (``_restrict``), which records which model arc made
each of its arcs, so the partial of a model arc is its expected count
under the model minus its expected count on the paths that agree with
the pair (Eisner, "Parameter Estimation for Probabilistic Finite-State
Transducers", 2002).  loglikelihood_loss records the loss as one tape
node; train keeps no tape, and each of its steps re-weights the
restricted machines and solves them and the model's total once.
"""

import math
import numbers
from itertools import accumulate, count

from .errors import (
    DivisionByZeroError,
    InvalidWeightError,
    SemiringMismatchError,
    UnsupportedOperationError,
    WfstError,
)
from .fst import EPSILON, Fst
from .semirings import (RealWeight, _argument, _float_multiple, _float_power,
                        _kernel, _NumericWeight, _real_star, _shown)


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
        """A new node of ``value``, a real number (else InvalidWeightError),
        with its parents and the partials toward them."""
        try:
            value = float(value)
        except (TypeError, ValueError, OverflowError):
            raise InvalidWeightError("a tape value must be a real number, "
                                     f"got {_shown(value)}") from None
        node = TapeNode(value, tuple(parents), tuple(partials),
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
        if not isinstance(node, TapeNode):
            raise SemiringMismatchError(
                f"a {self.name} weight is built from a tape node, got "
                f"{_shown(node)}; use cast, constant or parameter")
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
        # Any whole exponent of at least 0, past the float range too, or
        # any finite real one; a whole one rounds as a real weight's power
        # does.
        if not (isinstance(n, numbers.Integral) and n >= 0):
            n = _argument(f"the exponent of a {self.name} power", n,
                          zero=True, error=UnsupportedOperationError)
        if n == 0:
            return type(self).one
        value = self.value
        if n % 1 == 0:
            n = int(n)
        elif value < 0:
            raise UnsupportedOperationError(
                f"{self!r} ** {n!r} is not a real number")
        # d/dx x ** n = n·x ** (n - 1), infinite at x = 0 for n < 1.
        slope = (math.inf if value == 0 and n < 1
                 else _float_power(value, n - 1))
        node = self.tape.record(_float_power(value, n), (self.node,),
                                (_float_multiple(slope, n),))
        return type(self)(node)

    @classmethod
    def star(cls, a):
        if not isinstance(a, _DiffWeightBase):
            raise SemiringMismatchError(
                f"cannot take the {cls.name} star of {_shown(a)}")
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
        return cls(cls.tape.constant(value))

    @classmethod
    def parameter(cls, value):
        """A trainable leaf weight."""
        return cls(cls.tape.parameter(value))


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
    observed pair on both tapes (the pair's input projection, the machine
    and the pair's output projection, composed in one 3-way pass); the
    denominator is the machine's total weight.
    Returns log(denominator) - log(numerator) as a diff weight recorded
    as one tape node, whose parents are the machine's arc and final
    weights, and the observed machine's too when it is diff-weighted.
    The loss and its partials, the expected-count gradient, are computed
    on the weights' float values: ``_restrict`` builds the restricted
    machine once and ``_losses`` solves it (one step of ``train``).
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
    (loss,), partials = _losses(model, *_restrict(
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
            + [weight.node for weight in fst._finals.values()])


def _restrict(model, observed):
    """Build, once per call, what the losses of the real machines
    ``observed`` under the real ``model`` keep from step to step: (the
    model's search, the restricted machines, the constants).  Nothing of
    it outlives the call that built it.

    Parameters are numbered as ``_losses`` lays out its partials: the
    model's arc weights in ``all_arcs()`` order, then its final weights
    in ``finals`` order, then each observed machine's the same way.  The
    constants are the observed machines' values in that order, then 1.0,
    whose slot stands for a factor that is not there.

    Each observed machine's restricted machine R (its input projection,
    the model and its output projection) is built here in one pass, a
    3-way composition (Allauzen and Mohri, "N-Way Composition of Weighted
    Finite-State Transducers", 2009) over keys ((in state, model state,
    filter), out state, filter), with ``compose``'s epsilon filter at both
    joins: the inner key is a state of the middle machine, input
    projection ∘ model.  Its moves are made on first use, so only the
    middle states that R reaches are built, and R's states and arcs, in
    order, are those that composing twice gives.  Nothing here reads a
    value.  Each arc of R is kept as (target, input, output, in slot,
    model slot, out slot): its weight is the product of one arc weight
    from each machine, with the slot of 1.0 for a side that stood still.  R's finals map each final state to the slots of its three
    final weights, whatever their product.  A restricted machine is (arcs,
    initial state, finals, factors, search): factors lists the slot
    triples of R's arcs, then of its finals, in the order of R's partials,
    and search is ``_components`` of R from its initial state; None for a
    machine without an initial state.  A search reads only the arcs'
    targets, so it holds for every set of values, as the model's kept
    search holds for each ``train`` step's model.
    """
    from .algorithms import _components, _kept_search

    first = model.num_arcs + len(model._finals)
    model_finals = {state: model.num_arcs + k
                    for k, state in enumerate(model._finals)}
    one = first + sum(obs.num_arcs + len(obs._finals) for obs in observed)
    by_input = _by_label(model._arcs, 1, 0)
    constants = []
    restricted = []
    for obs in observed:
        # Its arcs' slots start at base, its finals' at base + num_arcs.
        base, first = first, first + obs.num_arcs + len(obs._finals)
        constants += [arc[3] for arcs in obs._arcs for arc in arcs]
        constants += obs._finals.values()
        if model.initial is None or obs.initial is None:
            restricted.append(([], None, {}, [], None))
            continue
        starts = list(accumulate(map(len, obs._arcs), initial=base))
        by_output = _by_label(obs._arcs, 2, base)
        obs_finals = {state: base + obs.num_arcs + k
                      for k, state in enumerate(obs._finals)}
        middle = {}  # middle key -> [(target key, input, output, a, b)]

        def moves(key):
            # For each arc of the input projection, the model's matches,
            # then the input projection alone; then the model alone.
            qi, qm, f = key
            out = []
            matches = by_input[qm]
            for a, (ti, label, _, _) in enumerate(obs._arcs[qi], starts[qi]):
                # A matched non-epsilon move is allowed from any filter
                # state; both sides move on epsilon together only from 0.
                if label != EPSILON or f == 0:
                    for b, tm, output in matches.get(label, ()):
                        out.append(((ti, tm, 0), label, output, a, b))
                if label == EPSILON and f != 2:
                    out.append(((ti, qm, 1), EPSILON, EPSILON, a, one))
            if f != 1:
                for b, tm, output in matches.get(EPSILON, ()):
                    out.append(((qi, tm, 2), EPSILON, output, one, b))
            return out

        # States are numbered in the order they are found, and taken in
        # that order, so the state taken next is the next to get its arcs.
        keys = []
        numbers = {}
        finals = {}

        def state(key):
            number = numbers.get(key)
            if number is None:
                number = numbers[key] = len(keys)
                keys.append(key)
                (qi, qm, _), qo, _ = key
                if qi in obs_finals and qm in model_finals \
                        and qo in obs_finals:
                    finals[number] = (obs_finals[qi], model_finals[qm],
                                      obs_finals[qo])
            return number

        initial = state(((obs.initial, model.initial, 0), obs.initial, 0))
        arcs = []
        for key in keys:  # grows as states are found
            mkey, qo, f = key
            state_arcs = []
            arcs.append(state_arcs)
            made = middle.get(mkey)
            if made is None:
                made = middle[mkey] = moves(mkey)
            matches = by_output[qo]
            for target, i, o, a, b in made:
                if o != EPSILON or f == 0:
                    for c, to, _ in matches.get(o, ()):
                        state_arcs.append(
                            (state((target, to, 0)), i, o, a, b, c))
                if o == EPSILON and f != 2:
                    state_arcs.append(
                        (state((target, qo, 1)), i, EPSILON, a, b, one))
            if f != 1:
                for c, to, _ in matches.get(EPSILON, ()):
                    state_arcs.append((state((mkey, to, 2)), EPSILON,
                                       EPSILON, one, one, c))
        restricted.append((arcs, initial, finals,
                           [arc[3:] for state_arcs in arcs
                            for arc in state_arcs] + list(finals.values()),
                           _components(arcs, [initial])))
    constants.append(1.0)
    search = None if model.initial is None else _kept_search(model)
    return search, restricted, constants


def _by_label(arcs_by_state, side, first):
    """Each state's arcs by their label on ``side`` (1 for the input, 2
    for the output): label -> [(slot, target, the other label)], in arc
    order, where slots number the arcs in ``all_arcs()`` order from
    ``first``."""
    tables = []
    slots = count(first)
    for arcs in arcs_by_state:
        table = {}
        for arc, slot in zip(arcs, slots):
            table.setdefault(arc[side], []).append(
                (slot, arc[0], arc[3 - side]))
        tables.append(table)
    return tables


def _losses(model, search, restricted, constants):
    """Each observed machine's loss log Z - log Z_obs under ``model``, and
    the partials of their sum, all on float values: one step.

    ``model`` is a real FST, with the arcs and final states it had when
    ``_restrict(model, observed)`` gave ``search``, ``restricted`` and
    ``constants``; only its values may have changed.  The model's forward
    and backward values alpha and beta, and its total weight Z, are
    computed once for all the observed machines.  Each restricted machine
    R is then weighted with the model's current values: an arc's weight
    is its factors multiplied as two compositions would, (w_in·w_model)
    ·w_out, and passes the membership gate, as does each final weight,
    made the same way: this is the one gate on R's values.  Its alpha_R,
    beta_R and total Z_obs follow.  The searches are reused, so a step
    neither composes nor searches.

    The partials come as one flat list in ``_restrict``'s parameter order,
    with one more, meaningless, entry at the end (the slot of 1.0).  Log Z
    contributes alpha(s)·beta(t)/Z to the model arc s -> t and alpha(f)/Z
    to the final weight at f.  -Log Z_obs contributes to each factor of an
    arc of R -alpha_R(source)·beta_R(target) times the product of the
    other factors, over Z_obs; R's final weights work the same way.  This
    is the expected-count gradient (Eisner, "Parameter Estimation for
    Probabilistic Finite-State Transducers", 2002): the chain rule of the
    diff tape, summed without recording it.

    A non-positive Z_obs or Z raises WfstError, and a divergent total
    DivergenceError.
    """
    from .algorithms import _gate, _gate_arcs

    if model.initial is None:  # every restricted machine is empty
        raise WfstError("observed pair has non-positive total weight 0.0")
    kernel = _kernel(RealWeight)
    total, total_partials = _forward_backward(model, search)
    values = ([arc[3] for arcs in model._arcs for arc in arcs]
              + list(model._finals.values()) + constants)
    partials = [0.0] * len(values)
    losses = []
    for arcs, initial, finals, factors, r_search in restricted:
        observed_total = 0.0
        if initial is not None:
            machine = Fst(RealWeight)
            machine._arcs = _gate_arcs(kernel, [
                [(t, i, o, (values[a] * values[b]) * values[c])
                 for t, i, o, a, b, c in state_arcs] for state_arcs in arcs])
            machine.initial = initial
            machine._finals = {
                state: (values[a] * values[b]) * values[c]
                for state, (a, b, c) in finals.items()}
            _gate(kernel, list(machine._finals.values()))
            observed_total, r_partials = _forward_backward(machine, r_search)
        if observed_total <= 0.0:
            raise WfstError("observed pair has non-positive total weight "
                            f"{observed_total}")
        if total <= 0.0:
            raise WfstError(f"machine has non-positive total weight {total}")
        losses.append(math.log(total) - math.log(observed_total))
        scale = 1.0 / total
        for k, partial in enumerate(total_partials):
            partials[k] += scale * partial
        # Back through the two products that made each weight of R, arcs
        # then finals: its partial, times the output side's factor, then
        # the input side's.  A zero adjoint is skipped: no NaN from inf.
        scale = -1.0 / observed_total
        for (a, b, c), partial in zip(factors, r_partials):
            adjoint = scale * partial
            if adjoint == 0.0:
                continue
            partials[c] += adjoint * (values[a] * values[b])
            adjoint *= values[c]
            partials[a] += adjoint * values[b]
            partials[b] += adjoint * values[a]
    return losses, partials


def _forward_backward(fst, search=None):
    """The total weight of a real ``fst``, which has an initial state, and
    its partials, all on float values: alpha(s)·beta(t) for each arc
    s -> t in ``all_arcs()`` order, then alpha(f) for each final state f
    in ``finals`` order, from the exact real-semiring solver.  An arc on
    no accepting path, its alpha or beta zero, gets 0.0, never inf·0.
    ``search`` is the machine's kept forward search, which its forward
    and backward passes share, read here if not given."""
    from .algorithms import _backward_values, _forward_values, _kept_search

    search = search or _kept_search(fst)
    kernel = _kernel(RealWeight)
    alpha = _forward_values(fst, kernel, search)
    beta = _backward_values(fst, kernel, search)[0]
    total = 0.0
    for state, value in fst._finals.items():
        total += alpha[state] * value
    return total, ([a * beta[arc[0]] if a and beta[arc[0]] else 0.0
                    for a, arcs in zip(alpha, fst._arcs) for arc in arcs]
                   + [alpha[state] for state in fst._finals])


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
    semiring); every arc and final weight is a parameter.  Before the
    first step, each pair's restricted machine (its input projection, the
    model and its output projection, composed in one 3-way pass) is built
    once, with where each of its weights comes from and the graph search
    that its distance passes share, and the model's search too (see
    ``_restrict``); a descent changes values, never arcs, so they hold for
    every step.  Each step computes the model's total weight Z, with its
    forward and backward values, once, then re-weights each restricted
    machine with the model's current values and solves it for the pair's
    loss and the expected-count gradient on float values (see
    ``_losses``), and updates with plain gradient descent.  No step composes, and no tape
    is kept: a step neither records nor backpropagates.
    Z and every pair's total are exact, cycles included.  A model whose
    total weight diverges (a cycle of weight 1 or more) raises
    DivergenceError.  Weights are clamped to at least ``min_weight`` so
    the probability model stays well defined.  Returns (trained real FST,
    per-step losses).  An empty ``pairs`` raises WfstError, as do
    ``steps`` other than an integer of at least 0, ``rate`` other than a
    finite number above 0 and ``min_weight`` other than a finite number
    of at least 0.
    """
    from .algorithms import _gate, _gate_arcs, _rebuilt, lift

    steps = _argument("steps", steps, integer=True)
    # Floats, so that every descended value is one, as the kernel needs.
    rate = float(_argument("rate", rate))
    floor = float(_argument("min_weight", min_weight, zero=True))
    if not pairs:
        raise WfstError("train needs at least one observed pair")
    model = lift(real_fst, RealWeight)
    restricted = _restrict(
        model, [lift(pair_acceptor(i, o), RealWeight) for i, o in pairs])
    kernel = _kernel(RealWeight)
    losses = []
    for _ in range(steps):
        step_losses, partials = _losses(model, *restricted)
        losses.append(sum(step_losses))
        # The arcs in all_arcs() order, then the finals in finals order:
        # the order of the partials.
        descent = iter(partials)

        def descend(value):
            return max(floor, value - rate * next(descent))

        arcs = [[(t, i, o, descend(v)) for t, i, o, v in arcs]
                for arcs in model._arcs]
        finals = {s: descend(v) for s, v in model._finals.items()}
        _gate(kernel, list(finals.values()))
        model = _rebuilt(model, RealWeight, _gate_arcs(kernel, arcs), finals)
    return model, losses
