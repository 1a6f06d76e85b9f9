"""Transformations and queries over FSTs.

Every operation here returns a new FST (inputs are never mutated).
Binary operations require both arguments to share a semiring; a boolean
argument is auto-cast into the other side's semiring first.
"""

import math
from collections import defaultdict, deque, namedtuple
from functools import reduce
from itertools import accumulate, count

from .errors import (
    ConvergenceError,
    CycleLimitError,
    DeterminizationLimitError,
    DivergenceError,
    InvalidWeightError,
    NoAcceptingPathError,
    SamplingError,
    SemiringMismatchError,
    UnsupportedOperationError,
    WfstError,
)
from .fst import (EPSILON, Fst, _frozen, _read_path, enumerate_paths,
                  label_str)
from .semirings import (
    DEFAULT_DELTA,
    _argument,
    _box,
    _kernel,
    _NumericWeight,
    _same,
    _seeded,
    _unbox,
)

RELAXATION_SWEEP_CAP = 1000


class ShortestPathResult(namedtuple("ShortestPathResult", "path distance")):
    """``shortest_path``'s answer: the best ``Path`` and its weight, the
    distance.  A named tuple: ``path, distance = shortest_path(f)``."""

    __slots__ = ()


def _default_cast(source, target):
    """What ``lift`` hands to ``target.cast`` by default: a numeric weight's
    value, any other weight itself."""
    if source is target or source.is_boolean:
        return _same
    if issubclass(source, _NumericWeight):
        return lambda w: w.value
    raise SemiringMismatchError(
        f"no default cast from {source.name} to {target.name}; "
        "pass an explicit cast function to lift()"
    )


def _rebuilt(fst, semiring, arcs, finals):
    """A new FST over ``semiring`` with ``fst``'s states and initial state,
    the table ``arcs`` as given and a copy of the final values dict.
    Each state of ``arcs`` has the targets of ``fst``'s, so the new machine
    keeps ``fst``'s forward search."""
    out = Fst(semiring)
    out._arcs = arcs
    out.initial = fst.initial
    out._finals = dict(finals)
    out._search = fst._search
    return out


def lift(fst, target_semiring, cast=None):
    """Rebuild ``fst`` with every weight mapped into ``target_semiring``.

    Each weight goes through ``cast`` and then ``target_semiring.cast``,
    which rejects a non-member or a weight of another semiring.  Without
    ``cast``, a numeric weight lifted into a semiring with a float kernel
    keeps its value, which passes the same gate (a NaN raises
    InvalidWeightError) without a call to ``cast``; between two float
    kernels the table of arcs is shared, as ``Fst.copy`` shares it.  A
    final weight that lifts to zero (a cost of 0 lifted to a real, say) is
    left out.
    """
    kernel = _kernel(target_semiring)
    if (cast is None and kernel.box is not _same  # a float kernel
            and issubclass(fst.semiring, _NumericWeight)):
        if _unbox(fst.semiring) is _same:  # the values are weights
            arcs = [[(t, i, o, w.value) for t, i, o, w in arcs]
                    for arcs in fst._arcs]
            finals = {s: w.value for s, w in fst._finals.items()}
        else:
            arcs = _frozen(fst._arcs)
            finals = fst._finals
        _gate_arcs(kernel, arcs)
    else:
        if cast is None:
            cast = _default_cast(fst.semiring, target_semiring)
        box, unbox = _box(fst.semiring), kernel.unbox

        def convert(v):
            return unbox(target_semiring.cast(cast(box(v))))

        arcs = [[(t, i, o, convert(v)) for t, i, o, v in arcs]
                for arcs in fst._arcs]
        finals = {s: convert(v) for s, v in fst._finals.items()}
    return _rebuilt(fst, target_semiring, arcs, _kept_finals(kernel, finals))


def cast_from_boolean(fst, target_semiring):
    """Lift a boolean FST with the default true->one, false->zero cast."""
    if not fst.semiring.is_boolean:
        raise SemiringMismatchError("cast_from_boolean requires a boolean FST")
    return lift(fst, target_semiring)


def _coerce(*fsts):
    """Bring FSTs into one common semiring, the first non-boolean one
    (boolean auto-cast only)."""
    target = next((f.semiring for f in fsts if not f.semiring.is_boolean),
                  fsts[0].semiring)
    for f in fsts:
        if f.semiring is not target and not f.semiring.is_boolean:
            raise SemiringMismatchError(
                f"incompatible semirings: {target.name} vs {f.semiring.name}"
            )
    return [f if f.semiring is target else cast_from_boolean(f, target)
            for f in fsts]


def _copy_into(dst, src):
    """Append src's states and arcs to dst's list table, each state's
    arcs a tuple, targets renumbered by dst's state count; return that
    offset.  At offset 0 no arc changes, so src's states are shared, as
    ``Fst.copy`` shares them: from a tuple table by reference, without a
    call per state."""
    offset = dst.num_states
    if offset == 0:
        dst._arcs.extend(_frozen(src._arcs))
    else:
        dst._arcs.extend(tuple([(offset + t, i, o, v) for t, i, o, v in arcs])
                         for arcs in src._arcs)
    return offset


def union(*fsts):
    """Accepts the strings of any operand; shared strings get plus-combined
    weights.

    As in OpenFST, the first operand keeps its state ids, the others
    follow in argument order, and one new start state, numbered last, has
    an epsilon arc to each operand's start, in argument order.  The
    result's table is a tuple, so a pairwise fold copies one pointer per
    earlier state.
    """
    if not fsts:
        raise WfstError("union needs at least one FST")
    fsts = _coerce(*fsts)
    sr = fsts[0].semiring
    one = _unbox(sr)(sr.cast(sr.one))
    out = Fst(sr)
    offsets = [_copy_into(out, side) for side in fsts]
    out.initial = out.num_states
    out._arcs.append(tuple([(offset + side.initial, EPSILON, EPSILON, one)
                            for side, offset in zip(fsts, offsets)
                            if side.initial is not None]))
    out._arcs = tuple(out._arcs)
    out._finals.update(fsts[0]._finals)  # at offset 0
    for side, offset in zip(fsts[1:], offsets[1:]):
        for state, value in side._finals.items():
            out._finals[offset + state] = value
    return out


def concat(a, b):
    """Accepts x+y for x in L(a), y in L(b), with times-combined weights."""
    a, b = _coerce(a, b)
    out = Fst(a.semiring)
    offset_a = _copy_into(out, a)
    offset_b = _copy_into(out, b)
    if a.initial is not None:
        out.initial = offset_a + a.initial
    if b.initial is not None:
        target = offset_b + b.initial
        for state, value in a._finals.items():
            out._writable(offset_a + state).append(
                (target, EPSILON, EPSILON, value))
    for state, value in b._finals.items():
        out._finals[offset_b + state] = value
    return out


def closure(a):
    """Kleene star: epsilon plus any finite repetition of L(a)."""
    sr = a.semiring
    one = _unbox(sr)(sr.cast(sr.one))
    out = Fst(sr)
    start = out.add_state()
    out.initial = start
    out._finals[start] = one
    offset = _copy_into(out, a)
    if a.initial is not None:
        out._writable(start).append(
            (offset + a.initial, EPSILON, EPSILON, one))
    for state, value in a._finals.items():
        out._writable(offset + state).append(
            (start, EPSILON, EPSILON, value))
    return out


def project(fst, side):
    """Copy both labels of every arc from the chosen side."""
    if side not in ("input", "output"):
        raise WfstError(f"project side must be 'input' or 'output', got {side!r}")
    k = 1 if side == "input" else 2
    arcs = [[(a[0], a[k], a[k], a[3]) for a in arcs] for arcs in fst._arcs]
    return _rebuilt(fst, fst.semiring, arcs, fst._finals)


def invert(fst):
    """Swap input and output labels on every arc."""
    arcs = [[(t, o, i, v) for t, i, o, v in arcs] for arcs in fst._arcs]
    return _rebuilt(fst, fst.semiring, arcs, fst._finals)


def compose(a, b):
    """Composition: a's outputs matched against b's inputs.

    Epsilon moves go through the standard three-state epsilon filter so
    that interleaved epsilon paths are counted exactly once.  Products of
    two weights pass the membership gate, so a NaN (inf * 0, say) raises
    InvalidWeightError.  A final weight that is zero (a product that
    underflows, say) is left out.
    """
    return _compose(a, b)[0]


def _compose(a, b, provenance=False):
    """``compose``'s one body: returns (out, origins, pairs).

    With ``provenance``, ``origins[k]`` is the pair of slots (positions
    in ``all_arcs()`` order) of the arcs of a and b that out's k-th arc
    came from, None for a side that stood still; and ``pairs[s]`` is the
    pair (a-state, b-state) that state s stands for, so that its final
    weight, if any, is the product of theirs.  Without provenance, both
    are None.  With it, a zero final weight is kept, so that the finals
    that ``_restrict`` lays out do not depend on the values.
    """
    a, b = _coerce(a, b)
    sr = a.semiring
    out = Fst(sr)
    if a.initial is None or b.initial is None:
        return (out, [], []) if provenance else (out, None, None)
    kernel = _kernel(sr)
    times = kernel.times
    origins = [] if provenance else None
    first_a = list(accumulate(map(len, a._arcs), initial=0))

    arcs_b = []  # b-state -> input label -> [(slot, target, output, value)]
    slots = count()
    for arcs in b._arcs:
        by_label = {}
        for (target, ilabel, olabel, value), slot in zip(arcs, slots):
            by_label.setdefault(ilabel, []).append(
                (slot, target, olabel, value))
        arcs_b.append(by_label)

    # States are numbered in queue order and the queue is FIFO, so the
    # state popped next is always the next one to get its arc list.
    state_map = {}
    queue = deque()

    def add_state(key):
        state = state_map[key] = len(state_map)
        queue.append(key)
        qa, qb, _ = key
        if qa in a._finals and qb in b._finals:
            out._finals[state] = times(a._finals[qa], b._finals[qb])
        return state

    out.initial = add_state((a.initial, b.initial, 0))

    while queue:
        qa, qb, f = queue.popleft()
        src_arcs = []
        out._arcs.append(src_arcs)
        by_label = arcs_b[qb]
        for slot_a, (target_a, input_a, output_a, wa) in enumerate(
                a._arcs[qa], first_a[qa]):
            # A matched non-epsilon move is allowed from any filter state;
            # both sides move on epsilon together only from filter 0.
            matches = by_label.get(output_a) if (
                output_a != EPSILON or f == 0) else None
            if matches:
                for slot_b, target_b, output_b, wb in matches:
                    key = (target_a, target_b, 0)
                    dst = state_map.get(key)
                    if dst is None:
                        dst = add_state(key)
                    src_arcs.append((dst, input_a, output_b, times(wa, wb)))
                    if provenance:
                        origins.append((slot_a, slot_b))
            # a moves alone on output epsilon.
            if output_a == EPSILON and f != 2:
                key = (target_a, qb, 1)
                dst = state_map.get(key)
                if dst is None:
                    dst = add_state(key)
                src_arcs.append((dst, input_a, EPSILON, wa))
                if provenance:
                    origins.append((slot_a, None))
        # b moves alone on input epsilon.
        if f != 1:
            for slot_b, target_b, output_b, wb in by_label.get(EPSILON, ()):
                key = (qa, target_b, 2)
                dst = state_map.get(key)
                if dst is None:
                    dst = add_state(key)
                src_arcs.append((dst, EPSILON, output_b, wb))
                if provenance:
                    origins.append((None, slot_b))
    kept = _kept_finals(kernel, out._finals)
    _gate_arcs(kernel, out._arcs)
    if not provenance:
        out._finals = kept
        return out, None, None
    return out, origins, [key[:2] for key in state_map]


def _components(arcs_by_state, sources):
    """Tarjan's algorithm: every state reachable from ``sources``, ordered
    so that each arc leads forward or stays inside its strongly connected
    component, and the components that hold a cycle.  An arc's first
    field is its target, the only field read.

    Returns ``(order, cyclic)``.  The states of each component are
    consecutive in ``order`` and sorted; ``cyclic`` maps the first state
    of each component of more than one state, or with a self-loop, to
    that component's list of states.

    One iterative depth-first search, with the sources and each state's
    arcs explored last to first.  Tarjan's algorithm finishes a component
    only after every component it reaches, so the finishing order,
    reversed, is topological; on an acyclic part it is the reverse
    postorder, in which siblings keep their arc order.
    """
    finished = len(arcs_by_state)  # above every depth-first number
    # state -> the least depth-first number it reaches through states on
    # the stack (at first its own number), or finished once off the stack.
    low = {}
    stack = []     # visited states whose component is not finished
    looped = set()
    order = []     # the components in finishing order, each reversed
    cyclic = {}
    for root in reversed(sources):
        if root in low:
            continue
        low[root] = len(low)
        stack.append(root)
        work = [(root, reversed(arcs_by_state[root]), low[root])]
        while work:
            state, arcs, number = work[-1]
            lowest = low[state]
            for arc in arcs:
                target = arc[0]
                reached = low.get(target)
                if reached is None:
                    low[target] = reached = len(low)
                    stack.append(target)
                    work.append((target, reversed(arcs_by_state[target]),
                                 reached))
                    break
                if reached <= lowest:
                    if reached < lowest:
                        lowest = low[state] = reached
                    else:
                        # A self-loop, or an arc inside a component of
                        # more than one state: either way, a cycle.
                        looped.add(state)
            else:
                work.pop()
                if lowest != number:
                    # Not the root of its component, so it has a parent.
                    parent = work[-1][0]
                    if lowest < low[parent]:
                        low[parent] = lowest
                    continue
                member = stack.pop()
                low[member] = finished
                if member == state:
                    order.append(state)
                    if state in looped:
                        cyclic[state] = [state]
                    continue
                component = [member]
                while member != state:
                    member = stack.pop()
                    low[member] = finished
                    component.append(member)
                component.sort()
                cyclic[component[0]] = component
                order.extend(reversed(component))
    order.reverse()
    return order, cyclic


def _kept_search(fst):
    """``_components(fst._arcs, [fst.initial])``, for an ``fst`` with an
    initial state: the search the machine keeps (see ``Fst``), run and
    kept on first use, and run again once a write has dropped it or
    ``initial`` no longer names the state it started from."""
    kept = fst._search
    if kept is None or kept[0] != fst.initial:
        kept = fst._search = (fst.initial,
                              _components(fst._arcs, [fst.initial]))
    return kept[1]


def _describe(component):
    shown = ", ".join(map(str, component[:10]))
    more = ", ..." if len(component) > 10 else ""
    return (f"the strongly connected component of {len(component)} "
            f"state{'s' if len(component) > 1 else ''} ({shown}{more})")


def _eliminate(kernel, component, arcs_by_state, d):
    """Solve x = b + x·A over one component by Gaussian elimination with
    the kernel's plus, times and star alone: A holds the arcs inside the
    component, b the distances that reached it from outside.

    Eliminating state k writes x_k = (b_k + sum of x_s·A[s][k]) · A[k][k]*
    and substitutes it into the equations of the states after k; back
    substitution then gives every x_k.  For real weights this is
    elimination on (I - A)ᵀ without pivoting, which is stable when
    I - A is an M-matrix (non-negative weights, convergent sums).
    """
    plus, times, star = kernel.plus, kernel.times, kernel.star
    position = {s: k for k, s in enumerate(component)}
    inflow = [{} for _ in component]        # inflow[t][s]: weight s -> t
    outflow = [set() for _ in component]    # outflow[s]: t with inflow[t][s]
    for k, s in enumerate(component):
        for target, _, _, weight in arcs_by_state[s]:
            t = position.get(target)
            if t is not None:
                terms = inflow[t]
                terms[k] = plus(terms[k], weight) if k in terms else weight
                outflow[k].add(t)
    b = [d[s] for s in component]
    closures = []
    try:
        for k in range(len(component)):
            terms = inflow[k]
            loop = terms.pop(k, None)
            closure_k = None if loop is None else star(loop)
            closures.append(closure_k)
            for t in outflow[k]:
                if t <= k:
                    continue
                row = inflow[t]
                factor = row.pop(k)
                if closure_k is not None:
                    factor = times(closure_k, factor)
                b[t] = plus(b[t], times(b[k], factor))
                for s, weight in terms.items():
                    add = times(weight, factor)
                    if s in row:
                        row[s] = plus(row[s], add)
                    else:
                        row[s] = add
                        outflow[s].add(t)
    except DivergenceError as exc:
        raise DivergenceError(f"{_describe(component)} diverges: {exc}",
                              scc=component) from None
    x = [None] * len(component)
    for k in range(len(component) - 1, -1, -1):
        total = b[k]
        for s, weight in inflow[k].items():
            total = plus(total, times(x[s], weight))
        if closures[k] is not None:
            total = times(total, closures[k])
        x[k] = d[component[k]] = total


def _label_correcting(kernel, component, members, arcs_by_state, d):
    """Exact label-correcting over one component of an idempotent semiring.

    Rounds of Bellman-Ford: each round scans, once, the states whose
    distance improved since their last scan (at first, those that hold a
    distance), and a distance improves only when plus changes it,
    compared with ``==``.  Without an improving cycle, every distance is
    final after one round per state (declaring 'idempotent' asserts this);
    an improvement in the last round therefore proves such a cycle, and
    DivergenceError names a state on it, found by walking back along the
    arcs that made the improvements.
    """
    plus, times, zero = kernel.plus, kernel.times, kernel.zero
    scan = [s for s in component if d[s] != zero]
    waiting = set(scan)  # states due for a scan in this round or the next
    came_from = {}
    for _ in component:
        improved = None
        later = []
        for s in scan:
            waiting.discard(s)
            ds = d[s]
            for target, _, _, weight in arcs_by_state[s]:
                if target in members:
                    old = d[target]
                    new = plus(old, times(ds, weight))
                    if new != old:
                        d[target] = new
                        came_from[target] = s
                        improved = target
                        if target not in waiting:
                            waiting.add(target)
                            later.append(target)
        if improved is None:
            return
        scan = later
    state, seen = improved, set()
    while state in came_from and state not in seen:
        seen.add(state)
        state = came_from[state]
    raise DivergenceError(
        f"{_describe(component)} has a cycle through state {state} that "
        f"improves its distances without bound", scc=component, state=state)


def _relax(kernel, component, members, arcs_by_state, d):
    """Queue-based relaxation over one component, for semirings with
    neither an idempotent plus nor a star: d holds the distances and
    ``pending`` the mass not yet passed on.  An update that the old
    distance's ``approx_eq`` accepts, at the semiring's own default
    tolerance, is dropped; ConvergenceError names the component and the
    last residual after the sweep cap.

    Only semirings without a float kernel get here, so the values are the
    weights themselves.
    """
    zero = kernel.zero
    pending = {s: d[s] for s in component}
    queue = deque(s for s in component if d[s] != zero)
    queued = set(queue)
    pops = 0
    cap = RELAXATION_SWEEP_CAP * len(component)
    while queue:
        s = queue.popleft()
        queued.discard(s)
        mass = pending[s]
        pending[s] = zero
        pops += 1
        if pops > cap:
            raise ConvergenceError(
                f"shortest-distance relaxation in {_describe(component)} "
                f"did not converge within {RELAXATION_SWEEP_CAP} sweeps; "
                f"the last residual was {mass!r} at state {s}",
                scc=component, residual=mass)
        for target, _, _, weight in arcs_by_state[s]:
            if target in members:
                add = mass * weight
                new = d[target] + add
                if not d[target].approx_eq(new):
                    d[target] = new
                    pending[target] = pending[target] + add
                    if target not in queued:
                        queue.append(target)
                        queued.add(target)


def _generic_distance(semiring, kernel, arcs_by_state, sources, search):
    """Single-source (or multi-source) shortest distance over a semiring,
    computed with its kernel (see ``semirings._kernel``).

    ``arcs_by_state[s]`` holds arcs in the stored form (``Fst._arcs``, say)
    and ``sources`` maps seed states to their initial weights, all as
    kernel values.  Returns a dict from each state reachable from the
    sources to its distance, a kernel value; only those states are
    visited.

    ``search`` is ``_components(arcs_by_state, sources)``, the Tarjan
    search that orders the reachable part so that every arc leads forward
    or stays inside its strongly connected component.  It reads only the
    arcs' targets and the sources' keys, so a caller that solves the same
    arcs with new values may keep it.  One pass in that order passes each
    state's mass along the arcs that leave its component, so the pass is
    exact across components.  An acyclic part is the case where every
    component is one state without a self-loop, and needs nothing more.
    Any other component is solved, when the pass reaches it, according to
    what the semiring supplies:

    - the 'path' or 'idempotent' property (boolean, featurized, min, max,
      tropical): exact label-correcting, DivergenceError on an improving
      cycle;
    - a ``star``: exact elimination, DivergenceError where a star does not
      exist (the sum over the cycles diverges);
    - neither (custom semirings only): relaxation until every update is
      within the semiring's own ``approx_eq``, with ConvergenceError after
      the sweep cap.
    """
    plus, times, zero = kernel.plus, kernel.times, kernel.zero
    order, cyclic = search
    d = dict.fromkeys(order, zero)
    for s, w in sources.items():
        d[s] = plus(d[s], w)
    idempotent = {"path", "idempotent"} & semiring.semiring_properties
    # The states of the last cyclic component.  Past that component it is
    # stale, which is harmless: no later arc leads back into it.
    members = ()
    for s in order:
        if s in cyclic:
            component = cyclic[s]
            members = set(component)
            if idempotent:
                _label_correcting(kernel, component, members,
                                  arcs_by_state, d)
            elif kernel.star is not None:
                _eliminate(kernel, component, arcs_by_state, d)
            else:
                _relax(kernel, component, members, arcs_by_state, d)
        ds = d[s]
        for target, _, _, weight in arcs_by_state[s]:
            if target not in members:
                d[target] = plus(d[target], times(ds, weight))
    return d


def _gate(kernel, values):
    """Pass each of ``values`` through the membership gate unboxed, and
    return them: the generic kernel's ``checked`` returns its weight, and
    a float kernel's one non-member is NaN (the one value unequal to
    itself), which ``checked`` turns into InvalidWeightError."""
    checked = kernel.checked
    if kernel.box is _same:
        for value in values:
            checked(value)
    else:
        for value in values:
            if value != value:
                checked(value)
    return values


def _gate_arcs(kernel, arcs):
    """``_gate`` the values of the arc lists ``arcs``, and return them."""
    _gate(kernel, [arc[3] for state_arcs in arcs for arc in state_arcs])
    return arcs


def _kept_finals(kernel, finals):
    """``_gate`` the values of the dict ``finals``, and return a new one
    without the zero values: a zero final weight is never stored."""
    _gate(kernel, list(finals.values()))
    return {s: v for s, v in finals.items() if v != kernel.zero}


def _backward_arcs(fst):
    """``fst``'s arcs reversed, in the stored form: ``arcs[t]`` holds
    (s, input, output, value) for each arc s -> t."""
    arcs = [[] for _ in fst._arcs]
    for source, state_arcs in enumerate(fst._arcs):
        for target, ilabel, olabel, value in state_arcs:
            arcs[target].append((source, ilabel, olabel, value))
    return arcs


def shortest_distance(fst):
    """Per-state plus-sum over all paths from the initial state.

    Exact wherever the semiring allows (see ``_generic_distance``): on
    real and diff weights a cycle whose sum diverges raises
    DivergenceError, as does an improving cycle on an idempotent semiring
    (a featurized cycle that adds features, say).  A custom semiring with
    neither a star nor an idempotent plus is relaxed to within its own
    ``approx_eq``.  Each distance passes the membership gate, so a NaN
    (from inf * 0, say) raises InvalidWeightError.
    """
    sr = fst.semiring
    if fst.initial is None:
        return [sr.zero] * fst.num_states
    kernel = _kernel(sr)
    return list(map(kernel.checked, _forward_values(fst, kernel)))


def _forward_values(fst, kernel, search=None):
    """Per-state plus-sum over paths from the initial state, which must
    exist, as kernel values; no membership gate.  ``search`` is
    ``_components(fst._arcs, [fst.initial])``, the kept one if not given."""
    if search is None:
        search = _kept_search(fst)
    d = _generic_distance(fst.semiring, kernel, fst._arcs,
                          {fst.initial: kernel.one}, search)
    zero = kernel.zero
    return [d.get(s, zero) for s in fst.states()]


def _backward_values(fst, kernel, search=None):
    """Per-state plus-sum beta over accepting suffixes (final weights
    included), as kernel values, and on a path semiring the arcs to try
    from each state with a beta; no membership gate.  ``search`` is
    ``_components(fst._arcs, sources)``, from every state if not given.

    In its reverse order each state pulls final(s) + beta(t)·w over its
    arcs s -> t, in arc order, from the targets that reach a final state
    (so a real inf arc into a dead end makes no inf·0); a state that
    reaches none, or that the search misses, gets zero.  A cyclic
    component, seeded so, is solved by ``_generic_distance`` over its own
    arcs reversed.  The arcs to try are none where the final weight is
    beta (stop), else the first arc whose product is beta, or in a cyclic
    component all.
    """
    arcs_of, finals = fst._arcs, fst._finals
    plus, times, zero = kernel.plus, kernel.times, kernel.zero
    order, cyclic = search or _components(arcs_of, fst.states())
    path = "path" in fst.semiring.semiring_properties
    beta = [None] * len(arcs_of)  # None: no final state reached (yet)
    choices = {}
    members = ()  # the states of the last cyclic component

    def pull(s):
        choice, value = (), plus(zero, finals[s]) if s in finals else None
        for arc in arcs_of[s]:
            b = beta[arc[0]]
            if b is not None:
                x = plus(zero if value is None else value, times(b, arc[3]))
                if path and x != value:
                    choice = (arc,)
                value = x
        if path and value is not None and s not in members:
            choices[s] = choice
        return value

    last = {component[-1]: component for component in cyclic.values()}
    for s in reversed(order):
        component = last.get(s)
        if component is None:
            if s not in members:
                beta[s] = pull(s)
            continue
        members = set(component)
        inner = defaultdict(list)  # the arcs out of its states, reversed
        for m in component:
            for t, i, o, w in arcs_of[m]:
                inner[t].append((m, i, o, w))
        seeds = {m: v for m in component if (v := pull(m)) is not None}
        if seeds:
            d = _generic_distance(fst.semiring, kernel, inner, seeds,
                                  (component, {component[0]: component}))
            for m in component:
                beta[m] = d[m]
                if path:
                    choices[m] = () if finals.get(m) == d[m] else arcs_of[m]
    return [zero if b is None else b for b in beta], choices


def sum_paths(fst):
    """Plus-sum of all accepting path weights (the total machine weight).

    The shortest-distance pass of ``shortest_distance``, summed over the
    final weights.  A semiring with a ``total_weight`` hook computes the
    total itself; the diff semiring's records it as one tape node.  The
    total passes the membership gate, so a NaN raises InvalidWeightError.
    """
    sr = fst.semiring
    if fst.initial is None:
        return sr.zero
    if sr.total_weight is not None:
        return sr.cast(sr.total_weight(fst))
    kernel = _kernel(sr)
    plus, times = kernel.plus, kernel.times
    d = _forward_values(fst, kernel)
    total = kernel.zero
    for state, value in fst._finals.items():
        total = plus(total, times(d[state], value))
    return kernel.checked(total)


def _renumbered(semiring, initial, arcs, finals, keep):
    """A new FST over ``semiring`` with the states in ``keep``, a sorted
    list of original ids, numbered by their rank in it, so the survivors
    keep their order.

    ``arcs`` and ``finals`` are in the stored form, with original ids; an
    arc into a state not kept is dropped, as are the final weights of
    such states.  The initial state is None unless it is kept.
    """
    rank = {s: i for i, s in enumerate(keep)}
    out = Fst(semiring)
    out._arcs = [[(rank[target], ilabel, olabel, value)
                  for target, ilabel, olabel, value in arcs[s]
                  if target in rank]
                 for s in keep]
    out.initial = rank.get(initial)
    out._finals = {i: finals[s] for i, s in enumerate(keep) if s in finals}
    return out


def connect(fst):
    """Trim: keep the states that are both accessible (reachable from the
    initial state) and co-accessible (reaching a final state), with the
    arcs between them, numbered by rank in their original order.

    OpenFST's ``Connect``.  A machine that accepts nothing gives an FST
    without states.  Both sets come from ``_components``: the machine's
    kept forward search, and one over the reversed arcs.
    """
    accessible = [] if fst.initial is None else _kept_search(fst)[0]
    coaccessible = _components(_backward_arcs(fst), list(fst._finals))[0]
    return _renumbered(fst.semiring, fst.initial, fst._arcs, fst._finals,
                       sorted(set(accessible).intersection(coaccessible)))


def remove_epsilon(fst):
    """Eliminate epsilon:epsilon arcs, preserving the weighted language.

    Only the states the result can reach are built, as in OpenFST's
    ``RmEpsilon``: a worklist from the initial state gives a closure pass
    to it and to each target of a non-epsilon arc that leaves a closure,
    and these states are renumbered by rank in their original order.  A
    machine without an initial state gives an empty FST.

    A kept state's arcs are its closure members' non-epsilon arcs, in
    state order, each weighted by the member's closure weight.  Every arc
    and final weight of the result is such a product of a closure weight
    and an original weight, and passes the membership gate: a NaN
    (inf * 0, say) raises InvalidWeightError.
    """
    sr = fst.semiring
    if fst.initial is None:
        return Fst(sr)
    kernel = _kernel(sr)
    plus, times, zero, one = kernel.plus, kernel.times, kernel.zero, kernel.one
    eps_arcs = [[arc for arc in arcs if arc[1] == EPSILON == arc[2]]
                for arcs in fst._arcs]

    arcs = {fst.initial: None}  # kept state -> its new arcs, once built
    finals = {}
    todo = [fst.initial]
    while todo:
        s = todo.pop()
        # Epsilon-closure weights from s (times-accumulated along epsilon
        # chains, plus-combined across alternative epsilon routes); a state
        # without epsilon arcs reaches only itself.
        if eps_arcs[s]:
            closure_w = _generic_distance(sr, kernel, eps_arcs, {s: one},
                                          _components(eps_arcs, [s]))
        else:
            closure_w = {s: one}
        new_arcs = []
        final = zero
        for t in sorted(closure_w):
            w = closure_w[t]
            if w == zero and t != s:
                continue
            for target, ilabel, olabel, value in fst._arcs[t]:
                if ilabel == EPSILON and olabel == EPSILON:
                    continue
                if target not in arcs:
                    arcs[target] = None
                    todo.append(target)
                new_arcs.append((target, ilabel, olabel, times(w, value)))
            if t in fst._finals:
                final = plus(final, times(w, fst._finals[t]))
        arcs[s] = new_arcs
        _gate(kernel, [arc[3] for arc in new_arcs] + [final])
        if final != zero:
            finals[s] = final
    return _renumbered(sr, fst.initial, arcs, finals, sorted(arcs))


def determinize(fst, delta=DEFAULT_DELTA):
    """Weighted subset construction with residual weights.

    Requires an epsilon:epsilon-free input.  Transducer arcs are grouped
    by their (input, output) label pair; for acceptors this yields a
    machine with no two same-input arcs leaving any state.  Residual
    weights need semiring division whenever arc weights are non-trivial.

    The construction runs on kernel values (see ``semirings._kernel``):
    a subset is a tuple of (state, residual) pairs, and its key in the
    subset table holds each residual quantized to ``delta``.  Final
    weights, arc weights (the per-label totals) and residuals pass the
    membership gate, so a NaN (inf / inf, say) raises InvalidWeightError.
    A label pair whose weight into every target is zero is left out:
    every path through it weighs zero, so the weighted language is the
    same, and there is no total to divide by.  A ``delta`` that is not a
    finite number above 0 raises WfstError.
    """
    delta = _argument("delta", delta)
    sr = fst.semiring
    if any(arc[1] == EPSILON == arc[2] for arcs in fst._arcs for arc in arcs):
        raise UnsupportedOperationError(
            "determinize requires an epsilon-free input; "
            "call remove_epsilon first"
        )
    out = Fst(sr)
    if fst.initial is None:
        return out
    cap = 10 * fst.num_states + 1000
    finals = fst._finals
    kernel = _kernel(sr)
    plus, times, divide, quantize, zero, one = (
        kernel.plus, kernel.times, kernel.divide, kernel.quantize,
        kernel.zero, kernel.one)

    # Subsets are keyed by quantized residuals so nearly identical subsets
    # merge, but the exact residuals of the first-seen subset are used for
    # expansion to keep arc weights exact along unmerged paths.  States are
    # numbered in queue order and the queue is FIFO, so the state popped
    # next is always the next one to get its arc list.
    state_map = {((fst.initial, quantize(one, delta)),): 0}
    out.initial = 0
    queue = deque([((fst.initial, one),)])
    while queue:
        subset = queue.popleft()
        src = len(out._arcs)
        src_arcs = []
        out._arcs.append(src_arcs)
        final = reduce(plus, [times(r, finals[state])
                              for state, r in subset if state in finals], zero)
        _gate(kernel, (final,))
        if final != zero:
            out._finals[src] = final
        # Group outgoing arcs by label pair.
        grouped = {}
        for state, r in subset:
            for target, ilabel, olabel, value in fst._arcs[state]:
                grouped.setdefault((ilabel, olabel), {}) \
                    .setdefault(target, []).append(times(r, value))
        for (ilabel, olabel), targets in sorted(grouped.items()):
            per_target = {t: reduce(plus, vs, zero)
                          for t, vs in targets.items()}
            total = reduce(plus, per_target.values(), zero)
            if total == zero and all(v == zero for v in per_target.values()):
                continue
            _gate(kernel, (total,))
            states = sorted(per_target)
            if total == one:
                residuals = [per_target[t] for t in states]
            elif sr.has_division:
                residuals = [divide(per_target[t], total) for t in states]
            else:
                raise UnsupportedOperationError(
                    f"weighted determinization needs division, which the "
                    f"{sr.name} semiring lacks"
                )
            _gate(kernel, residuals)
            new_key = tuple(zip(states, [quantize(r, delta)
                                         for r in residuals]))
            dst = state_map.get(new_key)
            if dst is None:
                if len(state_map) >= cap:
                    raise DeterminizationLimitError(
                        f"subset construction hit its cap of {cap} states: "
                        f"{len(state_map)} subsets built, and the arc "
                        f"{label_str(ilabel)}:{label_str(olabel)} out of "
                        f"state {src} needs one more",
                        len(state_map), cap, (ilabel, olabel))
                dst = state_map[new_key] = len(state_map)
                queue.append(tuple(zip(states, residuals)))
            src_arcs.append((dst, ilabel, olabel, total))
    return out


def reverse(fst):
    """Accepts the reversal of every string, with reversed arc weights."""
    sr = fst.semiring
    box, unbox = _box(sr), _unbox(sr)
    out = Fst(sr)
    out._arcs = [[(s, i, o, unbox(box(v).reverse())) for s, i, o, v in arcs]
                 for arcs in _backward_arcs(fst)]
    start = out.add_state()
    out.set_initial_state(start)
    for state, value in fst._finals.items():
        out.add_arc(start, state, box(value).reverse(), EPSILON, EPSILON)
    if fst.initial is not None:
        out.set_final_weight(fst.initial, sr.one)
    return out


def push(fst, direction="initial"):
    """Redistribute weights toward one end without changing the language.

    Uses per-state shortest-distance potentials with the initial state's
    potential pinned to one, so every path's total weight telescopes back
    to its original value; a final weight that becomes zero is dropped.
    The potentials and every reweighted arc and final weight pass the
    membership gate, so a NaN (from inf * 0 or inf / inf, say) raises
    InvalidWeightError.  A semiring whose division is partial, as the
    featurized one's is, can fail to divide by a state's potential (two
    arcs with different features into one state, pushed toward the final
    state); that raises UnsupportedOperationError naming the state.
    """
    if direction not in ("initial", "final"):
        raise WfstError(f"push direction must be 'initial' or 'final', got {direction!r}")
    sr = fst.semiring
    if not sr.has_division:
        raise UnsupportedOperationError(
            f"push needs division, which the {sr.name} semiring lacks"
        )
    if fst.initial is None:
        return fst.copy()
    kernel = _kernel(sr)
    times, zero = kernel.times, kernel.zero
    toward_initial = direction == "initial"
    pot = _gate(kernel, _backward_values(fst, kernel)[0] if toward_initial
                else _forward_values(fst, kernel))
    pot[fst.initial] = kernel.one

    def divide(x, state):
        try:
            return kernel.divide(x, pot[state])
        except InvalidWeightError as exc:
            raise UnsupportedOperationError(
                f"push toward the {direction} state: {x} / {pot[state]} "
                f"does not exist, so the potential of state {state} cannot "
                f"be divided out; {sr.name} division is partial ({exc})"
            ) from exc

    def reweight(s, arc):
        t, i, o, w = arc
        ps, pt = pot[s], pot[t]
        if ps == zero or pt == zero:
            return arc
        if toward_initial:
            return (t, i, o, divide(times(w, pt), s))
        return (t, i, o, divide(times(ps, w), t))

    arcs = _gate_arcs(kernel, [[reweight(s, arc) for arc in arcs]
                               for s, arcs in enumerate(fst._arcs)])
    finals = {}
    for state, value in fst._finals.items():
        p = pot[state]
        if p != zero:
            value = divide(value, state) if toward_initial else times(p, value)
        finals[state] = value
    return _rebuilt(fst, sr, arcs, _kept_finals(kernel, finals))


def shortest_path(fst):
    """Best accepting path under the idempotent order a <= b iff a+b == a.

    A depth-first search from the initial state over the tight arcs, those
    with ``beta[target] * weight == beta[source]`` for the backward
    distances beta (the very product the backward pass formed, so the test
    is exact), in arc order, entering no state twice.  Ties therefore
    break toward the lexicographically smallest arc-index sequence among
    the paths that repeat no state (stopping at a final state beats taking
    any arc), and a cycle of weight one cannot trap the walk.  Outside the
    cyclic components it tries only the first tight choice, which the
    backward pass records: it never backtracks there, since a dead end
    below such a state would need a cycle through it.
    """
    sr = fst.semiring
    if "path" not in sr.semiring_properties:
        raise UnsupportedOperationError(
            f"shortest_path requires a path semiring, not {sr.name}"
        )
    if fst.initial is None:
        raise NoAcceptingPathError("FST has no initial state")
    kernel = _kernel(sr)
    times = kernel.times
    beta, choices = _backward_values(fst, kernel, _kept_search(fst))
    if beta[fst.initial] == kernel.zero:
        raise NoAcceptingPathError("FST accepts no string")

    state = fst.initial
    entered = {state}
    arcs = iter(choices[state])
    path = []  # (source, arc taken, the arcs of its source still to try)
    while choices[state]:
        for arc in arcs:
            target = arc[0]
            if (target not in entered
                    and times(beta[target], arc[3]) == beta[state]):
                path.append((state, arc, arcs))
                state = target
                entered.add(state)
                arcs = iter(choices[state])
                break
        else:  # no tight arc from here leads to a state not yet entered
            if not path:
                raise NoAcceptingPathError(
                    "no tight path reaches a final state")
            state, _, arcs = path.pop()
    value = kernel.one
    for _, arc, _ in path:
        value = times(value, arc[3])
    weight = kernel.box(times(value, fst._finals[state]))
    taken = [(source, arc) for source, arc, _ in path]
    return ShortestPathResult(_read_path(fst, taken, weight), weight)


def _sampling_table(kernel, state, arcs, final):
    """The sampling table of a state with ``arcs`` and the final value
    ``final`` (None if not final): its total sampling weight, then the
    running sum through each choice, stopping first, then the arcs.  The
    total is ``sum()`` of the weights and each running sum adds one weight
    to the last, as a draw has always added them; the last one is
    infinite, so a pick that rounding leaves past every sum takes the last
    choice.  SamplingError for a negative weight, or a total that is zero
    or not finite."""
    values = [arc[3] for arc in arcs]
    if final is not None:
        values.insert(0, final)
    score = kernel.score
    weights = values if score is None else list(map(score, values))
    if weights and min(weights) < 0:
        v = next(v for v, w in zip(values, weights) if w < 0)
        raise SamplingError(f"negative sampling weight for {kernel.box(v)!r}")
    total = sum(weights)
    if total <= 0.0:
        raise SamplingError(
            f"sampling dead end at state {state}: all choices weigh zero")
    if not total < math.inf:
        raise SamplingError(
            f"sampling at state {state}: its choices' sampling weights "
            f"sum to {total!r}, so none can be drawn in proportion")
    table = list(accumulate(weights, initial=0.0))
    table[0], table[-1] = total, math.inf
    return table


def random_path(fst, seed=None, max_steps=10_000):
    """Sample an accepting path, arc choice proportional to sampling_weight.

    At a final state, stopping competes with the outgoing arcs using the
    final weight's sampling weight.  Each choice is local, so on a machine
    that is not locally normalized the samples do not follow the path
    weights.  Deterministic for a fixed seed.  SamplingError is raised
    for a negative sampling weight, and at a state whose choices'
    sampling weights sum to zero or to a total that is not finite (an
    infinite weight, or a sum that overflows).  ``max_steps`` is an
    integer of at least 0, else WfstError.

    Each state's choices are drawn by bisection over its sampling table
    (``_sampling_table``), built on its first visit.  A machine on a
    float kernel keeps its tables from call to call (see ``Fst``); on the
    generic kernel they last one call.
    """
    from bisect import bisect_right

    max_steps = _argument("max_steps", max_steps, integer=True)
    if fst.initial is None:
        raise NoAcceptingPathError("FST has no initial state")
    rng = _seeded(seed)
    kernel = _kernel(fst.semiring)
    times = kernel.times
    finals, arcs_of = fst._finals, fst._arcs
    if kernel.box is _same:  # a sampling weight may read mutable state
        tables = {}
    else:
        tables = fst._tables
        if tables is None:
            tables = fst._tables = {}
    state = fst.initial
    taken = []  # (source, arc) pairs
    value = kernel.one
    for _ in range(max_steps):
        table = tables.get(state)
        if table is None:
            table = tables[state] = _sampling_table(
                kernel, state, arcs_of[state], finals.get(state))
        # The first choice whose running sum passes the pick.
        k = bisect_right(table, rng.random() * table[0], 1) - 1
        if state in finals:
            if k == 0:
                return _read_path(fst, taken,
                                  kernel.checked(times(value, finals[state])))
            k -= 1
        arc = arcs_of[state][k]
        taken.append((state, arc))
        value = times(value, arc[3])
        state = arc[0]
    raise CycleLimitError(f"random path exceeded {max_steps} steps")


def equivalent_by_enumeration(a, b, max_paths=1000, delta=DEFAULT_DELTA):
    """Compare weighted languages by enumerating and grouping paths.

    Paths are grouped by (input, output) label strings; weights within a
    group are plus-combined and the group maps compared with approx_eq.
    An enumeration that truncates (on a reachable cycle, or past
    ``max_paths`` paths) raises WfstError, naming the operand, as does a
    ``delta`` that is not a finite number above 0.
    """
    delta = _argument("delta", delta)
    a, b = _coerce(a, b)
    sr = a.semiring

    def grouped(fst, operand):
        paths = enumerate_paths(fst, max_paths)
        if paths.truncated:
            raise WfstError(f"the enumeration of the {operand} operand "
                            f"truncated at max_paths={max_paths}")
        groups = {}
        for path in paths:
            key = (path.input_labels, path.output_labels)
            groups[key] = (groups[key] + path.weight if key in groups
                           else path.weight)
        return groups

    ga, gb = grouped(a, "first"), grouped(b, "second")
    return all(ga.get(key, sr.zero).approx_eq(gb.get(key, sr.zero), delta)
               for key in set(ga) | set(gb))
