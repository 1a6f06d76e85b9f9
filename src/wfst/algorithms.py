"""Transformations and queries over FSTs.

Every operation here returns a new FST (inputs are never mutated).
Binary operations require both arguments to share a semiring; a boolean
argument is auto-cast into the other side's semiring first.
"""

from collections import deque, namedtuple

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
from .fst import EPSILON, Arc, Fst, Path, enumerate_paths, label_str
from .semirings import (
    DEFAULT_DELTA,
    _kernel,
    _not_a_member,
    _NumericWeight,
    _same,
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


def _map_arcs(fst, semiring, map_arc, map_final):
    """A new FST over ``semiring`` with ``fst``'s states and initial state,
    each arc replaced by ``map_arc(arc)`` (same source) and each final
    weight by ``map_final(weight)``."""
    out = Fst(semiring)
    out._arcs = [[map_arc(arc) for arc in arcs] for arcs in fst._arcs]
    out.initial = fst.initial
    out.finals = {state: map_final(w) for state, w in fst.finals.items()}
    return out


def _checked(semiring, kernel, value):
    """``value`` as a weight, through the membership gate: arithmetic such
    as inf * 0 can make a NaN, which raises InvalidWeightError."""
    weight = kernel.box(value)
    if kernel.nonmember(value):
        raise _not_a_member(semiring, weight)
    return weight


def lift(fst, target_semiring, cast=None):
    """Rebuild ``fst`` with every weight mapped into ``target_semiring``.

    Each weight goes through ``cast`` and then ``target_semiring.cast``,
    which rejects a non-member or a weight of another semiring.  Without
    ``cast``, a numeric weight lifted into a semiring with a float kernel
    keeps its value, which passes the same gate (a NaN raises
    InvalidWeightError) without a call to ``cast``.
    """
    kernel = _kernel(target_semiring)
    if (cast is None and kernel.box is target_semiring  # a float kernel
            and issubclass(fst.semiring, _NumericWeight)):
        def convert(w):
            return _checked(target_semiring, kernel, w.value)
    else:
        if cast is None:
            cast = _default_cast(fst.semiring, target_semiring)

        def convert(w):
            return target_semiring.cast(cast(w))

    return _map_arcs(fst, target_semiring, lambda a: Arc(
        a.source, a.target, a.input, a.output, convert(a.weight)), convert)


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
    """Append src's states and arcs to dst, renumbered by dst's state
    count; return that offset.  At offset 0 the arc lists are copied and
    their immutable arcs shared, since no arc changes."""
    offset = dst.num_states
    if offset == 0:
        dst._arcs.extend([list(arcs) for arcs in src._arcs])
    else:
        dst._arcs.extend(
            [Arc(offset + source, offset + target, ilabel, olabel, weight)
             for source, target, ilabel, olabel, weight in arcs]
            for arcs in src._arcs
        )
    return offset


def union(*fsts):
    """Accepts the strings of any operand; shared strings get plus-combined
    weights.

    As in OpenFST, the first operand keeps its state ids, the others
    follow in argument order, and one new start state, numbered last, has
    an epsilon arc to each operand's start, in argument order.
    """
    if not fsts:
        raise WfstError("union needs at least one FST")
    fsts = _coerce(*fsts)
    sr = fsts[0].semiring
    out = Fst(sr)
    offsets = [_copy_into(out, side) for side in fsts]
    start = out.add_state()
    out.set_initial_state(start)
    for side, offset in zip(fsts, offsets):
        if side.initial is not None:
            out.add_arc(start, offset + side.initial, sr.one, EPSILON, EPSILON)
        for state, weight in side.finals.items():
            out.finals[offset + state] = weight
    return out


def concat(a, b):
    """Accepts x+y for x in L(a), y in L(b), with times-combined weights."""
    a, b = _coerce(a, b)
    sr = a.semiring
    out = Fst(sr)
    offset_a = _copy_into(out, a)
    offset_b = _copy_into(out, b)
    if a.initial is not None:
        out.set_initial_state(offset_a + a.initial)
    if b.initial is not None:
        for state, weight in a.finals.items():
            out.add_arc(offset_a + state, offset_b + b.initial,
                        weight, EPSILON, EPSILON)
    for state, weight in b.finals.items():
        out.finals[offset_b + state] = weight
    return out


def closure(a):
    """Kleene star: epsilon plus any finite repetition of L(a)."""
    sr = a.semiring
    out = Fst(sr)
    start = out.add_state()
    out.set_initial_state(start)
    out.set_final_weight(start, sr.one)
    offset = _copy_into(out, a)
    if a.initial is not None:
        out.add_arc(start, offset + a.initial, sr.one, EPSILON, EPSILON)
    for state, weight in a.finals.items():
        out.add_arc(offset + state, start, weight, EPSILON, EPSILON)
    return out


def project(fst, side):
    """Copy both labels of every arc from the chosen side."""
    if side not in ("input", "output"):
        raise WfstError(f"project side must be 'input' or 'output', got {side!r}")
    return _map_arcs(fst, fst.semiring, lambda a: Arc(
        a.source, a.target, getattr(a, side), getattr(a, side), a.weight), _same)


def invert(fst):
    """Swap input and output labels on every arc."""
    return _map_arcs(fst, fst.semiring, lambda a: Arc(
        a.source, a.target, a.output, a.input, a.weight), _same)


def compose(a, b):
    """Composition: a's outputs matched against b's inputs.

    Epsilon moves go through the standard three-state epsilon filter so
    that interleaved epsilon paths are counted exactly once.  Products of
    two weights pass the membership gate, so a NaN (inf * 0, say) raises
    InvalidWeightError.
    """
    return _compose(a, b)[0]


def _compose(a, b, provenance=False):
    """``compose``'s one body: returns (out, origins, pairs).

    With ``provenance``, ``origins[s][k]`` is the pair (arc of a, arc of
    b) that out's k-th arc from state s came from, None for a side that
    stood still; and ``pairs[s]`` is the pair (a-state, b-state) that
    state s stands for, so that its final weight, if any, is the product
    of theirs.  The arcs are the operands' own Arc objects, unless the
    boolean auto-cast made new ones.  Without provenance, both are None.
    """
    a, b = _coerce(a, b)
    sr = a.semiring
    out = Fst(sr)
    if a.initial is None or b.initial is None:
        return (out, [], []) if provenance else (out, None, None)
    kernel = _kernel(sr)
    times, unbox = kernel.times, kernel.unbox
    origins = [] if provenance else None

    def product(x, y):
        return _checked(sr, kernel, times(unbox(x), unbox(y)))

    arcs_b = {}  # b-state -> input label -> arcs
    for state in b.states():
        by_label = {}
        for arc in b._arcs[state]:
            by_label.setdefault(arc.input, []).append(arc)
        arcs_b[state] = by_label

    # States are numbered in queue order and the queue is FIFO, so the
    # state popped next is always the next one to get its arc list.
    state_map = {}
    queue = deque()

    def get_state(key):
        state = state_map.get(key)
        if state is None:
            state = state_map[key] = len(state_map)
            queue.append(key)
            qa, qb, _ = key
            fa = a.finals.get(qa)
            fb = b.finals.get(qb)
            if fa is not None and fb is not None:
                out.finals[state] = product(fa, fb)
        return state

    out.initial = get_state((a.initial, b.initial, 0))

    while queue:
        qa, qb, f = queue.popleft()
        src = len(out._arcs)
        src_arcs = []
        out._arcs.append(src_arcs)
        if provenance:
            src_origins = []
            origins.append(src_origins)
        by_label = arcs_b[qb]
        for arc_a in a._arcs[qa]:
            if arc_a.output != EPSILON:
                # Matched non-epsilon move: allowed from any filter state.
                for arc_b in by_label.get(arc_a.output, ()):
                    dst = get_state((arc_a.target, arc_b.target, 0))
                    src_arcs.append(
                        Arc(src, dst, arc_a.input, arc_b.output,
                            product(arc_a.weight, arc_b.weight))
                    )
                    if provenance:
                        src_origins.append((arc_a, arc_b))
            else:
                # Both sides move on epsilon together: only from filter 0.
                if f == 0:
                    for arc_b in by_label.get(EPSILON, ()):
                        dst = get_state((arc_a.target, arc_b.target, 0))
                        src_arcs.append(
                            Arc(src, dst, arc_a.input, arc_b.output,
                                product(arc_a.weight, arc_b.weight))
                        )
                        if provenance:
                            src_origins.append((arc_a, arc_b))
                # a moves alone on output epsilon.
                if f in (0, 1):
                    dst = get_state((arc_a.target, qb, 1))
                    src_arcs.append(
                        Arc(src, dst, arc_a.input, EPSILON, arc_a.weight)
                    )
                    if provenance:
                        src_origins.append((arc_a, None))
        # b moves alone on input epsilon.
        if f in (0, 2):
            for arc_b in by_label.get(EPSILON, ()):
                dst = get_state((qa, arc_b.target, 2))
                src_arcs.append(
                    Arc(src, dst, EPSILON, arc_b.output, arc_b.weight)
                )
                if provenance:
                    src_origins.append((None, arc_b))
    if not provenance:
        return out, None, None
    return out, origins, [key[:2] for key in state_map]


def _reachable_order(arcs_by_state, sources):
    """The states reachable from ``sources`` in topological order, or None
    when that reachable part has a cycle.

    One iterative depth-first search; the order is reverse postorder, with
    each state's arcs (and the sources) explored last to first so that
    siblings keep their arc order.  The search stops at the first arc back
    into a state still on its stack.
    """
    on_stack = {}  # state -> True while on the search stack, then False
    postorder = []
    for root in reversed(sources):
        if root in on_stack:
            continue
        on_stack[root] = True
        stack = [(root, reversed(arcs_by_state[root]))]
        while stack:
            state, arcs = stack[-1]
            for _, target, _ in arcs:
                seen = on_stack.get(target)
                if seen is None:
                    on_stack[target] = True
                    stack.append((target, reversed(arcs_by_state[target])))
                    break
                if seen:
                    return None
            else:
                stack.pop()
                on_stack[state] = False
                postorder.append(state)
    postorder.reverse()
    return postorder


def _components(arcs_by_state, sources):
    """Tarjan's algorithm: the strongly connected components reachable
    from ``sources`` in topological order, each a sorted list of states.

    One iterative depth-first search.  Tarjan's algorithm finishes a
    component only after every component it reaches, so the finishing
    order, reversed, is topological.
    """
    index = {}     # state -> depth-first number
    low = {}       # state -> least number reachable through the stack
    stack = []     # visited states whose component is not finished
    on_stack = set()
    components = []
    for root in sources:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(arcs_by_state[root]))]
        while work:
            state, arcs = work[-1]
            for _, target, _ in arcs:
                if target not in index:
                    index[target] = low[target] = len(index)
                    stack.append(target)
                    on_stack.add(target)
                    work.append((target, iter(arcs_by_state[target])))
                    break
                if target in on_stack and index[target] < low[state]:
                    low[state] = index[target]
            else:
                work.pop()
                if work and low[state] < low[work[-1][0]]:
                    low[work[-1][0]] = low[state]
                if low[state] == index[state]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == state:
                            break
                    components.append(sorted(component))
    components.reverse()
    return components


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
        for _, target, weight in arcs_by_state[s]:
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
            for _, target, weight in arcs_by_state[s]:
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
        for _, target, weight in arcs_by_state[s]:
            if target in members:
                add = mass * weight
                new = d[target] + add
                if not d[target].approx_eq(new):
                    d[target] = new
                    pending[target] = pending[target] + add
                    if target not in queued:
                        queue.append(target)
                        queued.add(target)


def _generic_distance(semiring, kernel, arcs_by_state, sources):
    """Single-source (or multi-source) shortest distance over a semiring,
    computed with its kernel (see ``semirings._kernel``).

    ``arcs_by_state[s]`` is a list of (source, target, weight) triples and
    ``sources`` maps seed states to their initial weights, all as kernel
    values.  Returns a dict from each state reachable from the sources to
    its distance, a kernel value; only those states are visited.

    An acyclic reachable part gets one depth-first search and one exact
    topological pass.  Otherwise Tarjan's algorithm splits it into
    strongly connected components, which are passed in topological order,
    so the pass is exact across components.  A component of one state
    without a self-loop needs no solver; any other is solved according to
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
    order = _reachable_order(arcs_by_state, sources)
    if order is not None:
        d = dict.fromkeys(order, zero)
        for s, w in sources.items():
            d[s] = plus(d[s], w)
        for s in order:
            ds = d[s]
            for _, target, weight in arcs_by_state[s]:
                d[target] = plus(d[target], times(ds, weight))
        return d
    components = _components(arcs_by_state, sources)
    d = {s: zero for component in components for s in component}
    for s, w in sources.items():
        d[s] = plus(d[s], w)
    idempotent = {"path", "idempotent"} & semiring.semiring_properties
    for component in components:
        first = component[0]
        if len(component) == 1 and all(
                target != first for _, target, _ in arcs_by_state[first]):
            members = ()  # no cycle: every arc leaves the component
        else:
            members = set(component)
            if idempotent:
                _label_correcting(kernel, component, members,
                                  arcs_by_state, d)
            elif kernel.star is not None:
                _eliminate(kernel, component, arcs_by_state, d)
            else:
                _relax(kernel, component, members, arcs_by_state, d)
        for s in component:
            ds = d[s]
            for _, target, weight in arcs_by_state[s]:
                if target not in members:
                    d[target] = plus(d[target], times(ds, weight))
    return d


def _forward_arcs(fst, unbox):
    return [[(a.source, a.target, unbox(a.weight)) for a in arcs]
            for arcs in fst._arcs]


def _backward_arcs(fst, unbox):
    arcs = [[] for _ in fst.states()]
    for a in fst.all_arcs():
        arcs[a.target].append((a.target, a.source, unbox(a.weight)))
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
    return [_checked(sr, kernel, v)
            for v in _forward_values(fst, kernel)]


def _forward_values(fst, kernel):
    """Per-state plus-sum over paths from the initial state, which must
    exist, as kernel values; no membership gate."""
    d = _generic_distance(fst.semiring, kernel,
                          _forward_arcs(fst, kernel.unbox),
                          {fst.initial: kernel.one})
    zero = kernel.zero
    return [d.get(s, zero) for s in fst.states()]


def _backward_values(fst, kernel):
    """Per-state plus-sum over accepting suffixes (final weights
    included), as kernel values; no membership gate."""
    unbox = kernel.unbox
    d = _generic_distance(fst.semiring, kernel, _backward_arcs(fst, unbox),
                          {s: unbox(w) for s, w in fst.finals.items()})
    zero = kernel.zero
    return [d.get(s, zero) for s in fst.states()]


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
    plus, times, unbox = kernel.plus, kernel.times, kernel.unbox
    d = _forward_values(fst, kernel)
    total = kernel.zero
    for state, weight in fst.finals.items():
        total = plus(total, times(d[state], unbox(weight)))
    return _checked(sr, kernel, total)


def _renumbered(semiring, initial, arcs, finals, keep):
    """A new FST over ``semiring`` with the states in ``keep``, a sorted
    list of original ids, numbered by their rank in it, so the survivors
    keep their order.

    ``arcs[s]`` holds state s's arcs as (source, target, input, output,
    weight) tuples in original ids; an arc into a state not kept is
    dropped, as are the final weights of such states.  The initial state
    is None unless it is kept.
    """
    rank = {s: i for i, s in enumerate(keep)}
    out = Fst(semiring)
    out._arcs = [[Arc(i, rank[target], ilabel, olabel, weight)
                  for _, target, ilabel, olabel, weight in arcs[s]
                  if target in rank]
                 for i, s in enumerate(keep)]
    out.initial = rank.get(initial)
    out.finals = {i: finals[s] for i, s in enumerate(keep) if s in finals}
    return out


def _reached(next_states, sources):
    """The set of states reachable from ``sources`` (themselves
    included) along ``next_states[s]``."""
    seen = set(sources)
    todo = list(seen)
    while todo:
        for t in next_states[todo.pop()]:
            if t not in seen:
                seen.add(t)
                todo.append(t)
    return seen


def connect(fst):
    """Trim: keep the states that are both accessible (reachable from the
    initial state) and co-accessible (reaching a final state), with the
    arcs between them, numbered by rank in their original order.

    OpenFST's ``Connect``.  A machine that accepts nothing gives an FST
    without states.
    """
    sources = [] if fst.initial is None else [fst.initial]
    accessible = _reached(
        [[arc.target for arc in arcs] for arcs in fst._arcs], sources)
    predecessors = [[] for _ in fst.states()]
    for arc in fst.all_arcs():
        predecessors[arc.target].append(arc.source)
    coaccessible = _reached(predecessors, fst.finals)
    return _renumbered(fst.semiring, fst.initial, fst._arcs, fst.finals,
                       sorted(accessible & coaccessible))


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
    plus, times, zero, one, unbox = (kernel.plus, kernel.times, kernel.zero,
                                     kernel.one, kernel.unbox)
    eps_arcs = [[] for _ in fst.states()]
    for a in fst.all_arcs():
        if a.input == EPSILON and a.output == EPSILON:
            eps_arcs[a.source].append((a.source, a.target, unbox(a.weight)))

    arcs = {fst.initial: None}  # kept state -> its new arcs, once built
    finals = {}
    todo = [fst.initial]
    while todo:
        s = todo.pop()
        # Epsilon-closure weights from s (times-accumulated along epsilon
        # chains, plus-combined across alternative epsilon routes); a state
        # without epsilon arcs reaches only itself.
        if eps_arcs[s]:
            closure_w = _generic_distance(sr, kernel, eps_arcs, {s: one})
        else:
            closure_w = {s: one}
        new_arcs = []
        final = zero
        for t in sorted(closure_w):
            w = closure_w[t]
            if w == zero and t != s:
                continue
            for arc in fst._arcs[t]:
                if arc.input == EPSILON and arc.output == EPSILON:
                    continue
                target = arc.target
                if target not in arcs:
                    arcs[target] = None
                    todo.append(target)
                new_arcs.append((
                    s, target, arc.input, arc.output,
                    _checked(sr, kernel, times(w, unbox(arc.weight)))))
            fw = fst.finals.get(t)
            if fw is not None:
                final = plus(final, times(w, unbox(fw)))
        arcs[s] = new_arcs
        if final != zero:
            finals[s] = _checked(sr, kernel, final)
    return _renumbered(sr, fst.initial, arcs, finals, sorted(arcs))


def determinize(fst, delta=DEFAULT_DELTA):
    """Weighted subset construction with residual weights.

    Requires an epsilon:epsilon-free input.  Transducer arcs are grouped
    by their (input, output) label pair; for acceptors this yields a
    machine with no two same-input arcs leaving any state.  Residual
    weights need semiring division whenever arc weights are non-trivial.
    Final weights, arc weights (the per-label totals) and residuals pass
    the membership gate, so a NaN (inf / inf, say) raises
    InvalidWeightError.
    """
    sr = fst.semiring
    for a in fst.all_arcs():
        if a.input == EPSILON and a.output == EPSILON:
            raise UnsupportedOperationError(
                "determinize requires an epsilon-free input; "
                "call remove_epsilon first"
            )
    out = Fst(sr)
    if fst.initial is None:
        return out
    cap = 10 * fst.num_states + 1000
    finals = fst.finals
    kernel = _kernel(sr)
    plus, times, zero, one, unbox, box = (kernel.plus, kernel.times,
                                          kernel.zero, kernel.one,
                                          kernel.unbox, kernel.box)

    def plus_all(values):
        total = zero
        for value in values:
            total = plus(total, value)
        return total

    def residual(x, y):
        """x / y as a weight, through the membership gate."""
        if y != one:
            if not sr.has_division:
                raise UnsupportedOperationError(
                    f"weighted determinization needs division, which the "
                    f"{sr.name} semiring lacks"
                )
            x = unbox(box(x) / box(y))
        return _checked(sr, kernel, x)

    # Subsets are keyed by quantized residuals so nearly identical subsets
    # merge, but the exact residuals of the first-seen subset are used for
    # expansion to keep arc weights exact along unmerged paths.  States are
    # numbered in queue order and the queue is FIFO, so the state popped
    # next is always the next one to get its arc list.
    start = ((fst.initial, sr.one),)
    state_map = {tuple((s, r.quantize(delta)) for s, r in start): 0}
    out.initial = 0
    queue = deque([start])
    while queue:
        key = queue.popleft()
        src = len(out._arcs)
        src_arcs = []
        out._arcs.append(src_arcs)
        final = plus_all(times(unbox(r), unbox(finals[state]))
                         for state, r in key if state in finals)
        if final != zero:
            out.finals[src] = _checked(sr, kernel, final)
        # Group outgoing arcs by label pair.
        grouped = {}
        for state, r in key:
            r = unbox(r)
            for arc in fst._arcs[state]:
                grouped.setdefault((arc.input, arc.output), {}) \
                    .setdefault(arc.target, []) \
                    .append(times(r, unbox(arc.weight)))
        for (ilabel, olabel), targets in sorted(grouped.items()):
            per_target = {t: plus_all(vs) for t, vs in targets.items()}
            total = plus_all(per_target.values())
            weight = _checked(sr, kernel, total)
            subset = tuple((t, residual(per_target[t], total))
                           for t in sorted(per_target))
            new_key = tuple((t, r.quantize(delta)) for t, r in subset)
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
                queue.append(subset)
            src_arcs.append(Arc(src, dst, ilabel, olabel, weight))
    return out


def reverse(fst):
    """Accepts the reversal of every string, with reversed arc weights."""
    sr = fst.semiring
    out = Fst(sr)
    out._arcs = [[] for _ in range(fst.num_states + 1)]
    for arc in fst.all_arcs():
        out._arcs[arc.target].append(
            Arc(arc.target, arc.source, arc.input, arc.output,
                arc.weight.reverse())
        )
    start = fst.num_states
    out.set_initial_state(start)
    for state, weight in fst.finals.items():
        out.add_arc(start, state, weight.reverse(), EPSILON, EPSILON)
    if fst.initial is not None:
        out.finals[fst.initial] = sr.one
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
    toward_initial = direction == "initial"
    values = (_backward_values if toward_initial else _forward_values)(
        fst, kernel)
    pot = [_checked(sr, kernel, v) for v in values]
    pot[fst.initial] = sr.one
    zero, cast = sr.zero, sr.cast

    def divide(x, state):
        try:
            return x / pot[state]
        except InvalidWeightError as exc:
            raise UnsupportedOperationError(
                f"push toward the {direction} state: {x} / {pot[state]} "
                f"does not exist, so the potential of state {state} cannot "
                f"be divided out; {sr.name} division is partial ({exc})"
            ) from exc

    def reweight(a):
        ps, pt = pot[a.source], pot[a.target]
        if ps == zero or pt == zero:
            return a
        if toward_initial:
            w = divide(a.weight * pt, a.source)
        else:
            w = divide(ps * a.weight, a.target)
        return Arc(a.source, a.target, a.input, a.output, cast(w))

    out = _map_arcs(fst, sr, reweight, _same)
    for state, weight in fst.finals.items():
        p = pot[state]
        if p != zero:
            out.set_final_weight(state, divide(weight, state)
                                 if toward_initial else p * weight)
    return out


def shortest_path(fst):
    """Best accepting path under the idempotent order a <= b iff a+b == a.

    A depth-first search from the initial state over the tight arcs, those
    with ``beta[target] * weight == beta[source]`` for the backward
    distances beta (the very product the backward pass formed, so the test
    is exact), in arc order, entering no state twice.  Ties therefore
    break toward the lexicographically smallest arc-index sequence among
    the paths that repeat no state (stopping at a final state beats taking
    any arc), and a cycle of weight one cannot trap the walk.
    """
    sr = fst.semiring
    if "path" not in sr.semiring_properties:
        raise UnsupportedOperationError(
            f"shortest_path requires a path semiring, not {sr.name}"
        )
    if fst.initial is None:
        raise NoAcceptingPathError("FST has no initial state")
    kernel = _kernel(sr)
    times, unbox = kernel.times, kernel.unbox
    beta = _backward_values(fst, kernel)
    if beta[fst.initial] == kernel.zero:
        raise NoAcceptingPathError("FST accepts no string")

    finals = fst.finals
    state = fst.initial
    entered = {state}
    arcs = iter(fst._arcs[state])
    path = []  # (arc taken, the arcs of its source still to try)
    while not (state in finals and unbox(finals[state]) == beta[state]):
        for arc in arcs:
            if (arc.target not in entered
                    and times(beta[arc.target], unbox(arc.weight))
                    == beta[state]):
                path.append((arc, arcs))
                state = arc.target
                entered.add(state)
                arcs = iter(fst._arcs[state])
                break
        else:  # no tight arc from here leads to a state not yet entered
            if not path:
                raise NoAcceptingPathError(
                    "no tight path reaches a final state")
            arc, arcs = path.pop()
            state = arc.source
    taken = tuple(arc for arc, _ in path)
    value = kernel.one
    for arc in taken:
        value = times(value, unbox(arc.weight))
    weight = kernel.box(times(value, unbox(finals[state])))
    return ShortestPathResult(Path(taken, weight), weight)


def random_path(fst, seed=None, max_steps=10_000):
    """Sample an accepting path, arc choice proportional to sampling_weight.

    At a final state, stopping competes with the outgoing arcs using the
    final weight's sampling weight.  Deterministic for a fixed seed.
    """
    import random

    if fst.initial is None:
        raise NoAcceptingPathError("FST has no initial state")
    rng = random.Random(seed)
    sr = fst.semiring
    state = fst.initial
    taken = []
    acc = sr.one
    for _ in range(max_steps):
        choices = []
        fw = fst.finals.get(state)
        if fw is not None:
            choices.append((None, _sampling_weight(fw)))
        for arc in fst._arcs[state]:
            choices.append((arc, _sampling_weight(arc.weight)))
        total = sum(w for _, w in choices)
        if total <= 0.0:
            raise SamplingError(
                f"sampling dead end at state {state}: all choices weigh zero"
            )
        pick = rng.random() * total
        running = 0.0
        selected = choices[-1][0]
        for option, weight in choices:
            running += weight
            if pick < running:
                selected = option
                break
        if selected is None:
            return Path(tuple(taken), acc * fw)
        taken.append(selected)
        acc = acc * selected.weight
        state = selected.target
    raise CycleLimitError(f"random path exceeded {max_steps} steps")


def _sampling_weight(weight):
    value = weight.sampling_weight()
    if value < 0:
        raise SamplingError(f"negative sampling weight for {weight!r}")
    return value


def equivalent_by_enumeration(a, b, max_paths=1000, delta=DEFAULT_DELTA):
    """Compare weighted languages by enumerating and grouping paths.

    Paths are grouped by (input, output) label strings; weights within a
    group are plus-combined and the group maps compared with approx_eq.
    A best-effort comparison on machines whose enumeration truncates.
    """
    a, b = _coerce(a, b)
    sr = a.semiring

    def grouped(fst):
        groups = {}
        for path in enumerate_paths(fst, max_paths):
            key = (path.input_labels, path.output_labels)
            if key in groups:
                groups[key] = groups[key] + path.weight
            else:
                groups[key] = path.weight
        return groups

    ga, gb = grouped(a), grouped(b)
    for key in set(ga) | set(gb):
        wa = ga.get(key, sr.zero)
        wb = gb.get(key, sr.zero)
        if not wa.approx_eq(wb, delta):
            return False
    return True
