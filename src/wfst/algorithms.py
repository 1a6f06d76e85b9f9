"""Transformations and queries over FSTs.

Every operation here returns a new FST (inputs are never mutated).
Binary operations require both arguments to share a semiring; a boolean
argument is auto-cast into the other side's semiring first.
"""

import random
from collections import deque
from dataclasses import dataclass

from .errors import (
    ConvergenceError,
    CycleLimitError,
    DeterminizationLimitError,
    DivergenceError,
    NoAcceptingPathError,
    SamplingError,
    SemiringMismatchError,
    UnsupportedOperationError,
    WfstError,
)
from .fst import EPSILON, Arc, Fst, Path, enumerate_paths
from .semirings import DEFAULT_DELTA, _NumericWeight

RELAXATION_SWEEP_CAP = 1000


@dataclass(frozen=True)
class ShortestPathResult:
    path: Path
    distance: object


def _same(weight):
    return weight


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


def lift(fst, target_semiring, cast=None):
    """Rebuild ``fst`` with every weight mapped into ``target_semiring``.

    Each weight goes through ``cast`` and then ``target_semiring.cast``,
    which rejects a non-member or a weight of another semiring.
    """
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
    """Append a copy of src's states/arcs/finals into dst; return the offset."""
    offset = dst.num_states
    dst._arcs.extend(
        [Arc(offset + source, offset + target, ilabel, olabel, weight)
         for source, target, ilabel, olabel, weight in arcs]
        for arcs in src._arcs
    )
    return offset


def union(*fsts):
    """Accepts the strings of any operand; shared strings get plus-combined
    weights.  One new start state has an epsilon arc to each operand's
    start, in argument order."""
    if not fsts:
        raise WfstError("union needs at least one FST")
    fsts = _coerce(*fsts)
    sr = fsts[0].semiring
    out = Fst(sr)
    start = out.add_state()
    out.set_initial_state(start)
    for side in fsts:
        offset = _copy_into(out, side)
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
    that interleaved epsilon paths are counted exactly once.
    """
    a, b = _coerce(a, b)
    sr = a.semiring
    out = Fst(sr)
    if a.initial is None or b.initial is None:
        return out

    arcs_b = {}  # b-state -> input label -> arcs
    for state in b.states():
        by_label = {}
        for arc in b.arcs(state):
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
                out.finals[state] = fa * fb
        return state

    out.initial = get_state((a.initial, b.initial, 0))

    while queue:
        qa, qb, f = queue.popleft()
        src = len(out._arcs)
        src_arcs = []
        out._arcs.append(src_arcs)
        by_label = arcs_b[qb]
        for arc_a in a.arcs(qa):
            if arc_a.output != EPSILON:
                # Matched non-epsilon move: allowed from any filter state.
                for arc_b in by_label.get(arc_a.output, ()):
                    dst = get_state((arc_a.target, arc_b.target, 0))
                    src_arcs.append(
                        Arc(src, dst, arc_a.input, arc_b.output,
                            arc_a.weight * arc_b.weight)
                    )
            else:
                # Both sides move on epsilon together: only from filter 0.
                if f == 0:
                    for arc_b in by_label.get(EPSILON, ()):
                        dst = get_state((arc_a.target, arc_b.target, 0))
                        src_arcs.append(
                            Arc(src, dst, arc_a.input, arc_b.output,
                                arc_a.weight * arc_b.weight)
                        )
                # a moves alone on output epsilon.
                if f in (0, 1):
                    dst = get_state((arc_a.target, qb, 1))
                    src_arcs.append(
                        Arc(src, dst, arc_a.input, EPSILON, arc_a.weight)
                    )
        # b moves alone on input epsilon.
        if f in (0, 2):
            for arc_b in by_label.get(EPSILON, ()):
                dst = get_state((qa, arc_b.target, 2))
                src_arcs.append(
                    Arc(src, dst, EPSILON, arc_b.output, arc_b.weight)
                )
    return out


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


def _eliminate(semiring, component, arcs_by_state, d):
    """Solve x = b + x·A over one component by Gaussian elimination with
    plus, times and star alone: A holds the arcs inside the component, b
    the distances that reached it from outside.

    Eliminating state k writes x_k = (b_k + sum of x_s·A[s][k]) · A[k][k]*
    and substitutes it into the equations of the states after k; back
    substitution then gives every x_k.  For real weights this is
    elimination on (I - A)ᵀ without pivoting, which is stable when
    I - A is an M-matrix (non-negative weights, convergent sums).
    """
    star = semiring.star
    position = {s: k for k, s in enumerate(component)}
    inflow = [{} for _ in component]        # inflow[t][s]: weight s -> t
    outflow = [set() for _ in component]    # outflow[s]: t with inflow[t][s]
    for k, s in enumerate(component):
        for _, target, weight in arcs_by_state[s]:
            t = position.get(target)
            if t is not None:
                terms = inflow[t]
                terms[k] = terms[k] + weight if k in terms else weight
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
                    factor = closure_k * factor
                b[t] = b[t] + b[k] * factor
                for s, weight in terms.items():
                    add = weight * factor
                    row[s] = row[s] + add if s in row else add
                    outflow[s].add(t)
    except DivergenceError as exc:
        raise DivergenceError(f"{_describe(component)} diverges: {exc}",
                              scc=component) from None
    x = [None] * len(component)
    for k in range(len(component) - 1, -1, -1):
        total = b[k]
        for s, weight in inflow[k].items():
            total = total + x[s] * weight
        if closures[k] is not None:
            total = total * closures[k]
        x[k] = d[component[k]] = total


def _label_correcting(semiring, component, members, arcs_by_state, d):
    """Exact label-correcting over one component of a path semiring.

    Rounds of Bellman-Ford: each round scans, once, the states whose
    distance improved since their last scan (at first, those that hold a
    distance), and a distance improves only when plus changes it,
    compared with ``==``.  Without an improving cycle, every distance is
    final after one round per state; an improvement in the last round
    therefore proves such a cycle, and DivergenceError names a state on
    it, found by walking back along the arcs that made the improvements.
    """
    zero = semiring.zero
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
                    new = old + ds * weight
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


def _relax(semiring, component, members, arcs_by_state, d, delta):
    """Queue-based relaxation over one component, for semirings with
    neither the path property nor a star: d holds the distances and
    ``pending`` the mass not yet passed on.  An update within approx_eq's
    ``delta`` of the old distance is dropped; ConvergenceError names the
    component and the last residual after the sweep cap."""
    zero = semiring.zero
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
                if not d[target].approx_eq(new, delta):
                    d[target] = new
                    pending[target] = pending[target] + add
                    if target not in queued:
                        queue.append(target)
                        queued.add(target)


def _generic_distance(semiring, arcs_by_state, sources, delta=DEFAULT_DELTA):
    """Single-source (or multi-source) shortest distance over a semiring.

    ``arcs_by_state[s]`` is a list of (source, target, weight) triples and
    ``sources`` maps seed states to their initial weights.  Returns a dict
    from each state reachable from the sources to its distance; only
    those states are visited.

    An acyclic reachable part gets one depth-first search and one exact
    topological pass.  Otherwise Tarjan's algorithm splits it into
    strongly connected components, which are passed in topological order,
    so the pass is exact across components.  A component of one state
    without a self-loop needs no solver; any other is solved according to
    what the semiring supplies:

    - the 'path' property (min, max, tropical): exact label-correcting,
      DivergenceError on an improving cycle;
    - a ``star``: exact elimination, DivergenceError where a star does not
      exist (the sum over the cycles diverges);
    - neither: relaxation to within approx_eq's ``delta``, the only use of
      ``delta`` here, with ConvergenceError after the sweep cap.
    """
    zero = semiring.zero
    order = _reachable_order(arcs_by_state, sources)
    if order is not None:
        d = dict.fromkeys(order, zero)
        for s, w in sources.items():
            d[s] = d[s] + w
        for s in order:
            ds = d[s]
            for _, target, weight in arcs_by_state[s]:
                d[target] = d[target] + ds * weight
        return d
    components = _components(arcs_by_state, sources)
    d = {s: zero for component in components for s in component}
    for s, w in sources.items():
        d[s] = d[s] + w
    is_path = "path" in semiring.semiring_properties
    for component in components:
        first = component[0]
        if len(component) == 1 and all(
                target != first for _, target, _ in arcs_by_state[first]):
            members = ()  # no cycle: every arc leaves the component
        else:
            members = set(component)
            if is_path:
                _label_correcting(semiring, component, members,
                                  arcs_by_state, d)
            elif semiring.star is not None:
                _eliminate(semiring, component, arcs_by_state, d)
            else:
                _relax(semiring, component, members, arcs_by_state, d, delta)
        for s in component:
            ds = d[s]
            for _, target, weight in arcs_by_state[s]:
                if target not in members:
                    d[target] = d[target] + ds * weight
    return d


def _forward_arcs(fst):
    return [[(a.source, a.target, a.weight) for a in arcs] for arcs in fst._arcs]


def _backward_arcs(fst):
    arcs = [[] for _ in fst.states()]
    for a in fst.all_arcs():
        arcs[a.target].append((a.target, a.source, a.weight))
    return arcs


def shortest_distance(fst, delta=DEFAULT_DELTA):
    """Per-state plus-sum over all paths from the initial state.

    Exact wherever the semiring allows (see ``_generic_distance``): on
    real and diff weights a cycle whose sum diverges raises
    DivergenceError, as does an improving cycle on min, max or tropical
    weights.  ``delta`` matters only to semirings with neither a star nor
    the path property.  Each distance passes the membership gate, so a
    NaN (from inf * 0, say) raises InvalidWeightError.
    """
    sr = fst.semiring
    if fst.initial is None:
        return [sr.zero] * fst.num_states
    return [sr.cast(w) for w in _forward_distance(fst, delta)]


def _forward_distance(fst, delta=DEFAULT_DELTA):
    """Per-state plus-sum over paths from the initial state, which must
    exist; no membership gate."""
    sr = fst.semiring
    d = _generic_distance(sr, _forward_arcs(fst),
                          {fst.initial: sr.one}, delta)
    return [d.get(s, sr.zero) for s in fst.states()]


def _backward_distance(fst, delta=DEFAULT_DELTA):
    """Per-state plus-sum over accepting suffixes (final weights included)."""
    sr = fst.semiring
    d = _generic_distance(sr, _backward_arcs(fst),
                          fst.finals, delta)
    return [d.get(s, sr.zero) for s in fst.states()]


def sum_paths(fst, delta=DEFAULT_DELTA):
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
        return sr.cast(sr.total_weight(fst, delta))
    d = _forward_distance(fst, delta)
    total = sr.zero
    for state, weight in fst.finals.items():
        total = total + d[state] * weight
    # The membership gate: arithmetic such as inf * 0 can make a NaN.
    return sr.cast(total)


def remove_epsilon(fst, delta=DEFAULT_DELTA):
    """Eliminate epsilon:epsilon arcs, preserving the weighted language."""
    sr = fst.semiring
    n = fst.num_states
    eps_arcs = [[] for _ in range(n)]
    for a in fst.all_arcs():
        if a.input == EPSILON and a.output == EPSILON:
            eps_arcs[a.source].append((a.source, a.target, a.weight))

    out = Fst(sr)
    out.initial = fst.initial
    for s in range(n):
        # Epsilon-closure weights from s (times-accumulated along epsilon
        # chains, plus-combined across alternative epsilon routes); a state
        # without epsilon arcs reaches only itself.
        if eps_arcs[s]:
            closure_w = _generic_distance(sr, eps_arcs, {s: sr.one}, delta)
        else:
            closure_w = {s: sr.one}
        new_arcs = []
        final = sr.zero
        for t in sorted(closure_w):
            w = closure_w[t]
            if w == sr.zero and t != s:
                continue
            for arc in fst._arcs[t]:
                if arc.input == EPSILON and arc.output == EPSILON:
                    continue
                new_arcs.append(
                    Arc(s, arc.target, arc.input, arc.output, w * arc.weight)
                )
            fw = fst.finals.get(t)
            if fw is not None:
                final = final + w * fw
        out._arcs.append(new_arcs)
        if final != sr.zero:
            out.finals[s] = final
    return out


def determinize(fst, delta=DEFAULT_DELTA):
    """Weighted subset construction with residual weights.

    Requires an epsilon:epsilon-free input.  Transducer arcs are grouped
    by their (input, output) label pair; for acceptors this yields a
    machine with no two same-input arcs leaving any state.  Residual
    weights need semiring division whenever arc weights are non-trivial.
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

    def divide(x, y):
        if y == sr.one:
            return x
        if not sr.has_division:
            raise UnsupportedOperationError(
                f"weighted determinization needs division, which the "
                f"{sr.name} semiring lacks"
            )
        return x / y

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
        # Final weight of the subset.
        final = sr.zero
        for state, residual in key:
            fw = fst.finals.get(state)
            if fw is not None:
                final = final + residual * fw
        if final != sr.zero:
            out.finals[src] = final
        # Group outgoing arcs by label pair.
        grouped = {}
        for state, residual in key:
            for arc in fst._arcs[state]:
                grouped.setdefault((arc.input, arc.output), {}) \
                    .setdefault(arc.target, []).append(residual * arc.weight)
        for (ilabel, olabel), targets in sorted(grouped.items()):
            per_target = {
                t: _plus_all(sr, ws) for t, ws in targets.items()
            }
            total = sr.zero
            for w in per_target.values():
                total = total + w
            subset = tuple(
                (t, divide(per_target[t], total)) for t in sorted(per_target)
            )
            new_key = tuple((t, r.quantize(delta)) for t, r in subset)
            dst = state_map.get(new_key)
            if dst is None:
                if len(state_map) >= cap:
                    raise DeterminizationLimitError(
                        f"subset construction exceeded {cap} states"
                    )
                dst = state_map[new_key] = len(state_map)
                queue.append(subset)
            src_arcs.append(Arc(src, dst, ilabel, olabel, total))
    return out


def _plus_all(sr, weights):
    total = sr.zero
    for w in weights:
        total = total + w
    return total


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


def push(fst, direction="initial", delta=DEFAULT_DELTA):
    """Redistribute weights toward one end without changing the language.

    Uses per-state shortest-distance potentials with the initial state's
    potential pinned to one, so every path's total weight telescopes back
    to its original value.
    """
    if direction not in ("initial", "final"):
        raise WfstError(f"push direction must be 'initial' or 'final', got {direction!r}")
    sr = fst.semiring
    if not sr.has_division:
        raise UnsupportedOperationError(
            f"push needs division, which the {sr.name} semiring lacks"
        )
    out = fst.copy()
    if fst.initial is None:
        return out
    if direction == "initial":
        pot = _backward_distance(fst, delta)
    else:
        pot = shortest_distance(fst, delta)
    pot[fst.initial] = sr.one
    zero = sr.zero
    new_arcs = [[] for _ in fst.states()]
    for arc in fst.all_arcs():
        w = arc.weight
        ps, pt = pot[arc.source], pot[arc.target]
        if direction == "initial":
            if ps != zero and pt != zero:
                w = (w * pt) / ps
        else:
            if ps != zero and pt != zero:
                w = (ps * w) / pt
        new_arcs[arc.source].append(
            Arc(arc.source, arc.target, arc.input, arc.output, w)
        )
    out._arcs = new_arcs
    out.finals = {}
    for state, weight in fst.finals.items():
        p = pot[state]
        if p == zero:
            out.finals[state] = weight
        elif direction == "initial":
            out.finals[state] = weight / p
        else:
            new = p * weight
            if new != zero:
                out.finals[state] = new
    return out


def shortest_path(fst, delta=DEFAULT_DELTA):
    """Best accepting path under the idempotent order a <= b iff a+b == a.

    Ties break toward the lexicographically smallest arc-index sequence
    (stopping at a final state beats taking any arc).
    """
    sr = fst.semiring
    if "path" not in sr.semiring_properties:
        raise UnsupportedOperationError(
            f"shortest_path requires a path semiring, not {sr.name}"
        )
    if fst.initial is None:
        raise NoAcceptingPathError("FST has no initial state")
    beta = _backward_distance(fst, delta)
    if beta[fst.initial] == sr.zero:
        raise NoAcceptingPathError("FST accepts no string")
    arcs_taken = []
    acc = sr.one
    state = fst.initial
    cap = 64 * fst.num_states + 1000
    while True:
        if len(arcs_taken) > cap:
            raise CycleLimitError("shortest-path extraction exceeded step cap")
        target_val = beta[state]
        fw = fst.finals.get(state)
        if fw is not None and fw == target_val:
            weight = acc * fw
            return ShortestPathResult(
                Path(tuple(arcs_taken), weight), weight
            )
        chosen = None
        for arc in fst._arcs[state]:
            if arc.weight * beta[arc.target] == target_val:
                chosen = arc
                break
        if chosen is None:
            # Numerical slack: fall back to approx matching.
            if fw is not None and fw.approx_eq(target_val, delta):
                weight = acc * fw
                return ShortestPathResult(Path(tuple(arcs_taken), weight), weight)
            for arc in fst._arcs[state]:
                if (arc.weight * beta[arc.target]).approx_eq(target_val, delta):
                    chosen = arc
                    break
        if chosen is None:
            raise NoAcceptingPathError(
                "no continuation matches the optimal distance"
            )
        arcs_taken.append(chosen)
        acc = acc * chosen.weight
        state = chosen.target


def random_path(fst, seed=None, max_steps=10_000):
    """Sample an accepting path, arc choice proportional to sampling_weight.

    At a final state, stopping competes with the outgoing arcs using the
    final weight's sampling weight.  Deterministic for a fixed seed.
    """
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
