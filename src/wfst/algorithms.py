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
    """The states reachable from ``sources`` in topological order, and
    whether that reachable part is acyclic.

    One iterative depth-first search; the order is reverse postorder, with
    each state's arcs (and the sources) explored last to first so that
    siblings keep their arc order.  With a cycle the order still lists
    every reachable state once.
    """
    on_stack = {}  # state -> True while on the search stack, then False
    postorder = []
    acyclic = True
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
                    acyclic = False
            else:
                stack.pop()
                on_stack[state] = False
                postorder.append(state)
    postorder.reverse()
    return postorder, acyclic


def _generic_distance(semiring, num_states, arcs_by_state, sources,
                      delta=DEFAULT_DELTA):
    """Single-source (or multi-source) shortest distance over a semiring.

    ``arcs_by_state[s]`` is a list of (source, target, weight) triples and
    ``sources`` maps seed states to their initial weights.  Returns a dict
    from each state reachable from the sources to its distance; only
    those states are visited.  An acyclic reachable part gets an exact
    topological pass; a cyclic one uses queue-based relaxation that stops
    when updates fall below approx_eq's delta, and raises ConvergenceError
    after the sweep cap.
    """
    zero = semiring.zero
    order, acyclic = _reachable_order(arcs_by_state, sources)
    d = dict.fromkeys(order, zero)
    if acyclic:
        for s, w in sources.items():
            d[s] = d[s] + w
        for s in order:
            ds = d[s]
            for _, target, weight in arcs_by_state[s]:
                d[target] = d[target] + ds * weight
        return d
    # Cyclic: queue-based relaxation (d holds distances, r pending mass).
    r = dict.fromkeys(order, zero)
    queue = deque()
    queued = set()
    for s, w in sources.items():
        d[s] = d[s] + w
        r[s] = r[s] + w
        if s not in queued:
            queue.append(s)
            queued.add(s)
    pops = 0
    cap = RELAXATION_SWEEP_CAP * max(num_states, 1)
    while queue:
        pops += 1
        if pops > cap:
            raise ConvergenceError(
                "shortest-distance relaxation did not converge "
                f"within {RELAXATION_SWEEP_CAP} sweeps"
            )
        s = queue.popleft()
        queued.discard(s)
        mass = r[s]
        r[s] = zero
        for _, target, weight in arcs_by_state[s]:
            add = mass * weight
            new = d[target] + add
            if not d[target].approx_eq(new, delta):
                d[target] = new
                r[target] = r[target] + add
                if target not in queued:
                    queue.append(target)
                    queued.add(target)
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

    Each distance passes the membership gate, so a NaN (from inf * 0,
    say) raises InvalidWeightError.
    """
    sr = fst.semiring
    if fst.initial is None:
        return [sr.zero] * fst.num_states
    d = _generic_distance(sr, fst.num_states, _forward_arcs(fst),
                          {fst.initial: sr.one}, delta)
    return [sr.cast(d.get(s, sr.zero)) for s in fst.states()]


def _backward_distance(fst, delta=DEFAULT_DELTA):
    """Per-state plus-sum over accepting suffixes (final weights included)."""
    sr = fst.semiring
    d = _generic_distance(sr, fst.num_states, _backward_arcs(fst),
                          fst.finals, delta)
    return [d.get(s, sr.zero) for s in fst.states()]


def sum_paths(fst, delta=DEFAULT_DELTA):
    """Plus-sum of all accepting path weights (the total machine weight)."""
    sr = fst.semiring
    if fst.initial is None:
        return sr.zero
    d = _generic_distance(sr, fst.num_states, _forward_arcs(fst),
                          {fst.initial: sr.one}, delta)
    total = sr.zero
    for state, weight in fst.finals.items():
        total = total + d.get(state, sr.zero) * weight
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
            closure_w = _generic_distance(sr, n, eps_arcs, {s: sr.one}, delta)
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
