"""End-to-end acceptance checks, one numbered criterion per test.

Each test prints a single PASS/FAIL line on the real terminal (via
capsys.disabled) so the acceptance status is visible in any pytest run.
"""

import math
import random
import re
import time

import pytest
from scipy import stats

from wfst import (
    BooleanWeight,
    FeaturizedWeight,
    Fst,
    MaxWeight,
    MinWeight,
    RealWeight,
    TropicalWeight,
    backward,
    check_semiring_axioms,
    compose,
    determinize,
    enumerate_paths,
    equivalent_by_enumeration,
    cast_from_boolean,
    featurized_semiring,
    fst_from_sequence,
    lift,
    make_diff_semiring,
    parse_text,
    project,
    push,
    random_path,
    remove_epsilon,
    render_dot,
    render_text,
    reverse,
    shortest_distance,
    shortest_path,
    sum_paths,
    train,
    union,
)
from conftest import (
    build_double_a_machine,
    build_hello_world_troll,
    plant_arc,
    random_acyclic_fst,
)
from test_autodiff import diff_copy, numeric_gradient


@pytest.fixture
def report(capsys):
    outcome = {"ok": False, "label": ""}

    def set_result(number, label, ok):
        outcome.update(ok=ok, label=f"criterion {number:2d} {label}")
        assert ok, outcome["label"]

    yield set_result
    with capsys.disabled():
        status = "PASS" if outcome["ok"] else "FAIL"
        print(f"{outcome['label']}: {status}")


def composed_double_a():
    return compose(fst_from_sequence("aaa"), build_double_a_machine())


def test_criterion_1_weighted_paths(report):
    start = time.perf_counter()
    f = build_hello_world_troll()
    by_output = {p.output_str: p.weight.value for p in enumerate_paths(f)}
    elapsed = time.perf_counter() - start
    ok = (by_output == {"world": 6.0, "troll": 12.0}
          and abs(sum_paths(f).value - 18.0) <= 1e-9
          and elapsed < 1.0)
    report(1, "weighted path products and sum", ok)


def test_criterion_2_determinization(report):
    start = time.perf_counter()
    d = determinize(remove_epsilon(union(fst_from_sequence("hello"),
                                         fst_from_sequence("help"))))
    accepted = sorted(p.input_str for p in enumerate_paths(d))
    deterministic = all(
        len({a.input for a in d.arcs(s)}) == len(d.arcs(s))
        for s in d.states()
    )
    elapsed = time.perf_counter() - start
    ok = (d.num_states == 7 and deterministic
          and accepted == ["hello", "help"] and elapsed < 1.0)
    report(2, "union/rmepsilon/determinize chain", ok)


def test_criterion_3_composition_filters(report):
    transducer = Fst()
    for _ in range(6):
        transducer.add_state()
    transducer.set_initial_state(0)
    for s, (i, o) in enumerate(zip("hello", "world")):
        transducer.add_arc(s, s + 1, None, i, o)
    transducer.set_final_weight(5, True)
    acceptor = union(fst_from_sequence("hello"), fst_from_sequence("help"))
    outputs = sorted(p.input_str for p in enumerate_paths(
        project(compose(acceptor, transducer), "output")))
    report(3, "composition rejects unmatched strings", outputs == ["world"])


def test_criterion_4_weighted_composition(report):
    composed = composed_double_a()
    paths = enumerate_paths(composed)
    by_output = {p.output_str: p.weight.value for p in paths}
    oracle = {"aaa": 1.0, "ba": 0.5, "ab": 0.5}
    weights_ok = (set(by_output) == set(oracle) and len(paths) == 3 and all(
        abs(by_output[k] - oracle[k]) <= 1e-9 for k in oracle))
    explicit = compose(
        cast_from_boolean(fst_from_sequence("aaa"), RealWeight),
        build_double_a_machine())
    report(4, "weighted composition with auto-cast",
           weights_ok and equivalent_by_enumeration(composed, explicit))


def test_criterion_5_path_semiring_extremes(report):
    composed = composed_double_a()
    costs = {}
    for p in enumerate_paths(lift(composed, MinWeight)):
        key = p.output_str
        cost = sum(a.weight.value for a in p.arcs)
        cost += lift(composed, MinWeight).final_weight(p.arcs[-1].target).value
        costs[key] = min(costs.get(key, math.inf), cost)
    lo = shortest_path(lift(composed, MinWeight))
    hi = shortest_path(lift(composed, MaxWeight))
    ok = (lo.distance.value == pytest.approx(min(costs.values()))
          and hi.distance.value == pytest.approx(max(costs.values())))
    if min(costs.values()) != max(costs.values()):
        ok = ok and lo.path.output_str != hi.path.output_str
    report(5, "min/max shortest paths bracket the oracle", ok)


def test_criterion_6_axiom_suite(report):
    semirings = [BooleanWeight, RealWeight, MinWeight, MaxWeight,
                 TropicalWeight, FeaturizedWeight, make_diff_semiring()]
    reports = [check_semiring_axioms(sr, sample_count=1000)
               for sr in semirings]
    report(6, "semiring axiom suite (7 semirings x 1000 samples)",
           all(r.ok for r in reports))


def test_criterion_7_equivalence_properties(report):
    start = time.perf_counter()
    rng = random.Random(2024)
    ok = True
    for _ in range(100):
        f = random_acyclic_fst(rng)
        ok = ok and equivalent_by_enumeration(remove_epsilon(f), f)
        ok = ok and equivalent_by_enumeration(reverse(reverse(f)), f)
        ok = ok and equivalent_by_enumeration(push(f, "initial"), f)
        ok = ok and equivalent_by_enumeration(push(f, "final"), f)
        ok = ok and equivalent_by_enumeration(lift(f, RealWeight), f)
        d = shortest_distance(f)
        oracle = [RealWeight.zero] * f.num_states
        oracle[f.initial] = RealWeight.one
        for s in range(f.num_states):
            for arc in f.arcs(s):
                oracle[arc.target] = oracle[arc.target] + oracle[s] * arc.weight
        ok = ok and all(d[s].approx_eq(oracle[s], 1e-9)
                        for s in range(f.num_states))
        if not ok:
            break
    elapsed = time.perf_counter() - start
    report(7, "algorithm equivalences on 100 random machines",
           ok and elapsed < 60.0)


def test_criterion_8_gradients(report):
    rng = random.Random(4242)
    ok = True
    checked = 0
    while checked < 100 and ok:
        base = random_acyclic_fst(rng)
        if not enumerate_paths(base):
            continue
        checked += 1
        sr = make_diff_semiring()
        machine, params = diff_copy(base, sr)
        grads = backward(sr.tape, sum_paths(machine).node)
        keys = sorted(params)
        values = [params[k].value for k in keys]

        def build_loss(vals, base=base, keys=keys):
            f = base.copy()
            table = dict(zip(keys, vals))
            for s in f.states():
                for i, a in enumerate(f.arcs(s)):
                    plant_arc(f, a._replace(
                        weight=RealWeight(table[("arc", s, i)])), i)
            for s in list(f.finals):
                f.set_final_weight(s, RealWeight(table[("final", s)]))
            return sum_paths(f).value

        for k, num in zip(keys, numeric_gradient(build_loss, values)):
            got = grads[params[k].node.node_id]
            if abs(got - num) > 1e-6 * max(abs(num), 1.0) + 1e-9:
                ok = False
                break
    _, losses = train(build_hello_world_troll(), [("hello", "world")],
                      steps=200, rate=0.05)
    monotone = all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))
    report(8, "gradients match finite differences; training monotone",
           ok and monotone and losses[-1] < losses[0])


def test_criterion_9_featurized(report):
    sr = featurized_semiring({"f1": 2.0, "f2": 3.0})
    f = Fst(sr)
    for _ in range(4):
        f.add_state()
    f.set_initial_state(0)
    f.add_arc(0, 1, sr({"f1": 1}), "a", "a")
    f.add_arc(1, 3, sr({"f1": 1, "f2": 1}), "b", "b")
    f.add_arc(0, 2, sr({"f2": 2}), "c", "c")
    f.add_arc(2, 3, sr({"f1": 3}), "d", "d")
    f.set_final_weight(3, sr({"f1": 1}))
    # Along a path, counts add; across the two paths, plus takes the
    # per-feature maximum.
    by_string = {p.input_str: p.weight for p in enumerate_paths(f)}
    path_ok = (by_string["ab"] == sr({"f1": 3, "f2": 1})
               and by_string["cd"] == sr({"f1": 4, "f2": 2}))
    combined = by_string["ab"] + by_string["cd"]
    plus_ok = combined == sr({"f1": 4, "f2": 2})

    # Two-branch sampler: branch sampling weights 2 and 6 give a 1:3 split.
    g = Fst(sr)
    for _ in range(3):
        g.add_state()
    g.set_initial_state(0)
    g.add_arc(0, 1, sr({"f1": 1}), "a", "a")
    g.add_arc(0, 2, sr({"f2": 2}), "b", "b")
    g.set_final_weight(1, sr({"f1": 1}))
    g.set_final_weight(2, sr({"f1": 1}))
    n = 10_000
    hits_a = sum(random_path(g, seed=s).input_str == "a" for s in range(n))
    observed = [hits_a, n - hits_a]
    expected = [n * 2 / 8, n * 6 / 8]
    p_value = stats.chisquare(observed, f_exp=expected).pvalue
    report(9, "featurized counts and sampling (chi-square)",
           path_ok and plus_ok and p_value > 0.01)


DOT_LINE = re.compile(
    r"\s*(rankdir=\w+;"
    r"|(node|edge) \[[^\]]*\];"
    r"|\d+ \[[^\]]*\];"
    r"|\d+ -> \d+ \[label=\"[^\"]*\"\];)"
)


def test_criterion_10_io_round_trip(report):
    rng = random.Random(777)
    weights = {
        BooleanWeight: lambda r: True,
        RealWeight: lambda r: r.uniform(0.1, 2.0),
        MinWeight: lambda r: r.uniform(-3.0, 3.0),
        MaxWeight: lambda r: r.uniform(-3.0, 3.0),
        TropicalWeight: lambda r: r.uniform(-3.0, 3.0),
    }
    ok = True
    for semiring, weight in weights.items():
        for _ in range(100):
            f = random_acyclic_fst(rng, semiring, weight=weight)
            g = parse_text(render_text(f))
            ok = ok and g.num_states == f.num_states
            ok = ok and g.initial == f.initial
            ok = ok and sorted(g.finals) == sorted(f.finals)
            ok = ok and all(
                ga.weight.approx_eq(fa.weight)
                and (ga.source, ga.target, ga.input, ga.output) ==
                    (fa.source, fa.target, fa.input, fa.output)
                for ga, fa in zip(g.all_arcs(), f.all_arcs())
            )
    dot = render_dot(build_hello_world_troll())
    lines = dot.strip().splitlines()
    dot_ok = (lines[0] == "digraph fst {" and lines[-1] == "}"
              and all(DOT_LINE.fullmatch(line) for line in lines[1:-1]))
    conventions_ok = ("fillcolor=green" in dot
                      and "fillcolor=red" in dot
                      and 'label="h:w"' in dot   # weight one omitted
                      and 'label="l/2"' in dot)  # matching labels merge
    report(10, "text round trip and DOT conventions",
           ok and dot_ok and conventions_ok)
