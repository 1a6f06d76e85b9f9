import math
import random

import pytest

from wfst import (
    Fst,
    GradientTape,
    RealWeight,
    backward,
    compose,
    enumerate_paths,
    fst_from_sequence,
    lift,
    loglikelihood_loss,
    make_diff_semiring,
    pair_acceptor,
    shortest_distance,
    sum_paths,
    train,
)
from wfst.errors import DivergenceError, InvalidWeightError, WfstError
from conftest import build_hello_world_troll, random_cyclic_fst


def diff_copy(fst, semiring):
    """Rebuild a real-weighted machine on a diff tape, every weight a
    parameter keyed by its position, returning (machine, params)."""
    out = Fst(semiring)
    params = {}
    for _ in fst.states():
        out.add_state()
    out.set_initial_state(fst.initial)
    for s in fst.states():
        for idx, arc in enumerate(fst.arcs(s)):
            p = semiring.tape.parameter(arc.weight.value)
            params[("arc", s, idx)] = semiring(p)
            out.add_arc(s, arc.target, semiring(p), arc.input, arc.output)
    for s, w in fst.finals.items():
        p = semiring.tape.parameter(w.value)
        params[("final", s)] = semiring(p)
        out.set_final_weight(s, semiring(p))
    return out, params


def numeric_gradient(build_loss, values, eps=1e-5):
    """Central finite differences of build_loss over a value vector."""
    grads = []
    for i in range(len(values)):
        hi = list(values)
        lo = list(values)
        hi[i] += eps
        lo[i] -= eps
        grads.append((build_loss(hi) - build_loss(lo)) / (2 * eps))
    return grads


class TestTape:
    def test_parameter_and_constant_nodes(self):
        tape = GradientTape()
        p = tape.parameter(2.0)
        c = tape.constant(3.0)
        assert p.value == 2.0
        assert c.value == 3.0
        assert p.node_id in tape.parameters
        assert c.node_id not in tape.parameters

    def test_simple_product_gradient(self):
        tape = GradientTape()
        sr = make_diff_semiring(tape)
        x = sr(tape.parameter(3.0))
        y = sr(tape.parameter(4.0))
        z = x * y
        grads = backward(tape, z)
        assert grads[x.node.node_id] == pytest.approx(4.0)
        assert grads[y.node.node_id] == pytest.approx(3.0)

    def test_sum_gradient(self):
        tape = GradientTape()
        sr = make_diff_semiring(tape)
        x = sr(tape.parameter(3.0))
        z = x + x + sr.one
        grads = backward(tape, z)
        assert z.value == pytest.approx(7.0)
        assert grads[x.node.node_id] == pytest.approx(2.0)

    def test_division_gradient(self):
        tape = GradientTape()
        sr = make_diff_semiring(tape)
        x = sr(tape.parameter(2.0))
        y = sr(tape.parameter(4.0))
        z = x / y
        grads = backward(tape, z)
        assert grads[x.node.node_id] == pytest.approx(0.25)
        assert grads[y.node.node_id] == pytest.approx(-0.125)

    def test_power_gradient(self):
        tape = GradientTape()
        sr = make_diff_semiring(tape)
        x = sr(tape.parameter(3.0))
        grads = backward(tape, x ** 3)
        assert grads[x.node.node_id] == pytest.approx(27.0)

    def test_parameter_after_output_gets_zero(self):
        tape = GradientTape()
        sr = make_diff_semiring(tape)
        x = sr(tape.parameter(3.0))
        z = x * x
        late = tape.parameter(5.0)
        grads = backward(tape, z)
        assert grads[late.node_id] == 0.0

    def test_foreign_node_rejected(self):
        tape_a = GradientTape()
        tape_b = GradientTape()
        sr_b = make_diff_semiring(tape_b)
        node = sr_b(tape_b.parameter(1.0))
        with pytest.raises(InvalidWeightError):
            backward(tape_a, node.node)

    def test_tape_is_deterministic(self):
        def run():
            tape = GradientTape()
            sr = make_diff_semiring(tape)
            a = sr(tape.parameter(1.5))
            b = sr(tape.parameter(2.5))
            out = (a + b) * a
            return backward(tape, out.node if hasattr(out, "node") else out)

        assert run() == run()


class TestDiffSemiring:
    def test_semiring_name(self):
        sr = make_diff_semiring()
        assert sr.name == "diff"

    def test_separate_tapes_per_factory_call(self):
        a = make_diff_semiring()
        b = make_diff_semiring()
        assert a.tape is not b.tape

    def test_machine_total_matches_real(self):
        real = build_hello_world_troll()
        sr = make_diff_semiring()
        machine, _ = diff_copy(real, sr)
        assert sum_paths(machine).value == pytest.approx(18.0)

    def test_sum_paths_gradients_match_finite_differences(self):
        rng = random.Random(99)
        from conftest import random_acyclic_fst

        worst = 0.0
        for _ in range(100):
            base = random_acyclic_fst(rng)
            if not enumerate_paths(base):
                continue

            sr = make_diff_semiring()
            machine, params = diff_copy(base, sr)
            total = sum_paths(machine)
            grads = backward(sr.tape, total.node)

            keys = sorted(params)
            values = [params[k].value for k in keys]

            def build_loss(vals, base=base, keys=keys):
                f = base.copy()
                table = dict(zip(keys, vals))
                from wfst.fst import Arc

                for s in f.states():
                    f._arcs[s] = [
                        Arc(a.source, a.target, a.input, a.output,
                            RealWeight(table[("arc", s, i)]))
                        for i, a in enumerate(f._arcs[s])
                    ]
                for s in list(f.finals):
                    f.finals[s] = RealWeight(table[("final", s)])
                return sum_paths(f).value

            numeric = numeric_gradient(build_loss, values)
            for k, num in zip(keys, numeric):
                got = grads[params[k].node.node_id]
                err = abs(got - num) / max(abs(num), 1e-9)
                worst = max(worst, min(err, abs(got - num)))
                assert abs(got - num) <= 1e-6 * max(abs(num), 1.0) + 1e-9, \
                    (k, got, num)
        assert worst < 1e-4


def with_values(base, keys, values):
    """``base`` with the weights that ``diff_copy`` keyed replaced."""
    table = dict(zip(keys, values))
    f = base.copy()
    for s in f.states():
        f._arcs[s] = [a._replace(weight=RealWeight(table[("arc", s, i)]))
                      for i, a in enumerate(f._arcs[s])]
    for s in list(f.finals):
        f.finals[s] = RealWeight(table[("final", s)])
    return f


class TestCyclicGradients:
    def test_sum_paths_gradients_match_finite_differences(self):
        rng = random.Random(7)
        for _ in range(40):
            base = random_cyclic_fst(rng)
            sr = make_diff_semiring()
            machine, params = diff_copy(base, sr)
            grads = backward(sr.tape, sum_paths(machine).node)
            keys = sorted(params)
            values = [params[k].value for k in keys]
            numeric = numeric_gradient(
                lambda vals: sum_paths(with_values(base, keys, vals)).value,
                values)
            for k, num in zip(keys, numeric):
                got = grads[params[k].node.node_id]
                assert abs(got - num) <= 1e-6 * max(abs(num), 1.0), \
                    (k, got, num)

    def test_sum_paths_gradients_match_the_closed_form(self):
        np = pytest.importorskip("numpy")
        linalg = pytest.importorskip("scipy.linalg")
        rng = random.Random(8)
        for _ in range(40):
            base = random_cyclic_fst(rng)
            n = base.num_states
            a = np.zeros((n, n))
            rho = np.zeros(n)
            for arc in base.all_arcs():
                a[arc.source, arc.target] += arc.weight.value
            for s, w in base.finals.items():
                rho[s] = w.value
            start = np.zeros(n)
            start[base.initial] = 1.0
            alpha = linalg.solve((np.eye(n) - a).T, start)
            beta = linalg.solve(np.eye(n) - a, rho)
            sr = make_diff_semiring()
            machine, params = diff_copy(base, sr)
            total = sum_paths(machine)
            assert total.value == pytest.approx(alpha @ rho, rel=1e-12)
            grads = backward(sr.tape, total.node)
            for s in base.states():
                for i, arc in enumerate(base.arcs(s)):
                    got = grads[params[("arc", s, i)].node.node_id]
                    want = alpha[s] * beta[arc.target]
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-15)
            for s in base.finals:
                got = grads[params[("final", s)].node.node_id]
                assert got == pytest.approx(alpha[s], rel=1e-12, abs=1e-15)

    def test_sum_paths_records_one_node(self):
        rng = random.Random(9)
        for _ in range(10):
            sr = make_diff_semiring()
            machine, _ = diff_copy(random_cyclic_fst(rng), sr)
            before = len(sr.tape.nodes)
            sum_paths(machine)
            assert len(sr.tape.nodes) - before <= 3

    def test_cyclic_distances_are_exact_and_differentiable(self):
        # shortest_distance records its elimination, star included.
        rng = random.Random(10)
        for _ in range(20):
            base = random_cyclic_fst(rng)
            last = base.num_states - 1
            sr = make_diff_semiring()
            machine, params = diff_copy(base, sr)
            got = shortest_distance(machine)[last]
            assert got.value == pytest.approx(
                shortest_distance(base)[last].value, rel=1e-12)
            grads = backward(sr.tape, got.node)
            keys = sorted(params)
            numeric = numeric_gradient(
                lambda vals: shortest_distance(
                    with_values(base, keys, vals))[last].value,
                [params[k].value for k in keys])
            for k, num in zip(keys, numeric):
                got_k = grads[params[k].node.node_id]
                assert abs(got_k - num) <= 1e-6 * max(abs(num), 1.0), \
                    (k, got_k, num)

    def test_divergent_model_raises(self):
        f = Fst(RealWeight)
        f.add_state()
        f.set_initial_state(0)
        f.add_arc(0, 0, 1.0, "a", "a")
        f.set_final_weight(0, 1.0)
        with pytest.raises(DivergenceError):
            train(f, [("a", "a")], steps=1)


class TestLogLikelihood:
    def test_world_loss_value(self):
        sr = make_diff_semiring()
        machine, _ = diff_copy(build_hello_world_troll(), sr)
        observed = pair_acceptor("hello", "world")
        loss = loglikelihood_loss(machine, observed)
        assert loss.value == pytest.approx(-math.log(6.0 / 18.0))

    def test_troll_loss_value(self):
        sr = make_diff_semiring()
        machine, _ = diff_copy(build_hello_world_troll(), sr)
        loss = loglikelihood_loss(machine, pair_acceptor("hello", "troll"))
        assert loss.value == pytest.approx(-math.log(12.0 / 18.0))

    def test_losses_sum_to_certainty(self):
        # The two observations partition the path set, so the implied
        # probabilities must add to one.
        sr = make_diff_semiring()
        machine, _ = diff_copy(build_hello_world_troll(), sr)
        p1 = math.exp(-loglikelihood_loss(
            machine, pair_acceptor("hello", "world")).value)
        p2 = math.exp(-loglikelihood_loss(
            machine, pair_acceptor("hello", "troll")).value)
        assert p1 + p2 == pytest.approx(1.0)

    def test_impossible_observation_rejected(self):
        sr = make_diff_semiring()
        machine, _ = diff_copy(build_hello_world_troll(), sr)
        with pytest.raises(WfstError):
            loglikelihood_loss(machine, pair_acceptor("hello", "nope!"))

    def test_gradient_direction(self):
        # Increasing the weight of an arc on the observed path must
        # decrease the loss, so its gradient is negative.
        sr = make_diff_semiring()
        machine, params = diff_copy(build_hello_world_troll(), sr)
        loss = loglikelihood_loss(machine, pair_acceptor("hello", "world"))
        grads = backward(sr.tape, loss.node)
        world_first_arc = params[("arc", 0, 0)]
        troll_first_arc = params[("arc", 0, 1)]
        assert grads[world_first_arc.node.node_id] < 0
        assert grads[troll_first_arc.node.node_id] > 0


class TestPairAcceptor:
    def test_equal_lengths(self):
        f = pair_acceptor("ab", "cd")
        paths = enumerate_paths(f)
        assert len(paths) == 1
        assert paths[0].input_str == "ab"
        assert paths[0].output_str == "cd"

    def test_unequal_lengths_padded(self):
        f = pair_acceptor("abc", "x")
        paths = enumerate_paths(f)
        assert len(paths) == 1
        assert paths[0].input_str == "abc"
        assert paths[0].output_str == "x"

    def test_composes_with_identity(self):
        f = pair_acceptor("ab", "ab")
        g = compose(fst_from_sequence("ab"), f)
        assert len(enumerate_paths(g)) == 1


class TestTrain:
    def test_loss_decreases_on_troll_machine(self):
        trained, losses = train(build_hello_world_troll(),
                                [("hello", "world")], steps=200, rate=0.05)
        assert losses[0] == pytest.approx(-math.log(6.0 / 18.0))
        assert losses[-1] < 0.01
        assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))

    def test_trained_machine_prefers_observation(self):
        trained, _ = train(build_hello_world_troll(),
                           [("hello", "world")], steps=200, rate=0.05)
        by_output = {p.output_str: p.weight.value
                     for p in enumerate_paths(trained)}
        total = sum(by_output.values())
        assert by_output["world"] / total > 0.99

    def test_multiple_observations_balance(self):
        trained, losses = train(
            build_hello_world_troll(),
            [("hello", "world"), ("hello", "troll")], steps=300, rate=0.05)
        by_output = {p.output_str: p.weight.value
                     for p in enumerate_paths(trained)}
        total = sum(by_output.values())
        assert by_output["world"] / total == pytest.approx(0.5, abs=0.05)

    def test_diff_model_trains_like_its_real_source(self):
        real = build_hello_world_troll()
        diff = lift(real, make_diff_semiring())
        pairs = [("hello", "world")]
        got_model, got = train(diff, pairs, steps=5)
        want_model, want = train(real, pairs, steps=5)
        assert got == want
        assert got_model.semiring is RealWeight
        assert list(got_model.all_arcs()) == list(want_model.all_arcs())

    def test_weights_stay_positive(self):
        trained, _ = train(build_hello_world_troll(),
                           [("hello", "troll")], steps=100, rate=0.2)
        assert all(a.weight.value > 0 for a in trained.all_arcs())
        assert all(w.value > 0 for w in trained.finals.values())
