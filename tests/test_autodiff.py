import math
import random

import pytest

import wfst.algorithms as algorithms
import wfst.autodiff as autodiff
from wfst import (
    FeaturizedWeight,
    Fst,
    GradientTape,
    RealWeight,
    backward,
    compose,
    connect,
    enumerate_paths,
    fst_from_sequence,
    lift,
    loglikelihood_loss,
    make_diff_semiring,
    pair_acceptor,
    project,
    render_text,
    shortest_distance,
    sum_paths,
    train,
    union,
)
from wfst.autodiff import _forward_backward, _losses, _restrict
from wfst.errors import (DivergenceError, InvalidWeightError,
                         SemiringMismatchError, WfstError)
from conftest import build_hello_world_troll, plant_arc, random_cyclic_fst
from test_algorithms import one_sided_epsilons, outcome, random_epsilon_fst


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
                for s in f.states():
                    for i, a in enumerate(f.arcs(s)):
                        plant_arc(f, a._replace(
                            weight=RealWeight(table[("arc", s, i)])), i)
                for s in list(f.finals):
                    f.set_final_weight(s, RealWeight(table[("final", s)]))
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
        for i, a in enumerate(f.arcs(s)):
            plant_arc(f, a._replace(weight=RealWeight(table[("arc", s, i)])),
                      i)
    for s in list(f.finals):
        f.set_final_weight(s, RealWeight(table[("final", s)]))
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


def epsilon_model():
    """A cyclic real transducer with input-epsilon, output-epsilon and
    epsilon:epsilon arcs, self-loops among them; each state's arcs weigh
    0.65 or less, so its total weight converges."""
    f = Fst(RealWeight)
    for _ in range(3):
        f.add_state()
    f.set_initial_state(0)
    for s, t, i, o, w in [(0, 1, "a", "b", 0.3), (0, 0, "b", 0, 0.2),
                          (0, 2, 0, "a", 0.15), (1, 0, "a", "a", 0.25),
                          (1, 2, "b", 0, 0.2), (1, 1, 0, "b", 0.1),
                          (2, 0, 0, 0, 0.1), (2, 1, "a", "b", 0.3),
                          (2, 2, "b", "a", 0.2)]:
        f.add_arc(s, t, w, i, o)
    for s, w in [(0, 0.2), (1, 0.3), (2, 0.3)]:
        f.set_final_weight(s, w)
    return f


# Unequal lengths pad one projection with epsilon, so the compositions
# take all three moves of the epsilon filter.
EPSILON_PAIRS = [("ab", "b"), ("a", "bb"), ("aab", "ba"), ("ab", "aba"),
                 ("", "a"), ("b", "")]


def tape_loss(machine, observed):
    """The loss recorded operation by operation on the diff tape: both
    compositions on diff weights, then one node per total."""
    restricted = compose(
        compose(project(observed, "input"), machine),
        project(observed, "output"),
    )
    numerator = sum_paths(restricted)
    denominator = sum_paths(machine)
    return denominator.log() - numerator.log()


def tape_train(real_fst, pairs, steps, rate, min_weight=1e-6):
    """Gradient descent as it ran on the tape: each step lifts the model
    onto a fresh tape with every weight a parameter, sums ``tape_loss``
    over the pairs and backpropagates."""
    observed = [pair_acceptor(i, o) for i, o in pairs]
    model = lift(real_fst, RealWeight)
    losses = []
    for _ in range(steps):
        semiring = make_diff_semiring()
        machine = lift(model, semiring,
                       cast=lambda w: semiring.parameter(w.value))
        total = None
        for obs in observed:
            loss = tape_loss(machine, obs)
            total = loss if total is None else total + loss
        losses.append(total.value)
        grads = semiring.tape.backward(total.node)
        model = lift(machine, RealWeight, cast=lambda w: RealWeight(
            max(min_weight, w.value - rate * grads[w.node.node_id])))
    return model, losses


def workload_model(seed, cycle):
    """The ``train`` benchmark's model: 8 states, two arcs per label pair
    out of each, 0.9 of a state's mass on its arcs and final weight 0.1."""
    rng = random.Random(f"train:{seed}:model:{cycle}")
    model = Fst(RealWeight)
    for _ in range(8):
        model.add_state()
    model.set_initial_state(0)
    for state in range(8):
        raw = [rng.uniform(0.2, 1.0) for _ in range(8)]
        labels = [(i, o) for i in "ab" for o in "ab" for _ in range(2)]
        for r, (i, o) in zip(raw, labels):
            model.add_arc(state, rng.randrange(8), 0.9 * r / sum(raw), i, o)
        model.set_final_weight(state, 0.1)
    return model


def weights_of(fst):
    return ([a.weight.value for a in fst.all_arcs()]
            + [w.value for w in fst.finals.values()])


class TestExpectedCountLoss:
    def test_loss_gradients_match_finite_differences(self):
        base = epsilon_model()
        for i, o in EPSILON_PAIRS:
            sr = make_diff_semiring()
            machine, params = diff_copy(base, sr)
            loss = loglikelihood_loss(machine, pair_acceptor(i, o))
            assert math.isfinite(loss.value) and loss.value > 0
            grads = backward(sr.tape, loss)
            keys = sorted(params)
            numeric = numeric_gradient(
                lambda vals: loglikelihood_loss(
                    lift(with_values(base, keys, vals), make_diff_semiring()),
                    pair_acceptor(i, o)).value,
                [params[k].value for k in keys])
            for k, num in zip(keys, numeric):
                got = grads[params[k].node.node_id]
                assert abs(got - num) <= 1e-6 * max(abs(num), 1.0), \
                    (i, o, k, got, num)

    def test_loss_matches_the_tape(self):
        base = epsilon_model()
        for i, o in EPSILON_PAIRS:
            sr = make_diff_semiring()
            machine, params = diff_copy(base, sr)
            want = tape_loss(machine, pair_acceptor(i, o))
            got = loglikelihood_loss(machine, pair_acceptor(i, o))
            assert got.value == want.value
            want_grads = backward(sr.tape, want)
            got_grads = backward(sr.tape, got)
            for p in params.values():
                assert got_grads[p.node.node_id] == pytest.approx(
                    want_grads[p.node.node_id], rel=1e-12, abs=1e-15)

    def test_train_step_is_the_loss_gradient(self):
        base = epsilon_model()
        rate = 1e-3
        trained, (loss,) = train(base, EPSILON_PAIRS, steps=1, rate=rate)
        sr = make_diff_semiring()
        _, params = diff_copy(base, sr)
        keys = sorted(params)
        numeric = numeric_gradient(
            lambda vals: train(with_values(base, keys, vals), EPSILON_PAIRS,
                               steps=1, rate=rate)[1][0],
            [params[k].value for k in keys])
        for k, num in zip(keys, numeric):
            if k[0] == "arc":
                before = base.arcs(k[1])[k[2]].weight.value
                after = trained.arcs(k[1])[k[2]].weight.value
            else:
                before = base.finals[k[1]].value
                after = trained.finals[k[1]].value
            got = (before - after) / rate
            assert abs(got - num) <= 1e-6 * max(abs(num), 1.0), (k, got, num)

    def test_diff_weighted_observation_gets_its_gradient(self):
        base = epsilon_model()
        rng = random.Random(3)
        for i, o in EPSILON_PAIRS:
            observed = lift(pair_acceptor(i, o), RealWeight,
                            cast=lambda w: rng.uniform(0.5, 1.5))
            sr = make_diff_semiring()
            machine, model_params = diff_copy(base, sr)
            diff_observed, obs_params = diff_copy(observed, sr)
            before = len(sr.tape.nodes)
            loss = loglikelihood_loss(machine, diff_observed)
            assert len(sr.tape.nodes) == before + 1
            want = tape_loss(machine, diff_observed)
            assert loss.value == want.value
            grads = backward(sr.tape, loss)
            want_grads = backward(sr.tape, want)
            model_keys, obs_keys = sorted(model_params), sorted(obs_params)
            n = len(model_keys)

            def value(vals):
                fresh = make_diff_semiring()
                return loglikelihood_loss(
                    lift(with_values(base, model_keys, vals[:n]), fresh),
                    lift(with_values(observed, obs_keys, vals[n:]), fresh),
                ).value

            params = ([model_params[k] for k in model_keys]
                      + [obs_params[k] for k in obs_keys])
            numeric = numeric_gradient(value, [p.value for p in params])
            for p, num in zip(params, numeric):
                got = grads[p.node.node_id]
                assert abs(got - num) <= 1e-6 * max(abs(num), 1.0), (got, num)
                assert got == pytest.approx(want_grads[p.node.node_id],
                                            rel=1e-12, abs=1e-15)

    def test_loss_records_one_node(self):
        sr = make_diff_semiring()
        machine, _ = diff_copy(epsilon_model(), sr)
        before = len(sr.tape.nodes)
        loglikelihood_loss(machine, pair_acceptor("ab", "b"))
        assert len(sr.tape.nodes) == before + 1

    def test_observed_machine_of_another_semiring_rejected(self):
        sr = make_diff_semiring()
        machine, _ = diff_copy(epsilon_model(), sr)
        for other in (RealWeight, make_diff_semiring()):
            with pytest.raises(SemiringMismatchError):
                loglikelihood_loss(
                    machine, lift(pair_acceptor("ab", "b"), other))

    def test_train_matches_the_tape_on_the_benchmark_models(self):
        worst = 0.0
        for seed in range(3):
            rng = random.Random(seed)
            for cycle in range(2):
                model = workload_model(seed, cycle)
                for n in range(2, 7):
                    pairs = [("".join(rng.choice("ab") for _ in range(n)),
                              "".join(rng.choice("ab") for _ in range(n)))
                             for _ in range(4)]
                    got_model, got = train(model, pairs, steps=3, rate=1e-3)
                    want_model, want = tape_train(model, pairs, steps=3,
                                                  rate=1e-3)
                    for x, y in zip(got + weights_of(got_model),
                                    want + weights_of(want_model)):
                        worst = max(worst, abs(x - y) / abs(y))
        assert worst <= 1e-15


def epsilon_loop_model():
    """``epsilon_model`` with an epsilon:epsilon self-loop on state 1, so
    that the machine restricted to a pair is cyclic."""
    f = epsilon_model()
    f.add_arc(1, 1, 0.1, 0, 0)
    return f


def featurized_copy(fst, tag):
    """``fst`` on featurized weights that name where each weight comes
    from: an arc's is the one feature (tag, its slot in ``all_arcs()``
    order), a final weight's (tag + "f", its state)."""
    out = Fst(FeaturizedWeight)
    for _ in fst.states():
        out.add_state()
    out.set_initial_state(fst.initial)
    for slot, (s, arc) in enumerate(
            (s, arc) for s in fst.states() for arc in fst.arcs(s)):
        out.add_arc(s, arc.target, FeaturizedWeight({(tag, slot): 1}),
                    arc.input, arc.output)
    for s in fst.finals:
        out.set_final_weight(s, FeaturizedWeight({(tag + "f", s): 1}))
    return out


def shape(fst):
    return (fst.initial, list(fst.finals),
            [(s, a.target, a.input, a.output)
             for s in fst.states() for a in fst.arcs(s)])


def oracle_losses(model, observed):
    """Each observed machine's loss and the partials of their sum, laid
    out as ``_losses`` lays them out, with the restricted machine composed
    afresh by the public ``compose``: on real weights for its values, and
    on featurized weights for the factors of each of its weights.  A
    factor that is not there is skipped."""
    total, total_partials = _forward_backward(model)
    model_values = weights_of(model)
    model_finals = {s: model.num_arcs + k for k, s in enumerate(model.finals)}
    partials = [0.0] * (len(model_values) + sum(len(weights_of(obs))
                                                 for obs in observed))
    first = len(model_values)
    losses = []
    for obs in observed:
        sides = (project(obs, "input"), model, project(obs, "output"))
        restricted = compose(compose(sides[0], sides[1]), sides[2])
        provenance = compose(
            compose(*(featurized_copy(side, tag)
                      for side, tag in zip(sides[:2], "im"))),
            featurized_copy(sides[2], "o"))
        assert shape(provenance) == shape(restricted)
        observed_total, r_partials = 0.0, []
        if restricted.initial is not None:
            observed_total, r_partials = _forward_backward(restricted)
        if observed_total <= 0.0:
            raise WfstError("observed pair has non-positive total weight "
                            f"{observed_total}")
        if total <= 0.0:
            raise WfstError(f"machine has non-positive total weight {total}")
        losses.append(math.log(total) - math.log(observed_total))
        for k, partial in enumerate(total_partials):
            partials[k] += (1.0 / total) * partial
        obs_values = weights_of(obs)
        obs_finals = {s: first + obs.num_arcs + k
                      for k, s in enumerate(obs.finals)}
        scale = -1.0 / observed_total
        r_partials = iter(r_partials)
        for arc, partial in zip(provenance.all_arcs(), r_partials):
            slots = dict(arc.weight.features)  # (tag, slot) -> 1
            slot_in, slot_model, slot_out = (
                next((k for t, k in slots if t == tag), None)
                for tag in "imo")
            adjoint = scale * partial
            if adjoint == 0.0:
                continue
            w_in = 1.0 if slot_in is None else obs_values[slot_in]
            w_model = 1.0 if slot_model is None else model_values[slot_model]
            if slot_out is not None:
                partials[first + slot_out] += adjoint * (w_in * w_model)
                adjoint *= obs_values[slot_out]
            if slot_in is not None:
                partials[first + slot_in] += adjoint * w_model
            if slot_model is not None:
                partials[slot_model] += adjoint * w_in
        for weight, partial in zip(provenance.finals.values(), r_partials):
            states = dict(weight.features)  # (tag, state) -> 1
            s_in, s_model, s_out = (next(k for t, k in states if t == tag)
                                    for tag in ("if", "mf", "of"))
            adjoint = scale * partial
            w_in = obs.finals[s_in].value
            w_model = model.finals[s_model].value
            partials[obs_finals[s_out]] += adjoint * (w_in * w_model)
            adjoint *= obs.finals[s_out].value
            partials[obs_finals[s_in]] += adjoint * w_model
            partials[model_finals[s_model]] += adjoint * w_in
        first += len(obs_values)
    return losses, partials


def oracle_train(real_fst, pairs, steps, rate, min_weight):
    """``train`` with ``oracle_losses`` for each step's gradient."""
    model = lift(real_fst, RealWeight)
    observed = [lift(pair_acceptor(i, o), RealWeight) for i, o in pairs]
    losses = []
    for _ in range(steps):
        step_losses, partials = oracle_losses(model, observed)
        losses.append(sum(step_losses))
        descended = iter([max(min_weight, v - rate * p)
                          for v, p in zip(weights_of(model), partials)])
        model = lift(model, RealWeight, cast=lambda w: next(descended))
    return model, losses


def bits(values):
    """Floats as their exact hex spellings, -0.0 and NaN included."""
    return [float(v).hex() for v in values]


class TestRestrictionOnce:
    """The restricted machines are composed once per call, and every step
    gives, bit for bit, what composing them afresh gives."""

    def assert_trains_like_the_oracle(self, model, pairs, steps, rate,
                                      min_weight):
        got_model, got = train(model, pairs, steps=steps, rate=rate,
                               min_weight=min_weight)
        want_model, want = oracle_train(model, pairs, steps, rate,
                                        min_weight)
        assert bits(got) == bits(want)
        assert bits(weights_of(got_model)) == bits(weights_of(want_model))
        assert shape(got_model) == shape(want_model)
        return got_model

    def assert_step_is_the_oracle(self, model, observed):
        losses, partials = _losses(model, *_restrict(model, observed))
        want_losses, want_partials = oracle_losses(model, observed)
        assert bits(losses) == bits(want_losses)
        assert bits(partials[:len(want_partials)]) == bits(want_partials)

    def test_unequal_lengths(self):
        model = epsilon_model()
        observed = [lift(pair_acceptor(i, o), RealWeight)
                    for i, o in EPSILON_PAIRS]
        self.assert_step_is_the_oracle(model, observed)
        self.assert_trains_like_the_oracle(model, EPSILON_PAIRS, 4, 0.005,
                                           1e-6)

    def test_epsilon_loop_makes_a_cyclic_restriction(self):
        model = epsilon_loop_model()
        pair = pair_acceptor("ab", "b")
        restricted = compose(compose(project(pair, "input"), model),
                             project(pair, "output"))
        assert algorithms._components(restricted._arcs,
                                      [restricted.initial])[1]
        observed = [lift(pair_acceptor(i, o), RealWeight)
                    for i, o in EPSILON_PAIRS]
        self.assert_step_is_the_oracle(model, observed)
        self.assert_trains_like_the_oracle(model, EPSILON_PAIRS, 4, 0.005,
                                           1e-6)

    def test_random_epsilon_machines(self):
        # Models and observed machines with epsilon on either tape, with
        # reachable epsilon cycles (so R is cyclic) and without.  Each
        # observed machine keeps the paths of one with the model's own
        # labels, so that it agrees with some path of the model; the
        # union adds an independent machine's.
        rng = random.Random(3)
        cyclic = 0
        for k in range(8):
            model, other = (one_sided_epsilons(rng, random_epsilon_fst(
                rng, RealWeight, reachable_cycles=k % 2 == 1))
                for _ in range(2))
            own = lift(model, RealWeight,
                       cast=lambda w: rng.uniform(0.1, 0.5))
            for observed in (own, union(own, other)):
                search, restricted, constants = _restrict(model, [observed])
                cyclic += bool(restricted[0][4][1])
                got = outcome(_losses, model, search, restricted, constants)
                want = outcome(oracle_losses, model, [observed])
                if isinstance(want[0], type):  # an error: the same one
                    assert got == want
                    continue
                assert bits(got[0]) == bits(want[0])
                assert bits(got[1][:len(want[1])]) == bits(want[1])
        assert cyclic >= 4

    def test_zero_floor_with_a_weight_descended_to_zero(self):
        trained = self.assert_trains_like_the_oracle(
            epsilon_loop_model(), EPSILON_PAIRS, 4, 0.02, 0.0)
        assert 0.0 in weights_of(trained)
        # Here the weights that descend to zero leave a pair no path on
        # a later step, which fails as the oracle does.
        with pytest.raises(WfstError) as want:
            oracle_train(epsilon_model(), EPSILON_PAIRS[:3], 4, 0.05, 0.0)
        with pytest.raises(WfstError) as got:
            train(epsilon_model(), EPSILON_PAIRS[:3], steps=4, rate=0.05,
                  min_weight=0.0)
        assert str(got.value) == str(want.value)
        assert "non-positive total weight 0.0" in str(got.value)

    def test_pair_without_a_path_fails_on_the_first_step(self):
        model = workload_model(0, 0)  # no epsilon: unequal lengths fail
        pairs = [("ab", "ba"), ("ab", "a")]
        observed = [lift(pair_acceptor(i, o), RealWeight) for i, o in pairs]
        with pytest.raises(WfstError) as want:
            oracle_losses(model, observed)
        with pytest.raises(WfstError) as got:
            _losses(model, *_restrict(model, observed))
        assert str(got.value) == str(want.value)
        for steps in (1, 3):
            with pytest.raises(WfstError) as got:
                train(model, pairs, steps=steps)
            assert str(got.value) == str(want.value)

    def assert_diff_loss_is_the_oracle(self, base, observed):
        rng = random.Random(5)
        observed = lift(observed, RealWeight,
                        cast=lambda w: rng.uniform(0.5, 1.5))
        sr = make_diff_semiring()
        machine, _ = diff_copy(base, sr)
        diff_observed, _ = diff_copy(observed, sr)
        loss = loglikelihood_loss(machine, diff_observed)
        (want,), partials = oracle_losses(base, [observed])
        assert bits([loss.value]) == bits([want])
        assert bits(loss.node.partials) == bits(partials)
        return partials

    def test_diff_loss_is_the_oracle(self):
        # The union of two pair acceptors has two final states, so a
        # final state of the restriction may pair different ones.
        for i, o in EPSILON_PAIRS:
            for observed in (pair_acceptor(i, o),
                             union(pair_acceptor(i, o), pair_acceptor(o, i))):
                self.assert_diff_loss_is_the_oracle(epsilon_loop_model(),
                                                    observed)

    def test_infinite_arc_into_a_dead_end_adds_no_nan(self):
        # The restricted arcs into the dead end have adjoint zero, and are
        # skipped rather than multiplied by the infinite factor.  With
        # ("ab", "b") the dead end of R still has epsilon moves: its alpha
        # is infinite and its beta zero, and those arcs get partial 0.
        base = epsilon_loop_model()
        base.add_arc(0, base.add_state(), math.inf, "a", "b")
        dead = len(base.arcs(0)) - 1  # the dead arc's slot
        trimmed = connect(base)
        assert trimmed.num_arcs == base.num_arcs - 1
        for i, o in [("ab", "ba"), ("ab", "bb"), ("ba", "ab"), ("ab", "b")]:
            partials = self.assert_diff_loss_is_the_oracle(
                base, pair_acceptor(i, o))
            assert all(map(math.isfinite, partials))
            assert partials[dead] == 0.0
            want = self.assert_diff_loss_is_the_oracle(
                trimmed, pair_acceptor(i, o))
            assert bits(partials[:dead] + partials[dead + 1:]) == bits(want)

    def test_train_leaves_its_model_unchanged(self):
        for model, pairs in ((epsilon_loop_model(), EPSILON_PAIRS),
                             (workload_model(1, 0), [("ab", "ba")])):
            before = render_text(model)
            train(model, pairs, steps=3, rate=0.005)
            assert render_text(model) == before

    @pytest.mark.parametrize("steps", [0, 1, 3, 7])
    def test_one_restriction_per_pair_per_call(self, monkeypatch, steps):
        # One 3-way restriction of each pair, whatever the number of
        # steps; no composition and no projection.
        calls = []
        restrict_once = autodiff._restrict

        def counted(model, observed):
            calls.append(len(observed))
            return restrict_once(model, observed)

        def refused(*args):
            raise AssertionError("train composed or projected")

        monkeypatch.setattr(autodiff, "_restrict", counted)
        monkeypatch.setattr(algorithms, "compose", refused)
        monkeypatch.setattr(algorithms, "project", refused)
        train(workload_model(2, 0), [("ab", "ba"), ("ba", "ab"),
                                     ("aab", "bba")], steps=steps)
        assert calls == [3]

    @pytest.mark.parametrize("steps", [1, 3, 7])
    def test_one_search_per_machine_per_call(self, monkeypatch, steps):
        # One search of the model and of each restricted machine, which
        # its forward and backward passes share, whatever the number of
        # steps.
        calls = []
        search_once = algorithms._components

        def counted(*args, **kwargs):
            calls.append(args)
            return search_once(*args, **kwargs)

        monkeypatch.setattr(algorithms, "_components", counted)
        train(epsilon_loop_model(), EPSILON_PAIRS, steps=steps, rate=0.005)
        assert len(calls) == 1 + len(EPSILON_PAIRS)


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

    def test_no_pairs_is_an_error(self):
        # Once an AttributeError on the missing loss of the first step.
        with pytest.raises(WfstError, match="at least one observed pair"):
            train(build_hello_world_troll(), [], steps=1)

    def test_weights_stay_positive(self):
        trained, _ = train(build_hello_world_troll(),
                           [("hello", "troll")], steps=100, rate=0.2)
        assert all(a.weight.value > 0 for a in trained.all_arcs())
        assert all(w.value > 0 for w in trained.finals.values())

    def test_descended_weights_pass_the_membership_gate(self):
        # max(nan, w) is nan, so a NaN floor would make every descended
        # weight NaN; train refuses the floor before the first step.
        with pytest.raises(WfstError) as exc:
            train(build_hello_world_troll(), [("hello", "troll")], steps=1,
                  min_weight=math.nan)
        assert str(exc.value) == (
            "min_weight must be a finite number of at least 0, got nan")

    @pytest.mark.parametrize("name, value, rule", [
        ("steps", -1, "an integer of at least 0"),
        ("steps", 2.5, "an integer of at least 0"),
        ("steps", math.inf, "an integer of at least 0"),
        ("steps", "3", "an integer of at least 0"),
        ("rate", 0, "a finite number above 0"),
        ("rate", -0.05, "a finite number above 0"),
        ("rate", math.nan, "a finite number above 0"),
        ("rate", math.inf, "a finite number above 0"),
        ("rate", "0.05", "a finite number above 0"),
        ("min_weight", -1e-6, "a finite number of at least 0"),
        ("min_weight", math.inf, "a finite number of at least 0"),
        ("min_weight", None, "a finite number of at least 0"),
    ])
    def test_numeric_parameters_are_checked(self, name, value, rule):
        # A NaN rate would floor every weight: max(1e-6, nan) is 1e-6.
        with pytest.raises(WfstError) as exc:
            train(build_hello_world_troll(), [("hello", "troll")],
                  **{name: value})
        assert type(exc.value) is WfstError
        assert str(exc.value) == f"{name} must be {rule}, got {value!r}"

    def test_zero_steps_return_the_model_and_no_losses(self):
        model = build_hello_world_troll()
        trained, losses = train(model, [("hello", "troll")], steps=0,
                                min_weight=0)
        assert losses == []
        assert list(trained.all_arcs()) == list(model.all_arcs())
