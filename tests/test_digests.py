"""Pinned outputs: SHA-256 digests of renders, distances, sums and best
paths on fixed seeds.

A speed-up must not change a single bit of an answer.  Each case renders
its result as text (floats by ``repr``), and the digest of that text was
recorded before the float kernels went in; a change that alters an output
on purpose must say so and record the new digest.
"""

import hashlib
import math
import random

import pytest

from wfst import (
    Fst,
    MaxWeight,
    MinWeight,
    RealWeight,
    TropicalWeight,
    compose,
    determinize,
    fst_from_sequence,
    lift,
    push,
    random_path,
    remove_epsilon,
    shortest_distance,
    shortest_path,
    sum_paths,
    union,
)
from wfst.autodiff import train
from wfst.io import render_text
from conftest import single_scc_real_fst
from test_algorithms import random_epsilon_fst

LETTERS = "abcdefgh"


def decode_lattice(seed, length):
    """A seeded string composed with a one-state rewrite transducer whose
    rows of eight weights each sum to 1, as in the ``decode`` benchmark."""
    rng = random.Random(seed)
    model = Fst(RealWeight)
    model.add_state()
    model.set_initial_state(0)
    model.set_final_weight(0, 1.0)
    for x in LETTERS:
        raw = [rng.uniform(0.2, 1.0) for _ in LETTERS]
        for y, w in zip(LETTERS, raw):
            model.add_arc(0, 0, w / sum(raw), x, y)
    text = "".join(rng.choice(LETTERS) for _ in range(length))
    return compose(fst_from_sequence(text, RealWeight), model)


def cyclic_min_fst(seed, n):
    """Min machine with uniform [0, 5) costs: a ring plus two random arcs
    per state, so every state sits on a cycle; two final states."""
    rng = random.Random(seed)
    f = Fst(MinWeight)
    for _ in range(n):
        f.add_state()
    f.set_initial_state(0)
    for s in range(n):
        for t in [(s + 1) % n, rng.randrange(n), rng.randrange(n)]:
            f.add_arc(s, t, rng.uniform(0.0, 5.0), rng.choice("ab"), "a")
    f.set_final_weight(n - 1, 0.0)
    f.set_final_weight(n // 2, rng.uniform(0.0, 5.0))
    return f


def pairwise_lexicon(seed, n):
    """``n`` seeded real-weighted words folded by pairwise ``union``, as
    in the ``lexicon`` benchmark: each fold nests the previous start."""
    rng = random.Random(seed)
    lexicon = None
    for _ in range(n):
        word = "".join(rng.choice("abcdef") for _ in range(rng.randint(2, 6)))
        chain = fst_from_sequence(word, RealWeight)
        chain.set_final_weight(chain.num_states - 1, rng.uniform(0.1, 1.0))
        lexicon = chain if lexicon is None else union(lexicon, chain)
    return lexicon


def cyclic_train_model(seed, n):
    """Real transducer over {a, b} whose every state has one arc, to a
    random state, for each of the four label pairs, weighing 0.8 in
    total, and final weight 0.2: every equal-length pair has a path."""
    rng = random.Random(seed)
    f = Fst(RealWeight)
    for _ in range(n):
        f.add_state()
    f.set_initial_state(0)
    for s in range(n):
        raw = [rng.uniform(0.2, 1.0) for _ in range(4)]
        for r, (i, o) in zip(raw, ["aa", "ab", "ba", "bb"]):
            f.add_arc(s, rng.randrange(n), 0.8 * r / sum(raw), i, o)
        f.set_final_weight(s, 0.2)
    return f


def trained(seed):
    """A 3-step ``train`` of ``cyclic_train_model(seed, 8)``: the trained
    machine and its per-step losses."""
    return train(cyclic_train_model(seed, 8),
                 [("ab", "ba"), ("aab", "bba"), ("b", "a")],
                 steps=3, rate=1e-2)


def train_text(seed):
    model, losses = trained(seed)
    return f"{losses!r}\n{render_text(model)}"


def values(weights):
    return " ".join(repr(w.value) for w in weights)


def arcs_text(arcs, weight):
    arcs = " ".join(f"{a.source}>{a.target}:{a.input}:{a.output}"
                    for a in arcs)
    return f"{arcs} = {weight.value!r}"


def path_text(result):
    return arcs_text(result.path.arcs, result.distance)


def samples_text(fst):
    """Ten ``random_path`` samples on seeds 0-9, one line each."""
    return "\n".join(arcs_text(*random_path(fst, seed=seed))
                     for seed in range(10))


def epsilon_machines(semiring):
    rng = random.Random(5)
    return "".join(
        render_text(remove_epsilon(random_epsilon_fst(
            rng, semiring, reachable_cycles=k % 2 == 1)))
        for k in range(20))


CASES = {
    "lattice render": lambda: render_text(decode_lattice(1, 60)),
    "lattice lifted to min": lambda: render_text(
        lift(decode_lattice(1, 60), MinWeight)),
    "shortest_distance real lattice": lambda: values(
        shortest_distance(decode_lattice(2, 60))),
    "shortest_distance min lattice": lambda: values(
        shortest_distance(lift(decode_lattice(2, 60), MinWeight))),
    "shortest_distance cyclic min": lambda: values(
        shortest_distance(cyclic_min_fst(3, 80))),
    "shortest_distance cyclic real": lambda: values(
        shortest_distance(single_scc_real_fst(random.Random(4), 40))),
    "sum_paths acyclic": lambda: repr(sum_paths(decode_lattice(3, 200)).value),
    "sum_paths cyclic real": lambda: repr(
        sum_paths(single_scc_real_fst(random.Random(6), 60)).value),
    "shortest_path min lattice": lambda: path_text(
        shortest_path(lift(decode_lattice(1, 60), MinWeight))),
    "shortest_path cyclic min": lambda: path_text(
        shortest_path(cyclic_min_fst(7, 80))),
    "remove_epsilon real": lambda: epsilon_machines(RealWeight),
    "remove_epsilon tropical": lambda: epsilon_machines(TropicalWeight),
    "determinize pairwise lexicon": lambda: render_text(
        determinize(remove_epsilon(pairwise_lexicon(8, 80)))),
    # Pushed first, so the residuals are fractional costs that the coarse
    # delta rounds into the subset keys.
    "determinize tropical lexicon, delta 0.1": lambda: render_text(
        determinize(push(remove_epsilon(lift(pairwise_lexicon(8, 80),
                                             TropicalWeight)), "initial"),
                    delta=0.1)),
    "push initial cyclic real": lambda: render_text(
        push(single_scc_real_fst(random.Random(4), 40), "initial")),
    "push final cyclic real": lambda: render_text(
        push(single_scc_real_fst(random.Random(4), 40), "final")),
    "push initial cyclic min": lambda: render_text(
        push(cyclic_min_fst(3, 30), "initial")),
    "push final cyclic min": lambda: render_text(
        push(cyclic_min_fst(3, 30), "final")),
    "push final real lattice": lambda: render_text(
        push(decode_lattice(1, 60), "final")),
    "train cyclic real": lambda: train_text(9),
    "random_path real lattice": lambda: samples_text(decode_lattice(1, 60)),
    "random_path min lattice": lambda: samples_text(
        lift(decode_lattice(1, 60), MinWeight)),
    # Negated costs, so the likelier arcs score higher.
    "random_path cyclic max": lambda: samples_text(
        lift(cyclic_min_fst(3, 30), MaxWeight, cast=lambda w: -w.value)),
    # Every state is final, so stopping competes with the arcs.
    "random_path competing finals": lambda: samples_text(
        single_scc_real_fst(random.Random(4), 40)),
}

DIGESTS = {
    "lattice lifted to min":
        "07ba8b53cffc8e1e224956a3b82c35430410f2cdc54ea5275860deac72a622d3",
    "lattice render":
        "b0194c8944b9aa4f0113408cb09dab65cae083bc7c892663990d812d26f5e737",
    "determinize pairwise lexicon":
        "8e717b129e02b71026d96ac1df8df4b7c09f3f7e209863d56084ca287a708c2f",
    # Recorded before determinize and push came to divide and quantize on
    # kernel values.
    "determinize tropical lexicon, delta 0.1":
        "5395094242d8f925c1c30afe9254d94a23306785d9baa753c6215324f642f457",
    # Re-pinned when remove_epsilon came to keep only accessible states:
    # each new render is the old one restricted to its accessible states,
    # renumbered by rank.
    "remove_epsilon real":
        "4d2e85e4fe5fe7abf9897ede386db79eebee9af4f048b2e069886704b763d98c",
    "remove_epsilon tropical":
        "774f56ece6f12a12b715e9839b330bec21489cefcc67d6525ca2ecccb32f2338",
    "shortest_distance cyclic min":
        "97161d8e507672239810efce32f92cb8c32393a66c5a343cfbb6f209fc0ba1ab",
    "shortest_distance cyclic real":
        "7c26c003d2b546186c81cee3bdca9a1fbf9f595a4b1ba3d66e26017f702d984d",
    "shortest_distance min lattice":
        "053f23563d8e7d2703253cacb46740854cc4f928512c80c7be627ab500c46447",
    "shortest_distance real lattice":
        "9e770998d88220b1a7f5e164ce15fc79d8bf550e49f6d8cda491e1d09b9bde7f",
    "shortest_path cyclic min":
        "32290884bd7a1f83060aed1b94069ef9922f3214b7266400414b7940f5cc79f9",
    "shortest_path min lattice":
        "c0e1e8a35e810a969af854c7e46756d487f620e699558d3e2ea7fcdadc92fab0",
    "sum_paths acyclic":
        "9a56979bf69aa69d90d24da293ed138549c2901c6928be57b2cbe454c64d627d",
    "sum_paths cyclic real":
        "5feb4977d280385ac3bc8260fcfb39e0bd35f0baad404c02d2dfaac69632b69a",
    # Recorded before push and the diff semiring's total_weight came to
    # take their distances as kernel values.
    "push initial cyclic real":
        "38f742d5fea2fa69d02e99b811de3389e1d0e1b9aecffd6653cf87bc1fc69885",
    "push final cyclic real":
        "de797ad262723d0bbab3636c61f02e560c4dae7fea5789a9c016a411a901211f",
    "push initial cyclic min":
        "c3b5dd4fdfae0bd7740d0003f665e8a9a3dfb6e799297c8b580f936e84c8714d",
    "push final cyclic min":
        "1fead13673fb2c47cef9d66e2f1cbaab83acebec01cc47029fce9167d510a118",
    "push final real lattice":
        "f95503f59c2abf4781802c4b74fb1c527f32d5b4116082a2d69260199ed6f271",
    # Re-pinned when train came to sum the expected-count gradient on
    # floats instead of backpropagating the tape: the losses are unchanged,
    # and two trained weights moved in their last bit (0.19796850357267276
    # to ...727 and 0.2312439128501546 to ...5458), within 1e-15 relative
    # of the tape's gradient descent (tests/test_autodiff.py).
    "train cyclic real":
        "a226001dae76fdf17bcf41858ee15a8f37a7b8d397d7e31e656c5377a1b2eee2",
    # Recorded before random_path came to run on kernel values.
    "random_path real lattice":
        "0157f05934e7f9e135685d0db6222b8bbec8f7cfb744ffacf8ddf2fe39d13d32",
    "random_path min lattice":
        "747937ee881e0bdc74d8995f27841037dcf534e68c63b99ad818625460876dec",
    "random_path cyclic max":
        "20b7a0ef517c4cd3cc5ffe2c80bacceb012aab5288ad9b546b76390436008687",
    "random_path competing finals":
        "37e5a1c74d07468f15dac12d517fe44f72b36a55ff7d44791a11e5d889482c61",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_digest_is_pinned(case):
    text = CASES[case]()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DIGESTS[case]


def test_cases_are_not_degenerate():
    # A digest of an empty or infinite answer would pin nothing useful.
    assert math.isfinite(sum_paths(decode_lattice(3, 200)).value)
    assert sum_paths(single_scc_real_fst(random.Random(6), 60)).value \
        == pytest.approx(1.0, rel=1e-12)
    assert shortest_path(cyclic_min_fst(7, 80)).path.arcs
    _, losses = trained(9)
    assert all(math.isfinite(x) for x in losses) and losses[-1] < losses[0]
