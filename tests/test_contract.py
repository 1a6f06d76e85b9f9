"""The typed-failure contract, checked in one table: each public callable,
given NaN, an infinity, a negative number, a number beyond the float
range, a wrong type or a bool for a numeric or weight parameter, either
returns or raises a WfstError, never a bare built-in exception.  The CLI,
given the same values as option arguments or as weights in a file, exits
0, 1 (usage) or 2 (domain error) and raises nothing."""

import inspect
import math

import pytest

import wfst
from wfst import (BooleanWeight, FeaturizedWeight, Fst, GradientTape,
                  MaxWeight, MinWeight, RealWeight, TropicalWeight,
                  check_semiring_axioms, determinize, enumerate_paths,
                  equivalent_by_enumeration, featurized_semiring,
                  fst_from_sequence, lift, make_diff_semiring, parse_text,
                  random_path, train)
from wfst.cli import main
from wfst.errors import WfstError

VALUES = {
    "nan": math.nan, "inf": math.inf, "-inf": -math.inf, "-1": -1,
    "-0.5": -0.5, "2.5": 2.5, "10**400": 10 ** 400,
    "10**5000": 10 ** 5000, "str": "x", "None": None, "list": [1], "RealWeight": RealWeight(2.0), "True": True,
    "False": False,
}


def real_machine():
    return parse_text("#semiring real\n#initial 0\n"
                      "0 1 97 97 0.5\n0 1 98 98 0.25\n1 1\n")


def model():
    return parse_text("#semiring real\n#initial 0\n"
                      "0 0 97 97 0.3\n0 0 98 98 0.3\n0 0.4\n")


def one_state(semiring):
    f = Fst(semiring)
    f.add_state()
    return f


# "callable.parameter" -> (call with the value, the values left out).  A
# count as large as 10**400 is a valid request that would run that long;
# 10**5000 has more digits than repr() prints by default, so its error
# message must not call repr() on it.
CASES = {
    "check_semiring_axioms.sample_count": (
        lambda v: check_semiring_axioms(RealWeight, sample_count=v),
        ("10**400", "10**5000")),
    "check_semiring_axioms.delta": (
        lambda v: check_semiring_axioms(RealWeight, 5, delta=v), ()),
    "check_semiring_axioms.seed": (
        lambda v: check_semiring_axioms(RealWeight, 5, seed=v), ()),
    "check_semiring_axioms.max_violations": (
        lambda v: check_semiring_axioms(RealWeight, 5, max_violations=v),
        ()),
    "determinize.delta": (
        lambda v: determinize(real_machine(), delta=v), ()),
    "enumerate_paths.max_paths": (
        lambda v: enumerate_paths(real_machine(), max_paths=v), ()),
    "enumerate_paths.max_length": (
        lambda v: enumerate_paths(real_machine(), max_length=v), ()),
    "enumerate_paths.max_steps": (
        lambda v: enumerate_paths(real_machine(), max_steps=v), ()),
    "equivalent_by_enumeration.max_paths": (
        lambda v: equivalent_by_enumeration(real_machine(), real_machine(),
                                            max_paths=v), ()),
    "equivalent_by_enumeration.delta": (
        lambda v: equivalent_by_enumeration(real_machine(), real_machine(),
                                            delta=v), ()),
    "random_path.seed": (lambda v: random_path(real_machine(), seed=v), ()),
    "random_path.max_steps": (
        lambda v: random_path(real_machine(), max_steps=v), ()),
    "train.steps": (lambda v: train(model(), [("a", "a")], steps=v),
                    ("10**400", "10**5000")),
    "train.rate": (lambda v: train(model(), [("a", "a")], 1, rate=v), ()),
    "train.min_weight": (
        lambda v: train(model(), [("a", "a")], 1, min_weight=v), ()),
    "featurized_semiring.weight_table": (
        lambda v: random_path(fst_from_sequence(
            "a", featurized_semiring({"a": v})), seed=0), ()),
    "fst_from_sequence.labels": (lambda v: fst_from_sequence([v]), ()),
    "lift.cast": (lambda v: lift(real_machine(), MinWeight,
                                 cast=lambda w: v), ()),
    "FeaturizedWeight.features": (lambda v: FeaturizedWeight({"a": v}), ()),
    "GradientTape.constant": (lambda v: GradientTape().constant(v), ()),
    "GradientTape.parameter": (lambda v: GradientTape().parameter(v), ()),
    "Fst.add_arc.input_label": (
        lambda v: one_state(RealWeight).add_arc(0, 0, None, v), ()),
    "Fst.add_arc.to_state": (
        lambda v: one_state(RealWeight).add_arc(0, v), ()),
    "Fst.set_initial_state.state": (
        lambda v: one_state(RealWeight).set_initial_state(v), ()),
    "Fst.final_weight.state": (
        lambda v: one_state(RealWeight).final_weight(v), ()),
}

SEMIRINGS = {"boolean": BooleanWeight, "real": RealWeight, "min": MinWeight,
             "max": MaxWeight, "tropical": TropicalWeight,
             "featurized": FeaturizedWeight, "diff": make_diff_semiring()}
for _name, _sr in SEMIRINGS.items():
    CASES.update({
        f"{_name}()": (_sr, ()),
        f"{_name}.cast": (_sr.cast, ()),
        f"{_name}.quantize.delta": (_sr.one.quantize, ()),
        f"{_name}.approx_eq.delta": (
            lambda v, sr=_sr: sr.one.approx_eq(sr.zero, v), ()),
        f"{_name}.approx_eq.other": (_sr.one.approx_eq, ()),
        f"{_name} ** n": (lambda v, sr=_sr: sr.one ** v, ()),
        f"{_name} + w": (lambda v, sr=_sr: sr.one + v, ()),
        f"{_name} * w": (lambda v, sr=_sr: sr.one * v, ()),
        f"{_name} / w": (lambda v, sr=_sr: sr.one / v, ()),
        f"{_name}.add_arc.weight": (
            lambda v, sr=_sr: one_state(sr).add_arc(0, 0, v), ()),
        f"{_name}.set_final_weight.weight": (
            lambda v, sr=_sr: one_state(sr).set_final_weight(0, v), ()),
    })
    if _sr.star is not None:
        CASES[f"{_name}.star"] = (_sr.star, ())

# The parameters that take a number or a weight, by name.
NUMERIC = {"delta", "seed", "max_paths", "max_length", "max_steps",
           "sample_count", "max_violations", "steps", "rate", "min_weight",
           "weight_table", "labels", "cast"}


def test_the_table_covers_every_numeric_parameter():
    missing = [f"{name}.{parameter}" for name in wfst.__all__
               if inspect.isfunction(getattr(wfst, name))
               for parameter in inspect.signature(getattr(wfst, name)).parameters
               if parameter in NUMERIC and f"{name}.{parameter}" not in CASES]
    assert not missing


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_bad_value_returns_or_raises_a_wfst_error(case):
    call, left_out = CASES[case]
    bare = []
    for name, value in VALUES.items():
        if name in left_out:
            continue
        try:
            call(value)
        except WfstError:
            pass
        except Exception as exc:  # the contract's breach, to report
            bare.append(f"{name}: {type(exc).__name__}: {exc}")
    assert not bare


TEXTS = ["nan", "inf", "-inf", "-1", "-0.5", "2.5", "1e999", "x", "True"]


def exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def is_positive_float(text):
    return 0 < float(text) < math.inf if text not in ("x", "True") else False


def is_int(text):
    return text.lstrip("-").isdecimal()


# (command, option, whether a text is a valid argument)
OPTIONS = [
    ("determinize", "--delta", is_positive_float),
    ("train", "--rate", is_positive_float),
    ("train", "--steps", lambda t: is_int(t) and int(t) >= 0),
    ("enumerate", "--max", lambda t: is_int(t) and int(t) >= 0),
    ("randpath", "--seed", is_int),
]


@pytest.mark.parametrize("command, option, valid", OPTIONS,
                         ids=[f"{c} {o}" for c, o, _ in OPTIONS])
def test_a_bad_option_argument_is_a_usage_error(command, option, valid,
                                                tmp_path, capsys):
    machine = tmp_path / "model.fst"
    machine.write_text("#semiring real\n#initial 0\n0 1 97 97 0.5\n1 0.5\n")
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("a\ta\n")
    extra = ["--pairs", str(pairs), "--steps", "1"] if command == "train" \
        else []
    for text in TEXTS:
        code = exit_code([command, str(machine), *extra, f"{option}={text}"])
        assert code in ((0, 2) if valid(text) else (1,)), text
    capsys.readouterr()


@pytest.mark.parametrize("semiring", sorted(SEMIRINGS))
@pytest.mark.parametrize("command", ["print", "sumpaths"])
def test_a_bad_weight_in_a_file_is_a_domain_error(semiring, command,
                                                  tmp_path, capsys):
    path = tmp_path / "machine.fst"
    for text in TEXTS:
        path.write_text(f"#semiring {semiring}\n#initial 0\n"
                        f"0 1 97 97 {text}\n1 {text}\n")
        code = exit_code([command, str(path)])
        assert code in ((2,) if text in ("nan", "x") else (0, 2)), text
    capsys.readouterr()
