import re
import subprocess
import sys
from pathlib import Path

import pytest

from wfst import (
    MinWeight,
    RealWeight,
    closure,
    compose,
    concat,
    connect,
    determinize,
    enumerate_paths,
    equivalent_by_enumeration,
    fst_from_sequence,
    invert,
    lift,
    make_diff_semiring,
    parse_text,
    project,
    push,
    random_path,
    remove_epsilon,
    render_html,
    render_text,
    reverse,
    shortest_distance,
    shortest_path,
    sum_paths,
    train,
    union,
)
from wfst.cli import COMMANDS, build_parser, main
from conftest import build_double_a_machine, build_hello_world_troll


def run_cli(args, stdin=""):
    return subprocess.run([sys.executable, "-m", "wfst.cli", *args],
                          input=stdin, capture_output=True, text=True)


@pytest.fixture
def troll_file(tmp_path):
    path = tmp_path / "troll.fst"
    path.write_text(render_text(build_hello_world_troll()))
    return str(path)


@pytest.fixture
def rewrite_file(tmp_path):
    path = tmp_path / "rewrite.fst"
    path.write_text(render_text(build_double_a_machine()))
    return str(path)


class TestCompilePrint:
    def test_compile_matches_library(self):
        result = run_cli(["compile", "--string", "hello"])
        assert result.returncode == 0
        assert result.stdout == render_text(fst_from_sequence("hello"))

    def test_compile_real_semiring(self):
        result = run_cli(["compile", "--string", "ab", "--semiring", "real"])
        assert result.returncode == 0
        assert result.stdout.startswith("#semiring real\n")

    def test_print_round_trip(self, troll_file):
        result = run_cli(["print", troll_file])
        assert result.returncode == 0
        assert result.stdout == render_text(build_hello_world_troll())

    def test_print_reads_stdin(self):
        text = render_text(fst_from_sequence("abc"))
        result = run_cli(["print", "-"], stdin=text)
        assert result.returncode == 0
        assert result.stdout == text

    def test_out_writes_file(self, tmp_path):
        out = tmp_path / "out.fst"
        result = run_cli(["compile", "--string", "hi", "--out", str(out)])
        assert result.returncode == 0
        assert result.stdout == ""
        assert out.read_text() == render_text(fst_from_sequence("hi"))


class TestOperations:
    def test_union_matches_library(self, tmp_path):
        a = tmp_path / "a.fst"
        b = tmp_path / "b.fst"
        a.write_text(render_text(fst_from_sequence("hello")))
        b.write_text(render_text(fst_from_sequence("help")))
        result = run_cli(["union", str(a), str(b)])
        assert result.returncode == 0
        expected = union(fst_from_sequence("hello"), fst_from_sequence("help"))
        assert equivalent_by_enumeration(parse_text(result.stdout), expected)

    def test_pipeline_union_rmepsilon_determinize(self, tmp_path):
        a = tmp_path / "a.fst"
        b = tmp_path / "b.fst"
        a.write_text(render_text(fst_from_sequence("hello")))
        b.write_text(render_text(fst_from_sequence("help")))
        r1 = run_cli(["union", str(a), str(b)])
        r2 = run_cli(["rmepsilon", "-"], stdin=r1.stdout)
        r3 = run_cli(["determinize", "-"], stdin=r2.stdout)
        assert (r1.returncode, r2.returncode, r3.returncode) == (0, 0, 0)
        final = parse_text(r3.stdout)
        assert final.num_states == 7
        expected = determinize(remove_epsilon(union(
            fst_from_sequence("hello"), fst_from_sequence("help"))))
        assert equivalent_by_enumeration(final, expected)

    def test_compose_with_autocast(self, tmp_path, rewrite_file):
        a = tmp_path / "aaa.fst"
        a.write_text(render_text(fst_from_sequence("aaa")))
        result = run_cli(["compose", str(a), rewrite_file])
        assert result.returncode == 0
        expected = compose(fst_from_sequence("aaa"), build_double_a_machine())
        assert equivalent_by_enumeration(parse_text(result.stdout), expected)

    def test_shortestpath_after_lift(self, tmp_path, rewrite_file):
        a = tmp_path / "aaa.fst"
        a.write_text(render_text(fst_from_sequence("aaa")))
        composed = run_cli(["compose", str(a), rewrite_file])
        lifted = run_cli(["lift", "-", "--to", "min"], stdin=composed.stdout)
        best = run_cli(["shortestpath", "-"], stdin=lifted.stdout)
        assert best.returncode == 0
        istr, ostr, weight = best.stdout.strip().split("\t")
        expected = shortest_path(lift(
            compose(fst_from_sequence("aaa"), build_double_a_machine()),
            MinWeight))
        assert istr == expected.path.input_str
        assert ostr == expected.path.output_str
        assert float(weight) == pytest.approx(3.5)

    def test_sumpaths(self, troll_file):
        result = run_cli(["sumpaths", troll_file])
        assert result.returncode == 0
        assert float(result.stdout.strip()) == pytest.approx(18.0)

    def test_enumerate(self, troll_file):
        result = run_cli(["enumerate", troll_file])
        assert result.returncode == 0
        lines = sorted(result.stdout.splitlines())
        assert lines == ["hello\ttroll\t12", "hello\tworld\t6"]

    def test_randpath_deterministic_seed(self, troll_file):
        a = run_cli(["randpath", troll_file, "--seed", "7"])
        b = run_cli(["randpath", troll_file, "--seed", "7"])
        assert a.returncode == 0
        assert a.stdout == b.stdout
        assert a.stdout.split("\t")[0] == "hello"

    def test_project_and_invert(self, troll_file):
        proj = run_cli(["project", troll_file, "--side", "output"])
        assert proj.returncode == 0
        strings = {line.split("\t")[0]
                   for line in run_cli(["enumerate", "-"],
                                       stdin=proj.stdout).stdout.splitlines()}
        assert strings == {"world", "troll"}
        inv = run_cli(["invert", troll_file])
        first = run_cli(["enumerate", "-"],
                        stdin=inv.stdout).stdout.splitlines()[0]
        assert first.split("\t")[0] in {"world", "troll"}

    def test_draw_dot_and_html(self, troll_file):
        dot = run_cli(["draw", troll_file])
        assert dot.returncode == 0
        assert dot.stdout.startswith("digraph fst {")
        page = run_cli(["draw", troll_file, "--format", "html"])
        assert page.returncode == 0
        assert page.stdout.startswith("<!DOCTYPE html>")

    def test_shortestdistance(self, troll_file):
        result = run_cli(["shortestdistance", troll_file])
        assert result.returncode == 0
        rows = dict(line.split() for line in result.stdout.splitlines())
        assert float(rows["5"]) == pytest.approx(2.0)
        assert float(rows["10"]) == pytest.approx(4.0)


class TestTrain:
    def test_train_prefers_observed_pair(self, tmp_path):
        model = tmp_path / "model.fst"
        model.write_text(render_text(build_hello_world_troll()))
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("hello\tworld\n")
        result = run_cli(["train", str(model), "--pairs", str(pairs),
                          "--steps", "150"])
        assert result.returncode == 0
        assert "step 0 loss 1.098612" in result.stderr
        trained = parse_text(result.stdout)
        assert trained.semiring is RealWeight
        out = run_cli(["enumerate", "-"], stdin=result.stdout)
        weights = {}
        for line in out.stdout.splitlines():
            _, ostr, w = line.split("\t")
            weights[ostr] = float(w)
        assert weights["world"] / sum(weights.values()) > 0.95

    def test_train_rejects_boolean_model(self, tmp_path):
        model = tmp_path / "model.fst"
        model.write_text(render_text(fst_from_sequence("ab")))
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("ab\tab\n")
        result = run_cli(["train", str(model), "--pairs", str(pairs)])
        assert result.returncode == 2

    def test_bad_pairs_file_is_domain_error(self, tmp_path):
        model = tmp_path / "model.fst"
        model.write_text(render_text(build_hello_world_troll()))
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("no-tab-here\n")
        result = run_cli(["train", str(model), "--pairs", str(pairs)])
        assert result.returncode == 2

    def test_empty_pairs_file_is_domain_error(self, tmp_path, troll_file):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("\n\n")
        result = run_cli(["train", troll_file, "--pairs", str(pairs)])
        assert result.returncode == 2
        assert result.stderr == \
            "wfst train: train needs at least one observed pair\n"

    @pytest.mark.parametrize("flag, value, expected", [
        ("--rate", "nan", "must be a positive finite number"),
        ("--rate", "0", "must be a positive finite number"),
        ("--rate", "-inf", "must be a positive finite number"),
        ("--steps", "-1", "must be a non-negative integer"),
        ("--steps", "1.5", "must be a non-negative integer"),
    ])
    def test_bad_train_argument_is_usage_error(self, flag, value, expected,
                                               capsys):
        # --rate nan once trained every weight to the floor and exited 0;
        # --steps -1 silently did nothing.
        with pytest.raises(SystemExit) as exc:
            main(["train", "-", "--pairs", "-", f"{flag}={value}"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: wfst train ")
        assert f"argument {flag}: {expected}, got {value!r}" in err

    @pytest.mark.parametrize("value", ["-1", "1.5"])
    def test_bad_enumerate_max_is_usage_error(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "-", f"--max={value}"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: wfst enumerate ")
        assert (f"argument --max: must be a non-negative integer, "
                f"got {value!r}") in err

    def test_enumerate_max_zero_truncates(self, troll_file):
        result = run_cli(["enumerate", troll_file, "--max", "0"])
        assert (result.returncode, result.stdout) == (0, "# truncated\n")

    def test_train_arguments_are_parsed(self):
        args = build_parser().parse_args(
            ["train", "-", "--pairs", "-", "--steps", "0", "--rate", "0.5"])
        assert (args.steps, args.rate) == (0, 0.5)


class TestExitCodes:
    def test_success_is_zero(self):
        assert run_cli(["compile", "--string", "x"]).returncode == 0

    def test_no_arguments_is_usage_error(self):
        assert run_cli([]).returncode == 1

    def test_unknown_command_is_usage_error(self):
        assert run_cli(["frobnicate"]).returncode == 1

    def test_bad_flag_is_usage_error(self):
        assert run_cli(["compile", "--string", "x",
                        "--semiring", "bogus"]).returncode == 1

    def test_missing_file_is_usage_error(self, tmp_path):
        result = run_cli(["print", str(tmp_path / "absent.fst")])
        assert result.returncode == 1
        assert "missing file" in result.stderr

    def test_directory_input_is_usage_error(self, tmp_path):
        result = run_cli(["print", str(tmp_path)])
        assert result.returncode == 1
        assert result.stderr == \
            f"wfst print: {tmp_path}: Is a directory\n"

    def test_directory_pairs_file_is_usage_error(self, tmp_path,
                                                 troll_file):
        result = run_cli(["train", troll_file, "--pairs", str(tmp_path)])
        assert result.returncode == 1
        assert result.stderr == \
            f"wfst train: {tmp_path}: Is a directory\n"

    def test_undecodable_input_is_domain_error(self, tmp_path, troll_file):
        binary = tmp_path / "binary"
        binary.write_bytes(b"#semiring real\n\xff\xfe\x00\x01\n")
        for args in (["print", str(binary)],
                     ["train", troll_file, "--pairs", str(binary)]):
            result = run_cli(args)
            assert result.returncode == 2
            assert result.stdout == ""
            assert result.stderr == (
                f"wfst {args[0]}: {binary}: not UTF-8 text "
                f"(invalid start byte at byte 15)\n")

    def test_parse_error_is_domain_error(self):
        result = run_cli(["print", "-"], stdin="#semiring bogus\n")
        assert result.returncode == 2
        assert "unknown semiring" in result.stderr

    def test_semiring_mismatch_is_domain_error(self, tmp_path):
        a = tmp_path / "a.fst"
        b = tmp_path / "b.fst"
        a.write_text(render_text(lift(fst_from_sequence("x"), RealWeight)))
        b.write_text(render_text(lift(fst_from_sequence("x"), MinWeight)))
        assert run_cli(["union", str(a), str(b)]).returncode == 2

    def test_shortestpath_non_path_semiring_is_domain_error(self, troll_file):
        assert run_cli(["shortestpath", troll_file]).returncode == 2

    def test_nan_total_is_domain_error(self):
        doc = ("#semiring real\n#initial 0\n#states 3\n"
               "0 1 120 120 inf\n1 2 121 121 0\n2 1\n")
        result = run_cli(["sumpaths", "-"], stdin=doc)
        assert result.returncode == 2
        assert result.stdout == ""
        assert "not a member" in result.stderr

    def test_nan_path_weight_is_domain_error(self):
        # The one path weighs inf * 0; enumerate once printed "ab\tab\tnan".
        doc = ("#semiring real\n#initial 0\n#states 3\n"
               "0 1 97 97 inf\n1 2 98 98 0\n2 1\n")
        enumerated = run_cli(["enumerate", "-"], stdin=doc)
        summed = run_cli(["sumpaths", "-"], stdin=doc)
        assert enumerated.returncode == summed.returncode == 2
        assert enumerated.stdout == ""
        assert enumerated.stderr.replace("enumerate", "sumpaths") == \
            summed.stderr

    def test_infinite_sampling_total_is_domain_error(self):
        # r * inf is inf, which no running sum exceeds: the draw once fell
        # through to the last arc, b, on every seed.
        doc = ("#semiring real\n#initial 0\n#states 3\n"
               "0 1 97 97 inf\n0 2 98 98 1\n1 1\n2 1\n")
        result = run_cli(["randpath", "-", "--seed", "0"], stdin=doc)
        assert result.returncode == 2
        assert result.stdout == ""
        assert "sampling at state 0" in result.stderr

    def test_nan_distance_is_domain_error(self):
        doc = ("#semiring real\n#initial 0\n#states 3\n"
               "0 1 120 120 inf\n1 2 121 121 0\n2 1\n")
        result = run_cli(["shortestdistance", "-"], stdin=doc)
        assert result.returncode == 2
        assert result.stdout == ""
        assert "not a member" in result.stderr

    def test_nan_residual_is_domain_error(self):
        # The residual inf / inf once reached the output as "1 nan".
        doc = ("#semiring real\n#initial 0\n#states 3\n"
               "0 1 97 97 inf\n0 2 97 97 0.5\n1 1\n2 1\n")
        result = run_cli(["determinize", "-"], stdin=doc)
        assert result.returncode == 2
        assert result.stdout == ""
        assert "RealWeight(nan) is not a member" in result.stderr

    @pytest.mark.parametrize("direction", ["initial", "final"])
    def test_nan_pushed_weight_is_domain_error(self, direction):
        # Both potentials are members, but inf / inf reweights the second
        # arc; this once reached the output as "1 2 98 98 nan".
        doc = ("#semiring real\n#initial 0\n#states 3\n"
               "0 1 97 97 1\n1 2 98 98 inf\n2 1\n")
        result = run_cli(["push", "-", "--to", direction], stdin=doc)
        assert result.returncode == 2
        assert result.stdout == ""
        assert "RealWeight(nan) is not a member" in result.stderr

    def test_determinize_with_epsilons_is_domain_error(self, tmp_path):
        a = tmp_path / "a.fst"
        b = tmp_path / "b.fst"
        a.write_text(render_text(fst_from_sequence("a")))
        b.write_text(render_text(fst_from_sequence("b")))
        u = run_cli(["union", str(a), str(b)])
        assert run_cli(["determinize", "-"], stdin=u.stdout).returncode == 2


def _line(path):
    return f"{path.input_str}\t{path.output_str}\t{path.weight.text()}\n"


TROLL = build_hello_world_troll()
HELLO, HELP = fst_from_sequence("hello"), fst_from_sequence("help")
LEXICON = union(HELLO, HELP)


def _with_useless_states(fst):
    """``fst`` plus a state it cannot reach and one that reaches no final
    state, both with arcs."""
    f = fst.copy()
    unreachable, dead = f.add_state(), f.add_state()
    f.add_arc(unreachable, f.initial, 1.0, "u", "u")
    f.add_arc(f.initial, dead, 1.0, "d", "d")
    return f


TRIMMABLE = _with_useless_states(TROLL)

# Subcommand -> (arguments before --out, the library call's rendering).
# "@name" stands for the file the machines fixture writes for that name.
CASES = {
    "compile": (["compile", "--string", "hello", "--semiring", "real"],
                lambda: render_text(fst_from_sequence("hello", RealWeight))),
    "print": (["print", "@troll"], lambda: render_text(TROLL)),
    "draw": (["draw", "@troll", "--format", "html"],
             lambda: render_html(TROLL)),
    "union": (["union", "@hello", "@help"], lambda: render_text(LEXICON)),
    "concat": (["concat", "@hello", "@help"],
               lambda: render_text(concat(HELLO, HELP))),
    "compose": (["compose", "@aaa", "@rewrite"], lambda: render_text(compose(
        fst_from_sequence("aaa"), build_double_a_machine()))),
    "closure": (["closure", "@hello"], lambda: render_text(closure(HELLO))),
    "connect": (["connect", "@trimmable"],
                lambda: render_text(connect(TRIMMABLE))),
    "invert": (["invert", "@troll"], lambda: render_text(invert(TROLL))),
    "rmepsilon": (["rmepsilon", "@lexicon"],
                  lambda: render_text(remove_epsilon(LEXICON))),
    "determinize": (["determinize", "@eps-free"], lambda: render_text(
        determinize(remove_epsilon(LEXICON)))),
    "reverse": (["reverse", "@troll"], lambda: render_text(reverse(TROLL))),
    "project": (["project", "@troll", "--side", "output"],
                lambda: render_text(project(TROLL, "output"))),
    "push": (["push", "@troll", "--to", "final"],
             lambda: render_text(push(TROLL, "final"))),
    "lift": (["lift", "@troll", "--to", "min"],
             lambda: render_text(lift(TROLL, MinWeight))),
    "shortestpath": (["shortestpath", "@min-troll"], lambda: _line(
        shortest_path(lift(TROLL, MinWeight)).path)),
    "shortestdistance": (["shortestdistance", "@troll"], lambda: "".join(
        f"{s} {w.text()}\n" for s, w in enumerate(shortest_distance(TROLL)))),
    "sumpaths": (["sumpaths", "@troll"],
                 lambda: sum_paths(TROLL).text() + "\n"),
    "randpath": (["randpath", "@troll", "--seed", "7"],
                 lambda: _line(random_path(TROLL, seed=7))),
    "enumerate": (["enumerate", "@troll"], lambda: "".join(
        _line(p) for p in enumerate_paths(TROLL))),
    # A diff-semiring model is trained as real and lifted back to diff.
    "train": (["train", "@diff-troll", "--pairs", "@pairs", "--steps", "3"],
              lambda: render_text(lift(
                  train(TROLL, [("hello", "world")], steps=3)[0],
                  make_diff_semiring()))),
}


def _readme_subcommands():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("## CLI", 1)[1].split("\n## ", 1)[0]
    others = section.split("Other subcommands:", 1)[1].split(".", 1)[0]
    return (set(re.findall(r"\bwfst (\w+)", section))
            | set(re.findall(r"`(\w+)`", others)))


class TestCommandTable:
    @pytest.fixture
    def machines(self, tmp_path):
        texts = {
            "troll": render_text(TROLL),
            "trimmable": render_text(TRIMMABLE),
            "hello": render_text(HELLO),
            "help": render_text(HELP),
            "aaa": render_text(fst_from_sequence("aaa")),
            "rewrite": render_text(build_double_a_machine()),
            "lexicon": render_text(LEXICON),
            "eps-free": render_text(remove_epsilon(LEXICON)),
            "min-troll": render_text(lift(TROLL, MinWeight)),
            "diff-troll": render_text(lift(TROLL, make_diff_semiring())),
            "pairs": "hello\tworld\n",
        }
        for name, text in texts.items():
            (tmp_path / name).write_text(text)
        return tmp_path

    def test_table_matches_readme_and_cases(self):
        assert set(COMMANDS) == _readme_subcommands() == set(CASES)

    @pytest.mark.parametrize("command", sorted(CASES))
    def test_output_matches_library(self, command, machines, capsys):
        argv, expected = CASES[command]
        argv = [str(machines / a[1:]) if a.startswith("@") else a
                for a in argv]
        out = machines / "out"
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_text() == expected()
        assert capsys.readouterr().out == ""

    def test_randpath_huge_min_score_is_sampled(self, tmp_path, capsys):
        # exp(800) overflowed a float before sampling scores were capped.
        model = tmp_path / "neg.fst"
        model.write_text("#semiring min\n#initial 0\n#states 2\n"
                         "0 1 97 97 -800\n1 0\n")
        assert main(["randpath", str(model), "--seed", "1"]) == 0
        assert capsys.readouterr().out == "a\ta\t-800\n"


DELTA_COMMANDS = {"determinize"}


def _readme_delta_commands():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("## CLI", 1)[1].split("\n## ", 1)[0]
    sentence = section.split("`--delta`", 1)[1].split(".", 1)[0]
    return set(re.findall(r"`(\w+)`", sentence))


class TestDelta:
    LOOP = "#semiring real\n#initial 0\n#states 1\n0 0 97 97 0.5\n0 1\n"

    def test_only_the_tolerance_commands_take_delta(self):
        takes = {name for name, command in COMMANDS.items()
                 if any(flag == "--delta" for flag, _ in command.options)}
        assert takes == DELTA_COMMANDS == _readme_delta_commands()

    @pytest.mark.parametrize("command", sorted(DELTA_COMMANDS))
    def test_delta_is_parsed_as_a_float(self, command):
        args = build_parser().parse_args([command, "-", "--delta", "0.5"])
        assert args.delta == 0.5

    @pytest.mark.parametrize("delta", ["0", "-1", "nan", "inf", "-inf",
                                       "abc"])
    def test_determinize_delta_must_be_positive_and_finite(self, delta,
                                                           capsys):
        with pytest.raises(SystemExit) as exc:
            main(["determinize", "-", f"--delta={delta}"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: wfst determinize ")
        assert f"argument --delta: must be a positive finite number, " \
            f"got {delta!r}" in err

    def test_determinize_delta_zero_is_a_usage_error_before_reading(self):
        # Before the check, 0 reached quantize as a ZeroDivisionError.
        result = run_cli(["determinize", "-", "--delta", "0"], stdin=self.LOOP)
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr.startswith("usage: wfst determinize ")
        assert "Traceback" not in result.stderr

    def test_determinize_tiny_delta_leaves_residuals_unquantized(self):
        # value / 1e-320 overflows, which once died with OverflowError.
        doc = ("#semiring real\n#initial 0\n#states 3\n"
               "0 1 97 97 0.5\n0 2 97 97 0.25\n1 1\n2 1\n")
        result = run_cli(["determinize", "-", "--delta", "1e-320"], stdin=doc)
        assert result.returncode == 0
        assert result.stdout == render_text(
            determinize(parse_text(doc), delta=1e-320))

    @pytest.mark.parametrize("command", ["push", "rmepsilon",
                                         "shortestdistance", "shortestpath",
                                         "sumpaths"])
    def test_exact_commands_reject_delta(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "-", "--delta", "0.1"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage: wfst {command} ")
        assert "unrecognized arguments: --delta 0.1" in err

    def test_sumpaths_on_a_cycle_is_exact_or_diverges(self, tmp_path,
                                                      capsys):
        # A real cycle is solved by elimination; a featurized cycle that
        # adds features has no total.
        model = tmp_path / "loop.fst"
        model.write_text(self.LOOP)
        assert main(["sumpaths", str(model)]) == 0
        assert capsys.readouterr().out == "2\n"
        features = tmp_path / "features.fst"
        features.write_text("#semiring featurized\n#initial 0\n#states 1\n"
                            "0 0 97 97 f:1\n0 -\n")
        assert main(["sumpaths", str(features)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "through state 0" in captured.err

    def test_print_rejects_delta(self):
        result = run_cli(["print", "-", "--delta", "0.1"], stdin=self.LOOP)
        assert result.returncode == 1
        assert result.stdout == ""
        assert "unrecognized arguments: --delta 0.1" in result.stderr

    def test_stray_flag_shows_the_subcommand_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["print", "-", "--delta", "0.1"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: wfst print ")
        assert "wfst print: error: unrecognized arguments: --delta 0.1" in err
        assert "shortestdistance" not in err


class TestOneSubparser:
    """``build_parser(argv)`` builds only the command that ``argv`` names;
    it must parse, help and fail byte for byte as the full parser does."""

    @staticmethod
    def outcome(parser, argv, capsys):
        try:
            result = vars(parser.parse_args(argv))
            code = None
        except SystemExit as exc:
            result, code = None, exc.code
        out, err = capsys.readouterr()
        return result, code, out, err

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    @pytest.mark.parametrize("tail", [["--help"], [], ["--bogus"]])
    def test_matches_the_full_parser(self, name, tail, capsys):
        argv = [name, *tail]
        full = self.outcome(build_parser(), argv, capsys)
        assert self.outcome(build_parser(argv), argv, capsys) == full
        if tail:
            code = 0 if tail == ["--help"] else 1
            assert full[1] == code and f"usage: wfst {name}" in full[2] + full[3]
        else:  # a missing argument
            assert full[1] == 1 and "required" in full[3]

    @pytest.mark.parametrize("argv", [[], ["-h"], ["frobnicate"],
                                      ["--out", "x", "print", "-"]])
    def test_builds_every_command_without_one_named(self, argv):
        usage = build_parser(argv).format_usage()
        assert usage == build_parser().format_usage()
        assert "{" + ",".join(COMMANDS) + "}" in usage

    def test_builds_only_the_named_command(self):
        usage = build_parser(["print", "-"]).format_usage()
        assert usage == "usage: wfst [-h] {print} ...\n"
