import re

import pytest

from wfst import (
    BooleanWeight,
    FeaturizedWeight,
    Fst,
    MaxWeight,
    MinWeight,
    RealWeight,
    TropicalWeight,
    equivalent_by_enumeration,
    fst_from_sequence,
    make_diff_semiring,
    parse_text,
    render_dot,
    render_html,
    render_text,
)
from wfst.errors import FstParseError
from conftest import random_acyclic_fst

ALL_SEMIRINGS = [BooleanWeight, RealWeight, MinWeight, MaxWeight,
                 TropicalWeight, FeaturizedWeight]


def identical(a, b):
    if (a.semiring, a.num_states, a.initial) != \
            (b.semiring, b.num_states, b.initial):
        return False
    if a.finals != b.finals:
        return False
    return list(a.all_arcs()) == list(b.all_arcs())


class TestTextRoundTrip:
    def test_headers_present(self, troll_fst):
        text = render_text(troll_fst)
        lines = text.splitlines()
        assert lines[0] == "#semiring real"
        assert lines[1] == "#initial 0"
        assert lines[2] == "#states 11"

    def test_troll_machine_round_trip(self, troll_fst):
        parsed = parse_text(render_text(troll_fst))
        assert identical(parsed, troll_fst)
        assert equivalent_by_enumeration(parsed, troll_fst)

    @pytest.mark.parametrize("semiring", [BooleanWeight, RealWeight,
                                          MinWeight, MaxWeight,
                                          TropicalWeight])
    def test_random_round_trips(self, semiring, rng):
        weights = {
            BooleanWeight: lambda r: True,
            RealWeight: lambda r: r.uniform(0.1, 2.0),
            MinWeight: lambda r: r.uniform(-3.0, 3.0),
            MaxWeight: lambda r: r.uniform(-3.0, 3.0),
            TropicalWeight: lambda r: r.uniform(-3.0, 3.0),
        }
        for _ in range(100):
            f = random_acyclic_fst(rng, semiring, weight=weights[semiring])
            assert identical(parse_text(render_text(f)), f)

    def test_featurized_round_trip(self):
        f = Fst(FeaturizedWeight)
        for _ in range(3):
            f.add_state()
        f.set_initial_state(0)
        f.add_arc(0, 1, FeaturizedWeight({"f1": 2, "f2": 1}), "a", "b")
        f.add_arc(1, 2, FeaturizedWeight.one, "b", "b")
        f.set_final_weight(2, FeaturizedWeight({"f3": 1}))
        assert identical(parse_text(render_text(f)), f)

    def test_no_initial_round_trip(self):
        f = Fst(RealWeight)
        f.add_state()
        f.set_final_weight(0, 1.0)
        text = render_text(f)
        assert "#initial -" in text
        parsed = parse_text(text)
        assert parsed.initial is None
        assert identical(parsed, f)

    def test_isolated_state_preserved_by_states_header(self):
        f = fst_from_sequence("a", RealWeight)
        f.add_state()  # unreachable, arcless state 2
        parsed = parse_text(render_text(f))
        assert parsed.num_states == 3

    def test_states_header_optional(self):
        parsed = parse_text("#semiring real\n#initial 0\n0 1 97 97 2\n1 1\n")
        assert parsed.num_states == 2
        assert parsed.arcs(0)[0].weight == RealWeight(2.0)

    def test_rendering_is_deterministic(self, rng):
        f = random_acyclic_fst(rng)
        assert render_text(f) == render_text(f)
        assert render_dot(f) == render_dot(f)
        assert render_html(f) == render_html(f)

    def test_integral_weights_render_without_decimal_point(self, troll_fst):
        text = render_text(troll_fst)
        assert "0 1 104 119 1\n" in text
        assert "1.0" not in text

    def test_diff_semiring_round_trip(self):
        sr = make_diff_semiring()
        f = Fst(sr)
        f.add_state()
        f.add_state()
        f.set_initial_state(0)
        f.add_arc(0, 1, sr(sr.tape.parameter(0.5)), "a", "a")
        f.set_final_weight(1, sr.one)
        text = render_text(f)
        assert text.startswith("#semiring diff\n")
        sr2 = make_diff_semiring()
        parsed = parse_text(text, semirings={"diff": sr2})
        assert parsed.arcs(0)[0].weight.value == 0.5


class TestParseErrors:
    def test_unknown_semiring_lists_supported(self):
        with pytest.raises(FstParseError) as exc:
            parse_text("#semiring bogus\n")
        assert exc.value.line == 1
        assert "boolean" in str(exc.value)
        assert "tropical" in str(exc.value)

    def test_missing_semiring_header(self):
        with pytest.raises(FstParseError) as exc:
            parse_text("#initial 0\n")
        assert "semiring" in str(exc.value)

    def test_record_before_header_has_line_number(self):
        with pytest.raises(FstParseError) as exc:
            parse_text("0 1 97 97 1\n#semiring real\n")
        assert exc.value.line == 1

    def test_bad_field_count(self):
        with pytest.raises(FstParseError) as exc:
            parse_text("#semiring real\n0 1 97\n")
        assert exc.value.line == 2

    def test_bad_weight_reports_line(self):
        with pytest.raises(FstParseError) as exc:
            parse_text("#semiring real\n#initial 0\n0 1 97 97 spam\n")
        assert exc.value.line == 3

    @pytest.mark.parametrize("doc, line", [
        # After an arc record, which the first header's semiring read.
        ("#semiring real\n#initial 0\n0 1 97 97 0.5\n#semiring min\n1 0.25\n",
         4),
        # Before any record, even naming the same semiring.
        ("#semiring real\n#semiring real\n", 2),
    ])
    def test_repeated_semiring_header_reports_line(self, doc, line):
        with pytest.raises(FstParseError) as exc:
            parse_text(doc)
        assert exc.value.line == line
        assert str(exc.value) == f"line {line}: repeated #semiring header"

    def test_unknown_header_rejected(self):
        with pytest.raises(FstParseError):
            parse_text("#semiring real\n#wibble 3\n")

    def test_out_of_range_state(self):
        with pytest.raises(FstParseError):
            parse_text("#semiring real\n#initial 0\n#states 2\n0 5 97 97 1\n")

    @pytest.mark.parametrize("arc, state", [("0 5", 5), ("7 1", 7), ("-1 1", -1)])
    def test_unknown_arc_state_is_named(self, arc, state):
        with pytest.raises(FstParseError) as exc:
            parse_text(f"#semiring real\n#states 2\n\n{arc} 97 97 1\n")
        assert exc.value.line == 4
        assert str(exc.value).endswith(f"arc references unknown state {state}")

    def test_out_of_range_initial_reports_line(self):
        with pytest.raises(FstParseError) as exc:
            parse_text("#semiring real\n#initial 5\n#states 2\n")
        assert exc.value.line == 2

    def test_out_of_range_final(self):
        with pytest.raises(FstParseError):
            parse_text("#semiring real\n#initial 0\n#states 1\n7 1\n")

    def test_blank_lines_ignored(self):
        parsed = parse_text("#semiring real\n\n#initial 0\n\n0 1\n")
        assert parsed.is_final(0)

    def test_negative_state_count(self):
        with pytest.raises(FstParseError) as exc:
            parse_text("#semiring real\n#states -2\n")
        assert exc.value.line == 2

    @pytest.mark.parametrize("label", ["-3", str(2 ** 64)])
    @pytest.mark.parametrize("column", [2, 3])
    def test_out_of_range_label_reports_line(self, label, column):
        fields = ["0", "1", "97", "97", "1"]
        fields[column] = label
        doc = "#semiring real\n#initial 0\n" + " ".join(fields) + "\n"
        with pytest.raises(FstParseError) as exc:
            parse_text(doc)
        assert exc.value.line == 3

    def test_largest_label_accepted(self):
        parsed = parse_text(f"#semiring real\n0 1 {2 ** 64 - 1} 0 1\n")
        assert parsed.arcs(0)[0].input == 2 ** 64 - 1

    @pytest.mark.parametrize("semiring", ["real", "min", "max", "tropical",
                                          "diff"])
    @pytest.mark.parametrize("doc, line", [
        ("#initial 0\n0 1 97 97 nan\n1 1\n", 3),
        ("#initial 0\n0 1 97 97 1\n1 nan\n", 4),
    ], ids=["arc", "final"])
    def test_nan_weight_reports_line(self, semiring, doc, line):
        with pytest.raises(FstParseError) as exc:
            parse_text(f"#semiring {semiring}\n" + doc,
                       semirings={"diff": make_diff_semiring()})
        assert exc.value.line == line
        assert "member" in str(exc.value)

    def test_zero_final_record_clears_earlier_one(self):
        parsed = parse_text("#semiring real\n0 2\n0 0\n")
        assert not parsed.is_final(0)
        assert parsed.num_states == 1


class TestDot:
    @staticmethod
    def check_dot_grammar(dot):
        """Tiny structural check: one digraph block, then node and edge
        statements only."""
        lines = dot.strip().splitlines()
        assert lines[0] == "digraph fst {"
        assert lines[-1] == "}"
        for line in lines[1:-1]:
            assert re.fullmatch(
                r"\s*(rankdir=\w+;"
                r"|(node|edge) \[[^\]]*\];"
                r"|\d+ \[[^\]]*\];"
                r"|\d+ -> \d+ \[label=\"[^\"]*\"\];)",
                line,
            ), line

    def test_grammar(self, troll_fst, rewrite_fst, rng):
        for f in (troll_fst, rewrite_fst, random_acyclic_fst(rng)):
            self.check_dot_grammar(render_dot(f))

    def test_initial_green_final_red(self, troll_fst):
        dot = render_dot(troll_fst)
        assert '  0 [label="0", style=filled, fillcolor=green];' in dot
        assert '  5 [label="5", style=filled, fillcolor=red];' in dot

    def test_initial_and_final_combined_style(self):
        f = fst_from_sequence("")
        dot = render_dot(f)
        assert "fillcolor=red" in dot and "color=green" in dot

    def test_edge_labels(self, troll_fst):
        dot = render_dot(troll_fst)
        # h:w carries weight 1 (the semiring one), so no /weight suffix.
        assert '0 -> 1 [label="h:w"];' in dot
        # l:l has matching labels, so no colon; weight 2 is shown.
        assert '3 -> 4 [label="l/2"];' in dot

    def test_epsilon_rendered(self, rewrite_fst):
        dot = render_dot(rewrite_fst)
        assert 'label="a:ε"' in dot

    def test_unprintable_label_bracketed(self):
        f = Fst(RealWeight)
        f.add_state()
        f.add_state()
        f.set_initial_state(0)
        f.add_arc(0, 1, 1.0, 7, 7)
        f.set_final_weight(1, 1.0)
        assert 'label="[7]"' in render_dot(f)

    def test_every_state_and_arc_present(self, rng):
        for _ in range(20):
            f = random_acyclic_fst(rng)
            dot = render_dot(f)
            for s in f.states():
                assert f"  {s} [" in dot
            assert len(re.findall(r"-> \d+ \[", dot)) == f.num_arcs


class TestHtml:
    def test_structure(self, troll_fst):
        page = render_html(troll_fst)
        assert page.startswith("<!DOCTYPE html>")
        assert page.count("<svg") == 1
        assert page.count("<circle") == troll_fst.num_states

    def test_self_contained(self, troll_fst):
        page = render_html(troll_fst)
        assert "http" not in page.replace("http://www.w3.org/2000/svg", "")
        assert "src=" not in page

    def test_state_colors(self, troll_fst):
        page = render_html(troll_fst)
        assert page.count('fill="#7ddc7d"') == 1  # one initial state
        assert page.count('fill="#e06666"') == 2  # two final states

    def test_labels_escaped(self):
        f = Fst(RealWeight)
        f.add_state()
        f.add_state()
        f.set_initial_state(0)
        f.add_arc(0, 1, 1.0, "<", ">")
        f.set_final_weight(1, 1.0)
        page = render_html(f)
        assert "&lt;:&gt;" in page

    def test_empty_machine(self):
        page = render_html(Fst(RealWeight))
        assert "<svg" in page

    def test_self_loop_drawn_as_curve(self, rewrite_fst):
        page = render_html(rewrite_fst)
        assert "<path" in page
