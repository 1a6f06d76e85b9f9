"""The package surface: names resolved on first access, the named-tuple
records, what a CLI command imports, and no unused import in the source.

Import checks run in fresh interpreters, since this test process has
long since imported every module.  Nothing here is timed.
"""

import ast
import pathlib
import subprocess
import sys

import pytest

import wfst
from wfst import (
    AxiomReport,
    AxiomViolation,
    BooleanWeight,
    MinWeight,
    Path,
    RealWeight,
    SemiringDescriptor,
    ShortestPathResult,
    check_semiring_axioms,
    fst_from_sequence,
    lift,
    make_diff_semiring,
    render_text,
    shortest_path,
)
from conftest import build_hello_world_troll

# Modules that neither ``import wfst.cli`` nor ``print`` may load.
HEAVY = ("dataclasses", "inspect", "html", "wfst.algorithms", "wfst.autodiff")


def python(*args, stdin=""):
    return subprocess.run([sys.executable, *args], input=stdin,
                          capture_output=True, text=True)


# Runs ``wfst.cli`` as ``python -m wfst.cli ARGS`` does, then writes the
# names of all loaded modules as the last line of stderr.
RUN_CLI = """
import runpy, sys
try:
    runpy.run_module("wfst.cli", run_name="__main__", alter_sys=True)
finally:
    sys.stdout.flush()
    print(" ".join(sys.modules), file=sys.stderr)
"""


def loaded(code, *args, stdin=""):
    """The modules loaded when a fresh interpreter has run ``code`` (which
    prints them last on stderr) with ``args``, and its stdout."""
    result = python("-c", code, *args, stdin=stdin)
    assert result.returncode == 0, result.stderr
    names = set(result.stderr.splitlines()[-1].split())
    assert "wfst.semirings" in names
    return names, result.stdout


def cli_loaded(*args, stdin=""):
    return loaded(RUN_CLI, *args, stdin=stdin)


@pytest.fixture
def troll_file(tmp_path):
    path = tmp_path / "troll.fst"
    path.write_text(render_text(build_hello_world_troll()))
    return str(path)


class TestImportFootprint:
    def test_importing_the_cli_loads_nothing_heavy(self):
        names, _ = loaded("import sys, wfst.cli\n"
                          "print(' '.join(sys.modules), file=sys.stderr)")
        assert "wfst.cli" in names
        assert names.isdisjoint(HEAVY)

    @pytest.mark.parametrize("extra", [[], ["--format", "dot"]])
    def test_print_and_draw_dot_load_nothing_heavy(self, troll_file, extra):
        command = "draw" if extra else "print"
        names, out = cli_loaded(command, troll_file, *extra)
        assert out.startswith("digraph" if extra else "#semiring real\n")
        assert names.isdisjoint(HEAVY)

    def test_compose_loads_algorithms_but_not_autodiff(self, troll_file):
        names, out = cli_loaded("compose", troll_file, troll_file)
        assert out.startswith("#semiring real\n")
        assert "wfst.algorithms" in names
        assert names.isdisjoint({"wfst.autodiff", "dataclasses"})

    def test_diff_file_round_trips_through_print(self):
        text = render_text(lift(build_hello_world_troll(),
                                make_diff_semiring()))
        assert text.startswith("#semiring diff\n")
        names, out = cli_loaded("print", "-", stdin=text)
        assert out == text
        assert "wfst.autodiff" in names

    def test_unknown_semiring_still_lists_diff(self):
        result = python("-m", "wfst.cli", "print", "-",
                        stdin="#semiring nope\n#initial 0\n0 1\n")
        assert result.returncode == 2
        assert ("unknown semiring 'nope'; supported: boolean, diff, "
                "featurized, max, min, real, tropical") in result.stderr


class TestLazyNames:
    def test_star_import_binds_every_public_name(self):
        # Each name is the object its defining module holds.
        code = """
from wfst import *
import wfst
from wfst import algorithms, autodiff, errors, fst, io, semirings
modules = (algorithms, autodiff, errors, fst, io, semirings)
for name in wfst.__all__:
    owners = [m for m in modules if hasattr(m, name)]
    if not owners or any(globals()[name] is not getattr(m, name)
                         for m in owners):
        raise SystemExit(f"{name} is not bound to its module's object")
print(len(wfst.__all__))
"""
        result = python("-c", code)
        assert result.returncode == 0, result.stderr
        assert result.stdout == f"{len(wfst.__all__)}\n"

    def test_dir_lists_public_names_without_importing(self):
        code = """
import sys, wfst
names = dir(wfst)
print(set(wfst.__all__) <= set(names), "algorithms" in names,
      "wfst.algorithms" in sys.modules)
"""
        result = python("-c", code)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "True True False\n"

    def test_submodules_resolve_after_a_bare_import(self):
        # A resolved name is cached in the package's namespace.
        code = """
import wfst
print("compose" in vars(wfst), wfst.algorithms.compose is wfst.compose,
      wfst.autodiff.train is wfst.train, "compose" in vars(wfst))
"""
        result = python("-c", code)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "False True True True\n"

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            wfst.nope
        assert not hasattr(wfst, "_nope")


def records():
    weight = RealWeight(6.0)
    result = shortest_path(lift(fst_from_sequence("ab"), MinWeight))
    return [
        Path(tuple(build_hello_world_troll().arcs(0)), weight),
        result,
        RealWeight.descriptor(),
        AxiomViolation("plus commutativity", (weight, RealWeight(1.0))),
    ]


class TestRecords:
    @pytest.mark.parametrize("record", records(),
                             ids=lambda r: type(r).__name__)
    def test_named_tuple_record(self, record):
        fields = tuple(record)
        assert record == fields and fields == record
        assert hash(record) == hash(fields)
        assert type(record)(*fields) == record
        assert len(record) == len(record._fields)
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_fields_unpack(self):
        path, distance = shortest_path(lift(fst_from_sequence("ab"),
                                            MinWeight))
        arcs, weight = path
        assert distance == weight == MinWeight(0.0)
        assert [a.input for a in arcs] == [ord("a"), ord("b")]
        name, properties, *flags = BooleanWeight.descriptor()
        assert name == "boolean"
        assert flags == [BooleanWeight.has_division, BooleanWeight.has_power,
                         True]
        assert type(properties) is frozenset
        assert SemiringDescriptor._fields == (
            "name", "properties", "has_division", "has_power", "is_boolean")
        assert ShortestPathResult._fields == ("path", "distance")

    def test_axiom_report_keeps_a_mutable_list(self):
        report = check_semiring_axioms(RealWeight, sample_count=5)
        assert report.ok and report.violations == []
        assert report == AxiomReport("real", 5)
        report.violations.append(AxiomViolation("x", ()))
        assert not report.ok
        assert report != AxiomReport("real", 5)
        assert repr(report) == ("AxiomReport(semiring='real', samples=5, "
                                "violations=[AxiomViolation(axiom='x', "
                                "witnesses=())])")
        with pytest.raises(TypeError):
            hash(report)
        with pytest.raises(AttributeError):
            report.extra = 1


def unused_imports(source):
    """The names that ``source``'s imports bind and that the scope holding
    each import (the module, or the function it sits in) never reads,
    leaving out the names listed in the module's ``__all__``."""
    tree = ast.parse(source)
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            exported.update(ast.literal_eval(node.value))
    unused = []
    scopes = [tree] + [node for node in ast.walk(tree)
                       if isinstance(node, (ast.FunctionDef,
                                            ast.AsyncFunctionDef))]
    for scope in scopes:
        read = {node.id for node in ast.walk(scope)
                if isinstance(node, ast.Name)
                and not isinstance(node.ctx, ast.Store)}
        body = list(ast.iter_child_nodes(scope))
        imports = []
        while body:  # the imports of this scope, not of nested functions
            node = body.pop()
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imports.append(node)
            elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.Lambda)):
                body.extend(ast.iter_child_nodes(node))
        for node in imports:
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "*" and name not in read | exported:
                    unused.append(f"line {node.lineno}: {name}")
    return sorted(unused)


SOURCES = sorted((pathlib.Path(wfst.__file__).parent).glob("*.py"))


class TestImports:
    @pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
    def test_every_import_is_used_or_exported(self, path):
        assert unused_imports(path.read_text(encoding="utf-8")) == []

    def test_an_unused_import_is_reported(self):
        source = ("from .errors import ConvergenceError, WfstError\n"
                  "import os.path\n\n"
                  "def f():\n"
                  "    from .fst import Fst\n"
                  "    return WfstError\n\n"
                  "def g():\n"
                  "    return Fst, os.sep\n")
        assert unused_imports(source) == ["line 1: ConvergenceError",
                                          "line 5: Fst"]
        assert unused_imports("import os\n__all__ = ['os']\n") == []
