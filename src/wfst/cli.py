"""Command-line front end.

Subcommands delegate 1:1 to library operations; FSTs travel between
commands as text-format files (or stdin/stdout with ``-``).  Exit codes:
0 success, 1 usage error (bad flags, missing or unreadable files), 2
domain error (semiring mismatch, convergence failure, parse error, input
that is not UTF-8, ...).
"""

import argparse
import math
import sys
from collections import namedtuple

# ``algorithms`` and ``autodiff`` are imported inside the functions that
# use them, so a command loads only what it runs: ``print`` and ``draw``
# on a file that is not diff-weighted compile neither.
from .errors import WfstError
from .fst import fst_from_sequence, enumerate_paths, label_str
from .io import parse_text, render_dot, render_html, render_text
from .semirings import BUILTIN_SEMIRINGS, DEFAULT_DELTA, RealWeight

USAGE_ERROR = 1
DOMAIN_ERROR = 2


class _Parser(argparse.ArgumentParser):
    def parse_known_args(self, args=None, namespace=None):
        # Every parser, subcommands included, rejects what it does not
        # take, so a stray flag is reported with that subcommand's usage.
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _read_text(path):
    """The text of the file ``path``; one that is not UTF-8 raises
    WfstError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise WfstError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                        f"{exc.start})") from None


def _load(path):
    document = sys.stdin.read() if path == "-" else _read_text(path)
    # "diff" is always a known name, so an unknown name's message lists
    # it.  Its class is built only for a text that contains the word: one
    # that does not cannot name it in its #semiring header, so parse_text
    # never looks the placeholder up.
    diff = None
    if "diff" in document:
        from . import autodiff
        diff = autodiff.make_diff_semiring()
    return parse_text(document, semirings={"diff": diff})


def _write(args, text):
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _path_line(path):
    ilabels = "".join(label_str(x) for x in path.input_labels)
    olabels = "".join(label_str(x) for x in path.output_labels)
    return f"{ilabels}\t{olabels}\t{path.weight.text()}"


def _positive_float(text):
    """An argparse type: a positive finite float."""
    try:
        value = float(text)
    except ValueError:
        value = None
    if value is None or not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be a positive finite number, got {text!r}")
    return value


def _non_negative_int(text):
    """An argparse type: an integer of zero or more."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {text!r}")
    return value


def _semiring_arg(name):
    if name == "diff":
        from . import autodiff
        return autodiff.make_diff_semiring()
    return BUILTIN_SEMIRINGS[name]


def _op(name):
    """``algorithms.<name>``, importing the module when a command first
    needs it."""
    from . import algorithms
    return getattr(algorithms, name)


def _algorithm(name, *options):
    """Run function rendering ``algorithms.<name>(*fsts, *options)``."""
    def run(args, *fsts):
        return render_text(
            _op(name)(*fsts, *(getattr(args, o) for o in options)))
    return run


def _compile(args):
    return render_text(
        fst_from_sequence(args.string, _semiring_arg(args.semiring)))


def _draw(args, fst):
    return (render_dot if args.format == "dot" else render_html)(fst)


def _lift(args, fst):
    return render_text(_op("lift")(fst, _semiring_arg(args.to)))


def _shortest_distance(args, fst):
    d = _op("shortest_distance")(fst)
    return "".join(f"{s} {w.text()}\n" for s, w in enumerate(d))


def _enumerate(args, fst):
    result = enumerate_paths(fst, max_paths=args.max_paths)
    lines = [_path_line(p) for p in result]
    if result.truncated:
        lines.append("# truncated")
    return "".join(line + "\n" for line in lines)


def _load_pairs(path):
    pairs = []
    for lineno, line in enumerate(_read_text(path).split("\n"), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise WfstError(f"{path}:{lineno}: expected input<TAB>output")
        pairs.append((fields[0], fields[1]))
    return pairs


def _train(args, fst):
    from . import autodiff

    was_diff = issubclass(fst.semiring, autodiff._DiffWeightBase)
    if not issubclass(fst.semiring, (RealWeight, autodiff._DiffWeightBase)):
        raise WfstError(
            f"train needs a real or diff semiring FST, got {fst.semiring.name}"
        )
    pairs = _load_pairs(args.pairs)
    trained, losses = autodiff.train(fst, pairs,
                                     steps=args.steps, rate=args.rate)
    for step, loss in enumerate(losses):
        print(f"step {step} loss {loss:.6f}", file=sys.stderr)
    if was_diff:
        trained = _op("lift")(trained, autodiff.make_diff_semiring())
    return render_text(trained)


SEMIRING_NAMES = sorted(BUILTIN_SEMIRINGS) + ["diff"]


class Command(namedtuple("Command", "help inputs options run")):
    """One subcommand: its help line, the number of FST files it reads,
    its extra arguments as (flag, add_argument keywords) pairs, and the
    function that takes the parsed arguments and the loaded FSTs and
    returns the text to write."""

    __slots__ = ()


# Run functions look library functions up when they run (module globals,
# ``algorithms.<name>`` through ``_op``), never at import, so that
# wrappers installed on those modules after this one is imported see the
# calls.
COMMANDS = {
    "compile": Command("build an acceptor from a string", 0, (
        ("--string", {"required": True}),
        ("--semiring", {"default": "boolean", "choices": SEMIRING_NAMES}),
    ), _compile),
    "print": Command("parse and reprint an FST file", 1, (),
                     lambda args, fst: render_text(fst)),
    "draw": Command("emit a DOT or HTML diagram", 1, (
        ("--format", {"choices": ("dot", "html"), "default": "dot"}),
    ), _draw),
    "union": Command("union of two FSTs", 2, (), _algorithm("union")),
    "concat": Command("concat of two FSTs", 2, (), _algorithm("concat")),
    "compose": Command("compose of two FSTs", 2, (), _algorithm("compose")),
    "closure": Command("closure of an FST", 1, (), _algorithm("closure")),
    "invert": Command("invert of an FST", 1, (), _algorithm("invert")),
    "connect": Command("keep the states on accepting paths", 1, (),
                       _algorithm("connect")),
    "rmepsilon": Command("rmepsilon of an FST", 1, (),
                         _algorithm("remove_epsilon")),
    "determinize": Command("determinize of an FST", 1, (
        ("--delta", {"type": _positive_float, "default": DEFAULT_DELTA,
                     "help": "quantization step: subsets whose residuals "
                             "agree within it merge (default 1/1024)"}),
    ), _algorithm("determinize", "delta")),
    "reverse": Command("reverse of an FST", 1, (), _algorithm("reverse")),
    "project": Command("project to one label side", 1, (
        ("--side", {"choices": ("input", "output"), "required": True}),
    ), _algorithm("project", "side")),
    "push": Command("push weights toward one end", 1, (
        ("--to", {"choices": ("initial", "final"), "default": "initial"}),
    ), _algorithm("push", "to")),
    "lift": Command("cast into another semiring", 1, (
        ("--to", {"choices": SEMIRING_NAMES, "required": True}),
    ), _lift),
    "shortestpath": Command(
        "best path in a path semiring", 1, (),
        lambda args, fst: _path_line(_op("shortest_path")(fst).path) + "\n"),
    "shortestdistance": Command("per-state distances", 1, (),
                                _shortest_distance),
    "sumpaths": Command(
        "total weight over accepting paths", 1, (),
        lambda args, fst: _op("sum_paths")(fst).text() + "\n"),
    "randpath": Command(
        "sample a random path", 1, (("--seed", {"type": int, "default": None}),),
        lambda args, fst: _path_line(
            _op("random_path")(fst, seed=args.seed)) + "\n"),
    "enumerate": Command("list accepting paths", 1, (
        ("--max", {"type": _non_negative_int, "default": 1000,
                   "dest": "max_paths"}),
    ), _enumerate),
    "train": Command("gradient-descent weight learning", 1, (
        ("--pairs", {"required": True, "metavar": "FILE",
                     "help": "tab-separated input/output pairs, one per line"}),
        ("--steps", {"type": _non_negative_int, "default": 200}),
        ("--rate", {"type": _positive_float, "default": 0.05}),
    ), _train),
}


def build_parser(argv=None):
    """The argument parser.  When the first word of ``argv`` names a
    command, only that command's subparser is built, which parses it as
    the full parser would; otherwise (``-h``, no command or an unknown
    one) all of them are, so that the help and the error list every
    command."""
    names = (argv[0],) if argv and argv[0] in COMMANDS else COMMANDS
    parser = _Parser(prog="wfst", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    for name in names:
        command = COMMANDS[name]
        p = sub.add_parser(name, help=command.help)
        if command.inputs:
            p.add_argument("inputs", nargs=command.inputs, metavar="FILE",
                           help="input FST file ('-' = stdin)")
        else:
            p.set_defaults(inputs=[])
        p.add_argument("--out", default="-", metavar="FILE",
                       help="output file (default stdout)")
        for flag, keywords in command.options:
            p.add_argument(flag, **keywords)
    return parser


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    try:
        fsts = [_load(path) for path in args.inputs]
        _write(args, COMMANDS[args.command].run(args, *fsts))
        return 0
    except FileNotFoundError as exc:
        print(f"wfst {args.command}: missing file: {exc.filename}",
              file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:
        where = "" if exc.filename is None else f"{exc.filename}: "
        print(f"wfst {args.command}: {where}{exc.strerror}", file=sys.stderr)
        return USAGE_ERROR
    except WfstError as exc:
        print(f"wfst {args.command}: {exc}", file=sys.stderr)
        return DOMAIN_ERROR


if __name__ == "__main__":
    sys.exit(main())
