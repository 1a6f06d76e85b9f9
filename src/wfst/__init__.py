"""Weighted finite-state transducers with pluggable semirings.

The errors, the FST container, the semirings and text I/O load with the
package.  The names of ``algorithms`` and ``autodiff`` (and those two
modules themselves) load on first access, so a command that parses and
prints a machine never compiles them.
"""

from importlib import import_module as _import_module

from .errors import (
    ConvergenceError,
    CycleLimitError,
    DeterminizationLimitError,
    DivergenceError,
    DivisionByZeroError,
    FstParseError,
    InvalidLabelError,
    InvalidStateError,
    InvalidWeightError,
    NoAcceptingPathError,
    SamplingError,
    SemiringMismatchError,
    UnsupportedOperationError,
    WfstError,
)
from .fst import (
    EPSILON,
    Arc,
    Fst,
    Path,
    PathEnumeration,
    enumerate_paths,
    fst_from_sequence,
)
from .semirings import (
    BUILTIN_SEMIRINGS,
    DEFAULT_DELTA,
    AbstractSemiringWeight,
    AxiomReport,
    AxiomViolation,
    BooleanWeight,
    FeaturizedWeight,
    MaxWeight,
    MinWeight,
    RealWeight,
    SemiringDescriptor,
    TropicalWeight,
    check_semiring_axioms,
    featurized_semiring,
)
from .io import parse_text, render_dot, render_html, render_text

__version__ = "0.1.0"

# Public name -> the submodule that defines it, for the names resolved on
# first access; each submodule also maps its own name to itself.
_LAZY = {
    "algorithms": "algorithms",
    **dict.fromkeys((
        "ShortestPathResult", "cast_from_boolean", "closure", "compose",
        "concat", "connect", "determinize", "equivalent_by_enumeration",
        "invert", "lift", "project", "push", "random_path", "remove_epsilon",
        "reverse", "shortest_distance", "shortest_path", "sum_paths",
        "union"), "algorithms"),
    "autodiff": "autodiff",
    **dict.fromkeys((
        "GradientTape", "TapeNode", "backward", "loglikelihood_loss",
        "make_diff_semiring", "pair_acceptor", "train"), "autodiff"),
}


def __getattr__(name):
    """Import the submodule behind a lazy name and cache the name here."""
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _import_module("." + module, __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})

__all__ = [
    "AbstractSemiringWeight", "Arc", "AxiomReport", "AxiomViolation",
    "BUILTIN_SEMIRINGS", "BooleanWeight", "ConvergenceError",
    "CycleLimitError", "DEFAULT_DELTA", "DeterminizationLimitError",
    "DivergenceError", "DivisionByZeroError", "EPSILON",
    "FeaturizedWeight", "Fst", "FstParseError", "GradientTape",
    "InvalidLabelError",
    "InvalidStateError", "InvalidWeightError", "MaxWeight", "MinWeight",
    "NoAcceptingPathError", "Path", "PathEnumeration", "RealWeight",
    "SamplingError", "SemiringDescriptor", "SemiringMismatchError",
    "ShortestPathResult", "TapeNode", "TropicalWeight",
    "UnsupportedOperationError", "WfstError", "backward",
    "cast_from_boolean", "check_semiring_axioms", "closure", "compose",
    "concat", "connect", "determinize", "enumerate_paths",
    "equivalent_by_enumeration", "featurized_semiring",
    "fst_from_sequence", "invert", "lift", "loglikelihood_loss",
    "make_diff_semiring", "pair_acceptor", "parse_text", "project",
    "push", "random_path", "remove_epsilon", "render_dot", "render_html",
    "render_text", "reverse", "shortest_distance", "shortest_path",
    "sum_paths", "train", "union",
]
