"""Uniform asymptotic expansions of orbits and passage times for
saddle-node unfoldings of planar vector fields, checked against an
independent numeric oracle."""

from .errors import DulacKitError
from .expansion import (
    DulacTimeSpec,
    ExpansionResult,
    UnfoldingSpec,
    coefficients,
    dulac_time_coefficients,
    glue_two_sided,
    residual_identity_check,
    vbounds,
)
from .family import (
    NewtonData,
    PolynomialFamily,
    PuiseuxBranch,
    analyze_family,
    biggest_real_root_branch,
    check_h0,
    check_h2,
    compute_Q,
    newton_diagram,
)
from .series import BivariatePoly, TruncatedSeries

__version__ = "0.1.0"

# served on first use (PEP 562): the oracle imports scipy, which `check` and
# `expand` never call
_ORACLE_EXPORTS = frozenset(
    {"FlatnessReport", "QuadratureConfig", "dulac_map", "dulac_time", "flatness_report",
     "particular_solution"}
)


def __getattr__(name):
    if name in _ORACLE_EXPORTS:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BivariatePoly",
    "DulacKitError",
    "DulacTimeSpec",
    "ExpansionResult",
    "FlatnessReport",
    "NewtonData",
    "PolynomialFamily",
    "PuiseuxBranch",
    "QuadratureConfig",
    "TruncatedSeries",
    "UnfoldingSpec",
    "analyze_family",
    "biggest_real_root_branch",
    "check_h0",
    "check_h2",
    "coefficients",
    "compute_Q",
    "dulac_map",
    "dulac_time",
    "dulac_time_coefficients",
    "flatness_report",
    "glue_two_sided",
    "newton_diagram",
    "particular_solution",
    "residual_identity_check",
    "vbounds",
    "__version__",
]
