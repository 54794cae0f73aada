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
from .oracle import (
    FlatnessReport,
    QuadratureConfig,
    dulac_map,
    dulac_time,
    flatness_report,
    particular_solution,
)
from .series import BivariatePoly, TruncatedSeries

__version__ = "0.1.0"

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
