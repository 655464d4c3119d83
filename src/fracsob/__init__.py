"""Geodesics of reparametrization-invariant Sobolev metrics on closed curves.

The metric on the space of smooth closed immersed curves is

    G_c(h, k) = integral of <A_c h, k> ds,

where A_c conjugates a parameter-dependent Fourier multiplier A(lambda) to
the curve's arc-length parametrization, with lambda the curve length. The
package provides the discrete curve calculus, several built-in multiplier
families (integer, scale-invariant and fractional), the conjugated
operators and their square roots, the geodesic spray with its nonlocal
coefficients w and w0, momentum-form geodesic integration, two-point
matching by shooting, and a runnable invariant battery (`fracsob check`).
"""

from .checks import CheckResult, random_curve_samples, random_field, run_all
from .curves import (
    Diffeo,
    DiscreteCurve,
    antiderivative,
    arc_derivative,
    curve_from_dict,
    curve_to_dict,
    ds_integral,
    first_variations,
    make_curve,
    make_diffeo,
    read_samples,
    reparametrize,
    write_samples,
)
from .errors import (
    ConfigError,
    DomainError,
    FracsobError,
    GridError,
    ImmersionError,
    MeanResidualWarning,
    NoConvergenceError,
    NotPositiveDefiniteError,
    NotSupportedError,
    ResolutionError,
    StepError,
)
from .metric import (
    MetricConfig,
    SprayBreakdown,
    metric,
    metric_symmetric,
    momentum_rhs,
    momentum_spray_residual,
    path_energy,
    spray,
    w0_scalar,
    w_field,
    wj_fields,
)
from .operators import (
    apply_conjugated,
    apply_flat,
    operator_directional_derivative,
    solve_conjugated,
)
from .solvers import (
    ConservationReport,
    Frame,
    GeodesicPath,
    ShootingResult,
    conservation_report,
    exp_map,
    exp_map_spray,
    geodesic_bvp,
    path_to_csv,
    path_to_json,
    path_to_svg,
)
from .symbols import (
    ClassReport,
    LambdaSymbol,
    bessel_fractional,
    class_report,
    constant_coefficient,
    custom_table,
    eval_symbol,
    scale_invariant,
    sqrt_symbol,
    symbol_lambda_derivative,
    two_term_fractional,
)

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "ClassReport",
    "ConfigError",
    "ConservationReport",
    "Diffeo",
    "DiscreteCurve",
    "DomainError",
    "FracsobError",
    "Frame",
    "GeodesicPath",
    "GridError",
    "ImmersionError",
    "LambdaSymbol",
    "MeanResidualWarning",
    "MetricConfig",
    "NoConvergenceError",
    "NotPositiveDefiniteError",
    "NotSupportedError",
    "ResolutionError",
    "ShootingResult",
    "SprayBreakdown",
    "StepError",
    "antiderivative",
    "apply_conjugated",
    "apply_flat",
    "arc_derivative",
    "bessel_fractional",
    "class_report",
    "conservation_report",
    "constant_coefficient",
    "curve_from_dict",
    "curve_to_dict",
    "custom_table",
    "ds_integral",
    "eval_symbol",
    "exp_map",
    "exp_map_spray",
    "first_variations",
    "geodesic_bvp",
    "make_curve",
    "make_diffeo",
    "metric",
    "metric_symmetric",
    "momentum_rhs",
    "momentum_spray_residual",
    "operator_directional_derivative",
    "path_energy",
    "path_to_csv",
    "path_to_json",
    "path_to_svg",
    "random_curve_samples",
    "random_field",
    "read_samples",
    "reparametrize",
    "run_all",
    "scale_invariant",
    "solve_conjugated",
    "spray",
    "sqrt_symbol",
    "symbol_lambda_derivative",
    "two_term_fractional",
    "w0_scalar",
    "w_field",
    "wj_fields",
    "write_samples",
    "__version__",
]
