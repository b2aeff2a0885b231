"""Damped wave fields from smooth bump data: kernels, spots, certificates.

The submodules layer as kernels -> quadrature/geometry -> initial_data ->
solution -> oracles/features -> cli; everything a caller needs day to day is
re-exported here.
"""

from .features import (
    PROPOSITIONS,
    CertificateResult,
    FeatureConvergenceError,
    RateFit,
    SpotReport,
    build_spot_report,
    certify_signs,
    default_psi,
    find_cold_spot,
    find_critical_radius,
    find_hot_spots,
    rate_fit,
    trace_null_radius,
)
from .geometry import (
    ConvexPolytope,
    NormalPoint,
    fibonacci_sphere,
    hull_of_balls,
    hull_of_points,
    inscribed_ball_containment,
    phi_map,
    sample_normal_bundle,
    unit_directions,
)
from .initial_data import (
    InitialDatum,
    SmoothBump,
    load_datum,
    make_datum,
    unit_ball_mass,
)
from .kernels import (
    SERIES_ASYMPTOTIC_SWITCH,
    bessel_i_scaled,
    kernel_at_zero,
    kernel_deriv_at_zero,
    kernel_ktilde_scaled,
    kernel_scaled,
    ktilde_expansion_sqrt,
    ktilde_leading_order,
)
from .oracles import OracleRun, fd_solve_1d, spectral_solve
from .quadrature import (
    QuadratureConvergenceError,
    clipped_ball_nodes,
    gauss_legendre,
    interval_nodes,
    with_refinement,
)
from .solution import (
    DimensionConstants,
    FieldSample,
    dimension_constants,
    error_decay_diagnostic,
    eval_dir2_u,
    eval_grad_u,
    eval_principal_general_n,
    eval_u,
    heat_eval,
    wave_factor,
)

__all__ = [
    # kernels
    "SERIES_ASYMPTOTIC_SWITCH",
    "bessel_i_scaled",
    "kernel_at_zero",
    "kernel_deriv_at_zero",
    "kernel_ktilde_scaled",
    "kernel_scaled",
    "ktilde_expansion_sqrt",
    "ktilde_leading_order",
    # quadrature
    "QuadratureConvergenceError",
    "clipped_ball_nodes",
    "gauss_legendre",
    "interval_nodes",
    "with_refinement",
    # geometry
    "ConvexPolytope",
    "NormalPoint",
    "fibonacci_sphere",
    "hull_of_balls",
    "hull_of_points",
    "inscribed_ball_containment",
    "phi_map",
    "sample_normal_bundle",
    "unit_directions",
    # initial data
    "InitialDatum",
    "SmoothBump",
    "load_datum",
    "make_datum",
    "unit_ball_mass",
    # solution
    "DimensionConstants",
    "FieldSample",
    "dimension_constants",
    "error_decay_diagnostic",
    "eval_dir2_u",
    "eval_grad_u",
    "eval_principal_general_n",
    "eval_u",
    "heat_eval",
    "wave_factor",
    # oracles
    "OracleRun",
    "fd_solve_1d",
    "spectral_solve",
    # features
    "PROPOSITIONS",
    "CertificateResult",
    "FeatureConvergenceError",
    "RateFit",
    "SpotReport",
    "build_spot_report",
    "certify_signs",
    "default_psi",
    "find_cold_spot",
    "find_critical_radius",
    "find_hot_spots",
    "rate_fit",
    "trace_null_radius",
]
