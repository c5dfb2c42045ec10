"""Relativistic position-momentum uncertainty bounds for Dirac electrons.

The package computes the state-independent lower bound gamma(d) on the
dimensionless dispersion product of a free Dirac electron, where d is the
inverse localization scale in Compton units, together with the two physical
families the bound is compared against: hydrogen-like ground states and a
localized free-electron packet.  It depends on NumPy alone.

Layout:

    specfun             gamma function (math.gamma) and modified Bessel
                        K0, K1, K2 (one trapezoid sum per order)
    quadrature          step-halving trapezoid sums times Gauss-Legendre:
                        on a given interval, and exp-sinh on [0, inf)
    radial_eigensolver  lowest eigenvalue of radial Schrodinger operators
                        by Chebyshev collocation (NumPy only)
    rel_uncertainty     the bound curve gamma(d) and its two limits
    dirac_states        bispinor fields and the dispersion functional
    hydrogen            hydrogen-like ions: closed form and oracle
    hopfion             the localized packet family gamma_H(a)
    cli                 the `relhur` command-line tool
"""

from .specfun import (
    SpecfunResult,
    gamma_fn,
    gamma_fn_detailed,
    bessel_k,
    bessel_k_detailed,
)
from .quadrature import (
    QuadConfig,
    QuadResult,
    QuadratureError,
    integrate_exp_sinh,
    integrate_trapezoid,
)
from .radial_eigensolver import (
    RadialPotential,
    EigenDiagnostics,
    EigenResult,
    SolverError,
    ground_state,
    lowest_eigenvalue,
    lowest_eigenvalues,
    moment,
)
from .rel_uncertainty import (
    INFINITY,
    GAMMA_AT_0,
    GAMMA_AT_INF,
    ULTRA_EXPONENT,
    ULTRA_C1,
    D_SWITCH,
    potential_v,
    singular_strength,
    make_potential,
    gamma_bound,
    gamma_estimate,
    gamma_estimates,
    gamma_bound_report,
    BoundReport,
    BoundCurve,
    sweep,
    gaussian_limit_residual,
    ultrarelativistic_limit_residual,
)
from .dirac_states import (
    MomentumPoint,
    Bispinor,
    AmplitudePair,
    DispersionReport,
    bispinor_u,
    bispinor_partials,
    dispersion_functional,
)
from .hydrogen import (
    ALPHA_FS,
    CoulombState,
    DivergenceError,
    ground_bispinor,
    uncertainty_product_closed,
    product_closed_gamma,
    d_parameter,
    d_parameter_gamma,
    quadrature_oracle,
    oracle_gamma,
    density_radial_moment,
    max_z_finite,
)
from .hopfion import (
    HopfionState,
    SweepTable,
    momentum_bispinor,
    density,
    norm_const,
    norm_bessel_ratio,
    amplitude_pair,
    gamma_h,
    gamma_h_curve,
)

__version__ = "0.1.0"

__all__ = [
    "SpecfunResult", "gamma_fn", "gamma_fn_detailed",
    "bessel_k", "bessel_k_detailed",
    "QuadConfig", "QuadResult", "QuadratureError",
    "integrate_exp_sinh", "integrate_trapezoid",
    "RadialPotential", "EigenDiagnostics", "EigenResult", "SolverError",
    "ground_state", "lowest_eigenvalue", "lowest_eigenvalues", "moment",
    "INFINITY", "GAMMA_AT_0", "GAMMA_AT_INF", "ULTRA_EXPONENT",
    "ULTRA_C1", "D_SWITCH",
    "potential_v", "singular_strength", "make_potential",
    "gamma_bound", "gamma_estimate", "gamma_estimates", "gamma_bound_report",
    "BoundReport", "BoundCurve", "sweep", "gaussian_limit_residual", "ultrarelativistic_limit_residual",
    "MomentumPoint", "Bispinor", "AmplitudePair", "DispersionReport",
    "bispinor_u", "bispinor_partials", "dispersion_functional",
    "ALPHA_FS", "CoulombState", "DivergenceError", "ground_bispinor",
    "uncertainty_product_closed", "product_closed_gamma",
    "d_parameter", "d_parameter_gamma",
    "quadrature_oracle", "oracle_gamma", "density_radial_moment",
    "max_z_finite",
    "HopfionState", "SweepTable", "momentum_bispinor", "density",
    "norm_const", "norm_bessel_ratio", "amplitude_pair",
    "gamma_h", "gamma_h_curve",
    "__version__",
]
