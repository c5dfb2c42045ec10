"""Relativistic position-momentum uncertainty bounds for Dirac electrons.

The package computes the state-independent lower bound gamma(d) on the
dimensionless dispersion product of a free Dirac electron, where d is the
inverse localization scale in Compton units, together with the two physical
families the bound is compared against: hydrogen-like ground states and a
localized free-electron packet.  It depends on NumPy alone.

Layout:

    specfun             modified Bessel K0, K1, K2 and Bickley Ki1 (one
                        trapezoid pass for all four)
    quadrature          step-halving exp-sinh trapezoid times
                        Gauss-Legendre on [0, inf) x [0, pi]
    radial_eigensolver  lowest eigenvalue of radial Schrodinger operators
                        by Chebyshev collocation (NumPy only)
    rel_uncertainty     the bound curve gamma(d) and its two limits
    dirac_states        pointwise Weyl bispinors and the dispersion functional
    hydrogen            hydrogen-like ions: closed form and oracle
    hopfion             the localized packet family gamma_H(a)
    cli                 the `relhur` command-line tool
"""

from .specfun import *
from .quadrature import *
from .radial_eigensolver import *
from .rel_uncertainty import *
from .dirac_states import *
from .hydrogen import *
from .hopfion import *

__version__ = "0.1.0"

# each import above also binds its submodule here
__all__ = [name for module in (specfun, quadrature, radial_eigensolver,
                               rel_uncertainty, dirac_states, hydrogen, hopfion)
           for name in module.__all__] + ["__version__"]
