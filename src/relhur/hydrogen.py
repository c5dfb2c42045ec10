"""Dirac Coulomb ground state: closed-form uncertainty product and oracle.

A point charge Z*e binds a Dirac electron; the ground-state wave function
(textbook result, Compton-length units) is

    psi = N r^(g-1) e^(-sqrt(1-g^2) r) (1, 0, i k cos(theta),
                                        -i k e^(i phi) sin(theta))

with g = sqrt(1 - (alpha Z)^2), k = sqrt((1-g)/(1+g)) and N fixed by unit
total probability.  Both dispersions have closed forms; their product

    sqrt(dr^2 dp^2) = sqrt((2g+1)(1+g)(2-g) / (2g(2g-1)))

is finite only for g > 1/2 (the wave-function singularity at the origin
makes dp^2 diverge at g = 1/2).  quadrature_oracle recomputes the product
from the wave function itself, in units of the exponential decay length
(the product is unit-free).  Its radial variable is t with log r = (pi/2)
sinh t: every power of r is an exponential of log r, so nothing underflows
near the origin, and the r^(g-1) singularity becomes a double-exponential
decay in t.  The trapezoid rule in t, halved until two sums agree, and
8-node Gauss-Legendre in cos(theta) (quadrature.integrate_trapezoid) then
converge geometrically for every g in (1/2, 1]; err_est is the last gap.
"""

from __future__ import annotations

import math
import numbers
import sys
from typing import NamedTuple

import numpy as np

from .dirac_states import DispersionReport
from .quadrature import QuadConfig, integrate_trapezoid
from .specfun import gamma_fn

ALPHA_FS = 7.2973525693e-3  # CODATA 2018 fine-structure constant

__all__ = [
    "ALPHA_FS",
    "CoulombState",
    "DivergenceError",
    "uncertainty_product_closed",
    "product_closed_gamma",
    "d_parameter",
    "quadrature_oracle",
    "oracle_gamma",
    "max_z_finite",
]


class DivergenceError(ValueError):
    """The momentum dispersion is infinite (gamma_c <= 1/2)."""


class CoulombState(NamedTuple("CoulombState",
                              [("Z", int), ("alpha", float)])):
    """Ground state of a hydrogen-like ion with nuclear charge Z.

    alpha is configurable because the largest Z with a finite uncertainty
    product depends on its value.  Requires alpha*Z < 1 so the ground-state
    exponent gamma_c = sqrt(1 - (alpha Z)^2) is real.  Z may be of any
    integral type but bool and is stored as a Python int.
    """

    __slots__ = ()

    def __new__(cls, Z: int, alpha: float = ALPHA_FS):
        if (isinstance(Z, bool) or not isinstance(Z, numbers.Integral)
                or Z < 1):
            raise ValueError("Z must be a positive integer")
        Z = int(Z)
        if Z > sys.float_info.max:  # exact int/float comparison
            raise ValueError("Z exceeds the float range")
        if not (alpha > 0.0) or not math.isfinite(alpha):
            raise ValueError("alpha must be a positive finite real")
        if alpha * Z >= 1.0:
            raise ValueError(
                f"alpha*Z = {alpha * Z:g} >= 1: no real ground-state exponent")
        return super().__new__(cls, Z, alpha)

    _make = classmethod(lambda cls, fields: cls(*fields))  # see MomentumPoint

    @property
    def gamma_c(self) -> float:
        """The ground-state exponent sqrt(1 - (alpha Z)^2), derived from Z
        and alpha, so that copy and pickle rebuild it."""
        za = self.alpha * self.Z
        return math.sqrt((1.0 - za) * (1.0 + za))


def _finite_exponent(gamma_c) -> float:
    """gamma_c as a float in (1/2, 1], where the product is finite."""
    g = float(gamma_c)
    if not (0.0 < g <= 1.0):
        raise ValueError("gamma_c must lie in (0, 1]")
    if g <= 0.5:
        raise DivergenceError(
            "momentum dispersion is infinite for gamma_c <= 1/2")
    return g


def product_closed_gamma(gamma_c: float) -> float:
    """Closed-form uncertainty product as a function of the exponent g."""
    g = _finite_exponent(gamma_c)
    return math.sqrt((2.0 * g + 1.0) * (1.0 + g) * (2.0 - g)
                     / (2.0 * g * (2.0 * g - 1.0)))


def uncertainty_product_closed(state: CoulombState) -> float:
    """Closed-form sqrt(dr^2 dp^2) of the ground state (units hbar = 1)."""
    return product_closed_gamma(state.gamma_c)


def _d_parameter_gamma(gamma_c: float) -> float:
    """d_parameter as a function of the exponent g."""
    g = _finite_exponent(gamma_c)
    return (2.0 * (1.0 + g) * (1.0 - g) ** 2 * (2.0 - g)
            / (g * (4.0 * g * g - 1.0))) ** 0.25


def d_parameter(state: CoulombState) -> float:
    """Scale parameter d = (dp^2/dr^2)^(1/4) of the ground state.

    0 in the weak-field limit (nonrelativistic regime), +inf as
    gamma_c -> 1/2 (ultrarelativistic regime).
    """
    return _d_parameter_gamma(state.gamma_c)


def oracle_gamma(gamma_c: float, cfg: QuadConfig = QuadConfig()) -> DispersionReport:
    """Quadrature evaluation of the dispersions for a given exponent g.

    Works in units of the decay length 1/(alpha Z): lengths scale by
    alpha*Z and momenta by 1/(alpha Z), so the product is unchanged and
    the integrands stay O(1) all the way to g = 1.  The radial variable t
    (module docstring) runs from t_min = -asinh(80/(pi (2g - 1))), where
    the slowest integrand, r^(2g-1) e^(-2r) per d(log r), has fallen to
    e^(-40), out to r = 500, where e^(-2r) underflows; the step starts at
    0.1.

    <r> = 0 by spherical symmetry of the density and <p> = 0 by reality
    of the radial profile: both vanish identically and are not integrated,
    as in hopfion.gamma_h.  A norm that misses 1 by more than 1e-8 raises
    ArithmeticError.
    """
    g = _finite_exponent(gamma_c)
    k = math.sqrt((1.0 - g) / (1.0 + g))
    # decay-length normalization; finite and positive for every g in (0, 1]
    n_sq = 2.0 ** (2.0 * g) * (1.0 + g) / (4.0 * math.pi * gamma_fn(1.0 + 2.0 * g))

    # rows in the DispersionReport.from_integrals layout: 0 norm,
    # 1 momentum gradient integral, 2 <r^2>; the means (rows 3..8) are 0
    def rows(t: np.ndarray, ct: np.ndarray) -> np.ndarray:
        log_r = 0.5 * math.pi * np.sinh(t)
        r = np.exp(log_r)
        jac = math.pi ** 2 * n_sq * np.cosh(t)  # 2 pi N^2 d(log r)/dt

        def radial(power):
            """2 pi N^2 r^power e^(-2r) dr/dt."""
            return jac * np.exp((power + 1.0) * log_r - 2.0 * r)

        st = np.sqrt(1.0 - ct * ct)
        # angular density of the components 1, i k cos, -i k sin e^(i phi)
        dens_ang = 1.0 + (k * ct) ** 2 + (k * st) ** 2
        wp = (g - 1.0) - r  # w' = wp * w / r

        out = np.zeros((9,) + np.broadcast_shapes(t.shape, ct.shape))
        out[0] = radial(2.0 * g) * dens_ang
        out[2] = radial(2.0 * g + 2.0) * dens_ang
        # sum over components of |d_r psi|^2 r^2 + |d_theta psi|^2
        # + |d_phi psi|^2 / sin^2(theta): the polar and azimuthal parts
        # give k^2 each
        out[1] = radial(2.0 * g - 2.0) * (wp * wp * dens_ang + 2.0 * k * k)
        return out

    t_min = -math.asinh(80.0 / (math.pi * (2.0 * g - 1.0)))
    t_max = math.asinh(2.0 * math.log(500.0) / math.pi)
    res = integrate_trapezoid(rows, t_min, t_max, 0.1, cfg,
                              control_rows=[0, 1, 2])
    norm = float(res.value[0])
    if not abs(norm - 1.0) <= 1e-8:
        raise ArithmeticError(f"normalization integral {norm!r} is not 1")
    return DispersionReport.from_integrals(res)


def quadrature_oracle(state: CoulombState,
                      cfg: QuadConfig = QuadConfig()) -> DispersionReport:
    """Dispersion report for the ground state, computed by quadrature.

    Independent of the closed forms: integrates the density and the
    position-space gradient sum of the actual wave-function components.
    Moments are in decay-length units; the product field `gamma` is
    unit-free and comparable to uncertainty_product_closed.
    """
    return oracle_gamma(state.gamma_c, cfg)


def max_z_finite(alpha: float = ALPHA_FS) -> int:
    """Largest integer Z whose uncertainty product is finite (g > 1/2).

    g > 1/2 means alpha*Z < sqrt(3)/2; at that limit the float gamma_c of
    CoulombState decides.  Returns sys.maxsize as an overflow sentinel when
    the bound exceeds exact float integer range (alpha -> 0 limit).
    """
    if not (alpha > 0.0) or not math.isfinite(alpha):
        raise ValueError("alpha must be a positive finite real")
    limit = math.sqrt(3.0) / (2.0 * alpha)
    if limit >= 2.0 ** 53:
        return sys.maxsize

    def finite(z):
        try:
            return CoulombState(z, alpha).gamma_c > 0.5
        except ValueError:
            return False

    z = math.floor(limit)
    while z > 0 and not finite(z):
        z -= 1
    while finite(z + 1):
        z += 1
    return z
