"""Localized free-electron wave packet with momentum profile e^{-a E}/E.

The state's four momentum-space components are

    (1, 0, (E - p_z)/m, -(p_x + i p_y)/m) * e^{-a E} / E,

with m = 1 internally and the width a in Compton-wavelength units.  Its
density simplifies to (2/m^2) e^{-2aE} (E - p_z)/E.

gamma_h returns the packet's report in closed form at z = 2a:

    Delta r^2 = (3a/2) (2 K_1(z) - Ki_1(z)) / K_2(z),
    Delta p^2 = 3 K_1(z) / (2a K_2(z)) + 11 / (4a^2),

<p> = (0, 0, -1/(2a)), <r> = 0 and the squared norm of the components
4 pi K_2(z) / a, where Ki_1(z) = int_0^inf e^{-z cosh t} / cosh t dt is
the Bickley function (Bickley and Naylor, Phil. Mag. 20, 1935).  The tests
hold these against the direct momentum gradients (Parseval: <r^2> =
integral of sum |grad_p psi|^2), integrated by a trapezoid rule in
p = sinh u.  specfun.bessel_sums(z) takes K_1, K_2 and Ki_1, each times
e^z, which cancels in every ratio; err_est carries their step-halving gaps
to first order through the dispersions and gamma, plus 4 eps gamma.
gamma_h reports on 1.2369e-154 <= a <= 8.9863e307, gamma from sqrt(33)/2
down to 3/2 (rounding reads 1.4999999999999998 at some a from about 7e14,
which err_est >= 1.3e-15 covers), and raises ValueError outside, where
11/(4a^2) or 2a overflows.  Inside, norm_sq reads inf below a = 3.27e-103,
and it is subnormal from a = 351 and 0.0 from a = 369.34.

An equivalent amplitude decomposition onto the positive-energy bispinor
basis is exported through amplitude_pair() so the general dispersion
functional can serve as an independent cross-check.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .dirac_states import AmplitudePair, DispersionReport
from .specfun import bessel_sums

__all__ = ["HopfionState", "amplitude_pair", "gamma_h"]


class HopfionState(NamedTuple("HopfionState", [("a", float)])):
    """Width parameter a > 0 in Compton-wavelength units."""

    __slots__ = ()

    def __new__(cls, a: float):
        if not (a > 0.0) or not math.isfinite(a):
            raise ValueError("a must be a positive finite real")
        return super().__new__(cls, a)

    _make = classmethod(lambda cls, fields: cls(*fields))  # see QuadConfig


def amplitude_pair(state: HopfionState) -> AmplitudePair:
    """Decomposition onto the positive-energy bispinor basis.

    f_plus = (m + E - p_z) e^{-aE} / (m sqrt(E(E+m))),
    f_minus = -(p_x + i p_y) e^{-aE} / (m sqrt(E(E+m))), each returned with
    its analytic partial derivatives.  Both are returned times e^{a}:
    unscaled, every integral would scale as e^{-2a} and sink under the
    quadrature's abs_tol at large a.  So norm_sq is e^{2a} times that of
    the documented components; gamma, the dispersions and the means are
    unchanged.  Feeding this into the general dispersion functional must
    reproduce gamma_h's closed form.
    """
    a = state.a

    def radial(p):
        """E, g = e^{-a(E-1)} / sqrt(E(E+1)) and dg/dp, with E - 1 taken
        as p^2 / (E + 1), free of cancellation at small p."""
        e = np.hypot(1.0, p)
        ep = p / e
        g = np.exp(-a * (p * p / (e + 1.0))) / np.sqrt(e * (e + 1.0))
        return e, g, g * (-a * ep - ep / (2.0 * e) - ep / (2.0 * (e + 1.0)))

    def f_plus(p, th, phi):
        e, g, dg = radial(p)
        ct = np.cos(th)
        return ((1.0 + e - p * ct) * g + 0j,
                ((p / e - ct) * g + (1.0 + e - p * ct) * dg) + 0j,
                p * np.sin(th) * g + 0j,
                np.zeros_like(th, dtype=complex))

    def f_minus(p, th, phi):
        _, g, dg = radial(p)
        st, turn = np.sin(th), np.exp(1j * phi)
        return (-p * st * turn * g,
                -st * turn * (g + p * dg),
                -p * np.cos(th) * turn * g,
                -1j * p * st * turn * g)

    return AmplitudePair(f_plus=f_plus, f_minus=f_minus)


def gamma_h(state: HopfionState) -> DispersionReport:
    """Full dispersion report in closed form (module docstring)."""
    a, z = state.a, 2.0 * state.a
    # 2.75 / (a * a) would divide by zero where a * a underflows
    if not max(z, 2.75 / a / a) < math.inf:
        raise ValueError(f"a = {a!r} is outside the packet's domain, where "
                         f"2a and 11/(4a^2) are finite")
    (_, k1, k2, ki), (_, g1, g2, gi), nodes = bessel_sums(z)
    delta_r_sq = 1.5 * a * (2.0 * k1 - ki) / k2
    ratio = 1.5 * k1 / (a * k2)
    delta_p_sq = ratio + 2.75 / a / a
    gamma = math.sqrt(delta_r_sq * delta_p_sq)
    rel_r = (2.0 * g1 + gi) / (2.0 * k1 - ki) + g2 / k2
    rel_p = ratio * (g1 / k1 + g2 / k2) / delta_p_sq
    return DispersionReport(
        norm_sq=4.0 * math.pi * k2 * math.exp(-z) / a,
        mean_r=(0.0, 0.0, 0.0), mean_p=(0.0, 0.0, -0.5 / a),
        delta_r_sq=delta_r_sq, delta_p_sq=delta_p_sq, gamma=gamma,
        err_est=gamma * (0.5 * (rel_r + rel_p) + 4.0 * math.ulp(1.0)),
        evaluations=4 * nodes)
