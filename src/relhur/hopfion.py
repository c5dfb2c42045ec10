"""Localized free-electron wave packet with momentum profile e^{-a E}/E.

The state's four momentum-space components are

    (1, 0, (E - p_z)/m, -(p_x + i p_y)/m) * e^{-a E} / E,

with m = 1 internally and the width a in Compton-wavelength units.  Its
density simplifies to (2/m^2) e^{-2aE} (E - p_z)/E; the quadratures use
that form, and the tests check it against the component-wise sum.

Dispersions are computed from direct analytic momentum-gradients of the
explicit components (Parseval: <r^2> = integral of sum |grad_p psi|^2),
with <p> from the density and <r> = 0 in closed form (see _rows); both
means are subtracted.  An equivalent amplitude decomposition onto the
positive-energy bispinor basis is exported through amplitude_pair() so the
general dispersion functional can serve as an independent cross-check.

The phi dependence of the components is one e^{i phi} factor, which
cancels in the density and the gradient magnitudes, so the phi integral is
a factor 2 pi.  The rows are polynomials of degree at most 2 in
c = cos theta, and _rows takes their integral over c in [-1, 1] in closed
form.  gamma_h substitutes p = sinh u and factors e^{-2a} out, leaving
e^{-2a(cosh u - 1)}: entire, and even in u once integrated over theta
(each odd-in-u term carries an odd power of c).  So the trapezoid rule on
[0, U], cosh U = 1 + 40/a, half weight at u = 0, converges geometrically
from step 0.2 min(1, a^{-1/2}) (quadrature.integrate_trapezoid).  Only
norm_sq takes e^{-2a} back: the rest of the report is made of ratios.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .dirac_states import AmplitudePair, DispersionReport
from .quadrature import QuadConfig, integrate_trapezoid

__all__ = ["HopfionState", "amplitude_pair", "gamma_h"]

A_MIN, A_MAX = 0.05, 100.0


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
    its analytic partial derivatives.  Both are returned times e^{a}, as
    gamma_h factors e^{-a} out: unscaled, every integral would scale as
    e^{-2a} and sink under the quadrature's abs_tol at large a.  So norm_sq
    is e^{2a} times that of the documented components; gamma, the
    dispersions and the means are unchanged.  Feeding this into the general
    dispersion functional must reproduce gamma_h computed from direct
    gradients.
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


def _rows(a: float, u: np.ndarray) -> np.ndarray:
    """The nine integrands of DispersionReport.from_integrals at p = sinh u,
    per du, integrated over c = cos(theta) in closed form and divided by
    e^{-2a}.  With q = e^{-aE}/E over e^{-a}, dq its p derivative,
    A = dq E + q p/E and B = dq p + q, the integrals over c are 4 q^2 E^3
    for the density times dp/du, -(4/3) q^2 E^2 p for its c-moment, and
    2 p^2 (dq^2 + A^2 + B^2 + 2 q^2) for the gradient magnitudes of
    components 0, 2 and 3 times p^2: their d_p are dq, A - c B and
    sin(theta) B, and their theta and phi parts sum to 2 q^2 p^2."""
    p, e = np.sinh(u), np.cosh(u)
    ep = p / e
    # E - 1 = 2 sinh^2(u/2), free of cancellation at small u (large a)
    q = np.exp(-2.0 * a * np.sinh(0.5 * u) ** 2) / e
    dq = -q * ep * (a + 1.0 / e)
    big_a, big_b = dq * e + q * ep, dq * p + q
    out = np.zeros((9,) + u.shape)
    out[0] = 8.0 * math.pi * p * p * q * q * e ** 3
    out[1] = out[0] * p * p
    out[2] = 4.0 * math.pi * e * p * p * (dq * dq + big_a * big_a
                                          + big_b * big_b + 2.0 * q * q)
    out[5] = -(8.0 / 3.0) * math.pi * p ** 4 * q * q * e * e
    # <p_x>, <p_y> vanish: the density does not depend on phi.  So does <r>
    # (rows 6..8): components 0 and 2 are real and the phase of component 3
    # cancels in conj(psi_3) d psi_3, so the only nonzero component of
    # Re(psi* . i grad_p psi) is -h^2 p sin(theta) along e_phi; it does not
    # depend on phi and integrates to zero with e_phi.
    return out


def gamma_h(state: HopfionState,
            cfg: QuadConfig = QuadConfig()) -> DispersionReport:
    """Full dispersion report from direct component gradients."""
    a = state.a
    if not (A_MIN <= a <= A_MAX):
        raise ValueError(f"a must lie in [{A_MIN}, {A_MAX}]")
    rep = DispersionReport.from_integrals(integrate_trapezoid(
        lambda u: _rows(a, u), 0.0, math.acosh(1.0 + 40.0 / a),
        0.2 * min(1.0, a ** -0.5), cfg))
    return rep._replace(norm_sq=rep.norm_sq * math.exp(-2.0 * a))
