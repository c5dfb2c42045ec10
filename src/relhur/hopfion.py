"""Localized free-electron wave packet with momentum profile e^{-a E}/E.

The state's four momentum-space components are

    (1, 0, (E - p_z)/m, -(p_x + i p_y)/m) * e^{-a E} / E,

with m = 1 internally and the width a in Compton-wavelength units.  Its
density simplifies to (2/m^2) e^{-2aE} (E - p_z)/E; the quadratures use
that form, and the tests check it against the component-wise sum.

Dispersions are computed from direct analytic momentum-gradients of the
explicit components (Parseval: <r^2> = integral of sum |grad_p psi|^2),
with <p> from the density and <r> = 0 in closed form (see gamma_h); both
means are subtracted.  An equivalent amplitude decomposition onto the
positive-energy bispinor basis is exported through amplitude_pair() so the
general dispersion functional can serve as an independent cross-check.

The phi dependence of the components is one e^{i phi} factor, which
cancels in the density and the gradient magnitudes, so the phi integral is
a factor 2 pi.  The rows are polynomials of degree at most 2 in
cos theta, so 2-node Gauss-Legendre in cos theta, nodes +-1/sqrt(3) and
weight 1 each, integrates them exactly.  gamma_h substitutes p = sinh u and
factors e^{-2a} out, leaving e^{-2a(cosh u - 1)}: entire, and even in u
once summed over theta (each odd-in-u term carries an odd power of
cos theta).  So the trapezoid rule on [0, U], cosh U = 1 + 40/a, half
weight at u = 0, converges geometrically from step 0.2 min(1, a^{-1/2})
(quadrature.integrate_trapezoid).
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


def _rows(a: float, u: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The nine integrands of DispersionReport.from_integrals at p = sinh u
    and cos(theta) = c, per du dc and divided by e^{-2a}."""
    p, e = np.sinh(u), np.cosh(u)
    ep = p / e
    st_sq = 1.0 - c * c
    # e^{-aE}/E divided by e^{-a}; E - 1 = 2 sinh^2(u/2) keeps the exponent
    # free of cancellation at small u, where large widths a concentrate
    q = np.exp(-2.0 * a * np.sinh(0.5 * u) ** 2) / e
    dq = -q * ep * (a + 1.0 / e)       # its p derivative
    dens_e = 2.0 * q * q * e * e * (e - p * c)  # density times dp/du

    # phi-independent gradient magnitudes of components 0, 2 and 3,
    # |d_p|^2 + |d_theta|^2/p^2 + |d_phi|^2/(p sin)^2, times p^2; the theta
    # and phi parts, q^2 p^2 (sin^2 + cos^2 + 1), are summed in closed form
    d_p2 = dq * (e - p * c) + q * (ep - c)
    grad_sq = (p * p * (dq * dq + d_p2 * d_p2 + st_sq * (dq * p + q) ** 2)
               + 2.0 * q * q * p * p)

    out = np.zeros((9,) + dens_e.shape)
    out[0] = 2.0 * math.pi * p * p * dens_e
    out[1] = out[0] * p * p
    out[2] = 2.0 * math.pi * e * grad_sq
    out[5] = out[0] * p * c
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
    c = np.array([-1.0, 1.0]) / math.sqrt(3.0)  # module docstring
    res = integrate_trapezoid(lambda u: _rows(a, u[:, None], c).sum(axis=-1),
                              0.0, math.acosh(1.0 + 40.0 / a),
                              0.2 * min(1.0, a ** -0.5), cfg)
    scale = math.exp(-2.0 * a)
    return DispersionReport.from_integrals(res._replace(
        value=res.value * scale, est_abs_error=res.est_abs_error * scale))
