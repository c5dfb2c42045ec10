"""Positive-energy Dirac machinery: Weyl bispinors and dispersion functionals.

A positive-energy electron state is a pair of momentum-space amplitudes
f(p, theta, phi, s), s = +/-, attached to the orthonormal Weyl bispinors
u(p, s).  This module evaluates the norm, the momentum dispersion, and the
position dispersion of such a state as spherical-coordinate integrals.

With the measure dp dtheta dphi (sin(theta) and all p powers written into
the integrands) the position second moment about the origin reads, per spin,

    p^2 |d_p f|^2 + |d_theta f|^2 + csc^2(theta) |d_phi f|^2
      + (1 - m/E + m^2 p^2 / (4 E^4)) |f|^2
      + s (1 - m/E) Im(f* d_phi f)

plus one spin-mixing cross term

    (1 - m/E) Re[ (i cot(theta) f+* dA_phi f-  -  f+* dA_theta f-) e^{-i phi} ]

where dA is the antisymmetrized derivative f* dA g = f* dg - g df*.  The
relative minus between the two pieces follows from the bispinor connection
u(s)* . d_theta u(s') being antisymmetric in the spin indices while the
phi connection is Hermitian; it is checked in the tests against a
derivative-free evaluation of the same state.  First
moments <r> come from the identity r psi ~ i grad_p acting on the full
4-component momentum wave function sum_s u(p,s) f(p,s), which brings in the
analytic bispinor partials; <p> needs only the amplitude density.  Both
means are always computed and subtracted from the second moments.

The phi integral is a 64-node trapezoid, spectrally accurate for smooth
periodic integrands.  Every integrand call of the 2D quadrature (the p
nodes of a radial panel and the nodes of one theta panel) evaluates
amplitudes, partials and bispinors on the whole (p, theta, phi) grid in one
broadcast NumPy pass: amplitudes are called as
f(ps[:, None, None], thetas[None, :, None], phis[None, None, :]) and return
complex values that broadcast to (n_p, n_theta, n_phi).  An amplitude that
does not depend on phi may return size 1 on the phi axis; any other shape
raises ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .quadrature import QuadConfig, integrate_2d

_N_PHI = 64

AmpFunc = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class MomentumPoint:
    """Spherical momentum coordinates; p in units of mc (m = 1 internally)."""

    p: float
    theta: float
    phi: float

    def __post_init__(self):
        if not (self.p >= 0.0) or not math.isfinite(self.p):
            raise ValueError("p must be a finite non-negative real")
        if not (0.0 <= self.theta <= math.pi):
            raise ValueError("theta must lie in [0, pi]")

    @property
    def energy(self) -> float:
        return math.hypot(1.0, self.p)


@dataclass(frozen=True)
class Bispinor:
    components: np.ndarray  # shape (4,), complex

    def __post_init__(self):
        arr = np.asarray(self.components, dtype=complex)
        if arr.shape != (4,):
            raise ValueError("a bispinor has exactly 4 components")
        if not np.all(np.isfinite(arr.view(float))):
            raise ValueError("bispinor components must be finite")
        object.__setattr__(self, "components", arr)


def _check_spin(s: int) -> int:
    if s not in (+1, -1):
        raise ValueError("spin must be +1 or -1")
    return s


def _bispinor_block(p, theta, phi, mass: float):
    """Weyl bispinors and their analytic partials on a (p, theta, phi) grid.

    p, theta and phi broadcast against each other (for example
    ps[:, None, None], thetas[None, :, None] and phis[None, None, :]).
    Returns u of shape (2, 4) + the broadcast shape, and its partials
    (d_p, d_theta, d_phi) stacked along a leading axis, shape
    (3, 2, 4) + the broadcast shape.  On the spin axis, index 0 is spin +1
    and index 1 is spin -1.
    """
    e = np.hypot(mass, p)
    ct, st = np.cos(theta), np.sin(theta)
    pz = p * ct
    eiphi = np.cos(phi) + 1j * np.sin(phi)
    pxy = p * st * eiphi  # p_x + i p_y
    big = mass + e
    d = np.sqrt(4.0 * e * big)
    # d(ln D)/dp; E' = p/E
    dlnd = 0.5 * (p / e) * (1.0 / e + 1.0 / big)
    shape = np.broadcast_shapes(np.shape(p), np.shape(theta), np.shape(phi))
    out = np.empty((4, 8) + shape, dtype=complex)

    def fill(k, *comps):  # spin +1 components, then spin -1 components
        for c, comp in enumerate(comps):
            out[k, c] = comp

    fill(0, big + pz, pxy, big - pz, -pxy,
         np.conj(pxy), big - pz, -np.conj(pxy), big + pz)
    fill(1, p / e + ct, st * eiphi, p / e - ct, -st * eiphi,
         st * np.conj(eiphi), p / e - ct, -st * np.conj(eiphi), p / e + ct)
    fill(2, -p * st, p * ct * eiphi, p * st, -p * ct * eiphi,
         p * ct * np.conj(eiphi), p * st, -p * ct * np.conj(eiphi), -p * st)
    fill(3, 0.0, 1j * pxy, 0.0, -1j * pxy,
         -1j * np.conj(pxy), 0.0, 1j * np.conj(pxy), 0.0)
    # the real and imaginary parts divided by the real d: the values of a
    # complex division, at a fraction of its cost
    parts = out.view(float).reshape(out.shape + (2,))
    parts /= d[..., None]
    out = out.reshape((4, 2, 4) + shape)
    u, du = out[0], out[1:]
    du[0] -= u * dlnd
    return u, du


def bispinor_u(pt: MomentumPoint, s: int) -> Bispinor:
    """Orthonormal positive-energy Weyl bispinor u(p, s), m = 1."""
    _check_spin(s)
    u, _ = _bispinor_block(pt.p, pt.theta, pt.phi, 1.0)
    return Bispinor(components=u[(1 - s) // 2])


def bispinor_partials(pt: MomentumPoint, s: int) -> tuple[Bispinor, Bispinor, Bispinor]:
    """Analytic (d_p, d_theta, d_phi) of u(p, s) at a point, m = 1."""
    _check_spin(s)
    _, du = _bispinor_block(pt.p, pt.theta, pt.phi, 1.0)
    return tuple(Bispinor(components=d) for d in du[:, (1 - s) // 2])


@dataclass(frozen=True)
class AmplitudePair:
    """Momentum-space amplitudes f(p, theta, phi) for the two spin signs.

    Each amplitude is called on a (p, theta, phi) grid as
    f(ps[:, None, None], thetas[None, :, None], phis[None, None, :]) and
    returns complex values that broadcast to (n_p, n_theta, n_phi); an
    amplitude that does not depend on phi may return size 1 on the phi
    axis.  Use NumPy functions of p, not math ones: p is an array.
    f_minus may be None for a pure spin-up state.  partials_* optionally
    supply analytic (d_p, d_theta, d_phi) with the same calling
    convention; otherwise central differences with one Richardson pass are
    used, with a step per p node.
    """

    f_plus: Optional[AmpFunc]
    f_minus: Optional[AmpFunc] = None
    partials_plus: Optional[Sequence[AmpFunc]] = None
    partials_minus: Optional[Sequence[AmpFunc]] = None


@dataclass(frozen=True)
class DispersionReport:
    """Dispersions of a state; err_est is the quadrature's error estimate
    carried into gamma (see from_integrals)."""

    norm_sq: float
    mean_r: np.ndarray
    mean_p: np.ndarray
    delta_r_sq: float
    delta_p_sq: float
    gamma: float
    err_est: float

    @classmethod
    def from_integrals(cls, vals, errs) -> "DispersionReport":
        """Report from nine integrals over the unnormalized state and their
        estimated absolute errors.

        Rows: 0 norm, 1 p-second-moment, 2 r-second-moment, 3..5 <p> and
        6..8 <r> components.  err_est propagates errs to first order, in
        absolute values, through the normalization, the mean subtraction
        and gamma = sqrt(delta_r_sq delta_p_sq).
        """
        norm_sq = float(vals[0])
        if not (norm_sq > 0.0) or not math.isfinite(norm_sq):
            raise ValueError("state is not normalizable (norm integral invalid)")
        mean_p = np.array(vals[3:6]) / norm_sq
        mean_r = np.array(vals[6:9]) / norm_sq
        second_p = float(vals[1]) / norm_sq
        second_r = float(vals[2]) / norm_sq
        delta_p_sq = second_p - float(mean_p @ mean_p)
        delta_r_sq = second_r - float(mean_r @ mean_r)
        if delta_p_sq <= 0.0 or delta_r_sq <= 0.0:
            raise ValueError("dispersions came out non-positive; state invalid "
                             "or quadrature tolerance too loose")
        errs = np.abs(np.asarray(errs, dtype=float))

        def spread_err(second, mean, e_second, e_mean):
            # d(S/N - |M|^2/N^2) = (dS - (S/N - 2|m|^2) dN - 2 m.dM) / N
            return (e_second + abs(second - 2.0 * float(mean @ mean)) * errs[0]
                    + 2.0 * float(np.abs(mean) @ e_mean)) / norm_sq

        gamma = math.sqrt(delta_r_sq * delta_p_sq)
        rel_p = spread_err(second_p, mean_p, errs[1], errs[3:6]) / delta_p_sq
        rel_r = spread_err(second_r, mean_r, errs[2], errs[6:9]) / delta_r_sq
        return cls(norm_sq=norm_sq, mean_r=mean_r, mean_p=mean_p,
                   delta_r_sq=delta_r_sq, delta_p_sq=delta_p_sq, gamma=gamma,
                   err_est=0.5 * gamma * (rel_p + rel_r))


def _on_grid(out, shape: tuple[int, int, int]) -> np.ndarray:
    """An amplitude's output as a complex array of the grid shape."""
    out = np.asarray(out, dtype=complex)
    try:
        return np.broadcast_to(out, shape)
    except ValueError:
        raise ValueError(f"amplitude returned shape {out.shape}, which does "
                         f"not broadcast to (n_p, n_theta, n_phi) = {shape}"
                         ) from None


class _Amplitude:
    """One spin component with analytic or numeric partial derivatives."""

    def __init__(self, fn: Optional[AmpFunc],
                 partials: Optional[Sequence[AmpFunc]]):
        self.fn = fn
        if partials is not None and len(partials) != 3:
            raise ValueError("partials must be (d_p, d_theta, d_phi)")
        self.partials = partials

    def _numeric_partial(self, p, thetas, phis, axis: int):
        # Central difference with one Richardson pass; steps never leave
        # the coordinate domain.
        fn = self.fn
        if axis == 0:
            h = np.maximum(1e-5, 1e-5 * p)
            h = np.where(p - h <= 0.0, 0.5 * p, h)
            probe = lambda hh: (fn(p + hh, thetas, phis)
                                - fn(p - hh, thetas, phis)) / (2.0 * hh)
        elif axis == 1:
            t_lo = float(np.min(thetas))
            t_hi = float(np.max(thetas))
            h = min(1e-5, 0.5 * t_lo, 0.5 * (math.pi - t_hi))
            h = max(h, 1e-9)
            probe = lambda hh: (fn(p, thetas + hh, phis)
                                - fn(p, thetas - hh, phis)) / (2.0 * hh)
        else:
            h = 1e-5
            probe = lambda hh: (fn(p, thetas, phis + hh)
                                - fn(p, thetas, phis - hh)) / (2.0 * hh)
        d1 = probe(h)
        d2 = probe(0.5 * h)
        return (4.0 * d2 - d1) / 3.0

    def evaluate(self, p, thetas, phis):
        """Value, d_p, d_theta and d_phi stacked, shape
        (4, n_p, n_theta, n_phi)."""
        shape = (p.shape[0], thetas.shape[1], phis.shape[2])
        if self.fn is None:
            return np.zeros((4,) + shape, dtype=complex)
        if self.partials is not None:
            grads = [g(p, thetas, phis) for g in self.partials]
        else:
            grads = [self._numeric_partial(p, thetas, phis, ax) for ax in range(3)]
        return np.stack([_on_grid(v, shape)
                         for v in [self.fn(p, thetas, phis)] + grads])


def dispersion_functional(amp: AmplitudePair, cfg: QuadConfig = QuadConfig(),
                          mass: float = 1.0) -> DispersionReport:
    """Norm and dispersions of the state sum_s u(p,s) f(p,s).

    mass is the electron mass in the units of p (default 1); mass = 0 is the
    ultrarelativistic limit, large mass the nonrelativistic one.
    """
    if amp.f_plus is None and amp.f_minus is None:
        raise ValueError("at least one spin amplitude must be supplied")
    if mass < 0.0 or not math.isfinite(mass):
        raise ValueError("mass must be a finite non-negative real")
    cfg = cfg.validated()

    spins = (_Amplitude(amp.f_plus, amp.partials_plus),
             _Amplitude(amp.f_minus, amp.partials_minus))

    # The bispinors and frame vectors put explicit e^{i k phi} factors
    # (|k| <= 3) into every integrand even when the amplitudes carry none,
    # so phi is always a trapezoid sum, spectrally accurate for smooth
    # periodic amplitudes.
    phis = np.linspace(0.0, 2.0 * math.pi, _N_PHI, endpoint=False)[None, None, :]
    w_phi = 2.0 * math.pi / _N_PHI
    cp, sp = np.cos(phis), np.sin(phis)
    e_mphi = np.exp(-1j * phis)

    def phi_sum(x):
        return w_phi * np.sum(x, axis=-1)

    # rows: 0 norm, 1 p-second-moment, 2 r-second-moment,
    #       3..5 <p> components, 6..8 <r> components
    def rows(p: np.ndarray, thetas: np.ndarray) -> np.ndarray:
        # grid axes (p, theta, phi); the phi sum drops the last
        p, th = p[..., None], thetas[..., None]
        st = np.sin(th)
        ct = np.cos(th)
        e = np.hypot(mass, p)
        rel = 1.0 - mass / e  # (1 - m/E)
        coef_f = rel + (mass * p) ** 2 / (4.0 * e ** 4)

        # fg: (value / d_p / d_theta / d_phi, spin, p, theta, phi)
        fg = np.stack([s.evaluate(p, th, phis) for s in spins], axis=1)
        fp, fm = fg[0]
        g = fg[1:]
        gp, gm = g[:, 0], g[:, 1]
        dens = np.abs(fp) ** 2 + np.abs(fm) ** 2
        grad_sq = np.sum(np.abs(g) ** 2, axis=1)

        out = np.empty((9,) + dens.shape[:-1])
        out[0] = phi_sum(p * p * st * dens)
        out[1] = phi_sum(p ** 4 * st * dens)

        r2 = (p * p * grad_sq[0] + grad_sq[1] + grad_sq[2] / st ** 2
              + coef_f * dens
              + rel * ((np.conj(fp) * gp[2]).imag - (np.conj(fm) * gm[2]).imag))
        # antisymmetrized theta and phi derivatives between the spins
        anti_t, anti_f = np.conj(fp) * gm[1:] - fm * np.conj(gp[1:])
        # relative minus: theta connection between spins is antisymmetric
        cross = (1j * (ct / st) * anti_f - anti_t) * e_mphi
        out[2] = phi_sum(st * (r2 + rel * cross.real))

        for k, n_k in enumerate((st * cp, st * sp, ct)):
            out[3 + k] = phi_sum(p ** 3 * st * n_k * dens)

        # <r> = Re conj(psi) . i grad_p psi, Cartesian components via
        # the spherical frame vectors.
        u, du = _bispinor_block(p, th, phis, mass)
        conj_psi = np.conj(u[0] * fp + u[1] * fm)
        # one derivative axis at a time: a temporary holding all three is
        # large enough that malloc hands it back to the OS on every call,
        # and re-faulting its pages doubled the cost of this function
        a_p, a_t, a_f = (
            -np.sum(conj_psi * (du[k, 0] * fp + u[0] * gp[k]
                                + du[k, 1] * fm + u[1] * gm[k]), axis=0).imag
            for k in range(3))
        a_t = a_t / p
        a_f = a_f / (p * st)
        out[6] = phi_sum(p * p * st * (a_p * st * cp + a_t * ct * cp - a_f * sp))
        out[7] = phi_sum(p * p * st * (a_p * st * sp + a_t * ct * sp + a_f * cp))
        out[8] = phi_sum(p * p * st * (a_p * ct - a_t * st))
        return out

    res = integrate_2d(rows, cfg, control_rows=[0, 1, 2])
    return DispersionReport.from_integrals(res.value, res.est_abs_error)
