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
moments <r> come from the identity r psi ~ i grad_p acting on the
4-component momentum wave function psi = sum_s u(p,s) f(p,s).  As the u(s)
are orthonormal,

    psi* . d psi = sum_s f_s* d f_s + sum_{s's} f_{s'}* A[s',s] f_s,

with the spin connection A = <u(s')|d u(s)> in closed form (rel = 1 - m/E):

    A_p = 0,
    A_theta = (rel/2) [[0, e^{-i phi}], [-e^{i phi}, 0]],
    A_phi = i (rel/2) [[sin^2, -sin cos e^{-i phi}],
                       [-sin cos e^{i phi}, -sin^2]],

so the <r> rows need the amplitudes and their partials only, never a
bispinor on the grid; <p> needs only the amplitude density.  Both means are
always computed and subtracted from the second moments.

The (p, theta) integral is quadrature.integrate_exp_sinh.  The phi
integral is a trapezoid sum, exact for harmonics below its node count.
Each integrand call of that rule (at most 16 p nodes on one theta rule)
sums every row under rules of n and n + 1 nodes, n = 8, 16, ..., 256,
until the two agree to 0.01 rel_tol (n epsilons at least) of its
largest norm-plus-second-moment integrand, keeps the (n + 1)-node sums,
and raises QuadratureError if they never do (a jump in phi); ending the
ladder at 256 bounds what such a call costs.
The first integrand call starts the ladder at 8/9, each later one at the
pair the call before it accepted, still checked against its own n + 1
partner.  Smooth states accept 8/9, the harmonic-15 state of the tests
climbs once to 32/33.
Coprime rules alias alike only at multiples of n (n + 1), nested ones
(n, 2n) at all multiples of 2n.  A pair evaluates amplitudes
and partials once, on the (p, theta, phi) grid of its 2n + 1 nodes, in one
broadcast NumPy pass: amplitudes are called as
f(ps[:, None, None], thetas[None, :, None], phis[None, None, :]) and return
complex values that broadcast to (n_p, n_theta, n_phi).  An amplitude that
does not depend on phi may return size 1 on the phi axis; any other shape
raises ValueError.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .quadrature import QuadConfig, QuadratureError, QuadResult, integrate_exp_sinh

__all__ = ["MomentumPoint", "Bispinor", "AmplitudePair", "DispersionReport",
           "bispinor_u", "bispinor_partials", "dispersion_functional"]

_N_PHI_PAIRS = tuple(8 << k for k in range(6))  # (n, n + 1) for n = 8..256

AmpFunc = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


class MomentumPoint(NamedTuple("MomentumPoint", [
        ("p", float), ("theta", float), ("phi", float)])):
    """Spherical momentum coordinates; p in units of mc (m = 1 internally)."""

    __slots__ = ()

    def __new__(cls, p: float, theta: float, phi: float):
        if not (p >= 0.0) or not math.isfinite(p):
            raise ValueError("p must be a finite non-negative real")
        if not (0.0 <= theta <= math.pi):
            raise ValueError("theta must lie in [0, pi]")
        return super().__new__(cls, p, theta, phi)

    # the base's _make, which _replace calls, skips __new__ and its checks;
    # copy and pickle call __new__
    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def energy(self) -> float:
        return math.hypot(1.0, self.p)


class Bispinor(NamedTuple("Bispinor", [("components", np.ndarray)])):
    """components: shape (4,), complex."""

    __slots__ = ()

    def __new__(cls, components):
        arr = np.asarray(components, dtype=complex)
        if arr.shape != (4,):
            raise ValueError("a bispinor has exactly 4 components")
        if not np.all(np.isfinite(arr.view(float))):
            raise ValueError("bispinor components must be finite")
        return super().__new__(cls, arr)

    _make = classmethod(lambda cls, fields: cls(*fields))


def _check_spin(s: int) -> int:
    if s not in (+1, -1):
        raise ValueError("spin must be +1 or -1")
    return s


def _bispinor_block(p, theta, phi):
    """Weyl bispinors (m = 1) and their analytic partials on a grid.

    p, theta and phi broadcast against each other.  Returns u of shape
    (2, 4) + the broadcast shape, and its partials (d_p, d_theta, d_phi)
    stacked along a leading axis, shape (3, 2, 4) + the broadcast shape.
    On the spin axis, index 0 is spin +1 and index 1 is spin -1.  Only the
    pointwise bispinor_u and bispinor_partials use it: the dispersion
    functional needs no bispinor, only their closed-form connection.
    """
    e = np.hypot(1.0, p)
    ct, st = np.cos(theta), np.sin(theta)
    pz = p * ct
    eiphi = np.cos(phi) + 1j * np.sin(phi)
    pxy = p * st * eiphi  # p_x + i p_y
    big = 1.0 + e
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
    u, _ = _bispinor_block(pt.p, pt.theta, pt.phi)
    return Bispinor(components=u[(1 - s) // 2])


def bispinor_partials(pt: MomentumPoint, s: int) -> tuple[Bispinor, Bispinor, Bispinor]:
    """Analytic (d_p, d_theta, d_phi) of u(p, s) at a point, m = 1."""
    _check_spin(s)
    _, du = _bispinor_block(pt.p, pt.theta, pt.phi)
    return tuple(Bispinor(components=d) for d in du[:, (1 - s) // 2])


class AmplitudePair(NamedTuple):
    """Momentum-space amplitudes f(p, theta, phi) for the two spin signs.

    Each amplitude is called on a (p, theta, phi) grid as
    f(ps[:, None, None], thetas[None, :, None], phis[None, None, :]) and
    returns complex values that broadcast to (n_p, n_theta, n_phi); an
    amplitude that does not depend on phi may return size 1 on the phi
    axis.  Use NumPy functions of p, not math ones: p is an array.
    f_minus may be None for a pure spin-up state.  partials_* optionally
    supply analytic (d_p, d_theta, d_phi) with the same calling
    convention; otherwise central differences with one Richardson pass are
    used, with the step 1e-3 p at each p node and 1e-3 in theta (less
    near the poles) and phi.  With a jump in phi the phi sums never
    converge, and dispersion_functional raises QuadratureError.
    """

    f_plus: Optional[AmpFunc]
    f_minus: Optional[AmpFunc] = None
    partials_plus: Optional[Sequence[AmpFunc]] = None
    partials_minus: Optional[Sequence[AmpFunc]] = None


class DispersionReport(NamedTuple):
    """Dispersions of a state; err_est is the quadrature's error estimate
    carried into gamma (see from_integrals), evaluations the number of
    (p, theta) points at which the quadrature evaluated the integrand."""

    norm_sq: float
    mean_r: np.ndarray
    mean_p: np.ndarray
    delta_r_sq: float
    delta_p_sq: float
    gamma: float
    err_est: float
    evaluations: int

    @classmethod
    def from_integrals(cls, res: QuadResult) -> "DispersionReport":
        """Report from the QuadResult of nine integrals over the
        unnormalized state.

        Rows: 0 norm, 1 p-second-moment, 2 r-second-moment, 3..5 <p> and
        6..8 <r> components.  err_est propagates the estimated absolute
        errors to first order, in absolute values, through the
        normalization, the mean subtraction and
        gamma = sqrt(delta_r_sq delta_p_sq).
        """
        vals = res.value
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
        errs = np.abs(np.asarray(res.est_abs_error, dtype=float))

        def spread_err(second, mean, e_second, e_mean):
            # d(S/N - |M|^2/N^2) = (dS - (S/N - 2|m|^2) dN - 2 m.dM) / N
            return (e_second + abs(second - 2.0 * float(mean @ mean)) * errs[0]
                    + 2.0 * float(np.abs(mean) @ e_mean)) / norm_sq

        gamma = math.sqrt(delta_r_sq * delta_p_sq)
        rel_p = spread_err(second_p, mean_p, errs[1], errs[3:6]) / delta_p_sq
        rel_r = spread_err(second_r, mean_r, errs[2], errs[6:9]) / delta_r_sq
        return cls(norm_sq=norm_sq, mean_r=mean_r, mean_p=mean_p,
                   delta_r_sq=delta_r_sq, delta_p_sq=delta_p_sq, gamma=gamma,
                   err_est=0.5 * gamma * (rel_p + rel_r),
                   evaluations=res.evaluations)


def _on_grid(out, shape: tuple[int, int, int]) -> np.ndarray:
    """An amplitude's output as a complex array of the grid shape."""
    out = np.asarray(out, dtype=complex)
    try:
        return np.broadcast_to(out, shape)
    except ValueError:
        raise ValueError(f"amplitude returned shape {out.shape}, which does "
                         f"not broadcast to (n_p, n_theta, n_phi) = {shape}"
                         ) from None


@functools.lru_cache(maxsize=None)  # called with _N_PHI_PAIRS only
def _trapezoid_pair(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The nodes of the n- and (n + 1)-node phi trapezoid rules on a
    (1, 1, 2n + 1) grid, and (2n + 1, 6) weights for the plain, cos(phi)-
    and sin(phi)-weighted sums under each; read-only, as the cache shares
    them."""
    phis = np.concatenate([np.linspace(0.0, 2.0 * math.pi, k, endpoint=False)
                           for k in (n, n + 1)])
    harmonics = np.stack([np.ones_like(phis), np.cos(phis), np.sin(phis)], 1)
    in_n = (np.arange(2 * n + 1) < n)[:, None]
    w_phi = 2.0 * math.pi * np.hstack([harmonics * in_n / n,
                                       harmonics * ~in_n / (n + 1)])
    phis.flags.writeable = w_phi.flags.writeable = False
    return phis[None, None, :], w_phi


class _Amplitude:
    """One spin component with analytic or numeric partial derivatives."""

    def __init__(self, fn: Optional[AmpFunc],
                 partials: Optional[Sequence[AmpFunc]]):
        self.fn = fn
        if partials is not None and len(partials) != 3:
            raise ValueError("partials must be (d_p, d_theta, d_phi)")
        self.partials = partials

    def _numeric_partial(self, coords, axis: int):
        # Central difference in coords[axis] of (p, thetas, phis) with one
        # Richardson pass; steps never leave the coordinate domain.  The
        # pass leaves an O(h^4) error against O(eps/h) rounding, so h is
        # about eps^(1/5) = 1e-3.
        x = coords[axis]
        if axis == 0:
            h = 1e-3 * x  # the quadrature's p nodes are all positive
        elif axis == 1:
            h = max(min(1e-3, 0.5 * float(np.min(x)),
                        0.5 * (math.pi - float(np.max(x)))), 1e-9)
        else:
            h = 1e-3

        def probe(hh):
            lo, hi = list(coords), list(coords)
            lo[axis], hi[axis] = x - hh, x + hh
            return (self.fn(*hi) - self.fn(*lo)) / (2.0 * hh)

        d1 = probe(h)
        d2 = probe(0.5 * h)
        return (4.0 * d2 - d1) / 3.0

    def evaluate(self, p, thetas, phis):
        """[value, d_p, d_theta, d_phi], each broadcast to
        (n_p, n_theta, n_phi); a missing spin gives size-1 zeros."""
        if self.fn is None:
            return [np.zeros((1, 1, 1), dtype=complex)] * 4
        shape = (p.shape[0], thetas.shape[1], phis.shape[2])
        if self.partials is not None:
            grads = [g(p, thetas, phis) for g in self.partials]
        else:
            grads = [self._numeric_partial((p, thetas, phis), ax)
                     for ax in range(3)]
        return [_on_grid(v, shape) for v in [self.fn(p, thetas, phis)] + grads]


def dispersion_functional(amp: AmplitudePair, cfg: QuadConfig = QuadConfig(),
                          mass: float = 1.0) -> DispersionReport:
    """Norm and dispersions of the state sum_s u(p,s) f(p,s).

    mass is the electron mass in the units of p (default 1); mass = 0 is the
    ultrarelativistic limit, large mass the nonrelativistic one.  Raises
    QuadratureError, and returns no value, when the quadrature misses cfg's
    tolerances or the phi sums do not converge (module docstring).
    """
    if amp.f_plus is None and amp.f_minus is None:
        raise ValueError("at least one spin amplitude must be supplied")
    if mass < 0.0 or not math.isfinite(mass):
        raise ValueError("mass must be a finite non-negative real")
    cfg = cfg.validated()

    spins = (_Amplitude(amp.f_plus, amp.partials_plus),
             _Amplitude(amp.f_minus, amp.partials_minus))

    def moments(x, w_phi):
        """Sums of x, x cos(phi), x sin(phi) per rule: (2, n_p, n_theta, 1)."""
        m = (x @ w_phi).reshape(x.shape[:-1] + (2, 3))
        return np.moveaxis(m, (-1, -2), (0, 1))[..., None]

    start = 0  # index of the pair the previous integrand call accepted

    # rows: 0 norm, 1 p-second-moment, 2 r-second-moment,
    #       3..5 <p> components, 6..8 <r> components
    def rows(p: np.ndarray, thetas: np.ndarray) -> np.ndarray:
        nonlocal start
        # grid axes (p, theta, phi); the phi moments keep the last, size 1
        p, th = p[..., None], thetas[..., None]
        st = np.sin(th)
        ct = np.cos(th)
        e = np.hypot(mass, p)
        rel = 1.0 - mass / e  # (1 - m/E)
        coef_f = rel + (mass * p) ** 2 / (4.0 * e ** 4)
        w = p * p * st
        for k in range(start, len(_N_PHI_PAIRS)):
            n_phi = _N_PHI_PAIRS[k]
            phis, w_phi = _trapezoid_pair(n_phi)
            (fp, *gp), (fm, *gm) = (s.evaluate(p, th, phis) for s in spins)
            dens_p, dens_m = np.abs(fp) ** 2, np.abs(fm) ** 2
            dens = dens_p + dens_m
            grad_sq = [np.abs(a) ** 2 + np.abs(b) ** 2 for a, b in zip(gp, gm)]
            # Im(f_s* d_k f_s) per spin, k = p, theta, phi
            im_p = [(np.conj(fp) * d).imag for d in gp]
            im_m = [(np.conj(fm) * d).imag for d in gm]

            # antisymmetrized theta and phi derivatives between the spins
            anti_t, anti_f = (np.conj(fp) * b - fm * np.conj(a)
                              for a, b in zip(gp[1:], gm[1:]))
            # relative minus: theta connection between spins is antisymmetric
            e_mphi = np.exp(-1j * phis)
            cross = (1j * (ct / st) * anti_f - anti_t) * e_mphi
            r2 = (p * p * grad_sq[0] + grad_sq[1] + grad_sq[2] / st ** 2
                  + coef_f * dens + rel * (im_p[2] - im_m[2] + cross.real))

            # <r> = Re conj(psi) . i grad_p psi, Cartesian components via
            # the spherical frame vectors.  With z = f+* f- e^{-i phi}, the
            # spin connection of the module docstring adds -rel Im z to the
            # theta component, -(rel/2)(sin^2 (|f+|^2 - |f-|^2) - 2 sin cos
            # Re z) to the phi component and nothing to the p component.
            z = np.conj(fp) * fm * e_mphi
            a_p, a_t, a_f = (-(a + b) for a, b in zip(im_p, im_m))
            a_t = a_t - rel * z.imag
            a_f = a_f - 0.5 * rel * (st * st * (dens_p - dens_m)
                                     - 2.0 * st * ct * z.real)

            n, n_c, n_s = moments(dens, w_phi)
            ap, ap_c, ap_s = moments(a_p, w_phi)
            at, at_c, at_s = moments(a_t, w_phi) / p
            af, af_c, af_s = moments(a_f, w_phi) / (p * st)
            t_n, t_n1 = np.stack([
                w * n, w * p * p * n, st * moments(r2, w_phi)[0],
                w * p * st * n_c, w * p * st * n_s, w * p * ct * n,
                w * (st * ap_c + ct * at_c - af_s),
                w * (st * ap_s + ct * at_s + af_c),
                w * (ct * ap - st * at),
            ], axis=1)[..., 0]
            # n_phi eps bounds the sums' rounding (<= 1e-16 n_phi of scale
            # measured); a non-finite row passes, for the quadrature to reject
            scale = np.max(np.abs(t_n1[0]) + np.abs(t_n1[1]) + np.abs(t_n1[2]))
            tol = max(0.01 * cfg.rel_tol, n_phi * np.finfo(float).eps) * scale
            if not np.max(np.abs(t_n1 - t_n)) > tol:
                start = k
                return t_n1
        raise QuadratureError(f"phi sums unconverged at {n_phi + 1} nodes")

    return DispersionReport.from_integrals(
        integrate_exp_sinh(rows, cfg, control_rows=[0, 1, 2]))
