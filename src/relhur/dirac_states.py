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
integral is a trapezoid sum, exact for harmonics below its node count,
under a pair of rules of n and n + 1 nodes, n = 8, 16, ..., 256: coprime
rules alias alike only at multiples of n (n + 1), nested ones (n, 2n) at
all multiples of 2n.  The pair is picked once per dispersion call, at two
check points.  On the first integrand call of integrate_exp_sinh, the
whole first t level at 8 theta nodes, both rules sum every row, and the
sums must agree to 0.01 rel_tol (n epsilons at least) of the call's
largest norm-plus-second-moment integrand.  Every later call sums the
n + 1 nodes only.  After the quadrature returns, the n-node rule re-checks
the nodes of its last call, the level on which the t step converged,
against the (n + 1)-node sums of that call.  A disagreement in either
check ends the integration, which starts again from the first level at
the next pair; past 256/257 (a jump in phi) QuadratureError is raised,
which bounds what such a state costs.  A non-finite n-node sum raises it
too, as the quadrature sees the n + 1 nodes only.  Smooth states keep
8/9; the harmonic-15 state of the tests climbs to 32/33 on the first call,
and a state whose harmonics live only between the first level's p nodes
climbs at the re-check.

An integrand call evaluates amplitudes and partials in one broadcast NumPy
pass per chunk of p nodes, at most 16 x 12 x 17 = 3264 (p, theta, phi)
points a chunk: amplitudes are called as
f(ps[:, None, None], thetas[None, :, None], phis[None, None, :]) and return
either their complex values, which broadcast to (n_p, n_theta, n_phi), or
the tuple (values, d_p, d_theta, d_phi) of those values and their analytic
partials, each broadcasting alike.  An amplitude that returns the tuple is
called once a chunk; one that returns values only gets numeric partials
from one more call per axis, on four shifted copies of the grid stacked.
An array that does not depend on phi may have size 1 on the phi axis,
and is worked on at that size; any other shape raises ValueError.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .quadrature import QuadConfig, QuadratureError, integrate_exp_sinh

__all__ = ["AmplitudePair", "DispersionReport", "bispinor_u",
           "dispersion_functional"]

_N_PHI_PAIRS = tuple(8 << k for k in range(6))  # (n, n + 1) for n = 8..256
_GRID_POINTS = 16 * 12 * 17  # (p, theta, phi) points per amplitude chunk

AmpFunc = Callable[[np.ndarray, np.ndarray, np.ndarray],
                   Union[np.ndarray, tuple]]


def bispinor_u(p: float, theta: float, phi: float, s: int) -> np.ndarray:
    """Orthonormal positive-energy Weyl bispinor u(p, s) at the spherical
    momentum (p, theta, phi), p in units of mc (m = 1): a complex array of
    shape (4,).

    u = [(1 + E + sigma.p) chi_s ; (1 + E - sigma.p) chi_s] / D in the Weyl
    basis, with D = 2 sqrt(E) sqrt(1 + E), chi_+ = (1, 0) and
    chi_- = (0, 1).  The dispersion functional builds no bispinor.
    """
    if not (p >= 0.0) or not math.isfinite(p):
        raise ValueError("p must be a finite non-negative real")
    if not (0.0 <= theta <= math.pi):
        raise ValueError("theta must lie in [0, pi]")
    if not math.isfinite(phi):
        raise ValueError("phi must be finite")
    if s not in (+1, -1):
        raise ValueError("spin must be +1 or -1")
    s = 1 if s == 1 else -1  # an int, to slice with: 1.0 and np.int64 pass
    e = math.hypot(1.0, p)
    big = 1.0 + e
    # D overflows from p = 9e307 (4 E (1 + E) from 7e153), and 1 + E + |p_z|
    # near the poles; above 2^1000 D and the numerators are halved, which is
    # exact there, and not for a subnormal p_x or p_y
    h = 0.5 if p > 2.0 ** 1000 else 1.0
    d = 2.0 * h * math.sqrt(e) * math.sqrt(big)
    pz = h * p * math.cos(theta)
    pxy = h * p * math.sin(theta) * complex(math.cos(phi), math.sin(phi))
    # each half is [1 + E +- s p_z, +-w], w = p_x +- i p_y, reversed for
    # chi_-.  Python divides a complex by a float part by part, exactly
    w = pxy if s > 0 else pxy.conjugate()
    top, bottom = [h * big + s * pz, w], [h * big - s * pz, -w]
    return np.array([x / d for x in top[::s] + bottom[::s]],
                    dtype=complex)


class AmplitudePair(NamedTuple):
    """Momentum-space amplitudes f(p, theta, phi) for the two spin signs.

    Each amplitude is called on a (p, theta, phi) grid as
    f(ps[:, None, None], thetas[None, :, None], phis[None, None, :]) and
    returns either complex values that broadcast to (n_p, n_theta, n_phi),
    or the tuple (values, d_p, d_theta, d_phi) with its analytic partials,
    each broadcasting alike; an array that does not depend on phi may have
    size 1 on the phi axis.  Use NumPy functions of p, not math ones: p is
    an array.  f_minus may be None for a pure spin-up state.  An amplitude
    that returns values only gets central differences with one Richardson
    pass, with the step 1e-3 p at each p node and 1e-3 in theta (less near
    the poles) and phi.  With a jump in phi the phi sums never converge,
    and dispersion_functional raises QuadratureError.
    """

    f_plus: Optional[AmpFunc]
    f_minus: Optional[AmpFunc] = None


class DispersionReport(NamedTuple):
    """Dispersions of a state, all floats, the means as (x, y, z) tuples, so
    reports compare and hash by value.  err_est is the quadrature's error
    estimate carried into gamma (see from_integrals), evaluations its count
    of integrand points: (p, theta) points for dispersion_functional,
    counting the re-check of the phi pair and the integrations that a
    rejected pair ended (module docstring), t nodes for hydrogen.oracle_gamma,
    and the nodes of the four bessel_sums rows behind hopfion.gamma_h."""

    norm_sq: float
    mean_r: tuple[float, float, float]
    mean_p: tuple[float, float, float]
    delta_r_sq: float
    delta_p_sq: float
    gamma: float
    err_est: float
    evaluations: int

    @classmethod
    def from_integrals(cls, values, est_abs_error,
                       evaluations: int) -> "DispersionReport":
        """Report from nine integrals over the unnormalized state, their
        estimated absolute errors and the count of integrand points.

        Rows: 0 norm, 1 p-second-moment, 2 r-second-moment, 3..5 <p> and
        6..8 <r> components.  err_est propagates the estimated absolute
        errors to first order, in absolute values, through the
        normalization, the mean subtraction and
        gamma = sqrt(delta_r_sq delta_p_sq).
        """
        norm_sq = float(values[0])
        if not (norm_sq > 0.0) or not math.isfinite(norm_sq):
            raise ValueError("state is not normalizable (norm integral invalid)")
        mean_p = np.array(values[3:6]) / norm_sq
        mean_r = np.array(values[6:9]) / norm_sq
        second_p = float(values[1]) / norm_sq
        second_r = float(values[2]) / norm_sq
        delta_p_sq = second_p - float(mean_p @ mean_p)
        delta_r_sq = second_r - float(mean_r @ mean_r)
        if delta_p_sq <= 0.0 or delta_r_sq <= 0.0:
            raise ValueError("dispersions came out non-positive; state invalid "
                             "or quadrature tolerance too loose")
        errs = np.abs(np.asarray(est_abs_error, dtype=float))

        def spread_err(second, mean, e_second, e_mean):
            # d(S/N - |M|^2/N^2) = (dS - (S/N - 2|m|^2) dN - 2 m.dM) / N
            return (e_second + abs(second - 2.0 * float(mean @ mean)) * errs[0]
                    + 2.0 * float(np.abs(mean) @ e_mean)) / norm_sq

        gamma = math.sqrt(delta_r_sq * delta_p_sq)
        rel_p = spread_err(second_p, mean_p, errs[1], errs[3:6]) / delta_p_sq
        rel_r = spread_err(second_r, mean_r, errs[2], errs[6:9]) / delta_r_sq
        return cls(norm_sq=norm_sq, mean_r=tuple(mean_r.tolist()),
                   mean_p=tuple(mean_p.tolist()),
                   delta_r_sq=delta_r_sq, delta_p_sq=delta_p_sq, gamma=gamma,
                   err_est=float(0.5 * gamma * (rel_p + rel_r)),
                   evaluations=evaluations)


def _on_grid(out, shape: tuple[int, int, int]) -> np.ndarray:
    """An amplitude's output as a complex array that broadcasts to the grid
    shape, left at its own shape."""
    out = np.asarray(out, dtype=complex)
    if out.ndim > 3 or any(k not in (1, n) for k, n in
                           zip(out.shape[::-1], shape[::-1])):
        raise ValueError(f"amplitude returned shape {out.shape}, which does "
                         f"not broadcast to (n_p, n_theta, n_phi) = {shape}")
    return out


@functools.lru_cache(maxsize=None)  # called with the rules of _N_PHI_PAIRS
def _phi_rules(sizes: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The nodes of the phi trapezoid rules of the given sizes, side by side
    on a (1, 1, sum(sizes)) grid, and (sum(sizes), 3 len(sizes)) weights
    for the plain, cos(phi)- and sin(phi)-weighted sums under each;
    read-only, as the cache shares them."""
    phis = np.concatenate([np.linspace(0.0, 2.0 * math.pi, k, endpoint=False)
                           for k in sizes])
    harmonics = np.stack([np.ones_like(phis), np.cos(phis), np.sin(phis)], 1)
    w_phi = np.zeros((phis.size, 3 * len(sizes)))
    for r, (start, k) in enumerate(zip(np.cumsum((0,) + sizes), sizes)):
        w_phi[start:start + k, 3 * r:3 * r + 3] = 2.0 * math.pi * (
            harmonics[start:start + k] / k)
    phis.flags.writeable = w_phi.flags.writeable = False
    return phis[None, None, :], w_phi


def _numeric_partial(fn: AmpFunc, coords, shape, axis: int):
    """d fn / d coords[axis] on the grid of coords = (p, thetas, phis), by
    central differences with one Richardson pass; steps never leave the
    coordinate domain.  The pass leaves an O(h^4) error against O(eps/h)
    rounding, so h is about eps^(1/5) = 1e-3.  The probes x + h, x - h,
    x + h/2 and x - h/2 go to fn in one call, stacked along the axis."""
    x = coords[axis]
    if axis == 0:
        h = 1e-3 * x  # the quadrature's p nodes are all positive
    elif axis == 1:
        h = max(min(1e-3, 0.5 * float(np.min(x)),
                    0.5 * (math.pi - float(np.max(x)))), 1e-9)
    else:
        h = 1e-3
    probes = list(coords)
    probes[axis] = np.concatenate(
        [x + h, x - h, x + 0.5 * h, x - 0.5 * h], axis=axis)
    y = _on_grid(fn(*probes),
                 shape[:axis] + (4 * shape[axis],) + shape[axis + 1:])
    y = y.reshape((1,) * (3 - y.ndim) + y.shape)
    if y.shape[axis] == 1:  # the amplitude does not depend on the axis
        return np.zeros_like(y)
    hi, lo, hi_2, lo_2 = np.moveaxis(
        y.reshape(y.shape[:axis] + (4, -1) + y.shape[axis + 1:]), axis, 0)
    # NumPy divides a complex array by a real r as a product with 1/r;
    # the products below give those bits without the division's branches
    d1 = (hi - lo) * (1.0 / (2.0 * h))
    d2 = (hi_2 - lo_2) * (1.0 / h)
    return (4.0 * d2 - d1) * (1.0 / 3.0)


def _spin_fields(fn: Optional[AmpFunc], p, thetas, phis):
    """[value, d_p, d_theta, d_phi] of one spin's amplitude, each
    broadcasting to (n_p, n_theta, n_phi) at its own shape; a missing spin
    gives zeros (AmplitudePair for what fn returns)."""
    if fn is None:
        return [0.0] * 4
    shape = (p.shape[0], thetas.shape[1], phis.shape[2])
    out = fn(p, thetas, phis)
    if not isinstance(out, tuple):
        return [_on_grid(out, shape)] + [
            _numeric_partial(fn, (p, thetas, phis), shape, ax)
            for ax in range(3)]
    if len(out) != 4:
        raise ValueError(f"an amplitude returns its values or (values, d_p, "
                         f"d_theta, d_phi) with its partials, not a tuple of "
                         f"{len(out)}")
    return [_on_grid(x, shape) for x in out]


class _PairRejected(Exception):
    """The n- and (n + 1)-node phi sums of an integrand call disagree."""


def _phi_moments(spins, mass, p, th, phis, w_phi):
    """Phi sums of the five fields below of the AmplitudePair spins on the
    (p, theta, phi) grid: the plain, cos(phi)- and sin(phi)-weighted sums
    under each rule of w_phi, shape (5, n_p, n_theta, n_rules, 3)."""
    st = np.sin(th)
    ct = np.cos(th)
    e = np.hypot(mass, p)
    rel = 1.0 - mass / e  # (1 - m/E)
    # (m p)^2 / (4 E^4); (m p)^2 alone overflows from m = 3.2e135
    coef_f = rel + 0.25 * ((mass / e) * (p / e)) ** 2
    (fp, *gp), (fm, *gm) = (_spin_fields(f, p, th, phis) for f in spins)
    cp, cm = np.conj(fp), np.conj(fm)
    dens_p, dens_m = (cp * fp).real, (cm * fm).real
    grad_sq = [(np.conj(a) * a).real + (np.conj(b) * b).real
               for a, b in zip(gp, gm)]
    # Im(f_s* d_k f_s) per spin, k = p, theta, phi
    im_p = [(cp * d).imag for d in gp]
    im_m = [(cm * d).imag for d in gm]
    if all(f is not None for f in spins):
        # antisymmetrized theta and phi derivatives between the spins;
        # relative minus: theta connection between spins is antisymmetric
        e_mphi = np.exp(-1j * phis)
        anti_t, anti_f = (cp * b - fm * np.conj(a)
                          for a, b in zip(gp[1:], gm[1:]))
        cross = (((1j * (ct / st)) * anti_f - anti_t) * e_mphi).real
        z = cp * fm * e_mphi
        re_z, im_z = z.real, z.imag
    else:  # a single spin: no term between the spins
        cross = re_z = im_z = 0.0

    shape = (p.shape[0], th.shape[1], phis.shape[2])
    fields = np.empty((5,) + shape)
    dens = np.add(dens_p, dens_m, out=fields[0])
    fields[1] = (p * p * grad_sq[0] + grad_sq[1] + grad_sq[2] / st ** 2
                 + coef_f * dens + rel * (im_p[2] - im_m[2] + cross))
    # fields 2..4: minus the e_p component of Re conj(psi) . i grad_p psi,
    # and minus p and p sin(theta) times its e_theta and e_phi components.
    # With z = f+* f- e^{-i phi}, the spin connection of the module
    # docstring adds -rel Im z to the theta component, -(rel/2)(sin^2
    # (|f+|^2 - |f-|^2) - 2 sin cos Re z) to the phi component and nothing
    # to the p component.
    np.add(im_p[0], im_m[0], out=fields[2])
    fields[3] = im_p[1] + im_m[1] + rel * im_z
    fields[4] = im_p[2] + im_m[2] + 0.5 * rel * (st * st * (dens_p - dens_m)
                                                  - 2.0 * st * ct * re_z)
    return (fields.reshape(-1, shape[2]) @ w_phi).reshape(
        (5,) + shape[:2] + (-1, 3))


def _rows(m, p, thetas):
    """The nine rows per phi rule, (n_rules, 9, n_p, n_theta), from the phi
    moments m of _phi_moments on the (n_p, 1) nodes p and (1, n_theta)
    nodes thetas: 0 norm, 1 p-second-moment, 2 r-second-moment, 3..5 <p>
    components, 6..8 <r> components."""
    st, ct = np.sin(thetas), np.cos(thetas)
    w = p * p * st
    (n, n_c, n_s), r2, (ap, ap_c, ap_s), (at, at_c, at_s), (af, af_c, af_s) = (
        np.moveaxis(x, (-1, -2), (0, 1)) for x in m)
    r2, at, at_c, at_s = r2[0], at / p, at_c / p, at_s / p
    af_c, af_s = af_c / (p * st), af_s / (p * st)
    # <r> components by the spherical frame vectors, from the negated
    # components of _phi_moments
    return np.stack([
        w * n, w * p * p * n, st * r2,
        w * p * st * n_c, w * p * st * n_s, w * p * ct * n,
        -(w * (st * ap_c + ct * at_c - af_s)),
        -(w * (st * ap_s + ct * at_s + af_c)),
        -(w * (ct * ap - st * at)),
    ], axis=1)


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

    def sums(p, thetas, sizes):
        """The nine rows under each phi rule of sizes, (len(sizes), 9, n_p,
        n_theta), in chunks of at most _GRID_POINTS (p, theta, phi) points."""
        phis, w_phi = _phi_rules(sizes)
        th = thetas[..., None]
        step = max(1, _GRID_POINTS // (th.size * phis.size))
        return _rows(np.concatenate([
            _phi_moments(amp, mass, p[k:k + step, :, None], th, phis, w_phi)
            for k in range(0, p.shape[0], step)], axis=1), p, thetas)

    def check(t_n, t_n1):
        # n eps bounds the sums' rounding (<= 1e-16 n of scale measured)
        if not np.all(np.isfinite(t_n)):
            raise QuadratureError(f"phi sums at {n} nodes are not finite")
        scale = np.max(np.abs(t_n1[0]) + np.abs(t_n1[1]) + np.abs(t_n1[2]))
        tol = max(0.01 * cfg.rel_tol, n * np.finfo(float).eps) * scale
        if np.max(np.abs(t_n1 - t_n)) > tol:
            raise _PairRejected

    def rows(p: np.ndarray, thetas: np.ndarray) -> np.ndarray:
        # both rules on the first call, then n + 1 nodes; the last re-checked
        nonlocal evals, last
        evals += p.size * thetas.size
        if last is None:
            t_n, t_n1 = sums(p, thetas, (n, n + 1))
            check(t_n, t_n1)
        else:
            (t_n1,) = sums(p, thetas, (n + 1,))
        last = p, thetas, t_n1  # integrate_exp_sinh only reads it
        return t_n1

    evals = 0
    for n in _N_PHI_PAIRS:
        last = None
        try:
            res = integrate_exp_sinh(rows, cfg, control_rows=[0, 1, 2])
            p, thetas, t_n1 = last
            evals += p.size * thetas.size
            check(*sums(p, thetas, (n,)), t_n1)
        except _PairRejected:
            continue
        return DispersionReport.from_integrals(res.value, res.est_abs_error,
                                               evals)
    raise QuadratureError(f"phi sums unconverged at {n + 1} nodes")
