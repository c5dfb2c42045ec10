"""Weyl bispinors and the dispersion functional.

The two gamma anchors (3/2 nonrelativistic, 1 + sqrt(5)/2 massless) have
closed-form minimizers, so they pin the full functional including every
mass-dependent and spin-connection term.
"""

import math
import sys

import numpy as np
import pytest
from scipy.integrate import quad

from relhur import (
    AmplitudePair,
    CoulombState,
    DispersionReport,
    HopfionState,
    QuadConfig,
    QuadratureError,
    bispinor_u,
    dispersion_functional,
    gamma_estimates,
    gamma_h,
    oracle_gamma,
    potential_v,
)
from relhur import dirac_states, hopfion, hydrogen

S_ULTRA = 0.5 * (math.sqrt(5.0) - 1.0)
RNG = np.random.default_rng(20250814)


def _random_points(n):
    p = RNG.uniform(0.0, 30.0, n)
    theta = RNG.uniform(0.0, math.pi, n)
    phi = RNG.uniform(0.0, 2.0 * math.pi, n)
    return [(float(a), float(b), float(c)) for a, b, c in zip(p, theta, phi)]


def bispinor_partials(p, theta, phi, s):
    """Analytic (d_p, d_theta, d_phi) of u(p, s) at a point, m = 1.

    u = [(1 + E + sigma.p) chi_s ; (1 + E - sigma.p) chi_s] / D in the Weyl
    basis, with D = 2 sqrt(E) sqrt(1 + E), chi_+ = (1, 0) and
    chi_- = (0, 1).  A partial takes d(1 + E) and d(sigma.p) into the
    numerator; d_p also subtracts u d_p(ln D).  The reference for the
    spin connection and the central differences below.
    """
    if s not in (+1, -1):
        raise ValueError("spin must be +1 or -1")
    e = math.hypot(1.0, p)
    ct, st = math.cos(theta), math.sin(theta)
    eiphi = complex(math.cos(phi), math.sin(phi))
    big = 1.0 + e
    d = 2.0 * math.sqrt(e) * math.sqrt(big)  # 4 E (1 + E) overflows at 7e153

    def spinor(c, nz, nxy):
        # (c +- sigma.n) chi_s / D for n_z = nz and n_x + i n_y = nxy: each
        # half is [c +- s nz, +-w], reversed for chi_-
        w = nxy if s > 0 else nxy.conjugate()
        top, bottom = [c + s * nz, w], [c - s * nz, -w]
        return [x / d for x in top[::s] + bottom[::s]]

    u = bispinor_u(p, theta, phi, s)
    # d(ln D)/dp; E' = p/E
    dlnd = 0.5 * (p / e) * (1.0 / e + 1.0 / big)
    d_p = [x - y * dlnd for x, y in zip(spinor(p / e, ct, st * eiphi), u)]
    return tuple(np.array(x, dtype=complex) for x in (
        d_p, spinor(0.0, -p * st, p * ct * eiphi),
        spinor(0.0, 0.0, 1j * (p * st * eiphi))))


def _gaussian(p, thetas, phi):
    return np.exp(-0.5 * p * p) * np.ones_like(thetas, dtype=complex)


def test_momentum_point_validation():
    for p in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="p must"):
            bispinor_u(p, 0.5, 0.0, +1)
    for theta in (-0.1, 3.5, math.nan):
        with pytest.raises(ValueError, match="theta"):
            bispinor_u(1.0, theta, 0.0, +1)
    for phi in (math.inf, math.nan):
        with pytest.raises(ValueError, match="phi"):
            bispinor_u(1.0, 0.5, phi, +1)
    for s in (0, 2, -2, True, np.True_):
        with pytest.raises(ValueError, match="spin"):
            bispinor_u(1.0, 0.5, 0.0, s)
    # the upper half's weight less the lower's is s p_z / E, E = sqrt(10)
    for s in (+1, -1):
        u = bispinor_u(3.0, 0.5, 0.0, s)
        assert u.shape == (4,) and u.dtype == complex
        chirality = np.vdot(u[:2], u[:2]).real - np.vdot(u[2:], u[2:]).real
        assert chirality == pytest.approx(
            s * 3.0 * math.cos(0.5) / math.sqrt(10.0), rel=1e-15)
    # a spin equal to +-1 of any numeric type is that int spin
    for s in (1.0, -1.0, np.int64(1), np.int64(-1), np.float64(-1.0)):
        u, ref = bispinor_u(1.0, 0.5, 0.3, s), bispinor_u(1.0, 0.5, 0.3, int(s))
        assert u.dtype == complex
        assert [z.hex() for z in u.view(float)] == [
            z.hex() for z in ref.view(float)]


def test_rest_frame_spin_up():
    u = bispinor_u(0.0, 0.3, 1.1, +1)
    expected = np.array([1.0 / math.sqrt(2.0), 0.0, 1.0 / math.sqrt(2.0), 0.0])
    assert np.max(np.abs(u - expected)) < 1e-14


def test_orthonormality_thousand_points():
    # and at momenta where 4 E (1 + E) would overflow (from p = 6.7e153),
    # and where D = 2 sqrt(E) sqrt(1 + E) and, at the poles, 1 + E + |p_z|
    # would (from p = 9e307)
    huge = [(p, 1.0, 2.0) for p in (1e154, 1e200, 1e300)]
    top = [(p, theta, 2.0) for p in (9e307, 1.7e308, sys.float_info.max)
           for theta in (0.0, 1.0, math.pi)]
    worst = 0.0
    for pt in _random_points(1000) + huge + top:
        up = bispinor_u(*pt, +1)
        um = bispinor_u(*pt, -1)
        worst = max(worst,
                    abs(np.vdot(up, up).real - 1.0),
                    abs(np.vdot(um, um).real - 1.0),
                    abs(np.vdot(up, um)))
    assert worst <= 1e-12
    for pt in huge:
        for s in (+1, -1):
            assert all(np.all(np.isfinite(d))
                       for d in bispinor_partials(*pt, s))


def test_cross_spin_overlap_zero():
    for pt in _random_points(100):
        up = bispinor_u(*pt, +1)
        um = bispinor_u(*pt, -1)
        assert abs(np.vdot(up, um)) <= 1e-13


def test_partials_match_central_differences():
    h = 1e-5
    points = _random_points(20)
    for s in (+1, -1):
        for pt in points:
            if pt[0] < 2 * h or not (2 * h < pt[1] < math.pi - 2 * h):
                continue
            dp, dth, dph = bispinor_partials(*pt, s)
            for ax, analytic in ((0, dp), (1, dth), (2, dph)):
                hi, lo = list(pt), list(pt)
                hi[ax] += h
                lo[ax] -= h
                num = (bispinor_u(*hi, s) - bispinor_u(*lo, s)) / (2 * h)
                assert np.max(np.abs(analytic - num)) < 1e-8
        # at p = 0, dE/dp = 0 and only the sigma.n term is left; p cannot go
        # below 0, so a one-sided second-order difference
        u = [bispinor_u(k * h, 0.7, 2.3, s) for k in range(3)]
        num = (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2 * h)
        dp = bispinor_partials(0.0, 0.7, 2.3, s)[0]
        assert np.max(np.abs(dp - num)) < 1e-8


def test_spin_connection_closed_form():
    # <u(s')|d_k u(s)> from the public bispinors (m = 1) against the closed
    # form that dispersion_functional uses for its <r> rows
    for p in (0.05, 0.7, 3.0, 12.0):
        for theta in (0.3, 1.2, 2.8):
            for phi in (0.0, 1.9, 4.6):
                u = [bispinor_u(p, theta, phi, s) for s in (+1, -1)]
                du = [bispinor_partials(p, theta, phi, s) for s in (+1, -1)]
                conn = np.array([[[np.vdot(u[i], du[j][k])
                                   for j in range(2)] for i in range(2)]
                                 for k in range(3)])
                half = 0.5 * (1.0 - 1.0 / math.hypot(1.0, p))
                st, ct = math.sin(theta), math.cos(theta)
                e = complex(math.cos(phi), math.sin(phi))
                expected = np.array([
                    np.zeros((2, 2)),
                    half * np.array([[0.0, 1.0 / e], [-e, 0.0]]),
                    1j * half * np.array([[st * st, -st * ct / e],
                                          [-st * ct * e, -st * st]]),
                ])
                assert np.max(np.abs(conn - expected)) <= 1e-14


def _bispinors(p, theta, phi, mass):
    # Weyl bispinors of mass m and their analytic partials on a broadcast
    # grid: u of shape (2, 4) + grid, du of shape (3, 2, 4) + grid
    e = np.hypot(mass, p)
    ct, st = np.cos(theta), np.sin(theta)
    eiphi = np.exp(1j * phi)
    pz, pxy = p * ct, p * st * eiphi
    big = mass + e
    d = np.sqrt(4.0 * e * big)
    dlnd = 0.5 * (p / e) * (1.0 / e + 1.0 / big)
    shape = np.broadcast_shapes(np.shape(p), np.shape(theta), np.shape(phi))

    def block(*comps):
        return np.stack([np.broadcast_to(c, shape) for c in comps]
                        ).reshape((2, 4) + shape) / d

    u = block(big + pz, pxy, big - pz, -pxy,
              np.conj(pxy), big - pz, -np.conj(pxy), big + pz)
    du = np.stack([
        block(p / e + ct, st * eiphi, p / e - ct, -st * eiphi,
              st / eiphi, p / e - ct, -st / eiphi, p / e + ct) - u * dlnd,
        block(-p * st, pz * eiphi, p * st, -pz * eiphi,
              pz / eiphi, p * st, -pz / eiphi, -p * st),
        block(0.0, 1j * pxy, 0.0, -1j * pxy,
              -1j * np.conj(pxy), 0.0, 1j * np.conj(pxy), 0.0),
    ])
    return u, du


def _four_component_r_rows(amp, mass, p, thetas):
    # the <r> rows 6..8 of dispersion_functional, from the 4-component
    # psi = sum_s u(s) f_s: <r> = Re psi* . i grad_p psi, on a fixed 64-node
    # phi grid of its own, independent of the functional's trapezoid pairs
    phis = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)[None, None, :]
    p, th = p[..., None], thetas[..., None]
    (f_p, *g_p), (f_m, *g_m) = (fn(p, th, phis) for fn in amp)
    f, g = [f_p, f_m], [g_p, g_m]
    u, du = _bispinors(p, th, phis, mass)
    conj_psi = np.conj(u[0] * f[0] + u[1] * f[1])
    a_p, a_t, a_f = (
        -np.sum(conj_psi * sum(du[k, s] * f[s] + u[s] * g[s][k]
                               for s in range(2)), axis=0).imag
        for k in range(3))
    a_t, a_f = a_t / p, a_f / (p * np.sin(th))
    st, ct = np.sin(th), np.cos(th)
    cp, sp = np.cos(phis), np.sin(phis)
    w = (2.0 * math.pi / 64) * p * p * st
    return np.sum(w * np.stack([a_p * st * cp + a_t * ct * cp - a_f * sp,
                                a_p * st * sp + a_t * ct * sp + a_f * cp,
                                a_p * ct - a_t * st]), axis=-1)


_COARSE = QuadConfig(abs_tol=1e-4, rel_tol=1e-4)


def _shifted_two_spin_state():
    # f+ = e^{-p^2/2} (1 + 0.3 cos theta + 0.2 sin theta e^{i phi}) S and
    # f- = 0.6 p e^{-0.6 p^2} sin theta (e^{i(phi + 0.7)} + 0.4) S with
    # S = e^{-i p.a}: both spins with a complex relative phase, and a shift
    # that moves <r> off the origin.  The mixed phi harmonics give |f+|^2,
    # |f-|^2 and f+* f- e^{-i phi} cos(phi) parts of the theta parity that
    # each term of the phi connection needs to reach <x> and <y>.
    ax, ay, az = 0.3, -0.2, 0.5

    def shift(p, th, ph):
        st, ct, cp, sp = np.sin(th), np.cos(th), np.cos(ph), np.sin(ph)
        dot = st * cp * ax + st * sp * ay + ct * az  # unit p . a
        s = np.exp(-1j * p * dot)
        return s, (-1j * s * dot,
                   -1j * s * p * (ct * cp * ax + ct * sp * ay - st * az),
                   -1j * s * p * st * (cp * ay - sp * ax))

    def up(p, th, ph):
        gauss = np.exp(-0.5 * p * p)
        tilt = 0.2 * np.exp(1j * ph)
        val = gauss * (1.0 + 0.3 * np.cos(th) + tilt * np.sin(th))
        return val, (-p * val,
                     gauss * (tilt * np.cos(th) - 0.3 * np.sin(th)),
                     1j * gauss * tilt * np.sin(th))

    def down(p, th, ph):
        rad = 0.6 * np.exp(-0.6 * p * p)
        turn = np.exp(1j * (ph + 0.7))
        val = p * rad * np.sin(th) * (turn + 0.4)
        return val, ((1.0 - 1.2 * p * p) * rad * np.sin(th) * (turn + 0.4),
                     p * rad * np.cos(th) * (turn + 0.4),
                     1j * p * rad * np.sin(th) * turn)

    def shifted(spin):
        def f(p, th, ph):
            (val, dval), (s, ds) = spin(p, th, ph), shift(p, th, ph)
            return (val * s,) + tuple(dval[k] * s + val * ds[k]
                                      for k in range(3))
        return f

    return AmplitudePair(f_plus=shifted(up), f_minus=shifted(down))


@pytest.mark.parametrize("mass", [1.0, 0.3, 0.0])
def test_spin_connection_matches_four_component_oracle(mass, monkeypatch):
    # dispersion_functional takes <r> from the closed-form spin connection;
    # the oracle replaces its <r> rows by the contraction over the four
    # components of psi.  Both runs integrate on the same nodes, so a
    # coarse tolerance loses nothing: they differ by rounding only.
    amp = _shifted_two_spin_state()
    rep = dispersion_functional(amp, _COARSE, mass=mass)
    integrate = dirac_states._integrate_exp_sinh

    def with_oracle_rows(rows, cfg, control_rows):
        def replaced(p, thetas):
            out = rows(p, thetas)
            out[6:9] = _four_component_r_rows(amp, mass, p, thetas)
            return out
        return integrate(replaced, cfg, control_rows=control_rows)

    monkeypatch.setattr(dirac_states, "_integrate_exp_sinh", with_oracle_rows)
    oracle = dispersion_functional(amp, _COARSE, mass=mass)
    assert np.max(np.abs(np.subtract(rep.mean_r, oracle.mean_r))) <= 1e-12
    assert rep.delta_r_sq == pytest.approx(oracle.delta_r_sq, rel=1e-12)
    # the spin connection moves <z> away from the shift a_z = 0.5
    assert abs(rep.mean_r[2] - 0.5) > 0.05


@pytest.mark.parametrize("module, run", [
    (dirac_states, lambda: dispersion_functional(_shifted_two_spin_state(),
                                                 _COARSE)),
    (hopfion, lambda: gamma_h(HopfionState(1.0))),
    (hydrogen, lambda: oracle_gamma(CoulombState(Z=80).gamma_c)),
])
def test_report_counts_evaluations(module, run, monkeypatch):
    # the general functional's exp-sinh binding, wrapped to count the grid
    # points its integrand is called on; the functional re-checks its phi
    # pair on the grid of the last call once more.  The packet's closed
    # form counts the nodes of the four rows of its trapezoid pass,
    # ceil(T / step) + 1 each for the cutoff T and step of
    # specfun.bessel_sums.  Hydrogen's oracle counts the multiples of 0.05
    # in its t range, on which it sums its two trapezoid levels.
    points = []
    if module is hydrogen:
        g = CoulombState(Z=80).gamma_c
        t_min = -math.asinh(80.0 / (math.pi * (2.0 * g - 1.0)))
        t_max = math.asinh(2.0 * math.log(500.0) / math.pi)
        points.append(math.floor(t_max / 0.05) - math.ceil(t_min / 0.05) + 1)
    elif module is hopfion:
        sums = hopfion.bessel_sums

        def summed(z):
            t_max = 2.0 * math.asinh(math.sqrt(372.5) / math.sqrt(z))
            step = 0.125 * min(1.0, 1.0 / math.sqrt(z))
            points.extend([math.ceil(t_max / step) + 1] * 4)
            return sums(z)

        monkeypatch.setattr(hopfion, "bessel_sums", summed)
    else:
        integrate = dirac_states._integrate_exp_sinh

        def counted(rows, *args, **kwargs):
            def wrapped(*grid):
                points.append(np.broadcast(*grid).size)
                return rows(*grid)
            res = integrate(wrapped, *args, **kwargs)
            points.append(points[-1])
            return res

        monkeypatch.setattr(dirac_states, "_integrate_exp_sinh", counted)
    rep = run()
    assert rep.evaluations == sum(points) > 0


def _harmonic_15_state(beta):
    # f+ = e^{-p^2/2} (sin theta e^{i phi})^15 beside the phi-free
    # f- = 0.7 p e^{-0.6 p^2} sin theta e^{i beta}, with analytic partials
    spin_phase = complex(math.cos(beta), math.sin(beta))

    def plus(p, th, ph):
        val = np.exp(-0.5 * p * p) * (np.sin(th) * np.exp(1j * ph)) ** 15
        return (val, -p * val,
                15.0 * np.exp(-0.5 * p * p) * np.cos(th) * np.exp(1j * ph)
                * (np.sin(th) * np.exp(1j * ph)) ** 14,
                15j * val)

    def minus(p, th, ph):
        rad = np.exp(-0.6 * p * p)
        return (0.7 * p * rad * np.sin(th) * spin_phase + 0j,
                0.7 * (1.0 - 1.2 * p * p) * rad * np.sin(th) * spin_phase + 0j,
                0.7 * p * rad * np.cos(th) * spin_phase + 0j,
                np.zeros_like(th, dtype=complex))

    return AmplitudePair(f_plus=plus, f_minus=minus)


def test_phi_sums_not_fooled_by_aliased_harmonics():
    # f+* f- e^{-i phi} carries only the phi harmonic 16, so exact phi sums
    # give <r> = 0 and dispersions free of the relative spin phase beta.
    # An 8-node rule and its nested 16-node refinement both alias harmonic
    # 16 onto phi-free parts and agree with each other (<z> read 0.085);
    # the coprime pair (8, 9) does not.
    reps = [dispersion_functional(_harmonic_15_state(beta), _COARSE)
            for beta in (0.0, 1.0)]
    assert reps[1].gamma == pytest.approx(reps[0].gamma, rel=1e-12)
    assert reps[1].delta_r_sq == pytest.approx(reps[0].delta_r_sq, rel=1e-12)
    for rep in reps:
        assert np.max(np.abs(rep.mean_r)) < 1e-10


@pytest.mark.parametrize("k", [20, 19])
def test_phi_pairs_start_at_8_9(k, monkeypatch):
    # f+ = e^{-p^2/2} (1 + 0.3 (sin theta e^{i phi})^k): |f+|^2 carries the
    # phi harmonics k and 2k, and the <p_x>, <p_y> rows k +- 1 as well.
    # Coprime rules alias alike only at multiples of n (n + 1), so 4 and 5
    # both alias the harmonic 20 onto the constant and the pair agrees with
    # itself, off by far more than any error estimate (gamma 0.25 off at
    # k = 20, 0.13 and <p_x> = 0.09 at k = 19); from 8/9 the pair climbs
    def plus(p, th, ph):
        return np.exp(-0.5 * p * p) * (
            1.0 + 0.3 * (np.sin(th) * np.exp(1j * ph)) ** k)

    amp = AmplitudePair(f_plus=plus)
    rep = dispersion_functional(amp)
    monkeypatch.setattr(dirac_states, "_N_PHI_PAIRS", (64, 128, 256))
    ref = dispersion_functional(amp)
    assert abs(rep.gamma - ref.gamma) <= rep.err_est
    assert np.max(np.abs(rep.mean_p)) < 1e-10
    monkeypatch.setattr(dirac_states, "_N_PHI_PAIRS",
                        tuple(4 << j for j in range(7)))
    low = dispersion_functional(amp)
    assert abs(low.gamma - ref.gamma) > 0.1
    if k % 2:
        assert abs(low.mean_p[0]) > 0.05


def _recorded_calls(monkeypatch, amp):
    """amp with its f_plus recording, per integration of the dispersion
    functional, the phi widths of the f_plus calls of each integrand call
    in order, and of the re-check after a quadrature that returned."""
    calls = []
    integrate = dirac_states._integrate_exp_sinh

    def recorded(rows, *args, **kwargs):
        calls.append([])

        def call(p, thetas):
            calls[-1].append(set())
            return rows(p, thetas)
        res = integrate(call, *args, **kwargs)
        calls[-1].append(set())
        return res

    def plus(p, th, ph):
        calls[-1][-1].add(np.shape(ph)[-1])
        return amp.f_plus(p, th, ph)

    monkeypatch.setattr(dirac_states, "_integrate_exp_sinh", recorded)
    return amp._replace(f_plus=plus), calls


def test_phi_pair_picked_once_per_call(monkeypatch):
    # the harmonic-15 state needs the 32/33 pair: the first call, on the
    # whole first t level, rejects 8/9, then 16/17, each time ending that
    # integration, and the integration at 32/33 checks both rules on its
    # first call, evaluates only the 33 nodes on the calls after it and
    # re-checks the last call with the 32
    amp, calls = _recorded_calls(monkeypatch, _harmonic_15_state(0.0))
    rep = dispersion_functional(amp, _COARSE)
    assert calls[:2] == [[{17}], [{33}]]
    (accepted,) = calls[2:]
    assert len(accepted) > 3
    assert accepted == [{65}] + [{33}] * (len(accepted) - 2) + [{32}]
    assert np.max(np.abs(rep.mean_r)) < 1e-10


def _band_state():
    # f+ = e^{-p^2/4} (1 + b(p) (sin theta e^{i phi})^9) with a band
    # b(p) = exp(-((p - 4) / 0.25)^2) between the first t level's nodes at
    # p = 2.27 and 6.33 (t = 0.5 and 1), where b < 1e-20: there the phi
    # sums agree under 8 and 9 nodes, while in the band the 9-node rule
    # aliases the harmonic 9 of |f+|^2 and the 8-node rule does not
    def plus(p, th, ph):
        band = np.exp(-((p - 4.0) / 0.25) ** 2)
        return np.exp(-0.25 * p * p) * (
            1.0 + band * (np.sin(th) * np.exp(1j * ph)) ** 9)

    return AmplitudePair(f_plus=plus)


def test_recheck_climbs_past_a_pair_the_first_level_accepts(monkeypatch):
    amp, calls = _recorded_calls(monkeypatch, _band_state())
    rep = dispersion_functional(amp)
    # 8/9 passes the first level and fails the re-check, which integrates
    # once more, at 16/17, from the first level (numeric partials: the phi
    # probes stack four phi grids in one call)
    assert len(calls) == 2
    for integration, n in zip(calls, (8, 16)):
        first, *others, recheck = integration
        assert first == {2 * n + 1, 4 * (2 * n + 1)}
        assert len(others) > 2
        assert all(widths == {n + 1, 4 * (n + 1)} for widths in others)
        assert recheck == {n, 4 * n}
    monkeypatch.undo()

    # the same as starting at the rung it climbs to
    monkeypatch.setattr(dirac_states, "_N_PHI_PAIRS", (16, 32, 64))
    forced = dispersion_functional(_band_state())
    for field in ("norm_sq", "delta_r_sq", "delta_p_sq", "gamma", "err_est"):
        assert getattr(rep, field) == getattr(forced, field)
    monkeypatch.undo()

    # without the re-check the 9-node sums stand, off by far more than the
    # error estimate says: the re-check, the only sum under the n-node
    # rule alone, here sums under the n + 1 nodes and so agrees
    rules = dirac_states._phi_rules
    monkeypatch.setattr(dirac_states, "_phi_rules", lambda sizes: rules(
        sizes if len(sizes) > 1 else (sizes[0] | 1,)))
    unchecked = dispersion_functional(_band_state())
    assert abs(unchecked.gamma - rep.gamma) > 1e-3
    assert abs(unchecked.gamma - rep.gamma) > 1e6 * (unchecked.err_est
                                                     + rep.err_est)


def test_non_finite_recheck_sums_raise():
    # a NaN at the p node t = 1/32, which only the last t level adds, and
    # at phi = pi/4, a node of the 8-node rule only, reaches no sum but the
    # re-check's: it must raise, not compare as agreeing
    p_nan = np.exp(0.5 * math.pi * np.sinh(1.0 / 32.0))
    nan_widths = set()

    def plus(p, th, ph):
        bad = (p == p_nan) & (ph == 0.25 * math.pi)
        if np.any(bad):
            nan_widths.add(np.shape(ph)[-1])
        return np.where(bad, np.nan, np.exp(-0.5 * p * p)) + 0j * th

    with pytest.raises(QuadratureError, match="phi sums at 8 nodes"):
        dispersion_functional(AmplitudePair(f_plus=plus))
    assert nan_widths == {8}


def _ufunc_gaussian(p, theta, phi):
    # e^{-p^2/2} on the full broadcast grid, with numeric partials
    p, theta, phi = np.broadcast_arrays(p, theta, phi)
    return np.exp(-0.5 * np.square(p)) + 0j


@pytest.mark.parametrize("amp, amp_calls, points, max_points", [
    # analytic partials: one f_plus call per chunk of at most 3264 points
    (hopfion.amplitude_pair(HopfionState(1.0)), 12, 24_884, 3264),
    # numeric partials: and one call per axis with four probes stacked
    (AmplitudePair(f_plus=_ufunc_gaussian), 48, 13 * 24_884, 4 * 3264),
], ids=["hopfion", "gaussian"])
def test_work_counts_pinned(monkeypatch, amp, amp_calls, points, max_points):
    # the work at the default QuadConfig, pinned so that a change which
    # inflates it fails here: 6 integrand calls (two on the first t level,
    # four later levels) and the re-check of the last on 2740 (p, theta)
    # points, and 24 884 (p, theta, phi) points per field
    calls, sizes, returned = [], [], []
    integrate = dirac_states._integrate_exp_sinh

    def counted(rows, *args, **kwargs):
        def call(p, thetas):
            calls.append(p.size * thetas.size)
            return rows(p, thetas)
        res = integrate(call, *args, **kwargs)
        returned.append(len(sizes))  # f_plus calls before the re-check
        return res

    def plus(p, th, ph):
        sizes.append(np.broadcast(p, th, ph).size)
        return amp.f_plus(p, th, ph)

    monkeypatch.setattr(dirac_states, "_integrate_exp_sinh", counted)
    rep = dispersion_functional(amp._replace(f_plus=plus))
    assert len(calls) == 6
    # the re-check evaluates the points of the last call once more
    assert rep.evaluations == sum(calls) + calls[-1] == 2740
    assert len(returned) == 1 and returned[0] < len(sizes)
    assert (len(sizes), sum(sizes), max(sizes)) == (amp_calls, points,
                                                    max_points)


def test_phi_pairs_converge_at_tight_tolerance():
    # at rel_tol = 1e-14 the pair tolerance 0.01 rel_tol lies below the
    # rounding of the phi sums (up to 7e-16 of the scale at 8 nodes); the
    # rounding floor keeps a smooth state from raising
    amp = hopfion.amplitude_pair(HopfionState(1.0))
    tight = dispersion_functional(
        amp, QuadConfig(abs_tol=1e-300, rel_tol=1e-14))
    assert tight.gamma == pytest.approx(dispersion_functional(amp).gamma,
                                        rel=1e-12)


def test_amplitude_with_jump_in_phi_raises():
    # the phi sums of a discontinuous amplitude converge like 1/n, so the
    # trapezoid pairs never agree: no value is returned
    widths, points = [], []

    def step(p, th, ph):
        widths.append(np.shape(ph)[-1])
        points.append(np.broadcast(p, th, ph).size)
        return (np.exp(-0.5 * p * p) * np.where(np.mod(ph, 2.0 * math.pi)
                                                < math.pi, 1.0, 0.5)
                + 0j * th)

    with pytest.raises(QuadratureError, match="phi sums"):
        dispersion_functional(AmplitudePair(f_plus=step))
    # each pair ends on its first integrand call, so the failing call's
    # work is pinned
    assert (len(points), sum(points)) == (184, 1_792_752)
    # the ladder is capped, so the failing call's cost is bounded: no phi
    # grid wider than the 256/257 pair's 513 nodes, four times over in the
    # stacked probes of the numeric partials
    assert max(widths) <= 4 * 513
    # and no call builds more (p, theta, phi) points than those probes on
    # one p node at 8 theta nodes
    assert max(points) <= 4 * 8 * 513


def test_gaussian_norm():
    rep = dispersion_functional(AmplitudePair(f_plus=_gaussian))
    assert rep.norm_sq == pytest.approx(math.pi ** 1.5, rel=1e-8)


def test_symmetric_state_means_vanish():
    rep = dispersion_functional(AmplitudePair(f_plus=_gaussian))
    assert np.max(np.abs(rep.mean_p)) < 1e-10
    assert np.max(np.abs(rep.mean_r)) < 1e-10


def test_nonrelativistic_gamma_anchor():
    # (m p)^2 and E^4 overflow on the exp-sinh nodes (p up to 4e18) from
    # m = 3.2e135; their ratio does not
    for mass in (1e6, 1e200, 1e300):
        rep = dispersion_functional(AmplitudePair(f_plus=_gaussian), mass=mass)
        assert rep.gamma == pytest.approx(1.5, abs=1e-4)


def test_massless_gamma_anchor():
    def amp(p, thetas, phi):
        val = p ** S_ULTRA * np.exp(-0.5 * p * p)
        return val * np.ones_like(thetas, dtype=complex)

    rep = dispersion_functional(AmplitudePair(f_plus=amp), mass=0.0)
    assert rep.gamma == pytest.approx(1.0 + 0.5 * math.sqrt(5.0), abs=1e-5)


@pytest.mark.parametrize("a", [1.0, 0.5])
def test_massless_packet_anchor(a):
    # the packet e^{-aE}/E at m = 0, psi ~ (p - p_z, -(p_x + i p_y))
    # e^{-ap}/p: f+ = (1 - cos theta) e^{-ap}, f- = -sin theta e^{i phi}
    # e^{-ap}, with density (2 - 2 cos theta) e^{-2ap}.  Exactly
    # dr^2 = 3 a^2, dp^2 = 11/(4 a^2), <p_z> = -1/(2a), <r> = 0 and gamma =
    # sqrt(33)/2 at every a.  err_est must cover the gap; it over-reports
    # it (1.5e-8 against 4.4e-16), as it charges the kept 12-node theta
    # level the 8-vs-12 gap of the <p_z> row
    def plus(p, th, ph):
        env = np.exp(-a * p)
        val = (1.0 - np.cos(th)) * env + 0j
        return val, -a * val, np.sin(th) * env + 0j, np.zeros_like(val)

    def minus(p, th, ph):
        env = np.exp(-a * p) * np.exp(1j * ph)
        val = -np.sin(th) * env
        return val, -a * val, -np.cos(th) * env, 1j * val

    rep = dispersion_functional(AmplitudePair(plus, minus), mass=0.0)
    product = 0.5 * math.sqrt(33.0)
    assert rep.gamma == pytest.approx(product, rel=1e-14)
    assert rep.delta_r_sq == pytest.approx(3.0 * a * a, rel=1e-14)
    assert rep.delta_p_sq == pytest.approx(2.75 / (a * a), rel=1e-14)
    assert rep.mean_p == pytest.approx([0.0, 0.0, -0.5 / a], abs=1e-14)
    assert np.max(np.abs(rep.mean_r)) <= 1e-14
    assert abs(rep.gamma - product) <= rep.err_est


@pytest.mark.parametrize("sigma", [1e-4, 1e4])
def test_massless_gaussian_is_scale_free(sigma):
    # at m = 0 the product of a Gaussian e^{-p^2 / (2 sigma^2)} is
    # sqrt(21)/2 at every width.  The numeric p-partial steps with p: an
    # absolute floor of 1e-5 is 10% of the width 1e-4.
    def amp(p, thetas, phi):
        return np.exp(-0.5 * (p / sigma) ** 2) * np.ones_like(thetas,
                                                             dtype=complex)

    rep = dispersion_functional(AmplitudePair(f_plus=amp), mass=0.0)
    assert rep.gamma == pytest.approx(0.5 * math.sqrt(21.0), rel=1e-9)


def test_spin_swap_invariance():
    rep_up = dispersion_functional(AmplitudePair(f_plus=_gaussian))
    rep_dn = dispersion_functional(AmplitudePair(f_plus=None,
                                                 f_minus=_gaussian))
    assert rep_dn.gamma == pytest.approx(rep_up.gamma, rel=1e-10)
    assert rep_dn.delta_r_sq == pytest.approx(rep_up.delta_r_sq, rel=1e-10)
    assert rep_dn.delta_p_sq == pytest.approx(rep_up.delta_p_sq, rel=1e-10)


def test_phase_covariance():
    phase = complex(math.cos(0.7), math.sin(0.7))

    def rotated(p, thetas, phi):
        return phase * _gaussian(p, thetas, phi)

    base = dispersion_functional(AmplitudePair(f_plus=_gaussian))
    rot = dispersion_functional(AmplitudePair(f_plus=rotated))
    assert rot.norm_sq == pytest.approx(base.norm_sq, rel=1e-10)
    assert rot.delta_r_sq == pytest.approx(base.delta_r_sq, rel=1e-10)
    assert rot.delta_p_sq == pytest.approx(base.delta_p_sq, rel=1e-10)
    assert np.allclose(rot.mean_p, base.mean_p, atol=1e-12)


def _shifted_gaussian(k_x, k_z, weight):
    """weight e^{-|p - k|^2/2} for k = (k_x, 0, k_z), with its analytic
    partials: p . k = p (k_x sin theta cos phi + k_z cos theta)."""
    def f(p, th, ph):
        st, ct, cp, sp = np.sin(th), np.cos(th), np.cos(ph), np.sin(ph)
        along = k_x * st * cp + k_z * ct
        g = weight * np.exp(-0.5 * (p * p - 2.0 * p * along
                                    + k_x * k_x + k_z * k_z)) + 0j
        return (g, (along - p) * g, p * (k_x * ct * cp - k_z * st) * g,
                -p * k_x * st * sp * g)
    return f


def test_rotation_covariance():
    # the rotation R: (x, y, z) -> (-z, y, x) about y takes the spin-up
    # Gaussian at k = 1.5 x to the one at 1.5 z, with its spin turned by
    # U = (1 + i sigma_y)/sqrt(2) to (1, -1)/sqrt(2): the rotated state
    # has f'(p) = U f(R^-1 p) (Weyl bispinors: U sigma.p U^+ = sigma.(R p)).
    # gamma and the dispersions must not move, and <p> and <r> (along -y,
    # the spin-orbit shift p x s) rotate with R.  The z-shifted spin-up
    # state, spin not turned, misses the match
    rot = np.array([[0.0, 0.0, -1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    s = 1.0 / math.sqrt(2.0)
    base = dispersion_functional(AmplitudePair(
        _shifted_gaussian(1.5, 0.0, 1.0)))
    turned = dispersion_functional(AmplitudePair(
        _shifted_gaussian(0.0, 1.5, s), _shifted_gaussian(0.0, 1.5, -s)))
    unturned = dispersion_functional(AmplitudePair(
        _shifted_gaussian(0.0, 1.5, 1.0)))
    assert base.gamma == pytest.approx(1.591663311627, abs=1e-12)
    assert base.delta_r_sq == pytest.approx(1.688928065053, abs=1e-12)
    tol = min(base.err_est + turned.err_est, 1e-12)
    assert abs(turned.gamma - base.gamma) <= tol
    assert abs(turned.delta_r_sq - base.delta_r_sq) <= tol
    assert turned.delta_p_sq == pytest.approx(base.delta_p_sq, abs=1e-12)
    assert turned.mean_p == pytest.approx(rot @ base.mean_p, abs=1e-12)
    assert turned.mean_r == pytest.approx(rot @ base.mean_r, abs=1e-12)
    assert base.mean_r[1] == pytest.approx(-0.108333411, abs=1e-9)
    assert unturned.gamma == pytest.approx(1.597183862137, abs=1e-12)
    assert (unturned.gamma - base.gamma
            > 1e3 * (unturned.err_est + base.err_est))


@pytest.mark.parametrize("lam", [0.5, 2.0])
def test_massless_scaling_invariance(lam):
    def base(p, thetas, phi):
        val = p ** S_ULTRA * np.exp(-0.5 * p * p)
        return val * np.ones_like(thetas, dtype=complex)

    def scaled(p, thetas, phi):
        return base(p / lam, thetas, phi)

    rep0 = dispersion_functional(AmplitudePair(f_plus=base), mass=0.0)
    rep1 = dispersion_functional(AmplitudePair(f_plus=scaled), mass=0.0)
    assert rep1.delta_p_sq == pytest.approx(lam ** 2 * rep0.delta_p_sq,
                                            rel=1e-6)
    assert rep1.delta_r_sq == pytest.approx(rep0.delta_r_sq / lam ** 2,
                                            rel=1e-6)
    assert rep1.gamma == pytest.approx(rep0.gamma, rel=1e-6)


@pytest.mark.parametrize("mass", [1.0, 0.25])
def test_spherical_reduction(mass):
    # radial-only formula for a real spherically symmetric single-spin f:
    #   N^2      = 4 pi int p^2 f^2 dp
    #   <r^2>    = 4 pi int [p^2 f'^2 + (1 - m/E + m^2 p^2/(4 E^4)) f^2] dp / N^2
    f = lambda p: math.exp(-0.5 * p * p)
    df = lambda p: -p * math.exp(-0.5 * p * p)

    def coef(p):
        e = math.hypot(mass, p)
        return 1.0 - mass / e + (mass * p) ** 2 / (4.0 * e ** 4)

    norm, _ = quad(lambda p: p * p * f(p) ** 2, 0.0, 40.0,
                   limit=200, epsabs=1e-13, epsrel=1e-12)
    grad, _ = quad(lambda p: p * p * df(p) ** 2 + coef(p) * f(p) ** 2,
                   0.0, 40.0, limit=200, epsabs=1e-13, epsrel=1e-12)
    radial_r2 = grad / norm

    rep = dispersion_functional(AmplitudePair(f_plus=_gaussian), mass=mass)
    assert rep.delta_r_sq == pytest.approx(radial_r2, rel=1e-8)


def test_bound_consistency():
    # any concrete state with <p> = 0 must lie on or above the bound curve
    rep = dispersion_functional(AmplitudePair(f_plus=_gaussian), mass=1.0)
    d_state = (rep.delta_p_sq / rep.delta_r_sq) ** 0.25
    [(gamma, _)] = gamma_estimates([d_state])
    assert rep.gamma >= gamma - 1e-4


@pytest.mark.parametrize("k, product, curve", [
    (0.5, 1.6544247, 1.6629596), (2.0, 1.5712312, 1.6677467)])
def test_bound_needs_zero_mean_momentum(k, product, curve):
    # the spin-up Gaussian of width 1 shifted by k along p_z keeps
    # dp^2 = 3/2, while its dr^2 moves: read with dp^2, in the product and
    # in d, it falls below the curve (margins -8.5e-3 and -9.7e-2), by far
    # more than both error estimates.  The bound holds for <p> = 0, and in
    # general with <p^2> = dp^2 + |<p>|^2 in place of dp^2: read so, the
    # same states lie 0.117 and 1.276 above the curve
    def plus(p, th, ph):
        return np.exp(-0.5 * (p * p - 2.0 * k * p * np.cos(th) + k * k)) + 0j

    rep = dispersion_functional(AmplitudePair(f_plus=plus))
    assert rep.mean_p == pytest.approx([0.0, 0.0, k], abs=1e-12)
    assert rep.delta_p_sq == pytest.approx(1.5, rel=1e-12)
    d = (rep.delta_p_sq / rep.delta_r_sq) ** 0.25
    p_sq = rep.delta_p_sq + k * k
    d_p_sq = (p_sq / rep.delta_r_sq) ** 0.25
    [(gamma, err), (gamma_p_sq, _)] = gamma_estimates([d, d_p_sq])
    assert rep.gamma == pytest.approx(product, abs=1e-7)
    assert gamma == pytest.approx(curve, abs=1e-7)
    assert gamma - rep.gamma > 1e3 * (rep.err_est + err)
    assert math.sqrt(rep.delta_r_sq * p_sq) - gamma_p_sq > 0.1


def _random_spin(rng, power, w, b):
    """p^power e^(p b cos(theta) - p^2/(2 w^2)) (c0 + c . n) with random
    complex c0 and c, n the unit vector of p, and its analytic partials;
    c . n = c_z cos(theta) + sin(theta) (alpha e^(i phi) + beta e^(-i phi))."""
    c0, c_z, alpha, beta = rng.normal(size=4) + 1j * rng.normal(size=4)

    def f(p, th, ph):
        st, ct = np.sin(th), np.cos(th)
        up, down = alpha * np.exp(1j * ph), beta * np.exp(-1j * ph)
        ang = c0 + c_z * ct + st * (up + down)
        env = p ** power * np.exp(p * (b * ct - 0.5 * p / (w * w)))
        val = env * ang
        return (val, val * (power / p - p / (w * w) + b * ct),
                env * (ct * (up + down) - c_z * st - (p * b) * (st * ang)),
                env * (1j * st * (up - down)))

    return f


def _random_two_spin_state(rng, sigma):
    """Both spins with random angular structure, momentum width w and a
    shift of scale sigma: a shift k w along p_z and a / w along z, where k
    and a are (signed) lengths of vectors with components sigma U(-1, 1).
    The shifts lie along z, so that the envelope does not depend on phi
    and the phi rule stays at 8/9 nodes; a shift along another axis is a
    rotation of the random angular structure."""
    w = math.exp(rng.uniform(math.log(0.3), math.log(3.0)))
    k, a = (sigma * rng.choice([-1.0, 1.0])
            * np.linalg.norm(rng.uniform(-1.0, 1.0, 3)) for _ in range(2))
    b = (k - 1j * a) / w
    return AmplitudePair(
        f_plus=_random_spin(rng, 0, w, b),
        f_minus=_random_spin(rng, 1, w * rng.uniform(0.7, 1.4), b))


def _margin(rep, p_sq, row):
    """The product read with p_sq in place of dp^2, less gamma at its
    d = (p_sq/dr^2)^(1/4), and the error that could close that margin:
    err_est's share of the product, gamma's est_error, and d's error
    d err_est/(2 gamma) times the curve's slope, below 0.22 everywhere."""
    gamma, err = row
    product = math.sqrt(rep.delta_r_sq * p_sq)
    d = (p_sq / rep.delta_r_sq) ** 0.25
    rel = rep.err_est / rep.gamma
    return product - gamma, rel * product + err + 0.11 * d * rel


@pytest.mark.parametrize("sigma", [0.0, 0.3, 1.0, 3.0])
def test_random_states_above_the_curve_with_p_sq(sigma):
    # read with <p^2> = dp^2 + |<p>|^2 in place of dp^2, the bound holds for
    # every state, by 0.35 or more; read with dp^2 it fails once the mean
    # momentum is large (3 of 30 states at sigma = 1, 25 at sigma = 3).
    # At the coarse tolerance every margin's error budget stays below 3e-2
    rng = np.random.default_rng([16, int(10 * sigma)])
    reports = [dispersion_functional(_random_two_spin_state(rng, sigma),
                                     _COARSE) for _ in range(30)]
    readings = [(rep, rep.delta_p_sq + float(np.dot(rep.mean_p, rep.mean_p)))
                for rep in reports]
    readings += [(rep, rep.delta_p_sq) for rep in reports]
    curve = gamma_estimates([(p_sq / rep.delta_r_sq) ** 0.25
                             for rep, p_sq in readings])
    margins = [_margin(*reading, row) for reading, row in zip(readings, curve)]
    for k, (margin, err) in enumerate(margins[:len(reports)]):
        assert margin > err, k
    if sigma >= 1.0:
        assert any(margin < -err for margin, err in margins[len(reports):])


def _s_wave(c, d):
    """f_plus = d^(-3/2) f(p/d) with f(q) = e^(-q^2/2) (1 + c q^2), returned
    with its analytic partials: an s-wave state at the scale d."""
    def f_plus(p, thetas, phi):
        q = p / d
        g = np.exp(-0.5 * q * q) * d ** -1.5
        return (g * (1.0 + c * q * q) + 0j,
                g * q * (2.0 * c - 1.0 - c * q * q) / d + 0j, 0j, 0j)

    return AmplitudePair(f_plus=f_plus)


def _bound_operator_means(c, d):
    """<f'^2 + (V - q^2) f^2> and <q^2> of the same f over f^2 q^2 dq, by
    quad on the library's potential_v."""
    f = lambda q: math.exp(-0.5 * q * q) * (1.0 + c * q * q)
    df = lambda q: q * math.exp(-0.5 * q * q) * (2.0 * c - 1.0 - c * q * q)
    norm, a, b = (quad(lambda q: fn(q) * q * q, 0.0, math.inf, epsabs=0.0,
                       epsrel=1e-13, limit=200)[0] for fn in (
        lambda q: f(q) ** 2,
        lambda q: df(q) ** 2 + (potential_v(q, d) - q * q) * f(q) ** 2,
        lambda q: (q * f(q)) ** 2))
    return a / norm, b / norm


@pytest.mark.parametrize("d", [0.3, 1.0, 4.0, 30.0, 300.0])
@pytest.mark.parametrize("c", [0.0, 0.2])
def test_s_wave_states_reproduce_the_bound_operator(c, d):
    # the s-wave state has <r> = <p> = 0, and p = d q turns the engine's r^2
    # integrand p^2 f'^2 + (1 - 1/E + p^2/(4 E^4)) f^2 into the bound's
    # operator: d^2 dr^2 = <f'^2 + (V - q^2) f^2> and dp^2/d^2 = <q^2>, so
    # (d^2 dr^2 + dp^2/d^2)/2 is its Rayleigh quotient.  The engine never
    # reads V, so this checks potential_v from outside; the analytic
    # partials keep the numeric partials' error out (agreement 4e-16)
    rep = dispersion_functional(_s_wave(c, d), QuadConfig(1e-300, 1e-12))
    a, b = _bound_operator_means(c, d)
    assert d * d * rep.delta_r_sq == pytest.approx(a, rel=1e-12)
    assert rep.delta_p_sq / (d * d) == pytest.approx(b, rel=1e-12)
    # the paper's inequality on states outside the two families, at the
    # state's own d, by more than both error estimates (the smallest
    # margin, 2.2e-4 at c = 0 and d = 0.3, against err_est <= 1.2e-12)
    d_state = (rep.delta_p_sq / rep.delta_r_sq) ** 0.25
    [(gamma, err)] = gamma_estimates([d_state])
    assert rep.gamma - gamma > rep.err_est + err


def test_gamma_above_three_halves():
    for mass in (0.5, 1.0, 3.0):
        rep = dispersion_functional(AmplitudePair(f_plus=_gaussian),
                                    mass=mass)
        assert rep.gamma > 1.5


def _phi_dependent_minus(p, thetas, phi):
    return np.sin(thetas) * p * np.exp(-0.5 * p * p) * np.exp(1j * phi)


def test_phi_dependent_amplitude_consistency():
    # an e^{i phi} sin(theta) spin-down partner exercises the phi sum; a
    # rotation about z by beta, f'_s(p, theta, phi) = e^{-i s beta/2}
    # f_s(p, theta, phi - beta), must leave the dispersions unchanged and
    # rotate <p> by R_z(beta).  The spin phase is part of the rotation: a
    # bare phi shift is not a symmetry of the state.
    beta = 0.7

    def rotated(f, s):
        phase = np.exp(-0.5j * s * beta)
        return lambda p, thetas, phi: phase * f(p, thetas, phi - beta)

    base = dispersion_functional(
        AmplitudePair(f_plus=_gaussian, f_minus=_phi_dependent_minus))
    rot = dispersion_functional(
        AmplitudePair(f_plus=rotated(_gaussian, +1),
                      f_minus=rotated(_phi_dependent_minus, -1)))
    assert rot.norm_sq == pytest.approx(base.norm_sq, rel=1e-10)
    assert rot.delta_r_sq == pytest.approx(base.delta_r_sq, rel=1e-10)
    assert rot.delta_p_sq == pytest.approx(base.delta_p_sq, rel=1e-10)
    c, s = math.cos(beta), math.sin(beta)
    r_z = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    assert np.max(np.abs(rot.mean_p - r_z @ base.mean_p)) <= 1e-12
    assert base.gamma > 1.5


def test_phi_free_amplitude_broadcasts():
    # a phi-free amplitude may return (n_p, n_theta, 1); the report must
    # not depend on whether it does or returns the full
    # (n_p, n_theta, n_phi) grid
    def column(p, thetas, phi):
        return np.exp(-0.5 * p * p - 0.3 * np.cos(thetas)) + 0j * thetas

    def grid(p, thetas, phi):
        return column(p, thetas, phi) + 0.0 * phi

    narrow = dispersion_functional(AmplitudePair(f_plus=column))
    wide = dispersion_functional(AmplitudePair(f_plus=grid))
    assert column(np.ones((2, 1, 1)), np.zeros((1, 3, 1)),
                  np.zeros((1, 1, 64))).shape == (2, 3, 1)
    for field in ("norm_sq", "delta_r_sq", "delta_p_sq", "gamma"):
        assert getattr(narrow, field) == getattr(wide, field)
    assert np.array_equal(narrow.mean_p, wide.mean_p)
    assert np.array_equal(narrow.mean_r, wide.mean_r)


@pytest.mark.parametrize("bad", [
    lambda p, th, ph: np.ones(3, dtype=complex),
    lambda p, th, ph: np.ones((th.shape[1] + 1, 1), dtype=complex),
    lambda p, th, ph: np.ones(th.shape[1], dtype=complex),
    lambda p, th, ph: np.ones((p.shape[0] + 1, 1, 1), dtype=complex),
])
def test_rejects_amplitude_of_wrong_shape(bad):
    with pytest.raises(ValueError, match="broadcast"):
        dispersion_functional(AmplitudePair(f_plus=bad))


def test_rejects_empty_pair():
    with pytest.raises(ValueError):
        dispersion_functional(AmplitudePair(f_plus=None))


def test_rejects_partials_that_are_not_three():
    # a tuple is read as the values and their three partials
    def short(p, th, ph):
        val = _gaussian(p, th, ph)
        return val, -p * val

    with pytest.raises(ValueError, match="partials"):
        dispersion_functional(AmplitudePair(f_plus=short))


def test_report_rejects_invalid_integrals():
    # rows: norm, p and r second moments, <p>, <r>
    def report(values):
        return DispersionReport.from_integrals(
            np.array(values, dtype=float), np.zeros(9), 0)

    with pytest.raises(ValueError, match="normalizable"):
        report([0.0, 1.0, 1.0] + [0.0] * 6)
    with pytest.raises(ValueError, match="non-positive"):
        report([1.0, -1.0, 1.0] + [0.0] * 6)
    # a NaN or an infinity in a second moment, and a NaN error
    for values in ([1.0, 2.0, math.nan] + [0.0] * 6,
                   [1.0, math.inf, 2.0] + [0.0] * 6):
        with pytest.raises(ValueError, match="not finite"):
            report(values)
    errors = np.zeros(9)
    errors[4] = math.nan
    with pytest.raises(ValueError, match="finite"):
        DispersionReport.from_integrals(
            np.array([1.0, 2.0, 2.0] + [0.0] * 6), errors, 0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_rejects_non_normalizable(monkeypatch):
    # the divergent norm integrand hits inf*0 internally before the
    # quadrature notices and raises; the warnings are expected noise.  A
    # 900-node budget keeps the run short.
    monkeypatch.setattr(dirac_states, "_MAX_T_NODES", 900)
    with pytest.raises((QuadratureError, ValueError)):
        dispersion_functional(
            AmplitudePair(f_plus=lambda p, th, ph: np.ones_like(th,
                                                                dtype=complex)))


def test_rejects_negative_mass():
    with pytest.raises(ValueError):
        dispersion_functional(AmplitudePair(f_plus=_gaussian), mass=-1.0)
