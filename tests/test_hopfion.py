"""Localized free-electron packet: density algebra, norm, gamma_H(a) curve.

gamma_h is the packet's closed form in K_1, K_2 and Ki_1 at z = 2a.  Two
oracles live only here, both on the direct component gradients: the rows
of _rows, integrated over cos(theta) in closed form, on a test-held
trapezoid rule in p = sinh u (_gradient_oracle), and the same integrands
in (p, theta) on SciPy's adaptive quad_vec in p and fixed Gauss-Legendre
in theta (_adaptive_reference).  A third route is the decomposition onto
spin amplitudes fed through the general dispersion functional.  <p_z> has
the exact closed form -1/(2a), which pins the first-moment machinery.
"""

import math

import numpy as np
import pytest
from scipy.integrate import fixed_quad, quad, quad_vec

from relhur import (
    AmplitudePair,
    DispersionReport,
    HopfionState,
    QuadConfig,
    amplitude_pair,
    bessel_k,
    dispersion_functional,
    gamma_h,
)

RNG = np.random.default_rng(42)

GAMMA_H_AT_1 = 1.9649111869950
DR2_AT_1 = 1.0794334081891
DP2_AT_1 = 3.5767616079766
NORM_AT_1 = 3.1888391228859  # equals 4 pi K2(2) to the quadrature tolerance


def momentum_bispinor(state, p, theta, phi):
    """Unnormalized momentum-space components at a point."""
    e = math.hypot(1.0, p)
    h = math.exp(-state.a * e) / e
    eiphi = complex(math.cos(phi), math.sin(phi))
    return np.array([h, 0.0, h * (e - p * math.cos(theta)),
                     -h * p * math.sin(theta) * eiphi])


def density(state, p, theta):
    """Momentum-space density summed over the four components."""
    e = math.hypot(1.0, p)
    return 2.0 * math.exp(-2.0 * state.a * e) * (e - p * math.cos(theta)) / e


def _rows(a, u):
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


def _trapezoid(f, u_max, step, cfg):
    """The integrals of the rows of f(us) over u in [0, u_max], their
    error estimates and the node count, by the trapezoid rule from step,
    half weight on an end node, the step halved until every row's gap to
    the coarser sum is within max(abs_tol, rel_tol |sum|).  A reference
    rule held by the tests alone."""
    def level(us):
        w = np.where((us == 0.0) | (us == u_max), 0.5 * step, step)
        return f(us) @ w

    us = step * np.arange(math.floor(u_max / step) + 1)
    total, n_u = level(us), us.size
    while True:
        step *= 0.5
        us = step * np.arange(1, math.floor(u_max / step) + 1, 2)
        assert n_u + us.size <= 30000, "trapezoid sums unconverged"
        sums, n_u = level(us), n_u + us.size
        total, gap = 0.5 * total + sums, np.abs(0.5 * total - sums)
        if np.all(gap <= np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(total))):
            return total, gap + 4.0 * np.finfo(float).eps * np.abs(total), n_u


def _gradient_oracle(a, cfg=QuadConfig()):
    """The packet's report from its direct momentum gradients: _rows on the
    trapezoid rule in u on [0, U], cosh U = 1 + 40/a, from step
    0.2 min(1, a^{-1/2}).  The rows are entire in u, and even once
    integrated over theta (each odd-in-u term carries an odd power of c),
    so the rule converges geometrically.  Only norm_sq takes e^{-2a} back:
    the rest of the report is made of ratios."""
    rep = DispersionReport.from_integrals(*_trapezoid(
        lambda u: _rows(a, u), math.acosh(1.0 + 40.0 / a),
        0.2 * min(1.0, a ** -0.5), cfg))
    return rep._replace(norm_sq=rep.norm_sq * math.exp(-2.0 * a))


def _adaptive_reference(a):
    """_rows' nine integrals over (p, theta) with the measure dp dtheta,
    by SciPy: adaptive quad_vec over p in [0, inf) at rel 1e-13, of the
    24-node Gauss-Legendre sum in theta (the rows are polynomials in
    sin and cos theta).  Rows 3, 4 and 6..8 are zero."""
    def rows(p, thetas):
        e = np.hypot(1.0, p)
        ep = p / e
        ct, st = np.cos(thetas), np.sin(thetas)
        h = np.exp(-a * e) / e
        dh = -h * ep * (a + 1.0 / e)
        dens = 2.0 * np.exp(-2.0 * a * e) * (e - p * ct) / e
        # |d_p|^2 + |d_theta|^2/p^2 + |d_phi|^2/(p st)^2 of components 0,
        # 2, 3, times p^2
        d_p0 = dh
        d_p2 = dh * (e - p * ct) + h * (ep - ct)
        d_t2 = h * p * st
        d_p3 = st * (dh * p + h)
        d_t3 = h * p * ct
        d_f3 = h * p * st
        grad_sq = (p * p * (d_p0 * d_p0 + d_p2 * d_p2 + d_p3 * d_p3)
                   + d_t2 * d_t2 + d_t3 * d_t3 + (d_f3 * d_f3) / (st * st))
        out = np.zeros((9,) + dens.shape)
        out[0] = 2.0 * math.pi * p * p * st * dens
        out[1] = 2.0 * math.pi * p ** 4 * st * dens
        out[2] = 2.0 * math.pi * st * grad_sq
        out[5] = 2.0 * math.pi * p ** 3 * st * ct * dens
        return out

    values, _ = quad_vec(
        lambda p: fixed_quad(lambda th: rows(p, th), 0.0, math.pi, n=24)[0],
        0.0, math.inf, epsabs=0.0, epsrel=1e-13)
    return DispersionReport.from_integrals(values, np.zeros(9), 0)


def test_state_validation():
    with pytest.raises(ValueError):
        HopfionState(0.0)
    with pytest.raises(ValueError):
        HopfionState(-2.0)
    with pytest.raises(ValueError):
        HopfionState(math.inf)
    # where 11/(4a^2) or 2a overflows, no report is a double
    for a in (5e-324, 1e-200, 1e-154, 9e307, 1.7e308):
        with pytest.raises(ValueError, match="outside the packet's domain"):
            gamma_h(HopfionState(a))


def test_rest_momentum_components():
    b = momentum_bispinor(HopfionState(1.0), 0.0, 0.3, 1.2)
    expected = math.exp(-1.0) * np.array([1.0, 0.0, 1.0, 0.0])
    assert np.max(np.abs(b - expected)) < 1e-15


def test_density_phi_independent():
    state = HopfionState(0.7)
    vals = [float(np.sum(np.abs(momentum_bispinor(state, 1.3, 0.9, phi)) ** 2))
            for phi in (0.0, 1.0, 3.0, 5.5)]
    assert max(vals) - min(vals) <= 1e-15 * max(vals)


def test_fast_density_equals_component_sum():
    # (2/m^2) e^{-2aE} (E - p_z)/E against the explicit component sum
    state = HopfionState(1.3)
    for _ in range(100):
        p, theta, phi = (float(RNG.uniform(0.0, 12.0)),
                         float(RNG.uniform(0.0, math.pi)),
                         float(RNG.uniform(0.0, 2.0 * math.pi)))
        direct = float(np.sum(np.abs(momentum_bispinor(state, p, theta,
                                                       phi)) ** 2))
        assert density(state, p, theta) == pytest.approx(direct, rel=1e-12)


def test_momentum_side_closed_forms():
    # the gradient oracle's momentum-side moments against their closed
    # forms in K_nu(z), z = 2a: <p_z> = -1/(2a), <p^2> = 3 K_3(z) /
    # (z K_2(z)) with K_3 = K_1 + (4/z) K_2, and the squared norm of the
    # unnormalized components 4 pi K_2(z) / a
    for a in (0.05, 0.3, 1.0, 7.3, 30.0, 100.0):
        rep = _gradient_oracle(a)
        z = 2.0 * a
        k2 = bessel_k(2, z)
        k3 = bessel_k(1, z) + 4.0 / z * k2
        assert rep.mean_p[2] == pytest.approx(-0.5 / a, rel=1e-14)
        assert rep.delta_p_sq == pytest.approx(
            3.0 * k3 / (z * k2) - 0.25 / (a * a), rel=1e-14)
        assert rep.norm_sq == pytest.approx(4.0 * math.pi * k2 / a, rel=1e-14)


def test_relativistic_moment_matches_bessel_k2():
    # integral_0^inf p^2 e^{-beta E_p} dp = (m^2/beta) K2(m beta), m = 1, by
    # SciPy's adaptive quad: the packet's norm is this integral at beta = 2a
    beta = 2.0
    ref, err = quad(lambda p: p * p * math.exp(-beta * math.hypot(1.0, p)),
                    0.0, 60.0, limit=200, epsabs=1e-13, epsrel=1e-12)
    k_form = bessel_k(2, beta) / beta
    assert abs(ref - k_form) <= 1e-9 * k_form + err


def test_norm_const_frozen():
    # norm_sq is the squared norm of the unnormalized components, N^{-2}
    assert gamma_h(HopfionState(1.0)).norm_sq == pytest.approx(NORM_AT_1,
                                                               rel=1e-9)


def test_gamma_frozen_dual_config():
    rep = gamma_h(HopfionState(1.0))
    assert rep.gamma == pytest.approx(GAMMA_H_AT_1, abs=1e-5)
    assert rep.delta_r_sq == pytest.approx(DR2_AT_1, rel=1e-8)
    assert rep.delta_p_sq == pytest.approx(DP2_AT_1, rel=1e-8)
    # the gradient oracle at tighter tolerances must land on the same value
    tight = _gradient_oracle(1.0, QuadConfig(abs_tol=1e-11, rel_tol=1e-10))
    assert tight.gamma == pytest.approx(rep.gamma, abs=1e-5)


@pytest.mark.parametrize("a", [1.0, 15.0, 50.0])
def test_err_est_bounds_tighter_run(a):
    # err_est carries the three sums' step-halving gaps into gamma; the
    # gradient oracle at far tighter tolerances must land inside it
    rep = gamma_h(HopfionState(a))
    tight = _gradient_oracle(a, QuadConfig(abs_tol=1e-300, rel_tol=1e-12))
    assert abs(rep.gamma - tight.gamma) <= rep.err_est
    assert 0.0 < tight.err_est <= 1e-9


def test_closed_form_matches_gradient_oracle():
    # from the ultrarelativistic to the nonrelativistic end, the closed
    # form agrees with the gradient oracle at rel_tol 1e-12 to 1e-14 in
    # every field they share, and its err_est covers the gap in gamma while
    # staying at most 1e-13 gamma
    tight = QuadConfig(abs_tol=1e-300, rel_tol=1e-12)
    for a in np.geomspace(0.05, 100.0, 60):
        rep, ref = gamma_h(HopfionState(a)), _gradient_oracle(a, tight)
        for field in ("gamma", "delta_r_sq", "delta_p_sq", "norm_sq"):
            assert getattr(rep, field) == pytest.approx(
                getattr(ref, field), rel=1e-14), (a, field)
        assert rep.mean_p[2] == pytest.approx(ref.mean_p[2], rel=1e-14)
        assert abs(rep.gamma - ref.gamma) <= rep.err_est <= 1e-13 * rep.gamma


# (gamma, Delta r^2, Delta p^2) by the closed form in 40-digit mpmath, K_nu
# by besselk and Ki_1(z) = int_z^inf K_0 by quad, each summed by its
# Laplace expansion where z > 1e10, rounded to double
REPORT_FROZEN = {
    1.25e-154: (2.8722813232690143, 4.6875e-308, 1.76e+308),
    1e-100: (2.8722813232690143, 3e-200, 2.75e+200),
    1e-20: (2.8722813232690143, 3e-40, 2.75e+40),
    1e-3: (2.8700282072074086, 2.9952936062845995e-06, 2750001.4999810085),
    1e3: (1.5006248074067072, 1499.6245791778563, 0.0015016257027735363),
    1e20: (1.5, 1.5e+20, 1.5e-20),
    1e150: (1.5, 1.5e+150, 1.5e-150),
    8.9e307: (1.5, 1.335e+308, 1.685393258426966e-308),
}


@pytest.mark.parametrize("a", sorted(REPORT_FROZEN))
def test_report_on_the_whole_domain(a):
    # from where 11/(4a^2) is about to overflow to where 2a is, each field
    # within 1e-14 of mpmath and err_est at most 1e-14 gamma.  Above
    # a ~ 1e15 gamma can read one ulp below its limit 3/2, which err_est
    # covers
    rep = gamma_h(HopfionState(a))
    for field, ref in zip(("gamma", "delta_r_sq", "delta_p_sq"),
                          REPORT_FROZEN[a]):
        assert abs(getattr(rep, field) - ref) <= 1e-14 * ref, field
    assert abs(rep.gamma - REPORT_FROZEN[a][0]) <= rep.err_est
    assert 0.0 < rep.err_est <= 1e-14 * rep.gamma
    assert rep.mean_p[2] == -0.5 / a


def test_gamma_covers_its_limit_at_large_width():
    # gamma_H > 3/2 at every a, but from a ~ 1e15 its rounding can read
    # 1.4999999999999998 (at 60 of these widths)
    for a in np.geomspace(1e8, 8.9e307, 300):
        rep = gamma_h(HopfionState(a))
        assert rep.gamma + rep.err_est >= 1.5, a


def test_norm_leaves_the_double_range():
    # 4 pi K_2(2a) / a overflows at small a and underflows at large a
    # inside the domain; the dispersions do not
    assert gamma_h(HopfionState(1e-110)).norm_sq == math.inf
    assert gamma_h(HopfionState(400.0)).norm_sq == 0.0


@pytest.mark.parametrize("a", [0.05, 0.1, 1.0, 9.0, 50.0, 100.0])
def test_trapezoid_rule_matches_adaptive_reference(a):
    # the gradient oracle's trapezoid rule, and the closed form, against
    # SciPy's integrals of the same direct gradients
    ref = _adaptive_reference(a)
    for rep in (_gradient_oracle(a), gamma_h(HopfionState(a))):
        assert rep.gamma == pytest.approx(ref.gamma, rel=1e-12)
        assert rep.delta_r_sq == pytest.approx(ref.delta_r_sq, rel=1e-12)
        assert rep.delta_p_sq == pytest.approx(ref.delta_p_sq, rel=1e-12)
        assert rep.mean_p[2] == pytest.approx(ref.mean_p[2], rel=1e-12)
        assert rep.norm_sq == pytest.approx(ref.norm_sq, rel=1e-12)


def _rows_at_c(a, u, c):
    """_rows' nine rows per du dc at p = sinh u and cos(theta) = c,
    divided by e^{-2a}: polynomials of degree 2 in c, so the 2-node
    Gauss-Legendre rule in c, nodes +-1/sqrt(3) and weight 1, sums their
    integral over c in [-1, 1] exactly."""
    p, e = np.sinh(u), np.cosh(u)
    ep = p / e
    q = np.exp(-2.0 * a * np.sinh(0.5 * u) ** 2) / e
    dq = -q * ep * (a + 1.0 / e)
    dens_e = 2.0 * q * q * e * e * (e - p * c)
    d_p2 = dq * (e - p * c) + q * (ep - c)
    st_sq = 1.0 - c * c
    grad_sq = (p * p * (dq * dq + d_p2 * d_p2 + st_sq * (dq * p + q) ** 2)
               + 2.0 * q * q * p * p)
    out = np.zeros((9,) + dens_e.shape)
    out[0] = 2.0 * math.pi * p * p * dens_e
    out[1] = out[0] * p * p
    out[2] = 2.0 * math.pi * e * grad_sq
    out[5] = out[0] * p * c
    return out


@pytest.mark.parametrize("a", [0.05, 1.0, 100.0])
def test_rows_integrate_cos_theta_in_closed_form(a):
    # _rows takes the integral over cos(theta) in closed form; the 2-node
    # rule on the per-c rows is exact for it
    u = np.linspace(0.0, math.acosh(1.0 + 40.0 / a), 50)
    c = np.array([-1.0, 1.0]) / math.sqrt(3.0)
    two_node = _rows_at_c(a, u[:, None], c).sum(axis=-1)
    rows = _rows(a, u)
    assert rows.shape == (9, u.size)
    for k in (0, 1, 2, 5):
        assert np.all(np.abs(rows[k] - two_node[k])
                      <= 1e-14 * np.abs(two_node[k])), k
    assert np.all(rows[[3, 4, 6, 7, 8]] == 0.0)


@pytest.mark.parametrize("a", [0.05, 0.1, 1.0, 7.3, 10.0, 30.0, 100.0])
def test_amplitude_route_error_bar_covers_and_is_tight(a):
    # the amplitude route's err_est must hold its distance from gamma_h,
    # the independent route, and stay below 1e-7
    rep = dispersion_functional(amplitude_pair(HopfionState(a)))
    assert abs(rep.gamma - gamma_h(HopfionState(a)).gamma) <= rep.err_est <= 1e-7


def test_amplitude_route_matches_direct():
    # decomposition onto spin amplitudes + general functional vs the
    # closed form; no shared quadrature or derivative code
    direct = gamma_h(HopfionState(1.0))
    amp_rep = dispersion_functional(amplitude_pair(HopfionState(1.0)))
    assert amp_rep.gamma == pytest.approx(direct.gamma, rel=1e-8)
    assert amp_rep.delta_r_sq == pytest.approx(direct.delta_r_sq, rel=1e-8)
    assert amp_rep.delta_p_sq == pytest.approx(direct.delta_p_sq, rel=1e-8)
    assert amp_rep.mean_p[2] == pytest.approx(direct.mean_p[2], abs=1e-9)
    # gamma_h takes <r> = 0 in closed form; the amplitude route still
    # integrates it
    assert direct.mean_r == (0.0, 0.0, 0.0)
    assert np.max(np.abs(amp_rep.mean_r)) < 1e-10


def _counted_route(numeric, cfg=QuadConfig()):
    """The packet at a = 1 through the general functional, and the number
    of f_plus calls it made.  numeric strips the analytic partials off both
    amplitudes, which sends them through the functional's central
    differences on the broadcast grid."""
    amp = amplitude_pair(HopfionState(1.0))
    calls = []

    def route(fn):
        def f(p, th, ph):
            calls.append(fn)
            out = fn(p, th, ph)
            return out[0] if numeric else out
        return f

    rep = dispersion_functional(AmplitudePair(*map(route, amp)), cfg)
    return rep, calls.count(amp.f_plus)


def test_numeric_partials_match_analytic():
    # the same phi-dependent amplitudes without their analytic partials:
    # one call per chunk on the analytic route, four on the numeric one
    analytic, analytic_calls = _counted_route(numeric=False)
    numeric, numeric_calls = _counted_route(numeric=True)
    assert (analytic_calls, numeric_calls) == (12, 48)
    assert numeric.norm_sq == pytest.approx(analytic.norm_sq, rel=1e-9)
    assert numeric.delta_r_sq == pytest.approx(analytic.delta_r_sq, rel=1e-9)
    assert numeric.delta_p_sq == pytest.approx(analytic.delta_p_sq, rel=1e-9)


def test_numeric_partials_at_tight_tolerance():
    # the bare amplitudes' central differences must not swamp the phi
    # ladder with rounding at rel_tol 1e-12
    numeric, calls = _counted_route(
        numeric=True, cfg=QuadConfig(abs_tol=1e-300, rel_tol=1e-12))
    assert calls == 48
    assert abs(numeric.gamma - gamma_h(HopfionState(1.0)).gamma) <= 1e-12


def test_amplitude_partials_match_central_differences():
    amp = amplitude_pair(HopfionState(1.0))
    h = 1e-6
    for fn in amp:
        for _ in range(25):
            p = float(RNG.uniform(0.1, 8.0))
            th = np.array([float(RNG.uniform(0.1, math.pi - 0.1))])
            phi = float(RNG.uniform(0.0, 2.0 * math.pi))
            args = (p, th, phi)
            for ax in range(3):
                hi = [p, th, phi]
                lo = [p, th, phi]
                hi[ax] = hi[ax] + h
                lo[ax] = lo[ax] - h
                num = (np.asarray(fn(*hi)[0], dtype=complex)
                       - np.asarray(fn(*lo)[0], dtype=complex)) / (2.0 * h)
                ana = np.asarray(fn(*args)[1 + ax], dtype=complex)
                assert np.max(np.abs(ana - num)) < 1e-8


@pytest.mark.parametrize("a", [0.5, 1.0, 5.0])
def test_mean_momentum_closed_form(a):
    # <p_z> = -1/(2a) exactly for this packet
    rep = gamma_h(HopfionState(a))
    assert rep.mean_p[2] == pytest.approx(-0.5 / a, rel=1e-9)
    assert rep.mean_p[2] < 0.0
    assert abs(rep.mean_p[0]) < 1e-10
    assert abs(rep.mean_p[1]) < 1e-10
    assert np.max(np.abs(rep.mean_r)) < 1e-10


def test_curve_tail_approaches_limit():
    # gamma_H(a) - 3/2 falls like 1/a: a (gamma_H(a) - 3/2) rises slowly
    # (measured 0.6066, 0.6156, 0.6212), and gamma_H(50) is converged
    grid = [10.0, 20.0, 50.0]
    gs = [gamma_h(HopfionState(a)).gamma for a in grid]
    assert gs[0] > gs[1] > gs[2]
    scaled = [a * (g - 1.5) for a, g in zip(grid, gs)]
    assert scaled[0] < scaled[1] < scaled[2]
    assert all(0.60 <= s <= 0.63 for s in scaled)
    tight = _gradient_oracle(50.0, QuadConfig(abs_tol=1e-300, rel_tol=1e-12))
    assert gs[2] == pytest.approx(tight.gamma, rel=1e-9)
