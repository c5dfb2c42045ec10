"""Localized free-electron packet: density algebra, norm, gamma_H(a) curve.

gamma_H(a = 1) is frozen from two independent routes that agree to 1e-13:
direct component gradients (gamma_h) and decomposition onto spin
amplitudes fed through the general dispersion functional.  <p_z> has the
exact closed form -1/(2a), which pins the first-moment machinery.  A
third route lives only here: the direct-gradient integrands in (p, theta)
on SciPy's adaptive quad_vec in p and fixed Gauss-Legendre in theta,
against which gamma_h's trapezoid rule in p = sinh u is held over the whole
width range.
"""

import math

import numpy as np
import pytest
from scipy.integrate import fixed_quad, quad_vec

from relhur import (
    AmplitudePair,
    DispersionReport,
    HopfionState,
    MomentumPoint,
    QuadConfig,
    QuadResult,
    SweepTable,
    amplitude_pair,
    bessel_k,
    density,
    dispersion_functional,
    gamma_bound,
    gamma_h,
    gamma_h_curve,
    momentum_bispinor,
    norm_bessel_ratio,
    norm_const,
)

RNG = np.random.default_rng(42)

GAMMA_H_AT_1 = 1.9649111869950
DR2_AT_1 = 1.0794334081891
DP2_AT_1 = 3.5767616079766
NORM_AT_1 = 3.1888391228859  # equals 4 pi K2(2) to the quadrature tolerance
REFERENCE_GRID = [0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0]


def _adaptive_reference(a):
    """gamma_h's nine integrals over (p, theta) with the measure dp dtheta,
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
    return DispersionReport.from_integrals(QuadResult(values, np.zeros(9), 0))


def test_state_validation():
    with pytest.raises(ValueError):
        HopfionState(0.0)
    with pytest.raises(ValueError):
        HopfionState(-2.0)
    with pytest.raises(ValueError):
        HopfionState(math.inf)
    with pytest.raises(ValueError):
        gamma_h(HopfionState(0.01))  # below supported width range
    with pytest.raises(ValueError):
        gamma_h(HopfionState(200.0))


def test_rest_momentum_components():
    b = momentum_bispinor(HopfionState(1.0), MomentumPoint(0.0, 0.3, 1.2))
    expected = math.exp(-1.0) * np.array([1.0, 0.0, 1.0, 0.0])
    assert np.max(np.abs(b.components - expected)) < 1e-15


def test_density_phi_independent():
    state = HopfionState(0.7)
    pts = [MomentumPoint(1.3, 0.9, phi) for phi in (0.0, 1.0, 3.0, 5.5)]
    vals = [float(np.sum(np.abs(momentum_bispinor(state, pt).components) ** 2))
            for pt in pts]
    assert max(vals) - min(vals) <= 1e-15 * max(vals)


def test_fast_density_equals_component_sum():
    # (2/m^2) e^{-2aE} (E - p_z)/E against the explicit component sum
    state = HopfionState(1.3)
    for _ in range(100):
        pt = MomentumPoint(float(RNG.uniform(0.0, 12.0)),
                           float(RNG.uniform(0.0, math.pi)),
                           float(RNG.uniform(0.0, 2.0 * math.pi)))
        direct = float(np.sum(np.abs(momentum_bispinor(state, pt).components) ** 2))
        assert density(state, pt) == pytest.approx(direct, rel=1e-12)


def test_norm_ratio_width_independent():
    # quadrature norm / (K2(2a)/a) must not depend on a
    r1 = norm_bessel_ratio(HopfionState(1.0))
    r2 = norm_bessel_ratio(HopfionState(2.0))
    r5 = norm_bessel_ratio(HopfionState(5.0))
    assert r1 == pytest.approx(r2, rel=1e-8)
    assert r1 == pytest.approx(r5, rel=1e-8)
    # measured constant, frozen: the solid-angle factor
    assert r1 == pytest.approx(4.0 * math.pi, rel=1e-8)
    with pytest.raises(ValueError, match="underflows"):
        norm_bessel_ratio(HopfionState(400.0))


def test_norm_const_frozen():
    assert norm_const(HopfionState(1.0)) == pytest.approx(NORM_AT_1, rel=1e-9)


def test_norm_large_width_asymptotics():
    # at a = 20 the K2 route and quadrature still agree; e^{40} rescaling
    # keeps the comparison in range
    val = norm_const(HopfionState(20.0)) * math.exp(40.0)
    ref = 4.0 * math.pi * bessel_k(2, 40.0) * math.exp(40.0) / 20.0
    assert val == pytest.approx(ref, rel=1e-8)


def test_gamma_frozen_dual_config():
    rep = gamma_h(HopfionState(1.0))
    assert rep.gamma == pytest.approx(GAMMA_H_AT_1, abs=1e-5)
    assert rep.delta_r_sq == pytest.approx(DR2_AT_1, rel=1e-8)
    assert rep.delta_p_sq == pytest.approx(DP2_AT_1, rel=1e-8)
    # a second, tighter configuration must land on the same value
    tight = gamma_h(HopfionState(1.0),
                    QuadConfig(abs_tol=1e-11, rel_tol=1e-10))
    assert tight.gamma == pytest.approx(rep.gamma, abs=1e-5)


@pytest.mark.parametrize("a", [1.0, 15.0, 50.0])
def test_err_est_bounds_tighter_run(a):
    # err_est carries the quadrature's own row estimates into gamma; a run
    # at far tighter tolerances must land inside it.  At a = 15 and 50 the
    # unnormalized integrals sit far below the default abs_tol, which
    # therefore scales with them.
    rep = gamma_h(HopfionState(a))
    tight = gamma_h(HopfionState(a), QuadConfig(abs_tol=1e-300, rel_tol=1e-12))
    assert abs(rep.gamma - tight.gamma) <= rep.err_est
    assert 0.0 < tight.err_est <= 1e-9


@pytest.mark.parametrize("a", [0.05, 0.1, 1.0, 9.0, 50.0, 100.0])
def test_trapezoid_rule_matches_adaptive_reference(a):
    ref = _adaptive_reference(a)
    rep = gamma_h(HopfionState(a))
    assert rep.gamma == pytest.approx(ref.gamma, rel=1e-12)
    assert rep.delta_r_sq == pytest.approx(ref.delta_r_sq, rel=1e-12)
    assert rep.delta_p_sq == pytest.approx(ref.delta_p_sq, rel=1e-12)
    assert rep.mean_p[2] == pytest.approx(ref.mean_p[2], rel=1e-12)
    assert rep.norm_sq == pytest.approx(ref.norm_sq, rel=1e-12)
    assert norm_const(HopfionState(a)) == pytest.approx(ref.norm_sq, rel=1e-12)


@pytest.mark.parametrize("a", [0.1, 1.0, 7.3])
def test_amplitude_route_error_bar_covers_and_is_tight(a):
    # the amplitude route's err_est must hold its distance from gamma_h,
    # the independent route, and stay below 1e-7
    rep = dispersion_functional(amplitude_pair(HopfionState(a)))
    assert abs(rep.gamma - gamma_h(HopfionState(a)).gamma) <= rep.err_est <= 1e-7


def test_amplitude_route_matches_direct():
    # decomposition onto spin amplitudes + general functional vs direct
    # component gradients; fully independent derivative code paths
    direct = gamma_h(HopfionState(1.0))
    amp_rep = dispersion_functional(amplitude_pair(HopfionState(1.0)))
    assert amp_rep.gamma == pytest.approx(direct.gamma, rel=1e-8)
    assert amp_rep.delta_r_sq == pytest.approx(direct.delta_r_sq, rel=1e-8)
    assert amp_rep.delta_p_sq == pytest.approx(direct.delta_p_sq, rel=1e-8)
    assert amp_rep.mean_p[2] == pytest.approx(direct.mean_p[2], abs=1e-9)
    # gamma_h takes <r> = 0 in closed form; the amplitude route still
    # integrates it
    assert np.all(direct.mean_r == 0.0)
    assert np.max(np.abs(amp_rep.mean_r)) < 1e-10


def test_numeric_partials_match_analytic():
    # the same phi-dependent amplitudes without their analytic partials go
    # through the functional's central differences on the broadcast grid
    amp = amplitude_pair(HopfionState(1.0))
    analytic = dispersion_functional(amp)
    numeric = dispersion_functional(
        AmplitudePair(f_plus=amp.f_plus, f_minus=amp.f_minus))
    assert numeric.norm_sq == pytest.approx(analytic.norm_sq, rel=1e-9)
    assert numeric.delta_r_sq == pytest.approx(analytic.delta_r_sq, rel=1e-9)
    assert numeric.delta_p_sq == pytest.approx(analytic.delta_p_sq, rel=1e-9)


def test_numeric_partials_at_tight_tolerance():
    # the bare amplitudes' central differences must not swamp the phi
    # ladder with rounding at rel_tol 1e-12
    amp = amplitude_pair(HopfionState(1.0))
    numeric = dispersion_functional(
        AmplitudePair(f_plus=amp.f_plus, f_minus=amp.f_minus),
        QuadConfig(abs_tol=1e-300, rel_tol=1e-12))
    assert abs(numeric.gamma - gamma_h(HopfionState(1.0)).gamma) <= 1e-12


def test_amplitude_partials_match_central_differences():
    amp = amplitude_pair(HopfionState(1.0))
    h = 1e-6
    for fn, parts in ((amp.f_plus, amp.partials_plus),
                      (amp.f_minus, amp.partials_minus)):
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
                num = (np.asarray(fn(*hi), dtype=complex)
                       - np.asarray(fn(*lo), dtype=complex)) / (2.0 * h)
                ana = np.asarray(parts[ax](*args), dtype=complex)
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


def test_nonrelativistic_limit():
    g = gamma_h(HopfionState(50.0)).gamma
    assert abs(g - 1.5) / 1.5 < 0.02
    assert g - 1.5 < 0.03


def test_curve_strictly_decreasing():
    table = gamma_h_curve(REFERENCE_GRID)
    assert isinstance(table, SweepTable)
    gs = [g for _, g in table.rows]
    assert all(a > b for a, b in zip(gs, gs[1:]))
    assert all(g > 1.5 for g in gs)
    assert [a for a, _ in table.rows] == REFERENCE_GRID


def test_curve_tail_approaches_limit():
    # gamma_H(a) - 3/2 falls like 1/a: a (gamma_H(a) - 3/2) rises slowly
    # (measured 0.6066, 0.6156, 0.6212), and gamma_H(50) is converged
    table = gamma_h_curve([10.0, 20.0, 50.0])
    gs = [g for _, g in table.rows]
    assert gs[0] > gs[1] > gs[2]
    scaled = [a * (g - 1.5) for a, g in table.rows]
    assert scaled[0] < scaled[1] < scaled[2]
    assert all(0.60 <= s <= 0.63 for s in scaled)
    tight = gamma_h(HopfionState(50.0),
                    QuadConfig(abs_tol=1e-300, rel_tol=1e-12))
    assert gs[2] == pytest.approx(tight.gamma, rel=1e-9)


def test_single_point_curve_degenerates():
    table = gamma_h_curve([1.0])
    assert table.rows[0][0] == 1.0
    assert table.rows[0][1] == pytest.approx(gamma_h(HopfionState(1.0)).gamma,
                                             rel=1e-12)


def test_curve_rejects_bad_grids():
    with pytest.raises(ValueError):
        gamma_h_curve([])
    with pytest.raises(ValueError):
        gamma_h_curve([2.0, 1.0])
    with pytest.raises(ValueError):
        gamma_h_curve([0.001, 1.0])


def test_bound_consistency():
    # the packet is a concrete electron state: it must sit above the bound
    rep = gamma_h(HopfionState(1.0))
    d_state = (rep.delta_p_sq / rep.delta_r_sq) ** 0.25
    assert rep.gamma >= gamma_bound(d_state) - 1e-3
