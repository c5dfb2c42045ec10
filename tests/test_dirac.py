"""Bispinor algebra and the dispersion functional.

The two gamma anchors (3/2 nonrelativistic, 1 + sqrt(5)/2 massless) have
closed-form minimizers, so they pin the full functional including every
mass-dependent and spin-connection term.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from relhur import (
    AmplitudePair,
    Bispinor,
    CoulombState,
    DispersionReport,
    HopfionState,
    MomentumPoint,
    QuadConfig,
    QuadResult,
    QuadratureError,
    bispinor_partials,
    bispinor_u,
    dispersion_functional,
    gamma_bound,
    gamma_h,
    oracle_gamma,
)
from relhur import dirac_states, hopfion, hydrogen, quadrature

S_ULTRA = 0.5 * (math.sqrt(5.0) - 1.0)
RNG = np.random.default_rng(20250814)


def _random_points(n):
    p = RNG.uniform(0.0, 30.0, n)
    theta = RNG.uniform(0.0, math.pi, n)
    phi = RNG.uniform(0.0, 2.0 * math.pi, n)
    return [MomentumPoint(float(a), float(b), float(c))
            for a, b, c in zip(p, theta, phi)]


def _gaussian(p, thetas, phi):
    return np.exp(-0.5 * p * p) * np.ones_like(thetas, dtype=complex)


def test_momentum_point_validation():
    with pytest.raises(ValueError):
        MomentumPoint(-1.0, 0.5, 0.0)
    with pytest.raises(ValueError):
        MomentumPoint(1.0, 3.5, 0.0)
    with pytest.raises(ValueError):
        MomentumPoint(math.inf, 0.5, 0.0)
    assert MomentumPoint(3.0, 0.5, 0.0).energy == pytest.approx(
        math.sqrt(10.0), rel=1e-15)


def test_bispinor_component_validation():
    with pytest.raises(ValueError):
        Bispinor(components=np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        Bispinor(components=np.array([1.0, 0.0, 0.0, math.nan]))
    with pytest.raises(ValueError, match="spin"):
        bispinor_u(MomentumPoint(1.0, 0.5, 0.0), 0)


def test_rest_frame_spin_up():
    u = bispinor_u(MomentumPoint(0.0, 0.3, 1.1), +1).components
    expected = np.array([1.0 / math.sqrt(2.0), 0.0, 1.0 / math.sqrt(2.0), 0.0])
    assert np.max(np.abs(u - expected)) < 1e-14


def test_orthonormality_thousand_points():
    # and at momenta where 4 E (1 + E) would overflow (from p = 6.7e153)
    huge = [MomentumPoint(p, 1.0, 2.0) for p in (1e154, 1e200, 1e300)]
    worst = 0.0
    for pt in _random_points(1000) + huge:
        up = bispinor_u(pt, +1).components
        um = bispinor_u(pt, -1).components
        worst = max(worst,
                    abs(np.vdot(up, up).real - 1.0),
                    abs(np.vdot(um, um).real - 1.0),
                    abs(np.vdot(up, um)))
    assert worst <= 1e-12
    for pt in huge:
        for s in (+1, -1):
            assert all(np.all(np.isfinite(d.components))
                       for d in bispinor_partials(pt, s))


def test_cross_spin_overlap_zero():
    for pt in _random_points(100):
        up = bispinor_u(pt, +1).components
        um = bispinor_u(pt, -1).components
        assert abs(np.vdot(up, um)) <= 1e-13


def test_partials_match_central_differences():
    h = 1e-5
    points = _random_points(20)
    for s in (+1, -1):
        for pt in points:
            if pt.p < 2 * h or not (2 * h < pt.theta < math.pi - 2 * h):
                continue
            dp, dth, dph = bispinor_partials(pt, s)
            for ax, analytic in ((0, dp), (1, dth), (2, dph)):
                args = [pt.p, pt.theta, pt.phi]
                hi, lo = list(args), list(args)
                hi[ax] += h
                lo[ax] -= h
                num = (bispinor_u(MomentumPoint(*hi), s).components
                       - bispinor_u(MomentumPoint(*lo), s).components) / (2 * h)
                assert np.max(np.abs(analytic.components - num)) < 1e-8
        # at p = 0, dE/dp = 0 and only the sigma.n term is left; p cannot go
        # below 0, so a one-sided second-order difference
        u = [bispinor_u(MomentumPoint(k * h, 0.7, 2.3), s).components
             for k in range(3)]
        num = (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2 * h)
        dp = bispinor_partials(MomentumPoint(0.0, 0.7, 2.3), s)[0].components
        assert np.max(np.abs(dp - num)) < 1e-8


def test_spin_connection_closed_form():
    # <u(s')|d_k u(s)> from the public bispinors (m = 1) against the closed
    # form that dispersion_functional uses for its <r> rows
    for p in (0.05, 0.7, 3.0, 12.0):
        for theta in (0.3, 1.2, 2.8):
            for phi in (0.0, 1.9, 4.6):
                pt = MomentumPoint(p, theta, phi)
                u = [bispinor_u(pt, s).components for s in (+1, -1)]
                du = [bispinor_partials(pt, s) for s in (+1, -1)]
                conn = np.array([[[np.vdot(u[i], du[j][k].components)
                                   for j in range(2)] for i in range(2)]
                                 for k in range(3)])
                half = 0.5 * (1.0 - 1.0 / pt.energy)
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
    f = [amp.f_plus(p, th, phis), amp.f_minus(p, th, phis)]
    g = [[d(p, th, phis) for d in parts]
         for parts in (amp.partials_plus, amp.partials_minus)]
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
            return spin(p, th, ph)[0] * shift(p, th, ph)[0]

        def partial(k):
            def d(p, th, ph):
                (val, dval), (s, ds) = spin(p, th, ph), shift(p, th, ph)
                return dval[k] * s + val * ds[k]
            return d

        return f, tuple(partial(k) for k in range(3))

    (f_plus, d_plus), (f_minus, d_minus) = shifted(up), shifted(down)
    return AmplitudePair(f_plus=f_plus, f_minus=f_minus,
                         partials_plus=d_plus, partials_minus=d_minus)


@pytest.mark.parametrize("mass", [1.0, 0.3, 0.0])
def test_spin_connection_matches_four_component_oracle(mass, monkeypatch):
    # dispersion_functional takes <r> from the closed-form spin connection;
    # the oracle replaces its <r> rows by the contraction over the four
    # components of psi.  Both runs integrate on the same nodes, so a
    # coarse tolerance loses nothing: they differ by rounding only.
    amp = _shifted_two_spin_state()
    rep = dispersion_functional(amp, _COARSE, mass=mass)
    integrate = dirac_states.integrate_exp_sinh

    def with_oracle_rows(rows, cfg, control_rows, staged):
        def replaced(p, thetas, stage):
            out = rows(p, thetas, stage)
            out[6:9] = _four_component_r_rows(amp, mass, p, thetas)
            return out
        return integrate(replaced, cfg, control_rows=control_rows,
                         staged=staged)

    monkeypatch.setattr(dirac_states, "integrate_exp_sinh", with_oracle_rows)
    oracle = dispersion_functional(amp, _COARSE, mass=mass)
    assert np.max(np.abs(rep.mean_r - oracle.mean_r)) <= 1e-12
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
    # the module's quadrature binding, wrapped to count the grid points its
    # integrand is called on: the exp-sinh rule for the general functional,
    # the trapezoid rule for the two families
    name = ("integrate_exp_sinh" if module is dirac_states
            else "integrate_trapezoid")
    points = []
    integrate = getattr(module, name)

    def counted(rows, *args, **kwargs):
        def wrapped(*grid):
            points.append(np.broadcast(*grid).size)
            return rows(*grid)
        return integrate(wrapped, *args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    rep = run()
    assert rep.evaluations == sum(points) > 0


def _harmonic_15_state(beta):
    # f+ = e^{-p^2/2} (sin theta e^{i phi})^15 beside the phi-free
    # f- = 0.7 p e^{-0.6 p^2} sin theta e^{i beta}, with analytic partials
    spin_phase = complex(math.cos(beta), math.sin(beta))

    def plus(p, th, ph):
        return np.exp(-0.5 * p * p) * (np.sin(th) * np.exp(1j * ph)) ** 15

    def minus(p, th, ph):
        return 0.7 * p * np.exp(-0.6 * p * p) * np.sin(th) * spin_phase + 0j

    return AmplitudePair(
        f_plus=plus, f_minus=minus,
        partials_plus=(
            lambda p, th, ph: -p * plus(p, th, ph),
            lambda p, th, ph: 15.0 * np.exp(-0.5 * p * p) * np.cos(th)
            * np.exp(1j * ph) * (np.sin(th) * np.exp(1j * ph)) ** 14,
            lambda p, th, ph: 15j * plus(p, th, ph)),
        partials_minus=(
            lambda p, th, ph: 0.7 * (1.0 - 1.2 * p * p) * np.exp(-0.6 * p * p)
            * np.sin(th) * spin_phase + 0j,
            lambda p, th, ph: 0.7 * p * np.exp(-0.6 * p * p) * np.cos(th)
            * spin_phase + 0j,
            lambda p, th, ph: np.zeros_like(th, dtype=complex)))


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


def _staged_calls(monkeypatch, amp):
    """amp with its f_plus recording, per integration of the dispersion
    functional, each integrand call's stage and the phi widths of the
    f_plus calls it made."""
    calls = []
    integrate = dirac_states.integrate_exp_sinh

    def recorded(rows, *args, **kwargs):
        calls.append([])

        def staged(p, thetas, stage):
            calls[-1].append((stage, set()))
            return rows(p, thetas, stage)
        return integrate(staged, *args, **kwargs)

    def plus(p, th, ph):
        calls[-1][-1][1].add(np.shape(ph)[-1])
        return amp.f_plus(p, th, ph)

    monkeypatch.setattr(dirac_states, "integrate_exp_sinh", recorded)
    return amp._replace(f_plus=plus), calls


def _stages(calls):
    """One integration's stages, checked to run first, later, recheck."""
    stages = [stage for stage, _ in calls]
    k = stages.index("later")
    assert stages == ["first"] * k + ["later"] * (len(stages) - k - 1) + [
        "recheck"]
    return k


def test_phi_pair_picked_once_per_call(monkeypatch):
    # the harmonic-15 state needs the 32/33 pair: the first call of the
    # first t level rejects 8/9, then 16/17, each time ending that
    # integration, and the integration at 32/33 checks both rules on the
    # whole first level, evaluates only the 33 nodes on later levels and
    # re-checks the last level with the 32
    amp, calls = _staged_calls(monkeypatch, _harmonic_15_state(0.0))
    rep = dispersion_functional(amp, _COARSE)
    assert calls[:2] == [[("first", {17})], [("first", {33})]]
    (accepted,) = calls[2:]
    k = _stages(accepted)
    assert [widths for _, widths in accepted] == (
        [{65}] * k + [{33}] * (len(accepted) - k - 1) + [{32}])
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
    amp, calls = _staged_calls(monkeypatch, _band_state())
    rep = dispersion_functional(amp)
    # 8/9 passes the first level and fails the re-check, which integrates
    # once more, at 16/17, from the first level (numeric partials: the phi
    # probes stack four phi grids in one call)
    assert len(calls) == 2
    for integration, n in zip(calls, (8, 16)):
        k = _stages(integration)
        for (_, widths), w in zip([integration[0], integration[k],
                                   integration[-1]], (2 * n + 1, n + 1, n)):
            assert widths == {w, 4 * w}
    monkeypatch.undo()

    # the same as starting at the rung it climbs to
    monkeypatch.setattr(dirac_states, "_N_PHI_PAIRS", (16, 32, 64))
    forced = dispersion_functional(_band_state())
    for field in ("norm_sq", "delta_r_sq", "delta_p_sq", "gamma", "err_est"):
        assert getattr(rep, field) == getattr(forced, field)
    monkeypatch.undo()

    # without the re-check the 9-node sums stand, off by far more than the
    # error estimate says
    integrate = dirac_states.integrate_exp_sinh

    def without_recheck(rows, *args, **kwargs):
        def unchecked(p, thetas, stage):
            if stage == "recheck":
                return np.zeros((9, p.shape[0], thetas.shape[1]))
            return rows(p, thetas, stage)
        return integrate(unchecked, *args, **kwargs)

    monkeypatch.setattr(dirac_states, "integrate_exp_sinh", without_recheck)
    unchecked = dispersion_functional(_band_state())
    assert abs(unchecked.gamma - rep.gamma) > 1e-3
    assert abs(unchecked.gamma - rep.gamma) > 1e6 * (unchecked.err_est
                                                     + rep.err_est)


def _ufunc_gaussian(p, theta, phi):
    # e^{-p^2/2} on the full broadcast grid, with numeric partials
    p, theta, phi = np.broadcast_arrays(p, theta, phi)
    return np.exp(-0.5 * np.square(p)) + 0j


@pytest.mark.parametrize("amp, amp_calls, points, max_points", [
    # analytic partials: one f_plus call per chunk of at most 3264 points
    (hopfion.amplitude_pair(HopfionState(1.0)), 12, 25_844, 3264),
    # numeric partials: and one call per axis with four probes stacked
    (AmplitudePair(f_plus=_ufunc_gaussian), 48, 13 * 25_844, 4 * 3264),
], ids=["hopfion", "gaussian"])
def test_work_counts_pinned(monkeypatch, amp, amp_calls, points, max_points):
    # the work at the default QuadConfig, pinned so that a change which
    # inflates it fails here: 7 integrand calls (two on the first t level,
    # four later levels, the re-check) on 2740 (p, theta) points, and
    # 25 844 (p, theta, phi) points per field
    calls, sizes = [], []
    integrate = dirac_states.integrate_exp_sinh

    def counted(rows, *args, **kwargs):
        def staged(p, thetas, stage):
            calls.append(stage)
            return rows(p, thetas, stage)
        return integrate(staged, *args, **kwargs)

    def plus(p, th, ph):
        sizes.append(np.broadcast(p, th, ph).size)
        return amp.f_plus(p, th, ph)

    monkeypatch.setattr(dirac_states, "integrate_exp_sinh", counted)
    rep = dispersion_functional(amp._replace(f_plus=plus))
    assert calls == ["first"] * 2 + ["later"] * 4 + ["recheck"]
    assert rep.evaluations == 2740
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
    # any concrete state must lie on or above the bound curve
    rep = dispersion_functional(AmplitudePair(f_plus=_gaussian), mass=1.0)
    d_state = (rep.delta_p_sq / rep.delta_r_sq) ** 0.25
    assert rep.gamma >= gamma_bound(d_state) - 1e-4


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
    with pytest.raises(ValueError, match="partials"):
        dispersion_functional(AmplitudePair(f_plus=_gaussian,
                                            partials_plus=[_gaussian]))


def test_report_rejects_invalid_integrals():
    # rows: norm, p and r second moments, <p>, <r>
    def report(values):
        return DispersionReport.from_integrals(
            QuadResult(np.array(values, dtype=float), np.zeros(9), 0))

    with pytest.raises(ValueError, match="normalizable"):
        report([0.0, 1.0, 1.0] + [0.0] * 6)
    with pytest.raises(ValueError, match="non-positive"):
        report([1.0, -1.0, 1.0] + [0.0] * 6)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_rejects_non_normalizable(monkeypatch):
    # the divergent norm integrand hits inf*0 internally before the
    # quadrature notices and raises; the warnings are expected noise.  A
    # 900-node budget keeps the run short.
    monkeypatch.setattr(quadrature, "_MAX_T_NODES", 900)
    with pytest.raises((QuadratureError, ValueError)):
        dispersion_functional(
            AmplitudePair(f_plus=lambda p, th, ph: np.ones_like(th,
                                                                dtype=complex)))


def test_rejects_negative_mass():
    with pytest.raises(ValueError):
        dispersion_functional(AmplitudePair(f_plus=_gaussian), mass=-1.0)
