"""Acceptance gate: every release criterion, one pass/fail line each.

Run with `pytest -v tests/test_acceptance.py`; the verbose test line is the
per-criterion record.  Criterion 5a pins the weak-field hydrogen product at
gamma_c = 1 to sqrt(3) at 1e-9.  At that point the ground state is the
nonrelativistic 1s state psi ~ e^(-r/a), whose textbook moments are
<r^2> = 3 a^2 and <p^2> = 1/a^2 with <r> = <p> = 0, so
sqrt(dr^2 dp^2) = sqrt(3).  5a checks the closed form against that value
and the bispinor quadrature oracle's two dispersions one by one; 5b carries
the dual-route consistency evidence over the whole Z range.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from relhur import (
    AmplitudePair,
    CoulombState,
    DivergenceError,
    GAMMA_AT_INF,
    INFINITY,
    bessel_k,
    bispinor_u,
    dispersion_functional,
    gamma_estimates,
    gamma_h,
    gaussian_limit_residual,
    HopfionState,
    oracle_gamma,
    product_closed_gamma,
    ultrarelativistic_limit_residual,
)

S_ULTRA = 0.5 * (math.sqrt(5.0) - 1.0)


def _record(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def hydrogen_results():
    t0 = time.perf_counter()
    weak = product_closed_gamma(1.0)
    pairs = {}
    for z in (1, 40, 80, 110):
        g = CoulombState(Z=z).gamma_c
        pairs[z] = (product_closed_gamma(g), oracle_gamma(g).gamma)
    diverged = []
    for gamma_c in (0.5, 0.3):
        try:
            product_closed_gamma(gamma_c)
            diverged.append(False)
        except DivergenceError:
            diverged.append(True)
    elapsed = time.perf_counter() - t0
    return weak, pairs, diverged, elapsed


@pytest.fixture(scope="module")
def hopfion_results():
    t0 = time.perf_counter()
    gs = [gamma_h(HopfionState(a)).gamma
          for a in (0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0)]
    elapsed = time.perf_counter() - t0
    return gs, elapsed


def test_criterion_1_nonrelativistic_anchor():
    t0 = time.perf_counter()
    [(g, _)] = gamma_estimates([0.0])
    dt = time.perf_counter() - t0
    ok = abs(g - 1.5) <= 1e-7 and dt < 1.0
    _record("1", ok, f"gamma(0) = {g:.10f} (target 1.5 +- 1e-7), {dt:.2f}s")


def test_criterion_2_ultrarelativistic_anchor():
    t0 = time.perf_counter()
    [(g, _)] = gamma_estimates([INFINITY])
    dt = time.perf_counter() - t0
    target = 1.0 + 0.5 * math.sqrt(5.0)
    ok = abs(g - target) <= 1e-6 and dt < 1.0
    _record("2", ok,
            f"gamma(inf) = {g:.10f} (target {target:.9f} +- 1e-6), {dt:.2f}s")


def test_criterion_3_strictness_and_approach():
    grid = [1e-2, 1e-1, 1.0, 10.0, 100.0]
    gs = [g for g, _ in gamma_estimates(grid)]
    strict = all(g > 1.5 for g in gs)
    approach = gs[0] - 1.5 < 1e-2
    monotone = all(a < b for a, b in zip(gs, gs[1:]))
    ok = strict and approach and monotone
    _record("3", ok,
            f"strict={strict} approach(diff={gs[0] - 1.5:.2e})={approach} "
            f"monotone={monotone}")


def test_criterion_4_exact_solution_residuals():
    r0 = gaussian_limit_residual(1.5)
    ri = ultrarelativistic_limit_residual(GAMMA_AT_INF)
    ok = r0 <= 1e-10 and ri <= 1e-10
    _record("4", ok, f"gaussian residual {r0:.2e}, "
                     f"power-law residual {ri:.2e} (both <= 1e-10)")


def test_criterion_5a_weak_field_value(hydrogen_results):
    weak = hydrogen_results[0]
    # Nonrelativistic 1s state psi ~ e^(-r/a), lengths in units of a:
    #   <r^2> = int r^4 e^(-2r) dr / int r^2 e^(-2r) dr = (4!/2^5)/(2!/2^3) = 3
    #   <p^2> = int |psi'|^2 r^2 dr / int |psi|^2 r^2 dr = 1   (psi' = -psi)
    # and <r> = <p> = 0 by symmetry, so the product is sqrt(3 * 1).
    dr_sq, dp_sq = 3.0, 1.0
    target = math.sqrt(dr_sq * dp_sq)
    oracle = oracle_gamma(1.0)
    closed_ok = abs(weak - target) <= 1e-9
    r_ok = abs(oracle.delta_r_sq - dr_sq) <= 1e-9 * dr_sq
    p_ok = abs(oracle.delta_p_sq - dp_sq) <= 1e-9 * dp_sq
    ok = closed_ok and r_ok and p_ok
    _record("5a", ok,
            f"closed form at gamma_c=1 is {weak:.10f} (target sqrt(3) = "
            f"{target:.10f} +- 1e-9, from the 1s moments <r^2> = 3 a^2, "
            f"<p^2> = 1/a^2); oracle dr^2 = {oracle.delta_r_sq:.10f} "
            f"(target 3), dp^2 = {oracle.delta_p_sq:.10f} (target 1), "
            "both at rel 1e-9")


def test_criterion_5b_closed_vs_oracle(hydrogen_results):
    _, pairs, _, elapsed = hydrogen_results
    worst = max(abs(o - c) / c for c, o in pairs.values())
    ok = worst <= 1e-6 and elapsed < 10.0
    _record("5b", ok,
            f"worst closed/oracle rel diff {worst:.2e} over Z in "
            f"{{1,40,80,110}} (<= 1e-6), hydrogen total {elapsed:.1f}s")


def test_criterion_5c_divergence_gate(hydrogen_results):
    diverged = hydrogen_results[2]
    ok = all(diverged)
    _record("5c", ok, "DivergenceError raised at gamma_c in {0.5, 0.3}")


def test_criterion_6_hopfion_limit(hopfion_results):
    gs, elapsed = hopfion_results
    near = abs(gs[-1] - 1.5) / 1.5 < 0.02
    monotone = all(a > b for a, b in zip(gs, gs[1:]))
    ok = near and monotone and elapsed < 60.0
    _record("6", ok,
            f"gamma_H(50) = {gs[-1]:.6f} (within 2% of 1.5: {near}), "
            f"strictly decreasing: {monotone}, curve total {elapsed:.1f}s")


def test_criterion_7_orthonormality():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        pt = (float(rng.uniform(0, 25)), float(rng.uniform(0, math.pi)),
              float(rng.uniform(0, 2 * math.pi)))
        up = bispinor_u(*pt, +1)
        um = bispinor_u(*pt, -1)
        worst = max(worst,
                    abs(np.vdot(up, up).real - 1.0),
                    abs(np.vdot(um, um).real - 1.0),
                    abs(np.vdot(up, um)))
    ok = worst <= 1e-12
    _record("7", ok, f"max orthonormality deviation {worst:.2e} (<= 1e-12)")


def test_criterion_8_special_functions():
    worst_rec = 0.0
    for x in (1e-3, 0.01, 0.1, 1.0, 5.0, 20.0, 100.0, 200.0):
        k2 = bessel_k(2, x)
        worst_rec = max(worst_rec,
                        abs(k2 - bessel_k(0, x) - 2 * bessel_k(1, x) / x) / k2)
    worst_int = 0.0
    for x in (0.5, 2.0, 10.0):
        for nu in (0, 1, 2):
            t_cut = math.acosh(1.0 + 745.0 / x)
            ref, _ = quad(lambda t: math.exp(-x * math.cosh(t))
                          * math.cosh(nu * t), 0.0, t_cut,
                          limit=200, epsabs=1e-14, epsrel=1e-12)
            worst_int = max(worst_int, abs(bessel_k(nu, x) - ref) / ref)
    ok = worst_rec <= 1e-10 and worst_int <= 1e-9
    _record("8", ok, f"recurrence dev {worst_rec:.2e} (<= 1e-10), "
                     f"integral-representation dev {worst_int:.2e} (<= 1e-9)")


def test_criterion_9_property_suite():
    def gaussian(p, th, phi):
        return np.exp(-0.5 * p * p) * np.ones_like(th, dtype=complex)

    base = dispersion_functional(AmplitudePair(f_plus=gaussian))
    phase = complex(math.cos(1.1), math.sin(1.1))
    rot = dispersion_functional(
        AmplitudePair(f_plus=lambda p, th, phi: phase * gaussian(p, th, phi)))
    phase_ok = (abs(rot.gamma - base.gamma) <= 1e-9 * base.gamma
                and abs(rot.norm_sq - base.norm_sq) <= 1e-9 * base.norm_sq)

    def ultra(p, th, phi):
        return (p ** S_ULTRA * np.exp(-0.5 * p * p)
                * np.ones_like(th, dtype=complex))

    lam = 2.0
    rep0 = dispersion_functional(AmplitudePair(f_plus=ultra), mass=0.0)
    rep1 = dispersion_functional(
        AmplitudePair(f_plus=lambda p, th, phi: ultra(p / lam, th, phi)),
        mass=0.0)
    scale_ok = abs(rep1.gamma - rep0.gamma) <= 1e-6 * rep0.gamma

    norm, _ = quad(lambda p: p * p * math.exp(-p * p), 0, 40,
                   limit=200, epsabs=1e-13)
    grad, _ = quad(lambda p: p * p * p * p * math.exp(-p * p)
                   + (1 - 1 / math.hypot(1, p)
                      + p * p / (4 * math.hypot(1, p) ** 4))
                   * math.exp(-p * p), 0, 40, limit=200, epsabs=1e-13)
    reduction_ok = abs(base.delta_r_sq - grad / norm) <= 1e-8 * (grad / norm)

    [(gamma_1, _)] = gamma_estimates([1.0])
    frozen_ok = (abs(gamma_1 - 1.672106352635) <= 1e-6
                 and abs(gamma_h(HopfionState(1.0)).gamma
                         - 1.9649111869950) <= 1e-6
                 and abs(product_closed_gamma(CoulombState(Z=80).gamma_c)
                         - 2.3613744819062847) <= 1e-6)

    ok = phase_ok and scale_ok and reduction_ok and frozen_ok
    _record("9", ok,
            f"phase={phase_ok} scaling={scale_ok} reduction={reduction_ok} "
            f"frozen regressions={frozen_ok}")
