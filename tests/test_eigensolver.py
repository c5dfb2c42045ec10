"""Radial ground-state solver: analytic anchors, moments, and invariants.

Closed-form anchors used here:

  V = q^2          -> gamma = 3/2,   f ~ e^{-q^2/2},         <q^2> = 3/2
  V = 1/q^2 + q^2  -> gamma = 1+sqrt(5)/2, f ~ q^s e^{-q^2/2} with
                      s = (sqrt(5)-1)/2 and <q^2> = s + 3/2
  V = 2/q^2 + q^2  -> gamma = 5/2 (centrifugal l = 1, gamma = l + 3/2)
"""

import math

import numpy as np
import pytest
from scipy.integrate import simpson

from relhur import (
    EigenResult,
    RadialPotential,
    ground_state,
    moment,
)
from relhur.radial_eigensolver import _simpson

S_ULTRA = 0.5 * (math.sqrt(5.0) - 1.0)
TOL = 1e-7


def _oscillator():
    return RadialPotential(evaluate=lambda q: q * q)


def _singular(c):
    return RadialPotential(evaluate=lambda q: c / (q * q) + q * q,
                           singular_strength=c)


def test_oscillator_anchor():
    res = ground_state(_oscillator(), tol=TOL)
    assert res.gamma == pytest.approx(1.5, abs=TOL)


def test_singular_anchor():
    res = ground_state(_singular(1.0), tol=TOL)
    assert res.gamma == pytest.approx(1.0 + 0.5 * math.sqrt(5.0), abs=TOL)


def test_centrifugal_anchor():
    res = ground_state(_singular(2.0), tol=TOL)
    assert res.gamma == pytest.approx(2.5, abs=TOL)


def test_normalization_and_unit_moment():
    res = ground_state(_oscillator(), tol=TOL)
    assert moment(res, np.ones_like) == pytest.approx(1.0, abs=1e-8)


def test_moment_rejects_scalar_weight():
    # weights are evaluated on the grid array and must return its shape
    res = ground_state(_oscillator(), tol=TOL)
    with pytest.raises(ValueError, match="shape"):
        moment(res, lambda q: 1.0)


def test_oscillator_second_moment():
    res = ground_state(_oscillator(), tol=TOL)
    assert moment(res, lambda q: q * q) == pytest.approx(1.5, rel=1e-6)


def test_singular_second_moment():
    # <q^2> of q^s e^{-q^2/2} with weight q^2 dq is (s + 3/2)
    res = ground_state(_singular(1.0), tol=TOL)
    expected = S_ULTRA + 1.5  # = (sqrt(5) + 2) / 2
    assert moment(res, lambda q: q * q) == pytest.approx(expected, rel=1e-6)


def test_moment_accepts_inverse_square_weight():
    res = ground_state(_singular(1.0), tol=TOL)
    # <q^-2> of q^s e^{-q^2/2}: Gamma(s + 1/2) / Gamma(s + 3/2) = 1/(s + 1/2)
    expected = 1.0 / (S_ULTRA + 0.5)
    assert moment(res, lambda q: 1.0 / (q * q)) == pytest.approx(
        expected, rel=1e-5)


def test_moment_rejects_stronger_singularity():
    res = ground_state(_oscillator(), tol=TOL)
    with pytest.raises(ValueError):
        moment(res, lambda q: q ** -2.5)


def test_rayleigh_quotient_consistency():
    res = ground_state(_oscillator(), tol=TOL)
    h = float(res.grid[1] - res.grid[0])
    # extend to q = 0 (u = 0 there) so the kinetic head is not dropped
    q = np.concatenate([[0.0], res.grid])
    u = np.concatenate([[0.0], res.grid * res.f_values])
    du = np.gradient(u, h)
    # (1/2)[ int (u')^2 + int V u^2 ] with int u^2 = 1
    kinetic = np.trapezoid(du * du, q)
    potential = np.trapezoid((q * q) * u * u, q)
    norm = np.trapezoid(u * u, q)
    rayleigh = 0.5 * (kinetic + potential) / norm
    # 2e-6 allowance: this trapezoid + gradient() proxy is itself O(h^2)
    assert abs(rayleigh - res.gamma) <= 10.0 * TOL + 2e-6


def test_variational_upper_bound():
    # any trial function's Rayleigh quotient sits above the ground gamma
    res = ground_state(_oscillator(), tol=TOL)
    q = np.linspace(1e-4, 10.0, 20001)
    h = q[1] - q[0]
    u = q * np.exp(-0.6 * q * q)  # deliberately detuned width
    du = np.gradient(u, h)
    rayleigh = 0.5 * (np.trapezoid(du * du, q)
                      + np.trapezoid(q * q * u * u, q)) / np.trapezoid(u * u, q)
    assert rayleigh >= res.gamma - TOL


def test_grid_convergence():
    g1 = ground_state(_oscillator(), n=2000, tol=1e-6).gamma
    g2 = ground_state(_oscillator(), n=4000, tol=1e-6).gamma
    assert abs(g2 - g1) < 1e-6


def test_ground_state_nodeless():
    for pot in (_oscillator(), _singular(1.0)):
        res = ground_state(pot, tol=TOL)
        signs = np.sign(res.f_values[np.abs(res.f_values) > 1e-12])
        assert np.all(signs == signs[0])


def test_eigenfunction_matches_gaussian():
    res = ground_state(_oscillator(), tol=TOL)
    # normalized ground state: f = 2 pi^{-1/4} e^{-q^2/2} wrt q^2 dq measure
    ref = 2.0 * math.pi ** -0.25 * np.exp(-0.5 * res.grid ** 2)
    mask = res.grid < 6.0
    assert np.max(np.abs(res.f_values[mask] - ref[mask])) < 1e-5


def test_rejects_unbounded_below():
    with pytest.raises(ValueError):
        ground_state(_singular(-0.3), tol=TOL)


def test_rejects_tiny_grid():
    with pytest.raises(ValueError):
        ground_state(_oscillator(), n=100, tol=TOL)


def test_diagnostics_fields():
    res = ground_state(_oscillator(), tol=TOL)
    assert isinstance(res, EigenResult)
    assert res.diagnostics.grid_size >= 200
    assert res.diagnostics.q_max == pytest.approx(10.0)
    assert 0.0 <= res.diagnostics.est_error <= TOL


@pytest.mark.parametrize("points", [3, 4, 5, 6, 101, 1000, 8001])
def test_simpson_matches_scipy(points):
    # odd counts are plain composite Simpson, even counts add the end
    # correction; both must agree with scipy's rule on a uniform grid
    x = np.linspace(0.1, 7.0, points)
    h = float(x[1] - x[0])
    for y in (np.exp(-x * x) * x ** 1.5, np.cos(3.0 * x) + x ** 3):
        assert _simpson(y, h) == pytest.approx(simpson(y, dx=h), rel=1e-14)
