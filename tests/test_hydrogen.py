"""Hydrogen-like ions: closed-form product, d parameter, quadrature oracle.

The closed forms in scaled units (decay length = 1) are

    delta_r^2 = (1 + g)(2g + 1)/2
    delta_p^2 = (2 - g)/(g(2g - 1))

with g the ground-state exponent sqrt(1 - (alpha Z)^2); their product is
scale-free.  The quadrature oracle integrates the actual bispinor density
and gradient density, so agreement checks the whole chain.
"""

import math
import sys

import numpy as np
import pytest
from scipy.integrate import dblquad

from relhur import (
    ALPHA_FS,
    CoulombState,
    DivergenceError,
    d_parameter,
    max_z_finite,
    oracle_gamma,
    product_closed_gamma,
)

# frozen regression values, this build, CODATA alpha
FROZEN = {
    1: (0.9999733739682669, 1.7321161431389254),
    40: (0.956450643142096, 1.8454217717517196),
    80: (0.8119059865943326, 2.3613744819062847),
    110: (0.5963712017694192, 4.62301092805396),
}
D_AT_Z80 = 0.5818600802641096
D_AT_GAMMA_08 = 0.6100034457014364
CLOSED_AT_GAMMA_08 = 2.4186773244895647


def small_component_ratio(state):
    """sqrt((1-g)/(1+g)), the lower-spinor amplitude relative to the upper."""
    g = state.gamma_c
    return math.sqrt((1.0 - g) / (1.0 + g))


def norm_constant(state):
    """Normalization N of the Compton-unit wave function."""
    g = state.gamma_c
    n_sq = (2.0 ** (2.0 * g) * (1.0 + g) ** (g + 1.5) * (1.0 - g) ** (g + 0.5)
            / (4.0 * math.pi * math.gamma(1.0 + 2.0 * g)))
    return math.sqrt(n_sq)


def ground_bispinor(state, r, theta, phi):
    """Wave-function components at a point (Compton-length units).

    r must be strictly positive: the radial factor r^(g-1) is singular
    (though square-integrable) at the origin for g < 1.  The exponential
    decay rate sqrt(1-g^2) is alpha*Z in Compton units.
    """
    if not (r > 0.0) or not math.isfinite(r):
        raise ValueError("r must be a positive finite real")
    if not (0.0 <= theta <= math.pi):
        raise ValueError("theta must lie in [0, pi]")
    if not math.isfinite(phi):
        raise ValueError("phi must be finite")
    g = state.gamma_c
    k = small_component_ratio(state)
    common = norm_constant(state) * r ** (g - 1.0) * math.exp(
        -state.alpha * state.Z * r)
    return np.array([
        common,
        0.0,
        1j * k * math.cos(theta) * common,
        -1j * k * math.sin(theta) * common * complex(math.cos(phi),
                                                     math.sin(phi)),
    ])


def density_radial_moment(gamma_c, k):
    """<r^k> of the ground-state density in decay-length units.

    The normalized radial density is r^(2g) e^(-2r) dr (times a constant),
    so <r^k> = Gamma(2g+1+k) / (2^k Gamma(2g+1)).
    """
    g = float(gamma_c)
    if not (0.0 < g <= 1.0):
        raise ValueError("gamma_c must lie in (0, 1]")
    if k <= -(2.0 * g + 1.0):
        raise ValueError("moment diverges at the origin")
    return (math.gamma(2.0 * g + 1.0 + k)
            / (2.0 ** k * math.gamma(2.0 * g + 1.0)))


def test_state_validation():
    with pytest.raises(ValueError):
        CoulombState(Z=0)
    with pytest.raises(ValueError):
        CoulombState(Z=-3)
    with pytest.raises(ValueError):
        CoulombState(Z=True)
    with pytest.raises(ValueError):
        CoulombState(Z=1, alpha=0.0)
    with pytest.raises(ValueError):
        CoulombState(Z=1, alpha=math.nan)
    with pytest.raises(ValueError):
        CoulombState(Z=138)  # alpha*Z > 1, no real exponent
    with pytest.raises(ValueError):
        CoulombState(Z=2, alpha=0.5)  # alpha*Z = 1 exactly


@pytest.mark.parametrize("z", [np.int32(80), np.int64(80), np.uint8(80)])
def test_numpy_integer_charge(z):
    # any integral Z is stored as a Python int, so the CLI's JSON is unchanged
    state, ref = CoulombState(Z=z), CoulombState(Z=80)
    assert type(state.Z) is int and state == ref
    assert state.gamma_c == ref.gamma_c
    assert product_closed_gamma(state.gamma_c) == product_closed_gamma(
        ref.gamma_c)
    for bad in (5.0, np.float64(5.0), np.True_, "5"):
        with pytest.raises(ValueError, match="positive integer"):
            CoulombState(Z=bad)


def test_exponent_frozen_values():
    for z, (gamma_c, _) in FROZEN.items():
        assert CoulombState(Z=z).gamma_c == pytest.approx(gamma_c, rel=1e-12)


def test_closed_product_frozen_values():
    for z, (_, product) in FROZEN.items():
        assert product_closed_gamma(CoulombState(Z=z).gamma_c) == pytest.approx(
            product, rel=1e-12)
    assert product_closed_gamma(0.8) == pytest.approx(
        CLOSED_AT_GAMMA_08, rel=1e-12)


def test_weak_field_value():
    # g = 1: delta_r^2 = 3, delta_p^2 = 1, product sqrt(3)
    assert product_closed_gamma(1.0) == pytest.approx(math.sqrt(3.0),
                                                      rel=1e-12)
    assert product_closed_gamma(1.0) > 1.5


def test_divergence_gate():
    for g in (0.5, 0.45, 0.2):
        with pytest.raises(DivergenceError):
            product_closed_gamma(g)
        with pytest.raises(DivergenceError):
            d_parameter(g)
    # Z = 137 constructs (alpha Z < 1) but its product diverges
    g = CoulombState(Z=137).gamma_c
    assert g < 0.5
    with pytest.raises(DivergenceError):
        product_closed_gamma(g)
    with pytest.raises(DivergenceError):
        oracle_gamma(g)
    assert isinstance(DivergenceError("x"), ValueError)


def test_product_blows_up_near_half():
    assert product_closed_gamma(0.500001) > 400.0


def test_exponent_outside_unit_interval():
    for g in (1.5, 0.0):
        with pytest.raises(ValueError, match="must lie in"):
            product_closed_gamma(g)
    with pytest.raises(ValueError, match="must lie in"):
        density_radial_moment(1.5, 1)
    with pytest.raises(ValueError, match="diverges"):
        density_radial_moment(0.6, -3)


def test_closed_vs_oracle_gamma_grid():
    for g in np.linspace(0.55, 1.0, 10):
        closed = product_closed_gamma(float(g))
        oracle = oracle_gamma(float(g)).gamma
        assert abs(oracle - closed) / closed <= 1e-6, f"gamma_c={g}"


@pytest.mark.parametrize("z", [1, 40, 80, 110])
def test_closed_vs_oracle_z(z):
    g = CoulombState(Z=z).gamma_c
    closed = product_closed_gamma(g)
    oracle = oracle_gamma(g).gamma
    assert abs(oracle - closed) / closed <= 1e-6


def test_oracle_matches_closed_form_near_half():
    # where the r^(g-1) singularity is strongest and the product diverges
    # like 1/sqrt(2g - 1), the log-radius trapezoid rule still meets the
    # closed form to rounding
    for g in (0.50001, 0.5001, 0.5005, 0.501, 0.502):
        rep = oracle_gamma(g)
        assert rep.gamma == pytest.approx(product_closed_gamma(g), rel=1e-12)
        assert rep.norm_sq == pytest.approx(1.0, abs=1e-12)
        assert 0.0 < rep.err_est <= 1e-9 * rep.gamma


def test_oracle_two_levels_hold_on_the_whole_domain():
    # oracle_gamma sums at steps 0.1 and 0.05 and tests no convergence
    # itself; this scan is that test.  With 2g - 1 log-spaced from 2.2e-16
    # to 1, plus the double next to 1/2 and g = 1, the two levels meet the
    # closed form to 1e-12 (measured: at most 4.7e-16), their err_est
    # covers the gap and stays at 1e-9 gamma (measured: at most 2.3e-10)
    gs = [0.5 + 0.5 * x for x in np.geomspace(2.2e-16, 1.0, 200)]
    for g in gs + [float(np.nextafter(0.5, 1.0)), 1.0]:
        rep, closed = oracle_gamma(g), product_closed_gamma(g)
        assert abs(rep.gamma - closed) <= 1e-12 * closed, g
        assert abs(rep.gamma - closed) <= rep.err_est <= 1e-9 * rep.gamma, g


# oracle_gamma(g): float.hex of (gamma, err_est), frozen from this build
ORACLE_BITS = {
    1.0: ("0x1.bb67ae8584caap+0", "0x1.b50673d95281cp-32"),
    0.95: ("0x1.dd09b25bca052p+0", "0x1.5caba4adcb692p-32"),
    0.81: ("0x1.2f67325db7af5p+1", "0x1.2e4da2e5fc3eep-33"),
    0.6: ("0x1.2202003a7ef31p+2", "0x1.0e1d6f546351bp-34"),
    0.5001: ("0x1.2bfc29169bbd2p+7", "0x1.aae5e7ffce427p-29"),
}


@pytest.mark.parametrize("g", sorted(ORACLE_BITS))
def test_oracle_bits_frozen(g):
    # the means vanish identically and are not integrated; leaving them
    # out must not move a bit of the dispersions
    rep = oracle_gamma(g)
    assert (rep.gamma.hex(), rep.err_est.hex()) == ORACLE_BITS[g]
    assert not np.any(rep.mean_r) and not np.any(rep.mean_p)


def test_oracle_normalization_guard(monkeypatch):
    # a normalization constant 10% off reaches the oracle's norm integral,
    # which must raise instead of returning a value
    import relhur.hydrogen

    exact = relhur.hydrogen.gamma
    monkeypatch.setattr(relhur.hydrogen, "gamma", lambda x: 1.1 * exact(x))
    with pytest.raises(ArithmeticError, match="normalization"):
        oracle_gamma(0.8)


def test_oracle_scaled_moments():
    g = 0.8
    rep = oracle_gamma(g)
    assert rep.delta_r_sq == pytest.approx((1 + g) * (2 * g + 1) / 2,
                                           rel=1e-9)
    assert rep.delta_p_sq == pytest.approx((2 - g) / (g * (2 * g - 1)),
                                           rel=1e-9)
    assert rep.norm_sq == pytest.approx(1.0, abs=1e-8)
    assert np.max(np.abs(rep.mean_r)) < 1e-8
    assert np.max(np.abs(rep.mean_p)) < 1e-8


def test_oracle_weak_field_r2():
    assert oracle_gamma(1.0).delta_r_sq == pytest.approx(3.0, rel=1e-9)
    assert density_radial_moment(1.0, 2) == pytest.approx(3.0, rel=1e-12)


def test_radial_moment_gamma_ratio():
    # <r~^k> = Gamma(2g + 1 + k) / (2^k Gamma(2g + 1))
    g = 0.8
    expected = math.gamma(2 * g + 2) / (2.0 * math.gamma(2 * g + 1))
    assert density_radial_moment(g, 1) == pytest.approx(expected, rel=1e-12)


def test_monotonicity_in_gamma():
    gs = np.linspace(0.55, 1.0, 12)
    products = [product_closed_gamma(float(g)) for g in gs]
    d_values = [d_parameter(float(g)) for g in gs]
    assert all(a > b for a, b in zip(products, products[1:]))
    assert all(a > b for a, b in zip(d_values, d_values[1:]))


def test_d_parameter_values():
    assert d_parameter(1.0) == 0.0
    assert d_parameter(0.8) == pytest.approx(D_AT_GAMMA_08, rel=1e-12)
    assert d_parameter(CoulombState(Z=80).gamma_c) == pytest.approx(
        D_AT_Z80, rel=1e-12)
    assert d_parameter(0.500001) > 20.0


def test_bispinor_zero_charge_limit():
    # alpha Z -> 0: the small-component factor sqrt((1-g)/(1+g)) vanishes
    state = CoulombState(Z=1, alpha=1e-12)
    assert small_component_ratio(state) == 0.0
    b = ground_bispinor(state, 1.0, 0.7, 0.3)
    assert b[2] == 0.0
    assert b[3] == 0.0


def test_bispinor_small_component_ratio():
    state = CoulombState(Z=1, alpha=1e-4)
    theta = 0.7
    b = ground_bispinor(state, 1.0, theta, 0.3)
    ratio = abs(b[2]) / abs(b[0])
    assert ratio == pytest.approx(
        small_component_ratio(state) * math.cos(theta), rel=1e-10)
    assert b[1] == 0.0


def test_bispinor_argument_validation():
    state = CoulombState(Z=80)
    with pytest.raises(ValueError):
        ground_bispinor(state, 0.0, 0.5, 0.0)
    with pytest.raises(ValueError):
        ground_bispinor(state, -1.0, 0.5, 0.0)
    with pytest.raises(ValueError):
        ground_bispinor(state, 1.0, 4.0, 0.0)
    with pytest.raises(ValueError, match="phi"):
        ground_bispinor(state, 1.0, 0.5, math.nan)


def test_density_phi_independent():
    state = CoulombState(Z=80)
    r, theta = 0.003, 1.1
    densities = []
    for phi in (0.0, 1.0, 2.5, 5.0):
        c = ground_bispinor(state, r, theta, phi)
        densities.append(float(np.sum(np.abs(c) ** 2)))
    assert max(densities) - min(densities) <= 1e-15 * max(densities)


def test_density_normalized_z80():
    # direct Compton-unit integration of the bispinor density, by SciPy
    state = CoulombState(Z=80)

    def density(theta, r):
        c = ground_bispinor(state, r, theta, 0.0)
        return float(np.sum(np.abs(c) ** 2)) * r * r * math.sin(theta)

    value, _ = dblquad(density, 0.0, math.inf, 0.0, math.pi,
                       epsabs=1e-11, epsrel=1e-11)
    assert 2.0 * math.pi * value == pytest.approx(1.0, abs=1e-8)


def test_max_z_finite():
    assert max_z_finite() == 118
    assert max_z_finite(0.01) == 86
    assert max_z_finite(1e-20) == sys.maxsize
    assert max_z_finite(ALPHA_FS) == max_z_finite()
    # returned Z is the last finite one: next integer diverges
    z = max_z_finite()
    assert math.sqrt(3.0) / (2.0 * ALPHA_FS) > z
    assert math.sqrt(3.0) / (2.0 * ALPHA_FS) < z + 1
    for alpha in (0.0, math.nan):
        with pytest.raises(ValueError):
            max_z_finite(alpha)
    # at alpha = sqrt(3)/(2k) the limit sqrt(3)/(2 alpha) rounds to about
    # k: the float product, not the rounded limit, decides which Z is last
    for k in range(1, 5):
        alpha = math.sqrt(3.0) / (2.0 * k)
        z = max_z_finite(alpha)
        assert math.isfinite(
            product_closed_gamma(CoulombState(z, alpha).gamma_c))
        with pytest.raises((DivergenceError, ValueError)):
            product_closed_gamma(CoulombState(z + 1, alpha).gamma_c)


@pytest.mark.parametrize("k, floor, want", [(74, 37, 36), (486, 242, 243)])
def test_max_z_finite_steps_off_the_floor(k, floor, want):
    # at alpha = sqrt(3)/k the float limit sqrt(3)/(2 alpha) floors to
    # 37 for k = 74, whose gamma_c is 0.4999999999999999 (one step down),
    # and to 242 for k = 486, below 243 with gamma_c 0.5000000000000001
    # (one step up): each stepping loop of max_z_finite runs
    alpha = math.sqrt(3.0) / k
    assert math.floor(math.sqrt(3.0) / (2.0 * alpha)) == floor
    finite = [z for z in range(1, math.ceil(1.0 / alpha))
              if CoulombState(z, alpha).gamma_c > 0.5]
    assert max_z_finite(alpha) == max(finite) == want
