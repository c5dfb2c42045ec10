"""Bessel K and Bickley Ki_n checks against independent oracles.

Frozen reference values were produced with mpmath 1.3.0 at 50 digits and
rounded to double.  They are independent of this package's trapezoid sum
for K_nu: SciPy's quad integrates the same integral representation as
bessel_k, so only the frozen values check it from outside.  Ki_1, which
bessel_sums sums on the same nodes as K_0, K_1 and K_2, and Ki_2 are
frozen from mpmath's quad at 40 and 50 digits, which agreed to 1e-40;
Ki_3, reached by the recurrences, from mpmath's quad at 45 digits.
"""

import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from relhur import bessel_k, bessel_sums, cli, hopfion

# mpmath.besselk, 50-digit, rounded to double
K0_AT_1 = 0.42102443824070834
K1_AT_1 = 0.60190723019723457
K2_AT_1 = 1.6248388986351774
K2_AT_2 = 0.25375975456605600

# mpmath.besselk(nu, x) at 50 digits; K2(1e-300) = 2e600 overflows
K_FROZEN = {
    0: {1e-300: 690.8914594138721, 1e-3: 7.023688800562382,
        0.1: 2.4270690247020164, 1.0: 0.42102443824070834,
        10.0: 1.778006231616765e-05, 100.0: 4.656628229175902e-45,
        600.0: 1.3558285309948523e-262, 700.0: 4.669776431685377e-306,
        701.0: 1.716689411974703e-306, 705.0: 3.135297023712879e-308},
    1: {1e-300: 9.999999999999999e+299, 1e-3: 999.9962381560856,
        0.1: 9.853844780870606, 1.0: 0.6019072301972346,
        10.0: 1.8648773453825585e-05, 100.0: 4.6798537356369095e-45,
        600.0: 1.356957918112806e-262, 700.0: 4.6731107967079664e-306,
        701.0: 1.7179134334116853e-306, 705.0: 3.137519851223379e-308},
    2: {1e-3: 1999999.5000009716, 0.1: 199.5039646421141,
        1.0: 1.6248388986351774, 10.0: 2.150981700693277e-05,
        100.0: 4.75022530388864e-45, 600.0: 1.3603517240552284e-262,
        700.0: 4.6831281768188284e-306, 701.0: 1.7215907341812982e-306,
        705.0: 3.1441977892482646e-308},
}


def test_bessel_frozen_values():
    assert bessel_k(0, 1.0) == pytest.approx(K0_AT_1, rel=1e-10)
    assert bessel_k(1, 1.0) == pytest.approx(K1_AT_1, rel=1e-10)
    assert bessel_k(2, 1.0) == pytest.approx(K2_AT_1, rel=1e-10)
    assert bessel_k(2, 2.0) == pytest.approx(K2_AT_2, rel=1e-10)


@pytest.mark.parametrize("order,x", [(order, x) for order in K_FROZEN
                                     for x in sorted(K_FROZEN[order])])
def test_bessel_against_frozen_mpmath(order, x):
    ref = K_FROZEN[order][x]
    assert abs(bessel_k(order, x) - ref) <= 1e-14 * ref


def test_bessel_at_tiny_x():
    # K0 ~ -log(x/2) - Euler gamma and K1 ~ 1/x stay finite; K1 and K2
    # beyond the double range raise instead of returning inf
    assert bessel_k(0, 5e-324) == pytest.approx(744.5560034370396, rel=1e-14)
    assert bessel_k(1, 2e-308) == pytest.approx(5e307, rel=1e-14)
    for order, x in ((2, 1e-160), (1, 5e-324), (2, 5e-324), (2, 1e-300)):
        with pytest.raises(ValueError, match="overflows"):
            bessel_k(order, x)


@settings(max_examples=300, deadline=None)
@given(order=st.sampled_from([0, 1, 2]),
       x=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False,
                   allow_subnormal=True))
def test_bessel_any_positive_x_returns_or_raises_value_error(order, x):
    try:
        k = bessel_k(order, x)
    except ValueError:
        return
    assert math.isfinite(k) and k >= 0.0


def test_bessel_recurrence_across_range():
    # K2 = K0 + 2 K1 / x, relative deviation <= 1e-10
    xs = [1e-3, 3e-3, 0.01, 0.05, 0.2, 0.7, 1.0, 2.0, 5.0,
          10.0, 30.0, 80.0, 150.0, 200.0]
    for x in xs:
        k2 = bessel_k(2, x)
        dev = abs(k2 - bessel_k(0, x) - 2.0 * bessel_k(1, x) / x)
        assert dev <= 1e-10 * k2, f"recurrence broken at x={x}"


@pytest.mark.parametrize("x", [0.5, 2.0, 10.0])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_bessel_integral_representation(order, x):
    # K_nu(x) = integral_0^inf e^{-x cosh t} cosh(nu t) dt
    def integrand(t):
        return math.exp(-x * math.cosh(t)) * math.cosh(order * t)

    t_cut = math.acosh(1.0 + 745.0 / x)  # beyond this e^{-x cosh t} underflows
    ref, err = quad(integrand, 0.0, t_cut, limit=200, epsabs=1e-14, epsrel=1e-12)
    assert err < 1e-11 * ref
    assert bessel_k(order, x) == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_bessel_leading_asymptotics(order):
    for x in (20.0, 50.0, 120.0, 200.0):
        k = bessel_k(order, x)
        dev = abs(k * math.sqrt(2.0 * x / math.pi) * math.exp(x) - 1.0)
        assert dev <= 10.0 / x


@pytest.mark.parametrize("order", [0, 1, 2])
def test_bessel_strictly_decreasing(order):
    xs = [1e-3, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0, 200.0]
    vals = [bessel_k(order, x) for x in xs]
    assert all(a > b for a, b in zip(vals, vals[1:]))


# mpmath.besselk(nu, x) at 50 digits rounded to double, subnormal
K_SUBNORMAL = {
    0: {720.0: 9.49054983e-315, 740.0: 2e-323},
    1: {720.0: 9.497138207e-315, 740.0: 2e-323},
    2: {720.0: 9.516930773e-315, 740.0: 2e-323},
}


@pytest.mark.parametrize("order", [0, 1, 2])
def test_bessel_underflows_with_exp_minus_x(order):
    # no cut-off: subnormal values are the rounded exact ones, and the
    # value is 0 only once e^{-x} underflows
    for x, ref in K_SUBNORMAL[order].items():
        assert bessel_k(order, x) == ref
    assert bessel_k(order, 746.0) == 0.0
    assert bessel_k(order, 1e300) == 0.0


def test_bessel_domain_errors():
    with pytest.raises(ValueError):
        bessel_k(0, 0.0)
    with pytest.raises(ValueError):
        bessel_k(1, -2.0)
    with pytest.raises(ValueError):
        bessel_k(3, 1.0)
    with pytest.raises(ValueError):
        bessel_k(-1, 1.0)


# Bickley functions Ki_n(x) = int_0^inf e^{-x cosh t} / cosh^n t dt, by
# mpmath's quad
KI1_FROZEN = {
    0.1: 1.22863188303692221868396171897,
    0.5: 0.643693805863747545777646254801,
    1.0: 0.328286478171118353007889334918,
    2.0: 0.0971205924780679367173187441388,
    10.0: 1.70151789177594000935630427842e-05,
    50.0: 3.37719918057434368731599937996e-23,
    200.0: 1.22264422924618592105483269869e-88,
}
KI2_FROZEN = {
    0.1: 0.862521289783368383448887504301,
    0.5: 0.506373657069776673959399574186,
    1.0: 0.273620752026116221729650666617,
    2.0: 0.0854905786769089811345601257933,
    10.0: 1.63359453606618450325381533821e-05,
    50.0: 3.34515230716059626379268279769e-23,
    200.0: 1.21962884535997819795166234572e-88,
}
# e^x Ki_1(x) at 40 digits: e^x (pi/2 - int_0^x K_0) for x < 1, and
# int_0^inf e^x K_0(x + u) du by mpmath's quad from there; the cosh
# integral, split at multiples of x^{-1/2}, agreed to 1e-33
EKI1_FROZEN = {
    1e-300: 1.57079632679489661923132169164,
    1e-150: 1.57079632679489661923132169164,
    1e-10: 1.57079632453779800711736058183,
    1e3: 0.0396085420209603631826716886825,
    1e5: 0.00396330252720981977934239862649,
    740.0: 0.0460339157007151028892166026929,
}


def _ki1(x):
    return math.exp(-x) * bessel_sums(x)[0][3]


@pytest.mark.parametrize("x", sorted(KI1_FROZEN))
def test_bickley_against_frozen_mpmath(x):
    assert abs(_ki1(x) - KI1_FROZEN[x]) <= 1e-14 * KI1_FROZEN[x]


@pytest.mark.parametrize("x", sorted(EKI1_FROZEN))
def test_scaled_bickley_from_tiny_to_large_x(x):
    ref = EKI1_FROZEN[x]
    assert abs(bessel_sums(x)[0][3] - ref) <= 1e-14 * ref


@pytest.mark.parametrize("x", sorted(KI1_FROZEN.keys() | EKI1_FROZEN.keys()))
def test_bessel_k_is_the_scaled_sum(x):
    # bessel_k takes its value from the same pass, bit for bit, and raises
    # where the scaled sum reads inf (K_2 below x = 1.06e-154)
    values, gaps, _ = bessel_sums(x)
    for order in (0, 1, 2):
        k = values[order] * math.exp(-x)
        if k == math.inf:
            assert gaps[order] == math.inf
            with pytest.raises(ValueError, match="overflows"):
                bessel_k(order, x)
        else:
            assert bessel_k(order, x) == k
    assert all(0.0 <= g <= 6e-15 * v for g, v in zip(gaps, values)
               if v < math.inf)


@pytest.mark.parametrize("x", sorted(KI2_FROZEN))
def test_bickley_recurrence(x):
    # Ki_2 = x (K_1 - Ki_1), by parts with d tanh t = dt / cosh^2 t; the
    # difference loses about log10(x) digits at large x
    ki2 = x * (bessel_k(1, x) - _ki1(x))
    assert abs(ki2 - KI2_FROZEN[x]) <= 1e-13 * KI2_FROZEN[x]


# e^x Ki_3(x) = int_0^inf e^{-x (cosh t - 1)} / cosh^3 t dt at 30 digits,
# by mpmath's quad at 45 digits on [0, 40], split at multiples of x^{-1/2};
# the recurrence below, fed with that quad's Ki_1 and mpmath's besselk,
# agreed to 1e-42
EKI3_FROZEN = {
    0.1: 0.765378745905124399021240749426,
    1.0: 0.646529964913186421149160705564,
    2.0: 0.568688286387959572863035250362,
    10.0: 0.346436091833017225483503089978,
    50.0: 0.171820397523715045576651086251,
    200.0: 0.0879137661503837478041329312609,
}


@pytest.mark.parametrize("x", sorted(EKI3_FROZEN))
def test_bickley_ki3_recurrence(x):
    # Ki_2 = x (K_1 - Ki_1) and 2 Ki_3 = Ki_1 + x (K_0 - Ki_2), scaled by
    # e^x, from one pass.  The nested differences lose about x^2 in
    # relative accuracy (measured: 3.4e-16 at x = 1, 9.3e-13 at x = 200),
    # so the bound is 4 eps (1 + x^2)
    (k0, k1, _, ki1), _, _ = bessel_sums(x)
    ki3 = 0.5 * (ki1 + x * (k0 - x * (k1 - ki1)))
    ref = EKI3_FROZEN[x]
    assert abs(ki3 - ref) <= 4.0 * sys.float_info.epsilon * (1.0 + x * x) * ref


def test_bessel_sums_domain_errors():
    for x in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="finite x > 0"):
            bessel_sums(x)


def test_verify_strict_fails_on_a_perturbed_bickley(capsys, monkeypatch):
    # Ki_1 off by 1e-10 moves gamma_H(1) by 2.7e-11, over the 1e-12 of
    # verify --strict's packet row, and that row alone fails
    def perturbed(z):
        (k0, k1, k2, ki), gaps, nodes = bessel_sums(z)
        return [k0, k1, k2, ki * (1.0 + 1e-10)], gaps, nodes

    monkeypatch.setattr(hopfion, "bessel_sums", perturbed)
    assert cli.run(["verify", "--strict"]) == 1
    status = {line.split()[0]: line.split()[-1]
              for line in capsys.readouterr().out.splitlines()}
    assert [name for name, s in status.items() if s == "FAIL"] == [
        "hopfion_gamma_at_1", "overall:"]
