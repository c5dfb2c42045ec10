"""Lower bound gamma(d) on the uncertainty product for Dirac electrons.

The bound is the ground-state eigenvalue of the radial operator
(1/2)(-d2/dq2 - (2/q)d/dq + V(q; d)) where q is the dimensionless momentum
and d interpolates between the nonrelativistic (d -> 0, gamma -> 3/2) and
ultrarelativistic (d -> infinity, gamma -> 1 + sqrt(5)/2) regimes.

The potential is

    V(q; d) = 1/q^2 - 1/(q^2 sqrt(1+d^2 q^2)) + d^2/(4 (1+d^2 q^2)^2) + q^2

evaluated here in the cancellation-free form
d^2/(w (1+w)) + d^2/(4 w^4) + q^2 with w = sqrt(1+d^2 q^2), which is exact
for all q and avoids the 1/q^2 - 1/q^2 loss of digits at small d*q.  It is
computed in e = 1/d, a = hypot(e, q) = w/d and r = e/a <= 1 as
(1/a^2)/(1 + r) + (r/a)^2/4 + q^2, so no intermediate overflows for any
finite d.  The two 1/q^2 singularities cancel for every finite d; only
d = INFINITY keeps a genuine 1/q^2 core with unit strength.

gamma(d) is solved, from eigenvalues alone, only on [D_SMALL, D_SWITCH] =
[0.02, 1e5].  Below D_SMALL it is the exact series SMALL_D_SERIES in d^2
through d^8, above D_SWITCH the expansion GAMMA_AT_INF - ULTRA_C1/d.  Each
expansion's error is its remainder against the solve at its switch, scaled
to d by (d/D_SMALL)^10 or (D_SWITCH/d)^2 and floored at the rounding of
gamma, so the two limits d = 0 and d = INFINITY, where the scale is 0, are
exact and take no solve.

The limiting eigenfunctions are exp(-q^2/2) (d = 0) and
q^s exp(-q^2/2) with s = (sqrt(5)-1)/2 (d = INFINITY); the residual
helpers substitute them with analytic derivatives so a wrong eigenvalue
shows up as an O(1) pointwise residual while the true one leaves only
float roundoff.
"""

from __future__ import annotations

import math
import sys
from typing import Sequence

import numpy as np

from .radial_eigensolver import RadialPotential, SolverError, lowest_eigenvalues

__all__ = ["INFINITY", "GAMMA_AT_0", "GAMMA_AT_INF", "ULTRA_EXPONENT",
           "ULTRA_C1", "D_SWITCH", "SMALL_D_SERIES", "D_SMALL", "potential_v",
           "make_potential", "gamma_bound", "gamma_estimates",
           "gaussian_limit_residual", "ultrarelativistic_limit_residual"]

INFINITY = math.inf

GAMMA_AT_0 = 1.5
GAMMA_AT_INF = 1.0 + 0.5 * math.sqrt(5.0)

ULTRA_EXPONENT = 0.5 * (math.sqrt(5.0) - 1.0)
# first-order coefficient of gamma(d) = GAMMA_AT_INF - ULTRA_C1/d + O(1/d^2)
ULTRA_C1 = math.gamma(ULTRA_EXPONENT) / (2.0 * math.gamma(ULTRA_EXPONENT + 1.5))
# above D_SWITCH gamma(d) comes from that expansion, not from a solve
D_SWITCH = 1e5

# gamma(d) = 3/2 + (3/8)d^2 - (21/32)d^4 + (255/128)d^6 - (17409/2048)d^8
# + O(d^10), the coefficients of d^0, d^2, ..., d^8.  For small d, V(q; d)
# = q^2 + (3/4)d^2 - (7/8)d^4 q^2 + (17/16)d^6 q^4 - (163/128)d^8 q^6
# + O(d^10) (sympy series of the closed form), and the operator is half of
# -Laplacian + V.  First-order perturbation of the 3D oscillator ground
# state, with <q^(2k)> = Gamma(k + 3/2)/Gamma(3/2) = 3/2, 15/4, 105/8,
# gives 3/8, -21/32, 255/128 and -(163/256)(105/8) = -17115/2048.  The
# d^4 q^2 term only rescales the frequency, so (3/2) sqrt(1 - (7/8)d^4)
# gives its second-order part, -147/1024 d^8, exactly; the constant
# (3/4)d^2 has no off-diagonal part.  The coefficients are dyadic, so the
# floats are exact.
SMALL_D_SERIES = (1.5, 3.0 / 8.0, -21.0 / 32.0, 255.0 / 128.0,
                  -17409.0 / 2048.0)
# below D_SMALL gamma(d) comes from that series, not from a solve
D_SMALL = 0.02


def _check_d(d: float) -> float:
    d = float(d)
    if math.isnan(d) or d < 0.0:
        raise ValueError("d must be a non-negative real or INFINITY")
    return d


def potential_v(q: float | np.ndarray, d: float) -> float | np.ndarray:
    """Effective radial potential V(q; d) for a float or an array of q > 0.

    A float q gives a float, an array gives an array of the same shape.
    """
    d = _check_d(d)
    q = np.asarray(q, dtype=np.float64)
    if not np.all(q > 0.0) or not np.all(np.isfinite(q)):
        raise ValueError("q must be positive and finite")
    if d == 0.0:
        v = q * q
    elif math.isinf(d):
        v = 1.0 / (q * q) + q * q
    else:
        # w = d a with a = hypot(e, q) and e = 1/d, capped where 1/d
        # overflows (V is q^2 to double precision there); r = e/a <= 1
        e = min(1.0 / d, sys.float_info.max)
        a = np.hypot(e, q)
        r = e / a
        v = (1.0 / a / a) / (1.0 + r) + 0.25 * (r / a) ** 2 + q * q
    return float(v) if v.ndim == 0 else v


def make_potential(d: float) -> RadialPotential:
    """RadialPotential of V(q; d), with a unit 1/q^2 core only at INFINITY."""
    d = _check_d(d)
    finite = math.isfinite(d)
    return RadialPotential(evaluate=lambda q: potential_v(q, d),
                           singular_strength=0.0 if finite else 1.0,
                           origin_scale=d if finite else 0.0)


def _small_d_series(d: float) -> float:
    """SMALL_D_SERIES at d, by Horner's rule in d^2; exactly 3/2 at d = 0."""
    x = d * d
    gamma = 0.0
    for c in reversed(SMALL_D_SERIES):
        gamma = gamma * x + c
    return gamma


def _expansion(d: float) -> tuple[float, float, float] | None:
    """(gamma, switch, scale) where an expansion gives gamma(d), None on
    [D_SMALL, D_SWITCH], where gamma(d) is solved.  The expansion's
    remainder is measured at switch and carried to d by scale, which is
    exactly 0 at d = 0 and d = INFINITY, the ends of the two branches."""
    if d < D_SMALL:
        return _small_d_series(d), D_SMALL, (d / D_SMALL) ** 10
    if d > D_SWITCH:
        return GAMMA_AT_INF - ULTRA_C1 / d, D_SWITCH, (D_SWITCH / d) ** 2
    return None


def gamma_estimates(ds: Sequence[float],
                    tol: float = 1e-7) -> list[tuple[float, float]]:
    """(gamma(d), est_error) for each d in ds, with est_error <= tol
    (tol >= 1e-8), from eigenvalues alone (no eigenvector is formed), in
    one batched solve.  Below D_SMALL and above D_SWITCH gamma is the
    expansion of its branch, and every d of a branch shares the one solve
    at its switch that measures the remainder; a d whose scaled remainder
    is exactly 0, such as d = 0 and d = INFINITY, needs no solve.  A
    SolverError names the d that failed."""
    if tol < 1e-8:
        raise ValueError("tol below 1e-8 is not supported")
    ds = [_check_d(d) for d in ds]
    branches = [_expansion(d) for d in ds]
    at = list(dict.fromkeys(d if b is None else b[1]
                            for d, b in zip(ds, branches)
                            if b is None or b[2] > 0.0))
    try:
        solved = dict(zip(at, lowest_eigenvalues(
            [make_potential(d) for d in at], tol=tol)))
    except SolverError as exc:
        raise SolverError(f"d = {at[exc.index]}: {exc}") from exc

    def remainder(switch):
        # the expansion against the collocation at its switch, plus the
        # collocation's own error
        gamma, err = solved[switch]
        if switch == D_SMALL:
            return abs(gamma - _small_d_series(D_SMALL)) + err
        # both steps are exact (Sterbenz); gamma - _expansion(D_SWITCH)[0]
        # would round the expansion first and move err_est's low bits
        return abs(gamma - GAMMA_AT_INF + ULTRA_C1 / D_SWITCH) + err

    out = []
    for d, branch in zip(ds, branches):
        if branch is None:
            out.append(solved[d])
            continue
        # the remainder scaled to d, but not below the rounding of gamma,
        # 4 eps
        gamma, switch, scale = branch
        err = remainder(switch) * scale if scale > 0.0 else 0.0
        out.append((gamma, max(err, 4.0 * sys.float_info.epsilon * gamma)))
    return out


def gamma_bound(d: float, tol: float = 1e-7) -> float:
    """Lowest eigenvalue gamma(d), absolute error <= tol (tol >= 1e-8)."""
    return gamma_estimates([d], tol)[0][0]


_RESIDUAL_GRID = np.linspace(0.01, 8.0, 1601)


def _limit_residual(gamma: float, s: float, c: float) -> float:
    """Max over the grid of |L f - gamma f| for f = q^s exp(-q^2/2) and
    V = c/q^2 + q^2, with s(s + 1) = c; L is the operator of the module
    docstring, applied with the analytic f' and f''.  c comes exact, not
    as s(s + 1), which rounds."""
    q = _RESIDUAL_GRID
    f = q ** s * np.exp(-0.5 * q * q)
    d1 = (s / q - q) * f
    d2 = ((s / q - q) ** 2 - s / (q * q) - 1.0) * f
    v = c / (q * q) + q * q
    lhs = 0.5 * (-d2 - (2.0 / q) * d1 + v * f)
    return float(np.max(np.abs(lhs - float(gamma) * f)))


def gaussian_limit_residual(gamma0: float) -> float:
    """Max residual of the d=0 eigenfunction exp(-q^2/2) against gamma0.

    The operator side is exactly (3/2) f, so the returned value is the
    pointwise gap |(3/2) - gamma0| times max f on the grid: ~0 for the true
    eigenvalue, O(0.1) for a wrong one.
    """
    return _limit_residual(gamma0, 0.0, 0.0)


def ultrarelativistic_limit_residual(gamma_inf: float) -> float:
    """Max residual of the d=INFINITY eigenfunction q^s exp(-q^2/2).

    Companion to gaussian_limit_residual for V = 1/q^2 + q^2; the exact
    eigenvalue is 1 + sqrt(5)/2.
    """
    return _limit_residual(gamma_inf, ULTRA_EXPONENT, 1.0)
