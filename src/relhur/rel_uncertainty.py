"""Lower bound gamma(d) on the uncertainty product for Dirac electrons.

The bound is the ground-state eigenvalue of the radial operator
(1/2)(-d2/dq2 - (2/q)d/dq + V(q; d)) where q is the dimensionless momentum
and d interpolates between the nonrelativistic (d -> 0, gamma -> 3/2) and
ultrarelativistic (d -> infinity, gamma -> 1 + sqrt(5)/2) regimes.

A state with <p> = 0 has sqrt(dr^2 dp^2) >= gamma(d) at its own
d = (dp^2/dr^2)^(1/4).  In general the bound holds with <p^2> =
dp^2 + |<p>|^2 in place of dp^2, in the product and in d: shifting a state
in momentum keeps dp^2 but moves dr^2, and a Gaussian shifted along p_z
falls below gamma(d) read with dp^2 (tests/test_dirac.py).

The potential is

    V(q; d) = 1/q^2 - 1/(q^2 sqrt(1+d^2 q^2)) + d^2/(4 (1+d^2 q^2)^2) + q^2

evaluated here in the cancellation-free form
d^2/(w (1+w)) + d^2/(4 w^4) + q^2 with w = sqrt(1+d^2 q^2), which is exact
for all q and avoids the 1/q^2 - 1/q^2 loss of digits at small d*q.  It is
computed in e = 1/d, a = hypot(e, q) = w/d and r = e/a <= 1 as
(1/a^2)/(1 + r) + (r/a)^2/4 + q^2 for every d in [0, INFINITY], with e
capped at the largest float: no intermediate overflows, the first two terms
underflow to exactly 0 at d = 0, and e = 0 at d = INFINITY leaves
1/q^2 + q^2, the one d that keeps a genuine 1/q^2 core.

gamma(d) is solved, from eigenvalues alone, on (0, D_SWITCH] = (0, 1e5].
At d = 0 it is the exact limit GAMMA_AT_0 = 3/2, and above D_SWITCH the
expansion GAMMA_AT_INF - ULTRA_C1/d.  The expansion's error is its
remainder against the solve at D_SWITCH, scaled to d by (D_SWITCH/d)^2
and floored at the rounding of gamma; the two limits d = 0 and
d = INFINITY, where the scale is 0, are exact, carry that floor as their
error and take no solve.

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

__all__ = ["INFINITY", "GAMMA_AT_0", "GAMMA_AT_INF", "ULTRA_C1", "D_SWITCH",
           "potential_v", "make_potential", "gamma_estimates",
           "gaussian_limit_residual", "ultrarelativistic_limit_residual"]

INFINITY = math.inf

GAMMA_AT_0 = 1.5
GAMMA_AT_INF = 1.0 + 0.5 * math.sqrt(5.0)

_ULTRA_EXPONENT = 0.5 * (math.sqrt(5.0) - 1.0)
# first-order coefficient of gamma(d) = GAMMA_AT_INF - ULTRA_C1/d + O(1/d^2)
ULTRA_C1 = math.gamma(_ULTRA_EXPONENT) / (2.0 * math.gamma(_ULTRA_EXPONENT + 1.5))
# above D_SWITCH gamma(d) comes from that expansion, not from a solve
D_SWITCH = 1e5


def _check_d(d: float) -> float:
    d = float(d)
    if math.isnan(d) or d < 0.0:
        raise ValueError("d must be a non-negative real or INFINITY")
    return d


def potential_v(q: float | np.ndarray, d: float) -> float | np.ndarray:
    """Effective radial potential V(q; d) for a float or an array of q > 0.

    A float q gives a float, an array gives an array of the same shape.
    One expression covers every d in [0, INFINITY]: e = 1/d is capped at
    the largest float, so at d = 0 the terms 1/a/a and (r/a)^2 underflow
    to exactly 0 and V is q*q; at d = INFINITY, e = 0 gives a = q and
    r = 0, so V is 1/q/q + q*q.
    """
    d = _check_d(d)
    q = np.asarray(q, dtype=np.float64)
    if not np.all(q > 0.0) or not np.all(np.isfinite(q)):
        raise ValueError("q must be positive and finite")
    # w = d a with a = hypot(e, q); r = e/a <= 1
    e = min(1.0 / max(d, 5e-324), sys.float_info.max)
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


def _expansion(d: float) -> tuple[float, float] | None:
    """(gamma, scale) where gamma(d) is not solved, None on (0, D_SWITCH].
    At d = 0 gamma is the exact limit, and above D_SWITCH the expansion,
    whose remainder is measured at D_SWITCH and carried to d by scale;
    scale is exactly 0 at d = 0 and d = INFINITY."""
    if d == 0.0:
        return GAMMA_AT_0, 0.0
    if d > D_SWITCH:
        return GAMMA_AT_INF - ULTRA_C1 / d, (D_SWITCH / d) ** 2
    return None


def gamma_estimates(ds: Sequence[float],
                    tol: float = 1e-7) -> list[tuple[float, float]]:
    """(gamma(d), est_error) for each d in ds, with est_error <= tol
    (tol >= 1e-8), in one batched solve.  Each d in (0, D_SWITCH] is a row
    of that solve.  Above D_SWITCH gamma is the expansion, and every such d
    shares the one solve at D_SWITCH that measures its remainder; d = 0
    and d = INFINITY are exact limits and need no solve.  A SolverError
    names the d that failed."""
    if tol < 1e-8:
        raise ValueError("tol below 1e-8 is not supported")
    ds = [_check_d(d) for d in ds]
    branches = [_expansion(d) for d in ds]
    at = list(dict.fromkeys(d if b is None else D_SWITCH
                            for d, b in zip(ds, branches)
                            if b is None or b[1] > 0.0))
    try:
        solved = dict(zip(at, lowest_eigenvalues(
            [make_potential(d) for d in at], tol=tol)))
    except SolverError as exc:
        raise SolverError(f"d = {at[exc.index]}: {exc}") from exc

    out = []
    for d, branch in zip(ds, branches):
        if branch is None:
            out.append(solved[d])
            continue
        gamma, scale = branch
        err = 0.0
        if scale > 0.0:
            # the expansion against the collocation at D_SWITCH, plus the
            # collocation's own error, scaled to d.  Both steps are exact
            # (Sterbenz); ref - (GAMMA_AT_INF - ULTRA_C1 / D_SWITCH) would
            # round the expansion first and move err_est's low bits
            ref, ref_err = solved[D_SWITCH]
            err = (abs(ref - GAMMA_AT_INF + ULTRA_C1 / D_SWITCH)
                   + ref_err) * scale
        # not below the rounding of gamma, 4 eps
        out.append((gamma, max(err, 4.0 * sys.float_info.epsilon * gamma)))
    return out


_RESIDUAL_GRID = np.linspace(0.01, 8.0, 1601)


def _limit_residual(gamma: float, s: float, d: float) -> float:
    """Max over the grid of |L f - gamma f| for f = q^s exp(-q^2/2) and
    the library's V(q; d), d = 0 or INFINITY, where V = s(s + 1)/q^2 + q^2;
    L is the operator of the module docstring, applied with the analytic
    f' and f''."""
    q = _RESIDUAL_GRID
    f = q ** s * np.exp(-0.5 * q * q)
    d1 = (s / q - q) * f
    d2 = ((s / q - q) ** 2 - s / (q * q) - 1.0) * f
    lhs = 0.5 * (-d2 - (2.0 / q) * d1 + potential_v(q, d) * f)
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
    return _limit_residual(gamma_inf, _ULTRA_EXPONENT, INFINITY)
