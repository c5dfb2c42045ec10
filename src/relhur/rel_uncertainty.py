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

The limiting eigenfunctions are exp(-q^2/2) (d = 0) and
q^s exp(-q^2/2) with s = (sqrt(5)-1)/2 (d = INFINITY); the residual
helpers substitute them with analytic derivatives so a wrong eigenvalue
shows up as an O(1) pointwise residual while the true one leaves only
float roundoff.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple, Sequence

import numpy as np

from .radial_eigensolver import (RadialPotential, SolverError, ground_state,
                                 lowest_eigenvalues, moment)

__all__ = ["INFINITY", "GAMMA_AT_0", "GAMMA_AT_INF", "ULTRA_EXPONENT",
           "ULTRA_C1", "D_SWITCH", "potential_v", "singular_strength",
           "make_potential", "gamma_bound", "gamma_estimates",
           "gamma_bound_report", "BoundReport", "gaussian_limit_residual",
           "ultrarelativistic_limit_residual"]

INFINITY = math.inf

GAMMA_AT_0 = 1.5
GAMMA_AT_INF = 1.0 + 0.5 * math.sqrt(5.0)

ULTRA_EXPONENT = 0.5 * (math.sqrt(5.0) - 1.0)
# first-order coefficient of gamma(d) = GAMMA_AT_INF - ULTRA_C1/d + O(1/d^2)
ULTRA_C1 = math.gamma(ULTRA_EXPONENT) / (2.0 * math.gamma(ULTRA_EXPONENT + 1.5))
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


def singular_strength(d: float) -> float:
    """Coefficient of 1/q^2 in V(q; d) as q -> 0: 0 for finite d, 1 at INFINITY."""
    d = _check_d(d)
    return 1.0 if math.isinf(d) else 0.0


def make_potential(d: float) -> RadialPotential:
    """RadialPotential wrapper for V(q; d)."""
    d = _check_d(d)
    return RadialPotential(
        evaluate=lambda q: potential_v(q, d),
        singular_strength=singular_strength(d),
        origin_scale=d if math.isfinite(d) else 0.0,
    )


def _check_d_tol(d: float, tol: float) -> float:
    d = _check_d(d)
    if tol < 1e-8:
        raise ValueError("tol below 1e-8 is not supported")
    return d


def gamma_estimates(ds: Sequence[float],
                    tol: float = 1e-7) -> list[tuple[float, float]]:
    """(gamma(d), est_error) for each d in ds, with est_error <= tol
    (tol >= 1e-8), from eigenvalues alone (no eigenvector is formed), in
    one batched solve in which every d above D_SWITCH shares the solve at
    D_SWITCH.  A SolverError names the d that failed."""
    ds = [_check_d_tol(d, tol) for d in ds]
    at = list(dict.fromkeys(min(d, D_SWITCH) if d < INFINITY else d
                            for d in ds))
    try:
        solved = dict(zip(at, lowest_eigenvalues(
            [make_potential(d) for d in at], tol=tol)))
    except SolverError as exc:
        raise SolverError(f"d = {at[exc.index]}: {exc}") from exc
    out = []
    for d in ds:
        gamma, err = solved[min(d, D_SWITCH) if d < INFINITY else d]
        if D_SWITCH < d < INFINITY:
            # gamma(d) = GAMMA_AT_INF - C1/d + O(1/d^2).  The remainder is
            # measured against the collocation at D_SWITCH and scaled by
            # (D_SWITCH/d)^2, but not below the rounding of gamma, 4 eps.
            err = (abs(gamma - GAMMA_AT_INF + ULTRA_C1 / D_SWITCH) + err) * (
                D_SWITCH / d) ** 2
            gamma = GAMMA_AT_INF - ULTRA_C1 / d
            err = max(err, 4.0 * sys.float_info.epsilon * gamma)
        out.append((gamma, err))
    return out


def gamma_bound(d: float, tol: float = 1e-7) -> float:
    """Lowest eigenvalue gamma(d), absolute error <= tol (tol >= 1e-8)."""
    return gamma_estimates([d], tol)[0][0]


class BoundReport(NamedTuple):
    """gamma(d) plus self-consistency diagnostics (reported, not asserted).

    balance_ratio is <q^2>/(2 gamma - <q^2>), the state's own ratio of
    momentum-side to position-side dispersion in scaled units; it equals 1
    exactly at d = 0 and measures how far the minimizer sits from the
    balanced-scaling point elsewhere.
    """

    d: float
    gamma: float
    est_error: float
    mean_q_sq: float
    balance_ratio: float


def gamma_bound_report(d: float, tol: float = 1e-7) -> BoundReport:
    """gamma(d) with the dispersion-balance diagnostic attached."""
    d = _check_d_tol(d, tol)
    if d <= D_SWITCH or math.isinf(d):
        res = ground_state(make_potential(d), tol=tol)
        gamma, est_error = res.gamma, res.diagnostics.est_error
    else:
        # gamma from the expansion; the eigenfunction is the d = INFINITY one
        [(gamma, est_error)] = gamma_estimates([d], tol)
        res = ground_state(make_potential(INFINITY), tol=tol)
    q_sq = moment(res, lambda q: q * q)
    return BoundReport(
        d=d,
        gamma=gamma,
        est_error=est_error,
        mean_q_sq=q_sq,
        balance_ratio=q_sq / (2.0 * gamma - q_sq),
    )


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
