"""One rule for analytic integrands on [0, inf) x [0, pi], built on the
trapezoid rule in a variable t, its step halved until two sums agree to
max(abs_tol, rel_tol |sum|) in the rows the caller names.

On integrands analytic in t the trapezoid rule converges geometrically
(Trefethen & Weideman, SIAM Rev. 56, 2014), so the step-halving gap, which
bounds the coarser sum, bounds the kept finer one too.

integrate_exp_sinh takes p in [0, inf) through the exp-sinh map of
Takahasi & Mori (1974), p = exp((pi/2) sinh t) with t in [-4, 4], so p
spans 2e-19 to 4e18 and an integrand that decays at least exponentially
(with integrable endpoint behaviour such as p**-0.5) decays doubly
exponentially in t.  Its first t level (step 0.5, 17 nodes) is trimmed to
the run of nodes where some control row reaches eps of its peak, plus one
node on each side.  It is a tensor rule, times Gauss-Legendre in theta
itself, not in cos(theta): the dispersion rows carry 1/sin(theta) and
terms odd in sin(theta).  The theta node count is picked once, on the
trimmed first t level, from 8, 12, 16, 24, 32, 48, 64: the first count
whose sums agree with the count below it is kept, the finer of the two.
The integrand is called once per t level and theta rule, on all the nodes
the level adds; an integrand that needs to bound its working memory splits
the call itself (dirac_states does, by grid points).

The integrand is called on a grid, f(ps[:, None], thetas[None, :]), and
returns shape (n, m), or that shape led by n_rows to integrate n_rows
functions on the same nodes; any other shape raises ValueError.  Results
hold one entry per row, (1,) for an integrand without a row axis.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "QuadConfig",
    "QuadResult",
    "QuadratureError",
    "integrate_exp_sinh",
]

_THETA_LEVELS = (8, 12, 16, 24, 32, 48, 64)
_MAX_T_NODES = 30000
_EPS = np.finfo(float).eps


class QuadConfig(NamedTuple("QuadConfig", [("abs_tol", float),
                                             ("rel_tol", float)])):
    """Tolerances of integrate_exp_sinh, each positive and finite; it gives
    up when halving the t step again would pass _MAX_T_NODES t nodes."""

    __slots__ = ()

    def __new__(cls, abs_tol: float = 1e-10, rel_tol: float = 1e-9):
        if not (0.0 < abs_tol < math.inf and 0.0 < rel_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")
        return super().__new__(cls, abs_tol, rel_tol)

    # the base's _make, which _replace calls, skips __new__ and its checks;
    # copy and pickle call __new__
    _make = classmethod(lambda cls, fields: cls(*fields))


class QuadResult(NamedTuple):
    """value and est_abs_error hold one entry per row of the integrand's
    output, shape (n_rows,), and (1,) for an integrand without a row axis.
    est_abs_error is the last step-halving gap plus 4 eps |value|, and for
    integrate_exp_sinh also the theta gap and the end nodes' share of the
    first t level, which estimates the tails beyond [-4, 4].  evaluations
    counts every node or grid point the integrand was called on."""

    value: np.ndarray
    est_abs_error: np.ndarray
    evaluations: int


class QuadratureError(ArithmeticError):
    """Raised when a sum is not finite or misses its tolerances in budget."""


def _checked(y, n_p: int, n_theta: int) -> np.ndarray:
    """The integrand's return value on the (n_p, n_theta) node grid: that
    shape, or (n_rows, n_p, n_theta)."""
    y = np.asarray(y, dtype=float)
    if y.shape[-2:] != (n_p, n_theta) or y.ndim > 3:
        raise ValueError(f"integrand returned shape {y.shape}, expected "
                         f"{(n_p, n_theta)} or (n_rows, {n_p}, {n_theta})")
    return y


def _finite(sums, t_lo, t_hi):
    if not np.all(np.isfinite(sums)):
        raise QuadratureError(
            f"integrand sum is not finite on [{t_lo:g}, {t_hi:g}]")
    return sums


@functools.lru_cache(maxsize=None)  # called with _THETA_LEVELS only
def _theta_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-node Gauss-Legendre on [0, pi], symmetrized and read-only, as the
    cache shares it: Newton's method on the zeros of P_n from Tricomi's
    guess, and the weights 2 / ((1 - x^2) P_n'(x)^2).  Not Golub-Welsch:
    OpenBLAS threads np.linalg.eigh from 32 rows on, and a cold call then
    took 10-48 ms instead of under 1 ms."""
    x = np.cos(math.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(6):  # quadratic convergence: 1e-3 -> 1e-16 in 4 steps
        p_prev, p = np.ones(n), x
        for k in range(2, n + 1):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        dp = n * (p_prev - x * p) / (1.0 - x * x)  # P_n'
        x = x - p / dp
    w = 1.0 / ((1.0 - x * x) * dp * dp)
    thetas = 0.5 * math.pi * (1.0 + 0.5 * (x - x[::-1]))
    weights = 0.5 * math.pi * (w + w[::-1])
    thetas.flags.writeable = weights.flags.writeable = False
    return thetas, weights


def integrate_exp_sinh(f: Callable, cfg: QuadConfig = QuadConfig(),
                       control_rows: Sequence[int] | None = None) -> QuadResult:
    """Integral of f(p, theta) over p in [0, inf), theta in [0, pi], measure
    dp dtheta, for an f analytic on the open domain and decaying at least
    exponentially in p (module docstring).

    f is called as f(ps[:, None], thetas[None, :]) and returns shape
    (n_p, n_theta) or (n_rows, n_p, n_theta).  The control rows (default:
    all) pick the t range, the theta rule and the t step; the other rows
    ride along on the same nodes, each with its own error estimate.  The
    first call is the whole first t level at 8 theta nodes, and the last
    one the new nodes of the level on which the t step converged.  The rule
    only reads what f returns, so f may keep it, or return it read-only.
    """
    control = slice(None) if control_rows is None else list(control_rows)
    evals = 0

    def in_t(ts, n_theta):
        """The rows' theta sums times dp/dt at the t nodes ts, (n_rows, n_t)."""
        nonlocal evals
        thetas, w_theta = _theta_rule(n_theta)
        ps = np.exp(0.5 * math.pi * np.sinh(ts))
        y = _checked(f(ps[:, None], thetas[None, :]), ps.size, n_theta)
        evals += ps.size * n_theta
        return (y.reshape(-1, ts.size, n_theta) @ w_theta) * (
            0.5 * math.pi * np.cosh(ts) * ps)

    ts = 0.5 * np.arange(-8.0, 9.0)
    g = _finite(in_t(ts, _THETA_LEVELS[0]), ts[0], ts[-1])
    mag = np.abs(g[control])
    kept = np.flatnonzero(np.any(mag >= _EPS * mag.max(axis=1, keepdims=True),
                                 axis=0))
    lo, hi = max(kept[0] - 1, 0), min(kept[-1] + 1, ts.size - 1)
    g, ts = g[:, lo:hi + 1], ts[lo:hi + 1]
    t_lo, t_hi = ts[0], ts[-1]
    w = np.where((ts == t_lo) | (ts == t_hi), 0.25, 0.5)
    tails = w[0] * np.abs(g[:, 0]) + w[-1] * np.abs(g[:, -1])

    coarse = g @ w
    for n_theta in _THETA_LEVELS[1:]:
        total = _finite(in_t(ts, n_theta) @ w, t_lo, t_hi)
        theta_gap = np.abs(total - coarse)
        bound = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(total))
        if np.all(theta_gap[control] <= bound[control]):
            break
        coarse = total
    else:
        raise QuadratureError(
            f"theta sums unconverged at {n_theta} nodes on [{t_lo:g}, {t_hi:g}]")

    # halve the t step from 0.25, adding its odd multiples; the ends are
    # multiples of 0.5, so no end is added, and n_t nodes become 2 n_t - 1
    step, n_t = 0.25, ts.size
    while True:
        ks = np.arange(math.ceil(t_lo / step), math.floor(t_hi / step) + 1)
        ts = step * ks[ks % 2 == 1]
        sums = _finite(in_t(ts, n_theta) @ np.full(ts.size, step), t_lo, t_hi)
        n_t += ts.size
        total, gap = 0.5 * total + sums, np.abs(0.5 * total - sums)
        bound = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(total))
        if np.all(gap[control] <= bound[control]):
            return QuadResult(total, (gap + 4.0 * _EPS * np.abs(total))
                              + theta_gap + tails, evals)
        if 2 * n_t - 1 > _MAX_T_NODES:
            raise QuadratureError(
                f"trapezoid sums unconverged at {n_t} nodes on "
                f"[{t_lo:g}, {t_hi:g}]")
        step *= 0.5
