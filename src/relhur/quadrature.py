"""Two tensor rules for analytic integrands: the trapezoid rule in a
variable t, its step halved until two sums agree to max(abs_tol,
rel_tol |sum|) in each control row, times Gauss-Legendre in an angle.

On integrands analytic in t the trapezoid rule converges geometrically
(Trefethen & Weideman, SIAM Rev. 56, 2014), so the step-halving gap, which
bounds the coarser sum, bounds the kept finer one too.

integrate_trapezoid takes t on an interval the caller chooses, times 8-node
Gauss-Legendre in cos(theta); the two closed families (hydrogen.py,
hopfion.py) fold their own variable changes into the integrand.

integrate_exp_sinh takes p in [0, inf) through the exp-sinh map of
Takahasi & Mori (1974), p = exp((pi/2) sinh t) with t in [-4, 4], so p
spans 2e-19 to 4e18 and an integrand that decays at least exponentially
(with integrable endpoint behaviour such as p**-0.5) decays doubly
exponentially in t.  Its first t level (step 0.5, 17 nodes) is trimmed to
the run of nodes where some control row reaches eps of its peak, plus one
node on each side.  Theta gets Gauss-Legendre in theta itself, not in
cos(theta): the dispersion rows carry 1/sin(theta) and terms odd in
sin(theta).  The theta node count is picked once, on the trimmed first t
level, from 8, 12, 16, 24, 32, 48, 64: the first count whose sums agree
with the count below it is kept, the finer of the two.  The integrand is
called once per t level and theta rule, on all the nodes the level adds;
an integrand that needs to bound its working memory splits the call
itself (dirac_states does, by grid points).

Integrands are called on a grid, f(ts[:, None], cs[None, :]) or
f(ps[:, None], thetas[None, :]), and return shape (n, m), or (n_rows, n, m)
to integrate n_rows functions on the same nodes; any other shape raises
ValueError.  Results hold one entry per row, (1,) for shape (n, m).
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
    "integrate_trapezoid",
]

# 8-node Gauss-Legendre on [-1, 1], positive nodes descending; symmetric,
# so an odd integrand sums to zero up to rounding
_XL = (0.960289856497536231683560868569473, 0.796666477413626739591553936475830,
       0.525532409916328985817739049189246, 0.183434642495649804939476142360184)
_WL = (0.101228536290376259152531354309962, 0.222381034453374470544355994426241,
       0.313706645877887287337962201986601, 0.362683783378361982965150449277196)
_COS_NODES = np.array([-x for x in _XL] + list(_XL[::-1]))
_COS_WEIGHTS = np.array(_WL + _WL[::-1])

_THETA_LEVELS = (8, 12, 16, 24, 32, 48, 64)
_MAX_T_NODES = 30000
_EPS = np.finfo(float).eps


class QuadConfig(NamedTuple("QuadConfig", [("abs_tol", float),
                                             ("rel_tol", float)])):
    """Tolerances of both rules, each positive; a rule gives up when halving
    the t step again would pass _MAX_T_NODES t nodes."""

    __slots__ = ()

    def __new__(cls, abs_tol: float = 1e-10, rel_tol: float = 1e-9):
        if not (abs_tol > 0.0 and rel_tol > 0.0):
            raise ValueError("tolerances must be positive")
        return super().__new__(cls, abs_tol, rel_tol)

    # see dirac_states.MomentumPoint
    _make = classmethod(lambda cls, fields: cls(*fields))


class QuadResult(NamedTuple):
    """value and est_abs_error hold one entry per row of the integrand's
    output, shape (n_rows,), and (1,) for an integrand of shape (n, m).
    est_abs_error is the last step-halving gap plus 4 eps |value|, and for
    integrate_exp_sinh also the theta gap and the end nodes' share of the
    first t level, which estimates the tails beyond [-4, 4].  evaluations
    counts every grid point the integrand was called on."""

    value: np.ndarray
    est_abs_error: np.ndarray
    evaluations: int


class QuadratureError(RuntimeError):
    """Raised when a rule misses its tolerances.  best carries the last
    QuadResult when the t budget ran out, else None (a non-finite sum, or
    theta sums that disagree at 64 nodes)."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


def _checked(y, *grid: int) -> np.ndarray:
    """The integrand's return value on a node grid of shape grid: that
    shape, or (n_rows,) + grid."""
    y = np.asarray(y, dtype=float)
    if y.shape[-len(grid):] != grid or y.ndim > len(grid) + 1:
        raise ValueError(f"integrand returned shape {y.shape}, expected "
                         f"{grid} or (n_rows, {', '.join(map(str, grid))})")
    return y


def _finite(sums, t_lo, t_hi):
    if not np.all(np.isfinite(sums)):
        raise QuadratureError(
            f"integrand sum is not finite on [{t_lo:g}, {t_hi:g}]")
    return sums


def _halving(level, t_lo, t_hi, step, cfg, control, result, total=None,
             n_t=0):
    """The trapezoid loop of both rules on the multiples of step in
    [t_lo, t_hi], half weight on a node at an end.  level(ts, w) returns
    the rows' sums over the new t nodes ts with weights w; result(total,
    err) makes the QuadResult.  total, when given, holds the sums over n_t
    nodes at twice step, and the loop starts by adding the nodes of step.
    """
    while True:
        ks = np.arange(math.ceil(t_lo / step), math.floor(t_hi / step) + 1)
        ts = step * (ks if total is None else ks[ks % 2 == 1])  # new nodes
        w = np.where((ts == t_lo) | (ts == t_hi), 0.5 * step, step)
        sums = _finite(level(ts, w), t_lo, t_hi)
        n_t += ts.size
        if total is None:
            total = sums
        else:
            total, gap = 0.5 * total + sums, np.abs(0.5 * total - sums)
            res = result(total, gap + 4.0 * _EPS * np.abs(total))
            bound = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(total))
            if np.all(gap[control] <= bound[control]):
                return res
            if 2 * n_t > _MAX_T_NODES:
                raise QuadratureError(
                    f"trapezoid sums unconverged at {n_t} nodes on "
                    f"[{t_lo:g}, {t_hi:g}]", best=res)
        step *= 0.5


def integrate_trapezoid(f: Callable, t_lo: float, t_hi: float, step: float,
                        cfg: QuadConfig = QuadConfig(),
                        control_rows: Sequence[int] | None = None) -> QuadResult:
    """Integral of f(t, c) over t in [t_lo, t_hi] and c = cos(theta) in
    [-1, 1], measure dt dc, for an f analytic in t and negligible at both
    ends (or even about an end that is a node).

    The trapezoid rule from step, halved until two sums agree in each
    control row (default: all), times 8-node Gauss-Legendre in c, exact to
    degree 15.  f is called as f(ts[:, None], cs[None, :]) on the nodes
    each step adds and returns shape (n_t, 8) or (n_rows, n_t, 8).
    """
    evals = 0

    def level(ts, w):
        nonlocal evals
        y = _checked(f(ts[:, None], _COS_NODES[None, :]), ts.size, 8)
        evals += 8 * ts.size
        return (y.reshape(-1, ts.size, 8) @ _COS_WEIGHTS) @ w

    return _halving(
        level, t_lo, t_hi, step, cfg,
        slice(None) if control_rows is None else list(control_rows),
        lambda total, err: QuadResult(total, err, evals))


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
                       control_rows: Sequence[int] | None = None,
                       staged: bool = False) -> QuadResult:
    """Integral of f(p, theta) over p in [0, inf), theta in [0, pi], measure
    dp dtheta, for an f analytic on the open domain and decaying at least
    exponentially in p (module docstring).

    f is called as f(ps[:, None], thetas[None, :]) and returns shape
    (n_p, n_theta) or (n_rows, n_p, n_theta).  The control rows (default:
    all) pick the t range, the theta rule and the t step; the other rows
    ride along on the same nodes, each with its own error estimate.

    With staged=True f takes the stage of each call as a third argument:
    "first" on the first t level, once per theta rule the ladder tries;
    "later" on the new nodes of each later level; and "recheck" once more
    on the nodes of the last "later" call, after the t step has converged
    and before the result is returned.  The "recheck" values are only
    shape-checked and counted: an integrand with an inner rule of its own
    re-checks that rule where the t step converged, and raises to reject
    the result.
    """
    control = slice(None) if control_rows is None else list(control_rows)
    evals = 0

    def in_t(ts, n_theta, stage):
        """The rows' theta sums times dp/dt at the t nodes ts, (n_rows, n_t)."""
        nonlocal evals
        thetas, w_theta = _theta_rule(n_theta)
        ps = np.exp(0.5 * math.pi * np.sinh(ts))
        grid = (ps[:, None], thetas[None, :]) + ((stage,) if staged else ())
        y = _checked(f(*grid), ps.size, n_theta)
        evals += ps.size * n_theta
        return (y.reshape(-1, ts.size, n_theta) @ w_theta) * (
            0.5 * math.pi * np.cosh(ts) * ps)

    ts = 0.5 * np.arange(-8.0, 9.0)
    g = _finite(in_t(ts, _THETA_LEVELS[0], "first"), ts[0], ts[-1])
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
        total = _finite(in_t(ts, n_theta, "first") @ w, t_lo, t_hi)
        theta_gap = np.abs(total - coarse)
        bound = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(total))
        if np.all(theta_gap[control] <= bound[control]):
            break
        coarse = total
    else:
        raise QuadratureError(
            f"theta sums unconverged at {n_theta} nodes on [{t_lo:g}, {t_hi:g}]")

    def later(ts, w):
        nonlocal last
        last = ts
        return in_t(ts, n_theta, "later") @ w

    last = None
    res = _halving(
        later, t_lo, t_hi, 0.25, cfg, control,
        lambda total, err: QuadResult(total, err + theta_gap + tails, evals),
        total=total, n_t=ts.size)
    if staged:
        in_t(last, n_theta, "recheck")
    return res._replace(evaluations=evals)
