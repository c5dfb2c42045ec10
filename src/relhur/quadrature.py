"""Adaptive quadrature over [0, inf) and [0, inf) x [0, pi], and a trapezoid
rule for analytic integrands.

Each panel carries QUADPACK's nested Gauss-Kronrod pair (qk15; Piessens et
al., QUADPACK, 1983): the 15-point Kronrod value is kept, and the 7-point
Gauss rule on its odd nodes supplies the error estimate |K15 - G7|.  That
difference estimates the error of G7, so it bounds the kept K15 value
only loosely: for the packet of hopfion.py at a = 1 the general dispersion
route reports 3.2e-7 for a value good to 1e-15.  The rules share their
nodes, so a panel costs 15 evaluations, made in one call of the
integrand.  All nodes are interior, so integrable endpoint behaviour (up
to x**-0.5 at the origin) never gets evaluated at the singular point
itself.

The half line is folded onto t in [0, 1) with

    x = decay_scale * t / (1 - t),    dx = decay_scale / (1 - t)**2 dt

so a decay_scale matched to the integrand's natural width keeps the panel
count small.  Integrands are called once per panel with a numpy array of
the panel's 15 abscissae and return shape (15,), or (n_rows, 15) to
integrate n_rows functions on the same panels; any other shape raises
ValueError.  The row count is read from the output, and results take the
shape of one output column.

The 2D rule is a tensor product: adaptive panels along the radial axis p,
and for every p node an adaptive sweep over the angular interval [0, pi].
The integrand is called once per radial panel, on the 15 x 15 grid of its
p nodes and the first angular panel's nodes; only the p nodes whose first
angular panel misses the inner tolerance are refined further, one p value
at a time.  Angular error estimates are propagated into the reported total.

integrate_trapezoid is the trapezoid rule in a radial variable t times
8-node Gauss-Legendre in cos(theta).  On integrands analytic in t it
converges geometrically (Trefethen & Weideman, SIAM Rev. 56, 2014); its
error estimate is the step-halving gap, which bounds the coarser sum and
so, under geometric convergence, the kept finer one too.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "QuadConfig",
    "QuadResult",
    "QuadratureError",
    "integrate_semi_infinite",
    "integrate_2d",
    "integrate_trapezoid",
]

# qk15 for x >= 0, descending: Kronrod nodes and weights, and the Gauss
# weights of the odd-indexed nodes (0.949..., 0.741..., 0.405..., 0)
_XK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
       0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
       0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
       0.207784955007898467600689403773245, 0.0)
_WK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
       0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
       0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
       0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975, 0.417959183673469387755102040816327)

_NODES = np.array([-x for x in _XK[:-1]] + list(_XK[::-1]))  # ascending
_K15_WEIGHTS = np.array(_WK[:-1] + _WK[::-1])
_G7_WEIGHTS = np.zeros(_NODES.size)
_G7_WEIGHTS[1::2] = _WG[:-1] + _WG[::-1]
# one product gives the K15 value and the K15 - G7 difference
_RULE = np.stack([_K15_WEIGHTS, _K15_WEIGHTS - _G7_WEIGHTS], axis=1)
_N = _NODES.size

# 8-node Gauss-Legendre on [-1, 1], positive nodes descending; symmetric,
# so an odd integrand sums to zero up to rounding
_XL = (0.960289856497536231683560868569473, 0.796666477413626739591553936475830,
       0.525532409916328985817739049189246, 0.183434642495649804939476142360184)
_WL = (0.101228536290376259152531354309962, 0.222381034453374470544355994426241,
       0.313706645877887287337962201986601, 0.362683783378361982965150449277196)
_COS_NODES = np.array([-x for x in _XL] + list(_XL[::-1]))
_COS_WEIGHTS = np.array(_WL + _WL[::-1])

THETA_MAX = math.pi


class QuadConfig(NamedTuple):
    abs_tol: float = 1e-10
    rel_tol: float = 1e-9
    decay_scale: float = 1.0
    max_subdivisions: int = 2000

    def validated(self) -> "QuadConfig":
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if not (self.decay_scale > 0.0 and math.isfinite(self.decay_scale)):
            raise ValueError("decay_scale must be positive and finite")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")
        return self


class QuadResult(NamedTuple):
    """value and est_abs_error are shaped like one column of the integrand's
    output: a NumPy float for a one-row integrand, an (n_rows,) array for
    an n_rows one.  est_abs_error sums |K15 - G7| over the adaptive rules'
    panels, which bounds the kept K15 value only loosely (module
    docstring); for integrate_trapezoid it is the last step-halving gap."""

    value: np.floating | np.ndarray
    est_abs_error: np.floating | np.ndarray
    evaluations: int


class QuadratureError(RuntimeError):
    """Raised when the panel budget runs out before tolerances are met.

    best carries the partial QuadResult accumulated so far, or None when no
    whole-domain estimate exists (a non-finite integrand value, or an inner
    theta sweep of integrate_2d that ran out of panels).
    """

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


def _rule(y, a, b):
    """K15 value and |K15 - G7| estimate over [a, b] along the last axis of
    y, which holds the integrand at the panel's 15 nodes."""
    if not np.all(np.isfinite(y)):
        raise QuadratureError(
            f"integrand returned a non-finite value inside [{a:g}, {b:g}]"
        )
    both = 0.5 * (b - a) * (y @ _RULE)
    return both[..., 0], np.abs(both[..., 1])


def _nodes(a, b):
    return 0.5 * (a + b) + 0.5 * (b - a) * _NODES


def _panel_eval(fvec, a, b):
    """One panel: K15 value and |K15 - G7| estimate, both shape (n_rows,),
    and the shape of one column of fvec's output."""
    y = fvec(_nodes(a, b))
    val, err = _rule(np.atleast_2d(y), a, b)
    return val, err, y.shape[:-1]


def _column(x: np.ndarray, col: tuple):
    """Row totals x of shape (n_rows,) in the shape col of one column."""
    return x if col else x[0]


def _adaptive(fvec, a, b, abs_tol, rel_tol, max_subdivisions,
              control_rows=slice(None), first=None):
    """Adaptive bisection of [a, b] for an integrand fvec(xs) of shape
    (n,) or (n_rows, n).

    Refinement is driven by the rows that control_rows (a list of row
    indices or a slice) selects; the remaining rows ride along.  first, a
    (value, err, col) triple of _panel_eval on [a, b] computed elsewhere,
    spares that evaluation.  Returns (value, err, n_evals), value and err
    shaped like one column of fvec's output.  On an exhausted budget the
    QuadratureError carries the same triple, accumulated so far, in best.
    """
    if first is None:
        val, err, col = _panel_eval(fvec, a, b)
        n_evals = _N
    else:
        (val, err, col), n_evals = first, 0
    if isinstance(control_rows, slice):
        control_rows = range(val.size)[control_rows]
    panels = [(a, b, val, err)]
    while True:
        total = np.zeros(val.size)
        toterr = np.zeros(val.size)
        # fixed summation order keeps reruns byte-identical
        for pa, _, pv, pe in sorted(panels, key=lambda p: p[0]):
            total += pv
            toterr += pe
        bound = np.maximum(abs_tol, rel_tol * np.abs(total))
        if all(toterr[r] <= bound[r] for r in control_rows):
            return _column(total, col), _column(toterr, col), n_evals
        if len(panels) >= max_subdivisions:
            raise QuadratureError(
                f"exceeded {max_subdivisions} panels on [{a:g}, {b:g}] "
                f"(abs_tol={abs_tol:g}, rel_tol={rel_tol:g})",
                best=(_column(total, col), _column(toterr, col), n_evals),
            )
        worst_i = 0
        worst_key = (-1.0, 0.0)
        for i, (pa, pb, pv, pe) in enumerate(panels):
            key = (max(pe[r] for r in control_rows), -pa)
            if key > worst_key:
                worst_key = key
                worst_i = i
        pa, pb, _, _ = panels.pop(worst_i)
        pm = 0.5 * (pa + pb)
        v1, e1, _ = _panel_eval(fvec, pa, pm)
        v2, e2, _ = _panel_eval(fvec, pm, pb)
        n_evals += 2 * _N
        panels.append((pa, pm, v1, e1))
        panels.append((pm, pb, v2, e2))


def _semi_infinite(f, cfg, control_rows=slice(None)):
    """_adaptive over the half line, folded onto [0, 1)."""
    scale = cfg.decay_scale

    def mapped(ts):
        xs = scale * ts / (1.0 - ts)
        jac = scale / (1.0 - ts) ** 2
        return _checked(f(xs), ts.size) * jac

    return _adaptive(mapped, 0.0, 1.0, cfg.abs_tol, cfg.rel_tol,
                     cfg.max_subdivisions, control_rows)


def integrate_semi_infinite(f: Callable, cfg: QuadConfig = QuadConfig()) -> QuadResult:
    """Integral of f over [0, inf).

    f is called with an array xs of abscissae and returns shape (len(xs),),
    or (n_rows, len(xs)) for several integrands at once; any other shape
    raises ValueError.  f may have an integrable singularity at 0 no
    stronger than x**-0.5 and must decay at least exponentially at infinity.
    """
    cfg = cfg.validated()
    try:
        return QuadResult(*_semi_infinite(f, cfg))
    except QuadratureError as exc:
        if exc.best is not None:
            exc.best = QuadResult(*exc.best)
        raise


def integrate_2d(f: Callable, cfg: QuadConfig = QuadConfig(),
                 control_rows: Sequence[int] | None = None) -> QuadResult:
    """Integral of f(p, theta) over p in [0, inf), theta in [0, pi].

    The measure is plain dp dtheta; any p**2 sin(theta) weight belongs to
    the integrand.  f is called as f(ps[:, None], thetas[None, :]), once
    per radial panel on its 15 p nodes and the 15 nodes of the whole
    angular interval, and then once per further angular panel for each p
    node whose first angular panel missed the inner tolerance (a single p,
    n_p = 1).  It returns shape (n_p, n_theta), or (n_rows, n_p, n_theta)
    for several integrals at once; any other shape raises ValueError.
    Refinement on both axes is driven by the rows listed in control_rows
    (default: all); the others are integrated on the same panels.  Each
    row's reported error adds the integral over p of its own inner
    theta-sweep errors.
    """
    cfg = cfg.validated()
    inner_abs = 0.1 * cfg.abs_tol
    inner_rel = 0.1 * cfg.rel_tol
    # the outer sweep integrates row r at 2r and its inner error estimates
    # at 2r + 1, which never drive refinement
    inner_control = slice(None) if control_rows is None else list(control_rows)
    outer_control = (slice(None, None, 2) if control_rows is None
                     else [2 * r for r in control_rows])
    thetas = _nodes(0.0, THETA_MAX)[None, :]
    evals = 0
    col = ()

    def outer(ps):
        nonlocal evals, col
        y = _checked(f(ps[:, None], thetas), ps.size, _N)
        evals += ps.size * _N
        col = y.shape[:-2]
        try:
            vals, errs = _rule(y.reshape(-1, ps.size, _N), 0.0, THETA_MAX)
            bound = np.maximum(inner_abs, inner_rel * np.abs(vals))
            missed = np.any(errs[inner_control] > bound[inner_control], axis=0)
            for i in np.flatnonzero(missed):
                p = ps[i:i + 1, None]
                vals[:, i], errs[:, i], n = _adaptive(
                    lambda ths: _checked(f(p, ths[None, :]), 1, ths.size)[..., 0, :],
                    0.0, THETA_MAX, inner_abs, inner_rel,
                    cfg.max_subdivisions, inner_control,
                    first=(vals[:, i], errs[:, i], col),
                )
                evals += n
        except QuadratureError as exc:
            exc.best = None  # one theta sweep is no whole-domain estimate
            raise
        # (2 n_rows, len(ps)): each row followed by its inner error
        return np.stack((vals, errs), axis=1).reshape(-1, ps.size)

    def result(val, err, _):
        inner_err = np.abs(val[1::2]) + err[1::2]
        return QuadResult(value=_column(val[::2], col),
                          est_abs_error=_column(err[::2] + inner_err, col),
                          evaluations=evals)

    try:
        return result(*_semi_infinite(outer, cfg, outer_control))
    except QuadratureError as exc:
        if exc.best is not None:
            exc.best = result(*exc.best)
        raise


def integrate_trapezoid(f: Callable, t_lo: float, t_hi: float, step: float,
                        cfg: QuadConfig = QuadConfig(),
                        control_rows: Sequence[int] | None = None) -> QuadResult:
    """Integral of f(t, c) over t in [t_lo, t_hi] and c = cos(theta) in
    [-1, 1], measure dt dc, for an f analytic in t and negligible at both
    ends (or even about an end that is a node).

    The trapezoid rule on the multiples of step in [t_lo, t_hi] (half
    weight on a node at an end) times 8-node Gauss-Legendre in c, exact to
    degree 15.  The step is halved, reusing the nodes, until two sums
    differ by at most max(abs_tol, rel_tol |sum|) in each control row
    (default: all); est_abs_error is that gap plus 4 eps |sum|.  f is
    called as f(ts[:, None], cs[None, :]) on the nodes each step adds and
    returns shape (n_t, 8) or (n_rows, n_t, 8).  decay_scale is unused.
    Raises QuadratureError when a sum is not finite (best None) or when
    halving again would pass 15 max_subdivisions t nodes (best: the last
    sums).
    """
    cfg = cfg.validated()
    control = slice(None) if control_rows is None else list(control_rows)
    total, n_t = None, 0
    while True:
        ks = np.arange(math.ceil(t_lo / step), math.floor(t_hi / step) + 1)
        ts = step * (ks if total is None else ks[ks % 2 == 1])  # new nodes
        y = _checked(f(ts[:, None], _COS_NODES[None, :]), ts.size, 8)
        w = np.where((ts == t_lo) | (ts == t_hi), 0.5 * step, step)
        sums = (y.reshape(-1, ts.size, 8) @ _COS_WEIGHTS) @ w
        if not np.all(np.isfinite(sums)):
            raise QuadratureError(
                f"integrand sum is not finite on [{t_lo:g}, {t_hi:g}]")
        n_t += ts.size
        if total is None:
            total = sums
        else:
            total, gap = 0.5 * total + sums, np.abs(0.5 * total - sums)
            err = gap + 4.0 * np.finfo(float).eps * np.abs(total)
            col = y.shape[:-2]
            res = QuadResult(_column(total, col), _column(err, col), 8 * n_t)
            bound = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(total))
            if np.all(gap[control] <= bound[control]):
                return res
            if 2 * n_t > _N * cfg.max_subdivisions:
                raise QuadratureError(
                    f"trapezoid sums unconverged at {n_t} nodes on "
                    f"[{t_lo:g}, {t_hi:g}]", best=res)
        step *= 0.5
