"""Adaptive quadrature over [0, inf) and [0, inf) x [0, pi].

Each panel carries two separate Gauss-Legendre rules: the 15-point value is
kept, the 7-point value supplies the error estimate |G15 - G7|.  The rules
share no nodes, so a panel costs 22 evaluations, made in one call of the
integrand on the concatenated G15 + G7 abscissae.  All nodes are interior,
so integrable endpoint behaviour (up to x**-0.5 at the origin) never gets
evaluated at the singular point itself.

The half line is folded onto t in [0, 1) with

    x = decay_scale * t / (1 - t),    dx = decay_scale / (1 - t)**2 dt

so a decay_scale matched to the integrand's natural width keeps the panel
count small.  Integrands are called once per panel with a numpy array of
the panel's 22 abscissae and return shape (22,), or (n_rows, 22) to
integrate n_rows functions on the same panels; any other shape raises
ValueError.  The row count is read from the output, and results take the
shape of one output column.

The 2D rule is a tensor product: adaptive panels along the radial axis,
and for every radial node an adaptive sweep over the angular interval
[0, pi].  Angular error estimates are propagated into the reported total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "QuadConfig",
    "QuadResult",
    "QuadratureError",
    "integrate_semi_infinite",
    "integrate_2d",
]

_G15_NODES, _G15_WEIGHTS = np.polynomial.legendre.leggauss(15)
_G7_NODES, _G7_WEIGHTS = np.polynomial.legendre.leggauss(7)
_PANEL_NODES = np.concatenate([_G15_NODES, _G7_NODES])
_N15 = _G15_NODES.size

THETA_MAX = math.pi


@dataclass(frozen=True)
class QuadConfig:
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


@dataclass(frozen=True)
class QuadResult:
    """value and est_abs_error are shaped like one column of the integrand's
    output: a NumPy float for an (n,) integrand, an (n_rows,) array for an
    (n_rows, n) one."""

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


def _checked(y, n: int) -> np.ndarray:
    """The integrand's return value for n nodes; shape (n,) or (n_rows, n)."""
    y = np.asarray(y, dtype=float)
    if y.ndim not in (1, 2) or y.shape[-1] != n:
        raise ValueError(f"integrand returned shape {y.shape}, expected "
                         f"({n},) or (n_rows, {n})")
    return y


def _panel_eval(fvec, a, b):
    """One panel: G15 value and |G15 - G7| estimate, both shape (n_rows,),
    and the shape of one column of fvec's output.

    The integrand is called once, on the 15 + 7 nodes side by side.
    """
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    y = fvec(mid + half * _PANEL_NODES)
    if not np.all(np.isfinite(y)):
        raise QuadratureError(
            f"integrand returned a non-finite value inside [{a:g}, {b:g}]"
        )
    rows = np.atleast_2d(y)
    i15 = half * (rows[:, :_N15] @ _G15_WEIGHTS)
    i7 = half * (rows[:, _N15:] @ _G7_WEIGHTS)
    return i15, np.abs(i15 - i7), y.shape[:-1]


def _column(x: np.ndarray, col: tuple):
    """Row totals x of shape (n_rows,) in the shape col of one column."""
    return x if col else x[0]


def _adaptive(fvec, a, b, abs_tol, rel_tol, max_subdivisions,
              control_rows=slice(None)):
    """Adaptive bisection of [a, b] for an integrand fvec(xs) of shape
    (n,) or (n_rows, n).

    Refinement is driven by the rows that control_rows (a list of row
    indices or a slice) selects; the remaining rows ride along.  Returns
    (value, err, n_evals), value and err shaped like one column of fvec's
    output.  On an exhausted budget the QuadratureError carries the same
    triple, accumulated so far, in best.
    """
    val, err, col = _panel_eval(fvec, a, b)
    n_evals = _PANEL_NODES.size
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
        n_evals += 2 * _PANEL_NODES.size
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
    the integrand.  f is called with a scalar p and an array of thetas and
    returns shape (len(thetas),), or (n_rows, len(thetas)) for several
    integrals at once; any other shape raises ValueError.  Refinement on
    both axes is driven by the rows listed in control_rows (default: all);
    the others are integrated on the same panels.  The reported error adds
    the integral of the inner theta-sweep errors over p.
    """
    cfg = cfg.validated()
    inner_abs = 0.1 * cfg.abs_tol
    inner_rel = 0.1 * cfg.rel_tol
    # the outer sweep's last row, the integrated inner error estimates,
    # never drives refinement
    inner_control = slice(None) if control_rows is None else control_rows
    outer_control = slice(-1) if control_rows is None else control_rows
    evals = 0
    col = ()

    def outer(ps):
        nonlocal evals, col
        vals, errs = [], []
        for p in ps:
            try:
                v, e, n = _adaptive(
                    lambda ths, p=p: _checked(f(p, ths), ths.size),
                    0.0, THETA_MAX, inner_abs, inner_rel,
                    cfg.max_subdivisions, inner_control,
                )
            except QuadratureError as exc:
                exc.best = None  # one theta sweep is no whole-domain estimate
                raise
            evals += n
            vals.append(v)
            errs.append(e.max())
        col = np.shape(v)
        return np.column_stack((vals, errs)).T  # (n_rows + 1, len(ps))

    def result(val, err, _):
        # the last row integrates the inner error estimates over p
        inner_err = abs(val[-1]) + err[-1]
        return QuadResult(value=_column(val[:-1], col),
                          est_abs_error=_column(err[:-1] + inner_err, col),
                          evaluations=evals)

    try:
        return result(*_semi_infinite(outer, cfg, outer_control))
    except QuadratureError as exc:
        if exc.best is not None:
            exc.best = result(*exc.best)
        raise
