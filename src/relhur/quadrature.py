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
the panel's 22 abscissae and are expected to evaluate elementwise; the
public entry points also accept plain scalar callables and wrap them.

The 2D rule is a tensor product: adaptive panels along the radial axis,
and for every radial node an adaptive sweep over the angular interval
[0, pi].  Angular error estimates are propagated into the reported total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

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
    value: float
    est_abs_error: float
    evaluations: int


class QuadratureError(RuntimeError):
    """Raised when the panel budget runs out before tolerances are met.

    At the public entry points, best carries the partial QuadResult
    accumulated so far (None when no sound whole-domain estimate exists).
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


def _reraise_with_best(exc: "QuadratureError", expect_rows: int, row: int = 0):
    """Re-raise with the internal row tuple converted to a QuadResult."""
    best = None
    if isinstance(exc.best, tuple) and len(exc.best) == 3:
        total, toterr, n_evals = exc.best
        total = np.atleast_1d(np.asarray(total, dtype=float))
        toterr = np.atleast_1d(np.asarray(toterr, dtype=float))
        # a tuple with fewer rows came from an inner sub-integral and does
        # not estimate the whole domain
        if total.shape[0] >= expect_rows:
            best = QuadResult(value=float(total[row]),
                              est_abs_error=float(toterr[row]),
                              evaluations=int(n_evals))
    raise QuadratureError(str(exc), best=best) from exc


def _as_vectorized(f):
    """Accept either array-aware or scalar callables."""

    def call(xs):
        try:
            out = np.asarray(f(xs), dtype=float)
            if out.shape == xs.shape:
                return out
        except (TypeError, ValueError):
            pass
        return np.array([float(f(x)) for x in xs], dtype=float)

    return call


def _panel_eval(fvec, a, b, n_rows):
    """One panel: G15 value and |G15 - G7| estimate, both shape (n_rows,).

    The integrand is called once, on the 15 + 7 nodes side by side.
    """
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    y = np.atleast_2d(fvec(mid + half * _PANEL_NODES))
    if not np.all(np.isfinite(y)):
        raise QuadratureError(
            f"integrand returned a non-finite value inside [{a:g}, {b:g}]"
        )
    if y.shape != (n_rows, _PANEL_NODES.size):
        raise ValueError(f"integrand returned shape {y.shape}, expected "
                         f"({n_rows}, {_PANEL_NODES.size})")
    i15 = half * (y[:, :_N15] @ _G15_WEIGHTS)
    i7 = half * (y[:, _N15:] @ _G7_WEIGHTS)
    return i15, np.abs(i15 - i7), _PANEL_NODES.size


def _adaptive_rows(fvec, a, b, abs_tol, rel_tol, max_subdivisions, n_rows,
                   control_rows=None):
    """Adaptive bisection of [a, b] for a row-vector integrand.

    fvec(xs) -> array (n_rows, len(xs)).  Refinement is driven by the rows
    listed in control_rows (default: all); the remaining rows ride along.
    Returns (value, err, n_evals) with value/err of shape (n_rows,).
    """
    if control_rows is None:
        control_rows = list(range(n_rows))
    val, err, n_evals = _panel_eval(fvec, a, b, n_rows)
    panels = [(a, b, val, err)]
    while True:
        total = np.zeros(n_rows)
        toterr = np.zeros(n_rows)
        # fixed summation order keeps reruns byte-identical
        for pa, _, pv, pe in sorted(panels, key=lambda p: p[0]):
            total += pv
            toterr += pe
        bound = np.maximum(abs_tol, rel_tol * np.abs(total))
        if all(toterr[r] <= bound[r] for r in control_rows):
            return total, toterr, n_evals
        if len(panels) >= max_subdivisions:
            raise QuadratureError(
                f"exceeded {max_subdivisions} panels on [{a:g}, {b:g}] "
                f"(abs_tol={abs_tol:g}, rel_tol={rel_tol:g})",
                best=(total, toterr, n_evals),
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
        v1, e1, n1 = _panel_eval(fvec, pa, pm, n_rows)
        v2, e2, n2 = _panel_eval(fvec, pm, pb, n_rows)
        n_evals += n1 + n2
        panels.append((pa, pm, v1, e1))
        panels.append((pm, pb, v2, e2))


def _semi_infinite_rows(fvec, cfg, n_rows, control_rows=None):
    """Vector version of the half-line integral. fvec(xs) -> (n_rows, n)."""
    scale = cfg.decay_scale

    def mapped(ts):
        xs = scale * ts / (1.0 - ts)
        jac = scale / (1.0 - ts) ** 2
        return np.atleast_2d(fvec(xs)) * jac

    # seed with two panels so the mapped tail is resolved early
    return _adaptive_rows(
        mapped, 0.0, 1.0, cfg.abs_tol, cfg.rel_tol, cfg.max_subdivisions,
        n_rows, control_rows,
    )


def integrate_semi_infinite(f: Callable, cfg: QuadConfig = QuadConfig()) -> QuadResult:
    """Integral of f over [0, inf).

    f may have an integrable singularity at 0 no stronger than x**-0.5 and
    must decay at least exponentially at infinity.
    """
    cfg = cfg.validated()
    fv = _as_vectorized(f)
    try:
        val, err, n = _semi_infinite_rows(lambda xs: fv(xs)[None, :], cfg, 1)
    except QuadratureError as exc:
        _reraise_with_best(exc, 1)
    return QuadResult(value=float(val[0]), est_abs_error=float(err[0]),
                      evaluations=n)


def _integrate_2d_rows(f2, cfg, n_rows, control_rows=None):
    """Tensor-product integral of a row-vector integrand over
    [0, inf) x [0, THETA_MAX].  f2(p_scalar, thetas) -> (n_rows, len(thetas))."""
    if control_rows is None:
        control_rows = list(range(n_rows))
    inner_abs = 0.1 * cfg.abs_tol
    inner_rel = 0.1 * cfg.rel_tol
    evals = [0]

    def outer(ps):
        cols = []
        for p in ps:
            v, e, n = _adaptive_rows(
                lambda ths, p=p: f2(p, ths),
                0.0, THETA_MAX, inner_abs, inner_rel, cfg.max_subdivisions,
                n_rows, control_rows,
            )
            evals[0] += n
            cols.append(np.concatenate([v, [float(np.max(e))]]))
        return np.array(cols).T  # (n_rows + 1, len(ps))

    val, err, n_outer = _semi_infinite_rows(
        outer, cfg, n_rows + 1, control_rows=list(control_rows),
    )
    # the appended row integrates the inner error estimates over p
    inner_err = abs(val[n_rows]) + err[n_rows]
    return val[:n_rows], err[:n_rows] + inner_err, evals[0]


def integrate_2d(f: Callable, cfg: QuadConfig = QuadConfig()) -> QuadResult:
    """Integral of f(p, theta) over p in [0, inf), theta in [0, pi].

    The measure is plain dp dtheta; any p**2 sin(theta) weight belongs to
    the integrand.  f is called with a scalar p and an array of thetas and
    must evaluate elementwise.
    """
    cfg = cfg.validated()

    def f2(p, ths):
        try:
            out = np.asarray(f(p, ths), dtype=float)
        except (TypeError, ValueError):
            out = None
        if out is None or out.shape != ths.shape:
            out = np.array([float(f(p, t)) for t in ths], dtype=float)
        return out[None, :]

    try:
        val, err, n = _integrate_2d_rows(f2, cfg, 1)
    except QuadratureError as exc:
        _reraise_with_best(exc, 2)  # outer rows: value + inner-error row
    return QuadResult(value=float(val[0]), est_abs_error=float(err[0]),
                      evaluations=n)
