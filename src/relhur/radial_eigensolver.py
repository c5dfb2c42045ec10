"""Ground-state solver for radial operators (1/2)(-f'' - (2/q)f' + V(q)f) = g f.

The substitution u = q f turns the operator into -u'' + V u = 2g u with
u(0) = 0, which discretizes to a symmetric tridiagonal matrix on a uniform
grid with Dirichlet truncation at q_max.  The lowest eigenvalue comes from
LAPACK's Sturm-sequence bisection (stebz, through
scipy.linalg.eigh_tridiagonal) to an explicit absolute width, refined by
Richardson extrapolation over three nested grids; the quoted error estimate
is the difference of the two extrapolants reduced by the next-order factor,
plus half the bisection width.  The finest grid's eigenvector comes from the
same call, by LAPACK inverse iteration (stein).

Potentials may carry a c/q^2 singularity at the origin (c > -1/4, else the
operator is unbounded below).  For c > 0 a generic difference stencil through
the singularity degrades convergence to O(h^{2s+1}) with
s = (-1 + sqrt(1+4c))/2, so the c/q^2 part of the diagonal is replaced by a
lattice form chosen to annihilate the exact near-origin solution u ~ q^{s+1}:

    cent_i = ((1 + 1/i)^{s+1} + (1 - 1/i)^{s+1} - 2) / h^2

which restores clean O(h^2) convergence and lets Richardson do its job.

Potentials and moment weights are evaluated once on the whole grid array
and must return an array of the grid's shape.
Normalization integrates u^2 with a composite Simpson rule on [h, q_max]
plus an exact power-law head on [0, h] (u ~ q^{s+1} there), meeting the
1e-8 contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import eigh_tridiagonal


class SolverError(RuntimeError):
    """Eigenvalue iteration failed to meet its tolerance contract."""


@dataclass(frozen=True)
class RadialPotential:
    """A radial potential with declared origin behavior.

    evaluate(q) takes an array of q > 0 and returns V of the same shape,
    finite everywhere (any other shape raises ValueError); singular_strength
    is the coefficient c of the 1/q^2 term as q -> 0 (0 for regular
    potentials).  V must grow like q^2 as q -> infinity, so the ground state
    is confined and the Dirichlet truncation at q_max is harmless.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    singular_strength: float = 0.0


@dataclass(frozen=True)
class EigenDiagnostics:
    grid_size: int
    q_max: float
    est_error: float


@dataclass(frozen=True)
class EigenResult:
    """Ground state: eigenvalue gamma and normalized eigenfunction samples.

    f_values holds f = u/q on the interior grid, normalized so that
    the integral of f^2 q^2 dq over (0, infinity) equals 1.
    """

    gamma: float
    grid: np.ndarray
    f_values: np.ndarray
    diagnostics: EigenDiagnostics


def _origin_exponent(c: float) -> float:
    """Exponent s of the regular solution f ~ q^s near a c/q^2 origin."""
    return 0.5 * (-1.0 + math.sqrt(1.0 + 4.0 * c))


def _on_grid(fn: Callable, grid: np.ndarray) -> np.ndarray:
    """fn evaluated on the grid array, which must return the grid's shape."""
    v = np.asarray(fn(grid), dtype=np.float64)
    if v.shape != grid.shape:
        raise ValueError(f"function returned shape {v.shape} on a grid of "
                         f"shape {grid.shape}")
    return v


def _simpson(y: np.ndarray, h: float) -> float:
    """Composite Simpson rule for samples y (at least 3) spaced h apart.

    An even sample count leaves one interval over, closed with the same
    third-order end correction (Cartwright) as scipy.integrate.simpson.
    """
    tail = 0.0
    if y.size % 2 == 0:
        tail = h * (5.0 / 12.0 * y[-1] + 2.0 / 3.0 * y[-2] - 1.0 / 12.0 * y[-3])
        y = y[:-1]
    inner = 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum()
    return float(h / 3.0 * (y[0] + inner + y[-1]) + tail)


def _build_diagonal(pot: RadialPotential, grid: np.ndarray, h: float) -> np.ndarray:
    c = pot.singular_strength
    v = _on_grid(pot.evaluate, grid)
    if not np.all(np.isfinite(v)):
        raise SolverError("potential evaluated to a non-finite value on the grid")
    if c > 0.0:
        s = _origin_exponent(c)
        idx = np.arange(1, grid.size + 1, dtype=np.float64)
        cent = ((1.0 + 1.0 / idx) ** (s + 1.0)
                + (1.0 - 1.0 / idx) ** (s + 1.0) - 2.0) / (h * h)
        v = v - c / (grid * grid) + cent
    return 2.0 / (h * h) + v


def _lowest_lambda(pot: RadialPotential, q_max: float, nn: int,
                   lam_tol: float, vector: bool = False):
    """Lowest eigenvalue of the u-form matrix on an nn-interval grid.

    Bisection stops at absolute width lam_tol.  With vector=True, also
    returns the grid and the eigenvector, signed positive.
    """
    h = q_max / nn
    grid = h * np.arange(1, nn)
    diag = _build_diagonal(pot, grid, h)
    off = np.full(nn - 2, -1.0 / (h * h))
    try:
        out = eigh_tridiagonal(diag, off, eigvals_only=not vector, select="i",
                               select_range=(0, 0), tol=lam_tol)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"tridiagonal eigensolve failed: {exc}") from exc
    if not vector:
        return float(out[0])
    lam, vecs = out
    u = vecs[:, 0]
    if u[int(np.argmax(np.abs(u)))] < 0.0:
        u = -u
    return float(lam[0]), grid, u


def ground_state(pot: RadialPotential, q_max: float = 10.0, n: int = 4000,
                 tol: float = 1e-7) -> EigenResult:
    """Lowest eigenvalue and nodeless eigenfunction of the radial operator.

    Solves on three nested grids (n/2, n, 2n intervals) and Richardson-
    extrapolates; raises SolverError when the internal refinement comparison
    cannot certify an absolute eigenvalue error <= tol.
    """
    if pot.singular_strength < -0.25:
        raise ValueError(
            "singular_strength < -1/4: operator unbounded below")
    if not (q_max > 0.0) or not math.isfinite(q_max):
        raise ValueError("q_max must be positive and finite")
    if n < 200:
        raise ValueError("n must be at least 200")
    if not (tol > 0.0):
        raise ValueError("tol must be positive")

    n2 = 2 * (n // 2)  # even so the n/2 grid is an integer count
    lam_tol = max(2e-2 * tol, 1e-12)

    lam_half = _lowest_lambda(pot, q_max, n2 // 2, lam_tol)
    lam_base = _lowest_lambda(pot, q_max, n2, lam_tol)
    lam_fine, grid, u = _lowest_lambda(pot, q_max, 2 * n2, lam_tol, vector=True)

    g_half, g_base, g_fine = 0.5 * lam_half, 0.5 * lam_base, 0.5 * lam_fine
    extrap_coarse = (4.0 * g_base - g_half) / 3.0
    extrap = (4.0 * g_fine - g_base) / 3.0
    # Both extrapolants carry O(h^4) errors in roughly 16:1 ratio; their gap
    # over 8 bounds the finer one with a 2x margin for imperfect order.
    # The bisection width enters additively.
    est_error = abs(extrap - extrap_coarse) / 8.0 + 0.5 * lam_tol
    if est_error > tol:
        raise SolverError(
            f"grid-refinement comparison estimates error {est_error:.3e} "
            f"> tol {tol:.3e}; increase n or q_max")

    # Normalize int u^2 dq = 1: exact power head on [0,h], Simpson beyond.
    h = float(grid[0])  # the grid is h, 2h, ..., q_max - h
    p = _origin_exponent(max(pot.singular_strength, 0.0)) + 1.0
    u_sq = u * u
    head = u_sq[0] * h / (2.0 * p + 1.0)
    body = _simpson(np.append(u_sq, 0.0), h)
    norm_sq = head + body
    if not (norm_sq > 0.0) or not math.isfinite(norm_sq):
        raise SolverError("eigenfunction normalization integral is invalid")
    u = u / math.sqrt(norm_sq)

    return EigenResult(
        gamma=extrap,
        grid=grid,
        f_values=u / grid,
        diagnostics=EigenDiagnostics(grid_size=grid.size, q_max=q_max,
                                     est_error=est_error),
    )


def moment(res: EigenResult, weight: Callable) -> float:
    """Integral of weight(q) f(q)^2 q^2 dq for a normalized EigenResult.

    weight is called once, with the grid array, and must return an array of
    the grid's shape (else ValueError).  Its power weight ~ q^beta at the
    origin is read from the first two grid points; weights more singular
    than 1/q^2 there are rejected.
    """
    grid = res.grid
    u_sq = (res.f_values * grid) ** 2
    w = _on_grid(weight, grid)
    if not np.all(np.isfinite(w)):
        raise ValueError("weight evaluated to a non-finite value on the grid")

    h = float(grid[0])
    # Head exponents from q = h, 2h: u^2 ~ q^{2p}, weight ~ q^beta on [0, h].
    beta = 0.0
    if w[0] != 0.0 and w[1] != 0.0:
        beta = math.log(abs(w[1] / w[0])) / math.log(2.0)
    if beta < -2.0 - 1e-6:
        raise ValueError("weight singular stronger than 1/q^2")
    p = math.log(max(u_sq[1], 1e-300) / max(u_sq[0], 1e-300)) / (2.0 * math.log(2.0))
    p = min(max(p, 0.25), 4.0)
    combined = beta + 2.0 * p + 1.0
    if combined <= 0.1:
        raise ValueError("weight too singular against this eigenfunction")
    head = w[0] * u_sq[0] * h / combined
    body = _simpson(np.append(w * u_sq, 0.0), h)
    return float(head + body)
