"""Ground-state solver for radial operators (1/2)(-f'' - (2/q)f' + V(q)f) = g f.

Chebyshev collocation after Trefethen, Spectral Methods in MATLAB (SIAM
2000), ch. 11.  With f = q^s g, where s(s+1) = c is the strength of the
potential's c/q^2 core, the operator turns into

    -g'' - (2(s+1)/q) g' + (V - c/q^2) g = 2 g_eig g,

whose solution g is smooth and even in q.  g is collocated on the
Chebyshev-Lobatto points x_j = cos(j pi/N), N odd, mapped to
q = Q sinh(bx)/sinh(b) with b = asinh(Q origin_scale) (capped), which
clusters nodes where the potential varies near the origin.  Odd N puts no
node at q = 0; folding the even extension onto the positive nodes leaves a
((N-1)/2)^2 matrix with Dirichlet conditions at q = +-Q.  Normalization
and moments use Clenshaw-Curtis weights on the mapped nodes.

Each solve makes one LAPACK call, np.linalg.eigvals on the degree N - 32
block, to find the lowest eigenvalue.  Two-sided inverse iteration and the
two-sided Rayleigh quotient (Parlett, Math. Comp. 28, 1974) refine it, and
refine that value again on the degree-N block, removing the ~1e-13 that QR
leaves on these non-normal blocks.  The quoted error estimate is the gap
between the two refined values plus the measured rounding.  Both public
paths share this arithmetic; ground_state normalizes the refined vector.

The fold reads only the rows of the differentiation matrices at the
positive nodes; they are built elementwise, once per degree, and cached
read-only.  The default blocks (47 and 63 rows) stay below the sizes at
which OpenBLAS threads the level-2 kernels inside LAPACK's dgeev, so a
solve does not wait on BLAS threads on a busy machine.  Potentials and
moment weights are evaluated once on the whole node array and must return
an array of its shape.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple

import numpy as np

_COARSE_STEP = 32   # the coarse solve has degree N - 32
_B_MAX = 20.0       # cap on the map's stretch b


class SolverError(RuntimeError):
    """Eigenvalue iteration failed to meet its tolerance contract."""


class RadialPotential(NamedTuple):
    """A radial potential with declared origin behavior.

    evaluate(q) takes an array of q > 0 and returns V of the same shape,
    finite everywhere (any other shape raises ValueError); singular_strength
    is the coefficient c of the 1/q^2 term as q -> 0 (0 for regular
    potentials); origin_scale is the inverse width of structure in V near
    the origin, where the solver clusters its nodes (0: none).  V must grow
    like q^2 as q -> infinity, so the ground state is confined and the
    Dirichlet truncation at q_max is harmless.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    singular_strength: float = 0.0
    origin_scale: float = 0.0


class EigenDiagnostics(NamedTuple):
    """grid_size nodes on (0, q_max); resolutions are the coarse and fine
    Chebyshev degrees N solved and gammas their refined eigenvalues;
    est_error is their gap plus rounding, the fine solve's measured one."""

    grid_size: int
    q_max: float
    est_error: float
    resolutions: tuple[int, int]
    gammas: tuple[float, float]
    rounding: float


class EigenResult(NamedTuple):
    """Ground state: eigenvalue gamma and normalized eigenfunction samples.

    f_values holds f on the ascending nodes in grid, normalized so that
    the integral of f^2 q^2 dq over (0, infinity) equals 1; sum(weights * F)
    over grid approximates the integral of F over (0, q_max).
    """

    gamma: float
    grid: np.ndarray
    f_values: np.ndarray
    weights: np.ndarray
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


@functools.lru_cache(maxsize=8)  # degrees n and n - 32 of a few n
def _cheb(n: int):
    """What the fold reads of degree n (odd) on [-1, 1]: the points
    cos(j pi/n) at the positive nodes j = (n-1)/2, ..., 1, the rows of the
    first and second differentiation matrices there, and their
    Clenshaw-Curtis weights; read-only, as the cache shares them.

    The matrices follow Weideman & Reddy (ACM TOMS 26, 2000) elementwise,
    with diagonals from the negative-sum trick.
    """
    j = np.arange(n + 1)
    theta = np.pi * j / n
    x = np.cos(theta)
    c = np.where((j == 0) | (j == n), 2.0, 1.0) * (-1.0) ** j
    pos = np.arange((n - 1) // 2, 0, -1)                   # q ascending
    diag = (np.arange(pos.size), pos)
    ratio = c[pos, None] / c[None, :]
    inv_dx = 1.0 / (x[pos, None] - x[None, :] + (j == pos[:, None]))
    inv_dx[diag] = 0.0
    d1 = ratio * inv_dx
    d1[diag] = -d1.sum(axis=1)
    d2 = 2.0 * inv_dx * (ratio * d1[diag][:, None] - d1)
    d2[diag] = 0.0
    d2[diag] = -d2.sum(axis=1)
    k = np.arange(1, (n - 1) // 2 + 1)
    w = 2.0 / n * (1.0 - np.sum(2.0 * np.cos(2.0 * np.outer(theta[pos], k))
                                / (4.0 * k * k - 1.0), axis=1))
    x = x[pos]
    for a in (x, d1, d2, w):
        a.flags.writeable = False
    return x, d1, d2, w


def _collocate(pot: RadialPotential, s: float, q_max: float, n: int):
    """The folded degree-n collocation matrix (twice the operator), its
    ascending positive nodes and their quadrature weights on (0, q_max)."""
    x, d1, d2, w = _cheb(n)
    # a c/q^2 core leaves f^2 q^2 = q^(2s+2) g^2 rough at q = 0, which
    # Clenshaw-Curtis resolves poorly; stretch b >= 8 shrinks that region
    b_min = 8.0 if pot.singular_strength else 1e-8
    b = min(max(math.asinh(pot.origin_scale * q_max), b_min), _B_MAX)
    q = q_max * np.sinh(b * x) / math.sinh(b)
    dq = q_max * b * np.cosh(b * x) / math.sinh(b)        # dq/dx
    v = _on_grid(pot.evaluate, q) - pot.singular_strength / (q * q)
    if not np.all(np.isfinite(v)):
        raise SolverError("potential evaluated to a non-finite value on the grid")
    # d/dq = D/q' and d2/dq2 = D2/q'^2 - (q''/q'^3) D, with q'' = b^2 q
    first = (b * b * q / dq - 2.0 * (s + 1.0) * dq / q) / (dq * dq)
    op = -d2 / (dq * dq)[:, None] + first[:, None] * d1
    pos = np.arange((n - 1) // 2, 0, -1)
    block = op[:, pos] + op[:, n - pos]
    block[np.diag_indices_from(block)] += v
    return block, q, w * dq


def _refine(block: np.ndarray, shift: float):
    """(rho, rounding, x) for block's eigenvalue nearest shift: three
    inverse-iteration steps on both sides from ones, on one inverse of
    block - shift I, then rho = y.Ax / y.x with x, y unit vectors.  A unit
    residual r makes rho an exact eigenvalue of a matrix |r| from block, of
    condition 1/|y.x|: rounding takes the smaller of the two.  The right
    one grows with the block's norm (3.5e-6 at d = 1e5, degree 127)."""
    inv = np.linalg.inv(block - shift * np.eye(len(block)))
    x = y = np.ones(len(block))
    for _ in range(3):
        x = inv @ x
        x /= np.linalg.norm(x)
        y = y @ inv
        y /= np.linalg.norm(y)
    ax, ya, yx = block @ x, y @ block, float(y @ x)
    rho = float(y @ ax) / yx
    residual = min(np.linalg.norm(ax - rho * x), np.linalg.norm(ya - rho * y))
    return rho, float(residual) / abs(yx), x


def _solve(pot: RadialPotential, q_max: float, n: int, tol: float):
    """Shared core of lowest_eigenvalue and ground_state: gamma, the
    degree-n nodes, the eigenvector g on them (signed positive), their
    weights and the diagnostics."""
    if pot.singular_strength < -0.25:
        raise ValueError(
            "singular_strength < -1/4: operator unbounded below")
    if not (q_max > 0.0) or not math.isfinite(q_max):
        raise ValueError("q_max must be positive and finite")
    if not (pot.origin_scale >= 0.0):
        raise ValueError("origin_scale must be non-negative")
    if n % 2 == 0 or n < 63:
        raise ValueError("n must be odd and at least 63")
    if not (tol > 0.0):
        raise ValueError("tol must be positive")

    s = _origin_exponent(pot.singular_strength)
    try:
        block = _collocate(pot, s, q_max, n - _COARSE_STEP)[0]
        shift = float(np.min(np.linalg.eigvals(block).real))
        coarse = _refine(block, shift)[0]
        block, grid, weights = _collocate(pot, s, q_max, n)
        fine, rounding, g = _refine(block, coarse)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"collocation eigensolve failed: {exc}") from exc
    gamma, coarse, rounding = 0.5 * fine, 0.5 * coarse, 0.5 * rounding
    est_error = abs(gamma - coarse) + rounding
    if not est_error <= tol:
        raise SolverError(
            f"resolutions {n - _COARSE_STEP} and {n} differ by "
            f"{est_error:.3e} > tol {tol:.3e}")
    if g[int(np.argmax(np.abs(g)))] < 0.0:
        g = -g
    return gamma, grid, g, weights, EigenDiagnostics(
        grid_size=grid.size, q_max=q_max, est_error=est_error,
        resolutions=(n - _COARSE_STEP, n), gammas=(coarse, gamma),
        rounding=rounding)


def lowest_eigenvalue(pot: RadialPotential, q_max: float = 10.0,
                      n: int = 127, tol: float = 1e-7) -> tuple[float, float]:
    """(gamma, est_error) of ground_state, bit for bit, without its
    normalization; raises as ground_state does."""
    gamma, _, _, _, diag = _solve(pot, q_max, n, tol)
    return gamma, diag.est_error


def ground_state(pot: RadialPotential, q_max: float = 10.0, n: int = 127,
                 tol: float = 1e-7) -> EigenResult:
    """Lowest eigenvalue and nodeless eigenfunction of the radial operator.

    Collocates at Chebyshev degree n (odd, >= 63) and n - 32; raises
    SolverError when est_error, their gap plus the rounding, exceeds tol.
    The eigenfunction is the refined right vector of the degree-n block,
    so no second eigensolve is made for it.
    """
    gamma, grid, g, weights, diag = _solve(pot, q_max, n, tol)
    f = grid ** _origin_exponent(pot.singular_strength) * g
    norm_sq = float(np.sum(weights * (f * grid) ** 2))
    if not (norm_sq > 0.0) or not math.isfinite(norm_sq):
        raise SolverError("eigenfunction normalization integral is invalid")
    return EigenResult(gamma=gamma, grid=grid, f_values=f / math.sqrt(norm_sq),
                       weights=weights, diagnostics=diag)


def moment(res: EigenResult, weight: Callable) -> float:
    """Integral of weight(q) f(q)^2 q^2 dq for a normalized EigenResult.

    weight is called once, with the grid array, and must return an array of
    the grid's shape (else ValueError); the rule is spectrally accurate for
    weights that are smooth functions of q^2.  Weights more singular than 1/q^2
    at the origin, where q^2 weight(q) grows toward q = 0 across the two
    innermost nodes, are rejected.
    """
    grid = res.grid
    w = _on_grid(weight, grid)
    if not np.all(np.isfinite(w)):
        raise ValueError("weight evaluated to a non-finite value on the grid")
    inner = np.abs(w[:2]) * grid[:2] ** 2
    if inner[0] > inner[1] * (1.0 + 1e-6):
        raise ValueError("weight singular stronger than 1/q^2")
    return float(np.sum(res.weights * w * (res.f_values * grid) ** 2))
