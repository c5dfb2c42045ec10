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
((N-1)/2)^2 matrix with Dirichlet conditions at q = +-Q.  The quoted error
estimate is the measured gap to a second solve at N - 32, plus the
rounding measured by solving the transposed matrix.  Normalization and
moments use Clenshaw-Curtis weights on the mapped nodes.

There are two paths through the same arithmetic.  lowest_eigenvalue takes
every eigenvalue from np.linalg.eigvals and forms no eigenvector;
ground_state takes the degree-N eigenvalue and its eigenvector from
np.linalg.eig, which gives the same eigenvalue to the last bit, and
normalizes the eigenfunction.

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
    Chebyshev degrees N solved and gammas their eigenvalues; est_error is
    their gap plus the fine solve's rounding."""

    grid_size: int
    q_max: float
    est_error: float
    resolutions: tuple[int, int]
    gammas: tuple[float, float]


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


def _lowest(block: np.ndarray) -> float:
    return float(np.min(np.linalg.eigvals(block).real))


def _solve(pot: RadialPotential, q_max: float, n: int, tol: float,
           vector: bool):
    """Shared core of lowest_eigenvalue and ground_state.

    Returns gamma, est_error and the coarse eigenvalue; with vector=True
    also the degree-n nodes, the eigenvector g on them (signed positive)
    and their weights, else None.
    """
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
        coarse = 0.5 * _lowest(
            _collocate(pot, s, q_max, n - _COARSE_STEP)[0])
        block, grid, weights = _collocate(pot, s, q_max, n)
        if vector:
            lam, vecs = np.linalg.eig(block)
        else:
            lam = np.linalg.eigvals(block)
        # the same eigenvalue from the transpose differs only by rounding
        lam_t = _lowest(block.T)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"collocation eigensolve failed: {exc}") from exc
    i = int(np.argmin(lam.real))
    lam_min = float(lam[i].real)
    gamma = 0.5 * lam_min
    est_error = abs(gamma - coarse) + 0.5 * abs(lam_min - lam_t)
    if not est_error <= tol:
        raise SolverError(
            f"resolutions {n - _COARSE_STEP} and {n} differ by "
            f"{est_error:.3e} > tol {tol:.3e}")
    if not vector:
        return gamma, est_error, coarse, None
    g = vecs[:, i].real
    if g[int(np.argmax(np.abs(g)))] < 0.0:
        g = -g
    return gamma, est_error, coarse, (grid, g, weights)


def lowest_eigenvalue(pot: RadialPotential, q_max: float = 10.0,
                      n: int = 127, tol: float = 1e-7) -> tuple[float, float]:
    """(gamma, est_error) of ground_state, bit for bit, without forming an
    eigenvector; raises as ground_state does."""
    gamma, est_error, _, _ = _solve(pot, q_max, n, tol, vector=False)
    return gamma, est_error


def ground_state(pot: RadialPotential, q_max: float = 10.0, n: int = 127,
                 tol: float = 1e-7) -> EigenResult:
    """Lowest eigenvalue and nodeless eigenfunction of the radial operator.

    Collocates at Chebyshev degree n (odd, >= 63) and n - 32; raises
    SolverError when est_error, their gap plus the rounding, exceeds tol.
    """
    gamma, est_error, coarse, (grid, g, weights) = _solve(
        pot, q_max, n, tol, vector=True)
    f = grid ** _origin_exponent(pot.singular_strength) * g
    norm_sq = float(np.sum(weights * (f * grid) ** 2))
    if not (norm_sq > 0.0) or not math.isfinite(norm_sq):
        raise SolverError("eigenfunction normalization integral is invalid")

    return EigenResult(
        gamma=gamma,
        grid=grid,
        f_values=f / math.sqrt(norm_sq),
        weights=weights,
        diagnostics=EigenDiagnostics(
            grid_size=grid.size, q_max=q_max, est_error=est_error,
            resolutions=(n - _COARSE_STEP, n), gammas=(coarse, gamma)),
    )


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
