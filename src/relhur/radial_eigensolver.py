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
((N-1)/2)^2 matrix with Dirichlet conditions at q = +-Q.

No QR step is taken.  For c >= -1/4 Hardy's inequality makes
-Delta + c/q^2 >= 0, so the spectrum lies above min v, v = V - c/q^2.
Inverse iteration at that shift, then two-sided Rayleigh-quotient iteration
(Parlett, Math. Comp. 28, 1974), settles on the lowest eigenvalue of the
degree N - 32 block, and two-sided inverse iteration at that value refines
the degree-N one.  The ground state is the only eigenfunction without a
node, so a refined vector that changes sign is an error.  The error
estimate is the gap between the two values plus the measured rounding.  A
sequence of potentials is solved as (k, m, m) stacks, one stacked inverse
per shift; a potential alone is the batch of one, bit for bit.  Only the
eigenvalue and its error estimate are returned.

The fold's rows of the differentiation matrices are built elementwise,
once per degree, and cached read-only.  The default blocks (47 and 63
rows) stay below the sizes at which OpenBLAS threads its level-2 kernels,
so a solve does not wait on BLAS threads on a busy machine.  Potentials
are evaluated once on the whole node array and must return an array of its
shape.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

__all__ = ["RadialPotential", "SolverError", "lowest_eigenvalues"]

_COARSE_STEP = 32   # the coarse solve has degree N - 32
_B_MAX = 20.0       # cap on the map's stretch b
_BATCH = 16         # potentials per stack: bounds the memory of a sweep
_MAX_STEPS = 30     # Rayleigh-quotient steps before the coarse solve fails
_SETTLED = 1e-12    # relative move below which the quotient has settled
_NODE_NOISE = 1e-3  # sign changes below this share of the peak are rounding
_Q_MAX = 10.0       # the Dirichlet end of the grid


class SolverError(ArithmeticError):
    """Eigenvalue iteration failed to meet its tolerance contract; index is
    the failing potential's position in the call, which lowest_eigenvalues
    always sets."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


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


@functools.lru_cache(maxsize=8)  # degrees n and n - 32 of a few n
def _cheb(n: int):
    """What the fold reads of degree n (odd) on [-1, 1]: the points
    cos(j pi/n) at the positive nodes j = (n-1)/2, ..., 1 and the folded
    rows d[:, j] + d[:, n - j] of the first and second differentiation
    matrices there; read-only, as the cache shares them.

    The matrices follow Weideman & Reddy (ACM TOMS 26, 2000) elementwise,
    with diagonals from the negative-sum trick.
    """
    j = np.arange(n + 1)
    x = np.cos(np.pi * j / n)
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
    out = x[pos], d1[:, pos] + d1[:, n - pos], d2[:, pos] + d2[:, n - pos]
    for a in out:
        a.flags.writeable = False
    return out


def _collocate(pots: Sequence[RadialPotential], n: int):
    """The folded degree-n collocation matrices (twice the operator) of
    pots as a (k, m, m) stack, and the regular part v = V - c/q^2 of each
    potential at its ascending positive nodes as a (k, m) array."""
    x, d1, d2 = _cheb(n)
    # fields read as Python floats, so a float16 or float32 field does not
    # set the precision of s or of the stretch b
    c = np.array([[float(pot.singular_strength)] for pot in pots])
    # a c/q^2 core takes stretch b >= 8, which clusters nodes at the
    # origin; the frozen gamma values depend on that choice
    b = np.array([[min(max(math.asinh(float(pot.origin_scale) * _Q_MAX),
                           8.0 if pot.singular_strength else 1e-8), _B_MAX)]
                  for pot in pots])
    sinh_b = np.array([[math.sinh(bi)] for bi in b[:, 0]])
    q = _Q_MAX * np.sinh(b * x) / sinh_b
    dq = _Q_MAX * b * np.cosh(b * x) / sinh_b             # dq/dx
    v = [np.asarray(pot.evaluate(qi), dtype=np.float64)
         for pot, qi in zip(pots, q)]
    for vi in v:
        if vi.shape != x.shape:
            raise ValueError(f"potential returned shape {vi.shape} on "
                             f"{x.size} nodes")
    v = np.array(v) - c / (q * q)
    finite = np.isfinite(v).all(axis=1)
    if not finite.all():
        raise SolverError("potential evaluated to a non-finite value on the "
                          "grid", int(np.argmin(finite)))
    # d/dq = D/q' and d2/dq2 = D2/q'^2 - (q''/q'^3) D, with q'' = b^2 q;
    # f = q^s g, where s(s+1) = c
    s = 0.5 * (-1.0 + np.sqrt(1.0 + 4.0 * c))
    first = (b * b * q / dq - 2.0 * (s + 1.0) * dq / q) / (dq * dq)
    blocks = first[:, :, None] * d1
    blocks -= d2 / (dq * dq)[:, :, None]
    diag = np.arange(x.size)
    blocks[:, diag, diag] += v
    return blocks, v


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (k, m) stacks of vectors."""
    return (u[:, None, :] @ v[:, :, None])[:, 0, 0]


def _refine(blocks: np.ndarray, shift: np.ndarray, x: np.ndarray,
            y: np.ndarray, squarings: int):
    """(rho, x, y, Ax) for each block's eigenvalue nearest its shift:
    inverse iteration on both sides from the rows of x and y with the
    2^squarings power of one inverse of block - shift I (rescaled after
    each squaring, so that no power overflows), then the unit vectors x, y
    and their two-sided Rayleigh quotient rho = y.Ax / y.x.  Each stacked
    operation acts on one block at a time, so a block's bits do not depend
    on the others in its stack."""
    diag = np.arange(blocks.shape[1])
    power = blocks.copy()
    power[:, diag, diag] -= shift[:, None]
    power = np.linalg.inv(power)
    for _ in range(squarings):
        power = power @ power
        power /= np.abs(power).max(axis=(1, 2), keepdims=True)
    x, y = (power @ x[:, :, None])[:, :, 0], (y[:, None, :] @ power)[:, 0, :]
    x, y = x / np.sqrt(_dot(x, x))[:, None], y / np.sqrt(_dot(y, y))[:, None]
    ax = (blocks @ x[:, :, None])[:, :, 0]
    return _dot(y, ax) / _dot(y, x), x, y, ax


def _settle(blocks: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """The lowest eigenvalue of each block, for shifts below the spectrum:
    32 steps of inverse iteration at the shift from vectors of ones, then
    two-sided Rayleigh-quotient iteration, one new inverse per step at the
    last quotient, until the quotient moves by less than
    _SETTLED (|rho| + |shift|).  The shift lies below the lowest
    eigenvalue, so that scale is positive even where rho is 0."""
    scale, ones = np.abs(shift), np.ones(blocks.shape[:2])
    shift, x, y, _ = _refine(blocks, shift, ones, ones, 5)
    todo = np.arange(len(blocks))
    for _ in range(_MAX_STEPS):
        rho, x[todo], y[todo], _ = _refine(blocks[todo], shift[todo], x[todo],
                                           y[todo], 0)
        moving = (np.abs(rho - shift[todo])
                  > _SETTLED * (np.abs(rho) + scale[todo]))
        shift[todo] = rho
        todo = todo[moving]
        if not todo.size:
            return shift
    raise SolverError(f"Rayleigh quotient still moving after {_MAX_STEPS} "
                      "steps", int(todo[0]))


def lowest_eigenvalues(pots: Sequence[RadialPotential], n: int = 127,
                       tol: float = 1e-7) -> list[tuple[float, float]]:
    """(gamma, est_error) of the radial operator's lowest eigenvalue for
    each potential in pots.

    Collocates at Chebyshev degree n (an odd integer, >= 63) and n - 32;
    est_error is the gap between the two refined eigenvalues plus the
    measured rounding of the degree-n one.  Raises SolverError, with index
    naming the failing potential, when est_error exceeds tol or the refined
    vector has a node.  Potentials are solved _BATCH at a time as stacks,
    which bounds the memory of a long sweep; a batch of one takes the same
    arithmetic, bit for bit.
    """
    if not all(-0.25 <= pot.singular_strength < math.inf for pot in pots):
        raise ValueError("singular_strength must be finite and >= -1/4: "
                         "the operator is unbounded below")
    if not all(pot.origin_scale >= 0.0 for pot in pots):
        raise ValueError("origin_scale must be non-negative")
    if not isinstance(n, (int, np.integer)) or n % 2 == 0 or n < 63:
        raise ValueError("n must be an odd integer and at least 63")
    if not (tol > 0.0):
        raise ValueError("tol must be positive")
    out = []
    for start in range(0, len(pots), _BATCH):
        batch = pots[start:start + _BATCH]
        try:
            blocks, v = _collocate(batch, n - _COARSE_STEP)
            # Hardy: -Delta + c/q^2 >= 0 for c >= -1/4, so the spectrum
            # lies above min v, where the iteration starts
            coarse = _settle(blocks, np.min(v, axis=1))
            blocks, _ = _collocate(batch, n)
            ones = np.ones(blocks.shape[:2])
            fine, g, y, ag = _refine(blocks, coarse, ones, ones, 2)
        except np.linalg.LinAlgError as exc:
            if len(batch) == 1:
                raise SolverError(f"collocation eigensolve failed: {exc}",
                                  start) from exc
            # a stacked inverse raises for the whole stack: solve the batch
            # one potential at a time, bit for bit the same, to name the
            # failing one
            for i in range(len(batch)):
                try:
                    out += lowest_eigenvalues(batch[i:i + 1], n, tol)
                except SolverError as one:
                    one.index = start + i
                    raise
            continue
        except SolverError as exc:
            exc.index += start
            raise
        # a unit residual r makes rho an exact eigenvalue of a matrix |r|
        # from the block, of condition 1/|y.x|: rounding takes the smaller
        # of the two; the right one grows with the block's norm (3.5e-6 at
        # d = 1e5, degree 127)
        right = ag - fine[:, None] * g
        left = (y[:, None, :] @ blocks)[:, 0, :] - fine[:, None] * y
        rounding = np.sqrt(np.minimum(_dot(right, right), _dot(left, left)))
        gamma, coarse = 0.5 * fine, 0.5 * coarse
        rounding = 0.5 * rounding / np.abs(_dot(y, g))
        est_error = np.abs(gamma - coarse) + rounding
        peak = g[np.arange(len(g)), np.argmax(np.abs(g), axis=1)]
        g *= np.sign(peak)[:, None]
        # the ground state is the only eigenfunction without a node
        nodes = np.min(g, axis=1) < -_NODE_NOISE * np.abs(peak)
        for i in range(len(batch)):
            if nodes[i]:
                raise SolverError("the eigenvector changes sign: the "
                                  "iteration settled on an excited state",
                                  start + i)
            if not est_error[i] <= tol:
                raise SolverError(f"resolutions {n - _COARSE_STEP} and {n} "
                                  f"differ by {est_error[i]:.3e} > tol "
                                  f"{tol:.3e}", start + i)
        out += zip(gamma.tolist(), est_error.tolist())
    return out
