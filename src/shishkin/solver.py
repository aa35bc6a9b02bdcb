"""Block-tridiagonal solve by block cyclic reduction.

The interior rows k = 0..N-2 read L_k U_{k-1} + D_k U_k + R_k U_{k+1} = b_k,
with the Dirichlet values standing in for U_{-1} and U_{N-1}.  One level of
cyclic reduction eliminates every even row at once: each pivot block D_e
gets a dense LU factorisation with partial pivoting inside the block (never
across blocks), and each odd row k, between the even rows e = k-1 and
k+1, becomes the Schur complement

    D'_k = D_k - L_k D_{k-1}^{-1} R_{k-1} - R_k D_{k+1}^{-1} L_{k+1},
    L'_k = -L_k D_{k-1}^{-1} L_{k-1},   R'_k = -R_k D_{k+1}^{-1} R_{k+1},

a block-tridiagonal system of half the size with the same Dirichlet
neighbours.  With N a power of two there are 2^p - 1 rows and p levels
(Heller 1976, SIAM J. Numer. Anal. 13; Golub & Van Loan, section 4.5).
The coupling of the assembled system is diagonal and is used as such on
the first level; Schur complements couple through full blocks.  Every
level is one batched factorisation over its even rows, so Python loops
run only over the levels and over the n columns of a block.

The admissible problems give M-matrix structure, under which the
reduction is stable (block diagonal dominance is inherited by every
level).  A pivot block whose smallest LU pivot falls below PIVOT_FLOOR
raises SingularBlockError naming the mesh node of that row: a row of the
assembled system, or the deeper-level row that its Schur complement
became.  Every solve certifies itself by recording the max-norm residual
on the result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretize import DiscreteSystem, apply_operator
from .mesh import Mesh

__all__ = [
    "SolutionGrid",
    "SingularBlockError",
    "PIVOT_FLOOR",
    "RESIDUAL_WARN_FACTOR",
    "solve",
    "residual_norm",
]

PIVOT_FLOOR = 1e-300
RESIDUAL_WARN_FACTOR = 1e-6


class SingularBlockError(RuntimeError):
    """A pivot block became numerically singular during elimination."""

    def __init__(self, node: int, pivot: float):
        self.node = node
        self.pivot = pivot
        super().__init__(
            "numerically singular pivot block at node %d (smallest pivot %.3g)" % (node, pivot)
        )


@dataclass(frozen=True, eq=False)
class SolutionGrid:
    """Solution values U_i(x_j), with the residual recorded at solve time.

    ill_conditioned is set when the residual exceeded the warning threshold
    relative to the problem scale; the values are still returned.
    """

    values: np.ndarray  # (N+1, n)
    mesh: Mesh
    residual_norm: float
    ill_conditioned: bool = False

    def __post_init__(self):
        self.values.setflags(write=False)


def _times(coupling: np.ndarray, x: np.ndarray) -> np.ndarray:
    """coupling_k @ x_k for every row k; x is (k, n, q).

    A coupling is diagonal, (k, n), on the first level and full, (k, n, n),
    on the deeper ones.
    """
    return coupling[:, :, None] * x if coupling.ndim == 2 else coupling @ x


def _lu(blocks: np.ndarray, level: int) -> tuple[np.ndarray, np.ndarray]:
    """Batched LU with partial pivoting inside each block: (factors, row order).

    Raises SingularBlockError for the first block whose smallest pivot is
    below PIVOT_FLOOR; block i stands for the level's row 2i, mesh node
    (2i + 1) * 2^level.
    """
    a = blocks.copy()
    count, n, _ = a.shape
    order = np.broadcast_to(np.arange(n), (count, n)).copy()
    rows = np.arange(count)
    smallest = np.full(count, np.inf)
    for c in range(n):
        p = c + np.argmax(np.abs(a[:, c:, c]), axis=1)
        a[rows, c], a[rows, p] = a[rows, p], a[rows, c]
        order[rows, c], order[rows, p] = order[rows, p], order[rows, c]
        pivot = a[:, c, c]
        smallest = np.minimum(smallest, np.abs(pivot))
        # a failed block is reported below; dividing by 1 keeps its entries finite
        a[:, c + 1 :, c] /= np.where(smallest >= PIVOT_FLOOR, pivot, 1.0)[:, None]
        a[:, c + 1 :, c + 1 :] -= a[:, c + 1 :, c, None] * a[:, c, None, c + 1 :]
    failed = np.flatnonzero(~(smallest >= PIVOT_FLOOR))
    if failed.size:
        i = int(failed[0])
        raise SingularBlockError((2 * i + 1) << level, float(smallest[i]))
    return a, order


def _lu_solve(lu: np.ndarray, order: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve block_i x_i = b_i for every i from the factors of _lu; b is (k, n, q)."""
    n = lu.shape[1]
    x = np.take_along_axis(b, order[:, :, None], axis=1)
    for c in range(n - 1):
        x[:, c + 1 :] -= lu[:, c + 1 :, c, None] * x[:, c, None]
    for c in range(n - 1, -1, -1):
        x[:, c] /= lu[:, c, c, None]
        x[:, :c] -= lu[:, :c, c, None] * x[:, c, None]
    return x


def _factor(system: DiscreteSystem) -> list[tuple]:
    """Cyclic reduction of the matrix: (lower, upper, lu, order) per level.

    lower and upper are the level's couplings of every row; lu and order
    factor the pivot blocks of its even rows.  A level with m rows has
    (m + 1) // 2 even rows and hands m // 2 odd rows to the next; when m
    is even the last odd row keeps the right boundary as its neighbour.
    """
    levels = []
    lower, diag, upper = system.sub_diag, system.diag_blocks, system.super_diag
    n = system.n
    while diag.shape[0]:
        lu, order = _lu(diag[0::2], len(levels))
        levels.append((lower, upper, lu, order))
        even = lu.shape[0]
        # D_e^{-1} [L_e | R_e] for every even row e
        coupled = np.concatenate([_times(c[0::2], np.eye(n)) for c in (lower, upper)], axis=2)
        solved = _lu_solve(lu, order, coupled)
        x_low, x_up = solved[:, :, :n], solved[:, :, n:]
        odd_lower, odd_upper = lower[1::2], upper[1::2]
        kept = odd_lower.shape[0]
        diag = diag[1::2] - _times(odd_lower, x_up[:kept])
        diag[: even - 1] -= _times(odd_upper[: even - 1], x_low[1:])
        new_lower = -_times(odd_lower, x_low[:kept])
        new_upper = -_times(odd_upper[: even - 1], x_up[1:])
        if kept == even:  # the last odd row's right neighbour is the boundary
            new_upper = np.concatenate([new_upper, _times(odd_upper[-1:], np.eye(n))])
        lower, upper = new_lower, new_upper
    return levels


def _solve_factored(levels: list[tuple], rhs: np.ndarray,
                    left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Values (N+1, n) for interior right-hand side rhs and the boundary values."""
    reduced = [rhs[:, :, None]]
    for lower, upper, lu, order in levels[:-1]:
        b = reduced[-1]
        z = _lu_solve(lu, order, b[0::2])
        odd = b[1::2] - _times(lower[1::2], z[: b.shape[0] // 2])
        odd[: lu.shape[0] - 1] -= _times(upper[1::2][: lu.shape[0] - 1], z[1:])
        reduced.append(odd)
    # a level's rows between the boundary values; the deepest level's odd rows are none
    padded = np.stack([left, right])[:, :, None]
    for (lower, upper, lu, order), b in zip(reversed(levels), reversed(reduced)):
        odd = padded[1:-1]
        padded = np.empty((b.shape[0] + 2,) + b.shape[1:])
        padded[0, :, 0] = left
        padded[-1, :, 0] = right
        padded[2:-1:2] = odd
        padded[1:-1:2] = _lu_solve(lu, order, b[0::2] - _times(lower[0::2], padded[0:-2:2])
                                   - _times(upper[0::2], padded[2::2]))
    return padded[:, :, 0]


def solve(system: DiscreteSystem, refine_once: bool = False) -> SolutionGrid:
    """Solve the assembled system; optionally apply one refinement step.

    Deterministic: identical systems produce bit-identical grids on one
    platform.  Raises SingularBlockError when a pivot block degenerates;
    flags (but does not reject) results whose residual exceeds
    RESIDUAL_WARN_FACTOR times the problem scale.  The refinement step
    reuses the factorisation.
    """
    levels = _factor(system)
    values = _solve_factored(levels, system.rhs, system.boundary_left, system.boundary_right)
    if refine_once:
        r = apply_operator(system, values)
        values = values + _solve_factored(levels, -r[1:-1], -r[0], -r[-1])
    del levels  # free the factors before the residual's temporaries
    res = float(np.max(np.abs(apply_operator(system, values))))
    return SolutionGrid(
        values=values,
        mesh=system.mesh,
        residual_norm=res,
        ill_conditioned=res > RESIDUAL_WARN_FACTOR * system.scale,
    )


def residual_norm(system: DiscreteSystem, grid) -> float:
    """Max-norm of the residual of grid against the system."""
    return float(np.max(np.abs(apply_operator(system, grid))))
