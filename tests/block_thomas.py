"""Block-Thomas elimination: the reference the cyclic-reduction solver is tested against.

Forward elimination folds each sub-block into the pivot block,

    D'_j = D_j - L_j (D'_{j-1})^{-1} R_{j-1},

with scipy's dense LU factorisation (partial pivoting) inside each n x n
block; back substitution then runs from the right boundary.  One Python
iteration per block row, so it is slow, but it shares no code with the
library's solver.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from shishkin import SingularBlockError
from shishkin.solver import PIVOT_FLOOR


def block_thomas(system) -> np.ndarray:
    """Solution values (N+1, n) of the assembled system."""
    rhs, left, right = system.rhs, system.boundary_left, system.boundary_right
    rows = system.num_intervals - 1
    n = system.n
    sub_blocks, super_blocks = system.sub_blocks, system.super_blocks
    factors = []
    rhs_t = np.empty((rows, n))
    prev_rhs = left
    for k in range(rows):
        sub = sub_blocks[k]
        if k == 0:
            pivot_block = system.diag_blocks[0].copy()
            b = rhs[0] - sub @ prev_rhs
        else:
            # carry = (D'_{k-1})^{-1} [R_{k-1} | b_{k-1}]
            carry = lu_solve(factors[k - 1], np.column_stack([super_blocks[k - 1], prev_rhs]))
            pivot_block = system.diag_blocks[k] - sub @ carry[:, :n]
            b = rhs[k] - sub @ carry[:, n]
        lu, piv = lu_factor(pivot_block)
        smallest = float(np.min(np.abs(np.diag(lu))))
        if smallest < PIVOT_FLOOR:
            raise SingularBlockError(k + 1, smallest)
        factors.append((lu, piv))
        rhs_t[k] = b
        prev_rhs = b
    values = np.empty((system.num_intervals + 1, n))
    values[0] = left
    values[-1] = right
    for k in range(rows - 1, -1, -1):
        values[k + 1] = lu_solve(factors[k], rhs_t[k] - super_blocks[k] @ values[k + 2])
    return values
