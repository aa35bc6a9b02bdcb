"""Central-difference discretisation on an arbitrary (nonuniform) mesh.

At every interior node the second derivative is replaced by the three-point
difference

    d2 U(x_j) = (D+ U(x_j) - D- U(x_j)) / hbar_j,
    D+ U(x_j) = (U(x_{j+1}) - U(x_j)) / h_{j+1},
    D- U(x_j) = (U(x_j) - U(x_{j-1})) / h_j,

with h_j = x_j - x_{j-1} and hbar_j = (h_j + h_{j+1})/2, which is exact on
quadratics for any spacing.  The resulting system is block-tridiagonal with
n x n blocks; Dirichlet data is imposed as explicit identity rows at both
ends so residual checks stay aligned with the node indexing j = 0..N.

Under the admissibility conditions every off-diagonal entry of the matrix
is non-positive and every row strictly diagonally dominant (the structure
that yields the discrete maximum principle); check_sign_structure scans
the assembled entries and reports the minimal dominance margin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exprs import ExprDomainError, evaluate_array, to_source
from .mesh import Mesh
from .problem import CoefficientDomainError, ProblemSpec

__all__ = [
    "DiscreteSystem",
    "SignStructureReport",
    "assemble",
    "apply_operator",
    "check_sign_structure",
    "dump_coordinates",
    "to_dense",
]


@dataclass(frozen=True, eq=False)
class DiscreteSystem:
    """Assembled block-tridiagonal system, immutable after construction.

    Arrays are indexed by interior row: sub_diag[k], diag_blocks[k],
    super_diag[k] and rhs[k] belong to node j = k+1, k = 0..N-2.  The
    coupling to nodes j-1 and j+1 is pure second difference, so it is
    diagonal and stored as such: sub_diag[k, i] and super_diag[k, i] are
    the (i, i) entries of the sub- and super-block of row k, whose
    off-diagonal entries are zero.  The diagonal blocks carry A(x_j) and
    are full.  scale = 1 + ||u(0)|| + ||u(1)|| + ||f|| anchors all
    relative tolerances.
    """

    sub_diag: np.ndarray  # (N-1, n)
    diag_blocks: np.ndarray  # (N-1, n, n)
    super_diag: np.ndarray  # (N-1, n)
    rhs: np.ndarray  # (N-1, n)
    boundary_left: np.ndarray  # (n,)
    boundary_right: np.ndarray  # (n,)
    mesh: Mesh
    scale: float

    def __post_init__(self):
        for name in ("sub_diag", "diag_blocks", "super_diag", "rhs",
                     "boundary_left", "boundary_right"):
            getattr(self, name).setflags(write=False)

    @property
    def n(self) -> int:
        return self.boundary_left.size

    @property
    def num_intervals(self) -> int:
        return self.mesh.num_intervals

    @property
    def sub_blocks(self) -> np.ndarray:
        """Sub-blocks as full (N-1, n, n) matrices, built on each access."""
        return _blocks_of(self.sub_diag)

    @property
    def super_blocks(self) -> np.ndarray:
        """Super-blocks as full (N-1, n, n) matrices, built on each access."""
        return _blocks_of(self.super_diag)


def _blocks_of(diagonals: np.ndarray) -> np.ndarray:
    rows, n = diagonals.shape
    blocks = np.zeros((rows, n, n))
    blocks[:, np.arange(n), np.arange(n)] = diagonals
    blocks.setflags(write=False)
    return blocks


def assemble(spec: ProblemSpec, mesh: Mesh) -> DiscreteSystem:
    """Assemble the discrete operator and right-hand side on a mesh.

    Coefficients and forcing terms are evaluated at every mesh point; a
    domain failure or a non-finite value is reported with the entry name
    and the node location.
    """
    pts = mesh.points
    big_n = mesh.num_intervals
    n = spec.n
    entries = [e for row in spec.a_entries for e in row] + list(spec.f_entries)

    def name(k):
        return "A[%d][%d]" % divmod(k, n) if k < n * n else "f[%d]" % (k - n * n)

    values = np.empty((len(entries), big_n + 1))
    for k, entry in enumerate(entries):
        try:
            values[k] = evaluate_array(entry, pts)
        except ExprDomainError as err:
            raise CoefficientDomainError("%s: %s" % (name(k), err)) from err
    bad = ~np.isfinite(values)
    if bad.any():
        k, j = (int(v) for v in np.argwhere(bad)[0])
        raise CoefficientDomainError("%s: non-finite value %r in '%s' at node %d (x = %r)"
                                     % (name(k), float(values[k, j]), to_source(entries[k]),
                                        j, float(pts[j])))
    a_vals = values[: n * n].reshape(n, n, big_n + 1)
    f_vals = values[n * n :]

    d = np.diff(pts)
    h_lo = d[:-1]  # h_j     for j = 1..N-1
    h_hi = d[1:]  # h_{j+1}
    hbar = 0.5 * (h_lo + h_hi)
    w_lo = 1.0 / (hbar * h_lo)  # weight of U_{j-1}
    w_hi = 1.0 / (hbar * h_hi)  # weight of U_{j+1}

    eps = np.asarray(spec.eps)
    sub = -eps * w_lo[:, None]
    sup = -eps * w_hi[:, None]
    diag = np.transpose(a_vals[:, :, 1:big_n], (2, 0, 1)).copy()
    diag.reshape(big_n - 1, n * n)[:, :: n + 1] += eps * (w_lo + w_hi)[:, None]  # (i, i) entries
    rhs = f_vals[:, 1:big_n].T.copy()

    scale = 1.0 + max(abs(v) for v in spec.u_left) + max(abs(v) for v in spec.u_right)
    scale += float(np.max(np.abs(f_vals)))
    return DiscreteSystem(
        sub_diag=sub,
        diag_blocks=diag,
        super_diag=sup,
        rhs=rhs,
        boundary_left=np.asarray(spec.u_left, dtype=float),
        boundary_right=np.asarray(spec.u_right, dtype=float),
        mesh=mesh,
        scale=scale,
    )


def apply_operator(system: DiscreteSystem, grid) -> np.ndarray:
    """Residual of the discrete equations at a candidate grid function.

    grid is an (N+1, n) array or anything with a .values attribute shaped
    that way.  Interior rows return L U - f; the boundary rows return the
    mismatch against the Dirichlet data.
    """
    values = np.asarray(getattr(grid, "values", grid), dtype=float)
    big_n = system.num_intervals
    n = system.n
    if values.shape != (big_n + 1, n):
        raise ValueError("grid shape %r does not match system (%d, %d)"
                         % (values.shape, big_n + 1, n))
    r = np.empty_like(values)
    r[0] = values[0] - system.boundary_left
    r[-1] = values[-1] - system.boundary_right
    r[1:-1] = (
        system.sub_diag * values[:-2]
        + np.einsum("kij,kj->ki", system.diag_blocks, values[1:-1])
        + system.super_diag * values[2:]
        - system.rhs
    )
    return r


@dataclass(frozen=True)
class SignStructureReport:
    """Scan of the assembled matrix entries.

    Violations are (node j, block row i, block col k, offending value)
    tuples for positive off-diagonal entries.  The dominance margin is the
    minimum over rows of diagonal minus the absolute off-diagonal sum
    (boundary identity rows contribute a margin of 1).
    """

    off_diagonal_ok: bool
    min_dominance_margin: float
    violations: tuple[tuple[int, int, int, float], ...]

    @property
    def ok(self) -> bool:
        return self.off_diagonal_ok and self.min_dominance_margin > 0.0


def check_sign_structure(system: DiscreteSystem) -> SignStructureReport:
    """Verify non-positive off-diagonals and strict row dominance entrywise."""
    n = system.n
    rows = system.num_intervals - 1
    violations = []
    eye = np.eye(n, dtype=bool)
    sub, diag, sup = system.sub_diag, system.diag_blocks, system.super_diag
    for k in range(rows):
        for name, block in (("sub", sub[k]), ("diag", diag[k]), ("super", sup[k])):
            off = block > 0.0 if name != "diag" else (block > 0.0) & ~eye
            # a coupling row holds entries (i, i): its index is (i,)
            for idx in zip(*np.nonzero(off)):
                violations.append((k + 1, int(idx[0]), int(idx[-1]), float(block[idx])))
    diag_entries = diag[:, np.arange(n), np.arange(n)]
    off_sum = np.abs(sub) + np.abs(sup) + np.abs(diag).sum(axis=2) - np.abs(diag_entries)
    margins = diag_entries - off_sum
    min_margin = min(float(margins.min()), 1.0) if rows else 1.0
    return SignStructureReport(
        off_diagonal_ok=not violations,
        min_dominance_margin=min_margin,
        violations=tuple(violations),
    )


def _coordinates(system: DiscreteSystem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, values) of every structurally nonzero matrix entry, row by row.

    Interior row (k+1)*n + i holds its sub-diagonal entry, the n entries of
    diag_blocks[k, i] and its super-diagonal entry, in column order.
    """
    n = system.n
    big_n = system.num_intervals
    k, i = np.indices((big_n - 1, n))
    row = (k + 1) * n + i
    cols = np.concatenate([(row - n)[:, :, None],
                           (k + 1)[:, :, None] * n + np.arange(n),
                           (row + n)[:, :, None]], axis=2)
    vals = np.concatenate([system.sub_diag[:, :, None], system.diag_blocks,
                           system.super_diag[:, :, None]], axis=2)
    rows = np.broadcast_to(row[:, :, None], cols.shape)
    keep = vals != 0.0
    first = np.arange(n)  # the boundary rows are identity rows
    last = big_n * n + first
    return (np.concatenate([first, rows[keep], last]),
            np.concatenate([first, cols[keep], last]),
            np.concatenate([np.ones(n), vals[keep], np.ones(n)]))


def dump_coordinates(system: DiscreteSystem, fh) -> None:
    """Write the assembled matrix in "row col value" text form (debug aid)."""
    rows, cols, vals = _coordinates(system)
    fh.writelines("%d %d %.17g\n" % entry
                  for entry in zip(rows.tolist(), cols.tolist(), vals.tolist()))


def to_dense(system: DiscreteSystem) -> tuple[np.ndarray, np.ndarray]:
    """Dense matrix and right-hand side of the full system (small N only)."""
    n = system.n
    size = (system.num_intervals + 1) * n
    mat = np.zeros((size, size))
    rows, cols, vals = _coordinates(system)
    mat[rows, cols] = vals
    vec = np.empty(size)
    vec[:n] = system.boundary_left
    vec[n : size - n] = system.rhs.ravel()
    vec[size - n :] = system.boundary_right
    return mat, vec
