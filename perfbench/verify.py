"""Correctness checks on operation results.

Every check runs outside the timed region.  Each returns its problems, and
the solve and sweep checks also return notes: ``(problems, notes)``.  Any
problem makes the operation count as failed.  A note reports something the
program flagged or the method showed that is not a wrong output (the
solver's ``ill_conditioned`` warning on an accurate solve, a two-mesh order
estimate below the acceptance-test threshold); notes are printed and
counted, never dropped.
"""

from __future__ import annotations

import io
import math

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from shishkin import cli, convergence, discretize, exprs, mesh, problem, solver

# Agreement with the independent sparse direct solve, relative to the
# system's scale (1 + |u(0)| + |u(1)| + |f|).  The smallest two-mesh
# difference the sweep measures is about 1e-5 of scale (N = 1024, second
# order), so solve errors below 1e-9 of scale cannot move any result.
REFERENCE_TOL = 1e-9
# The residual certificate RESIDUAL_WARN_FACTOR * scale is absolute, so on
# strongly graded meshes (matrix entries near 1e11) no double-precision
# solution meets it, the reference's included.  A solve passes when its
# residual meets the certificate or is within this factor of the residual
# of the reference solve of the same system.
RESIDUAL_REF_FACTOR = 10.0
# Slack on the stability bound, as the acceptance test allows.
STABILITY_SLACK = 1e-10
# Constant C in |u - U| <= C (ln N / N)^k max(|u0|, |u1|, |f|/a).  The
# largest fitted constant over the paper's eps sweep at N = 64..256 is about
# 2 (second order) and 0.35 (first order); 4 bounds both with margin.
EXACT_C = 4.0
# Order thresholds of the acceptance tests.
ORDER_THRESHOLD = {"first": 0.8, "second": 1.6}


def sparse_system(system):
    """The full ((N+1) n)-square matrix and right-hand side, built from the blocks.

    Independent of the library's own dense/coordinate dumps: entries are
    placed by index arithmetic and handed to scipy.sparse.
    """
    n = system.n
    rows = system.num_intervals - 1
    size = (system.num_intervals + 1) * n
    k, i, j = np.indices((rows, n, n))
    row = ((k + 1) * n + i).ravel()
    ends = np.concatenate([np.arange(n), size - n + np.arange(n)])
    parts_r, parts_c, parts_v = [ends], [ends], [np.ones(2 * n)]
    for offset, blocks in ((0, system.sub_blocks), (1, system.diag_blocks),
                           (2, system.super_blocks)):
        parts_r.append(row)
        parts_c.append(((k + offset) * n + j).ravel())
        parts_v.append(np.asarray(blocks).ravel())
    matrix = scipy.sparse.coo_matrix(
        (np.concatenate(parts_v), (np.concatenate(parts_r), np.concatenate(parts_c))),
        shape=(size, size)).tocsc()
    rhs = np.concatenate([system.boundary_left, np.asarray(system.rhs).ravel(),
                          system.boundary_right])
    return matrix, rhs


def reference(system) -> tuple[np.ndarray, float]:
    """Sparse direct (SuperLU) solution shaped (N+1, n), refined once, and its residual.

    One step of iterative refinement in working precision makes the solve
    componentwise backward stable (Skeel 1980); without it SuperLU's
    pivoting loses digits on the strongly graded meshes.
    """
    matrix, rhs = sparse_system(system)
    lu = scipy.sparse.linalg.splu(matrix)
    ref = lu.solve(rhs)
    ref -= lu.solve(matrix @ ref - rhs)
    return ref.reshape(-1, system.n), float(np.max(np.abs(matrix @ ref - rhs)))


def residual_limit(system, ref_residual: float) -> float:
    """The certificate, or RESIDUAL_REF_FACTOR times what the reference solve attains."""
    return max(solver.RESIDUAL_WARN_FACTOR * system.scale, RESIDUAL_REF_FACTOR * ref_residual)


def check_solve(spec, system, grid, alpha: float) -> tuple[list[str], list[str]]:
    """Reference agreement, residual and the discrete stability bound; notes the flag."""
    problems, notes = [], []
    values = np.asarray(grid.values)
    ref, ref_residual = reference(system)
    gap = float(np.max(np.abs(values - ref)))
    if not gap <= REFERENCE_TOL * system.scale:
        problems.append("differs from sparse direct solve by %.3g (scale %.3g)"
                        % (gap, system.scale))
    matrix, rhs = sparse_system(system)
    residual = float(np.max(np.abs(matrix @ values.ravel() - rhs)))
    limit = residual_limit(system, ref_residual)
    if not residual <= limit:
        problems.append("residual %.3g above %.3g (the larger of RESIDUAL_WARN_FACTOR * scale "
                        "and %g times the reference solve's %.3g)"
                        % (residual, limit, RESIDUAL_REF_FACTOR, ref_residual))
    elif grid.ill_conditioned:
        notes.append("solve flagged ill_conditioned: its residual %.3g above "
                     "RESIDUAL_WARN_FACTOR * scale = %.3g; the reference solve's is %.3g"
                     % (grid.residual_norm, solver.RESIDUAL_WARN_FACTOR * system.scale,
                        ref_residual))
    f_max = max(float(np.max(np.abs(exprs.evaluate_array(f, system.mesh.points))))
                for f in spec.f_entries)
    bound = max(max(abs(v) for v in spec.u_left), max(abs(v) for v in spec.u_right),
                f_max / alpha)
    sup = float(np.max(np.abs(values)))
    if not sup <= bound + STABILITY_SLACK * system.scale:
        problems.append("stability bound broken: |U| = %.6g > %.6g" % (sup, bound))
    return problems, notes


def rate(intervals: int, order: str) -> float:
    """(ln N / N)^k, the parameter-uniform error rate of a k-th order mesh."""
    return (math.log(intervals) / intervals) ** (1 if order == "first" else 2)


def check_exact_scalar(grid, data, order: str) -> list[str]:
    """Nodal error against the closed-form solution of a constant scalar problem."""
    points = grid.mesh.points
    exact = np.array([convergence.exact_scalar_solution(data.eps, data.a, data.f,
                                                        data.u0, data.u1, x)
                      for x in points])
    err = float(np.max(np.abs(np.asarray(grid.values)[:, 0] - exact)))
    size = max(abs(data.u0), abs(data.u1), abs(data.f) / data.a)
    limit = EXACT_C * rate(points.size - 1, order) * size
    return [] if err <= limit else ["exact error %.3g above %.3g" % (err, limit)]


def check_csv(text: str, grid) -> list[str]:
    """The solution CSV must read back bit-exactly."""
    points, values = cli.read_solution_csv(io.StringIO(text))
    if np.array_equal(points, grid.mesh.points) and np.array_equal(values, grid.values):
        return []
    return ["solution CSV does not round-trip"]


def check_sweep(spec, eps, order: str, report) -> tuple[list[str], list[str]]:
    """Cell errors, every two-mesh difference recomputed; notes the order threshold.

    Each cell's D_N is recomputed from sparse direct solves of the coarse
    and the bisected system, so every solve inside the sweep is checked.
    The order estimate comes from the last doubling alone, N = 512 to 1024.
    One below the acceptance-test threshold is a note: on the seeded
    problems it happens where D_N stalls for a doubling before it falls
    again (e.g. first order, eps = (1.56e-9, 4.27e-9): local orders 0.25,
    0.36, 0.59, 1.03 from N = 512 to 8192), while every D_N is the exact
    two-mesh difference of the discrete method.
    """
    problems = ["cell N=%d failed: %s" % (c.intervals, c.error)
                for c in report.cells if c.error]
    if problems:
        return problems, []
    notes = []
    est = report.uniform_order_estimate
    if est is None:
        problems.append("no order estimate")
    elif not est >= ORDER_THRESHOLD[order]:
        notes.append("%s-order estimate %.3g below the acceptance threshold %.1f; D_N %s"
                     % (order, est, ORDER_THRESHOLD[order],
                        ", ".join("%.3g" % c.value for c in report.cells)))
    swept = convergence.with_eps(spec, eps)
    swept_alpha = problem.compute_alpha(swept)
    for cell in report.cells:
        params = mesh.transition_parameters(swept.eps, swept_alpha, cell.intervals, order)
        coarse = mesh.build_mesh(params)
        fine = mesh.bisect_mesh(coarse)
        coarse_sys = discretize.assemble(swept, coarse)
        fine_sys = discretize.assemble(swept, fine)
        (coarse_ref, coarse_res), (fine_ref, fine_res) = reference(coarse_sys), reference(fine_sys)
        diff = float(np.max(np.abs(coarse_ref - fine_ref[::2])))
        scale = max(coarse_sys.scale, fine_sys.scale)
        # each of the two solves may be off by the tolerance
        if not abs(diff - cell.value) <= 2 * REFERENCE_TOL * scale:
            problems.append("N=%d: D_N %.6g, sparse reference %.6g"
                            % (cell.intervals, cell.value, diff))
        limit = max(residual_limit(coarse_sys, coarse_res), residual_limit(fine_sys, fine_res))
        if not cell.residual <= limit:
            problems.append("N=%d: residual %.3g above %.3g" % (cell.intervals, cell.residual,
                                                                limit))
    return problems, notes
