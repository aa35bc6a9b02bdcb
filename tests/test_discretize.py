import dataclasses
import io
import math
import tracemalloc

import numpy as np
import pytest

from helpers import quadratic_problem, zmatrix_problem
from shishkin import (
    CoefficientDomainError,
    MeshOrder,
    ProblemSpec,
    TransitionParams,
    apply_operator,
    assemble,
    build_mesh,
    check_sign_structure,
    compute_alpha,
    dump_coordinates,
    solve,
    to_dense,
    transition_parameters,
)
from shishkin.mesh import Mesh


def _hand_mesh(points, params_n=1):
    """Mesh wrapper around explicit points for stencil spot checks."""
    pts = np.asarray(points, dtype=float)
    params = TransitionParams(order=MeshOrder.FIRST, values=(0.25,) * params_n,
                              log_branch=(False,) * params_n, alpha=0.9,
                              intervals=pts.size - 1, log_n=math.log(pts.size - 1))
    return Mesh(points=pts, band_counts=(pts.size - 1,), params=params)


def test_uniform_unit_stencil():
    # eps = 1, h = 1/4, a = 1: 1/(hbar*h) = 16, row = (-16, 32 + 1, -16)
    spec = ProblemSpec.from_strings([1.0], [["1"]], ["1"], [0], [0])
    system = assemble(spec, _hand_mesh(np.linspace(0.0, 1.0, 5)))
    assert system.sub_blocks[1][0, 0] == pytest.approx(-16.0)
    assert system.super_blocks[1][0, 0] == pytest.approx(-16.0)
    assert system.diag_blocks[1][0, 0] == pytest.approx(33.0)
    assert np.all(system.rhs == 1.0)


def test_second_difference_annihilates_linears():
    spec = ProblemSpec.from_strings([1.0], [["1"]], ["0"], [0, 0][:1], [1])
    mesh = _hand_mesh([0.0, 0.125, 0.25, 0.625, 1.0])
    system = assemble(spec, mesh)
    psi = mesh.points.reshape(-1, 1)  # psi(x) = x
    r = apply_operator(system, psi)
    # interior residual = -1*d2(x) + 1*x - 0 = x
    assert r[1:-1, 0] == pytest.approx(mesh.points[1:-1], abs=1e-14)


def test_second_difference_exact_on_quadratics_nonuniform():
    # points (0, 0.1, 0.3): D+ = 0.4, D- = 0.1, hbar = 0.15, d2(x^2) = 2
    spec = ProblemSpec.from_strings([1.0], [["0 - 1"]], ["0"], [0], [0])
    mesh = _hand_mesh([0.0, 0.1, 0.3])
    system = assemble(spec, mesh)
    psi = (mesh.points**2).reshape(-1, 1)
    r = apply_operator(system, psi)
    # r = -d2(psi) + a*psi - 0 with a = -1: at x = 0.1, -2 - 0.01
    assert r[1, 0] == pytest.approx(-2.0 - 0.01, rel=1e-13)


def _shishkin_system(eps=(2**-20, 2**-8), n_mesh=64, order=MeshOrder.FIRST):
    spec = ProblemSpec.from_strings(list(eps), [["2", "-1"], ["-1", "2"]],
                                    ["1", "1 + x*(1 - x)"], [0, 1], [1, 0])
    alpha = compute_alpha(spec)
    mesh = build_mesh(transition_parameters(spec.eps, alpha, n_mesh, order))
    return spec, assemble(spec, mesh)


def test_boundary_rows_measure_dirichlet_mismatch():
    _, system = _shishkin_system()
    grid = np.zeros((65, 2))
    r = apply_operator(system, grid)
    assert r[0] == pytest.approx([0.0, -1.0])
    assert r[-1] == pytest.approx([-1.0, 0.0])


def test_zero_data_zero_residual():
    spec = ProblemSpec.from_strings([1e-6, 1e-2], [["2", "-1"], ["-1", "2"]],
                                    ["0", "0"], [0, 0], [0, 0])
    mesh = build_mesh(transition_parameters(spec.eps, 0.9, 64, MeshOrder.FIRST))
    system = assemble(spec, mesh)
    r = apply_operator(system, np.zeros((65, 2)))
    assert np.all(r == 0.0)


def test_constant_grid_reduces_to_reaction_term():
    spec = ProblemSpec.from_strings([1e-6, 1e-2], [["2", "-1"], ["-1", "2"]],
                                    ["1", "1"], [0, 0], [0, 0])
    mesh = build_mesh(transition_parameters(spec.eps, 0.9, 64, MeshOrder.FIRST))
    system = assemble(spec, mesh)
    c = np.array([2.0, 3.0])
    grid = np.tile(c, (65, 1))
    r = apply_operator(system, grid)
    expected = np.array([[2.0, -1.0], [-1.0, 2.0]]) @ c - np.array([1.0, 1.0])
    # the second-difference weights reach ~1/h^2 inside the layer bands, so
    # their cancellation on a constant leaves rounding at that magnitude
    cancel = float(np.max(np.abs(system.sub_blocks))) * np.max(np.abs(c)) * 2**-50
    assert r[1:-1] == pytest.approx(np.tile(expected, (63, 1)), abs=cancel)


def test_solved_grid_has_tiny_residual():
    _, system = _shishkin_system()
    grid = solve(system)
    f_max = float(np.max(np.abs(system.rhs)))
    assert grid.residual_norm <= 1e-9 * (1.0 + f_max)


def test_sign_structure_clean_on_validated_problems():
    rng = np.random.default_rng(42)
    for n in (1, 2, 3):
        spec = zmatrix_problem(rng, n)
        alpha = compute_alpha(spec)
        mesh = build_mesh(transition_parameters(spec.eps, alpha, 64, MeshOrder.SECOND))
        report = check_sign_structure(assemble(spec, mesh))
        assert report.ok
        assert report.violations == ()
        assert report.min_dominance_margin > 0.0


def test_sign_structure_scalar_margin_is_one():
    spec = ProblemSpec.from_strings([1e-4], [["1"]], ["1"], [0], [0])
    mesh = build_mesh(transition_parameters(spec.eps, 0.9, 16, MeshOrder.FIRST))
    report = check_sign_structure(assemble(spec, mesh))
    assert report.min_dominance_margin == pytest.approx(1.0, rel=1e-9)


def test_sign_structure_flags_injected_defect():
    spec = ProblemSpec.from_strings([1e-6, 1e-2], [["2", "0.5"], ["-1", "2"]],
                                    ["1", "1"], [0, 0], [0, 0])
    mesh = build_mesh(transition_parameters(spec.eps, 0.9, 16, MeshOrder.FIRST))
    report = check_sign_structure(assemble(spec, mesh))
    assert not report.off_diagonal_ok
    assert any(v[1] == 0 and v[2] == 1 for v in report.violations)


def test_assembly_domain_error_names_entry_and_node():
    spec = ProblemSpec.from_strings([1e-4], [["1 + 1/(x - 0.5)"]], ["1"], [0], [0])
    mesh = build_mesh(transition_parameters(spec.eps, 0.9, 16, MeshOrder.FIRST))
    with pytest.raises(CoefficientDomainError, match=r"A\[0\]\[0\].*x = 0\.5"):
        assemble(spec, mesh)


def test_quadratic_solutions_reproduced_exactly():
    spec, exact = quadratic_problem([1e-8, 1e-4], [[2.0, -1.0], [-1.0, 2.0]],
                                    [(0.0, 1.0, -1.0), (1.0, 0.5, 0.5)])
    alpha = compute_alpha(spec)
    mesh = build_mesh(transition_parameters(spec.eps, alpha, 64, MeshOrder.FIRST))
    grid = solve(assemble(spec, mesh))
    expected = exact(mesh.points)
    scale = 1.0 + np.max(np.abs(expected))
    assert np.max(np.abs(grid.values - expected)) <= 1e-9 * scale


def test_symmetric_problem_gives_symmetric_solution():
    spec = ProblemSpec.from_strings([1e-6, 1e-2], [["2", "-1"], ["-1", "2"]],
                                    ["1", "1 + x*(1 - x)"], [1, 2], [1, 2])
    alpha = compute_alpha(spec)
    mesh = build_mesh(transition_parameters(spec.eps, alpha, 64, MeshOrder.SECOND))
    system = assemble(spec, mesh)
    grid = solve(system)
    assert np.max(np.abs(grid.values - grid.values[::-1])) <= 1e-10 * system.scale


def _dump_reference(system) -> str:
    """Every nonzero entry, row by row and in column order within a row, from full blocks."""
    n, big_n = system.n, system.num_intervals
    lines = ["%d %d %.17g\n" % (i, i, 1.0) for i in range(n)]
    blocks = (system.sub_blocks, system.diag_blocks, system.super_blocks)
    for k in range(big_n - 1):
        for i in range(n):
            for offset, block in enumerate(blocks):
                for j in range(n):
                    if block[k, i, j] != 0.0:
                        lines.append("%d %d %.17g\n" % ((k + 1) * n + i, (k + offset) * n + j,
                                                         block[k, i, j]))
    lines += ["%d %d %.17g\n" % (big_n * n + i, big_n * n + i, 1.0) for i in range(n)]
    return "".join(lines)


def test_dense_dump_matches_block_structure():
    _, system = _shishkin_system(n_mesh=16)
    mat, vec = to_dense(system)
    buf = io.StringIO()
    dump_coordinates(system, buf)
    assert buf.getvalue() == _dump_reference(system)
    rebuilt = np.zeros_like(mat)
    for line in buf.getvalue().splitlines():
        row, col, value = line.split()
        rebuilt[int(row), int(col)] = float(value)
    assert np.array_equal(rebuilt, mat)
    assert vec.size == mat.shape[0]


@pytest.mark.parametrize("a_entry, f_entry, name", [
    ("1", "0*exp(1000*x)", r"f\[0\]"),
    ("1 + 0*exp(1000*x)", "1", r"A\[0\]\[0\]"),
])
def test_assembly_rejects_non_finite_values(a_entry, f_entry, name):
    # exp(1000*x) overflows to inf beyond x = 0.71, and 0*inf is nan
    spec = ProblemSpec.from_strings([1e-4], [[a_entry]], [f_entry], [0], [0])
    mesh = build_mesh(transition_parameters(spec.eps, 0.9, 16, MeshOrder.FIRST))
    with pytest.raises(CoefficientDomainError, match=name + r": non-finite value nan .* at node"):
        assemble(spec, mesh)


def test_coupling_is_stored_diagonal():
    # the paper's large case: n = 3 at N = 16384; full coupling blocks
    # would take 3.9 MiB, and the solve must stay within the memory that
    # block-Thomas elimination needed (7.9 MiB)
    spec = zmatrix_problem(np.random.default_rng(3), 3)
    params = transition_parameters(spec.eps, compute_alpha(spec), 16384, MeshOrder.SECOND)
    system = assemble(spec, build_mesh(params))
    arrays = [getattr(system, f.name) for f in dataclasses.fields(system)]
    arrays = [a for a in arrays if isinstance(a, np.ndarray)] + [system.mesh.points]
    assert sum(a.nbytes for a in arrays) <= 2.5 * 2**20
    assert system.sub_blocks.shape == (16383, 3, 3)
    tracemalloc.start()
    try:
        solve(system)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 7.9 * 2**20
