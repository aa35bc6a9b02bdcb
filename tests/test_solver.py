import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from block_thomas import block_thomas
from helpers import zmatrix_problem
from shishkin import (
    MeshOrder,
    ProblemSpec,
    SingularBlockError,
    apply_operator,
    assemble,
    build_mesh,
    check_sign_structure,
    compute_alpha,
    residual_norm,
    solve,
    to_dense,
    transition_parameters,
    with_eps,
)
from shishkin.mesh import Mesh


def _system(spec, n_mesh=32, order=MeshOrder.FIRST):
    alpha = compute_alpha(spec)
    mesh = build_mesh(transition_parameters(spec.eps, alpha, n_mesh, order))
    return assemble(spec, mesh)


def test_constant_solution_reproduced():
    # -eps*0 + 1*1 = 1 = f, so U is identically one
    spec = ProblemSpec.from_strings([1.0], [["1"]], ["1"], [1], [1])
    grid = solve(_system(spec, 16))
    assert np.max(np.abs(grid.values - 1.0)) <= 1e-12


def test_homogeneous_problem_gives_zero():
    spec = ProblemSpec.from_strings([1e-6], [["1"]], ["0"], [0], [0])
    grid = solve(_system(spec, 16))
    assert np.all(grid.values == 0.0)


def test_matches_dense_solve():
    rng = np.random.default_rng(314)
    for n in (1, 2, 3):
        spec = zmatrix_problem(rng, n, nonneg_data=False)
        system = _system(spec, 32 if n < 3 else 64)
        grid = solve(system)
        mat, vec = to_dense(system)
        expected = np.linalg.solve(mat, vec).reshape(-1, n)
        scale = 1.0 + np.max(np.abs(expected))
        assert np.max(np.abs(grid.values - expected)) <= 1e-9 * scale


def test_solve_is_bitwise_deterministic():
    spec = ProblemSpec.from_strings([1e-7, 1e-3], [["2", "-1"], ["-1", "2"]],
                                    ["1", "1 + x"], [0, 1], [1, 0])
    a = solve(_system(spec, 64))
    b = solve(_system(spec, 64))
    assert np.array_equal(a.values, b.values)
    assert a.residual_norm == b.residual_norm


def test_linearity_of_solutions():
    a_rows = [["2", "-1"], ["-1", "2"]]
    eps = [1e-6, 1e-2]
    s1 = ProblemSpec.from_strings(eps, a_rows, ["1", "0"], [1, 0], [0, 0])
    s2 = ProblemSpec.from_strings(eps, a_rows, ["0", "1 + x"], [0, 1], [1, 1])
    ca, cb = 0.75, -1.5
    combo = ProblemSpec.from_strings(
        eps, a_rows,
        ["0.75", "-1.5*(1 + x)"],
        [ca * 1 + cb * 0, ca * 0 + cb * 1],
        [ca * 0 + cb * 1, ca * 0 + cb * 1],
    )
    g1 = solve(_system(s1, 64))
    g2 = solve(_system(s2, 64))
    g3 = solve(_system(combo, 64))
    mixed = ca * g1.values + cb * g2.values
    scale = 1.0 + np.max(np.abs(mixed))
    assert np.max(np.abs(g3.values - mixed)) <= 1e-10 * scale


def test_residual_of_solved_grid_is_small():
    rng = np.random.default_rng(11)
    spec = zmatrix_problem(rng, 2)
    system = _system(spec, 64)
    grid = solve(system)
    assert residual_norm(system, grid) == grid.residual_norm
    assert grid.residual_norm <= 1e-9 * system.scale
    assert not grid.ill_conditioned


def test_zero_grid_on_homogeneous_problem_has_zero_residual():
    spec = ProblemSpec.from_strings([1e-6], [["1"]], ["0"], [0], [0])
    system = _system(spec, 16)
    assert residual_norm(system, np.zeros((17, 1))) == 0.0


def test_perturbation_raises_residual_by_dominance_margin():
    spec = ProblemSpec.from_strings([1e-6, 1e-2], [["2", "-1"], ["-1", "2"]],
                                    ["1", "1"], [0, 0], [0, 0])
    system = _system(spec, 64)
    margin = check_sign_structure(system).min_dominance_margin
    grid = solve(system)
    bumped = grid.values.copy()
    bumped[33, 1] += 1.0
    assert residual_norm(system, bumped) >= margin - grid.residual_norm


def test_refinement_keeps_or_improves_residual():
    spec = ProblemSpec.from_strings([1e-8, 1e-4], [["2", "-1"], ["-1", "2"]],
                                    ["1", "1"], [0, 0], [0, 0])
    system = _system(spec, 128)
    plain = solve(system)
    refined = solve(system, refine_once=True)
    assert refined.residual_norm <= max(plain.residual_norm, 1e-12 * system.scale)


def test_singular_block_raises_with_node_index():
    spec = ProblemSpec.from_strings([1e-6], [["1"]], ["1"], [0], [0])
    system = _system(spec, 16)
    blocks = system.diag_blocks.copy()
    blocks[0] = 0.0  # first pivot has no elimination contribution
    broken = dataclasses.replace(system, diag_blocks=blocks)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(SingularBlockError) as err:
            solve(broken)
    assert err.value.node == 1


def test_singular_schur_complement_raises_with_its_node():
    # rows 0 and 2 are eliminated on the first level, and the Schur
    # complement of row 1 (node 2) is 2 - 1/1 - 1/1 = 0 exactly; it is
    # the pivot block of the second level's first eliminated row
    spec = ProblemSpec.from_strings([1e-6], [["1"]], ["1"], [0], [0])
    system = _system(spec, 16)
    coupling = np.full_like(system.sub_diag, -1.0)
    blocks = np.full_like(system.diag_blocks, 4.0)
    blocks[:3, 0, 0] = [1.0, 2.0, 1.0]
    broken = dataclasses.replace(system, sub_diag=coupling, super_diag=coupling,
                                 diag_blocks=blocks)
    with pytest.raises(SingularBlockError) as err:
        solve(broken)
    assert err.value.node == 2
    assert err.value.pivot == 0.0


def _oracle_agrees(system):
    grid = solve(system)
    expected = block_thomas(system)
    assert np.max(np.abs(grid.values - expected)) <= 1e-10 * system.scale
    # the residual is of the elimination's order, or at the rounding level
    # u (||A|| ||U|| + ||b||) of the matrix, whose entries reach eps/h^2
    norm_a = max(1.0, float(np.max(np.abs(system.sub_diag) + np.abs(system.super_diag)
                                   + np.abs(system.diag_blocks).sum(axis=2), initial=0.0)))
    norm_b = max(float(np.max(np.abs(system.rhs), initial=0.0)),
                 float(np.max(np.abs(system.boundary_left))),
                 float(np.max(np.abs(system.boundary_right))))
    floor = np.finfo(float).eps * (norm_a * float(np.max(np.abs(expected))) + norm_b)
    assert max(grid.residual_norm, floor) <= 10.0 * max(residual_norm(system, expected), floor)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 4), extra=st.integers(0, 8), order=st.sampled_from(["first", "second"]),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_cyclic_reduction_agrees_with_block_thomas(n, extra, order, seed, data):
    # N = 2^(n+2) ... 2^10, eps log-uniform down to 1e-12
    intervals = 2 ** min(n + 2 + extra, 10)
    exponents = data.draw(st.lists(st.floats(-12.0, -1.0), min_size=n, max_size=n,
                                   unique=True))
    eps = sorted(10.0 ** e for e in exponents)
    assume(len(set(eps)) == n)
    spec = with_eps(zmatrix_problem(np.random.default_rng(seed), n, nonneg_data=False), eps)
    _oracle_agrees(_system(spec, intervals, order))


@pytest.mark.parametrize("intervals", [1, 2, 3, 5, 6, 7, 12])
def test_interval_counts_other_than_powers_of_two(intervals):
    # a hand-built mesh; the levels then hand an even row count down
    rng = np.random.default_rng(intervals)
    spec = zmatrix_problem(rng, 2, nonneg_data=False)
    points = np.linspace(0.0, 1.0, intervals + 1)
    mesh = Mesh(points=points, band_counts=(intervals,),
                params=transition_parameters(spec.eps, 0.5, 16, MeshOrder.FIRST))
    _oracle_agrees(assemble(spec, mesh))


def test_ill_conditioning_flag_tracks_scale():
    # same algebraic system, artificially tiny scale: the recorded residual
    # must now trip the warning flag
    spec = ProblemSpec.from_strings([1e-7, 1e-3], [["2", "-1"], ["-1", "2"]],
                                    ["1", "1"], [1, 1], [1, 1])
    system = _system(spec, 64)
    shrunk = dataclasses.replace(system, scale=1e-18)
    grid = solve(shrunk)
    assert grid.ill_conditioned
    assert solve(system).ill_conditioned is False
