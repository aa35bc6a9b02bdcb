import json
import math
from pathlib import Path

import numpy as np
import pytest

from shishkin import MeshOrder, build_mesh, problem_from_json, solve, assemble
from shishkin import compute_alpha, transition_parameters
from shishkin.cli import (
    main,
    read_mesh_csv,
    read_report_csv,
    read_solution_csv,
)

ROOT = Path(__file__).resolve().parent.parent
SYSTEM2 = str(ROOT / "problems" / "system2.json")
SCALAR = str(ROOT / "problems" / "scalar.json")
SYSTEM3 = str(ROOT / "problems" / "system3.json")


def _write_problem(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


BAD_SIGN = {
    "n": 2,
    "eps": [1e-6, 1e-2],
    "A": [["1", "0.5"], ["-1", "2"]],
    "f": ["1", "1"],
    "u_left": [0, 0],
    "u_right": [0, 0],
}


def test_validate_bundled_problem(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["validate", SYSTEM2, "-o", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "sign/dominance condition: PASS" in text
    payload = json.loads(out.read_text())
    assert payload["a1_holds"] is True
    assert payload["a2_alpha"] == pytest.approx(0.9)


def test_validate_rejects_sign_violation(tmp_path, capsys):
    path = _write_problem(tmp_path, BAD_SIGN)
    code = main(["validate", path])
    assert code == 1
    text = capsys.readouterr().out
    assert "FAIL" in text
    assert "violation: sign" in text


def test_validate_warns_on_layer_width_condition(tmp_path, capsys):
    doc = {"n": 1, "eps": [0.5], "A": [["1"]], "f": ["1"],
           "u_left": [0], "u_right": [0]}
    code = main(["validate", _write_problem(tmp_path, doc)])
    assert code == 0
    assert "WARN" in capsys.readouterr().out


def test_mesh_command_band_structure(tmp_path):
    out = tmp_path / "mesh.csv"
    code = main(["mesh", SYSTEM2, "--N", "64", "--order", "first", "-o", str(out)])
    assert code == 0
    with open(out) as fh:
        points, spacings, bands = read_mesh_csv(fh)
    assert points.size == 65
    counts = np.bincount(bands)
    assert list(counts) == [8, 8, 32, 8, 8]
    assert points[0] == 0.0 and points[-1] == 1.0


def test_mesh_csv_round_trips_exactly(tmp_path):
    out = tmp_path / "mesh.csv"
    main(["mesh", SYSTEM2, "--N", "128", "--order", "second", "-o", str(out)])
    spec = problem_from_json(Path(SYSTEM2).read_text())
    alpha = compute_alpha(spec)
    mesh = build_mesh(transition_parameters(spec.eps, alpha, 128, MeshOrder.SECOND))
    with open(out) as fh:
        points, spacings, bands = read_mesh_csv(fh)
    assert np.array_equal(points, mesh.points)
    assert np.array_equal(spacings, mesh.spacings)
    assert np.array_equal(bands, mesh.interval_band_ids())


def test_force_uniform_mesh_flag(tmp_path):
    out = tmp_path / "mesh.csv"
    code = main(["mesh", SCALAR, "--N", "64", "--force-uniform-mesh", "-o", str(out)])
    assert code == 0
    with open(out) as fh:
        points, spacings, _ = read_mesh_csv(fh)
    assert np.all(spacings == 1.0 / 64)


def test_solve_command_round_trips_solution(tmp_path):
    out = tmp_path / "solution.csv"
    code = main(["solve", SYSTEM2, "--N", "64", "--order", "first", "-o", str(out)])
    assert code == 0
    spec = problem_from_json(Path(SYSTEM2).read_text())
    alpha = compute_alpha(spec)
    mesh = build_mesh(transition_parameters(spec.eps, alpha, 64, MeshOrder.FIRST))
    grid = solve(assemble(spec, mesh))
    with open(out) as fh:
        points, values = read_solution_csv(fh)
    assert np.array_equal(points, mesh.points)
    assert np.array_equal(values, grid.values)


def test_solve_refine_once_flag(tmp_path):
    out = tmp_path / "solution.csv"
    code = main(["solve", SYSTEM3, "--N", "64", "--refine-once", "-o", str(out)])
    assert code == 0
    with open(out) as fh:
        points, values = read_solution_csv(fh)
    assert values.shape == (65, 3)
    assert np.all(np.isfinite(values))


def test_converge_row_and_order_counts(tmp_path):
    out = tmp_path / "report.csv"
    code = main(["converge", SYSTEM2, "--order", "first",
                 "--N", "64,128,256,512", "-o", str(out)])
    assert code == 0
    with open(out) as fh:
        rows = read_report_csv(fh)
    assert len(rows) == 4
    assert sum(1 for r in rows if r["p_N"] is not None) == 3
    assert all(r["order"] == "first" for r in rows)
    assert [r["N"] for r in rows] == [64, 128, 256, 512]


def test_converge_with_eps_grid_and_plot(tmp_path):
    out = tmp_path / "report.csv"
    plot = tmp_path / "plot.tsv"
    grid = json.dumps([[1e-8, 1e-4], [1e-6, 1e-2]])
    code = main(["converge", SYSTEM2, "--order", "second", "--N", "64,128",
                 "--eps-grid", grid, "-o", str(out), "--plot-data", str(plot)])
    assert code == 0
    with open(out) as fh:
        rows = read_report_csv(fh)
    assert len(rows) == 4  # 2 eps vectors x 2 mesh sizes
    assert {r["eps_id"] for r in rows} == {0, 1}
    lines = plot.read_text().splitlines()
    assert lines[0] == "N\teps_0\teps_1"
    assert len(lines) == 3


def test_converge_worker_pool(tmp_path):
    out = tmp_path / "report.csv"
    code = main(["converge", SCALAR, "--order", "first", "--N", "32,64",
                 "--workers", "2", "-o", str(out)])
    assert code == 0


def test_outputs_are_byte_identical_across_runs(tmp_path):
    pairs = []
    for tag in ("a", "b"):
        mesh_out = tmp_path / ("mesh_%s.csv" % tag)
        sol_out = tmp_path / ("sol_%s.csv" % tag)
        rep_out = tmp_path / ("rep_%s.csv" % tag)
        assert main(["mesh", SYSTEM2, "--N", "64", "-o", str(mesh_out)]) == 0
        assert main(["solve", SYSTEM2, "--N", "64", "-o", str(sol_out)]) == 0
        assert main(["converge", SYSTEM2, "--order", "first", "--N", "64,128",
                     "-o", str(rep_out)]) == 0
        pairs.append((mesh_out.read_bytes(), sol_out.read_bytes(), rep_out.read_bytes()))
    assert pairs[0] == pairs[1]


def test_missing_file_is_io_error(capsys):
    assert main(["validate", "/nonexistent/problem.json"]) == 3
    assert "i/o error" in capsys.readouterr().err


def test_malformed_json_is_io_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    assert main(["validate", str(path)]) == 3


def test_schema_error_is_validation_failure(tmp_path, capsys):
    path = _write_problem(tmp_path, {"n": 1, "eps": [1e-6]})
    assert main(["validate", str(path)]) == 1
    assert "missing required key" in capsys.readouterr().err


def test_inadmissible_mesh_size_is_validation_failure(capsys):
    assert main(["mesh", SYSTEM2, "--N", "48"]) == 1
    assert "inadmissible" in capsys.readouterr().err


def test_singular_forcing_at_mesh_point_is_validation_failure(tmp_path, capsys):
    doc = {"n": 1, "eps": [1e-1], "A": [["2"]], "f": ["1/(x - 0.5)"],
           "u_left": [0], "u_right": [0]}
    code = main(["solve", _write_problem(tmp_path, doc), "--N", "16"])
    assert code == 1
    assert "f[0]" in capsys.readouterr().err


def test_non_finite_forcing_is_validation_failure(tmp_path, capsys):
    # 0*exp(1000*x) is nan wherever exp overflows; no solution may be written
    doc = {"n": 1, "eps": [1e-4], "A": [["1"]], "f": ["0*exp(1000*x)"],
           "u_left": [0], "u_right": [0]}
    out = tmp_path / "solution.csv"
    code = main(["solve", _write_problem(tmp_path, doc), "--N", "16", "-o", str(out)])
    assert code == 1
    assert "f[0]: non-finite value nan" in capsys.readouterr().err
    assert not out.exists()


def test_define_substitution(tmp_path):
    doc = {"n": 1, "eps": [1e-6], "A": [["COEF"]], "f": ["COEF - 1"],
           "u_left": [0], "u_right": [0]}
    path = _write_problem(tmp_path, doc)
    out = tmp_path / "solution.csv"
    code = main(["solve", path, "--N", "16", "--define", "COEF=2.5",
                 "-o", str(out)])
    assert code == 0
    # without the definition the identifier is unknown
    assert main(["solve", path, "--N", "16"]) == 1


def test_stdout_output(capsys):
    code = main(["mesh", SCALAR, "--N", "16", "-o", "-"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("j,x_j,h_j,band_id")
