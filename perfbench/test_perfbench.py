"""Tests of the benchmark itself: determinism of inputs and counts, failure accounting.

Small sizes keep them fast; the code paths are the ones the benchmark runs.
"""

import os
import subprocess
import sys
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import pytest  # noqa: E402

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from shishkin import discretize, solver  # noqa: E402

SMALL = {
    "large_solve": lambda seed: workloads.LargeSolve(seed, intervals=256, pool=2),
    "sweep": lambda seed: workloads.Sweep(seed, ns=(16, 32, 64), pool=2),
    "requests": lambda seed: workloads.Requests(seed, count=60),
}
EXACT_COUNTS = ("solver.unknowns", "mesh.nodes", "discretize.blocks",
                "exprs.evaluate_array.points", "cli.bytes_written", "convergence.cells")


def traced_counts(name: str, seed: int) -> dict:
    wl = SMALL[name](seed)
    tracer = spans.Tracer()
    tally = run.Tally()
    with tracer.installed():
        for op_id, item in enumerate(wl.items):
            tally.run(wl, item, tracer, op_id)
    tally.flush(wl)
    return {key: tracer.counts[key] for key in EXACT_COUNTS}


def test_same_seed_gives_identical_inputs():
    assert inputs.requests(7, 40) == inputs.requests(7, 40)
    assert inputs.large_problems(7, 3) == inputs.large_problems(7, 3)
    assert inputs.sweep_cases(7, 4) == inputs.sweep_cases(7, 4)
    assert inputs.requests(7, 40) != inputs.requests(8, 40)


def test_eps_stay_in_the_papers_range():
    lo, hi = 10.0 ** inputs.EPS_LOG10_RANGE[0], 10.0 ** inputs.EPS_LOG10_RANGE[1]
    for _, eps, _ in inputs.sweep_cases(3, 20):
        assert lo <= eps[0] < eps[1] <= hi


def test_request_mix_has_fixed_reject_share():
    reqs = inputs.requests(5, 120)
    kinds = [r.kind for r in reqs]
    assert sum(k != "ok" for k in kinds) == 120 // inputs.REJECT_EVERY
    assert set(kinds) == {"ok", *inputs.REJECT_KINDS}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_same_seed_gives_identical_counts(name):
    first = traced_counts(name, 11)
    assert first == traced_counts(name, 11)
    assert first["solver.unknowns"] > 0 and first["mesh.nodes"] > 0


def test_every_reject_kind_gets_its_verdict():
    wl = SMALL["requests"](2)
    tally = run.Tally()
    for req in wl.items:
        tally.run(wl, req)
    tally.flush(wl)
    assert (len(tally.latencies), tally.failed) == (60, 0)
    assert {r.kind for r in wl.items} == {"ok", *inputs.REJECT_KINDS}


class _Corrupting:
    """Forwards to a workload but perturbs one solution value by 1e-7 * scale."""

    def __init__(self, wl):
        self.wl = wl

    def op(self, item):
        out = self.wl.op(item)
        system, grid = out.detail
        values = grid.values.copy()
        values[len(values) // 2, 0] += 1e-7 * system.scale
        out.detail = (system, replace(grid, values=values))
        return out

    def check(self, item, out):
        return self.wl.check(item, out)


def test_corrupted_solution_counts_as_failure():
    wl = SMALL["large_solve"](3)
    tally = run.Tally()
    tally.run(wl, wl.items[0])
    tally.run(_Corrupting(wl), wl.items[0])
    tally.flush(wl)
    assert (len(tally.latencies), tally.failed) == (2, 1)
    assert "sparse direct solve" in tally.first_failures[0]


class _Flagging(_Corrupting):
    """Forwards to a workload but sets the solver's ill_conditioned flag, values untouched."""

    def op(self, item):
        out = self.wl.op(item)
        system, grid = out.detail
        out.detail = (system, replace(grid, ill_conditioned=True))
        return out


def test_flag_on_an_accurate_solve_is_noted_not_failed():
    wl = SMALL["large_solve"](3)
    tally = run.Tally()
    tally.run(_Flagging(wl), wl.items[0])
    tally.flush(wl)
    assert (tally.failed, tally.noted) == (0, 1)
    assert "ill_conditioned" in tally.first_notes[0]


class _WrongVerdict:
    """Forwards to the requests workload but answers with the wrong verdict."""

    def __init__(self, wl):
        self.wl = wl

    def op(self, req):
        out = self.wl.op(req)
        out.verdict = "sign" if out.verdict == "ok" else "ok"
        return out

    def check(self, req, out):
        return self.wl.check(req, out)


def test_wrong_admissibility_verdict_counts_as_failure():
    wl = SMALL["requests"](4)
    accepted = next(r for r in wl.items if r.kind == "ok")
    rejected = next(r for r in wl.items if r.kind == "dominance")
    tally = run.Tally()
    for req in (accepted, rejected):
        tally.run(wl, req)
        tally.run(_WrongVerdict(wl), req)
    tally.flush(wl)
    assert (len(tally.latencies), tally.failed) == (4, 2)


def test_self_times_account_for_op_wall_time():
    # op [0, 10] > solve [1, 4], assemble [5, 9] > evaluate_array [6, 7]
    recorded = [
        [spans.OP_SPAN, 0.0, 10.0, -1, 0],
        ["solver.solve", 1.0, 4.0, 0, 0],
        ["discretize.assemble", 5.0, 9.0, 0, 0],
        ["exprs.evaluate_array", 6.0, 7.0, 2, 0],
    ]
    out = spans.summarize(recorded)
    assert out["bench.self_s"] == 3.0
    assert out["discretize.assemble.busy_s"] == 4.0
    assert out["discretize.self_s"] == 3.0
    assert sum(out[layer + ".self_s"] for layer in ("bench", "solver", "discretize", "exprs")) \
        == out[spans.OP_SPAN + ".busy_s"]


def test_tracer_restores_the_library():
    original = discretize.apply_operator
    with spans.Tracer().installed():
        # the binding solver imported is patched along with the defining module's
        assert solver.apply_operator is discretize.apply_operator
        assert solver.apply_operator.__wrapped__ is original
    assert discretize.apply_operator is original and solver.apply_operator is original


def test_calibration_kernel_runs_in_a_helper_process():
    assert run.calibration_seconds() > 0.0
    helper = run._calibrator
    assert helper.pid != os.getpid() and helper.poll() is None
    run.stop_calibrator()
    assert helper.returncode == 0 and run._calibrator is None


def test_set_up_loads_no_check_code():
    # the probe's imports are what setup_s and peak_rss_mb measure
    probe = ("import runpy, sys; sys.argv[1:] = ['requests', '1']; "
             "runpy.run_path(%r, run_name='__main__'); "
             "assert 'verify' not in sys.modules and 'scipy.sparse' not in sys.modules"
             % os.path.join(HERE, "setup_probe.py"))
    subprocess.run([sys.executable, "-c", probe], check=True, timeout=120)
