"""The benchmark workloads: their inputs, one operation each, and its check.

Each workload drives the library's public functions the way ``shishkin
solve`` and ``shishkin converge`` do, always through the module attribute
(``solver.solve``, not a bound name) so that the tracer sees every call.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Any

from shishkin import ProblemError, cli, convergence, discretize, mesh, problem, solver

import inputs


@dataclass
class Outcome:
    """What one operation produced: a verdict, unknowns solved, and the data to check."""

    verdict: str
    unknowns: int = 0
    detail: Any = None


def _admitted(document: str):
    """Parse and validate a document that the generator made admissible."""
    spec = problem.problem_from_json(document)
    report = problem.validate_sign_dominance(spec)
    if not report.is_admissible:
        raise RuntimeError("generated problem is inadmissible: %r" % report)
    return spec, report.a2_alpha


def _solve_on_mesh(spec, alpha, intervals, order):
    """mesh -> assemble -> check_sign_structure -> solve, as `shishkin solve` runs it."""
    params = mesh.transition_parameters(spec.eps, alpha, intervals, order)
    system = discretize.assemble(spec, mesh.build_mesh(params))
    if not discretize.check_sign_structure(system).ok:
        return Outcome("structure")
    grid = solver.solve(system)
    return Outcome("ok", (intervals - 1) * spec.n, (system, grid))


class LargeSolve:
    """One n = 3 variable-coefficient solve at large N on the second-order mesh."""

    name = "large_solve"

    def __init__(self, seed: int, intervals: int = 16384, pool: int = 4):
        self.intervals = intervals
        self.items = [_admitted(doc) for doc in inputs.large_problems(seed, pool)]

    def op(self, item) -> Outcome:
        spec, alpha = item
        return _solve_on_mesh(spec, alpha, self.intervals, "second")

    def check(self, item, out: Outcome) -> tuple[list[str], list[str]]:
        if out.verdict != "ok":
            return ["verdict %s, expected ok" % out.verdict], []
        import verify  # checks run in a forked child; only it loads the sparse solver

        spec, alpha = item
        system, grid = out.detail
        return verify.check_solve(spec, system, grid, alpha)

    def warm_up(self) -> None:
        spec, alpha = self.items[0]
        _solve_on_mesh(spec, alpha, 64, "second")


class Sweep:
    """One two-mesh parameter_sweep over a single n = 2 diffusion vector."""

    name = "sweep"

    def __init__(self, seed: int, ns=(64, 128, 256, 512, 1024), pool: int = 8):
        self.ns = tuple(ns)
        self.items = [(problem.problem_from_json(doc), eps, order)
                      for doc, eps, order in inputs.sweep_cases(seed, pool)]

    def _sweep(self, item, ns) -> Outcome:
        spec, eps, order = item
        report = convergence.parameter_sweep(spec, [eps], list(ns), order, workers=1)
        unknowns = sum((3 * c.intervals - 2) * spec.n for c in report.cells if not c.error)
        return Outcome("ok", unknowns, report)

    def op(self, item) -> Outcome:
        return self._sweep(item, self.ns)

    def check(self, item, out: Outcome) -> tuple[list[str], list[str]]:
        import verify

        spec, eps, order = item
        return verify.check_sweep(spec, eps, order, out.detail)

    def warm_up(self) -> None:
        self._sweep(self.items[0], (16, 32, 64))


def verdict_of(err: ProblemError) -> str:
    """Error class, and the class of its cause when there is one."""
    label = type(err).__name__
    if err.__cause__ is not None:
        label += "/" + type(err.__cause__).__name__
    return label


class Requests:
    """A mix of small JSON solve requests, a fixed share of them inadmissible."""

    name = "requests"

    # 240 requests: 216 admissible ones (12 cycles of the 18 shapes) and 24
    # rejects (4 cycles of the 6 kinds), so every pass sends the whole mix
    def __init__(self, seed: int, count: int = 240):
        self.items = inputs.requests(seed, count)

    def op(self, req: inputs.Request) -> Outcome:
        try:
            spec = problem.problem_from_json(req.document)
        except ProblemError as err:
            return Outcome(verdict_of(err))
        report = problem.validate_sign_dominance(spec)
        if not report.is_admissible:
            sign = any(v.condition == "sign" for v in report.violations)
            return Outcome("sign" if sign else "dominance")
        out = _solve_on_mesh(spec, report.a2_alpha, req.intervals, req.order)
        if out.verdict != "ok":
            return out
        system, grid = out.detail
        buf = io.StringIO()
        cli.write_solution_csv(buf, grid)
        out.detail = (spec, report.a2_alpha, system, grid, buf.getvalue())
        return out

    def check(self, req: inputs.Request, out: Outcome) -> tuple[list[str], list[str]]:
        if out.verdict != req.expected_verdict:
            return ["verdict %s, expected %s" % (out.verdict, req.expected_verdict)], []
        if out.verdict != "ok":
            return [], []
        import verify

        spec, alpha, system, grid, text = out.detail
        problems, notes = verify.check_solve(spec, system, grid, alpha)
        problems += verify.check_csv(text, grid)
        if req.scalar is not None:
            problems += verify.check_exact_scalar(grid, req.scalar, req.order)
        return problems, notes

    def warm_up(self) -> None:
        # the first 60 requests take the accept path and every reject path
        for req in self.items[: inputs.REJECT_EVERY * len(inputs.REJECT_KINDS)]:
            self.op(req)


WORKLOADS = {w.name: w for w in (LargeSolve, Sweep, Requests)}
