"""In-memory span tracing around the library's public functions.

``Tracer.installed()`` replaces each traced function, in every ``shishkin``
module namespace that holds it, with a wrapper that records a span (name,
start, end, parent span, op id) and the layer's work counts.  Patching the
namespaces covers calls from the benchmark and calls between modules alike
(``discretize`` and ``problem`` reach ``exprs.evaluate_array`` through the
name they imported).  The originals are restored on exit; no source file is
touched.  Outside an open op the wrappers only forward the call, so the
correctness checks are neither timed nor counted.
"""

from __future__ import annotations

import collections
import contextlib
import sys
import time
from typing import Callable, Optional

from shishkin import ProblemError


def _count_bytes(args, result):
    # the benchmark always hands the writer a fresh StringIO of ASCII text,
    # so the final position is the number of bytes written
    return {"cli.bytes_written": args[0].tell()}


# (module, function, work counter of (args, result)).  A module is a layer.
# Rejections by problem_from_json are counted where it raises ProblemError.
TRACED: tuple[tuple[str, str, Optional[Callable]], ...] = (
    ("exprs", "evaluate_array",
     lambda args, r: {"exprs.evaluate_array.points": len(args[1])}),
    ("problem", "problem_from_json", None),
    ("problem", "validate_sign_dominance",
     lambda args, r: {"problem.rejections": 0 if r.is_admissible else 1}),
    ("problem", "compute_alpha", None),
    ("mesh", "transition_parameters", None),
    ("mesh", "build_mesh", lambda args, r: {"mesh.nodes": r.points.size}),
    ("mesh", "bisect_mesh", lambda args, r: {"mesh.nodes": r.points.size}),
    ("discretize", "assemble", lambda args, r: {"discretize.blocks": r.num_intervals - 1}),
    ("discretize", "check_sign_structure", None),
    ("discretize", "apply_operator", None),
    ("solver", "solve",
     lambda args, r: {"solver.unknowns": (r.mesh.num_intervals - 1) * r.values.shape[1]}),
    ("convergence", "parameter_sweep",
     lambda args, r: {"convergence.cells": len(r.cells),
                      "convergence.cells_failed": sum(1 for c in r.cells if c.error)}),
    ("cli", "write_solution_csv", _count_bytes),
)

LAYERS = ("exprs", "problem", "mesh", "discretize", "solver", "convergence", "cli")
OP_SPAN = "bench.op"


class Tracer:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self):
        # span: [name, start, end, parent index or -1, op id]
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self._op: Optional[int] = None

    def _wrap(self, name: str, fn: Callable, counter: Optional[Callable]) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1], self._op]
            spans.append(span)
            stack.append(index)
            counts[name + ".calls"] += 1
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except ProblemError:
                if name == "problem.problem_from_json":
                    counts["problem.rejections"] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                counts.update(counter(args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every shishkin namespace binding of the traced functions."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "shishkin" or key.startswith("shishkin."))]
        saved = []
        try:
            for layer, func, counter in TRACED:
                original = getattr(sys.modules["shishkin." + layer], func)
                wrapper = self._wrap("%s.%s" % (layer, func), original, counter)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            saved.append((module, attr, original))
                            setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Root span of one operation; library spans inside it are recorded."""
        index = len(self.spans)
        span = [OP_SPAN, time.perf_counter(), 0.0, -1, op_id]
        self.spans.append(span)
        self._stack.append(index)
        self._op = op_id
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            self._op = None

    def write(self, path: str) -> None:
        """Write the spans as CSV: index, parent, op, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,parent,op,name,start_s,end_s\n")
            for index, (name, start, end, parent, op_id) in enumerate(self.spans):
                fh.write("%d,%d,%d,%s,%.9f,%.9f\n" % (index, parent, op_id, name, start, end))


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans: list[list]) -> dict:
    """Busy and self time per function and per layer, plus op wall time.

    Self time of a span is its duration minus the time its children cover.
    Children of one span run one after another in this single-threaded
    client, so their coverage is the sum of their durations.  Busy time of a
    function or layer counts only its outermost spans, so nesting inside the
    same layer (validate_sign_dominance calling compute_alpha) is not
    counted twice.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = collections.defaultdict(float)
    for index, (name, start, end, parent, _) in enumerate(spans):
        duration = end - start
        self_time = duration - child_time[index]
        layer = layer_of(name)
        out[name + ".self_s"] += self_time
        out[layer + ".self_s"] += self_time
        ancestors = set()
        p = parent
        while p >= 0:
            ancestors.add(spans[p][0])
            ancestors.add(layer_of(spans[p][0]))
            p = spans[p][3]
        if name not in ancestors:
            out[name + ".busy_s"] += duration
        if layer not in ancestors:
            out[layer + ".busy_s"] += duration
    return dict(out)
