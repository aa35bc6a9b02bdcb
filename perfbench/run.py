"""Benchmark of the shishkin toolkit: one closed-loop client, one process.

    python3 perfbench/run.py --workload large_solve --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
Workloads (see README.md): ``large_solve``, ``sweep``, ``requests``.  The
client sends its next operation only after the previous one returned.
Every result is checked outside the timed region, and a failed check, a
wrong verdict or an exception counts the operation as failed; what a check
notes without failing the operation is printed and counted.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes over the input pool
and reports per-layer metrics per traced pass, plus the tracing overhead.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

# BLAS threads, set explicitly before numpy loads; at most nproc on any machine.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS")

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SETUP_REPEATS = 5
P90_MIN_OPS = 100
# Checks of consecutive ops are batched until the batch holds this much op time.
CHECK_BATCH_S = 0.5
# Shared machines drift between fast and slow states (on the 2-core box the
# bounds were set on, one sweep op took 0.35 s or 0.52 s minutes apart).  A
# fixed kernel, timed between batches of ops in a helper process
# (calibrate.py), tracks that drift: times are reported in reference seconds,
# wall seconds * CAL_REFERENCE_S / (kernel seconds measured around the
# batch).  CAL_REFERENCE_S is the kernel's mean time on that box, so
# reference seconds read close to its wall seconds.
CAL_REFERENCE_S = 0.0136

_calibrator = None


def calibration_seconds() -> float:
    """Kernel wall time (median of 3 runs) from the helper process; starts it on first use.

    The helper is a fresh interpreter, not a fork, so none of this process's
    state reaches it; ``main`` makes the first call before it imports the
    library all the same.
    """
    global _calibrator
    if _calibrator is None:
        _calibrator = subprocess.Popen([sys.executable, os.path.join(HERE, "calibrate.py")],
                                       stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        atexit.register(stop_calibrator)
    _calibrator.stdin.write("\n")
    _calibrator.stdin.flush()
    line = _calibrator.stdout.readline()
    if not line:
        raise RuntimeError("calibration helper exited with status %s" % _calibrator.wait())
    return float(line)


def stop_calibrator() -> None:
    """End the helper process (end of input) and wait for it."""
    global _calibrator
    if _calibrator is not None:
        proc, _calibrator = _calibrator, None
        proc.stdin.close()
        proc.wait(timeout=60)
        proc.stdout.close()


def in_child(fn):
    """Return fn() computed in a forked child process, which is waited for.

    The correctness checks run here, so their memory never counts in this
    process's peak resident set and nothing they do leaks back into it.
    """
    sys.stdout.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: compute, send the pickled result, exit without cleanup
        status = 0
        try:
            os.close(read_fd)
            try:
                payload = pickle.dumps(fn())
            except BaseException:
                status, payload = 1, pickle.dumps(traceback.format_exc())
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(payload)
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        payload = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        detail = pickle.loads(payload) if payload else "no output"
        raise RuntimeError("check process failed (status %d):\n%s" % (status, detail))
    return pickle.loads(payload)  # written by our own child above


def findings_of(wl, item, out, err) -> tuple[list[str], list[str]]:
    """(problems, notes) of one operation."""
    if err is not None:
        return ["%s: %s" % (type(err).__name__, err)], []
    try:
        return wl.check(item, out)
    except Exception as exc:
        return ["check raised %s: %s" % (type(exc).__name__, exc)], []


class Tally:
    """Latencies, unknowns and failures of the operations of one kind of pass.

    Only the operation is timed.  Its outcome waits in a batch that
    ``flush`` converts to reference seconds and checks in a child process.
    """

    def __init__(self, label: str = ""):
        self.label = label
        self.latencies: list[float] = []  # wall seconds
        self.timed = 0.0
        self.ref_latencies: list[float] = []  # reference seconds
        self.ref_timed = 0.0
        self.kernels = [calibration_seconds()]
        self.unknowns = 0
        self.failed = 0
        self.noted = 0
        self.passes = 0
        self.first_failures: list[str] = []
        self.first_notes: list[str] = []
        self._shown_notes: set[str] = set()
        self._pending: list[tuple] = []
        self._pending_s = 0.0

    def run(self, wl, item, tracer=None, op_id=0) -> None:
        start = time.perf_counter()
        try:
            if tracer is None:
                out = wl.op(item)
            else:
                with tracer.op(op_id):
                    out = wl.op(item)
            err = None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            out, err = None, exc
        elapsed = time.perf_counter() - start
        self.latencies.append(elapsed)
        self.timed += elapsed
        if out is not None:
            self.unknowns += out.unknowns  # work done, whether or not its check passes
        self._pending.append((len(self.latencies) - 1, item, out, err))
        self._pending_s += elapsed
        if self._pending_s >= CHECK_BATCH_S:
            self.flush(wl)

    def flush(self, wl) -> None:
        """Convert pending latencies to reference seconds, then check the outcomes."""
        batch, self._pending, self._pending_s = self._pending, [], 0.0
        if not batch:
            return
        self.kernels.append(calibration_seconds())
        scale = CAL_REFERENCE_S / (0.5 * (self.kernels[-2] + self.kernels[-1]))
        for index, _, _, _ in batch:
            self.ref_latencies.append(self.latencies[index] * scale)
            self.ref_timed += self.latencies[index] * scale
        results = in_child(lambda: [findings_of(wl, item, out, err)
                                    for _, item, out, err in batch])
        for (index, _, _, _), (problems, notes) in zip(batch, results):
            if problems:
                self.failed += 1
                if len(self.first_failures) < 5:
                    self.first_failures.append("%sop %d: %s"
                                               % (self.label, index, "; ".join(problems)))
            if notes:
                self.noted += 1
                text = "; ".join(notes)
                # a pool item repeats every pass; show each distinct note once
                if len(self.first_notes) < 5 and text not in self._shown_notes:
                    self._shown_notes.add(text)
                    self.first_notes.append("%sop %d: %s" % (self.label, index, text))


def machine_facts() -> dict:
    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
    }


def cold_setup_seconds(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Wall and reference seconds of SETUP_REPEATS cold set-ups.

    Each is a fresh process that imports, generates the inputs and warms up.
    Its wall time is scaled by the kernel timed just before and after it.
    """
    probe = os.path.join(HERE, "setup_probe.py")
    walls, refs = [], []
    kernel = calibration_seconds()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, probe, workload, str(seed)],
                              capture_output=True, text=True, timeout=120)
        walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed: %s" % proc.stderr.strip())
        after = calibration_seconds()
        refs.append(walls[-1] * CAL_REFERENCE_S / (0.5 * (kernel + after)))
        kernel = after
    return walls, refs


def show(name: str, value, unit: str = "", note: str = "") -> None:
    text = "%.6g" % value if isinstance(value, float) else str(value)
    print("  %-42s %14s %-6s %s" % (name, text, unit, note))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux: KiB


def end_to_end(wl, args) -> tuple[dict, list[Tally]]:
    setups, ref_setups = cold_setup_seconds(args.workload, args.seed)
    tally = Tally()
    k = 0
    while tally.timed < args.seconds:
        tally.run(wl, wl.items[k % len(wl.items)])
        k += 1
    tally.flush(wl)
    lat = tally.ref_latencies
    n_ops = len(lat)
    metrics = {
        "latency_p50_s": (statistics.median(lat), "s"),
        "ops_per_s": (n_ops / tally.ref_timed, "1/s"),
        "unknowns_per_s": (tally.unknowns / tally.ref_timed, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "setup_s": (statistics.median(ref_setups), "s"),
    }
    print("end-to-end (untraced), %d ops over %.3f wall s = %.3f reference s timed; "
          "times in reference seconds, wall figures beside them"
          % (n_ops, tally.timed, tally.ref_timed))
    show("setup_s", metrics["setup_s"][0], "s", "median of %d cold set-ups, wall %s"
         % (len(setups), ", ".join("%.3f" % s for s in setups)))
    show("latency_p50_s", metrics["latency_p50_s"][0], "s", "n=%d, wall %.6g"
         % (n_ops, statistics.median(tally.latencies)))
    if n_ops >= P90_MIN_OPS:
        show("latency_p90_s", statistics.quantiles(lat, n=10)[-1], "s", "n=%d, wall %.6g"
             % (n_ops, statistics.quantiles(tally.latencies, n=10)[-1]))
    else:
        show("latency_p90_s", "-", "s", "not reported: n=%d < %d" % (n_ops, P90_MIN_OPS))
    show("ops_per_s", metrics["ops_per_s"][0], "1/s", "ops / timed seconds, wall %.6g"
         % (n_ops / tally.timed))
    show("unknowns_per_s", metrics["unknowns_per_s"][0], "1/s",
         "%d unknowns / timed seconds, wall %.6g" % (tally.unknowns, tally.unknowns / tally.timed))
    show("fail_ratio", tally.failed / n_ops, "", "base: %d failed / %d attempted"
         % (tally.failed, n_ops))
    show("peak_rss_mb", metrics["peak_rss_mb"][0], "MB", "process maximum resident set")
    show("calibration.kernel_s", statistics.median(tally.kernels), "s",
         "median of %d kernel times in the helper" % len(tally.kernels))
    return metrics, [tally]


# Per-layer metrics in the JSON: times of the layers every workload calls,
# and every count (a layer a workload bypasses counts 0 calls there).
LAYER_TIMES = ("solver.solve.busy_s", "solver.self_s", "discretize.assemble.busy_s",
               "discretize.self_s", "mesh.build_mesh.busy_s", "exprs.evaluate_array.busy_s",
               "bench.op.busy_s")
LAYER_COUNTS = ("solver.solve.calls", "solver.unknowns", "discretize.blocks",
                "discretize.check_sign_structure.calls", "mesh.nodes", "mesh.bisect_mesh.calls",
                "convergence.parameter_sweep.calls", "convergence.cells",
                "convergence.cells_failed", "problem.problem_from_json.calls",
                "problem.validate_sign_dominance.calls", "problem.rejections",
                "exprs.evaluate_array.points", "cli.write_solution_csv.calls",
                "cli.bytes_written")


def traced(wl, args) -> tuple[dict, list[Tally]]:
    import spans

    tracer = spans.Tracer()
    plain, tally = Tally("untraced "), Tally("traced ")
    op_id = 0
    # alternate untraced and traced passes over the pool; stop after a traced one
    while tally.passes == 0 or plain.timed + tally.timed < args.seconds:
        for item in wl.items:
            plain.run(wl, item)
        plain.flush(wl)
        plain.passes += 1
        with tracer.installed():
            for item in wl.items:
                tally.run(wl, item, tracer, op_id)
                op_id += 1
            tally.flush(wl)
        tally.passes += 1
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    span_path = os.path.join(HERE, "out", "spans-%s-seed%d.csv" % (args.workload, args.seed))
    tracer.write(span_path)

    per = tally.passes
    summary = {key: value / per for key, value in spans.summarize(tracer.spans).items()}

    def count(name):  # per pass; every pass runs the same inputs, so exact
        value = tracer.counts.get(name, 0) / per
        return int(value) if value.is_integer() else value

    op_wall = summary[spans.OP_SPAN + ".busy_s"]
    library_self = sum(summary.get(layer + ".self_s", 0.0) for layer in spans.LAYERS)
    glue = summary.get("bench.self_s", 0.0)
    overhead = (tally.ref_timed / tally.passes) / (plain.ref_timed / plain.passes)
    metrics = {name: (summary.get(name, 0.0), "s") for name in LAYER_TIMES}
    metrics.update((name, (count(name), "bytes" if name == "cli.bytes_written" else "count"))
                   for name in LAYER_COUNTS)
    metrics["trace.layers_self_share"] = (library_self / op_wall, "ratio")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    # the untraced passes in wall seconds, and the kernel time that converts
    # them: what the reference-second scaling of the end-to-end figures removes
    kernel_s = statistics.median(plain.kernels + tally.kernels)
    metrics["wall.latency_p50_s"] = (statistics.median(plain.latencies), "s")
    metrics["wall.ops_per_s"] = (len(plain.latencies) / plain.timed, "1/s")
    metrics["wall.unknowns_per_s"] = (plain.unknowns / plain.timed, "1/s")
    metrics["calibration.kernel_s"] = (kernel_s, "s")

    print("per-layer (traced): %d traced passes of %d ops; figures are per pass"
          % (per, len(wl.items)))
    print("  op wall time per traced pass: %.6g s (base of every share below)" % op_wall)
    print("  %-42s %10s %12s %12s %8s %8s" % ("function / layer", "calls", "busy_s", "self_s",
                                            "busy%", "self%"))
    rows = ["%s.%s" % (layer, func) for layer, func, _ in spans.TRACED] + list(spans.LAYERS)
    for name in rows:
        busy = summary.get(name + ".busy_s", 0.0)
        own = summary.get(name + ".self_s", 0.0)
        calls = count(name + ".calls") if "." in name else ""
        print("  %-42s %10s %12.6g %12.6g %7.2f%% %7.2f%%"
              % (name, calls, busy, own, 100 * busy / op_wall, 100 * own / op_wall))
    print("  %-42s %10s %12s %12.6g %8s %7.2f%%"
          % ("benchmark glue (bench.op self)", "", "", glue, "", 100 * glue / op_wall))
    print("  layer self times %.6g s + glue %.6g s = %.6g s of %.6g s op wall"
          % (library_self, glue, library_self + glue, op_wall))
    for name in LAYER_COUNTS:
        if not name.endswith(".calls"):
            show(name, count(name), metrics[name][1], "per pass")
    print("  tracing overhead: traced %.6g s/pass vs untraced %.6g s/pass (reference seconds; "
          "base: untraced, %d passes each): ratio %.4f"
          % (tally.ref_timed / tally.passes, plain.ref_timed / plain.passes, plain.passes,
             overhead))
    print("  spans written to %s (%d spans)" % (os.path.relpath(span_path), len(tracer.spans)))
    print("untraced passes in wall seconds, %d ops; reference = wall * %.6g / kernel s"
          % (len(plain.latencies), CAL_REFERENCE_S))
    for name in ("wall.latency_p50_s", "wall.ops_per_s", "wall.unknowns_per_s"):
        show(name, metrics[name][0], metrics[name][1])
    show("calibration.kernel_s", kernel_s, "s", "median of %d kernel times in the helper"
         % len(plain.kernels + tally.kernels))
    show("peak_rss_mb", peak_rss_mb(), "MB", "traced run")
    return metrics, [plain, tally]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "shishkin", "__init__.py")):
        print("run.py: no library sources at %s; run from a checkout of the repository" % SRC,
              file=sys.stderr)
        return 2
    calibration_seconds()  # start and warm the kernel's helper before the library loads
    sys.path[:0] = [SRC, HERE]
    import shishkin
    import workloads

    if not os.path.abspath(shishkin.__file__).startswith(SRC + os.sep):
        print("run.py: imported shishkin from %s, not %s" % (shishkin.__file__, SRC),
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error("--workload must be one of %s" % ", ".join(workloads.WORKLOADS))
    print("workload %s, seed %d, %d s, trace %d; closed loop, 1 client, 1 process"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("machine: " + ", ".join("%s=%s" % kv for kv in machine_facts().items()))
    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.warm_up()
    metrics, tallies = (traced if args.trace else end_to_end)(wl, args)
    attempted = sum(len(t.latencies) for t in tallies)
    noted = sum(t.noted for t in tallies)
    print("notes (reported, not failures): %d of %d ops" % (noted, attempted))
    for tally in tallies:
        for line in tally.first_notes:
            print("NOTE " + line)
        for line in tally.first_failures:
            print("FAILED " + line)
    failed = sum(t.failed for t in tallies)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
