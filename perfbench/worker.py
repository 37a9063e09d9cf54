"""Child process of the benchmark: set up one workload, run it, report its figures.

Run from the checkout root as ``python3 -m perfbench.worker`` with ``src`` on
``PYTHONPATH`` (``run.py`` does this).  With ``--setup-only`` it stops once
the interpreter, numpy and lieharm are loaded, before the harness builds any
input, and reports the monotonic clock reading and the host speed scale, so
the parent can time the program's start-up.  Otherwise it runs whole cycles
of the workload until ``--seconds`` of cycle time have passed and prints one
JSON object on stdout.  With ``--trace 1`` even cycles run traced and odd
cycles untraced, which gives the tracing overhead from the same run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
from array import array
from fractions import Fraction

T0 = time.perf_counter()
import lieharm  # noqa: E402  (the import is part of what setup_s measures)

IMPORT_S = time.perf_counter() - T0

import numpy as np  # noqa: E402

from perfbench import tracer as tr  # noqa: E402
from perfbench import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


#: Host-speed probe.  On shared virtual machines the speed of a vCPU swings
#: by 40-80 % between states that last seconds to minutes, longer than a
#: run.  A fixed kernel that never touches lieharm slows down with the
#: workload, so each op's latency is scaled by ``PROBE_REF_S / probe``, with
#: ``probe`` the mean of the readings taken just before and just after it:
#: times are reported at the host speed where the kernel takes
#: ``PROBE_REF_S``.  The kernel mixes the kinds of work the workloads do
#: (bytecode loops, ``Fraction`` arithmetic, small allocations, small numpy
#: calls) in about equal parts.  On a 2-vCPU Intel Xeon VM, over 200 s of the
#: float and exact towers, it cut the spread (IQR / median) of each rung's
#: time across cycles from 0.11-0.42 to 0.04-0.15 (single parts: 0.04-0.24),
#: and the ten-seed spread of the end-to-end times from up to 0.35 to at
#: most 0.10.  Raw times go to the run's record.
PROBE_REF_S = 1.2e-3
PROBE_EVERY_S = 0.25           # op time between two readings
_PROBE_MATRIX = np.arange(16.0).reshape(4, 4) / 16.0
_EINSUM = np.einsum            # bound before the tracer can wrap it


def probe() -> float:
    """Fastest of three runs of the probe kernel, in seconds."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(5000):
            acc += i * i
        frac = Fraction(0)
        for i in range(1, 60):
            frac = (frac + Fraction(i % 5 + 1, i % 3 + 1)) * Fraction(2, 3)
        table = {}
        for i in range(1000):
            table[(i, i & 7)] = [i, i + 1.0]
        for _ in range(100):
            _EINSUM("ij,jk->ik", _PROBE_MATRIX, _PROBE_MATRIX)
        best = min(best, time.perf_counter() - t0)
    return best


class Tally:
    """Latencies and verdict counts of every timed op.  Each op adds two
    doubles (raw and speed-scaled latency), so the harness's own memory
    stays flat however many ops a run makes and ``peak_rss_mb`` measures
    the library."""

    def __init__(self):
        self.raw = array("d")
        self.lat = array("d")          # raw latency times the speed scale
        self.top = array("L")          # indices of top-rung ops
        self.failed = 0
        self.correct = True            # false once an op outside the ill-conditioned stratum fails
        self.failures = set()
        self.last_probe = probe()
        self.pending = 0.0             # op time since the last reading

    def add(self, op, dt: float, ok: bool, exc) -> None:
        if op.top:
            self.top.append(len(self.raw))
        self.raw.append(dt)
        self.pending += dt
        if self.pending >= PROBE_EVERY_S:
            self.flush()
        if not ok:
            self.failed += 1
            self.correct = self.correct and op.stratum == "illcond"
            self.failures.add(f"{op.kind}:{type(exc).__name__ if exc is not None else None}")

    def flush(self) -> None:
        """Take a probe reading and scale the ops timed since the last one."""
        now = probe()
        scale = 2.0 * PROBE_REF_S / (self.last_probe + now)
        self.lat.extend(dt * scale for dt in self.raw[len(self.lat):])
        self.last_probe = now
        self.pending = 0.0

    def summary(self) -> dict:
        return {"attempted": len(self.raw), "failed": self.failed, "correct": self.correct,
                "failures": sorted(self.failures)}


def run_cycle(ops, tally, tracer=None, first_id=0) -> dict:
    """Run ``ops`` closed-loop, adding each op to ``tally``; return the
    cycle's busy and wall time, plus the tracer's per-op figures when traced."""
    cycle = {"traced": tracer is not None, "recipe_attempts": 0, "recipe_results": 0,
             "shares": [], "leaders": {}}
    first = len(tally.raw)
    start = time.perf_counter()
    for k, op in enumerate(ops):
        if tracer is not None:
            tracer.start_op(first_id + k)
            tracer.active = True
        exc = out = None
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as e:  # the verdict check decides whether it was admissible
            exc = e
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
            fold_op(cycle, op, exc, dt, tracer)
        tally.add(op, dt, op.verdict(out, exc), exc)
    tally.flush()
    cycle["wall"] = time.perf_counter() - start
    cycle["busy"] = sum(tally.lat[first:])      # speed-scaled op time
    return cycle


def fold_op(cycle, op, exc, dt, tracer) -> None:
    """Add one traced op's span figures to its cycle."""
    if op.kind.startswith("recipe."):
        cycle["recipe_results"] += exc is None
        cycle["recipe_attempts"] += tracer.op_calls.get("semidirect.inner_action_data", 0)
    if op.top:
        cycle["shares"].append(tracer.op_self.get("core.jacobi_defect", 0.0) / dt)
        if tracer.op_self:
            name = max(tracer.op_self, key=tracer.op_self.get)
            cycle["leaders"][name] = cycle["leaders"].get(name, 0) + 1


def nearest_rank(values, q: float) -> float:
    """The q-quantile by nearest rank: the smallest value with at least
    a share q of the samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered) - 1e-9) - 1)]


def end_to_end(lat, top, wl) -> dict:
    """The timed metrics of ``lat``, with ``top`` the top-rung latencies."""
    return {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * nearest_rank(lat, wl.TAIL),
        "top_rung_s": statistics.median(top),
    }


def per_layer(cycles, tracer) -> dict:
    """Counts from the first traced cycle (they repeat exactly for a seed);
    self times as the median over traced cycles."""
    traced = [c for c in cycles if c["traced"]]
    plain = [c for c in cycles if not c["traced"]]
    first = traced[0]
    out = {}
    for name in sorted(tracer.names):
        out[f"{name}.calls"] = first["calls"].get(name, 0)
        out[f"{name}.errors"] = first["errors"].get(name, 0)
        out[f"{name}.self_s"] = statistics.median(c["self_s"].get(name, 0.0) for c in traced)
    for layer in tr.LAYER.values():
        out[f"{layer}.self_s"] = statistics.median(
            sum(v for k, v in c["self_s"].items() if k.startswith(layer + ".")) for c in traced)
    for mod_name, attr in tr.NUMPY:
        name = f"{mod_name}.{attr}"
        out[f"{name}.calls"] = first["numpy_calls"].get(name, 0)
        out[f"{name}.time_s"] = statistics.median(c["numpy_s"].get(name, 0.0) for c in traced)
    classify = first["calls"].get("maps.classify", 0)
    out["maps.connection_trace.per_classify"] = (
        first["under_anchor"].get("maps.connection_trace", 0) / classify if classify else 0.0)
    results = first["recipe_results"]
    out["semidirect.search.attempts_per_result"] = (
        first["recipe_attempts"] / results if results else 0.0)
    shares = [s for c in traced for s in c["shares"]]
    out["top_rung.jacobi_defect.self_share"] = statistics.median(shares) if shares else 0.0
    busy_traced = statistics.median(c["busy"] for c in traced)
    busy_plain = statistics.median(c["busy"] for c in plain)
    out["tracing.overhead_s"] = busy_traced - busy_plain
    out["tracing.overhead_ratio"] = busy_traced / busy_plain - 1.0
    out["lieharm.import_s"] = IMPORT_S
    return out


def top_rung_leaders(cycles) -> dict:
    """Largest self time inside each traced top-rung op (for the record)."""
    leaders = {}
    for c in cycles:
        for name, count in c["leaders"].items():
            leaders[name] = leaders.get(name, 0) + count
    return leaders


def input_properties(ops) -> dict:
    """Properties of one cycle's inputs."""
    dims = {}
    for op in ops:
        dims[op.dim] = dims.get(op.dim, 0) + 1
    n = len(ops)
    return {
        "ops_per_cycle": n,
        "dim_histogram": {str(k): dims[k] for k in sorted(dims)},
        "memo_reuse_share": sum(op.reuse for op in ops) / n,
        "illcond_share": sum(op.stratum == "illcond" for op in ops) / n,
        "top_ops_per_cycle": sum(op.top for op in ops),
        "kinds": sorted({op.kind for op in ops}),
    }


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception as exc:  # older numpy has no dict mode; record why
        blas = f"unknown ({type(exc).__name__})"
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "thread_env": {k: os.environ.get(k) for k in
                           ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src", "lieharm")
    if os.path.dirname(os.path.abspath(lieharm.__file__)) != src:
        print(f"error: lieharm imported from {lieharm.__file__}, not {src}", file=sys.stderr)
        return 2
    ready = time.monotonic()     # the harness's own preparation starts here
    speed = PROBE_REF_S / statistics.median(probe() for _ in range(5))
    if args.setup_only:
        print(json.dumps({"ready": ready, "import_s": IMPORT_S, "speed": speed}))
        return 0

    wl = workloads.WORKLOADS[args.workload](args.seed, OUT_DIR)
    ops = wl.cycle(0)
    inputs = input_properties(ops)
    tally = Tally()
    tracer = tr.Tracer() if args.trace else None
    cycles, elapsed, index, first_id = [], 0.0, 0, 0
    cpu0 = time.process_time()
    while True:
        traced = tracer is not None and index % 2 == 0
        if traced:
            tracer.reset_stats()
            tracer.install()
        cycle = run_cycle(ops, tally, tracer if traced else None, first_id)
        if traced:
            tracer.uninstall()
            cycle.update(calls=dict(tracer.calls), self_s=dict(tracer.self_s),
                         errors=dict(tracer.errors), under_anchor=dict(tracer.under_anchor),
                         numpy_calls=dict(tracer.numpy_calls), numpy_s=dict(tracer.numpy_s))
        cycles.append(cycle)
        first_id += len(ops)
        elapsed += cycle["wall"]
        index += 1
        if elapsed >= args.seconds and (tracer is None or index >= 2):
            break
        ops = wl.cycle(index)
    cpu = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0   # before any sort

    result = tally.summary()
    result.update({
        "cycles": len(cycles),
        "wall_s": elapsed,
        "cpu_s": cpu,
        "import_s": IMPORT_S,
        "ready": ready,
        "speed": speed,
        "inputs": inputs,
        "environment": environment(),
    })
    if tracer is None:
        result["metrics"] = end_to_end(tally.lat, [tally.lat[i] for i in tally.top], wl)
        result["metrics"].update(peak_rss_mb=peak_rss_mb,
                                 ok_ratio=1.0 - tally.failed / len(tally.lat))
        result["raw_metrics"] = end_to_end(tally.raw, [tally.raw[i] for i in tally.top], wl)
    else:
        result["metrics"] = per_layer(cycles, tracer)
        result["top_rung_leaders"] = top_rung_leaders(cycles)
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
        tracer.write_spans(spans_path)
        result["spans"] = {"path": os.path.relpath(spans_path, ROOT),
                           "kept": len(tracer.spans), "dropped": tracer.dropped}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
