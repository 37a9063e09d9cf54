"""lieharm benchmark: one command, three seeded workloads, verdicts checked.

    python3 perfbench/run.py --workload {sweep,ladder,exact} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout holding ``src/lieharm``.  Each run starts
fresh single-threaded child processes (BLAS and OpenMP pinned to one thread)
that import the library from ``src``: a few set-up runs, whose median time
from process start to the end of the library's start-up (the interpreter,
numpy and ``import lieharm``) is ``setup_s``, then one worker that runs
whole workload cycles for ``--seconds`` and checks every verdict against
``perfbench/oracle.py``.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The end-to-end times are scaled to a reference host speed
measured by a probe loop (``PROBE_REF_S`` in ``worker.py``).  A record with
the raw times, provenance, input properties and CPU time goes to
``.perfbench_out/``, next to the traced run's spans.

``correct`` is false when an op outside the ill-conditioned stratum fails;
failures inside that stratum are counted in ``failed`` and ``ok_ratio``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_RUNS = 8              # plus the worker's own set-up: setup_s is a median of 9
DEADLINE_S = 170.0          # the whole run, probes included


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, env, deadline) -> tuple:
    """Run one worker; return (monotonic spawn time, its last stdout line as JSON)."""
    cmd = [sys.executable, "-m", "perfbench.worker"] + args
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - start))
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return start, json.loads(proc.stdout.strip().splitlines()[-1])


def provenance() -> dict:
    sha = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError) as exc:
            sha = f"unknown ({type(exc).__name__})"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_sha": sha, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
            "cpu_model": cpu, "platform": platform.platform()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "lieharm", "__init__.py")):
        print(f"error: no lieharm sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    env = child_env()
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    try:
        setup, speeds, imports = [], [], []
        for _ in range(SETUP_RUNS):
            start, early = spawn(common + ["--seconds", "0", "--setup-only"], env, deadline)
            setup.append(early["ready"] - start)
            speeds.append(early["speed"])
            imports.append(early["import_s"])
        start, res = spawn(common + ["--seconds", str(args.seconds),
                                     "--trace", str(args.trace)], env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setup.append(res["ready"] - start)
    speeds.append(res["speed"])
    imports.append(res["import_s"])

    values = dict(res["metrics"])
    values["setup_s"] = statistics.median(t * v for t, v in zip(setup, speeds))
    values["lieharm.import_s"] = statistics.median(imports)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": provenance(),
              "environment": res["environment"], "inputs": res["inputs"],
              "setup_samples_s": setup, "setup_speed_scales": speeds,
              "raw_metrics": res.get("raw_metrics"),
              "cycles": res["cycles"], "wall_s": res["wall_s"],
              "cpu_s": res["cpu_s"], "failures": res["failures"],
              "top_rung_leaders": res.get("top_rung_leaders"), "spans": res.get("spans"),
              "metrics": metrics}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"{args.workload} seed {args.seed}: {res['attempted']} ops in {res['cycles']} cycles, "
          f"wall {res['wall_s']:.2f} s, cpu {res['cpu_s']:.2f} s, failed {res['failed']} "
          f"{res['failures']}", file=sys.stderr)
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
