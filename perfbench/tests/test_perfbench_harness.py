"""Self-tests of the benchmark harness.

Run from the repository root:  python3 -m pytest -q perfbench/tests
They start the benchmark in short runs (about a minute in all).
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import worker, workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def bench(workload, seed=7, trace=0, cwd=ROOT, seconds=0.5):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_prints_every_metric_with_its_unit(workload, trace):
    res = result(bench(workload, trace=trace))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(res["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(res["metrics"][m["name"]]["value"] != 0 for m in wanted)


def _first(ops, kind):
    return next(op for op in ops if op.kind == kind and op.stratum == "main")


def test_injected_wrong_expected_verdict_is_counted_as_failed(tmp_path):
    ops = workloads.Sweep(3, str(tmp_path)).cycle(0)
    cone, tangent = _first(ops, "cone"), _first(ops, "classify.tangent")
    honest = worker.Tally()
    worker.run_cycle([cone, tangent, _first(ops, "cli.cone")], honest)
    assert honest.summary() == {"attempted": 3, "failed": 0, "correct": True, "failures": []}

    ops = workloads.Sweep(3, str(tmp_path)).cycle(0)
    cone, tangent = _first(ops, "cone"), _first(ops, "classify.tangent")
    cone.expected += 1
    tangent.expected = dict(tangent.expected, harmonic=not tangent.expected["harmonic"])
    tally = worker.Tally()
    worker.run_cycle([cone, tangent, _first(ops, "cli.cone")], tally)
    assert tally.summary() == {"attempted": 3, "failed": 2, "correct": False,
                               "failures": ["classify.tangent:None", "cone:None"]}


def test_exact_counts_repeat_for_a_seed():
    keys = ("numpy.einsum.calls", "maps.connection_trace.per_classify", "maps.classify.calls")
    runs = [result(bench("sweep", seed=11, trace=1)) for _ in range(2)]
    first, second = ({k: r["metrics"][k]["value"] for k in keys} | {"failed": r["failed"]}
                     for r in runs)
    assert first == second
    assert first["maps.connection_trace.per_classify"] == 3.0
    assert first["failed"] > 0          # the ill-conditioned stratum fails at the seed


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("sweep", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
