"""Smoke test of the benchmark: every workload, untraced and traced, at a
tiny size, in a fresh process each.

Run from the root of the repository::

    python3 -m pytest perfbench/test_smoke.py -q

It checks that every metric ``BENCHMARK.json`` names is printed with its
unit, that every correctness gate passes, that on ``pipelined_writes`` the
layers' self times plus the residual add up to the traced time per
operation, and that the benchmark fails cleanly without the program.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.5", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_benchmark_json_lists_defined_workloads():
    import workloads

    for spec in _spec()["workloads"]:
        assert spec["why"] == workloads.WORKLOADS[spec["name"]].why


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize(
    "workload", ["pipelined_writes", "cached_reads", "durable_writes", "check_history"]
)
def test_workload_prints_every_metric_and_passes_its_gate(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = _spec()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values()), values
    if not trace:
        assert all(v > 0 for v in values.values()), values
    elif workload == "pipelined_writes":
        layers = ("net.client", "net.framing", "engine.server", "engine.cache",
                  "store", "checkers", "residual")
        total = sum(values[f"{layer}.self_us_per_op" if layer != "residual"
                           else "residual.us_per_op"] for layer in layers)
        assert total == pytest.approx(values["trace.us_per_op"], rel=1e-9)
        assert values["net.framing.frames_per_op"] > 1.5  # one frame per op each way


def test_fails_cleanly_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("pipelined_writes", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
