"""Smoke test of the perf harness (``slow``: benchmarks/conftest.py
marks everything under benchmarks/).

Runs ``--quick`` on the two cheap workloads through the real command
and checks that every metric ``BENCHMARK.json`` names is emitted with
its unit and that each result validates against the schema.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from benchmarks.perf.schema import ROOT, load_benchmark, validate_result


@pytest.mark.parametrize("workload", ["endurance-225", "campaign-grid"])
def test_quick_run_emits_every_declared_metric(workload, tmp_path):
    out = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.perf", "--quick", "--workload", workload,
         "--out", str(out), "--traces", str(tmp_path / "traces")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    bench = load_benchmark()
    runs = json.loads(out.read_text())["runs"]
    assert [r["traced"] for r in runs] == [False, True]
    for run in runs:
        assert run["workload"] == workload
        assert validate_result(run["result"], bench, run["traced"]) == []
        assert run["result"]["correct"] and run["result"]["failed"] == 0
        for key in ("git_sha", "python", "numpy", "scipy", "nproc", "threads", "seed"):
            assert key in run["env"]
    # printed by name, with the unit
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert any(
            line.split()[:1] == [metric["name"]] and line.endswith(" " + metric["unit"])
            for line in proc.stdout.splitlines()
        ), metric["name"]
    trace = json.loads((tmp_path / "traces" / f"{workload}-seed0.json").read_text())
    assert trace["raw_spans"] and trace["aggregate"]


def test_benchmark_json_matches_the_harness():
    """The workloads and their reasons are declared once in code and
    once in BENCHMARK.json; they must not drift apart."""
    from benchmarks.perf.workloads import NOMINAL_SECONDS, WORKLOADS

    bench = load_benchmark()
    assert bench["run_seconds"] == NOMINAL_SECONDS
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
