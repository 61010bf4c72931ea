"""Traced-run coverage test: every layer boundary is where the table says.

Runs each workload once with ``--trace 1`` (about two minutes in all)::

    python3 -m pytest perfbench -q

A boundary predicted to run must record calls; a boundary predicted to
be bypassed must record none, so a refactor that routes around a wrapped
function shows up here as a missing layer rather than a silent zero.
Self times must add up to the traced wall time, so nothing is counted
twice.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import BOUNDARIES, PREDICTED  # noqa: E402

#: bypasses the benchmark's contract names explicitly
MUST_BYPASS = {
    "fig4-sweep": [b for b in BOUNDARIES if b.startswith("kernels.")],
    "serve-evict": ["hashing.h3"],
    "fig2-turbo": [b for b in BOUNDARIES if b.startswith("sim.")],
}


def calls_key(boundary: str) -> str:
    return f"{boundary}.calls"


def self_key(boundary: str) -> str:
    return "serve.lock_wait_s" if boundary == "serve.lock_wait" else f"{boundary}.self_s"


@pytest.fixture(scope="module", params=[
    "fig4-sweep", "paper-capture", "fig2-turbo", "serve-evict",
])
def traced(request, tmp_path_factory):
    workload = request.param
    cwd = tmp_path_factory.mktemp(workload)
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    record = json.loads(
        (cwd / ".bench_out" / f"result-{workload}-seed1-trace1.json").read_text()
    )
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return workload, result, record, metrics


def test_run_is_correct(traced):
    _workload, result, record, _metrics = traced
    assert result["correct"], record["failures"]
    assert result["failed"] == 0


def test_predicted_layers_are_called(traced):
    workload, _result, _record, metrics = traced
    for boundary, (runs, _bypasses) in PREDICTED.items():
        if workload in runs:
            assert metrics[calls_key(boundary)] > 0, boundary
            assert metrics[self_key(boundary)] > 0, boundary


def test_bypassed_layers_record_nothing(traced):
    workload, _result, _record, metrics = traced
    for boundary, (_runs, bypasses) in PREDICTED.items():
        if workload in bypasses:
            assert metrics[calls_key(boundary)] == 0, boundary
    for boundary in MUST_BYPASS.get(workload, []):
        assert workload in PREDICTED[boundary][1], boundary


def test_self_times_sum_to_traced_wall(traced):
    workload, _result, record, metrics = traced
    assert not [f for f in record["failures"] if f.startswith("self time")]
    if workload == "serve-evict":
        return  # three threads; run.py checks each thread's roots itself
    total = sum(metrics[self_key(b)] for b in BOUNDARIES)
    total += metrics["bench.other.self_s"]
    assert total == pytest.approx(metrics["bench.traced_wall_s"], rel=1e-3)
    assert all(metrics[self_key(b)] >= 0 for b in BOUNDARIES)


def test_trace_overhead_reported(traced):
    _workload, _result, _record, metrics = traced
    assert metrics["bench.trace_overhead"] > 0
