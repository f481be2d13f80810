"""Checks on the benchmark's traced runs.

    python3 -m pytest perfbench/test_counters.py

Two traced runs of one seed must report the pinned work counters
exactly, so a later change can show by count that it left the modelled
work alone. The traced split must also match the design each workload
was chosen for (see ``README.md``).
"""

from __future__ import annotations

import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import PER_LAYER, PINNED  # noqa: E402
from tracing import SELF_TIME_METRICS, cpu_metric  # noqa: E402

WORKLOADS = ("table1", "fig7", "campaign")


@functools.lru_cache(maxsize=None)
def traced(workload: str, attempt: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600, cwd=HERE.parent)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert set(result["metrics"]) == set(PER_LAYER)
    return {name: m["value"] for name, m in result["metrics"].items()}


def cpu_self(metrics: dict) -> dict:
    return {layer: metrics[cpu_metric(name)]
            for layer, name in SELF_TIME_METRICS.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_pinned_counters_repeat(workload):
    first, second = traced(workload, 0), traced(workload, 1)
    for name in PINNED:
        assert first[name] == second[name], name


def test_table1_is_interpreter_bound():
    shares = cpu_self(traced("table1", 0))
    assert max(shares, key=shares.get) == "ocl.interp"
    assert traced("table1", 0)["simx.launches"] > 0


def test_fig7_is_simx_bound():
    metrics = traced("fig7", 0)
    assert metrics["simx.launch_cpu_s"] >= 0.9 * metrics["trace.wall_s"]
    assert metrics["ocl.interp_calls"] == 0


def test_campaign_is_service_bound():
    shares = cpu_self(traced("campaign", 0))
    total = sum(shares.values())
    service = sum(v for layer, v in shares.items()
                  if layer.split(".")[0] in ("service", "harness"))
    assert shares["simx.launch"] < total / 2
    assert service > shares["simx.launch"] + shares["ocl.interp"]
    assert traced("campaign", 0)["harness.engine.cache_hits"] > 0
