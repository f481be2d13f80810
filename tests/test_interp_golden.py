"""Golden pin for the reference interpreter.

Every Table-I benchmark runs at scale 1 on :class:`ReferenceBackend`, and
each launch is digested: the dynamic op mix (in the order the interpreter
first counted each opcode), the dynamic instruction total, the printf
lines, and a SHA-256 of every buffer argument after the launch. The HLS
performance model consumes these op counts directly, so an interpreter
change must reproduce them exactly, not just pass each benchmark's numpy
check.

``tests/golden_interp.json`` is regenerated only for an intended change
of interpreter behaviour:

    PYTHONPATH=src python -m tests.test_interp_golden --update
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.benchmarks import all_benchmarks, run_benchmark
from repro.ocl.host import ReferenceBackend

GOLDEN_PATH = Path(__file__).with_name("golden_interp.json")


class _RecordingBackend(ReferenceBackend):
    """Reference backend that digests every launch it runs."""

    def __init__(self):
        super().__init__()
        self.launches: list[dict] = []

    def build(self, kernel):
        compiled = super().build(kernel)
        launch = compiled.launch

        def recording_launch(args, ndrange):
            stats = launch(args, ndrange)
            self.launches.append({
                "kernel": stats.kernel_name,
                "op_counts": [[op.value, n] for op, n
                              in stats.extra["op_counts"].items()],
                "dynamic_instructions": stats.dynamic_instructions,
                "printf": list(stats.printf_output),
                "buffers_sha256": [
                    hashlib.sha256(a.tobytes()).hexdigest()
                    for a in args if isinstance(a, np.ndarray)
                ],
            })
            return stats

        compiled.launch = recording_launch
        return compiled


def digest_benchmark(name: str) -> list[dict]:
    backend = _RecordingBackend()
    result = run_benchmark(name, backend, scale=1)
    assert result.ok, f"{name}: {result.status}: {result.detail}"
    return backend.launches


def compute_golden() -> dict[str, list[dict]]:
    return {b.name: digest_benchmark(b.name) for b in all_benchmarks()}


def _load() -> dict[str, list[dict]]:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_benchmark():
    assert sorted(_load()) == sorted(b.name for b in all_benchmarks())


@pytest.mark.parametrize("name", [b.name for b in all_benchmarks()])
def test_interpreter_matches_golden(name):
    golden = _load()[name]
    fresh = digest_benchmark(name)
    assert len(fresh) == len(golden), f"{name}: launch count changed"
    for i, (want, got) in enumerate(zip(golden, fresh)):
        assert got == want, f"{name}: launch {i} ({want['kernel']}) diverged"


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: python -m tests.test_interp_golden --update")
    GOLDEN_PATH.write_text(json.dumps(compute_golden(), indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
