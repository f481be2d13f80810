"""Unit tests for the unified profiler and its reports, plus the
zero-overhead contract of the disabled (null) profiler.

The null-profiler contract has two halves:

* **no recording work** — when ``enabled`` is False, no recording
  method is ever invoked on the hot paths (asserted with a profiler
  that raises on any recording call);
* **no wall-clock cost** — a fig7-scale sweep with the shipped default
  (disabled) profiler must not be slower than the same sweep with
  profiling enabled (the enabled run does strictly more work), within
  a 5% noise margin. The benchmark is ``slow``-marked.
"""

import json
import time

import numpy as np
import pytest

from repro.ocl import (
    GLOBAL_INT32,
    INT32,
    Context,
    KernelBuilder,
    NDRange,
    interpret,
)
from repro.profiling import (
    NULL_PROFILER,
    NullProfiler,
    ProfileReport,
    Profiler,
    TraceEvent,
    ensure_profiler,
)
from repro.vortex import VortexBackend, VortexConfig


# -- profiler basics ---------------------------------------------------------

def test_counters_accumulate():
    p = Profiler()
    p.count("a.x")
    p.count("a.x", 2)
    p.count_many({"y": 5, "z": 1.5}, prefix="a.")
    assert p.counters["a.x"] == 3
    assert p.counters["a.y"] == 5
    assert p.counters["a.z"] == 1.5


def test_events_and_phases():
    p = Profiler()
    p.complete("work", "cat", ts=10, dur=5, pid=1, tid=2, args={"k": 1})
    p.instant("mark", "cat", ts=12)
    p.sample("load", ts=0, values={"issue": 3, "stall": 1})
    phases = [e.ph for e in p.events]
    assert phases == ["X", "i", "C"]
    chrome = [e.as_chrome() for e in p.events]
    assert chrome[0]["dur"] == 5.0 and chrome[0]["args"] == {"k": 1}
    assert chrome[1]["s"] == "t"
    assert chrome[2]["args"] == {"issue": 3.0, "stall": 1.0}
    assert "dur" not in chrome[1] and "dur" not in chrome[2]


def test_span_records_wall_clock():
    p = Profiler()
    with p.span("phase", cat="host", args={"n": 1}):
        pass
    (event,) = p.events
    assert event.ph == "X" and event.name == "phase"
    assert event.dur >= 0.0
    assert event.ts >= 0.0


def test_cycle_bucket_validation():
    with pytest.raises(ValueError):
        Profiler(cycle_bucket=0)
    assert Profiler(cycle_bucket=1).cycle_bucket == 1


def test_ensure_profiler():
    assert ensure_profiler(None) is NULL_PROFILER
    p = Profiler()
    assert ensure_profiler(p) is p


def test_null_profiler_is_inert():
    p = NullProfiler()
    assert not p.enabled
    p.count("x")
    p.count_many({"y": 1})
    p.complete("a", "b", 0, 1)
    p.instant("a", "b", 0)
    p.sample("a", 0, {"v": 1})
    p.name_process(0, "x")
    p.name_thread(0, 0, "x")
    p.set_meta("k", "v")
    assert not p.counters and not p.events and not p.meta
    assert not NULL_PROFILER.enabled


# -- report ------------------------------------------------------------------

def _sample_report():
    p = Profiler()
    p.set_meta("backend", "simx")
    p.set_meta("kernel", "k")
    p.count("simx.cycles", 100)
    p.count("hls.cycles", 50)
    p.complete("g", "sim", 0, 10)
    p.name_process(1, "core 0")
    p.name_thread(1, 0, "slot 0")
    return p.report(title="t", backend="simx")


def test_report_render():
    text = _sample_report().render()
    assert "== profile: t" in text
    assert "simx.cycles" in text and "100" in text
    assert "kernel: k" in text
    # the backend meta key must not be duplicated below the header
    assert text.count("backend: simx") == 1


def test_report_chrome_trace_structure(tmp_path):
    report = _sample_report()
    doc = report.chrome_trace()
    names = [e["name"] for e in doc["traceEvents"]]
    assert "process_name" in names and "thread_name" in names
    assert "g" in names
    assert doc["otherData"]["backend"] == "simx"
    path = report.save_chrome_trace(tmp_path / "t.trace.json")
    reloaded = json.loads(path.read_text())
    assert reloaded["traceEvents"]


def test_report_json_summary(tmp_path):
    report = _sample_report()
    doc = report.to_json()
    assert doc["counters"]["simx.cycles"] == 100
    assert doc["events"]["spans"] == 1
    path = report.save_json(tmp_path / "t.json")
    assert json.loads(path.read_text())["title"] == "t"


def test_report_detached_from_profiler():
    p = Profiler()
    p.count("x", 1)
    report = p.report()
    p.count("x", 41)
    assert report.counters["x"] == 1


# -- disabled-profiler contract ----------------------------------------------

class _Tripwire(NullProfiler):
    """Disabled profiler that fails the test on any recording call."""

    def _trip(self, *a, **k):
        raise AssertionError(
            "recording method called although profiling is disabled")

    count = count_many = complete = instant = sample = _trip
    name_process = name_thread = set_meta = _trip


def _barrier_kernel():
    b = KernelBuilder("bar")
    dst = b.param("dst", GLOBAL_INT32)
    lmem = b.local_array("lmem", INT32, 8)
    gid = b.global_id(0)
    lid = b.local_id(0)
    b.store(lmem, lid, gid)
    b.barrier()
    b.store(dst, gid, b.load(lmem, b.rem(b.add(lid, 1), b.const(8))))
    return b.finish()


def test_disabled_profiler_records_nothing():
    """Hot paths must skip all recording work when profiling is off."""
    ctx = Context(VortexBackend(VortexConfig(cores=2, warps=2, threads=4),
                                profiler=_Tripwire()))
    prog = ctx.program([_barrier_kernel()])
    buf = ctx.alloc(64, np.int32)
    prog.launch("bar", [buf], 64, 8)  # raises if anything records


def test_interpreter_disabled_profiler_records_nothing():
    out = np.zeros(24, dtype=np.int32)
    interpret(_barrier_kernel(), [out], NDRange.create(24, 8),
              profiler=_Tripwire())  # raises if anything records


def test_interpreter_group_spans_and_counters():
    """Group spans sit on a timeline of dynamic instructions, and the
    counters keep their recording order, the op mix listing opcodes in
    the order they first ran."""
    p = Profiler()
    out = np.zeros(24, dtype=np.int32)
    interpret(_barrier_kernel(), [out], NDRange.create(24, 8), profiler=p)
    spans = [(e.name, e.cat, e.ph, e.ts, e.dur, e.pid, e.tid, e.args)
             for e in p.events]
    assert spans == [
        (f"group ({g}, 0, 0)", "interp.group", "X", 72 * g, 72, 0, 0,
         {"barriers": 1})
        for g in range(3)
    ]
    assert list(p.counters.items()) == [
        ("interp.items_executed", 24),
        ("interp.barriers_executed", 3),
        ("interp.dynamic_instructions", 216),
        ("interp.groups", 3),
        ("interp.steps_per_item", 9.0),
        ("interp.op.get_global_id", 24),
        ("interp.op.get_local_id", 24),
        ("interp.op.store", 48),
        ("interp.op.barrier", 24),
        ("interp.op.add", 24),
        ("interp.op.rem", 24),
        ("interp.op.load", 24),
        ("interp.op.ret", 24),
    ]
    assert out.tolist() == [
        g * 8 + (lid + 1) % 8 for g in range(3) for lid in range(8)
    ]


@pytest.mark.slow
def test_disabled_profiler_overhead():
    """A fig7-scale sweep with the shipped (disabled) profiler must not
    be slower than the profiled sweep: the enabled run does strictly
    more work, so within a 5% noise margin
    ``disabled <= enabled * 1.05`` must hold."""
    from repro.harness import run_sweep

    def best_of(runs, profile_dir):
        best = float("inf")
        for _ in range(runs):
            t0 = time.perf_counter()
            run_sweep("vecadd", n=4096, warp_sizes=(4, 8),
                      thread_sizes=(4, 8), profile_dir=profile_dir)
            best = min(best, time.perf_counter() - t0)
        return best

    import tempfile

    best_of(1, None)  # warm caches/JIT-ish costs out of the measurement
    disabled = best_of(3, None)
    with tempfile.TemporaryDirectory() as d:
        enabled = best_of(3, d)
    assert disabled <= enabled * 1.05, (
        f"disabled sweep {disabled:.3f}s slower than "
        f"profiled sweep {enabled:.3f}s + 5%"
    )
