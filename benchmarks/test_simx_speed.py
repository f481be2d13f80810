"""SimX throughput benchmark: simulated-cycles per wall-clock second.

Measures the Fig. 7 benchmarks (vecadd, transpose) on the default SimX
configuration and writes this run's numbers to ``BENCH_simx.run.json``
at the repository root (git-ignored; CI uploads it). Only the time
spent inside ``Machine.launch`` counts (compilation, buffer marshalling
and validation are host-side and excluded); each benchmark takes the
best of ``REPEATS`` runs to damp machine noise.

The committed ``BENCH_simx.json`` doubles as the regression baseline:
a fresh measurement more than ``ALLOWED_REGRESSION`` below the
committed cycles/sec fails the run. A run never moves the baseline on
its own: only ``REPRO_BENCH_UPDATE=1`` rewrites ``BENCH_simx.json``
(and skips the comparison), after an intentional change whose perf
delta is called out in review. Cycle counts are also pinned exactly — a
throughput change must never be a behaviour change in disguise (the
golden-trace layer guards that too).
"""

import json
import os
import platform
import sys
import time
from pathlib import Path

import pytest

from repro.benchmarks.suite import run_benchmark
from repro.vortex import VortexBackend
from repro.vortex.simx.machine import Machine

#: The Fig. 7 benchmark pair, at scales large enough that per-launch
#: fixed costs (dispatch ramp, compile cache) don't dominate timing.
FIG7_BENCHES = (("vecadd", 32), ("transpose", 8))
REPEATS = 3
ALLOWED_REGRESSION = 0.30

#: snapshot cadence for the enabled-path overhead measurement — small
#: enough that a ~34k-cycle run writes several snapshots, so the
#: recorded overhead includes capture+serialise+fsync, not just the
#: boundary polling.
CHECKPOINT_EVERY = 8_192

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_simx.json"
#: This run's numbers (git-ignored); the committed baseline above is
#: rewritten only under ``REPRO_BENCH_UPDATE=1``.
RUN_PATH = BENCH_PATH.with_suffix(".run.json")


def _measure(bench: str, scale: int) -> dict:
    """Best-of-``REPEATS`` simulated-cycles/sec for one benchmark."""
    sim_wall = 0.0
    original = Machine.launch

    def timed(self, *args, **kwargs):
        nonlocal sim_wall
        start = time.perf_counter()
        result = original(self, *args, **kwargs)
        sim_wall += time.perf_counter() - start
        return result

    best = None
    cycles = None
    Machine.launch = timed
    try:
        for _ in range(REPEATS):
            sim_wall = 0.0
            result = run_benchmark(bench, VortexBackend(), scale=scale)
            assert result.ok, f"{bench} failed: {result.status}"
            cycles = result.total_cycles
            if best is None or sim_wall < best:
                best = sim_wall
    finally:
        Machine.launch = original
    return {
        "scale": scale,
        "cycles": cycles,
        "sim_seconds": round(best, 4),
        "cycles_per_sec": round(cycles / best),
    }


def _measure_checkpointed(bench: str, scale: int, ckpt_dir) -> dict:
    """Like :func:`_measure`, but with snapshotting enabled on every
    launch — the *enabled-path* cost (the disabled path is what the
    committed baseline gates; it must stay free)."""
    from repro.vortex.simx.checkpoint import CheckpointPlan, CheckpointStore

    store = CheckpointStore(ckpt_dir)
    saves = 0
    real_save = store.save

    def counting_save(*args, **kwargs):
        nonlocal saves
        saves += 1
        return real_save(*args, **kwargs)

    store.save = counting_save
    sim_wall = 0.0
    original = Machine.launch

    def timed(self, *args, **kwargs):
        nonlocal sim_wall
        start = time.perf_counter()
        result = original(self, *args, **kwargs)
        sim_wall += time.perf_counter() - start
        return result

    best = None
    cycles = None
    Machine.launch = timed
    try:
        for rep in range(REPEATS):
            sim_wall = 0.0
            saves = 0
            plan = CheckpointPlan(store, f"bench-{bench}-r{rep}",
                                  every_cycles=CHECKPOINT_EVERY)
            result = run_benchmark(bench, VortexBackend(checkpoint=plan),
                                   scale=scale)
            assert result.ok, f"{bench} failed: {result.status}"
            cycles = result.total_cycles
            if best is None or sim_wall < best:
                best = sim_wall
    finally:
        Machine.launch = original
    return {
        "cycles": cycles,
        "sim_seconds": round(best, 4),
        "cycles_per_sec": round(cycles / best),
        "snapshot_every_cycles": CHECKPOINT_EVERY,
        "snapshots_per_run": saves,
    }


@pytest.fixture(scope="module")
def measurements():
    return {bench: _measure(bench, scale) for bench, scale in FIG7_BENCHES}


@pytest.fixture(scope="module")
def checkpoint_overhead(measurements, tmp_path_factory):
    base = measurements["vecadd"]
    ckpt = _measure_checkpointed("vecadd", base["scale"],
                                 tmp_path_factory.mktemp("bench-ckpt"))
    # checkpointing must be invisible to the simulation itself.
    assert ckpt["cycles"] == base["cycles"], (
        f"checkpointing changed simulated work: {ckpt['cycles']} vs "
        f"{base['cycles']} cycles")
    slowdown = (base["cycles_per_sec"] / ckpt["cycles_per_sec"]) - 1.0
    ckpt["overhead_pct"] = round(max(0.0, slowdown) * 100, 1)
    extra = max(0.0, ckpt["sim_seconds"] - base["sim_seconds"])
    ckpt["ms_per_snapshot"] = round(
        extra * 1000 / max(1, ckpt["snapshots_per_run"]), 1)
    return ckpt


def _aggregate(measured: dict) -> int:
    total_cycles = sum(m["cycles"] for m in measured.values())
    total_seconds = sum(m["sim_seconds"] for m in measured.values())
    return round(total_cycles / total_seconds)


def test_speed_vs_committed_baseline(measurements):
    if not BENCH_PATH.exists() or os.environ.get("REPRO_BENCH_UPDATE"):
        pytest.skip("no committed BENCH_simx.json baseline")
    committed = json.loads(BENCH_PATH.read_text())
    floor = 1.0 - ALLOWED_REGRESSION
    for bench, measured in measurements.items():
        ref = committed["fig7_benchmarks"][bench]
        # identical simulated work first: cycle counts are exact
        assert measured["cycles"] == ref["cycles"], (
            f"{bench}: simulated {measured['cycles']} cycles, baseline "
            f"simulated {ref['cycles']} — behaviour changed, not speed"
        )
        assert measured["cycles_per_sec"] >= floor * ref["cycles_per_sec"], (
            f"{bench}: {measured['cycles_per_sec']:,} cycles/sec is more "
            f"than {ALLOWED_REGRESSION:.0%} below the committed "
            f"{ref['cycles_per_sec']:,} — perf regression "
            f"(REPRO_BENCH_UPDATE=1 regenerates the baseline if this "
            f"slowdown is intentional)"
        )
    agg = _aggregate(measurements)
    assert agg >= floor * committed["aggregate_cycles_per_sec"]


def test_checkpoint_enabled_path_overhead(checkpoint_overhead):
    """Snapshotting never changes simulated work (asserted in the
    fixture) and a single snapshot stays cheap. The cadence here is
    deliberately ~250x shorter than the production default (2M cycles),
    so the *ratio* is dominated by snapshot count and not gated — the
    per-snapshot wall cost is, with a loose sanity ceiling that still
    catches an accidental uncompressed or quadratic capture."""
    assert checkpoint_overhead["snapshots_per_run"] >= 2, (
        "overhead measurement took too few snapshots to mean anything")
    assert checkpoint_overhead["ms_per_snapshot"] <= 500.0, (
        f"one snapshot costs {checkpoint_overhead['ms_per_snapshot']}ms "
        f"of wall time — snapshot capture has regressed badly")


def test_writes_bench_json(measurements, checkpoint_overhead):
    payload = {
        "schema": 1,
        "fig7_benchmarks": measurements,
        "aggregate_cycles_per_sec": _aggregate(measurements),
        "checkpoint_enabled_path": checkpoint_overhead,
        "meta": {
            "python": sys.version.split()[0],
            "machine": platform.machine(),
            "repeats": REPEATS,
        },
    }
    text = json.dumps(payload, indent=1, sort_keys=True) + "\n"
    RUN_PATH.write_text(text)
    print(f"\nwrote {RUN_PATH}")
    if os.environ.get("REPRO_BENCH_UPDATE"):
        BENCH_PATH.write_text(text)
        print(f"wrote {BENCH_PATH}")
    for bench, m in measurements.items():
        print(f"  {bench} (scale {m['scale']}): {m['cycles']:,} cycles "
              f"in {m['sim_seconds']}s = {m['cycles_per_sec']:,} cyc/s")
    co = checkpoint_overhead
    print(f"  checkpointed vecadd (every {co['snapshot_every_cycles']:,} "
          f"cycles, {co['snapshots_per_run']} snapshots): "
          f"{co['cycles_per_sec']:,} cyc/s ({co['overhead_pct']}% overhead)")
