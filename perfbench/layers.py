"""Per-layer metrics of a traced run, each per traced pass.

Self times come from :mod:`tracing`'s spans; counts come from values the
layers already return (``RunResult``, ``LaunchResult``, ``EngineStats``,
``DSEResult``) and, for the service, from the daemon's ``health`` reply
and the client's own timings. ``trace.other_s`` is the traced pass's
wall time not covered by any layer's CPU self time: the benchmark's own
loop, unwrapped code, idle waits and I/O waits. The CPU self times and
``trace.other_s`` add up to ``trace.wall_s``.
"""

from __future__ import annotations

import statistics
from collections import Counter

from tracing import SELF_TIME_METRICS, cpu_metric

PER_LAYER = {
    **{name: "s" for name in SELF_TIME_METRICS.values()},
    **{cpu_metric(name): "s" for name in SELF_TIME_METRICS.values()},
    "ocl.interp_calls": "count",
    "ocl.interp_items": "count",
    "ocl.interp_instrs": "count",
    "ocl.interp_kinstr_per_s": "kinstr/s",
    "vortex.codegen_calls": "count",
    "vortex.static_instrs": "count",
    "simx.launches": "count",
    "simx.kcycles_per_s": "kcycles/s",
    "simx.kinstr_per_s": "kinstr/s",
    "simx.cycles": "count",
    "simx.instrs": "count",
    "simx.lsu_stalls": "count",
    "simx.idle_cycles": "count",
    "simx.dcache_hit_rate": "ratio",
    "simx.dram_row_hit_rate": "ratio",
    "harness.engine.points": "count",
    "harness.engine.executed": "count",
    "harness.engine.cache_hits": "count",
    "harness.engine.failed": "count",
    "harness.engine.retried": "count",
    "harness.cache.gets": "count",
    "harness.cache.puts": "count",
    "harness.cache.hit_ratio": "ratio",
    "harness.dse.screen_s": "s",
    "harness.dse.screened": "count",
    "harness.dse.frontier_size": "count",
    "harness.dse.confirmations": "count",
    "service.journal.appends": "count",
    "service.submit_ms": "ms",
    "service.results_ms": "ms",
    "service.polls_per_job": "count",
    "service.coalesced": "count",
    "service.accepted": "count",
    "setup.import_s": "s",
    "setup.daemon_start_s": "s",
    "host.reference_ms": "ms",
    "trace.wall_s": "s",
    "trace.other_s": "s",
    "trace.overhead_ratio": "ratio",
}

#: counters that must repeat exactly between two traced runs of one
#: seed: a change that claims to leave the modelled work alone keeps them.
PINNED = (
    "simx.cycles", "simx.instrs", "ocl.interp_instrs",
    "vortex.static_instrs", "harness.engine.executed",
    "harness.engine.cache_hits", "harness.dse.confirmations",
    "service.coalesced",
)

_PLAIN_COUNTS = (
    "ocl.interp_calls", "ocl.interp_items", "ocl.interp_instrs",
    "vortex.codegen_calls", "vortex.static_instrs", "simx.launches",
    "simx.cycles", "simx.instrs", "simx.lsu_stalls", "simx.idle_cycles",
    "harness.engine.points", "harness.engine.executed",
    "harness.engine.cache_hits", "harness.engine.failed",
    "harness.engine.retried", "harness.cache.gets", "harness.cache.puts",
    "harness.dse.screen_s", "harness.dse.screened",
    "harness.dse.frontier_size", "harness.dse.confirmations",
    "service.journal.appends",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer, traced, untraced, setups, reference) -> dict:
    """Per-layer metrics; times here are as measured, not scaled."""
    passes = len(traced)
    self_s, counts = tracer.self_s, tracer.counts
    metrics = {}
    for layer, name in SELF_TIME_METRICS.items():
        metrics[name] = self_s[layer] / passes
        metrics[cpu_metric(name)] = tracer.cpu_s[layer] / passes
    for name in _PLAIN_COUNTS:
        metrics[name] = counts[name] / passes
    metrics["ocl.interp_kinstr_per_s"] = _ratio(
        counts["ocl.interp_instrs"], self_s["ocl.interp"]) / 1e3
    metrics["simx.kcycles_per_s"] = _ratio(
        counts["simx.cycles"], self_s["simx.launch"]) / 1e3
    metrics["simx.kinstr_per_s"] = _ratio(
        counts["simx.instrs"], self_s["simx.launch"]) / 1e3
    for rate in ("dcache_hit_rate", "dram_row_hit_rate"):
        metrics[f"simx.{rate}"] = _ratio(counts[f"simx.{rate}_sum"],
                                         counts["simx.launches"])
    metrics["harness.cache.hit_ratio"] = _ratio(
        counts["harness.cache.hits"], counts["harness.cache.gets"])

    client = sum((result.counts for result in traced), Counter())
    metrics["service.submit_ms"] = _ratio(client["submit_s"],
                                          client["submits"]) * 1e3
    metrics["service.results_ms"] = _ratio(client["results_s"],
                                           client["polls"]) * 1e3
    metrics["service.polls_per_job"] = _ratio(client["polls"],
                                              client["jobs"])
    metrics["service.coalesced"] = client["coalesced"] / passes
    metrics["service.accepted"] = client["accepted"] / passes

    metrics["setup.import_s"] = statistics.median(
        s["import_s"] for s in setups)
    metrics["setup.daemon_start_s"] = statistics.median(
        s["daemon_start_s"] for s in setups)

    metrics["host.reference_ms"] = min(reference) * 1e3

    traced_wall = statistics.median(r.wall_s for r in traced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.other_s"] = (sum(r.wall_s for r in traced)
                                - sum(tracer.cpu_s.values())) / passes
    metrics["trace.overhead_ratio"] = traced_wall / statistics.median(
        r.wall_s for r in untraced)
    return metrics
