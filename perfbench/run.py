"""The repository's benchmark: host time of the paper artifacts.

    python3 perfbench/run.py --workload {table1,fig7,campaign} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root. The last line of standard output is one
JSON object: ``correct``, ``attempted`` and ``failed`` points, and the
metrics. With ``--trace 0`` they are the end-to-end metrics, measured
with no wrapper installed:

* ``setup_s`` - median of fresh set-up samples, each in a new
  interpreter, from ``import repro`` until the workload is ready;
* ``wall_s`` - host seconds of one pass of the fixed work: the sum of
  each point's median time over the run's passes (campaign: of each
  step, as its jobs overlap);
* ``point_p50_ms`` - median, over the workload's points, of each
  point's median latency;
* ``point_p90_ms`` - 90th percentile of all latency samples of the run.
  A run takes at least ``MIN_POINTS`` samples, so at least ten lie
  beyond it;
* ``peak_rss_mb`` - peak resident set size of this process.

Every time above is scaled to full host speed. On a shared host other
tenants slow the CPU 1.5-2x for seconds at a time, and its speed drifts
by a quarter over tens of minutes; a median over raw samples moves with
both. So each piece of booked work (a point, a campaign step or run of
jobs, a set-up sample) is followed by a fixed pure-Python task that
uses no repository code, and its time is scaled by ``REFERENCE_S`` over
the mean of the task's times just before and after it: it reads as
seconds on a host where the task takes ``REFERENCE_S``.

With ``--trace 1`` untraced and traced passes alternate, and the
metrics are the per-layer numbers of the traced passes, per pass (see
``README.md`` for the layer map). The spans are written to
``perfbench/out/trace-<workload>.json`` in Chrome-trace format.

The run measures passes until ``--seconds`` of them are measured (and
``MIN_POINTS`` points taken); set-up samples are taken between passes,
so they fall at different moments of the run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: fresh set-up samples per run; their median is the run's ``setup_s``.
SETUP_SAMPLES = 7
#: latency samples per run, so that ten lie beyond the 90th percentile;
#: every Table-I row and Fig. 7 cell is then timed at least three times.
MIN_POINTS = 100

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "point_p50_ms": "ms",
    "point_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

#: the reference task's time on a host at full speed (2-vCPU Intel Xeon
#: VM, Python 3.11); times are reported at that speed.
REFERENCE_S = 0.0025


def reference_task() -> float:
    """Seconds for fixed pure-Python work that uses no repository code:
    dict stores and integer arithmetic, the staple of the interpreter
    and SimX loops."""
    started = time.perf_counter()
    table, acc = {}, 0
    for i in range(20000):
        table[i & 255] = acc
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - started


class Budget:
    """Measured seconds and points so far. ``done()`` once the run has
    measured the requested seconds and points; calling the budget asks
    whether to stop before the next point, which only a run that may end
    mid-pass does.

    Each booking also times the reference task and returns the factor
    that scales the booked work to full host speed: ``REFERENCE_S`` over
    the mean of the reference times just before and just after it."""

    def __init__(self, seconds: float, min_points: int,
                 whole_passes: bool):
        self.seconds = seconds
        self.min_points = min_points
        self.whole_passes = whole_passes
        self.spent = 0.0
        self.points = 0
        #: reference task times, the best of three per booking.
        self.reference: list[float] = []

    def scale(self) -> float:
        """The factor for whatever ran since the previous reference."""
        before = self.reference[-1] if self.reference else None
        after = min(reference_task() for _ in range(3))
        self.reference.append(after)
        return 2 * REFERENCE_S / ((before or after) + after)

    def spend(self, seconds: float, points: int) -> float:
        self.spent += seconds
        self.points += points
        return self.scale()

    def done(self) -> bool:
        return (self.spent >= self.seconds
                and self.points >= self.min_points)

    def __call__(self) -> bool:
        return not self.whole_passes and self.done()


def isolate(scratch: Path) -> None:
    """Nothing ambient may change what is measured, and nothing is
    written outside ``perfbench/out``: drop every ``REPRO_*`` switch
    (cache dir, SimX modes, fault plans, bench updates) and send
    bytecode and temporary files under ``out``."""
    for name in list(os.environ):
        if name.startswith("REPRO_") or name == "PYTHONDONTWRITEBYTECODE":
            del os.environ[name]
    # numpy asks for transparent huge pages on large arrays; whether the
    # kernel grants them depends on the machine's free memory, and moves
    # peak RSS by tens of MB from run to run.
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    # bytecode is cached under out/, whatever the caller's setting, so
    # set-up samples always import from a warm cache.
    os.environ["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    os.environ["TMPDIR"] = str(scratch)
    sys.pycache_prefix = os.environ["PYTHONPYCACHEPREFIX"]
    sys.dont_write_bytecode = False
    sys.path.insert(0, str(SRC))


def setup_sample(workload: str, scratch: Path, index: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(SRC),
         str(scratch / f"setup-{index}")],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def end_to_end(workload, passes, setups) -> dict:
    samples: dict = {}
    for p in passes:
        for point, latency in zip(p.points, p.latencies):
            samples.setdefault(point, []).append(latency)
    typical = {point: statistics.median(v) for point, v in samples.items()}
    return {
        "setup_s": statistics.median(s["ready_s"] * s["scale"]
                                     for s in setups),
        "wall_s": workload.pass_s(passes, typical),
        "point_p50_ms": statistics.median(typical.values()) * 1e3,
        "point_p90_ms": statistics.quantiles(
            [lat for v in samples.values() for lat in v], n=10)[8] * 1e3,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run(args, scratch: Path) -> tuple[dict, list, list]:
    """Measure; returns (metrics, passes, problems)."""
    from workloads import WORKLOADS, load_expected

    workload = WORKLOADS[args.workload](args.seed, load_expected(),
                                        scratch)
    workload.warm_up()
    gc.collect()
    gc.freeze()  # what set-up built is not rescanned after each point
    setup_sample(args.workload, scratch, -1)  # fills the bytecode cache
    # a traced run reports no percentile, and its traced passes must be
    # whole so that counts per pass repeat exactly.
    budget = Budget(args.seconds, 0 if args.trace else MIN_POINTS,
                    whole_passes=bool(args.trace))
    setups: list[dict] = []

    def take_setup() -> None:
        budget.scale()  # the reference just before the sample
        sample = setup_sample(args.workload, scratch, len(setups))
        sample["scale"] = budget.scale()
        setups.append(sample)

    take_setup()
    untraced, traced, tracer = [], [], None
    try:
        while not (budget.done() and (traced or not args.trace)):
            untraced.append(workload.run_pass(budget))
            if args.trace:
                import tracing

                tracer = tracing.install(tracer)
                try:
                    traced.append(workload.run_pass(budget))
                finally:
                    tracer.uninstall()
            if len(setups) < SETUP_SAMPLES:
                take_setup()
    finally:
        workload.close()
    while len(setups) < SETUP_SAMPLES:
        take_setup()
    passes = untraced + traced
    problems = [p for r in passes for p in r.problems]
    if not args.trace:
        return end_to_end(workload, untraced, setups), passes, problems
    from layers import per_layer

    tracer.save_chrome_trace(OUT / f"trace-{args.workload}.json",
                             title=f"perfbench {args.workload}")
    return (per_layer(tracer, traced, untraced, setups, budget.reference),
            passes, problems)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("table1", "fig7", "campaign"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    scratch = OUT / "tmp" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    isolate(scratch)
    try:
        metrics, passes, problems = run(args, scratch)
    except Exception:  # noqa: BLE001 - report and fail without a result
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.failures for p in passes)
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    if args.trace:
        from layers import PER_LAYER as units
    else:
        units = END_TO_END
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
