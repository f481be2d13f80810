"""The benchmark's three workloads and the checks on their outputs.

Each workload is built from a seed and then runs passes of fixed work.
A *point* is one unit a user waits on: a Table-I row, a Fig. 7 cell or
a service job. Every point is checked against ``expected.json``; a point
fails if it raises or its output differs.

* ``table1`` - all 28 Table-I rows through both flows with validation.
  The reference interpreter (HLS flow) takes most of the time and SimX
  (soft-GPU flow) about a quarter; row cost is heavy-tailed (lavamd
  about 1 s, the median row about 0.1 s). A change to the interpreter
  shows here, and a SimX change only in part.
* ``fig7`` - the Fig. 7 grid: vecadd and transpose, C=4, W and T in
  {2,4,8,16}, n=4096. Almost all time is in ``Machine.launch`` and the
  interpreter is never called; the T=2 columns take SimX's tiny-warp
  path. It isolates SimX and should not move for interpreter or service
  changes.
* ``campaign`` - one client against an in-process ``ExperimentDaemon``
  (``jobs=1``) on a fresh state directory, with two daemons per pass:
  the first computes small-n fig7 cells and the calibrated DSE job, the
  second serves those cells from the durable cache beside new ones
  (reads beside writes); each then gets seeded repeats that coalesce.
  Most jobs are cheap, so admission, journal, result cache, engine and
  protocol round trips carry the time; it is the one workload where
  they do.

The seed only orders the work and picks the repeats, so every seed does
the same simulation.
"""

from __future__ import annotations

import gc
import json
import random
import shutil
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent

SIZES = (2, 4, 8, 16)
SWEEP_BENCHMARKS = ("vecadd", "transpose")
FIG7_CORES, FIG7_N = 4, 4096
#: campaign fig7-cell jobs are small, so fresh simulation stays a
#: minority of the campaign's time.
CAMPAIGN_N = 128
#: the calibrated DSE job every campaign pass submits once.
DSE_JOB = {"kind": "dse", "benchmark": "vecadd", "n": 1024}
#: the row of fig7 cells new to the second daemon of a pass.
NEW_CELL_WARPS = 16
#: seeded repeats per daemon. Fresh jobs are then under 5% of a pass's
#: jobs, so both latency percentiles measure service round trips.
REPEATS = 700
#: jobs a client keeps outstanding.
WINDOW = 4
#: fixed sleep between polls of the outstanding jobs.
POLL_S = 0.001
#: campaign jobs finished per booking (see ``Campaign._drive``).
BOOK_EVERY = 50


def load_expected() -> dict:
    return json.loads((HERE / "expected.json").read_text())


def cell_key(benchmark: str, warps: int, threads: int) -> str:
    return f"{benchmark}/w{warps}/t{threads}"


@dataclass
class PassResult:
    """Latencies and output checks of the points one pass finished."""

    wall_s: float = 0.0
    #: point latencies, scaled to full host speed (``Budget.spend``).
    latencies: list[float] = field(default_factory=list)
    #: which point each latency belongs to, the same across passes.
    points: list = field(default_factory=list)
    failures: int = 0
    #: accounting errors found in the daemons' health replies.
    problems: list[str] = field(default_factory=list)
    #: campaign client counters (traced passes report them).
    counts: Counter = field(default_factory=Counter)
    #: scaled durations of the campaign's consecutive steps.
    steps: list[float] = field(default_factory=list)


class _EnginePoints:
    """A pass is the workload's points in a seeded order, one
    ``ExperimentEngine.run`` call each so a run can stop between
    points."""

    label = ""

    def __init__(self, seed: int):
        from repro.harness.engine import ExperimentEngine

        self.rng = random.Random(seed)
        self.engine = ExperimentEngine(jobs=1, keep_going=True)

    def run_pass(self, stop) -> PassResult:
        order = list(enumerate(self.points))
        self.rng.shuffle(order)
        result = PassResult()
        fn = self.point_fn()  # looked up per pass: a traced pass wraps it
        started = time.perf_counter()
        for index, point in order:
            if stop():
                break
            t0 = time.perf_counter()
            (value,) = self.engine.run(fn, [point], label=self.label)
            latency = time.perf_counter() - t0
            result.latencies.append(latency * stop.spend(latency, 1))
            result.points.append(index)
            result.failures += not self.check(point, value)
            gc.collect()  # a point's garbage is freed outside the timing
        result.wall_s = time.perf_counter() - started
        return result

    def pass_s(self, passes, typical: dict) -> float:
        """Points run one after another, so a pass takes the sum of each
        point's typical time."""
        if len(typical) != len(self.points):
            raise RuntimeError("some point was never measured")
        return sum(typical.values())

    def close(self) -> None:
        self.engine.close()


class Table1(_EnginePoints):
    label = "table1"

    def __init__(self, seed: int, expected: dict, scratch: Path):
        super().__init__(seed)
        from repro.benchmarks import all_benchmarks

        self.points = [(b.name, 1, True, None) for b in all_benchmarks()]
        self.expected = expected["table1"]

    def point_fn(self):
        from repro.harness import coverage

        return coverage.coverage_point

    def check(self, point, value) -> bool:
        from repro.errors import PointFailure

        if isinstance(value, PointFailure):
            return False
        vortex_ok, hls_ok, reason = self.expected[value["table_name"]]
        vortex, hls = value["vortex"], value["hls"]
        return (vortex["passed"] == vortex_ok and hls["passed"] == hls_ok
                and (hls_ok or hls["reason"] == reason)
                and not vortex["error"] and not hls["error"])

    def warm_up(self) -> None:
        pass  # constructing the point list imported every benchmark


class Fig7(_EnginePoints):
    label = "fig7"

    def __init__(self, seed: int, expected: dict, scratch: Path):
        super().__init__(seed)
        from repro.vortex import VortexConfig

        self.points = [
            (bench, VortexConfig().with_geometry(
                cores=FIG7_CORES, warps=w, threads=t), FIG7_N)
            for bench in SWEEP_BENCHMARKS for w in SIZES for t in SIZES]
        self.expected = expected["fig7"]

    def point_fn(self):
        from repro.harness import sweep

        return sweep.sweep_point

    def check(self, point, value) -> bool:
        from repro.errors import PointFailure

        if isinstance(value, PointFailure):
            return False
        bench, config, _ = point
        want = self.expected[cell_key(bench, config.warps, config.threads)]
        return value == want

    def warm_up(self) -> None:
        from repro.harness.sweep import sweep_point

        for bench, config, _ in self.points[:: len(self.points) // 2]:
            sweep_point(bench, config, CAMPAIGN_N)


def _cell_job(cell: tuple[str, int, int]) -> dict:
    bench, warps, threads = cell
    return {"kind": "fig7-cell", "benchmark": bench, "warps": warps,
            "threads": threads, "cores": FIG7_CORES, "n": CAMPAIGN_N}


class Campaign:
    """Two daemons per pass on one fresh state directory.

    Each daemon gets two waves; the second starts once the first has
    finished. The first wave is fresh work: the first daemon gets the
    DSE job (first, so exactly ``WINDOW - 1`` jobs queue behind it) and
    the fig7 cells outside the ``NEW_CELL_WARPS`` row; the second daemon
    gets those cells again (cache hits) interleaved with the new row
    (reads beside writes). The second wave is ``REPEATS`` seeded repeats
    of the daemon's specs, which coalesce onto finished jobs. The plan
    is drawn once from the seed and replayed every pass, so each pass
    does identical work, and the seed only orders the waves and picks
    the repeats.
    """

    def __init__(self, seed: int, expected: dict, scratch: Path):
        rng = random.Random(seed)
        cells = [_cell_job((b, w, t)) for b in SWEEP_BENCHMARKS
                 for w in SIZES for t in SIZES]
        known = [c for c in cells if c["warps"] != NEW_CELL_WARPS]
        rng.shuffle(known)
        mixed = list(cells)
        rng.shuffle(mixed)
        first = [dict(DSE_JOB)] + known
        self.phases = [
            [first, [rng.choice(first) for _ in range(REPEATS)]],
            [mixed, [rng.choice(mixed) for _ in range(REPEATS)]],
        ]
        self.cells = expected["campaign_cells"]
        self.dse_best = expected["campaign_dse_best"]
        self.scratch = scratch
        self.passes = 0

    def warm_up(self) -> None:
        # code_fingerprint() hashes the source once per process, on the
        # first ResultCache; users pay it once per daemon, not per job.
        from repro.harness.result_cache import code_fingerprint

        code_fingerprint()

    def check(self, spec: dict, reply: dict) -> bool:
        if reply.get("state") != "done":
            return False
        value = reply.get("value")
        if spec["kind"] == "dse":
            best = (value or {}).get("best") or {}
            return best.get("geometry") == self.dse_best
        return value == self.cells[cell_key(spec["benchmark"],
                                            spec["warps"], spec["threads"])]

    def run_pass(self, stop) -> PassResult:
        from repro.service import ExperimentDaemon, ServiceClient

        self.passes += 1
        state = self.scratch / f"campaign-{self.passes}"
        result = PassResult()
        started = time.perf_counter()
        mark, counted = started, 0

        def step() -> None:
            nonlocal mark, counted
            seconds = time.perf_counter() - mark
            scale = stop.spend(seconds, len(result.latencies) - counted)
            result.steps.append(seconds * scale)
            result.latencies[counted:] = [
                latency * scale for latency in result.latencies[counted:]]
            mark, counted = time.perf_counter(), len(result.latencies)

        try:
            position = 0
            for phase, waves in zip(("first", "second"), self.phases):
                daemon = ExperimentDaemon(state, jobs=1)
                daemon.start()
                try:
                    client = ServiceClient(state, client_id="perfbench")
                    step()
                    for wave in waves:
                        self._drive(client, list(enumerate(wave, position)),
                                    result, step)
                        position += len(wave)
                        step()
                    self._reconcile(phase, client.health(),
                                    sum(map(len, waves)), result)
                    client.drain()
                except BaseException:
                    daemon.request_stop()
                    raise
                finally:
                    if not daemon.wait(60):
                        raise RuntimeError(f"{phase} daemon did not stop")
                step()
            result.wall_s = time.perf_counter() - started
        finally:
            shutil.rmtree(state, ignore_errors=True)
        gc.collect()
        return result

    def pass_s(self, passes, typical: dict) -> float:
        """Jobs overlap inside a wave, but the pass's steps (daemon
        start, each wave, reconcile and stop) run one after another: the
        sum of each step's median time."""
        return sum(map(statistics.median, zip(*(p.steps for p in passes))))

    def _drive(self, client, jobs: list[tuple[int, dict]],
               result: PassResult, step) -> None:
        """Closed loop: at most ``WINDOW`` jobs outstanding. A job's
        latency runs from its submit to the first ``done`` reply. A new
        job is polled right after its submit; outstanding jobs are
        polled once per round, with a fixed ``POLL_S`` sleep after a
        round in which nothing happened.

        Every ``BOOK_EVERY`` finished jobs, at a moment when none is
        outstanding, ``step()`` books the work so far, so a long wave is
        scaled to host speed in short pieces."""
        counts = result.counts
        outstanding: list[tuple[str, int, dict, float]] = []
        pending = list(jobs)
        booked = len(result.latencies)

        def poll(entry) -> bool:
            job_id, index, spec, t0 = entry
            p0 = time.perf_counter()
            reply = client.results(job_id)
            now = time.perf_counter()
            counts["results_s"] += now - p0
            counts["polls"] += 1
            if reply.get("state") not in ("done", "failed"):
                return False
            result.latencies.append(now - t0)
            result.points.append(index)
            result.failures += not self.check(spec, reply)
            return True

        while pending or outstanding:
            progressed = False
            for entry in list(outstanding):
                if poll(entry):
                    outstanding.remove(entry)
                    progressed = True
            if pending and len(outstanding) < WINDOW:
                index, spec = pending.pop(0)
                t0 = time.perf_counter()
                reply = client.submit(spec)
                counts["submit_s"] += time.perf_counter() - t0
                counts["submits"] += 1
                entry = (reply["job_id"], index, spec, t0)
                if not poll(entry):
                    outstanding.append(entry)
                progressed = True
            if not progressed:
                time.sleep(POLL_S)
            if (not outstanding
                    and len(result.latencies) - booked >= BOOK_EVERY):
                step()
                booked = len(result.latencies)

    @staticmethod
    def _reconcile(phase: str, health: dict, submitted: int,
                   result: PassResult) -> None:
        """Every submission is accepted, coalesced or an idempotent
        replay, and every accepted job finished."""
        counters = health["counters"]
        accepted = health["accepted_total"]
        coalesced = counters.get("service.coalesced", 0)
        replays = counters.get("service.idempotent_replays", 0)
        finished = health["done_total"] + health["failed_total"]
        if accepted + coalesced + replays != submitted:
            result.problems.append(
                f"{phase} daemon: accepted {accepted} + coalesced "
                f"{coalesced} + replays {replays} != {submitted} submitted")
        if finished != accepted:
            result.problems.append(
                f"{phase} daemon: done+failed {finished} != accepted "
                f"{accepted}")
        if health["failed_total"]:
            result.problems.append(
                f"{phase} daemon: {health['failed_total']} job(s) failed")
        result.counts.update(accepted=accepted, coalesced=coalesced,
                             jobs=submitted)

    def close(self) -> None:
        pass


WORKLOADS = {"table1": Table1, "fig7": Fig7, "campaign": Campaign}
