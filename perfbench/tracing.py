"""Per-layer spans recorded from outside the code under test.

:func:`install` wraps each layer's public entry points and returns a
:class:`Tracer`; :meth:`Tracer.uninstall` puts the originals back. The
benchmark installs the wrappers only around its traced passes, so a
timed pass never runs through them.

A function imported by name (``from ..ocl.interp import interpret``) is
a separate binding in every importing module, so :meth:`Tracer.patch_function`
replaces the function in every loaded ``repro`` module that holds it.
Methods are patched once on their class.

Each thread keeps its own span stack. A span's self time is its duration
minus the durations of the spans nested in it, on the wall clock and on
the thread's CPU clock. When threads run at once (the campaign's client,
TCP handlers and scheduler), a thread waiting for the interpreter lock
or a reply still accrues wall time, so wall self times there overlap:
the client's request span includes the handler's work. CPU self times
do not overlap, so they add up.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import Counter

#: layer name -> metric name of its wall-clock self time; the CPU self
#: time is reported as :func:`cpu_metric` of it.
SELF_TIME_METRICS = {
    "ocl.build": "ocl.build_s",
    "ocl.validate": "ocl.validate_s",
    "ocl.interp": "ocl.interp_s",
    "passes": "passes.s",
    "hls.build": "hls.build_s",
    "hls.perf": "hls.perf_s",
    "vortex.codegen": "vortex.codegen_s",
    "simx.launch": "simx.launch_s",
    "harness.point": "harness.point_s",
    "harness.engine": "harness.engine.overhead_s",
    "harness.cache.get": "harness.cache.get_s",
    "harness.cache.put": "harness.cache.put_s",
    "harness.dse": "harness.dse.explore_s",
    "calibrate.fit": "calibrate.fit_s",
    "service.rpc": "service.rpc_s",
    "service.conn": "service.conn_s",
    "service.handle": "service.handle_s",
    "service.daemon": "service.daemon_s",
    "service.journal.append": "service.journal.append_s",
    "service.journal.compact": "service.journal.compact_s",
}


def cpu_metric(name: str) -> str:
    """``simx.launch_s`` -> ``simx.launch_cpu_s``; ``passes.s`` ->
    ``passes.cpu_s``."""
    return name[:-1] + "cpu_s"


_MISSING = object()


def _set(owner, name: str, value) -> None:
    # frozen dataclass instances (the benchmark registry) refuse setattr
    (setattr if isinstance(owner, type) else object.__setattr__)(
        owner, name, value)


class Tracer:
    """Span stacks per thread, self time per layer, and layer counts."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._origin = time.perf_counter()
        self._undo: list[tuple[object, str, object]] = []
        self._tids: dict[int, int] = {}
        #: self time per layer, wall clock and this thread's CPU time
        self.self_s: Counter = Counter()
        self.cpu_s: Counter = Counter()
        self.counts: Counter = Counter()
        #: (layer, tid, start_us, dur_us) for the Chrome trace.
        self.spans: list[tuple[str, int, float, float]] = []

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            with self._lock:
                self._tids[threading.get_ident()] = len(self._tids)
        return stack

    def _enter(self, layer: str) -> list:
        stack = self._stack()
        # frame: layer, start, children's time, the same in CPU time
        frame = [layer, time.perf_counter(), 0.0, time.thread_time(), 0.0]
        stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end, cpu_end = time.perf_counter(), time.thread_time()
        layer, start, children, cpu_start, cpu_children = frame
        dur, cpu = end - start, cpu_end - cpu_start
        stack = self._local.stack
        stack.pop()
        if stack:
            stack[-1][2] += dur
            stack[-1][4] += cpu
        tid = self._tids[threading.get_ident()]
        with self._lock:
            self.self_s[layer] += dur - children
            self.cpu_s[layer] += cpu - cpu_children
            self.spans.append((layer, tid, (start - self._origin) * 1e6,
                               dur * 1e6))

    def count(self, name: str, delta: float = 1) -> None:
        with self._lock:
            self.counts[name] += delta

    # -- patching ----------------------------------------------------------

    def wrap(self, layer: str, fn, before=None, after=None):
        """``fn`` inside a ``layer`` span. ``before(*args, **kwargs)``
        returns a state handed to ``after(tracer, result, state)``,
        which records counts from the value the layer returned."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(*args, **kwargs) if before else None
            frame = tracer._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if after is not None:
                after(tracer, result, state)
            return result

        traced._perfbench_traced = True
        return traced

    def patch_attr(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, vars(owner).get(name, _MISSING)))
        _set(owner, name, value)

    def patch_method(self, cls: type, name: str, layer: str,
                     before=None, after=None) -> None:
        """Wrap ``cls.name``, which may be inherited."""
        self.patch_attr(cls, name, self.wrap(layer, getattr(cls, name),
                                             before, after))

    def patch_function(self, module: str, name: str, layer: str,
                       before=None, after=None) -> None:
        """Replace ``module.name`` in every ``repro`` module bound to it."""
        original = getattr(importlib.import_module(module), name)
        wrapper = self.wrap(layer, original, before, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro"
                                   or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.patch_attr(mod, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every original, then check that no wrapper is left
        bound anywhere, so later untimed passes cannot run traced."""
        while self._undo:
            owner, name, value = self._undo.pop()
            if value is _MISSING:
                delattr(owner, name)
            else:
                _set(owner, name, value)
        for mod_name, mod in list(sys.modules.items()):
            if mod is not None and mod_name.startswith("repro"):
                for attr, value in vars(mod).items():
                    if getattr(value, "_perfbench_traced", False):
                        raise RuntimeError(
                            f"{mod_name}.{attr} is still traced")

    # -- export ------------------------------------------------------------

    def save_chrome_trace(self, path, title: str) -> None:
        """Write the spans in the Chrome trace format of
        ``python -m repro profile --trace-out``."""
        from repro.profiling import Profiler

        prof = Profiler()
        for ident, tid in self._tids.items():
            prof.name_thread(0, tid, f"thread {tid}")
        for layer, tid, start, dur in self.spans:
            prof.complete(layer, "perfbench", start, dur, pid=0, tid=tid)
        prof.report(title=title, backend="host").save_chrome_trace(path)


def _after_interp(tracer: Tracer, run, _state) -> None:
    tracer.count("ocl.interp_calls")
    tracer.count("ocl.interp_items", run.items_executed)
    tracer.count("ocl.interp_instrs", run.dynamic_instructions)


def _after_codegen(tracer: Tracer, image, _state) -> None:
    tracer.count("vortex.codegen_calls")
    tracer.count("vortex.static_instrs", image.num_instructions)


def _after_launch(tracer: Tracer, result, _state) -> None:
    tracer.count("simx.launches")
    tracer.count("simx.cycles", result.cycles)
    tracer.count("simx.instrs", result.instructions)
    tracer.count("simx.lsu_stalls", result.lsu_stalls)
    tracer.count("simx.idle_cycles", result.idle_cycles)
    tracer.count("simx.dcache_hit_rate_sum", result.dcache_hit_rate)
    tracer.count("simx.dram_row_hit_rate_sum", result.dram_row_hit_rate)


_ENGINE_FIELDS = ("points", "executed", "cache_hits", "failed", "retried")


def _before_engine(engine, *_args, **_kwargs):
    return engine, {f: getattr(engine.stats, f) for f in _ENGINE_FIELDS}


def _after_engine(tracer: Tracer, _values, state) -> None:
    engine, before = state
    for f in _ENGINE_FIELDS:
        tracer.count(f"harness.engine.{f}",
                     getattr(engine.stats, f) - before[f])


def _after_cache_get(tracer: Tracer, value, _state) -> None:
    from repro.harness.result_cache import MISS

    tracer.count("harness.cache.gets")
    tracer.count("harness.cache.hits", value is not MISS)


def _after_cache_put(tracer: Tracer, _value, _state) -> None:
    tracer.count("harness.cache.puts")


def _after_explore(tracer: Tracer, result, _state) -> None:
    tracer.count("harness.dse.screened", result.screened)
    tracer.count("harness.dse.screen_s", result.screen_seconds)
    tracer.count("harness.dse.frontier_size", len(result.frontier))
    tracer.count("harness.dse.confirmations",
                 sum(1 for c in result.candidates
                     if c.simulated_cycles is not None))


def _after_append(tracer: Tracer, _value, _state) -> None:
    tracer.count("service.journal.appends")


_BINDING_MODULES = (
    "repro.ocl", "repro.passes", "repro.hls", "repro.hls.compiler",
    "repro.vortex", "repro.vortex.analytical", "repro.vortex.runtime",
    "repro.harness", "repro.calibrate", "repro.calibrate.fit",
    "repro.service", "repro.service.daemon", "repro.service.jobs",
)


def install(tracer: Tracer | None = None) -> Tracer:
    """Wrap every layer's entry points; returns the live tracer, which
    accumulates into ``tracer`` when one is given."""
    from repro.benchmarks import suite
    from repro.harness.engine import ExperimentEngine
    from repro.harness.result_cache import ResultCache
    from repro.hls.compiler import HLSBackend
    from repro.service.client import ServiceClient
    from repro.service import daemon
    from repro.service.daemon import ExperimentDaemon
    from repro.service.journal import Journal
    from repro.vortex.simx.machine import Machine

    # every module that binds a wrapped name must be loaded now: one
    # imported later would keep the wrapper after uninstall.
    for module in _BINDING_MODULES:
        importlib.import_module(module)
    tracer = tracer or Tracer()
    suite.all_benchmarks()  # the registry holds each benchmark's build()
    for bench in suite._REGISTRY.values():
        tracer.patch_attr(bench, "build",
                          tracer.wrap("ocl.build", bench.build))
    tracer.patch_function("repro.ocl.validate", "validate", "ocl.validate")
    tracer.patch_function("repro.ocl.interp", "interpret", "ocl.interp",
                          after=_after_interp)
    for module, name in (("cfg", "reverse_postorder"),
                         ("cfg", "dominators"), ("cfg", "postdominators"),
                         ("cse", "run"), ("dce", "run"),
                         ("divergence", "analyze"),
                         ("liveness", "analyze"), ("loops", "analyze")):
        tracer.patch_function(f"repro.passes.{module}", name, "passes")
    tracer.patch_method(HLSBackend, "build", "hls.build")
    tracer.patch_function("repro.hls.perf", "estimate_cycles", "hls.perf")
    tracer.patch_function("repro.vortex.codegen", "compile_kernel",
                          "vortex.codegen", after=_after_codegen)
    for name in ("launch", "resume"):
        tracer.patch_method(Machine, name, "simx.launch",
                            after=_after_launch)
    for module, name in (("repro.harness.coverage", "coverage_point"),
                         ("repro.harness.sweep", "sweep_point"),
                         ("repro.harness.dse", "dse_confirm_point"),
                         ("repro.service.jobs", "execute_job")):
        tracer.patch_function(module, name, "harness.point")
    tracer.patch_method(ExperimentEngine, "run", "harness.engine",
                        before=_before_engine, after=_after_engine)
    tracer.patch_method(ResultCache, "get", "harness.cache.get",
                        after=_after_cache_get)
    tracer.patch_method(ResultCache, "put", "harness.cache.put",
                        after=_after_cache_put)
    tracer.patch_function("repro.harness.dse", "explore_design_space",
                          "harness.dse", after=_after_explore)
    tracer.patch_function("repro.calibrate.fit", "run_calibration",
                          "calibrate.fit")
    tracer.patch_method(ServiceClient, "_request_once", "service.rpc")
    tracer.patch_method(daemon._Server, "process_request", "service.conn")
    tracer.patch_method(daemon._Handler, "handle", "service.conn")
    tracer.patch_method(ExperimentDaemon, "handle_request",
                        "service.handle")
    tracer.patch_method(ExperimentDaemon, "start", "service.daemon")
    tracer.patch_method(ExperimentDaemon, "wait", "service.daemon")
    tracer.patch_method(Journal, "append", "service.journal.append",
                        after=_after_append)
    tracer.patch_method(Journal, "compact", "service.journal.compact")
    return tracer
