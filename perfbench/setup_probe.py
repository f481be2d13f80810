"""One fresh set-up sample, run in its own interpreter.

``python3 setup_probe.py <workload> <src dir> <scratch dir>`` times
``import repro`` until the workload is ready for its first point and
prints ``{"import_s", "ready_s", "daemon_start_s"}`` in seconds. For
``table1`` and ``fig7`` ready means the modules are loaded and the
engine is built; for ``campaign`` the daemon is started on a fresh
state directory and the client has its first reply.
"""

from __future__ import annotations

import json
import shutil
import sys
import time


def main(workload: str, src: str, scratch: str) -> None:
    sys.path.insert(0, src)
    started = time.perf_counter()
    import repro  # noqa: F401
    from repro.harness.engine import ExperimentEngine

    if workload == "table1":
        from repro.benchmarks import all_benchmarks
        from repro.harness import coverage  # noqa: F401

        all_benchmarks()
    elif workload == "fig7":
        from repro.harness import sweep  # noqa: F401
    else:
        from repro.service import ExperimentDaemon, ServiceClient
    imported = time.perf_counter()
    daemon_start_s = 0.0
    if workload == "campaign":
        daemon = ExperimentDaemon(scratch, jobs=1)
        daemon.start()
        try:
            ServiceClient(scratch, client_id="probe").health()
            ready = time.perf_counter()
        finally:
            daemon.request_drain()
            daemon.wait(60)
            shutil.rmtree(scratch, ignore_errors=True)
        daemon_start_s = ready - imported
    else:
        ExperimentEngine(jobs=1)
        ready = time.perf_counter()
    print(json.dumps({"import_s": imported - started,
                      "ready_s": ready - started,
                      "daemon_start_s": daemon_start_s}))


if __name__ == "__main__":
    main(*sys.argv[1:4])
