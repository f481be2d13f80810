"""Regenerate ``expected.json``, the outputs every run is checked against.

    python3 perfbench/make_expected.py

Table-I marks are the paper's (``PAPER_TABLE1``); Fig. 7 cycles and LSU
stalls, the campaign's small-n cells and the DSE winner are computed by
the current code. Regenerate only for a change that is meant to alter
modelled results, and say so in that change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import (  # noqa: E402
    CAMPAIGN_N, DSE_JOB, FIG7_CORES, FIG7_N, SIZES, SWEEP_BENCHMARKS,
    cell_key,
)


def main() -> None:
    from repro.harness.coverage import PAPER_TABLE1
    from repro.harness.sweep import sweep_point
    from repro.service.jobs import execute_job, validate_job
    from repro.vortex import VortexConfig

    def grid(n: int) -> dict:
        return {
            cell_key(bench, w, t): sweep_point(
                bench, VortexConfig().with_geometry(
                    cores=FIG7_CORES, warps=w, threads=t), n)
            for bench in SWEEP_BENCHMARKS for w in SIZES for t in SIZES}

    expected = {
        "table1": {name: list(row) for name, row in PAPER_TABLE1.items()},
        "fig7": grid(FIG7_N),
        "campaign_cells": grid(CAMPAIGN_N),
        "campaign_dse_best": execute_job(
            validate_job(dict(DSE_JOB)))["best"]["geometry"],
    }
    (HERE / "expected.json").write_text(
        json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
