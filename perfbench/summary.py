"""Print every end-to-end metric of every workload, one run each.

    python3 perfbench/summary.py [--seed N] [--seconds S]

Each workload runs in its own process (so peak RSS is its own), and the
table shows points attempted and failed beside the metrics.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args()
    status = 0
    for workload in ("table1", "fig7", "campaign"):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", "0"],
            capture_output=True, text=True, cwd=HERE.parent)
        if proc.returncode != 0:
            print(f"{workload}: failed\n{proc.stderr}")
            status = 1
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        print(f"{workload}: {result['attempted']} points attempted, "
              f"{result['failed']} failed, correct={result['correct']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:<14} {metric['value']:>12.4f} {metric['unit']}")
        status |= not result["correct"]
    return status


if __name__ == "__main__":
    sys.exit(main())
