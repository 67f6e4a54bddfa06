#!/usr/bin/env python3
"""Run every workload of BENCHMARK.json untraced and traced, and print all
metrics by name and unit.

    python3 bench/report.py

Each run is a separate bench/run.py process, with seed 1 and the run length of
BENCHMARK.json, so the figures are those the benchmark is gated on.  Peak
memory is per workload.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "1", "--seconds", str(spec["run_seconds"]), "--trace", str(trace)],
                capture_output=True, text=True, cwd=HERE.parent,
            )
            if proc.returncode != 0:
                print(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                status = 1
                continue
            *lines, last = proc.stdout.splitlines()
            result = json.loads(last)
            print(f"== {workload} (trace {trace}): correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, m in result["metrics"].items():
                print(f"{workload:13s} {name:36s} {m['value']:>16.6f} {m['unit']}")
            for line in lines:
                if line.startswith(("FAIL ", "context ")):
                    print(f"{workload:13s} {line}")
    return status


if __name__ == "__main__":
    sys.exit(main())
