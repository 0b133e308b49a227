#!/usr/bin/env python3
"""Run the benchmark over several seeds and print each metric's spread.

    python3 perfbench/spread.py --workload exact-5k --seeds 1-10 --seconds 20

Spread is the interquartile distance over the median, as the acceptance
rule for the bounds in BENCHMARK.json takes it; the wall time of every
run is printed too, because the whole suite has a time budget.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import spread

RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()
    first, last = (int(part) for part in args.seeds.split("-"))
    values: dict[str, list[float]] = {}
    for seed in range(first, last + 1):
        started = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", repr(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=900,
        )
        wall = time.monotonic() - started
        if done.returncode != 0:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}", file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: {wall:.1f}s correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, series in values.items():
        print(f"{name:45s} " + " ".join(f"{value:.4g}" for value in series))
    for name, series in values.items():
        share = spread(series) if len(series) >= 2 else float("nan")
        print(f"{name:45s} median {statistics.median(series):12.4f}  spread {share:6.3f}  "
              f"min {min(series):.4f} max {max(series):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
