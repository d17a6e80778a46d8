"""Run the benchmark on several seeds and report how far each metric spreads.

    python3 perfbench/steadiness.py --workload mu-nu --seeds 1 2 3 4 5 --seconds 20

For every end-to-end metric it prints the median of the runs and the
distance between the first and third quartile as a share of the median,
next to the metric's bound in BENCHMARK.json: a spread well below the bound
means one run is enough to tell a regression from noise.  The same figures
follow for the timings before scaling by host speed (``unscaled.*``).  Runs are made one
after another, never in parallel, so they do not slow each other down.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def spread(values: list) -> tuple[float, float]:
    """Median and interquartile distance over the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="defaults to run_seconds of BENCHMARK.json")
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    seconds = args.seconds or bench["run_seconds"]
    values: dict = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=True,
        )
        *_, diagnostics, result = (json.loads(line) for line in proc.stdout.splitlines())
        row = {name: m["value"] for name, m in result["metrics"].items()}
        row.update({f"unscaled.{name}": value for name, value in diagnostics["unscaled"].items()})
        print(json.dumps({"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                          "failed": result["failed"], **row,
                          "host_factor": diagnostics["host_factor"]}), flush=True)
        for name, value in row.items():
            values.setdefault(name, []).append(value)
    if len(args.seeds) < 2:
        return 0
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, series in values.items():
        median, share = spread(series)
        print(f"{name:30s} median {median:12.4f}  spread {share:7.3f}  bound {bounds.get(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
