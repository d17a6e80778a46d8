"""The midfix benchmark: time to verdict of the `midfix` command on three workloads.

    python3 perfbench/run.py --workload adjunction --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload mu-nu --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --smoke

Run from a checkout holding ``src/midfix``.  Set-up time is measured first,
as the median of several fresh interpreters importing ``midfix.cli``; then
one fresh worker process (worker.py) runs the workload's instances and this
script turns its raw results into metrics.  Timings are scaled by host speed
to reference seconds (hostspeed.py).  With ``--trace 0`` the last line
of standard output holds the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run; the line before it holds diagnostics
(host record, failures, per-size-class self times).  ``--smoke`` runs every
workload, untraced and traced, at tiny sizes.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_LAUNCHES = 25
# A fresh interpreter times its import of midfix.cli, then host slices.
SETUP_CHILD = (
    "from time import perf_counter as clock; start = clock(); import midfix.cli; "
    "seconds = clock() - start; import hostspeed; "
    "print(seconds, hostspeed.factor([hostspeed.host_slice() for _ in range(41)]))"
)
# The whole run must end within 180 s; set-up and reporting take the rest.
WORKER_TIMEOUT_S = 150


def launch(env: dict) -> list[float]:
    """[import seconds, host factor] of one fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", SETUP_CHILD], env=env, check=True,
                         capture_output=True, text=True).stdout
    return [float(x) for x in out.split()]


def measure_setup(env: dict, launches: int) -> list[list[float]]:
    """Import time of midfix.cli in fresh interpreters, after one untimed
    launch that compiles the bytecode every later launch reuses."""
    launch(env)
    return [launch(env) for _ in range(launches)]


def nearest_rank(ranked: list, q: float) -> float:
    return ranked[max(0, math.ceil(q * len(ranked)) - 1)]


def timings(results: list, scaled: bool) -> dict:
    """Verdicts per second and p50/p90 in ms, in reference seconds when
    scaled.  Failed instances rank above every success for the percentiles."""
    times = [t * f if scaled else t for t, _, f in results]
    ok = sorted(t for t, (_, outcome, _) in zip(times, results) if outcome == "ok")
    ranked = ok + [max(times)] * (len(times) - len(ok))
    return {
        "verdicts_per_s": len(ok) / sum(times),
        "verdict_p50_ms": 1000 * nearest_rank(ranked, 0.5),
        "verdict_p90_ms": 1000 * nearest_rank(ranked, 0.9),
    }


def setup_seconds(launches: list, scaled: bool) -> float:
    return statistics.median(t * f if scaled else t for t, f in launches)


def end_to_end(raw: dict, launches: list) -> dict:
    units = {"verdicts_per_s": "1/s", "verdict_p50_ms": "ms", "verdict_p90_ms": "ms"}
    out = {name: {"value": value, "unit": units[name]}
           for name, value in timings(raw["results"], scaled=True).items()}
    out["peak_rss_mb"] = {"value": raw["peak_rss_mb"], "unit": "MB"}
    out["setup_s"] = {"value": setup_seconds(launches, scaled=True), "unit": "s"}
    return out


def run_worker(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> tuple:
    """Set-up launches, then one worker; returns (launches, raw results).
    Raises RuntimeError when the worker fails."""
    work = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), HERE]),
                   PYTHONPYCACHEPREFIX=os.path.join(work, "pycache"))
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        launches = measure_setup(env, 3 if smoke else SETUP_LAUNCHES)
        command = [
            sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT, "--work", work,
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace),
        ] + (["--smoke"] if smoke else [])
        proc = subprocess.run(command, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
        return launches, json.loads(proc.stdout.splitlines()[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)


def summarize(raw: dict, launches: list, trace: int) -> tuple[dict, dict]:
    """(diagnostics, result line) of one run.  An instance fails when it
    raised or its report disagreed with the known answer; only the latter
    makes the run incorrect."""
    attempted = len(raw["results"])
    if attempted == 0:
        raise RuntimeError("no instance ran")
    outcomes = [outcome for _, outcome, _ in raw["results"]] + raw.get("untraced_outcomes", [])
    failed = sum(outcome != "ok" for _, outcome, _ in raw["results"])
    factors = sorted(f for _, _, f in raw["results"])
    diagnostics = {
        "rounds": raw["rounds"],
        "failed_share": failed / attempted,
        "wrong": outcomes.count("wrong"),
        "raised": outcomes.count("error"),
        "host": raw["host"],
        "host_factor": [factors[0], statistics.median(factors), factors[-1]],
        "unscaled": {**timings(raw["results"], scaled=False),
                     "setup_s": setup_seconds(launches, scaled=False)},
        "setup_launches": launches,
    }
    if trace:
        diagnostics["missing"] = raw["missing"]
        diagnostics["self_s_by_size_class"] = raw["self_s_by_size_class"]
    result = {
        "correct": "wrong" not in outcomes,
        "attempted": attempted,
        "failed": failed,
        "metrics": raw["per_layer"] if trace else end_to_end(raw, launches),
    }
    return diagnostics, result


def main(argv=None) -> int:
    # Exit through SystemExit on SIGTERM, so subprocess.run kills and reaps
    # the worker and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes; every workload, untraced and traced, unless --workload is given")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not os.path.isfile(os.path.join(ROOT, "src", "midfix", "cli.py")):
        print(f"error: no midfix sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    if args.smoke:
        runs = [(w, t) for w in ([args.workload] if args.workload else WORKLOADS) for t in (0, 1)]
    else:
        runs = [(args.workload, args.trace)]
    for workload, trace in runs:
        try:
            launches, raw = run_worker(workload, args.seed, args.seconds, trace, args.smoke)
            diagnostics, result = summarize(raw, launches, trace)
        except (RuntimeError, subprocess.SubprocessError, OSError, ValueError, IndexError, KeyError) as exc:
            print(f"error: {workload} trace={trace}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps({"workload": workload, "seed": args.seed, "trace": trace, **diagnostics}))
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
