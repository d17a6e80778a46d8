"""One benchmark run inside a fresh interpreter.

Imports midfix from the checkout's ``src``, feeds the workload's instances
to ``midfix.cli.main(argv)`` one at a time (a closed loop with one client
and no threads), checks every report against its known answer and prints
one JSON line of raw results for ``run.py``.

    python3 perfbench/worker.py --root . --work DIR --workload mu-nu --seed 1 --seconds 20 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import sys
from time import perf_counter

import hostspeed
import tracer as tracing
import workloads

# p90 needs ten samples beyond it; smoke runs are exempt.
MIN_INSTANCES = 100
# Traced runs take whole rounds in proportion to --seconds, independent of
# host speed, so their counts repeat exactly for a seed.  A traced run does
# its rounds twice, untraced and traced, in about --seconds in all.
TRACED_ROUNDS_PER_SECOND = {"adjunction": 0.1, "mu-nu": 0.1, "rel-lattice": 0.25}
CALIBRATION_SLICES = 300
# Slices on each side of an instance that set its host factor.
SCALE_WINDOW = 4


def calibrate() -> float:
    """Seconds for a fixed run of host slices: a record of host speed."""
    return sum(hostspeed.host_slice() for _ in range(CALIBRATION_SLICES))


def check(instance: workloads.Instance, code, text: str) -> bool:
    """True when the command exits 0 and every expected report field matches."""
    if code != 0:
        return False
    try:
        report = json.loads(text)
    except ValueError:
        return False
    for key, want in instance.expect.items():
        if key == "class_ranks":
            got = sorted(c.get("rank") for c in report.get("classes", []))
        else:
            got = report.get(key)
        if got != want:
            return False
    return True


def run_instance(main, instance: workloads.Instance, work: str) -> tuple[float, str]:
    """Time one cli.main call; the outcome is "ok", "wrong" (a report or exit
    code that disagrees with the known answer) or "error" (it raised)."""
    for name, spec in instance.files.items():
        with open(os.path.join(work, name), "w", encoding="utf-8") as handle:
            json.dump(spec, handle)
    argv = [os.path.join(work, t) if t in instance.files else t for t in instance.argv]
    out = io.StringIO()
    raised = False
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    except SystemExit as exc:  # argparse rejected the command line
        code = exc.code
    except Exception:  # the loop must go on; the failure is counted
        raised = True
    elapsed = perf_counter() - start
    if raised:
        return elapsed, "error"
    return elapsed, "ok" if check(instance, code, out.getvalue()) else "wrong"


def run_round(main, instances: list, work: str, before=None) -> list[tuple]:
    """Run one round with a host slice before each instance and after the
    last; returns (seconds, outcome, host factor) per instance.  The factor
    scales the instance's seconds to reference seconds.  It comes from the
    slices within SCALE_WINDOW of the two around the instance, so it follows
    the host's speed from one second to the next."""
    slices, timed = [], []
    for instance in instances:
        if before is not None:
            before(instance)
        slices.append(hostspeed.host_slice())
        timed.append(run_instance(main, instance, work))
    slices.append(hostspeed.host_slice())
    return [
        (seconds, outcome, hostspeed.factor(slices[max(0, i - SCALE_WINDOW): i + SCALE_WINDOW + 2]))
        for i, (seconds, outcome) in enumerate(timed)
    ]


def timed_run(main, args, sizes, work: str) -> dict:
    """Whole rounds until --seconds of calls have run and p90 has its samples."""
    results = []
    busy, index = 0.0, 0
    floor = 1 if args.smoke else MIN_INSTANCES
    while busy < args.seconds or len(results) < floor:
        batch = run_round(main, workloads.round_instances(args.workload, args.seed, index, sizes), work)
        results += batch
        busy += sum(t for t, _, _ in batch)
        index += 1
        if args.smoke:
            break
    return {"results": results, "rounds": index}


def traced_run(modules, args, sizes, work: str) -> dict:
    """A fixed set of rounds, once untraced and once traced, so the counts
    repeat exactly for a seed and the overhead ratio compares like with like.
    cli.main is looked up at each call, so the traced calls go through its
    wrapper and its own work (argparse, json.dumps) counts as cli.main."""

    def main(argv):
        return modules["cli"].main(argv)

    rounds = 1 if args.smoke else max(1, round(args.seconds * TRACED_ROUNDS_PER_SECOND[args.workload]))
    batches = [workloads.round_instances(args.workload, args.seed, i, sizes) for i in range(rounds)]
    plain = [r for batch in batches for r in run_round(main, batch, work)]
    tracer = tracing.Tracer(modules)
    traced = []
    tracer.install()
    try:
        for batch in batches:
            traced += run_round(main, batch, work,
                                lambda instance: tracer.set_size_class(instance.size_class))
    finally:
        tracer.uninstall()
    plain_s = sum(t * f for t, _, f in plain)
    traced_s = sum(t * f for t, _, f in traced)
    per_layer = tracer.per_layer()
    per_layer["trace.overhead_ratio"] = {"value": traced_s / plain_s, "unit": "ratio"}
    return {
        "results": traced,
        "untraced_outcomes": [o for _, o, _ in plain],
        "rounds": rounds,
        "per_layer": per_layer,
        "missing": tracer.missing,
        "self_s_by_size_class": tracer.by_size_class(),
    }


def git_sha(root: str) -> str:
    """HEAD's commit read from .git without running git; "unknown" outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, help="checkout holding src/midfix")
    parser.add_argument("--work", required=True, help="directory for the generated spec files")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    modules = {name: importlib.import_module(f"midfix.{name}") for name in tracing.MODULES}
    if not os.path.abspath(modules["cli"].__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"midfix imported from {modules['cli'].__file__}, not {src}", file=sys.stderr)
        return 2
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    calibration_start = calibrate()
    if args.trace:
        out = traced_run(modules, args, sizes, args.work)
    else:
        out = timed_run(modules["cli"].main, args, sizes, args.work)
    out["host"] = {
        "git_sha": git_sha(args.root),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "calibration_s": [calibration_start, calibrate()],
    }
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
