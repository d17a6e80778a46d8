"""Tests of the benchmark itself: its oracles, its failure accounting and
its tracer.  Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import hostspeed  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from midfix import cli  # noqa: E402


def _nu_instance():
    return workloads.nu(random.Random(0), workloads.SMOKE, "zsn", 2)


def _printing(report: dict, code: int = 0):
    def main(argv):
        print(json.dumps(report))
        return code

    return main


def test_correct_report_is_ok(tmp_path):
    _, outcome = worker.run_instance(cli.main, _nu_instance(), str(tmp_path))
    assert outcome == "ok"


def test_wrong_report_counts_as_failed(tmp_path):
    instance = _nu_instance()
    sizes = instance.expect["level_sizes"]
    wrong = {"passed": True, "level_sizes": sizes[:-1] + [sizes[-1] + 1]}
    results = [
        worker.run_instance(cli.main, instance, str(tmp_path)),
        worker.run_instance(_printing(wrong), instance, str(tmp_path)),
        worker.run_instance(_printing(dict(wrong, level_sizes=sizes), code=1), instance, str(tmp_path)),
    ]
    assert [outcome for _, outcome in results] == ["ok", "wrong", "wrong"]
    raw = {"results": [(t, o, 1.0) for t, o in results], "rounds": 1, "peak_rss_mb": 20.0, "host": {}}
    diagnostics, result = run.summarize(raw, [[0.1, 1.0], [0.2, 1.0], [0.3, 1.0]], trace=0)
    assert result["attempted"] == 3 and result["failed"] == 2
    assert result["correct"] is False
    assert diagnostics["wrong"] == 2


def test_raised_error_fails_but_stays_correct(tmp_path):
    def recursing(argv):
        raise RecursionError("maximum recursion depth exceeded")

    instance = _nu_instance()
    results = worker.run_round(cli.main, [instance, instance], str(tmp_path))
    results.append(worker.run_instance(recursing, instance, str(tmp_path)) + (2.0,))
    raw = {"results": results, "rounds": 1, "peak_rss_mb": 20.0, "host": {}}
    diagnostics, result = run.summarize(raw, [[0.1, 1.0]], trace=0)
    assert result["failed"] == 1 and result["correct"] is True
    # the failure ranks above every success, in reference seconds
    assert result["metrics"]["verdict_p90_ms"]["value"] == 1000 * max(t * f for t, _, f in results)
    assert diagnostics["unscaled"]["verdict_p90_ms"] == 1000 * max(t for t, _, _ in results)


def test_host_factor_scales_to_reference_seconds(tmp_path):
    assert hostspeed.factor([hostspeed.REFERENCE_SLICE_S] * 3) == 1.0
    assert hostspeed.factor([2 * hostspeed.REFERENCE_SLICE_S] * 3) == 0.5
    results = worker.run_round(cli.main, [_nu_instance()] * 3, str(tmp_path))
    assert [outcome for _, outcome, _ in results] == ["ok"] * 3
    assert all(f > 0 for _, _, f in results)


def test_trace_oracle_writes_components_directly():
    rules = {"p": ("s", ("q",)), "q": ("t", ("p",))}
    assert oracles.trace_strings(rules, "p", 3) == ["*", "s(*)", "s(t(*))", "s(t(s(*)))"]
    closed = {"p": ("s", ("q",)), "q": ("z", ())}
    assert oracles.trace_strings(closed, "p", 3) == ["*", "s(*)", "s(z)", "s(z)"]


def test_mu_oracle_identifies_parallel_chains():
    # two chains of length 2 ending in z: a0 ~ b0 and a1 ~ b1
    rules = {"a0": ("s", ("a1",)), "a1": ("z", ()), "b0": ("s", ("b1",)), "b1": ("z", ())}
    assert len(set(oracles.generator_classes(rules).values())) == 2
    # up to rank 1: a0 (= s(a1)), a1 (= z) and s(a0)
    assert oracles.mu_class_ranks({"z": 0, "s": 1}, rules, 1) == [0, 0, 1]


def _fake_modules() -> dict:
    """Six stand-in modules: fixcat imports unfold by name, and most of the
    boundaries the reported metrics name are absent."""
    modules = {name: types.ModuleType(f"fake.{name}") for name in tracing.MODULES}

    def unfold(t):
        return t + 1

    unfold.__module__ = "fake.signature"
    modules["signature"].unfold = unfold
    modules["fixcat"].unfold = unfold
    return modules


def test_tracer_wraps_the_name_the_caller_resolves_and_reports_missing():
    modules = _fake_modules()
    tracer = tracing.Tracer(modules)
    tracer.install()
    try:
        assert modules["fixcat"].unfold(1) == 2
        assert modules["signature"].unfold(1) == 2
    finally:
        tracer.uninstall()
    assert modules["fixcat"].unfold is modules["signature"].unfold
    assert not hasattr(modules["fixcat"].unfold, "__wrapped__")
    metrics = tracer.per_layer()
    assert metrics["signature.unfold.calls"]["value"] == 2
    assert "signature:unfold_once" in tracer.missing
    assert "signature:Term.__post_init__" in tracer.missing
    assert "fixcat.colim_eq" in tracer.missing
    assert metrics["fixcat.colim_eq.self_s"]["value"] == 0.0


def test_traced_run_times_cli_main_itself(tmp_path):
    """The traced run calls cli.main through the patched name, so time spent
    in main's own body lands in cli.main.self_s."""
    modules = _fake_modules()

    def main(argv):
        deadline = time.perf_counter() + 0.001
        while time.perf_counter() < deadline:
            pass
        return 0

    main.__module__ = "fake.cli"
    modules["cli"].main = main
    args = types.SimpleNamespace(workload="rel-lattice", seed=1, seconds=1, smoke=True)
    out = worker.traced_run(modules, args, workloads.SMOKE, str(tmp_path))
    instances = len(out["results"])
    assert out["per_layer"]["cli.main.self_s"]["value"] >= 0.001 * instances
    assert modules["cli"].main is main


def test_tracer_on_midfix_reports_nothing_missing(tmp_path):
    modules = {name: getattr(__import__(f"midfix.{name}"), name) for name in tracing.MODULES}
    tracer = tracing.Tracer(modules)
    tracer.install()
    try:
        tracer.set_size_class("nu")
        assert worker.run_instance(modules["cli"].main, _nu_instance(), str(tmp_path))[1] == "ok"
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    metrics = tracer.per_layer()
    assert metrics["fixcat.nu_approx.self_s"]["value"] > 0
    assert metrics["signature.enumerate_rank.terms"]["value"] == sum(_nu_instance().expect["level_sizes"])
    assert set(tracer.by_size_class()) == {"nu"}


def test_smoke_runs_every_workload_correctly():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    runs = {(d["workload"], d["trace"]): r for d, r in zip(lines[::2], lines[1::2])}
    assert set(runs) == {(w, t) for w in workloads.WORKLOADS for t in (0, 1)}
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    for (workload, trace), result in runs.items():
        assert result["correct"], (workload, trace)
        wanted = bench["per_layer"] if trace else bench["end_to_end"]
        assert {m["name"] for m in wanted} == set(result["metrics"])
        # only the one deep trace of the round may fail (RecursionError)
        assert result["failed"] <= (1 if workload == "mu-nu" else 0), (workload, trace)
