"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is fixed here, nothing is calibrated elsewhere.
"""

import functools
import json
import random
import subprocess
import sys
import time
from pathlib import Path

from midfix.dagger import (
    all_relations,
    chain_colimit_stabilized,
    coincidence_check,
    dagger_laws_check,
    mu_chain,
    nu_chain,
    rel_dagger,
)
from midfix.dagger import random_instance as random_rel_instance
from midfix.fixcat import (
    adjunction_check,
    coalgebra,
    corecursive_check,
    enumerate_coalg_to_alg,
    infinite_trace,
    is_wellfounded,
    mu_enumerate,
    random_algebra,
    random_coalgebra,
    random_instance,
    random_signature,
    terminal_coalgebra_approx,
)
from midfix.lattice import (
    FIVE_FIXPOINTS,
    all_lattices,
    all_monotone_maps,
    classify_points,
    five_fixpoint_map,
    galois_check,
    locate_interval_fixpoints,
    mu_interval,
    mu_lattice,
    nu_interval,
    nu_lattice,
)
from midfix.signature import Term, count_rank, signature

SPECS = Path(__file__).resolve().parent.parent / "sample_specs"


def report(criterion: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] {criterion}" + (f" ({detail})" if detail else ""))
    assert passed, criterion


@functools.lru_cache(maxsize=1)
def small_lattice_family():
    return [
        (lattice, f)
        for lattice in all_lattices(4)
        for f in all_monotone_maps(lattice)
    ]


def test_criterion_1_galois_connection_exhaustive():
    start = time.monotonic()
    violations = 0
    pairs = 0
    for lattice, f in small_lattice_family():
        result = galois_check(f)
        violations += len(result.violations)
        pairs += len(result.pre_fixed) * len(result.post_fixed)
    elapsed = time.monotonic() - start
    report(
        "criterion 1: Galois connection on all lattices of size <= 4",
        violations == 0 and elapsed < 60.0,
        f"{pairs} pairs, {violations} violations, {elapsed:.1f}s",
    )


def test_criterion_2_knaster_tarski_agreement():
    mismatches = 0
    for lattice, f in small_lattice_family():
        # independent brute-force oracles: fold meet over post-fixed points,
        # fold join over pre-fixed points
        result = classify_points(f)
        inf_post = functools.reduce(lattice.meet, result.post_fixed)
        sup_pre = functools.reduce(lattice.join, result.pre_fixed)
        if mu_lattice(f, lattice.bottom) != inf_post:
            mismatches += 1
        if nu_lattice(f, lattice.top) != sup_pre:
            mismatches += 1
    report(
        "criterion 2: Knaster-Tarski agreement with brute-force bounds",
        mismatches == 0,
        f"{2 * len(small_lattice_family())} comparisons",
    )


def test_criterion_3_figure_reproduction():
    im = five_fixpoint_map()
    located = locate_interval_fixpoints(im)
    ok = len(located) == 5
    ok = ok and all(
        abs(found - expected) < 1e-6 for found, expected in zip(located, FIVE_FIXPOINTS)
    )
    checked = 0
    for i in range(201):
        x = i / 200
        if im.fn(x) < x - im.tolerance:
            continue  # not pre-fixed
        target = min(f for f in located if f >= x - 1e-6)
        ok = ok and abs(mu_interval(im, x).value - target) < 1e-6
        checked += 1
    ok = ok and abs(mu_interval(im, 0.0).value - 0.0) < 1e-6
    ok = ok and abs(nu_interval(im, 1.0).value - 1.0) < 1e-6
    report(
        "criterion 3: five-fixpoint figure reproduction at 1e-6",
        ok,
        f"{len(located)} fixpoints, {checked} pre-fixed grid points",
    )


def test_criterion_4_adjunction_bijection_random():
    rng = random.Random(2024)
    start = time.monotonic()
    failures = 0
    for _ in range(200):
        b, a = random_instance(rng, max_rank=5, depth=5)
        result = adjunction_check(b, a, depth=5, max_rank=5)
        if not result["passed"]:
            failures += 1
    elapsed = time.monotonic() - start
    report(
        "criterion 4: adjunction checks on 200 seeded instances",
        failures == 0 and elapsed < 300.0,
        f"{failures} failures, {elapsed:.1f}s",
    )


def test_criterion_5_initial_algebra_prefix():
    nat = signature([("z", 0), ("s", 1)])
    empty = coalgebra(nat, [], {})
    loop = coalgebra(nat, ["p"], {"p": Term(nat, 1, ("op", "s", (("var", "p"),)))})
    ok = True
    for n in range(1, 9):
        ok = ok and len(mu_enumerate(empty, n)) == n == count_rank(nat, 0, n)
        ok = ok and len(mu_enumerate(loop, n)) == n + 1
    report("criterion 5: initial-algebra prefix counts", ok, "max_rank 1..8")


def test_criterion_6_terminal_coalgebra_approximants():
    shipped = [
        signature([("z", 0), ("s", 1)]),
        signature([("k", 0)]),
        signature([("a", 1), ("b", 1)]),
    ]
    ok = True
    for sig in shipped:
        sizes = terminal_coalgebra_approx(sig, 8).level_sizes()
        ok = ok and sizes == [count_rank(sig, 1, k) for k in range(9)]
    # every trace stream satisfies the limit compatibility up to depth 8
    rng = random.Random(99)
    coalgs = []
    while len(coalgs) < 20:
        sig = random_signature(rng)
        coalgs.append(random_coalgebra(rng, sig, 3))
    for b in coalgs:
        for x in b.carrier:
            stream = infinite_trace(b, x)
            ok = ok and stream.check_compatible(8)
    report(
        "criterion 6: terminal-coalgebra approximants and trace streams",
        ok,
        "3 shipped signatures, 20 random coalgebras, depth 8",
    )


def test_criterion_7_corecursivity():
    rng = random.Random(7)
    coalgs = []
    while len(coalgs) < 100:
        sig = random_signature(rng)
        coalgs.append(random_coalgebra(rng, sig, 3))
    ok = corecursive_check(coalgs)["passed"]
    wellfounded = 0
    for b in (c for c in coalgs if is_wellfounded(c)):
        wellfounded += 1
        for _ in range(10):
            a = random_algebra(rng, b.sig, 3)
            ok = ok and len(enumerate_coalg_to_alg(b, a)) == 1
    report(
        "criterion 7: corecursivity and recursivity counts",
        ok and wellfounded > 0,
        f"100 coalgebras, {wellfounded} well-founded x 10 algebras",
    )


def test_criterion_8_dagger_coincidence():
    rng = random.Random(41)
    ok = True
    constant_seen = 0
    for _ in range(100):
        functor, c = random_rel_instance(rng)
        result = coincidence_check(functor, c, bound=8)
        duality = next(ch for ch in result["checks"] if ch["name"] == "stage-duality")
        ok = ok and duality["passed"] and result["passed"]
        if functor.name == "constant":
            constant_seen += 1
            up = chain_colimit_stabilized(mu_chain(functor, c, 8))
            down = chain_colimit_stabilized(nu_chain(functor, rel_dagger(c), 8))
            ok = ok and up.stabilized and down.stabilized
            ok = ok and up.stage == down.stage and up.colimit == down.colimit
    objects = [tuple(f"u{i}" for i in range(n)) for n in range(3)]
    sample = [r for s in objects for t in objects for r in all_relations(s, t)]
    ok = ok and dagger_laws_check(objects, sample)["passed"]
    report(
        "criterion 8: dagger coincidence and laws",
        ok and constant_seen > 0,
        f"100 instances ({constant_seen} constant), exhaustive laws <= size 2",
    )


def test_criterion_9_cli_determinism():
    commands = [
        ["rel-dagger", "--seed", "17", "--samples", "100"],
        ["lattice-galois", str(SPECS / "chain_lattice.json")],
        [
            "adjunction",
            str(SPECS / "stopped_coalgebra.json"),
            str(SPECS / "parity_algebra.json"),
        ],
        ["rel-coincidence", str(SPECS / "constant_coincidence.json")],
    ]
    ok = True
    for argv in commands:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "midfix.cli", *argv],
                capture_output=True,
            )
            for _ in range(2)
        ]
        ok = ok and runs[0].stdout == runs[1].stdout and runs[0].returncode == 0
        ok = ok and json.loads(runs[0].stdout)  # valid JSON report
    report("criterion 9: CLI determinism for fixed seeds", bool(ok), "4 commands x 2 runs")
