"""Seeded instance generators for the three workloads.

An instance is one `midfix` command line together with the spec files it
reads and the known answer its report must contain.  Instances come in
rounds: every round holds the same number of instances of each kind, drawn
from a generator seeded by (seed, workload, round), so the instance mix is
fixed and any prefix of whole rounds is reproducible from the seed alone.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import oracles

# The signatures of the adjunction and mu-nu workloads, as {op: arity}.
SIGNATURES = {
    "ln": {"l": 0, "n": 2},
    "zsn": {"z": 0, "s": 1, "n": 2},
    "zs": {"z": 0, "s": 1},
    "zst": {"z": 0, "s": 1, "t": 1},
}


@dataclass
class Instance:
    """argv is the command line after `midfix`; tokens that name a key of
    `files` are replaced by the path the spec is written to."""

    argv: list
    files: dict
    expect: dict
    size_class: str


@dataclass(frozen=True)
class Sizes:
    """The size ladders of the generated instances.  Every round holds one
    instance per rung, so only structure, never size, varies with the seed."""

    coalgebra_sizes: tuple  # adjunction and mu: carrier sizes of the coalgebra
    algebra_sizes: tuple  # adjunction and nu: carrier sizes of the algebra
    fold_budget: int  # adjunction: homs x sum over ops of classes^arity stays below this
    max_rank: int  # adjunction and mu: rank ceiling
    mu_terms: int  # adjunction and mu: terms enumerated up to the chosen rank
    chain_generators: tuple  # mu: generators of the parallel-chain coalgebras
    nu_level: int  # nu: the deepest level enumerated holds at most this many terms
    trace_depths: tuple  # trace: depth strata [d, d + 19], all below the recursion limit
    deep_trace_depth: int  # trace: a depth past the recursion limit
    dagger_samples: tuple  # rel-dagger: values of --samples
    chain_lengths: tuple  # lattice: chain length strata [n, n + 4]
    cube_dims: tuple  # lattice: Boolean cube dimensions


FULL = Sizes(
    coalgebra_sizes=(1, 2, 3, 4),
    algebra_sizes=(1, 2, 3),
    fold_budget=2000,
    max_rank=6,
    mu_terms=4000,
    chain_generators=(36, 40, 44, 48),
    nu_level=4000,
    trace_depths=(20, 40, 70, 100, 140, 180, 230, 280),
    deep_trace_depth=400,
    dagger_samples=(40, 60, 80, 100),
    chain_lengths=(10, 15, 20, 25, 30, 35),
    cube_dims=(3, 4, 5),
)

SMOKE = Sizes(
    coalgebra_sizes=(1, 2),
    algebra_sizes=(1, 2),
    fold_budget=60,
    max_rank=2,
    mu_terms=200,
    chain_generators=(6, 8),
    nu_level=100,
    trace_depths=(5, 10),
    deep_trace_depth=400,
    dagger_samples=(4,),
    chain_lengths=(4,),
    cube_dims=(2, 3),
)


def _sig_spec(arity: dict) -> dict:
    return {"ops": [{"name": op, "arity": a} for op, a in arity.items()]}


def _random_coalgebra(rng: random.Random, arity: dict, size: int) -> dict:
    carrier = [f"x{i}" for i in range(size)]
    structure = {}
    for x in carrier:
        op = rng.choice(sorted(arity))
        structure[x] = {"op": op, "args": [rng.choice(carrier) for _ in range(arity[op])]}
    return {"sig": _sig_spec(arity), "carrier": carrier, "structure": structure}


def _random_algebra(rng: random.Random, arity: dict, size: int) -> dict:
    carrier = [f"a{i}" for i in range(size)]
    structure = [
        {"op": op, "args": list(args), "value": rng.choice(carrier)}
        for op in sorted(arity)
        for args in itertools.product(carrier, repeat=arity[op])
    ]
    return {"sig": _sig_spec(arity), "carrier": carrier, "structure": structure}


def _terms_up_to(arity: dict, generators: int, rank: int) -> int:
    return sum(oracles.level_sizes(arity, generators, rank))


# -- adjunction ---------------------------------------------------------------


def adjunction(rng: random.Random, sizes: Sizes, sig: str, b: int, a: int) -> Instance:
    """A random (coalgebra, algebra) pair at the largest rank whose fold count
    stays below the budget.  The check folds each of the sum(classes^arity)
    applications once per hom, so the count is that sum times the homs; it
    keeps the rare many-hom instances from deciding the tail."""
    arity = SIGNATURES[sig]
    coalg = _random_coalgebra(rng, arity, b)
    alg = _random_algebra(rng, arity, a)
    rules = oracles.coalgebra_rules(coalg)
    homs = oracles.hom_count(coalg, alg)
    rank, classes = 0, oracles.mu_class_ranks(arity, rules, 0)
    for r in range(1, sizes.max_rank + 1):
        ranks = oracles.mu_class_ranks(arity, rules, r)
        folds = max(homs, 1) * sum(len(ranks) ** a for a in arity.values())
        if folds >= sizes.fold_budget or _terms_up_to(arity, len(rules), r) > sizes.mu_terms:
            break
        rank, classes = r, ranks
    return Instance(
        argv=["adjunction", "coalgebra.json", "algebra.json", "--max-rank", str(rank),
              "--cap", "1000000"],
        files={"coalgebra.json": coalg, "algebra.json": alg},
        expect={
            "passed": True,
            "hom_count": homs,
            "class_count": len(classes),
            "max_rank": rank,
        },
        size_class=f"adjunction:rank{rank}",
    )


# -- mu, nu and trace -----------------------------------------------------------


def _mu_instance(arity: dict, coalg: dict, max_rank: int, size_class: str) -> Instance:
    ranks = oracles.mu_class_ranks(arity, oracles.coalgebra_rules(coalg), max_rank)
    return Instance(
        argv=["mu", "coalgebra.json", "--max-rank", str(max_rank)],
        files={"coalgebra.json": coalg},
        expect={"passed": True, "class_count": len(ranks), "class_ranks": ranks},
        size_class=size_class,
    )


def mu_random(rng: random.Random, sizes: Sizes, sig: str, b: int) -> Instance:
    """A random coalgebra at the largest rank within the term budget."""
    arity = SIGNATURES[sig]
    coalg = _random_coalgebra(rng, arity, b)
    n = len(coalg["carrier"])
    rank = max(
        r for r in range(sizes.max_rank + 1) if _terms_up_to(arity, n, r) <= sizes.mu_terms
    )
    return _mu_instance(arity, coalg, rank, f"mu:rank{rank}")


def mu_chains(rng: random.Random, sizes: Sizes, total: int) -> Instance:
    """Four equal s-chains ending in z under shuffled names: generators at
    equal distance from z are identified, which puts the time into the
    generator identification."""
    arity = SIGNATURES["zs"]
    labels = [f"g{i}" for i in range(total)]
    rng.shuffle(labels)
    structure = {}
    for c in range(4):
        names = labels[c::4]
        for here, below in zip(names, names[1:]):
            structure[here] = {"op": "s", "args": [below]}
        structure[names[-1]] = {"op": "z", "args": []}
    coalg = {"sig": _sig_spec(arity), "carrier": sorted(structure), "structure": structure}
    return _mu_instance(arity, coalg, 3, f"mu-chains:gens{total}")


def nu(rng: random.Random, sizes: Sizes, sig: str, a: int) -> Instance:
    """Limit stages of a random algebra up to the last level within the budget."""
    arity = SIGNATURES[sig]
    alg = _random_algebra(rng, arity, a)
    n = len(alg["carrier"])
    depth = max(
        d for d in range(1, 8) if oracles.level_sizes(arity, n, d)[-1] <= sizes.nu_level
    )
    return Instance(
        argv=["nu", "algebra.json", "--depth", str(depth)],
        files={"algebra.json": alg},
        expect={"passed": True, "level_sizes": oracles.level_sizes(arity, n, depth)},
        size_class=f"nu:depth{depth}",
    )


def _cyclic_unary_coalgebra(rng: random.Random) -> dict:
    """Unary rules only, so trace components grow linearly with depth; the
    last generator points back into the carrier, so no branch closes."""
    arity = SIGNATURES[rng.choice(["zs", "zst"])]
    unary = sorted(op for op, a in arity.items() if a == 1)
    carrier = [f"p{i}" for i in range(rng.randint(1, 4))]
    structure = {
        x: {"op": rng.choice(unary), "args": [carrier[i + 1] if i + 1 < len(carrier)
                                             else rng.choice(carrier)]}
        for i, x in enumerate(carrier)
    }
    return {"sig": _sig_spec(arity), "carrier": carrier, "structure": structure}


def trace(rng: random.Random, sizes: Sizes, lo: int, hi: int) -> Instance:
    """The trace of one generator at a depth in [lo, hi].  Past the
    interpreter's recursion limit (deep_trace_depth) the seed commit raises
    RecursionError; that failure is counted, not filtered out."""
    coalg = _cyclic_unary_coalgebra(rng)
    depth = rng.randint(lo, hi)
    x = rng.choice(coalg["carrier"])
    expected = oracles.trace_strings(oracles.coalgebra_rules(coalg), x, depth)
    return Instance(
        argv=["trace", "coalgebra.json", "--element", x, "--depth", str(depth)],
        files={"coalgebra.json": coalg},
        expect={"passed": True, "traces": {x: expected}},
        size_class=f"trace:depth{lo // 50 * 50}",
    )


# -- relations and lattices ----------------------------------------------------


def _random_pairs(rng: random.Random, source: list, target: list, bijection: bool) -> list:
    if bijection:
        return [[x, y] for x, y in zip(source, rng.sample(target, len(target)))]
    return [[x, y] for x in source for y in target if rng.random() < 0.5]


def rel_coincidence(rng: random.Random, sizes: Sizes, functor_kind: str, n: int) -> Instance:
    """Identity or constant functor; a third of the coalgebras are bijections,
    whose chains stabilize at stage 0."""
    bound = 32
    xs = [f"x{i}" for i in range(n)]
    bijection = rng.random() < 1 / 3
    if functor_kind == "identity":
        functor = {"kind": "identity"}
        target = xs
    else:
        target = xs if bijection else [f"k{i}" for i in range(rng.randint(1, n))]
        functor = {"kind": "constant", "constant": target}
    relation = {"source": xs, "target": target,
                "pairs": _random_pairs(rng, xs, target, bijection)}
    stage = oracles.coincidence_stage(functor, relation, bound)
    expect = {"passed": True, "ascending_stabilized": stage is not None,
              "descending_stabilized": stage is not None}
    if stage is not None:
        expect["stage"] = stage
    return Instance(
        argv=["rel-coincidence", "spec.json", "--bound", str(bound)],
        files={"spec.json": {"functor": functor, "coalgebra": relation}},
        expect=expect,
        size_class=f"rel-coincidence:{functor['kind']}",
    )


def rel_dagger(rng: random.Random, sizes: Sizes, samples: int) -> Instance:
    """Dagger laws on the exhaustive size-2 relations, seeded random samples
    and two relation spec files between the exhaustive objects."""
    size = 2
    objects = [[f"u{i}" for i in range(n)] for n in range(1, size + 1)]
    files = {}
    for name in ("r0.json", "r1.json"):
        source, target = rng.choice(objects), rng.choice(objects)
        files[name] = {"source": source, "target": target,
                       "pairs": _random_pairs(rng, source, target, False)}
    return Instance(
        argv=["rel-dagger", *files, "--size", str(size), "--samples", str(samples),
              "--seed", str(rng.randrange(1 << 30))],
        files=files,
        expect={
            "passed": True,
            "sample_size": oracles.exhaustive_relation_count(size) + samples + len(files),
        },
        size_class=f"rel-dagger:samples{samples}",
    )


def _chain(rng: random.Random, n: int) -> dict:
    elements = [f"c{i}" for i in range(n)]
    images = sorted(rng.randrange(n) for _ in range(n))
    return {
        "elements": elements,
        "leq": [[elements[i], elements[j]] for i in range(n) for j in range(i, n)],
        "map": {x: elements[k] for x, k in zip(elements, images)},
    }


def _cube(rng: random.Random, dim: int) -> dict:
    """The subsets of dim atoms with f(S) = (C | union of g(i) for i in S) & D,
    which is monotone."""
    sets = range(1 << dim)
    name = [f"b{s:0{dim}b}" for s in sets]
    g = [rng.choice(sets) for _ in range(dim)]
    c = rng.choice(sets) & rng.choice(sets)
    d = rng.choice(sets) | rng.choice(sets)

    def f(s: int) -> int:
        out = c
        for i in range(dim):
            if s >> i & 1:
                out |= g[i]
        return out & d

    return {
        "elements": name,
        "leq": [[name[s], name[t]] for s in sets for t in sets if s & t == s],
        "map": {name[s]: name[f(s)] for s in sets},
    }


def lattice(rng: random.Random, sizes: Sizes, command: str, shape: str, n: int) -> Instance:
    """lattice-galois or lattice-fixpoints on a chain of n to n + 4 elements
    or the Boolean cube of dimension n."""
    if shape == "chain":
        spec, size_class = _chain(rng, rng.randint(n, n + 4)), f"chain{n // 10 * 10}"
    else:
        spec, size_class = _cube(rng, n), f"cube{1 << n}"
    points = oracles.lattice_points(spec)
    if command == "lattice-galois":
        expect = {
            "passed": True,
            "mu": points["mu"],
            "nu": points["nu"],
            "violations": [],
            "pairs_checked": len(points["pre_fixed"]) * len(points["post_fixed"]),
        }
    else:
        expect = {"passed": True, **points}
    return Instance(
        argv=[command, "lattice.json"],
        files={"lattice.json": spec},
        expect=expect,
        size_class=f"{command}:{size_class}",
    )


# -- workloads -----------------------------------------------------------------

WORKLOADS = ("adjunction", "mu-nu", "rel-lattice")


def slots(workload: str, sizes: Sizes) -> list[tuple]:
    """One round of a workload: (generator, size arguments) per instance."""
    if workload == "adjunction":
        return [
            (adjunction, (sig, b, a))
            for sig in ("ln", "zsn", "zs", "zst")
            for b in sizes.coalgebra_sizes
            for a in sizes.algebra_sizes
        ]
    if workload == "mu-nu":
        return (
            [(mu_random, (sig, b)) for sig in ("ln", "zsn", "zst") for b in sizes.coalgebra_sizes] * 2
            + [(mu_chains, (n,)) for n in sizes.chain_generators] * 2
            + [(nu, (sig, a)) for sig in ("ln", "zsn") for a in sizes.algebra_sizes] * 2
            + [(trace, (d, d + 19)) for d in sizes.trace_depths]
            + [(trace, (sizes.deep_trace_depth, sizes.deep_trace_depth))]
        )
    if workload == "rel-lattice":
        # weighted so that dagger and lattice each take about half the time
        return (
            [(rel_coincidence, (kind, n)) for kind in ("identity", "constant") for n in (1, 2, 3)] * 2
            + [(rel_dagger, (m,)) for m in sizes.dagger_samples]
            + [
                (lattice, (command, shape, n))
                for command in ("lattice-galois", "lattice-fixpoints")
                for shape, ladder in (("chain", sizes.chain_lengths), ("cube", sizes.cube_dims))
                for n in ladder
            ]
        )
    raise ValueError(f"unknown workload {workload!r}")


def round_instances(workload: str, seed: int, index: int, sizes: Sizes) -> list[Instance]:
    """The instances of round `index`, shuffled so no kind runs in a block."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    out = [make(rng, sizes, *args) for make, args in slots(workload, sizes)]
    rng.shuffle(out)
    return out
