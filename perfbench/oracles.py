"""Known answers for the generated instances, computed without midfix.

Every function here works on the plain spec dictionaries the benchmark
writes to disk, so a defect in the library cannot leak into the reference
it is checked against.  Coalgebra rules are ``{x: (op, args)}`` and algebra
tables ``{(op, args): value}``; signatures are ``{op: arity}``.
"""

from __future__ import annotations

import itertools


def coalgebra_rules(spec: dict) -> dict:
    return {x: (e["op"], tuple(e["args"])) for x, e in spec["structure"].items()}


def algebra_table(spec: dict) -> dict:
    return {(e["op"], tuple(e["args"])): e["value"] for e in spec["structure"]}


def level_sizes(arity: dict, n_generators: int, depth: int) -> list[int]:
    """|F^k(X)| for k = 0..depth: c0 = |X|, c(k+1) = sum over ops of ck^arity."""
    sizes = [n_generators]
    for _ in range(depth):
        sizes.append(sum(sizes[-1] ** a for a in arity.values()))
    return sizes


def hom_count(coalg: dict, alg: dict) -> int:
    """Maps f : B -> A with f(x) = a(op, f(args)) for b(x) = op(args), by brute force."""
    rules = coalgebra_rules(coalg)
    table = algebra_table(alg)
    carrier = list(rules)
    count = 0
    for images in itertools.product(alg["carrier"], repeat=len(carrier)):
        f = dict(zip(carrier, images))
        if all(
            f[x] == table[(op, tuple(f[y] for y in args))] for x, (op, args) in rules.items()
        ):
            count += 1
    return count


def generator_classes(rules: dict) -> dict:
    """Label each generator by a representative of its colimit class.

    x and y are identified exactly when unfolding both n times gives equal
    trees for some n; the Kleene iterates of "equal after n unfoldings"
    grow until they stop changing.
    """
    gens = sorted(rules)
    same = {(x, x) for x in gens}
    while True:
        grown = {
            (x, y)
            for x in gens
            for y in gens
            if x == y
            or (
                rules[x][0] == rules[y][0]
                and all((u, v) in same for u, v in zip(rules[x][1], rules[y][1]))
            )
        }
        if grown == same:
            break
        same = grown
    return {x: next(y for y in gens if (x, y) in same) for x in gens}


def mu_class_ranks(arity: dict, rules: dict, max_rank: int) -> list[int]:
    """Sorted minimal ranks of the colimit classes that have a representative
    of rank <= max_rank.

    Classes are compared at the common rank max_rank: a rank-r term is
    unfolded max_rank - r times and its leaves relabeled by generator class.
    Trees are interned bottom-up, so equal trees get equal ids.
    """
    rep = generator_classes(rules)
    ids: dict = {}

    def node(key) -> int:
        return ids.setdefault(key, len(ids))

    # unfolded[m][x]: generator x unfolded m times
    unfolded = [{x: node(("var", rep[x])) for x in rules}]
    for _ in range(max_rank):
        prev = unfolded[-1]
        unfolded.append(
            {x: node((op, tuple(prev[y] for y in args))) for x, (op, args) in rules.items()}
        )
    first_rank: dict = {}
    for rank in range(max_rank + 1):
        # rank-`rank` terms seen at rank max_rank, built up from their leaves
        level = set(unfolded[max_rank - rank].values())
        for _ in range(rank):
            level = {
                node((op, combo))
                for op, a in arity.items()
                for combo in itertools.product(sorted(level), repeat=a)
            }
        for cls in level:
            first_rank.setdefault(cls, rank)
    return sorted(first_rank.values())


def trace_strings(rules: dict, x, depth: int) -> list[str]:
    """Components 0..depth of the trace of x in a coalgebra of unary and
    constant operations, leaves written as '*': s(s(...(*)))."""
    path = []  # operations along the single branch below x
    closed = False
    cur = x
    while len(path) < depth:
        op, args = rules[cur]
        path.append(op)
        if not args:
            closed = True
            break
        cur = args[0]
    out = []
    for k in range(depth + 1):
        if closed and k >= len(path):
            n, tail = len(path) - 1, path[-1]
        else:
            n, tail = k, "*"
        out.append("".join(f"{op}(" for op in path[:n]) + tail + ")" * n)
    return out


def lattice_points(spec: dict) -> dict:
    """Pre-, post- and fixed points of spec["map"] with the least fixpoint
    above each pre-fixed point and the greatest below each post-fixed one."""
    elements = spec["elements"]
    le = {tuple(p) for p in spec["leq"]}
    f = spec["map"]
    pre = [x for x in elements if (x, f[x]) in le]
    post = [y for y in elements if (f[y], y) in le]
    fixed = [x for x in elements if f[x] == x]

    def least(candidates):
        return next(z for z in candidates if all((z, w) in le for w in candidates))

    def greatest(candidates):
        return next(z for z in candidates if all((w, z) in le for w in candidates))

    return {
        "pre_fixed": pre,
        "post_fixed": post,
        "fixed": fixed,
        "mu": {x: least([z for z in fixed if (x, z) in le]) for x in pre},
        "nu": {y: greatest([z for z in fixed if (z, y) in le]) for y in post},
    }


def is_bijection(source: list, target: list, pairs: list) -> bool:
    images = {}
    for x, y in pairs:
        images.setdefault(x, set()).add(y)
    return (
        len(source) == len(target)
        and all(len(images.get(x, ())) == 1 for x in source)
        and {next(iter(v)) for v in images.values()} == set(target)
    )


def coincidence_stage(functor: dict, relation: dict, bound: int):
    """Stage at which the ascending chain of an identity or constant functor
    stabilizes within the bound, or None.

    The identity functor repeats c forever, so it stabilizes (at 0) only
    when c is a bijection.  A constant functor follows c with identities on
    the constant, so it stabilizes at 1 unless c is already a bijection.
    """
    iso = is_bijection(relation["source"], relation["target"], relation["pairs"])
    if iso:
        return 0
    if functor["kind"] == "constant" and bound >= 2:
        return 1
    return None


def exhaustive_relation_count(size: int) -> int:
    """Relations between all pairs of objects of sizes 0..size: sum of 2^(m n)."""
    return sum(2 ** (m * n) for m in range(size + 1) for n in range(size + 1))
