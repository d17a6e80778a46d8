"""Finite sets and relations with converse as the dagger.

Converse is an identity-on-objects involution that reverses composition,
making finite relations a dagger category.  For a dagger endofunctor F and
a coalgebra-shaped relation c : X -> F(X), the descending chain for the
converse c+ is stage by stage the converse of the ascending chain for c;
when the ascending chain stabilizes (its connectors become bijections) the
two chains share their stable object, the computable shadow of the
mu/nu coincidence.

Chain (co)limits beyond stabilizing prefixes are not claimed: a chain that
does not stabilize within the bound is reported as such, never decided.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

DEFAULT_CHAIN_BOUND = 32


class RelError(ValueError):
    pass


class ObjectMismatch(RelError):
    pass


class DualityViolation(RelError):
    def __init__(self, stage: int):
        super().__init__(f"stage {stage}: descending connector is not the converse")
        self.stage = stage


def _key(value):
    return (str(type(value)), repr(value))


def _sorted_obj(elements: Iterable) -> tuple:
    return tuple(sorted(set(elements), key=_key))


@dataclass(frozen=True)
class FinRel:
    """A relation between two finite sets.

    The objects are canonically sorted tuples; the pairs are a set, sorted
    only when written out (`relation_to_json`).  Build one from outside data
    with `finrel`, which checks that every pair lies in source x target.
    """

    source: tuple
    target: tuple
    pairs: frozenset

    def holds(self, x, y) -> bool:
        return (x, y) in self.pairs


def finrel(source: Iterable, target: Iterable, pairs: Iterable[tuple]) -> FinRel:
    src, tgt = _sorted_obj(source), _sorted_obj(target)
    src_set, tgt_set = frozenset(src), frozenset(tgt)
    checked = []
    for x, y in pairs:
        if x not in src_set or y not in tgt_set:
            raise RelError(f"pair ({x!r}, {y!r}) leaves source x target")
        checked.append((x, y))
    return FinRel(src, tgt, frozenset(checked))


def relation_to_json(r: FinRel) -> dict:
    """The spec form of r, pairs in canonical order."""
    return {
        "source": list(r.source),
        "target": list(r.target),
        "pairs": [list(p) for p in sorted(r.pairs, key=_key)],
    }


def rel_identity(obj: Iterable) -> FinRel:
    elems = _sorted_obj(obj)
    return FinRel(elems, elems, frozenset((x, x) for x in elems))


def rel_compose(r: FinRel, s: FinRel) -> FinRel:
    """Relational composition r ; s (first r, then s)."""
    if r.target != s.source:
        raise ObjectMismatch("middle objects differ")
    image = {}
    for y, z in s.pairs:
        image.setdefault(y, []).append(z)
    pairs = frozenset((x, z) for x, y in r.pairs for z in image.get(y, ()))
    return FinRel(r.source, s.target, pairs)


def rel_dagger(r: FinRel) -> FinRel:
    """Converse: swap source and target and transpose every pair."""
    return FinRel(r.target, r.source, frozenset((y, x) for x, y in r.pairs))


def is_isomorphism(r: FinRel) -> bool:
    """True when r is a bijective function (invertible in the category)."""
    if len(r.pairs) != len(r.source) or len(r.source) != len(r.target):
        return False
    sources = [x for x, _ in r.pairs]
    targets = [y for _, y in r.pairs]
    return len(set(sources)) == len(r.source) and len(set(targets)) == len(r.target)


def all_relations(source: Iterable, target: Iterable):
    """Every relation between two finite sets (2^(mn) of them)."""
    src, tgt = _sorted_obj(source), _sorted_obj(target)
    cells = [(x, y) for x in src for y in tgt]
    for bits in itertools.product((False, True), repeat=len(cells)):
        yield FinRel(src, tgt, frozenset(c for c, keep in zip(cells, bits) if keep))


def _by_source(rels: Iterable[FinRel]) -> dict:
    """source object -> the relations leaving it, in their given order."""
    index = {}
    for r in rels:
        index.setdefault(r.source, []).append(r)
    return index


def dagger_laws_check(objects: list, sample: list[FinRel]) -> dict:
    """Involution, identity-on-objects, and contravariance over composition.

    Contravariance visits only the composable pairs of the sample.
    """
    checks = []

    def record(name, passed, witness=None):
        entry = {"name": name, "passed": bool(passed)}
        if witness is not None:
            entry["witness"] = witness
        checks.append(entry)

    converse = {r: rel_dagger(r) for r in sample}
    bad = [relation_to_json(r) for r in sample if rel_dagger(converse[r]) != r]
    record("involution", not bad, bad[:1] or None)

    bad = [obj for obj in objects if rel_dagger(rel_identity(obj)) != rel_identity(obj)]
    record("identity-on-objects", not bad, bad[:1] or None)

    leaving = _by_source(sample)
    bad = [
        [relation_to_json(r), relation_to_json(s)]
        for r in sample
        for s in leaving.get(r.target, ())
        if rel_dagger(rel_compose(r, s)) != rel_compose(converse[s], converse[r])
    ]
    record("contravariance", not bad, bad[:1] or None)

    return {"checks": checks, "passed": all(c["passed"] for c in checks)}


@dataclass(frozen=True)
class RelEndo:
    """An endofunctor on finite relations given by explicit maps."""

    name: str
    on_object: Callable[[tuple], tuple]
    on_rel: Callable[[FinRel], FinRel]


def identity_endofunctor() -> RelEndo:
    return RelEndo("identity", lambda obj: obj, lambda r: r)


def constant_endofunctor(constant: Iterable) -> RelEndo:
    k = _sorted_obj(constant)
    identity = rel_identity(k)
    return RelEndo("constant", lambda obj: k, lambda r: identity)


def pad_endofunctor(constant: Iterable) -> RelEndo:
    """The tagged disjoint union X + K: elements ("inl", x) and ("inr", k).

    Tagging keeps the summands disjoint under iteration, so the functor
    laws hold for every relation, not only those avoiding K.
    """
    k = _sorted_obj(constant)

    def on_object(obj: tuple) -> tuple:
        return _sorted_obj(
            tuple(("inl", x) for x in obj) + tuple(("inr", c) for c in k)
        )

    def on_rel(r: FinRel) -> FinRel:
        pairs = frozenset((("inl", x), ("inl", y)) for x, y in r.pairs) | frozenset(
            (("inr", c), ("inr", c)) for c in k
        )
        return FinRel(on_object(r.source), on_object(r.target), pairs)

    return RelEndo("pad", on_object, on_rel)


def table_endofunctor(
    object_table: dict[tuple, tuple], rel_table: dict[FinRel, FinRel]
) -> RelEndo:
    """A functor supplied as finite lookup tables (must cover every iterate used)."""

    def on_object(obj: tuple) -> tuple:
        try:
            return object_table[_sorted_obj(obj)]
        except KeyError:
            raise ObjectMismatch(f"functor table does not cover object {obj!r}")

    def on_rel(r: FinRel) -> FinRel:
        try:
            return rel_table[r]
        except KeyError:
            raise ObjectMismatch("functor table does not cover a needed relation")

    return RelEndo("table", on_object, on_rel)


def rel_endo_laws_check(functor: RelEndo, rels: list[FinRel]) -> dict:
    """Functoriality and the dagger-functor law on the supplied relations.

    Each law is checked once per distinct relation (and per composable pair
    of distinct relations); repeats cannot change the outcome.
    """
    checks = []

    def record(name, passed):
        checks.append({"name": name, "passed": bool(passed)})

    rels = list(dict.fromkeys(rels))
    leaving = _by_source(rels)
    objs = {r.source for r in rels} | {r.target for r in rels}
    record(
        "preserves-identities",
        all(
            functor.on_rel(rel_identity(obj)) == rel_identity(functor.on_object(obj))
            for obj in objs
        ),
    )
    record(
        "preserves-composition",
        all(
            functor.on_rel(rel_compose(r, s))
            == rel_compose(functor.on_rel(r), functor.on_rel(s))
            for r in rels
            for s in leaving.get(r.target, ())
        ),
    )
    record(
        "commutes-with-dagger",
        all(functor.on_rel(rel_dagger(r)) == rel_dagger(functor.on_rel(r)) for r in rels),
    )
    return {"checks": checks, "passed": all(c["passed"] for c in checks)}


@dataclass
class RelChain:
    """Objects with connectors; forward connectors go objects[k] -> objects[k+1],
    backward connectors go objects[k+1] -> objects[k]."""

    objects: list[tuple]
    connectors: list[FinRel]
    direction: str  # "forward" | "backward"

    def __post_init__(self):
        for k, conn in enumerate(self.connectors):
            src, tgt = (
                (self.objects[k], self.objects[k + 1])
                if self.direction == "forward"
                else (self.objects[k + 1], self.objects[k])
            )
            if conn.source != src or conn.target != tgt:
                raise ObjectMismatch(f"connector {k} endpoints misaligned")


def mu_chain(functor: RelEndo, c: FinRel, length: int) -> RelChain:
    """X -> F(X) -> F^2(X) -> ... with connectors c, F(c), F^2(c), ..."""
    objects = [c.source]
    connectors = []
    current = c
    for _ in range(length):
        connectors.append(current)
        objects.append(current.target)
        current = functor.on_rel(current)
    return RelChain(objects, connectors, "forward")


def nu_chain(functor: RelEndo, c_dagger: FinRel, length: int) -> RelChain:
    """X <- F(X) <- F^2(X) <- ... with connectors c+, F(c+), F^2(c+), ..."""
    objects = [c_dagger.target]
    connectors = []
    current = c_dagger
    for _ in range(length):
        connectors.append(current)
        objects.append(current.source)
        current = functor.on_rel(current)
    return RelChain(objects, connectors, "backward")


@dataclass(frozen=True)
class StabilizationResult:
    stabilized: bool
    stage: Optional[int]
    colimit: Optional[tuple]
    inspected: int


def chain_colimit_stabilized(chain: RelChain) -> StabilizationResult:
    """First stage after which every materialized connector is an isomorphism.

    At least one connector must witness the stability: an empty suffix is
    not evidence, so a chain whose final connector is not an isomorphism
    is reported as not stabilized.
    """
    iso = [is_isomorphism(conn) for conn in chain.connectors]
    for k in range(len(chain.connectors)):
        if all(iso[k:]):
            return StabilizationResult(True, k, chain.objects[k], len(chain.connectors))
    return StabilizationResult(False, None, None, len(chain.connectors))


def coincidence_check(
    functor: RelEndo, c: FinRel, bound: int = DEFAULT_CHAIN_BOUND
) -> dict:
    """Check the mu/nu coincidence for the converse at desk scale.

    Builds the ascending chain for c and the descending chain for c+,
    verifies stage-wise that the descending connectors are bit-exactly the
    converses of the ascending ones, and when the ascending chain
    stabilizes, that the descending chain stabilizes at the same stage with
    the identical object.
    """
    ascending = mu_chain(functor, c, bound)
    descending = nu_chain(functor, rel_dagger(c), bound)
    laws = rel_endo_laws_check(functor, ascending.connectors)

    checks = list(laws["checks"])
    duality = True
    for k, (up, down) in enumerate(zip(ascending.connectors, descending.connectors)):
        if rel_dagger(up) != down:
            duality = False
            checks.append({"name": "stage-duality", "passed": False, "witness": k})
            break
    if duality:
        checks.append({"name": "stage-duality", "passed": True})

    up_stab = chain_colimit_stabilized(ascending)
    down_stab = chain_colimit_stabilized(descending)
    result = {
        "bound": bound,
        "checks": checks,
        "ascending_stabilized": up_stab.stabilized,
        "descending_stabilized": down_stab.stabilized,
    }
    if up_stab.stabilized:
        agree = (
            down_stab.stabilized
            and down_stab.stage == up_stab.stage
            and down_stab.colimit == up_stab.colimit
        )
        checks.append({"name": "coincidence", "passed": agree})
        result["stage"] = up_stab.stage
        result["coincidence_object"] = list(up_stab.colimit) if agree else None
        result["isomorphism"] = "identity on the stable object" if agree else None
    else:
        result["note"] = "chains did not stabilize within the bound; stage-wise duality only"
    result["passed"] = all(c["passed"] for c in checks)
    return result


# -- seeded instance generation ----------------------------------------------


def random_object(rng: random.Random, prefix: str, max_size: int = 3) -> tuple:
    return tuple(f"{prefix}{i}" for i in range(rng.randint(1, max_size)))


def random_relation(rng: random.Random, source: tuple, target: tuple) -> FinRel:
    pairs = [
        (x, y) for x in source for y in target if rng.random() < 0.5
    ]
    return finrel(source, target, pairs)


def random_instance(rng: random.Random, max_size: int = 3) -> tuple[RelEndo, FinRel]:
    """A seeded (dagger endofunctor, coalgebra-shaped relation) pair."""
    x = random_object(rng, "x", max_size)
    kind = rng.choice(["identity", "constant", "pad"])
    if kind == "identity":
        functor = identity_endofunctor()
        c = random_relation(rng, x, x)
    elif kind == "constant":
        k = random_object(rng, "k", max_size)
        functor = constant_endofunctor(k)
        c = random_relation(rng, x, k)
    else:
        k = random_object(rng, "k", max_size)
        functor = pad_endofunctor(k)
        c = random_relation(rng, x, functor.on_object(x))
    return functor, c
