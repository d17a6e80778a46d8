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

import functools
import itertools
import operator
import random
from collections import namedtuple
from collections.abc import Callable, Iterable

from .checks import verdict

DEFAULT_CHAIN_BOUND = 32


class RelError(ValueError):
    pass


class ObjectMismatch(RelError):
    pass


def _key(value):
    return (str(type(value)), repr(value))


def _sorted_obj(elements: Iterable) -> tuple:
    return tuple(sorted(set(elements), key=_key))


def _bits(mask: int):
    """The positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class FinRel(namedtuple("FinRel", "source target rows")):
    """A relation between two finite sets, stored as bit rows: bit j of
    rows[i] is set when source[i] is related to target[j].

    The objects are canonically sorted tuples, sorted once where a relation
    is built from outside data (`finrel`); `pairs` is derived from the rows
    and sorted only when written out (`relation_to_json`).  A named tuple,
    so that building and comparing relations runs in C.
    """

    __slots__ = ()

    @property
    def pairs(self) -> frozenset:
        tgt = self.target
        return frozenset(
            (x, tgt[j]) for x, row in zip(self.source, self.rows) for j in _bits(row)
        )


def finrel(source: Iterable, target: Iterable, pairs: Iterable[tuple]) -> FinRel:
    """Sort both objects and check that every pair lies in source x target."""
    src, tgt = _sorted_obj(source), _sorted_obj(target)
    at, bit = {x: i for i, x in enumerate(src)}, {y: 1 << j for j, y in enumerate(tgt)}
    rows = [0] * len(src)
    for x, y in pairs:
        if x not in at or y not in bit:
            raise RelError(f"pair ({x!r}, {y!r}) leaves source x target")
        rows[at[x]] |= bit[y]
    return FinRel(src, tgt, tuple(rows))


def relation_to_json(r: FinRel) -> dict:
    """The spec form of r, pairs in canonical order."""
    return {
        "source": list(r.source),
        "target": list(r.target),
        "pairs": [list(p) for p in sorted(r.pairs, key=_key)],
    }


def _identity(obj: tuple) -> FinRel:
    """The identity on an object that is already canonically sorted."""
    return FinRel(obj, obj, tuple(1 << i for i in range(len(obj))))


def rel_identity(obj: Iterable) -> FinRel:
    return _identity(_sorted_obj(obj))


def rel_compose(r: FinRel, s: FinRel) -> FinRel:
    """Relational composition r ; s (first r, then s): each row of r ORs
    the rows of s at its set bits."""
    if r.target != s.source:
        raise ObjectMismatch("middle objects differ")
    srows = s.rows
    rows = []
    for row in r.rows:
        image = 0
        while row:
            low = row & -row
            image |= srows[low.bit_length() - 1]
            row ^= low
        rows.append(image)
    return FinRel(r.source, s.target, tuple(rows))


def rel_dagger(r: FinRel) -> FinRel:
    """Converse: swap source and target and transpose the rows."""
    cols = [0] * len(r.target)
    bit = 1
    for row in r.rows:
        while row:
            low = row & -row
            cols[low.bit_length() - 1] |= bit
            row ^= low
        bit <<= 1
    return FinRel(r.target, r.source, tuple(cols))


def is_isomorphism(r: FinRel) -> bool:
    """True when r is a bijective function: with as many rows as columns, at
    most one bit in every row and every column covered."""
    return (
        len(r.source) == len(r.target)
        and all(not row & (row - 1) for row in r.rows)
        and functools.reduce(operator.or_, r.rows, 0) == (1 << len(r.target)) - 1
    )


def all_relations(source: Iterable, target: Iterable):
    """Every relation between two finite sets (2^(mn) of them), in the order of
    the cell-by-cell product: the last target of the last source flips first."""
    src, tgt = _sorted_obj(source), _sorted_obj(target)
    m = len(tgt)
    rows = [sum(1 << (m - 1 - j) for j in _bits(v)) for v in range(1 << m)]
    for combo in itertools.product(rows, repeat=len(src)):
        yield FinRel(src, tgt, combo)


def _first(found: Iterable) -> list | None:
    """[the first counterexample found], or None when there is none; found
    is lazy, so later counterexamples are never built."""
    return next(([x] for x in found), None)


def dagger_laws_check(objects: list, sample: list[FinRel]) -> dict:
    """Involution, identity-on-objects, and contravariance over composition.

    Contravariance visits only the composable pairs of the sample.  A law
    that fails carries its first counterexample as the witness.
    """
    converse = [rel_dagger(r) for r in sample]
    dual, leaving = list(zip(sample, converse)), {}
    for r, rc in dual:  # source object -> the relations leaving it, with their converses
        leaving.setdefault(r.source, []).append((r, rc))
    return verdict(
        {
            "involution": _first(relation_to_json(r) for r, rc in dual if rel_dagger(rc) != r),
            "identity-on-objects": _first(
                obj for obj in objects if rel_dagger(rel_identity(obj)) != rel_identity(obj)
            ),
            "contravariance": _first(
                [relation_to_json(r), relation_to_json(s)]
                for r, rc in dual
                for s, sc in leaving.get(r.target, ())
                if rel_dagger(rel_compose(r, s)) != rel_compose(sc, rc)
            ),
        }
    )


class RelEndo:
    """An endofunctor on finite relations; on_object maps sorted objects to sorted ones."""

    def __init__(self, name: str, on_object: Callable[[tuple], tuple],
                 on_rel: Callable[[FinRel], FinRel]):
        self.name, self.on_object, self.on_rel = name, on_object, on_rel


def identity_endofunctor() -> RelEndo:
    return RelEndo("identity", lambda obj: obj, lambda r: r)


def constant_endofunctor(constant: Iterable) -> RelEndo:
    identity = rel_identity(constant)
    return RelEndo("constant", lambda obj: identity.source, lambda r: identity)


def pad_endofunctor(constant: Iterable) -> RelEndo:
    """The tagged disjoint union X + K: elements ("inl", x) and ("inr", k).

    Tagging keeps the summands disjoint under iteration, so the functor laws
    hold for every relation, not only those avoiding K.  Each ("inl", x) sorts
    before each ("inr", k), and a tag's key puts one prefix before repr(x), so
    an object of one type keeps its order; only one whose first and last
    elements differ in type (it is sorted by type first) is sorted again.
    """
    inr = tuple(sorted((("inr", c) for c in _sorted_obj(constant)), key=_key))

    def order(obj: tuple):
        if not obj or type(obj[0]) is type(obj[-1]):
            return range(len(obj))
        return sorted(range(len(obj)), key=lambda i: _key(("inl", obj[i])))

    def on_object(obj: tuple) -> tuple:
        return tuple([("inl", obj[i]) for i in order(obj)]) + inr

    def on_rel(r: FinRel) -> FinRel:
        rows, tgt = r.rows, order(r.target)
        if not isinstance(tgt, range):
            place = {old: 1 << new for new, old in enumerate(tgt)}
            rows = [sum(place[j] for j in _bits(row)) for row in rows]
        shift = len(r.target)
        rows = [rows[i] for i in order(r.source)] + [1 << (shift + m) for m in range(len(inr))]
        return FinRel(on_object(r.source), on_object(r.target), tuple(rows))

    return RelEndo("pad", on_object, on_rel)


def table_endofunctor(
    object_table: dict[tuple, tuple], rel_table: dict[FinRel, FinRel]
) -> RelEndo:
    """A functor supplied as finite lookup tables (must cover every iterate used)."""

    def on_object(obj: tuple) -> tuple:
        try:
            return object_table[obj]
        except KeyError:
            raise ObjectMismatch(f"functor table does not cover object {obj!r}")

    def on_rel(r: FinRel) -> FinRel:
        try:
            return rel_table[r]
        except KeyError:
            raise ObjectMismatch("functor table does not cover a needed relation")

    return RelEndo("table", on_object, on_rel)


def rel_endo_laws_check(functor: RelEndo, rels: list[FinRel]) -> dict:
    """Functoriality and the dagger-functor law on the supplied relations."""
    return verdict(_endo_law_witnesses(functor, rels))


def _endo_law_witnesses(functor: RelEndo, rels: list[FinRel]) -> dict:
    """Each law's first counterexample, in the form `dagger_laws_check`
    writes, or None.  Each law is checked once per distinct relation (and
    per composable pair of distinct relations), in the order the relations
    and their objects first appear; repeats cannot change the outcome.
    """
    rels, leaving = list(dict.fromkeys(rels)), {}
    for r in rels:
        leaving.setdefault(r.source, []).append(r)
    objs = dict.fromkeys(obj for r in rels for obj in (r.source, r.target))
    on_rel = functor.on_rel
    return {
        "preserves-identities": _first(
            obj for obj in objs if on_rel(_identity(obj)) != _identity(functor.on_object(obj))
        ),
        "preserves-composition": _first(
            [relation_to_json(r), relation_to_json(s)]
            for r in rels
            for s in leaving.get(r.target, ())
            if on_rel(rel_compose(r, s)) != rel_compose(on_rel(r), on_rel(s))
        ),
        "commutes-with-dagger": _first(
            relation_to_json(r) for r in rels if on_rel(rel_dagger(r)) != rel_dagger(on_rel(r))
        ),
    }


class RelChain:
    """Objects with connectors; forward connectors go objects[k] -> objects[k+1],
    backward connectors go objects[k+1] -> objects[k] (direction "forward" or
    "backward")."""

    def __init__(self, objects: list[tuple], connectors: list[FinRel], direction: str):
        ends = (0, 1) if direction == "forward" else (1, 0)
        for k, conn in enumerate(connectors):
            if (conn.source, conn.target) != tuple(objects[k + e] for e in ends):
                raise ObjectMismatch(f"connector {k} endpoints misaligned")
        self.objects, self.connectors, self.direction = objects, connectors, direction


def _chain(functor: RelEndo, current: FinRel, length: int, direction: str) -> RelChain:
    forward = direction == "forward"
    objects, connectors = [current.source if forward else current.target], []
    for _ in range(length):
        connectors.append(current)
        objects.append(current.target if forward else current.source)
        current = functor.on_rel(current)
    return RelChain(objects, connectors, direction)


def mu_chain(functor: RelEndo, c: FinRel, length: int) -> RelChain:
    """X -> F(X) -> F^2(X) -> ... with connectors c, F(c), F^2(c), ..."""
    return _chain(functor, c, length, "forward")


def nu_chain(functor: RelEndo, c_dagger: FinRel, length: int) -> RelChain:
    """X <- F(X) <- F^2(X) <- ... with connectors c+, F(c+), F^2(c+), ..."""
    return _chain(functor, c_dagger, length, "backward")


class StabilizationResult:
    def __init__(self, stabilized: bool, stage: int | None, colimit: tuple | None):
        self.stabilized, self.stage, self.colimit = stabilized, stage, colimit

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.stabilized, self.stage, self.colimit) == (
                other.stabilized, other.stage, other.colimit)
        return NotImplemented

    def __hash__(self):
        return hash((self.stabilized, self.stage, self.colimit))


def chain_colimit_stabilized(chain: RelChain) -> StabilizationResult:
    """First stage after which every materialized connector is an isomorphism.

    At least one connector must witness the stability: an empty suffix is
    not evidence, so a chain whose final connector is not an isomorphism
    is reported as not stabilized.
    """
    iso = [is_isomorphism(conn) for conn in chain.connectors]
    for k in range(len(chain.connectors)):
        if all(iso[k:]):
            return StabilizationResult(True, k, chain.objects[k])
    return StabilizationResult(False, None, None)


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
    witnesses = _endo_law_witnesses(functor, ascending.connectors)
    stages = enumerate(zip(ascending.connectors, descending.connectors))
    witnesses["stage-duality"] = next(
        (k for k, (up, down) in stages if rel_dagger(up) != down), None
    )

    up_stab = chain_colimit_stabilized(ascending)
    down_stab = chain_colimit_stabilized(descending)
    result = {
        "bound": bound,
        "checks": None,  # filled in by the verdict below, keeping its place
        "ascending_stabilized": up_stab.stabilized,
        "descending_stabilized": down_stab.stabilized,
    }
    if up_stab.stabilized:
        agree = down_stab == up_stab  # stabilized, at the same stage, on the same object
        witnesses["coincidence"] = (
            None
            if agree
            else {"descending_stage": down_stab.stage, "descending_object": down_stab.colimit}
        )
        result["stage"] = up_stab.stage
        result["coincidence_object"] = list(up_stab.colimit) if agree else None
        result["isomorphism"] = "identity on the stable object" if agree else None
    else:
        result["note"] = "chains did not stabilize within the bound; stage-wise duality only"
    result.update(verdict(witnesses))
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
        return identity_endofunctor(), random_relation(rng, x, x)
    k = random_object(rng, "k", max_size)
    if kind == "constant":
        return constant_endofunctor(k), random_relation(rng, x, k)
    functor = pad_endofunctor(k)
    return functor, random_relation(rng, x, functor.on_object(x))
