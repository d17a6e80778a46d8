"""`finrel`, `rel_compose` and `rel_dagger` against the sorted-tuple versions.

The functions below are the earlier implementation, copied verbatim: pairs
kept as a `repr`-sorted tuple, every relation re-validated and re-sorted
through `finrel`.  The library now keeps one bitmask row per source element
and sorts pairs only when writing a relation out; both must give the same
objects, the same pair sets, and the same pairs in the same order once
written.

A second set of oracles, further down, is the frozenset version that came
between the two: `rel_identity`, `is_isomorphism` and the identity,
constant and pad endofunctors, also copied verbatim.  The library's pad
places tagged elements by position instead of sorting each stage; both
must agree on every object, relation and isomorphism verdict.
"""

from dataclasses import dataclass
from typing import Callable, Iterable

import pytest
from hypothesis import example, given, settings, strategies as st

from midfix import dagger
from midfix.dagger import ObjectMismatch, RelError


def _key(value):
    return (str(type(value)), repr(value))


def _sorted_obj(elements: Iterable) -> tuple:
    return tuple(sorted(set(elements), key=_key))


@dataclass(frozen=True)
class FinRel:
    """A relation between two finite sets, canonically sorted for equality."""

    source: tuple
    target: tuple
    pairs: tuple

    def __post_init__(self):
        for x, y in self.pairs:
            if x not in self.source or y not in self.target:
                raise RelError(f"pair ({x!r}, {y!r}) leaves source x target")

    def holds(self, x, y) -> bool:
        return (x, y) in self.pairs


def finrel(source: Iterable, target: Iterable, pairs: Iterable[tuple]) -> FinRel:
    src, tgt = _sorted_obj(source), _sorted_obj(target)
    return FinRel(src, tgt, tuple(sorted(set((x, y) for x, y in pairs), key=_key)))


def rel_compose(r: FinRel, s: FinRel) -> FinRel:
    """Relational composition r ; s (first r, then s)."""
    if r.target != s.source:
        raise ObjectMismatch("middle objects differ")
    pairs = {
        (x, z) for x, y in r.pairs for y2, z in s.pairs if y == y2
    }
    return finrel(r.source, s.target, pairs)


def rel_dagger(r: FinRel) -> FinRel:
    """Converse: swap source and target and transpose every pair."""
    return finrel(r.target, r.source, [(y, x) for x, y in r.pairs])


# Mixed types exercise the (type, repr) sort key of the objects and pairs.
ATOMS = ["a", "b", "c", "10", "9", 0, 2, 10]
objects = st.lists(st.sampled_from(ATOMS), min_size=0, max_size=4)


@st.composite
def relation_args(draw, source=None):
    source = draw(objects) if source is None else source
    target = draw(objects)
    cells = [(x, y) for x in source for y in target]
    pairs = draw(st.lists(st.sampled_from(cells), max_size=8)) if cells else []
    return source, target, pairs


def same(new: dagger.FinRel, seed: FinRel) -> None:
    assert (new.source, new.target) == (seed.source, seed.target)
    assert new.pairs == frozenset(seed.pairs)
    assert dagger.relation_to_json(new)["pairs"] == [list(p) for p in seed.pairs]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_finrel_compose_dagger_match_the_seed(data):
    source, middle, r_pairs = data.draw(relation_args())
    _, target, s_pairs = data.draw(relation_args(source=middle))
    r_new, r_seed = dagger.finrel(source, middle, r_pairs), finrel(source, middle, r_pairs)
    s_new, s_seed = dagger.finrel(middle, target, s_pairs), finrel(middle, target, s_pairs)
    same(r_new, r_seed)
    same(s_new, s_seed)
    same(dagger.rel_dagger(r_new), rel_dagger(r_seed))
    same(dagger.rel_compose(r_new, s_new), rel_compose(r_seed, s_seed))


@settings(max_examples=100, deadline=None)
@given(relation_args(), st.sampled_from(["z", 99]))
def test_pairs_outside_the_objects_rejected_alike(args, stranger):
    source, target, pairs = args
    bad = pairs + [(stranger, target[0] if target else stranger)]
    with pytest.raises(RelError):
        finrel(source, target, bad)
    with pytest.raises(RelError):
        dagger.finrel(source, target, bad)


# -- the frozenset versions of the identity, the isomorphism test and the
# -- endofunctors, copied verbatim ---------------------------------------------


def rel_identity(obj: Iterable) -> FinRel:
    elems = _sorted_obj(obj)
    return FinRel(elems, elems, frozenset((x, x) for x in elems))


def is_isomorphism(r: FinRel) -> bool:
    """True when r is a bijective function (invertible in the category)."""
    if len(r.pairs) != len(r.source) or len(r.source) != len(r.target):
        return False
    sources = [x for x, _ in r.pairs]
    targets = [y for _, y in r.pairs]
    return len(set(sources)) == len(r.source) and len(set(targets)) == len(r.target)


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


def same_rel(new: dagger.FinRel, old: FinRel) -> None:
    """The same objects and pairs, the pairs written in `_key` order."""
    assert (new.source, new.target) == (old.source, old.target)
    assert new.pairs == frozenset(old.pairs)
    written = dagger.relation_to_json(new)["pairs"]
    assert written == [list(p) for p in sorted(old.pairs, key=_key)]


@st.composite
def bijection_args(draw):
    """A bijection between two objects of one size, sometimes with one more pair."""
    source = draw(st.lists(st.sampled_from(ATOMS), unique=True, max_size=4))
    target = draw(st.lists(st.sampled_from(ATOMS), unique=True,
                           min_size=len(source), max_size=len(source)))
    pairs = list(zip(source, draw(st.permutations(target))))
    if source and draw(st.booleans()):
        pairs.append((draw(st.sampled_from(source)), draw(st.sampled_from(target))))
    return source, target, pairs


@settings(max_examples=300, deadline=None)
@given(objects, st.one_of(relation_args(), bijection_args()))
def test_identity_and_isomorphism_match_the_parent(obj, args):
    same_rel(dagger.rel_identity(obj), rel_identity(obj))
    new, old = dagger.finrel(*args), finrel(*args)
    assert dagger.is_isomorphism(new) == is_isomorphism(old)


FUNCTORS = {
    "identity": (lambda k: dagger.identity_endofunctor(), lambda k: identity_endofunctor()),
    "constant": (dagger.constant_endofunctor, constant_endofunctor),
    "pad": (dagger.pad_endofunctor, pad_endofunctor),
}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(FUNCTORS)), objects, relation_args())
# ("inl", "a") sorts before ("inl", 0) although "a" sorts after 0
@example("pad", [10, "9"], ([0, "a"], [0, "a"], [(0, "a"), ("a", 0)]))
def test_endofunctors_match_the_parent(kind, constant, args):
    # three iterates from a base that may mix types, whose padded order
    # then differs from the base order
    new_f, old_f = (make(constant) for make in FUNCTORS[kind])
    new, old = dagger.finrel(*args), finrel(*args)
    new_obj, old_obj = new.source, old.source
    for _ in range(3):
        new_obj, old_obj = new_f.on_object(new_obj), old_f.on_object(old_obj)
        assert new_obj == old_obj
        new, old = new_f.on_rel(new), old_f.on_rel(old)
        same_rel(new, old)

