"""`finrel`, `rel_compose` and `rel_dagger` against the sorted-tuple versions.

The functions below are the earlier implementation, copied verbatim: pairs
kept as a `repr`-sorted tuple, every relation re-validated and re-sorted
through `finrel`.  The library now keeps pairs in a frozenset and sorts
only when writing a relation out; both must give the same objects, the
same pair sets, and the same pairs in the same order once written.
"""

from dataclasses import dataclass
from typing import Iterable

import pytest
from hypothesis import given, settings, strategies as st

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
