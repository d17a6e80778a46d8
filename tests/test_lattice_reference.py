"""The bitmask `check_lattice` against the pairwise one it replaced.

`FinLattice` and `check_lattice` below are the earlier implementation,
copied verbatim: O(|<=|^2) transitivity and join/meet by scanning all
upper and lower bounds.  On every relation over up to three labelled
elements, and on every reflexive relation over four (4096 of them), both
must accept or reject alike, rejecting with the same exception class and
the same law or kind.  On each accepted lattice the mask-based join, meet,
bottom, top and covers must equal the brute-force ones.
"""

import itertools
from dataclasses import dataclass

import pytest

from midfix import lattice as new
from midfix.lattice import LatticeError, MissingJoinOrMeet, NotAPartialOrder


@dataclass(frozen=True)
class FinLattice:
    """A finite complete lattice: elements plus a validated order relation."""

    elements: tuple
    leq: frozenset  # pairs (x, y) with x <= y, reflexive pairs included

    def le(self, x, y) -> bool:
        return (x, y) in self.leq

    def upper_bounds(self, x, y) -> list:
        return [z for z in self.elements if self.le(x, z) and self.le(y, z)]

    def lower_bounds(self, x, y) -> list:
        return [z for z in self.elements if self.le(z, x) and self.le(z, y)]

    def join(self, x, y):
        ubs = self.upper_bounds(x, y)
        least = [z for z in ubs if all(self.le(z, w) for w in ubs)]
        return least[0]

    def meet(self, x, y):
        lbs = self.lower_bounds(x, y)
        greatest = [z for z in lbs if all(self.le(w, z) for w in lbs)]
        return greatest[0]

    @property
    def bottom(self):
        return next(x for x in self.elements if all(self.le(x, y) for y in self.elements))

    @property
    def top(self):
        return next(y for y in self.elements if all(self.le(x, y) for x in self.elements))

    def covers(self) -> list[tuple]:
        """Covering pairs (x, y): x < y with nothing strictly between."""
        out = []
        for x in self.elements:
            for y in self.elements:
                if x == y or not self.le(x, y):
                    continue
                if any(
                    z != x and z != y and self.le(x, z) and self.le(z, y)
                    for z in self.elements
                ):
                    continue
                out.append((x, y))
        return out


def check_lattice(elements, leq_pairs) -> FinLattice:
    """Validate the poset laws and existence of all binary joins and meets."""
    elems = tuple(elements)
    if not elems:
        raise LatticeError("lattice needs at least one element")
    rel = frozenset((x, y) for x, y in leq_pairs)
    for x in elems:
        if (x, x) not in rel:
            raise NotAPartialOrder("reflexivity", (x, x))
    for x, y in rel:
        if x != y and (y, x) in rel:
            raise NotAPartialOrder("antisymmetry", (x, y))
    for x, y in rel:
        for y2, z in rel:
            if y == y2 and (x, z) not in rel:
                raise NotAPartialOrder("transitivity", (x, z))
    lat = FinLattice(elems, rel)
    for x, y in itertools.combinations_with_replacement(elems, 2):
        ubs = lat.upper_bounds(x, y)
        if len([z for z in ubs if all(lat.le(z, w) for w in ubs)]) != 1:
            raise MissingJoinOrMeet("join", (x, y))
        lbs = lat.lower_bounds(x, y)
        if len([z for z in lbs if all(lat.le(w, z) for w in lbs)]) != 1:
            raise MissingJoinOrMeet("meet", (x, y))
    return lat


def _relations(n: int, reflexive_only: bool):
    elems = tuple(f"e{i}" for i in range(n))
    diag = [(x, x) for x in elems]
    cells = [(x, y) for x in elems for y in elems if x != y or not reflexive_only]
    for bits in itertools.product((False, True), repeat=len(cells)):
        kept = [c for c, keep in zip(cells, bits) if keep]
        yield elems, (diag + kept if reflexive_only else kept)


def _outcome(check, elems, pairs):
    """("ok", lattice) or (exception class, law or kind)."""
    try:
        return "ok", check(elems, pairs)
    except NotAPartialOrder as exc:
        return NotAPartialOrder, exc.law
    except MissingJoinOrMeet as exc:
        return MissingJoinOrMeet, exc.kind
    except LatticeError as exc:
        return LatticeError, str(exc)


@pytest.mark.parametrize(
    "n,reflexive_only", [(1, False), (2, False), (3, False), (4, True)]
)
def test_same_verdicts_and_operations_as_the_seed(n, reflexive_only):
    accepted = 0
    for elems, pairs in _relations(n, reflexive_only):
        seed_kind, seed = _outcome(check_lattice, elems, pairs)
        kind, got = _outcome(new.check_lattice, elems, pairs)
        assert kind == seed_kind, (elems, pairs)
        if kind != "ok":
            assert got == seed, (elems, pairs)
            continue
        accepted += 1
        assert (got.elements, got.leq) == (seed.elements, seed.leq)
        assert (got.bottom, got.top) == (seed.bottom, seed.top)
        assert got.covers() == seed.covers()
        for x, y in itertools.product(elems, repeat=2):
            assert got.join(x, y) == seed.join(x, y), (pairs, x, y)
            assert got.meet(x, y) == seed.meet(x, y), (pairs, x, y)
    assert accepted > 0


def test_empty_lattice_rejected_alike():
    assert _outcome(new.check_lattice, (), []) == _outcome(check_lattice, (), [])
