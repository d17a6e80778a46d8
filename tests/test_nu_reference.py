"""Streams into nu(a) and the stages of nu(a) against the first implementations.

`collapse_bottom`, `NuApprox`, `nu_approx`, `NuPointStream` and
`induced_coalg_hom` below are the first versions, kept verbatim as a
reference: a component is re-unfolded from the generator and relabelled,
`check_compatible` collapses each whole component onto the one before it,
and every projection collapses a whole term.  The library now builds each
stage of a hom's cone from the stage below and keeps no projection
tables; components, compatibility verdicts and levels must all be the
same, and `collapse_bottom` must give the seed's projections.

Maps that are not homomorphisms are built by bypassing `CoalgToAlgHom`'s
validation, so that `check_compatible` also meets streams that fail.
"""

import contextlib
import io
import json
import sys
from dataclasses import dataclass
from typing import Callable

import pytest
from hypothesis import given, settings, strategies as st

from midfix import cli, fixcat
from midfix.fixcat import Algebra, CoalgToAlgHom, FixcatError, algebra, coalgebra
from midfix.signature import (
    DEFAULT_TERM_CAP,
    CapExceeded,
    Term,
    enumerate_rank,
    f_enumerate,
    fold,
    map_leaves,
    signature,
    term_to_str,
    unfold_once,
    var_term,
)


def collapse_bottom(t: Term, a: Algebra) -> Term:
    """Apply a to the deepest layer: F^{k+1}(A) -> F^k(A)."""
    if t.rank < 1:
        raise FixcatError("collapse needs rank >= 1")
    table = a.table
    bottom = t.rank - 1

    # leaves fold to their labels; the nodes at depth bottom become leaves
    def op(symbol, children, depth):
        if depth == bottom:
            return ("var", table[(symbol, children)])
        return ("op", symbol, children)

    return Term.derived(t.sig, bottom, fold(t.tree, lambda x, depth: x, op))


@dataclass
class NuApprox:
    """Stages F^k(A) for k <= depth with the collapse projections between them."""

    algebra: Algebra
    depth: int
    levels: list[list[Term]]
    projections: list[dict]  # projections[k] maps rank-(k+1) terms to rank-k terms

    def level_sizes(self) -> list[int]:
        return [len(level) for level in self.levels]


def nu_approx(a: Algebra, depth: int, cap: int = DEFAULT_TERM_CAP) -> NuApprox:
    levels = [enumerate_rank(a.sig, a.carrier, k, cap) for k in range(depth + 1)]
    projections = [
        {t: collapse_bottom(t, a) for t in levels[k + 1]} for k in range(depth)
    ]
    return NuApprox(a, depth, levels, projections)


@dataclass
class NuPointStream:
    """A point of nu(a), presented lazily as compatible terms of each rank."""

    algebra: Algebra
    component: Callable[[int], Term]

    def check_compatible(self, depth: int) -> bool:
        """Each component collapses onto the previous one, up to depth."""
        previous = self.component(0)
        for k in range(1, depth + 1):
            current = self.component(k)
            if collapse_bottom(current, self.algebra) != previous:
                return False
            previous = current
        return True


def induced_coalg_hom(f: CoalgToAlgHom, x) -> NuPointStream:
    """The nu(a) point of a generator: unfold along b, relabel leaves by f."""
    b, a = f.source, f.target
    if x not in b.carrier:
        raise FixcatError(f"{x!r} is not in the carrier")
    rules, fmap = b.rules(), f._map
    # only the latest unfolding is kept: components are read in rising
    # order, and going back restarts from the generator
    latest = [var_term(b.sig, x)]

    def component(k: int) -> Term:
        t = latest[0]
        if t.rank > k:
            t = var_term(b.sig, x)
        while t.rank < k:
            t = unfold_once(t, rules)
        latest[0] = t
        return map_leaves(t, fmap)

    return NuPointStream(a, component)


# -- random instances ------------------------------------------------------------


def unchecked_hom(b, a, f: dict) -> CoalgToAlgHom:
    """A `CoalgToAlgHom` for any map f, built without checking the square."""
    hom = object.__new__(CoalgToAlgHom)
    mapping = tuple(sorted(f.items(), key=lambda p: str(p[0])))
    hom.__dict__.update(source=b, target=a, mapping=mapping, _map=dict(f))
    return hom


@st.composite
def maps(draw):
    """A signature of 1-3 operations of arity <= 2, a coalgebra b on 1-4
    generators, a map f into 1-3 values and an algebra a that makes f a hom
    wherever the square allows: each a(F(f)(b(x))) is set to f(x) unless an
    earlier x took that entry.  About one map in five is not a hom."""
    arities = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3))
    sig = signature([(f"op{i}", k) for i, k in enumerate(arities)])
    carrier = [f"x{i}" for i in range(draw(st.integers(1, 4)))]
    values = [f"a{i}" for i in range(draw(st.integers(1, 3)))]
    structure = {}
    for x in carrier:
        i = draw(st.integers(0, len(arities) - 1))
        leaves = tuple(("var", draw(st.sampled_from(carrier))) for _ in range(arities[i]))
        structure[x] = Term(sig, 1, ("op", f"op{i}", leaves))
    b = coalgebra(sig, carrier, structure)
    f = {x: draw(st.sampled_from(values)) for x in carrier}
    table = {t.tree: draw(st.sampled_from(values)) for t in f_enumerate(sig, values)}
    forced = set()
    for x in carrier:
        _, symbol, children = structure[x].tree
        image = ("op", symbol, tuple(("var", f[y]) for _, y in children))
        if image not in forced:
            forced.add(image)
            table[image] = f[x]
    a = algebra(sig, values, {Term(sig, 1, tree): v for tree, v in table.items()})
    return b, a, f


def _is_hom(b, a, f) -> bool:
    try:
        CoalgToAlgHom(b, a, tuple(sorted(f.items(), key=lambda p: str(p[0]))))
    except FixcatError:
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(maps(), st.integers(0, 6))
def test_streams_match_the_seed(instance, depth):
    b, a, f = instance
    hom = unchecked_hom(b, a, f)
    for x in b.carrier:
        new, seed = fixcat.induced_coalg_hom(hom, x), induced_coalg_hom(hom, x)
        assert [new.component(k) for k in range(depth + 1)] == [
            seed.component(k) for k in range(depth + 1)
        ]
        assert new.component(0) == seed.component(0)  # going back down
        assert new.check_compatible(depth) == seed.check_compatible(depth)


@settings(max_examples=100, deadline=None)
@given(maps())
def test_both_verdicts_come_up(instance):
    # every hom's streams are compatible at every depth; at depth 6 a map
    # that is not a hom fails under both versions for some generator
    b, a, f = instance
    hom = unchecked_hom(b, a, f)
    verdicts = {fixcat.induced_coalg_hom(hom, x).check_compatible(6) for x in b.carrier}
    if _is_hom(b, a, f):
        assert verdicts == {True}
    else:
        assert False in verdicts
        assert False in {induced_coalg_hom(hom, x).check_compatible(6) for x in b.carrier}


def test_a_map_that_is_not_a_hom_is_incompatible_under_both():
    # b(p) = s(p) and a flips parity: f(p) = 0 would need a(s(0)) = 0
    sig = signature([("z", 0), ("s", 1)])
    b = coalgebra(sig, ["p"], {"p": Term(sig, 1, ("op", "s", (("var", "p"),)))})
    a = algebra(
        sig,
        ["0", "1"],
        {
            Term(sig, 1, ("op", "z", ())): "0",
            Term(sig, 1, ("op", "s", (("var", "0"),))): "1",
            Term(sig, 1, ("op", "s", (("var", "1"),))): "0",
        },
    )
    assert not _is_hom(b, a, {"p": "0"})
    hom = unchecked_hom(b, a, {"p": "0"})
    assert fixcat.induced_coalg_hom(hom, "p").check_compatible(3) is False
    assert induced_coalg_hom(hom, "p").check_compatible(3) is False
    assert fixcat.induced_coalg_hom(hom, "p").check_compatible(0) is True


def test_the_square_is_checked_exactly_within_reach():
    # only r breaks the square (a(s(f(r))) = 1, f(r) = 0), and r lies two
    # unfoldings below p: depth d checks the generators d - 1 below
    sig = signature([("z", 0), ("s", 1)])
    b = coalgebra(
        sig,
        ["p", "q", "r"],
        {x: Term(sig, 1, ("op", "s", (("var", y),))) for x, y in zip("pqr", "qrr")},
    )
    a = algebra(
        sig,
        ["0", "1"],
        {
            Term(sig, 1, ("op", "z", ())): "0",
            Term(sig, 1, ("op", "s", (("var", "0"),))): "1",
            Term(sig, 1, ("op", "s", (("var", "1"),))): "0",
        },
    )
    hom = unchecked_hom(b, a, {"p": "0", "q": "1", "r": "0"})
    new, seed = fixcat.induced_coalg_hom(hom, "p"), induced_coalg_hom(hom, "p")
    verdicts = [new.check_compatible(depth) for depth in range(5)]
    assert verdicts == [True, True, True, False, False]
    assert verdicts == [seed.check_compatible(depth) for depth in range(5)]


@settings(max_examples=200, deadline=None)
@given(maps(), st.integers(0, 6))
def test_nu_approx_matches_the_seed(instance, depth):
    _, a, _ = instance
    try:
        expected = nu_approx(a, depth, cap=3000)
    except CapExceeded as exc:
        with pytest.raises(CapExceeded) as raised:
            fixcat.nu_approx(a, depth, cap=3000)
        assert (raised.value.level, raised.value.count) == (exc.level, exc.count)
        return
    approx = fixcat.nu_approx(a, depth, cap=3000)
    assert approx.levels == expected.levels
    # the seed's projection tables are what `collapse_bottom` computes
    for k, level in enumerate(approx.levels[1:]):
        assert [fixcat.collapse_bottom(t, a) for t in level] == [
            expected.projections[k][t] for t in level
        ]


def _trace_report(b, depth: int) -> dict:
    spec = {
        "sig": {"ops": [{"name": s, "arity": k} for s, k in b.sig.ops]},
        "carrier": list(b.carrier),
        "structure": {
            x: {"op": t.tree[1], "args": [y for _, y in t.tree[2]]} for x, t in b.structure
        },
    }
    out, stdin = io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(json.dumps(spec))
    try:
        with contextlib.redirect_stdout(out):
            assert cli.main(["trace", "--stdin", "--depth", str(depth)]) == 0
    finally:
        sys.stdin = stdin
    return json.loads(out.getvalue())


@settings(max_examples=100, deadline=None)
@given(maps(), st.integers(0, 6))
def test_trace_report_renders_the_seed_components(instance, depth):
    b, _, _ = instance
    hom = unchecked_hom(b, fixcat.one_element_algebra(b.sig), {x: "*" for x in b.carrier})
    report = _trace_report(b, depth)
    for x in b.carrier:
        seed = induced_coalg_hom(hom, x)
        assert report["traces"][x] == [term_to_str(seed.component(k)) for k in range(depth + 1)]
