"""`colim_eq`, `mu_eq` and `mu_enumerate` against the first implementations.

`colim_eq` below is the first implementation, kept verbatim as a reference:
it matches every pair of generators and re-closes the relation transitively
after each round.  The library now merges classes keyed by root symbol and
leaf classes; both must compute the same least relation.

`_mu_eq_terms`, `_leaf_canon` and `mu_enumerate` are the first versions of
mu(b) equality, also verbatim except that `mu_enumerate` collects (rank,
term) pairs instead of `MuElement`s: unfold both terms to a common rank and
match them leaf by leaf, or relabel leaves by the least member of their
class.  The library now decides all of it through `ColimEq.key`, and
enumerates mu(b) over the quotient b/~ only; the last tests draw
coalgebras whose quotient is forced to be smaller than the coalgebra.
"""

import itertools
from typing import Callable

import pytest
from hypothesis import given, settings, strategies as st

from midfix import fixcat
from midfix.fixcat import Coalgebra, ColimEq, coalgebra
from midfix.signature import (
    DEFAULT_TERM_CAP,
    CapExceeded,
    Term,
    enumerate_rank,
    map_leaves,
    signature,
    term_to_str,
    unfold,
)


def _match_trees(t1, t2, related: Callable) -> bool:
    if t1[0] == "var" and t2[0] == "var":
        return related(t1[1], t2[1])
    if t1[0] == "op" and t2[0] == "op" and t1[1] == t2[1]:
        return all(_match_trees(c1, c2, related) for c1, c2 in zip(t1[2], t2[2]))
    return False


def colim_eq(b: Coalgebra) -> ColimEq:
    """Saturate the closure: same root in b and all leaf pairs already related.

    The least fixpoint relates x and y exactly when some finite unfolding
    of the two generators is syntactically equal; it is an equivalence
    relation, re-closed transitively after each structural round.
    """
    rel = {(x, x) for x in b.carrier}
    rules = b.rules()
    changed = True
    while changed:
        changed = False
        for x, y in itertools.combinations(b.carrier, 2):
            if (x, y) in rel:
                continue
            if _match_trees(rules[x].tree, rules[y].tree, lambda u, v: (u, v) in rel):
                rel.add((x, y))
                rel.add((y, x))
                changed = True
        for (x, y), (y2, z) in itertools.product(list(rel), repeat=2):
            if y == y2 and (x, z) not in rel:
                rel.add((x, z))
                rel.add((z, x))
                changed = True
    return ColimEq(b, frozenset(rel))


def _mu_eq_terms(b: Coalgebra, t1: Term, t2: Term, eq: ColimEq) -> bool:
    rules = b.rules()
    if t1.rank < t2.rank:
        t1 = unfold(t1, rules, t2.rank - t1.rank)
    elif t2.rank < t1.rank:
        t2 = unfold(t2, rules, t1.rank - t2.rank)
    return _match_trees(t1.tree, t2.tree, eq.same)


def _leaf_canon(b: Coalgebra, eq: ColimEq) -> dict:
    """Pick the least member of each generator class as its canonical label."""
    return {
        x: min((y for y in b.carrier if eq.same(x, y)), key=str) for x in b.carrier
    }


def mu_enumerate(
    b: Coalgebra, max_rank: int, cap: int = DEFAULT_TERM_CAP
) -> list[tuple]:
    """Minimal-rank canonical representatives of all colimit classes that have
    a representative of rank <= max_rank, in deterministic order.

    Two same-rank terms are colimit-equal iff they agree after relabeling
    leaves by their generator-class representative; classes found at lower
    ranks are carried forward by unfolding their canonical key, so dedup is
    a hash lookup rather than pairwise comparison.
    """
    eq = colim_eq(b)
    canon = _leaf_canon(b, eq)
    rules = b.rules()

    def canon_tree(tree):
        if tree[0] == "var":
            return ("var", canon[tree[1]])
        return ("op", tree[1], tuple(canon_tree(c) for c in tree[2]))

    # unfolding a canonical key: each class representative unfolds to the
    # same canonical tree, so substituting canon(b(leaf)) is well defined
    canon_rules = {x: canon_tree(rules[x].tree) for x in b.carrier}

    def unfold_key(tree):
        if tree[0] == "var":
            return canon_rules[tree[1]]
        return ("op", tree[1], tuple(unfold_key(c) for c in tree[2]))

    classes: list[tuple] = []
    frontier: dict = {}
    seen = 0
    for rank in range(max_rank + 1):
        if rank > 0:
            frontier = {unfold_key(key): idx for key, idx in frontier.items()}
        terms = enumerate_rank(b.sig, b.carrier, rank, cap)
        seen += len(terms)
        if seen > cap:
            raise CapExceeded(rank, seen, cap)
        for t in sorted(terms, key=lambda t: t.sort_key()):
            key = canon_tree(t.tree)
            if key not in frontier:
                frontier[key] = len(classes)
                classes.append((rank, t))
    return classes


@st.composite
def coalgebras(draw):
    """A random signature (1-3 operations of arity <= 3) and a coalgebra on
    1-7 generators; few operations make identifications common."""
    arities = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    sig = signature([(f"op{i}", a) for i, a in enumerate(arities)])
    carrier = [f"x{i}" for i in range(draw(st.integers(1, 7)))]
    gen = st.sampled_from(carrier)
    structure = {}
    for x in carrier:
        i = draw(st.integers(0, len(arities) - 1))
        leaves = tuple(("var", draw(gen)) for _ in range(arities[i]))
        structure[x] = Term(sig, 1, ("op", f"op{i}", leaves))
    return coalgebra(sig, carrier, structure)


@settings(max_examples=400, deadline=None)
@given(coalgebras())
def test_class_merging_matches_pairwise_closure(b):
    assert fixcat.colim_eq(b).rel == colim_eq(b).rel


@st.composite
def small_coalgebras(draw):
    """A random signature (1-3 operations of arity <= 3) and a coalgebra on
    1-5 generators."""
    arities = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    sig = signature([(f"op{i}", a) for i, a in enumerate(arities)])
    carrier = [f"x{i}" for i in range(draw(st.integers(1, 5)))]
    structure = {}
    for x in carrier:
        i = draw(st.integers(0, len(arities) - 1))
        leaves = tuple(("var", draw(st.sampled_from(carrier))) for _ in range(arities[i]))
        structure[x] = Term(sig, 1, ("op", f"op{i}", leaves))
    return coalgebra(sig, carrier, structure)


def _tree(draw, b: Coalgebra, rank: int, depth: int = 0):
    """A random tree of F^rank(B): generators at depth rank, constants above."""
    if depth == rank:
        return ("var", draw(st.sampled_from(b.carrier)))
    symbol, arity = draw(st.sampled_from(b.sig.sorted_ops()))
    return ("op", symbol, tuple(_tree(draw, b, rank, depth + 1) for _ in range(arity)))


@st.composite
def term_pairs(draw):
    """A coalgebra and two terms of different ranks <= 3.  The second is
    either drawn freely or is the first unfolded and then relabelled by a
    random map on the carrier, so that both verdicts come up often."""
    b = draw(small_coalgebras())
    r1 = draw(st.integers(0, 2))
    r2 = draw(st.integers(r1 + 1, 3))
    t1 = Term(b.sig, r1, _tree(draw, b, r1))
    if draw(st.booleans()):
        t2 = Term(b.sig, r2, _tree(draw, b, r2))
    else:
        relabel = {x: draw(st.sampled_from(b.carrier)) for x in b.carrier}
        t2 = map_leaves(unfold(t1, b.rules(), r2 - r1), relabel)
    if draw(st.booleans()):
        t1, t2 = t2, t1
    return b, t1, t2


@settings(max_examples=400, deadline=None)
@given(term_pairs())
def test_mu_eq_matches_unfold_and_match(pair):
    b, t1, t2 = pair
    expected = _mu_eq_terms(b, t1, t2, colim_eq(b))
    assert fixcat.mu_eq(fixcat.mu_element(b, t1), fixcat.mu_element(b, t2)) == expected


@settings(max_examples=300, deadline=None)
@given(small_coalgebras(), st.integers(0, 3))
def test_mu_enumerate_matches_seed(b, max_rank):
    try:
        expected = mu_enumerate(b, max_rank, cap=2000)
    except CapExceeded:
        with pytest.raises(CapExceeded):
            fixcat.mu_enumerate(b, max_rank, cap=2000)
        return
    classes = fixcat.mu_enumerate(b, max_rank, cap=2000)
    assert [(e.rank, e.representative) for e in classes] == expected


@st.composite
def colliding_coalgebras(draw):
    """Like `small_coalgebras`, but on carriers such as (1, "1", 2): labels
    whose `str` coincide tie in `Term.sort_key`, so the order of ties matters."""
    arities = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3))
    sig = signature([(f"op{i}", a) for i, a in enumerate(arities)])
    labels = st.sampled_from([1, "1", 2, "2", "x"])
    carrier = draw(st.lists(labels, min_size=1, max_size=4, unique=True))
    structure = {}
    for x in carrier:
        i = draw(st.integers(0, len(arities) - 1))
        leaves = tuple(("var", draw(st.sampled_from(carrier))) for _ in range(arities[i]))
        structure[x] = Term(sig, 1, ("op", f"op{i}", leaves))
    return coalgebra(sig, carrier, structure)


@settings(max_examples=200, deadline=None)
@given(colliding_coalgebras())
def test_mu_enumerate_orders_tied_sort_keys_like_the_seed(b):
    try:
        expected = mu_enumerate(b, 2, cap=2000)
    except CapExceeded:
        with pytest.raises(CapExceeded):
            fixcat.mu_enumerate(b, 2, cap=2000)
        return
    classes = fixcat.mu_enumerate(b, 2, cap=2000)
    assert [(e.rank, e.representative) for e in classes] == expected


@st.composite
def quotiented_coalgebras(draw):
    """A coalgebra of `small_coalgebras` plus 1-4 copies of its generators.
    A copy of x has b(x)'s symbol over b(x)'s leaves, each leaf possibly
    replaced by an earlier copy of it, so every copy is identified with its
    original and the quotient b/~ is smaller than b.  Copies are named to
    sort before or after the generators ("a..." or "y..."), so that either
    can be the label of a class."""
    b = draw(small_coalgebras())
    structure, copies = dict(b.rules()), {x: [x] for x in b.carrier}
    for n in range(draw(st.integers(1, 4))):
        x = draw(st.sampled_from(b.carrier))
        _, symbol, children = b.rule(x).tree
        leaves = tuple(("var", draw(st.sampled_from(copies[y]))) for _, y in children)
        name = f"{draw(st.sampled_from('ay'))}{n}"
        structure[name] = Term(b.sig, 1, ("op", symbol, leaves))
        copies[x].append(name)
    return coalgebra(b.sig, list(structure), structure)


@settings(max_examples=300, deadline=None)
@given(quotiented_coalgebras(), st.integers(0, 3))
def test_mu_enumerate_over_the_quotient_matches_seed(b, max_rank):
    assert len(set(fixcat.colim_eq(b)._leaf.values())) < len(b.carrier)
    try:
        expected = mu_enumerate(b, max_rank, cap=2000)
    except CapExceeded as exc:
        with pytest.raises(CapExceeded) as raised:
            fixcat.mu_enumerate(b, max_rank, cap=2000)
        assert (raised.value.level, raised.value.count) == (exc.level, exc.count)
        return
    classes = fixcat.mu_enumerate(b, max_rank, cap=2000)
    assert [(e.rank, e.representative) for e in classes] == expected


@settings(max_examples=100, deadline=None)
@given(quotiented_coalgebras(), st.integers(0, 3))
def test_mu_enumerate_builds_nodes_over_class_labels_only(b, max_rank):
    try:
        classes = fixcat.mu_enumerate(b, max_rank, cap=2000)
    except CapExceeded:
        return
    labels = set(fixcat.colim_eq(b)._leaf.values())
    for e in classes[:1]:  # the classes share one table
        assert {key for key in e.nodes.keys if key[0] == "var"} <= labels


def test_class_labels_follow_str_order_not_carrier_order():
    # p and q unfold alike; the seed sorts generators by str, so p, the
    # first of the class in that order, represents it, not q, the first
    # in this carrier's order
    sig = signature([("z", 0), ("s", 1)])
    z = Term(sig, 1, ("op", "z", ()))
    b = Coalgebra(sig, ("q", "p"), (("p", z), ("q", z)))
    classes = fixcat.mu_enumerate(b, 1)
    assert [(e.rank, e.representative) for e in classes] == mu_enumerate(b, 1)
    assert [term_to_str(e.representative) for e in classes] == ["p", "s(p)"]
