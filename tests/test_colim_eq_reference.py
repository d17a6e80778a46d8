"""`colim_eq` against the original pairwise-closure algorithm.

`colim_eq` below is the first implementation, kept verbatim as a reference:
it matches every pair of generators and re-closes the relation transitively
after each round.  The library now merges classes keyed by root symbol and
leaf classes; both must compute the same least relation.
"""

import itertools
from typing import Callable

from hypothesis import given, settings, strategies as st

from midfix import fixcat
from midfix.fixcat import Coalgebra, ColimEq, coalgebra
from midfix.signature import Term, signature


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
