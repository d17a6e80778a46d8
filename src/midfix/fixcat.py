"""The coalgebra-algebra adjunction for a polynomial functor on finite sets.

For a coalgebra b : B -> F(B) the left side mu(b) is the colimit of the
chain B -> F(B) -> F^2(B) -> ...; two of its points (rank, term) are equal
when unfolding to a common rank makes them agree up to the generator
identification ~ of `colim_eq`, so mu(b) is also the colimit for the
quotient b/~, which `mu_enumerate` enumerates.  For an algebra
a : F(A) -> A the right side nu(a) is the limit of A <- F(A) <- ...;
it is never materialized, only depth-bounded stages (`nu_approx`) and
lazily evaluated points (`NuPointStream`) are exposed.

Coalgebra-to-algebra homomorphisms pivot the adjunction: each one induces
an algebra morphism out of mu(b) and a coalgebra morphism into nu(a), and
`adjunction_check` verifies the whole correspondence at desk scale.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Callable, Iterable, Mapping
from functools import cached_property

from .checks import verdict
from .signature import (
    CapExceeded,
    DEFAULT_TERM_CAP,
    NodeTable,
    Signature,
    Term,
    count_rank,
    enumerate_rank,
    f_enumerate,
    f_terms,
    fold,
    term_to_str,
    unfold,
)

DEFAULT_MAX_RANK = 8
DEFAULT_DEPTH = 8


class FixcatError(ValueError):
    pass


class ArityMismatch(FixcatError):
    pass


class Coalgebra:
    """b : B -> F(B), stored as the table x -> (symbol, (x_1..x_k)).

    The carrier is kept in stable str order, however given, and the
    structure as pairs (x, Term of rank 1 over the carrier) in str order of x.
    """

    def __init__(self, sig: Signature, carrier: tuple, structure: tuple):
        carrier = _ordered(carrier)
        structure = tuple(sorted(structure, key=lambda p: str(p[0])))
        table, members = {}, set(carrier)
        for x, t in structure:
            if x in table:
                raise FixcatError(f"structure gives {x!r} a second rule")
            if x not in members:
                raise FixcatError(f"structure names {x!r} outside the carrier")
            if t.rank != 1 or t.sig != sig:
                raise FixcatError(f"structure at {x!r} is not a rank-1 term")
            table[x] = _flat(t)
            for leaf in table[x][1]:
                if leaf not in members:
                    raise FixcatError(f"structure at {x!r} uses unknown {leaf!r}")
        if len(table) < len(carrier):
            missing = next(x for x in carrier if x not in table)
            raise FixcatError(f"structure not total: missing {missing!r}")
        self.sig, self.carrier, self.structure, self.table = sig, carrier, structure, table

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.sig, self.carrier, self.structure) == (
                other.sig, other.carrier, other.structure)
        return NotImplemented

    def __hash__(self):
        return hash((self.sig, self.carrier, self.structure))

    def rule(self, x) -> Term:
        return self.rules()[x]

    def rules(self) -> dict:
        """The structure as a new dict x -> b(x) of rank-1 terms."""
        return dict(self.structure)


def coalgebra(sig: Signature, carrier: Iterable, structure: Mapping) -> Coalgebra:
    return Coalgebra(sig, tuple(carrier), tuple(dict(structure).items()))


class Algebra:
    """a : F(A) -> A, stored as a total table on the rank-1 terms over A.

    The carrier is kept in stable str order, however given, the structure as
    pairs (Term of rank 1 over the carrier, element) in sort_key order, and
    the table maps (symbol, args) to the value.
    """

    def __init__(self, sig: Signature, carrier: tuple, structure: tuple):
        carrier = _ordered(carrier)
        structure = tuple(sorted(structure, key=lambda p: p[0].sort_key()))
        table, members = {}, set(carrier)
        for t, value in structure:
            if t.rank != 1 or t.sig != sig:
                raise FixcatError(f"structure entry {term_to_str(t)} is not a rank-1 term")
            key = _flat(t)
            if key in table:
                raise FixcatError(f"a second entry for {term_to_str(t)}")
            if not members.issuperset(key[1]):
                raise FixcatError(f"structure entry {term_to_str(t)} leaves the carrier")
            if value not in members:
                raise FixcatError(
                    f"structure entry {term_to_str(t)} has value {value!r} outside the carrier"
                )
            table[key] = value
        # total iff every element of F(A) is a key: count the keys, and only
        # search F(A) (lazily, it may be huge) when one is missing
        if len(table) < count_rank(sig, len(carrier), 1):
            missing = next(t for t in f_terms(sig, carrier) if _flat(t) not in table)
            raise FixcatError(f"structure not total: missing {term_to_str(missing)}")
        self.sig, self.carrier, self.structure, self.table = sig, carrier, structure, table

    # equal when their signatures, carriers and structures are; never equal to a coalgebra
    __eq__, __hash__ = Coalgebra.__eq__, Coalgebra.__hash__

    def apply(self, symbol: str, values: tuple):
        if len(values) != self.sig.arity(symbol):
            raise ArityMismatch(f"{symbol!r} applied to {len(values)} arguments")
        return self.table[(symbol, tuple(values))]


def _ordered(carrier: Iterable) -> tuple:
    """The carrier in stable `str` order; an element listed twice (1, 1.0 and
    True are one) is rejected."""
    carrier = tuple(carrier)
    if len(set(carrier)) < len(carrier):
        twice = next(x for i, x in enumerate(carrier) if x in carrier[:i])
        raise FixcatError(f"carrier lists {twice!r} twice")
    return tuple(sorted(carrier, key=str))


def _flat(t: Term) -> tuple:
    """A rank-1 term sigma(x_1..x_k) as the table key (sigma, (x_1..x_k))."""
    _, symbol, children = t.tree
    return symbol, tuple(leaf for _, leaf in children)


def algebra(sig: Signature, carrier: Iterable, structure: Mapping) -> Algebra:
    return Algebra(sig, tuple(carrier), tuple(dict(structure).items()))


def one_element_algebra(sig: Signature, label: str = "*") -> Algebra:
    """The unique algebra on a one-element carrier (the terminal algebra)."""
    return algebra(sig, (label,), {t: label for t in f_enumerate(sig, (label,))})


class CoalgToAlgHom:
    """f : B -> A with f(x) = a(F(f)(b(x))) for every x (the pivot square),
    given as the pairs (x, f(x)) in carrier order."""

    def __init__(self, source: Coalgebra, target: Algebra, mapping: tuple):
        f = dict(mapping)
        for x in source.carrier:
            if x not in f:
                raise FixcatError(f"hom not total: missing {x!r}")
            if f[x] != _pivot(source, target, f, x):
                raise FixcatError(f"square does not commute at {x!r}")
        self.source, self.target, self.mapping, self._map = source, target, mapping, f

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.source, self.target, self.mapping) == (
                other.source, other.target, other.mapping)
        return NotImplemented

    def __hash__(self):
        return hash((self.source, self.target, self.mapping))

    def __call__(self, x):
        return self._map[x]

    def as_dict(self) -> dict:
        return dict(self.mapping)


def next_stage(b: Coalgebra, stage: Mapping, node: Callable) -> dict:
    """F(stage) . b: each generator y to node(symbol, children), where
    b(y) = symbol(z_1..z_m) and the children are stage[z_1]..stage[z_m]."""
    out = {}
    for y in b.carrier:
        symbol, leaves = b.table[y]
        out[y] = node(symbol, tuple(stage[z] for z in leaves))
    return out


def _pivot(b: Coalgebra, a: Algebra, f: Mapping, x):
    """a(F(f)(b(x))): the value the pivot square demands of f at x."""
    symbol, leaves = b.table[x]
    return a.table[(symbol, tuple(f[y] for y in leaves))]


def enumerate_coalg_to_alg(
    b: Coalgebra, a: Algebra, cap: int = DEFAULT_TERM_CAP
) -> list[CoalgToAlgHom]:
    """All coalgebra-to-algebra homomorphisms b -> a, in deterministic order."""
    if b.sig != a.sig:
        raise FixcatError("coalgebra and algebra signatures differ")
    total = len(a.carrier) ** len(b.carrier)
    if total > cap:
        raise CapExceeded(0, total, cap)
    out = []
    for images in itertools.product(a.carrier, repeat=len(b.carrier)):
        f = dict(zip(b.carrier, images))
        if all(f[x] == _pivot(b, a, f, x) for x in b.carrier):
            out.append(CoalgToAlgHom(b, a, tuple(f.items())))
    return out


# -- the colimit mu(b) ------------------------------------------------------


class ColimEq:
    """Least generator identification: x ~ y once their unfoldings agree.

    Points of mu(b) get a canonical form from it: `key(t, rank)` relabels
    each leaf of t to its class label, the member of the class that comes
    first in carrier order, and unfolds the result up to `rank`.
    Two terms are colimit-equal iff their keys at any common rank >= both
    ranks are equal.  The quotient coalgebra b/~ lives in the `NodeTable`
    `nodes`: `_rules` maps each generator to the node of b(x) over the class
    labels, and over the labels a term is its own key.

    It is made from the pairs of the relation, or from each generator's
    class label (`colim_eq`), and then lists the pairs only when `rel` is read.
    """

    def __init__(self, coalgebra: Coalgebra, rel: frozenset | None = None,
                 labels: Mapping | None = None):
        carrier = coalgebra.carrier
        if labels is None:
            labels = {x: next(y for y in carrier if (x, y) in rel) for x in carrier}
            self.rel = rel
        self.coalgebra, self.nodes = coalgebra, NodeTable()
        self._leaf = {x: ("var", labels[x]) for x in carrier}  # x -> ("var", its label)
        # members of one class unfold to the same relabelled node, so
        # unfolding a key through any member is well defined
        label_nodes = {x: self.nodes.node(leaf) for x, leaf in self._leaf.items()}
        self._rules = next_stage(coalgebra, label_nodes, self.nodes.op)

    @cached_property
    def rel(self) -> frozenset:
        """The symmetric reflexive transitive pairs on the carrier."""
        members: dict = {}
        for x, leaf in self._leaf.items():
            members.setdefault(leaf, []).append(x)
        return frozenset((x, y) for x, leaf in self._leaf.items() for y in members[leaf])

    def same(self, x, y) -> bool:
        return self._leaf[x] == self._leaf[y]

    def key(self, t: Term, rank: int) -> int:
        """The canonical form of t at rank (>= t.rank): a node of `nodes`, so
        keys compare within one `ColimEq` only."""
        nodes, leaf, unfolded = self.nodes, self._leaf, {}
        node = fold(t.tree, lambda x, d: nodes.node(leaf[x]), lambda s, kids, d: nodes.op(s, kids))
        for _ in range(rank - t.rank):
            node = nodes.subst(node, self._rules.__getitem__, unfolded)
        return node


def colim_eq(b: Coalgebra) -> ColimEq:
    """Merge classes until stable: x and y join when b(x) and b(y) have the
    same root symbol and their leaves lie pairwise in the same classes.

    The least fixpoint relates x and y exactly when some finite unfolding
    of the two generators is syntactically equal.  Each round keys every
    generator by (root symbol, classes of its leaves) and merges equal
    keys; members of one class always share a key, so a round that yields
    as many keys as there are classes has merged nothing.
    """
    classes = {x: i for i, x in enumerate(b.carrier)}
    count = len(classes)
    while True:
        keys: dict = {}
        rounds = next_stage(b, classes, lambda symbol, kids: (symbol, kids))
        merged = {x: keys.setdefault(key, len(keys)) for x, key in rounds.items()}
        if len(keys) == count:
            break
        classes, count = merged, len(keys)
    first: dict = {}  # class -> its label
    for x in b.carrier:
        first.setdefault(classes[x], x)
    return ColimEq(b, labels={x: first[classes[x]] for x in b.carrier})


class MuElement:
    """A point of mu(b): a representative term over B, of some rank.

    `mu_enumerate` makes each class from its node in a `NodeTable`, with the
    enumeration indices of its children's classes in `below`, and builds the
    representative from the node only when it is first read.  Elements are
    equal when their coalgebras and representatives are.
    """

    __slots__ = ("coalgebra", "rank", "node", "below", "nodes", "_term")

    def __init__(self, coalgebra: Coalgebra, representative: Term | None = None,
                 node: int | None = None, below: tuple = (),
                 nodes: NodeTable | None = None, rank: int | None = None):
        self.coalgebra, self.node, self.below, self.nodes = coalgebra, node, below, nodes
        self._term = representative
        self.rank = representative.rank if representative is not None else rank

    @property
    def representative(self) -> Term:
        if self._term is None:
            tree = self.nodes.tree(self.node)
            self._term = Term.derived(self.coalgebra.sig, self.rank, tree)
        return self._term

    def __eq__(self, other):
        if not isinstance(other, MuElement):
            return NotImplemented
        return (self.coalgebra, self.representative) == (other.coalgebra, other.representative)

    def __hash__(self):
        return hash((self.coalgebra, self.representative))

    def __repr__(self):
        return f"MuElement(rank={self.rank}, representative={term_to_str(self.representative)})"


def mu_element(b: Coalgebra, term: Term) -> MuElement:
    return MuElement(b, term)


def mu_eq(e1: MuElement, e2: MuElement, eq: ColimEq | None = None) -> bool:
    """Colimit equality: equal canonical keys at the higher of the two ranks."""
    if e1.coalgebra != e2.coalgebra:
        raise FixcatError("mu elements live over different coalgebras")
    if eq is None:
        eq = colim_eq(e1.coalgebra)
    rank = max(e1.rank, e2.rank)
    return eq.key(e1.representative, rank) == eq.key(e2.representative, rank)


def mu_enumerate(b: Coalgebra, max_rank: int, cap: int = DEFAULT_TERM_CAP) -> list[MuElement]:
    """Minimal-rank canonical representatives of all colimit classes that have
    a representative of rank <= max_rank, in deterministic order.

    mu(b) is the colimit of the quotient b/~ (`ColimEq._rules`), and the
    minimal representative of a class is a term over the class labels,
    which is its own key.  So stage 0 holds the labels and rank r is stage
    r over them: a symbol over stage-(r-1) terms, one node each.  Terms are
    visited in `sort_key` order.  Unless two labels print alike, that is the
    order of the product itself: by symbol, then by the children in the
    order of the rank below.  If two do, each stage is sorted by symbol and
    the children's places in the order of the rank below (tied children
    share a place).  The classes found at lower ranks are carried one
    unfolding up per rank, each node unfolded once, so dedup is an int
    lookup.  Nodes go into the table of b/~ (`ColimEq.nodes`), which every
    class keeps with its node and its children's classes; it builds its
    representative only when read.  The cap counts the terms of F^r(B), as
    an enumeration over all of B would meet them.
    """
    eq = colim_eq(b)
    nodes, rules = eq.nodes, eq._rules.__getitem__  # b/~
    gens = [x for x in b.carrier if eq._leaf[x] == ("var", x)]
    tied = len(set(map(str, gens))) < len(gens)  # labels that print alike
    unfolded: dict = {}
    classes: list[MuElement] = []
    frontier: dict = {}  # node of a class, unfolded to the rank -> class index
    order: list = []  # the nodes of the terms of the rank, in sort_key order
    place: dict = {}  # if tied: node of a term of the rank below -> its place in order
    seen, count = 0, len(b.carrier)
    for rank in range(max_rank + 1):
        if rank:
            count = count_rank(b.sig, count, 1)
        if count > cap:
            raise CapExceeded(rank, count, cap)
        seen += count
        if seen > cap:
            raise CapExceeded(rank, seen, cap)
        below = frontier  # node of a term of the rank below -> its class index
        if rank == 0:
            order = [nodes.node(("var", x)) for x in gens]
            keys = dict(zip(order, map(str, gens)))
        else:
            frontier = {nodes.subst(k, rules, unfolded): i for k, i in below.items()}
            order = [
                nodes.op(symbol, kids)
                for symbol, arity in b.sig.ops
                for kids in itertools.product(order, repeat=arity)
            ]
            if tied:  # sort by symbol and the children's places
                keys = {
                    n: (nodes.keys[n][1], tuple(map(place.__getitem__, nodes.keys[n][2])))
                    for n in order
                }
                order.sort(key=keys.__getitem__)
        if tied:  # terms with equal keys share the place of the first of them
            first: dict = {}
            place = {n: first.setdefault(keys[n], i) for i, n in enumerate(order)}
        for node in order:
            if node not in frontier:
                frontier[node] = len(classes)
                kids = nodes.keys[node][2] if rank else ()
                kid_classes = tuple(map(below.__getitem__, kids))
                classes.append(MuElement(b, None, node, kid_classes, nodes, rank))
    return classes


def mu_algebra_apply(
    b: Coalgebra, symbol: str, args: list[MuElement]
) -> MuElement:
    """The algebra structure on mu(b): pad args to a common rank, wrap in symbol."""
    if len(args) != b.sig.arity(symbol):
        raise ArityMismatch(f"{symbol!r} applied to {len(args)} arguments")
    for e in args:
        if e.coalgebra != b:
            raise FixcatError("argument over a different coalgebra")
    rules = b.rules()
    rank = max((e.rank for e in args), default=0)
    padded = [unfold(e.representative, rules, rank - e.rank) for e in args]
    tree = ("op", symbol, tuple(t.tree for t in padded))
    return MuElement(b, Term.derived(b.sig, rank + 1, tree))


def induced_alg_hom(f: CoalgToAlgHom, e: MuElement):
    """Fold a mu(b) point through the algebra; leaves evaluate through f."""
    if e.coalgebra != f.source:
        raise FixcatError("element over a different coalgebra")
    fmap, table = f._map, f.target.table
    return fold(
        e.representative.tree,
        lambda x, depth: fmap[x],
        lambda symbol, values, depth: table[(symbol, values)],
    )


# -- the limit nu(a), depth-bounded -----------------------------------------


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


class NuApprox:
    """Stages F^k(A) for k <= depth; `collapse_bottom` projects each stage
    onto the one below."""

    def __init__(self, algebra: Algebra, depth: int, levels: list[list[Term]]):
        self.algebra, self.depth, self.levels = algebra, depth, levels

    def level_sizes(self) -> list[int]:
        return [len(level) for level in self.levels]


def nu_approx(a: Algebra, depth: int, cap: int = DEFAULT_TERM_CAP) -> NuApprox:
    """Levels F^k(A) for k <= depth, each from `enumerate_rank`."""
    levels = [enumerate_rank(a.sig, a.carrier, k, cap) for k in range(depth + 1)]
    return NuApprox(a, depth, levels)


class NuPointStream:
    """A point of nu(a): generator x's column of a hom's cone, read as one
    compatible term per rank."""

    def __init__(self, hom: CoalgToAlgHom, generator):
        self.hom, self.generator = hom, generator

    def component(self, k: int) -> Term:
        """Stage k of the cone at the generator: stage 0 is f and stage j + 1
        is F(stage j) . b, so stage-(j+1) trees hold stage-j trees."""
        stage = {x: ("var", v) for x, v in self.hom._map.items()}
        for _ in range(k):
            stage = next_stage(self.hom.source, stage, lambda symbol, kids: ("op", symbol, kids))
        return Term.derived(self.hom.source.sig, k, stage[self.generator])

    def check_compatible(self, depth: int) -> bool:
        """Each component collapses onto the previous one, up to depth.

        Component k of x holds, j steps down, the stage-(k-j) trees of the
        generators j unfoldings below x.  A stage-k tree (k >= 2) is b(y)'s
        symbol over stage-(k-1) trees, so it collapses onto stage k - 1
        whatever f is: only stage 1 collapses through the algebra.  That
        leaves the pivot square a(F(f)(b(y))) = f(y) at every generator y at
        most depth - 1 unfoldings below x (none at depth 0); no stage is read.
        """
        b, f = self.hom.source, self.hom._map
        reach = {self.generator} if depth > 0 else set()
        for _ in range(depth - 1):
            reach = reach.union(*(b.table[y][1] for y in reach))
        return all(_pivot(b, self.hom.target, f, y) == f[y] for y in reach)


def induced_coalg_hom(f: CoalgToAlgHom, x) -> NuPointStream:
    """The nu(a) point of a generator: its column of f's cone, in which the
    rank-k component is b unfolded k times from x with leaves relabelled by f."""
    if x not in f.source.carrier:
        raise FixcatError(f"{x!r} is not in the carrier")
    return NuPointStream(f, x)


def terminal_coalgebra_approx(
    sig: Signature, depth: int, cap: int = DEFAULT_TERM_CAP
) -> NuApprox:
    """Stages of nu(1): the terminal-coalgebra approximation chain."""
    return nu_approx(one_element_algebra(sig), depth, cap)


def infinite_trace(b: Coalgebra, x) -> NuPointStream:
    """The trace of x: the nu(1) point induced by the unique hom into 1."""
    (hom,) = enumerate_coalg_to_alg(b, one_element_algebra(b.sig))
    return induced_coalg_hom(hom, x)


# -- structural checks -------------------------------------------------------


def adjunction_check(
    b: Coalgebra,
    a: Algebra,
    depth: int = 5,
    max_rank: int = 5,
    cap: int = DEFAULT_TERM_CAP,
) -> dict:
    """Verify Alg(mu(b), a) = CoalgToAlg(b, a) = Coalg(b, nu(a)) at desk scale.

    Four sub-checks: the algebra-morphism law for every induced fold, the
    coalgebra-morphism law for every induced stream (the pivot square at
    the generators within depth - 1 unfoldings of each stream's generator),
    injectivity of the induction (distinct homs fold the enumerated classes
    differently), and bound-limited uniqueness of the induced fold given
    its generator restriction.
    """
    homs = enumerate_coalg_to_alg(b, a, cap)
    classes = mu_enumerate(b, max_rank, cap)

    # (i) induced folds are algebra homomorphisms on the enumerated classes:
    # the fold of sigma(e_1..e_m), whose arguments are padded to their
    # highest rank, is a(sigma, folds of e_1..e_m)
    applications = sum(len(classes) ** ar for _, ar in b.sig.ops) * max(len(homs), 1)
    if applications > cap:
        raise CapExceeded(
            max_rank, applications, cap,
            f"rank {max_rank} needs {applications} fold applications "
            f"(each symbol over every tuple of classes, through every hom), cap is {cap}",
        )
    folds = []  # per hom: the fold of each class
    alg_witness = None
    for hom in homs:
        cache: dict = {}  # node -> its fold through this hom
        values = tuple([e.nodes.fold(e.node, hom, a.apply, cache) for e in classes])
        folds.append(values)
        # padding unfolds leaves through b, and an unfolding folds as stage 1
        # of the hom's cone, which is f for a hom, so padding changes no fold;
        # only a table changed since the homs were found gets past this
        if next_stage(b, hom._map, a.apply) == hom._map:
            continue
        for symbol, arity in b.sig.ops:
            for combo in itertools.product(range(len(classes)), repeat=arity):
                args = [classes[i] for i in combo]
                lhs = induced_alg_hom(hom, mu_algebra_apply(b, symbol, args))
                if lhs != a.apply(symbol, tuple(values[i] for i in combo)):
                    alg_witness = {
                        "hom": hom.as_dict(),
                        "symbol": symbol,
                        "args": [term_to_str(e.representative) for e in args],
                    }

    # (ii) induced streams satisfy the coalgebra square, depth-bounded; the
    # components are grafted by construction, so the pivot square decides
    coalg_witness = None
    for hom in homs:
        for x in b.carrier:
            if not induced_coalg_hom(hom, x).check_compatible(depth):
                coalg_witness = {"hom": hom.as_dict(), "generator": x}

    # (iii) the induction is injective: no two homs fold every class alike.
    # Comparing generator images instead would compare the homs themselves,
    # which the enumeration keeps distinct
    twins, first = None, {}
    for j, values in enumerate(folds):
        i = first.setdefault(values, j)
        if i != j:
            twins = [homs[i].as_dict(), homs[j].as_dict()]
            break

    # (iv) uniqueness: class values are forced by the generator restriction;
    # a class is a generator or a symbol over the classes of its children,
    # which have lower ranks and so come first
    uniq_witness = None
    for hom, values in zip(homs, folds):
        forced = []
        for e, value in zip(classes, values):
            key = e.nodes.keys[e.node]
            if key[0] == "var":
                forced.append(hom(key[1]))
            else:
                forced.append(a.apply(key[1], tuple(forced[j] for j in e.below)))
            if forced[-1] != value:
                uniq_witness = {
                    "hom": hom.as_dict(),
                    "class": term_to_str(e.representative),
                }

    return {
        "hom_count": len(homs),
        "class_count": len(classes),
        "depth": depth,
        "max_rank": max_rank,
        **verdict(
            {
                "algebra-side-homomorphism": alg_witness,
                "coalgebra-side-homomorphism": coalg_witness,
                "injectivity": twins,
                "uniqueness": uniq_witness,
            }
        ),
        "note": "uniqueness verified up to the stated rank/depth bounds",
    }


def is_wellfounded(b: Coalgebra) -> bool:
    """No cycle in the generator dependency graph x -> leaves of b(x): peel
    the generators whose leaves are all peeled until none is left to peel;
    b is well-founded iff that empties the carrier."""
    waiting = {x: set(b.table[x][1]) for x in b.carrier}  # x -> its unpeeled leaves
    users: dict = {}  # y -> the generators with y as a leaf
    for x, leaves in waiting.items():
        for y in leaves:
            users.setdefault(y, []).append(x)
    peeled = [x for x, leaves in waiting.items() if not leaves]
    for y in peeled:  # grows while it is read
        for x in users.get(y, ()):
            waiting[x].discard(y)
            if not waiting[x]:
                peeled.append(x)
    return len(peeled) == len(b.carrier)


def corecursive_check(coalgebras: list[Coalgebra], cap: int = DEFAULT_TERM_CAP) -> dict:
    """Into the one-element algebra every coalgebra has exactly one hom."""
    results = []
    for b in coalgebras:
        count = len(enumerate_coalg_to_alg(b, one_element_algebra(b.sig), cap))
        results.append({"carrier": list(b.carrier), "count": count, "passed": count == 1})
    return {"results": results, "passed": all(r["passed"] for r in results)}


def wellfounded_recursive_check(
    b: Coalgebra, algebras: list[Algebra], cap: int = DEFAULT_TERM_CAP
) -> dict:
    """Well-founded coalgebras admit exactly one hom into every algebra."""
    wf = is_wellfounded(b)
    results = []
    for a in algebras:
        count = len(enumerate_coalg_to_alg(b, a, cap))
        entry = {"carrier": list(a.carrier), "count": count}
        if wf:
            entry["passed"] = count == 1
        results.append(entry)
    passed = all(r.get("passed", True) for r in results)
    return {"wellfounded": wf, "results": results, "passed": passed}


# -- seeded instance generation ----------------------------------------------


def random_signature(rng: random.Random, max_ops: int = 3, max_arity: int = 2) -> Signature:
    n = rng.randint(1, max_ops)
    return Signature(tuple((f"op{i}", rng.randint(0, max_arity)) for i in range(n)))


def random_coalgebra(
    rng: random.Random, sig: Signature, max_carrier: int = 3
) -> Coalgebra:
    carrier = tuple(f"x{i}" for i in range(rng.randint(0, max_carrier)))
    structure = {}
    for x in carrier:
        symbol, arity = rng.choice(sig.ops)
        children = tuple(("var", rng.choice(carrier)) for _ in range(arity))
        structure[x] = Term(sig, 1, ("op", symbol, children))
    return coalgebra(sig, carrier, structure)


def random_algebra(rng: random.Random, sig: Signature, max_carrier: int = 3) -> Algebra:
    carrier = tuple(f"a{i}" for i in range(rng.randint(1, max_carrier)))
    structure = {t: rng.choice(carrier) for t in f_enumerate(sig, carrier)}
    return algebra(sig, carrier, structure)


def random_instance(
    rng: random.Random,
    max_rank: int = 5,
    depth: int = 5,
    budget: int = 400,
    max_carrier: int = 3,
) -> tuple[Coalgebra, Algebra]:
    """A seeded (coalgebra, algebra) pair whose term counts stay within budget.

    Rejection-samples until the counting recurrence keeps every needed stage
    (mu side up to max_rank + 1, nu side up to depth + 1) below the budget,
    so downstream enumeration cannot explode.
    """
    while True:
        sig = random_signature(rng)
        b = random_coalgebra(rng, sig, max_carrier)
        a = random_algebra(rng, sig, max_carrier)
        mu_total = sum(
            count_rank(sig, len(b.carrier), k) for k in range(max_rank + 2)
        )
        nu_peak = max(count_rank(sig, len(a.carrier), k) for k in range(depth + 2))
        if mu_total <= budget and nu_peak <= budget:
            return b, a
