"""Polynomial set functors presented as algebraic signatures.

A signature with operations sigma of arity k presents the functor
F(X) = sum over sigma of X^k.  Elements of the n-fold application F^n(X)
are trees of uniform leaf depth: generator leaves sit at depth exactly n,
and any branch that bottoms out earlier must end in a 0-arity operation.

Trees are nested tuples: ``("var", label)`` for a generator leaf and
``("op", symbol, (child, ...))`` for an operation node.  Tuples keep terms
hashable and give a total, deterministic ordering for free.

Walks over trees go through `fold`, which passes each node's depth to its
callbacks and takes one Python frame per tree level; `subst`, the fold that
replaces leaves by trees, does unfolding, relabelling and grafting.
`Term(...)` validates the tree a caller hands it; terms the library derives
from checked terms are built by `Term.derived` and not checked again.

A computation that meets the same subtrees many times (enumerating mu(b),
the adjunction check, rendering its classes) puts them in a `NodeTable`:
each distinct node gets an int id that stands for its whole term, so terms
compare and hash in O(1) and `NodeTable.fold` visits each node once.  A
table belongs to the computation that made it and dies with it.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable, Iterator, Mapping

Tree = tuple  # ("var", label) | ("op", symbol, (Tree, ...))

DEFAULT_TERM_CAP = 100_000


class SignatureError(ValueError):
    pass


class CapExceeded(RuntimeError):
    """Enumeration would exceed the configured size cap.

    Raised instead of truncating; carries the offending level and the
    count that broke the cap.  The message says what was counted: a level's
    terms unless `message` names something else.
    """

    def __init__(self, level: int, count: int, cap: int, message: str = ""):
        super().__init__(message or f"level {level} holds {count} terms, cap is {cap}")
        self.level = level
        self.count = count
        self.cap = cap


def fold(tree: Tree, leaf: Callable, op: Callable):
    """Fold a tree bottom-up: `leaf(label, depth)` at each generator leaf and
    `op(symbol, child_results, depth)` at each operation node, where the
    root has depth 0 and `child_results` is a tuple in child order.  Every
    node is visited, shared or not; `NodeTable.fold` visits each node once.
    """
    return _walk(tree, 0, leaf, op)


def _walk(node, depth, leaf, op):
    # a module function, not a closure: a self-referencing closure is a
    # reference cycle that keeps the callbacks alive until the next collection
    tag = node[0]
    if tag == "var":
        return leaf(node[1], depth)
    if tag != "op":
        raise SignatureError(f"malformed tree node {node!r}")
    _, symbol, children = node
    below = depth + 1
    results = []
    for child in children:
        results.append(_walk(child, below, leaf, op))
    return op(symbol, tuple(results), depth)


def _op_tree(symbol, children, depth=None):
    return ("op", symbol, children)


def subst(tree: Tree, replace: Callable) -> Tree:
    """The tree with each generator leaf x replaced by the tree replace(x)."""
    return fold(tree, lambda label, depth: replace(label), _op_tree)


class NodeTable:
    """Hash-consed term nodes: each distinct node gets an int id.

    A node's key is its tree node with the children replaced by their ids:
    ("var", label) or ("op", symbol, child ids).  Children get ids before
    their parents, and equal trees get equal ids, so ids compare and hash in
    O(1).  A table serves one computation; ids of different tables are
    unrelated.
    """

    def __init__(self):
        self.ids: dict = {}  # key -> id
        self.keys: list = []  # id -> key
        self._trees: dict = {}  # id -> tree, once asked for

    def node(self, key) -> int:
        """The id of a node key, adding the node if it is new."""
        node = self.ids.get(key)
        if node is None:
            node = self.ids[key] = len(self.keys)
            self.keys.append(key)
        return node

    def op(self, symbol: str, kids: tuple) -> int:
        return self.node(("op", symbol, kids))

    def intern(self, tree: Tree) -> int:
        return fold(
            tree,
            lambda label, depth: self.node(("var", label)),
            lambda symbol, kids, depth: self.op(symbol, kids),
        )

    def fold(self, node: int, leaf: Callable, op: Callable, cache: dict):
        """`leaf(label)` at each generator leaf and `op(symbol, child_results)`
        at each operation node below `node`, each node once: `cache` maps ids
        to results and is shared by folds with the same callbacks."""
        if node not in cache:
            key = self.keys[node]
            if key[0] == "var":
                cache[node] = leaf(key[1])
            else:
                cache[node] = op(key[1], tuple([self.fold(k, leaf, op, cache) for k in key[2]]))
        return cache[node]

    def subst(self, node: int, replace: Callable, cache: dict) -> int:
        """The node with each generator leaf x replaced by the node replace(x)."""
        return self.fold(node, replace, self.op, cache)

    def tree(self, node: int) -> Tree:
        """The node as a nested tuple, built once and sharing its children's."""
        return self.fold(node, lambda label: ("var", label), _op_tree, self._trees)

    def render(self, node: int, cache: dict) -> str:
        """`term_to_str` of the node, rendering each node once into `cache`."""
        return self.fold(node, str, _render, cache)


class Signature:
    """A finite set of (symbol, arity) pairs with distinct symbols, kept in
    symbol order: signatures that list the same operations are equal."""

    def __init__(self, ops: tuple[tuple[str, int], ...]):
        arities = {}
        for name, arity in ops:
            if name in arities:
                raise SignatureError(f"duplicate operation symbol {name!r}")
            if arity < 0:
                raise SignatureError(f"negative arity for {name!r}")
            arities[name] = arity
        self.ops, self.arities = tuple(sorted(ops)), arities

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.ops == other.ops
        return NotImplemented

    def __hash__(self):
        return hash((self.ops,))

    def arity(self, symbol: str) -> int:
        try:
            return self.arities[symbol]
        except KeyError:
            raise SignatureError(f"unknown operation symbol {symbol!r}") from None

    def sorted_ops(self) -> list[tuple[str, int]]:
        return list(self.ops)


def signature(ops: Iterable[tuple[str, int]]) -> Signature:
    return Signature(tuple(ops))


class Term:
    """An element of F^rank(X): a tree with all generator leaves at depth rank."""

    def __init__(self, sig: Signature, rank: int, tree: Tree):
        self.sig, self.rank, self.tree = sig, rank, tree
        self.__post_init__()

    def __post_init__(self):
        """Check the tree: the one validation, which `derived` skips."""
        if self.rank < 0:
            raise SignatureError("rank must be >= 0")
        sig, rank = self.sig, self.rank

        def leaf(label, depth):
            if depth != rank:
                raise SignatureError(
                    f"generator leaf {label!r} at depth {depth}, expected {rank}"
                )

        def op(symbol, children, depth):
            arity = sig.arity(symbol)
            if len(children) != arity:
                raise SignatureError(
                    f"{symbol!r} has arity {arity}, got {len(children)} children"
                )
            if depth >= rank:
                # depth == rank holds generator leaves only; constants stop earlier
                raise SignatureError(f"operation node {symbol!r} too deep at {depth}")

        fold(self.tree, leaf, op)

    @classmethod
    def derived(cls, sig: Signature, rank: int, tree: Tree) -> Term:
        """A term the library built from checked terms: not validated again."""
        term = object.__new__(cls)
        term.sig, term.rank, term.tree = sig, rank, tree
        return term

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.sig, self.rank, self.tree) == (other.sig, other.rank, other.tree)
        return NotImplemented

    def __hash__(self):
        return hash((self.sig, self.rank, self.tree))

    def leaves(self) -> list:
        """Generator-leaf labels in left-to-right order."""
        out = []
        fold(self.tree, lambda label, depth: out.append(label), lambda *_: None)
        return out

    def sort_key(self):
        return subst(self.tree, lambda label: ("var", str(label)))


def var_term(sig: Signature, label) -> Term:
    return Term(sig, 0, ("var", label))


def f_terms(sig: Signature, generators: Iterable) -> Iterator[Term]:
    """The elements of F(X), lazily: sigma(x_1..x_m) for each operation and
    tuple over X."""
    gens = sorted(generators, key=str)
    for symbol, arity in sig.ops:
        for combo in itertools.product(gens, repeat=arity):
            yield Term.derived(sig, 1, ("op", symbol, tuple(("var", x) for x in combo)))


def f_enumerate(sig: Signature, generators: Iterable) -> list[Term]:
    """All elements of F(X), in `f_terms` order."""
    return list(f_terms(sig, generators))


def count_rank(sig: Signature, n_generators: int, rank: int) -> int:
    """|F^rank(X)| by the recurrence c0 = |X|, c_{k+1} = sum of c_k^arity."""
    count = n_generators
    for _ in range(rank):
        count = sum(count ** arity for _, arity in sig.ops)
    return count


def enumerate_rank(
    sig: Signature, generators: Iterable, rank: int, cap: int = DEFAULT_TERM_CAP
) -> list[Term]:
    """All elements of F^rank(X), deterministically ordered; errors past the cap."""
    gens = sorted(generators, key=str)
    count = len(gens)
    for level in range(rank + 1):
        if level:
            count = count_rank(sig, count, 1)
        if count > cap:
            raise CapExceeded(level, count, cap)
    trees = [("var", x) for x in gens]
    for _ in range(rank):
        nxt = []
        for symbol, arity in sig.ops:
            for combo in itertools.product(trees, repeat=arity):
                nxt.append(("op", symbol, tuple(combo)))
        trees = nxt
    return [Term.derived(sig, rank, tree) for tree in trees]


def unfold_once(t: Term, assignment: Mapping) -> Term:
    """Substitute each generator leaf x by the rank-1 term assignment[x].

    The result has rank t.rank + 1; leafless subtrees are untouched (their
    rank annotation still increments with the whole term).
    """
    tree = subst(t.tree, lambda label: assignment[label].tree)
    return Term.derived(t.sig, t.rank + 1, tree)


def unfold(t: Term, assignment: Mapping, times: int) -> Term:
    for _ in range(times):
        t = unfold_once(t, assignment)
    return t


def map_leaves(t: Term, relabel: Mapping | Callable) -> Term:
    """Relabel generator leaves; tree shape and rank are preserved."""
    get = relabel.__getitem__ if isinstance(relabel, Mapping) else relabel
    tree = subst(t.tree, lambda label: ("var", get(label)))
    return Term.derived(t.sig, t.rank, tree)


def _render(symbol, children, depth=None) -> str:
    return f"{symbol}({', '.join(children)})" if children else symbol


def term_to_str(t: Term) -> str:
    return fold(t.tree, lambda label, depth: str(label), _render)
