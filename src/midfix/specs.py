"""JSON spec files for lattices, signatures, (co)algebras, and relations.

One schema per domain object, with emitters that round-trip through
`parse_*` to an identical object.  Parsing separates shape errors
(ParseError, naming the offending key) from delegated law violations,
which surface as the owning module's exceptions.
"""

from __future__ import annotations

import json

from . import dagger, fixcat, lattice as lat
from .signature import Signature, Term, signature, term_to_str


# Arities are bounded at the input: with arity k, F(X) of a two-element X
# already holds 2^k terms, and a huge k makes counting F(X) or building a
# single term exhaust memory.
MAX_ARITY = 64


class ParseError(ValueError):
    def __init__(self, location: str, message: str):
        super().__init__(f"{location}: {message}")
        self.location = location


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(where, f"expected an object, got {value!r}")
    return value


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ParseError(where, f"expected a list, got {value!r}")
    return value


def _require(obj: dict, key: str, where: str):
    if key not in _object(obj, where):
        raise ParseError(where, f"missing key {key!r}")
    return obj[key]


_SCALARS = (str, int, float, bool, type(None))


def _scalars(value, where: str) -> list:
    """A JSON array of strings, numbers, booleans or nulls (hashable values)."""
    for item in _list(value, where):
        if not isinstance(item, _SCALARS):
            raise ParseError(where, f"{item!r} is not a string, number, boolean or null")
    return value


def _pairs(value, where: str) -> list[tuple]:
    """A JSON array of two-element arrays [x, y] of scalars."""
    if not isinstance(value, list):
        raise ParseError(where, f"expected a list of pairs, got {value!r}")
    out = []
    for i, pair in enumerate(value):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ParseError(f"{where}[{i}]", f"expected a pair [x, y], got {pair!r}")
        out.append(tuple(_scalars(pair, f"{where}[{i}]")))
    return out


def _unique_keys(members: list) -> dict:
    """A JSON object's members; a key given twice would silently keep its last value."""
    out = dict(members)
    if len(out) < len(members):
        keys = [key for key, _ in members]
        twice = next(key for i, key in enumerate(keys) if key in keys[:i])
        raise ParseError("<input>", f"key {twice!r} is given twice in one object")
    return out


# One decoder for every spec: json.loads with a hook would build a new one per call.
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def load_json(text: str) -> dict:
    try:
        return _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise ParseError("<input>", f"not valid JSON: {exc}") from exc


# -- lattices -----------------------------------------------------------------


def parse_lattice(obj: dict) -> tuple[lat.FinLattice, lat.MonotoneMap | None]:
    elements = _scalars(_require(obj, "elements", "lattice"), "lattice.elements")
    leq = _pairs(_require(obj, "leq", "lattice"), "lattice.leq")
    lattice = lat.check_lattice(elements, leq)
    if "map" not in obj:
        return lattice, None
    mapping = _object(obj["map"], "lattice.map")
    _scalars(list(mapping.values()), "lattice.map")
    return lattice, lat.check_monotone(mapping, lattice)


def lattice_to_json(lattice: lat.FinLattice, f: lat.MonotoneMap | None = None) -> dict:
    out = {
        "elements": list(lattice.elements),
        "leq": sorted([list(p) for p in lattice.leq]),
    }
    if f is not None:
        out["map"] = dict(f.mapping)
    return out


# -- signatures and (co)algebras ----------------------------------------------


def parse_signature(obj: dict) -> Signature:
    ops = _list(_require(obj, "ops", "signature"), "signature.ops")
    pairs = []
    for i, op in enumerate(ops):
        name = _require(op, "name", f"signature.ops[{i}]")
        arity = _require(op, "arity", f"signature.ops[{i}]")
        if not isinstance(name, str):
            raise ParseError(f"signature.ops[{i}]", f"bad name {name!r}")
        if not isinstance(arity, int) or isinstance(arity, bool) or not 0 <= arity <= MAX_ARITY:
            raise ParseError(f"signature.ops[{i}]", f"bad arity {arity!r}")
        pairs.append((name, arity))
    return signature(pairs)


def signature_to_json(sig: Signature) -> dict:
    return {"ops": [{"name": name, "arity": arity} for name, arity in sig.ops]}


def _distinct(value, where: str) -> list:
    """Scalars, none listed twice; values Python treats as equal (1, 1.0,
    true) count as the same element."""
    elements = _scalars(value, where)
    if len(set(elements)) < len(elements):
        twice = next(x for i, x in enumerate(elements) if x in elements[:i])
        raise ParseError(where, f"{twice!r} is listed twice")
    return elements


def _parse_flat_term(sig: Signature, obj: dict, where: str) -> Term:
    symbol = _require(obj, "op", where)
    args = _scalars(_require(obj, "args", where), f"{where}.args")
    if not isinstance(symbol, str) or symbol not in sig.arities:
        raise ParseError(where, f"unknown operation symbol {symbol!r}")
    if len(args) != sig.arity(symbol):
        raise ParseError(where, f"{symbol!r} expects {sig.arity(symbol)} args")
    return Term.derived(sig, 1, ("op", symbol, tuple(("var", x) for x in args)))


def parse_coalgebra(obj: dict) -> fixcat.Coalgebra:
    sig = parse_signature(_require(obj, "sig", "coalgebra"))
    carrier = _distinct(_require(obj, "carrier", "coalgebra"), "coalgebra.carrier")
    structure_obj = _object(_require(obj, "structure", "coalgebra"), "coalgebra.structure")
    structure = {
        x: _parse_flat_term(sig, entry, f"coalgebra.structure[{x!r}]")
        for x, entry in structure_obj.items()
    }
    return fixcat.coalgebra(sig, carrier, structure)


def coalgebra_to_json(b: fixcat.Coalgebra) -> dict:
    structure = {}
    for x, term in b.structure:
        _, symbol, children = term.tree
        structure[x] = {"op": symbol, "args": [c[1] for c in children]}
    return {
        "sig": signature_to_json(b.sig),
        "carrier": list(b.carrier),
        "structure": structure,
    }


def parse_algebra(obj: dict) -> fixcat.Algebra:
    sig = parse_signature(_require(obj, "sig", "algebra"))
    carrier = _distinct(_require(obj, "carrier", "algebra"), "algebra.carrier")
    structure = {}
    for i, entry in enumerate(_list(_require(obj, "structure", "algebra"), "algebra.structure")):
        where = f"algebra.structure[{i}]"
        term = _parse_flat_term(sig, entry, where)
        value = _require(entry, "value", where)
        if not isinstance(value, _SCALARS):
            raise ParseError(where, f"value {value!r} is not a string, number, boolean or null")
        if term in structure:
            raise ParseError(where, f"a second entry for {term_to_str(term)}")
        structure[term] = value
    return fixcat.algebra(sig, carrier, structure)


def algebra_to_json(a: fixcat.Algebra) -> dict:
    structure = []
    for term, value in a.structure:
        _, symbol, children = term.tree
        structure.append(
            {"op": symbol, "args": [c[1] for c in children], "value": value}
        )
    return {
        "sig": signature_to_json(a.sig),
        "carrier": list(a.carrier),
        "structure": structure,
    }


# -- relations and functors ---------------------------------------------------


def parse_relation(obj: dict) -> dagger.FinRel:
    source = _distinct(_require(obj, "source", "relation"), "relation.source")
    target = _distinct(_require(obj, "target", "relation"), "relation.target")
    pairs = _pairs(_require(obj, "pairs", "relation"), "relation.pairs")
    return dagger.finrel(source, target, pairs)


relation_to_json = dagger.relation_to_json


def _constant(obj: dict) -> list:
    return _distinct(_require(obj, "constant", "functor"), "functor.constant")


def parse_functor(obj: dict) -> dagger.RelEndo:
    kind = _require(obj, "kind", "functor")
    if kind == "identity":
        return dagger.identity_endofunctor()
    if kind == "constant":
        return dagger.constant_endofunctor(_constant(obj))
    if kind == "pad":
        return dagger.pad_endofunctor(_constant(obj))
    if kind == "table":
        object_table = {}
        for i, entry in enumerate(_list(_require(obj, "objects", "functor"), "functor.objects")):
            where = f"functor.objects[{i}]"
            source = _distinct(_require(entry, "object", where), f"{where}.object")
            image = _distinct(_require(entry, "image", where), f"{where}.image")
            source = dagger._sorted_obj(source)
            if source in object_table:
                raise ParseError(where, f"a second entry for the object {list(source)!r}")
            object_table[source] = dagger._sorted_obj(image)
        rel_table = {}
        for i, entry in enumerate(
            _list(_require(obj, "relations", "functor"), "functor.relations")
        ):
            where = f"functor.relations[{i}]"
            rel = parse_relation(entry)
            if rel in rel_table:
                raise ParseError(where, f"a second entry for {relation_to_json(rel)}")
            rel_table[rel] = parse_relation(_require(entry, "image", where))
        return dagger.table_endofunctor(object_table, rel_table)
    raise ParseError("functor.kind", f"unknown kind {kind!r}")
