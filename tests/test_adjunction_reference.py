"""`adjunction_check` against the version that pads and folds whole trees.

`mu_algebra_apply`, `induced_alg_hom` and `adjunction_check` below are the
versions from before node tables, kept verbatim as a reference: every
application sigma(e_1..e_m) is padded and folded from scratch once per hom,
and the uniqueness step re-keys every class and child with `ColimEq.key`.
The library folds each node once per hom, and pads and folds whole trees
only for a hom that the algebra's table no longer satisfies; its reports
must be the same, also for algebras whose table changes after the homs
were enumerated, so that the checks fail.

`_graft` is the library helper the reference's coalgebra side grafts with,
copied here verbatim: the library no longer grafts, since component k + 1
is built as that graft.

The reference also reports `hom-enumeration`, a check that cannot fail and
that the library no longer makes; the comparisons drop it from the
reference's report.
"""

import gc
import itertools
import random
import sys
import weakref
from pathlib import Path
from typing import Mapping

import pytest
from hypothesis import given, settings, strategies as st

from midfix import cli, fixcat, specs
from midfix.fixcat import (
    Algebra,
    ArityMismatch,
    Coalgebra,
    CoalgToAlgHom,
    FixcatError,
    MuElement,
    colim_eq,
    enumerate_coalg_to_alg,
    induced_coalg_hom,
    mu_enumerate,
)
from midfix.signature import (
    DEFAULT_TERM_CAP,
    CapExceeded,
    NodeTable,
    Signature,
    Term,
    f_enumerate,
    fold,
    subst,
    term_to_str,
    unfold,
)

SAMPLES = Path(__file__).resolve().parent.parent / "sample_specs"


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


def _graft(sig: Signature, rank1: Term, pieces: Mapping, rank: int) -> Term:
    """Substitute rank-`rank` terms for the leaves of a rank-1 term; result
    has rank + 1 (leafless terms still re-rank, matching the chain map)."""
    for leaf in rank1.leaves():
        if pieces[leaf].rank != rank:
            raise FixcatError("grafted pieces must share the stated rank")
    return Term.derived(sig, rank + 1, subst(rank1.tree, lambda x: pieces[x].tree))


def adjunction_check(
    b: Coalgebra,
    a: Algebra,
    depth: int = 5,
    max_rank: int = 5,
    cap: int = DEFAULT_TERM_CAP,
) -> dict:
    """Verify Alg(mu(b), a) = CoalgToAlg(b, a) = Coalg(b, nu(a)) at desk scale.

    Five sub-checks: hom enumeration, the algebra-morphism law for every
    induced fold, the coalgebra-morphism law for every induced stream,
    injectivity of both inductions, and bound-limited uniqueness of the
    induced fold given its generator restriction.
    """
    homs = enumerate_coalg_to_alg(b, a, cap)
    classes = mu_enumerate(b, max_rank, cap)
    eq = colim_eq(b)
    checks = []

    def record(name, passed, witness=None):
        entry = {"name": name, "passed": bool(passed)}
        if witness is not None:
            entry["witness"] = witness
        checks.append(entry)

    record("hom-enumeration", True, {"count": len(homs)})

    # (ii) induced folds are algebra homomorphisms on the enumerated classes
    applications = sum(len(classes) ** ar for _, ar in b.sig.ops)
    if applications * max(len(homs), 1) > cap:
        raise CapExceeded(max_rank, applications * max(len(homs), 1), cap)
    alg_ok, alg_witness = True, None
    for hom in homs:
        values = [induced_alg_hom(hom, e) for e in classes]
        for symbol, arity in b.sig.sorted_ops():
            for combo in itertools.product(range(len(classes)), repeat=arity):
                applied = mu_algebra_apply(b, symbol, [classes[i] for i in combo])
                lhs = induced_alg_hom(hom, applied)
                rhs = a.apply(symbol, tuple(values[i] for i in combo))
                if lhs != rhs:
                    alg_ok = False
                    alg_witness = {
                        "hom": hom.as_dict(),
                        "symbol": symbol,
                        "args": [term_to_str(classes[i].representative) for i in combo],
                    }
    record("algebra-side-homomorphism", alg_ok, alg_witness)

    # (iii) induced streams satisfy the coalgebra square, depth-bounded
    coalg_ok, coalg_witness = True, None
    for hom in homs:
        streams = {x: induced_coalg_hom(hom, x) for x in b.carrier}
        for x in b.carrier:
            for k in range(depth):
                grafted = _graft(
                    b.sig, b.rule(x), {y: streams[y].component(k) for y in b.carrier}, k
                )
                if streams[x].component(k + 1) != grafted:
                    coalg_ok = False
                    coalg_witness = {"hom": hom.as_dict(), "generator": x, "depth": k}
            if not streams[x].check_compatible(depth):
                coalg_ok = False
                coalg_witness = {"hom": hom.as_dict(), "generator": x}
    record("coalgebra-side-homomorphism", coalg_ok, coalg_witness)

    # (iv) both inductions are injective: generator images separate homs
    images = [tuple(h(x) for x in b.carrier) for h in homs]
    record("injectivity", len(set(images)) == len(images))

    # (v) uniqueness: class values are forced by the generator restriction;
    # a class is a generator or a symbol over the classes of its children
    class_of = {eq.key(c.representative, max_rank): i for i, c in enumerate(classes)}
    shapes = []
    for e in classes:
        tree = e.representative.tree
        if tree[0] == "op":
            _, symbol, children = tree
            below = (Term.derived(b.sig, e.rank - 1, child) for child in children)
            tree = ("op", symbol, tuple(class_of[eq.key(t, max_rank)] for t in below))
        shapes.append(tree)
    uniq_ok, uniq_witness = True, None
    for hom in homs:
        forced = []  # a child's class has a lower rank, so it comes first
        for e, shape in zip(classes, shapes):
            if shape[0] == "var":
                value = hom(shape[1])
            else:
                _, symbol, below = shape
                value = a.apply(symbol, tuple(forced[j] for j in below))
            forced.append(value)
            if value != induced_alg_hom(hom, e):
                uniq_ok = False
                uniq_witness = {
                    "hom": hom.as_dict(),
                    "class": term_to_str(e.representative),
                }
    record("uniqueness", uniq_ok, uniq_witness)

    return {
        "hom_count": len(homs),
        "class_count": len(classes),
        "depth": depth,
        "max_rank": max_rank,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
        "note": "uniqueness verified up to the stated rank/depth bounds",
    }


def _report(check, b, a, depth, max_rank, cap=DEFAULT_TERM_CAP):
    try:
        return check(b, a, depth, max_rank, cap)
    except CapExceeded as exc:
        return ("CapExceeded", exc.level, exc.count)


def _without_hom_enumeration(report):
    """The reference's report less its `hom-enumeration` entry; a CapExceeded
    tuple is returned as it is."""
    if isinstance(report, dict):
        checks = [c for c in report["checks"] if c["name"] != "hom-enumeration"]
        report = dict(report, checks=checks)
    return report


def _break_after_enumeration(monkeypatch, key, value):
    """Set a.table[key] = value once the homs into a have been enumerated,
    so that they are no longer homs and the law checks can fail."""
    real = fixcat.enumerate_coalg_to_alg

    def enumerate_then_break(b, a, cap=DEFAULT_TERM_CAP):
        homs = real(b, a, cap)
        a.table[key] = value
        return homs

    monkeypatch.setattr(fixcat, "enumerate_coalg_to_alg", enumerate_then_break)
    monkeypatch.setattr(sys.modules[__name__], "enumerate_coalg_to_alg", enumerate_then_break)


def _copy(a: Algebra) -> Algebra:
    return Algebra(a.sig, a.carrier, a.structure)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), max_rank=st.integers(0, 3), depth=st.integers(0, 3))
def test_reports_equal_the_reference(seed, max_rank, depth):
    b, a = fixcat.random_instance(random.Random(seed), max_rank, depth, budget=60)
    library = _report(fixcat.adjunction_check, b, a, depth, max_rank)
    reference = _report(adjunction_check, b, a, depth, max_rank)
    assert library == _without_hom_enumeration(reference)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    max_rank=st.integers(0, 3),
    depth=st.integers(0, 3),
    entry=st.integers(0, 10**6),
    value=st.integers(0, 10**6),
)
def test_reports_with_a_broken_law_equal_the_reference(seed, max_rank, depth, entry, value):
    b, a = fixcat.random_instance(random.Random(seed), max_rank, depth, budget=60)
    keys = sorted(a.table, key=repr)
    key, value = keys[entry % len(keys)], a.carrier[value % len(a.carrier)]
    reports = []
    for check in (fixcat.adjunction_check, adjunction_check):
        with pytest.MonkeyPatch.context() as monkeypatch:
            _break_after_enumeration(monkeypatch, key, value)
            reports.append(_report(check, b, _copy(a), depth, max_rank))
    assert reports[0] == _without_hom_enumeration(reports[1])


def _sample(name: str) -> dict:
    return specs.load_json((SAMPLES / name).read_text())


def test_broken_law_fails_each_law_check_with_the_reference_witnesses():
    """The leaf-count parity algebra with l sent to even once the one hom
    into it is found: padding a class now changes its fold."""
    b = specs.parse_coalgebra(_sample("tree_coalgebra.json"))
    a = specs.parse_algebra(_sample("tree_algebra.json"))
    reports = []
    for check in (fixcat.adjunction_check, adjunction_check):
        with pytest.MonkeyPatch.context() as monkeypatch:
            _break_after_enumeration(monkeypatch, ("l", ()), "even")
            reports.append(check(b, _copy(a), 3, 2))
    failed = {c["name"]: c["witness"] for c in reports[0]["checks"] if not c["passed"]}
    assert set(failed) == {
        "algebra-side-homomorphism",
        "coalgebra-side-homomorphism",
        "uniqueness",
    }
    assert all(failed.values())
    assert reports[0] == _without_hom_enumeration(reports[1])


def test_broken_law_of_a_later_hom_is_searched_against_its_own_folds():
    """The loop p -> s(p) has the homs p -> 0 and p -> 1 into the algebra on
    {0, 1} whose z is 0, whose s is the identity and whose n takes its first
    argument.  With s(1) sent to 0 once they are found, only the second hom
    breaks, and its padded folds differ from its own folds of the classes,
    not from the first hom's."""
    sig = Signature((("n", 2), ("s", 1), ("z", 0)))
    b = Coalgebra(sig, ("p",), (("p", Term(sig, 1, ("op", "s", (("var", "p"),)))),))
    a = Algebra(sig, ("0", "1"), tuple(
        (t, t.tree[2][0][1] if t.tree[2] else "0") for t in f_enumerate(sig, ("0", "1"))
    ))
    reports = []
    for check in (fixcat.adjunction_check, adjunction_check):
        with pytest.MonkeyPatch.context() as monkeypatch:
            _break_after_enumeration(monkeypatch, ("s", ("1",)), "0")
            reports.append(check(b, _copy(a), 2, 2))
    assert reports[0]["hom_count"] == 2
    assert reports[0]["checks"][0]["witness"] == {
        "hom": {"p": "1"}, "symbol": "n", "args": ["n(p, p)", "s(z)"]
    }
    assert reports[0] == _without_hom_enumeration(reports[1])


@pytest.mark.parametrize(
    "argv",
    [
        ["adjunction", "tree_coalgebra.json", "tree_algebra.json", "--max-rank", "2"],
        ["mu", "tree_coalgebra.json", "--max-rank", "2"],
    ],
)
def test_node_table_does_not_outlive_its_command(monkeypatch, capsys, argv):
    tables = []
    init = NodeTable.__init__

    def recording_init(self):
        init(self)
        tables.append(weakref.ref(self))

    monkeypatch.setattr(NodeTable, "__init__", recording_init)
    argv = [str(SAMPLES / arg) if arg.endswith(".json") else arg for arg in argv]
    assert cli.main(argv) == 0
    capsys.readouterr()
    gc.collect()
    assert tables and all(ref() is None for ref in tables)
