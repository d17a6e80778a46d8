import itertools
import json
import random
import time
from typing import Mapping

import pytest
from hypothesis import given, settings, strategies as st

from midfix import cli, fixcat
from midfix.fixcat import (
    Algebra,
    ArityMismatch,
    Coalgebra,
    CoalgToAlgHom,
    ColimEq,
    FixcatError,
    MuElement,
    _flat,
    adjunction_check,
    algebra,
    coalgebra,
    colim_eq,
    collapse_bottom,
    corecursive_check,
    enumerate_coalg_to_alg,
    induced_alg_hom,
    induced_coalg_hom,
    infinite_trace,
    is_wellfounded,
    mu_algebra_apply,
    mu_element,
    mu_enumerate,
    mu_eq,
    nu_approx,
    one_element_algebra,
    random_algebra,
    random_coalgebra,
    random_instance,
    random_signature,
    terminal_coalgebra_approx,
    wellfounded_recursive_check,
)
from midfix.signature import (
    DEFAULT_TERM_CAP,
    CapExceeded,
    NodeTable,
    Term,
    count_rank,
    enumerate_rank,
    f_enumerate,
    map_leaves,
    signature,
    term_to_str,
    unfold,
)
from test_colim_eq_reference import mu_enumerate as seed_mu_enumerate


def rank1(sig, symbol, *args):
    return Term(sig, 1, ("op", symbol, tuple(("var", x) for x in args)))


class TestCollapseBottom:
    def test_one_element_algebra_peels_a_layer(self, nat_sig, one_algebra):
        t = Term(nat_sig, 2, ("op", "s", (("op", "s", (("var", "*"),)),)))
        assert term_to_str(collapse_bottom(t, one_algebra)) == "s(*)"

    def test_constant_collapses_to_its_value(self, nat_sig, one_algebra):
        t = Term(nat_sig, 1, ("op", "z", ()))
        assert collapse_bottom(t, one_algebra).tree == ("var", "*")

    def test_parity_lookup(self, nat_sig, parity_algebra):
        assert collapse_bottom(rank1(nat_sig, "s", "0"), parity_algebra).tree == ("var", "1")

    def test_projections_compose(self, nat_sig, parity_algebra):
        for t in enumerate_rank(nat_sig, parity_algebra.carrier, 3):
            one = collapse_bottom(collapse_bottom(t, parity_algebra), parity_algebra)
            # composing two single-layer collapses equals collapsing twice
            assert one.rank == 1


class TestCarriers:
    # a carrier listing p twice used to be accepted, and its two copies
    # enumerated as two equal homs, which failed injectivity
    def test_coalgebra_rejects_a_repeated_element(self, nat_sig):
        with pytest.raises(FixcatError, match="carrier lists 'p' twice"):
            coalgebra(nat_sig, ["p", "p"], {"p": rank1(nat_sig, "z")})

    def test_algebra_rejects_a_repeated_element(self, nat_sig):
        structure = {
            rank1(nat_sig, "z"): "0",
            rank1(nat_sig, "s", "0"): "1",
            rank1(nat_sig, "s", "1"): "0",
        }
        with pytest.raises(FixcatError, match="carrier lists '0' twice"):
            algebra(nat_sig, ["0", "0", "1"], structure)

    # a rule or an entry outside the carrier used to be accepted silently,
    # and `specs` could not read the emitted spec back
    def test_coalgebra_rejects_a_rule_outside_the_carrier(self, nat_sig):
        structure = {"p": rank1(nat_sig, "s", "p"), "q": rank1(nat_sig, "s", "p")}
        with pytest.raises(FixcatError, match="structure names 'q' outside the carrier"):
            coalgebra(nat_sig, ["p"], structure)

    def test_algebra_rejects_an_entry_over_an_outside_argument(self, nat_sig):
        structure = {
            rank1(nat_sig, "z"): 0,
            rank1(nat_sig, "s", 0): 1,
            rank1(nat_sig, "s", 1): 0,
            rank1(nat_sig, "s", 7): 0,
        }
        with pytest.raises(FixcatError, match=r"structure entry s\(7\) leaves the carrier"):
            algebra(nat_sig, [0, 1], structure)


    # a second rule for one generator, or a second entry for one argument
    # tuple, used to replace the first silently
    def test_coalgebra_rejects_a_second_rule(self, nat_sig):
        structure = (("p", rank1(nat_sig, "z")), ("p", rank1(nat_sig, "s", "p")))
        with pytest.raises(FixcatError, match="structure gives 'p' a second rule"):
            Coalgebra(nat_sig, ("p",), structure)

    def test_algebra_rejects_a_second_entry(self, nat_sig):
        structure = (
            (rank1(nat_sig, "z"), "0"),
            (rank1(nat_sig, "s", "0"), "1"),
            (rank1(nat_sig, "s", "1"), "0"),
            (rank1(nat_sig, "s", "0"), "0"),
        )
        with pytest.raises(FixcatError, match=r"a second entry for s\(0\)"):
            Algebra(nat_sig, ("0", "1"), structure)

    def test_algebra_value_error_names_its_entry(self, nat_sig):
        structure = {rank1(nat_sig, "z"): 0, rank1(nat_sig, "s", 0): 1, rank1(nat_sig, "s", 1): 7}
        with pytest.raises(FixcatError, match=r"structure entry s\(1\) has value 7 outside"):
            algebra(nat_sig, [0, 1], structure)

    def test_carrier_and_structure_are_kept_in_str_order(self, nat_sig):
        z, sq = rank1(nat_sig, "z"), rank1(nat_sig, "s", "q")
        b = Coalgebra(nat_sig, ("q", "p"), (("q", z), ("p", sq)))
        assert b.carrier == ("p", "q") and b.structure == (("p", sq), ("q", z))


@st.composite
def shuffled(draw, items):
    return tuple(draw(st.permutations(list(items))))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_input_order_changes_no_coalgebra_algebra_or_result(seed, data):
    # signatures, carriers and structures listed in any order are the same
    # objects as the builders make, and give the same classes and verdicts
    b, a = random_instance(random.Random(seed), max_rank=3, depth=2)
    sig = signature(data.draw(shuffled(b.sig.ops)))
    carrier_b, carrier_a = data.draw(shuffled(b.carrier)), data.draw(shuffled(a.carrier))
    rules = data.draw(shuffled((x, Term(sig, 1, t.tree)) for x, t in b.structure))
    table = data.draw(shuffled((Term(sig, 1, t.tree), v) for t, v in a.structure))
    b2, a2 = Coalgebra(sig, carrier_b, rules), Algebra(sig, carrier_a, table)
    assert (b2, a2) == (b, a) and hash((b2, a2)) == hash((b, a))
    assert (b2.structure, a2.structure) == (b.structure, a.structure)
    classes, classes2 = mu_enumerate(b, 3), mu_enumerate(b2, 3)
    assert [(e.rank, term_to_str(e.representative)) for e in classes2] == [
        (e.rank, term_to_str(e.representative)) for e in classes
    ]
    assert adjunction_check(b2, a2, 2, 3) == adjunction_check(b, a, 2, 3)
    # equality reads the signature, carrier and structure (a hom's: its ends
    # and pairs), not the tables built from them, and an object of another
    # type is never equal
    homs, homs2 = enumerate_coalg_to_alg(b, a), enumerate_coalg_to_alg(b2, a2)
    b2.table, a2.table = {}, {}
    for hom in homs2:
        hom._map = {}
    assert (b2, a2, homs2) == (b, a, homs) and hash((b2, a2, *homs2)) == hash((b, a, *homs))
    assert b != a and b != b.structure and a != (a.sig, a.carrier, a.structure)


class TestHomEnumeration:
    def test_loop_into_parity_has_no_solution(self, loop_coalgebra, parity_algebra):
        assert enumerate_coalg_to_alg(loop_coalgebra, parity_algebra) == []

    def test_stopped_into_parity_unique(self, stopped_coalgebra, parity_algebra):
        homs = enumerate_coalg_to_alg(stopped_coalgebra, parity_algebra)
        assert [h.as_dict() for h in homs] == [{"p": "0"}]

    def test_anything_into_one_element_algebra(self, loop_coalgebra, one_algebra):
        assert len(enumerate_coalg_to_alg(loop_coalgebra, one_algebra)) == 1

    def test_hom_square_validated_on_construction(
        self, loop_coalgebra, parity_algebra
    ):
        from midfix.fixcat import CoalgToAlgHom

        with pytest.raises(FixcatError):
            CoalgToAlgHom(loop_coalgebra, parity_algebra, (("p", "0"),))


class TestColimEq:
    def test_same_successor_identifies(self):
        sig = signature([("s", 1)])
        b = coalgebra(
            sig, ["x", "y"], {"x": rank1(sig, "s", "x"), "y": rank1(sig, "s", "x")}
        )
        assert colim_eq(b).same("x", "y")

    def test_swap_does_not_identify(self):
        sig = signature([("s", 1)])
        b = coalgebra(
            sig, ["x", "y"], {"x": rank1(sig, "s", "y"), "y": rank1(sig, "s", "x")}
        )
        eq = colim_eq(b)
        assert not eq.same("x", "y")
        # oracle: unfoldings stay syntactically distinct for many stages
        x0, y0 = Term(sig, 0, ("var", "x")), Term(sig, 0, ("var", "y"))
        for k in range(1, 21):
            assert unfold(x0, b.rules(), k) != unfold(y0, b.rules(), k)

    def test_same_constant_identifies_and_reflexive(self, nat_sig):
        b = coalgebra(
            nat_sig, ["x", "y"], {"x": rank1(nat_sig, "z"), "y": rank1(nat_sig, "z")}
        )
        eq = colim_eq(b)
        assert eq.same("x", "y") and eq.same("x", "x")

    def test_labels_and_pairs_agree_with_the_relation_they_come_from(self, nat_sig):
        # x and y stop at once, u and v step to u
        b = coalgebra(
            nat_sig,
            ["y", "x", "v", "u"],
            {
                "x": rank1(nat_sig, "z"),
                "y": rank1(nat_sig, "z"),
                "u": rank1(nat_sig, "s", "u"),
                "v": rank1(nat_sig, "s", "u"),
            },
        )
        eq = colim_eq(b)
        by_pairs = ColimEq(b, eq.rel)
        assert len(eq.rel) == 2 * 2 + 2 * 2
        assert eq._leaf == by_pairs._leaf == {
            "x": ("var", "x"), "y": ("var", "x"), "u": ("var", "u"), "v": ("var", "u")
        }
        assert eq.same("y", "x") and eq.same("v", "u") and not eq.same("x", "u")

    def test_wide_class_is_labelled_without_listing_its_pairs(self, nat_sig):
        # 2000 generators that all stop at once form one class; its four
        # million pairs are listed only if `rel` is read
        carrier = [f"x{i}" for i in range(2000)]
        b = coalgebra(nat_sig, carrier, {x: rank1(nat_sig, "z") for x in carrier})
        eq = colim_eq(b)
        assert "rel" not in vars(eq)
        assert set(eq._leaf.values()) == {("var", "x0")}
        assert [(e.rank, term_to_str(e.representative)) for e in mu_enumerate(b, 1)] == [
            (0, "x0"), (1, "s(x0)")
        ]

    def test_wide_class_from_the_cli(self, tmp_path, capsys):
        spec = {
            "sig": {"ops": [{"name": "z", "arity": 0}, {"name": "s", "arity": 1}]},
            "carrier": [f"x{i}" for i in range(2000)],
            "structure": {f"x{i}": {"op": "z", "args": []} for i in range(2000)},
        }
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(spec))
        assert cli.main(["mu", str(path), "--max-rank", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["class_count"] == 2
        assert [c["representative"] for c in report["classes"]] == ["x0", "s(x0)"]

    def test_soundness_identified_pairs_unfold_equal(self):
        # wherever x ~ y, some unfolding within |B|^2 stages agrees exactly;
        # where x !~ y, no agreement out to 2|B|^2 stages (size-guarded: trees
        # over binary signatures grow exponentially under unfolding)
        rng = random.Random(11)
        for _ in range(40):
            sig = random_signature(rng)
            b = random_coalgebra(rng, sig, 3)
            eq = colim_eq(b)
            bound = len(b.carrier) ** 2
            for x, y in itertools.combinations(b.carrier, 2):
                u = Term(sig, 0, ("var", x))
                v = Term(sig, 0, ("var", y))
                agreed_at = None
                for k in range(2 * bound + 1):
                    if u == v:
                        agreed_at = k
                        break
                    if len(u.leaves()) > 50_000:
                        break
                    u = unfold(u, b.rules(), 1)
                    v = unfold(v, b.rules(), 1)
                if eq.same(x, y):
                    assert agreed_at is not None and agreed_at <= bound, (b, x, y)
                else:
                    assert agreed_at is None, (b, x, y)


class TestMuEq:
    def test_chain_identification(self, loop_coalgebra, nat_sig):
        lower = mu_element(loop_coalgebra, Term(nat_sig, 0, ("var", "p")))
        upper = mu_element(loop_coalgebra, rank1(nat_sig, "s", "p"))
        assert mu_eq(lower, upper)

    def test_distinct_roots_never_identify(self, loop_coalgebra, nat_sig):
        z1 = mu_element(loop_coalgebra, Term(nat_sig, 1, ("op", "z", ())))
        sp = mu_element(loop_coalgebra, rank1(nat_sig, "s", "p"))
        assert not mu_eq(z1, sp)

    def test_reflexive(self, loop_coalgebra, nat_sig):
        e = mu_element(loop_coalgebra, rank1(nat_sig, "s", "p"))
        assert mu_eq(e, e)

    def test_equivalence_and_congruence_sampled(self):
        rng = random.Random(5)
        for _ in range(25):
            sig = random_signature(rng)
            b = random_coalgebra(rng, sig, 2)
            if count_rank(sig, len(b.carrier), 4) > 60:
                continue
            elements = [
                mu_element(b, t)
                for n in range(4)
                for t in enumerate_rank(sig, b.carrier, n)
            ]
            eq = colim_eq(b)
            for e1, e2 in itertools.combinations(elements, 2):
                if mu_eq(e1, e2, eq):
                    assert mu_eq(e2, e1, eq)
                    # congruence under the induced algebra structure
                    for symbol, arity in sig.sorted_ops():
                        if arity != 1:
                            continue
                        assert mu_eq(
                            mu_algebra_apply(b, symbol, [e1]),
                            mu_algebra_apply(b, symbol, [e2]),
                            eq,
                        )

    def test_preserved_by_unfolding(self):
        rng = random.Random(6)
        for _ in range(20):
            sig = random_signature(rng)
            b = random_coalgebra(rng, sig, 3)
            eq = colim_eq(b)
            for x in b.carrier:
                e = mu_element(b, Term(sig, 0, ("var", x)))
                unfolded = mu_element(b, unfold(e.representative, b.rules(), 2))
                assert mu_eq(e, unfolded, eq)


class TestMuEnumerate:
    def test_loop_orbit_plus_nat_prefix(self, loop_coalgebra):
        classes = mu_enumerate(loop_coalgebra, 3)
        shown = [(e.rank, term_to_str(e.representative)) for e in classes]
        assert shown == [(0, "p"), (1, "z"), (2, "s(z)"), (3, "s(s(z))")]

    def test_empty_coalgebra_gives_initial_algebra_prefix(self, nat_sig):
        empty = coalgebra(nat_sig, [], {})
        classes = mu_enumerate(empty, 3)
        assert [term_to_str(e.representative) for e in classes] == ["z", "s(z)", "s(s(z))"]

    def test_pure_loop_is_one_class(self):
        sig = signature([("s", 1)])
        b = coalgebra(sig, ["p"], {"p": rank1(sig, "s", "p")})
        assert len(mu_enumerate(b, 3)) == 1

    def test_agrees_with_pairwise_mu_eq(self):
        rng = random.Random(8)
        for _ in range(20):
            sig = random_signature(rng)
            b = random_coalgebra(rng, sig, 2)
            if count_rank(sig, len(b.carrier), 4) > 40:
                continue
            classes = mu_enumerate(b, 3)
            eq = colim_eq(b)
            for e1, e2 in itertools.combinations(classes, 2):
                assert not mu_eq(e1, e2, eq)
            # a key is the node of t unfolded to the rank, leaves relabelled
            label = {x: leaf[1] for x, leaf in eq._leaf.items()}
            for n in range(4):
                for t in enumerate_rank(sig, b.carrier, n):
                    assert any(mu_eq(mu_element(b, t), c, eq) for c in classes)
                    canonical = map_leaves(unfold(t, b.rules(), 3 - n), label)
                    assert eq.nodes.tree(eq.key(t, 3)) == canonical.tree

    def test_empty_coalgebra_matches_enumerate_rank(self, nat_sig):
        empty = coalgebra(nat_sig, [], {})
        for n in range(1, 6):
            assert len(mu_enumerate(empty, n)) == len(enumerate_rank(nat_sig, [], n))

    def test_deep_chains_over_labels_that_print_alike(self, nat_sig):
        # 1 and "1" tie in str order, so every stage is sorted, by the places
        # of the children; nested sort keys took about 90 s at rank 300,
        # comparing the chains node by node
        loops = ((1, rank1(nat_sig, "s", 1)), ("1", rank1(nat_sig, "s", "1")))
        b = Coalgebra(nat_sig, (1, "1"), loops)
        assert [(e.rank, e.representative) for e in mu_enumerate(b, 4)] == seed_mu_enumerate(b, 4)
        start = time.monotonic()
        classes = mu_enumerate(b, 300, cap=10**6)
        assert time.monotonic() - start < 30
        assert [e.rank for e in classes] == [0, 0] + list(range(1, 301))


class TestMuElement:
    def test_made_from_a_term(self, loop_coalgebra, nat_sig):
        t = rank1(nat_sig, "s", "p")
        e = MuElement(loop_coalgebra, t)
        assert e.rank == 1 and e.representative is t
        assert e.node is None and e.below == ()
        assert e == mu_element(loop_coalgebra, t) and hash(e) == hash(mu_element(loop_coalgebra, t))

    def test_enumerated_class_equals_the_element_of_its_term(self, loop_coalgebra, nat_sig):
        classes = mu_enumerate(loop_coalgebra, 3)
        e = classes[2]
        assert e.representative is e.representative  # built once, then kept
        made = MuElement(loop_coalgebra, e.representative)
        assert made == e and hash(made) == hash(e) and made != classes[3]
        assert {made, *classes} == set(classes)
        assert mu_eq(made, e) and not mu_eq(made, classes[3])
        # the orbit class p and its unfolding s(p): equal in mu(b), not as elements
        orbit = MuElement(loop_coalgebra, rank1(nat_sig, "s", "p"))
        assert mu_eq(orbit, classes[0]) and orbit != classes[0]

    def test_same_term_over_another_coalgebra_differs(
        self, loop_coalgebra, stopped_coalgebra, nat_sig
    ):
        p = Term(nat_sig, 0, ("var", "p"))
        assert MuElement(loop_coalgebra, p) != MuElement(stopped_coalgebra, p)
        with pytest.raises(FixcatError):
            mu_eq(MuElement(loop_coalgebra, p), MuElement(stopped_coalgebra, p))

    def test_mu_builds_no_tree(self, monkeypatch, capsys, tmp_path):
        tables = _record_tables(monkeypatch, fixcat)
        spec = {
            "sig": {"ops": [{"name": "l", "arity": 0}, {"name": "n", "arity": 2}]},
            "carrier": ["p", "q"],
            "structure": {"p": {"op": "n", "args": ["p", "q"]}, "q": {"op": "l", "args": []}},
        }
        path = tmp_path / "desk.json"
        path.write_text(json.dumps(spec))
        assert cli.main(["mu", str(path), "--max-rank", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["class_count"] == 677
        assert len(tables) == 1 and tables[0].keys and tables[0]._trees == {}

    def test_passing_adjunction_check_builds_no_tree(self, monkeypatch):
        tables = _record_tables(monkeypatch, fixcat)
        rng = random.Random(23)
        for _ in range(10):
            b, a = random_instance(rng, max_rank=4, depth=4)
            assert adjunction_check(b, a, depth=4, max_rank=4)["passed"]
        assert len(tables) == 10 and all(t._trees == {} for t in tables)

    def test_passing_adjunction_check_searches_no_application(self, monkeypatch):
        # per hom: one application per node folded, per generator for stage 1
        # of the cone, and per class forced by uniqueness; searching sigma over
        # every tuple of classes would apply the algebra twice per tuple
        tables = _record_tables(monkeypatch, fixcat)
        calls = []
        apply = Algebra.apply
        monkeypatch.setattr(Algebra, "apply", lambda a, *args: calls.append(args) or apply(a, *args))
        rng = random.Random(23)
        for _ in range(10):
            b, a = random_instance(rng, max_rank=4, depth=4)
            calls.clear()
            report = adjunction_check(b, a, depth=4, max_rank=4)
            assert report["passed"]
            per_hom = len(tables[-1].keys) + len(b.carrier) + report["class_count"]
            assert len(calls) <= report["hom_count"] * per_hom

    def test_adjunction_check_adds_no_node_to_the_table_of_mu(self, monkeypatch):
        # broken laws included: reading a class through the cone's stages
        # folds its own node, so no padded node is ever built
        tables = _record_tables(monkeypatch, fixcat)
        rng = random.Random(29)
        for _ in range(20):
            b, a = random_instance(rng, max_rank=3, depth=2)
            for key in sorted(a.table, key=repr)[:2]:
                a = Algebra(a.sig, a.carrier, a.structure)
                with pytest.MonkeyPatch.context() as patch:
                    real = fixcat.enumerate_coalg_to_alg

                    def enumerate_then_break(b, a, cap, key=key):
                        homs = real(b, a, cap)
                        a.table[key] = a.carrier[-1]
                        return homs

                    patch.setattr(fixcat, "enumerate_coalg_to_alg", enumerate_then_break)
                    adjunction_check(b, a, depth=2, max_rank=3)
                mu_enumerate(b, 3)
                checked, bare = tables[-2:]
                assert checked.keys == bare.keys

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32), st.integers(0, 3))
    def test_lazy_representatives_are_valid_and_match_the_seed(self, seed, max_rank):
        rng = random.Random(seed)
        b = random_coalgebra(rng, random_signature(rng), 4)
        try:
            expected = seed_mu_enumerate(b, max_rank, cap=2000)
        except CapExceeded:
            with pytest.raises(CapExceeded):
                mu_enumerate(b, max_rank, cap=2000)
            return
        classes = mu_enumerate(b, max_rank, cap=2000)
        for e in classes:
            t = e.representative
            assert Term(t.sig, t.rank, t.tree) == t and t.rank == e.rank
        assert [(e.rank, e.representative) for e in classes] == expected


def _record_tables(monkeypatch, module) -> list:
    """Make `module` build recorded `NodeTable`s; returns the record."""
    tables = []

    class Recorded(NodeTable):
        def __init__(self):
            super().__init__()
            tables.append(self)

    monkeypatch.setattr(module, "NodeTable", Recorded)
    return tables


class TestMuAlgebra:
    def test_constant_symbol(self, loop_coalgebra):
        e = mu_algebra_apply(loop_coalgebra, "z", [])
        assert term_to_str(e.representative) == "z"

    def test_successor_of_orbit_class_is_the_orbit_class(self, loop_coalgebra, nat_sig):
        p = mu_element(loop_coalgebra, Term(nat_sig, 0, ("var", "p")))
        assert mu_eq(mu_algebra_apply(loop_coalgebra, "s", [p]), p)

    def test_successor_of_zero_is_new(self, loop_coalgebra):
        z = mu_algebra_apply(loop_coalgebra, "z", [])
        sz = mu_algebra_apply(loop_coalgebra, "s", [z])
        assert not mu_eq(sz, z)

    def test_arity_mismatch(self, loop_coalgebra):
        with pytest.raises(ArityMismatch):
            mu_algebra_apply(loop_coalgebra, "s", [])


class TestInducedAlgHom:
    def test_generator_class_maps_through_f(self, stopped_coalgebra, parity_algebra, nat_sig):
        (hom,) = enumerate_coalg_to_alg(stopped_coalgebra, parity_algebra)
        e = mu_element(stopped_coalgebra, Term(nat_sig, 0, ("var", "p")))
        assert induced_alg_hom(hom, e) == hom("p")

    def test_fold_through_parity(self, stopped_coalgebra, parity_algebra, nat_sig):
        (hom,) = enumerate_coalg_to_alg(stopped_coalgebra, parity_algebra)
        ssz = Term(nat_sig, 3, ("op", "s", (("op", "s", (("op", "z", ()),)),)))
        assert induced_alg_hom(hom, mu_element(stopped_coalgebra, ssz)) == "0"

    def test_representative_independence(self, stopped_coalgebra, parity_algebra, nat_sig):
        (hom,) = enumerate_coalg_to_alg(stopped_coalgebra, parity_algebra)
        e0 = mu_element(stopped_coalgebra, Term(nat_sig, 0, ("var", "p")))
        e1 = mu_element(stopped_coalgebra, Term(nat_sig, 1, ("op", "z", ())))
        assert mu_eq(e0, e1)
        assert induced_alg_hom(hom, e0) == induced_alg_hom(hom, e1) == "0"

    def test_representative_independence_sampled(self):
        rng = random.Random(13)
        checked = 0
        while checked < 15:
            sig = random_signature(rng)
            b = random_coalgebra(rng, sig, 3)
            a = random_algebra(rng, sig, 3)
            if count_rank(sig, len(b.carrier), 4) > 40:
                continue
            homs = enumerate_coalg_to_alg(b, a)
            if not homs:
                continue
            checked += 1
            eq = colim_eq(b)
            elements = [
                mu_element(b, t)
                for n in range(5)
                for t in enumerate_rank(sig, b.carrier, n)
            ]
            for hom in homs:
                for e1, e2 in itertools.combinations(elements, 2):
                    if mu_eq(e1, e2, eq):
                        assert induced_alg_hom(hom, e1) == induced_alg_hom(hom, e2)


class TestNuSide:
    def test_one_element_level_sizes(self, nat_sig, one_algebra):
        approx = nu_approx(one_algebra, 3)
        assert approx.level_sizes() == [1, 2, 3, 4]

    def test_constant_signature_stabilizes(self):
        sig = signature([("k", 0)])
        a = one_element_algebra(sig)
        approx = nu_approx(a, 4)
        assert approx.level_sizes() == [1, 1, 1, 1, 1]
        assert all(
            term_to_str(level[0]) in ("*", "k") for level in approx.levels
        )

    def test_depth_zero(self, parity_algebra):
        approx = nu_approx(parity_algebra, 0)
        assert approx.level_sizes() == [2]
        assert [t.tree for t in approx.levels[0]] == [("var", "0"), ("var", "1")]

    def test_projection_tables_agree_with_collapse(self, parity_algebra):
        # collapse_bottom is the projection: it maps each level onto the one
        # below, onto every term there, since s(0) -> 1 and s(1) -> 0
        approx = nu_approx(parity_algebra, 3)
        for k in range(3):
            images = [collapse_bottom(t, parity_algebra) for t in approx.levels[k + 1]]
            assert all(image.rank == k for image in images)
            assert set(images) == set(approx.levels[k])

    def test_stream_for_diverging_generator(self, loop_coalgebra, one_algebra):
        (hom,) = enumerate_coalg_to_alg(loop_coalgebra, one_algebra)
        stream = induced_coalg_hom(hom, "p")
        assert [term_to_str(stream.component(k)) for k in range(3)] == [
            "*",
            "s(*)",
            "s(s(*))",
        ]
        assert stream.check_compatible(6)

    def test_stream_for_terminating_generator(self, stopped_coalgebra, one_algebra):
        (hom,) = enumerate_coalg_to_alg(stopped_coalgebra, one_algebra)
        stream = induced_coalg_hom(hom, "p")
        assert term_to_str(stream.component(0)) == "*"
        for k in range(1, 6):
            assert term_to_str(stream.component(k)) == "z"

    def test_component_zero_is_the_image(self, stopped_coalgebra, parity_algebra):
        (hom,) = enumerate_coalg_to_alg(stopped_coalgebra, parity_algebra)
        assert induced_coalg_hom(hom, "p").component(0).tree == ("var", "0")


class TestTerminalApprox:
    def test_nat_signature_counts(self, nat_sig):
        approx = terminal_coalgebra_approx(nat_sig, 5)
        assert approx.level_sizes() == [1, 2, 3, 4, 5, 6]

    def test_single_constant_stabilizes(self):
        approx = terminal_coalgebra_approx(signature([("k", 0)]), 5)
        assert approx.level_sizes() == [1, 1, 1, 1, 1, 1]

    def test_binary_streams(self):
        approx = terminal_coalgebra_approx(signature([("a", 1), ("b", 1)]), 6)
        assert approx.level_sizes() == [2 ** k if k else 1 for k in range(7)]

    def test_sizes_obey_recurrence(self):
        rng = random.Random(17)
        for _ in range(10):
            sig = random_signature(rng)
            if count_rank(sig, 1, 4) > 200:
                continue
            approx = terminal_coalgebra_approx(sig, 4)
            assert approx.level_sizes() == [count_rank(sig, 1, k) for k in range(5)]


class TestTraces:
    def test_diverging_trace(self, loop_coalgebra):
        stream = infinite_trace(loop_coalgebra, "p")
        assert term_to_str(stream.component(4)) == "s(s(s(s(*))))"

    def test_terminating_trace(self, stopped_coalgebra):
        stream = infinite_trace(stopped_coalgebra, "p")
        assert term_to_str(stream.component(4)) == "z"

    def test_transpose_is_the_constant_map(self, loop_coalgebra, one_algebra, nat_sig):
        (hom,) = enumerate_coalg_to_alg(loop_coalgebra, one_algebra)
        for e in mu_enumerate(loop_coalgebra, 3):
            assert induced_alg_hom(hom, e) == "*"


class TestAdjunction:
    def test_stopped_into_parity(self, stopped_coalgebra, parity_algebra):
        report = adjunction_check(stopped_coalgebra, parity_algebra)
        assert report["passed"] and report["hom_count"] == 1

    def test_loop_into_parity_vacuous(self, loop_coalgebra, parity_algebra):
        report = adjunction_check(loop_coalgebra, parity_algebra)
        assert report["passed"] and report["hom_count"] == 0

    def test_anything_into_one_element(self, loop_coalgebra, one_algebra):
        report = adjunction_check(loop_coalgebra, one_algebra)
        assert report["passed"] and report["hom_count"] == 1

    def test_bijection_cardinality_sampled(self):
        # verified induced families on both sides match the pivot hom-set
        rng = random.Random(23)
        for _ in range(30):
            b, a = random_instance(rng, max_rank=4, depth=4)
            report = adjunction_check(b, a, depth=4, max_rank=4)
            assert report["passed"], report
            assert report["hom_count"] == len(enumerate_coalg_to_alg(b, a))


# Naturality of the correspondence in both arguments.  The CLI reports no
# such check, so these helpers live next to their tests.


def check_coalg_hom(src: Coalgebra, tgt: Coalgebra, g: Mapping) -> bool:
    """g : src -> tgt is a coalgebra homomorphism: tgt(g(x)) = F(g)(src(x))."""
    gmap = dict(g)
    return all(
        tgt.rule(gmap[x]) == map_leaves(src.rule(x), gmap) for x in src.carrier
    )


def check_alg_hom(src: Algebra, tgt: Algebra, h: Mapping) -> bool:
    """h : src -> tgt is an algebra homomorphism: h(src(t)) = tgt(F(h)(t))."""
    hmap = dict(h)
    return all(
        hmap[src.table[(symbol, values)]] == tgt.table[(symbol, tuple(hmap[v] for v in values))]
        for symbol, values in map(_flat, f_enumerate(src.sig, src.carrier))
    )


def naturality_check(
    b: Coalgebra,
    b2: Coalgebra,
    a: Algebra,
    a2: Algebra,
    g_coalg: Mapping,
    g_alg: Mapping,
    depth: int = 5,
    max_rank: int = 5,
    cap: int = DEFAULT_TERM_CAP,
) -> dict:
    """Transport along a coalgebra hom g_coalg : b2 -> b and an algebra hom
    g_alg : a -> a2, then check it agrees with inducing on either side."""
    if not check_coalg_hom(b2, b, g_coalg):
        raise FixcatError("g_coalg is not a coalgebra homomorphism")
    if not check_alg_hom(a, a2, g_alg):
        raise FixcatError("g_alg is not an algebra homomorphism")
    gmap, hmap = dict(g_coalg), dict(g_alg)
    checks = []
    classes2 = mu_enumerate(b2, max_rank, cap)
    for hom in enumerate_coalg_to_alg(b, a, cap):
        transported = {q: hmap[hom(gmap[q])] for q in b2.carrier}
        hom2 = CoalgToAlgHom(
            b2, a2, tuple(sorted(transported.items(), key=lambda p: str(p[0])))
        )
        alg_side = all(
            induced_alg_hom(hom2, e)
            == hmap[
                induced_alg_hom(
                    hom, MuElement(b, map_leaves(e.representative, gmap))
                )
            ]
            for e in classes2
        )
        coalg_side = all(
            induced_coalg_hom(hom2, q).component(k)
            == map_leaves(induced_coalg_hom(hom, gmap[q]).component(k), hmap)
            for q in b2.carrier
            for k in range(depth + 1)
        )
        checks.append(
            {
                "hom": hom.as_dict(),
                "algebra_side": alg_side,
                "coalgebra_side": coalg_side,
                "passed": alg_side and coalg_side,
            }
        )
    return {"checks": checks, "passed": all(c["passed"] for c in checks)}


class TestNaturality:
    def test_identity_transport(self, stopped_coalgebra, parity_algebra):
        g = {x: x for x in stopped_coalgebra.carrier}
        h = {x: x for x in parity_algebra.carrier}
        report = naturality_check(
            stopped_coalgebra, stopped_coalgebra, parity_algebra, parity_algebra, g, h
        )
        assert report["passed"]

    def test_renamed_generator(self, stopped_coalgebra, parity_algebra, nat_sig):
        renamed = coalgebra(nat_sig, ["q"], {"q": rank1(nat_sig, "z")})
        h = {x: x for x in parity_algebra.carrier}
        report = naturality_check(
            stopped_coalgebra, renamed, parity_algebra, parity_algebra, {"q": "p"}, h
        )
        assert report["passed"]
        assert report["checks"][0]["hom"] == {"p": "0"}

    def test_collapse_to_one_element(self, stopped_coalgebra, parity_algebra, one_algebra):
        g = {x: x for x in stopped_coalgebra.carrier}
        report = naturality_check(
            stopped_coalgebra,
            stopped_coalgebra,
            parity_algebra,
            one_algebra,
            g,
            {"0": "*", "1": "*"},
        )
        assert report["passed"]

    def test_invalid_coalgebra_hom_rejected(self, stopped_coalgebra, loop_coalgebra, parity_algebra):
        with pytest.raises(FixcatError):
            naturality_check(
                stopped_coalgebra,
                loop_coalgebra,
                parity_algebra,
                parity_algebra,
                {"p": "p"},
                {x: x for x in parity_algebra.carrier},
            )


class TestRecursiveCorecursive:
    def test_loop_has_unique_map_to_one(self, loop_coalgebra):
        report = corecursive_check([loop_coalgebra])
        assert report["passed"] and report["results"][0]["count"] == 1

    def test_empty_coalgebra(self, nat_sig):
        report = corecursive_check([coalgebra(nat_sig, [], {})])
        assert report["passed"]

    def test_random_coalgebras(self):
        rng = random.Random(31)
        coalgs = []
        while len(coalgs) < 100:
            sig = random_signature(rng)
            coalgs.append(random_coalgebra(rng, sig, 4))
        assert corecursive_check(coalgs)["passed"]

    def test_wellfoundedness_detection(self, loop_coalgebra, stopped_coalgebra, nat_sig):
        assert not is_wellfounded(loop_coalgebra)
        assert is_wellfounded(stopped_coalgebra)
        dag = coalgebra(
            nat_sig, ["x", "y"], {"x": rank1(nat_sig, "s", "y"), "y": rank1(nat_sig, "z")}
        )
        assert is_wellfounded(dag)

    def test_wellfoundedness_of_a_chain_deeper_than_the_recursion_limit(self, nat_sig):
        # x_i -> s(x_{i+1}) for 3000 generators, stopped by z or closed into a cycle
        n = 3000
        chain = {f"x{i}": rank1(nat_sig, "s", f"x{i + 1}") for i in range(n - 1)}
        carrier = [f"x{i}" for i in range(n)]
        assert is_wellfounded(coalgebra(nat_sig, carrier, {**chain, f"x{n - 1}": rank1(nat_sig, "z")}))
        cycle = {**chain, f"x{n - 1}": rank1(nat_sig, "s", "x0")}
        assert not is_wellfounded(coalgebra(nat_sig, carrier, cycle))

    def test_wellfounded_unique_hom(self, stopped_coalgebra, parity_algebra):
        report = wellfounded_recursive_check(stopped_coalgebra, [parity_algebra])
        assert report["wellfounded"] and report["passed"]
        assert report["results"][0]["count"] == 1

    def test_nonwellfounded_reports_without_asserting(self, loop_coalgebra, parity_algebra):
        report = wellfounded_recursive_check(loop_coalgebra, [parity_algebra])
        assert not report["wellfounded"]
        assert report["passed"]  # counts reported, nothing asserted
        assert report["results"][0]["count"] == 0

    def test_dag_into_random_algebras(self, nat_sig):
        dag = coalgebra(
            nat_sig, ["x", "y"], {"x": rank1(nat_sig, "s", "y"), "y": rank1(nat_sig, "z")}
        )
        rng = random.Random(37)
        algebras = [random_algebra(rng, nat_sig, 3) for _ in range(10)]
        report = wellfounded_recursive_check(dag, algebras)
        assert report["passed"]
        assert all(r["count"] == 1 for r in report["results"])
