import itertools

import pytest

from midfix.signature import (
    CapExceeded,
    NodeTable,
    Signature,
    SignatureError,
    Term,
    count_rank,
    enumerate_rank,
    f_enumerate,
    map_leaves,
    signature,
    term_to_str,
    unfold_once,
    var_term,
)


def rank1(sig, symbol, *args):
    return Term(sig, 1, ("op", symbol, tuple(("var", x) for x in args)))


class TestSignature:
    def test_duplicate_symbol_rejected(self):
        with pytest.raises(SignatureError):
            signature([("s", 1), ("s", 2)])

    def test_negative_arity_rejected(self):
        with pytest.raises(SignatureError):
            signature([("s", -1)])

    def test_operations_are_a_set(self):
        # F is presented by a set of operations: the order they are listed
        # in is no part of the signature, so equality and hash ignore it
        listed = signature([("z", 0), ("s", 1), ("n", 2)])
        reversed_ = signature([("n", 2), ("s", 1), ("z", 0)])
        assert listed == reversed_ and hash(listed) == hash(reversed_)
        assert listed.ops == (("n", 2), ("s", 1), ("z", 0)) == tuple(listed.sorted_ops())
        assert rank1(listed, "s", "x") == rank1(reversed_, "s", "x")
        # a term the library derives equals the validated one; equality reads
        # the operations and the term, not the arity table, and an object of
        # another type is never equal
        t = rank1(listed, "s", "x")
        derived = Term.derived(reversed_, 1, ("op", "s", (("var", "x"),)))
        assert derived == t and hash(derived) == hash(t)
        assert listed != listed.ops and t != (listed, 1, t.tree) and t != listed
        reversed_.arities = {}
        assert listed == reversed_ and hash(listed) == hash(reversed_)

    def test_arity_lookup(self):
        sig = signature([("z", 0), ("s", 1)])
        assert sig.arity("s") == 1
        with pytest.raises(SignatureError):
            sig.arity("nope")


class TestTermInvariants:
    def test_leaf_must_sit_at_rank_depth(self):
        sig = signature([("s", 1)])
        with pytest.raises(SignatureError):
            Term(sig, 2, ("op", "s", (("var", "x"),)))  # leaf at depth 1, rank 2

    def test_arity_must_match_children(self):
        sig = signature([("b", 2)])
        with pytest.raises(SignatureError):
            Term(sig, 1, ("op", "b", (("var", "x"),)))

    def test_constant_cannot_sit_at_leaf_depth(self):
        sig = signature([("z", 0), ("s", 1)])
        with pytest.raises(SignatureError):
            Term(sig, 0, ("op", "z", ()))

    def test_early_constant_is_fine(self):
        sig = signature([("z", 0), ("s", 1)])
        t = Term(sig, 2, ("op", "s", (("op", "z", ()),)))
        assert t.leaves() == []


class TestFEnumerate:
    def test_single_generator(self):
        sig = signature([("z", 0), ("s", 1)])
        terms = f_enumerate(sig, ["p"])
        assert [term_to_str(t) for t in terms] == ["s(p)", "z"]

    def test_empty_generators_keep_constants(self):
        sig = signature([("z", 0), ("s", 1)])
        assert [term_to_str(t) for t in f_enumerate(sig, [])] == ["z"]

    def test_binary_op_squares(self):
        sig = signature([("b", 2)])
        assert len(f_enumerate(sig, ["x", "y"])) == 4

    def test_cardinality_formula_exhaustively(self):
        # sum over operations of |X|^arity, small signatures and carriers
        arity_choices = [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
        for arities in arity_choices:
            sig = signature([(f"op{i}", a) for i, a in enumerate(arities)])
            for n in range(5):
                gens = [f"x{i}" for i in range(n)]
                assert len(f_enumerate(sig, gens)) == sum(n ** a for a in arities)


class TestEnumerateRank:
    def test_nat_prefix_over_empty(self):
        sig = signature([("z", 0), ("s", 1)])
        assert [len(enumerate_rank(sig, [], n)) for n in (1, 2, 3)] == [1, 2, 3]

    def test_nat_prefix_over_singleton(self):
        sig = signature([("z", 0), ("s", 1)])
        assert [len(enumerate_rank(sig, ["*"], n)) for n in range(4)] == [1, 2, 3, 4]

    def test_rank_zero_is_the_generators(self):
        sig = signature([("b", 2)])
        terms = enumerate_rank(sig, ["x", "y"], 0)
        assert [t.tree for t in terms] == [("var", "x"), ("var", "y")]

    @pytest.mark.parametrize("n_gens,rank", [(0, 3), (1, 3), (2, 2), (3, 2)])
    def test_size_matches_recurrence(self, n_gens, rank):
        sig = signature([("z", 0), ("s", 1), ("b", 2)])
        gens = [f"x{i}" for i in range(n_gens)]
        assert len(enumerate_rank(sig, gens, rank)) == count_rank(sig, n_gens, rank)

    def test_cap_is_an_error_not_truncation(self):
        sig = signature([("b", 2)])
        with pytest.raises(CapExceeded) as err:
            enumerate_rank(sig, ["x", "y", "z"], 4, cap=100)
        assert err.value.count > 100

    def test_deterministic_order(self):
        sig = signature([("z", 0), ("s", 1)])
        once = enumerate_rank(sig, ["a", "b"], 2)
        again = enumerate_rank(sig, ["a", "b"], 2)
        assert once == again


class TestUnfoldAndMapLeaves:
    def test_unfold_substitutes_at_leaves(self):
        sig = signature([("z", 0), ("s", 1)])
        b = {"p": rank1(sig, "s", "p")}
        t = var_term(sig, "p")
        assert term_to_str(unfold_once(t, b)) == "s(p)"
        assert term_to_str(unfold_once(unfold_once(t, b), b)) == "s(s(p))"

    def test_unfold_raises_rank_by_one(self):
        sig = signature([("z", 0), ("s", 1)])
        b = {"p": rank1(sig, "s", "p")}
        t = var_term(sig, "p")
        for expected in (1, 2, 3):
            t = unfold_once(t, b)
            assert t.rank == expected

    def test_unfold_leafless_term_only_rebrands_rank(self):
        sig = signature([("z", 0), ("s", 1)])
        b = {"p": rank1(sig, "s", "p")}
        t = Term(sig, 1, ("op", "z", ()))
        u = unfold_once(t, b)
        assert u.rank == 2 and u.tree == t.tree

    def test_unfold_preserves_non_leaf_structure(self):
        sig = signature([("z", 0), ("s", 1), ("b", 2)])
        b = {"p": rank1(sig, "s", "p"), "q": rank1(sig, "z")}
        t = Term(sig, 1, ("op", "b", (("var", "p"), ("var", "q"))))
        u = unfold_once(t, b)
        assert u.tree[0:2] == t.tree[0:2]
        assert [c[1] for c in u.tree[2]] == ["s", "z"]

    def test_map_leaves_identity(self):
        sig = signature([("s", 1)])
        t = rank1(sig, "s", "p")
        assert map_leaves(t, {"p": "p"}) == t

    def test_map_leaves_relabels(self):
        sig = signature([("s", 1)])
        t = rank1(sig, "s", "p")
        assert term_to_str(map_leaves(t, {"p": "0"})) == "s(0)"

    def test_map_leaves_composes(self):
        sig = signature([("z", 0), ("s", 1), ("b", 2)])
        h = {"x": "m", "y": "m"}
        g = {"m": "out"}
        for t in enumerate_rank(sig, ["x", "y"], 2):
            composed = map_leaves(t, lambda v: g[h[v]])
            staged = map_leaves(map_leaves(t, h), g)
            assert composed == staged


class TestNodeTable:
    def test_equal_trees_share_one_id_and_one_tuple(self):
        sig = signature([("z", 0), ("n", 2)])
        terms = enumerate_rank(sig, ["p", "q"], 2)
        nodes = NodeTable()
        ids = [nodes.intern(t.tree) for t in terms]
        assert len(set(ids)) == len(terms)
        assert [nodes.intern(t.tree) for t in terms] == ids
        for node, t in zip(ids, terms):
            assert nodes.tree(node) == t.tree
            key = nodes.keys[node]
            if key[0] == "op":
                assert all(k < node for k in key[2])
                assert all(c is nodes.tree(k) for c, k in zip(nodes.tree(node)[2], key[2]))

    def test_subst_and_render_agree_with_the_tree_walks(self):
        sig = signature([("z", 0), ("s", 1), ("n", 2)])
        b = {"p": rank1(sig, "n", "p", "q"), "q": rank1(sig, "s", "p")}
        nodes = NodeTable()
        rules = {x: nodes.intern(t.tree) for x, t in b.items()}
        unfolded, texts = {}, {}
        for t in enumerate_rank(sig, ["p", "q"], 2):
            node = nodes.intern(t.tree)
            assert nodes.render(node, texts) == term_to_str(t)
            up = nodes.subst(node, rules.__getitem__, unfolded)
            assert nodes.tree(up) == unfold_once(t, b).tree
            assert nodes.render(up, texts) == term_to_str(unfold_once(t, b))
