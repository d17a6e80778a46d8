import itertools
import json
import random
import time

import pytest

from midfix import cli, dagger
from midfix.dagger import (
    FinRel,
    ObjectMismatch,
    RelError,
    StabilizationResult,
    all_relations,
    chain_colimit_stabilized,
    coincidence_check,
    constant_endofunctor,
    dagger_laws_check,
    finrel,
    identity_endofunctor,
    is_isomorphism,
    mu_chain,
    nu_chain,
    pad_endofunctor,
    random_instance,
    random_object,
    random_relation,
    rel_compose,
    rel_dagger,
    rel_endo_laws_check,
    rel_identity,
)


class TestCompose:
    def test_identity_is_neutral(self):
        r = finrel(["1", "2"], ["a"], [("1", "a")])
        assert rel_compose(r, rel_identity(["a"])) == r
        assert rel_compose(rel_identity(["1", "2"]), r) == r

    def test_expansion(self):
        r = finrel(["1"], ["a"], [("1", "a")])
        s = finrel(["a"], ["p", "q"], [("a", "p"), ("a", "q")])
        assert set(rel_compose(r, s).pairs) == {("1", "p"), ("1", "q")}

    def test_empty_annihilates(self):
        r = finrel(["1"], ["a"], [])
        s = finrel(["a"], ["p"], [("a", "p")])
        assert rel_compose(r, s).pairs == frozenset()

    def test_object_mismatch(self):
        r = finrel(["1"], ["a"], [])
        with pytest.raises(ObjectMismatch):
            rel_compose(r, r)

    def test_pairs_outside_objects_rejected(self):
        with pytest.raises(RelError):
            finrel(["1"], ["a"], [("2", "a")])


class TestDagger:
    def test_identity_is_self_converse(self):
        ident = rel_identity(["x", "y"])
        assert rel_dagger(ident) == ident

    def test_transposition(self):
        r = finrel(["1", "2"], ["a"], [("1", "a"), ("2", "a")])
        assert set(rel_dagger(r).pairs) == {("a", "1"), ("a", "2")}
        assert rel_dagger(r).source == ("a",)

    def test_involution_everywhere(self):
        for r in all_relations(["1", "2"], ["a", "b"]):
            assert rel_dagger(rel_dagger(r)) == r

    def test_all_relations_follow_the_cell_product(self):
        # the enumeration order decides which witness a failed law reports
        src, tgt = ("1", "2", "3"), ("a", "b")
        cells = [(x, y) for x in src for y in tgt]
        expected = [
            {c for c, keep in zip(cells, bits) if keep}
            for bits in itertools.product((False, True), repeat=len(cells))
        ]
        assert [set(r.pairs) for r in all_relations(src, tgt)] == expected

    def test_contravariance_random(self):
        rng = random.Random(2)
        for _ in range(200):
            src = random_object(rng, "x", 3)
            mid = random_object(rng, "y", 3)
            tgt = random_object(rng, "z", 3)
            r = random_relation(rng, src, mid)
            s = random_relation(rng, mid, tgt)
            assert rel_dagger(rel_compose(r, s)) == rel_compose(
                rel_dagger(s), rel_dagger(r)
            )


class TestDaggerLaws:
    def test_exhaustive_small_sets(self):
        objects = [tuple(f"u{i}" for i in range(n)) for n in range(3)]
        sample = [
            r for src in objects for tgt in objects for r in all_relations(src, tgt)
        ]
        assert dagger_laws_check(objects, sample)["passed"]

    def test_empty_relation(self):
        report = dagger_laws_check([("x",)], [finrel(["x"], ["x"], [])])
        assert report["passed"]

    def test_failed_law_witness_is_written_sorted(self, monkeypatch):
        # a converse that forgets every pair breaks involution
        monkeypatch.setattr(
            dagger, "rel_dagger", lambda r: FinRel(r.target, r.source, frozenset())
        )
        r = finrel(["2", "1"], ["b", "a"], [("2", "b"), ("1", "b"), ("1", "a")])
        report = dagger_laws_check([], [r])
        assert not report["passed"]
        assert report["checks"][0]["witness"] == [
            {"source": ["1", "2"], "target": ["a", "b"],
             "pairs": [["1", "a"], ["1", "b"], ["2", "b"]]}
        ]
        assert "frozenset" not in json.dumps(report, default=repr)

    def test_every_relation_up_to_size_three(self, capsys):
        # all 689 relations between objects of sizes 0..3 and every composable
        # pair of them (about 350k), no random samples
        code = cli.main(["rel-dagger", "--size", "3", "--samples", "0"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0 and report["passed"] is True
        assert report["sample_size"] == 689

    @pytest.mark.parametrize("size", [4, 5])
    def test_sizes_past_the_pair_cap_exit_two_at_once(self, capsys, size):
        # size 4 has 4,908,738,053 composable pairs (hours of checking), and
        # size 5 builds 35,794,197 relations before checking any
        start = time.perf_counter()
        code = cli.main(["rel-dagger", "--size", str(size), "--samples", "0"])
        assert time.perf_counter() - start < 1
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert "error: CapExceeded: objects up to size 4 give 4908738053 composable pairs" in err

    def test_random_large_sample(self):
        rng = random.Random(3)
        sample = [
            random_relation(rng, random_object(rng, "x", 4), random_object(rng, "y", 4))
            for _ in range(1000)
        ]
        assert dagger_laws_check([], sample)["passed"]


class TestEndofunctors:
    def test_identity_functor_laws(self):
        rng = random.Random(4)
        rels = [random_relation(rng, ("x0", "x1"), ("x0", "x1")) for _ in range(20)]
        assert rel_endo_laws_check(identity_endofunctor(), rels)["passed"]

    def test_constant_functor_laws(self):
        rng = random.Random(5)
        functor = constant_endofunctor(("k0", "k1"))
        rels = [random_relation(rng, ("x0",), ("k0", "k1")) for _ in range(20)]
        assert rel_endo_laws_check(functor, rels)["passed"]

    def test_pad_functor_laws_and_iteration(self):
        functor = pad_endofunctor(("k0",))
        x = ("x0", "x1")
        fx = functor.on_object(x)
        assert ("inr", "k0") in fx and ("inl", "x0") in fx
        rng = random.Random(6)
        rels = [random_relation(rng, x, x) for _ in range(10)]
        assert rel_endo_laws_check(functor, rels)["passed"]
        # iterating stays well defined thanks to the tagging
        ffx = functor.on_object(fx)
        assert len(ffx) == len(fx) + 1


class TestChains:
    def test_constant_functor_stabilizes_at_stage_one(self):
        k = ("k0", "k1")
        functor = constant_endofunctor(k)
        c = finrel(["x0", "x1"], k, [("x0", "k0"), ("x1", "k0")])
        chain = mu_chain(functor, c, 6)
        result = chain_colimit_stabilized(chain)
        assert result.stabilized and result.stage == 1 and result.colimit == k
        same = StabilizationResult(True, 1, k)
        assert result == same and hash(result) == hash(same)
        assert result != StabilizationResult(True, 0, k) and result != (True, 1, k)

    def test_identity_functor_non_bijection_never_stabilizes(self):
        functor = identity_endofunctor()
        c = finrel(["x0", "x1"], ["x0", "x1"], [("x0", "x0"), ("x1", "x0")])
        result = chain_colimit_stabilized(mu_chain(functor, c, 6))
        assert not result.stabilized

    def test_chain_of_identities_stabilizes_immediately(self):
        functor = identity_endofunctor()
        c = rel_identity(["x0"])
        result = chain_colimit_stabilized(mu_chain(functor, c, 6))
        assert result.stabilized and result.stage == 0

    def test_nu_chain_objects_mirror_mu_chain(self):
        functor = constant_endofunctor(("k0",))
        c = finrel(["x0"], ["k0"], [("x0", "k0")])
        up = mu_chain(functor, c, 4)
        down = nu_chain(functor, rel_dagger(c), 4)
        assert up.objects == down.objects


class TestIsomorphismDetection:
    def test_bijection(self):
        assert is_isomorphism(finrel(["1", "2"], ["a", "b"], [("1", "b"), ("2", "a")]))

    def test_non_function(self):
        assert not is_isomorphism(
            finrel(["1"], ["a", "b"], [("1", "a"), ("1", "b")])
        )

    def test_size_mismatch(self):
        assert not is_isomorphism(finrel(["1", "2"], ["a"], [("1", "a")]))


class TestCoincidence:
    def test_constant_functor_coincides(self):
        k = ("k0", "k1")
        functor = constant_endofunctor(k)
        c = finrel(["x0", "x1"], k, [("x0", "k0"), ("x1", "k0"), ("x1", "k1")])
        report = coincidence_check(functor, c, bound=8)
        assert report["passed"]
        assert tuple(report["coincidence_object"]) == k
        assert report["stage"] == 1

    def test_empty_coalgebra_into_constant(self):
        k = ("k0",)
        functor = constant_endofunctor(k)
        c = finrel(["x0"], k, [])
        report = coincidence_check(functor, c, bound=8)
        assert report["passed"] and tuple(report["coincidence_object"]) == k

    def test_non_stabilizing_reports_duality_only(self):
        functor = identity_endofunctor()
        c = finrel(["x0", "x1"], ["x0", "x1"], [("x0", "x0"), ("x1", "x0")])
        report = coincidence_check(functor, c, bound=8)
        assert report["passed"]  # stage-wise duality holds
        assert not report["ascending_stabilized"]
        assert "note" in report

    def test_stagewise_duality_on_random_instances(self):
        rng = random.Random(7)
        for _ in range(100):
            functor, c = random_instance(rng)
            report = coincidence_check(functor, c, bound=6)
            duality = next(
                ch for ch in report["checks"] if ch["name"] == "stage-duality"
            )
            assert duality["passed"], (functor.name, c)
            assert report["passed"], (functor.name, c)

    def test_dual_stabilization_matches_stage(self):
        rng = random.Random(8)
        seen = 0
        while seen < 30:
            functor, c = random_instance(rng)
            up = chain_colimit_stabilized(mu_chain(functor, c, 6))
            down = chain_colimit_stabilized(nu_chain(functor, rel_dagger(c), 6))
            assert up.stabilized == down.stabilized
            if up.stabilized:
                seen += 1
                assert up.stage == down.stage and up.colimit == down.colimit
