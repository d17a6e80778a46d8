"""Every check that fails in a CLI report carries a witness.

Each test below breaks one check that used to fail without a witness and
asserts the witness it now names.  The CI workflow also runs this file under
a fixed hash seed: the witnesses are picked in the order of the input, never
in set order.
"""

import json
from pathlib import Path

import pytest

from midfix import cli, fixcat, lattice as lat
from midfix.checks import verdict
from midfix.dagger import FinRel, RelEndo, finrel, rel_endo_laws_check, relation_to_json

SPECS = Path(__file__).resolve().parent.parent / "sample_specs"

X = ["x0", "x1", "x2"]
CYCLE = [["x0", "x1"], ["x1", "x2"], ["x2", "x0"]]  # sigma, a 3-cycle on X
INVERSE = [["x1", "x0"], ["x2", "x1"], ["x0", "x2"]]  # its converse, also sigma;sigma
IDENTITY = [[x, x] for x in X]


def _relation(pairs, image=None) -> dict:
    out = {"source": X, "target": X, "pairs": pairs}
    if image is not None:
        out["image"] = {"source": X, "target": X, "pairs": image}
    return out


def _report(capsys, argv) -> tuple[int, dict]:
    code = cli.main(argv)
    return code, json.loads(capsys.readouterr().out)


def _failed(report) -> dict:
    """{name: witness} of the failed checks; each must have a witness."""
    failed = {c["name"]: c.get("witness") for c in report["checks"] if not c["passed"]}
    assert None not in failed.values()
    return failed


def test_verdict_names_a_witness_for_each_failed_check():
    report = verdict({"holds": None, "stage": 0, "pair": ["a", "b"]})
    assert report == {
        "checks": [
            {"name": "holds", "passed": True},
            {"name": "stage", "passed": False, "witness": 0},
            {"name": "pair", "passed": False, "witness": ["a", "b"]},
        ],
        "passed": False,
    }
    assert verdict({}) == {"checks": [], "passed": True}


def test_injectivity_names_two_homs_that_fold_alike(monkeypatch, capsys):
    real = fixcat.enumerate_coalg_to_alg

    def twice(b, a, cap):
        homs = real(b, a, cap)
        return homs + homs[:1]

    monkeypatch.setattr(fixcat, "enumerate_coalg_to_alg", twice)
    code, report = _report(
        capsys,
        ["adjunction", str(SPECS / "stopped_coalgebra.json"), str(SPECS / "parity_algebra.json")],
    )
    assert code == 1 and report["hom_count"] == 2
    assert _failed(report) == {"injectivity": [{"p": "0"}, {"p": "0"}]}


def test_galois_biconditional_names_its_first_violation(monkeypatch, capsys):
    # a greatest fixpoint that always answers the bottom breaks the connection
    monkeypatch.setattr(lat, "nu_lattice", lambda f, y: f.lattice.bottom)
    code, report = _report(capsys, ["lattice-galois", str(SPECS / "chain_lattice.json")])
    assert code == 1
    assert _failed(report) == {"galois-biconditional": ["1", "2"]}
    assert report["violations"][0] == ["1", "2"]


def test_broken_table_functor_names_each_counterexample(tmp_path, capsys):
    """A table functor that fixes the 3-cycle sigma but sends its converse to
    the empty relation, the empty relation to the identity and the identity
    to the empty relation.  The ascending chain of sigma stabilizes at once;
    the descending chain of its converse only at stage 2."""
    spec = {
        "functor": {
            "kind": "table",
            "objects": [{"object": X, "image": X}],
            "relations": [
                _relation(CYCLE, CYCLE),
                _relation(INVERSE, []),
                _relation([], IDENTITY),
                _relation(IDENTITY, []),
            ],
        },
        "coalgebra": _relation(CYCLE),
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(spec))
    code, report = _report(capsys, ["rel-coincidence", str(path), "--bound", "3"])
    sigma = relation_to_json(finrel(X, X, [tuple(p) for p in CYCLE]))
    assert code == 1 and report["stage"] == 0
    assert _failed(report) == {
        "preserves-identities": [X],
        "preserves-composition": [[sigma, sigma]],
        "commutes-with-dagger": [sigma],
        "stage-duality": 1,
        "coincidence": {"descending_stage": 2, "descending_object": X},
    }


def test_coincidence_names_a_descending_chain_that_never_stabilizes(tmp_path, capsys):
    # as above, but the empty relation stays empty
    spec = {
        "functor": {
            "kind": "table",
            "objects": [{"object": X, "image": X}],
            "relations": [
                _relation(CYCLE, CYCLE),
                _relation(INVERSE, []),
                _relation([], []),
                _relation(IDENTITY, IDENTITY),
            ],
        },
        "coalgebra": _relation(CYCLE),
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(spec))
    code, report = _report(capsys, ["rel-coincidence", str(path), "--bound", "3"])
    assert code == 1 and report["descending_stabilized"] is False
    failed = _failed(report)
    assert "preserves-identities" not in failed
    assert failed["coincidence"] == {"descending_stage": None, "descending_object": None}


def test_functor_law_witness_is_the_first_object_in_input_order():
    # every identity goes to the empty relation, so each of the eight objects
    # is a counterexample; the witness must not depend on the hash seed
    def emptied(r: FinRel) -> FinRel:
        return FinRel(r.source, r.target, (0,) * len(r.rows))

    functor = RelEndo("emptying", lambda obj: obj, emptied)
    names = ["h", "c", "f", "a", "g", "b", "e", "d"]
    rels = [finrel([s], [t], [(s, t)]) for s, t in zip(names[::2], names[1::2])]
    report = rel_endo_laws_check(functor, rels)
    assert _failed(report)["preserves-identities"] == [("h",)]


@pytest.mark.parametrize(
    "argv",
    [
        ["mu", str(SPECS / "loop_coalgebra.json"), "--max-rank", "4"],
        ["nu", str(SPECS / "parity_algebra.json"), "--depth", "6"],
        ["trace", str(SPECS / "loop_coalgebra.json"), "--depth", "5"],
    ],
)
def test_commands_without_a_check_that_can_fail_report_none(capsys, argv):
    code, report = _report(capsys, argv)
    assert code == 0 and report["checks"] == [] and report["passed"] is True
