import contextlib
import copy
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from midfix import cli, dagger, specs
from midfix.lattice import NotMonotone

SPECS = Path(__file__).resolve().parent.parent / "sample_specs"


def run_cli(*argv, timeout=None):
    proc = subprocess.run(
        [sys.executable, "-m", "midfix.cli", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    return proc


class TestParsing:
    def test_minimal_signature(self):
        sig = specs.parse_signature({"ops": [{"name": "z", "arity": 0}]})
        assert sig.ops == (("z", 0),)

    def test_unknown_symbol_in_coalgebra(self):
        obj = {
            "sig": {"ops": [{"name": "z", "arity": 0}]},
            "carrier": ["p"],
            "structure": {"p": {"op": "boom", "args": []}},
        }
        with pytest.raises(specs.ParseError) as err:
            specs.parse_coalgebra(obj)
        assert "boom" in str(err.value)

    def test_chain_lattice_spec_parses(self):
        obj = json.loads((SPECS / "chain_lattice.json").read_text())
        lattice, f = specs.parse_lattice(obj)
        assert lattice.bottom == "0" and f("1") == "2"

    def test_monotonicity_violation_delegated(self):
        obj = json.loads((SPECS / "chain_lattice.json").read_text())
        obj["map"]["0"] = "4"
        obj["map"]["4"] = "0"
        with pytest.raises(NotMonotone):
            specs.parse_lattice(obj)

    def test_bad_json_is_a_parse_error(self):
        with pytest.raises(specs.ParseError):
            specs.load_json("{nope")


class TestRoundTrip:
    def test_lattice(self):
        obj = json.loads((SPECS / "chain_lattice.json").read_text())
        lattice, f = specs.parse_lattice(obj)
        again = specs.parse_lattice(specs.lattice_to_json(lattice, f))
        assert again == (lattice, f)

    def test_coalgebra(self):
        obj = json.loads((SPECS / "loop_coalgebra.json").read_text())
        b = specs.parse_coalgebra(obj)
        assert specs.parse_coalgebra(specs.coalgebra_to_json(b)) == b

    def test_algebra(self):
        obj = json.loads((SPECS / "parity_algebra.json").read_text())
        a = specs.parse_algebra(obj)
        assert specs.parse_algebra(specs.algebra_to_json(a)) == a

    def test_relation(self):
        obj = json.loads((SPECS / "relation.json").read_text())
        r = specs.parse_relation(obj)
        assert specs.parse_relation(specs.relation_to_json(r)) == r

    def test_table_functor(self):
        x = ("x0",)
        fx = ("k0",)
        c = dagger.finrel(x, fx, [("x0", "k0")])
        functor = specs.parse_functor(
            {
                "kind": "table",
                "objects": [{"object": list(x), "image": list(fx)}],
                "relations": [
                    {
                        "source": list(x),
                        "target": list(fx),
                        "pairs": [["x0", "k0"]],
                        "image": {
                            "source": list(fx),
                            "target": list(fx),
                            "pairs": [["k0", "k0"]],
                        },
                    }
                ],
            }
        )
        assert functor.on_object(x) == fx
        assert functor.on_rel(c) == dagger.rel_identity(fx)


class TestExitCodes:
    def test_passing_run_exits_zero(self):
        proc = run_cli("lattice-galois", str(SPECS / "chain_lattice.json"))
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["passed"] is True

    def test_input_error_exits_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        proc = run_cli("lattice-galois", str(bad))
        assert proc.returncode == 2
        assert "error" in proc.stderr

    def test_missing_file_exits_two(self):
        proc = run_cli("mu", "/nonexistent.json")
        assert proc.returncode == 2

    def test_cap_exceeded_exits_two(self, tmp_path):
        spec = {
            "sig": {"ops": [{"name": "b", "arity": 2}, {"name": "z", "arity": 0}]},
            "carrier": ["p", "q"],
            "structure": {
                "p": {"op": "b", "args": ["p", "q"]},
                "q": {"op": "z", "args": []},
            },
        }
        path = tmp_path / "big.json"
        path.write_text(json.dumps(spec))
        proc = run_cli("mu", str(path), "--max-rank", "8", "--cap", "100")
        assert proc.returncode == 2
        assert "CapExceeded" in proc.stderr

    def test_adjunction_cap_names_fold_applications(self):
        # the cap counts each symbol over every tuple of classes through
        # every hom, not the terms of a level
        proc = run_cli(
            "adjunction",
            str(SPECS / "tree_coalgebra.json"),
            str(SPECS / "tree_algebra.json"),
            "--max-rank",
            "3",
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == (
            "error: CapExceeded: rank 3 needs 104080805 fold applications (each symbol "
            "over every tuple of classes, through every hom), cap is 100000\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ("mu", str(SPECS / "loop_coalgebra.json"), "--max-rank", "-1"),
            ("mu", str(SPECS / "loop_coalgebra.json"), "--cap", "-1"),
            ("nu", str(SPECS / "parity_algebra.json"), "--depth", "-2"),
            ("trace", str(SPECS / "loop_coalgebra.json"), "--depth", "-1"),
            (
                "adjunction",
                str(SPECS / "stopped_coalgebra.json"),
                str(SPECS / "parity_algebra.json"),
                "--max-rank",
                "-1",
            ),
            ("rel-coincidence", str(SPECS / "constant_coincidence.json"), "--bound", "-1"),
            ("rel-dagger", "--size", "-1"),
            ("rel-dagger", "--samples", "-5"),
        ],
    )
    def test_negative_count_exits_two(self, argv):
        proc = run_cli(*argv)
        assert proc.returncode == 2
        assert "must be >= 0" in proc.stderr and proc.stdout == ""

    @pytest.mark.parametrize("command", ["lattice-galois", "mu", "nu", "trace", "rel-coincidence"])
    def test_no_path_and_no_stdin_exits_two(self, command):
        proc = run_cli(command)
        assert proc.returncode == 2
        assert "error: ParseError" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("depth,code", [(400, 0), (600, 0), (1500, 0)])
    def test_deep_trace_completes_or_exits_two(self, tmp_path, depth, code):
        # two states that feed each other: every component is a unary chain
        spec = {
            "sig": {"ops": [{"name": "z", "arity": 0}, {"name": "s", "arity": 1}]},
            "carrier": ["p", "q"],
            "structure": {"p": {"op": "s", "args": ["q"]}, "q": {"op": "s", "args": ["p"]}},
        }
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps(spec))
        proc = run_cli("trace", str(path), "--element", "p", "--depth", str(depth))
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr
        if code == 0:
            assert len(json.loads(proc.stdout)["traces"]["p"]) == depth + 1
        else:
            assert "error: RecursionError" in proc.stderr

    @pytest.mark.parametrize("fmt,code", [("json", 0), ("dot", 2)])
    def test_doubly_exponential_chain_dot_exits_two(self, tmp_path, fmt, code):
        # |F^k(1)| over {s:1, n:2} squares at every stage: |F^28| has about
        # 2^27 digits, while the trace of p -> s(p) stays one node per stage
        spec = {
            "sig": {"ops": [{"name": "s", "arity": 1}, {"name": "n", "arity": 2}]},
            "carrier": ["p"],
            "structure": {"p": {"op": "s", "args": ["p"]}},
        }
        path = tmp_path / "loop.json"
        path.write_text(json.dumps(spec))
        proc = run_cli("trace", str(path), "--depth", "28", "--format", fmt, timeout=60)
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr
        if code == 0:
            assert json.loads(proc.stdout)["traces"]["p"][-1] == "s(" * 28 + "*" + ")" * 28
        else:
            assert "error: StageTooLarge" in proc.stderr and proc.stdout == ""

    def test_deep_unary_mu_completes(self, tmp_path):
        # stage r holds s-chains r deep; sorting a stage by nested-tuple sort
        # keys compared them node by node, which took minutes at rank 300
        spec = {
            "sig": {"ops": [{"name": "z", "arity": 0}, {"name": "s", "arity": 1}]},
            "carrier": ["p"],
            "structure": {"p": {"op": "s", "args": ["p"]}},
        }
        path = tmp_path / "loop.json"
        path.write_text(json.dumps(spec))
        proc = run_cli("mu", str(path), "--max-rank", "300", "--cap", "1000000", timeout=60)
        assert proc.returncode == 0
        classes = json.loads(proc.stdout)["classes"]
        assert [c["rank"] for c in classes] == list(range(301))
        assert classes[-1]["representative"] == "s(" * 299 + "z" + ")" * 299

    # over one constant every stage holds one term; counting each stage from
    # stage 0 again made mu quadratic in --max-rank (15 s at 8000) and nu
    # cubic in --depth (11 s at 500)
    def test_long_mu_over_one_constant_completes(self, tmp_path):
        spec = {
            "sig": {"ops": [{"name": "z", "arity": 0}]},
            "carrier": ["p"],
            "structure": {"p": {"op": "z", "args": []}},
        }
        path = tmp_path / "stop.json"
        path.write_text(json.dumps(spec))
        proc = run_cli("mu", str(path), "--max-rank", "8000", timeout=5)
        assert proc.returncode == 0 and json.loads(proc.stdout)["class_count"] == 1

    def test_deep_nu_over_one_constant_completes(self, tmp_path):
        spec = {
            "sig": {"ops": [{"name": "z", "arity": 0}]},
            "carrier": ["a"],
            "structure": [{"op": "z", "args": [], "value": "a"}],
        }
        path = tmp_path / "point.json"
        path.write_text(json.dumps(spec))
        proc = run_cli("nu", str(path), "--depth", "500", timeout=5)
        assert proc.returncode == 0 and json.loads(proc.stdout)["level_sizes"] == [1] * 501

    @pytest.mark.parametrize(
        "command,spec,error",
        [
            # an order pair naming a non-element
            (
                "lattice-galois",
                {"elements": ["a"], "leq": [["a", "a"], ["a", "z"]], "map": {"a": "a"}},
                "LatticeError",
            ),
            # list-valued elements
            (
                "lattice-galois",
                {"elements": [["a"]], "leq": [[["a"], ["a"]]], "map": {}},
                "ParseError",
            ),
            (
                "rel-coincidence",
                {
                    "functor": {"kind": "identity"},
                    "coalgebra": {"source": [["x"]], "target": [["x"]], "pairs": []},
                },
                "ParseError",
            ),
            (
                "rel-coincidence",
                {
                    "functor": {"kind": "constant", "constant": [["k"]]},
                    "coalgebra": {"source": ["x"], "target": ["k"], "pairs": []},
                },
                "ParseError",
            ),
            # pairs and argument lists given as strings
            (
                "lattice-galois",
                {"elements": ["a", "b"], "leq": [["a", "a"], ["b", "b"], "ab"], "map": {}},
                "ParseError",
            ),
            (
                "rel-coincidence",
                {
                    "functor": {"kind": "identity"},
                    "coalgebra": {"source": ["a"], "target": ["b"], "pairs": ["ab"]},
                },
                "ParseError",
            ),
            (
                "mu",
                {
                    "sig": {"ops": [{"name": "n", "arity": 2}]},
                    "carrier": ["p", "q"],
                    "structure": {
                        "p": {"op": "n", "args": "pq"},
                        "q": {"op": "n", "args": ["p", "q"]},
                    },
                },
                "ParseError",
            ),
            (
                "nu",
                {
                    "sig": {"ops": [{"name": "n", "arity": 2}]},
                    "carrier": ["p", "q"],
                    "structure": [{"op": "n", "args": "pq", "value": "p"}],
                },
                "ParseError",
            ),
            # a spec or an entry that is not a JSON object
            ("lattice-galois", 5, "ParseError"),
            (
                "mu",
                {
                    "sig": {"ops": [{"name": "z", "arity": 0}]},
                    "carrier": ["p"],
                    "structure": {"p": 5},
                },
                "ParseError",
            ),
            # nested entries of the wrong JSON type
            (
                "mu",
                {"sig": {"ops": [{"name": "z", "arity": 0}]}, "carrier": ["p"], "structure": [1]},
                "ParseError",
            ),
            ("mu", {"sig": {"ops": 5}, "carrier": [], "structure": {}}, "ParseError"),
            (
                "mu",
                {"sig": {"ops": [{"name": ["z"], "arity": 0}]}, "carrier": [], "structure": {}},
                "ParseError",
            ),
            (
                "nu",
                {"sig": {"ops": [{"name": "z", "arity": 0}]}, "carrier": ["a"], "structure": 5},
                "ParseError",
            ),
            (
                "rel-coincidence",
                {
                    "functor": {"kind": "table", "objects": 5, "relations": []},
                    "coalgebra": {"source": [], "target": [], "pairs": []},
                },
                "ParseError",
            ),
            # a boolean is not an arity
            (
                "mu",
                {
                    "sig": {"ops": [{"name": "s", "arity": True}]},
                    "carrier": ["p"],
                    "structure": {"p": {"op": "s", "args": ["p"]}},
                },
                "ParseError",
            ),
            # arities past the bound, and a wide operation missing from an
            # algebra table, exit at once instead of enumerating F(A)
            (
                "mu",
                {"sig": {"ops": [{"name": "w", "arity": 10**12}]}, "carrier": [], "structure": {}},
                "ParseError",
            ),
            (
                "nu",
                {
                    "sig": {"ops": [{"name": "z", "arity": 0}, {"name": "w", "arity": 40}]},
                    "carrier": ["a", "b"],
                    "structure": [{"op": "z", "args": [], "value": "a"}],
                },
                "FixcatError",
            ),
            # a carrier element listed twice, and a second algebra entry for
            # s(0), which would silently replace the first
            (
                "mu",
                {
                    "sig": {"ops": [{"name": "z", "arity": 0}]},
                    "carrier": ["p", "p"],
                    "structure": {"p": {"op": "z", "args": []}},
                },
                "ParseError: coalgebra.carrier: ",
            ),
            (
                "nu",
                {
                    "sig": {"ops": [{"name": "z", "arity": 0}]},
                    "carrier": ["0", "1", "0"],
                    "structure": [{"op": "z", "args": [], "value": "0"}],
                },
                "ParseError: algebra.carrier: ",
            ),
            (
                "nu",
                {
                    "sig": {"ops": [{"name": "z", "arity": 0}, {"name": "s", "arity": 1}]},
                    "carrier": ["0", "1"],
                    "structure": [
                        {"op": "z", "args": [], "value": "0"},
                        {"op": "s", "args": ["0"], "value": "1"},
                        {"op": "s", "args": ["1"], "value": "0"},
                        {"op": "s", "args": ["0"], "value": "0"},
                    ],
                },
                "ParseError: algebra.structure[3]: ",
            ),
            # a key given twice in one JSON object (written as raw text, which
            # json.dumps cannot produce), which would keep only its last value
            (
                "trace",
                '{"sig": {"ops": [{"name": "z", "arity": 0}, {"name": "s", "arity": 1}]},'
                ' "carrier": ["p"],'
                ' "structure": {"p": {"op": "z", "args": []}, "p": {"op": "s", "args": ["p"]}}}',
                "ParseError: <input>: key 'p' is given twice",
            ),
            (
                "lattice-fixpoints",
                '{"elements": ["a", "b"], "leq": [["a", "a"], ["a", "b"], ["b", "b"]],'
                ' "map": {"a": "a", "b": "b", "a": "b"}}',
                "ParseError: <input>: key 'a' is given twice",
            ),
            # a relation object listing an element twice, also as values
            # Python treats as equal (1, 1.0, true)
            (
                "rel-coincidence",
                {
                    "functor": {"kind": "identity"},
                    "coalgebra": {
                        "source": [1, True, "a", "a"],
                        "target": [1, True, "a", "a"],
                        "pairs": [[True, 1]],
                    },
                },
                "ParseError: relation.source: ",
            ),
            (
                "rel-coincidence",
                {
                    "functor": {"kind": "identity"},
                    "coalgebra": {"source": ["a"], "target": ["a", "a"], "pairs": []},
                },
                "ParseError: relation.target: ",
            ),
            (
                "rel-coincidence",
                {
                    "functor": {"kind": "constant", "constant": [1, 1.0]},
                    "coalgebra": {"source": ["x"], "target": [1], "pairs": []},
                },
                "ParseError: functor.constant: ",
            ),
            (
                "rel-coincidence",
                {
                    "functor": {"kind": "pad", "constant": [0, False]},
                    "coalgebra": {"source": ["x"], "target": ["x"], "pairs": []},
                },
                "ParseError: functor.constant: ",
            ),
            (
                "rel-coincidence",
                {
                    "functor": {
                        "kind": "table",
                        "objects": [{"object": ["x", "x"], "image": ["x"]}],
                        "relations": [],
                    },
                    "coalgebra": {"source": ["x"], "target": ["x"], "pairs": []},
                },
                "ParseError: functor.objects[0].object: ",
            ),
            # a table functor with two entries for one object or one relation,
            # which would silently keep the second
            (
                "rel-coincidence",
                {
                    "functor": {
                        "kind": "table",
                        "objects": [
                            {"object": ["x0"], "image": ["x0"]},
                            {"object": ["x0"], "image": []},
                        ],
                        "relations": [],
                    },
                    "coalgebra": {"source": ["x0"], "target": ["x0"], "pairs": []},
                },
                "ParseError: functor.objects[1]: ",
            ),
            (
                "rel-coincidence",
                {
                    "functor": {
                        "kind": "table",
                        "objects": [{"object": ["x0"], "image": ["x0"]}],
                        "relations": [
                            {
                                "source": ["x0"],
                                "target": ["x0"],
                                "pairs": [],
                                "image": {
                                    "source": ["x0"],
                                    "target": ["x0"],
                                    "pairs": [["x0", "x0"]],
                                },
                            },
                            {
                                "source": ["x0"],
                                "target": ["x0"],
                                "pairs": [["x0", "x0"]],
                                "image": {
                                    "source": ["x0"],
                                    "target": ["x0"],
                                    "pairs": [["x0", "x0"]],
                                },
                            },
                            {
                                "source": ["x0"],
                                "target": ["x0"],
                                "pairs": [],
                                "image": {"source": ["x0"], "target": ["x0"], "pairs": []},
                            },
                        ],
                    },
                    "coalgebra": {"source": ["x0"], "target": ["x0"], "pairs": []},
                },
                "ParseError: functor.relations[2]: ",
            ),
            # a structure key, a leaf, an algebra argument or an algebra value
            # outside the carrier: `specs` leaves these to Coalgebra and Algebra
            (
                "mu",
                {
                    "sig": {"ops": [{"name": "z", "arity": 0}]},
                    "carrier": ["p"],
                    "structure": {"p": {"op": "z", "args": []}, "q": {"op": "z", "args": []}},
                },
                "FixcatError: structure names 'q' outside the carrier",
            ),
            (
                "mu",
                {
                    "sig": {"ops": [{"name": "s", "arity": 1}]},
                    "carrier": ["p"],
                    "structure": {"p": {"op": "s", "args": ["r"]}},
                },
                "FixcatError: structure at 'p' uses unknown 'r'",
            ),
            (
                "nu",
                {
                    "sig": {"ops": [{"name": "z", "arity": 0}, {"name": "s", "arity": 1}]},
                    "carrier": ["0", "1"],
                    "structure": [
                        {"op": "z", "args": [], "value": "0"},
                        {"op": "s", "args": ["0"], "value": "1"},
                        {"op": "s", "args": ["1"], "value": "0"},
                        {"op": "s", "args": ["2"], "value": "0"},
                    ],
                },
                "FixcatError: structure entry s(2) leaves the carrier",
            ),
            (
                "nu",
                {
                    "sig": {"ops": [{"name": "z", "arity": 0}, {"name": "s", "arity": 1}]},
                    "carrier": ["0", "1"],
                    "structure": [
                        {"op": "z", "args": [], "value": "0"},
                        {"op": "s", "args": ["0"], "value": "1"},
                        {"op": "s", "args": ["1"], "value": "2"},
                    ],
                },
                "FixcatError: structure entry s(1) has value '2' outside the carrier",
            ),
            # a map entry for a non-element, in a map that is otherwise total
            (
                "lattice-fixpoints",
                {"elements": ["a"], "leq": [["a", "a"]], "map": {"a": "a", "bogus": "a"}},
                "LatticeError: map names 'bogus' outside the lattice",
            ),
        ],
    )
    def test_malformed_spec_exits_two(self, tmp_path, command, spec, error):
        path = tmp_path / "bad.json"
        path.write_text(spec if isinstance(spec, str) else json.dumps(spec))
        proc = run_cli(command, str(path))
        assert proc.returncode == 2
        assert f"error: {error}" in proc.stderr
        assert "Traceback" not in proc.stderr and proc.stdout == ""

    def test_fixed_is_intersection_is_computed(self, monkeypatch, capsys):
        # a classification that drops a fixpoint must fail the check
        real = cli.lat.classify_points

        def drop_last_fixed(f):
            report = real(f)
            report.fixed = report.fixed[:-1]
            return report

        monkeypatch.setattr(cli.lat, "classify_points", drop_last_fixed)
        code = cli.main(["lattice-fixpoints", str(SPECS / "chain_lattice.json")])
        report = json.loads(capsys.readouterr().out)
        assert code == 1 and report["passed"] is False
        # the witness is the list of points f fixes, which the report's
        # "fixed" should have been
        assert report["fixed"] == ["0", "2"]
        assert report["checks"] == [
            {
                "name": "fixed-is-intersection",
                "passed": False,
                "witness": {"fixed_points": ["0", "2", "4"]},
            }
        ]

    def test_memory_error_exits_two(self, monkeypatch, capsys):
        # a real memory limit is too slow and too host-dependent for this suite
        def exhausted(*args):
            raise MemoryError("no room for level 300")

        monkeypatch.setattr(cli.fixcat, "nu_approx", exhausted)
        code = cli.main(["nu", str(SPECS / "parity_algebra.json")])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == "error: MemoryError: no room for level 300\n"

    def test_check_failure_exits_one(self, tmp_path):
        # a non-functorial table makes the coincidence law checks fail
        spec = {
            "functor": {
                "kind": "table",
                "objects": [
                    {"object": ["x0"], "image": ["x0"]},
                ],
                "relations": [
                    {
                        "source": ["x0"],
                        "target": ["x0"],
                        "pairs": [],
                        "image": {
                            "source": ["x0"],
                            "target": ["x0"],
                            "pairs": [["x0", "x0"]],
                        },
                    },
                    {
                        "source": ["x0"],
                        "target": ["x0"],
                        "pairs": [["x0", "x0"]],
                        "image": {
                            "source": ["x0"],
                            "target": ["x0"],
                            "pairs": [],
                        },
                    },
                ],
            },
            "coalgebra": {"source": ["x0"], "target": ["x0"], "pairs": []},
        }
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(spec))
        proc = run_cli("rel-coincidence", str(path), "--bound", "3")
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["passed"] is False


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("lattice-galois", str(SPECS / "chain_lattice.json")),
            ("mu", str(SPECS / "loop_coalgebra.json"), "--max-rank", "4"),
            (
                "adjunction",
                str(SPECS / "stopped_coalgebra.json"),
                str(SPECS / "parity_algebra.json"),
            ),
            ("rel-dagger", "--seed", "5", "--samples", "50"),
            ("rel-coincidence", str(SPECS / "constant_coincidence.json")),
            ("trace", str(SPECS / "loop_coalgebra.json"), "--depth", "4"),
        ],
    )
    def test_repeat_runs_are_byte_identical(self, argv):
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout.strip().startswith("{")


    @pytest.mark.parametrize(
        "leq,law",
        [
            # a <= b <= c and a <= x <= y, with (a, c) and (a, y) missing
            (
                [["a", "b"], ["b", "c"], ["a", "x"], ["x", "y"]],
                "transitivity fails at ('a', 'c')",
            ),
            # two pairs of mutually related elements
            (
                [["a", "b"], ["b", "a"], ["x", "y"], ["y", "x"]],
                "antisymmetry fails at ('a', 'b')",
            ),
        ],
    )
    def test_violation_witness_ignores_hash_seed(self, tmp_path, leq, law):
        elements = ["a", "b", "c", "x", "y"]
        spec = {
            "elements": elements,
            "leq": [[e, e] for e in elements] + leq,
            "map": {e: e for e in elements},
        }
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(spec))
        runs = [
            subprocess.run(
                [sys.executable, "-m", "midfix.cli", "lattice-galois", str(path)],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONHASHSEED": seed},
            )
            for seed in ("0", "1")
        ]
        assert [r.returncode for r in runs] == [2, 2]
        assert runs[0].stderr == runs[1].stderr
        assert law in runs[0].stderr


class TestDot:
    def test_lattice_hasse(self):
        proc = run_cli(
            "lattice-fixpoints", str(SPECS / "chain_lattice.json"), "--format", "dot"
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("digraph")
        assert proc.stdout.count("->") == 4  # covering edges of the 5-chain

    def test_lattice_names_are_escaped(self, tmp_path):
        quote, backslash = 'a"b', "c\\"
        spec = {
            "elements": [quote, backslash],
            "leq": [[quote, quote], [quote, backslash], [backslash, backslash]],
            "map": {quote: quote, backslash: backslash},
        }
        path = tmp_path / "names.json"
        path.write_text(json.dumps(spec))
        proc = run_cli("lattice-fixpoints", str(path), "--format", "dot")
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == [
            "digraph hasse {",
            r'  "a\"b";',
            r'  "c\\";',
            r'  "a\"b" -> "c\\";',
            "}",
        ]

    def test_mu_chain_diagram(self):
        proc = run_cli(
            "mu", str(SPECS / "loop_coalgebra.json"), "--max-rank", "2", "--format", "dot"
        )
        assert '|F^0| = 1' in proc.stdout
        assert '"b"' in proc.stdout and '"F^1(b)"' in proc.stdout

    def test_single_stage_diagram_has_no_edges(self):
        proc = run_cli(
            "mu", str(SPECS / "loop_coalgebra.json"), "--max-rank", "0", "--format", "dot"
        )
        assert "->" not in proc.stdout


class TestStdin:
    def test_stdin_input(self):
        payload = (SPECS / "chain_lattice.json").read_text()
        proc = subprocess.run(
            [sys.executable, "-m", "midfix.cli", "lattice-galois", "--stdin"],
            input=payload,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0


class TestStartUp:
    def test_cli_import_loads_no_dataclasses_or_typing(self):
        # every command pays this import: dataclasses brings inspect, ast, dis
        # and tokenize, and -S keeps typing out unless midfix imports it
        code = (
            "import sys; before = set(sys.modules); import midfix.cli; "
            "print(*sorted(set(sys.modules) - before))"
        )
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code],
            env=dict(os.environ, PYTHONPATH=str(SPECS.parent / "src")),
            capture_output=True,
            text=True,
            check=True,
        )
        added = set(proc.stdout.split())
        assert "midfix.cli" in added
        assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing"}


class TestReportShape:
    def test_exit_zero_iff_no_failed_checks(self):
        proc = run_cli("adjunction", str(SPECS / "loop_coalgebra.json"), str(SPECS / "parity_algebra.json"))
        report = json.loads(proc.stdout)
        failed = [c for c in report["checks"] if not c["passed"]]
        assert (proc.returncode == 0) == (not failed)

    def test_text_format(self):
        proc = run_cli(
            "lattice-galois", str(SPECS / "chain_lattice.json"), "--format", "text"
        )
        assert "[PASS] galois-biconditional" in proc.stdout


class TestParserReuse:
    def test_valid_call_after_rejected_call_prints_golden_report(self, capsys):
        # the parser is built once per process; a call argparse rejects
        # must not leave state behind for the next call
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["mu", "--max-rank", "-1"])
        assert exit_info.value.code == 2
        capsys.readouterr()
        assert cli.main(["mu", str(SPECS / "loop_coalgebra.json"), "--max-rank", "4"]) == 0
        golden = Path(__file__).resolve().parent / "golden" / "mu.json"
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")
        assert cli.build_parser() is cli.build_parser()


# Every spec-reading command, with the spec path as "{}" and small bounds.
LOOP, PARITY = str(SPECS / "loop_coalgebra.json"), str(SPECS / "parity_algebra.json")
SMALL = ["--max-rank", "2", "--depth", "2", "--cap", "2000"]
FUZZ_COMMANDS = {
    "lattice": [["lattice-fixpoints", "{}"], ["lattice-galois", "{}"]],
    "coalgebra": [
        ["mu", "{}", "--max-rank", "2", "--cap", "2000"],
        ["trace", "{}", "--depth", "3"],
        ["adjunction", "{}", PARITY, *SMALL],
    ],
    "algebra": [["nu", "{}", "--depth", "2", "--cap", "2000"], ["adjunction", LOOP, "{}", *SMALL]],
    "relation": [["rel-dagger", "{}", "--size", "1", "--samples", "2"]],
    "coincidence": [["rel-coincidence", "{}", "--bound", "3"]],
}
SAMPLE_KINDS = {
    "chain_lattice.json": "lattice",
    "cube_lattice.json": "lattice",
    "loop_coalgebra.json": "coalgebra",
    "stopped_coalgebra.json": "coalgebra",
    "tree_coalgebra.json": "coalgebra",
    "parity_algebra.json": "algebra",
    "relation.json": "relation",
    "constant_coincidence.json": "coincidence",
}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)


def _paths(value, prefix=()):
    """The path of every node of a JSON value, the root included."""
    yield prefix
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated_samples(draw):
    """A sample spec with one node replaced by a random JSON value or removed."""
    name = draw(st.sampled_from(sorted(SAMPLE_KINDS)))
    spec = json.loads((SPECS / name).read_text())
    path = draw(st.sampled_from(list(_paths(spec))))
    value = draw(st.none() | json_values) if path else draw(json_values)
    if path:
        spec = copy.deepcopy(spec)
        parent = spec
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            parent[path[-1]] = value
        else:
            del parent[path[-1]]
    return SAMPLE_KINDS[name], spec


@pytest.fixture(scope="module")
def spec_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "spec.json"


def _exit_code(argv) -> int:
    """cli.main's exit code; output is swallowed, exceptions are not."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _run_all(spec_path, spec, kinds):
    spec_path.write_text(json.dumps(spec))
    for kind in kinds:
        for template in FUZZ_COMMANDS[kind]:
            argv = [str(spec_path) if arg == "{}" else arg for arg in template]
            assert _exit_code(argv) in (0, 1, 2), argv


class TestFuzz:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(spec=json_values)
    def test_random_json_exits_0_1_or_2(self, spec_path, spec):
        _run_all(spec_path, spec, FUZZ_COMMANDS)

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(sample=mutated_samples())
    def test_mutated_sample_specs_exit_0_1_or_2(self, spec_path, sample):
        kind, spec = sample
        _run_all(spec_path, spec, [kind])
