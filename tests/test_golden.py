"""Golden CLI reports: stdout and exit code must stay byte-identical.

Each case is a README command (plus eight more) run through `cli.main` from
the repository root in every output format.  The expected stdout of case
NAME in format FMT is `golden/NAME.FMT`; the exit codes are in
`golden/exit_codes.json`.  Unlike the determinism checks, which compare two
runs of one build, these files pin the reports across builds.

To rewrite the files from the current build (only from a build whose
reports are known to be right):

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from midfix import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
FORMATS = ("json", "text", "dot")

CASES = {
    "lattice-fixpoints": ["lattice-fixpoints", "sample_specs/chain_lattice.json"],
    "lattice-galois": ["lattice-galois", "sample_specs/chain_lattice.json"],
    "mu": ["mu", "sample_specs/loop_coalgebra.json", "--max-rank", "4"],
    "nu": ["nu", "sample_specs/parity_algebra.json", "--depth", "6"],
    "adjunction": [
        "adjunction",
        "sample_specs/stopped_coalgebra.json",
        "sample_specs/parity_algebra.json",
    ],
    "trace": ["trace", "sample_specs/loop_coalgebra.json", "--element", "p", "--depth", "5"],
    "rel-dagger": ["rel-dagger", "--seed", "17", "--samples", "100"],
    "rel-coincidence": ["rel-coincidence", "sample_specs/constant_coincidence.json"],
    "adjunction-loop": [
        "adjunction",
        "sample_specs/loop_coalgebra.json",
        "sample_specs/parity_algebra.json",
    ],
    "trace-stopped": ["trace", "sample_specs/stopped_coalgebra.json", "--depth", "7"],
    "lattice-fixpoints-cube": ["lattice-fixpoints", "sample_specs/cube_lattice.json"],
    "lattice-galois-cube": ["lattice-galois", "sample_specs/cube_lattice.json"],
    "mu-tree": ["mu", "sample_specs/tree_coalgebra.json", "--max-rank", "2"],
    "trace-tree": ["trace", "sample_specs/tree_coalgebra.json", "--depth", "4"],
    "nu-tree": ["nu", "sample_specs/tree_algebra.json", "--depth", "3"],
    "adjunction-tree": [
        "adjunction",
        "sample_specs/tree_coalgebra.json",
        "sample_specs/tree_algebra.json",
        "--max-rank",
        "2",
    ],
}


def run(argv: list) -> tuple[str, int]:
    """stdout and exit code of `cli.main(argv)`, run from the repository root."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    return out.getvalue(), code


def _ids():
    return [f"{name}.{fmt}" for name in CASES for fmt in FORMATS]


@pytest.mark.parametrize("case", _ids())
def test_report_matches_golden(case):
    name, fmt = case.rsplit(".", 1)
    stdout, code = run(CASES[name] + ["--format", fmt])
    expected_codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert code == expected_codes[case]
    assert stdout == (GOLDEN / case).read_text(encoding="utf-8")


def test_reordered_operations_give_the_golden_adjunction(tmp_path):
    # parity_algebra.json with its two ops listed in reverse presents the same
    # functor as stopped_coalgebra.json; it used to exit 2 with
    # "coalgebra and algebra signatures differ"
    spec = json.loads((ROOT / "sample_specs" / "parity_algebra.json").read_text())
    spec["sig"]["ops"].reverse()
    path = tmp_path / "parity_reversed.json"
    path.write_text(json.dumps(spec))
    stdout, code = run(["adjunction", "sample_specs/stopped_coalgebra.json", str(path)])
    assert code == 0
    assert stdout == (GOLDEN / "adjunction.json").read_text(encoding="utf-8")


def test_every_golden_file_has_a_case():
    on_disk = {p.name for p in GOLDEN.iterdir()} - {"exit_codes.json"}
    assert on_disk == set(_ids())


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for case in _ids():
        name, fmt = case.rsplit(".", 1)
        stdout, codes[case] = run(CASES[name] + ["--format", fmt])
        (GOLDEN / case).write_text(stdout, encoding="utf-8")
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")
