"""The report writer against its oracle: `cli.emit_json(report)` must give the
bytes of `json.dumps(report, sort_keys=True, indent=2, default=repr)`, the
call the CLI made before it wrote through the C encoder."""

import contextlib
import io
import json
import math
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from midfix import cli

SPECS = Path(__file__).resolve().parent.parent / "sample_specs"


def oracle(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, default=repr)


class Opaque:
    """A value json cannot encode, so both writers print its repr."""

    def __init__(self, text):
        self.text = text

    def __repr__(self):
        return f"Opaque({self.text!r})"


class Count(int):
    """An int that prints otherwise; both encoders write int.__repr__."""

    def __repr__(self):
        return "Count"

    __str__ = __repr__


# text that looks like the writer's own separators and item boundaries, or
# that json escapes
TRICKY = [
    "},\n  {", "},\n      {", "],\n    [", ",\n  ", '": ', '"', "\\", "\x00\x1f\x7f", "\t\n", "é", "☃",
    "\U0001f600",
]
texts = st.one_of(st.text(max_size=6), st.lists(st.sampled_from(TRICKY), min_size=1, max_size=3).map("".join))
floats = st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0]))
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers().map(Count), floats, texts, texts.map(Opaque),
    st.sampled_from([[], {}, ()]),
)


def containers(children):
    small = {"max_size": 4}
    return st.one_of(
        st.lists(children, **small),
        st.lists(children, **small).map(tuple),
        st.dictionaries(texts, children, **small),
        st.dictionaries(st.integers(), children, **small),
        st.dictionaries(floats, children, **small),
        st.dictionaries(st.booleans(), children, **small),
        st.dictionaries(st.none(), children, **small),
        # the shape of mu's classes and of every report's checks
        st.lists(st.dictionaries(texts, scalars, min_size=1, **small), min_size=1, **small),
    )


@settings(max_examples=150, deadline=None)
@given(st.recursive(scalars, containers, max_leaves=24))
@example({"checks": [{"name": "x},\n    {", "passed": True}, {"name": '"\\', "passed": False}]})
@example([{"a": {}}, {"a": [], "b": Opaque("},\n    {")}])
@example({1.5: [math.nan], math.inf: -0.0, -math.inf: [()], 2.0: {}})
@example({None: [[1], {"é": (2, 3)}]})
@example({Count(3): [Count(4)], Count(5): Count(6)})
def test_writer_equals_json_dumps(obj):
    assert cli.emit_json(obj) == oracle(obj)


def _stdout_and_report(argv: list) -> tuple[str, dict]:
    """What `midfix argv` prints, and the report its handler returns."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    args = cli.build_parser().parse_args(argv)
    report, _ = args.handler(args)
    return out.getvalue(), report


def test_mu_with_677_classes_prints_the_oracle_bytes(tmp_path):
    # {l:0, n:2}, p -> n(p, q), q -> l: 1 + 26^2 classes up to rank 3
    spec = {
        "sig": {"ops": [{"name": "l", "arity": 0}, {"name": "n", "arity": 2}]},
        "carrier": ["p", "q"],
        "structure": {"p": {"op": "n", "args": ["p", "q"]}, "q": {"op": "l", "args": []}},
    }
    path = tmp_path / "desk.json"
    path.write_text(json.dumps(spec))
    text, report = _stdout_and_report(["mu", str(path), "--max-rank", "3"])
    assert report["class_count"] == 677
    assert text == oracle(report) + "\n"


def test_deep_trace_prints_the_oracle_bytes():
    argv = ["trace", str(SPECS / "loop_coalgebra.json"), "--depth", "300"]
    text, report = _stdout_and_report(argv)
    assert len(report["traces"]["p"]) == 301
    assert text == oracle(report) + "\n"
