"""Command-line front end: parse spec files, run checks, emit reports.

Exit codes: 0 when every check in the emitted report passed, 1 when any
check failed (the report is still emitted), 2 on input or cap errors.
Reports are deterministic for a fixed seed; JSON is emitted with sorted
keys so identical runs are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import random
import sys
from collections.abc import Callable
from json.encoder import encode_basestring_ascii

from . import dagger, fixcat, lattice as lat, specs
from .checks import verdict
from .signature import (
    DEFAULT_TERM_CAP, CapExceeded, Signature, SignatureError, _render, count_rank,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2

# the most composable pairs rel-dagger's exhaustive part may check (349,691 at size 3)
MAX_DAGGER_PAIRS = 1_000_000

# a chain DOT label holds a stage size only while int-to-str can print it
DOT_MAX_DIGITS = 4300
_DOT_SIZE_LIMIT = 10**DOT_MAX_DIGITS


class StageTooLarge(ValueError):
    """A stage size of the chain DOT has too many digits to print."""


def _read_spec(args) -> dict:
    if args.stdin:
        return specs.load_json(sys.stdin.read())
    if args.path is None:
        raise specs.ParseError("<input>", "give a spec file path or --stdin")
    return _read_path(args.path)


def _read_path(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return specs.load_json(handle.read())


# -- DOT emission --------------------------------------------------------------


def _dot_id(x) -> str:
    """x as a quoted DOT identifier, its backslashes and quotes escaped."""
    return '"' + str(x).replace("\\", "\\\\").replace('"', '\\"') + '"'


def emit_lattice_dot(lattice: lat.FinLattice) -> str:
    lines = ["digraph hasse {"]
    for x in lattice.elements:
        lines.append(f"  {_dot_id(x)};")
    for x, y in sorted(lattice.covers(), key=str):
        lines.append(f"  {_dot_id(x)} -> {_dot_id(y)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def chain_sizes(sig: Signature, generators: int, stages: int) -> list[int]:
    """|F^k(X)| for k <= stages, each stage counted from the one before."""
    sizes = [generators]
    while len(sizes) <= stages:
        size = count_rank(sig, sizes[-1], 1)
        if size >= _DOT_SIZE_LIMIT:
            raise StageTooLarge(f"|F^{len(sizes)}| has more than {DOT_MAX_DIGITS} digits")
        sizes.append(size)
    return sizes


def emit_chain_dot(stage_sizes: list[int], connector_base: str) -> str:
    """A chain diagram: nodes are stages with cardinalities, edges b, Fb, F^2b..."""
    lines = ["digraph chain {", "  rankdir=LR;"]
    for k, size in enumerate(stage_sizes):
        lines.append(f'  s{k} [label="|F^{k}| = {size}"];')
    for k in range(len(stage_sizes) - 1):
        label = connector_base if k == 0 else f"F^{k}({connector_base})"
        lines.append(f'  s{k} -> s{k + 1} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- JSON emission -------------------------------------------------------------
#
# json.dumps with indent runs the pure-Python encoder.  The C encoder, with
# ensure_ascii, writes a raw newline only inside a separator, so one whose
# item separator is "," plus a newline and an indent prints a container of
# scalars in the indent=2 layout, save the newlines at its two brackets.


@functools.cache
def _encoder(level: int) -> json.JSONEncoder:
    """The C encoder that starts each item of a container on a new line,
    `level` indents deep."""
    return json.JSONEncoder(sort_keys=True, default=repr, separators=(",\n" + "  " * level, ": "))


_CONTAINERS = (list, tuple, dict)


def _nested(value) -> bool:
    """A non-empty list, tuple or dict: the values that span lines.  An empty
    one prints as [] or {}, with or without an indent."""
    return isinstance(value, _CONTAINERS) and len(value) > 0


def _all_flat(values) -> bool:
    """No value spans lines.  Each type is looked at once, and only values of
    a container type one by one."""
    types = set(map(type, values))
    return not any(issubclass(t, _CONTAINERS) for t in types) or not any(map(_nested, values))


def _scalar(value) -> str:
    """A value that does not span lines, as the encoders write it; the common
    ones without the cost of setting up an encoder."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    return _encoder(0).encode(value)


def _key(key) -> str:
    """A dict key as the encoders write it: a str as a string, a number, bool
    or None as the string of its JSON text, anything else a TypeError."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    return _encoder(0).encode({key: 0})[1:-4]


def emit_json(report) -> str:
    """The bytes of json.dumps(report, sort_keys=True, indent=2, default=repr)."""
    out: list[str] = []
    _emit_json(report, 0, out)
    return "".join(out)


def _emit_json(obj, level: int, out: list[str]) -> None:
    """Append obj's text, starting `level` indents deep, to out.  Long texts
    are copied as few times as may be, since every copy is a large allocation."""
    if not _nested(obj):
        out.append(_scalar(obj))
        return
    is_dict = isinstance(obj, dict)
    inner, outer = "\n" + "  " * (level + 1), "\n" + "  " * level
    if _all_flat(obj.values() if is_dict else obj):
        text = _encoder(level + 1).encode(obj)
        out += (text[0], inner, text[1:-1], outer, text[-1])
        return
    if (
        not is_dict
        and all(issubclass(t, dict) for t in set(map(type, obj)))
        and all(obj)
        and _all_flat(list(itertools.chain.from_iterable(map(dict.values, obj))))
    ):
        # items printed at their members' depth: between two items the
        # separator is the only thing between "}" and "{", since inside an
        # item a separator is followed by a key
        deep = "\n" + "  " * (level + 2)
        text = _encoder(level + 2).encode(obj)
        text = text.replace("}," + deep + "{", inner + "}," + inner + "{" + deep)
        out += ("[", inner, "{", deep, text[2:-2], inner, "}", outer, "]")
        return
    # a container that holds containers: a few per report, walked here
    out.append("{" if is_dict else "[")
    for key, value in sorted(obj.items()) if is_dict else zip(itertools.repeat(None), obj):
        out.append(inner)
        if is_dict:
            out += (_key(key), ": ")
        if _nested(value):
            _emit_json(value, level + 1, out)
        else:
            out.append(_scalar(value))
        out.append(",")
    out[-1] = outer
    out.append("}" if is_dict else "]")


# -- commands ------------------------------------------------------------------
#
# A command returns its report and a function that renders its DOT, called
# only for --format dot.


def cmd_lattice_fixpoints(args) -> tuple[dict, Callable[[], str]]:
    lattice, f = specs.parse_lattice(_read_spec(args))
    if f is None:
        raise specs.ParseError("lattice", "this command needs a 'map' entry")
    report = lat.classify_points(f)
    mu_table = {x: lat.mu_lattice(f, x) for x in report.pre_fixed}
    nu_table = {y: lat.nu_lattice(f, y) for y in report.post_fixed}
    fixed = [x for x in lattice.elements if f(x) == x]
    misclassified = None if fixed == list(report.fixed) else {"fixed_points": fixed}
    out = {
        "command": "lattice-fixpoints",
        "pre_fixed": list(report.pre_fixed),
        "post_fixed": list(report.post_fixed),
        "fixed": list(report.fixed),
        "mu": mu_table,
        "nu": nu_table,
        **verdict({"fixed-is-intersection": misclassified}),
    }
    return out, lambda: emit_lattice_dot(lattice)


def cmd_lattice_galois(args) -> tuple[dict, Callable[[], str]]:
    lattice, f = specs.parse_lattice(_read_spec(args))
    if f is None:
        raise specs.ParseError("lattice", "this command needs a 'map' entry")
    report = lat.galois_check(f)
    violations = [list(v) for v in report.violations]
    out = {
        "command": "lattice-galois",
        "pairs_checked": len(report.pre_fixed) * len(report.post_fixed),
        "mu": report.mu_table,
        "nu": report.nu_table,
        "violations": violations,
        **verdict({"galois-biconditional": violations[0] if violations else None}),
    }
    return out, lambda: emit_lattice_dot(lattice)


def cmd_mu(args) -> tuple[dict, Callable[[], str]]:
    b = specs.parse_coalgebra(_read_spec(args))
    classes = fixcat.mu_enumerate(b, args.max_rank, args.cap)
    texts: dict = {}  # node id -> rendering, so shared subtrees render once
    out = {
        "command": "mu",
        "max_rank": args.max_rank,
        "class_count": len(classes),
        "classes": [
            {"rank": e.rank, "representative": e.nodes.render(e.node, texts)} for e in classes
        ],
        **verdict({}),  # a cap overrun exits 2 instead
    }
    return out, lambda: emit_chain_dot(chain_sizes(b.sig, len(b.carrier), args.max_rank), "b")


def cmd_nu(args) -> tuple[dict, Callable[[], str]]:
    a = specs.parse_algebra(_read_spec(args))
    approx = fixcat.nu_approx(a, args.depth, args.cap)
    out = {
        "command": "nu",
        "depth": args.depth,
        "level_sizes": approx.level_sizes(),
        **verdict({}),  # the levels are enumerated; a cap overrun exits 2 instead
    }
    return out, lambda: emit_chain_dot(approx.level_sizes(), "a")


def cmd_adjunction(args) -> tuple[dict, Callable[[], str]]:
    b = specs.parse_coalgebra(_read_path(args.coalgebra))
    a = specs.parse_algebra(_read_path(args.algebra))
    report = fixcat.adjunction_check(b, a, args.depth, args.max_rank, args.cap)
    report["command"] = "adjunction"
    if report["hom_count"] == 0:
        report["note_bijection"] = "both induced families are empty; bijection holds vacuously"
    return report, lambda: emit_chain_dot(
        chain_sizes(b.sig, len(b.carrier), args.max_rank), "b"
    )


def cmd_trace(args) -> tuple[dict, Callable[[], str]]:
    b = specs.parse_coalgebra(_read_spec(args))
    elements = [args.element] if args.element is not None else list(b.carrier)
    for x in elements:
        if x not in b.carrier:
            raise specs.ParseError("trace", f"unknown carrier element {x!r}")
    # every trace is a column of the cone of the one hom into the one-element
    # algebra, which sends each generator to "*" (the pivot square into that
    # algebra always holds); the components as text, stage by stage
    texts = dict.fromkeys(b.carrier, "*")
    traces = {x: [texts[x]] for x in elements}
    for _ in range(args.depth):
        texts = fixcat.next_stage(b, texts, _render)
        for x in elements:
            traces[x].append(texts[x])
    out = {
        "command": "trace",
        "depth": args.depth,
        "traces": traces,
        **verdict({}),
    }
    return out, lambda: emit_chain_dot(chain_sizes(b.sig, 1, args.depth), "b")


def cmd_rel_dagger(args) -> tuple[dict, Callable[[], str]]:
    # every composable pair (r, s) is checked: through a middle object of
    # size m go sum over k of 2^(k*m) relations in and as many out.  Counted
    # size by size, a huge --size is refused as fast as --size 4
    cap = MAX_DAGGER_PAIRS
    for size in range(args.size + 1):
        pairs = sum(sum(2 ** (k * m) for k in range(size + 1)) ** 2 for m in range(size + 1))
        if pairs > cap:
            message = f"objects up to size {size} give {pairs} composable pairs, cap is {cap}"
            raise CapExceeded(size, pairs, cap, message)
    rng = random.Random(args.seed)
    objects = [tuple(f"u{i}" for i in range(n)) for n in range(args.size + 1)]
    sample = [
        r
        for src in objects
        for tgt in objects
        for r in dagger.all_relations(src, tgt)
    ]
    for path in args.paths:
        sample.append(specs.parse_relation(_read_path(path)))
    for _ in range(args.samples):
        src = dagger.random_object(rng, "x", 4)
        tgt = dagger.random_object(rng, "y", 4)
        sample.append(dagger.random_relation(rng, src, tgt))
    report = dagger.dagger_laws_check(objects, sample)
    report.update(
        {
            "command": "rel-dagger",
            "exhaustive_size": args.size,
            "sample_size": len(sample),
            "seed": args.seed,
        }
    )
    return report, lambda: ""


def cmd_rel_coincidence(args) -> tuple[dict, Callable[[], str]]:
    obj = _read_spec(args)
    functor = specs.parse_functor(specs._require(obj, "functor", "rel-coincidence"))
    c = specs.parse_relation(specs._require(obj, "coalgebra", "rel-coincidence"))
    report = dagger.coincidence_check(functor, c, args.bound)
    report["command"] = "rel-coincidence"
    return report, lambda: emit_chain_dot(
        [len(o) for o in dagger.mu_chain(functor, c, min(args.bound, 6)).objects], "c"
    )


# -- driver --------------------------------------------------------------------


def _count(text: str) -> int:
    """argparse type of the size and depth options: an int >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="midfix",
        description="Middle fixpoints on lattices, the coalgebra-algebra "
        "adjunction for polynomial functors, and the dagger coincidence "
        "on finite relations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=["text", "json", "dot"], default="json")
        p.add_argument("path", nargs="?", help="spec file (JSON)")
        p.add_argument("--stdin", action="store_true", help="read the spec from stdin")

    p = sub.add_parser("lattice-fixpoints", help="classify pre/post/fixed points")
    common(p)
    p.set_defaults(handler=cmd_lattice_fixpoints)

    p = sub.add_parser("lattice-galois", help="verify the mu/nu Galois connection")
    common(p)
    p.set_defaults(handler=cmd_lattice_galois)

    p = sub.add_parser("mu", help="enumerate colimit classes of a coalgebra")
    common(p)
    p.add_argument("--max-rank", type=_count, default=fixcat.DEFAULT_MAX_RANK)
    p.add_argument("--cap", type=_count, default=DEFAULT_TERM_CAP)
    p.set_defaults(handler=cmd_mu)

    p = sub.add_parser("nu", help="depth-bounded limit stages of an algebra")
    common(p)
    p.add_argument("--depth", type=_count, default=fixcat.DEFAULT_DEPTH)
    p.add_argument("--cap", type=_count, default=DEFAULT_TERM_CAP)
    p.set_defaults(handler=cmd_nu)

    p = sub.add_parser("adjunction", help="verify the hom-set correspondence")
    p.add_argument("coalgebra", help="coalgebra spec file")
    p.add_argument("algebra", help="algebra spec file")
    p.add_argument("--format", choices=["text", "json", "dot"], default="json")
    p.add_argument("--depth", type=_count, default=5)
    p.add_argument("--max-rank", type=_count, default=5)
    p.add_argument("--cap", type=_count, default=DEFAULT_TERM_CAP)
    p.set_defaults(handler=cmd_adjunction)

    p = sub.add_parser("trace", help="infinite-trace stream of a generator")
    common(p)
    p.add_argument("--element", default=None)
    p.add_argument("--depth", type=_count, default=fixcat.DEFAULT_DEPTH)
    p.set_defaults(handler=cmd_trace)

    p = sub.add_parser("rel-dagger", help="verify the dagger-category laws")
    p.add_argument("paths", nargs="*", help="extra relation spec files")
    p.add_argument("--format", choices=["text", "json", "dot"], default="json")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", type=_count, default=2, help="exhaustive check up to this size")
    p.add_argument("--samples", type=_count, default=100, help="extra random relations")
    p.set_defaults(handler=cmd_rel_dagger)

    p = sub.add_parser("rel-coincidence", help="verify the dagger coincidence chains")
    common(p)
    p.add_argument("--bound", type=_count, default=dagger.DEFAULT_CHAIN_BOUND)
    p.set_defaults(handler=cmd_rel_coincidence)

    return parser


def _render_text(report: dict, out) -> None:
    for key, value in report.items():
        if key == "checks":
            continue
        print(f"{key}: {value}", file=out)
    for check in report.get("checks", []):
        status = "PASS" if check["passed"] else "FAIL"
        witness = f"  witness={check.get('witness')!r}" if not check["passed"] else ""
        print(f"[{status}] {check['name']}{witness}", file=out)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report, dot = args.handler(args)
        if args.format == "dot":
            sys.stdout.write(dot())
    except (
        specs.ParseError,
        CapExceeded,
        SignatureError,
        lat.LatticeError,
        fixcat.FixcatError,
        dagger.RelError,
        OSError,
        RecursionError,
        MemoryError,
        StageTooLarge,
    ) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if args.format == "json":
        print(emit_json(report))
    elif args.format == "text":
        _render_text(report, sys.stdout)
    return EXIT_OK if report.get("passed", True) else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
