"""Per-layer time and counts for the traced run, taken from outside midfix.

The tracer replaces functions of the six midfix modules by wrappers at every
name a caller resolves them through: a module global bound by
``from .signature import unfold`` in fixcat is patched as well as
``signature.unfold``, and methods are patched on their class.  Two kinds of
boundary exist:

- a span times each call; its self time is its duration minus the time
  spent in spans it called (children add their duration to the parent's
  frame on a stack);
- a counter only counts calls, for boundaries hit millions of times
  (``Signature.arity``, ``FinLattice.le``), whose time stays in the caller.

Every public function of the six modules is a span unless listed below as a
counter, so self times do not swallow public callees.  Aggregates are kept
in memory per size class and read once the run ends.  A boundary that no
longer exists is reported as missing instead of failing the run.
"""

from __future__ import annotations

import inspect
from collections import defaultdict
from time import perf_counter

MODULES = ("cli", "specs", "signature", "fixcat", "lattice", "dagger")

# Boundaries whose group differs from "<module>.<name>", and the methods,
# which public-function discovery does not see.  "cli" and "specs" are each
# one layer: their public functions share one group.
SPANS = {
    "signature:Term.__post_init__": "signature.Term",
    "signature:unfold_once": "signature.unfold",
    "fixcat:NuPointStream.check_compatible": "fixcat.NuPointStream.check_compatible",
}
MODULE_GROUPS = {"cli": "cli.main", "specs": "specs.parse"}
COUNTERS = {
    "signature:Signature.arity": "signature.arity",
    "fixcat:Algebra.apply": "fixcat.Algebra.apply",
    "fixcat:collapse_bottom": "fixcat.collapse_bottom",
    "lattice:FinLattice.le": "lattice.FinLattice.le",
    "dagger:rel_dagger": "dagger.rel_dagger",
}


# Counts read off a span as it returns: group -> (count name, group whose
# calls during the span are passed on as `watched`, function of (args,
# result, watched) giving a numerator and a denominator).
HOOKS = {
    "signature.enumerate_rank": (
        "signature.enumerate_rank.terms", None,
        lambda args, result, watched: (len(result), 0)),
    # the relation holds both orders of each identified pair plus the diagonal
    "fixcat.colim_eq": (
        "fixcat.colim_eq.identified_pairs", None,
        lambda args, result, watched: ((len(result.rel) - len(args[0].carrier)) // 2, 0)),
    "fixcat.mu_enumerate": (
        "fixcat.mu_enumerate.classes", None,
        lambda args, result, watched: (len(result), 0)),
    # homs found over the |A|^|B| maps tried
    "fixcat.enumerate_coalg_to_alg": (
        "fixcat.enumerate_coalg_to_alg.homs_per_candidate", None,
        lambda args, result, watched: (len(result), len(args[1].carrier) ** len(args[0].carrier))),
    # rel_compose calls made inside, over the ordered sample pairs visited
    "dagger.dagger_laws_check": (
        "dagger.dagger_laws_check.composable_share", "dagger.rel_compose",
        lambda args, result, watched: (watched, len(args[1]) ** 2)),
}

# The reported per-layer metrics: name -> (unit, field, source).  A "self"
# or "calls" source is a group; a "sum" or "ratio" source is a hook count.
PER_LAYER = {
    "cli.main.self_s": ("s", "self", "cli.main"),
    "specs.parse.self_s": ("s", "self", "specs.parse"),
    "specs.parse.calls": ("count", "calls", "specs.parse"),
    "signature.Term.new.calls": ("count", "calls", "signature.Term"),
    "signature.Term.validate.self_s": ("s", "self", "signature.Term"),
    "signature.arity.calls": ("count", "calls", "signature.arity"),
    "signature.enumerate_rank.self_s": ("s", "self", "signature.enumerate_rank"),
    "signature.enumerate_rank.terms": ("count", "sum", "signature.enumerate_rank.terms"),
    "signature.unfold.self_s": ("s", "self", "signature.unfold"),
    "signature.unfold.calls": ("count", "calls", "signature.unfold"),
    "signature.map_leaves.self_s": ("s", "self", "signature.map_leaves"),
    "signature.term_to_str.self_s": ("s", "self", "signature.term_to_str"),
    "fixcat.induced_alg_hom.self_s": ("s", "self", "fixcat.induced_alg_hom"),
    "fixcat.induced_alg_hom.calls": ("count", "calls", "fixcat.induced_alg_hom"),
    "fixcat.mu_algebra_apply.self_s": ("s", "self", "fixcat.mu_algebra_apply"),
    "fixcat.mu_algebra_apply.calls": ("count", "calls", "fixcat.mu_algebra_apply"),
    "fixcat.Algebra.apply.calls": ("count", "calls", "fixcat.Algebra.apply"),
    "fixcat.adjunction_check.self_s": ("s", "self", "fixcat.adjunction_check"),
    "fixcat.enumerate_coalg_to_alg.self_s": ("s", "self", "fixcat.enumerate_coalg_to_alg"),
    "fixcat.enumerate_coalg_to_alg.homs_per_candidate": (
        "ratio", "ratio", "fixcat.enumerate_coalg_to_alg.homs_per_candidate"),
    "fixcat.colim_eq.self_s": ("s", "self", "fixcat.colim_eq"),
    "fixcat.colim_eq.identified_pairs": ("count", "sum", "fixcat.colim_eq.identified_pairs"),
    "fixcat.mu_enumerate.self_s": ("s", "self", "fixcat.mu_enumerate"),
    "fixcat.mu_enumerate.classes": ("count", "sum", "fixcat.mu_enumerate.classes"),
    "fixcat.nu_approx.self_s": ("s", "self", "fixcat.nu_approx"),
    "fixcat.collapse_bottom.calls": ("count", "calls", "fixcat.collapse_bottom"),
    "fixcat.NuPointStream.check_compatible.self_s": (
        "s", "self", "fixcat.NuPointStream.check_compatible"),
    "lattice.check_lattice.self_s": ("s", "self", "lattice.check_lattice"),
    "lattice.check_monotone.self_s": ("s", "self", "lattice.check_monotone"),
    "lattice.galois_check.self_s": ("s", "self", "lattice.galois_check"),
    "lattice.FinLattice.le.calls": ("count", "calls", "lattice.FinLattice.le"),
    "dagger.rel_compose.self_s": ("s", "self", "dagger.rel_compose"),
    "dagger.rel_compose.calls": ("count", "calls", "dagger.rel_compose"),
    "dagger.rel_dagger.calls": ("count", "calls", "dagger.rel_dagger"),
    "dagger.finrel.self_s": ("s", "self", "dagger.finrel"),
    "dagger.finrel.calls": ("count", "calls", "dagger.finrel"),
    "dagger.coincidence_check.self_s": ("s", "self", "dagger.coincidence_check"),
    "dagger.dagger_laws_check.self_s": ("s", "self", "dagger.dagger_laws_check"),
    "dagger.dagger_laws_check.composable_share": (
        "ratio", "ratio", "dagger.dagger_laws_check.composable_share"),
}


def _calls_itself(fn) -> bool:
    """True when fn names itself, also from a nested comprehension.  Such a
    function is left unwrapped: a wrapper on each level of its recursion
    would double the stack depth and move the RecursionError threshold."""
    codes = [fn.__code__]
    while codes:
        code = codes.pop()
        if fn.__name__ in code.co_names:
            return True
        codes += [c for c in code.co_consts if inspect.iscode(c)]
    return False


def _new_record():
    return [0, 0.0]  # calls and self seconds of a group; numerator and denominator of a count


class Tracer:
    """Wraps midfix's boundaries; `install` patches, `uninstall` restores."""

    def __init__(self, modules: dict):
        self.modules = modules  # short name -> imported midfix module
        self.missing: list[str] = []
        self._patches: list[tuple] = []  # (owner, attribute, original)
        self._stack = [0.0]
        self._groups_by_class: dict = {}
        self._counts_by_class: dict = {}
        self.set_size_class("")

    def set_size_class(self, size_class: str) -> None:
        """Attribute what follows to this size class."""
        self._groups = self._groups_by_class.setdefault(size_class, defaultdict(_new_record))
        self._counts = self._counts_by_class.setdefault(size_class, defaultdict(_new_record))

    # -- wrappers ------------------------------------------------------------

    def _span(self, fn, group: str):
        count, watch, hook = HOOKS.get(group, (None, None, None))
        tracer = self

        def span(*args, **kwargs):
            stack = tracer._stack
            watched = tracer._groups[watch][0] if watch else 0
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                stack[-1] += elapsed
                record = tracer._groups[group]
                record[0] += 1
                record[1] += elapsed - children
            if hook is not None:
                watched = tracer._groups[watch][0] - watched if watch else 0
                tracer._add_count(count, hook, args, result, watched)
            return result

        span.__wrapped__ = fn
        return span

    def _counter(self, fn, group: str):
        tracer = self

        def counter(*args, **kwargs):
            tracer._groups[group][0] += 1
            return fn(*args, **kwargs)

        counter.__wrapped__ = fn
        return counter

    def _add_count(self, count, hook, args, result, watched) -> None:
        try:
            num, den = hook(args, result, watched)
        except (AttributeError, TypeError, IndexError) as exc:
            # the boundary changed shape; keep the run going and say so
            name = f"{count} ({type(exc).__name__})"
            if name not in self.missing:
                self.missing.append(name)
            return
        record = self._counts[count]
        record[0] += num
        record[1] += den

    # -- patching ------------------------------------------------------------

    def _boundaries(self) -> dict:
        """name "module:qualname" -> (kind, group) for every boundary to wrap."""
        out = {}
        for short in MODULES:
            module = self.modules[short]
            for name, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not name.startswith("_")
                    and not _calls_itself(value)
                ):
                    out[f"{short}:{name}"] = ("span", MODULE_GROUPS.get(short, f"{short}.{name}"))
        out.update({name: ("span", group) for name, group in SPANS.items()})
        out.update({name: ("counter", group) for name, group in COUNTERS.items()})
        return out

    def _resolve(self, name: str):
        short, qualname = name.split(":")
        owner = self.modules[short]
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or attr not in vars(owner):
            return None, None
        return owner, attr

    def install(self) -> None:
        installed = set()
        for name, (kind, group) in sorted(self._boundaries().items()):
            owner, attr = self._resolve(name)
            if owner is None:
                self.missing.append(name)
                continue
            installed.add(group)
            original = vars(owner)[attr]
            wrapper = (self._span if kind == "span" else self._counter)(original, group)
            if inspect.isclass(owner):
                self._patch(owner, attr, original, wrapper)
                continue
            for module in self.modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)
        for _, field, group in PER_LAYER.values():
            if field in ("self", "calls") and group not in installed and group not in self.missing:
                self.missing.append(group)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    @staticmethod
    def _total(by_class: dict) -> dict:
        total: dict = defaultdict(_new_record)
        for records in by_class.values():
            for key, (a, b) in records.items():
                total[key][0] += a
                total[key][1] += b
        return total

    def per_layer(self) -> dict:
        """The reported per-layer metrics summed over every size class."""
        groups = self._total(self._groups_by_class)
        counts = self._total(self._counts_by_class)
        out = {}
        for name, (unit, field, source) in PER_LAYER.items():
            if field in ("self", "calls"):
                calls, self_s = groups.get(source, (0, 0.0))
                value = self_s if field == "self" else calls
            else:
                num, den = counts.get(source, (0, 0))
                value = num if field == "sum" else (num / den if den else 0.0)
            out[name] = {"value": value, "unit": unit}
        return out

    def by_size_class(self) -> dict:
        """Self seconds of every span group, per size class (a diagnostic)."""
        return {
            size_class: {
                group: round(self_s, 6) for group, (_, self_s) in sorted(records.items()) if self_s
            }
            for size_class, records in sorted(self._groups_by_class.items())
            if size_class
        }
