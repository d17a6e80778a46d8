"""Finite complete lattices, monotone maps, and the middle fixpoint operators.

On a finite lattice every monotone f has, for each pre-fixed x (x <= f(x)),
a least fixpoint above x reached by iterating f; dually for post-fixed
points.  The two operators form a Galois connection between the suborders
of pre- and post-fixed points, which `galois_check` verifies exhaustively.

A numeric twin on the unit interval does the same by tolerance-bounded
iteration; monotonicity there is only checked on a sample grid.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable, Iterator, Mapping


class LatticeError(ValueError):
    pass


class NotAPartialOrder(LatticeError):
    def __init__(self, law: str, witness):
        super().__init__(f"{law} fails at {witness!r}")
        self.law = law
        self.witness = witness


class MissingJoinOrMeet(LatticeError):
    def __init__(self, kind: str, witness):
        super().__init__(f"no unique {kind} for pair {witness!r}")
        self.kind = kind
        self.witness = witness


class NotMonotone(LatticeError):
    def __init__(self, witness):
        x, y = witness
        super().__init__(f"monotonicity fails: {x!r} <= {y!r} but images are not ordered")
        self.witness = witness


class NotPreFixed(LatticeError):
    pass


class NotPostFixed(LatticeError):
    pass


class NotPreFixedNumeric(LatticeError):
    pass


class NotPostFixedNumeric(LatticeError):
    pass


class NoConvergence(LatticeError):
    """Iteration hit max_iterations; carries the best iterate and residual."""

    def __init__(self, best: float, residual: float, iterations: int):
        super().__init__(
            f"no convergence after {iterations} iterations (residual {residual:g})"
        )
        self.best = best
        self.residual = residual
        self.iterations = iterations


def _positions(mask: int) -> Iterator[int]:
    """The positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class FinLattice:
    """A finite complete lattice: elements plus a validated order relation.

    Element i also carries two bitmasks over element positions: up[i] holds
    the elements above it, down[i] those below it (both include i).  Joins
    and meets are intersections of these masks (Ait-Kaci et al., Efficient
    Implementation of Lattice Operations, TOPLAS 1989).  Lattices are equal
    when their elements and order are.
    """

    def __init__(self, elements: tuple, leq: frozenset, up: tuple, down: tuple,
                 position: dict):
        self.elements, self.leq = elements, leq  # leq: the pairs x <= y, reflexive ones included
        self.up, self.down, self.position = up, down, position  # position: element -> its bit

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.elements, self.leq) == (other.elements, other.leq)
        return NotImplemented

    def __hash__(self):
        return hash((self.elements, self.leq))

    def le(self, x, y) -> bool:
        return (x, y) in self.leq

    def join(self, x, y):
        bounds = self.up[self.position[x]] & self.up[self.position[y]]
        return self.elements[self.up.index(bounds)]

    def meet(self, x, y):
        bounds = self.down[self.position[x]] & self.down[self.position[y]]
        return self.elements[self.down.index(bounds)]

    @property
    def bottom(self):
        return self.elements[self.up.index((1 << len(self.elements)) - 1)]

    @property
    def top(self):
        return self.elements[self.down.index((1 << len(self.elements)) - 1)]

    def covers(self) -> list[tuple]:
        """Covering pairs (x, y): x < y with nothing strictly between."""
        out = []
        for i, x in enumerate(self.elements):
            for j in _positions(self.up[i] & ~(1 << i)):
                if self.up[i] & self.down[j] == 1 << i | 1 << j:
                    out.append((x, self.elements[j]))
        return out


def check_lattice(elements: Iterable, leq_pairs: Iterable[tuple]) -> FinLattice:
    """Validate the poset laws and existence of all binary joins and meets.

    Laws are checked in element order, so the witness of a violation does
    not depend on set iteration order.
    """
    elems = tuple(elements)
    if not elems:
        raise LatticeError("lattice needs at least one element")
    position = {}
    for i, x in enumerate(elems):
        if x in position:
            raise LatticeError(f"duplicate element {x!r}")
        position[x] = i
    n = len(elems)
    up, down = [0] * n, [0] * n
    pairs = []
    for x, y in leq_pairs:
        if x not in position or y not in position:
            raise LatticeError(f"order pair {(x, y)!r} names a non-element")
        up[position[x]] |= 1 << position[y]
        down[position[y]] |= 1 << position[x]
        pairs.append((x, y))
    for i, x in enumerate(elems):
        if not up[i] >> i & 1:
            raise NotAPartialOrder("reflexivity", (x, x))
    for i, x in enumerate(elems):
        both = up[i] & down[i] & ~(1 << i)
        if both:
            raise NotAPartialOrder("antisymmetry", (x, elems[next(_positions(both))]))
    for i, x in enumerate(elems):
        for j in _positions(up[i]):
            beyond = up[j] & ~up[i]
            if beyond:
                raise NotAPartialOrder("transitivity", (x, elems[next(_positions(beyond))]))
    ups, downs = set(up), set(down)
    for i, j in itertools.combinations_with_replacement(range(n), 2):
        if up[i] & up[j] not in ups:
            raise MissingJoinOrMeet("join", (elems[i], elems[j]))
        if down[i] & down[j] not in downs:
            raise MissingJoinOrMeet("meet", (elems[i], elems[j]))
    return FinLattice(elems, frozenset(pairs), tuple(up), tuple(down), position)


class MonotoneMap:
    """A validated monotone endofunction on a finite lattice, given as the
    pairs (x, f(x)), sorted for canonical equality."""

    def __init__(self, lattice: FinLattice, mapping: tuple):
        self.lattice, self.mapping, self.table = lattice, mapping, dict(mapping)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.lattice, self.mapping) == (other.lattice, other.mapping)
        return NotImplemented

    def __hash__(self):
        return hash((self.lattice, self.mapping))

    def __call__(self, x):
        return self.table[x]

    def as_dict(self) -> dict:
        return dict(self.table)


def check_monotone(mapping: Mapping, lattice: FinLattice) -> MonotoneMap:
    table = dict(mapping)
    for x in table:
        if x not in lattice.position:
            raise LatticeError(f"map names {x!r} outside the lattice")
    for x in lattice.elements:
        if x not in table:
            raise LatticeError(f"map not total: missing {x!r}")
        if table[x] not in lattice.position:
            raise LatticeError(f"map leaves the lattice at {x!r}")
    image = [lattice.position[table[x]] for x in lattice.elements]
    for i, x in enumerate(lattice.elements):
        allowed = lattice.up[image[i]]
        for j in _positions(lattice.up[i]):
            if not allowed >> image[j] & 1:
                raise NotMonotone((x, lattice.elements[j]))
    return MonotoneMap(lattice, tuple(sorted(table.items(), key=lambda p: str(p))))


class FixpointReport:
    def __init__(self, pre_fixed: tuple, post_fixed: tuple, fixed: tuple):
        self.pre_fixed, self.post_fixed, self.fixed = pre_fixed, post_fixed, fixed
        self.mu_table, self.nu_table, self.galois_ok, self.violations = {}, {}, True, []


def classify_points(f: MonotoneMap) -> FixpointReport:
    lat = f.lattice
    pre = tuple(x for x in lat.elements if lat.le(x, f(x)))
    post = tuple(y for y in lat.elements if lat.le(f(y), y))
    fixed = tuple(x for x in pre if x in post)
    return FixpointReport(pre, post, fixed)


def _iterate_lattice(f: MonotoneMap, x, kind: str):
    """The first point of the Kleene chain x, f(x), f(f(x)), ... that f
    fixes; x is `kind` ("pre-fixed" or "post-fixed"), so the chain is
    monotone and reaches it within as many steps as there are elements."""
    current = x
    for _ in range(len(f.lattice.elements) + 1):
        nxt = f(current)
        if nxt == current:
            return current
        current = nxt
    raise AssertionError(f"monotone iteration from a {kind} point cannot cycle")


def mu_lattice(f: MonotoneMap, x):
    """Least fixpoint above a pre-fixed x, by ascending iteration."""
    if not f.lattice.le(x, f(x)):
        raise NotPreFixed(f"{x!r} is not pre-fixed")
    return _iterate_lattice(f, x, "pre-fixed")


def nu_lattice(f: MonotoneMap, y):
    """Greatest fixpoint below a post-fixed y, by descending iteration."""
    if not f.lattice.le(f(y), y):
        raise NotPostFixed(f"{y!r} is not post-fixed")
    return _iterate_lattice(f, y, "post-fixed")


def galois_check(f: MonotoneMap) -> FixpointReport:
    """Check mu(x) <= y iff x <= nu(y) over all pre-/post-fixed pairs."""
    report = classify_points(f)
    lat = f.lattice
    report.mu_table = {x: mu_lattice(f, x) for x in report.pre_fixed}
    report.nu_table = {y: nu_lattice(f, y) for y in report.post_fixed}
    for x in report.pre_fixed:
        for y in report.post_fixed:
            left = lat.le(report.mu_table[x], y)
            right = lat.le(x, report.nu_table[y])
            if left != right:
                report.violations.append((x, y))
    report.galois_ok = not report.violations
    return report


def all_lattices(max_size: int) -> Iterator[FinLattice]:
    """Every lattice on labeled sets of size 1..max_size.

    Labeled enumeration covers all isomorphism classes (with repeats);
    intended for exhaustive desk-scale oracles only.
    """
    for n in range(1, max_size + 1):
        elems = tuple(f"e{i}" for i in range(n))
        off_diag = [(x, y) for x in elems for y in elems if x != y]
        diag = [(x, x) for x in elems]
        for bits in itertools.product((False, True), repeat=len(off_diag)):
            pairs = diag + [p for p, keep in zip(off_diag, bits) if keep]
            try:
                yield check_lattice(elems, pairs)
            except LatticeError:
                continue


def all_monotone_maps(lattice: FinLattice) -> Iterator[MonotoneMap]:
    """Every monotone endofunction on a finite lattice, exhaustively."""
    elems = lattice.elements
    for images in itertools.product(elems, repeat=len(elems)):
        table = dict(zip(elems, images))
        if all(
            lattice.le(table[x], table[y])
            for x in elems
            for y in elems
            if lattice.le(x, y)
        ):
            yield MonotoneMap(
                lattice, tuple(sorted(table.items(), key=lambda p: str(p)))
            )


# -- numeric twin on [0, 1] -------------------------------------------------

DEFAULT_TOLERANCE = 1e-9
DEFAULT_MAX_ITERATIONS = 10 ** 6
DEFAULT_SAMPLE_GRID = 1024


class IntervalMap:
    """A monotone self-map of [0, 1], checked on a sample grid only."""

    def __init__(
        self,
        fn: Callable[[float], float],
        sample_grid: int = DEFAULT_SAMPLE_GRID,
        tolerance: float = DEFAULT_TOLERANCE,
        max_iterations: int = DEFAULT_MAX_ITERATIONS,
    ):
        if sample_grid <= 0 or tolerance <= 0 or max_iterations <= 0:
            raise LatticeError("grid, tolerance and max_iterations must be positive")
        self.fn, self.sample_grid = fn, sample_grid
        self.tolerance, self.max_iterations = tolerance, max_iterations
        xs = self.grid()
        values = [fn(x) for x in xs]
        for x, v in zip(xs, values):
            if not 0.0 <= v <= 1.0:
                raise LatticeError(f"fn({x}) = {v} leaves [0, 1]")
        for (x, vx), (y, vy) in itertools.combinations(zip(xs, values), 2):
            if x <= y and vx > vy + tolerance:
                raise NotMonotone((x, y))

    def grid(self) -> list[float]:
        n = self.sample_grid
        return [i / (n - 1) for i in range(n)] if n > 1 else [0.0]


class IntervalFixpoint:
    def __init__(self, value: float, residual: float, iterations: int):
        self.value, self.residual, self.iterations = value, residual, iterations


def _iterate_interval(im: IntervalMap, x: float) -> IntervalFixpoint:
    current = x
    for i in range(im.max_iterations):
        nxt = im.fn(current)
        if abs(nxt - current) < im.tolerance:
            return IntervalFixpoint(nxt, abs(im.fn(nxt) - nxt), i + 1)
        current = nxt
    raise NoConvergence(current, abs(im.fn(current) - current), im.max_iterations)


def mu_interval(im: IntervalMap, x: float) -> IntervalFixpoint:
    """First fixpoint above a numerically pre-fixed x, by iteration."""
    if not 0.0 <= x <= 1.0:
        raise LatticeError(f"{x} outside [0, 1]")
    if im.fn(x) < x - im.tolerance:
        raise NotPreFixedNumeric(f"fn({x}) = {im.fn(x)} < {x}")
    return _iterate_interval(im, x)


def nu_interval(im: IntervalMap, y: float) -> IntervalFixpoint:
    """Closest fixpoint below a numerically post-fixed y, by iteration."""
    if not 0.0 <= y <= 1.0:
        raise LatticeError(f"{y} outside [0, 1]")
    if im.fn(y) > y + im.tolerance:
        raise NotPostFixedNumeric(f"fn({y}) = {im.fn(y)} > {y}")
    return _iterate_interval(im, y)


FIVE_FIXPOINTS = (0.0, 0.25, 0.5, 0.75, 1.0)


def five_fixpoint_map(
    strength: float = 4.0,
    sample_grid: int = DEFAULT_SAMPLE_GRID,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> IntervalMap:
    """The shipped interval example: monotone with fixpoints exactly at
    0, 1/4, 1/2, 3/4, 1.

    f(x) = x + strength * x(x-1/4)(x-1/2)(x-3/4)(x-1); the perturbation's
    derivative stays above -1/strength in magnitude, keeping f increasing.
    """

    def fn(x: float) -> float:
        value = x + strength * x * (x - 0.25) * (x - 0.5) * (x - 0.75) * (x - 1.0)
        return min(1.0, max(0.0, value))

    return IntervalMap(fn, sample_grid, tolerance, max_iterations)


def locate_interval_fixpoints(
    im: IntervalMap, grid: int | None = None, refine_tol: float = 1e-12
) -> list[float]:
    """Numerically locate fixpoints of fn by sign scan of fn(x) - x plus bisection.

    Independent of the iteration path: used as the oracle for mu/nu_interval.
    """
    n = grid or im.sample_grid
    xs = [i / (n - 1) for i in range(n)]
    found: list[float] = []

    def residual(x: float) -> float:
        return im.fn(x) - x

    def add(x: float) -> None:
        if all(abs(x - other) > 1e-6 for other in found):
            found.append(x)

    for x in xs:
        if abs(residual(x)) < refine_tol:
            add(x)
    for a, b in zip(xs, xs[1:]):
        ra, rb = residual(a), residual(b)
        if ra == 0.0 or rb == 0.0 or (ra > 0) == (rb > 0):
            continue
        lo, hi, rlo = a, b, ra
        for _ in range(200):
            mid = (lo + hi) / 2
            rm = residual(mid)
            if rm == 0.0 or hi - lo < refine_tol:
                break
            if (rm > 0) == (rlo > 0):
                lo, rlo = mid, rm
            else:
                hi = mid
        add((lo + hi) / 2)
    return sorted(found)
