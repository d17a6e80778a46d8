import functools
import itertools

import pytest

from midfix.lattice import (
    FIVE_FIXPOINTS,
    FinLattice,
    IntervalMap,
    LatticeError,
    MissingJoinOrMeet,
    MonotoneMap,
    NoConvergence,
    NotAPartialOrder,
    NotMonotone,
    NotPostFixed,
    NotPreFixed,
    NotPreFixedNumeric,
    all_lattices,
    all_monotone_maps,
    check_lattice,
    check_monotone,
    classify_points,
    five_fixpoint_map,
    galois_check,
    locate_interval_fixpoints,
    mu_interval,
    mu_lattice,
    nu_interval,
    nu_lattice,
)

CHAIN5 = [str(i) for i in range(5)]
CHAIN5_LEQ = [(str(i), str(j)) for i in range(5) for j in range(5) if i <= j]
STEP_MAP = {"0": "0", "1": "2", "2": "2", "3": "2", "4": "4"}


@pytest.fixture
def chain5():
    return check_lattice(CHAIN5, CHAIN5_LEQ)


@pytest.fixture
def step(chain5):
    return check_monotone(STEP_MAP, chain5)


def brute_fixpoints(f):
    return [x for x in f.lattice.elements if f(x) == x]


class TestCheckLattice:
    def test_total_order_is_a_lattice(self, chain5):
        assert chain5.bottom == "0" and chain5.top == "4"

    def test_incomparable_pair_without_top(self):
        with pytest.raises(MissingJoinOrMeet):
            check_lattice(["a", "b"], [("a", "a"), ("b", "b")])

    def test_diamond_is_a_lattice(self):
        leq = [("bot", x) for x in ["bot", "a", "b", "top"]]
        leq += [(x, "top") for x in ["a", "b", "top"]]
        leq += [("a", "a"), ("b", "b")]
        diamond = check_lattice(["bot", "a", "b", "top"], leq)
        assert diamond.join("a", "b") == "top"
        assert diamond.meet("a", "b") == "bot"
        # lattices are equal when their elements and order are, whatever their
        # bit tables, and so are monotone maps on them; other types never are
        again = FinLattice(diamond.elements, diamond.leq, (), (), {})
        assert again == diamond and hash(again) == hash(diamond)
        f = check_monotone({x: x for x in diamond.elements}, diamond)
        g = MonotoneMap(again, f.mapping)
        g.table = {}
        assert g == f and hash(g) == hash(f)
        assert f != diamond and diamond != (diamond.elements, diamond.leq)

    def test_broken_antisymmetry_reported_with_witness(self):
        with pytest.raises(NotAPartialOrder) as err:
            check_lattice(["a", "b"], [("a", "a"), ("b", "b"), ("a", "b"), ("b", "a")])
        assert err.value.law == "antisymmetry"

    def test_missing_reflexivity(self):
        with pytest.raises(NotAPartialOrder):
            check_lattice(["a"], [])


class TestCheckMonotone:
    def test_identity_is_monotone(self, chain5):
        check_monotone({x: x for x in CHAIN5}, chain5)

    def test_step_map_is_monotone(self, step):
        assert step("1") == "2"

    def test_decreasing_map_witness(self):
        chain3 = check_lattice(
            ["0", "1", "2"], [(str(i), str(j)) for i in range(3) for j in range(3) if i <= j]
        )
        with pytest.raises(NotMonotone) as err:
            check_monotone({"0": "2", "1": "1", "2": "0"}, chain3)
        assert err.value.witness == ("0", "1")

    def test_partial_map_rejected(self, chain5):
        with pytest.raises(LatticeError):
            check_monotone({"0": "0"}, chain5)

    def test_entry_for_a_non_element_rejected(self, chain5):
        # the first such key in map order is named, even in a total map
        with pytest.raises(LatticeError, match="map names '' outside the lattice"):
            check_monotone({**{x: x for x in CHAIN5}, "": "x", "bogus": "0"}, chain5)


class TestClassify:
    def test_step_map_classification(self, step):
        report = classify_points(step)
        assert report.pre_fixed == ("0", "1", "2", "4")
        assert report.post_fixed == ("0", "2", "3", "4")
        assert report.fixed == ("0", "2", "4")

    def test_identity_fixes_everything(self, chain5):
        f = check_monotone({x: x for x in CHAIN5}, chain5)
        report = classify_points(f)
        assert report.pre_fixed == report.post_fixed == report.fixed == chain5.elements

    def test_constant_top(self, chain5):
        f = check_monotone({x: "4" for x in CHAIN5}, chain5)
        report = classify_points(f)
        assert report.pre_fixed == chain5.elements
        assert report.post_fixed == ("4",)
        assert report.fixed == ("4",)


class TestMuNu:
    def test_mu_step_example(self, step):
        # oracle: least fixpoint >= 1 among brute-forced fixpoints
        assert mu_lattice(step, "1") == "2"
        fixed = brute_fixpoints(step)
        assert mu_lattice(step, "1") == min(
            (z for z in fixed if step.lattice.le("1", z)), key=int
        )

    def test_mu_of_a_fixed_point_is_itself(self, step):
        for x in brute_fixpoints(step):
            assert mu_lattice(step, x) == x

    def test_nu_step_example(self, step):
        assert nu_lattice(step, "3") == "2"
        fixed = brute_fixpoints(step)
        assert nu_lattice(step, "3") == max(
            (z for z in fixed if step.lattice.le(z, "3")), key=int
        )

    def test_requires_pre_or_post_fixed(self, step):
        with pytest.raises(NotPreFixed):
            mu_lattice(step, "3")  # f(3)=2 < 3
        with pytest.raises(NotPostFixed):
            nu_lattice(step, "1")  # f(1)=2 > 1


class TestGalois:
    def test_step_map_has_no_violations(self, step):
        report = galois_check(step)
        assert report.galois_ok and not report.violations
        assert len(report.pre_fixed) * len(report.post_fixed) == 16

    def test_identity_reduces_to_order(self, chain5):
        f = check_monotone({x: x for x in CHAIN5}, chain5)
        assert galois_check(f).galois_ok

    def test_exhaustive_small_lattices(self):
        # every monotone map on every lattice of up to 3 elements
        for lattice in all_lattices(3):
            for f in all_monotone_maps(lattice):
                report = galois_check(f)
                assert report.galois_ok, (lattice, f)

    def test_mu_agrees_with_brute_force_on_small_lattices(self):
        for lattice in all_lattices(3):
            for f in all_monotone_maps(lattice):
                fixed = brute_fixpoints(f)
                for x in classify_points(f).pre_fixed:
                    above = [z for z in fixed if lattice.le(x, z)]
                    least = next(z for z in above if all(lattice.le(z, w) for w in above))
                    assert mu_lattice(f, x) == least

    def test_mu_nu_are_monotone_between_the_suborders(self):
        for lattice in all_lattices(3):
            for f in all_monotone_maps(lattice):
                report = classify_points(f)
                for x1, x2 in itertools.product(report.pre_fixed, repeat=2):
                    if lattice.le(x1, x2):
                        assert lattice.le(mu_lattice(f, x1), mu_lattice(f, x2))
                for y1, y2 in itertools.product(report.post_fixed, repeat=2):
                    if lattice.le(y1, y2):
                        assert lattice.le(nu_lattice(f, y1), nu_lattice(f, y2))


class TestInterval:
    def test_identity_map(self):
        im = IntervalMap(lambda x: x, sample_grid=64)
        result = mu_interval(im, 0.3)
        assert result.value == pytest.approx(0.3, abs=1e-9)

    def test_half_map_not_pre_fixed_above_zero(self):
        im = IntervalMap(lambda x: x / 2, sample_grid=64)
        with pytest.raises(NotPreFixedNumeric):
            mu_interval(im, 0.5)
        assert mu_interval(im, 0.0).value == 0.0

    def test_range_violation_rejected(self):
        with pytest.raises(LatticeError):
            IntervalMap(lambda x: x + 0.5, sample_grid=64)

    def test_non_monotone_rejected(self):
        with pytest.raises(NotMonotone):
            IntervalMap(lambda x: 1.0 - x, sample_grid=64)

    def test_no_convergence_carries_best_iterate(self):
        # drift too slow to converge within the iteration budget
        im = IntervalMap(
            lambda x: min(1.0, x + 1e-6), sample_grid=8, tolerance=1e-9, max_iterations=50
        )
        with pytest.raises(NoConvergence) as err:
            mu_interval(im, 0.0)
        assert 0.0 < err.value.best < 1.0
        assert err.value.residual > 0

    def test_five_fixpoint_example_locates_all_five(self):
        im = five_fixpoint_map()
        located = locate_interval_fixpoints(im)
        assert len(located) == 5
        for found, expected in zip(located, FIVE_FIXPOINTS):
            assert found == pytest.approx(expected, abs=1e-6)

    def test_five_fixpoint_endpoints(self):
        im = five_fixpoint_map()
        assert mu_interval(im, 0.0).value == pytest.approx(0.0, abs=1e-9)
        assert nu_interval(im, 1.0).value == pytest.approx(1.0, abs=1e-9)

    def test_iteration_lands_on_nearest_fixpoint_above(self):
        im = five_fixpoint_map()
        for x in (0.05, 0.2, 0.55, 0.7):
            target = min(f for f in FIVE_FIXPOINTS if f >= x)
            result = mu_interval(im, x)
            assert result.value == pytest.approx(target, abs=1e-6)
            assert result.residual <= im.tolerance

    def test_descent_lands_on_nearest_fixpoint_below(self):
        im = five_fixpoint_map()
        for y in (0.3, 0.45, 0.8, 0.95):
            target = max(f for f in FIVE_FIXPOINTS if f <= y)
            assert nu_interval(im, y).value == pytest.approx(target, abs=1e-6)
