import math
import random

import pytest

from coarsekit import (
    FamilyOfSets,
    InputError,
    PreconditionError,
    Subset,
    build_space,
    diameter,
    dim_at_scale,
    is_r_disjoint,
    lebesgue_number,
    make_disjoint,
    mesh,
    neighborhood,
)
from coarsekit.generators import cycle_space, grid_space, path_space, random_cover, random_space


def integers(lo, hi):
    return build_space({"kind": "cloud", "coords": [[i] for i in range(lo, hi + 1)]})


def fam(sp, *sets):
    return FamilyOfSets(sp, tuple(frozenset(s) for s in sets))


def three_interval_cover():
    sp = integers(0, 20)
    return sp, fam(sp, range(0, 11), range(5, 16), range(10, 21))


class TestFamilyMethods:
    @pytest.mark.parametrize("method", ["expansion", "closer_than"])
    @pytest.mark.parametrize("R, message", [
        # at NaN every d < R is False: the expansion was the bare membership
        # and closer_than all False
        (math.nan, "R must not be NaN"),
        (True, "R must be a number"),
        ("2", "R must be a number"),
    ], ids=["nan", "bool", "str"])
    def test_bad_scale_rejected(self, method, R, message):
        sp, F = three_interval_cover()
        with pytest.raises(InputError, match=message):
            getattr(F, method)(R)

    def test_scales_still_answered(self):
        sp, F = three_interval_cover()
        assert F.expansion(1).sum() == F.membership.sum()
        assert F.expansion(2)[0].tolist() == [i <= 11 for i in range(21)]
        assert F.closer_than(0).sum() == 0
        assert F.closer_than(math.inf).tolist() == [[i != j for j in range(3)] for i in range(3)]


class TestDimAtScale:
    def test_three_intervals_at_scale_two(self):
        sp, F = three_interval_cover()
        assert dim_at_scale(F, 2.0) == 2

    def test_disjoint_family_scale_zero(self):
        sp = integers(0, 9)
        assert dim_at_scale(fam(sp, {0, 1}, {5, 6}), 0.0) == 0

    def test_two_sets_sharing_a_point(self):
        sp = integers(0, 9)
        assert dim_at_scale(fam(sp, {0, 1, 2}, {2, 3, 4}), 0.0) == 1


class TestIsRDisjoint:
    def test_gap_two_at_scale_two(self):
        sp = integers(0, 9)
        ok, _ = is_r_disjoint(fam(sp, range(0, 4), range(5, 9)), 2.0)
        assert ok

    def test_gap_two_at_scale_three_with_witness(self):
        sp = integers(0, 9)
        ok, wit = is_r_disjoint(fam(sp, range(0, 4), range(5, 9)), 3.0)
        assert not ok
        (a, pa), (b, pb), d = wit
        assert {pa, pb} == {3, 5} and d == 2.0

    def test_single_set_vacuous(self):
        sp = integers(0, 9)
        ok, _ = is_r_disjoint(fam(sp, range(10)), 100.0)
        assert ok


class TestMesh:
    def test_singletons(self):
        sp = integers(0, 9)
        assert mesh(fam(sp, {0}, {4}, {9})) == 0.0

    def test_full_interval(self):
        sp = integers(0, 10)
        assert mesh(fam(sp, range(11))) == 10.0

    def test_antipodal_pairs_on_cycle(self):
        sp = cycle_space(6)
        assert mesh(fam(sp, {0, 3}, {1, 4}, {2, 5})) == 3.0

    def test_empty_set_rejected(self):
        with pytest.raises(PreconditionError, match="nonempty sets"):
            mesh(fam(integers(0, 5), {0, 1}, set()))

    def test_empty_family_rejected(self):
        with pytest.raises(PreconditionError, match="nonempty family"):
            mesh(fam(integers(0, 5)))


def _per_set_diameters(F):
    return tuple(diameter(Subset(F.space, s)) if s else None for s in F.sets)


class TestSetDiameters:
    def test_empty_and_one_point_sets(self):
        sp = integers(0, 9)
        F = fam(sp, {0, 3}, set(), {5}, {2, 9, 4}, set())
        assert F.set_diameters == (3.0, None, 0.0, 7.0, None) == _per_set_diameters(F)
        assert F.max_diameter() == 7.0

    def test_families_without_a_nonempty_set(self):
        sp = integers(0, 3)
        assert fam(sp).set_diameters == ()
        assert fam(sp, set(), set()).set_diameters == (None, None)
        assert fam(sp).max_diameter() == fam(sp, set()).max_diameter() == 0.0

    def test_computed_once(self):
        sp, F = three_interval_cover()
        assert F.set_diameters is F.set_diameters

    def test_random_covers(self):
        rng = random.Random(5)
        for _ in range(20):
            sp = random_space(rng, 126)
            F = random_cover(rng, sp, 2.0)
            if F is not None:
                assert F.set_diameters == _per_set_diameters(F)
                assert F.max_diameter() == max(_per_set_diameters(F))

    def test_disjointified_625_point_grid(self):
        sp = grid_space(25, 25)
        blocks = [frozenset(i * 25 + j for i in range(a, min(a + 7, 25)) for j in range(b, min(b + 7, 25)))
                  for a in range(0, 25, 5) for b in range(0, 25, 5)]
        U = FamilyOfSets(sp, tuple(blocks))
        out, _ = make_disjoint(U, 2.0)
        assert len(out) > len(U)
        assert out.set_diameters == _per_set_diameters(out)
        assert U.set_diameters == _per_set_diameters(U)
        assert mesh(out) == max(_per_set_diameters(out)) <= mesh(U) + 4.0


class TestLebesgue:
    def test_whole_space_sentinel(self):
        sp = integers(0, 9)
        assert lebesgue_number(fam(sp, range(10))) == math.inf

    def test_two_halves(self):
        sp = integers(0, 9)
        assert lebesgue_number(fam(sp, range(0, 5), range(5, 10))) == 1.0

    def test_uncovered_point_rejected(self):
        sp = integers(0, 9)
        with pytest.raises(PreconditionError):
            lebesgue_number(fam(sp, range(0, 5)))


class TestMakeDisjoint:
    def test_three_interval_example(self):
        sp, F = three_interval_cover()
        colored, trace = make_disjoint(F, 2.0, 2)
        assert colored.n_colors == 3
        assert colored.union() == frozenset(range(21))
        for c in range(colored.n_colors):
            ok, wit = is_r_disjoint(colored.color_class(c), 2.0 / 3)
            assert ok, wit
        assert mesh(colored) <= mesh(F) + 2 * 2.0

    def test_whole_space_cover(self):
        sp = integers(0, 9)
        colored, _ = make_disjoint(fam(sp, range(10)), 3.0, 0)
        nonempty = [s for s in colored.sets if s]
        assert nonempty == [frozenset(range(10))]

    def test_already_disjoint_cover(self):
        sp = build_space(
            {"kind": "cloud", "coords": [[v] for v in [0, 1, 2, 3, 6, 7, 8, 9]]}
        )
        F = fam(sp, range(0, 4), range(4, 8))
        assert dim_at_scale(F, 2.0) == 0
        colored, trace = make_disjoint(F, 2.0, 0)
        assert colored.n_colors == 1
        # every output set sits inside the 2-expansion of a single input set
        for T, members in trace.margin_sets.items():
            assert len(T) == 1
            hull = neighborhood(Subset(sp, F.sets[T[0]]), 2.0).members
            assert members <= hull

    def test_containment_in_intersection_of_expansions(self):
        sp, F = three_interval_cover()
        colored, trace = make_disjoint(F, 2.0, 2)
        for T, members in trace.margin_sets.items():
            for t in T:
                hull = neighborhood(Subset(sp, F.sets[t]), 2.0).members
                assert members <= hull

    def test_dimension_too_high_rejected(self):
        sp, F = three_interval_cover()
        with pytest.raises(PreconditionError):
            make_disjoint(F, 2.0, 1)

    @pytest.mark.parametrize("R, error, message", [
        (0.0, PreconditionError, r"requires R > 0"),
        (-1.0, PreconditionError, r"requires R > 0"),
        # NaN used to pass an "R <= 0" guard and fail as an uncovered space
        (math.nan, InputError, r"R must not be NaN"),
    ], ids=["0.0", "-1.0", "nan"])
    def test_scale_not_positive_rejected(self, R, error, message):
        sp, F = three_interval_cover()
        with pytest.raises(error, match=message):
            make_disjoint(F, R, 2)

    def test_union_of_disjoint_color_classes_has_low_dimension(self):
        rng = random.Random(5)
        for _ in range(20):
            sp = random_space(rng, 48)
            R = float(rng.randint(1, 3))
            F = random_cover(rng, sp, R, max_dim=3)
            if F is None:
                continue
            n = dim_at_scale(F, R)
            colored, _ = make_disjoint(F, R, n)
            shrunk = R / (n + 1)
            # a union of n+1 families, each (R/(n+1))-disjoint, has dim < n+1
            assert dim_at_scale(colored, shrunk) <= n

    def test_idempotent_in_dimension_at_shrunk_scale(self):
        # output classes are only R/(n+1)-disjoint, so the fixed point of
        # repeated disjointification lives at the shrunk scale
        sp, F = three_interval_cover()
        colored, _ = make_disjoint(F, 2.0, 2)
        shrunk = 2.0 / 3
        d = dim_at_scale(colored, shrunk)
        assert d <= 2
        again, _ = make_disjoint(colored, shrunk, d)
        assert dim_at_scale(again, shrunk / (d + 1)) <= d
