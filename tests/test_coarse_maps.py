import math

import pytest

from coarsekit import (
    CertificateError,
    CoarseMap,
    FamilyOfSets,
    LinearControl,
    PreconditionError,
    Refusal,
    Subset,
    asdim_zero_witness,
    build_space,
    control_upper,
    dim_at_scale,
    factorize,
    group_quotient,
    hausdorff_distance,
    is_r_disjoint,
    mesh,
    n_to_1_control,
    n_to_1_profile,
    pullback_family,
    pushforward_cover,
    pushforward_disjointify,
    symmetrize_metric,
    verify_n_to_1,
)
from coarsekit.generators import (
    cycle_space,
    fold_map,
    path_space,
    reflection_action,
    rotation_action,
)


def integers(lo, hi):
    return build_space({"kind": "cloud", "coords": [[i] for i in range(lo, hi + 1)]})


def identity_map(sp):
    return CoarseMap(sp, sp, tuple(range(sp.n)))


def constant_map(sp):
    cod = build_space({"kind": "cloud", "coords": [[0]]})
    return CoarseMap(sp, cod, tuple(0 for _ in range(sp.n)))


def fam(sp, *sets):
    return FamilyOfSets(sp, tuple(frozenset(s) for s in sets))


class TestControlUpper:
    def test_fold_is_one_lipschitz_tight(self):
        f = fold_map(5)
        E = control_upper(f)
        # |x| contracts: the least control is r, capped at the image diameter
        for r in f.domain.realized_distances():
            assert E(r) == min(r, 5.0)

    def test_identity(self):
        sp = integers(0, 7)
        E = control_upper(identity_map(sp))
        for r in sp.realized_distances():
            assert E(r) == r

    def test_constant(self):
        sp = integers(0, 7)
        E = control_upper(constant_map(sp))
        assert E(sp.diam()) == 0.0


class TestPullbackFamily:
    def test_fold_example(self):
        f = fold_map(5)  # domain indices 0..10 map to values -5..5
        Y = f.codomain
        V = fam(Y, {0, 1}, {4, 5})
        out = pullback_family(f, V, 3.0)
        # domain index p holds the value p - 5
        sets = sorted(sorted(p - 5 for p in s) for s in out.sets)
        assert sets == [[-5, -4, 4, 5], [-1, 0, 1]]
        ok, _ = is_r_disjoint(out, 3.0)
        assert ok

    def test_identity_passthrough(self):
        sp = integers(0, 9)
        V = fam(sp, {0, 1}, {5, 6})
        out = pullback_family(identity_map(sp), V, 2.0)
        assert set(out.sets) == set(V.sets)

    def test_single_set(self):
        f = fold_map(3)
        out = pullback_family(f, fam(f.codomain, {0, 1, 2, 3}), 1.0)
        assert len(out.sets) == 1

    def test_precondition_violation_reported(self):
        f = fold_map(5)
        V = fam(f.codomain, {0, 1}, {3, 4})  # gap 2 < E(3)=3
        with pytest.raises(PreconditionError):
            pullback_family(f, V, 3.0)


class TestNTo1Profile:
    def test_fold_two_components_of_diameter_two(self):
        f = fold_map(5)
        prof = n_to_1_profile(f, 2.0, 3.0)
        assert prof.max_components == 2
        assert prof.max_component_diam == 2.0

    def test_identity_single_component(self):
        sp = integers(0, 9)
        prof = n_to_1_profile(identity_map(sp), 3.0, 3.0)
        assert prof.max_components == 1
        assert prof.max_component_diam <= 3.0

    def test_cycle_quotient(self):
        gq = group_quotient(rotation_action(6, 2))
        prof = n_to_1_profile(gq.projection, 1.0, 2.0)
        assert prof.max_components == 2
        assert prof.max_component_diam <= 1.0

    def test_component_count_antitone_in_R(self):
        f = fold_map(5)
        counts = [n_to_1_profile(f, 2.0, R).max_components for R in [1.0, 2.0, 5.0, 10.0]]
        assert counts == sorted(counts, reverse=True)


class TestNTo1Control:
    def test_fold_two_parts(self):
        f = fold_map(5)
        ctl = n_to_1_control(f, 2)
        for r in f.codomain.realized_distances():
            assert ctl.step(r) == r
        assert ctl.step.flags.get("strict_infimum")

    def test_identity_one_part(self):
        sp = integers(0, 5)
        ctl = n_to_1_control(identity_map(sp), 1)
        for r in sp.realized_distances():
            assert ctl.step(r) == r

    def test_fold_one_part_needs_full_diameter(self):
        f = fold_map(5)
        ctl = n_to_1_control(f, 1)
        assert ctl.step(0.0) == 10.0  # {-5,5} forced into a single part
        with pytest.raises(Refusal):
            n_to_1_control(f, 1, c_cap=5.0)

    def test_verify_accepts_valid_control(self):
        f = fold_map(5)
        ok, _ = verify_n_to_1(f, 2, LinearControl(1.0), 2.0)
        assert ok
        ok, wit = verify_n_to_1(f, 1, LinearControl(1.0), 0.0)
        assert not ok and wit is not None

    def test_verify_rejects_wide_component_above_cap(self):
        # 40 preimage points (above the exact cap) form one C(1)-component of diameter 39
        ok, wit = verify_n_to_1(constant_map(path_space(40)), 1, LinearControl(1.0), 1.0)
        assert not ok
        assert wit[1] == 39.0

    @pytest.mark.parametrize("n_points", [70, 100])
    def test_verify_above_clique_cap_checks_sets_inside_balls(self, n_points):
        # above CLIQUE_ENUM_CAP codomain points the maximal r-bounded sets are
        # enumerated inside each closed ball, not replaced by the 2r-wide balls
        f = identity_map(path_space(n_points))
        assert verify_n_to_1(f, 1, LinearControl(1.0), 1.0) == (True, None)
        ok, wit = verify_n_to_1(f, 1, LinearControl(0.5), 1.0)
        assert not ok and wit == (frozenset({0, 1}), 1.0)

    def test_ball_fallback_scales_are_flagged(self):
        # 70 codomain points: balls stand in for the maximal r-bounded sets, so
        # C(1) = 2 from the balls is only an upper bound on the least control 1
        ctl = n_to_1_control(identity_map(path_space(70)), 1)
        assert ctl.step(1.0) == 2.0
        assert 1.0 in ctl.relaxed_at


class TestPushforwardCover:
    def test_fold_singletons(self):
        f = fold_map(5)
        U = fam(f.domain, *({p} for p in range(f.domain.n)))
        out = pushforward_cover(f, U, 0.5, 2, LinearControl(1.0))
        assert dim_at_scale(out, 0.5) <= 1

    def test_identity_is_bound_tight(self):
        sp = integers(0, 9)
        U = fam(sp, range(0, 6), range(4, 10))
        out = pushforward_cover(identity_map(sp), U, 2.0, 1, LinearControl(1.0))
        assert dim_at_scale(out, 2.0) <= (dim_at_scale(U, 2.0) + 1) * 1 - 1

    def test_constant_map(self):
        sp = integers(0, 3)
        f = constant_map(sp)
        U = fam(sp, {0, 1}, {1, 2}, {2, 3})
        out = pushforward_cover(f, U, 1.0, sp.n, LinearControl(0.0, sp.diam()))
        assert len(out.sets) == 3 and dim_at_scale(out, 1.0) == 2


class TestPushforwardDisjointify:
    def test_fold_singletons(self):
        f = fold_map(5)
        U = fam(f.domain, *({p} for p in range(f.domain.n)))
        colored, trace, m = pushforward_disjointify(
            f, U, 1.0, 2, LinearControl(1.0, inclusive=False)
        )
        assert m == 0
        assert colored.n_colors <= 2
        for c in range(colored.n_colors):
            ok, _ = is_r_disjoint(colored.color_class(c), 1.0 / 2)
            assert ok
        assert mesh(colored) <= control_upper(f)(0.0) + 1.0

    def test_cycle_quotient_antipodal_cover(self):
        act = rotation_action(6, 2)
        gq = group_quotient(act)
        f = gq.projection
        U = fam(f.domain, *(sorted(o) for o in gq.orbits))
        colored, trace, m = pushforward_disjointify(
            f, U, 1.0, 2, LinearControl(2.0, inclusive=False)
        )
        assert m == 0
        assert colored.n_colors <= 2 * (m + 1)
        for c in range(colored.n_colors):
            ok, _ = is_r_disjoint(colored.color_class(c), 1.0 / (2 * (m + 1)))
            assert ok
        E = control_upper(f)
        assert mesh(colored) <= E(mesh(U)) + 1.0


class TestFactorize:
    def test_fold_eleven_classes(self):
        f = fold_map(5)
        fac = factorize(f, 1.0)
        assert len(fac.classes) == 11
        fiber_sizes = {}
        for z in fac.q.assign:
            fiber_sizes[z] = fiber_sizes.get(z, 0) + 1
        assert max(fiber_sizes.values()) <= 2
        for x in range(f.domain.n):
            assert fac.q(fac.p(x)) == f(x)

    def test_injective_map_trivial(self):
        sp = integers(0, 5)
        fac = factorize(identity_map(sp), 1.0)
        assert len(fac.classes) == sp.n
        assert fac.middle.n == sp.n

    def test_constant_map_with_big_R(self):
        sp = integers(0, 3)
        fac = factorize(constant_map(sp), 3.0)
        assert len(fac.classes) == 1

    def test_metric_sandwich_and_selection(self):
        for f, R in [(fold_map(5), 1.0), (fold_map(4), 2.0)]:
            fac = factorize(f, R)
            Rb = fac.class_diam_bound
            X = fac.adjusted_domain
            for x in range(X.n):
                for y in range(X.n):
                    dh = fac.middle.d(fac.p(x), fac.p(y))
                    assert X.d(x, y) - 2 * Rb <= dh <= X.d(x, y) + 2 * Rb
            for k, x in enumerate(fac.selection):
                assert fac.p(x) == k
            assert max(X.d(x, fac.selection[fac.p(x)]) for x in range(X.n)) <= Rb

    def test_R_too_small_rejected(self):
        f = fold_map(5)
        with pytest.raises(PreconditionError):
            factorize(f, 1.0, n=1)


class TestSymmetrize:
    def test_trivial_group_keeps_metric(self):
        sp = integers(0, 5)
        from coarsekit import GroupAction

        act = GroupAction(sp, ((0,),), (tuple(range(sp.n)),))
        sym = symmetrize_metric(act)
        for i in range(sp.n):
            for j in range(sp.n):
                assert sym.d(i, j) == sp.d(i, j)

    def test_cycle_antipodal_sum(self):
        act = rotation_action(6, 2)
        sym = symmetrize_metric(act)
        # d(0,1) = rho(0,1) + rho(3,4) = 2
        assert sym.d(0, 1) == 2.0

    def test_invariance(self):
        act = reflection_action(7)
        sym = symmetrize_metric(act)
        for p in act.perms:
            for i in range(sym.n):
                for j in range(sym.n):
                    assert sym.d(p[i], p[j]) == sym.d(i, j)


class TestGroupQuotient:
    def test_cycle_antipodal(self):
        gq = group_quotient(rotation_action(6, 2))
        assert [sorted(o) for o in gq.orbits] == [[0, 3], [1, 4], [2, 5]]
        Q = gq.quotient
        # pairwise Hausdorff distance between distinct orbits is 2 in the
        # symmetrized metric (each cycle distance doubles)
        for a in range(3):
            for b in range(a + 1, 3):
                assert Q.d(a, b) == 2.0
        sym = gq.symmetrized
        d01 = hausdorff_distance(Subset(sym, gq.orbits[0]), Subset(sym, gq.orbits[1]))
        assert Q.d(0, 1) == d01 == 2.0

    def test_trivial_group_is_isometric(self):
        sp = integers(0, 4)
        from coarsekit import GroupAction

        gq = group_quotient(GroupAction(sp, ((0,),), (tuple(range(sp.n)),)))
        assert gq.quotient.n == sp.n
        for i in range(sp.n):
            for j in range(sp.n):
                assert gq.quotient.d(i, j) == sp.d(i, j)

    def test_reflection_quotient_is_scaled_half_line(self):
        gq = group_quotient(reflection_action(7))  # reversal of the 7-point path
        Q = gq.quotient
        assert Q.n == 4
        # symmetrized metric doubles distances; orbits {k,-k} sit at Hausdorff
        # distance 2|i-j|
        for a in range(4):
            for b in range(4):
                assert Q.d(a, b) == 2.0 * abs(a - b)

    def test_projection_one_lipschitz(self):
        for act in [rotation_action(8, 4), reflection_action(6)]:
            gq = group_quotient(act)
            sym, Q, proj = gq.symmetrized, gq.quotient, gq.projection
            for x in range(sym.n):
                for y in range(sym.n):
                    assert Q.d(proj(x), proj(y)) <= sym.d(x, y)

    def test_projection_coarsely_G_to_1(self):
        for act in [rotation_action(6, 2), reflection_action(7), rotation_action(8, 4)]:
            gq = group_quotient(act)
            for r in gq.quotient.realized_distances():
                ok, wit = verify_n_to_1(gq.projection, gq.n, LinearControl(2.0), r)
                assert ok, (act, r, wit)


class TestAsdimZeroWitness:
    def test_fold(self):
        f = fold_map(5)
        rep = asdim_zero_witness(f, 2, LinearControl(1.0), 2.0, 2.0)
        assert rep.worst_components == 2
        assert rep.worst_diam == 2.0 <= 2 * 2 * 2.0

    def test_identity(self):
        sp = integers(0, 9)
        rep = asdim_zero_witness(identity_map(sp), 1, LinearControl(1.0), 3.0, 3.0)
        assert rep.worst_components == 1
        assert rep.worst_diam <= 3.0

    def test_cycle_quotient(self):
        gq = group_quotient(rotation_action(6, 2))
        rep = asdim_zero_witness(gq.projection, 2, LinearControl(2.0), 1.0, 2.0)
        assert rep.worst_components <= 2
        assert rep.worst_diam <= 8.0
