import math
from functools import cached_property
from unittest import mock

import numpy as np
import pytest

from coarsekit import (
    ApcWitness,
    CertificateError,
    CoarseMap,
    FamilyOfSets,
    InputError,
    LinearControl,
    PreconditionError,
    Refusal,
    Subset,
    apc_pullback,
    asdim_zero_witness,
    build_space,
    control_upper,
    dim_at_scale,
    factorize,
    group_quotient,
    hausdorff_distance,
    is_r_disjoint,
    maximal_r_bounded_sets,
    min_max_diameter_partition,
    n_to_1_control,
    n_to_1_profile,
    pullback_family,
    pushforward_cover,
    symmetrize_metric,
    verify_n_to_1,
)
from coarsekit.coarse_maps import (
    EXACT_PARTITION_CAP,
    _fiber_blocks,
    _hausdorff_quotient,
    graph_coloring,
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

    def test_computed_once_across_a_four_family_pullback(self):
        f = fold_map(39)  # codomain 0..39
        Y = f.codomain
        # blocks {2b, 2b+1} dealt round-robin: same-family blocks are 7 apart
        families = tuple(
            fam(Y, *({2 * b, 2 * b + 1} for b in range(k, 20, 4))) for k in range(4)
        )
        w = ApcWitness(Y, (1.0, 2.0, 3.0, 4.0), families)
        computed = []
        uncached = CoarseMap.upper_control.func

        def counted(g):
            computed.append(g)
            return uncached(g)

        prop = cached_property(counted)
        prop.__set_name__(CoarseMap, "upper_control")
        with mock.patch.object(CoarseMap, "upper_control", prop):
            out = apc_pullback(f, w, w.scales, 6.0)
            assert control_upper(f) is control_upper(f)
        assert computed == [f]
        assert all(len(g) for g in out.families)
        # the cached control is the least one: E(r) is the largest codomain
        # distance over domain pairs at distance <= r
        dy = f.codomain.dmat[np.ix_(f.assign, f.assign)]
        E = control_upper(f)
        for r in f.domain.realized_distances():
            assert E(r) == dy[f.domain.dmat <= r].max()


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

    @pytest.mark.parametrize("n", [2, 3])
    def test_verify_colours_each_block_once(self, n):
        # an accepting call colours each block with 1 < n < |preimage| <= the
        # cap once, at C(r); a rejecting call reports the partition value
        f = fold_map(5)
        blocks, _ = _fiber_blocks(f, 2.0)
        coloured = sum(1 < n < len(pre) <= EXACT_PARTITION_CAP for _, pre in blocks)
        with mock.patch("coarsekit.coarse_maps.graph_coloring", wraps=graph_coloring) as spy:
            assert verify_n_to_1(f, n, LinearControl(1.0), 2.0) == (True, None)
        assert coloured == len(blocks) and spy.call_count == coloured
        ok, (B, val) = verify_n_to_1(f, n, LinearControl(0.5), 2.0)
        assert not ok and val == min_max_diameter_partition(f.domain, f.preimage(B), n)[0]

    def test_verify_with_a_constant_control_at_infinite_r(self):
        # C = 0 * r + 1 is 1 at r = inf, not 0 * inf = nan, which every
        # preimage value once passed
        f = fold_map(4)
        assert verify_n_to_1(f, 1, LinearControl(0.0, 1.0), math.inf) == (
            False, (frozenset({0, 1, 2, 3, 4}), 8.0))
        assert verify_n_to_1(f, 2, LinearControl(0.0, 4.0), math.inf) == (True, None)

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

    def test_above_clique_cap_exact_while_balls_fit(self):
        # 70 codomain points: the maximal 1-bounded sets are enumerated inside
        # the 3-point balls, so C(1) = 1 is exact (the balls once gave 2)
        ctl = n_to_1_control(identity_map(path_space(70)), 1)
        assert ctl.step(1.0) == 1.0
        assert 1.0 not in ctl.relaxed_at
        # with n = 1 a preimage's value is its diameter at any size, so only
        # the scales from r = 32 on, where the middle balls hold 65 points, are
        # flagged (the 17-point and larger preimages once were, from r = 16)
        assert ctl.relaxed_at == tuple(float(r) for r in range(32, 70))

    def test_trivial_partitions_above_partition_cap_are_exact(self):
        # one part is the whole preimage and |preimage| parts are singletons,
        # at any size; a 20-point fiber was once flagged relaxed at every scale
        f = constant_map(path_space(20))
        for n, value in ((1, 19.0), (20, 0.0), (25, 0.0)):
            ctl = n_to_1_control(f, n)
            assert ctl.relaxed_at == ()
            assert ctl.step(0.0) == value
        assert n_to_1_control(f, 2).relaxed_at == (0.0,)

    def test_ball_fallback_scales_are_flagged(self):
        # from r = 32 on the middle balls of path_space(70) hold 65 points and
        # stand whole for their sets; the 10-point domain keeps every preimage
        # under the exact partition cap, so only those scales are flagged
        f = CoarseMap(path_space(10), path_space(70), tuple(7 * x for x in range(10)))
        assert maximal_r_bounded_sets(f.codomain, 31.0)[1]
        assert not maximal_r_bounded_sets(f.codomain, 32.0)[1]
        ctl = n_to_1_control(f, 1)
        assert ctl.relaxed_at == tuple(float(r) for r in range(32, 70))

    def test_verify_accepts_by_relaxation_above_partition_cap(self):
        # 18 preimage points: the 1-components {0..16}, {18.5} are an explicit
        # 2-part partition of width 16; the C(1)-component test once rejected
        # it by the width 18.5 of the one 16-component
        sp = build_space({"kind": "cloud", "coords": [[i] for i in range(17)] + [[18.5]],
                          "norm": "l1"})
        assert verify_n_to_1(constant_map(sp), 2, LinearControl(16.0), 1.0) == (True, None)
        assert verify_n_to_1(constant_map(sp), 2, LinearControl(15.0), 1.0) == (
            False, (frozenset({0}), 16.0))

    def test_profile_above_clique_cap_is_exact(self):
        # the 1-bounded sets of path_space(70) are its edges, not its 3-point balls
        prof = n_to_1_profile(identity_map(path_space(70)), 1.0, 0.5)
        assert (prof.max_components, prof.exact) == (2, True)
        assert prof.witness == frozenset({0, 1})


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


def test_hausdorff_quotient_rejects_an_empty_class():
    with pytest.raises(PreconditionError, match="nonempty"):
        _hausdorff_quotient(integers(0, 1), [frozenset({0, 1}), frozenset()], ["a", "b"])


def test_hausdorff_quotient_diagonal_is_positive_zero():
    # a -0.0 diagonal passes verify_metric; the quotient's reports print +0.0
    sp = build_space({"kind": "matrix", "matrix": [[-0.0, 1, 2], [1, -0.0, 1], [2, 1, -0.0]]})
    p = _hausdorff_quotient(sp, [frozenset({0}), frozenset({1, 2})], ["a", "b"])
    assert not np.signbit(np.diagonal(p.codomain.dmat)).any()


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

    @pytest.mark.parametrize("m", range(4, 13))
    def test_invariant_on_irrational_l2_distances(self, m):
        # the rotated tables hold the same terms in another order per entry; a
        # group-order sum could differ in the last bit and fail the check
        from coarsekit import GroupAction

        angles = [2 * math.pi * k / m for k in range(m)]
        sp = build_space({"kind": "cloud", "norm": "l2",
                          "coords": [[1.7 * math.cos(t), 1.3 * math.sin(t)] for t in angles]})
        perms = tuple(tuple((x + g) % m for x in range(m)) for g in range(m))
        table = tuple(tuple((g + h) % m for h in range(m)) for g in range(m))
        sym = symmetrize_metric(GroupAction(sp, table, perms))
        for p in perms:
            assert all(sym.d(p[i], p[j]) == sym.d(i, j) for i in range(m) for j in range(m))


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
        assert rep.max_components == 2
        assert rep.max_component_diam == 2.0 <= 2 * 2 * 2.0

    def test_identity(self):
        sp = integers(0, 9)
        rep = asdim_zero_witness(identity_map(sp), 1, LinearControl(1.0), 3.0, 3.0)
        assert rep.max_components == 1
        assert rep.max_component_diam <= 3.0

    def test_cycle_quotient(self):
        gq = group_quotient(rotation_action(6, 2))
        rep = asdim_zero_witness(gq.projection, 2, LinearControl(2.0), 1.0, 2.0)
        assert rep.max_components <= 2
        assert rep.max_component_diam <= 8.0


class TestRawPointIndices:
    # a negative index once read the table from its end, and a float failed
    # with a bare IndexError
    @pytest.mark.parametrize("points", [{-1, 0, 1}, {0, 7}, {0, 1.0}],
                             ids=["negative", "too-large", "float"])
    def test_partition_members(self, points):
        with pytest.raises(InputError, match="^members .* are not points of the owning space$"):
            min_max_diameter_partition(path_space(5), points, 2)

    @pytest.mark.parametrize("points", [{-1, 0}, {0, 7}, {0, 1.0}],
                             ids=["negative", "too-large", "float"])
    def test_bounded_sets_within(self, points):
        with pytest.raises(InputError, match="^within .* are not points of the owning space$"):
            maximal_r_bounded_sets(path_space(5), 1.0, within=points)

    def test_trivial_partitions_above_the_cap(self):
        # once PreconditionError "exact partition search capped at 16 points"
        sp = path_space(20)
        assert min_max_diameter_partition(sp, range(17), 1) == (16.0, [frozenset(range(17))])
        assert min_max_diameter_partition(sp, range(17), 17) == (
            0.0, [frozenset({p}) for p in range(17)])
        with pytest.raises(PreconditionError, match="capped at 16 points"):
            min_max_diameter_partition(sp, range(17), 2)

    def test_valid_points_accepted(self):
        sp = path_space(5)
        value, parts = min_max_diameter_partition(sp, {0, 1, 4}, 2)
        assert value == 1.0 and sorted(parts, key=min) == [frozenset({0, 1}), frozenset({4})]
        assert maximal_r_bounded_sets(sp, 1.0, within={0, 1, 3}) == (
            [frozenset({0, 1}), frozenset({3})], True)


class TestOneControlRule:
    # a JSON-dict control once failed with "'dict' object is not callable" at
    # these three entries, while the transfers accepted it
    DICT = {"type": "linear", "a": 1.0, "b": 0.0}

    def test_dict_control_accepted(self):
        f = fold_map(5)
        U = fam(f.domain, *({p} for p in range(f.domain.n)))
        assert verify_n_to_1(f, 2, self.DICT, 1.0) == verify_n_to_1(f, 2, LinearControl(1.0), 1.0)
        assert pushforward_cover(f, U, 1.0, 2, self.DICT).sets == pushforward_cover(
            f, U, 1.0, 2, LinearControl(1.0)).sets
        assert asdim_zero_witness(f, 2, self.DICT, 1.0, 1.0) == n_to_1_profile(f, 1.0, 1.0)

    @pytest.mark.parametrize("entry", ["verify", "push", "asdim-zero"])
    def test_bare_callable_rejected(self, entry):
        f = fold_map(5)
        U = fam(f.domain, *({p} for p in range(f.domain.n)))
        C = lambda r: r  # noqa: E731
        call = {"verify": lambda: verify_n_to_1(f, 2, C, 1.0),
                "push": lambda: pushforward_cover(f, U, 1.0, 2, C),
                "asdim-zero": lambda: asdim_zero_witness(f, 2, C, 1.0, 1.0)}[entry]
        with pytest.raises(InputError, match="as a control function"):
            call()


class TestFiberBlockCache:
    # the blocks of one (r, within) are walked once per map and shared by the
    # n-to-1 operations; the fibers suite once walked each (map, r) three times
    def test_each_scale_walked_once(self):
        f = fold_map(5)
        with mock.patch("coarsekit.coarse_maps.maximal_r_bounded_sets",
                        wraps=maximal_r_bounded_sets) as spy:
            first = _fiber_blocks(f, 2.0)
            n_to_1_profile(f, 2.0, 1.0)
            n_to_1_profile(f, 2, 3.0)
            verify_n_to_1(f, 2, LinearControl(1.0), 2.0)
            n_to_1_control(f, 2)
        # one walk per realized codomain distance 0..5, 2.0 among them
        assert spy.call_count == len(f.codomain.realized_distances()) == 6
        assert _fiber_blocks(f, 2.0) is first

    def test_blocks_match_a_fresh_walk_and_are_tuples(self):
        f = fold_map(5)
        for within in (None, {0, 2, 3}, [3, 0, 2]):
            blocks, exact = _fiber_blocks(f, 1.0, within=within)
            sets, want_exact = maximal_r_bounded_sets(f.codomain, 1.0, within=within)
            assert isinstance(blocks, tuple) and all(isinstance(b, tuple) for b in blocks)
            assert blocks == tuple((B, f.preimage(B)) for B in sets)
            assert exact == want_exact
        assert _fiber_blocks(f, 1.0, within={0, 2, 3}) is _fiber_blocks(f, 1.0, within=(3, 2, 0, 3))

    def test_bad_input_raises_on_every_call(self):
        f = fold_map(5)
        _fiber_blocks(f, 1.0)
        _fiber_blocks(f, 1.0, within={0, 1})
        for _ in range(2):
            with pytest.raises(InputError, match="r must not be NaN"):
                _fiber_blocks(f, math.nan)
            with pytest.raises(InputError, match="^within .* are not points of the owning space$"):
                _fiber_blocks(f, 1.0, within={0, 1, 9})

    def test_fibers_suite_walks_each_map_and_scale_once(self):
        from coarsekit.suites import run_suite

        with mock.patch("coarsekit.coarse_maps.maximal_r_bounded_sets",
                        wraps=maximal_r_bounded_sets) as spy:
            run_suite("fibers", 11, 10)
        # 10 maps, 3 sampled scales each, certified at three R per scale
        assert spy.call_count == 30
