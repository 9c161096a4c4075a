import pytest

from coarsekit import (
    ApcWitness,
    CertificateError,
    DimSequenceWitness,
    FamilyOfSets,
    InputError,
    LinearControl,
    PreconditionError,
    Refusal,
    apc_normalize,
    apc_pullback,
    apc_pushforward,
    apc_witness,
    asdim_at_scale,
    build_space,
    dim_at_scale,
    is_r_disjoint,
    mesh,
    verify_apc_witness,
)
from coarsekit.coarse_maps import CoarseMap
from coarsekit.generators import fold_map, path_space


def integers(lo, hi):
    return build_space({"kind": "cloud", "coords": [[i] for i in range(lo, hi + 1)]})


def fam(sp, *sets):
    return FamilyOfSets(sp, tuple(frozenset(s) for s in sets))


def identity_map(sp):
    return CoarseMap(sp, sp, tuple(range(sp.n)))


class TestAsdimAtScale:
    def test_sixteen_point_path(self):
        sp = path_space(16)
        res = asdim_at_scale(sp, 3.0, 5.0)
        assert res.dim == 1
        assert res.exact
        assert dim_at_scale(res.cover, 3.0) == 1
        assert mesh(res.cover) <= 5.0

    def test_mesh_cap_at_diameter_gives_dim_zero(self):
        sp = path_space(8)
        res = asdim_at_scale(sp, 2.0, float(sp.diam()))
        assert res.dim == 0 and res.exact

    def test_greedy_fallback_flagged_above_cap(self):
        sp = path_space(20)
        res = asdim_at_scale(sp, 2.0, 4.0, exact_cap=10)
        assert not res.exact
        assert dim_at_scale(res.cover, 2.0) == res.dim

    @pytest.mark.parametrize("R", [0.0, -1.0])
    def test_nonpositive_scale_gives_dim_zero(self, R):
        # no point is within R <= 0 of another, so each expansion is its own set
        res = asdim_at_scale(path_space(5), R, 2.0)
        assert res.dim == 0 and res.exact
        assert dim_at_scale(res.cover, R) == 0

    def test_cover_always_valid(self):
        sp = path_space(12)
        for R, cap in [(1.0, 2.0), (2.0, 3.0), (4.0, 6.0)]:
            res = asdim_at_scale(sp, R, cap)
            assert res.cover.covers_space()
            assert mesh(res.cover) <= cap


class TestApcWitness:
    def test_ten_point_path_two_scales(self):
        sp = path_space(10)
        w = apc_witness(sp, (2.0, 3.0), 3.0)
        cert = w.certificates[0]
        assert cert["covers"]
        for R, f in zip(w.scales, w.families):
            ok, _ = is_r_disjoint(f, R)
            assert ok
            if len(f):
                assert mesh(f) <= 3.0

    def test_single_family_infeasible_is_refused_with_proof(self):
        sp = path_space(10)
        with pytest.raises(Refusal) as exc:
            apc_witness(sp, (5.0,), 2.0)
        assert exc.value.proved

    def test_scales_must_increase(self):
        sp = path_space(6)
        with pytest.raises(InputError):
            apc_witness(sp, (3.0, 2.0), 3.0)

    def test_verify_round_trip(self):
        sp = path_space(12)
        w = apc_witness(sp, (2.0, 4.0), 4.0)
        again = verify_apc_witness(w, mesh_cap=4.0)
        assert again["covers"]

    def test_tampered_witness_caught(self):
        sp = path_space(10)
        w = apc_witness(sp, (2.0, 3.0), 3.0)
        dropped = ApcWitness(sp, w.scales, (w.families[0], fam(sp)))
        with pytest.raises(CertificateError):
            verify_apc_witness(dropped)


class TestApcNormalize:
    def test_single_level_example(self):
        sp = path_space(31)
        V1 = fam(sp, range(0, 16), range(16, 31))
        w = DimSequenceWitness(sp, (8.0,), (1,), (V1,))
        # working scale R_1 = (n_1 + 1) * M_2 = 2 * 4 = 8
        assert dim_at_scale(V1, 8.0) <= 1
        out = apc_normalize(w, (2.0, 4.0))
        assert out.scales == (2.0, 4.0)
        assert len(out.families) == 2
        for t, f in enumerate(out.families):
            ok, _ = is_r_disjoint(f, out.scales[t])
            assert ok
            # both classes are in fact 4-disjoint, so the first is
            # 2-disjoint a fortiori
            ok4, _ = is_r_disjoint(f, 4.0)
            assert ok4
        assert out.union() == frozenset(range(31))

    def test_all_dims_zero_passthrough(self):
        sp = path_space(12)
        partial = fam(sp, range(0, 4), range(6, 12))
        with pytest.raises(CertificateError):
            # does not cover the space
            apc_normalize(DimSequenceWitness(sp, (2.0,), (0,), (partial,)), (1.0,))
        full = fam(sp, range(12))
        out = apc_normalize(DimSequenceWitness(sp, (2.0,), (0,), (full,)), (2.0,))
        assert len(out.families) == 1
        assert out.union() == frozenset(range(12))

    def test_families_that_cover_only_jointly(self):
        # each V_i is disjointified on the points it carries, not on the space
        sp = path_space(20)
        V1, V2 = fam(sp, range(0, 8)), fam(sp, range(8, 20))
        out = apc_normalize(DimSequenceWitness(sp, (1.0, 1.0), (0, 0), (V1, V2)), (1.0, 1.0))
        assert [f.sets for f in out.families] == [V1.sets, V2.sets]

    def test_family_of_empty_sets(self):
        sp = path_space(12)
        empty, full = fam(sp, ()), fam(sp, range(12))
        out = apc_normalize(DimSequenceWitness(sp, (2.0, 2.0), (0, 0), (empty, full)), (2.0, 2.0))
        assert [f.sets for f in out.families] == [(), full.sets]

    def test_too_few_gaps_rejected(self):
        sp = path_space(31)
        V1 = fam(sp, range(0, 16), range(16, 31))
        w = DimSequenceWitness(sp, (8.0,), (1,), (V1,))
        with pytest.raises(InputError):
            apc_normalize(w, (2.0,))


class TestApcPushforward:
    def test_identity_passthrough(self):
        sp = path_space(10)
        w = apc_witness(sp, (2.0, 3.0), 3.0)
        # with n=1 the image family must be 0-dimensional at its own
        # disjointness scale, which holds for the strict expansion only
        out = apc_pushforward(
            identity_map(sp), 1, LinearControl(1.0, inclusive=False), w, (2.0, 3.0)
        )
        assert len(out.families) == 2
        for f_in, f_out in zip(w.families, out.families):
            assert set(f_out.sets) >= {s for s in f_in.sets if s}

    def test_fold_reflected_interval_pairs(self):
        f = fold_map(20)
        S1 = frozenset(range(0, 10)) | frozenset(range(31, 41))  # values -20..-11, 11..20
        S2 = frozenset(range(10, 31))  # values -10..10
        U = FamilyOfSets(f.domain, (S1, S2))
        w = ApcWitness(f.domain, (1.0,), (U,))
        out = apc_pushforward(f, 2, LinearControl(1.0), w, (0.5, 0.5))
        assert len(out.families) == 2
        for t, g in enumerate(out.families):
            ok, wit = is_r_disjoint(g, out.scales[t])
            assert ok, wit
        assert out.union() == frozenset(range(f.codomain.n))
        audit = out.certificates[1]
        assert all(entry["certified_by"] == 0.5 for entry in audit)

    def test_scale_count_mismatch_reported(self):
        f = fold_map(5)
        U = FamilyOfSets(f.domain, (frozenset(range(f.domain.n)),))
        w = ApcWitness(f.domain, (1.0,), (U,))
        with pytest.raises(InputError):
            apc_pushforward(f, 2, LinearControl(1.0), w, (0.5,))

    def test_under_separated_family_rejected(self):
        f = fold_map(5)
        S1 = frozenset({0, 1})   # values -5, -4
        S2 = frozenset({2, 3})   # values -3, -2 : distance 1 < D(2*2)=4
        rest = frozenset(range(4, f.domain.n))
        U = FamilyOfSets(f.domain, (S1, S2, rest))
        w = ApcWitness(f.domain, (2.0,), (U,))
        with pytest.raises(PreconditionError):
            apc_pushforward(f, 2, LinearControl(1.0), w, (2.0, 2.0))


class TestApcPullback:
    def test_identity_passthrough(self):
        sp = path_space(10)
        w = apc_witness(sp, (2.0, 3.0), 3.0)
        out = apc_pullback(identity_map(sp), w, (2.0, 3.0), M=3.0)
        assert out.union() == frozenset(range(sp.n))

    def test_fold(self):
        f = fold_map(9)
        Y = f.codomain
        w = ApcWitness(
            Y,
            (1.0, 2.0),
            (fam(Y, {0, 1}, {5, 6}), fam(Y, {2, 3, 4}, {7, 8, 9})),
        )
        out = apc_pullback(f, w, (1.0, 2.0), M=2.0)
        for t, g in enumerate(out.families):
            ok, wit = is_r_disjoint(g, out.scales[t])
            assert ok, wit
            assert mesh(g) <= 2.0
        assert out.union() == frozenset(range(f.domain.n))

    def test_component_diameter_over_M_caught(self):
        f = fold_map(9)
        Y = f.codomain
        w = ApcWitness(
            Y,
            (1.0, 2.0),
            (fam(Y, {0, 1}, {5, 6}), fam(Y, {2, 3, 4}, {7, 8, 9})),
        )
        with pytest.raises(CertificateError):
            # the preimage of {2,3,4} has components of diameter 2 > 1
            apc_pullback(f, w, (1.0, 2.0), M=1.0)

    def test_under_separated_family_rejected(self):
        f = fold_map(9)
        Y = f.codomain
        w = ApcWitness(Y, (3.0,), (fam(Y, {0, 1}, {3, 4}, {6, 7, 8, 9}),))
        with pytest.raises(PreconditionError):
            # gap 2 < E(3) = 3
            apc_pullback(f, w, (3.0,), M=10.0)

    def test_precondition_names_the_family_from_one(self):
        f = fold_map(9)
        Y = f.codomain
        w = ApcWitness(Y, (1.0, 3.0), (fam(Y, {0, 1}, {5, 6}),
                                       fam(Y, {0, 1}, {3, 4}, {6, 7, 8, 9})))
        # family 2 has gap 2 < E(3) = 3
        with pytest.raises(PreconditionError, match=r"^family 2: family is not E\(d\)=3.0-"):
            apc_pullback(f, w, (1.0, 3.0), M=10.0)

    def test_tie_at_the_control_value_is_pullback_family_s(self):
        # E(2) = 1 on the two-point path: {0}, {1} is E(2)-disjoint, yet 1 apart
        sp = path_space(2)
        w = ApcWitness(sp, (2.0,), (fam(sp, {0}, {1}),))
        with pytest.raises(CertificateError, match="tie at the control value"):
            apc_pullback(identity_map(sp), w, (2.0,), M=10.0)
