import fractions
import math

import pytest

from coarsekit import (
    CertificateError,
    InputError,
    LinearControl,
    MassFamily,
    PreconditionError,
    ProbMeasure,
    asdim_to_msp,
    best_mass_family,
    build_space,
    half_mass_witness,
    control_upper,
    make_disjoint,
    map_msp_check,
    msp_pullback,
    msp_pushforward,
    pushforward_measure,
    transfer_measure_selection,
)
from coarsekit.coarse_maps import CoarseMap, group_quotient
from coarsekit.covers import FamilyOfSets
from coarsekit.generators import (
    fold_map,
    grid_rotation_action,
    path_space,
    reflection_action,
    rotation_action,
)


def fam(sp, *sets):
    return FamilyOfSets(sp, tuple(frozenset(s) for s in sets))


def uniform(sp):
    return ProbMeasure(sp, tuple(1.0 for _ in range(sp.n)))


def identity_map(sp):
    return CoarseMap(sp, sp, tuple(range(sp.n)))


class TestProbMeasure:
    def test_renormalization_flagged(self):
        sp = path_space(4)
        mu = ProbMeasure(sp, (1.0, 1.0, 1.0, 1.0))
        assert mu.renormalized
        assert mu.weights == (0.25, 0.25, 0.25, 0.25)
        assert math.isclose(sum(mu.weights), 1.0)

    def test_exact_probability_kept(self):
        sp = path_space(2)
        mu = ProbMeasure(sp, (0.5, 0.5))
        assert not mu.renormalized

    def test_negative_weight_rejected(self):
        sp = path_space(3)
        with pytest.raises(InputError):
            ProbMeasure(sp, (0.5, -0.1, 0.6))

    def test_zero_total_rejected(self):
        sp = path_space(3)
        with pytest.raises(InputError):
            ProbMeasure(sp, (0.0, 0.0, 0.0))


class TestBestMassFamily:
    def test_uniform_path_example(self):
        sp = path_space(10)
        out = best_mass_family(sp, uniform(sp), 2.0, 3.0)
        assert out.exact
        assert math.isclose(out.mass, 0.8)
        assert len(out.family.union()) == 8

    def test_whole_space_when_unconstrained(self):
        sp = path_space(8)
        out = best_mass_family(sp, uniform(sp), 0.0, float(sp.diam()))
        assert math.isclose(out.mass, 1.0)

    def test_concentrated_measure_takes_heavy_point(self):
        sp = path_space(10)
        w = [0.0] * 10
        w[0] = w[9] = 0.5
        mu = ProbMeasure(sp, tuple(w))
        out = best_mass_family(sp, mu, 3.0, 0.0)
        # both heavy points fit: they are 9 >= 3 apart, singletons are 0-bounded
        assert math.isclose(out.mass, 1.0)

    def test_greedy_above_cap_flagged_lower_bound(self):
        sp = path_space(14)
        out = best_mass_family(sp, uniform(sp), 2.0, 3.0, exact_cap=10)
        assert not out.exact
        assert out.flags.get("lower_bound")
        exact = best_mass_family(sp, uniform(sp), 2.0, 3.0, exact_cap=14)
        assert out.mass <= exact.mass + 1e-12

    def test_verify_catches_tampered_mass(self):
        sp = path_space(10)
        out = best_mass_family(sp, uniform(sp), 2.0, 3.0)
        forged = MassFamily(out.family, out.R, out.S, out.mass + 0.05)
        with pytest.raises(CertificateError):
            forged.verify(uniform(sp))


class TestAsdimToMsp:
    def test_three_interval_cover(self):
        sp = path_space(21)
        cover = fam(sp, range(0, 11), range(5, 16), range(10, 21))
        colored, _ = make_disjoint(cover, 2.0, 2)
        mu = uniform(sp)
        out = asdim_to_msp(colored, 2.0 / 3, mu)
        assert out.mass >= 1.0 / 3 - 1e-12
        assert out.flags["n_colors"] == 3

    def test_uncolored_cover_rejected(self):
        sp = path_space(6)
        with pytest.raises(InputError):
            asdim_to_msp(fam(sp, range(6)), 1.0, uniform(sp))


class TestMeasureTransfer:
    def test_identity_selection(self):
        sp = path_space(5)
        mu = uniform(sp)
        lam = transfer_measure_selection(identity_map(sp), mu, range(5))
        assert lam.weights == mu.weights

    def test_fold_positive_selection(self):
        f = fold_map(5)
        mu = uniform(f.codomain)
        # select +y, which sits at domain index y + 5
        lam = transfer_measure_selection(f, mu, tuple(y + 5 for y in range(6)))
        for y in range(6):
            assert math.isclose(lam.weights[y + 5], mu.weights[y])
        assert all(v == 0.0 for v in lam.weights[:5])

    def test_quotient_orbit_minima(self):
        gq = group_quotient(rotation_action(6, 2))
        mu = uniform(gq.quotient)
        lam = transfer_measure_selection(
            gq.projection, mu, tuple(min(o) for o in gq.orbits)
        )
        assert [lam.weights[x] for x in (0, 1, 2)] == [mu.weights[0]] * 3
        assert all(lam.weights[x] == 0.0 for x in (3, 4, 5))

    def test_bad_selection_rejected(self):
        f = fold_map(3)
        with pytest.raises(PreconditionError):
            transfer_measure_selection(f, uniform(f.codomain), (0, 1, 2, 3))

    def test_pushforward_fold_example(self):
        f = fold_map(2)
        mu = uniform(f.domain)
        lam = pushforward_measure(f, mu)
        assert [round(v, 12) for v in lam.weights] == [
            round(v, 12) for v in (0.2, 0.4, 0.4)
        ]


class TestMspPushforward:
    def test_identity_returns_witness_mass(self):
        sp = path_space(10)
        mu = uniform(sp)
        witness = best_mass_family(sp, mu, 1.0, 2.0)
        out = msp_pushforward(identity_map(sp), 1, mu, 1.0, witness, mu)
        assert math.isclose(out.mass, witness.mass)
        assert out.flags["route"] == "coloring"
        assert out.S == control_upper(identity_map(sp))(witness.S) + 1.0

    def test_fold_uniform_example(self):
        f = fold_map(9)
        mu = uniform(f.codomain)
        lam = transfer_measure_selection(f, mu, tuple(min(f.fiber(y)) for y in range(10)))
        D = LinearControl(1.0)
        witness = best_mass_family(f.domain, lam, D(2 * 1.0), 4.0)
        assert witness.mass > 0.5
        out = msp_pushforward(f, 2, mu, 1.0, witness, lam)
        assert out.mass >= 0.25 - 1e-12
        E = control_upper(f)
        assert out.S <= E(witness.S) + 2 * 2 * 1.0
        out.verify(mu)

    def test_light_witness_rejected(self):
        f = fold_map(9)
        mu = uniform(f.codomain)
        lam = transfer_measure_selection(f, mu, tuple(min(f.fiber(y)) for y in range(10)))
        light = best_mass_family(f.domain, lam, 20.0, 0.0)  # a single point survives
        assert light.mass < 0.5
        with pytest.raises(PreconditionError):
            msp_pushforward(f, 2, mu, 1.0, light, lam)


class TestMspPullback:
    def test_fold_uniform(self):
        f = fold_map(9)
        mu = uniform(f.domain)
        out = msp_pullback(f, mu, 1.0, K=float(f.codomain.diam()), S=float(f.domain.diam()))
        assert out.mass >= 0.25 - 1e-12
        out.verify(mu)

    def test_small_RY_rejected(self):
        f = fold_map(9)
        mu = uniform(f.domain)
        with pytest.raises(PreconditionError):
            msp_pullback(f, mu, 2.0, K=9.0, S=18.0, R_Y=1.0)

    def test_R_Y_at_E_of_R_X_rejected(self):
        f = fold_map(9)
        mu = uniform(f.domain)
        E = control_upper(f)
        with pytest.raises(PreconditionError):
            msp_pullback(f, mu, 2.0, K=9.0, S=18.0, R_Y=E(2.0))

    @pytest.mark.parametrize("action", [reflection_action(12), rotation_action(12, 2),
                                        grid_rotation_action(4, 4)])
    @pytest.mark.parametrize("share", [0.5, 0.25])
    def test_quotient_below_the_domain_diameter(self, action, share):
        # the default R_Y lies above E(R_X): codomain sets exactly E(R_X) apart
        # would have preimages closer than R_X, which strict components join
        f = group_quotient(action).projection
        mu = uniform(f.domain)
        S = share * f.domain.diam()
        out = msp_pullback(f, mu, 3.0, K=float(f.codomain.diam()), S=S)
        assert out.mass >= 0.25 - 1e-12
        assert out.family.max_diameter() <= S
        out.verify(mu)

    def test_identity_trivial(self):
        sp = path_space(8)
        mu = uniform(sp)
        out = msp_pullback(identity_map(sp), mu, 1.0, K=float(sp.diam()), S=float(sp.diam()))
        assert math.isclose(out.mass, 1.0)

    def test_pieces_exactly_R_apart_stay_separate(self):
        # {0,1}, {3,4}, {6,7} are 2 apart, so R_X-disjoint at R_X = 2, and 1-bounded
        sp = path_space(8)
        mu = uniform(sp)
        out = msp_pullback(identity_map(sp), mu, 2.0, K=7.0, S=1.0)
        assert out.family.sets == (frozenset({0, 1}), frozenset({3, 4}), frozenset({6, 7}))
        assert math.isclose(out.mass, 0.75)


class TestHalfMassWitness:
    def test_first_bound_above_half(self):
        sp = path_space(8)
        w = half_mass_witness(sp, uniform(sp), 2.0)
        assert w.S == 1.0
        assert math.isclose(w.mass, 0.75)

    def test_none_without_positive_distances(self):
        sp = path_space(1)
        assert half_mass_witness(sp, uniform(sp), 1.0) is None


class TestMapMspCheck:
    def test_two_point_fibers_worst_half(self):
        f = fold_map(3)
        rep = map_msp_check(f, f.codomain.full(), 10.0, 0.0, 0.9, 0.0)
        assert rep["exact"]
        assert math.isclose(rep["worst_value"], 0.5)
        assert rep["achievable"] is False
        assert not rep["equality_at_threshold"]

    def test_threshold_equality_flagged(self):
        f = fold_map(3)
        rep = map_msp_check(f, f.codomain.full(), 10.0, 0.0, 0.5, 0.0)
        assert rep["equality_at_threshold"]
        assert rep["achievable"] is False

    def test_low_threshold_achievable(self):
        f = fold_map(3)
        rep = map_msp_check(f, f.codomain.full(), 10.0, 0.0, 0.25, 0.0)
        assert rep["achievable"] is True

    def test_identity_value_one(self):
        sp = path_space(6)
        rep = map_msp_check(identity_map(sp), sp.full(), 1.0, 0.0, 0.9, 0.0)
        assert rep["worst_value"] == 1.0
        assert rep["achievable"] is True

    def test_bad_threshold_rejected(self):
        f = fold_map(3)
        with pytest.raises(InputError):
            map_msp_check(f, f.codomain.full(), 1.0, 1.0, 1.5, 1.0)
