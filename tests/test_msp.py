import fractions
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import coarsekit
from coarsekit import (
    ApcWitness,
    CertificateError,
    DecompositionTree,
    DimSequenceWitness,
    InputError,
    LinearControl,
    MassFamily,
    PreconditionError,
    ProbMeasure,
    StepFunction,
    Subset,
    apc_normalize,
    apc_pullback,
    apc_pushforward,
    apc_witness,
    asdim_at_scale,
    asdim_to_msp,
    asdim_zero_witness,
    best_mass_family,
    build_space,
    components,
    control_upper,
    dim_at_scale,
    factorize,
    half_mass_witness,
    is_r_disjoint,
    make_disjoint,
    map_msp_check,
    maximal_r_bounded_sets,
    msp_pullback,
    msp_pushforward,
    n_to_1_control,
    n_to_1_profile,
    neighborhood,
    pullback_family,
    pushforward_cover,
    pushforward_measure,
    r_components,
    transfer_measure_selection,
    tree_pullback,
    tree_pushforward,
    tree_to_cover,
    verify_apc_witness,
    verify_n_to_1,
)
from coarsekit import msp as msp_module
from coarsekit.coarse_maps import CoarseMap, group_quotient
from coarsekit.covers import FamilyOfSets
from coarsekit.generators import (
    fold_map,
    grid_rotation_action,
    grid_space,
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
        # in lowest terms the units are 1 of 1 and 1 + 1 of 2, yet the weights sum to 3/4
        for weights in [(0.75,), (0.375, 0.375)]:
            assert ProbMeasure(path_space(len(weights)), weights).renormalized

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

    @pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_rejected(self, weight):
        # renormalizing by a NaN total would make every weight NaN
        with pytest.raises(InputError, match="finite"):
            ProbMeasure(path_space(3), (1.0, weight, 1.0))

    @pytest.mark.parametrize("weight", [True, False, np.bool_(True), "1"])
    def test_non_number_weight_rejected(self, weight):
        with pytest.raises(InputError, match="number"):
            ProbMeasure(path_space(3), (1, weight, 1))

    def test_units_are_exact_for_every_number_type(self):
        sp = path_space(3)
        kinds = [
            (1, 3, 4),
            (0.125, 0.375, 0.5),
            (fractions.Fraction(1, 8), fractions.Fraction(3, 8), fractions.Fraction(1, 2)),
            (np.int64(2), np.int64(6), np.int64(8)),
            (np.float64(0.25), np.float64(0.75), np.float64(1.0)),
        ]
        for weights in kinds:
            mu = ProbMeasure(sp, weights)
            assert (mu.units, mu.total, mu.weights) == ((1, 3, 4), 8, (0.125, 0.375, 0.5))
            assert mu.mass({1, 2}) == fractions.Fraction(7, 8)
        # a float's exact binary value, not its decimal repr: 0.1 + 0.2 != 0.3
        mu = ProbMeasure(sp, (0.1, 0.2, 0.7))
        assert mu.renormalized
        assert mu.mass({0, 1, 2}) == 1


class TestBestMassFamily:
    def test_uniform_path_example(self):
        sp = path_space(10)
        out = best_mass_family(sp, uniform(sp), 2.0, 3.0)
        assert out.exact
        assert out.mass == fractions.Fraction(4, 5)
        assert len(out.family.union()) == 8

    def test_whole_space_when_unconstrained(self):
        sp = path_space(8)
        out = best_mass_family(sp, uniform(sp), 0.0, float(sp.diam()))
        assert out.mass == 1

    def test_concentrated_measure_takes_heavy_point(self):
        sp = path_space(10)
        w = [0.0] * 10
        w[0] = w[9] = 0.5
        mu = ProbMeasure(sp, tuple(w))
        out = best_mass_family(sp, mu, 3.0, 0.0)
        # both heavy points fit: they are 9 >= 3 apart, singletons are 0-bounded
        assert out.mass == 1

    def test_exact_tie_goes_to_least_mask(self):
        # {0, 6, 7, 9} weighs exactly as much as {0, 2, 6, 9} (23/47); summed
        # as floats in index order it would round above it
        sp = build_space({"kind": "cloud", "norm": "l1", "coords": [
            (0, 1), (0, 3), (0, 4), (1, 0), (1, 2), (1, 3), (2, 0), (2, 4), (4, 2), (4, 3)]})
        mu = ProbMeasure(sp, (6, 3, 8, 3, 3, 6, 1, 8, 1, 8))
        assert mu.mass({0, 6, 7, 9}) == mu.mass({0, 2, 6, 9}) == fractions.Fraction(23, 47)
        out = best_mass_family(sp, mu, 3, 0)
        assert out.exact
        assert out.family.sets == (frozenset({0}), frozenset({2}), frozenset({6}), frozenset({9}))
        assert out.mass == fractions.Fraction(23, 47)

    def test_exact_half_is_no_half_mass_witness(self):
        # the points 0, 1, 2, 3 weigh exactly 1/2 (their float sum reads
        # 0.5000000000000001), so no family at S = 3 has mass > 1/2; the first
        # one is the points 3 and 7 (indices 3, 4) at S = 4
        sp = build_space({"kind": "cloud", "norm": "l1", "coords": [[0], [1], [2], [3], [7]]})
        mu = ProbMeasure(sp, (2, 5, 3, 3, 13))
        out = half_mass_witness(sp, mu, 10)
        assert out.S == 4
        assert out.family.sets == (frozenset({3, 4}),)
        assert out.mass == fractions.Fraction(8, 13)
        assert mu.mass({0, 1, 2, 3}) == fractions.Fraction(1, 2)

    @pytest.mark.parametrize("space", [grid_space(4, 4), path_space(16)], ids=["grid4x4", "path16"])
    def test_whole_support_at_the_cap(self, space):
        out = best_mass_family(space, uniform(space), 1, 1)
        assert out.exact
        assert out.family.union() == frozenset(range(16))
        assert out.mass == 1.0

    def test_greedy_above_cap_flagged_lower_bound(self):
        sp = path_space(14)
        out = best_mass_family(sp, uniform(sp), 2.0, 3.0, exact_cap=10)
        assert not out.exact
        assert out.flags.get("lower_bound")
        exact = best_mass_family(sp, uniform(sp), 2.0, 3.0, exact_cap=14)
        assert out.mass <= exact.mass

    def test_verify_catches_tampered_mass(self):
        sp = path_space(10)
        out = best_mass_family(sp, uniform(sp), 2.0, 3.0)
        forged = MassFamily(out.family, out.R, out.S, out.mass + 0.05)
        with pytest.raises(CertificateError):
            forged.verify(uniform(sp))

    def test_greedy_returns_at_zero_scale(self):
        # in a fresh interpreter with a timeout: the greedy branch once looped
        # forever at R = 0, because excising d < 0 left the chosen set behind
        probe = (
            "from coarsekit import ProbMeasure, best_mass_family\n"
            "from coarsekit.generators import path_space\n"
            "for n, cap in ((20, 16), (10, 0), (10, 16)):\n"
            "    sp = path_space(n)\n"
            "    out = best_mass_family(sp, ProbMeasure(sp, (1.0,) * n), 0.0, 1.0, exact_cap=cap)\n"
            "    print(out.exact, out.mass)\n"
        )
        src = Path(coarsekit.__file__).parent.parent
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(src)}, check=True, timeout=60)
        rows = [line.split() for line in out.stdout.splitlines()]
        assert [exact for exact, _ in rows] == ["False", "False", "True"]
        greedy20, greedy10, exact10 = (fractions.Fraction(m) for _, m in rows)
        assert greedy20 == 1
        assert greedy10 == exact10


class TestAsdimToMsp:
    def test_three_interval_cover(self):
        sp = path_space(21)
        cover = fam(sp, range(0, 11), range(5, 16), range(10, 21))
        colored, _ = make_disjoint(cover, 2.0, 2)
        mu = uniform(sp)
        out = asdim_to_msp(colored, 2.0 / 3, mu)
        assert out.mass >= fractions.Fraction(1, 3)
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
            assert lam.units[y + 5] == mu.units[y]
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
        assert out.mass == witness.mass
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
        assert out.mass >= fractions.Fraction(1, 4)
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
        assert out.mass >= fractions.Fraction(1, 4)
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
        assert out.mass >= fractions.Fraction(1, 4)
        assert out.family.max_diameter() <= S
        out.verify(mu)

    def test_default_R_Y_evaluates_the_control_once(self, monkeypatch):
        calls = []

        def counted(f):
            E = control_upper(f)
            return lambda r: calls.append(r) or E(r)

        monkeypatch.setattr(msp_module, "control_upper", counted)
        sp = path_space(8)
        msp_pullback(identity_map(sp), uniform(sp), 1.0, K=float(sp.diam()), S=float(sp.diam()))
        assert calls == [1.0]

    def test_identity_trivial(self):
        sp = path_space(8)
        mu = uniform(sp)
        out = msp_pullback(identity_map(sp), mu, 1.0, K=float(sp.diam()), S=float(sp.diam()))
        assert out.mass == 1

    def test_pieces_exactly_R_apart_stay_separate(self):
        # {0,1}, {3,4}, {6,7} are 2 apart, so R_X-disjoint at R_X = 2, and 1-bounded
        sp = path_space(8)
        mu = uniform(sp)
        out = msp_pullback(identity_map(sp), mu, 2.0, K=7.0, S=1.0)
        assert out.family.sets == (frozenset({0, 1}), frozenset({3, 4}), frozenset({6, 7}))
        assert out.mass == fractions.Fraction(3, 4)


class TestHalfMassWitness:
    def test_first_bound_above_half(self):
        sp = path_space(8)
        w = half_mass_witness(sp, uniform(sp), 2.0)
        assert w.S == 1.0
        assert w.mass == fractions.Fraction(3, 4)

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

    @pytest.mark.parametrize("R, S, value", [(2.0, 0.0, 0.5), (2.0, 1.0, 1.0), (1.0, 0.0, 1.0),
                                             (3.0, 1.5, 0.5)])
    def test_block_above_game_cap_is_probed(self, R, S, value):
        # one preimage of EXACT_GAME_CAP + 1 points: only the two-point probe
        # bounds its value, so the report is inconclusive
        sp = path_space(msp_module.EXACT_GAME_CAP + 1)
        f = CoarseMap(sp, path_space(1), (0,) * sp.n)
        rep = map_msp_check(f, f.codomain.full(), R, S, 0.25, 0.0)
        assert rep["blocks"] == [{"block": [0], "value": value, "exact": False}]
        assert rep["exact"] is False and rep["achievable"] is None
        assert rep["worst_value"] == value == _pairwise_probe_reference(sp, range(sp.n), R, S)

    def test_bad_threshold_rejected(self):
        f = fold_map(3)
        with pytest.raises(InputError):
            map_msp_check(f, f.codomain.full(), 1.0, 1.0, 1.5, 1.0)

    @pytest.mark.parametrize("A", [{99}, {-1}, {0, 1.0}], ids=["too-large", "negative", "float"])
    def test_set_outside_the_codomain_rejected(self, A):
        # -1 once read the last codomain point and 99 failed with an IndexError
        f = fold_map(3)
        with pytest.raises(InputError, match=r"^A \[.*\] are not points of the owning space$"):
            map_msp_check(f, A, 10.0, 0.0, 0.25, 0.0)

    def test_subset_of_another_space_rejected(self):
        # domain points 0 and 1 (-3 and -2) were once read as codomain points
        f = fold_map(3)
        with pytest.raises(InputError, match="subset of the codomain"):
            map_msp_check(f, Subset(f.domain, frozenset({0, 1})), 10.0, 0.0, 0.25, 0.0)


def _pairwise_probe_reference(space, pts, R, S):
    """The two-point probe as a loop over pairs: 1/2 when some pair lies
    closer than R but farther than S apart."""
    best = 1.0
    for a, b in itertools.combinations(pts, 2):
        d = space.dmat[a, b]
        if d < R and d > S:
            best = min(best, 0.5)
    return best


def _whole(sp):
    return fam(sp, range(sp.n))


def _witness(sp, *scales):
    """A valid witness: the whole space as one family per scale."""
    return ApcWitness(sp, scales, tuple(_whole(sp) for _ in scales))


def _tree(sp):
    """A valid two-level partition tree on path_space(8): halves at scale 1."""
    return DecompositionTree(sp, (_whole(sp), fam(sp, range(4), range(4, 8))), (1.0,), (2,),
                             ((((0, 1),),),), terminal_mesh=3.0)


_C = LinearControl(1.0)
nan = math.nan

# One case per public entry and numeric argument, on path_space(8) inputs that
# are valid but for the NaN.  Each id names the entry, then the argument.
NAN_CASES = {
    "asdim-mesh_cap": lambda sp: asdim_at_scale(sp, 1.0, nan),
    "mass-R": lambda sp: best_mass_family(sp, uniform(sp), nan, 1.0),
    "mass-S": lambda sp: best_mass_family(sp, uniform(sp), 1.0, nan),
    "game-R": lambda sp: map_msp_check(identity_map(sp), sp.full(), nan, 1.0, 0.5, 1.0),
    "game-S": lambda sp: map_msp_check(identity_map(sp), sp.full(), 1.0, nan, 0.5, 1.0),
    "game-K": lambda sp: map_msp_check(identity_map(sp), sp.full(), 1.0, 1.0, 0.5, nan),
    "push-R": lambda sp: msp_pushforward(identity_map(sp), 1, uniform(sp), nan,
                                         best_mass_family(sp, uniform(sp), 1.0, 2.0), uniform(sp)),
    # the sign rule, checked after the guard
    "push-R-negative": lambda sp: msp_pushforward(
        identity_map(sp), 1, uniform(sp), -1.0, best_mass_family(sp, uniform(sp), 1.0, 2.0),
        uniform(sp)),
    "game-c": lambda sp: map_msp_check(identity_map(sp), sp.full(), 1.0, 1.0, nan, 1.0),
    "asdim-R": lambda sp: asdim_at_scale(sp, nan, 2.0),
    "half-mass-R": lambda sp: half_mass_witness(sp, uniform(sp), nan),
    "asdim-to-msp-R": lambda sp: asdim_to_msp(FamilyOfSets(sp, (frozenset(range(8)),), (0,)),
                                              nan, uniform(sp)),
    "pull-R_X": lambda sp: msp_pullback(identity_map(sp), uniform(sp), nan, K=7.0, S=7.0),
    "pull-K": lambda sp: msp_pullback(identity_map(sp), uniform(sp), 1.0, K=nan, S=7.0),
    "pull-S": lambda sp: msp_pullback(identity_map(sp), uniform(sp), 1.0, K=7.0, S=nan),
    "pull-R_Y": lambda sp: msp_pullback(identity_map(sp), uniform(sp), 1.0, K=7.0, S=7.0,
                                        R_Y=nan),
    "measure-weights": lambda sp: ProbMeasure(sp, (1.0,) * 7 + (nan,)),
    "neighborhood-R": lambda sp: neighborhood(Subset(sp, frozenset({0})), nan),
    "components-R": lambda sp: components(sp, range(8), nan, strict=True),
    "r-components-R": lambda sp: r_components(sp.full(), nan),
    "dim-R": lambda sp: dim_at_scale(_whole(sp), nan),
    "disjoint-R": lambda sp: is_r_disjoint(fam(sp, {0}, {7}), nan),
    "make-disjoint-R": lambda sp: make_disjoint(_whole(sp), nan, 0),
    "step-r": lambda sp: StepFunction(((nan, 1.0),)),
    "step-value": lambda sp: StepFunction(((0.0, nan),)),
    "step-call-r": lambda sp: control_upper(identity_map(sp))(nan),
    "linear-a": lambda sp: LinearControl(nan),
    "linear-b": lambda sp: LinearControl(1.0, nan),
    "linear-call-r": lambda sp: _C(nan),
    "pullback-family-d": lambda sp: pullback_family(identity_map(sp), fam(sp, {0}, {7}), nan),
    "bounded-sets-r": lambda sp: maximal_r_bounded_sets(sp, nan),
    "profile-r": lambda sp: n_to_1_profile(identity_map(sp), nan, 1.0),
    "profile-R": lambda sp: n_to_1_profile(identity_map(sp), 1.0, nan),
    "control-c_cap": lambda sp: n_to_1_control(identity_map(sp), 1, c_cap=nan),
    "verify-n-to-1-r": lambda sp: verify_n_to_1(identity_map(sp), 1, _C, nan),
    "push-cover-r": lambda sp: pushforward_cover(identity_map(sp), _whole(sp), nan, 1, _C),
    "factorize-R": lambda sp: factorize(identity_map(sp), nan),
    "asdim-zero-r": lambda sp: asdim_zero_witness(identity_map(sp), 1, _C, nan, 1.0),
    "asdim-zero-R": lambda sp: asdim_zero_witness(identity_map(sp), 1, _C, 1.0, nan),
    "apc-witness-scales": lambda sp: apc_witness(sp, [nan, 2.0], 3.0),
    "apc-witness-mesh_cap": lambda sp: apc_witness(sp, [1.0], nan),
    "apc-witness-class-scales": lambda sp: _witness(sp, nan),
    "verify-apc-mesh_cap": lambda sp: verify_apc_witness(_witness(sp, 1.0), mesh_cap=nan),
    "dim-sequence-scales": lambda sp: DimSequenceWitness(sp, (nan,), (0,), (_whole(sp),)),
    "normalize-M": lambda sp: apc_normalize(DimSequenceWitness(sp, (1.0,), (0,), (_whole(sp),)),
                                            [nan]),
    "apc-push-target_scales": lambda sp: apc_pushforward(identity_map(sp), 1, _C,
                                                         _witness(sp, 1.0), [nan]),
    "apc-pull-target_scales": lambda sp: apc_pullback(identity_map(sp), _witness(sp, 1.0),
                                                      [nan], 8.0),
    "apc-pull-M": lambda sp: apc_pullback(identity_map(sp), _witness(sp, 1.0), [1.0], nan),
    "tree-scales": lambda sp: DecompositionTree(sp, (_whole(sp), _whole(sp)), (nan,), (1,),
                                                ((((0,),),),), terminal_mesh=7.0),
    "tree-terminal_mesh": lambda sp: DecompositionTree(sp, (_whole(sp),), (), (), (),
                                                       terminal_mesh=nan),
    "tree-cover-R": lambda sp: tree_to_cover(_tree(sp), nan),
    "tree-pull-target_scales": lambda sp: tree_pullback(identity_map(sp), _tree(sp), 1, _C,
                                                        [nan]),
    "tree-pull-component_scale": lambda sp: tree_pullback(
        identity_map(sp), _tree(sp), 1, _C, [1.0], component_scale=nan),
    "tree-push-target_scales": lambda sp: tree_pushforward(identity_map(sp), _tree(sp), 1, _C,
                                                           [nan]),
}


@pytest.mark.parametrize("call", NAN_CASES.values(), ids=NAN_CASES.keys())
def test_nan_parameter_rejected(call):
    # a NaN bound fails every comparison, so a sign check alone lets it through
    # to a certified result
    with pytest.raises(InputError):
        call(path_space(8))


def test_valid_inputs_of_the_nan_cases_are_accepted():
    # the NaN is the only fault in each case above
    sp = path_space(8)
    f = identity_map(sp)
    assert msp_pullback(f, uniform(sp), 1.0, K=7.0, S=7.0, R_Y=2.0).mass == 1.0
    assert verify_n_to_1(f, 1, _C, 1.0) == (True, None)
    assert tree_to_cover(_tree(sp), 1.0).colors == (0, 0)
    tree_pullback(f, _tree(sp), 1, _C, [1.0], component_scale=1.0)
    tree_pushforward(f, _tree(sp), 1, _C, [0.5])
    apc_normalize(DimSequenceWitness(sp, (1.0,), (0,), (_whole(sp),)), [1.0])
    apc_pushforward(f, 1, _C, _witness(sp, 1.0), [1.0])
    apc_pullback(f, _witness(sp, 1.0), [1.0], 8.0)
    asdim_zero_witness(f, 1, _C, 1.0, 1.0)
    DecompositionTree(sp, (_whole(sp), _whole(sp)), (1.0,), (1,), ((((0,),),),),
                      terminal_mesh=7.0)


def test_pullback_names_its_own_parameters():
    # each parameter is checked at msp_pullback's own entry, under its own name
    sp = path_space(8)
    with pytest.raises(InputError, match=r"^K must not be NaN$"):
        msp_pullback(identity_map(sp), uniform(sp), 1.0, K=math.nan, S=7.0)
    with pytest.raises(InputError, match=r"^K must be >= 0$"):
        msp_pullback(identity_map(sp), uniform(sp), 1.0, K=-1.0, S=7.0)
    with pytest.raises(InputError, match=r"^R_X must be >= 0$"):
        msp_pullback(identity_map(sp), uniform(sp), -1.0, K=7.0, S=7.0)
