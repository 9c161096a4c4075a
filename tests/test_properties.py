"""Randomized invariant checks for the core primitives."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from coarsekit import (
    FamilyOfSets,
    Subset,
    build_space,
    components,
    diameter,
    dim_at_scale,
    hausdorff_distance,
    inner_neighborhood,
    is_r_disjoint,
    make_disjoint,
    mesh,
    neighborhood,
    r_components,
)
from coarsekit.coarse_maps import _component_relaxation, min_max_diameter_partition
from coarsekit.msp import _feasibility, _maximal_feasible_sets


@st.composite
def small_spaces(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    coords = draw(
        st.lists(
            st.tuples(st.integers(0, 20), st.integers(0, 20)),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    return build_space({"kind": "cloud", "coords": [list(c) for c in coords], "norm": "l1"})


@st.composite
def spaces_with_subsets(draw, k=2):
    sp = draw(small_spaces())
    subs = []
    for _ in range(k):
        members = draw(
            st.sets(st.integers(0, sp.n - 1), min_size=1, max_size=sp.n)
        )
        subs.append(Subset(sp, frozenset(members)))
    return sp, subs


scales = st.floats(min_value=0.0, max_value=30.0, allow_nan=False)


@settings(max_examples=150, deadline=None)
@given(spaces_with_subsets(k=3), scales)
def test_hausdorff_is_a_metric(data, R):
    sp, (A, B, C) = data
    dab = hausdorff_distance(A, B)
    dbc = hausdorff_distance(B, C)
    dac = hausdorff_distance(A, C)
    assert dab >= 0
    assert dab == hausdorff_distance(B, A)
    assert dac <= dab + dbc + 1e-9
    if A.members == B.members:
        assert dab == 0.0


@settings(max_examples=150, deadline=None)
@given(spaces_with_subsets(k=1), scales, scales)
def test_neighborhood_monotone_and_nested(data, R1, R2):
    sp, (A,) = data
    lo, hi = sorted((R1, R2))
    assert neighborhood(A, lo).members <= neighborhood(A, hi).members
    assert A.members <= neighborhood(A, lo).members
    assert inner_neighborhood(A, hi).members <= inner_neighborhood(A, lo).members
    assert A.members <= inner_neighborhood(neighborhood(A, lo), lo).members


def _step(sp, R, strict):
    return (lambda x, y: sp.d(x, y) < R) if strict else (lambda x, y: sp.d(x, y) <= R)


@settings(max_examples=100, deadline=None)
@given(spaces_with_subsets(k=1), scales)
def test_r_components_partition_and_separate(data, R):
    sp, (A,) = data
    assert tuple(c.members for c in r_components(A, R)) == components(
        sp, A.members, R, strict=False
    )
    for strict in (False, True):
        step = _step(sp, R, strict)
        comps = components(sp, A.members, R, strict=strict)
        assert frozenset().union(*comps) == A.members
        assert sum(len(c) for c in comps) == len(A.members)
        assert [min(c) for c in comps] == sorted(min(c) for c in comps)
        for a, b in itertools.combinations(comps, 2):
            assert not any(step(x, y) for x in a for y in b)
        for c in comps:
            # chain-connected: a walk by steps from the least member reaches all of c
            reached, frontier = {min(c)}, [min(c)]
            while frontier:
                x = frontier.pop()
                nxt = {y for y in c - reached if step(x, y)}
                reached |= nxt
                frontier.extend(nxt)
            assert reached == c


@settings(max_examples=100, deadline=None)
@given(spaces_with_subsets(k=3), scales, scales)
def test_dim_at_scale_monotone_in_R(data, R1, R2):
    sp, subs = data
    F = FamilyOfSets(sp, tuple(s.members for s in subs))
    lo, hi = sorted((R1, R2))
    assert dim_at_scale(F, lo) <= dim_at_scale(F, hi)


@settings(max_examples=100, deadline=None)
@given(spaces_with_subsets(k=2), scales, scales)
def test_r_disjointness_antitone_in_R(data, R1, R2):
    sp, subs = data
    F = FamilyOfSets(sp, tuple(s.members for s in subs))
    lo, hi = sorted((R1, R2))
    ok_hi, _ = is_r_disjoint(F, hi)
    if ok_hi:
        ok_lo, _ = is_r_disjoint(F, lo)
        assert ok_lo


@settings(max_examples=60, deadline=None)
@given(small_spaces(), st.integers(1, 4))
def test_make_disjoint_certificate_on_ball_covers(sp, Rint):
    R = float(Rint)
    # cover by closed R-balls around every point
    sets = tuple(
        frozenset(q for q in range(sp.n) if sp.d(p, q) <= R) for p in range(sp.n)
    )
    F = FamilyOfSets(sp, sets)
    n = dim_at_scale(F, R)
    colored, _ = make_disjoint(F, R, n)
    assert colored.covers_space()
    assert colored.n_colors == n + 1
    for c in range(colored.n_colors):
        ok, wit = is_r_disjoint(colored.color_class(c), R / (n + 1))
        assert ok, wit
    assert mesh(colored) <= mesh(F) + 2 * R


@settings(max_examples=100, deadline=None)
@given(spaces_with_subsets(k=1))
def test_diameter_equals_max_pairwise(data):
    sp, (A,) = data
    pts = sorted(A.members)
    assert diameter(A) == max(
        (sp.d(a, b) for a in pts for b in pts), default=0.0
    )


@settings(max_examples=40, deadline=None)
@given(small_spaces(), st.integers(1, 3))
def test_partition_searches_match_exhaustive_references(sp, n):
    everything = frozenset(range(sp.n))
    d = sp.dmat.tolist()
    # reference: the best max part diameter over every labelling with n labels
    best = min(
        max((d[a][b] for a, b in itertools.combinations(range(sp.n), 2) if lab[a] == lab[b]),
            default=0.0)
        for lab in itertools.product(range(n), repeat=sp.n)
    )
    value, parts = min_max_diameter_partition(sp, everything, n)
    assert value == best
    assert len(parts) <= n and sorted(p for part in parts for p in part) == sorted(everything)
    assert max(diameter(Subset(sp, part)) for part in parts) == value
    # reference: the relaxation's least R with <= n R-components, by a linear scan
    R = next(R for R in sp.realized_distances() if len(r_components(sp.full(), R)) <= n)
    assert _component_relaxation(sp, everything, n) == max(
        diameter(c) for c in r_components(sp.full(), R)
    )


@settings(max_examples=60, deadline=None)
@given(small_spaces(), scales, scales)
def test_maximal_feasible_sets_match_pairwise_filter(sp, R, S):
    feasible = _feasibility(sp, R, S)
    feas = [m for m in range(1, 1 << sp.n) if feasible(m)]
    reference = [m for m in feas if not any(m != o and m & o == m for o in feas)]
    assert _maximal_feasible_sets(sp, list(range(sp.n)), R, S) == reference
