"""Randomized invariant checks for the core primitives."""

import itertools
import math
import random
import warnings

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from coarsekit import (
    CertificateError,
    CoarseMap,
    DecompositionTree,
    DisjointificationTrace,
    FamilyOfSets,
    FiniteMetricSpace,
    InputError,
    MetricError,
    PreconditionError,
    ProbMeasure,
    Subset,
    best_mass_family,
    build_space,
    casdim_to_sfdc,
    components,
    control_upper,
    diameter,
    dim_at_scale,
    hausdorff_distance,
    is_partition_tree,
    is_r_disjoint,
    lebesgue_number,
    make_disjoint,
    maximal_r_bounded_sets,
    mesh,
    neighborhood,
    partition_refine,
    r_components,
    verify_tree,
)
from coarsekit.coarse_maps import (
    CLIQUE_ENUM_CAP,
    _component_relaxation,
    _hausdorff_quotient,
    _maximal_cliques,
    graph_coloring,
    min_max_diameter_partition,
)
from coarsekit.covers import split_on_carrier
from coarsekit.dimension import _dfs_apc, _exact_partition_search, _greedy_apc, _greedy_partition
from coarsekit.generators import cycle_space, grid_space, random_cover, random_space
from coarsekit.metric_core import (
    _ROW_BLOCK,
    _dist_outside,
    bits,
    bounded_components,
    point_masks,
    verify_metric,
)
from coarsekit.msp import _feasible_masks, _max_mass_mask, _maximal_feasible_sets
from coarsekit.serialization import tree_to_json
from coarsekit.trees import _require_valid


@st.composite
def small_spaces(draw, min_n=2):
    n = draw(st.integers(min_value=min_n, max_value=8))
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


def _ref_random_cover(rng, space, R, max_dim=3):
    """The sort-based generator: each chunk sorts every remaining point by
    (distance to its seed, index), each extension the whole complement by
    (distance to the chunk, index)."""
    n = space.n
    for _ in range(20):
        order = list(range(n))
        rng.shuffle(order)
        remaining = set(order)
        chunks = []
        pos = 0
        while remaining:
            while order[pos] not in remaining:
                pos += 1
            row = space.dmat[order[pos]].tolist()
            size = rng.randint(2, 6)
            chunk = set(sorted(remaining, key=lambda q: (row[q], q))[:size])
            remaining -= chunk
            chunks.append(chunk)
        sets = []
        for chunk in chunks:
            extra = rng.randint(0, 2)
            if extra:
                gap = space.dmat[:, sorted(chunk)].min(axis=1).tolist()
                others = sorted(set(range(n)) - chunk, key=lambda q: (gap[q], q))[:extra]
                chunk = chunk | set(others)
            sets.append(frozenset(chunk))
        fam = FamilyOfSets(space, tuple(sets))
        if dim_at_scale(fam, R) <= max_dim:
            return fam
    return None


@st.composite
def cover_spaces(draw):
    """random_space spaces up to 126 points (the largest the suites cover),
    plus grids and cycles, whose tied distances exercise the index rule."""
    kind = draw(st.sampled_from(["random", "grid", "cycle"]))
    if kind == "grid":
        return grid_space(draw(st.integers(1, 11)), draw(st.integers(1, 11)))
    if kind == "cycle":
        return cycle_space(draw(st.integers(3, 126)))
    return random_space(random.Random(draw(st.integers(0, 2**32 - 1))), 126)


@settings(max_examples=300, deadline=None)
@given(cover_spaces(), st.integers(0, 2**32 - 1), st.sampled_from([0.5, 1.0, 2.0, 3.0, 5.0]),
       st.integers(0, 3))
def test_random_cover_matches_sort_reference(sp, seed, R, max_dim):
    got_rng, ref_rng = random.Random(seed), random.Random(seed)
    got = random_cover(got_rng, sp, R, max_dim=max_dim)
    ref = _ref_random_cover(ref_rng, sp, R, max_dim=max_dim)
    assert got_rng.getstate() == ref_rng.getstate()
    assert (got is None) == (ref is None)
    if ref is not None:
        assert got.space is sp and got.sets == ref.sets
        assert all(type(x) is int for s in got.sets for x in s)


def _graph_cycle_reference(n):
    """The n-cycle through the graph route: unit edges, shortest paths."""
    edges = [[i, (i + 1) % n, 1] for i in range(n)]
    return build_space({"kind": "graph", "edges": edges, "labels": list(range(n))})


def test_cycle_space_matches_graph_route():
    for n in range(1, 201):
        got, ref = cycle_space(n), _graph_cycle_reference(n)
        assert got.labels == ref.labels
        assert got.dmat.dtype == ref.dmat.dtype and got.dmat.tobytes() == ref.dmat.tobytes(), n
        assert not got.dmat.flags.writeable


def test_cycle_space_rejects_what_the_graph_route_rejects():
    for n in (0, -3):
        with pytest.raises(InputError, match="^a graph must have at least one vertex$"):
            cycle_space(n)
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        cycle_space(6.0)


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
    feasible = bounded_components(sp, R, S)
    feas = [m for m in range(1, 1 << sp.n) if feasible(m)]
    reference = [m for m in feas if not any(m != o and m & o == m for o in feas)]
    assert _maximal_feasible_sets(sp, list(range(sp.n)), R, S) == reference


def _component_ok_reference(space, pts, R, mesh_cap):
    """The set-based feasibility test that ``bounded_components`` replaced."""
    return all(
        diameter(Subset(space, c)) <= mesh_cap for c in components(space, pts, R, strict=True)
    )


@settings(max_examples=150, deadline=None)
@given(small_spaces(), scales, st.floats(min_value=-1.0, max_value=30.0, allow_nan=False),
       st.data())
def test_bounded_components_matches_components_and_diameter(sp, R, S, data):
    feasible = bounded_components(sp, R, S)
    for mask in data.draw(st.lists(st.integers(0, (1 << sp.n) - 1), min_size=1, max_size=20)):
        pts = list(bits(mask))
        assert pts == [i for i in range(sp.n) if mask >> i & 1]
        assert feasible(mask) == _component_ok_reference(sp, pts, R, S)
    # a NaN bound bounds nothing, as in the reference
    assert not bounded_components(sp, R, math.nan)(1)
    assert not _component_ok_reference(sp, [0], R, math.nan)


def _components_union_find_reference(space, members, R, strict):
    """The union-find ``components`` that the mask walk replaced."""
    idx = sorted(members)
    sub = space.dmat[np.ix_(idx, idx)]
    adj = sub < R if strict else sub <= R
    parent = list(range(len(idx)))

    def find(u):
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    rows, cols = np.nonzero(np.triu(adj, 1))
    for a, b in zip(rows.tolist(), cols.tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    classes = {}
    for pos, p in enumerate(idx):
        classes.setdefault(find(pos), []).append(p)
    return tuple(frozenset(c) for c in classes.values())


@settings(max_examples=300, deadline=None)
@given(small_spaces(), st.one_of(scales, st.just(0.0), st.floats(-5.0, -0.0), st.just(math.nan)),
       st.booleans(), st.data())
def test_components_match_union_find_reference(sp, R, strict, data):
    members = data.draw(st.frozensets(st.integers(0, sp.n - 1)))
    if math.isnan(R):
        # a NaN scale compares false with every distance, so it is rejected, not answered
        with pytest.raises(InputError, match="R must not be NaN"):
            components(sp, members, R, strict=strict)
        return
    got = components(sp, members, R, strict=strict)
    ref = _components_union_find_reference(sp, members, R, strict)
    assert got == ref
    # same sets built in the same order, so they iterate alike (mass sums depend on it)
    assert [list(c) for c in got] == [list(c) for c in ref]


def _greedy_mass_reference(space, mu, R, S):
    """The greedy branch of ``best_mass_family`` with its own excision loop."""
    candidates, _ = maximal_r_bounded_sets(space, S)
    remaining = set(range(space.n))
    chosen, total = [], 0.0
    while True:
        best_set, best_m = None, 0.0
        for c in candidates:
            cc = frozenset(c) & frozenset(remaining)
            if not cc:
                continue
            m = mu.mass(cc)
            if m > best_m:
                best_set, best_m = cc, m
        if best_set is None or best_m <= 0.0:
            break
        chosen.append(best_set)
        total += best_m
        remaining -= {q for q in remaining if any(space.dmat[q, p] < R for p in best_set)}
    return chosen, total


@settings(max_examples=150, deadline=None)
@given(small_spaces(), st.floats(min_value=0.0, max_value=30.0, exclude_min=True), scales,
       st.data())
def test_greedy_mass_excision_matches_distance_loop(sp, R, S, data):
    weights = data.draw(st.lists(st.integers(0, 8), min_size=sp.n, max_size=sp.n).filter(any))
    mu = ProbMeasure(sp, tuple(float(w) for w in weights))
    out = best_mass_family(sp, mu, R, S, exact_cap=0)
    chosen, total = _greedy_mass_reference(sp, mu, R, S)
    assert [list(s) for s in out.family.sets] == [list(s) for s in chosen]
    assert out.mass == total


def _max_mass_reference(space, mu, R, S):
    """The enumeration the branch and bound replaced: the least feasible mask
    over the support with the greatest float mass."""
    best_mask, best = 0, -1.0
    for mask in _feasible_masks(bounded_components(space, R, S), mu.support()):
        m = mu.mass(frozenset(bits(mask)))
        if m > best:
            best_mask, best = mask, m
    return best_mask, best


@settings(max_examples=300, deadline=None)
@given(small_spaces(), scales, scales, st.sampled_from(["random", "zeros", "uniform"]), st.data())
def test_max_mass_search_matches_enumeration(sp, R, S, kind, data):
    if kind == "uniform":
        weights = [1] * sp.n  # every tie in mass is a tie in float
    else:
        low = 0 if kind == "zeros" else 1
        weights = data.draw(st.lists(st.integers(low, 8), min_size=sp.n, max_size=sp.n).filter(any))
    mu = ProbMeasure(sp, tuple(float(w) for w in weights))
    got = _max_mass_mask(bounded_components(sp, R, S), mu, mu.support())
    assert got == _max_mass_reference(sp, mu, R, S)
    out = best_mass_family(sp, mu, R, S)
    assert out.family.union() == frozenset(bits(got[0])) and out.mass == got[1]


def test_point_masks_rows_and_width():
    rel = np.zeros((3, 70), dtype=bool)
    rel[0, [0, 8, 69]] = True
    rel[2, 7] = True
    assert point_masks(rel) == [1 | 1 << 8 | 1 << 69, 0, 1 << 7]
    assert point_masks(np.zeros((0, 0), dtype=bool)) == []


def _greedy_partition_reference(space, R, mesh_cap):
    """The list-and-set greedy partition that the mask version replaced."""
    blocks, expansions = [], []
    mult = np.zeros(space.n, dtype=int)
    for p in range(space.n):
        best, best_cost = None, None
        for b, blk in enumerate(blocks):
            if any(space.dmat[p, q] > mesh_cap for q in blk):
                continue
            gained = [q for q in range(space.n) if space.dmat[q, p] < R and q not in expansions[b]]
            cost = max((mult[q] + 1 for q in gained), default=0)
            if best_cost is None or cost < best_cost:
                best, best_cost = b, cost
        new_cost = max(mult[q] + 1 for q in range(space.n) if space.dmat[q, p] < R)
        if best is None or new_cost < best_cost:
            blocks.append([])
            expansions.append(set())
            best = len(blocks) - 1
        blocks[best].append(p)
        for q in range(space.n):
            if space.dmat[q, p] < R and q not in expansions[best]:
                expansions[best].add(q)
                mult[q] += 1
    return FamilyOfSets(space, tuple(frozenset(b) for b in blocks))


def _exact_partition_search_reference(space, R, mesh_cap, upper):
    """The place/unplace search with per-block counters that the mask version replaced."""
    n = space.n
    near = [frozenset(q for q in range(n) if space.dmat[q, p] < R) for p in range(n)]
    best = {"dim": upper, "blocks": None}
    blocks, expansions = [], []
    mult = [0] * n
    state = {"curmax": 0}

    def place(p, b):
        undo = []
        for q in near[p]:
            exp = expansions[b]
            exp[q] = exp.get(q, 0) + 1
            if exp[q] == 1:
                mult[q] += 1
                undo.append(q)
                state["curmax"] = max(state["curmax"], mult[q])
        blocks[b].append(p)
        return undo

    def unplace(p, b, undo, prevmax):
        blocks[b].pop()
        for q in near[p]:
            expansions[b][q] -= 1
            if expansions[b][q] == 0:
                del expansions[b][q]
        for q in undo:
            mult[q] -= 1
        state["curmax"] = prevmax

    def dfs(p):
        if state["curmax"] - 1 >= best["dim"]:
            return
        if p == n:
            best["dim"] = state["curmax"] - 1
            best["blocks"] = [list(b) for b in blocks]
            return
        for b in range(len(blocks)):
            if any(space.dmat[p, q] > mesh_cap for q in blocks[b]):
                continue
            prevmax = state["curmax"]
            undo = place(p, b)
            dfs(p + 1)
            unplace(p, b, undo, prevmax)
        blocks.append([])
        expansions.append({})
        prevmax = state["curmax"]
        undo = place(p, len(blocks) - 1)
        dfs(p + 1)
        unplace(p, len(blocks) - 1, undo, prevmax)
        blocks.pop()
        expansions.pop()

    dfs(0)
    return None if best["blocks"] is None else (best["dim"], best["blocks"])


@settings(max_examples=80, deadline=None)
@given(small_spaces(), st.floats(min_value=0.5, max_value=30.0), scales)
def test_partition_searches_on_masks_match_set_references(sp, R, mesh_cap):
    near = [m | 1 << p for p, m in enumerate(point_masks(sp.dmat < R))]
    far = point_masks(sp.dmat > mesh_cap)
    greedy = _greedy_partition(sp, near, far)
    assert greedy.sets == _greedy_partition_reference(sp, R, mesh_cap).sets
    # the greedy bound prunes as in asdim_at_scale; an upper bound of n never does
    for upper in (dim_at_scale(greedy, R), sp.n):
        got = _exact_partition_search(near, far, upper)
        want = _exact_partition_search_reference(sp, R, mesh_cap, upper)
        if want is None:
            assert got is None
        else:
            assert (got[0], [list(bits(b)) for b in got[1]]) == want


def _greedy_apc_reference(space, scales, mesh_cap):
    assign = [None] * space.n
    per_family = [set() for _ in scales]
    residue = []
    for p in range(space.n):
        for i, R in enumerate(scales):
            if _component_ok_reference(space, per_family[i] | {p}, R, mesh_cap):
                per_family[i].add(p)
                assign[p] = i
                break
        else:
            residue.append(p)
    return assign, residue


def _dfs_apc_reference(space, scales, mesh_cap, budget):
    n, k = space.n, len(scales)
    assign = [None] * n
    per_family = [set() for _ in range(k)]
    nodes = {"used": 0, "exhausted": False}

    def dfs(p):
        if p == n:
            return True
        for i in range(k):
            nodes["used"] += 1
            if nodes["used"] > budget:
                nodes["exhausted"] = True
                return False
            if _component_ok_reference(space, per_family[i] | {p}, scales[i], mesh_cap):
                per_family[i].add(p)
                assign[p] = i
                if dfs(p + 1):
                    return True
                per_family[i].discard(p)
                assign[p] = None
            if nodes["exhausted"]:
                return False
        return False

    if dfs(0):
        return assign, True
    return None, not nodes["exhausted"]


@settings(max_examples=80, deadline=None)
@given(small_spaces(), st.lists(scales, min_size=1, max_size=3, unique=True),
       st.floats(min_value=0.0, max_value=12.0), st.sampled_from([1, 3, 10, 60, 10**4]))
def test_apc_searches_on_masks_match_set_references(sp, scale_list, mesh_cap, budget):
    scale_list = sorted(scale_list)
    tests = [bounded_components(sp, R, mesh_cap) for R in scale_list]
    assert _greedy_apc(sp.n, tests) == _greedy_apc_reference(sp, scale_list, mesh_cap)
    assert _dfs_apc(sp.n, tests, budget) == _dfs_apc_reference(sp, scale_list, mesh_cap, budget)


def _graph_space(n, edges):
    """The 1-2 metric of a graph: distance 1 on edges, 2 between non-neighbours."""
    d = np.full((n, n), 2.0)
    np.fill_diagonal(d, 0.0)
    for a, b in edges:
        d[a, b] = d[b, a] = 1.0
    return FiniteMetricSpace(list(range(n)), d, validate=False)


def _is_clique(sp, s):
    return all(sp.dmat[a, b] <= 1.0 for a, b in itertools.combinations(s, 2))


@st.composite
def graphs_with_within(draw):
    n = draw(st.integers(1, 12))
    pairs = list(itertools.combinations(range(n), 2))
    edges = [p for p, keep in zip(pairs, draw(st.lists(st.booleans(), min_size=len(pairs),
                                                        max_size=len(pairs)))) if keep]
    within = draw(st.one_of(st.none(), st.frozensets(st.integers(0, n - 1), min_size=1)))
    return _graph_space(n, edges), within


@settings(max_examples=300, deadline=None)
@given(graphs_with_within())
def test_maximal_r_bounded_sets_match_brute_force_cliques(data):
    sp, within = data
    pts = sorted(within) if within is not None else list(range(sp.n))
    reference = [
        frozenset(s)
        for k in range(1, len(pts) + 1)
        for s in itertools.combinations(pts, k)
        if _is_clique(sp, s) and not any(_is_clique(sp, s + (v,)) for v in pts if v not in s)
    ]
    sets, exact = maximal_r_bounded_sets(sp, 1.0, within=within)
    assert exact
    assert sets == sorted(reference, key=sorted)


@st.composite
def sparse_graphs_above_the_clique_cap(draw):
    n = draw(st.integers(CLIQUE_ENUM_CAP + 1, 90))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = draw(st.sampled_from([0.02, 0.05, 0.1]))
    return n, [(a, b) for a, b in itertools.combinations(range(n), 2) if rng.random() < p]


@settings(max_examples=25, deadline=None)
@given(sparse_graphs_above_the_clique_cap())
def test_maximal_r_bounded_sets_above_the_clique_cap_enumerate_inside_balls(data):
    # every 1-ball is a closed neighbourhood, far below the cap, so the union
    # of the cliques ball by ball is the exact answer on the whole graph
    n, edges = data
    sp = _graph_space(n, edges)
    sets, exact = maximal_r_bounded_sets(sp, 1.0)
    assert exact
    assert sets == sorted((frozenset(c) for c in _maximal_cliques(sp.dmat <= 1.0)), key=sorted)


def test_maximal_r_bounded_sets_at_the_clique_cap():
    # 64 points: bit 63 is the sign bit of int64, so masks must be Python ints
    rng = np.random.default_rng(7)
    n = CLIQUE_ENUM_CAP
    edges = [(a, b) for a, b in itertools.combinations(range(n), 2) if rng.random() < 0.3]
    sp = _graph_space(n, edges)
    sets, exact = maximal_r_bounded_sets(sp, 1.0)
    assert exact and len(set(sets)) == len(sets)
    for s in sets:
        assert _is_clique(sp, s)
        assert not any(_is_clique(sp, tuple(s) + (v,)) for v in range(n) if v not in s)
    # every vertex and every edge lies in some maximal clique
    assert frozenset().union(*sets) == frozenset(range(n))
    assert all(any({a, b} <= s for s in sets) for a, b in edges)


def _ref_control_upper(f):
    """The least control by one pass over the sorted (d_X, d_Y) pairs."""
    idx = list(f.assign)
    dy = f.codomain.dmat[np.ix_(idx, idx)]
    pairs = sorted(zip(f.domain.dmat.ravel().tolist(), dy.ravel().tolist()))
    bps, running, last_r = [], 0.0, None
    for r, v in pairs:
        running = max(running, v)
        if r != last_r:
            bps.append([r, running])
            last_r = r
        else:
            bps[-1][1] = running
    return tuple(tuple(bp) for bp in bps)


@settings(max_examples=200, deadline=None)
@given(small_spaces(), small_spaces(), st.data(), st.sampled_from([1.0, 0.1, 0.3]))
def test_control_upper_matches_sorted_pair_loop(X, Y, data, unit):
    # integer l1 clouds give many tied distances; a non-injective map gives
    # zero codomain distances off the diagonal; the units 0.1 and 0.3 make
    # the distances inexact floats
    X = FiniteMetricSpace(X.labels, X.dmat * unit, validate=False)
    assign = data.draw(st.lists(st.integers(0, Y.n - 1), min_size=X.n, max_size=X.n))
    f = CoarseMap(X, Y, tuple(assign))
    assert control_upper(f).breakpoints == _ref_control_upper(f)


# ---------------------------------------------------------------------------
# The set-family kernels against the per-set loops they replaced.


@st.composite
def families(draw, *, cover=False, min_n=2):
    """A space of ``min_n`` to 8 points with 1-5 sets: empty, whole-space and
    overlapping sets all occur; with ``cover`` the uncovered points are added
    as one more set."""
    sp = draw(small_spaces(min_n))
    pts = st.integers(0, sp.n - 1)
    sets = draw(st.lists(
        st.one_of(st.just(frozenset()), st.just(frozenset(range(sp.n))), st.frozensets(pts)),
        min_size=1, max_size=5))
    if cover:
        rest = frozenset(range(sp.n)).difference(*sets)
        if rest:
            sets.append(rest)
    return FamilyOfSets(sp, tuple(sets))


def _ref_dim_at_scale(F, R, closed):
    mult = np.zeros(F.space.n, dtype=int)
    for s in F.sets:
        for i in neighborhood(Subset(F.space, s), R, closed=closed).members:
            mult[i] += 1
    return int(mult.max()) - 1 if any(F.sets) else -1


def _ref_is_r_disjoint(F, R):
    sets = [sorted(s) for s in F.sets]
    for a in range(len(sets)):
        for b in range(a + 1, len(sets)):
            if not sets[a] or not sets[b]:
                continue
            block = F.space.dmat[np.ix_(sets[a], sets[b])]
            if block.min() < R:
                pa, pb = np.unravel_index(int(block.argmin()), block.shape)
                return False, ((a, sets[a][pa]), (b, sets[b][pb]), float(block.min()))
    return True, None


def _ref_lebesgue_number(F):
    allpts = set(range(F.space.n))
    best = math.inf
    for x in range(F.space.n):
        per_point = 0.0
        for s in F.sets:
            if x in s:
                outside = sorted(allpts - s)
                if not outside:
                    per_point = math.inf
                    break
                per_point = max(per_point, float(np.min(F.space.dmat[x, outside])))
        best = min(best, per_point)
    return best


def _ref_disjointification(U, R, n):
    """The margin sets, by the per-point cut loop."""
    sp, nsets = U.space, len(U.sets)
    allpts = set(range(sp.n))
    fvals = np.empty((nsets, sp.n))
    for k, s in enumerate(U.sets):
        outside = sorted(allpts - neighborhood(Subset(sp, s), R).members)
        fvals[k] = np.min(sp.dmat[:, outside], axis=1) if outside else math.inf
    gamma = R / (n + 1)
    margin = {}
    for x in range(sp.n):
        col = fvals[:, x]
        order = sorted(range(nsets), key=lambda s: (-col[s], s))
        vals = [col[s] for s in order] + [0.0]
        for cut in range(1, nsets + 1):
            hi, lo = vals[cut - 1], vals[cut]
            if hi == math.inf and lo < math.inf:
                gap_ok = True
            else:
                gap_ok = (hi - lo) >= gamma if hi < math.inf else False
            if gap_ok and hi > 0:
                margin.setdefault(tuple(sorted(order[:cut])), set()).add(x)
            if lo == 0.0:
                break
    return {T: frozenset(m) for T, m in margin.items()}


@settings(max_examples=200, deadline=None)
@given(families(), scales, st.booleans())
def test_family_kernels_match_per_set_loops(F, R, closed):
    assert dim_at_scale(F, R, closed=closed) == _ref_dim_at_scale(F, R, closed)
    assert is_r_disjoint(F, R) == _ref_is_r_disjoint(F, R)
    if F.covers_space():
        assert lebesgue_number(F) == _ref_lebesgue_number(F)


@settings(max_examples=200, deadline=None)
@given(families(cover=True), st.integers(1, 12))
def test_make_disjoint_matches_per_point_loops(U, Rint):
    R = float(Rint)
    n = dim_at_scale(U, R)
    colored, trace = make_disjoint(U, R, n)
    margin = _ref_disjointification(U, R, n)
    order = sorted(margin, key=lambda T: (len(T), T))
    assert trace.margin_sets == margin
    assert list(trace.margin_sets) == order
    assert colored.sets == tuple(margin[T] for T in order)
    assert colored.colors == tuple(len(T) - 1 for T in order)


def _ref_dist_outside(space, membership):
    """dist(x, X \\ U_k) for every point x, from the full column block of the
    complement; +inf along a whole-space row."""
    out = np.full(membership.shape, np.inf)
    for k, row in enumerate(membership):
        if not row.all():
            out[k] = space.dmat[:, ~row].min(axis=1)
    return out


@settings(max_examples=300, deadline=None)
@given(families(min_n=1), scales, st.booleans())
@example(FamilyOfSets(build_space({"kind": "cloud", "coords": [[0]]}),
                      (frozenset(), frozenset({0}))), 1.0, False)
def test_dist_outside_matches_full_column_reference(F, R, closed):
    # zeros off each row: a point outside U_k is its own nearest outside point
    for rows in (F.membership, F.expansion(R, closed=closed)):
        assert np.array_equal(_dist_outside(F.space, rows), _ref_dist_outside(F.space, rows))


# ---------------------------------------------------------------------------
# The symmetric, row-blocked triangle check against the loop that allocated
# two n x n temporaries per k and scanned every ordered pair.


def _ref_triangle_check(dmat):
    with np.errstate(over="ignore"):
        for k in range(dmat.shape[0]):
            slack = dmat - (dmat[:, k : k + 1] + dmat[k : k + 1, :])
            if np.any(slack > 0):
                bad = np.argwhere(slack > 0)[0]
                i, j = int(bad[0]), int(bad[1])
                raise MetricError(
                    f"triangle violation at ({i},{k},{j}): "
                    f"d({i},{j}) = {dmat[i, j]} > {dmat[i, k]} + {dmat[k, j]}"
                )


@st.composite
def triangle_tables(draw):
    """Symmetric tables with a zero diagonal and positive finite entries, so
    only the triangle check can reject them: the l1 metric of 1-12 integer
    points, scaled to integer or fractional values, with up to three entries
    and their mirrors overwritten to plant violations (1e308 makes the sums
    through it overflow)."""
    n = draw(st.integers(1, 12))
    dim = draw(st.integers(1, 3))
    pts = np.array(draw(st.lists(st.tuples(*[st.integers(0, 12)] * dim),
                                 min_size=n, max_size=n, unique=True)), dtype=float)
    d = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
    d *= draw(st.sampled_from([1.0, 3.0, 0.1, 1 / 3, 2.5]))
    if n >= 2:
        for _ in range(draw(st.integers(0, 3))):
            i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            d[i, j] = d[j, i] = draw(st.one_of(
                st.integers(1, 40).map(float),
                st.floats(0.01, 40.0),
                st.just(1e308)))
    return d


def _metric_outcome(check, dmat):
    try:
        check(dmat)
    except MetricError as e:
        return str(e)
    return None


@settings(max_examples=500, deadline=None)
@given(triangle_tables())
@example(np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]]))
@example(np.array([[0.0, 0.3, 0.1], [0.3, 0.0, 0.2], [0.1, 0.2, 0.0]]))
def test_verify_metric_matches_slack_loop(dmat):
    assert _metric_outcome(verify_metric, dmat) == _metric_outcome(_ref_triangle_check, dmat)


@st.composite
def blocked_triangle_tables(draw):
    """Symmetric l1 tables of 1-160 points, so the triangle check spans one to
    three row blocks, with up to three changes: a point moved 1e308 away from
    all others, so every sum through it overflows, or an entry and its mirror
    raised (by up to 40, or to 1e308) or lowered (violations only at k in
    {i, j}).  The entry is drawn from the whole table, from two different
    blocks, or from the last block alone, where every failing k lies past the
    first block."""
    n = draw(st.integers(1, 160))
    xs = np.cumsum(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)))
    ys = np.array(draw(st.lists(st.integers(0, 20), min_size=n, max_size=n)))
    order = np.array(draw(st.permutations(range(n))))
    pts = np.stack([xs, ys], axis=1)[order].astype(float)
    d = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
    d *= draw(st.sampled_from([1.0, 0.1, 1 / 3]))
    if n < 2:
        return d
    last = (n - 1) // _ROW_BLOCK * _ROW_BLOCK
    for _ in range(draw(st.integers(0, 3))):
        where = draw(st.sampled_from(["far", "any", "across", "last"]))
        if where == "far":
            p = draw(st.integers(0, n - 1))
            d[p, :] = d[:, p] = 1e308
            d[p, p] = 0.0
            continue
        if where == "across" and last > 0:
            i = draw(st.integers(0, last - 1))
            j = draw(st.integers(i // _ROW_BLOCK * _ROW_BLOCK + _ROW_BLOCK, n - 1))
        elif where == "last" and n - last >= 2:
            i, j = draw(st.lists(st.integers(last, n - 1), min_size=2, max_size=2, unique=True))
        else:
            i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        d[i, j] = d[j, i] = draw(st.one_of(
            st.floats(1.0, 40.0).map(lambda grow: d[i, j] + grow),
            st.floats(0.01, 0.99).map(lambda shrink: d[i, j] * shrink),
            st.just(1e308)))
    return d


def _path_table(n):
    return np.abs(np.subtract.outer(np.arange(n), np.arange(n))).astype(float)


def _with_entry(d, i, j, value):
    d = d.copy()
    d[i, j] = d[j, i] = value
    return d


def _with_far_point(d, p):
    d = d.copy()
    d[p, :] = d[:, p] = 1e308
    d[p, p] = 0.0
    return d


@settings(max_examples=40, deadline=None)
@given(blocked_triangle_tables())
# lowered inside the third block: every failing k lies there
@example(_with_entry(_path_table(150), 130, 140, 0.5))
# raised across the first and third blocks: only block 0's rows see (i, j)
@example(_with_entry(_path_table(150), 3, 140, 200.0))
@example(_with_entry(_path_table(150), 70, 140, 1e308))
# sums through point 100 overflow before the violation at k = 130 is reached
@example(_with_entry(_with_far_point(_path_table(150), 100), 130, 140, 0.5))
def test_verify_metric_matches_slack_loop_across_row_blocks(dmat):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _metric_outcome(verify_metric, dmat) == _metric_outcome(_ref_triangle_check, dmat)


# ---------------------------------------------------------------------------
# The Hausdorff quotient's two reductions against the pairwise loop.


def _ref_hausdorff_quotient_matrix(space, classes):
    subs = [Subset(space, c) for c in classes]
    mat = np.zeros((len(subs), len(subs)))
    for a, b in itertools.combinations(range(len(subs)), 2):
        mat[a, b] = mat[b, a] = hausdorff_distance(subs[a], subs[b])
    return mat


@st.composite
def spaces_with_partitions(draw):
    """A space split into one class, into singletons, or by drawn class labels,
    the classes in a drawn order."""
    sp = draw(small_spaces(min_n=1))
    kind = draw(st.sampled_from(["one", "singletons", "drawn"]))
    if kind == "one":
        tags = [0] * sp.n
    elif kind == "singletons":
        tags = list(range(sp.n))
    else:
        tags = draw(st.lists(st.integers(0, sp.n - 1), min_size=sp.n, max_size=sp.n))
    classes = [frozenset(x for x in range(sp.n) if tags[x] == t) for t in sorted(set(tags))]
    return sp, draw(st.permutations(classes))


@settings(max_examples=200, deadline=None)
@given(spaces_with_partitions())
def test_hausdorff_quotient_matches_pairwise_loop(data):
    sp, classes = data
    p = _hausdorff_quotient(sp, classes, [f"c{k}" for k in range(len(classes))])
    assert np.array_equal(p.codomain.dmat, _ref_hausdorff_quotient_matrix(sp, classes))
    assert all(x in classes[p(x)] for x in range(sp.n))


# ---------------------------------------------------------------------------
# The pushforward split, set closeness and colouring input against the
# pairwise loop, adjacency sets and restrict-disjointify-lift steps they replaced.


def _ref_closer_than(F, R):
    """One pairwise distance minimum per pair of nonempty sets."""
    rows = [sorted(s) for s in F.sets]
    out = np.zeros((len(rows), len(rows)), dtype=bool)
    for a, b in itertools.combinations(range(len(rows)), 2):
        if rows[a] and rows[b] and F.space.dmat[np.ix_(rows[a], rows[b])].min() < R:
            out[a, b] = out[b, a] = True
    return out


def _ref_graph_coloring(adj, k):
    """The backtracker on adjacency sets."""
    n = len(adj)
    colors = [None] * n
    order = sorted(range(n), key=lambda v: -len(adj[v]))

    def bt(pos):
        if pos == n:
            return True
        v = order[pos]
        used = {colors[u] for u in adj[v] if colors[u] is not None}
        upper = min(k, max((c for c in colors if c is not None), default=-1) + 2)
        for c in range(upper):
            if c not in used:
                colors[v] = c
                if bt(pos + 1):
                    return True
                colors[v] = None
        return False

    return colors if bt(0) else None


def _ref_split_on_carrier(space, sets, R, n):
    """Restrict to the carrier, make_disjoint, lift each colour class back."""
    carrier = frozenset().union(*sets)
    if not carrier:
        return [FamilyOfSets(space, ()) for _ in range(n + 1)], DisjointificationTrace(R, n, {})
    sub, old_of_new = space.subspace(carrier)
    new_of_old = {o: q for q, o in enumerate(old_of_new)}
    fam = FamilyOfSets(sub, tuple(frozenset(new_of_old[y] for y in s) for s in sets))
    colored, trace = make_disjoint(fam, R, n)
    lift = [FamilyOfSets(space, tuple(frozenset(old_of_new[q] for q in s) for s in c.sets))
            for c in colored.color_classes()]
    return lift, trace


def _split_outcome(split, space, sets, R, n):
    try:
        classes, trace = split(space, sets, R, n)
    except PreconditionError as e:
        return "PreconditionError", str(e)
    return [c.sets for c in classes], trace, list(trace.margin_sets.items())


split_scales = st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0])


@st.composite
def families_with_duplicates(draw):
    F = draw(families())
    dup = draw(st.lists(st.integers(0, len(F) - 1), max_size=2))
    return FamilyOfSets(F.space, F.sets + tuple(F.sets[k] for k in dup))


@settings(max_examples=300, deadline=None)
@given(families_with_duplicates(), split_scales)
def test_closer_than_matches_pairwise_minimum_loop(F, R):
    assert np.array_equal(F.closer_than(R), _ref_closer_than(F, R))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 9).flatmap(
    lambda n: st.tuples(st.lists(st.lists(st.booleans(), min_size=n, max_size=n),
                                 min_size=n, max_size=n),
                        st.integers(0, 4))))
def test_graph_coloring_matrix_matches_adjacency_sets(drawn):
    cells, k = drawn
    n = len(cells)
    # symmetric from the upper triangle; the drawn diagonal must be ignored
    rel = np.array(cells, dtype=bool).reshape(n, n)
    rel = np.triu(rel, 1) | np.triu(rel, 1).T | np.diag(np.diag(rel))
    adj = [{j for j in range(n) if rel[i, j] and j != i} for i in range(n)]
    assert graph_coloring(rel, k) == _ref_graph_coloring(adj, k)


@settings(max_examples=500, deadline=None)
@given(families_with_duplicates(), split_scales, st.integers(0, 3))
@example(FamilyOfSets(build_space({"kind": "cloud", "coords": [[0], [1]]}),
                      (frozenset(), frozenset())), 1.0, 1)
def test_split_on_carrier_matches_restrict_disjointify_lift(F, R, n):
    assert (_split_outcome(split_on_carrier, F.space, F.sets, R, n)
            == _split_outcome(_ref_split_on_carrier, F.space, F.sets, R, n))


# ---------------------------------------------------------------------------
# The binary conversion against the peel state machine it replaced.


@st.composite
def decomposition_trees(draw):
    """A tree on a path of 1-12 points.  Each set's points are dealt into up to
    four blocks and the blocks into up to three subfamilies, so empty sets and
    empty subfamilies occur; the next level is stored in a shuffled order; the
    branching bound runs from one below to two above the largest subfamily
    count; ``contains``-mode blocks may reach past their parent.  Scales up to
    2 make some trees invalid, and both conversions must then refuse alike."""
    n = draw(st.integers(1, 12))
    sp = build_space({"kind": "cloud", "coords": [[i] for i in range(n)]})
    mode = draw(st.sampled_from(["equal", "contains"]))
    levels, scales, branching, splits = [(frozenset(range(n)),)], [], [], []
    for _ in range(draw(st.integers(0, 3))):
        blocks, parts = [], []
        for parent in levels[-1]:
            nblocks = draw(st.integers(1, 4))
            ids = draw(st.lists(st.integers(0, nblocks - 1), min_size=len(parent),
                                max_size=len(parent)))
            nsub = draw(st.integers(1, 3))
            subs = [[] for _ in range(nsub)]
            for b in range(nblocks):
                block = frozenset(x for x, i in zip(sorted(parent), ids) if i == b)
                if mode == "contains":
                    block |= draw(st.frozensets(st.integers(0, n - 1), max_size=1))
                subs[draw(st.integers(0, nsub - 1))].append(len(blocks))
                blocks.append(block)
            parts.append(subs)
        order = draw(st.permutations(range(len(blocks))))
        slot = {old: new for new, old in enumerate(order)}
        levels.append(tuple(blocks[old] for old in order))
        splits.append(tuple(tuple(tuple(slot[j] for j in sub) for sub in subs)
                            for subs in parts))
        widest = max(len(subs) for subs in parts)
        branching.append(max(1, widest + draw(st.sampled_from([-1, 0, 0, 1, 2]))))
        scales.append(draw(st.sampled_from([0.5, 1, 1.0, 2.0])))
    return DecompositionTree(
        sp, tuple(FamilyOfSets(sp, lvl) for lvl in levels), tuple(scales),
        tuple(branching), tuple(splits),
        terminal_mesh=draw(st.sampled_from([1.0, 3.0, math.inf, math.inf])), union_mode=mode)


def _ref_casdim_to_sfdc(t):
    """The binary conversion with ("orig" | "rem" | "exposed") state per set."""
    _require_valid(t, "casdim")
    if t.union_mode != "equal":
        raise PreconditionError("conversion needs union mode 'equal'; refine first")
    space = t.space
    out_levels = [t.levels[0]]
    out_scales, out_branching, out_splits = [], [], []
    state = [("orig", 1, 0)]
    for i in range(1, t.depth):
        R = t.scales[i - 1]
        n_i = t.branching[i - 1]
        for m in range(1, n_i + 1):
            next_sets, next_state, table = [], [], []
            for k, s in enumerate(out_levels[-1].sets):
                st_ = state[k]
                if st_[0] == "orig" and st_[1] == i and m == 1:
                    peeled, rest = _ref_peel(t.children_of(i, st_[2]), 0)
                    subfams_out = _ref_emit(peeled, rest, i, st_[2], 1, next_sets, next_state, t)
                elif st_[0] == "rem" and st_[1] == i:
                    peeled, rest = _ref_peel(t.children_of(i, st_[2]), st_[3])
                    subfams_out = _ref_emit(
                        peeled, rest, i, st_[2], st_[3] + 1, next_sets, next_state, t)
                else:
                    next_sets.append(s)
                    next_state.append(st_)
                    subfams_out = [(len(next_sets) - 1,)]
                table.append(tuple(subfams_out))
            out_levels.append(FamilyOfSets(space, tuple(next_sets)))
            out_scales.append(R)
            out_branching.append(2)
            out_splits.append(tuple(table))
            state = next_state
        new_state = []
        for st_ in state:
            if st_[0] == "exposed":
                new_state.append(("orig", i + 1, st_[1]))
            else:
                raise CertificateError("peeling left an unexposed remainder")
        state = new_state
    out = DecompositionTree(space, tuple(out_levels), tuple(out_scales),
                            tuple(out_branching), tuple(out_splits), t.terminal_mesh,
                            union_mode="equal")
    rep = verify_tree(out, "sfdc")
    if not rep.ok:
        raise CertificateError(f"converted tree invalid in sfdc mode: {rep.violations[:3]}")
    return out


def _ref_peel(subfams, done):
    rest = subfams[done:]
    if not rest:
        return (), ()
    return rest[0], rest[1:]


def _ref_emit(peeled, rest, level, orig_k, done, next_sets, next_state, t):
    nxt = t.levels[level]
    subfams_out = []
    if peeled:
        sub = []
        for j in peeled:
            next_sets.append(nxt.sets[j])
            next_state.append(("exposed", j))
            sub.append(len(next_sets) - 1)
        subfams_out.append(tuple(sub))
    if rest:
        rem = frozenset()
        for sub2 in rest:
            for j in sub2:
                rem |= nxt.sets[j]
        if rem:
            next_sets.append(rem)
            next_state.append(("rem", level, orig_k, done))
            subfams_out.append((len(next_sets) - 1,))
    return subfams_out


def _outcome(convert, t):
    """("ok", the tree as JSON) or (error type, message)."""
    try:
        return "ok", tree_to_json(convert(t))
    except (CertificateError, PreconditionError) as e:
        return type(e).__name__, str(e)


@settings(max_examples=300, deadline=None)
@given(decomposition_trees())
def test_casdim_to_sfdc_matches_peel_reference(t):
    assert _outcome(casdim_to_sfdc, t) == _outcome(_ref_casdim_to_sfdc, t)
    try:
        refined = partition_refine(t)
    except PreconditionError:
        return
    assert _outcome(casdim_to_sfdc, refined) == _outcome(_ref_casdim_to_sfdc, refined)


def _is_partition_tree_reference(t):
    """The set-union and length loop that the membership column sums replaced."""
    allpts = frozenset(range(t.space.n))
    for lvl in t.levels:
        seen = set()
        total = 0
        for s in lvl.sets:
            seen |= s
            total += len(s)
        if seen != allpts or total != t.space.n:
            return False
    return True


@settings(max_examples=300, deadline=None)
@given(families())
def test_is_partition_tree_matches_union_reference_on_families(F):
    # one-level trees: overlaps, uncovered points and empty sets all occur
    t = DecompositionTree(F.space, (F,), (), (), (), terminal_mesh=0.0)
    assert is_partition_tree(t) is _is_partition_tree_reference(t)


@settings(max_examples=200, deadline=None)
@given(decomposition_trees())
def test_is_partition_tree_matches_union_reference_on_trees(t):
    assert is_partition_tree(t) is _is_partition_tree_reference(t)
    try:
        refined = partition_refine(t)
    except PreconditionError:
        return
    assert is_partition_tree(refined) and _is_partition_tree_reference(refined)
