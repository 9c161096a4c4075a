"""Coarse maps between finite spaces: control profiles, coarsely n-to-1 analysis,
cover transfer, factorization, and finite-group quotients under the Hausdorff metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import networkx as nx
import numpy as np

from .controls import LinearControl, StepFunction
from .covers import FamilyOfSets, dim_at_scale, is_r_disjoint, make_disjoint
from .errors import CertificateError, InputError, PreconditionError, Refusal
from .metric_core import (
    FiniteMetricSpace,
    Subset,
    diameter,
    hausdorff_distance,
    r_components,
)

__all__ = [
    "CoarseMap",
    "GroupAction",
    "control_upper",
    "pullback_family",
    "maximal_r_bounded_sets",
    "n_to_1_profile",
    "n_to_1_control",
    "min_max_diameter_partition",
    "pushforward_cover",
    "pushforward_disjointify",
    "factorize",
    "symmetrize_metric",
    "group_quotient",
    "asdim_zero_witness",
]

EXACT_PARTITION_CAP = 16
CLIQUE_ENUM_CAP = 64


@dataclass(frozen=True)
class CoarseMap:
    """A total function between finite spaces, given by codomain index per point."""

    domain: FiniteMetricSpace
    codomain: FiniteMetricSpace
    assign: tuple

    def __post_init__(self):
        object.__setattr__(self, "assign", tuple(int(a) for a in self.assign))
        if len(self.assign) != self.domain.n:
            raise InputError("assignment must be total on the domain")
        if any(not (0 <= a < self.codomain.n) for a in self.assign):
            raise InputError("assignment targets outside the codomain")

    def __call__(self, x: int) -> int:
        return self.assign[x]

    def image_points(self) -> frozenset:
        return frozenset(self.assign)

    def is_surjective(self) -> bool:
        return self.image_points() == frozenset(range(self.codomain.n))

    def fiber(self, y: int) -> frozenset:
        return frozenset(x for x, fy in enumerate(self.assign) if fy == y)

    def preimage(self, B) -> frozenset:
        members = B.members if isinstance(B, Subset) else frozenset(B)
        return frozenset(x for x, fy in enumerate(self.assign) if fy in members)

    def image_set(self, A) -> frozenset:
        members = A.members if isinstance(A, Subset) else A
        return frozenset(self.assign[x] for x in members)


def control_upper(f: CoarseMap) -> StepFunction:
    """Minimal nondecreasing E with d_Y(f(x), f(y)) <= E(d_X(x, y)); attained values."""
    dx = f.domain.dmat
    idx = list(f.assign)
    dy = f.codomain.dmat[np.ix_(idx, idx)]
    pairs = sorted(zip(dx.ravel().tolist(), dy.ravel().tolist()))
    bps = []
    running = 0.0
    last_r = None
    for r, v in pairs:
        running = max(running, v)
        if last_r is None or r != last_r:
            bps.append([r, running])
            last_r = r
        else:
            bps[-1][1] = running
    # collapse to a proper nondecreasing step function over realized distances
    out = []
    cur = -1.0
    for r, v in bps:
        cur = max(cur, v)
        out.append((r, cur))
    return StepFunction(tuple(out), inclusive=True)


def pullback_family(f: CoarseMap, V: FamilyOfSets, d: float) -> FamilyOfSets:
    """Preimages of an E(d)-disjoint family are d-disjoint; empty preimages dropped."""
    if V.space is not f.codomain:
        raise InputError("family must live on the codomain")
    E = control_upper(f)
    ok, wit = is_r_disjoint(V, E(d))
    if not ok:
        raise PreconditionError(f"family is not E(d)={E(d)}-disjoint; witness {wit}")
    pre = tuple(f.preimage(s) for s in V.sets)
    out = FamilyOfSets(f.domain, tuple(s for s in pre if s))
    ok, wit = is_r_disjoint(out, d)
    if not ok:
        raise CertificateError("pullback not d-disjoint (tie at the control value)", witness=wit)
    return out


def maximal_r_bounded_sets(space: FiniteMetricSpace, r: float, *, within=None):
    """Maximal subsets of diameter <= r, as maximal cliques of the d<=r graph.

    Exact when the point count is <= CLIQUE_ENUM_CAP; above that, closed balls
    B(y, r) are used instead (every r-bounded set lies in one; their diameter
    may reach 2r).  Returns (sets, exact_flag).
    """
    pts = sorted(within) if within is not None else list(range(space.n))
    if len(pts) <= CLIQUE_ENUM_CAP:
        g = nx.Graph()
        g.add_nodes_from(pts)
        for a_pos, a in enumerate(pts):
            for b in pts[a_pos + 1 :]:
                if space.dmat[a, b] <= r:
                    g.add_edge(a, b)
        cliques = sorted(tuple(sorted(c)) for c in nx.find_cliques(g))
        return [frozenset(c) for c in cliques], True
    balls = set()
    for y in pts:
        balls.add(frozenset(z for z in pts if space.dmat[y, z] <= r))
    return sorted(balls, key=sorted), False


@dataclass(frozen=True)
class NTo1Profile:
    max_components: int
    max_component_diam: float
    witness: Optional[frozenset]
    exact: bool


def n_to_1_profile(f: CoarseMap, r: float, R: float) -> NTo1Profile:
    """Worst case, over maximal r-bounded B in Y, of the R-components of f^{-1}(B)."""
    subsets, exact = maximal_r_bounded_sets(f.codomain, r)
    worst_count, worst_diam, witness = 0, 0.0, None
    for B in subsets:
        pre = f.preimage(B)
        if not pre:
            continue
        comps = r_components(Subset(f.domain, pre), R)
        count = len(comps)
        dmax = max(diameter(c) for c in comps)
        if count > worst_count or (count == worst_count and dmax > worst_diam):
            worst_count, worst_diam, witness = count, dmax, B
    return NTo1Profile(worst_count, worst_diam, witness, exact)


def graph_coloring(adj, k: int):
    """A k-colouring (colour per vertex) of the graph with adjacency sets
    ``adj``, or None when none exists.  Backtracking over vertices by
    decreasing degree, least free colour first, a new colour at most one above
    the largest in use."""
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


def least_realized(block: np.ndarray, probe):
    """(d, probe(d)) for the least realized distance d of a distance block at
    which the monotone ``probe`` returns a result (once it does, it does at
    every larger distance); None when no distance gets one.  Gallops up from
    the smallest distance (indices 0, 1, 3, 7, ...), then bisects the last
    gap: an answer at index i costs O(log i) probes, none beyond index 2i + 1.
    """
    dists = np.unique(block).tolist()
    lo, hi, step = 0, 0, 1
    while (best := probe(dists[hi])) is None:
        if hi == len(dists) - 1:
            return None
        lo, hi, step = hi + 1, min(hi + step, len(dists) - 1), 2 * step
    best_val = dists[hi]
    while lo < hi:
        mid = (lo + hi) // 2
        got = probe(dists[mid])
        if got is not None:
            best_val, best, hi = dists[mid], got, mid
        else:
            lo = mid + 1
    return best_val, best


def min_max_diameter_partition(space: FiniteMetricSpace, members: frozenset, n: int):
    """Exact min over partitions into <= n parts of the max part diameter.

    Feasibility of a candidate diameter c is an n-colouring question on the
    conflict graph {pairs with d > c}; candidates are the realized pairwise
    distances.  Returns (value, parts).
    """
    pts = sorted(members)
    k = len(pts)
    if k == 0:
        raise PreconditionError("empty set has no partition")
    if k > EXACT_PARTITION_CAP:
        raise PreconditionError(f"exact partition search capped at {EXACT_PARTITION_CAP} points")
    if n >= k:
        return 0.0, [frozenset({p}) for p in pts]
    block = space.dmat[np.ix_(pts, pts)]
    rows = block.tolist()

    def parts_within(c):
        colors = graph_coloring([{j for j, d in enumerate(row) if d > c} for row in rows], n)
        if colors is None:
            return None
        parts = {}
        for p, col in zip(pts, colors):
            parts.setdefault(col, set()).add(p)
        return [frozenset(parts[col]) for col in sorted(parts)]

    found = least_realized(block, parts_within)
    if found is None:
        raise Refusal("no n-part partition exists even at full diameter", proved=True, witness=members)
    return found


@dataclass(frozen=True)
class NTo1Control:
    """Result of a coarsely n-to-1 control computation.

    ``step`` reports, per realized scale r, the least attained max-part
    diameter (the infimum of valid strict controls; ``inclusive=True`` means
    the bound is attained, so consumers must treat it as closed).
    ``relaxed_at`` lists the scales where the value is only an upper bound on
    the least control: the R-component relaxation replaced the exact partition
    search (a preimage above EXACT_PARTITION_CAP points), or closed balls
    replaced the maximal r-bounded sets (a codomain above CLIQUE_ENUM_CAP
    points).
    """

    n: int
    step: StepFunction
    relaxed_at: tuple = ()


def n_to_1_control(f: CoarseMap, n: int, *, c_cap: Optional[float] = None) -> NTo1Control:
    """Least closed control C making f coarsely n-to-1, an upper bound at the
    scales in ``relaxed_at``; Refusal when the control reaches ``c_cap``."""
    if n < 1:
        raise PreconditionError("n must be >= 1")
    Y = f.codomain
    scales = sorted({float(v) for v in Y.dmat.ravel()})
    bps = []
    relaxed = []
    prev = 0.0
    for r in scales:
        subsets, exact = maximal_r_bounded_sets(Y, r)
        if not exact:
            relaxed.append(r)
        worst = 0.0
        for B in subsets:
            pre = f.preimage(B)
            if not pre:
                continue
            if len(pre) <= EXACT_PARTITION_CAP:
                val, _ = min_max_diameter_partition(f.domain, pre, n)
            else:
                val = _component_relaxation(f.domain, pre, n)
                relaxed.append(r)
            worst = max(worst, val)
        if c_cap is not None and worst >= c_cap:
            raise Refusal(
                f"no valid control below the cap {c_cap} at scale {r} (needs {worst})",
                proved=True,
                witness=r,
            )
        prev = max(prev, worst)
        bps.append((r, prev))
    step = StepFunction(tuple(bps), inclusive=True, flags={"strict_infimum": True})
    return NTo1Control(n=n, step=step, relaxed_at=tuple(sorted(set(relaxed))))


def _component_relaxation(space: FiniteMetricSpace, members: frozenset, n: int) -> float:
    """Smallest realized R with <= n R-components; value = max component diameter.
    The count never grows with R and is 1 at the largest distance."""
    A = Subset(space, members)

    def at_most_n(R):
        comps = r_components(A, R)
        return comps if len(comps) <= n else None

    pts = sorted(members)
    _, comps = least_realized(space.dmat[np.ix_(pts, pts)], at_most_n)
    return max(diameter(c) for c in comps)


def verify_n_to_1(f: CoarseMap, n: int, C, r: float):
    """Check that every maximal r-bounded B splits into <= n parts of diam <= C(r).

    Exact for preimages up to EXACT_PARTITION_CAP points.  Above the cap the
    C(r)-components (steps d <= C(r)) are checked instead, and the check never
    accepts falsely: every part of diameter <= C(r) lies in one component, so
    a rejection by component count is exact; a rejection by component width
    is conservative, since a wide component might still split into narrow
    parts.

    A codomain above CLIQUE_ENUM_CAP points has its maximal r-bounded sets
    enumerated inside each closed ball B(y, r) (every r-bounded set lies in
    the ball around any of its points), not replaced by the balls, which may
    be 2r wide.  A ball itself above the cap is replaced by its own balls:
    conservative again, it may reject but never accepts falsely.  Returns
    (ok, witness).
    """
    cr = C(r)
    subsets, exact = maximal_r_bounded_sets(f.codomain, r)
    if not exact:
        subsets = dict.fromkeys(
            B for ball in subsets for B in maximal_r_bounded_sets(f.codomain, r, within=ball)[0]
        )
    for B in subsets:
        pre = f.preimage(B)
        if not pre:
            continue
        if len(pre) <= EXACT_PARTITION_CAP:
            val, _ = min_max_diameter_partition(f.domain, pre, n)
            if val > cr:
                return False, (B, val)
        else:
            comps = r_components(Subset(f.domain, pre), cr)
            if len(comps) > n:
                return False, (B, len(comps))
            width = max(diameter(c) for c in comps)
            if width > cr:
                return False, (B, width)
    return True, None


def pushforward_cover(f: CoarseMap, U: FamilyOfSets, r: float, n: int, C) -> FamilyOfSets:
    """Image family f(U) on f(X), with the dimension bound
    dim_r(f(U)) <= (dim_{C(r)}(U) + 1) * n - 1 verified.
    """
    if U.space is not f.domain:
        raise InputError("cover must live on the domain")
    if not U.covers_space():
        raise PreconditionError("U must cover the domain")
    ok, wit = verify_n_to_1(f, n, C, r)
    if not ok:
        raise PreconditionError(f"control verification failed at r={r}: witness {wit}")
    img_space, old_of_new = f.codomain.subspace(f.image_points())
    new_of_old = {o: k for k, o in enumerate(old_of_new)}
    sets = tuple(
        frozenset(new_of_old[y] for y in f.image_set(s)) for s in U.sets if s
    )
    out = FamilyOfSets(img_space, sets)
    closed = C.expansion_closed() if hasattr(C, "expansion_closed") else True
    m = dim_at_scale(U, C(r), closed=closed)
    bound = (m + 1) * n - 1
    got = dim_at_scale(out, r)
    if got > bound:
        raise CertificateError(
            f"pushforward dimension {got} exceeds the bound {bound}", witness=(r, m)
        )
    return out


def pushforward_disjointify(f: CoarseMap, U: FamilyOfSets, r: float, n: int, C):
    """Pushforward then disjointify: <= n*(m+1) color classes on f(X), each
    r/(n*(m+1))-disjoint, where m = dim_{C(r)}(U); covers f(X).

    Returns (colored family on the image subspace, trace, m).
    """
    closed = C.expansion_closed() if hasattr(C, "expansion_closed") else True
    m = dim_at_scale(U, C(r), closed=closed)
    img = pushforward_cover(f, U, r, n, C)
    colored, trace = make_disjoint(img, r, n * (m + 1) - 1)
    return colored, trace, m


@dataclass(frozen=True)
class Factorization:
    p: CoarseMap
    middle: FiniteMetricSpace
    q: CoarseMap
    adjusted_domain: FiniteMetricSpace
    classes: tuple
    class_diam_bound: float
    selection: tuple


def factorize(f: CoarseMap, R: float, n: Optional[int] = None) -> Factorization:
    """Factor f as q∘p through the space of R-components of fibers.

    The domain metric is first adjusted to max(1, d) on distinct points; the
    middle space carries the Hausdorff metric of the adjusted metric.  Each
    q-fiber has at most n points (n defaults to the observed maximum).
    """
    X = f.domain
    adj = np.where(np.eye(X.n, dtype=bool), 0.0, np.maximum(1.0, X.dmat))
    Xadj = FiniteMetricSpace(X.labels, adj, validate=False)
    classes = []
    fiber_counts = {}
    for y in sorted(f.image_points()):
        fib = f.fiber(y)
        comps = r_components(Subset(Xadj, fib), R)
        fiber_counts[y] = len(comps)
        classes.extend((y, c.members) for c in comps)
    observed = max(fiber_counts.values())
    if n is not None and observed > n:
        bad = max(fiber_counts, key=lambda y: fiber_counts[y])
        raise PreconditionError(
            f"R={R} too small: fiber of {bad} has {fiber_counts[bad]} components > n={n}"
        )
    n = observed if n is None else n
    classes.sort(key=lambda yc: min(yc[1]))
    class_of = {}
    for k, (_, members) in enumerate(classes):
        for x in members:
            class_of[x] = k
    zmat = np.zeros((len(classes), len(classes)))
    subs = [Subset(Xadj, members) for _, members in classes]
    for a in range(len(classes)):
        for b in range(a + 1, len(classes)):
            zmat[a, b] = zmat[b, a] = hausdorff_distance(subs[a], subs[b])
    Z = FiniteMetricSpace([f"c{k}" for k in range(len(classes))], zmat)
    p = CoarseMap(Xadj, Z, tuple(class_of[x] for x in range(X.n)))
    q = CoarseMap(Z, f.codomain, tuple(y for y, _ in classes))
    for x in range(X.n):
        if q(p(x)) != f(x):
            raise CertificateError("q∘p != f", witness=x)
    diam_bound = max(diameter(s) for s in subs)
    selection = tuple(min(members) for _, members in classes)
    return Factorization(
        p=p,
        middle=Z,
        q=q,
        adjusted_domain=Xadj,
        classes=tuple(members for _, members in classes),
        class_diam_bound=diam_bound,
        selection=selection,
    )


@dataclass(frozen=True)
class GroupAction:
    """A finite group acting on a space by permutations of its points.

    ``table[g][h]`` is the index of the composition g∘h; ``perms[g]`` maps a
    point index to its image under g.
    """

    space: FiniteMetricSpace
    table: tuple
    perms: tuple

    def __post_init__(self):
        table = tuple(tuple(int(v) for v in row) for row in self.table)
        perms = tuple(tuple(int(v) for v in p) for p in self.perms)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "perms", perms)
        k = len(table)
        if len(perms) != k:
            raise InputError("one permutation per group element required")
        if any(len(row) != k for row in table):
            raise InputError("composition table must be square")
        ident = [g for g in range(k) if all(table[g][h] == h and table[h][g] == h for h in range(k))]
        if len(ident) != 1:
            raise InputError("composition table has no unique identity")
        e = ident[0]
        object.__setattr__(self, "identity", e)
        for g in range(k):
            if not any(table[g][h] == e for h in range(k)):
                raise InputError(f"element {g} has no inverse")
        for g in range(k):
            for h in range(k):
                for i in range(k):
                    if table[table[g][h]][i] != table[g][table[h][i]]:
                        raise InputError("composition table is not associative")
        npts = self.space.n
        for g, p in enumerate(perms):
            if sorted(p) != list(range(npts)):
                raise InputError(f"element {g} does not act by a permutation")
        if perms[e] != tuple(range(npts)):
            raise InputError("identity does not act as the identity")
        for g in range(k):
            for h in range(k):
                comp = tuple(perms[g][perms[h][x]] for x in range(npts))
                if comp != perms[table[g][h]]:
                    raise InputError("action is not a homomorphism")

    @property
    def order(self) -> int:
        return len(self.table)

    def orbit(self, x: int) -> frozenset:
        return frozenset(p[x] for p in self.perms)

    def orbits(self) -> list[frozenset]:
        seen, out = set(), []
        for x in range(self.space.n):
            if x in seen:
                continue
            o = self.orbit(x)
            seen |= o
            out.append(o)
        return out


def symmetrize_metric(action: GroupAction) -> FiniteMetricSpace:
    """d(x, y) = sum over g of rho(g.x, g.y): a G-invariant metric on the same points."""
    sp = action.space
    d = np.zeros_like(sp.dmat)
    for p in action.perms:
        perm = np.asarray(p)
        d += sp.dmat[np.ix_(perm, perm)]
    out = FiniteMetricSpace(sp.labels, d, validate=False)
    for p in action.perms:
        perm = np.asarray(p)
        if not np.array_equal(d[np.ix_(perm, perm)], d):
            raise CertificateError("symmetrized metric is not G-invariant")
    return out


@dataclass(frozen=True)
class GroupQuotient:
    quotient: FiniteMetricSpace
    projection: CoarseMap
    symmetrized: FiniteMetricSpace
    orbits: tuple
    n: int
    control: LinearControl


def group_quotient(action: GroupAction) -> GroupQuotient:
    """Orbit space with the Hausdorff metric; the projection is 1-Lipschitz and
    coarsely |G|-to-1 with control C(r) = 2r (closed)."""
    sym = symmetrize_metric(action)
    sym_action = GroupAction(sym, action.table, action.perms)
    orbits = sorted(sym_action.orbits(), key=min)
    qmat = np.zeros((len(orbits), len(orbits)))
    subs = [Subset(sym, o) for o in orbits]
    for a in range(len(orbits)):
        for b in range(a + 1, len(orbits)):
            qmat[a, b] = qmat[b, a] = hausdorff_distance(subs[a], subs[b])
    Q = FiniteMetricSpace([f"o{min(o)}" for o in orbits], qmat)
    orbit_of = {}
    for k, o in enumerate(orbits):
        for x in o:
            orbit_of[x] = k
    proj = CoarseMap(sym, Q, tuple(orbit_of[x] for x in range(sym.n)))
    for x in range(sym.n):
        for y in range(sym.n):
            if qmat[proj(x), proj(y)] > sym.dmat[x, y]:
                raise CertificateError("projection is not 1-Lipschitz", witness=(x, y))
    return GroupQuotient(
        quotient=Q,
        projection=proj,
        symmetrized=sym,
        orbits=tuple(orbits),
        n=action.order,
        control=LinearControl(2.0, 0.0, inclusive=True),
    )


@dataclass(frozen=True)
class AsdimZeroReport:
    ok: bool
    worst_components: int
    worst_diam: float
    diam_bound: float
    witness: Optional[frozenset]


def asdim_zero_witness(f: CoarseMap, n: int, C, r: float, R: float) -> AsdimZeroReport:
    """Certify the degree-zero behavior: for every maximal r-bounded B, the
    R-components of f^{-1}(B) number at most n and have diameter <= 2nR."""
    if R < C(r):
        raise PreconditionError(f"R={R} must be at least C(r)={C(r)}")
    prof = n_to_1_profile(f, r, R)
    bound = 2 * n * R
    ok = prof.max_components <= n and prof.max_component_diam <= bound
    if not ok:
        raise CertificateError(
            "fiber components violate the coarsely n-to-1 certificate "
            f"(count {prof.max_components} vs n={n}, diam {prof.max_component_diam} vs {bound})",
            witness=prof.witness,
        )
    return AsdimZeroReport(ok, prof.max_components, prof.max_component_diam, bound, prof.witness)
