"""Coarse maps between finite spaces: control profiles, coarsely n-to-1 analysis,
cover transfer, factorization, and finite-group quotients under the Hausdorff metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .controls import LinearControl, StepFunction, as_control
from .covers import FamilyOfSets, dim_at_scale, is_r_disjoint, on_carrier
from .errors import CertificateError, InputError, PreconditionError, Refusal, check_number
from .metric_core import (
    FiniteMetricSpace,
    Subset,
    _block,
    _check_points,
    bits,
    diameter,
    point_masks,
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

    @cached_property
    def upper_control(self) -> StepFunction:
        """``control_upper(self)``, computed once per map: the map is frozen
        and both distance tables are read-only."""
        idx = list(self.assign)
        dx = self.domain.dmat.ravel()
        dy = _block(self.codomain.dmat, idx).ravel()
        order = np.lexsort((dy, dx))
        dx = dx[order]
        running = np.maximum.accumulate(np.maximum(dy[order], 0.0))
        # one breakpoint per realized distance: the r of its first pair (0.0
        # and -0.0 tie) and the running max at its last pair
        new_r = dx[1:] != dx[:-1]
        first = np.r_[True, new_r][: dx.size]
        last = np.r_[new_r, True][: dx.size]
        out = zip(dx[first].tolist(), running[last].tolist())
        return StepFunction(tuple(out), inclusive=True)


def control_upper(f: CoarseMap) -> StepFunction:
    """Minimal nondecreasing E with d_Y(f(x), f(y)) <= E(d_X(x, y)); attained
    values.  Cached on the map (``CoarseMap.upper_control``)."""
    return f.upper_control


def pullback_family(f: CoarseMap, V: FamilyOfSets, d: float) -> FamilyOfSets:
    """Preimages of an E(d)-disjoint family are d-disjoint; empty preimages dropped."""
    check_number(d, "d")
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
    """Maximal subsets of diameter <= r, as maximal cliques of the d<=r graph,
    sorted.  Returns (sets, exact_flag).

    Above CLIQUE_ENUM_CAP points the cliques are enumerated inside each closed
    ball B(y, r): y is adjacent to the whole ball, so its maximal cliques are
    exactly the maximal sets holding y.  A ball itself above the cap stands
    whole for its sets (its diameter may reach 2r), and the flag is False.
    """
    check_number(r, "r")
    if within is None:
        pts = list(range(space.n))
    else:
        pts = sorted(_check_points(space, tuple(within), "within"))
    groups = [tuple(pts)]
    if len(pts) > CLIQUE_ENUM_CAP:
        near = _block(space.dmat, pts) <= r
        groups = dict.fromkeys(tuple(pts[j] for j in np.flatnonzero(row)) for row in near)
    found = set()
    for g in groups:
        if len(g) > CLIQUE_ENUM_CAP:
            found.add(g)
        else:
            cliques = _maximal_cliques(_block(space.dmat, g) <= r)
            found.update(tuple(sorted(g[i] for i in c)) for c in cliques)
    return [frozenset(c) for c in sorted(found)], max(map(len, groups)) <= CLIQUE_ENUM_CAP


def _fiber_blocks(f: CoarseMap, r: float, within=None):
    """The n-to-1 walk: ([(B, f^-1(B)) for each maximal r-bounded B], exact), no empty f^-1(B)."""
    subsets, exact = maximal_r_bounded_sets(f.codomain, r, within=within)
    return [(B, pre) for B in subsets if (pre := f.preimage(B))], exact


def _maximal_cliques(adj):
    """Maximal cliques of a boolean adjacency matrix (diagonal ignored), as
    tuples of row indices: Bron–Kerbosch on bitmasks, pivoting on the vertex
    of cand | excl with the most neighbours in cand.  Neighbour masks come from
    ``point_masks``, so 64 and more vertices do not overflow."""
    nbr = [m & ~(1 << i) for i, m in enumerate(point_masks(adj))]
    out = []

    def expand(clique, cand, excl):
        if not cand:
            if not excl:
                out.append(clique)
            return
        best = -1
        for u in bits(cand | excl):
            degree = (nbr[u] & cand).bit_count()
            if degree > best:
                best, pivot = degree, u
        for v in bits(cand & ~nbr[pivot]):
            expand(clique + (v,), cand & nbr[v], excl & nbr[v])
            cand &= ~(1 << v)
            excl |= 1 << v

    if len(adj):
        expand((), (1 << len(adj)) - 1, 0)
    return out


@dataclass(frozen=True)
class NTo1Profile:
    max_components: int
    max_component_diam: float
    witness: Optional[frozenset]
    exact: bool


def n_to_1_profile(f: CoarseMap, r: float, R: float) -> NTo1Profile:
    """Worst case, over maximal r-bounded B in Y, of the R-components of f^{-1}(B)."""
    check_number(R, "R")
    blocks, exact = _fiber_blocks(f, r)
    worst_count, worst_diam, witness = 0, 0.0, None
    for B, pre in blocks:
        comps = r_components(Subset(f.domain, pre), R)
        count = len(comps)
        dmax = max(diameter(c) for c in comps)
        if count > worst_count or (count == worst_count and dmax > worst_diam):
            worst_count, worst_diam, witness = count, dmax, B
    return NTo1Profile(worst_count, worst_diam, witness, exact)


def graph_coloring(rel, k: int):
    """A k-colouring (colour per vertex) of the graph of the boolean relation
    ``rel`` (diagonal ignored), or None when none exists.  Backtracking over
    vertices by decreasing degree, least free colour first, a new colour at
    most one above the largest in use."""
    adj = [{j for j, e in enumerate(row) if e and j != i} for i, row in enumerate(rel.tolist())]
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
    pts = sorted(_check_points(space, tuple(members), "members"))
    k = len(pts)
    if k == 0:
        raise PreconditionError("empty set has no partition")
    if k > EXACT_PARTITION_CAP:
        raise PreconditionError(f"exact partition search capped at {EXACT_PARTITION_CAP} points")
    if n >= k:
        return 0.0, [frozenset({p}) for p in pts]
    block = _block(space.dmat, pts)

    def parts_within(c):
        colors = graph_coloring(block > c, n)
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
    search (a preimage above EXACT_PARTITION_CAP points), or a closed ball
    above CLIQUE_ENUM_CAP points stood whole for its maximal r-bounded sets.
    """

    n: int
    step: StepFunction
    relaxed_at: tuple = ()


def n_to_1_control(f: CoarseMap, n: int, *, c_cap: Optional[float] = None) -> NTo1Control:
    """Least closed control C making f coarsely n-to-1, an upper bound at the
    scales in ``relaxed_at``; Refusal when the control reaches ``c_cap``."""
    if n < 1:
        raise PreconditionError("n must be >= 1")
    if c_cap is not None:
        check_number(c_cap, "c_cap")
    scales = sorted({float(v) for v in f.codomain.dmat.ravel()})
    bps = []
    relaxed = []
    prev = 0.0
    for r in scales:
        blocks, exact = _fiber_blocks(f, r)
        worst = 0.0
        for _, pre in blocks:
            val, val_exact = _partition_value(f.domain, pre, n)
            exact = exact and val_exact
            worst = max(worst, val)
        if not exact:
            relaxed.append(r)
        if c_cap is not None and worst >= c_cap:
            raise Refusal(
                f"no valid control below the cap {c_cap} at scale {r} (needs {worst})",
                proved=True,
                witness=r,
            )
        prev = max(prev, worst)
        bps.append((r, prev))
    step = StepFunction(tuple(bps), inclusive=True, flags={"strict_infimum": True})
    return NTo1Control(n=n, step=step, relaxed_at=tuple(relaxed))


def _partition_value(space: FiniteMetricSpace, pre: frozenset, n: int):
    """(value, exact) of one fiber block: the least max diameter of a partition
    of ``pre`` into <= n parts; above EXACT_PARTITION_CAP points the upper
    bound of the component relaxation, whose <= n components are one."""
    if len(pre) <= EXACT_PARTITION_CAP:
        return min_max_diameter_partition(space, pre, n)[0], True
    return _component_relaxation(space, pre, n), False


def _component_relaxation(space: FiniteMetricSpace, members: frozenset, n: int) -> float:
    """Smallest realized R with <= n R-components; value = max component diameter.
    The count never grows with R and is 1 at the largest distance."""
    A = Subset(space, members)

    def at_most_n(R):
        comps = r_components(A, R)
        return comps if len(comps) <= n else None

    pts = sorted(members)
    _, comps = least_realized(_block(space.dmat, pts), at_most_n)
    return max(diameter(c) for c in comps)


def verify_n_to_1(f: CoarseMap, n: int, C, r: float):
    """Check that every maximal r-bounded B splits into <= n parts of diam <= C(r).

    Each fiber block is judged by its partition value, an upper bound above
    EXACT_PARTITION_CAP points, and a ball above CLIQUE_ENUM_CAP stands whole
    for its sets: the check never accepts falsely, and above the caps it may
    reject a valid control.  Returns (ok, witness), the witness (B, value).
    """
    cr = as_control(C)(check_number(r, "r"))
    blocks, _ = _fiber_blocks(f, r)
    for B, pre in blocks:
        val, _ = _partition_value(f.domain, pre, n)
        if val > cr:
            return False, (B, val)
    return True, None


def pushforward_cover(f: CoarseMap, U: FamilyOfSets, r: float, n: int, C) -> FamilyOfSets:
    """Image family f(U) on f(X), with the dimension bound
    dim_r(f(U)) <= (dim_{C(r)}(U) + 1) * n - 1 verified.
    """
    C = as_control(C)
    check_number(r, "r")
    if U.space is not f.domain:
        raise InputError("cover must live on the domain")
    if not U.covers_space():
        raise PreconditionError("U must cover the domain")
    ok, wit = verify_n_to_1(f, n, C, r)
    if not ok:
        raise PreconditionError(f"control verification failed at r={r}: witness {wit}")
    # U covers the domain, so the images carry the whole image f(X)
    images = on_carrier(f.codomain, [f.image_set(s) for s in U.sets if s])
    return _check_image_dim(U, images, r, n, C)


def _check_image_dim(U: FamilyOfSets, out: FamilyOfSets, r: float, n: int, C) -> FamilyOfSets:
    """pushforward_cover's certificate: dim_r(out) <= (dim_{C(r)}(U) + 1) * n - 1."""
    m = dim_at_scale(U, C(r), closed=C.expansion_closed())
    bound = (m + 1) * n - 1
    got = dim_at_scale(out, r)
    if got > bound:
        raise CertificateError(
            f"pushforward dimension {got} exceeds the bound {bound}", witness=(r, m)
        )
    return out


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
    check_number(R, "R")
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
    members = tuple(m for _, m in classes)
    p = _hausdorff_quotient(Xadj, members, [f"c{k}" for k in range(len(classes))])
    Z = p.codomain
    q = CoarseMap(Z, f.codomain, tuple(y for y, _ in classes))
    _check_factors(f, p, q)
    return Factorization(
        p=p,
        middle=Z,
        q=q,
        adjusted_domain=Xadj,
        classes=members,
        class_diam_bound=max(diameter(Subset(Xadj, m)) for m in members),
        selection=tuple(min(m) for m in members),
    )


def _check_factors(f: CoarseMap, p: CoarseMap, q: CoarseMap):
    """factorize's certificate: q∘p = f at every point."""
    bad = [x for x in range(f.domain.n) if q(p(x)) != f(x)]
    if bad:
        raise CertificateError("q∘p != f", witness=bad[0])


def _hausdorff_quotient(space: FiniteMetricSpace, classes, labels) -> CoarseMap:
    """Projection of space onto its classes (a partition, in the given order)
    under the Hausdorff metric; class k carries labels[k]."""
    if not all(classes):
        raise PreconditionError("hausdorff quotient requires nonempty classes")
    # Points grouped class by class: the distance from each point to each class
    # is one min-reduction over the class's columns, and the directed distance
    # between classes one max-reduction over its rows.
    order = [x for c in classes for x in sorted(c)]
    starts = np.cumsum([0] + [len(c) for c in classes[:-1]])
    to_class = np.minimum.reduceat(_block(space.dmat, order), starts, axis=1)
    directed = np.maximum.reduceat(to_class, starts, axis=0)
    mat = np.maximum(directed, directed.T)
    # each class holds its own points, so the diagonal is d(x, x); store +0.0
    # even where the input diagonal holds -0.0
    np.fill_diagonal(mat, 0.0)
    class_of = {x: k for k, c in enumerate(classes) for x in c}
    quotient = FiniteMetricSpace(labels, mat)
    return CoarseMap(space, quotient, tuple(class_of[x] for x in range(space.n)))


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
    # each entry sums its |G| terms in sorted order, so (g.x, g.y) and (x, y),
    # which sum the same terms, get the same float
    tables = np.sort([_block(sp.dmat, p) for p in action.perms], axis=0)
    d = tables.sum(axis=0)
    return _check_invariant(action.perms, FiniteMetricSpace(sp.labels, d, validate=False))


def _check_invariant(perms, space: FiniteMetricSpace) -> FiniteMetricSpace:
    """symmetrize_metric's certificate: every permutation is an isometry of space."""
    for p in perms:
        if not np.array_equal(_block(space.dmat, p), space.dmat):
            raise CertificateError("symmetrized metric is not G-invariant", witness=list(p))
    return space


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
    proj = _check_1_lipschitz(_hausdorff_quotient(sym, orbits, [f"o{min(o)}" for o in orbits]))
    return GroupQuotient(
        quotient=proj.codomain,
        projection=proj,
        symmetrized=sym,
        orbits=tuple(orbits),
        n=action.order,
        control=LinearControl(2.0, 0.0, inclusive=True),
    )


def _check_1_lipschitz(p: CoarseMap) -> CoarseMap:
    """group_quotient's certificate: d(p(x), p(y)) <= d(x, y) for all x, y;
    the witness is the first violating (x, y) in row-major order."""
    t = list(p.assign)
    bad = np.argwhere(_block(p.codomain.dmat, t) > p.domain.dmat)
    if len(bad):
        raise CertificateError("projection is not 1-Lipschitz", witness=tuple(bad[0].tolist()))
    return p


def asdim_zero_witness(f: CoarseMap, n: int, C, r: float, R: float) -> NTo1Profile:
    """Certify the degree-zero behavior: for every maximal r-bounded B, the
    R-components of f^{-1}(B) number at most n and have diameter <= 2nR.
    Returns the profile it certified."""
    cr = as_control(C)(check_number(r, "r"))
    if check_number(R, "R") < cr:
        raise PreconditionError(f"R={R} must be at least C(r)={cr}")
    prof = n_to_1_profile(f, r, R)
    bound = 2 * n * R
    if prof.max_components > n or prof.max_component_diam > bound:
        raise CertificateError(
            "fiber components violate the coarsely n-to-1 certificate "
            f"(count {prof.max_components} vs n={n}, diam {prof.max_component_diam} vs {bound})",
            witness=prof.witness,
        )
    return prof
