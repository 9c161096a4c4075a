"""Finite metric spaces, subsets, neighborhoods, Hausdorff distance, R-connectivity.

Strictness conventions used across the whole library (fixed globally):

* expansion ``B(A, R)`` uses strict ``d < R`` (plus A itself);
* ``R``-disjoint means cross distance ``>= R``;
* ``components(space, members, R, strict=False)`` gives chain components with
  steps ``d <= R``; ``r_components`` wraps it.  Used for fiber pieces
  (``n_to_1_profile``, the component relaxation of ``n_to_1_control`` and
  ``verify_n_to_1``), ``factorize`` classes, ``apc_pullback`` and
  ``tree_pullback`` pieces;
* ``components(..., strict=True)`` uses steps ``d < R``: the coarsest split of
  a set into an ``R``-disjoint family.  Used for ``apc_witness`` families and
  the families of ``best_mass_family`` and ``msp_pullback``.

The exact searches hold point sets as Python-int bitmasks (bit i is point i):
``point_masks(rel)`` turns the rows of a boolean relation into masks, ``bits``
walks a mask's set bits, lowest first, and ``bounded_components(space, R, S)``
is the mask test "every strict ``R``-component is ``S``-bounded" of the witness
search (``apc_witness``) and the mass searches (``best_mass_family``,
``map_msp_check``).  ``components`` and ``bounded_components`` find their
components with one walk, ``_mask_components(near, mask)``, which grows each
component from its least point along the ``near`` masks.

All comparisons are exact comparisons on the stored float values, with no
epsilon: exact for l1/linf clouds, rational-valued matrices and
integer-weighted graphs.  l2 cloud distances are rounded square roots, and
graph distances over non-integer weights are rounded sums (the smaller of the
two directions' sums is stored on both sides, so the table is symmetric), so
comparisons at equality follow the rounding.

``verify_metric`` validates two kinds of table only: ``matrix`` descriptors
and the Hausdorff quotients of ``coarse_maps``.  Clouds, graphs and the
fixture cycles are metrics by construction and are not re-checked for the
triangle inequality (rounding can break it), only for finite distances, and
clouds for distinct points; subspaces and the tables derived inside
``coarse_maps`` are not re-checked either.  The O(n^3) triangle check reads an
int16 copy of a table of integers when twice its largest entry fits int16
(at most 16383), where every sum is exact, and the float64 table otherwise;
verdicts and messages are the float64 ones.

scipy is imported only inside the graph branch of ``build_space`` (Dijkstra
over a sparse adjacency), so only user ``graph`` descriptors load it; the
fixture cycles of ``generators.cycle_space`` are built in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError, MetricError, PreconditionError, check_number, is_int

__all__ = [
    "FiniteMetricSpace",
    "Subset",
    "build_space",
    "verify_metric",
    "neighborhood",
    "hausdorff_distance",
    "components",
    "r_components",
    "diameter",
    "point_masks",
    "bits",
    "bounded_components",
]

# Rows per block of the triangle check on a float64 table: at 1000 points a
# block's rows, sums and mask take about 1.1 MB, inside a 2 MB per-core L2
# cache.  A block holds the same number of bytes on a narrower table, so an
# int16 block holds 4x the rows.
_ROW_BLOCK = 64


def _exact_table(dmat: np.ndarray) -> np.ndarray:
    """The narrowest table on which the triangle check's sums are exact: an
    int16 copy of a table of integers when twice its largest entry fits int16,
    else ``dmat`` itself.  ``dmat`` holds finite entries >= 0."""
    top = dmat.max() if dmat.size else 0.0
    # compared against max // 2, not 2 * top, which overflows near 1e308
    if top <= np.iinfo(np.int16).max // 2:
        table = dmat.astype(np.int16)
        return table if np.array_equal(table, dmat) else dmat
    return dmat


def verify_metric(dmat: np.ndarray) -> None:
    """Check the metric axioms, reporting the offending pair/triple on failure."""
    if dmat.ndim != 2 or dmat.shape[1] != dmat.shape[0]:
        raise MetricError("distance table must be square")
    n = dmat.shape[0]
    if not np.all(np.isfinite(dmat)):
        raise MetricError("distances must be finite")
    diag = np.diagonal(dmat)
    if np.any(diag != 0):
        i = int(np.nonzero(diag)[0][0])
        raise MetricError(f"d({i},{i}) = {dmat[i, i]} != 0")
    asym = dmat != dmat.T
    if np.any(asym):
        i, j = (int(v[0]) for v in np.nonzero(asym))
        raise MetricError(f"asymmetric matrix: d({i},{j}) != d({j},{i})")
    off = dmat + np.eye(n)
    if np.any(off <= 0):
        bad = np.argwhere(off <= 0)[0]
        i, j = int(bad[0]), int(bad[1])
        raise MetricError(f"d({i},{j}) = {dmat[i, j]} <= 0 for distinct points")
    # Triangle inequality, exhaustive over all triples.  The table is symmetric
    # here and IEEE addition commutes, so d[i,k] + d[k,j] and d[j,k] + d[k,i] are
    # the same float: (i, k, j) fails exactly when (j, k, i) does, and the least
    # failing k is found from the pairs i <= j alone.  Rows go in blocks, each
    # against its own columns lo: onward through two buffers sized to the block,
    # and a block scans only the k below the least failing k found so far.  One
    # full pass at that k then names the first failing (i, j) in row-major order.
    # The blocks read the narrowest exact table: integers whose sums fit the
    # type sum exactly in float64 and in the integer type alike, so < answers
    # the same on every triple; the full pass and the message read dmat.
    # A float sum that overflows is +inf, which bounds every finite distance,
    # so the overflow is no violation.
    least = n
    table = _exact_table(dmat)
    step = _ROW_BLOCK * 8 // table.itemsize
    with np.errstate(over="ignore"):
        for lo in range(0, n, step):
            rows = table[lo : lo + step]
            right = rows[:, lo:]
            via = np.empty_like(right)
            worse = np.empty(right.shape, dtype=bool)
            for k in range(least):
                np.add(rows[:, k : k + 1], table[k : k + 1, lo:], out=via)
                np.less(via, right, out=worse)
                if worse.any():
                    least = k
                    break
        if least < n:
            k = least
            bad = np.argwhere(dmat[:, k : k + 1] + dmat[k : k + 1, :] < dmat)[0]
            i, j = int(bad[0]), int(bad[1])
            raise MetricError(
                f"triangle violation at ({i},{k},{j}): "
                f"d({i},{j}) = {dmat[i, j]} > {dmat[i, k]} + {dmat[k, j]}"
            )


class FiniteMetricSpace:
    """Immutable finite metric space with opaque point labels.

    Points are addressed by stable index (the descriptor order); all set
    outputs across the library are emitted in sorted index order.
    """

    __slots__ = ("labels", "dmat")

    def __init__(self, labels: Sequence, dmat: np.ndarray, *, validate: bool = True):
        dmat = np.asarray(dmat, dtype=float)
        if dmat.ndim != 2:
            raise MetricError("distance table must be square")
        if len(labels) != dmat.shape[0]:
            raise InputError("label count does not match distance table size")
        self.labels = tuple(labels)
        # the O(n) label check before the O(n^3) triangle check
        if len(set(self.labels)) != len(self.labels):
            raise InputError("labels must be unique")
        if validate:
            verify_metric(dmat)
        self.dmat = dmat
        self.dmat.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.labels)

    def d(self, i: int, j: int) -> float:
        return float(self.dmat[i, j])

    def full(self) -> "Subset":
        return Subset(self, frozenset(range(self.n)))

    def diam(self) -> float:
        return float(self.dmat.max()) if self.n else 0.0

    def realized_distances(self) -> list[float]:
        """Sorted unique pairwise distances (including 0)."""
        return sorted(set(float(v) for v in self.dmat.ravel()))

    def subspace(self, indices: Iterable[int]) -> tuple["FiniteMetricSpace", list[int]]:
        """Induced metric subspace; returns (space, map from new index to old index)."""
        idx = sorted(set(indices))
        sub = FiniteMetricSpace(
            [self.labels[i] for i in idx], _block(self.dmat, idx), validate=False
        )
        return sub, idx

    def __eq__(self, other):
        return self is other

    def __hash__(self):
        return id(self)

    def __repr__(self):
        return f"FiniteMetricSpace(n={self.n})"


def _check_points(space: FiniteMetricSpace, members, what: str):
    """``members`` unchanged when each is a point index of ``space``: an
    integer, not a bool, in 0 <= i < n.  InputError naming ``what`` otherwise;
    numpy would read a negative index from the end of the table."""
    n = space.n
    bad = [i for i in members if not (is_int(i) and 0 <= i < n)]
    if bad:
        raise InputError(f"{what} {bad} are not points of the owning space")
    return members


@dataclass(frozen=True)
class Subset:
    """A subset of a space's points, held as a frozenset of indices."""

    space: FiniteMetricSpace
    members: frozenset

    def __post_init__(self):
        _check_points(self.space, self.members, "subset members")

    def sorted_members(self) -> list[int]:
        return sorted(self.members)

    def __len__(self):
        return len(self.members)

    def __contains__(self, i):
        return i in self.members


_NORMS = {"l1": 1, "l2": 2, "linf": np.inf}


def build_space(descriptor: dict) -> FiniteMetricSpace:
    """Construct a space from a matrix, point-cloud, or connected-graph descriptor."""
    if not isinstance(descriptor, dict) or "kind" not in descriptor:
        raise InputError("descriptor must be a dict with a 'kind' field")
    kind = descriptor["kind"]
    if kind == "matrix":
        dmat = np.asarray(descriptor["matrix"], dtype=float)
        if dmat.ndim != 2:
            raise MetricError("distance table must be square")
        labels = descriptor.get("labels", list(range(dmat.shape[0])))
        return FiniteMetricSpace(labels, dmat)
    if kind == "cloud":
        coords = np.asarray(descriptor["coords"], dtype=float)
        if not (coords.ndim == 2 and len(coords)):
            raise InputError("cloud coordinates must be a nonempty list of points, one list each")
        norm = descriptor.get("norm", "l2")
        if norm not in _NORMS:
            raise InputError(f"unknown norm {norm!r}")
        diffs = coords[:, None, :] - coords[None, :, :]
        dmat = np.linalg.norm(diffs, ord=_NORMS[norm], axis=2)
        if not np.all(np.isfinite(dmat)):
            raise MetricError("cloud coordinates and distances must be finite")
        same = np.argwhere(dmat + np.eye(len(dmat)) <= 0)
        if len(same):
            raise MetricError(f"cloud points {int(same[0][0])} and {int(same[0][1])} coincide")
        labels = descriptor.get("labels", list(range(coords.shape[0])))
        return FiniteMetricSpace(labels, dmat, validate=False)
    if kind == "graph":
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import shortest_path

        edges = descriptor["edges"]
        ends = [v for i, j, _ in edges for v in (i, j)]
        labels = descriptor.get("labels")
        if labels is None:
            labels = list(range(1 + max([0, *filter(is_int, ends)])))
        nv = len(labels)
        if not nv:
            raise InputError("a graph must have at least one vertex")
        bad = [v for v in ends if not (is_int(v) and 0 <= v < nv)]
        if bad:
            raise InputError(f"edge endpoints {bad} are not vertices of the graph")
        lightest = {}  # unordered pair -> least weight: csr_matrix would sum repeats
        for i, j, w in edges:
            if check_number(w, "edge weight", finite=True) <= 0:
                raise InputError(f"edge ({i},{j}) has non-positive weight {w}")
            pair = (min(i, j), max(i, j))
            lightest[pair] = min(w, lightest.get(pair, w))
        rows, cols, data = [], [], []
        for (i, j), w in lightest.items():
            rows += [i, j]
            cols += [j, i]
            data += [w, w]
        adj = csr_matrix((data, (rows, cols)), shape=(nv, nv))
        dmat = shortest_path(adj, method="D", directed=False)
        if not np.all(np.isfinite(dmat)):
            raise MetricError("graph is disconnected")
        # each row sums its paths from its own source, so d(i, j) and d(j, i)
        # may differ in the last bit; the smaller is kept on both sides
        dmat = np.minimum(dmat, dmat.T)
        return FiniteMetricSpace(labels, dmat, validate=False)
    raise InputError(f"unknown descriptor kind {kind!r}")


def _same_space(*subsets: Subset) -> FiniteMetricSpace:
    sp = subsets[0].space
    if any(s.space is not sp for s in subsets):
        raise InputError("subsets belong to different spaces")
    return sp


def neighborhood(A: Subset, R: float, *, closed: bool = False) -> Subset:
    """B(A, R): A plus all points at distance < R from A (<= R when closed)."""
    check_number(R, "R")
    sp = A.space
    if not A.members:
        return Subset(sp, frozenset())
    idx = A.sorted_members()
    mind = np.min(sp.dmat[:, idx], axis=1)
    hit = (mind <= R) if closed else (mind < R)
    out = frozenset(int(i) for i in np.nonzero(hit)[0]) | A.members
    return Subset(sp, out)


def _dist_outside(space: FiniteMetricSpace, membership: np.ndarray) -> np.ndarray:
    """dist(x, X \\ U_k) for every row U_k of ``membership`` and every point x
    of U_k; 0 off the row, where x is its own nearest point of the complement,
    and +inf along a row that covers the whole space."""
    out = np.zeros(membership.shape)
    for k, row in enumerate(membership):
        if row.all():
            out[k] = np.inf
        else:
            inside = np.flatnonzero(row)
            out[k, inside] = space.dmat[inside][:, ~row].min(axis=1)
    return out


def hausdorff_distance(A: Subset, B: Subset) -> float:
    sp = _same_space(A, B)
    if not A.members or not B.members:
        raise PreconditionError("hausdorff_distance requires nonempty subsets")
    ai = A.sorted_members()
    bi = B.sorted_members()
    block = sp.dmat[np.ix_(ai, bi)]
    return float(max(block.min(axis=1).max(), block.min(axis=0).max()))


def components(
    space: FiniteMetricSpace, members: Iterable[int], R: float, *, strict: bool
) -> tuple[frozenset, ...]:
    """Chain components of ``members``: steps ``d < R`` when strict, else ``d <= R``.

    Returns frozensets ordered by their least member.
    """
    check_number(R, "R")
    idx = sorted(_check_points(space, tuple(members), "members"))
    sub = _block(space.dmat, idx)
    near = point_masks(sub < R if strict else sub <= R)
    comps = _mask_components(near, (1 << len(idx)) - 1)
    return tuple(frozenset(idx[b] for b in bits(c)) for c in comps)


def point_masks(rel) -> list[int]:
    """Row i of the boolean matrix ``rel`` as a Python-int mask: bit j is set
    when ``rel[i, j]`` is."""
    packed = np.packbits(rel, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def bits(mask: int):
    """The set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask_components(near, mask):
    """The chain components of ``mask`` as masks, least point first: a step
    joins i to the points of ``near[i]``."""
    left = mask
    while left:
        comp = frontier = left & -left
        while frontier:
            i = (frontier & -frontier).bit_length() - 1
            frontier &= frontier - 1
            new = near[i] & mask & ~comp
            comp |= new
            frontier |= new
        yield comp
        left &= ~comp


def bounded_components(space: FiniteMetricSpace, R: float, S: float):
    """Mask test: every chain component (steps < R) of the point mask has
    diameter <= S.

    Strict steps match the disjointness convention (disjoint = cross distance
    >= R): the strict components of any feasible union form an R-disjoint
    family of S-bounded sets.  The exact searches test up to 2^16 masks, so the
    near (d < R) and far (d > S) relations are bitmasks built once per call.
    """
    near = point_masks(space.dmat < R)
    far = point_masks(~(space.dmat <= S))  # not "> S": a NaN bound bounds nothing

    def feasible(mask):
        for comp in _mask_components(near, mask):
            for i in bits(comp):
                if far[i] & comp:
                    return False
        return True

    return feasible


def r_components(A: Subset, R: float) -> tuple[Subset, ...]:
    """Partition of A into maximal R-connected pieces (chains with d <= R).

    Classes are returned ordered by their least member index.
    """
    if not A.members:
        raise PreconditionError("r_components requires a nonempty subset")
    return tuple(Subset(A.space, c) for c in components(A.space, A.members, R, strict=False))


def diameter(A: Subset) -> float:
    if not A.members:
        raise PreconditionError("diameter requires a nonempty subset")
    return float(_block(A.space.dmat, list(A.members)).max())


def _block(dmat: np.ndarray, points: Sequence[int]) -> np.ndarray:
    """The square block of ``dmat`` on the list or tuple ``points``, rows in
    its order: one gather ``d[idx[:, None], idx]`` on the index array numpy
    infers from it (np.intp for Python ints).  Every square block of
    the library, each set diameter included, is read here.  A float index
    fails as it did under ``np.ix_``: its array is float, which numpy refuses
    as an index."""
    idx = np.array(points) if points else np.empty(0, dtype=np.intp)
    return dmat[idx[:, None], idx]
