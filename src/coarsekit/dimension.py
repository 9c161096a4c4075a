"""Finite-scale dimension: optimal covers at a scale, multi-scale disjoint-family
witnesses, the witness normalization, and transfer along maps in both directions.

Asymptotic statements become parameterized finite claims here: every operation
takes explicit scales and mesh caps, and every output carries a certificate that
is re-checked before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .controls import as_control
from .coarse_maps import CoarseMap, pullback_family
from .covers import FamilyOfSets, check_families, dim_at_scale, is_r_disjoint, on_carrier, split_on_carrier
from .errors import CertificateError, InputError, PreconditionError, Refusal, check_number, is_int
from .metric_core import FiniteMetricSpace, bits, bounded_components, components, point_masks

__all__ = [
    "ApcWitness",
    "DimSequenceWitness",
    "AsdimResult",
    "asdim_at_scale",
    "apc_witness",
    "apc_normalize",
    "apc_pushforward",
    "apc_pullback",
    "verify_apc_witness",
]

EXACT_SEARCH_CAP = 16
DEFAULT_BUDGET = 10**6


@dataclass(frozen=True)
class ApcWitness:
    """Families U_1..U_k with U_i R_i-disjoint, uniformly bounded, jointly covering."""

    space: FiniteMetricSpace
    scales: tuple
    families: tuple
    certificates: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "scales",
                           tuple(float(check_number(r, "scales")) for r in self.scales))
        if len(self.scales) != len(self.families):
            raise InputError("one scale per family required")

    def union(self) -> frozenset:
        out = frozenset()
        for fam in self.families:
            out |= fam.union()
        return out


def verify_apc_witness(w: ApcWitness, *, mesh_cap: Optional[float] = None) -> dict:
    """Re-check disjointness, boundedness, and coverage; returns the certificate."""
    if mesh_cap is not None:
        check_number(mesh_cap, "mesh_cap")
    return {"covers": True, "families": check_families(w.space, w.families, w.scales, mesh_cap)}


def _certified(w: ApcWitness, mesh_cap: Optional[float] = None, *extra) -> ApcWitness:
    """w with its re-checked certificate attached, followed by ``extra``."""
    return replace(w, certificates=(verify_apc_witness(w, mesh_cap=mesh_cap), *extra))


@dataclass(frozen=True)
class DimSequenceWitness:
    """Families V_i with dim_at_scale(V_i, R_i) <= n_i, jointly covering."""

    space: FiniteMetricSpace
    scales: tuple
    dims: tuple
    families: tuple

    def __post_init__(self):
        for R in self.scales:
            check_number(R, "scales")
        if not all(is_int(n) for n in self.dims):
            raise InputError(f"dims must be integers, got {list(self.dims)!r}")
        if not (len(self.scales) == len(self.dims) == len(self.families)):
            raise InputError("scales, dims, and families must align")

    def validate(self):
        for R, n, fam in zip(self.scales, self.dims, self.families):
            d = dim_at_scale(fam, R)
            if d > n:
                raise CertificateError(
                    f"family has dimension {d} > {n} at scale {R}", witness=R
                )
        union = frozenset()
        for fam in self.families:
            union |= fam.union()
        if union != frozenset(range(self.space.n)):
            raise CertificateError("families do not cover the space")


@dataclass(frozen=True)
class AsdimResult:
    dim: int
    cover: FamilyOfSets
    exact: bool


def asdim_at_scale(
    space: FiniteMetricSpace, R: float, mesh_cap: float, *, exact_cap: int = EXACT_SEARCH_CAP
) -> AsdimResult:
    """Minimum over covers with mesh <= mesh_cap of dim_at_scale(cover, R).

    The optimum over covers equals the optimum over partitions (removing a
    point from all but one containing set never increases any expansion
    multiplicity or the mesh), so the exact branch searches partitions only.
    Exact up to ``exact_cap`` points; greedy upper bound with exact=False above.
    """
    check_number(R, "R")
    if check_number(mesh_cap, "mesh_cap") < 0:
        raise InputError("mesh_cap must be >= 0")
    # near[p]: p and the points within R of it (p's share of a block's expansion);
    # far[p]: the points too far from p to share a block with it
    near = [m | 1 << p for p, m in enumerate(point_masks(space.dmat < R))]
    far = point_masks(space.dmat > mesh_cap)
    greedy = _greedy_partition(space, near, far)
    res = AsdimResult(dim_at_scale(greedy, R), greedy, exact=space.n <= exact_cap)
    if res.exact:
        better = _exact_partition_search(near, far, res.dim)
        if better is not None:
            fam = FamilyOfSets(space, tuple(frozenset(bits(b)) for b in better[1]))
            res = AsdimResult(better[0], fam, exact=True)
    return _check_asdim(R, mesh_cap, res)


def _check_asdim(R, mesh_cap, res: AsdimResult) -> AsdimResult:
    """asdim_at_scale's certificate: the cover partitions its space, its mesh
    is <= mesh_cap and its dimension at R is the stated one."""
    cover = res.cover
    multiplicity = cover.membership.sum(axis=0)
    if (multiplicity != 1).any():
        raise CertificateError(
            "cover is not a partition", witness=np.flatnonzero(multiplicity != 1).tolist()
        )
    if cover.max_diameter() > mesh_cap:
        raise CertificateError(f"cover mesh {cover.max_diameter()} exceeds the cap {mesh_cap}")
    if dim_at_scale(cover, R) != res.dim:
        raise CertificateError(f"cover does not have the stated dimension {res.dim} at {R}")
    return res


def _greedy_partition(space, near, far):
    """Each point joins the block whose expansion it raises the multiplicity of
    least (the first such block), or a new block when that costs less."""
    blocks: list[int] = []
    expansions: list[int] = []
    mult = [0] * space.n
    for p in range(space.n):
        best, best_cost = None, None
        for b, (blk, exp) in enumerate(zip(blocks, expansions)):
            if far[p] & blk:
                continue
            cost = max((mult[q] + 1 for q in bits(near[p] & ~exp)), default=0)
            if best_cost is None or cost < best_cost:
                best, best_cost = b, cost
        new_cost = max(mult[q] + 1 for q in bits(near[p]))
        if best is None or new_cost < best_cost:
            blocks.append(0)
            expansions.append(0)
            best = len(blocks) - 1
        for q in bits(near[p] & ~expansions[best]):
            mult[q] += 1
        blocks[best] |= 1 << p
        expansions[best] |= near[p]
    return FamilyOfSets(space, tuple(frozenset(bits(b)) for b in blocks))


def _exact_partition_search(near, far, upper):
    """(dim, block masks) of an optimal partition, or None when none beats ``upper``.

    Points are placed in index order, each into every block it fits (then a new
    one); ``mult[q]`` counts the block expansions holding q."""
    n = len(near)
    best_dim, best_blocks = upper, None
    blocks: list[int] = []
    expansions: list[int] = []
    mult = [0] * n

    def dfs(p, curmax):
        nonlocal best_dim, best_blocks
        if curmax - 1 >= best_dim:
            return
        if p == n:
            best_dim, best_blocks = curmax - 1, list(blocks)
            return
        for b in range(len(blocks) + 1):
            if b == len(blocks):
                blocks.append(0)
                expansions.append(0)
            elif far[p] & blocks[b]:
                continue
            blk, exp = blocks[b], expansions[b]
            gained = near[p] & ~exp
            top = curmax
            for q in bits(gained):
                mult[q] += 1
                top = max(top, mult[q])
            blocks[b], expansions[b] = blk | 1 << p, exp | near[p]
            dfs(p + 1, top)
            blocks[b], expansions[b] = blk, exp
            for q in bits(gained):
                mult[q] -= 1
        blocks.pop()
        expansions.pop()

    dfs(0, 0)
    return None if best_blocks is None else (best_dim, best_blocks)


def apc_witness(
    space: FiniteMetricSpace,
    scales: Sequence[float],
    mesh_cap: float,
    *,
    budget: int = DEFAULT_BUDGET,
) -> ApcWitness:
    """Find families U_i (R_i-disjoint, mesh <= mesh_cap) jointly covering X.

    Every point is assigned to exactly one family; the sets of family i are the
    chain components of its points at scale < R_i (any finer split would break
    R_i-disjointness), so validity is a per-component diameter check.  Greedy
    first-fit, then budgeted depth-first search; Refusal reports whether
    infeasibility was proved or the budget ran out.
    """
    scales = [float(check_number(r, "scales")) for r in scales]
    check_number(mesh_cap, "mesh_cap")
    if scales != sorted(scales) or len(set(scales)) != len(scales):
        raise InputError("scales must be strictly increasing")
    k = len(scales)
    n = space.n
    tests = [bounded_components(space, R, mesh_cap) for R in scales]
    assign, residue = _greedy_apc(n, tests)
    if residue:
        assign, proved = _dfs_apc(n, tests, budget)
        if assign is None:
            raise Refusal(
                "no witness exists at these scales and mesh cap"
                if proved
                else "search budget exhausted without a witness",
                proved=proved,
                witness=residue,
            )
    families = []
    for i in range(k):
        pts = [p for p in range(n) if assign[p] == i]
        families.append(FamilyOfSets(space, components(space, pts, scales[i], strict=True)))
    return _certified(ApcWitness(space, tuple(scales), tuple(families)), mesh_cap)


def _greedy_apc(n, tests):
    """First fit: each point joins the first family whose test (one per scale,
    on the family's point mask) still passes with it.  Returns (assignment,
    residue), the residue being the points no family took."""
    assign = [None] * n
    per_family = [0] * len(tests)
    residue = []
    for p in range(n):
        for i, ok in enumerate(tests):
            if ok(per_family[i], p):
                per_family[i] |= 1 << p
                assign[p] = i
                break
        else:
            residue.append(p)
    return assign, residue


def _dfs_apc(n, tests, budget):
    k = len(tests)
    assign = [None] * n
    per_family = [0] * k
    nodes = {"used": 0, "exhausted": False}

    def dfs(p):
        if p == n:
            return True
        for i in range(k):
            nodes["used"] += 1
            if nodes["used"] > budget:
                nodes["exhausted"] = True
                return False
            # violations are monotone: components only grow as points are added
            if tests[i](per_family[i], p):
                per_family[i] |= 1 << p
                assign[p] = i
                if dfs(p + 1):
                    return True
                per_family[i] ^= 1 << p
                assign[p] = None
            if nodes["exhausted"]:
                return False
        return False

    if dfs(0):
        return assign, True
    return None, not nodes["exhausted"]


def apc_normalize(w: DimSequenceWitness, M: Sequence[float]) -> ApcWitness:
    """Turn a dimension-sequence witness into scale-indexed disjoint families.

    With m_j = sum of the first j dims, the working scales are
    R_i = sum over j <= i of (n_j + 1) * M[m_j + 1] (1-based M).  Each V_i is
    split at R_i into n_i + 1 families, each R_i/(n_i+1)-disjoint; the
    concatenation (level, then class) is checked against the target gaps: the
    t-th output family must be M_t-disjoint.  M must be supplied up to
    m_k + k entries; the check can genuinely fail for fast-growing M, in which
    case the certificate error names the offending family.  The witness
    bounds dim(V_i) only at its own scale, so V_i may exceed n_i at the larger
    R_i; that certificate error names V_i (1-based) and R_i.
    """
    w.validate()
    M = [float(check_number(v, "M")) for v in M]
    if M != sorted(M):
        raise InputError("target gaps must be nondecreasing")
    k = len(w.families)
    dims = [int(d) for d in w.dims]
    m = [0] * (k + 1)
    for j in range(1, k + 1):
        m[j] = m[j - 1] + dims[j - 1]
    needed = m[k] + k
    if len(M) < needed:
        raise InputError(f"need at least {needed} target gaps, got {len(M)}")
    R = []
    acc = 0.0
    for i in range(1, k + 1):
        acc += (dims[i - 1] + 1) * M[m[i] + 1 - 1]
        R.append(acc)
    out_families = []
    for i in range(k):
        d = dim_at_scale(w.families[i], R[i])
        if d > dims[i]:
            raise CertificateError(
                f"family {i + 1} has dimension {d} > {dims[i]} at working scale {R[i]}"
            )
        classes, _ = split_on_carrier(w.space, w.families[i].sets, R[i], dims[i])
        out_families.extend(classes)
    scales = tuple(M[:needed])
    return _certified(ApcWitness(w.space, scales, tuple(out_families)))


def apc_pushforward(
    f: CoarseMap, n: int, D, w: ApcWitness, target_scales: Sequence[float]
) -> ApcWitness:
    """Transfer a witness along a coarsely n-to-1 surjection.

    Family i (disjoint at D(n*R_{i*n})) pushes to n families on Y, the j-th
    certified R_{(i-1)*n+j}-disjoint because it is R_{i*n}-disjoint and the
    target scales increase.  An audit trail records which input scale
    certified which output scale.
    """
    D = as_control(D)
    if not f.is_surjective():
        raise PreconditionError("map must be surjective")
    scales = [float(check_number(r, "target_scales")) for r in target_scales]
    k = len(w.families)
    if len(scales) != k * n or scales != sorted(scales):
        raise InputError(f"need {k * n} nondecreasing target scales")
    if w.space is not f.domain:
        raise InputError("witness must live on the domain")
    out_families = []
    audit = []
    for i in range(1, k + 1):
        fam = w.families[i - 1]
        r = n * scales[i * n - 1]
        ok, wit = is_r_disjoint(fam, D(r))
        if not ok:
            raise PreconditionError(
                f"family {i} is not D(n*R)={D(r)}-disjoint; witness {wit}"
            )
        images = [f.image_set(s) for s in fam.sets if s]
        if images:
            d_img = dim_at_scale(on_carrier(f.codomain, images), r, closed=D.expansion_closed())
            if d_img > n - 1:
                raise CertificateError(
                    f"image family dimension {d_img} exceeds n-1={n - 1} at scale {r}"
                )
        classes, _ = split_on_carrier(f.codomain, images, r, n - 1)
        out_families.extend(classes)
        audit.extend({"from_family": i, "class": j, "certified_by": scales[i * n - 1]}
                     for j in range(n))
    return _certified(ApcWitness(f.codomain, tuple(scales), tuple(out_families)), None,
                      tuple(audit))


def apc_pullback(
    f: CoarseMap, w: ApcWitness, target_scales: Sequence[float], M: float
) -> ApcWitness:
    """Transfer a witness backwards along a map with degree-zero fibers.

    Output family i consists of the R_m-components (R_m = largest target
    scale) of the preimages of w's family i, pulled back by
    ``pullback_family``: preimages of an E(R_i)-disjoint family are
    R_i-disjoint and splitting into components only refines.  M bounds
    component diameters (from the degree-zero certificate).
    """
    scales = [float(check_number(r, "target_scales")) for r in target_scales]
    check_number(M, "M")
    if len(scales) != len(w.families) or scales != sorted(scales):
        raise InputError("one nondecreasing target scale per family required")
    if w.space is not f.codomain:
        raise InputError("witness must live on the codomain")
    Rm = scales[-1]
    out_families = []
    for i, (Ri, fam) in enumerate(zip(scales, w.families), start=1):
        try:
            pre = pullback_family(f, fam, Ri)
        except PreconditionError as e:
            raise PreconditionError(f"family {i}: {e}") from None
        pieces = (c for s in pre.sets for c in components(f.domain, s, Rm, strict=False))
        out_families.append(FamilyOfSets(f.domain, tuple(pieces)))
    return _certified(ApcWitness(f.domain, tuple(scales), tuple(out_families)), M)
