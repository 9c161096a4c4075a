"""Finite-scale dimension: optimal covers at a scale, multi-scale disjoint-family
witnesses, the witness normalization, and transfer along maps in both directions.

Asymptotic statements become parameterized finite claims here: every operation
takes explicit scales and mesh caps, and every output carries a certificate that
is re-checked before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .controls import as_control
from .coarse_maps import CoarseMap, control_upper
from .covers import FamilyOfSets, check_families, dim_at_scale, is_r_disjoint, make_disjoint, on_carrier
from .errors import CertificateError, InputError, PreconditionError, Refusal
from .metric_core import FiniteMetricSpace, Subset, components, diameter, r_components

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
        object.__setattr__(self, "scales", tuple(float(r) for r in self.scales))
        if len(self.scales) != len(self.families):
            raise InputError("one scale per family required")

    def union(self) -> frozenset:
        out = frozenset()
        for fam in self.families:
            out |= fam.union()
        return out


def verify_apc_witness(w: ApcWitness, *, mesh_cap: Optional[float] = None) -> dict:
    """Re-check disjointness, boundedness, and coverage; returns the certificate."""
    return {"covers": True, "families": check_families(w.space, w.families, w.scales, mesh_cap)}


@dataclass(frozen=True)
class DimSequenceWitness:
    """Families V_i with dim_at_scale(V_i, R_i) <= n_i, jointly covering."""

    space: FiniteMetricSpace
    scales: tuple
    dims: tuple
    families: tuple

    def __post_init__(self):
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
    if mesh_cap < 0:
        raise InputError("mesh_cap must be >= 0")
    greedy = _greedy_partition(space, R, mesh_cap)
    res = AsdimResult(dim_at_scale(greedy, R), greedy, exact=space.n <= exact_cap)
    if res.exact:
        better = _exact_partition_search(space, R, mesh_cap, res.dim)
        if better is not None:
            fam = FamilyOfSets(space, tuple(frozenset(b) for b in better[1]))
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


def _greedy_partition(space, R, mesh_cap):
    blocks: list[list[int]] = []
    expansions: list[set] = []
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
    blocks = [sorted(set(b)) for b in blocks]
    return FamilyOfSets(space, tuple(frozenset(b) for b in blocks))


def _exact_partition_search(space, R, mesh_cap, upper):
    """(dim, blocks) of an optimal partition, or None when none beats ``upper``."""
    n = space.n
    near = [frozenset(q for q in range(n) if space.dmat[q, p] < R) for p in range(n)]
    best = {"dim": upper, "blocks": None}
    blocks: list[list[int]] = []
    expansions: list[dict] = []  # point -> count of members of the block within R
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
                if mult[q] > state["curmax"]:
                    state["curmax"] = mult[q]
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
            if state["curmax"] - 1 < best["dim"]:
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
    scales = [float(r) for r in scales]
    if scales != sorted(scales) or len(set(scales)) != len(scales):
        raise InputError("scales must be strictly increasing")
    k = len(scales)
    n = space.n
    assign, residue = _greedy_apc(space, scales, mesh_cap)
    if residue:
        assign, proved = _dfs_apc(space, scales, mesh_cap, budget)
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
    w = ApcWitness(space, tuple(scales), tuple(families))
    cert = verify_apc_witness(w, mesh_cap=mesh_cap)
    return ApcWitness(space, tuple(scales), tuple(families), (cert,))


def _component_ok(space, pts, R, mesh_cap):
    return all(
        diameter(Subset(space, c)) <= mesh_cap for c in components(space, pts, R, strict=True)
    )


def _greedy_apc(space, scales, mesh_cap):
    """First fit: each point joins the first family that stays valid with it.
    Returns (assignment, residue), the residue being the points no family took."""
    assign = [None] * space.n
    per_family: list[set] = [set() for _ in scales]
    residue = []
    for p in range(space.n):
        for i, R in enumerate(scales):
            if _component_ok(space, per_family[i] | {p}, R, mesh_cap):
                per_family[i].add(p)
                assign[p] = i
                break
        else:
            residue.append(p)
    return assign, residue


def _dfs_apc(space, scales, mesh_cap, budget):
    n = space.n
    k = len(scales)
    assign = [None] * n
    per_family: list[set] = [set() for _ in range(k)]
    nodes = {"used": 0, "exhausted": False}

    def dfs(p):
        if p == n:
            return True
        for i in range(k):
            nodes["used"] += 1
            if nodes["used"] > budget:
                nodes["exhausted"] = True
                return False
            trial = per_family[i] | {p}
            # violations are monotone: components only grow as points are added
            if _component_ok(space, trial, scales[i], mesh_cap):
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
    M = [float(v) for v in M]
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
        if not w.families[i].union():
            out_families.extend(FamilyOfSets(w.space, ()) for _ in range(dims[i] + 1))
            continue
        fam, lift = on_carrier(w.space, w.families[i].sets)
        colored, _ = make_disjoint(fam, R[i], dims[i])
        out_families.extend(lift(c) for c in colored.color_classes())
    scales = tuple(M[:needed])
    out = ApcWitness(w.space, scales, tuple(out_families))
    cert = verify_apc_witness(out)
    return ApcWitness(w.space, scales, tuple(out_families), (cert,))


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
    scales = [float(r) for r in target_scales]
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
        nonempty = tuple(s for s in fam.sets if s)
        if not nonempty:
            for j in range(n):
                out_families.append(FamilyOfSets(f.codomain, ()))
                audit.append({"from_family": i, "class": j, "certified_by": scales[i * n - 1]})
            continue
        images, lift = on_carrier(f.codomain, [f.image_set(s) for s in nonempty])
        d_img = dim_at_scale(images, r, closed=D.expansion_closed())
        if d_img > n - 1:
            raise CertificateError(
                f"image family dimension {d_img} exceeds n-1={n - 1} at scale {r}"
            )
        colored, _ = make_disjoint(images, r, n - 1)
        for j in range(n):
            out_families.append(lift(colored.color_class(j)))
            audit.append({"from_family": i, "class": j, "certified_by": scales[i * n - 1]})
    out = ApcWitness(f.codomain, tuple(scales), tuple(out_families))
    cert = verify_apc_witness(out)
    return ApcWitness(f.codomain, tuple(scales), tuple(out_families), (cert, tuple(audit)))


def apc_pullback(
    f: CoarseMap, w: ApcWitness, target_scales: Sequence[float], M: float
) -> ApcWitness:
    """Transfer a witness backwards along a map with degree-zero fibers.

    Output family i consists of the R_m-components (R_m = largest target
    scale) of the preimages of w's family i; preimages of an E(R_i)-disjoint
    family are R_i-disjoint and splitting into components only refines.
    M bounds component diameters (from the degree-zero certificate).
    """
    scales = [float(r) for r in target_scales]
    if len(scales) != len(w.families) or scales != sorted(scales):
        raise InputError("one nondecreasing target scale per family required")
    if w.space is not f.codomain:
        raise InputError("witness must live on the codomain")
    E = control_upper(f)
    Rm = scales[-1]
    out_families = []
    for i, (Ri, fam) in enumerate(zip(scales, w.families)):
        ok, wit = is_r_disjoint(fam, E(Ri))
        if not ok:
            raise PreconditionError(
                f"family {i + 1} is not E(R_{i + 1})={E(Ri)}-disjoint; witness {wit}"
            )
        pieces = []
        for s in fam.sets:
            pre = f.preimage(s)
            if not pre:
                continue
            pieces.extend(comp.members for comp in r_components(Subset(f.domain, pre), Rm))
        out_families.append(FamilyOfSets(f.domain, tuple(pieces)))
    out = ApcWitness(f.domain, tuple(scales), tuple(out_families))
    cert = verify_apc_witness(out, mesh_cap=M)
    return ApcWitness(f.domain, tuple(scales), tuple(out_families), (cert,))
