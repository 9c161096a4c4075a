"""Families of subsets with scale statistics and the multiplicity-to-disjointness split.

The disjointification construction works from the level functions
``f_s(x) = dist(x, X \\ B(U_s, R))``.  Membership of a point in a color class
uses a margin of R/(n+1) between the inside and outside f-values.  On finite
spaces this margin is what actually forces the R/(n+1)-separation of each
color class (the bare inner-shrinking of the gap sets does not: two weakly
separated points can sit in different gap sets at distance just under
R/(n+1) when no third point lies between them).  Margin sets are contained in
the inner-shrunk gap sets, so every other stated conclusion (coverage,
containment in R-neighborhood intersections, mesh growth <= 2R) is preserved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import CertificateError, InputError, PreconditionError
from .metric_core import (
    FiniteMetricSpace,
    Subset,
    diameter,
    neighborhood,
)

__all__ = [
    "FamilyOfSets",
    "DisjointificationTrace",
    "dim_at_scale",
    "is_r_disjoint",
    "mesh",
    "lebesgue_number",
    "make_disjoint",
]


@dataclass(frozen=True)
class FamilyOfSets:
    """Indexed collection of subsets of one space, optionally colored.

    ``colors[k]`` is the color of set k; ``n_colors`` fixes the declared color
    range 0..n_colors-1 (classes may be empty, e.g. when a disjointification
    realizes fewer cardinalities than its dimension bound allows).
    """

    space: FiniteMetricSpace
    sets: tuple
    colors: Optional[tuple] = None
    n_colors: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "sets", tuple(frozenset(s) for s in self.sets))
        for k, s in enumerate(self.sets):
            bad = [i for i in s if not (0 <= i < self.space.n)]
            if bad:
                raise InputError(f"set {k} has members {bad} outside the space")
        if self.colors is not None:
            colors = tuple(int(c) for c in self.colors)
            object.__setattr__(self, "colors", colors)
            if len(colors) != len(self.sets):
                raise InputError("one color per set required")
            nc = self.n_colors if self.n_colors is not None else (max(colors) + 1 if colors else 0)
            object.__setattr__(self, "n_colors", nc)
            if any(not (0 <= c < nc) for c in colors):
                raise InputError("colors must lie in the declared range")

    def __len__(self):
        return len(self.sets)

    def union(self) -> frozenset:
        out = frozenset()
        for s in self.sets:
            out |= s
        return out

    def covers_space(self) -> bool:
        return self.union() == frozenset(range(self.space.n))

    def color_class(self, c: int) -> "FamilyOfSets":
        if self.colors is None:
            raise InputError("family is not colored")
        return FamilyOfSets(
            self.space, tuple(s for s, col in zip(self.sets, self.colors) if col == c)
        )

    def color_classes(self) -> list["FamilyOfSets"]:
        return [self.color_class(c) for c in range(self.n_colors or 0)]


def dim_at_scale(F: FamilyOfSets, R: float, *, closed: bool = False) -> int:
    """Nerve dimension of the R-expanded family: max point multiplicity - 1.

    ``closed`` switches the expansion to d <= R (used when R comes from a
    control that certifies an attained bound).
    """
    if not len(F):
        raise PreconditionError("dim_at_scale requires a nonempty family")
    sp = F.space
    mult = np.zeros(sp.n, dtype=int)
    any_nonempty = False
    for s in F.sets:
        if not s:
            continue
        any_nonempty = True
        exp = neighborhood(Subset(sp, s), R, closed=closed)
        for i in exp.members:
            mult[i] += 1
    if not any_nonempty:
        return -1
    return int(mult.max()) - 1


def is_r_disjoint(F: FamilyOfSets, R: float):
    """True iff distinct sets are at distance >= R.  Returns (ok, witness).

    The witness on failure is ((set_a, point_a), (set_b, point_b), distance).
    """
    sp = F.space
    sets = [sorted(s) for s in F.sets]
    for a in range(len(sets)):
        if not sets[a]:
            continue
        for b in range(a + 1, len(sets)):
            if not sets[b]:
                continue
            block = sp.dmat[np.ix_(sets[a], sets[b])]
            m = block.min()
            if m < R:
                pa, pb = np.unravel_index(int(block.argmin()), block.shape)
                return False, ((a, sets[a][pa]), (b, sets[b][pb]), float(m))
    return True, None


def mesh(F: FamilyOfSets) -> float:
    """Max diameter over the family's sets."""
    if not len(F):
        raise PreconditionError("mesh requires a nonempty family")
    if any(not s for s in F.sets):
        raise PreconditionError("mesh requires nonempty sets")
    return max(diameter(Subset(F.space, s)) for s in F.sets)


def lebesgue_number(F: FamilyOfSets) -> float:
    """Largest L such that every B(x, L) lies inside some member.

    +inf when some member is the whole space.  Exact on the finite distance
    set: sup{L : B(x,L) subset of U} = min distance from x to X \\ U (strict
    expansion), so per point the value is the best such minimum over members
    containing x.
    """
    sp = F.space
    if not F.covers_space():
        uncovered = sorted(set(range(sp.n)) - F.union())
        raise PreconditionError(f"family does not cover the space; uncovered {uncovered}")
    best = math.inf
    allpts = set(range(sp.n))
    for x in range(sp.n):
        per_point = 0.0
        for s in F.sets:
            if x not in s:
                continue
            outside = sorted(allpts - s)
            if not outside:
                per_point = math.inf
                break
            per_point = max(per_point, float(np.min(sp.dmat[x, outside])))
        best = min(best, per_point)
    return best


@dataclass(frozen=True)
class DisjointificationTrace:
    """Audit record of one make_disjoint run.

    ``f_values[s][x]`` is dist(x, X \\ B(U_s, R)); ``w_sets`` maps each realized
    index tuple T to the gap set W_T; ``margin_sets`` maps T to the margin
    subset actually emitted (contained in the inner-shrunk W_T).
    """

    R: float
    n: int
    f_values: tuple
    w_sets: dict = field(compare=False)
    margin_sets: dict = field(compare=False)
    output: FamilyOfSets = None


def _level_functions(space: FiniteMetricSpace, F: FamilyOfSets, R: float) -> np.ndarray:
    """f_s(x) per set s; +inf where the expanded set is the whole space."""
    vals = np.empty((len(F.sets), space.n))
    allpts = set(range(space.n))
    for k, s in enumerate(F.sets):
        exp = neighborhood(Subset(space, s), R)
        outside = sorted(allpts - exp.members)
        if not outside:
            vals[k, :] = math.inf
        else:
            vals[k, :] = np.min(space.dmat[:, outside], axis=1)
    return vals


def make_disjoint(U: FamilyOfSets, R: float, n: Optional[int] = None):
    """Split a cover of R-dimension <= n into n+1 color classes, each R/(n+1)-disjoint.

    Returns (colored FamilyOfSets, DisjointificationTrace).  The output covers
    the space, has mesh <= mesh(U) + 2R, and every output set lies inside the
    intersection of the R-expansions of the input sets indexed by its defining
    tuple T.
    """
    sp = U.space
    if R <= 0:
        raise PreconditionError("make_disjoint requires R > 0")
    if not U.covers_space():
        raise PreconditionError("make_disjoint requires a cover of the space")
    dim = dim_at_scale(U, R)
    if n is None:
        n = dim
    if dim > n:
        raise PreconditionError(f"R-dimension {dim} exceeds the supplied bound n={n}")
    gamma = R / (n + 1)

    fvals = _level_functions(sp, U, R)
    nsets = len(U.sets)

    # Per point, emit every top-prefix cut whose gap is >= gamma; T = indices
    # left of the cut.  Points with a cut are in the margin set M_T.
    margin_members: dict[tuple, set] = {}
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
                T = tuple(sorted(order[:cut]))
                margin_members.setdefault(T, set()).add(x)
            if lo == 0.0:
                break

    # Gap sets W_T for the realized T's, for the audit trail.
    w_sets = {}
    for T in margin_members:
        tset = set(T)
        members = []
        for x in range(sp.n):
            col = fvals[:, x]
            inside = min(col[t] for t in T)
            rest = [col[s] for s in range(nsets) if s not in tset]
            outside = max(rest) if rest else 0.0
            if inside > outside:
                members.append(x)
        w_sets[T] = frozenset(members)

    sets, colors, tuples = [], [], []
    for T in sorted(margin_members, key=lambda t: (len(t), t)):
        members = frozenset(margin_members[T])
        if not members:
            continue
        if len(T) > n + 1:
            raise CertificateError("realized index tuple larger than n+1", witness=T)
        sets.append(members)
        colors.append(len(T) - 1)
        tuples.append(T)
    out = FamilyOfSets(sp, tuple(sets), tuple(colors), n_colors=n + 1)

    _check_disjointification(U, R, n, out, tuples)
    trace = DisjointificationTrace(
        R=R,
        n=n,
        f_values=tuple(tuple(row) for row in fvals),
        w_sets=w_sets,
        margin_sets={T: s for T, s in zip(tuples, sets)},
        output=out,
    )
    return out, trace


def _check_disjointification(U, R, n, out, tuples):
    sp = U.space
    if not out.covers_space():
        uncovered = sorted(set(range(sp.n)) - out.union())
        raise CertificateError("disjointification does not cover", witness=uncovered)
    for c in range(n + 1):
        cls = out.color_class(c)
        ok, wit = is_r_disjoint(cls, R / (n + 1))
        if not ok:
            raise CertificateError(f"color class {c} not R/(n+1)-disjoint", witness=wit)
    in_mesh = max(
        (diameter(Subset(sp, s)) for s in U.sets if s), default=0.0
    )
    bound = in_mesh + 2 * R
    m = mesh(out)
    if m > bound:
        raise CertificateError(f"output mesh {m} exceeds {bound}")
    for s, T in zip(out.sets, tuples):
        for t in T:
            exp = neighborhood(Subset(sp, U.sets[t]), R)
            if not s <= exp.members:
                raise CertificateError(
                    "output set escapes an R-neighborhood of its defining input set",
                    witness=(sorted(s), t),
                )
