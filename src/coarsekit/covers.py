"""Families of subsets with scale statistics and the multiplicity-to-disjointness split.

A family is held as one boolean ``membership`` matrix (sets x points), and
every scale statistic reads it or its R-expansion ``expansion(R)``
(``M | (M @ (d < R) > 0)``, ``<=`` when closed): the multiplicity
(``dim_at_scale``) is the column sums of the expansion, R-disjointness asks
whether an expansion row meets another membership row, and the distances to
the complements of the rows (``_dist_outside``) give both the Lebesgue number
(membership rows) and the level functions of the disjointification
(expansion rows).

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

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import CertificateError, InputError, PreconditionError
from .metric_core import FiniteMetricSpace, Subset, diameter

__all__ = [
    "FamilyOfSets",
    "DisjointificationTrace",
    "dim_at_scale",
    "is_r_disjoint",
    "mesh",
    "lebesgue_number",
    "make_disjoint",
    "on_carrier",
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

    @cached_property
    def membership(self) -> np.ndarray:
        """Read-only boolean matrix: row k marks the points of set k."""
        M = np.zeros((len(self.sets), self.space.n), dtype=bool)
        for k, s in enumerate(self.sets):
            M[k, list(s)] = True
        M.setflags(write=False)
        return M

    @cached_property
    def _expansions(self) -> dict:
        return {}

    def expansion(self, R: float, *, closed: bool = False) -> np.ndarray:
        """Read-only membership of the expansions B(U_k, R): set k plus every
        point at distance < R from it (<= R when closed).  Computed once per
        (R, closed) and kept on the family."""
        key = (R, closed)
        if key not in self._expansions:
            near = self.space.dmat <= R if closed else self.space.dmat < R
            exp = self.membership | (self.membership.astype(float) @ near > 0)
            exp.setflags(write=False)
            self._expansions[key] = exp
        return self._expansions[key]

    def union(self) -> frozenset:
        out = frozenset()
        for s in self.sets:
            out |= s
        return out

    def uncovered(self) -> list[int]:
        """Points of the space in no set, in increasing order."""
        return np.flatnonzero(~self.membership.any(axis=0)).tolist()

    def covers_space(self) -> bool:
        return not self.uncovered()

    def max_diameter(self) -> float:
        """Largest diameter among the nonempty sets; 0.0 when there is none."""
        return max((diameter(Subset(self.space, s)) for s in self.sets if s), default=0.0)

    def color_class(self, c: int) -> "FamilyOfSets":
        if self.colors is None:
            raise InputError("family is not colored")
        return FamilyOfSets(
            self.space, tuple(s for s, col in zip(self.sets, self.colors) if col == c)
        )

    def color_classes(self) -> list["FamilyOfSets"]:
        return [self.color_class(c) for c in range(self.n_colors or 0)]


def on_carrier(space: FiniteMetricSpace, sets):
    """The family of ``sets`` on the subspace their union carries, and the map
    lifting a family on that subspace back to a family on ``space``.

    Lets a family that need not cover ``space`` be disjointified: its union
    covers the carrier.
    """
    sub, old_of_new = space.subspace(frozenset().union(*sets))
    new_of_old = {o: q for q, o in enumerate(old_of_new)}
    fam = FamilyOfSets(sub, tuple(frozenset(new_of_old[y] for y in s) for s in sets))

    def lift(F: FamilyOfSets) -> FamilyOfSets:
        return FamilyOfSets(space, tuple(frozenset(old_of_new[q] for q in s) for s in F.sets))

    return fam, lift


def dim_at_scale(F: FamilyOfSets, R: float, *, closed: bool = False) -> int:
    """Nerve dimension of the R-expanded family: max point multiplicity - 1
    (-1 when every set is empty).

    ``closed`` switches the expansion to d <= R (used when R comes from a
    control that certifies an attained bound).
    """
    if not len(F):
        raise PreconditionError("dim_at_scale requires a nonempty family")
    return int(F.expansion(R, closed=closed).sum(axis=0).max()) - 1


def is_r_disjoint(F: FamilyOfSets, R: float):
    """True iff distinct sets are at distance >= R.  Returns (ok, witness).

    The witness on failure is ((set_a, point_a), (set_b, point_b), distance)
    for the first pair a < b closer than R, and the closest points of that pair.
    """
    if len(F) < 2 or R <= 0:
        return True, None
    # meets[a, b]: the R-expansion of set a contains a point of set b
    meets = np.triu(F.expansion(R).astype(float) @ F.membership.T > 0, 1)
    if not meets.any():
        return True, None
    a, b = (int(v) for v in np.argwhere(meets)[0])
    sa, sb = sorted(F.sets[a]), sorted(F.sets[b])
    block = F.space.dmat[np.ix_(sa, sb)]
    pa, pb = np.unravel_index(int(block.argmin()), block.shape)
    return False, ((a, sa[pa]), (b, sb[pb]), float(block[pa, pb]))


def mesh(F: FamilyOfSets) -> float:
    """Max diameter over the family's sets."""
    if not len(F):
        raise PreconditionError("mesh requires a nonempty family")
    if any(not s for s in F.sets):
        raise PreconditionError("mesh requires nonempty sets")
    return F.max_diameter()


def _dist_outside(space: FiniteMetricSpace, membership: np.ndarray) -> np.ndarray:
    """dist(x, X \\ U_k) for every row U_k of ``membership`` and every point x;
    +inf along a row that covers the whole space."""
    out = np.full(membership.shape, np.inf)
    for k, row in enumerate(membership):
        if not row.all():
            out[k] = space.dmat[:, ~row].min(axis=1)
    return out


def lebesgue_number(F: FamilyOfSets) -> float:
    """Largest L such that every B(x, L) lies inside some member.

    +inf when some member is the whole space.  Exact on the finite distance
    set: sup{L : B(x,L) subset of U} = min distance from x to X \\ U (strict
    expansion), so per point the value is the best such minimum over members
    containing x.
    """
    uncovered = F.uncovered()
    if uncovered:
        raise PreconditionError(f"family does not cover the space; uncovered {uncovered}")
    inside = np.where(F.membership, _dist_outside(F.space, F.membership), 0.0)
    return float(inside.max(axis=0).min())


@dataclass(frozen=True)
class DisjointificationTrace:
    """Audit record of one make_disjoint run.

    ``w_sets`` maps each realized index tuple T to the gap set W_T, the points
    whose level values f_s(x) = dist(x, X \\ B(U_s, R)) are all larger on T
    than off it; ``margin_sets`` maps T to the margin subset actually emitted
    (contained in the inner-shrunk W_T), the output set of color len(T) - 1.
    """

    R: float
    n: int
    w_sets: dict = field(compare=False)
    margin_sets: dict = field(compare=False)


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

    fvals = _dist_outside(sp, U.expansion(R))

    # Per point, every top-prefix cut of its f-values (in decreasing order,
    # ties by set index) with a gap >= gamma above a positive value; T = the
    # indices left of the cut.  Points with a cut are in the margin set M_T.
    order = np.argsort(-fvals, axis=0, kind="stable")
    hi = np.take_along_axis(fvals, order, axis=0)
    lo = np.vstack([hi[1:], np.zeros((1, sp.n))])
    with np.errstate(invalid="ignore"):  # inf - inf: no gap between two infinite values
        cuts = (hi - lo >= gamma) & (hi > 0)
    columns = order.T.tolist()
    margin_members: dict[tuple, set] = {}
    for x, cut in zip(*np.nonzero(cuts.T)):
        T = tuple(sorted(columns[x][: cut + 1]))
        margin_members.setdefault(T, set()).add(int(x))

    # Gap sets W_T for the realized T's, for the audit trail.
    w_sets = {}
    for T in margin_members:
        on_t = np.zeros(len(U), dtype=bool)
        on_t[list(T)] = True
        inside = fvals[on_t].min(axis=0) > fvals[~on_t].max(axis=0, initial=0.0)
        w_sets[T] = frozenset(np.flatnonzero(inside).tolist())

    sets, colors, tuples = [], [], []
    for T in sorted(margin_members, key=lambda t: (len(t), t)):
        if len(T) > n + 1:
            raise CertificateError("realized index tuple larger than n+1", witness=T)
        sets.append(frozenset(margin_members[T]))
        colors.append(len(T) - 1)
        tuples.append(T)
    out = FamilyOfSets(sp, tuple(sets), tuple(colors), n_colors=n + 1)

    _check_disjointification(U, R, n, out, tuples)
    trace = DisjointificationTrace(
        R=R,
        n=n,
        w_sets=w_sets,
        margin_sets={T: s for T, s in zip(tuples, sets)},
    )
    return out, trace


def _check_disjointification(U, R, n, out, tuples):
    uncovered = out.uncovered()
    if uncovered:
        raise CertificateError("disjointification does not cover", witness=uncovered)
    for c in range(n + 1):
        cls = out.color_class(c)
        ok, wit = is_r_disjoint(cls, R / (n + 1))
        if not ok:
            raise CertificateError(f"color class {c} not R/(n+1)-disjoint", witness=wit)
    bound = U.max_diameter() + 2 * R
    m = mesh(out)
    if m > bound:
        raise CertificateError(f"output mesh {m} exceeds {bound}")
    exp = U.expansion(R)
    for s, row, T in zip(out.sets, out.membership, tuples):
        for t in T:
            if (row & ~exp[t]).any():
                raise CertificateError(
                    "output set escapes an R-neighborhood of its defining input set",
                    witness=(sorted(s), t),
                )
