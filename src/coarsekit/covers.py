"""Families of subsets with scale statistics and the multiplicity-to-disjointness split.

A family is held as one boolean ``membership`` matrix (sets x points), and
every scale statistic reads it or its R-expansion ``expansion(R)``
(``M | (M @ (d < R) > 0)``, ``<=`` when closed): the multiplicity
(``dim_at_scale``) is the column sums of the expansion, R-disjointness reads
``closer_than(R)`` (an expansion row meeting another membership row), and the
distances to the complements of the rows (``metric_core._dist_outside``,
computed on each row's own points, 0 off the row) give both the Lebesgue
number (membership rows) and the level functions of the disjointification
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

from .errors import CertificateError, InputError, PreconditionError, check_number
from .metric_core import FiniteMetricSpace, _block, _check_points, _dist_outside

__all__ = [
    "FamilyOfSets",
    "DisjointificationTrace",
    "dim_at_scale",
    "is_r_disjoint",
    "mesh",
    "lebesgue_number",
    "make_disjoint",
    "on_carrier",
    "split_on_carrier",
    "check_families",
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
            _check_points(self.space, s, f"set {k} members")
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
        key = (check_number(R, "R"), closed)
        if key not in self._expansions:
            near = self.space.dmat <= R if closed else self.space.dmat < R
            exp = self.membership | (self.membership.astype(float) @ near > 0)
            exp.setflags(write=False)
            self._expansions[key] = exp
        return self._expansions[key]

    def closer_than(self, R: float) -> np.ndarray:
        """Symmetric boolean matrix (sets x sets): True where distinct sets
        hold points at distance < R, read as an R-expansion row meeting a
        membership row.  All False when R <= 0."""
        if check_number(R, "R") <= 0:
            return np.zeros((len(self.sets),) * 2, dtype=bool)
        meets = self.expansion(R).astype(float) @ self.membership.T > 0
        np.fill_diagonal(meets, False)
        return meets

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

    @cached_property
    def set_diameters(self) -> tuple:
        """Diameter of each set, in set order; None for an empty set.  The
        family is frozen and the distance table read-only, so the values are
        computed once, one square block per set (``metric_core._block``)."""
        dmat = self.space.dmat
        return tuple(float(_block(dmat, list(s)).max()) if s else None for s in self.sets)

    def max_diameter(self) -> float:
        """Largest diameter among the nonempty sets; 0.0 when there is none."""
        return max((d for d in self.set_diameters if d is not None), default=0.0)

    def color_class(self, c: int) -> "FamilyOfSets":
        if self.colors is None:
            raise InputError("family is not colored")
        return FamilyOfSets(
            self.space, tuple(s for s, col in zip(self.sets, self.colors) if col == c)
        )

    def color_classes(self) -> list["FamilyOfSets"]:
        return [self.color_class(c) for c in range(self.n_colors or 0)]


def on_carrier(space: FiniteMetricSpace, sets) -> FamilyOfSets:
    """The family of ``sets`` on the subspace their union carries, indexed in
    the order of that sorted union."""
    sub, old_of_new = space.subspace(frozenset().union(*sets))
    new_of_old = {o: q for q, o in enumerate(old_of_new)}
    return FamilyOfSets(sub, tuple(frozenset(new_of_old[y] for y in s) for s in sets))


def dim_at_scale(F: FamilyOfSets, R: float, *, closed: bool = False) -> int:
    """Nerve dimension of the R-expanded family: max point multiplicity - 1
    (-1 when every set is empty).

    ``closed`` switches the expansion to d <= R (used when R comes from a
    control that certifies an attained bound).
    """
    check_number(R, "R")
    if not len(F):
        raise PreconditionError("dim_at_scale requires a nonempty family")
    return int(F.expansion(R, closed=closed).sum(axis=0).max()) - 1


def is_r_disjoint(F: FamilyOfSets, R: float):
    """True iff distinct sets are at distance >= R.  Returns (ok, witness).

    The witness on failure is ((set_a, point_a), (set_b, point_b), distance)
    for the first pair a < b closer than R, and the closest points of that pair.
    """
    check_number(R, "R")
    if len(F) < 2:
        return True, None
    meets = np.triu(F.closer_than(R), 1)
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

    ``margin_sets`` maps each realized index tuple T to the margin set actually
    emitted, the output set of color len(T) - 1, in emission order.
    """

    R: float
    n: int
    margin_sets: dict = field(compare=False)


def make_disjoint(U: FamilyOfSets, R: float, n: Optional[int] = None):
    """Split a cover of R-dimension <= n into n+1 color classes, each R/(n+1)-disjoint.

    Returns (colored FamilyOfSets, DisjointificationTrace).  The output covers
    the space, has mesh <= mesh(U) + 2R, and every output set lies inside the
    intersection of the R-expansions of the input sets indexed by its defining
    tuple T.
    """
    sp = U.space
    if check_number(R, "R") <= 0:
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

    sets, colors, tuples = [], [], []
    for T in sorted(margin_members, key=lambda t: (len(t), t)):
        sets.append(frozenset(margin_members[T]))
        colors.append(len(T) - 1)
        tuples.append(T)
    out = FamilyOfSets(sp, tuple(sets), tuple(colors), n_colors=n + 1)

    _check_disjointification(U, R, n, out, tuples)
    trace = DisjointificationTrace(R=R, n=n, margin_sets={T: s for T, s in zip(tuples, sets)})
    return out, trace


def split_on_carrier(space: FiniteMetricSpace, sets, R: float, n: int):
    """The pushforward split: ``make_disjoint`` at R and bound n on the subspace
    the union of ``sets`` carries.  Returns (the n+1 color classes lifted back
    to ``space``, the trace); sets with no points give n+1 empty classes and
    an empty trace."""
    carrier = sorted(frozenset().union(*sets))
    if not carrier:
        return [FamilyOfSets(space, ()) for _ in range(n + 1)], DisjointificationTrace(R, n, {})
    colored, trace = make_disjoint(on_carrier(space, sets), R, n)
    return [FamilyOfSets(space, tuple(frozenset(carrier[q] for q in s) for s in c.sets))
            for c in colored.color_classes()], trace


def check_families(space: FiniteMetricSpace, families, scales, mesh_cap=None) -> list:
    """The shared cover certificate: family i is scales[i]-disjoint, the
    families jointly cover ``space``, and (when ``mesh_cap`` is given) every
    mesh is <= mesh_cap.  Returns one {"scale", "r_disjoint", "mesh"} per
    family; the first failure raises CertificateError naming the family,
    numbered from 1."""
    certs = []
    covered = np.zeros(space.n, dtype=bool)
    for i, (R, fam) in enumerate(zip(scales, families)):
        ok, wit = is_r_disjoint(fam, R)
        if not ok:
            raise CertificateError(f"family {i + 1} is not {R}-disjoint", witness=wit)
        certs.append({"scale": R, "r_disjoint": True, "mesh": mesh(fam) if len(fam) else 0.0})
        covered |= fam.membership.any(axis=0)
    uncovered = np.flatnonzero(~covered).tolist()
    if uncovered:
        raise CertificateError("families do not cover the space", witness=uncovered)
    if mesh_cap is not None and any(c["mesh"] > mesh_cap for c in certs):
        raise CertificateError(f"mesh exceeds the cap {mesh_cap}")
    return certs


def _check_disjointification(U, R, n, out, tuples):
    """make_disjoint's certificate: the color classes are R/(n+1)-disjoint,
    cover the space and have mesh <= mesh(U) + 2R, and each set lies inside
    the R-expansion of every input set of its defining tuple."""
    check_families(out.space, out.color_classes(), [R / (n + 1)] * (n + 1), U.max_diameter() + 2 * R)
    exp = U.expansion(R)
    for s, row, T in zip(out.sets, out.membership, tuples):
        if (row & ~exp[list(T)].all(axis=0)).any():
            raise CertificateError(
                "output set does not match its defining tuple", witness=(sorted(s), T)
            )
