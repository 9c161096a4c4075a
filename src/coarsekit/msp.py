"""Mass concentration at fixed parameters: optimal disjoint bounded-mass
families, the dimension-to-mass constant, and measure transfer along maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .coarse_maps import (
    CoarseMap,
    _fiber_blocks,
    control_upper,
    graph_coloring,
    maximal_r_bounded_sets,
)
from .covers import FamilyOfSets, is_r_disjoint, mesh, split_on_carrier
from .errors import CertificateError, InputError, PreconditionError, check_number, is_int
from .metric_core import (
    FiniteMetricSpace,
    Subset,
    _block,
    _check_points,
    bits,
    bounded_components,
    components,
    diameter,
    neighborhood,
)

__all__ = [
    "ProbMeasure",
    "MassFamily",
    "best_mass_family",
    "half_mass_witness",
    "asdim_to_msp",
    "transfer_measure_selection",
    "pushforward_measure",
    "msp_pushforward",
    "msp_pullback",
    "map_msp_check",
]

EXACT_MASS_CAP = 16
EXACT_GAME_CAP = 12


@dataclass(frozen=True)
class ProbMeasure:
    """Nonnegative weights per point summing to 1 (renormalized and flagged if
    not), held exactly: point i weighs ``units[i] / total``, in lowest terms,
    and ``weights`` are those quotients correctly rounded."""

    space: FiniteMetricSpace
    weights: tuple
    renormalized: bool = False
    units: tuple = field(init=False, repr=False, compare=False)
    total: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # numpy's integers have no as_integer_ratio; floats and Fractions do
        ratios = [(int(v), 1) if is_int(v) else
                  check_number(v, "weights", finite=True).as_integer_ratio() for v in self.weights]
        if len(ratios) != self.space.n:
            raise InputError("one weight per point required")
        if any(p < 0 for p, _ in ratios):
            raise InputError("weights must be nonnegative")
        common = math.lcm(*(q for _, q in ratios))
        units = [p * (common // q) for p, q in ratios]
        total = sum(units)
        if total <= 0:
            raise InputError("total mass must be positive")
        g = math.gcd(total, *units)
        object.__setattr__(self, "renormalized", total != common)
        object.__setattr__(self, "units", tuple(u // g for u in units))
        object.__setattr__(self, "total", total // g)
        object.__setattr__(self, "weights", tuple(u / self.total for u in self.units))

    def mass(self, members) -> Fraction:
        return Fraction(sum(self.units[i] for i in members), self.total)

    def support(self) -> frozenset:
        return frozenset(i for i, u in enumerate(self.units) if u)


@dataclass(frozen=True)
class MassFamily:
    """An R-disjoint family of S-bounded sets with its mass certificate."""

    family: FamilyOfSets
    R: float
    S: float
    mass: Fraction
    exact: bool = True
    flags: dict = field(default_factory=dict, compare=False)

    def verify(self, mu: ProbMeasure, floor=0):
        """Re-check R-disjointness, the diameter bound S, the stated mass
        against mu, and the construction's guaranteed mass ``floor``, exactly."""
        ok, wit = is_r_disjoint(self.family, self.R)
        if not ok:
            raise CertificateError("family not R-disjoint", witness=wit)
        widest = self.family.max_diameter()
        if widest > self.S:
            raise CertificateError("a set exceeds the diameter bound", witness=widest)
        got = mu.mass(self.family.union())
        if got != self.mass:
            raise CertificateError(f"mass mismatch: stated {self.mass}, got {got}")
        if self.mass < floor:
            raise CertificateError(f"mass {self.mass} below the guaranteed {floor}")


def _feasible_masks(feasible, points):
    """Every feasible mask over ``points``, in increasing order.  Feasibility is
    downward closed (dropping a point only splits components and shrinks
    diameters), so only feasible masks need extending."""
    masks = [0]
    for p in sorted(points):
        masks += [m | 1 << p for m in masks if feasible(m, p)]
    return masks


def _max_mass_mask(feasible, mu: ProbMeasure, points):
    """The least feasible mask over ``points`` with the greatest mass, and
    that mass in ``mu.units``, by depth-first branch and bound.

    Points are decided from the highest index down, inclusion first; by
    downward closure a point is included only while the mask stays feasible,
    so every feasible mask is a leaf.  A node is pruned when even all its
    undecided weight cannot reach the best mass.  A tie goes to the lesser
    mask, so the answer does not depend on the visit order.
    """
    order = sorted(points, reverse=True)
    w = mu.units
    rest = [sum(w[p] for p in order[i:]) for i in range(len(order) + 1)]
    best_mask, best = 0, -1

    def search(i, mask, partial):
        nonlocal best_mask, best
        if partial + rest[i] < best:
            return
        if i == len(order):
            if partial > best or (partial == best and mask < best_mask):
                best_mask, best = mask, partial
            return
        p = order[i]
        if feasible(mask, p):
            search(i + 1, mask | 1 << p, partial + w[p])
        search(i + 1, mask, partial)

    search(0, 0, 0)
    return best_mask, best


def best_mass_family(
    space: FiniteMetricSpace, mu: ProbMeasure, R: float, S: float, *, exact_cap: int = EXACT_MASS_CAP
) -> MassFamily:
    """Max-mass R-disjoint family of S-bounded sets.

    A union of such a family is exactly a set whose chain components at steps
    < R are S-bounded, so the exact branch (<= exact_cap points) maximizes mass
    over subsets with that property and returns the components.  Above the cap,
    greedy (heaviest S-bounded set first, excise everything within R) with a
    lower-bound flag.
    """
    if check_number(R, "R") < 0 or check_number(S, "S") < 0:
        raise InputError("R and S must be >= 0")
    if mu.space is not space:
        raise InputError("measure must live on the given space")
    n = space.n
    if n <= exact_cap:
        # only support points matter for mass; adding zero-weight points never helps
        best_mask, best_units = _max_mass_mask(bounded_components(space, R, S), mu, mu.support())
        fam = FamilyOfSets(space, components(space, bits(best_mask), R, strict=True))
        out = MassFamily(fam, R, S, Fraction(best_units, mu.total), exact=True)
        out.verify(mu)
        return out
    candidates, exact_sets = maximal_r_bounded_sets(space, S)
    remaining = set(range(n))
    chosen, total = [], 0
    while True:
        best_set, best_m = None, 0
        for c in candidates:
            cc = c & remaining
            m = sum(mu.units[i] for i in cc)
            if m > best_m:
                best_set, best_m = cc, m
        if best_set is None:
            break
        chosen.append(best_set)
        total += best_m
        remaining -= neighborhood(Subset(space, best_set), R).members
    fam = FamilyOfSets(space, tuple(chosen))
    flags = {"lower_bound": True}
    if not exact_sets:
        flags["candidate_slack"] = 2.0
    out = MassFamily(fam, R, S, Fraction(total, mu.total), exact=False, flags=flags)
    out.verify(mu)
    return out


def half_mass_witness(
    space: FiniteMetricSpace, mu: ProbMeasure, R: float
) -> Optional[MassFamily]:
    """The first family of mass > 1/2 over the positive realized diameter
    bounds B, tried in increasing order; None when no bound reaches it."""
    check_number(R, "R")
    for B in space.realized_distances():
        if B > 0:
            cand = best_mass_family(space, mu, R, B)
            if cand.mass > Fraction(1, 2):
                return cand
    return None


def asdim_to_msp(cover: FamilyOfSets, R: float, mu: ProbMeasure) -> MassFamily:
    """Max-mass color class of a disjointified cover; mass >= 1/(number of colors)."""
    check_number(R, "R")
    if cover.colors is None:
        raise InputError("cover must be colored")
    if not cover.covers_space():
        raise PreconditionError("cover must cover the space")
    S = mesh(cover)
    classes = [cover.color_class(c) for c in range(cover.n_colors)]
    for c, cls in enumerate(classes):
        ok, wit = is_r_disjoint(cls, R)
        if not ok:
            raise PreconditionError(f"color {c} not {R}-disjoint; witness {wit}")
    best_c, best_m = _heaviest(mu, classes)
    out = MassFamily(classes[best_c], R, S, best_m,
                     flags={"color": best_c, "n_colors": cover.n_colors})
    out.verify(mu, floor=Fraction(1, cover.n_colors))
    return out


def _heaviest(mu: ProbMeasure, families) -> tuple[int, Fraction]:
    """(index, mass) of the first family whose union has the largest mu-mass."""
    masses = [mu.mass(fam.union()) for fam in families]
    best = masses.index(max(masses))
    return best, masses[best]


def transfer_measure_selection(f: CoarseMap, mu: ProbMeasure, selection: Sequence[int]) -> ProbMeasure:
    """Measure on the domain putting mu(y) on the chosen fiber point x_y."""
    if mu.space is not f.codomain:
        raise InputError("measure must live on the codomain")
    if not f.is_surjective():
        raise PreconditionError("map must be surjective")
    selection = [int(x) for x in selection]
    if len(selection) != f.codomain.n:
        raise InputError("one selected point per codomain point required")
    for y, x in enumerate(selection):
        if f(x) != y:
            raise PreconditionError(f"selection is not a right inverse at {y}")
    w = [0] * f.domain.n
    for y, x in enumerate(selection):
        w[x] += mu.units[y]
    return ProbMeasure(f.domain, tuple(w))


def pushforward_measure(f: CoarseMap, mu: ProbMeasure) -> ProbMeasure:
    """lambda(y) = mu of the fiber over y."""
    if mu.space is not f.domain:
        raise InputError("measure must live on the domain")
    w = [0] * f.codomain.n
    for x, u in enumerate(mu.units):
        w[f(x)] += u
    return ProbMeasure(f.codomain, tuple(w))


def msp_pushforward(
    f: CoarseMap,
    n: int,
    mu: ProbMeasure,
    R: float,
    witness: MassFamily,
    lam: ProbMeasure,
) -> MassFamily:
    """Push a domain mass witness to the codomain.

    The witness (D(nR)-disjoint, B-bounded, lam-mass > 1/2 for the transferred
    measure lam) has its image sets n-colored so same-color images are R-apart;
    image sets keep diameter <= E(B), so the bound S = E(B) + n*R holds with
    room.  When no n-coloring of the <R proximity graph exists, the
    disjointification route is used instead and flagged: its sets grow by the
    expansions, giving S = E(B) + 2*n*R.  Either way the best color class has
    mass >= 1/(2n).
    """
    if check_number(R, "R") < 0:
        raise InputError("R must be >= 0")
    if mu.space is not f.codomain or lam.space is not f.domain:
        raise InputError("mu lives on the codomain, lam on the domain")
    witness.verify(lam)
    B = witness.S
    E = control_upper(f)
    if witness.mass < Fraction(1, 2):
        raise PreconditionError(f"witness mass {witness.mass} below 1/2")
    images = [f.image_set(s) for s in witness.family.sets if s]
    Y = f.codomain
    coloring = graph_coloring(FamilyOfSets(Y, tuple(images)).closer_than(R), n)
    if coloring is not None:
        classes = {}
        for idx, c in enumerate(coloring):
            classes.setdefault(c, []).append(images[idx])
        S = E(B) + n * R
        flags = {"route": "coloring"}
        fams = [FamilyOfSets(Y, tuple(sets)) for _, sets in sorted(classes.items())]
    else:
        fams, _ = split_on_carrier(Y, images, n * R, n - 1)
        S = E(B) + 2 * n * R
        flags = {"route": "disjointify", "bound_slack": n * R}
    best_c, best_m = _heaviest(mu, fams)
    floor = Fraction(1, 2 * n)
    flags["equality"] = best_m == floor
    out = MassFamily(fams[best_c], R, S, best_m, flags=flags)
    out.verify(mu, floor=floor)
    return out


def msp_pullback(
    f: CoarseMap,
    mu: ProbMeasure,
    R_X: float,
    *,
    K: float,
    S: float,
    R_Y: Optional[float] = None,
) -> MassFamily:
    """Compose codomain and fiber mass searches into a domain witness.

    Pushes mu forward, finds a codomain set of mass > 1/2 with K-bounded
    R_Y-components, then per component finds a fiber set holding > 1/2 of the
    component's preimage mass with S-bounded R_X-components.  The union has
    mass >= 0.25 (equality flagged) and S-bounded R_X-components.

    R_Y must exceed E(R_X): points closer than R_X map less than R_Y apart,
    into one R_Y-component, so the preimages of distinct components stay R_X
    apart.  It defaults to the least realized codomain distance above
    E(R_X) (inf when there is none), the smallest such scale.
    """
    for name, v in (("R_X", R_X), ("K", K), ("S", S)):
        if check_number(v, name) < 0:
            raise InputError(f"{name} must be >= 0")
    if mu.space is not f.domain:
        raise InputError("measure must live on the domain")
    e = control_upper(f)(R_X)
    if R_Y is None:
        R_Y = min((d for d in f.codomain.realized_distances() if d > e), default=math.inf)
    elif check_number(R_Y, "R_Y") <= e:
        raise PreconditionError(f"R_Y must be > E(R_X) = {e}")
    lam = pushforward_measure(f, mu)
    stage1 = best_mass_family(f.codomain, lam, R_Y, K)
    if stage1.mass < Fraction(1, 2):
        raise CertificateError(f"codomain stage mass {stage1.mass} below 1/2", witness="codomain")
    pieces = []
    for comp in stage1.family.sets:
        pre = f.preimage(comp)
        # The weighted part of the preimage is its own fiber set of full mass
        # when its R_X-components are S-bounded; the search runs otherwise.
        heavy = components(f.domain, (x for x in pre if mu.units[x]), R_X, strict=True)
        if all(diameter(Subset(f.domain, c)) <= S for c in heavy):
            pieces += heavy
            continue
        sub, old_of_new = f.domain.subspace(pre)
        local = ProbMeasure(sub, tuple(mu.units[o] for o in old_of_new))
        found = best_mass_family(sub, local, R_X, S)
        if found.mass < Fraction(1, 2):
            raise CertificateError(
                f"fiber stage mass {found.mass} below 1/2 over component {sorted(comp)}", witness="fiber")
        pieces += (frozenset(old_of_new[q] for q in s) for s in found.family.sets)
    omega = frozenset().union(*pieces)
    mass = mu.mass(omega)
    fam = FamilyOfSets(f.domain, components(f.domain, omega, R_X, strict=True))
    out = MassFamily(fam, R_X, S, mass, flags={"equality": mass == Fraction(1, 4)})
    out.verify(mu, floor=Fraction(1, 4))
    return out


def map_msp_check(
    f: CoarseMap, A, R: float, S: float, c: float, K: float
) -> dict:
    """Worst case over measures on a fiber block of the best feasible mass.

    For each maximal K-bounded subset of A, the value of the zero-sum game
    (measure picks weights on the preimage, player picks a set whose
    R-components are S-bounded) equals 1 / (fractional covering number of the
    maximal feasible sets).  Solved exactly by linear programming for preimages
    up to 12 points, certified by the cover and packing of one solve;
    larger instances are probed with adversarial concentrated measures and
    reported inconclusive.
    """
    for name, v in (("R", R), ("S", S), ("c", c), ("K", K)):
        check_number(v, name)
    if R < 0 or S < 0 or K < 0 or not 0 < c < 1:
        raise InputError("need R, S, K >= 0 and 0 < c < 1")
    if isinstance(A, Subset) and A.space is not f.codomain:
        raise InputError("A must be a subset of the codomain")
    members = _check_points(f.codomain, A.members if isinstance(A, Subset) else frozenset(A), "A")
    blocks, exact_blocks = _fiber_blocks(f, K, within=members)
    worst = None
    details = []
    for blk, pre in blocks:
        pre = sorted(pre)
        if len(pre) <= EXACT_GAME_CAP and exact_blocks:
            value, n_sets = _game_value(f.domain, pre, R, S)
            details.append(
                {"block": sorted(blk), "value": value, "exact": True, "max_feasible_sets": n_sets}
            )
        else:
            value = _adversarial_probe(f.domain, pre, R, S)
            details.append({"block": sorted(blk), "value": value, "exact": False})
        if worst is None or value < worst:
            worst = value
    exact = all(d["exact"] for d in details) if details else True
    achievable = worst is None or worst > c
    equality = worst is not None and math.isclose(worst, c, rel_tol=0, abs_tol=1e-12)
    return {
        "achievable": achievable if exact else None,
        "worst_value": worst,
        "threshold": c,
        "equality_at_threshold": equality,
        "exact": exact,
        "blocks": details,
    }


def _maximal_feasible_sets(space, pts, R, S):
    """Feasible masks over ``pts`` with no feasible one-point extension, in
    increasing order; by downward closure these are the maximal ones.  One
    pass over a table of all 2^k masks (k <= EXACT_GAME_CAP): a mask is
    dropped when, for some point i outside it, ``m | 1 << i`` is feasible."""
    sub, _ = space.subspace(pts)
    feas = np.array(_feasible_masks(bounded_components(sub, R, S), range(sub.n)))
    known = np.zeros(1 << sub.n, dtype=bool)
    known[feas] = True
    extended = np.zeros(len(feas), dtype=bool)
    for i in range(sub.n):
        extended |= known[feas | 1 << i] & (feas >> i & 1 == 0)
    return feas[~extended].tolist()


def _game_value(space, pts, R, S):
    """(1/tau, number of maximal feasible sets) on ``pts``, tau their fractional
    covering number: one HiGHS solve gives the cover y and, as the duals of its
    cover rows, the packing z, which ``_check_game`` certifies."""
    from scipy.optimize import linprog

    maximal = _maximal_feasible_sets(space, pts, R, S)
    k = len(pts)
    # fractional cover: min sum y_O subject to sum over O containing x of y_O >= 1
    Acov = np.zeros((k, len(maximal)))
    for j, m in enumerate(maximal):
        Acov[list(bits(m)), j] = 1.0
    res = linprog(
        c=np.ones(len(maximal)),
        A_ub=-Acov,
        b_ub=-np.ones(k),
        bounds=[(0, None)] * len(maximal),
        method="highs",
    )
    if not res.success:
        raise CertificateError("covering LP failed to solve")
    _check_game(Acov, res.x, -res.ineqlin.marginals, res.fun)
    return 1.0 / res.fun, len(maximal)


def _check_game(Acov, y, z, tau):
    """The game value's certificate, within 1e-9: y is a fractional cover of
    the points (rows of Acov) by the maximal feasible sets (its columns), z a
    fractional packing of the points into those sets, and both total tau.  By
    weak duality tau is then the fractional covering number."""
    tol = 1e-9
    if (y < -tol).any() or (Acov @ y < 1 - tol).any():
        raise CertificateError("y is not a fractional cover", witness=y.tolist())
    if (z < -tol).any() or (Acov.T @ z > 1 + tol).any():
        raise CertificateError("z is not a fractional packing", witness=z.tolist())
    for name, total in (("cover", y.sum()), ("packing", z.sum())):
        if not math.isclose(total, tau, rel_tol=tol, abs_tol=tol):
            raise CertificateError(f"{name} total {total} differs from tau = {tau}")


def _adversarial_probe(space, pts, R, S):
    """Upper bound on the game value from concentrated two-point measures:
    1/2 when two points chain into one component (closer than R) wider than
    S, else 1.  The diagonal is 0 and S >= 0, so no point pairs with itself."""
    b = _block(space.dmat, pts)
    return 0.5 if ((b < R) & (b > S)).any() else 1.0
