"""Mass concentration at fixed parameters: optimal disjoint bounded-mass
families, the dimension-to-mass constant, and measure transfer along maps.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import linprog

from .coarse_maps import CoarseMap, control_upper, graph_coloring, maximal_r_bounded_sets
from .covers import FamilyOfSets, is_r_disjoint, make_disjoint, mesh, on_carrier
from .errors import CertificateError, InputError, PreconditionError
from .metric_core import FiniteMetricSpace, Subset, components, diameter

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
    """Nonnegative weights per point summing to 1 (renormalized and flagged if not)."""

    space: FiniteMetricSpace
    weights: tuple
    renormalized: bool = False

    def __post_init__(self):
        w = tuple(float(v) for v in self.weights)
        if len(w) != self.space.n:
            raise InputError("one weight per point required")
        if any(v < 0 for v in w):
            raise InputError("weights must be nonnegative")
        total = sum(w)
        if total <= 0:
            raise InputError("total mass must be positive")
        if total != 1.0:
            w = tuple(v / total for v in w)
            object.__setattr__(self, "renormalized", True)
        object.__setattr__(self, "weights", w)

    def mass(self, members) -> float:
        return float(sum(self.weights[i] for i in members))

    def support(self) -> frozenset:
        return frozenset(i for i, v in enumerate(self.weights) if v > 0)


@dataclass(frozen=True)
class MassFamily:
    """An R-disjoint family of S-bounded sets with its mass certificate."""

    family: FamilyOfSets
    R: float
    S: float
    mass: float
    exact: bool = True
    flags: dict = field(default_factory=dict, compare=False)

    def verify(self, mu: ProbMeasure):
        ok, wit = is_r_disjoint(self.family, self.R)
        if not ok:
            raise CertificateError("family not R-disjoint", witness=wit)
        widest = self.family.max_diameter()
        if widest > self.S:
            raise CertificateError("a set exceeds the diameter bound", witness=widest)
        got = mu.mass(self.family.union())
        if not math.isclose(got, self.mass, rel_tol=0, abs_tol=1e-12):
            raise CertificateError(f"mass mismatch: stated {self.mass}, got {got}")


def _feasibility(space, R, S):
    """Mask test: every chain component (steps < R) of the point bitmask has
    diameter <= S.

    Strict steps match the disjointness convention (disjoint = cross distance
    >= R): the strict components of any feasible union form an R-disjoint
    family of S-bounded sets.  The exact searches test up to 2^16 masks, so the
    near (d < R) and far (d > S) relations are bitmasks built once per call.
    """
    n = space.n
    near = [sum(1 << j for j in range(n) if j != i and space.dmat[i, j] < R) for i in range(n)]
    far = [sum(1 << j for j in range(n) if j != i and space.dmat[i, j] > S) for i in range(n)]

    def feasible(mask):
        left = mask
        while left:
            comp = frontier = left & -left
            while frontier:
                i = (frontier & -frontier).bit_length() - 1
                frontier &= frontier - 1
                new = near[i] & mask & ~comp
                comp |= new
                frontier |= new
            rest = comp
            while rest:
                i = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                if far[i] & comp:
                    return False
            left &= ~comp
        return True

    return feasible


def _feasible_masks(feasible, points):
    """Every feasible mask over ``points``, in increasing order.  Feasibility is
    downward closed (dropping a point only splits components and shrinks
    diameters), so only feasible masks need extending."""
    masks = [0]
    for p in sorted(points):
        masks += [m | 1 << p for m in masks if feasible(m | 1 << p)]
    return masks


def _mask_to_sets(mask, n):
    return frozenset(i for i in range(n) if (mask >> i) & 1)


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
    if R < 0 or S < 0:
        raise InputError("R and S must be >= 0")
    if mu.space is not space:
        raise InputError("measure must live on the given space")
    n = space.n
    if n <= exact_cap:
        best_mask, best_mass = 0, -1.0
        # only support points matter for mass; adding zero-weight points never helps
        for mask in _feasible_masks(_feasibility(space, R, S), mu.support()):
            m = sum(mu.weights[p] for p in _mask_to_sets(mask, n))
            if m > best_mass:
                best_mask, best_mass = mask, m
        fam = FamilyOfSets(space, components(space, _mask_to_sets(best_mask, n), R, strict=True))
        out = MassFamily(fam, R, S, max(best_mass, 0.0), exact=True)
        out.verify(mu)
        return out
    candidates, exact_sets = maximal_r_bounded_sets(space, S)
    remaining = set(range(n))
    chosen = []
    total = 0.0
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
    fam = FamilyOfSets(space, tuple(chosen))
    flags = {"lower_bound": True}
    if not exact_sets:
        flags["candidate_slack"] = 2.0
    out = MassFamily(fam, R, S, total, exact=False, flags=flags)
    out.verify(mu)
    return out


def half_mass_witness(
    space: FiniteMetricSpace, mu: ProbMeasure, R: float
) -> Optional[MassFamily]:
    """The first family of mass > 1/2 over the positive realized diameter
    bounds B, tried in increasing order; None when no bound reaches it."""
    for B in space.realized_distances():
        if B > 0:
            cand = best_mass_family(space, mu, R, B)
            if cand.mass > 0.5:
                return cand
    return None


def asdim_to_msp(cover: FamilyOfSets, R: float, mu: ProbMeasure) -> MassFamily:
    """Max-mass color class of a disjointified cover; mass >= 1/(number of colors)."""
    if cover.colors is None:
        raise InputError("cover must be colored")
    if not cover.covers_space():
        raise PreconditionError("cover must cover the space")
    S = mesh(cover)
    best_c, best_m = None, -1.0
    for c in range(cover.n_colors):
        cls = cover.color_class(c)
        ok, wit = is_r_disjoint(cls, R)
        if not ok:
            raise PreconditionError(f"color {c} not {R}-disjoint; witness {wit}")
        m = mu.mass(cls.union())
        if m > best_m:
            best_c, best_m = c, m
    if best_m < 1.0 / cover.n_colors - 1e-12:
        raise CertificateError(
            f"best color mass {best_m} below 1/{cover.n_colors}"
        )
    out = MassFamily(cover.color_class(best_c), R, S, best_m,
                     flags={"color": best_c, "n_colors": cover.n_colors})
    out.verify(mu)
    return out


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
    w = [0.0] * f.domain.n
    for y, x in enumerate(selection):
        w[x] += mu.weights[y]
    return ProbMeasure(f.domain, tuple(w))


def pushforward_measure(f: CoarseMap, mu: ProbMeasure) -> ProbMeasure:
    """lambda(y) = mu of the fiber over y."""
    if mu.space is not f.domain:
        raise InputError("measure must live on the domain")
    w = [0.0] * f.codomain.n
    for x, v in enumerate(mu.weights):
        w[f(x)] += v
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
    if mu.space is not f.codomain or lam.space is not f.domain:
        raise InputError("mu lives on the codomain, lam on the domain")
    witness.verify(lam)
    B = witness.S
    E = control_upper(f)
    if witness.mass < 0.5:
        raise PreconditionError(f"witness mass {witness.mass} below 1/2")
    images = [f.image_set(s) for s in witness.family.sets if s]
    Y = f.codomain
    rows = [sorted(s) for s in images]
    adj = [set() for _ in rows]
    for a, b in itertools.combinations(range(len(rows)), 2):
        if Y.dmat[np.ix_(rows[a], rows[b])].min() < R:
            adj[a].add(b)
            adj[b].add(a)
    coloring = graph_coloring(adj, n)
    if coloring is not None:
        classes = {}
        for idx, c in enumerate(coloring):
            classes.setdefault(c, []).append(images[idx])
        S = E(B) + n * R
        flags = {"route": "coloring"}
        fams = {
            c: FamilyOfSets(Y, tuple(sets)) for c, sets in sorted(classes.items())
        }
    else:
        img_fam, lift = on_carrier(Y, images)
        colored, _ = make_disjoint(img_fam, n * R, n - 1)
        S = E(B) + 2 * n * R
        flags = {"route": "disjointify", "bound_slack": n * R}
        fams = {c: lift(colored.color_class(c)) for c in range(n)}
    best_c, best_m = None, -1.0
    covered = frozenset()
    for c, fam in fams.items():
        covered |= fam.union()
        m = mu.mass(fam.union())
        if m > best_m:
            best_c, best_m = c, m
    if not frozenset().union(*images) <= covered:
        raise CertificateError("pushforward classes lost image points")
    if best_m < 1.0 / (2 * n) - 1e-12:
        raise CertificateError(f"best class mass {best_m} below 1/(2n)={1 / (2 * n)}")
    flags["equality"] = math.isclose(best_m, 1.0 / (2 * n), rel_tol=0, abs_tol=1e-12)
    out = MassFamily(fams[best_c], R, S, best_m, flags=flags)
    out.verify(mu)
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
    if mu.space is not f.domain:
        raise InputError("measure must live on the domain")
    E = control_upper(f)
    if R_Y is None:
        R_Y = min((d for d in f.codomain.realized_distances() if d > E(R_X)), default=math.inf)
    elif R_Y <= E(R_X):
        raise PreconditionError(f"R_Y must be > E(R_X) = {E(R_X)}")
    lam = pushforward_measure(f, mu)
    stage1 = best_mass_family(f.codomain, lam, R_Y, K)
    if stage1.mass < 0.5:
        raise CertificateError(
            f"codomain stage mass {stage1.mass} below 1/2", witness="codomain"
        )
    pieces = []
    for comp in stage1.family.sets:
        pre = f.preimage(comp)
        if mu.mass(pre) <= 0:
            continue
        # The weighted part of the preimage is its own fiber set of full mass
        # when its R_X-components are S-bounded; the search runs otherwise.
        heavy = components(f.domain, (x for x in pre if mu.weights[x] > 0), R_X, strict=True)
        if all(diameter(Subset(f.domain, c)) <= S for c in heavy):
            pieces += heavy
            continue
        sub, old_of_new = f.domain.subspace(pre)
        local = ProbMeasure(sub, tuple(mu.weights[o] for o in old_of_new))
        found = best_mass_family(sub, local, R_X, S)
        if found.mass < 0.5:
            raise CertificateError(
                f"fiber stage mass {found.mass} below 1/2 over component "
                f"{sorted(comp)}",
                witness="fiber",
            )
        for s in found.family.sets:
            pieces.append(frozenset(old_of_new[q] for q in s))
    omega = frozenset().union(*pieces)
    comps = components(f.domain, omega, R_X, strict=True)
    for c in comps:
        if diameter(Subset(f.domain, c)) > S:
            raise CertificateError("an output component exceeds S", witness=sorted(c))
    mass = mu.mass(omega)
    if mass < 0.25 - 1e-12:
        raise CertificateError(f"output mass {mass} below 0.25")
    fam = FamilyOfSets(f.domain, comps)
    out = MassFamily(
        fam,
        R_X,
        S,
        mass,
        flags={"equality": math.isclose(mass, 0.25, rel_tol=0, abs_tol=1e-12)},
    )
    out.verify(mu)
    return out


def map_msp_check(
    f: CoarseMap, A, R: float, S: float, c: float, K: float
) -> dict:
    """Worst case over measures on a fiber block of the best feasible mass.

    For each maximal K-bounded subset of A, the value of the zero-sum game
    (measure picks weights on the preimage, player picks a set whose
    R-components are S-bounded) equals 1 / (fractional covering number of the
    maximal feasible sets).  Solved exactly by linear programming for preimages
    up to 12 points, with the measure-side dual recomputed as a cross-check;
    larger instances are probed with adversarial concentrated measures and
    reported inconclusive.
    """
    if min(R, S, K) < 0 or not (0 < c < 1):
        raise InputError("need R, S, K >= 0 and 0 < c < 1")
    members = A.members if isinstance(A, Subset) else frozenset(A)
    blocks, exact_blocks = maximal_r_bounded_sets(f.codomain, K, within=members)
    worst = None
    details = []
    for blk in blocks:
        pre = sorted(f.preimage(blk))
        if not pre:
            continue
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
    increasing order; by downward closure these are the maximal ones."""
    sub, _ = space.subspace(pts)
    feas = _feasible_masks(_feasibility(sub, R, S), range(sub.n))
    known = set(feas)
    return [m for m in feas
            if not any((m | 1 << i) in known for i in range(sub.n) if not (m >> i) & 1)]


def _game_value(space, pts, R, S):
    maximal = _maximal_feasible_sets(space, pts, R, S)
    k = len(pts)
    # fractional cover: min sum y_O subject to sum over O containing x of y_O >= 1
    Acov = np.zeros((k, len(maximal)))
    for j, m in enumerate(maximal):
        for i in range(k):
            if (m >> i) & 1:
                Acov[i, j] = 1.0
    res = linprog(
        c=np.ones(len(maximal)),
        A_ub=-Acov,
        b_ub=-np.ones(k),
        bounds=[(0, None)] * len(maximal),
        method="highs",
    )
    if not res.success:
        raise CertificateError("covering LP failed to solve")
    tau = res.fun
    value = 1.0 / tau
    # dual route: min over measures of max feasible mass
    # variables: weights w (k) and t; minimize t subject to sum_{x in O} w_x <= t
    Ad = np.zeros((len(maximal), k + 1))
    for j, m in enumerate(maximal):
        for i in range(k):
            if (m >> i) & 1:
                Ad[j, i] = 1.0
        Ad[j, k] = -1.0
    res2 = linprog(
        c=[0.0] * k + [1.0],
        A_ub=Ad,
        b_ub=np.zeros(len(maximal)),
        A_eq=[[1.0] * k + [0.0]],
        b_eq=[1.0],
        bounds=[(0, None)] * k + [(None, None)],
        method="highs",
    )
    if not res2.success:
        raise CertificateError("game LP failed to solve")
    if not math.isclose(value, res2.fun, rel_tol=1e-9, abs_tol=1e-9):
        raise CertificateError(
            f"primal/dual game values disagree: {value} vs {res2.fun}"
        )
    return value, len(maximal)


def _adversarial_probe(space, pts, R, S):
    """Upper bound on the game value from concentrated two-point measures."""
    best = 1.0
    k = len(pts)
    for a_pos in range(k):
        for b_pos in range(a_pos + 1, k):
            a, b = pts[a_pos], pts[b_pos]
            d = space.dmat[a, b]
            # points closer than R chain into one component, which must be <= S
            if d < R and d > S:
                best = min(best, 0.5)
    return best
