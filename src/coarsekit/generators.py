"""Seeded fixture generation: spaces, covers, group actions, maps, measures,
and decomposition trees for the property suites.

Everything is driven by ``random.Random(seed)`` so that a fixed seed yields an
identical fixture stream.  Coordinates and weights are kept rational-valued
(integers or small fractions) so comparisons stay exact.  Paths and grids are
point clouds; cycles are written down in closed form (the hop distance), not
routed through a graph descriptor, so no fixture loads scipy.
"""

from __future__ import annotations

import fractions
import random
from typing import Optional

import numpy as np

from .covers import FamilyOfSets, dim_at_scale
from .coarse_maps import CoarseMap, GroupAction, group_quotient
from .errors import InputError
from .metric_core import FiniteMetricSpace, build_space
from .msp import ProbMeasure
from .trees import DecompositionTree, grow_level

__all__ = [
    "path_space",
    "cycle_space",
    "grid_space",
    "random_space",
    "random_cover",
    "reflection_action",
    "rotation_action",
    "grid_rotation_action",
    "action_fixtures",
    "random_quotient_map",
    "fold_map",
    "random_measure",
    "random_casdim_tree",
]


def path_space(n: int) -> FiniteMetricSpace:
    return build_space({"kind": "cloud", "coords": [[i] for i in range(n)]})


def cycle_space(n: int) -> FiniteMetricSpace:
    """The n-cycle with unit edges: d(i, j) = min(|i - j|, n - |i - j|), the
    hop distance, built in closed form (no shortest-path search, no scipy)."""
    labels = list(range(n))
    if not labels:
        raise InputError("a graph must have at least one vertex")
    gap = np.abs(np.subtract.outer(labels, labels))
    return FiniteMetricSpace(labels, np.minimum(gap, len(labels) - gap), validate=False)


def grid_space(p: int, q: int) -> FiniteMetricSpace:
    coords = [[i, j] for i in range(p) for j in range(q)]
    return build_space({"kind": "cloud", "coords": coords, "norm": "l1"})


def random_space(rng: random.Random, max_points: int = 128) -> FiniteMetricSpace:
    kind = rng.choice(["path", "cycle", "grid", "cloud"])
    if kind == "path":
        return path_space(rng.randint(4, max_points))
    if kind == "cycle":
        return cycle_space(rng.randint(4, max_points))
    if kind == "grid":
        p = rng.randint(2, max(2, int(max_points ** 0.5)))
        q = rng.randint(2, max(2, max_points // p))
        return grid_space(p, q)
    n = rng.randint(4, min(32, max_points))
    seen: set = set()
    coords = []
    while len(coords) < n:
        c = (rng.randint(0, 40), rng.randint(0, 40))
        if c not in seen:
            seen.add(c)
            coords.append(list(c))
    return build_space({"kind": "cloud", "coords": coords, "norm": "l1"})


def random_cover(
    rng: random.Random, space: FiniteMetricSpace, R: float, max_dim: int = 3
) -> Optional[FamilyOfSets]:
    """A cover with dim_at_scale <= max_dim at R, or None when resampling fails.

    Built as a partition into chunks of nearby points, each chunk then expanded
    by a few extra nearby points to create overlaps.  Each of up to 20 tries
    draws, in this order: one ``rng.shuffle`` of the points; ``randint(2, 6)``
    per chunk, a chunk being the ``size`` nearest untaken points to its seed
    (the first untaken point of the shuffled order); then ``randint(0, 2)``
    per chunk in chunk order, the ``extra`` outside points of least distance
    to the chunk.  Nearness ties go to the lower index: points are ranked by
    (distance, index).
    """
    n = space.n
    dmat = space.dmat
    # rows[x] ranks every point q by (d(x, q), q): a stable sort keeps ties in
    # index order.  One numpy array, ranked once for all tries.
    rows = np.argsort(dmat, axis=1, kind="stable")
    for _ in range(20):
        order = list(range(n))
        rng.shuffle(order)
        taken = [False] * n
        chunks = []
        pos, left = 0, n
        while left:
            # the seed is the first point of ``order`` not yet taken
            while taken[order[pos]]:
                pos += 1
            size = rng.randint(2, 6)
            chunk = []
            for q in rows[order[pos]].tolist():
                if not taken[q]:
                    taken[q] = True
                    chunk.append(q)
                    if len(chunk) == size:
                        break
            left -= len(chunk)
            chunks.append(chunk)
        sets = []
        for chunk in chunks:
            extra = rng.randint(0, 2)
            if extra:
                # argmin takes the least distance to the chunk, and among
                # equal distances the lowest index
                gap = dmat[:, chunk].min(axis=1)
                gap[chunk] = np.inf
                for _ in range(min(extra, n - len(chunk))):
                    q = int(gap.argmin())
                    gap[q] = np.inf
                    chunk.append(q)
            sets.append(frozenset(chunk))
        fam = FamilyOfSets(space, tuple(sets))
        if dim_at_scale(fam, R) <= max_dim:
            return fam
    return None


def reflection_action(n: int) -> GroupAction:
    sp = path_space(n)
    perms = (tuple(range(n)), tuple(n - 1 - i for i in range(n)))
    return GroupAction(sp, ((0, 1), (1, 0)), perms)


def rotation_action(m: int, k: int) -> GroupAction:
    """Z_k acting on the m-cycle by rotation; k must divide m."""
    if m % k:
        raise ValueError("k must divide m")
    sp = cycle_space(m)
    step = m // k
    perms = tuple(tuple((x + g * step) % m for x in range(m)) for g in range(k))
    table = tuple(tuple((g + h) % k for h in range(k)) for g in range(k))
    return GroupAction(sp, table, perms)


def grid_rotation_action(p: int, q: int) -> GroupAction:
    """Z_2 acting on a p x q grid by 180-degree rotation."""
    sp = grid_space(p, q)
    idx = {(i, j): i * q + j for i in range(p) for j in range(q)}
    flip = tuple(idx[(p - 1 - i, q - 1 - j)] for i in range(p) for j in range(q))
    return GroupAction(sp, ((0, 1), (1, 0)), (tuple(range(p * q)), flip))


def action_fixtures() -> list[GroupAction]:
    """The named fixture actions used across the suites."""
    return [
        rotation_action(6, 2),     # antipodal on the 6-cycle
        reflection_action(7),      # reflection on {-3..3}
        rotation_action(8, 4),     # quarter rotation on the 8-cycle
        rotation_action(8, 2),
        reflection_action(10),
        grid_rotation_action(3, 4),
    ]


def random_quotient_map(rng: random.Random, max_points: int = 64):
    """A quotient projection from a randomly sized fixture action.

    Returns (projection, n) where n is the group order.
    """
    kind = rng.choice(["reflect", "rotate", "grid"])
    if kind == "reflect":
        act = reflection_action(rng.randint(4, max_points))
    elif kind == "rotate":
        m = 2 * rng.randint(2, max_points // 2)
        k = rng.choice([d for d in (2, 3, 4) if m % d == 0])
        act = rotation_action(m, k)
    else:
        p = rng.randint(2, 6)
        q = rng.randint(2, max(2, max_points // p))
        act = grid_rotation_action(p, q)
    gq = group_quotient(act)
    return gq.projection, act.order


def fold_map(n: int) -> CoarseMap:
    """x -> |x| on {-n..n}; 2-to-1 away from 0."""
    dom = build_space({"kind": "cloud", "coords": [[i] for i in range(-n, n + 1)]})
    cod = build_space({"kind": "cloud", "coords": [[i] for i in range(n + 1)]})
    return CoarseMap(dom, cod, tuple(abs(i) for i in range(-n, n + 1)))


def random_measure(rng: random.Random, space: FiniteMetricSpace, style: str = "any") -> ProbMeasure:
    """Uniform, concentrated (adversarial), or random rational weights."""
    n = space.n
    if style == "any":
        style = rng.choice(["uniform", "concentrated", "random"])
    if style == "uniform":
        return ProbMeasure(space, tuple(fractions.Fraction(1, n) for _ in range(n)))
    if style == "concentrated":
        # heavy weight on a far-apart pair, crumbs elsewhere
        a = rng.randrange(n)
        b = max(range(n), key=lambda q: (space.dmat[a, q], q))
        w = [1.0] * n
        w[a] = w[b] = float(10 * n)
        return ProbMeasure(space, tuple(w))
    w = [rng.randint(0, 8) for _ in range(n)]
    if sum(w) == 0:
        w[rng.randrange(n)] = 1
    return ProbMeasure(space, tuple(float(v) for v in w))


def _split_interval(rng, points, k, gap):
    """Split a sorted run of path indices into k subfamilies of blocks.

    Blocks are consecutive runs assigned round-robin; block length is at least
    ``gap`` so same-subfamily blocks end up more than ``gap`` apart.
    """
    n = len(points)
    length = max(int(gap), 1)
    blocks = []
    i = 0
    while i < n:
        step = length + rng.randint(0, 2)
        blocks.append(points[i : i + step])
        i += step
    if len(blocks) >= 2 and len(blocks[-1]) < length:
        blocks[-2] = blocks[-2] + blocks[-1]
        blocks.pop()
    subfams = [[] for _ in range(min(k, len(blocks)))]
    for b, blk in enumerate(blocks):
        subfams[b % len(subfams)].append(frozenset(blk))
    return [s for s in subfams if s]


def random_casdim_tree(rng: random.Random, max_points: int = 128) -> DecompositionTree:
    """A valid tree on a path: recursive interval splitting with safe gaps."""
    n = rng.randint(16, max_points)
    sp = path_space(n)
    depth = rng.randint(2, 3)
    scales = sorted(rng.sample(range(2, 8), depth - 1), reverse=True)
    scales = [float(s) for s in scales]
    levels = [FamilyOfSets(sp, (frozenset(range(n)),))]
    splits = []
    branching = []
    for R in scales:
        k = rng.randint(2, 3)
        branching.append(k)
        level, table = grow_level(sp, [_split_interval(rng, sorted(s), k, R)
                                       for s in levels[-1].sets])
        levels.append(level)
        splits.append(table)
    term = max(len(s) - 1 for s in levels[-1].sets)
    return DecompositionTree(
        sp,
        tuple(levels),
        tuple(scales),
        tuple(branching),
        tuple(splits),
        terminal_mesh=float(term),
        union_mode="equal",
    )
