"""Leveled decomposition trees: validation, partition refinement, binary-split
conversion, unfolding into colored covers, and transfer along maps.

A tree stores levels V_1..V_d of set families, per-level scales and branching
bounds, and a split map assigning each set of level i its subfamilies in level
i+1.  Two union modes exist: "equal" requires each set to be exactly the union
of its subfamilies, "contains" only requires containment.  Every construction
grows its levels through ``grow_level``, which numbers the new sets parent by
parent, then subfamily by subfamily.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .controls import as_control
from .coarse_maps import CoarseMap, control_upper
from .covers import FamilyOfSets, check_families, is_r_disjoint, split_on_carrier
from .errors import CertificateError, InputError, PreconditionError, check_number, is_int
from .metric_core import FiniteMetricSpace, Subset, _block, neighborhood, r_components

__all__ = [
    "DecompositionTree",
    "TreeReport",
    "verify_tree",
    "grow_level",
    "partition_refine",
    "casdim_to_sfdc",
    "tree_to_cover",
    "tree_pullback",
    "tree_pushforward",
]


@dataclass(frozen=True)
class DecompositionTree:
    """Levels with scales, branching bounds, and the per-set split map.

    ``splits[i][k]`` lists the subfamilies of set k of level i+1 (1-based i+1),
    each subfamily a tuple of set indices into level i+2.  ``branching[i]``
    bounds the subfamily count at that level.
    """

    space: FiniteMetricSpace
    levels: tuple
    scales: tuple
    branching: tuple
    splits: tuple
    terminal_mesh: float
    union_mode: str = "equal"

    def __post_init__(self):
        d = len(self.levels)
        if d < 1:
            raise InputError("a tree needs at least one level")
        if len(self.scales) != d - 1 or len(self.branching) != d - 1:
            raise InputError("need one scale and one branching bound per non-final level")
        if len(self.splits) != d - 1:
            raise InputError("need one split table per non-final level")
        if self.union_mode not in ("equal", "contains"):
            raise InputError(f"unknown union mode {self.union_mode!r}")
        for r in self.scales:
            check_number(r, "tree scale", finite=True)
        check_number(self.terminal_mesh, "terminal mesh")
        for b in self.branching:
            if not is_int(b):
                raise InputError(f"branching bound {b!r} is not an integer")
        for i, (lvl, table) in enumerate(zip(self.levels, self.splits)):
            if lvl.space is not self.space:
                raise InputError(f"level {i + 1} lives on a different space")
            if len(table) != len(lvl.sets):
                raise InputError(f"split table at level {i + 1} must cover every set")
            nxt = len(self.levels[i + 1].sets)
            for k, subfams in enumerate(table):
                for sub in subfams:
                    for idx in sub:
                        if not is_int(idx) or not (0 <= idx < nxt):
                            raise InputError(
                                f"split of set {k} at level {i + 1} references "
                                f"set {idx!r} outside level {i + 2}"
                            )
        if self.levels[-1].space is not self.space:
            raise InputError("final level lives on a different space")

    @property
    def depth(self) -> int:
        return len(self.levels)

    def children_of(self, level: int, k: int):
        """Subfamilies (as tuples of indices into level+1) of set k at 1-based level."""
        return self.splits[level - 1][k]


@dataclass(frozen=True)
class TreeReport:
    ok: bool
    violations: tuple
    bounded_levels: tuple


def verify_tree(t: DecompositionTree, mode: str) -> TreeReport:
    """Check the three conditions; violations are returned, not raised.

    Each violation is (level, element index, condition name, witness).
    sfdc mode additionally requires branching <= 2 and a bounded final level.
    """
    if mode not in ("sfdc", "casdim"):
        raise InputError(f"unknown mode {mode!r}")
    violations = []
    first = t.levels[0]
    if len(first.sets) != 1 or first.sets[0] != frozenset(range(t.space.n)):
        violations.append((1, 0, "root_is_whole_space", sorted(first.union())))
    for i in range(1, t.depth):
        R = t.scales[i - 1]
        n_i = t.branching[i - 1]
        if mode == "sfdc" and n_i > 2:
            violations.append((i, None, "branching_exceeds_2", n_i))
        lvl = t.levels[i - 1]
        nxt = t.levels[i]
        # one closeness matrix per level; only a subfamily with a close pair,
        # or naming a set twice (the diagonal is False), gets a witness family
        close = nxt.closer_than(R)
        for k, s in enumerate(lvl.sets):
            subfams = t.children_of(i, k)
            if len(subfams) > n_i:
                violations.append((i, k, "too_many_subfamilies", len(subfams)))
            union = frozenset()
            for sub in subfams:
                if len(set(sub)) < len(sub) or _block(close, sub).any():
                    fam = FamilyOfSets(t.space, tuple(nxt.sets[j] for j in sub))
                    ok, wit = is_r_disjoint(fam, R)
                    if not ok:
                        violations.append((i, k, "subfamily_not_disjoint", wit))
                for j in sub:
                    union |= nxt.sets[j]
            if t.union_mode == "equal":
                if union != s:
                    violations.append((i, k, "union_mismatch", sorted(s ^ union)))
            else:
                if not s <= union:
                    violations.append((i, k, "union_does_not_contain", sorted(s - union)))
    bounded = tuple(
        i + 1
        for i, lvl in enumerate(t.levels)
        if lvl.max_diameter() <= t.terminal_mesh
    )
    if not bounded:
        violations.append((t.depth, None, "no_bounded_level", t.terminal_mesh))
    elif mode == "sfdc" and t.depth not in bounded:
        violations.append((t.depth, None, "final_level_unbounded", t.terminal_mesh))
    return TreeReport(ok=not violations, violations=tuple(violations), bounded_levels=bounded)


def _require_valid(t: DecompositionTree, mode: str):
    rep = verify_tree(t, mode)
    if not rep.ok:
        raise PreconditionError(f"input tree invalid in {mode} mode: {rep.violations[:3]}")
    return rep


def _certify(t: DecompositionTree, mode: str) -> DecompositionTree:
    """The output-side sibling of ``_require_valid``: a constructed tree that
    fails ``verify_tree`` in ``mode`` raises CertificateError."""
    rep = verify_tree(t, mode)
    if not rep.ok:
        raise CertificateError(f"output tree invalid in {mode} mode: {rep.violations[:3]}")
    return t


def is_partition_tree(t: DecompositionTree) -> bool:
    """Every level holds each point in exactly one set."""
    return all((lvl.membership.sum(axis=0) == 1).all() for lvl in t.levels)


def grow_level(space: FiniteMetricSpace, children):
    """Number the children of a level's sets into the next level.

    ``children[k]`` lists the subfamilies of parent set k, each a sequence of
    sets.  Sets are numbered parent by parent, then subfamily by subfamily;
    empty subfamilies are dropped.  Returns (the next level, its split table).
    """
    sets: list = []
    table = []
    for subfams in children:
        entry = []
        for sub in subfams:
            if len(sub):
                entry.append(tuple(range(len(sets), len(sets) + len(sub))))
                sets.extend(sub)
        table.append(tuple(entry))
    return FamilyOfSets(space, tuple(sets)), tuple(table)


def partition_refine(t: DecompositionTree) -> DecompositionTree:
    """Make every level a partition by ordered subtraction inside each parent.

    Within each parent, the candidate children (subfamily sets intersected with
    the parent) are well-ordered by stored index and each one drops the points
    claimed by its predecessors; disjointness is preserved because sets only
    shrink, and each new set is contained in an original set of the same level.
    """
    _require_valid(t, "casdim")
    new_levels = [FamilyOfSets(t.space, (frozenset(range(t.space.n)),))]
    new_splits = []
    # carry[k] = original set index at this level backing new set k
    carry = [0]
    for i in range(1, t.depth):
        nxt = t.levels[i]
        next_carry: list[int] = []
        children = []
        for k, parent in enumerate(new_levels[i - 1].sets):
            taken: set = set()
            subfams = []
            for sub in t.children_of(i, carry[k]):
                pieces = []
                for j in sub:
                    piece = (nxt.sets[j] & parent) - taken
                    if not piece:
                        continue
                    taken |= piece
                    pieces.append(piece)
                    next_carry.append(j)
                subfams.append(pieces)
            children.append(subfams)
        level, table = grow_level(t.space, children)
        new_levels.append(level)
        new_splits.append(table)
        carry = next_carry
    out = DecompositionTree(
        t.space,
        tuple(new_levels),
        t.scales,
        t.branching,
        tuple(new_splits),
        t.terminal_mesh,
        union_mode="equal",
    )
    return _check_refined(out)


def _check_refined(out: DecompositionTree) -> DecompositionTree:
    """partition_refine's certificate: every level partitions the space and
    the tree verifies in casdim mode (equal unions)."""
    if not is_partition_tree(out):
        raise CertificateError("refined tree is not a partition tree")
    return _certify(out, "casdim")


def casdim_to_sfdc(t: DecompositionTree) -> DecompositionTree:
    """Expand each level of branching n_i into n_i binary peel levels.

    Each current set carries one tag: its index in t's next level once it is
    exposed, or else the tuple of its subfamilies still to expose.  A peel
    step exposes a pending set's first subfamily and keeps the union of the
    rest, when nonempty, as one remainder set (a one-element family is
    vacuously disjoint) tagged with the rest; exposed sets pass through
    unchanged.  Depth becomes 1 + sum of the n_i and the result verifies in
    sfdc mode.
    """
    _require_valid(t, "casdim")
    if t.union_mode != "equal":
        raise PreconditionError("conversion needs union mode 'equal'; refine first")
    space = t.space
    out_levels = [t.levels[0]]
    out_scales: list[float] = []
    out_branching: list[int] = []
    out_splits: list[tuple] = []
    exposed = [0]  # indices of the current sets in t's level i
    for i in range(1, t.depth):
        nxt = t.levels[i]
        tags = [tuple(t.children_of(i, j)) for j in exposed]
        for _ in range(t.branching[i - 1]):
            next_tags: list = []
            children = []
            for s, tag in zip(out_levels[-1].sets, tags):
                if not isinstance(tag, tuple):
                    children.append([[s]])
                    next_tags.append(tag)
                    continue
                subfams = []
                if tag:
                    subfams.append([nxt.sets[j] for j in tag[0]])
                    next_tags.extend(tag[0])
                    rem = frozenset().union(*(nxt.sets[j] for sub in tag[1:] for j in sub))
                    if rem:
                        subfams.append([rem])
                        next_tags.append(tag[1:])
                children.append(subfams)
            level, table = grow_level(space, children)
            out_levels.append(level)
            out_scales.append(t.scales[i - 1])
            out_branching.append(2)
            out_splits.append(table)
            tags = next_tags
        exposed = tags
    out = DecompositionTree(
        space,
        tuple(out_levels),
        tuple(out_scales),
        tuple(out_branching),
        tuple(out_splits),
        t.terminal_mesh,
        union_mode="equal",
    )
    return _certify(out, "sfdc")


def tree_to_cover(t: DecompositionTree, R: float) -> FamilyOfSets:
    """Unfold the tree into <= prod(n_i) uniformly bounded R-disjoint families.

    Two sets of the first bounded level share a color iff their ancestries made
    the same subfamily choice at every level; same-color sets are then R-apart
    because their ancestors diverged inside one R_i-disjoint subfamily and
    descendants stay inside ancestors.
    """
    check_number(R, "R")
    rep = _require_valid(t, "casdim")
    if any(s < R for s in t.scales):
        raise PreconditionError(f"all tree scales must be >= {R}")
    target = rep.bounded_levels[0]
    # color tuple per set of the current level
    colors = {0: ()}
    for i in range(1, target):
        nxt_colors = {}
        cur = t.levels[i - 1]
        for k in colors:
            parent = cur.sets[k]
            for jpos, sub in enumerate(t.children_of(i, k)):
                for j in sub:
                    if not t.levels[i].sets[j] <= parent:
                        raise PreconditionError(
                            "unfolding needs children contained in parents"
                        )
                    if j not in nxt_colors:
                        nxt_colors[j] = colors[k] + (jpos,)
        colors = nxt_colors
    lvl = t.levels[target - 1]
    tuples = sorted(set(colors.values()))
    color_id = {tup: c for c, tup in enumerate(tuples)}
    sets, cols = [], []
    for j in sorted(colors):
        if lvl.sets[j]:
            sets.append(lvl.sets[j])
            cols.append(color_id[colors[j]])
    out = FamilyOfSets(t.space, tuple(sets), tuple(cols), n_colors=len(tuples))
    check_families(t.space, out.color_classes(), [R] * len(tuples), t.terminal_mesh)
    return out


def tree_pullback(
    f: CoarseMap,
    t: DecompositionTree,
    n: int,
    D,
    target_scales: Sequence[float],
    *,
    component_scale: Optional[float] = None,
) -> DecompositionTree:
    """Preimage tree plus one component-splitting level.

    Levels become preimages (disjointness transfers through the upper control);
    the extra level splits each terminal preimage into its chain components at
    ``component_scale`` (default: the last target scale) — at most n pieces,
    each bounded by n*D(b) + (n-1)*scale where b is the input terminal mesh.
    """
    D = as_control(D)
    _require_valid(t, "casdim")
    scales = [float(check_number(r, "target_scales")) for r in target_scales]
    if component_scale is not None:
        check_number(component_scale, "component_scale")
    if len(scales) != t.depth - 1:
        raise InputError("one target scale per tree scale required")
    E = control_upper(f)
    for i, r in enumerate(scales):
        if t.scales[i] < E(r):
            raise PreconditionError(
                f"tree scale {t.scales[i]} at level {i + 1} below E(R)={E(r)}"
            )
    Rc = float(component_scale) if component_scale is not None else (scales[-1] if scales else 0.0)
    X = f.domain
    new_levels = []
    kept = []  # per level: the input index of each nonempty preimage, in order
    for lvl in t.levels:
        pres = [f.preimage(s) for s in lvl.sets]
        kept.append([j for j, pre in enumerate(pres) if pre])
        new_levels.append(FamilyOfSets(X, tuple(pres[j] for j in kept[-1])))
    new_splits = []
    for i in range(1, t.depth):
        new_of = {j: q for q, j in enumerate(kept[i])}
        table = []
        for old in kept[i - 1]:
            subs = (tuple(new_of[j] for j in sub if j in new_of) for sub in t.children_of(i, old))
            table.append(tuple(sub for sub in subs if sub))
        new_splits.append(tuple(table))
    # extra level: chain components of the terminal preimages
    bound = n * D(t.levels[-1].max_diameter()) + (n - 1) * Rc
    children = [[[c.members for c in r_components(Subset(X, s), Rc)]] for s in new_levels[-1].sets]
    level, table = grow_level(X, children)
    new_levels.append(level)
    new_splits.append(table)
    out = DecompositionTree(
        X,
        tuple(new_levels),
        tuple(scales) + (Rc,),
        tuple(t.branching) + (1,),
        tuple(new_splits),
        terminal_mesh=bound,
        union_mode=t.union_mode,
    )
    return _check_pullback(out, n)


def _check_pullback(out: DecompositionTree, n: int) -> DecompositionTree:
    """tree_pullback's certificate: the tree verifies, and its component
    level splits each terminal preimage into at most n pieces, each within
    the terminal mesh."""
    for k, subs in enumerate(out.splits[-1]):
        if sum(map(len, subs)) > n:
            raise CertificateError(
                f"terminal preimage {k} has more than n={n} components",
                witness=sorted(out.levels[-2].sets[k]),
            )
    if out.levels[-1].max_diameter() > out.terminal_mesh:
        raise CertificateError(f"a component exceeds the terminal mesh {out.terminal_mesh}")
    return _certify(out, "casdim")


@dataclass(frozen=True)
class PushforwardAudit:
    """Per level: accumulated slack before/after and the containment records.

    Each containment record is (level, output set index, backing input set
    index at that level, slack) certifying the output set lies inside the
    slack-expansion of the image of its backing set.
    """

    required_input_scales: tuple
    slacks: tuple
    containments: tuple


def tree_pushforward(
    f: CoarseMap,
    t: DecompositionTree,
    n: int,
    D,
    target_scales: Sequence[float],
):
    """Transfer a partition tree to the codomain of a coarsely n-to-1 surjection.

    Scale accumulation: with L_0 = 0, level i of the input must be disjoint at
    D(n*n_i*R_i + 2*L_{i-1}); its image family, expanded by L_{i-1} inside the
    L_{i-1}-neighborhood of the parent image, is disjointified at n*n_i*R_i
    into <= n*n_i subfamilies that are R_i-disjoint; L_i = L_{i-1} + n*n_i*R_i.
    Every output set lands inside the L_i-expansion of the image of a backing
    input set (the containment audit).  Returns (tree, audit).
    """
    D = as_control(D)
    rep = _require_valid(t, "casdim")
    if not is_partition_tree(t):
        raise PreconditionError("pushforward needs a partition tree; refine first")
    if not f.is_surjective():
        raise PreconditionError("map must be surjective")
    depth = rep.bounded_levels[0]
    scales = [float(check_number(r, "target_scales")) for r in target_scales]
    if len(scales) < depth - 1:
        raise InputError(f"need at least {depth - 1} target scales")
    Y = f.codomain
    L = 0.0
    required = []
    slacks = [0.0]
    for i in range(1, depth):
        req = D(n * t.branching[i - 1] * scales[i - 1] + 2 * L)
        required.append(req)
        if t.scales[i - 1] < req:
            raise PreconditionError(
                f"input scale {t.scales[i - 1]} at level {i} below the derived "
                f"requirement D(n*n_i*R_i + 2L) = {req}"
            )
        L += n * t.branching[i - 1] * scales[i - 1]
        slacks.append(L)

    out_levels = [FamilyOfSets(Y, (frozenset(range(Y.n)),))]
    out_splits = []
    containments = []
    # backing[k] = index of the input set at this level whose image anchors output set k
    backing = [0]
    for i in range(1, depth):
        n_i = t.branching[i - 1]
        r = n * n_i * scales[i - 1]
        L, L_next = slacks[i - 1], slacks[i]
        next_backing: list[int] = []
        children = []
        for k, U_idx in enumerate(backing):
            U = t.levels[i - 1].sets[U_idx]
            child_ids = [j for sub in t.children_of(i, U_idx) for j in sub]
            child_ids = [j for j in child_ids if t.levels[i].sets[j]]
            zone = neighborhood(Subset(Y, f.image_set(U)), L).members
            # the children cover U, so their clipped expansions carry the zone
            classes, trace = split_on_carrier(Y, [
                neighborhood(Subset(Y, f.image_set(t.levels[i].sets[j])), L).members & zone
                for j in child_ids
            ], r, n * n_i - 1)
            # margin_sets is in emission order, colour class by colour class
            next_backing.extend(child_ids[T[0]] for T in trace.margin_sets)
            children.append([c.sets for c in classes])
        level, table = grow_level(Y, children)
        out_levels.append(level)
        out_splits.append(table)
        containments.extend((i + 1, k, anchor, L_next) for k, anchor in enumerate(next_backing))
        backing = next_backing
    out = DecompositionTree(
        Y,
        tuple(out_levels),
        tuple(scales[: depth - 1]),
        tuple(n * t.branching[i] for i in range(depth - 1)),
        tuple(out_splits),
        terminal_mesh=out_levels[-1].max_diameter(),
        union_mode="contains",
    )
    audit = PushforwardAudit(tuple(required), tuple(slacks), tuple(containments))
    return _check_pushforward(f, t, out, audit), audit


def _check_pushforward(f: CoarseMap, t: DecompositionTree, out: DecompositionTree, audit):
    """tree_pushforward's certificate, read from its audit: each containment
    record's output set lies inside the slack-expansion of its backing set's
    image, the terminal mesh is <= E(b) + 2L (b the mesh of t's level that
    the output's depth mirrors, L the last slack), and the tree verifies."""
    for level, k, j, slack in audit.containments:
        img = Subset(f.codomain, f.image_set(t.levels[level - 1].sets[j]))
        if not out.levels[level - 1].sets[k] <= neighborhood(img, slack).members:
            raise CertificateError(
                "containment audit failed", witness=(level, sorted(out.levels[level - 1].sets[k]))
            )
    bound = control_upper(f)(t.levels[out.depth - 1].max_diameter()) + 2 * audit.slacks[-1]
    if out.terminal_mesh > bound:
        raise CertificateError(f"terminal mesh {out.terminal_mesh} exceeds E(b)+2L = {bound}")
    return _certify(out, "casdim")
