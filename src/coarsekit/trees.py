"""Leveled decomposition trees: validation, partition refinement, binary-split
conversion, unfolding into colored covers, and transfer along maps.

A tree stores levels V_1..V_d of set families, per-level scales and branching
bounds, and a split map assigning each set of level i its subfamilies in level
i+1.  Two union modes exist: "equal" requires each set to be exactly the union
of its subfamilies, "contains" only requires containment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .controls import as_control
from .coarse_maps import CoarseMap, control_upper
from .covers import FamilyOfSets, is_r_disjoint, make_disjoint, mesh
from .errors import CertificateError, InputError, PreconditionError
from .metric_core import FiniteMetricSpace, Subset, diameter, neighborhood, r_components

__all__ = [
    "DecompositionTree",
    "TreeReport",
    "verify_tree",
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
        for i, (lvl, table) in enumerate(zip(self.levels, self.splits)):
            if lvl.space is not self.space:
                raise InputError(f"level {i + 1} lives on a different space")
            if len(table) != len(lvl.sets):
                raise InputError(f"split table at level {i + 1} must cover every set")
            nxt = len(self.levels[i + 1].sets)
            for k, subfams in enumerate(table):
                for sub in subfams:
                    for idx in sub:
                        if not (0 <= idx < nxt):
                            raise InputError(
                                f"split of set {k} at level {i + 1} references "
                                f"set {idx} outside level {i + 2}"
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
        for k, s in enumerate(lvl.sets):
            subfams = t.children_of(i, k)
            if len(subfams) > n_i:
                violations.append((i, k, "too_many_subfamilies", len(subfams)))
            union = frozenset()
            for sub in subfams:
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


def is_partition_tree(t: DecompositionTree) -> bool:
    allpts = frozenset(range(t.space.n))
    for lvl in t.levels:
        seen = set()
        total = 0
        for s in lvl.sets:
            seen |= s
            total += len(s)
        if seen != allpts or total != t.space.n:
            return False
    return True


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
        next_sets: list[frozenset] = []
        next_carry: list[int] = []
        table = []
        for k, parent in enumerate(new_levels[i - 1].sets):
            orig_k = carry[k]
            subfams = t.children_of(i, orig_k)
            taken: set = set()
            my_subfams = []
            for sub in subfams:
                out_sub = []
                for j in sub:
                    piece = (nxt.sets[j] & parent) - taken
                    if not piece:
                        continue
                    taken |= piece
                    if not piece <= nxt.sets[j]:
                        raise CertificateError("refined set escapes its original")
                    next_sets.append(piece)
                    next_carry.append(j)
                    out_sub.append(len(next_sets) - 1)
                if out_sub:
                    my_subfams.append(tuple(out_sub))
            if frozenset(taken) != parent:
                raise CertificateError(
                    "refinement failed to partition a parent", witness=sorted(parent - taken)
                )
            table.append(tuple(my_subfams))
        new_levels.append(FamilyOfSets(t.space, tuple(next_sets)))
        new_splits.append(tuple(table))
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
    if not is_partition_tree(out):
        raise CertificateError("refined tree is not a partition tree")
    rep = verify_tree(out, "casdim")
    if not rep.ok:
        raise CertificateError(f"refined tree invalid: {rep.violations[:3]}")
    return out


def casdim_to_sfdc(t: DecompositionTree) -> DecompositionTree:
    """Expand each level of branching n_i into n_i binary peel levels.

    Peel step m exposes subfamily W_m and keeps the union of the remaining
    subfamilies as a single remainder set (a one-element family is vacuously
    disjoint); already-exposed sets pass through unchanged.  Depth becomes
    1 + sum of the n_i and the result verifies in sfdc mode.
    """
    _require_valid(t, "casdim")
    if t.union_mode != "equal":
        raise PreconditionError("conversion needs union mode 'equal'; refine first")
    space = t.space
    out_levels = [t.levels[0]]
    out_scales: list[float] = []
    out_branching: list[int] = []
    out_splits: list[tuple] = []

    # state per current set: ("orig", level, k) original set of t at 1-based level,
    # or ("rem", level, k, m) remainder of parent k at level after peeling m subfamilies
    state = [("orig", 1, 0)]
    for i in range(1, t.depth):
        R = t.scales[i - 1]
        n_i = t.branching[i - 1]
        for m in range(1, n_i + 1):
            next_sets: list[frozenset] = []
            next_state: list[tuple] = []
            table = []
            cur = out_levels[-1]
            for k, s in enumerate(cur.sets):
                st = state[k]
                subfams_out = []
                if st[0] == "orig" and st[1] == i and m == 1:
                    subfams = t.children_of(i, st[2])
                    peeled, rest = _peel(subfams, 0)
                    subfams_out = _emit(
                        space, peeled, rest, i, st[2], 1, next_sets, next_state, t
                    )
                elif st[0] == "rem" and st[1] == i:
                    subfams = t.children_of(i, st[2])
                    peeled, rest = _peel(subfams, st[3])
                    subfams_out = _emit(
                        space, peeled, rest, i, st[2], st[3] + 1, next_sets, next_state, t
                    )
                else:
                    # pass-through: the set is already an exposed level-(i+1) set
                    next_sets.append(s)
                    next_state.append(st)
                    subfams_out = [(len(next_sets) - 1,)]
                table.append(tuple(subfams_out))
            out_levels.append(FamilyOfSets(space, tuple(next_sets)))
            out_scales.append(R)
            out_branching.append(2)
            out_splits.append(tuple(table))
            state = next_state
        new_state = []
        for st in state:
            if st[0] == "exposed":
                new_state.append(("orig", i + 1, st[1]))
            else:
                raise CertificateError("peeling left an unexposed remainder")
        state = new_state
    out = DecompositionTree(
        space,
        tuple(out_levels),
        tuple(out_scales),
        tuple(out_branching),
        tuple(out_splits),
        t.terminal_mesh,
        union_mode="equal",
    )
    rep = verify_tree(out, "sfdc")
    if not rep.ok:
        raise CertificateError(f"converted tree invalid in sfdc mode: {rep.violations[:3]}")
    return out


def _peel(subfams, done):
    """Return (subfamily to expose now, remaining subfamilies) after `done` peels."""
    rest = subfams[done:]
    if not rest:
        return (), ()
    return rest[0], rest[1:]


def _emit(space, peeled, rest, level, orig_k, done, next_sets, next_state, t):
    nxt = t.levels[level]
    subfams_out = []
    if peeled:
        sub = []
        for j in peeled:
            next_sets.append(nxt.sets[j])
            next_state.append(("exposed", j))
            sub.append(len(next_sets) - 1)
        subfams_out.append(tuple(sub))
    if rest:
        rem = frozenset()
        for sub2 in rest:
            for j in sub2:
                rem |= nxt.sets[j]
        if rem:
            next_sets.append(rem)
            next_state.append(("rem", level, orig_k, done))
            subfams_out.append((len(next_sets) - 1,))
    return subfams_out


def tree_to_cover(t: DecompositionTree, R: float) -> FamilyOfSets:
    """Unfold the tree into <= prod(n_i) uniformly bounded R-disjoint families.

    Two sets of the first bounded level share a color iff their ancestries made
    the same subfamily choice at every level; same-color sets are then R-apart
    because their ancestors diverged inside one R_i-disjoint subfamily and
    descendants stay inside ancestors.
    """
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
    uncovered = out.uncovered()
    if uncovered:
        raise CertificateError("unfolded cover misses points", witness=uncovered)
    for c in range(len(tuples)):
        ok, wit = is_r_disjoint(out.color_class(c), R)
        if not ok:
            raise CertificateError(f"color {c} not {R}-disjoint", witness=wit)
    if mesh(out) > t.terminal_mesh:
        raise CertificateError("unfolded cover exceeds the terminal mesh")
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
    scales = [float(r) for r in target_scales]
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
    index_maps = []  # per level: new index -> old index (None for dropped empties)
    for lvl in t.levels:
        sets = []
        imap = {}
        for j, s in enumerate(lvl.sets):
            pre = f.preimage(s)
            if pre:
                imap[j] = len(sets)
                sets.append(pre)
        new_levels.append(FamilyOfSets(X, tuple(sets)))
        index_maps.append(imap)
    new_splits = []
    for i in range(1, t.depth):
        table = []
        imap_cur, imap_nxt = index_maps[i - 1], index_maps[i]
        inv_cur = {v: k for k, v in imap_cur.items()}
        for k in range(len(new_levels[i - 1].sets)):
            subfams = []
            for sub in t.children_of(i, inv_cur[k]):
                kept = tuple(imap_nxt[j] for j in sub if j in imap_nxt)
                if kept:
                    subfams.append(kept)
            table.append(tuple(subfams))
        new_splits.append(tuple(table))
    # extra level: chain components of the terminal preimages
    bound = n * D(t.levels[-1].max_diameter()) + (n - 1) * Rc
    last = new_levels[-1]
    final_sets = []
    table = []
    for s in last.sets:
        comps = r_components(Subset(X, s), Rc)
        if len(comps) > n:
            raise CertificateError(
                f"a terminal preimage has {len(comps)} components > n={n}",
                witness=sorted(s),
            )
        idxs = []
        for c in comps:
            if diameter(c) > bound:
                raise CertificateError(
                    f"component diameter {diameter(c)} exceeds {bound}",
                    witness=sorted(c.members),
                )
            final_sets.append(c.members)
            idxs.append(len(final_sets) - 1)
        table.append((tuple(idxs),))
    new_levels.append(FamilyOfSets(X, tuple(final_sets)))
    new_splits.append(tuple(table))
    out = DecompositionTree(
        X,
        tuple(new_levels),
        tuple(scales) + (Rc,),
        tuple(t.branching) + (1,),
        tuple(new_splits),
        terminal_mesh=bound,
        union_mode=t.union_mode,
    )
    rep = verify_tree(out, "casdim")
    if not rep.ok:
        raise CertificateError(f"pullback tree invalid: {rep.violations[:3]}")
    return out


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
    scales = [float(r) for r in target_scales]
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
    L = 0.0
    for i in range(1, depth):
        n_i = t.branching[i - 1]
        R_i = scales[i - 1]
        r = n * n_i * R_i
        L_next = L + r
        next_sets: list[frozenset] = []
        next_backing: list[int] = []
        table = []
        for k, V in enumerate(out_levels[i - 1].sets):
            U_idx = backing[k]
            U = t.levels[i - 1].sets[U_idx]
            children = [j for sub in t.children_of(i, U_idx) for j in sub]
            children = [j for j in children if t.levels[i].sets[j]]
            fU = Subset(Y, f.image_set(U))
            zone = neighborhood(fU, L) if L > 0 else fU
            sub_space, old_of_new = Y.subspace(zone.members)
            new_of_old = {o: q for q, o in enumerate(old_of_new)}
            expanded = []
            for j in children:
                img = Subset(Y, f.image_set(t.levels[i].sets[j]))
                exp = neighborhood(img, L) if L > 0 else img
                expanded.append(frozenset(new_of_old[y] for y in exp.members & zone.members))
            fam = FamilyOfSets(sub_space, tuple(expanded))
            if not fam.covers_space():
                raise CertificateError(
                    "expanded child images fail to cover the parent zone",
                    witness=(i, k),
                )
            colored, trace = make_disjoint(fam, r, n * n_i - 1)
            tuples = sorted(trace.margin_sets, key=lambda tp: (len(tp), tp))
            subfams: dict[int, list] = {}
            for T in tuples:
                members = trace.margin_sets[T]
                lifted = frozenset(old_of_new[q] for q in members)
                anchor = children[T[0]]
                img = Subset(Y, f.image_set(t.levels[i].sets[anchor]))
                allowed = neighborhood(img, L_next).members
                if not lifted <= allowed:
                    raise CertificateError(
                        "containment audit failed", witness=(i + 1, sorted(lifted))
                    )
                next_sets.append(lifted)
                next_backing.append(anchor)
                color = len(T) - 1
                subfams.setdefault(color, []).append(len(next_sets) - 1)
                containments.append((i + 1, len(next_sets) - 1, anchor, L_next))
            table.append(tuple(tuple(v) for c, v in sorted(subfams.items())))
        out_levels.append(FamilyOfSets(Y, tuple(next_sets)))
        out_splits.append(tuple(table))
        backing = next_backing
        L = L_next
    b = t.levels[depth - 1].max_diameter()
    E = control_upper(f)
    term = out_levels[-1].max_diameter()
    if term > E(b) + 2 * L:
        raise CertificateError(
            f"terminal mesh {term} exceeds E(b)+2L = {E(b) + 2 * L}"
        )
    out = DecompositionTree(
        Y,
        tuple(out_levels),
        tuple(scales[: depth - 1]),
        tuple(n * t.branching[i] for i in range(depth - 1)),
        tuple(out_splits),
        terminal_mesh=term,
        union_mode="contains",
    )
    repo = verify_tree(out, "casdim")
    if not repo.ok:
        raise CertificateError(f"pushforward tree invalid: {repo.violations[:3]}")
    audit = PushforwardAudit(tuple(required), tuple(slacks), tuple(containments))
    return out, audit
