"""Named property suites: each runs a seeded batch of instances through a
pipeline whose certificates are re-checked, and returns a deterministic report.

Suite names: disjointify, fibers, pushforward-dim, quotient-sandwich,
asdim-sandwich, trees-equivalence, tree-transfer, msp-pipelines,
oracle-agreement.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from typing import Callable

from .controls import LinearControl
from .covers import FamilyOfSets, dim_at_scale, make_disjoint
from .coarse_maps import (
    GroupAction,
    asdim_zero_witness,
    control_upper,
    factorize,
    group_quotient,
    pushforward_cover,
    verify_n_to_1,
)
from .dimension import apc_witness, asdim_at_scale
from .errors import CertificateError, PreconditionError, Refusal
from .generators import (
    action_fixtures,
    fold_map,
    random_casdim_tree,
    random_cover,
    random_measure,
    random_quotient_map,
    random_space,
    reflection_action,
    rotation_action,
    grid_rotation_action,
)
from .metric_core import Subset, bounded_components, build_space, diameter, r_components
from .msp import (
    asdim_to_msp,
    best_mass_family,
    half_mass_witness,
    msp_pullback,
    msp_pushforward,
    transfer_measure_selection,
)
from .trees import (
    DecompositionTree,
    casdim_to_sfdc,
    grow_level,
    is_partition_tree,
    partition_refine,
    tree_pullback,
    tree_pushforward,
    verify_tree,
)

__all__ = ["run_suite", "SUITES"]


def suite_disjointify(seed: int, count: int = 200) -> dict:
    """make_disjoint postconditions on random covers (re-checked internally)."""
    rng = random.Random(seed)
    done = 0
    failures = []
    while done < count:
        sp = random_space(rng, 128)
        R = float(rng.randint(1, 4))
        cov = random_cover(rng, sp, R, max_dim=3)
        if cov is None:
            continue
        n = dim_at_scale(cov, R)
        try:
            make_disjoint(cov, R, n)
        except CertificateError as e:
            failures.append({"instance": done, "error": str(e)})
        done += 1
    return {"suite": "disjointify", "seed": seed, "count": count,
            "passed": count - len(failures), "failures": failures}


def _random_controlled_map(rng):
    """A map with a supplied valid coarse n-to-1 control."""
    if rng.random() < 0.6:
        f, n = random_quotient_map(rng, 48)
        return f, n, LinearControl(2.0, inclusive=True)
    f = fold_map(rng.randint(4, 24))
    return f, 2, LinearControl(1.0, inclusive=True)


def suite_fibers(seed: int, count: int = 100) -> dict:
    """Component count <= n and diameter <= 2nR over maximal r-bounded sets,
    certified by ``asdim_zero_witness``."""
    rng = random.Random(seed)
    failures = []
    for i in range(count):
        f, n, C = _random_controlled_map(rng)
        dists = [d for d in f.codomain.realized_distances() if d > 0]
        for r in rng.sample(dists, min(3, len(dists))):
            for R in (C(r), C(r) + 1.0, 2 * C(r)):
                try:
                    asdim_zero_witness(f, n, C, r, R)
                except CertificateError as e:
                    failures.append({"instance": i, "r": r, "R": R, "error": str(e)})
    return {"suite": "fibers", "seed": seed, "count": count,
            "passed": count - len({f["instance"] for f in failures}),
            "failures": failures}


def suite_pushforward_dim(seed: int, count: int = 500) -> dict:
    """The image-dimension bound on random (map, cover, scale) triples."""
    rng = random.Random(seed)
    done = 0
    failures = []
    while done < count:
        f, n, C = _random_controlled_map(rng)
        r = float(rng.randint(1, 5))
        cov = random_cover(rng, f.domain, C(r), max_dim=3)
        if cov is None:
            continue
        try:
            pushforward_cover(f, cov, r, n, C)
        except CertificateError as e:
            failures.append({"instance": done, "r": r, "error": str(e)})
        except PreconditionError as e:
            failures.append({"instance": done, "r": r, "error": f"control: {e}"})
        done += 1
    return {"suite": "pushforward-dim", "seed": seed, "count": count,
            "passed": count - len(failures), "failures": failures}


def suite_quotient_sandwich(seed: int, count: int = 0) -> dict:
    """Metric sandwich for factorizations and quotient projections.

    For every factorization: |d(x,y) - d_H([x],[y])| <= 2*Rb over all pairs,
    where Rb bounds class diameters.  For every fixture action: the projection
    is 1-Lipschitz (checked inside group_quotient) and coarsely |G|-to-1 with
    C(r) = 2r.
    """
    del count
    failures = []
    checked = 0
    for act in action_fixtures():
        gq = group_quotient(act)
        f = gq.projection
        dists = [d for d in f.codomain.realized_distances() if d > 0][:4]
        for r in dists:
            ok, wit = verify_n_to_1(f, act.order, LinearControl(2.0), r)
            if not ok:
                failures.append({"action": f.domain.n, "r": r, "witness": str(wit)})
        for R in (1.0, 2.0):
            fac = factorize(f, R)
            Rb = fac.class_diam_bound
            X = fac.adjusted_domain
            for x in range(X.n):
                for y in range(x + 1, X.n):
                    dh = fac.middle.d(fac.p(x), fac.p(y))
                    d = X.d(x, y)
                    if not (d - 2 * Rb <= dh <= d + 2 * Rb):
                        failures.append({"pair": (x, y), "d": d, "dH": dh, "Rb": Rb})
            sel = fac.selection
            for k, x in enumerate(sel):
                if fac.p(x) != k:
                    failures.append({"selection_not_section": k})
            worst = max(X.d(x, sel[fac.p(x)]) for x in range(X.n))
            if worst > Rb:
                failures.append({"closeness": worst, "bound": Rb})
            checked += 1
    fm = fold_map(8)
    fac = factorize(fm, 1.0)
    if len(fac.classes) != 17:
        failures.append({"fold_classes": len(fac.classes)})
    return {"suite": "quotient-sandwich", "seed": seed, "checked": checked,
            "passed": checked - len(failures), "failures": failures}


def _small_actions():
    return [
        rotation_action(6, 2),
        rotation_action(8, 4),
        rotation_action(8, 2),
        reflection_action(7),
        reflection_action(8),
        grid_rotation_action(3, 4),
    ]


def suite_asdim_sandwich(seed: int, count: int = 0, *, max_points: int = 16) -> dict:
    """Exact two-sided dimension comparison through quotients on small fixtures.

    With X the symmetrized space, Q its quotient, Delta the largest orbit
    diameter and |G| the group order, three (scale, cap) settings each check:
      asdim(X, R, cap + 2*Delta) <= asdim(Q, R, cap)
      asdim(Q, R, cap) <= (asdim(X, 2R, cap) + 1) * |G| - 1
    """
    del count
    failures = []
    checked = 0
    for act in _small_actions():
        if act.space.n > max_points:
            continue
        gq = group_quotient(act)
        X, Q = gq.projection.domain, gq.quotient
        delta = max(diameter(Subset(X, o)) for o in gq.orbits)
        dists = [d for d in Q.realized_distances() if d > 0]
        settings = [
            (dists[0], Q.diam()),
            (dists[len(dists) // 2], Q.diam() / 2),
            (dists[-1], Q.diam()),
        ]
        for R, cap in settings:
            lhs = asdim_at_scale(X, R, cap + 2 * delta)
            mid = asdim_at_scale(Q, R, cap)
            rhs = asdim_at_scale(X, 2 * R, cap)
            if not (lhs.exact and mid.exact and rhs.exact):
                failures.append({"setting": (R, cap), "error": "not exact"})
                continue
            if lhs.dim > mid.dim:
                failures.append({"setting": (R, cap), "lhs": lhs.dim, "mid": mid.dim})
            if mid.dim > (rhs.dim + 1) * act.order - 1:
                failures.append({"setting": (R, cap), "mid": mid.dim, "rhs": rhs.dim,
                                 "order": act.order})
            checked += 1
    return {"suite": "asdim-sandwich", "seed": seed, "checked": checked,
            "passed": checked - len(failures), "failures": failures}


def suite_trees_equivalence(seed: int, count: int = 200) -> dict:
    """Binary conversion and partition refinement on random valid trees."""
    rng = random.Random(seed)
    failures = []
    for i in range(count):
        t = random_casdim_tree(rng, 128)
        try:
            sf = casdim_to_sfdc(t)
            if not verify_tree(sf, "sfdc").ok:
                failures.append({"instance": i, "stage": "sfdc-verify"})
            # every sfdc tree is a casdim tree by definition
            if not verify_tree(sf, "casdim").ok:
                failures.append({"instance": i, "stage": "sfdc-as-casdim"})
            if not is_partition_tree(partition_refine(t)):
                failures.append({"instance": i, "stage": "partition"})
        except (CertificateError, PreconditionError) as e:
            failures.append({"instance": i, "error": str(e)})
    return {"suite": "trees-equivalence", "seed": seed, "count": count,
            "passed": count - len({str(f) for f in failures}), "failures": failures}


def _partition_tree_for_pushforward(f, n, D, R1: float):
    """Depth-2 partition tree on the domain meeting the derived scale D(n*2*R1).

    The terminal sets are the chain components of the whole domain at that
    scale, so distinct sets are automatically more than the scale apart.
    """
    X = f.domain
    need = D(n * 2 * R1)
    pts = list(range(X.n))
    sets = [c.members for c in r_components(Subset(X, frozenset(pts)), need)]
    V2, table = grow_level(X, [[sets[0::2], sets[1::2]]])
    term = max(diameter(Subset(X, s)) for s in V2.sets)
    V1 = FamilyOfSets(X, (frozenset(pts),))
    return DecompositionTree(
        X, (V1, V2), (need,), (2,), (table,), terminal_mesh=term, union_mode="equal",
    )


def _gapped_reflection():
    """Reflection on two far-apart blocks, so component splitting is non-trivial."""
    coords = [0, 1, 2, 3, 40, 41, 42, 43]
    sp = build_space({"kind": "cloud", "coords": [[c] for c in coords]})
    m = len(coords)
    perm = tuple(m - 1 - i for i in range(m))
    return GroupAction(sp, ((0, 1), (1, 0)), (tuple(range(m)), perm))


def suite_tree_transfer(seed: int, count: int = 0) -> dict:
    """tree_pullback and tree_pushforward on the fixture maps, audits included."""
    del count
    failures = []
    checked = 0
    for act in action_fixtures() + [_gapped_reflection()]:
        gq = group_quotient(act)
        f = gq.projection
        n = act.order
        D = LinearControl(2.0, inclusive=True)
        Y = f.codomain
        # pullback: depth-2 tree on the codomain at a safe scale
        R1 = 2.0
        E = control_upper(f)
        rngY = sorted(range(Y.n))
        half = len(rngY) // 2
        A, B = frozenset(rngY[:half]), frozenset(rngY[half:])
        VY1 = FamilyOfSets(Y, (frozenset(rngY),))
        VY2 = FamilyOfSets(Y, (A, B))
        tY = DecompositionTree(
            Y, (VY1, VY2), (max(E(R1), 1.0),), (2,), ((((0,), (1,)),),),
            terminal_mesh=Y.diam(), union_mode="equal",
        )
        if not verify_tree(tY, "casdim").ok:
            failures.append({"fixture": Y.n, "stage": "pullback-input"})
            continue
        try:
            back = tree_pullback(f, tY, n, D, (R1,))
            if not verify_tree(back, "casdim").ok:
                failures.append({"fixture": Y.n, "stage": "pullback-verify"})
        except (CertificateError, PreconditionError) as e:
            failures.append({"fixture": Y.n, "stage": "pullback", "error": str(e)})
        # pushforward: derived-scale partition tree on the domain
        try:
            t = _partition_tree_for_pushforward(f, n, D, R1)
            if not verify_tree(t, "casdim").ok:
                failures.append({"fixture": Y.n, "stage": "pushforward-input"})
                continue
            out, audit = tree_pushforward(f, t, n, D, (R1,))
            if not verify_tree(out, "casdim").ok:
                failures.append({"fixture": Y.n, "stage": "pushforward-verify"})
            if not audit.containments and len(out.levels) > 1:
                failures.append({"fixture": Y.n, "stage": "audit-empty"})
        except (CertificateError, PreconditionError) as e:
            failures.append({"fixture": Y.n, "stage": "pushforward", "error": str(e)})
        checked += 1
    return {"suite": "tree-transfer", "seed": seed, "checked": checked,
            "passed": checked - len({f.get("fixture") for f in failures}),
            "failures": failures}


def _small_quotients(rng):
    choices = [
        reflection_action(rng.randint(4, 6)),
        rotation_action(rng.choice([4, 6]), 2),
        rotation_action(8, rng.choice([2, 4])),
    ]
    return group_quotient(rng.choice(choices))


def suite_msp(seed: int, count: int = 50) -> dict:
    """The three mass constants end to end on seeded (space, map, measure) triples."""
    rng = random.Random(seed)
    failures = []
    for i in range(count):
        gq = _small_quotients(rng)
        f = gq.projection
        n = gq.n
        X, Y = f.domain, f.codomain
        style = ("uniform", "concentrated", "random")[i % 3]
        muY = random_measure(rng, Y, style)
        muX = random_measure(rng, X, style)
        R = float(rng.randint(1, 3))
        D = LinearControl(2.0, inclusive=True)
        E = control_upper(f)
        try:
            # constant 1: best color of a disjointified cover
            cov = random_cover(rng, X, R, max_dim=3)
            if cov is not None:
                colored, _ = make_disjoint(cov, R)
                mf = asdim_to_msp(colored, R / colored.n_colors, muX)
                if mf.mass < Fraction(1, colored.n_colors):
                    failures.append({"instance": i, "stage": "asdim_to_msp"})
            # constant 2: pushforward with S = E(B) + n*R
            sel = tuple(min(f.fiber(y)) for y in range(Y.n))
            lam = transfer_measure_selection(f, muY, sel)
            witness = half_mass_witness(X, lam, D(n * R))
            if witness is None:
                failures.append({"instance": i, "stage": "no-witness"})
            else:
                out = msp_pushforward(f, n, muY, R, witness, lam)
                if out.mass < Fraction(1, 2 * n):
                    failures.append({"instance": i, "stage": "push-mass"})
                if out.S > E(witness.S) + n * R:
                    failures.append({"instance": i, "stage": "push-bound",
                                     "route": out.flags.get("route")})
            # constant 3: pullback mass >= 0.25
            pb = msp_pullback(f, muX, R, K=Y.diam(), S=X.diam())
            if pb.mass < Fraction(1, 4):
                failures.append({"instance": i, "stage": "pull-mass"})
        except (CertificateError, PreconditionError) as e:
            failures.append({"instance": i, "error": str(e)})
    return {"suite": "msp-pipelines", "seed": seed, "count": count,
            "passed": count - len({f["instance"] for f in failures}),
            "failures": failures}


def suite_oracle_agreement(seed: int, count: int = 40) -> dict:
    """Greedy paths never silently beat or contradict the exhaustive oracles."""
    rng = random.Random(seed)
    failures = []
    for i in range(count):
        sp = random_space(rng, 12)
        mu = random_measure(rng, sp)
        R = float(rng.randint(1, 3))
        S = float(rng.randint(1, 6))
        exact = best_mass_family(sp, mu, R, S)
        greedy = best_mass_family(sp, mu, R, S, exact_cap=0)
        if greedy.exact or "lower_bound" not in greedy.flags:
            failures.append({"instance": i, "stage": "mass-flag"})
        if greedy.mass > exact.mass:
            failures.append({"instance": i, "stage": "mass-dominance"})
        cap = float(rng.randint(2, 8))
        ex = asdim_at_scale(sp, R, cap)
        gr = asdim_at_scale(sp, R, cap, exact_cap=0)
        if gr.exact:
            failures.append({"instance": i, "stage": "dim-flag"})
        if gr.dim < ex.dim:
            failures.append({"instance": i, "stage": "dim-dominance"})
        if sp.n <= 8:
            scales = sorted({float(rng.randint(1, 3)), float(rng.randint(4, 6))})
            feasible_brute = _apc_brute(sp, scales, cap)
            try:
                apc_witness(sp, scales, cap)
                found = True
            except Refusal as e:
                found = False
                if not e.proved:
                    failures.append({"instance": i, "stage": "apc-budget"})
            if found != feasible_brute:
                failures.append({"instance": i, "stage": "apc-agreement"})
    return {"suite": "oracle-agreement", "seed": seed, "count": count,
            "passed": count - len({f["instance"] for f in failures}),
            "failures": failures}


def _apc_brute(sp, scales, cap):
    tests = [bounded_components(sp, R, cap) for R in scales]
    for assign in product(range(len(scales)), repeat=sp.n):
        masks = [0] * len(scales)
        for p, i in enumerate(assign):
            if not tests[i](masks[i], p):
                break
            masks[i] |= 1 << p
        else:
            return True
    return False


SUITES: dict[str, Callable] = {
    "disjointify": suite_disjointify,
    "fibers": suite_fibers,
    "pushforward-dim": suite_pushforward_dim,
    "quotient-sandwich": suite_quotient_sandwich,
    "asdim-sandwich": suite_asdim_sandwich,
    "trees-equivalence": suite_trees_equivalence,
    "tree-transfer": suite_tree_transfer,
    "msp-pipelines": suite_msp,
    "oracle-agreement": suite_oracle_agreement,
}


ALIASES = {
    "lemma-disjointify": "disjointify",
    "fibers-lemma": "fibers",
    "sandwich": "asdim-sandwich",
}


def run_suite(name: str, seed: int, count: int | None = None, *, max_points: int | None = None) -> dict:
    name = ALIASES.get(name, name)
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    fn = SUITES[name]
    kwargs = {}
    if max_points is not None and name == "asdim-sandwich":
        kwargs["max_points"] = max_points
    if count is None:
        return fn(seed, **kwargs)
    return fn(seed, count, **kwargs)
