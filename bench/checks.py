"""Output checks made apart from coarsekit: numpy on the raw distances only.

Every checker raises ``CheckError`` with a reason when an output is wrong and
returns None when it holds.  None of them imports coarsekit, so a fault in a
library kernel cannot hide itself by also being used to judge its output.
"""

from __future__ import annotations

import json
import math

import numpy as np

ABS_TOL = 1e-12


class CheckError(Exception):
    pass


def _fail(msg):
    raise CheckError(msg)


# ---------------------------------------------------------------- primitives
def membership(sets, n) -> np.ndarray:
    """Boolean (sets x points) matrix."""
    M = np.zeros((len(sets), n), dtype=bool)
    for k, s in enumerate(sets):
        M[k, list(s)] = True
    return M


def multiplicity_dim(dmat, sets, R) -> int:
    """max point multiplicity - 1 of the strict R-expansions B(U, R) = U + {d < R}."""
    M = membership(sets, dmat.shape[0]).astype(np.int64)
    close = (dmat < R).astype(np.int64)
    E = (M @ close) > 0
    E |= M.astype(bool)
    return int(E.sum(axis=0).max()) - 1


def set_diameter(dmat, s) -> float:
    idx = sorted(s)
    return float(dmat[np.ix_(idx, idx)].max()) if len(idx) > 1 else 0.0


def min_cross_distance(dmat, sets) -> float:
    """Least distance between points of two different sets (+inf for < 2 sets).

    A point in two of the sets counts as distance 0.
    """
    n = dmat.shape[0]
    owner = np.full(n, -1)
    for k, s in enumerate(sets):
        idx = list(s)
        if np.any(owner[idx] >= 0):
            return 0.0
        owner[idx] = k
    pts = np.nonzero(owner >= 0)[0]
    lab = owner[pts]
    sub = dmat[np.ix_(pts, pts)]
    diff = lab[:, None] != lab[None, :]
    return float(sub[diff].min()) if diff.any() else math.inf


def strict_components(dmat, pts, R) -> list[list[int]]:
    """Chain components of ``pts`` with steps d < R (breadth-first search)."""
    pts = sorted(pts)
    left = set(pts)
    comps = []
    for p in pts:
        if p not in left:
            continue
        left.discard(p)
        comp, frontier = [p], [p]
        while frontier:
            q = frontier.pop()
            near = [r for r in left if dmat[q, r] < R]
            for r in near:
                left.discard(r)
            comp += near
            frontier += near
        comps.append(sorted(comp))
    return comps


def max_mass_bruteforce(dmat, weights, R, S) -> float:
    """Largest normalised mass of a point set whose d<R chain components have
    diameter <= S.

    Enumerates every subset of the support with bitmasks held in numpy arrays:
    reach[m, i] is the component of i inside subset m, grown to a fixed point.
    """
    w = np.asarray(weights, dtype=float)
    w = w / w.sum()
    supp = np.nonzero(w > 0)[0]
    k = len(supp)
    if k > 20:
        raise ValueError("brute force is limited to 20 support points")
    D = dmat[np.ix_(supp, supp)]
    bit = np.uint32(1) << np.arange(k, dtype=np.uint32)
    adj = ((D < R).astype(np.uint32) * bit[None, :]).sum(axis=1).astype(np.uint32)
    far = ((D > S).astype(np.uint32) * bit[None, :]).sum(axis=1).astype(np.uint32)
    masks = np.arange(1 << k, dtype=np.uint32)
    inside = (masks[:, None] & bit[None, :]) != 0
    reach = np.where(inside, bit[None, :], np.uint32(0))
    while True:
        grown = reach.copy()
        for j in range(k):
            has_j = (reach & bit[j]) != 0
            grown |= np.where(has_j, adj[j] & masks[:, None], np.uint32(0))
        if np.array_equal(grown, reach):
            break
        reach = grown
    bad = ((reach & far[None, :]) != 0) & inside
    feasible = ~bad.any(axis=1)
    mass = inside.astype(float) @ w[supp]
    return float(mass[feasible].max())


# ---------------------------------------------------------------- checkers
def check_suite_report(report):
    """No failures, and every instance passed (exhaustive suites say ``checked``)."""
    if report.get("failures"):
        _fail(f"suite {report.get('suite')} reported failures: {report['failures'][:2]}")
    count = report["count"] if "count" in report else report.get("checked")
    if not count or report.get("passed") != count:
        _fail(f"suite {report.get('suite')}: passed {report.get('passed')} of {count}")


def check_matrix_space(dmat_out, labels_out, dmat_ref):
    """A space built from distinct integer points is accepted unchanged."""
    if dmat_out.shape != dmat_ref.shape or not np.array_equal(dmat_out, dmat_ref):
        _fail("built space does not hold the input distances")
    if list(labels_out) != list(range(dmat_ref.shape[0])):
        _fail("built space does not keep the default labels")


def check_disjointification(dmat, in_sets, R, out_sets, out_colors, n_colors, tuples=None):
    """Coverage, colour count, colour-class separation, mesh growth, containment.

    n is recomputed here from the input cover's multiplicity.  With ``tuples``
    each output set must lie in the R-expansion of every input set of its
    defining tuple; without them it must lie in the R-expansions of at least
    colour+1 input sets, which is what a tuple of that size implies.
    """
    npts = dmat.shape[0]
    n = multiplicity_dim(dmat, in_sets, R)
    covered = np.zeros(npts, dtype=bool)
    for s in out_sets:
        covered[list(s)] = True
    if not covered.all():
        _fail(f"output misses points {np.nonzero(~covered)[0][:5].tolist()}")
    if n_colors > n + 1 or len(set(out_colors)) > n + 1 or any(not 0 <= c < n_colors for c in out_colors):
        _fail(f"{len(set(out_colors))} colours (declared {n_colors}) for multiplicity dimension {n}")
    gamma = R / (n + 1)
    for c in sorted(set(out_colors)):
        cls = [s for s, col in zip(out_sets, out_colors) if col == c]
        if min_cross_distance(dmat, cls) < gamma:
            _fail(f"colour class {c} is not R/(n+1)-disjoint")
    in_mesh = max(set_diameter(dmat, s) for s in in_sets if s)
    out_mesh = max(set_diameter(dmat, s) for s in out_sets)
    if out_mesh > in_mesh + 2 * R:
        _fail(f"output mesh {out_mesh} exceeds {in_mesh} + 2R")
    E = membership(in_sets, npts)
    E |= (E.astype(np.int64) @ (dmat < R).astype(np.int64)) > 0
    for k, (s, c) in enumerate(zip(out_sets, out_colors)):
        idx = list(s)
        holds = E[:, idx].all(axis=1)
        if tuples is not None:
            T = tuples[k]
            if len(T) != c + 1 or not holds[list(T)].all():
                _fail(f"output set {k} escapes the R-expansions of its tuple {T}")
        elif holds.sum() < c + 1:
            _fail(f"output set {k} of colour {c} lies in only {int(holds.sum())} R-expansions")


def check_lebesgue(dmat, sets, value):
    """Least over points of the best distance to the outside of a containing set."""
    npts = dmat.shape[0]
    M = membership(sets, npts)
    best = math.inf
    for x in range(npts):
        per_point = 0.0
        for k in np.nonzero(M[:, x])[0]:
            outside = ~M[k]
            if not outside.any():
                per_point = math.inf
                break
            per_point = max(per_point, float(dmat[x, outside].min()))
        best = min(best, per_point)
    if value != best:
        _fail(f"lebesgue number {value} != {best}")


def check_distances(dmat_out, dmat_ref):
    """A built space holds the reference distances, up to float rounding."""
    if dmat_out.shape != dmat_ref.shape or not np.allclose(dmat_out, dmat_ref, rtol=0, atol=1e-9):
        _fail("built space's distances differ from numpy's")


def check_cover_queries(dmat, sets, R, dim, classes_ok, lebesgue):
    """``dim_at_scale``, ``is_r_disjoint`` on each colour class and
    ``lebesgue_number`` of a disjointification, against numpy's own values
    (the classes are R/(n+1)-disjoint, so each must be accepted)."""
    want = multiplicity_dim(dmat, sets, R)
    if dim != want:
        _fail(f"dim_at_scale {dim} != {want}")
    if not all(classes_ok):
        _fail("is_r_disjoint rejects a colour class")
    check_lebesgue(dmat, sets, lebesgue)


def check_mass_family(dmat, weights, R, S, sets, mass, *, optimum=None, floor=None):
    """R-disjoint, S-bounded, union mass = stated mass, and optimum or floor met."""
    w = np.asarray(weights, dtype=float)
    w = w / w.sum()
    if len(sets) > 1 and min_cross_distance(dmat, sets) < R:
        _fail("family is not R-disjoint")
    for s in sets:
        if set_diameter(dmat, s) > S:
            _fail(f"set {sorted(s)[:6]} exceeds the diameter bound {S}")
    union = sorted(set().union(*sets)) if sets else []
    got = float(w[union].sum())
    if not math.isclose(got, mass, rel_tol=0, abs_tol=1e-9):
        _fail(f"stated mass {mass} but the union weighs {got}")
    if optimum is not None and not math.isclose(mass, optimum, rel_tol=0, abs_tol=1e-9):
        _fail(f"mass {mass} differs from the brute-force maximum {optimum}")
    if floor is not None and mass < floor - ABS_TOL:
        _fail(f"mass {mass} below its guaranteed floor {floor}")


def check_game_values(dmat_domain, assign, R, S, blocks):
    """Each block value lies in [1/k, 1] (k = preimage size), and is 1 when the
    whole preimage is feasible (all its d<R components S-bounded)."""
    if not blocks:
        _fail("no blocks evaluated")
    for blk in blocks:
        members = set(blk["block"])
        pre = [x for x, y in enumerate(assign) if y in members]
        k = len(pre)
        v = blk["value"]
        if not (1.0 / k - 1e-9 <= v <= 1.0 + 1e-9):
            _fail(f"game value {v} outside [1/{k}, 1]")
        whole = all(set_diameter(dmat_domain, c) <= S for c in strict_components(dmat_domain, pre, R))
        if whole and not math.isclose(v, 1.0, abs_tol=1e-9):
            _fail(f"whole preimage is feasible but the game value is {v}")


def check_partition_cover(dmat, sets, R, mesh_cap, dim):
    """asdim_at_scale output: a cover of X with mesh <= cap and the stated dimension."""
    covered = np.zeros(dmat.shape[0], dtype=bool)
    for s in sets:
        covered[list(s)] = True
    if not covered.all():
        _fail("dimension cover misses points")
    if max(set_diameter(dmat, s) for s in sets) > mesh_cap:
        _fail("dimension cover exceeds its mesh cap")
    got = multiplicity_dim(dmat, sets, R)
    if got != dim:
        _fail(f"stated dimension {dim} but the cover has {got}")


def check_apc(dmat, scales, families, mesh_cap):
    """apc_witness output: family i is scales[i]-disjoint, mesh <= cap, union covers X."""
    covered = np.zeros(dmat.shape[0], dtype=bool)
    for R, sets in zip(scales, families):
        for s in sets:
            covered[list(s)] = True
            if set_diameter(dmat, s) > mesh_cap:
                _fail("witness set exceeds the mesh cap")
        if len(sets) > 1 and min_cross_distance(dmat, sets) < R:
            _fail(f"witness family at scale {R} is not disjoint")
    if not covered.all():
        _fail("witness families do not cover the space")


# ---------------------------------------------------------------- CLI
def parse_cli_report(returncode, stdout: bytes) -> dict:
    if returncode != 0:
        _fail(f"exit code {returncode}")
    try:
        rep = json.loads(stdout)
    except ValueError as e:
        _fail(f"report is not JSON: {e}")
    if rep.get("status") != "ok":
        _fail(f"report status {rep.get('status')!r}")
    return rep["result"]


def check_identical(first: bytes, again: bytes, what: str):
    if first != again:
        _fail(f"{what}: stdout differs between invocations")
