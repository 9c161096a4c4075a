"""Every certificate check accepts a real output and rejects tampered copies.

Each test builds a real output of one certified operation, passes it to the
operation's named check (which must accept it), then passes tampered copies
(each must raise CertificateError).  Checks whose failure a real input can
provoke are also driven through the operation itself.  The LP and CLI sites
are reached by replacing ``scipy.optimize.linprog`` or ``suites.run_suite``.

``test_every_certificate_raise_is_executed`` runs every other test of this
file under a line tracer and fails when some ``raise CertificateError`` line
in ``src/coarsekit`` is never executed.
"""

import ast
import dataclasses
import json
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
import scipy.optimize

import coarsekit
from coarsekit import (
    AsdimResult,
    ApcWitness,
    CertificateError,
    CoarseMap,
    DecompositionTree,
    DimSequenceWitness,
    FamilyOfSets,
    LinearControl,
    MassFamily,
    ProbMeasure,
    apc_normalize,
    apc_pullback,
    apc_pushforward,
    apc_witness,
    asdim_at_scale,
    asdim_to_msp,
    asdim_zero_witness,
    best_mass_family,
    build_space,
    casdim_to_sfdc,
    factorize,
    group_quotient,
    make_disjoint,
    msp_pullback,
    n_to_1_profile,
    partition_refine,
    pullback_family,
    pushforward_cover,
    symmetrize_metric,
    tree_pullback,
    tree_pushforward,
    tree_to_cover,
    verify_apc_witness,
)
from coarsekit import cli, coarse_maps, covers, dimension, msp, trees
from coarsekit.generators import fold_map, path_space, reflection_action

ROOT = Path(__file__).resolve().parent.parent


def fam(sp, *sets, colors=None, n_colors=None):
    return FamilyOfSets(sp, tuple(frozenset(s) for s in sets), colors, n_colors)


def uniform(sp):
    return ProbMeasure(sp, (1.0,) * sp.n)


def rejects(fn, match=None):
    with pytest.raises(CertificateError, match=match):
        fn()


def cloud(*xs):
    return build_space({"kind": "cloud", "coords": [[x] for x in xs]})


# ------------------------------------------------------------------ covers


def test_shared_cover_check():
    sp = path_space(10)
    w = apc_witness(sp, (2.0, 3.0), 3.0)
    assert verify_apc_witness(w, mesh_cap=3.0) == w.certificates[0]
    assert covers.check_families(sp, w.families, w.scales, 3.0) == w.certificates[0]["families"]
    close = (fam(sp, {0}, {1}),) + w.families[1:]
    rejects(lambda: covers.check_families(sp, close, w.scales), r"family 1 is not 2\.0-disjoint")
    dropped = (w.families[0], fam(sp))
    rejects(lambda: covers.check_families(sp, dropped, w.scales), "do not cover")
    rejects(lambda: covers.check_families(sp, w.families, w.scales, 0.5), "exceeds the cap")


def test_apc_normalize_names_the_under_separated_family():
    # the second working scale is 2 * 4 = 8, so V2's classes are only
    # guaranteed 8-disjoint; its two sets lie 9 apart, short of the gap 10
    sp = cloud(0, 1, 10, 11)
    w = DimSequenceWitness(sp, (1.0, 1.0), (0, 0), (fam(sp, range(4)), fam(sp, {0, 1}, {2, 3})))
    rejects(lambda: apc_normalize(w, (4.0, 10.0)), r"family 2 is not 10\.0-disjoint")
    assert apc_normalize(w, (4.0, 9.0)).certificates[0]["covers"]


def test_apc_normalize_names_the_family_too_wide_at_its_working_scale():
    # three blocks of a path have dimension 1 at the witness scale 2, but 2
    # at the working scale R_1 = 2 * 5 = 10, where every expansion meets all
    sp = path_space(9)
    w = DimSequenceWitness(sp, (2.0,), (1,), (fam(sp, range(3), range(3, 6), range(6, 9)),))
    w.validate()
    rejects(lambda: apc_normalize(w, (5.0, 5.0)), r"family 1 has dimension 2 > 1 at working scale 10\.0")
    assert apc_normalize(w, (1.0, 1.0)).certificates[0]["covers"]


def test_disjointification_check():
    sp = path_space(21)
    U = fam(sp, range(0, 11), range(5, 16), range(10, 21))
    out, trace = make_disjoint(U, 2.0)
    tuples = list(trace.margin_sets)

    def check(F, ts=tuples):
        covers._check_disjointification(U, 2.0, 2, F, ts)

    check(out)
    k = next(k for k, T in enumerate(tuples) if T == (2,))
    wrong = list(tuples)
    wrong[k] = (0,)  # a set of the third interval, credited to the first
    rejects(lambda: check(out, wrong), "defining tuple")
    sets = list(out.sets)
    dropped = fam(sp, *sets[1:], colors=out.colors[1:], n_colors=3)
    rejects(lambda: check(dropped, tuples[1:]), "do not cover")
    far = next(j for j, s in enumerate(sets) if out.colors[j] == out.colors[0] and j and max(s) > 15)
    sets[0] = sets[0] | sets[far]
    rejects(lambda: check(fam(sp, *sets, colors=out.colors, n_colors=3)), "disjoint")


# --------------------------------------------------------------- dimension


def test_dim_sequence_validate():
    sp = path_space(31)
    V1 = fam(sp, range(0, 16), range(16, 31))
    DimSequenceWitness(sp, (8.0,), (1,), (V1,)).validate()
    rejects(DimSequenceWitness(sp, (8.0,), (0,), (V1,)).validate, "dimension 1 > 0")
    rejects(DimSequenceWitness(sp, (8.0,), (1,), (fam(sp, range(16)),)).validate, "cover")


def test_asdim_check():
    sp = path_space(8)
    for cap in (16, 4):  # exact, then greedy above the cap
        res = asdim_at_scale(sp, 2.0, 2.0, exact_cap=cap)
        assert dimension._check_asdim(2.0, 2.0, res) is res
    blocks = [set(b) for b in res.cover.sets]
    blocks[0] |= blocks[1]  # points in two sets
    overlap = AsdimResult(res.dim, fam(sp, *blocks), res.exact)
    rejects(lambda: dimension._check_asdim(2.0, 2.0, overlap), "not a partition")
    merged = AsdimResult(res.dim, fam(sp, blocks[0], *blocks[2:]), res.exact)
    rejects(lambda: dimension._check_asdim(2.0, 2.0, merged), "exceeds the cap")
    understated = AsdimResult(res.dim - 1, res.cover, res.exact)
    rejects(lambda: dimension._check_asdim(2.0, 2.0, understated), "stated dimension")


def test_apc_pushforward_image_dimension():
    # fold is 2-to-1: claiming n=1 puts both images of {-5,-4} and {4,5} on {4,5}
    f = fold_map(5)
    X = f.domain
    w = ApcWitness(X, (1.0,), (fam(X, {0, 1}, {9, 10}),))
    rejects(lambda: apc_pushforward(f, 1, LinearControl(1.0), w, (1.0,)), "exceeds n-1=0")


def test_apc_pullback_mesh_cap():
    f = fold_map(9)
    Y = f.codomain
    w = ApcWitness(Y, (1.0, 2.0), (fam(Y, {0, 1}, {5, 6}), fam(Y, {2, 3, 4}, {7, 8, 9})))
    assert apc_pullback(f, w, (1.0, 2.0), M=2.0).certificates
    rejects(lambda: apc_pullback(f, w, (1.0, 2.0), M=1.0), "exceeds the cap 1.0")


# ------------------------------------------------------------- coarse maps


def test_pullback_family_tie():
    # E(2) = 1 on the two-point path: {0}, {1} is E(2)-disjoint, yet 1 apart
    sp = path_space(2)
    ident = CoarseMap(sp, sp, (0, 1))
    assert len(pullback_family(ident, fam(sp, {0}, {1}), 1.0)) == 2
    rejects(lambda: pullback_family(ident, fam(sp, {0}, {1}), 2.0), "not d-disjoint")


def test_pushforward_cover_dimension_bound():
    f = fold_map(5)
    U = fam(f.domain, range(0, 6), range(5, 11))
    C = LinearControl(1.0)
    out = pushforward_cover(f, U, 1.0, 2, C)
    assert coarse_maps._check_image_dim(U, out, 1.0, 2, C) is out
    piled = FamilyOfSets(out.space, out.sets * 3)  # every point in six sets
    rejects(lambda: coarse_maps._check_image_dim(U, piled, 1.0, 2, C), "exceeds the bound")


def test_factorization_check():
    f = fold_map(4)
    fac = factorize(f, 1.0)
    coarse_maps._check_factors(f, fac.p, fac.q)
    shifted = CoarseMap(fac.q.domain, fac.q.codomain, tuple((y + 1) % 5 for y in fac.q.assign))
    rejects(lambda: coarse_maps._check_factors(f, fac.p, shifted), "q∘p != f")


def test_invariance_check():
    act = reflection_action(6)
    sym = symmetrize_metric(act)
    assert coarse_maps._check_invariant(act.perms, sym) is sym
    d = sym.dmat.copy()
    d[0, 1] = d[1, 0] = d[0, 1] + 1.0  # the mirror pair (4, 5) keeps its distance
    bent = coarsekit.FiniteMetricSpace(sym.labels, d, validate=False)
    rejects(lambda: coarse_maps._check_invariant(act.perms, bent), "not G-invariant")


def test_one_lipschitz_check_witness_is_first_in_row_major_order():
    gq = group_quotient(reflection_action(6))
    p = gq.projection
    assert coarse_maps._check_1_lipschitz(p) is p
    stretched = coarsekit.FiniteMetricSpace(gq.quotient.labels, 3 * gq.quotient.dmat)
    bad = CoarseMap(p.domain, stretched, p.assign)
    first = next(
        (x, y)
        for x in range(p.domain.n)
        for y in range(p.domain.n)
        if stretched.dmat[p(x), p(y)] > p.domain.dmat[x, y]
    )
    with pytest.raises(CertificateError, match="1-Lipschitz") as e:
        coarse_maps._check_1_lipschitz(bad)
    assert e.value.witness == first


def test_asdim_zero_witness_counts_components():
    f = fold_map(5)
    C = LinearControl(1.0)
    assert asdim_zero_witness(f, 2, C, 1.0, 1.0) == n_to_1_profile(f, 1.0, 1.0)
    rejects(lambda: asdim_zero_witness(f, 1, C, 1.0, 1.0), "coarsely n-to-1")


# --------------------------------------------------------------------- msp


def test_mass_family_verify():
    sp = path_space(10)
    mu = uniform(sp)
    out = best_mass_family(sp, mu, 2.0, 3.0)
    out.verify(mu, floor=out.mass)
    sets = [set(s) for s in out.family.sets]
    near = [sets[0] | {max(sets[0]) + 1}] + sets[1:]
    rejects(lambda: MassFamily(fam(sp, *near), 2.0, 9.0, out.mass).verify(mu), "not R-disjoint")
    rejects(lambda: MassFamily(out.family, 2.0, 1.0, out.mass).verify(mu), "diameter bound")
    rejects(lambda: MassFamily(out.family, 2.0, 3.0, out.mass + 0.05).verify(mu), "mismatch")
    rejects(lambda: out.verify(mu, floor=out.mass + 0.1), "below the guaranteed")


def test_mass_floors_of_the_three_constructions():
    sp = path_space(21)
    U = fam(sp, range(0, 11), range(5, 16), range(10, 21))
    colored, _ = make_disjoint(U, 2.0)
    mu = uniform(sp)
    out = asdim_to_msp(colored, 2.0 / 3, mu)
    out.verify(mu, floor=Fraction(1, 3))
    light = min(range(colored.n_colors), key=lambda c: mu.mass(colored.color_class(c).union()))
    cls = colored.color_class(light)
    rejects(lambda: MassFamily(cls, 2.0 / 3, out.S, mu.mass(cls.union())).verify(mu, floor=Fraction(1, 3)))
    f = fold_map(4)
    pull = msp_pullback(f, uniform(f.domain), 2.0, K=1.0, S=1.0)
    pull.verify(uniform(f.domain), floor=Fraction(1, 4))
    one = MassFamily(fam(f.domain, {0}), 2.0, 1.0, Fraction(1, 9))
    rejects(lambda: one.verify(uniform(f.domain), floor=Fraction(1, 4)), "below the guaranteed")
    # a float mass is never equal to an exact one it only rounds to
    rounded = MassFamily(fam(f.domain, {0}), 2.0, 1.0, 1 / 9)
    rejects(lambda: rounded.verify(uniform(f.domain)), "mass mismatch")


def test_msp_pullback_stage_masses():
    f = fold_map(4)
    # K = 0 keeps one codomain point per set, and R_Y = 9 lets only one in
    rejects(lambda: msp_pullback(f, uniform(f.domain), 1.0, K=0.0, S=0.0, R_Y=9.0), "codomain stage")
    sp = path_space(6)
    const = CoarseMap(sp, path_space(1), (0,) * 6)
    # one codomain point of full mass, but S = 0 and R_X = 3 leave 2 of 6 points
    rejects(lambda: msp_pullback(const, uniform(sp), 3.0, K=0.0, S=0.0), "fiber stage")


def test_game_lp_sites():
    # path_space(4) at R=2, S=0: the maximal feasible sets hold no two
    # neighbours, and the fractional covering number is 2
    sp = path_space(4)
    pts = [0, 1, 2, 3]
    real = scipy.optimize.linprog
    solves = []

    def recording(*a, **kw):
        res = real(*a, **kw)
        solves.append((kw["A_ub"], res))
        return res

    with mock.patch.object(scipy.optimize, "linprog", recording):
        assert msp._game_value(sp, pts, 2.0, 0.0)[0] == pytest.approx(0.5)
    assert len(solves) == 1
    A_ub, res = solves[0]
    Acov, y, z, tau = -A_ub, res.x, -res.ineqlin.marginals, res.fun
    msp._check_game(Acov, y, z, tau)

    uncovered = y * (Acov[0] == 0)  # drop every set holding point 0
    rejects(lambda: msp._check_game(Acov, uncovered, z, tau), "not a fractional cover")
    overpacked = z.copy()
    overpacked[0] += 1.0
    rejects(lambda: msp._check_game(Acov, y, overpacked, tau), "not a fractional packing")
    # a set whose points all lie in other sets: with every other set at >= 1,
    # a negative weight on it leaves the cover intact
    spare = next(j for j in range(Acov.shape[1]) if (Acov.sum(axis=1) - Acov[:, j] >= 1).all())
    negative_y = y + 1.0
    negative_y[spare] = -0.5
    assert (Acov @ negative_y >= 1).all()
    rejects(lambda: msp._check_game(Acov, negative_y, z, tau), "not a fractional cover")
    negative_z = z.copy()
    negative_z[0] = -0.5
    rejects(lambda: msp._check_game(Acov, y, negative_z, tau), "not a fractional packing")
    rejects(lambda: msp._check_game(Acov, y, z, tau + 0.1), "cover total")
    rejects(lambda: msp._check_game(Acov, y, 0.9 * z, tau), "packing total")

    def failing(*a, **kw):
        res = real(*a, **kw)
        res.success = False
        return res

    with mock.patch.object(scipy.optimize, "linprog", failing):
        rejects(lambda: msp._game_value(sp, pts, 2.0, 0.0), "covering LP")


# ------------------------------------------------------------------- trees


def two_level_tree(sp, scale=2.0):
    """Root {0..15} splitting into ({0..6}, {9..15}) and ({7, 8},)."""
    return DecompositionTree(
        sp,
        (fam(sp, range(16)), fam(sp, range(0, 7), range(9, 16), {7, 8})),
        (scale,),
        (2,),
        ((((0, 1), (2,)),),),
        terminal_mesh=6.0,
    )


def test_output_tree_check():
    sp = path_space(16)
    out = casdim_to_sfdc(two_level_tree(sp))
    assert trees._certify(out, "sfdc") is out
    wide = dataclasses.replace(out, scales=(4.0,) * len(out.scales))  # {0..6}, {9..15} are 3 apart
    rejects(lambda: trees._certify(wide, "sfdc"), "output tree invalid in sfdc mode")


def test_tree_to_cover_check():
    sp = path_space(16)
    cover = tree_to_cover(two_level_tree(sp), 2.0)
    classes = cover.color_classes()
    covers.check_families(sp, classes, [2.0] * len(classes), 6.0)
    merged = [FamilyOfSets(sp, classes[0].sets + classes[1].sets), classes[0]]
    rejects(lambda: covers.check_families(sp, merged, [2.0, 2.0], 6.0), "family 1 is not")
    rejects(lambda: covers.check_families(sp, classes, [2.0] * len(classes), 5.0), "cap 5.0")


def test_refined_tree_check():
    sp = path_space(4)
    out = partition_refine(
        DecompositionTree(sp, (fam(sp, range(4)), fam(sp, {0, 1}, {1, 2, 3})), (1.0,), (2,),
                          ((((0,), (1,)),),), terminal_mesh=2.0)
    )
    assert trees._check_refined(out) is out
    # two subfamilies of one parent that overlap: every verify_tree test holds
    overlap = dataclasses.replace(out, levels=(out.levels[0], fam(sp, {0, 1}, {1, 2, 3})))
    assert trees.verify_tree(overlap, "casdim").ok
    rejects(lambda: trees._check_refined(overlap), "not a partition tree")
    torn = dataclasses.replace(out, levels=(out.levels[0], fam(sp, {0}, {2, 3})))
    rejects(lambda: trees._check_refined(torn), "not a partition tree")
    split = dataclasses.replace(out, branching=(1,))
    rejects(lambda: trees._check_refined(split), "too_many_subfamilies")


def test_pullback_tree_check():
    f = fold_map(15)
    t = two_level_tree(f.codomain)
    out = tree_pullback(f, t, 2, LinearControl(1.0), (2.0,))
    assert trees._check_pullback(out, 2) is out
    # the fold splits the preimages of {9..15} and {7, 8} in two: a real call claiming n=1 fails
    rejects(lambda: tree_pullback(f, t, 1, LinearControl(1.0), (2.0,)), "more than n=1")
    narrow = dataclasses.replace(out, terminal_mesh=1.0)
    rejects(lambda: trees._check_pullback(narrow, 2), "exceeds the terminal mesh")
    loose = dataclasses.replace(out, scales=out.scales[:-1] + (20.0,))  # {-15..-9}, {9..15}
    rejects(lambda: trees._check_pullback(loose, 2), "output tree invalid")


def test_pushforward_tree_check():
    f = fold_map(10)
    sp = f.domain
    t = DecompositionTree(
        sp,
        (fam(sp, range(21)), fam(sp, range(0, 5), range(10, 15), range(5, 10), range(15, 21))),
        (4.0,),
        (2,),
        ((((0, 1), (2, 3)),),),
        terminal_mesh=5.0,
    )
    out, audit = tree_pushforward(f, t, 2, LinearControl(1.0), (1.0,))
    assert trees._check_pushforward(f, t, out, audit) is out
    level, k, j, slack = audit.containments[0]
    far = max(range(len(t.levels[level - 1].sets)), key=lambda q: abs(q - j))
    moved = dataclasses.replace(
        audit, containments=((level, k, far, 0.5),) + audit.containments[1:]
    )
    rejects(lambda: trees._check_pushforward(f, t, out, moved), "containment audit")
    loose = dataclasses.replace(out, terminal_mesh=100.0)
    rejects(lambda: trees._check_pushforward(f, t, loose, audit), "exceeds E")
    tight = dataclasses.replace(out, terminal_mesh=0.5)
    rejects(lambda: trees._check_pushforward(f, t, tight, audit), "no_bounded_level")


# --------------------------------------------------------------------- cli


def run_cli(argv):
    with mock.patch("sys.stdout"), mock.patch("sys.stderr"):
        return cli.main(argv)


def write(tmp, name, obj):
    path = Path(tmp) / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_cli_result_sites():
    with tempfile.TemporaryDirectory() as tmp:
        sp = write(tmp, "sp.json", {"kind": "cloud", "coords": [[i] for i in range(16)]})
        tree = {
            "levels": [{"sets": [list(range(16))]}, {"sets": [list(range(8)), list(range(8, 16))]}],
            "scales": [2.0], "branching": [1], "splits": [[[[0, 1]]]], "terminal_mesh": 7.0,
        }
        t = write(tmp, "t.json", tree)
        assert run_cli(["tree", "verify", "--space", sp, "--tree", t, "--mode", "sfdc"]) == 1
        dom = write(tmp, "d.json", {"kind": "cloud", "coords": [[i] for i in range(-3, 4)]})
        cod = write(tmp, "c.json", {"kind": "cloud", "coords": [[i] for i in range(4)]})
        m = write(tmp, "m.json", {"assign": [abs(i) for i in range(-3, 4)]})
        args = ["msp", "check", "--domain", dom, "--codomain", cod, "--map", m,
                "--big-r", "2", "--big-s", "0", "--c", "0.9", "--big-k", "1"]
        assert run_cli(args) == 1
    report = {"name": "disjointify", "seed": 1, "count": 1, "passed": 0,
              "failures": [{"instance": 0, "error": "tampered"}]}
    # the suite handler imports run_suite when it runs: patch it at its home
    with mock.patch("coarsekit.suites.run_suite", return_value=report):
        assert run_cli(["suite", "--name", "disjointify", "--seed", "1"]) == 1


# ------------------------------------------------------------------ tracer


def _certificate_raise_lines():
    """(file, line) of every ``raise CertificateError(...)`` in the package."""
    lines = set()
    for path in Path(coarsekit.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Raise)
                and isinstance(node.exc, ast.Call)
                and getattr(node.exc.func, "id", None) == "CertificateError"
            ):
                lines.add((str(path), node.lineno))
    return lines


def test_every_certificate_raise_is_executed():
    package = str(Path(coarsekit.__file__).parent)
    executed = set()

    def local(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(package) else None

    skip = {"test_every_certificate_raise_is_executed", "test_benchmark_checker_selftest_passes"}
    cases = [fn for name, fn in sorted(globals().items()) if name.startswith("test_") and name not in skip]
    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        for fn in cases:
            fn()
    finally:
        sys.settrace(previous)
    expected = _certificate_raise_lines()
    assert len(expected) <= 40
    missed = sorted(f"{Path(f).name}:{n}" for f, n in expected - executed)
    assert not missed, f"raise CertificateError lines never executed: {missed}"


def test_benchmark_checker_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
