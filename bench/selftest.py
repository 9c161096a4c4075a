"""Self-test of the benchmark's output checks: each accepts a real output of the
library and rejects a deliberately tampered copy of it.

Usage (from the repository root): python3 bench/selftest.py
Exits 0 when every checker behaves, 1 otherwise.
"""

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import coarsekit.cli  # noqa: E402
from coarsekit import coarse_maps, covers, dimension, generators, metric_core, msp, suites  # noqa: E402
from workloads import CLI_CHECKS, Cli, _grid_cover, _l1  # noqa: E402

FAILURES = []


def expect(name, fn, *, ok):
    try:
        fn()
        held = True
    except checks.CheckError:
        held = False
    if held != ok:
        FAILURES.append(f"{name}: expected {'accept' if ok else 'reject'}")
    print(f"{'ok  ' if held == ok else 'FAIL'} {name}: {'accepted' if held else 'rejected'}")


def disjointification():
    import random

    coords, sets = _grid_cover(10, 5, random.Random(0))
    dm = _l1(coords)
    sp = metric_core.build_space({"kind": "cloud", "coords": coords, "norm": "l1"})
    U = covers.FamilyOfSets(sp, tuple(frozenset(s) for s in sets))
    out, trace = covers.make_disjoint(U, 2.0)
    good = ([set(s) for s in out.sets], list(out.colors), out.n_colors, list(trace.margin_sets))

    def run(sets_out, colors, n_colors, tuples):
        return lambda: checks.check_disjointification(dm, sets, 2.0, sets_out, colors, n_colors, tuples)

    expect("disjointification/real", run(*good), ok=True)
    expect("disjointification/real, no tuples", run(*good[:3], None), ok=True)
    s, c, nc, t = copy.deepcopy(good)
    s[0] = set()
    expect("disjointification/drops points", run(s, c, nc, t), ok=False)
    s, c, nc, t = copy.deepcopy(good)
    expect("disjointification/too many colours", run(s, c, nc + 4, t), ok=False)
    s, c, nc, t = copy.deepcopy(good)
    k = next(i for i in range(1, len(s)) if c[i] != c[0])
    c[k] = c[0]  # merge two sets of different colours into one class
    expect("disjointification/recoloured set", run(s, c, nc, t), ok=False)
    s, c, nc, t = copy.deepcopy(good)
    far = int(np.argmax(dm[next(iter(s[0]))]))
    s[0].add(far)  # stretch a set across the grid
    expect("disjointification/stretched set", run(s, c, nc, t), ok=False)
    s, c, nc, t = copy.deepcopy(good)
    t[0] = tuple((x + 1) % len(sets) for x in t[0])  # wrong defining tuple
    expect("disjointification/wrong tuple", run(s, c, nc, t), ok=False)

    n = covers.dim_at_scale(out, 2.0)
    classes_ok = [covers.is_r_disjoint(cls, 2.0 / (n + 1))[0] for cls in out.color_classes()]
    leb = covers.lebesgue_number(out)

    def queries(dim, oks, value):
        return lambda: checks.check_cover_queries(dm, out.sets, 2.0, dim, oks, value)

    expect("cover queries/real", queries(n, classes_ok, leb), ok=True)
    expect("cover queries/dimension off by one", queries(n + 1, classes_ok, leb), ok=False)
    expect("cover queries/class rejected", queries(n, [False] + classes_ok[1:], leb), ok=False)
    expect("cover queries/lebesgue off by one step", queries(n, classes_ok, leb + 1.0), ok=False)


def gate_report():
    rep = suites.run_suite("disjointify", 7, 3)
    expect("suite/real", lambda: checks.check_suite_report(rep), ok=True)
    bad = dict(rep, failures=[{"instance": 0, "error": "x"}])
    expect("suite/failure listed", lambda: checks.check_suite_report(bad), ok=False)
    bad = dict(rep, passed=rep["count"] - 1)
    expect("suite/passed short of count", lambda: checks.check_suite_report(bad), ok=False)


def matrix():
    pts = [[0, 0], [3, 1], [5, 5], [1, 4]]
    dm = _l1(pts)
    sp = metric_core.build_space({"kind": "matrix", "matrix": dm.tolist()})
    expect("matrix/real", lambda: checks.check_matrix_space(sp.dmat, sp.labels, dm), ok=True)
    bad = sp.dmat.copy()
    bad[0, 1] = bad[1, 0] = 3.0
    expect("matrix/altered distance", lambda: checks.check_matrix_space(bad, sp.labels, dm), ok=False)

    coords = [[0, 0], [1, 0], [0, 1], [2, 3]]
    ref = np.linalg.norm(np.asarray(coords, float)[:, None] - np.asarray(coords, float)[None], axis=2)
    sp = metric_core.build_space({"kind": "cloud", "coords": coords, "norm": "l2"})
    expect("distances/real l2 cloud", lambda: checks.check_distances(sp.dmat, ref), ok=True)
    bad = sp.dmat.copy()
    bad[0, 3] = bad[3, 0] = bad[0, 3] + 0.5
    expect("distances/altered distance", lambda: checks.check_distances(bad, ref), ok=False)


def exact_mass():
    coords = [[0, 0], [1, 0], [2, 0], [0, 1], [2, 2], [3, 2], [0, 3], [1, 3], [3, 3], [2, 1]]
    w = [3.0, 1.0, 2.0, 5.0, 1.0, 4.0, 2.0, 2.0, 1.0, 3.0]
    dm = _l1(coords)
    sp = metric_core.build_space({"kind": "cloud", "coords": coords, "norm": "l1"})
    mf = msp.best_mass_family(sp, msp.ProbMeasure(sp, tuple(w)), 2.0, 2.0)
    opt = checks.max_mass_bruteforce(dm, w, 2.0, 2.0)
    sets = [set(s) for s in mf.family.sets]

    def run(sets_, mass):
        return lambda: checks.check_mass_family(dm, w, 2.0, 2.0, sets_, mass, optimum=opt)

    expect("mass/real", run(sets, mf.mass), ok=True)
    expect("mass/inflated", run(sets, mf.mass + 0.01), ok=False)
    total = float(np.sum(w))
    lighter = [s for s in sets if len(s) > 0]
    drop = min(lighter[0])
    lighter[0] = lighter[0] - {drop}
    expect("mass/not the maximum", run(lighter, mf.mass - w[drop] / total), ok=False)
    outside = min(set(range(len(coords))) - set().union(*sets))
    near = [s | {outside} if dm[outside, list(s)].min() < 2 else s for s in sets]
    expect("mass/not R-disjoint or too wide", run(near, mf.mass + w[outside] / total), ok=False)
    big = [set().union(*sets)]
    expect("mass/merged into one wide set", run(big, mf.mass), ok=False)

    f = coarse_maps.group_quotient(generators.reflection_action(12)).projection
    X = f.domain
    mu = msp.ProbMeasure(X, tuple(float(1 + x % 5) for x in range(X.n)))
    pull = msp.msp_pullback(f, mu, 3.0, K=f.codomain.diam(), S=X.diam())
    wn = np.asarray(mu.weights) / np.sum(mu.weights)
    sets = [set(s) for s in pull.family.sets]

    def floored(sets_, mass, floor):
        return lambda: checks.check_mass_family(X.dmat, mu.weights, 3.0, X.diam(), sets_, mass, floor=floor)

    expect("pullback/real, floor 0.25", floored(sets, pull.mass, 0.25), ok=True)
    light = {int(np.argmin(wn))}  # a valid family, but of one point: far below the floor
    light_mass = float(wn[list(light)].sum())
    expect("pullback/one light set, no floor", floored([light], light_mass, None), ok=True)
    expect("pullback/one light set, below the floor", floored([light], light_mass, 0.25), ok=False)


def game():
    f = generators.fold_map(5)
    dm = f.domain.dmat
    rep = msp.map_msp_check(f, range(f.codomain.n), 2.0, 1.0, 0.5, 5.0)
    expect("game/real", lambda: checks.check_game_values(dm, f.assign, 2.0, 1.0, rep["blocks"]), ok=True)
    bad = copy.deepcopy(rep["blocks"])
    bad[0]["value"] = 1.5
    expect("game/above 1", lambda: checks.check_game_values(dm, f.assign, 2.0, 1.0, bad), ok=False)
    bad[0]["value"] = 0.01
    expect("game/below 1/k", lambda: checks.check_game_values(dm, f.assign, 2.0, 1.0, bad), ok=False)
    easy = msp.map_msp_check(f, range(f.codomain.n), 1.0, 2.0, 0.5, 5.0)
    expect("game/whole preimage feasible", lambda: checks.check_game_values(dm, f.assign, 1.0, 2.0, easy["blocks"]),
           ok=True)
    bad = copy.deepcopy(easy["blocks"])
    bad[0]["value"] = 0.5
    expect("game/feasible but below 1", lambda: checks.check_game_values(dm, f.assign, 1.0, 2.0, bad), ok=False)


def dimension_outputs():
    coords = [[i % 4, i // 4] for i in range(16)]
    dm = _l1(coords)
    sp = metric_core.build_space({"kind": "cloud", "coords": coords, "norm": "l1"})
    res = dimension.asdim_at_scale(sp, 3.0, 3.0)
    sets = [set(s) for s in res.cover.sets]
    expect("asdim/real", lambda: checks.check_partition_cover(dm, sets, 3.0, 3.0, res.dim), ok=True)
    expect("asdim/wrong dimension", lambda: checks.check_partition_cover(dm, sets, 3.0, 3.0, res.dim - 1), ok=False)
    expect("asdim/missing set", lambda: checks.check_partition_cover(dm, sets[1:], 3.0, 3.0, res.dim), ok=False)
    w = dimension.apc_witness(sp, [1.0, 3.0], 2.0)
    fams = [[set(s) for s in F.sets] for F in w.families]
    expect("apc/real", lambda: checks.check_apc(dm, w.scales, fams, 2.0), ok=True)
    merged = copy.deepcopy(fams)
    merged[0] = [set().union(*merged[0])]
    expect("apc/set over the cap", lambda: checks.check_apc(dm, w.scales, merged, 2.0), ok=False)
    dropped = [fam[1:] if fam else fam for fam in fams]
    expect("apc/set dropped", lambda: checks.check_apc(dm, w.scales, dropped, 2.0), ok=False)


def cli_reports():
    good = json.dumps({"status": "ok", "result": {"n": 3}}).encode()
    expect("cli/real", lambda: checks.parse_cli_report(0, good), ok=True)
    expect("cli/exit 1", lambda: checks.parse_cli_report(1, good), ok=False)
    expect("cli/not JSON", lambda: checks.parse_cli_report(0, b"Traceback ..."), ok=False)
    bad = json.dumps({"status": "violation", "result": {}}).encode()
    expect("cli/violation status", lambda: checks.parse_cli_report(0, bad), ok=False)
    expect("cli/same bytes", lambda: checks.check_identical(good, good, "x"), ok=True)
    expect("cli/different bytes", lambda: checks.check_identical(good, good + b" ", "x"), ok=False)


def cli_results():
    """Each CLI result checker on the real result of its command and on tampered copies."""
    wl = Cli()
    inp = wl.prepare(0)
    try:
        inp.update(wl.references(inp))
        results = {}
        for kind, argv in wl.commands():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = coarsekit.cli.main(argv)
            results[kind] = checks.parse_cli_report(code, buf.getvalue())
    finally:
        wl.finish(inp)

    def tampered(kind, edit):
        res = copy.deepcopy(results[kind])
        edit(res)
        return lambda: CLI_CHECKS[kind](inp, res)

    for kind in results:
        expect(f"{kind}/real", tampered(kind, lambda r: None), ok=True)

    def stretch_control(r):
        bp = r["control"]["breakpoints"]
        bp[-1] = [bp[-1][0], bp[-1][1] + 1.0]

    def drop_set(r):
        fam = r["family"]
        fam["sets"], fam["colors"] = fam["sets"][1:], fam["colors"][1:]

    cases = [
        ("cli.space", "diameter off by one", lambda r: r.update(diam=r["diam"] + 1)),
        ("cli.space", "labels changed", lambda r: r["labels"].reverse()),
        ("cli.cover-disjointify", "n off by one", lambda r: r.update(n=r["n"] + 1)),
        ("cli.cover-disjointify", "set dropped", drop_set),
        ("cli.cover-disjointify", "output mesh off by one", lambda r: r.update(output_mesh=r["output_mesh"] + 1)),
        ("cli.map-control", "C(r) != r at the last breakpoint", stretch_control),
        ("cli.map-control", "relaxed at a scale", lambda r: r.update(relaxed_at=[1.0])),
        ("cli.msp-family", "mass inflated", lambda r: r["mass_family"].update(mass=r["mass_family"]["mass"] + 0.01)),
        ("cli.msp-family", "family emptied",
         lambda r: r["mass_family"].update(mass=0.0) or r["mass_family"]["family"].update(sets=[])),
        ("cli.suite", "passed short of count", lambda r: r.update(passed=r["passed"] - 1)),
    ]
    for kind, what, edit in cases:
        expect(f"{kind}/{what}", tampered(kind, edit), ok=False)


def main():
    for part in (disjointification, gate_report, matrix, exact_mass, game, dimension_outputs, cli_reports,
                 cli_results):
        part()
    if FAILURES:
        print(f"{len(FAILURES)} checker(s) misbehaved: {FAILURES}")
        return 1
    print("all checkers accept real outputs and reject tampered ones")
    return 0


if __name__ == "__main__":
    sys.exit(main())
