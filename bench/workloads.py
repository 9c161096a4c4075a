"""The four workloads: inputs made from a seed, rounds of operations, checks.

A workload prepares its inputs (timed as set-up), computes its reference
values apart from the library (untimed), and lists the operations of one
round.  Every round runs the same operations on the same inputs, so the share
of failed operations is the same in every run.  Library functions are always
reached through their module (``covers.make_disjoint``), so the spans that
``spans.Tracer`` installs see the benchmark's own calls too.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import checks
from coarsekit import coarse_maps, covers, dimension, generators, metric_core, msp, suites

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Optional[Callable[[object], None]] = None


class Workload:
    """prepare (timed as set-up) -> ops per round -> references (untimed, after
    the first round's operations) -> checks -> finish."""

    name = ""
    # "<op kind>: <exception>" of the kept faults: the only failures a correct run may have
    kept_faults: frozenset = frozenset()
    # peak memory is that of the workload's children, not of the benchmark process
    rss_of_children = False

    def prepare(self, seed):
        raise NotImplementedError

    def references(self, inputs) -> dict:
        """Reference values computed apart from the library, outside any timing;
        they are added to ``inputs``, so ops must read them only in their checks."""
        return {}

    def ops(self, inputs, traced=False) -> list[Op]:
        raise NotImplementedError

    def phases(self, med) -> dict:
        """The workload's own phase times, {name: (value, unit)}, from
        ``med`` = {op kind: [median time of each op of that kind]}."""
        raise NotImplementedError

    def finish(self, inputs):
        """Remove what prepare left behind."""


def _l1(coords) -> np.ndarray:
    P = np.asarray(coords, dtype=float)
    return np.abs(P[:, None, :] - P[None, :, :]).sum(axis=2)


def _distinct_points(rng: random.Random, count: int, width: int, height: int) -> list[list[int]]:
    cells = rng.sample(range(width * height), count)
    return [[c // height, c % height] for c in cells]


def _grid_cover(side: int, block: int, rng: random.Random):
    """Points of a side x side grid in seeded order, and the square blocks of the
    grid grown by one l1 step (every point at distance <= 1 joins), in seeded order."""
    cells = [(i, j) for i in range(side) for j in range(side)]
    rng.shuffle(cells)
    index = {c: k for k, c in enumerate(cells)}
    sets = []
    for bi in range(0, side, block):
        for bj in range(0, side, block):
            grown = set()
            for i in range(bi, min(side, bi + block)):
                for j in range(bj, min(side, bj + block)):
                    for di, dj in ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)):
                        if (i + di, j + dj) in index:
                            grown.add(index[(i + di, j + dj)])
            sets.append(sorted(grown))
    rng.shuffle(sets)
    return [list(c) for c in cells], sets


# Three fixed 13-point l1 shapes, each R-connected and wider than S, so no
# weighting reaches mass 1.  The exact search's work depends on the shape and
# the point order, not on the weights; fixing both keeps it the same on every
# seed, while the seeded weights move the optimum.
MASS_SHAPES = [
    [[i, j] for i in range(4) for j in range(3)] + [[4, 1]],
    [[i, j] for i in range(6) for j in range(2)] + [[6, 0]],
    [[i, j] for i in range(5) for j in range(3) if (i, j) not in {(0, 0), (4, 2)}],
]


def _mass_weights(rng: random.Random, n: int):
    return [float(rng.randint(1, 8)) for _ in range(n)]


def _relabeled_fold(rng: random.Random, n: int):
    """x -> |x| on {-n..n} -> {0..n}, with both point orders shuffled."""
    dom = list(range(-n, n + 1))
    cod = list(range(n + 1))
    rng.shuffle(dom)
    rng.shuffle(cod)
    pos = {y: k for k, y in enumerate(cod)}
    assign = [pos[abs(x)] for x in dom]
    return [[x] for x in dom], [[y] for y in cod], assign


# ===================================================================== gate
# The acceptance suites at the seeds of criteria 1-9, the counted ones at a
# tenth of the criteria's counts (200, 100, 500, 200, 50, 40), so that a round
# is short and each suite runs many times in one run.
GATE = [
    ("disjointify", 7, 20, {}),
    ("fibers", 11, 10, {}),
    ("pushforward-dim", 13, 50, {}),
    ("quotient-sandwich", 3, None, {}),
    ("asdim-sandwich", 3, None, {"max_points": 16}),
    ("trees-equivalence", 17, 20, {}),
    ("tree-transfer", 19, None, {}),
    ("msp-pipelines", 1, 5, {}),
    ("oracle-agreement", 23, 4, {}),
]
GATE_REPORTED = ["disjointify", "pushforward-dim", "fibers", "trees-equivalence", "oracle-agreement"]


class Gate(Workload):
    name = "gate"

    def prepare(self, seed):
        # The gate's inputs are the acceptance criteria's own seeded fixtures;
        # the suites generate them, so --seed does not change them.
        return {"suites": list(GATE)}

    def ops(self, inputs, traced=False):
        return [
            Op(f"suite.{name}",
               lambda name=name, s=s, c=c, kw=kw: suites.run_suite(name, s, c, **kw),
               checks.check_suite_report)
            for name, s, c, kw in inputs["suites"]
        ]

    def phases(self, med):
        out = {f"suite.{n}_s": (med[f"suite.{n}"][0], "s") for n in GATE_REPORTED}
        rest = [n for n, *_ in GATE if n not in GATE_REPORTED]
        out["suite.rest_s"] = (sum(med[f"suite.{n}"][0] for n in rest), "s")
        return out


# ============================================================= large-covers
COVER_R = 2.0
MATRIX_POINTS = 500
GRID_SIDES = (20, 25)
GRIDS = [f"grid{side * side}" for side in GRID_SIDES]
L2_CLOUD_SEEDS = (0, 1)  # fixed: these builds hit a kept fault whatever --seed is


class LargeCovers(Workload):
    name = "large-covers"
    kept_faults = frozenset({"l2-cloud.build: MetricError"})

    def prepare(self, seed):
        rng = random.Random(seed)
        pts = _distinct_points(rng, MATRIX_POINTS, 300, 300)
        inp = {"matrix_pts": pts, "matrix": {"kind": "matrix", "matrix": _l1(pts).tolist()}}
        for side in GRID_SIDES:
            coords, sets = _grid_cover(side, 5, rng)
            inp[f"grid{side * side}"] = ({"kind": "cloud", "coords": coords, "norm": "l1"}, sets)
        inp["l2"] = []
        for s in L2_CLOUD_SEEDS:
            coords = _distinct_points(random.Random(s), 300, 101, 101)
            inp["l2"].append({"kind": "cloud", "coords": coords, "norm": "l2"})
        return inp

    def references(self, inp):
        ref = {"matrix": _l1(inp["matrix_pts"])}
        for key in GRIDS:
            ref[key] = _l1(inp[key][0]["coords"])
        ref["l2"] = [
            np.linalg.norm(np.asarray(d["coords"], float)[:, None] - np.asarray(d["coords"], float)[None], axis=2)
            for d in inp["l2"]
        ]
        return {"ref": ref}

    def ops(self, inp, traced=False):
        last = {}

        def build_matrix():
            return metric_core.build_space(inp["matrix"])

        def check_matrix(sp):
            checks.check_matrix_space(sp.dmat, sp.labels, inp["ref"]["matrix"])

        def certify(key):
            desc, sets = inp[key]
            sp = metric_core.build_space(desc)
            U = covers.FamilyOfSets(sp, tuple(frozenset(s) for s in sets))
            n = covers.dim_at_scale(U, COVER_R)
            out, trace = covers.make_disjoint(U, COVER_R, n)
            last[key] = (out, n)
            return out, trace

        def check_certified(key, res):
            out, trace = res
            checks.check_disjointification(
                inp["ref"][key], inp[key][1], COVER_R, out.sets, out.colors, out.n_colors,
                tuples=list(trace.margin_sets))

        def post(key):
            out, n = last.pop(key)
            dim = covers.dim_at_scale(out, COVER_R)
            classes_ok = [covers.is_r_disjoint(c, COVER_R / (n + 1))[0] for c in out.color_classes()]
            return out, dim, classes_ok, covers.lebesgue_number(out)

        def check_post(key, res):
            out, dim, classes_ok, leb = res
            checks.check_cover_queries(inp["ref"][key], out.sets, COVER_R, dim, classes_ok, leb)

        ops = [Op(f"space.n{MATRIX_POINTS}", build_matrix, check_matrix)]
        for key in GRIDS:
            tag = key[4:]
            ops.append(Op(f"cover.n{tag}", lambda k=key: certify(k), lambda r, k=key: check_certified(k, r)))
            ops.append(Op(f"cover.n{tag}.post", lambda k=key: post(k), lambda r, k=key: check_post(k, r)))
        for i, desc in enumerate(inp["l2"]):
            ops.append(Op("l2-cloud.build", lambda d=desc: metric_core.build_space(d),
                          lambda sp, i=i: checks.check_distances(sp.dmat, inp["ref"]["l2"][i])))
        return ops

    def phases(self, med):
        out = {f"cover.n{key[4:]}_s": (med[f"cover.n{key[4:]}"][0], "s") for key in GRIDS}
        out[f"space.n{MATRIX_POINTS}_s"] = (med[f"space.n{MATRIX_POINTS}"][0], "s")
        return out


# ============================================================== mass-search
MASS_R, MASS_S = 2.0, 2.0
GAMES = [(2.0, 1.0, 4.0), (3.0, 2.0, 4.0)]  # (R, S, K) on the 8-fold map: 9-10-point preimages
# (R_X, S) per quotient fixture.  The symmetrised metrics have even distances
# from 2 up.  At R_X = 3 with S = diam(X) the fiber search does real work; at
# R_X = 1 the S bound lies below the domain diameter.  S below the diameter at
# R_X >= 2 hits the kept msp_pullback fault on every seed, so it is left to
# the fixed path8 instance.
PULLS = [(3.0, 1.0), (1.0, 0.5)]  # (R_X, S as a share of diam(X))


class MassSearch(Workload):
    name = "mass-search"
    kept_faults = frozenset({"mass.pullback.path8: CertificateError"})

    def prepare(self, seed):
        rng = random.Random(seed)
        inp = {"clouds": []}
        for coords in MASS_SHAPES:
            weights = _mass_weights(rng, len(coords))
            sp = metric_core.build_space({"kind": "cloud", "coords": coords, "norm": "l1"})
            inp["clouds"].append((sp, msp.ProbMeasure(sp, tuple(weights)), coords, weights))
        dom, cod, assign = _relabeled_fold(rng, 8)
        X = metric_core.build_space({"kind": "cloud", "coords": dom, "norm": "l1"})
        Y = metric_core.build_space({"kind": "cloud", "coords": cod, "norm": "l1"})
        inp["fold"] = (coarse_maps.CoarseMap(X, Y, tuple(assign)), dom)
        actions = [generators.reflection_action(12), generators.rotation_action(12, 2),
                   generators.grid_rotation_action(4, 4), generators.rotation_action(8, 4)]
        inp["pulls"] = []
        for act in actions:
            f = coarse_maps.group_quotient(act).projection
            X = f.domain
            mu = msp.ProbMeasure(X, tuple(float(rng.randint(1, 5)) for _ in range(X.n)))
            for RX, share in PULLS:
                inp["pulls"].append((f, mu, RX, f.codomain.diam(), share * X.diam()))
        # Kept fault: msp_pullback rejects its own valid fiber families here.
        P = generators.path_space(8)
        inp["fault"] = (coarse_maps.CoarseMap(P, P, tuple(range(8))),
                        msp.ProbMeasure(P, tuple([1.0 / 8] * 8)))
        return inp

    def references(self, inp):
        return {
            "optimum": [checks.max_mass_bruteforce(_l1(coords), weights, MASS_R, MASS_S)
                        for _, _, coords, weights in inp["clouds"]],
            "cloud_dmat": [_l1(coords) for _, _, coords, _ in inp["clouds"]],
            "fold_dmat": _l1(inp["fold"][1]),
        }

    def ops(self, inp, traced=False):
        ops = []
        for i, (sp, mu, _, weights) in enumerate(inp["clouds"]):
            def check(mf, i=i, weights=weights):
                if not mf.exact:
                    raise checks.CheckError("13-point search did not run exactly")
                checks.check_mass_family(inp["cloud_dmat"][i], weights, MASS_R, MASS_S,
                                         mf.family.sets, mf.mass, optimum=inp["optimum"][i])
            ops.append(Op("mass.n13", lambda sp=sp, mu=mu: msp.best_mass_family(sp, mu, MASS_R, MASS_S), check))
        f, _ = inp["fold"]
        for R, S, K in GAMES:
            def check_game(rep, R=R, S=S):
                if not rep["exact"]:
                    raise checks.CheckError("game was not solved exactly")
                checks.check_game_values(inp["fold_dmat"], f.assign, R, S, rep["blocks"])
            ops.append(Op("mass.game", lambda R=R, S=S, K=K: msp.map_msp_check(
                f, range(f.codomain.n), R, S, 0.5, K), check_game))
        for g, mu, RX, K, S in inp["pulls"]:
            def check_pull(mf, g=g, mu=mu, RX=RX, S=S):
                checks.check_mass_family(g.domain.dmat, mu.weights, RX, S,
                                         mf.family.sets, mf.mass, floor=0.25)
            ops.append(Op("mass.pullback", lambda g=g, mu=mu, RX=RX, K=K, S=S: msp.msp_pullback(
                g, mu, RX, K=K, S=S), check_pull))
        g, mu = inp["fault"]
        ops.append(Op("mass.pullback.path8", lambda: msp.msp_pullback(g, mu, 2.0, K=7.0, S=1.0),
                      lambda mf: checks.check_mass_family(g.domain.dmat, mu.weights, 2.0, 1.0,
                                                          mf.family.sets, mf.mass, floor=0.25)))
        for i in (0, 1):
            sp = inp["clouds"][i][0]
            def check_dim(res, i=i):
                if not res.exact:
                    raise checks.CheckError("13-point dimension search was not exact")
                checks.check_partition_cover(inp["cloud_dmat"][i], res.cover.sets, 3.0, 3.0, res.dim)
            def check_apc(w, i=i):
                checks.check_apc(inp["cloud_dmat"][i], w.scales, [F.sets for F in w.families], 2.0)
            ops.append(Op("dim.asdim13", lambda sp=sp: dimension.asdim_at_scale(sp, 3.0, 3.0), check_dim))
            ops.append(Op("dim.apc13", lambda sp=sp: dimension.apc_witness(sp, [1.0, 3.0], 2.0), check_apc))
        return ops

    def phases(self, med):
        return {
            "mass.n13_s": (float(np.median(med["mass.n13"])), "s"),
            "mass.pullback_s": (sum(med["mass.pullback"] + med["mass.pullback.path8"]), "s"),
        }


# ====================================================================== cli
class Cli(Workload):
    name = "cli"
    rss_of_children = True

    def __init__(self):
        self.dir = OUT_DIR / f"cli-inputs-{os.getpid()}"
        self.spans_dir = OUT_DIR / f"cli-spans-{os.getpid()}"
        self.first_stdout = {}  # shared by plain and traced rounds: spans must not change a byte
        self.child_totals = []

    def _write(self, name, obj):
        (self.dir / name).write_text(json.dumps(obj))

    def prepare(self, seed):
        rng = random.Random(seed)
        self.dir.mkdir(parents=True, exist_ok=True)
        pts = _distinct_points(rng, 300, 60, 60)
        self._write("space300.json", {"kind": "matrix", "labels": list(range(300)),
                                      "matrix": _l1(pts).tolist()})
        coords, sets = _grid_cover(20, 5, rng)
        self._write("grid400.json", {"kind": "cloud", "coords": coords, "norm": "l1"})
        self._write("cover400.json", {"sets": sets})
        dom, cod, assign = _relabeled_fold(rng, 7)
        self._write("fold_x.json", {"kind": "cloud", "coords": dom, "norm": "l1"})
        self._write("fold_y.json", {"kind": "cloud", "coords": cod, "norm": "l1"})
        self._write("fold_f.json", {"assign": assign})
        mcoords = _distinct_points(rng, 10, 5, 4)
        weights = [rng.randint(1, 8) for _ in mcoords]
        self._write("cloud10.json", {"kind": "cloud", "coords": mcoords, "norm": "l1"})
        self._write("mu10.json", {"weights": weights})
        return {"space": _l1(pts), "grid": (_l1(coords), sets), "fold": (dom, cod),
                "cloud10": (_l1(mcoords), weights)}

    def references(self, inp):
        dm, w = inp["cloud10"]
        return {"optimum10": checks.max_mass_bruteforce(dm, w, 2.0, 2.0)}

    def commands(self):
        d = self.dir
        return [
            ("cli.space", ["space", "--space", str(d / "space300.json")]),
            ("cli.cover-disjointify", ["cover", "disjointify", "--space", str(d / "grid400.json"),
                                       "--cover", str(d / "cover400.json"), "--scale", "2"]),
            ("cli.map-control", ["map", "control", "--domain", str(d / "fold_x.json"),
                                 "--codomain", str(d / "fold_y.json"), "--map", str(d / "fold_f.json"),
                                 "--n", "2"]),
            ("cli.msp-family", ["msp", "family", "--space", str(d / "cloud10.json"),
                                "--measure", str(d / "mu10.json"), "--big-r", "2", "--big-s", "2"]),
            ("cli.suite", ["suite", "--name", "disjointify", "--seed", "7", "--count", "10"]),
        ]

    def ops(self, inp, traced=False):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        first = self.first_stdout
        if traced:
            self.spans_dir.mkdir(parents=True, exist_ok=True)

        def invoke(argv):
            if traced:
                out = self.spans_dir / str(len(self.child_totals))
                self.child_totals.append(out)
                cmd = [sys.executable, str(BENCH_DIR / "cli_child.py"), str(out)] + argv
            else:
                cmd = [sys.executable, "-m", "coarsekit.cli"] + argv
            p = subprocess.run(cmd, capture_output=True, env=env, cwd=ROOT, timeout=120)
            return p.returncode, p.stdout

        def check(kind, res):
            rc, stdout = res
            result = checks.parse_cli_report(rc, stdout)
            if kind in first:
                checks.check_identical(first[kind], stdout, kind)
            else:
                first[kind] = stdout
            CLI_CHECKS[kind](inp, result)

        return [Op(kind, lambda a=argv: invoke(a), lambda r, k=kind: check(k, r))
                for kind, argv in self.commands()]

    def phases(self, med):
        lat = [t for ts in med.values() for t in ts]
        return {"cli.p50_ms": (1000.0 * float(np.median(lat)), "ms")}

    def finish(self, inp):
        shutil.rmtree(self.dir, ignore_errors=True)


def _check_cli_space(inp, res):
    dm = inp["space"]
    if res["n"] != dm.shape[0] or res["diam"] != float(dm.max()):
        raise checks.CheckError(f"space reports n={res['n']} diam={res['diam']}")
    if res["labels"] != [str(i) for i in range(dm.shape[0])]:
        raise checks.CheckError("space labels changed")


def _check_cli_disjointify(inp, res):
    dm, sets = inp["grid"]
    fam = res["family"]
    n = checks.multiplicity_dim(dm, sets, 2.0)
    if res["n"] != n:
        raise checks.CheckError(f"reported n={res['n']}, multiplicity gives {n}")
    checks.check_disjointification(dm, sets, 2.0, fam["sets"], fam["colors"], fam["n_colors"])
    if res["output_mesh"] != max(checks.set_diameter(dm, s) for s in fam["sets"]):
        raise checks.CheckError("reported output mesh is wrong")


def _check_cli_control(inp, res):
    # For x -> |x| every maximal r-bounded block's preimage splits into two
    # parts of diameter r and no less, so the least 2-to-1 control is C(r) = r.
    dom, cod = inp["fold"]
    if res["relaxed_at"]:
        raise checks.CheckError(f"control relaxed at {res['relaxed_at']}")
    for r, v in res["control"]["breakpoints"]:
        if v != r:
            raise checks.CheckError(f"control C({r}) = {v}, want {r}")
    if [bp[0] for bp in res["control"]["breakpoints"]] != [float(r) for r in range(len(cod))]:
        raise checks.CheckError("control breakpoints are not the codomain's distances")


def _check_cli_mass(inp, res):
    dm, w = inp["cloud10"]
    mf = res["mass_family"]
    checks.check_mass_family(dm, w, 2.0, 2.0, mf["family"]["sets"], mf["mass"], optimum=inp["optimum10"])


def _check_cli_suite(inp, res):
    checks.check_suite_report(res)


CLI_CHECKS = {
    "cli.space": _check_cli_space,
    "cli.cover-disjointify": _check_cli_disjointify,
    "cli.map-control": _check_cli_control,
    "cli.msp-family": _check_cli_mass,
    "cli.suite": _check_cli_suite,
}


WORKLOADS = {w.name: w for w in (Gate, LargeCovers, MassSearch, Cli)}
