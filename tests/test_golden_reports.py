"""Golden CLI reports: the stdout of fixed ``coarse-kit`` invocations, byte for byte.

Each case writes its JSON inputs into a temporary directory, runs ``cli.main``
there with relative paths (the report records the paths it was given), and
compares stdout with ``tests/golden/<case>.json``.  The cases cover the exact
searches: the partition search and its component relaxation (``map control``),
the image colouring of ``msp push``, the mass search (``msp family``), the
maximal feasible sets of the game LP (``msp check``), the greedy and
depth-first witness search with its refusal residue, proved and with the
search budget spent (``apc witness``), and the set-family kernels:
multiplicity (``cover dim``, open and closed),
Lebesgue number, disjointification (``cover disjointify``, ``apc
normalize``), R-disjointness with its witness (``tree verify``) and the
unfolded tree cover (``tree cover``).  Further cases pin the tree
constructions (``tree refine`` on a ``contains``-mode tree, ``tree convert``
with branching 3, ``tree push``, ``tree pull``) and the transfers along maps
(``quotient``, ``apc push``, ``apc pull``, ``msp pull``, ``map push``,
``map factor``, ``map profile``), and ``space`` and a small ``suite`` run
complete the set: every command has a case.

To record the files again after an intended report change, run this module
as a script: ``PYTHONPATH=src python tests/test_golden_reports.py``.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from coarsekit.cli import _COMMANDS, main

GOLDEN = Path(__file__).resolve().parent / "golden"


def _cloud(coords, norm="l2"):
    return {"kind": "cloud", "coords": [list(c) for c in coords], "norm": norm}


def _line(points):
    return _cloud([[x] for x in points])


def _fold(points):
    """x -> |x| from the given points onto their absolute values."""
    image = sorted({abs(x) for x in points})
    return {
        "dom.json": _line(points),
        "cod.json": _line(image),
        "map.json": {"assign": [image.index(abs(x)) for x in points]},
    }


_MAP = ["--domain", "dom.json", "--codomain", "cod.json", "--map", "map.json"]
_SQUARES = [-(k * k) for k in range(9, 0, -1)] + [k * k for k in range(10)]
_GRID = [(x, y) for x in range(5) for y in range(3)]
_GRID6 = [(x, y) for x in range(6) for y in range(6)]
# overlapping 3x3 and 4x3 blocks of the 6x6 grid (indices 6x + y)
_BLOCKS6 = [[6 * x + y for x in xs for y in ys]
            for xs in (range(0, 3), range(2, 6)) for ys in (range(0, 4), range(3, 6))]
# the 2x2 blocks of the 6x6 grid, a partition
_QUADS6 = [[6 * x + y for x in (i, i + 1) for y in (j, j + 1)]
           for i in range(0, 6, 2) for j in range(0, 6, 2)]
_LINEAR1 = '{"type": "linear", "a": 1.0}'
_TREE16 = {
    "levels": [{"sets": [list(range(16))]},
               {"sets": [list(range(0, 7)), list(range(9, 16)), [7, 8]]}],
    "branching": [2], "splits": [[[[0, 1], [2]]]], "terminal_mesh": 6.0, "union_mode": "equal",
}

# name -> (input files, argv, exit code)
CASES = {
    "map-control-fold7": (
        _fold(range(-7, 8)), ["map", "control", *_MAP, "--n", "2"], 0),
    "map-control-relaxed": (
        # the full preimage has 19 points, above the exact partition cap; with
        # n = 1 its value would be its diameter, exact at any size
        _fold(_SQUARES), ["map", "control", *_MAP, "--n", "2"], 0),
    "msp-push-coloring": (
        # x -> 3x mod 14 brings far witness sets close: their images need 3 colours
        {"dom.json": _line(range(14)), "cod.json": _line(range(14)),
         "map.json": {"assign": [3 * x % 14 for x in range(14)]}, "mu.json": {"weights": [1] * 14}},
        ["msp", "push", *_MAP, "--measure", "mu.json", "--n", "3",
         "--control", '{"type": "linear", "a": 0.5}', "--big-r", "2"], 0),
    "msp-family": (
        {"sp.json": _cloud(_GRID, "l1"), "mu.json": {"weights": [1 + (3 * i) % 7 for i in range(15)]}},
        ["msp", "family", "--space", "sp.json", "--measure", "mu.json",
         "--big-r", "2", "--big-s", "2"], 0),
    "msp-check": (
        _fold(range(-4, 5)),
        ["msp", "check", *_MAP, "--big-r", "2", "--big-s", "1", "--c", "0.3", "--big-k", "2"], 0),
    "apc-witness-found": (
        {"sp.json": _cloud(_GRID, "l1")},
        # the first-fit pass strands a point; the depth-first search finds a witness
        ["apc", "witness", "--space", "sp.json", "--scales", "2,2.5,3", "--mesh-cap", "1"], 0),
    "apc-witness-refused": (
        {"sp.json": _line(range(10))},
        ["apc", "witness", "--space", "sp.json", "--scales", "2", "--mesh-cap", "0"], 1),
    "apc-witness-budget": (
        # the depth-first search runs out of nodes before it can prove a refusal
        {"sp.json": _line(range(10))},
        ["apc", "witness", "--space", "sp.json", "--scales", "2,3", "--mesh-cap", "0",
         "--budget", "5"], 1),
    "cover-disjointify": (
        {"sp.json": _line(range(21)),
         "cov.json": {"sets": [list(range(0, 11)), list(range(5, 16)), list(range(10, 21))]}},
        ["cover", "disjointify", "--space", "sp.json", "--cover", "cov.json", "--scale", "2"], 0),
    "cover-dim": (
        {"sp.json": _cloud(_GRID6, "l1"), "cov.json": {"sets": _QUADS6}},
        ["cover", "dim", "--space", "sp.json", "--cover", "cov.json", "--scale", "2"], 0),
    "cover-dim-closed": (
        # points exactly 2 from a block join its closed expansion only
        {"sp.json": _cloud(_GRID6, "l1"), "cov.json": {"sets": _QUADS6}},
        ["cover", "dim", "--space", "sp.json", "--cover", "cov.json", "--scale", "2", "--closed"], 0),
    "cover-lebesgue": (
        {"sp.json": _cloud(_GRID6, "l1"), "cov.json": {"sets": _BLOCKS6}},
        ["cover", "lebesgue", "--space", "sp.json", "--cover", "cov.json"], 0),
    "tree-cover": (
        {"sp.json": _line(range(16)), "tree.json": {**_TREE16, "scales": [2.0]}},
        ["tree", "cover", "--space", "sp.json", "--tree", "tree.json", "--scale", "2"], 0),
    "tree-verify-not-disjoint": (
        # the two big sets are 3 apart, below the level scale 4: an is_r_disjoint witness
        {"sp.json": _line(range(16)), "tree.json": {**_TREE16, "scales": [4.0]}},
        ["tree", "verify", "--space", "sp.json", "--tree", "tree.json", "--mode", "casdim"], 1),
    "apc-normalize": (
        {"sp.json": _line(range(31)),
         "w.json": {"scales": [8.0], "dims": [1],
                    "families": [{"sets": [list(range(0, 16)), list(range(16, 31))]}]}},
        ["apc", "normalize", "--space", "sp.json", "--witness", "w.json", "--gaps", "2,4"], 0),
    "tree-refine-contains": (
        # overlapping children that reach past their parents; one refined
        # subfamily comes out empty and is dropped
        {"sp.json": _line(range(12)),
         "tree.json": {"levels": [{"sets": [list(range(12))]},
                                  {"sets": [list(range(0, 7)), list(range(5, 12))]},
                                  {"sets": [[0, 1, 2], [6, 7, 8], [3, 4, 5], [9, 10, 11]]}],
                       "scales": [3.0, 2.0], "branching": [2, 3],
                       "splits": [[[[0], [1]]], [[[0, 1], [2]], [[3], [1], [2]]]],
                       "terminal_mesh": 2.0, "union_mode": "contains"}},
        ["tree", "refine", "--space", "sp.json", "--tree", "tree.json"], 0),
    "tree-convert-branching3": (
        # int scales stay ints in the report
        {"sp.json": _line(range(21)),
         "tree.json": {"levels": [{"sets": [list(range(21))]},
                                  {"sets": [list(range(0, 7)), list(range(14, 21)),
                                            list(range(7, 11)), list(range(11, 14))]},
                                  {"sets": [[0, 1], [5, 6], [2, 3, 4], list(range(14, 21)),
                                            [7, 8], [9, 10], [11, 12, 13]]}],
                       "scales": [2, 1], "branching": [3, 2],
                       "splits": [[[[0, 1], [2], [3]]],
                                  [[[0, 1], [2]], [[3]], [[4], [5]], [[6]]]],
                       "terminal_mesh": 6.0, "union_mode": "equal"}},
        ["tree", "convert", "--space", "sp.json", "--tree", "tree.json"], 0),
    "tree-push": (
        {**_fold(range(-10, 11)),
         "tree.json": {"levels": [{"sets": [list(range(21))]},
                                  {"sets": [list(range(0, 5)), list(range(10, 15)),
                                            list(range(5, 10)), list(range(15, 21))]}],
                       "scales": [4.0], "branching": [2], "splits": [[[[0, 1], [2, 3]]]],
                       "terminal_mesh": 5.0, "union_mode": "equal"}},
        ["tree", "push", *_MAP, "--tree", "tree.json", "--n", "2",
         "--control", _LINEAR1, "--target-scales", "1"], 0),
    "tree-pull": (
        {**_fold(range(-15, 16)), "tree.json": {**_TREE16, "scales": [2.0]}},
        ["tree", "pull", *_MAP, "--tree", "tree.json", "--n", "2",
         "--control", _LINEAR1, "--target-scales", "2"], 0),
    "quotient": (
        # the reflection of two far-apart blocks
        {"sp.json": _line([0, 1, 2, 3, 40, 41, 42, 43]),
         "act.json": {"table": [[0, 1], [1, 0]], "perms": [list(range(8)), list(range(7, -1, -1))]}},
        ["quotient", "--space", "sp.json", "--action", "act.json"], 0),
    "apc-push": (
        # values -20..-11 with 11..20, and -10..10
        {**_fold(range(-20, 21)),
         "w.json": {"scales": [1.0],
                    "families": [{"sets": [list(range(0, 10)) + list(range(31, 41)),
                                           list(range(10, 31))]}]}},
        ["apc", "push", *_MAP, "--witness", "w.json", "--n", "2",
         "--control", _LINEAR1, "--target-scales", "0.5,0.5"], 0),
    "apc-pull": (
        {**_fold(range(-9, 10)),
         "w.json": {"scales": [1.0, 2.0],
                    "families": [{"sets": [[0, 1], [5, 6]]}, {"sets": [[2, 3, 4], [7, 8, 9]]}]}},
        ["apc", "pull", *_MAP, "--witness", "w.json", "--target-scales", "1,2", "--bound", "2"], 0),
    "msp-pull": (
        {**_fold(range(-9, 10)), "mu.json": {"weights": [1 + i % 3 for i in range(19)]}},
        ["msp", "pull", *_MAP, "--measure", "mu.json",
         "--big-r", "1", "--big-k", "9", "--big-s", "6"], 0),
    "space": (
        {"sp.json": _cloud(_GRID, "l1")},
        ["space", "--space", "sp.json"], 0),
    "map-profile": (
        _fold(range(-7, 8)),
        ["map", "profile", *_MAP, "--r", "2", "--big-r", "3"], 0),
    "map-push": (
        {**_fold(range(-10, 11)),
         "cov.json": {"sets": [list(range(0, 8)), list(range(6, 15)), list(range(13, 21))]}},
        ["map", "push", *_MAP, "--cover", "cov.json", "--r", "1", "--n", "2",
         "--control", _LINEAR1], 0),
    "map-factor": (
        _fold(range(-7, 8)),
        ["map", "factor", *_MAP, "--big-r", "2", "--n", "2"], 0),
    "suite": (
        {}, ["suite", "--name", "disjointify", "--seed", "7", "--count", "3"], 0),
}


def _run(directory, files, argv):
    for name, obj in files.items():
        (Path(directory) / name).write_text(json.dumps(obj))
    cwd = os.getcwd()
    out = io.StringIO()
    try:
        os.chdir(directory)
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(tmp_path, case):
    files, argv, want_code = CASES[case]
    code, stdout = _run(tmp_path, files, argv)
    assert code == want_code
    assert stdout == (GOLDEN / f"{case}.json").read_text(encoding="utf-8")


def test_every_command_has_a_golden_case():
    covered = {" ".join(argv[:2]) if " ".join(argv[:2]) in _COMMANDS else argv[0]
               for _, argv, _ in CASES.values()}
    assert {name for name, (handler, _, _) in _COMMANDS.items() if handler} <= covered


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case, (files, argv, want_code) in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as d:
            code, stdout = _run(d, files, argv)
        if code != want_code:
            sys.exit(f"{case}: exit {code}, expected {want_code}")
        (GOLDEN / f"{case}.json").write_text(stdout, encoding="utf-8")
        print(f"recorded {case}")
