"""Golden CLI reports: the stdout of fixed ``coarse-kit`` invocations, byte for byte.

Each case writes its JSON inputs into a temporary directory, runs ``cli.main``
there with relative paths (the report records the paths it was given), and
compares stdout with ``tests/golden/<case>.json``.  The cases cover the exact
searches: the partition search and its component relaxation (``map control``),
the image colouring of ``msp push``, the mass search (``msp family``), the
maximal feasible sets of the game LP (``msp check``), the greedy and
depth-first witness search with its refusal residue (``apc witness``), and
the set-family kernels: multiplicity (``cover dim``, open and closed),
Lebesgue number, disjointification (``cover disjointify``, ``apc
normalize``), R-disjointness with its witness (``tree verify``) and the
unfolded tree cover (``tree cover``).

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

from coarsekit.cli import main

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
        # the full preimage has 19 points, above the exact partition cap
        _fold(_SQUARES), ["map", "control", *_MAP, "--n", "1"], 0),
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


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case, (files, argv, want_code) in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as d:
            code, stdout = _run(d, files, argv)
        if code != want_code:
            sys.exit(f"{case}: exit {code}, expected {want_code}")
        (GOLDEN / f"{case}.json").write_text(stdout, encoding="utf-8")
        print(f"recorded {case}")
