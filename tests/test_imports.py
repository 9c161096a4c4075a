"""Every name a library module imports is used in that module, every
private module-level function or class is used somewhere in the package,
every exported name is read by the package or named by the benchmark,
point-set bitmasks are built and walked only in ``metric_core``, report values
are encoded only in ``serialization``, the distance
to a complement is read from the distance table only in
``metric_core._dist_outside``, a family is restricted to its carrier and
disjointified only in ``covers.split_on_carrier``, the preimages of the
maximal r-bounded sets are taken only in ``coarse_maps._fiber_blocks``, no
square block of the distance table is read with ``np.ix_(idx, idx)``
(``metric_core._block`` is the one square gather), numbers are checked for NaN,
finiteness and type only in ``errors`` (``check_number``, ``is_int``), and
each process loads only what it runs: ``import coarsekit`` no submodule, the
CLI neither networkx nor scipy nor the modules no command shares, a suite
and the fixture spaces no scipy, and the lazy re-exports are the modules'
own objects under the names the eager package exported.

For imports, ``__init__.py`` is skipped: its imports are the package's
re-exports.  A name counts as used when it is read anywhere in the module,
listed in ``__all__``, or mentioned in a string annotation.  A private
definition counts as used when a top-level statement other than itself, in
any module of the package, reads it.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import coarsekit

SRC = Path(coarsekit.__file__).parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree):
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for a in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if a is not None and a.annotation is not None:
                    yield a.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _all_names(tree):
    """The ``__all__`` statement of a module and its names; (None, []) without one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return node, ast.literal_eval(node.value)
    return None, []


def _used(tree):
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        for n in ast.walk(ann):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                used |= {m.id for m in ast.walk(ast.parse(n.value, mode="eval"))
                         if isinstance(m, ast.Name)}
    return used | set(_all_names(tree)[1])


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    unused = sorted(f"{name} (line {line})" for name, line in _imported(tree).items()
                    if name not in used)
    assert not unused, f"{path.name} imports unused names: {', '.join(unused)}"


def _reads(node):
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def test_no_unused_private_definitions():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    reads = [(node, set(_reads(node))) for tree in trees.values() for node in tree.body]
    unused = []
    for name, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")
                    and not any(node.name in names for other, names in reads if other is not node)):
                unused.append(f"{name}:{node.lineno} {node.name}")
    assert not unused, f"private definitions nothing reads: {', '.join(unused)}"


BENCH = SRC.parent.parent / "bench"


def test_every_export_has_a_caller():
    # the public sibling of the scan above: an exported name is read by a
    # top-level statement of the package other than its own definition and
    # ``__all__`` (``__init__.py``, the re-exports, does not count), or named
    # in the benchmark, whose span table wraps library entries by name
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in MODULES}
    reads = [(node, set(_reads(node))) for tree in trees.values() for node in tree.body]
    bench = "\n".join(p.read_text(encoding="utf-8") for p in sorted(BENCH.glob("*.py")))
    unread, exported = [], 0
    for name, tree in trees.items():
        exports, names = _all_names(tree)
        exported += len(names)
        for export in names:
            if not (any(export in got for node, got in reads
                        if node is not exports and getattr(node, "name", None) != export)
                    or re.search(rf"\b{re.escape(export)}\b", bench)):
                unread.append(f"{name} {export}")
    assert exported, "the scan no longer sees any __all__"
    assert not unread, f"exports nothing in the package or the benchmark reads: {', '.join(unread)}"


def _mask_idioms(tree):
    """Lines that build a mask with ``sum(1 << ...)`` or walk one with ``x & -x``."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "sum" and node.args
                and isinstance(node.args[0], (ast.GeneratorExp, ast.ListComp))
                and isinstance(node.args[0].elt, ast.BinOp)
                and isinstance(node.args[0].elt.op, ast.LShift)):
            yield node.lineno
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd) and any(
            isinstance(neg, ast.UnaryOp) and isinstance(neg.op, ast.USub)
            and ast.dump(neg.operand) == ast.dump(x)
            for x, neg in ((node.left, node.right), (node.right, node.left))
        ):
            yield node.lineno


def test_point_masks_built_only_in_metric_core():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in MODULES}
    home = trees.pop("metric_core.py")
    found = [f"{name}:{line}" for name, tree in trees.items() for line in _mask_idioms(tree)]
    assert not found, f"use metric_core.point_masks and bits instead: {', '.join(found)}"
    assert list(_mask_idioms(home)), "the scan no longer sees the walk in metric_core.bits"


def _complement_reads(tree):
    """Functions that subscript ``.dmat`` (or a subscript of it) with an
    inverted (``~``) mask."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for sub in ast.walk(node):
                if not isinstance(sub, ast.Subscript):
                    continue
                table = sub.value
                while isinstance(table, ast.Subscript):
                    table = table.value
                if (isinstance(table, ast.Attribute) and table.attr == "dmat"
                        and any(isinstance(u, ast.UnaryOp) and isinstance(u.op, ast.Invert)
                                for u in ast.walk(sub.slice))):
                    yield f"{node.name} (line {sub.lineno})"
                    break


def test_complement_distance_only_in_metric_core():
    found = [f"{p.name}:{fn}" for p in MODULES
             for fn in _complement_reads(ast.parse(p.read_text(encoding="utf-8")))]
    # exactly one: no other function reads it, and the scan still sees the kernel
    assert [fn.split()[0] for fn in found] == ["metric_core.py:_dist_outside"], (
        f"read complement distances through metric_core._dist_outside; found {found}")


def _functions_calling(tree, names):
    """Functions that call every one of ``names``, by bare name or attribute."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            called = {getattr(c.func, "id", getattr(c.func, "attr", None))
                      for c in ast.walk(node) if isinstance(c, ast.Call)}
            if set(names) <= called:
                yield f"{node.name} (line {node.lineno})"


def test_carrier_split_only_in_covers():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in MODULES}
    home = trees.pop("covers.py")
    pair = ("on_carrier", "make_disjoint")
    found = [f"{name}:{fn}" for name, tree in trees.items()
             for fn in _functions_calling(tree, pair)]
    assert not found, f"use covers.split_on_carrier instead: {', '.join(found)}"
    assert [fn.split()[0] for fn in _functions_calling(home, pair)] == ["split_on_carrier"], (
        "the scan no longer sees the pair in covers.split_on_carrier")


def test_fiber_walk_only_in_coarse_maps():
    pair = ("maximal_r_bounded_sets", "preimage")
    found = [f"{p.name}:{fn}" for p in MODULES
             for fn in _functions_calling(ast.parse(p.read_text(encoding="utf-8")), pair)]
    # exactly one: no other function walks the fiber blocks, and the scan still sees the walk
    assert [fn.split()[0] for fn in found] == ["coarse_maps.py:_fiber_blocks"], (
        f"walk the fiber blocks through coarse_maps._fiber_blocks; found {found}")


def _square_ix_reads(tree):
    """Lines that call ``ix_`` with two equal arguments."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "ix_"
                and len(node.args) == 2 and ast.dump(node.args[0]) == ast.dump(node.args[1])):
            yield node.lineno


def test_square_blocks_read_only_through_the_gather():
    found = [f"{p.name}:{line}" for p in MODULES
             for line in _square_ix_reads(ast.parse(p.read_text(encoding="utf-8")))]
    assert not found, f"read square blocks with metric_core._block instead: {', '.join(found)}"
    probe = ast.parse("sub = space.dmat[np.ix_(idx, idx)]\nrect = space.dmat[np.ix_(a, b)]")
    assert list(_square_ix_reads(probe)) == [1], "the scan no longer sees a square np.ix_ read"


def _report_encodings(tree):
    """Top-level statements that name ``_plain`` or ``_num`` or call ``.to_json()``,
    each by its definition's name (or "module") and line."""
    for node in tree.body:
        where = getattr(node, "name", "module")
        for sub in ast.walk(node):
            if {getattr(sub, a, None) for a in ("id", "attr", "name")} & {"_plain", "_num"}:
                yield f"{where} (line {sub.lineno}) names a report encoder"
            elif isinstance(sub, ast.Call) and getattr(sub.func, "attr", None) == "to_json":
                yield f"{where} (line {sub.lineno}) calls to_json"


def test_report_values_encoded_only_in_serialization():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in MODULES}
    home = trees.pop("serialization.py")
    found = [f"{name}:{hit}" for name, tree in trees.items() for hit in _report_encodings(tree)]
    assert not found, f"pass plain values to serialization.dumps_report instead: {', '.join(found)}"
    assert any(hit.startswith("_plain ") and hit.endswith("calls to_json")
               for hit in _report_encodings(home)), (
        "the scan no longer sees the to_json call in serialization._plain")


def _number_checks(tree):
    """Lines that name ``math.isnan`` or ``math.isfinite`` or anything of the
    ``numbers`` module, by attribute or by import."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and (node.value.id == "numbers"
                     or node.value.id == "math" and node.attr in ("isnan", "isfinite"))):
            yield f"line {node.lineno}: {node.value.id}.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and (
                node.module == "numbers"
                or node.module == "math" and {"isnan", "isfinite"} & {a.name for a in node.names}):
            yield f"line {node.lineno}: from {node.module} import"
        elif isinstance(node, ast.Import) and "numbers" in {a.name for a in node.names}:
            yield f"line {node.lineno}: import numbers"


def test_number_policy_only_in_errors():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in MODULES}
    home = list(_number_checks(trees.pop("errors.py")))
    found = [f"{name} {hit}" for name, tree in trees.items() for hit in _number_checks(tree)]
    assert not found, f"check numbers with errors.check_number or is_int instead: {', '.join(found)}"
    assert any("math.isnan" in hit for hit in home) and any("numbers" in hit for hit in home), (
        "the scan no longer sees the checks in errors.check_number")


def _fresh(code):
    """stdout of ``code`` run in a fresh interpreter: this process may already
    hold scipy and every coarsekit module."""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC.parent)}, check=True, timeout=60)
    return out.stdout.strip()


# the coarsekit modules and the scipy/networkx modules a fresh process holds
LOADED = ("import sys; print(sorted(m for m in sys.modules if m.split('.')[0] in "
          "('coarsekit', 'networkx', 'scipy')))")
# what every command needs: no scipy, no networkx, no module of a single command
CLI_MODULES = {"coarsekit", "coarsekit.cli", "coarsekit.controls", "coarsekit.errors",
               "coarsekit.metric_core", "coarsekit.serialization"}


def test_cli_import_loads_neither_networkx_nor_scipy():
    loaded = set(ast.literal_eval(_fresh("import coarsekit.cli; " + LOADED)))
    assert loaded == CLI_MODULES, f"import coarsekit.cli loaded {sorted(loaded)}"


def test_package_import_loads_no_submodule():
    assert _fresh("import coarsekit; " + LOADED) == "['coarsekit']"


def test_space_command_loads_metric_core_only(tmp_path):
    space = tmp_path / "sp.json"
    space.write_text('{"kind": "cloud", "coords": [[0], [1], [3]]}')
    code = ("import contextlib, io, coarsekit.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert coarsekit.cli.main(['space', '--space', {str(space)!r}]) == 0\n"
            + LOADED)
    assert set(ast.literal_eval(_fresh(code))) == CLI_MODULES


def test_suites_and_fixture_spaces_load_no_scipy():
    code = ("import contextlib, io, random, coarsekit.cli\n"
            "from coarsekit.generators import random_space\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert coarsekit.cli.main(['suite', '--name', 'disjointify', '--seed', '7',\n"
            "                               '--count', '10']) == 0\n"
            "for seed in range(32):\n"
            "    random_space(random.Random(seed))\n"
            "import sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _fresh(code) == "[]"


# ``from coarsekit import *`` before the re-exports loaded lazily: the
# re-exported names and the submodules the eager imports had bound
STAR = {
    "ApcWitness", "AsdimResult", "CertificateError", "CoarseKitError", "CoarseMap",
    "DecompositionTree", "DimSequenceWitness", "DisjointificationTrace", "Factorization",
    "FamilyOfSets", "FiniteMetricSpace", "GroupAction", "GroupQuotient", "InputError",
    "LinearControl", "MassFamily", "MetricError", "NTo1Control", "NTo1Profile",
    "PreconditionError", "ProbMeasure", "PushforwardAudit", "Refusal", "SUITES",
    "StepFunction", "Subset", "TreeReport", "apc_normalize", "apc_pullback", "apc_pushforward",
    "apc_witness", "as_control", "asdim_at_scale", "asdim_to_msp", "asdim_zero_witness",
    "best_mass_family", "build_space", "casdim_to_sfdc", "components", "control_upper",
    "diameter", "dim_at_scale", "factorize", "group_quotient", "grow_level",
    "half_mass_witness", "hausdorff_distance", "is_partition_tree", "is_r_disjoint",
    "lebesgue_number", "make_disjoint", "map_msp_check", "maximal_r_bounded_sets", "mesh",
    "min_max_diameter_partition", "msp_pullback", "msp_pushforward", "n_to_1_control",
    "n_to_1_profile", "neighborhood", "partition_refine", "pullback_family",
    "pushforward_cover", "pushforward_measure", "r_components", "run_suite",
    "symmetrize_metric", "transfer_measure_selection", "tree_pullback", "tree_pushforward",
    "tree_to_cover", "verify_apc_witness", "verify_n_to_1", "verify_tree",
    "coarse_maps", "controls", "covers", "dimension", "errors", "generators", "metric_core",
    "msp", "suites", "trees",
}


def test_lazy_exports_are_the_modules_objects():
    assert set(coarsekit.__all__) == STAR and len(coarsekit.__all__) == len(STAR) == 84
    for name in coarsekit.__all__:
        value = getattr(coarsekit, name)
        if isinstance(value, types.ModuleType):
            assert value is importlib.import_module(f"coarsekit.{name}")
        else:
            home = importlib.import_module(f"coarsekit.{coarsekit._HOME[name]}")
            assert value is getattr(home, name), name
            assert getattr(value, "__module__", home.__name__) == home.__name__, name
    assert {"__version__", *STAR} <= set(dir(coarsekit))
    with pytest.raises(AttributeError, match="has no attribute 'nonexistent'"):
        coarsekit.nonexistent  # noqa: B018
    star = ast.literal_eval(_fresh(
        "ns = {}; exec('from coarsekit import *', ns); "
        "print(sorted(k for k in ns if k != '__builtins__'))"))
    assert set(star) == STAR
