"""Spans around calls into coarsekit's public functions, kept in the benchmark.

The library is not instrumented.  ``Tracer.install`` replaces each listed
function by a wrapper in every ``coarsekit`` module namespace that binds it
(so ``suites``, ``msp``, ``dimension``, ``coarse_maps`` and ``trees`` call the
wrapper through the names they imported), and ``Tracer.uninstall`` puts the
originals back.  A span is (name, start, end, parent); self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter

import numpy as np

# Layer -> public functions that get a span of their own.
FUNCTIONS = {
    "metric_core": ["build_space", "verify_metric", "neighborhood", "r_components",
                    "diameter", "hausdorff_distance"],
    "covers": ["dim_at_scale", "is_r_disjoint", "mesh", "lebesgue_number", "make_disjoint"],
    "coarse_maps": ["maximal_r_bounded_sets", "min_max_diameter_partition", "verify_n_to_1",
                    "n_to_1_profile", "n_to_1_control", "control_upper", "group_quotient",
                    "pushforward_cover", "factorize"],
    "dimension": ["asdim_at_scale", "apc_witness"],
    "msp": ["best_mass_family", "msp_pullback", "msp_pushforward", "map_msp_check"],
    "trees": ["verify_tree", "casdim_to_sfdc", "partition_refine", "tree_pullback",
              "tree_pushforward"],
    "generators": ["random_space", "random_cover", "random_casdim_tree", "random_quotient_map"],
    "serialization": ["dumps_report"],
    "cli": ["main"],
}
# Every serialization.*_from_json shares the one span name below.
LOAD_SPAN = "serialization.load"

SPAN_NAMES = [f"{mod}.{fn}" for mod, fns in FUNCTIONS.items() for fn in fns] + [LOAD_SPAN]

# Work counts taken from arguments and results at the span boundary.
COUNTERS = [
    "generators.random_cover.accepted",
    "coarse_maps.maximal_r_bounded_sets.fallbacks",
    "dimension.asdim_at_scale.inexact",
    "msp.best_mass_family.exact_calls",
    "msp.best_mass_family.subsets",
    "covers.make_disjoint.output_sets",
]


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _count_random_cover(counts, args, kwargs, out):
    counts["generators.random_cover.accepted"] += out is not None


def _count_maximal_sets(counts, args, kwargs, out):
    counts["coarse_maps.maximal_r_bounded_sets.fallbacks"] += not out[1]


def _count_asdim(counts, args, kwargs, out):
    counts["dimension.asdim_at_scale.inexact"] += not out.exact


def _count_mass(counts, args, kwargs, out):
    if out.exact:
        counts["msp.best_mass_family.exact_calls"] += 1
        # computed from the input: the exact branch enumerates 2^|support| masks
        mu = _arg(args, kwargs, 1, "mu")
        counts["msp.best_mass_family.subsets"] += 1 << len(mu.support())


def _count_make_disjoint(counts, args, kwargs, out):
    counts["covers.make_disjoint.output_sets"] += len(out[0])


AFTER = {
    "generators.random_cover": _count_random_cover,
    "coarse_maps.maximal_r_bounded_sets": _count_maximal_sets,
    "dimension.asdim_at_scale": _count_asdim,
    "msp.best_mass_family": _count_mass,
    "covers.make_disjoint": _count_make_disjoint,
}


class Tracer:
    """Span recorder for one process; spans stay in memory until ``dump``."""

    def __init__(self):
        self.names = list(SPAN_NAMES)
        self._name_id = {n: i for i, n in enumerate(self.names)}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.counts = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # ------------------------------------------------------------ recording
    def _wrap(self, name, fn):
        nid = self._name_id[name]
        after = AFTER.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.starts)
            self.name_ids.append(nid)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ends.append(0.0)
            self._stack.append(idx)
            self.starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.ends[idx] = clock()
                self._stack.pop()
            if after is not None:
                after(self.counts, args, kwargs, out)
            return out

        return wrapper

    def install(self):
        """Wrap every listed function wherever a coarsekit module binds it."""
        ser = importlib.import_module("coarsekit.serialization")

        originals = {}
        for mod, fns in FUNCTIONS.items():
            module = importlib.import_module(f"coarsekit.{mod}")
            for fn in fns:
                originals[id(getattr(module, fn))] = f"{mod}.{fn}"
        for attr in dir(ser):
            if attr.endswith("_from_json"):
                originals[id(getattr(ser, attr))] = LOAD_SPAN
        wrappers = {}
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "coarsekit" or modname.startswith("coarsekit.")):
                continue
            for attr, value in list(vars(module).items()):
                name = originals.get(id(value))
                if name is None or not callable(value):
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(name, value)
                self._patched.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    # ------------------------------------------------------------ derived
    def totals(self) -> dict:
        """Per span name, {"calls", "self_s"} over every recorded span."""
        n = len(self.starts)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            slot = out[self.names[self.name_ids[i]]]
            slot["calls"] += 1
            slot["self_s"] += (self.ends[i] - self.starts[i]) - child[i]
        return out

    def dump(self, path):
        """Write every span: a name table plus (name id, start, end, parent) rows."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_ids, dtype=np.int32),
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
            parent=np.frombuffer(self.parents, dtype=np.int32),
        )


def merge_totals(into: dict, other: dict):
    for name, slot in other.items():
        acc = into.setdefault(name, {"calls": 0, "self_s": 0.0})
        acc["calls"] += slot["calls"]
        acc["self_s"] += slot["self_s"]
