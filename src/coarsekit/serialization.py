"""JSON encoding and decoding for every object the command line exchanges.

All encoders emit plain dicts with sorted, stable content so that serialized
reports are byte-identical across reruns.  Schema version 1.
"""

from __future__ import annotations

import hashlib
import json
import math

from .controls import LinearControl, StepFunction
from .coarse_maps import CoarseMap, GroupAction
from .covers import FamilyOfSets
from .dimension import ApcWitness, DimSequenceWitness
from .metric_core import FiniteMetricSpace, build_space
from .msp import MassFamily, ProbMeasure
from .trees import DecompositionTree

SCHEMA_VERSION = 1

__all__ = [
    "space_to_json",
    "space_from_json",
    "family_to_json",
    "family_from_json",
    "map_from_json",
    "action_from_json",
    "measure_from_json",
    "tree_to_json",
    "tree_from_json",
    "witness_to_json",
    "witness_from_json",
    "dim_sequence_from_json",
    "mass_family_to_json",
    "dumps_report",
    "digest",
]


def _num(v: float):
    if v == math.inf:
        return "inf"
    return v


def _denum(v):
    return math.inf if v == "inf" else float(v)


def space_to_json(space: FiniteMetricSpace) -> dict:
    return {
        "kind": "matrix",
        "labels": [str(l) for l in space.labels],
        "matrix": [[float(v) for v in row] for row in space.dmat],
    }


def space_from_json(obj: dict) -> FiniteMetricSpace:
    return build_space(obj)


def family_to_json(F: FamilyOfSets) -> dict:
    out = {"sets": [sorted(s) for s in F.sets]}
    if F.colors is not None:
        out["colors"] = list(F.colors)
        out["n_colors"] = F.n_colors
    return out


def family_from_json(obj: dict, space: FiniteMetricSpace) -> FamilyOfSets:
    return FamilyOfSets(
        space,
        tuple(frozenset(s) for s in obj["sets"]),
        tuple(obj["colors"]) if "colors" in obj else None,
        obj.get("n_colors"),
    )


def map_from_json(obj: dict, domain: FiniteMetricSpace, codomain: FiniteMetricSpace) -> CoarseMap:
    return CoarseMap(domain, codomain, tuple(obj["assign"]))


def action_from_json(obj: dict, space: FiniteMetricSpace) -> GroupAction:
    return GroupAction(space, tuple(tuple(r) for r in obj["table"]),
                       tuple(tuple(p) for p in obj["perms"]))


def measure_from_json(obj: dict, space: FiniteMetricSpace) -> ProbMeasure:
    return ProbMeasure(space, tuple(obj["weights"]))


def tree_to_json(t: DecompositionTree) -> dict:
    return {
        "levels": [family_to_json(lvl) for lvl in t.levels],
        "scales": list(t.scales),
        "branching": list(t.branching),
        "splits": [
            [[list(sub) for sub in subfams] for subfams in table] for table in t.splits
        ],
        "terminal_mesh": _num(t.terminal_mesh),
        "union_mode": t.union_mode,
    }


def tree_from_json(obj: dict, space: FiniteMetricSpace) -> DecompositionTree:
    return DecompositionTree(
        space,
        tuple(family_from_json(l, space) for l in obj["levels"]),
        tuple(obj["scales"]),
        tuple(obj["branching"]),
        tuple(
            tuple(tuple(tuple(sub) for sub in subfams) for subfams in table)
            for table in obj["splits"]
        ),
        terminal_mesh=_denum(obj["terminal_mesh"]),
        union_mode=obj.get("union_mode", "equal"),
    )


def witness_to_json(w: ApcWitness) -> dict:
    return {
        "scales": list(w.scales),
        "families": [family_to_json(f) for f in w.families],
        "certificates": _plain(w.certificates),
    }


def witness_from_json(obj: dict, space: FiniteMetricSpace) -> ApcWitness:
    return ApcWitness(
        space,
        tuple(obj["scales"]),
        tuple(family_from_json(f, space) for f in obj["families"]),
    )


def dim_sequence_from_json(obj: dict, space: FiniteMetricSpace) -> DimSequenceWitness:
    return DimSequenceWitness(
        space,
        tuple(float(v) for v in obj["scales"]),
        tuple(int(v) for v in obj["dims"]),
        tuple(family_from_json(f, space) for f in obj["families"]),
    )


def mass_family_to_json(m: MassFamily) -> dict:
    return {
        "family": family_to_json(m.family),
        "R": m.R,
        "S": _num(m.S),
        "mass": m.mass,
        "exact": m.exact,
        "flags": _plain(m.flags),
    }


def _plain(obj):
    """Recursively convert to JSON-encodable values with stable ordering."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(_plain(v) for v in obj)
    if isinstance(obj, float):
        return _num(obj)
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    if isinstance(obj, (StepFunction, LinearControl)):
        return obj.to_json()
    return str(obj)


def dumps_report(report: dict) -> str:
    """Canonical report text: schema-versioned, sorted keys, newline-terminated."""
    body = {"schema_version": SCHEMA_VERSION}
    body.update(report)
    return json.dumps(_plain(body), sort_keys=True, indent=2) + "\n"


def digest(data: bytes) -> str:
    """SHA-256 hex digest of an input file's bytes, as recorded in reports."""
    return hashlib.sha256(data).hexdigest()
