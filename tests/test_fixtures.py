"""The seeded fixture generators, pinned by digest.

The suite reports carry counts only, so a generator that drifts but still
yields passing instances leaves every report byte equal.  Each generator's
output at fixed seeds is written as canonical JSON (exact float reprs, sorted
keys) and hashed; the recorded digests pin the fixtures themselves, and the
draw that follows each output pins how many draws it took.
"""

import hashlib
import json
import random

import pytest

from coarsekit.generators import (
    random_casdim_tree,
    random_measure,
    random_quotient_map,
    random_space,
)
from coarsekit.serialization import space_to_json, tree_to_json

SEEDS = range(8)  # every kind of space, map and measure is drawn


def _space(rng):
    return space_to_json(random_space(rng, 128))


def _tree(rng):
    t = random_casdim_tree(rng, 128)
    return {"n": t.space.n, "tree": tree_to_json(t)}


def _quotient_map(rng):
    f, n = random_quotient_map(rng, 48)
    return {"domain": space_to_json(f.domain), "codomain": space_to_json(f.codomain),
            "assign": list(f.assign), "n": n}


def _measure(rng):
    sp = random_space(rng, 12)
    return [list(random_measure(rng, sp, style).weights)
            for style in ("any", "uniform", "concentrated", "random")]


MAKERS = {
    "random_space": _space,
    "random_casdim_tree": _tree,
    "random_quotient_map": _quotient_map,
    "random_measure": _measure,
}

# recorded with Python 3.11's random.Random; float reprs are exact
DIGESTS = {
    "random_space": "fa27e05dff9258e9418689f9cca8c4acc6d126c8fbc1d1b26a9374dab0edeaeb",
    "random_casdim_tree": "58a5910d0f599e82d55bb6b6e90fe00bd4db300c0ec709f99448bd6fc90aae57",
    "random_quotient_map": "835552f710a38340cfdf3f388a50d3fa9480944e5832165888dedefa1952006a",
    "random_measure": "3a82de4f79dbbb2421ebd9b1443d41d0e38b502886bfd019c07622b48b891f8d",
}


def _digest(make):
    out = []
    for seed in SEEDS:
        rng = random.Random(seed)
        out.append({"seed": seed, "output": make(rng), "next_draw": rng.random()})
    text = json.dumps(out, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", DIGESTS)
def test_fixture_digest(name):
    assert _digest(MAKERS[name]) == DIGESTS[name], f"{name} no longer yields the recorded fixtures"
