"""Control functions reject NaN coefficients and breakpoints; infinite step values
stay allowed and reach reports as "inf" and "-inf"."""

import json
import math

import pytest

from coarsekit import InputError, LinearControl, StepFunction
from coarsekit.serialization import dumps_report


@pytest.mark.parametrize(
    "a, b", [(math.nan, 0.0), (1.0, math.nan), (math.inf, 0.0), (1.0, -math.inf)]
)
def test_linear_control_rejects_non_finite_coefficients(a, b):
    with pytest.raises(InputError):
        LinearControl(a, b)


@pytest.mark.parametrize("breakpoints", [
    ((math.nan, 1.0),), ((0.0, 1.0), (math.nan, 2.0)),
    ((0.0, math.nan),), ((0.0, 1.0), (2.0, math.nan)),
], ids=["nan-radius", "nan-second-radius", "nan-value", "nan-second-value"])
def test_step_function_rejects_nan_breakpoints(breakpoints):
    with pytest.raises(InputError):
        StepFunction(breakpoints)


def test_step_function_keeps_infinite_values():
    E = StepFunction(((1.0, 2.0), (3.0, math.inf)))
    assert [E(r) for r in (0.0, 1.0, 2.9, 3.0, 1e9)] == [0.0, 2.0, 2.0, math.inf, math.inf]


def test_report_encodes_infinite_step_values_nested_in_a_witness():
    E = StepFunction(((0.0, -math.inf), (1.0, 2.0), (3.0, math.inf)), flags={"b": 1, "a": (2,)})
    text = dumps_report({"error": {"witness": {"controls": [E]}}})
    assert json.loads(text)["error"]["witness"]["controls"] == [{
        "type": "step",
        "breakpoints": [[0.0, "-inf"], [1.0, 2.0], [3.0, "inf"]],
        "inclusive": True,
        "flags": {"a": [2], "b": 1},
    }]
