"""Control functions: nondecreasing bounds on metric distortion and fiber pieces.

A control carries an ``inclusive`` flag.  Computed controls report the exact
attained extremum over finite data, so the bound they certify is closed
("pieces have diameter <= C(r)").  An exclusive control promises the strict
form ("diameter < C(r)").  Consumers must expand/compare with the matching
strictness; ``expansion_closed()`` says which ball convention to use when a
bound of this control feeds a neighborhood or dimension computation.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from .errors import InputError, check_number

__all__ = ["StepFunction", "LinearControl", "as_control"]


@dataclass(frozen=True)
class StepFunction:
    """Right-constant nondecreasing step function on [0, inf).

    ``breakpoints`` is a sorted tuple of (r, value); the value at r is the
    value of the largest breakpoint <= r (0.0 below the first breakpoint).
    """

    breakpoints: tuple
    inclusive: bool = True
    flags: dict = field(default_factory=dict, compare=False)
    _radii: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rs = [check_number(r, "breakpoints") for r, _ in self.breakpoints]
        vs = [check_number(v, "breakpoints") for _, v in self.breakpoints]
        if rs != sorted(rs) or len(set(rs)) != len(rs):
            raise InputError("breakpoints must be strictly increasing in r")
        if any(vs[i] > vs[i + 1] for i in range(len(vs) - 1)):
            raise InputError("step function values must be nondecreasing")
        if any(r < 0 for r in rs):
            raise InputError("breakpoints must have r >= 0")
        object.__setattr__(self, "_radii", tuple(rs))

    def __call__(self, r: float) -> float:
        if check_number(r, "r") < 0:
            raise InputError("control functions are defined for r >= 0 only")
        pos = bisect.bisect_right(self._radii, r) - 1
        if pos < 0:
            return 0.0
        return self.breakpoints[pos][1]

    def expansion_closed(self) -> bool:
        return self.inclusive

    def to_json(self) -> dict:
        """Plain values, infinities included; ``serialization.dumps_report`` encodes them."""
        return {
            "type": "step",
            "breakpoints": self.breakpoints,
            "inclusive": self.inclusive,
            "flags": dict(self.flags),
        }


@dataclass(frozen=True)
class LinearControl:
    """C(r) = a*r + b, the (a, b)-Lipschitz control."""

    a: float
    b: float = 0.0
    inclusive: bool = True

    def __post_init__(self):
        check_number(self.a, "linear control coefficient a", finite=True)
        check_number(self.b, "linear control coefficient b", finite=True)

    def __call__(self, r: float) -> float:
        if check_number(r, "r") < 0:
            raise InputError("control functions are defined for r >= 0 only")
        return self.a * r + self.b

    def expansion_closed(self) -> bool:
        return self.inclusive

    def to_json(self) -> dict:
        return {"type": "linear", "a": self.a, "b": self.b, "inclusive": self.inclusive}


def as_control(obj):
    """Accept a control object or a JSON dict and return a control."""
    if isinstance(obj, (StepFunction, LinearControl)):
        return obj
    if isinstance(obj, dict):
        if obj.get("type") == "linear":
            return LinearControl(obj["a"], obj.get("b", 0.0), obj.get("inclusive", True))
        if obj.get("type") == "step":
            bps = tuple((r, float(v)) for r, v in obj["breakpoints"])
            return StepFunction(bps, obj.get("inclusive", True))
    raise InputError(f"cannot interpret {obj!r} as a control function")
