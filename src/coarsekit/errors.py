"""Exception hierarchy shared by every module, and the number policy.

The number policy lives here, in ``check_number`` and ``is_int``, because
every module already imports this one.  A scale, bound, mesh cap or threshold
that reaches a public entry is a real number and never NaN; +-inf passes
unless the entry needs a finite value.  ``json_number`` reads JSON numbers.
"""

import math
from numbers import Integral, Real


class CoarseKitError(Exception):
    """Base class for all library errors."""


class MetricError(CoarseKitError):
    """A distance table violates the metric axioms (or a graph is disconnected)."""


class InputError(CoarseKitError):
    """Malformed descriptor, family, map, or tree input."""


class PreconditionError(CoarseKitError):
    """A documented operation precondition does not hold for the given input."""


class CertificateError(CoarseKitError):
    """A computed output fails its own certificate check.

    Carries a ``witness`` attribute describing the offending pair/set so the
    failure can be reproduced offline.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class Refusal(CoarseKitError):
    """A search concluded (or gave up on) infeasibility.

    ``proved`` is True when infeasibility was proved exhaustively and False
    when a node budget ran out first.  ``witness`` holds the residue or the
    offending subset when one exists.
    """

    def __init__(self, message, *, proved, witness=None):
        super().__init__(message)
        self.proved = proved
        self.witness = witness


def is_int(v) -> bool:
    """True for an integer (``int`` or any ``numbers.Integral``) that is not a bool."""
    return type(v) is int or (isinstance(v, Integral) and not isinstance(v, bool))


def check_number(x, name, *, finite=False):
    """``x`` unchanged when it is a real number: InputError for a bool, a
    non-number or NaN, and for +-inf as well when ``finite``."""
    if not isinstance(x, float):  # floats, numpy's included, skip the ABC checks
        if is_int(x):
            return x  # never NaN or infinite, and may be too large for math.isnan
        if isinstance(x, bool) or not isinstance(x, Real):
            raise InputError(f"{name} must be a number, got {x!r}")
    if finite and not math.isfinite(x):
        raise InputError(f"{name} must be finite")
    if math.isnan(x):
        raise InputError(f"{name} must not be NaN")
    return x


def json_number(x, name) -> float:
    """A float under ``check_number``, or from the "inf" and "-inf" that reports write."""
    return float(x if x in ("inf", "-inf") else check_number(x, name))
