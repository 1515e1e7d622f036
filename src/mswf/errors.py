"""Exception hierarchy and outside-input checks shared by every module.

Exit-code mapping used by the command line front end:
2 = guard/precondition violation or bad input (caught before heavy
compute), 3 = numeric failure during a run, 4 = consistency failure.
"""

import math


class MswfError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class InputError(MswfError):
    """Malformed arguments: dimension mismatches, bad configs, bad files."""

    exit_code = 2


class GuardError(MswfError):
    """A precondition guard failed; nothing expensive was computed."""

    exit_code = 2


class NyquistError(GuardError):
    """Requested frequency exceeds what the grid can represent."""


class ResolutionError(GuardError):
    """Field or packet is under-resolved on the grid."""


class CflError(GuardError):
    """Transport substep would move mass farther than the stencil reach."""


class NumericError(MswfError):
    """Numerical failure while running: non-finite values, blow-up."""

    exit_code = 3


class BoundaryMassError(NumericError):
    """Too much L2 mass reached the edge of the periodic box."""


class StepUnderflowError(NumericError):
    """Adaptive integrator could not meet the tolerance."""


class ConsistencyError(MswfError):
    """An experiment's cross-validation fell below its configured bound."""

    exit_code = 4


def json_object(value, keys=None) -> dict:
    """A copy of `value` if it is a dict; InputError for any other value,
    or for a key outside `keys` (when given)."""
    if not isinstance(value, dict):
        raise InputError(f"expected a JSON object, got {value!r}")
    unknown = sorted(set(value) - set(keys or value))
    if unknown:
        raise InputError(f"unknown key(s) {unknown} (have {sorted(keys)})")
    return dict(value)


def number(value, key: str, *, above=-math.inf, at_least=-math.inf, below=math.inf,
           at_most=math.inf) -> float:
    """A finite number (or numeric text) as a float, with above < it < below
    and at_least <= it <= at_most; InputError naming `key`, the finite
    bounds and the value otherwise, for nan and +-inf too."""
    try:
        v = float(value)
    except (TypeError, ValueError):
        v = math.nan
    if not (math.isfinite(v) and above < v < below and at_least <= v <= at_most):
        limits = " and ".join(f"{op} {b!r}" for op, b in (
            (">", above), (">=", at_least), ("<", below), ("<=", at_most)) if math.isfinite(b))
        raise InputError(f"'{key}' must be a finite number" + (f" {limits}" if limits else "")
                         + f", got {value!r}")
    return v


def one_of(value, table, key: str) -> str:
    """`value` if it is one of the names in `table`; InputError naming `key`
    otherwise, for a value that is not a string too."""
    if not (isinstance(value, str) and value in table):
        raise InputError(f"unknown {key} {value!r} (have {tuple(table)})")
    return value


def integer(value, key: str) -> int:
    """An integral number as an int; InputError naming `key` otherwise."""
    v = number(value, key)
    if not v.is_integer():
        raise InputError(f"'{key}' must be an integer, got {value!r}")
    return int(v)


def dilations(values, key: str, min_rungs: int = 1) -> tuple:
    """A dilation ladder as a tuple of floats: finite numbers, each >= 1,
    strictly increasing, at least `min_rungs` of them; InputError naming
    `key` otherwise, for text too (it is not read digit by digit)."""
    if isinstance(values, (str, bytes)):
        raise InputError(f"'{key}' must be a list of numbers, got the text {values!r}")
    try:
        ladder = tuple(number(v, key) for v in values)
    except TypeError:  # not a sequence
        ladder = ()
    if len(ladder) < min_rungs or any(l < 1.0 for l in ladder) \
            or any(b <= a for a, b in zip(ladder, ladder[1:])):
        raise InputError(f"'{key}' needs at least {min_rungs} rung(s), each >= 1 and "
                         f"strictly increasing, got {values!r}")
    return ladder
