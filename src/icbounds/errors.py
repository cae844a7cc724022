"""Exception types shared across the package, and the one check of numeric
arguments: every public entry point refuses a value of the wrong type or out
of range with the helpers below, whose messages show a value by ``_shown``."""

import math
import numbers
import sys

import numpy as np


class IcboundsError(Exception):
    """Base class for every error raised by this package."""


class FamilyParameterError(IcboundsError, ValueError):
    """A built-in function family was given parameters outside its valid range."""


class TruthTableFormatError(IcboundsError, ValueError):
    """A truth-table, distribution, or ordering file does not match the documented format."""


class ArgumentError(IcboundsError, ValueError):
    """An operation received arguments violating its contract (sizes, ranges, overlaps)."""


class UnsupportedSizeError(IcboundsError, ValueError):
    """The operation is only defined for specific input sizes."""


class ExhaustiveSearchRefusal(IcboundsError, RuntimeError):
    """Exhaustive ordering search was refused because of its cost."""


class GreedySearchRefusal(IcboundsError, RuntimeError):
    """Greedy ordering search was refused because of its cost."""


class TableSizeRefusal(IcboundsError, RuntimeError):
    """A built-in family's truth table was refused because of its size."""


class CensusMismatchError(IcboundsError, RuntimeError):
    """The classification census did not produce the expected class structure."""

    def __init__(self, message, signatures=()):
        super().__init__(message)
        self.signatures = tuple(signatures)


class HierarchyViolationError(IcboundsError, RuntimeError):
    """A class-hierarchy substitution check failed."""


# ---------------------------------------------------------------------------
# Numeric arguments
# ---------------------------------------------------------------------------

#: The largest size of a numpy array dimension, and the largest finite float.
_INTP_MAX = int(np.iinfo(np.intp).max)
_FLOAT_MAX = sys.float_info.max


def _shown(value) -> str:
    """``value`` as a message shows it: its repr when short, as for a float
    or an int of at most 64 bits, else what it is ("an integer of 16610
    bits"), so that no message grows with the value."""
    if isinstance(value, numbers.Integral) and int(value).bit_length() > 64:
        return f"an integer of {int(value).bit_length()} bits"
    try:
        text = repr(value)
    except ValueError:  # it holds an integer too long to print
        text = ""
    return text if 0 < len(text) <= 40 else f"a {type(value).__name__}"


def _is_integer(value) -> bool:
    """True for Python and numpy integers: not for a float such as 1.9, to
    be refused rather than truncated, nor for a bool, although bools are ints."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, (bool, np.bool_))


def _is_real(kind: type) -> bool:
    """True for the types of real numbers but the bools."""
    return issubclass(kind, numbers.Real) and not issubclass(kind, (bool, np.bool_))


def _outside(name: str, shown: str, kind: str, low, high, ends: str, error):
    """The refusal of a value, shown as ``shown``, outside ``ends[0] low,
    high ends[1]``, or below ``low`` when ``high`` is None or infinite."""
    if high is None or high in (math.inf, _FLOAT_MAX):
        return error(f"{name} must be {kind} >= {_shown(low)}, got {shown}")
    return error(f"{name} must lie in {ends[0]}{_shown(low)}, {_shown(high)}{ends[1]}, got {shown}")


def _integer(value, name: str, low: int, high=None, error=ArgumentError) -> int:
    """``value`` as a Python int in [low, high] (no upper end when ``high`` is
    None); a bool, a float or any other type raises ``error``, as does a
    value out of range."""
    if type(value) is not int:
        if not _is_integer(value):
            raise error(f"{name} must be an integer, got {_shown(value)}")
        value = int(value)
    if value < low or high is not None and value > high:
        raise _outside(name, _shown(value), "an integer", low, high, "[]", error)
    return value


def _real(value, name: str, low, high, ends: str = "[]", error=ArgumentError) -> float:
    """``value`` as a Python float in ``ends[0] low, high ends[1]``, where '('
    or ')' leaves that end out, with -0.0 read as 0.0 and an integer beyond
    the float range as the infinity of its sign.  A bool, any value that is
    not a real number, NaN and a value out of range raise ``error``."""
    if not _is_real(type(value)):
        raise error(f"{name} must be a real number, got {_shown(value)}")
    try:
        number = float(value) + 0.0
    except OverflowError:
        number = math.inf if value > 0 else -math.inf
    above = low < number if ends[0] == "(" else low <= number
    if not (above and (number < high if ends[1] == ")" else number <= high)):
        raise _outside(name, _shown(value), "a real number", low, high, ends, error)
    return number


def _integer_entries(values, name: str, low=None, high=None, error=ArgumentError) -> tuple:
    """The entries of ``values`` as Python ints, each in [low, high] when
    ``low`` is given; else ``error`` names the first entry that is not.  One
    pass in C over the entry types, and one over their extremes, decide."""
    values = tuple(values)
    types = set(map(type, values))
    if not types <= {int}:
        if not all(issubclass(t, (int, np.integer)) and not issubclass(t, (bool, np.bool_)) for t in types):
            i, v = next((i, v) for i, v in enumerate(values) if not _is_integer(v))
            raise error(f"{name} entry {i} must be an integer, got {_shown(v)}")
        values = tuple(map(int, values))
    if low is not None and values and not (low <= min(values) and max(values) <= high):
        i = next(i for i, v in enumerate(values) if not low <= v <= high)
        raise _outside(f"{name} entry {i}", _shown(values[i]), "an integer", low, high, "[]", error)
    return values


def _real_entries(values, name: str, low, high=_FLOAT_MAX, error=ArgumentError) -> np.ndarray:
    """``values`` as a fresh flat float array whose entries are finite and in
    [low, high]; else ``error`` names the first entry that is not.  A bool
    is not a real number, as in ``_real``: a list or a tuple takes one pass
    in C over its entry types, and an array is decided by its dtype."""
    if isinstance(values, (list, tuple)):
        types = set(map(type, values))
        if not types <= {float, int} and not all(map(_is_real, types)):
            i, v = next((i, v) for i, v in enumerate(values) if not _is_real(type(v)))
            raise error(f"{name} entry {i} must be a real number, got {_shown(v)}")
    elif isinstance(values, np.ndarray) and values.dtype == np.bool_ and values.size:
        raise error(f"{name} entry 0 must be a real number, got {_shown(values.flat[0])}")
    try:
        array = np.array(values, dtype=float).ravel()
    except (OverflowError, TypeError, ValueError) as exc:
        shown = "an integer beyond the float range" if isinstance(exc, OverflowError) else "a non-number"
        raise _outside(f"{name} entries", shown, "finite numbers", low, high, "[]", error) from None
    # Two reductions in C decide (NaN fails both); only a refusal looks further.
    if array.size and not (low <= np.minimum.reduce(array) and np.maximum.reduce(array) <= high):
        i = int(np.argmin((array >= low) & (array <= high)))
        shown = _shown(float(array[i]))
        raise _outside(f"{name} entry {i}", shown, "a finite number", low, high, "[]", error)
    return array
