"""The package's error type, the checks of a configured number and
integer, and the guard of an allocation sized by input.

The CLI maps errors onto its exit-code contract: 0 success, 1 invalid
input (a :class:`ValidationError`), 3 I/O error (an ``OSError``).
"""

import math
import numbers
from contextlib import contextmanager


class ValidationError(Exception):
    """Malformed or contract-violating input (bad probability vector,
    duplicate sample id, unknown class, corrupt file line, ...).

    ``row``, when not None, is the index of the first offending row, for
    readers to map onto a line.
    """

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class DomainError(ValidationError):
    """Numeric argument outside a function's mathematical domain."""


def check_number(name: str, value: float, low: float, strict: bool = False,
                 high: float | None = None):
    """Reject a ``value`` that is not a real number (a bool is not), is not
    finite, or lies below ``low`` (or at it, when ``strict``) or above
    ``high``, naming the field."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value) or value < low or (strict and value == low)
            or (high is not None and value > high)):
        bound = (f"in [{low:g}, {high:g}]" if high is not None
                 else f"a finite number {'>' if strict else '>='} {low:g}")
        raise ValidationError(f"{name} must be {bound}, got {value!r}")


def check_int(name: str, *values):
    """Reject each of ``values`` that is not an integer (a bool is not), naming the field."""
    for value in values:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValidationError(f"{name} must be an integer, got {value!r}")


@contextmanager
def room_for(what: str):
    """Turn the ``ValueError``, ``MemoryError`` or ``OverflowError`` of a
    size that cannot be allocated into ``ValidationError("no room for
    <what>")``."""
    try:
        yield
    except (ValueError, MemoryError, OverflowError) as exc:
        raise ValidationError(f"no room for {what}") from exc
