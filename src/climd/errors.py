"""Exception types shared across the package, and the check of a
configured number.

The CLI maps these onto its exit-code contract:
0 success, 1 validation error, 2 infeasible schedule, 3 I/O error.
"""

import math


class ClimdError(Exception):
    """Base class for all package errors."""


class ValidationError(ClimdError):
    """Malformed or contract-violating input (bad probability vector,
    duplicate sample id, unknown class, corrupt file line, ...)."""


class DomainError(ValidationError):
    """Numeric argument outside a function's mathematical domain."""


class InfeasibleScheduleError(ClimdError):
    """Requested subset size cannot be met under the per-class caps."""


def check_number(name: str, value: float, low: float, strict: bool = False,
                 below: float = math.inf):
    """Reject a non-finite ``value``, one below ``low`` (or equal to it,
    when ``strict``) or one not below ``below``, naming the field."""
    if (not math.isfinite(value) or value < low or (strict and value == low)
            or value >= below):
        bound = f"> {low:g}" if strict else f">= {low:g}"
        if below < math.inf:
            bound += f" and < {below:g}"
        raise ValidationError(f"{name} must be a finite number {bound}, got {value!r}")
