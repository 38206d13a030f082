"""Exception types shared across the package, and the one rule for an
integer knob."""

import operator


class CodelError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(CodelError, ValueError):
    """A configuration value or function argument is out of its valid range."""


class InsufficientDataError(CodelError, ValueError):
    """The input is too short for the requested computation."""


class ShapeError(CodelError, ValueError):
    """An array has the wrong length or dimensionality."""


class ContractError(CodelError, RuntimeError):
    """A caller violated an internal precondition (e.g. non-descent direction)."""


def integer(name: str, value) -> int:
    """value as an int, by `operator.index`: an int or a numpy integer
    passes, and a value it refuses, such as 2.5, 10.0 or None, raises a
    ParameterError naming the knob `name`."""
    try:
        return operator.index(value)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {value!r}") from None
