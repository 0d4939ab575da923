"""Exception hierarchy for bnladder.

Everything raised on purpose derives from :class:`BNLadderError` so callers
(and the command line driver) can tell our failures apart from genuine bugs.
Only :func:`_integer`, :func:`_real` and :func:`_reals` decide what an
integer or a real is.
"""

import numbers

import numpy as np

__all__ = [
    "BNLadderError",
    "ParameterError",
    "ConvergenceError",
    "ZetaRangeError",
    "DegenerateFitError",
]


class BNLadderError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(BNLadderError):
    """Raised when an argument is outside its documented domain.

    Examples: a profile parameter outside (0, 1], a negative smoothing
    width, a ladder index that does not fit in its window, a bool, float
    or string where an integer is expected, a bool or string where a real
    number is expected.
    """


def _integer(value, name: str, minimum: int = 0) -> int:
    """``value`` as a plain int >= ``minimum``; Python and numpy integers
    pass, bools, floats, strings and None raise :class:`ParameterError`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ParameterError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _real(value, name: str) -> float:
    """``value`` as a plain float; Python and numpy reals pass, bools and
    non-numbers raise :class:`ParameterError`.  Range checks stay with the
    caller."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ParameterError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _reals(value, name: str):
    """``value`` as :func:`_real` takes it, or a 1-D float array from a
    1-D array of integers or reals; bool, string and object arrays raise
    :class:`ParameterError`."""
    try:
        arr = np.asarray(value)
    except ValueError:  # a ragged sequence
        arr = None
    if arr is not None and arr.ndim == 0:
        return _real(value, name)
    if arr is None or arr.ndim != 1 or arr.dtype.kind not in "iuf":
        raise ParameterError(f"{name} must be a real number or a 1-D array of them, got {value!r}")
    return arr.astype(np.float64)


class ConvergenceError(BNLadderError):
    """Raised when a computation cannot reach the requested accuracy
    within its configured budget (subdivision cap, iteration cap)."""


class ZetaRangeError(ParameterError):
    """Raised when a zeta evaluation is requested beyond the height up to
    which the implementation is accuracy-checked."""


class DegenerateFitError(BNLadderError):
    """Raised when a least-squares decay fit has too few usable shells to
    determine an exponent."""
