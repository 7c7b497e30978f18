"""The package's input rules, each written once.

Every module raises its own typed error (``EnvError``, ``GridError``,
``OracleError``, or ``ValueError`` in ``approx`` and ``learner``), so each
raising helper takes that error as an argument.
"""

from __future__ import annotations

import math

import numpy as np


def is_count(value, least: int = 1) -> bool:
    """An int >= least; a bool is an int to isinstance, but numpy rejects it as a size."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= least


def is_real(value) -> bool:
    """An int or float, numpy's scalars included, but not a bool: True would
    pass a range check as the number 1."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def as_floats(values, what: str, error) -> np.ndarray:
    """``values`` as a float array (not copied when it is one already), or
    ``error`` when an entry is not a number or the rows are ragged."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise error("%s must be an array of numbers" % what) from None


def check_points(values, what: str, error) -> np.ndarray:
    """``values`` as a float (n, 2) array of finite points, or ``error`` for
    any other shape, one (2,) point included, or for an entry that is not a
    finite number."""
    arr = as_floats(values, what, error)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise error("%s must be an (n, 2) batch, got shape %r" % (what, arr.shape))
    if not np.isfinite(arr).all():
        raise error("%s must be finite" % what)
    return arr


def check_count(value, what: str, error, least: int = 1):
    if not is_count(value, least):
        raise error("%s must be an int >= %d, got %r" % (what, least, value))


def check_positive(value, what: str, error):
    if not (is_real(value) and 0.0 < value < math.inf):
        raise error("%s must be finite and > 0, got %r" % (what, value))


def check_real(value, what: str, error, least=None):
    """A finite real number, and >= ``least`` when it is given."""
    if not (is_real(value) and -math.inf < value < math.inf and (least is None or value >= least)):
        bound = "" if least is None else " and >= %g" % least
        raise error("%s must be finite%s, got %r" % (what, bound, value))
