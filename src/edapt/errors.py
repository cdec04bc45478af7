"""Exception types shared across the package, and the checks that raise them.

A scalar is checked where it enters by :func:`check_int`,
:func:`check_real` (which NaN and infinity fail) or :func:`check_choice`.
An array is checked by the frozen record that holds it, with
:func:`check_finite`, so no record (and no saved model) holds a NaN.
Each refusal names the value.
"""

import math
import operator

import numpy as np


class ParseError(ValueError):
    """A text input (CSV, manifest, config, model file) could not be parsed."""


class ShapeError(ValueError):
    """Array dimensions disagree with what the operation requires."""


class ParameterError(ValueError):
    """A parameter or label value is outside its admissible range."""


class NumericError(RuntimeError):
    """A numeric routine failed (non-finite input, factorization breakdown)."""


class MetricError(ValueError):
    """A metric is undefined for the given inputs."""


def check_int(name: str, value, least: int | None = None):
    """``value`` as an int, at least ``least`` if given; a tuple or list is
    checked entry by entry and returned as a tuple.  A bool, float, string or
    None, or a smaller value, raises ParameterError naming ``name``."""
    ints = []
    for v in value if isinstance(value, (tuple, list)) else (value,):
        try:
            if isinstance(v, bool):  # operator.index takes True as 1
                raise TypeError
            ints.append(operator.index(v))
        except TypeError:
            raise ParameterError(f"{name} must be an integer, got {v!r}") from None
    if least is not None and any(i < least for i in ints):
        raise ParameterError(f"{name} must be >= {least}, got {value}")
    return tuple(ints) if isinstance(value, (tuple, list)) else ints[0]


def check_real(name: str, value, least: float | None = None,
               strict: bool = False) -> None:
    """Refuse a ``value`` (or an entry of a tuple or list) that is not a finite
    number, or is below ``least`` (at or below it if ``strict``), with a
    ParameterError naming ``name``."""
    if least is None:
        least, strict, rule = -math.inf, True, "finite"
    elif strict:
        rule = "positive and finite" if least == 0 else f"finite and exceed {least:g}"
    else:
        rule = f"finite and >= {least:g}"
    for v in value if isinstance(value, (tuple, list)) else (value,):
        # written so that NaN fails it
        if not ((least < v if strict else least <= v) and v < math.inf):
            raise ParameterError(f"{name} must be {rule}, got {value}")


def check_choice(name: str, value, choices) -> None:
    """Refuse a ``value`` that is not one of ``choices``, naming ``name``."""
    if value not in choices:
        raise ParameterError(f"unknown {name} {value!r}; choose from {choices}")


def check_finite(name: str, a: np.ndarray, unit: str | None = None) -> None:
    """Refuse an array with a NaN or infinite entry, naming field ``name``
    and the first bad ``unit`` (default: row of a matrix, else entry)."""
    bad = ~np.isfinite(a)
    if bad.any():
        unit = unit or ("row" if a.ndim == 2 else "entry")
        raise ParameterError(f"field {name!r} has non-finite entries, the first "
                             f"in {unit} {np.argwhere(bad)[0][0]}")
