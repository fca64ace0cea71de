"""Exception taxonomy shared across the package, and the input contract.

Exit-code mapping used by the command line tool: ConfigError -> 2,
ConsistencyError -> 3, verification failures -> 1.

Each ``as_*`` validator checks one kind of input where it enters and
returns it as the package computes with it. It raises ``ValueError("<name>
must be ..., got <value>")``, a range error in config and CLI; NaN, the
infinities and ``bool`` fail every one."""

from __future__ import annotations

import math
import reprlib
from numbers import Integral, Real

import numpy as np


class ConfigError(ValueError):
    """Invalid configuration: syntax, unknown key, range or topology violation."""

    def __init__(self, message: str, kind: str = "config", line: int | None = None):
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(f"{prefix}[{kind}] {message}")
        self.kind = kind
        self.line = line


class ConsistencyError(RuntimeError):
    """An internal invariant that should hold in exact arithmetic was violated."""


class PreconditionError(ValueError):
    """A documented operation precondition does not hold for the given input."""


def _refused(name: str, rule: str, value) -> ValueError:
    return ValueError(f"{name} must be {rule}, got {reprlib.repr(value)}")


def _real(value) -> float:
    """value as a float, or NaN (refused) for a bool, a huge int or no real."""
    if isinstance(value, (float, Real)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    return math.nan


def _holds_bool(value) -> bool:
    """Is a bool, Python's or numpy's (a float array reads 0 or 1), inside?"""
    if isinstance(value, np.ndarray) and value.dtype != object:
        return value.dtype == bool
    return not {bool, np.bool_}.isdisjoint(
        map(type, np.asarray(value, dtype=object).flat))


def as_count(name: str, value, least: int = 1) -> int:
    """An integer of at least ``least``. A seed is a count from 0."""
    if isinstance(value, bool) or not (isinstance(value, (int, Integral))
                                       and value >= least):
        rule = {0: "a nonnegative integer", 1: "a positive integer"}
        raise _refused(name, rule.get(least, f"an integer of at least "
                                             f"{least}"), value)
    return int(value)


def as_positive(name: str, value, most: float = math.inf) -> float:
    """A finite real number in (0, most]."""
    x = _real(value)
    if not (0.0 < x <= most and x < math.inf):
        raise _refused(name, "positive and finite" if most == math.inf
                       else f"in (0, {most:g}]", value)
    return x


def as_bounded(name: str, value, lo: float = -math.inf,
               hi: float = math.inf) -> float:
    """A finite real number in the closed interval [lo, hi]."""
    x = _real(value)
    if not (lo <= x <= hi and abs(x) < math.inf):
        raise _refused(name, f"a finite number in [{lo:g}, {hi:g}]", value)
    return x


def as_reals(name: str, value, lo: float = -math.inf,
             hi: float = math.inf):
    """One finite real number in [lo, hi], as a float, or a list, tuple or
    array of one or more of them, as a float array of its shape."""
    if not isinstance(value, (list, tuple, np.ndarray)):
        return as_bounded(name, value, lo, hi)
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):  # ragged, or no numbers
        arr = np.empty(0)
    # written so that NaN, which fails every comparison, is rejected
    if not (arr.size and lo <= (least := np.minimum.reduce(arr, axis=None))
            and (most := np.maximum.reduce(arr, axis=None)) <= hi
            and -math.inf < least and most < math.inf) or _holds_bool(value):
        raise _refused(name, f"finite numbers in [{lo:g}, {hi:g}]", value)
    return arr if arr.ndim else float(arr)


def as_road(value, roads: int) -> int:
    """A road index in range(roads)."""
    if isinstance(value, bool) or not (isinstance(value, (int, Integral))
                                       and 0 <= value < roads):
        raise _refused("road", f"in range({roads})", value)
    return int(value)


def as_state(name: str, value, size: int, lo: float,
             hi: float) -> np.ndarray:
    """A new float array of shape (size,) >= (1,) in the finite [lo, hi]."""
    try:
        arr = as_reals(name, value, lo, hi)
        if np.shape(arr) == (size,):
            return np.array(arr)
    except ValueError:
        pass
    raise _refused(name, f"{size} finite numbers in [{lo:g}, {hi:g}]", value)


def as_sequence(name: str, value, size: int | None = None,
                empty: bool = False) -> list:
    """A list, tuple or array of ``size`` entries, or where size is None
    of one or more (or none, if ``empty``), as a list."""
    if isinstance(value, (list, tuple)) or (isinstance(value, np.ndarray)
                                            and value.ndim):
        if len(value) == size if size is not None else empty or len(value):
            return list(value)
    raise _refused(name, f"a sequence of {size} entries" if size is not None
                   else "a sequence" if empty else "a non-empty sequence",
                   value)
