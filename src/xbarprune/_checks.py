"""The rules for scalar arguments, one per kind, shared by every module.

A bool is neither an integer nor a real number here: ``True`` once ran as
seed 1, a learning rate of 1 and a unit resistance. Every message reads
``<name> must be ..., got <value>!r``.
"""

from __future__ import annotations

import numpy as np


def is_int(value) -> bool:
    """A Python or NumPy integer, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_int(name: str, value, low: int, high: int | None = None):
    """Raise ValueError unless ``value`` is an integer in low..high (no upper
    bound if ``high`` is None)."""
    if not is_int(value) or value < low or (high is not None and value > high):
        bound = f">= {low}" if high is None else f"in {low}..{high}"
        raise ValueError(f"{name} must be an integer {bound}, got {value!r}")


def check_real(name: str, value, low: float, high: float, brackets: str = "()"):
    """Raise ValueError unless ``value`` is a Python or NumPy integer or
    float (not a bool) in the interval from ``low`` to ``high``, each end
    closed where ``brackets`` has "[" or "]". NaN lies in no interval, and
    an open end at inf rejects inf."""
    if (not (is_int(value) or isinstance(value, (float, np.floating)))
            or not (low <= value if brackets[0] == "[" else low < value)
            or not (value <= high if brackets[1] == "]" else value < high)):
        raise ValueError(f"{name} must be a real number in {brackets[0]}{low:g}, "
                         f"{high:g}{brackets[1]}, got {value!r}")
