"""Type checks shared by the config dataclasses of features, model and training."""

from __future__ import annotations

import numbers


def is_integer(value) -> bool:
    """An int (numpy integers included), but not a bool or an integral float."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """An int or a float (numpy scalars included), but not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)
