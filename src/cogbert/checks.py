"""Type and memory checks shared by the config dataclasses of features, model and training."""

from __future__ import annotations

import dataclasses
import numbers
import sys

from .errors import ConfigError


def is_integer(value) -> bool:
    """An int (numpy integers included), but not a bool or an integral float."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_finite_number(value) -> bool:
    """An int or a float (numpy scalars included) of finite float value, but not a bool."""
    # A comparison, not math.isfinite, which overflows on an int beyond the float range.
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


# What each field annotation of a config dataclass admits, and how a message names it.
_FIELD_TYPES = {"int": (is_integer, "an integer"), "float": (_is_finite_number, "a finite number"),
                "str": (lambda value: isinstance(value, str), "a string")}


MEMORY_BUDGET = 4 << 30  # bytes; a config estimated to need more is rejected


def check_memory(terms: dict[str, int]) -> None:
    """Raise a ConfigError when a config's estimated bytes, the sum of terms keyed
    by the fields each grows with, exceed MEMORY_BUDGET; the message names the
    fields of the largest term."""
    total = sum(terms.values())
    if total > MEMORY_BUDGET:
        size = f"{total / 2**30:.3g} GiB" if total.bit_length() < 1000 else "over 2^1000 bytes"
        raise ConfigError(f"estimated memory of {size} exceeds the {MEMORY_BUDGET >> 30} GiB "
                          f"budget; it grows with {max(terms, key=terms.get)}")


def check_field_types(config) -> None:
    """Raise a ConfigError naming the first field of a config dataclass whose
    value is not of its annotated type (see _FIELD_TYPES)."""
    for field in dataclasses.fields(config):
        check, noun = _FIELD_TYPES[field.type]
        value = getattr(config, field.name)
        if not check(value):
            raise ConfigError(f"{field.name} must be {noun}, got {value!r}")
