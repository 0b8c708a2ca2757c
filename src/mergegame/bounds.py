"""The range and integer checks that settings dataclasses run on their fields."""

from __future__ import annotations

import operator
from numbers import Integral

__all__ = ["check", "check_integer"]

_RULES = {">": operator.gt, ">=": operator.ge, "<": operator.lt}


def check(where: str, obj, rule: str, bound, *names: str) -> None:
    """Raise ValueError unless getattr(obj, name) <rule> bound holds for every
    name, rule being ">", ">=" or "<"; the message names where (the section,
    by its key in a scenario file) and the field. The test is negated, so NaN
    fails every rule: ">=" with bound -inf rejects NaN and nothing else.
    """
    holds = _RULES[rule]
    for name in names:
        value = getattr(obj, name)
        if not holds(value, bound):
            raise ValueError(f"{where} {name} must be {rule} {bound}, got {value!r}")


def check_integer(where: str, **values) -> None:
    """Raise ValueError unless every value is an int, Python's or numpy's,
    and not a bool; the message names where (the section, by its key in a
    scenario file) and the field."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise ValueError(f"{where} {name} must be an integer, got {value!r}")
