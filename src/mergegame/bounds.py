"""The range check that every settings dataclass runs on its fields."""

from __future__ import annotations

import operator

__all__ = ["check"]

_RULES = {">": operator.gt, ">=": operator.ge, "<": operator.lt}


def check(where: str, obj, rule: str, bound, *names: str) -> None:
    """Raise ValueError unless getattr(obj, name) <rule> bound holds for every
    name, rule being ">", ">=" or "<"; the message names where (the section
    or class) and the field. The test is negated, so NaN fails every rule:
    ">=" with bound -inf rejects NaN and nothing else.
    """
    holds = _RULES[rule]
    for name in names:
        value = getattr(obj, name)
        if not holds(value, bound):
            raise ValueError(f"{where} {name} must be {rule} {bound}, got {value!r}")
