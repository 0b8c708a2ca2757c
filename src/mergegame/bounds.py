"""The number, range and integer checks that settings dataclasses run on their
fields, and MAX_STATES, the bound on the vehicle states of one rollout."""

from __future__ import annotations

import math
import operator
from numbers import Integral, Real

__all__ = ["MAX_STATES", "check", "check_finite", "check_integer"]

# The bound on K * V, the vehicle states of one rollout substep for K action
# tuples of V vehicles: it keeps forward_sim's packed surrounding-vehicle keys
# (below 2 n^3 for n states) inside int64. simulate_batch rejects a batch at
# or above it, and enumerate_ego_sequences a decision tree that no roster
# could roll out below it
MAX_STATES = 2 ** 20

_RULES = {">": operator.gt, ">=": operator.ge, "<": operator.lt}


def check_finite(where: str, obj, *names: str) -> None:
    """Raise ValueError unless getattr(obj, name) is a finite real number
    (not NaN, not +-inf, not a string or None) for every name; the message
    names where (the section, by its key in a scenario file) and the field."""
    for name in names:
        value = getattr(obj, name)
        if not (isinstance(value, Real) and abs(value) < math.inf):
            raise ValueError(f"{where} {name} must be a finite number, got {value!r}")


def check(where: str, obj, rule: str, bound, *names: str) -> None:
    """Raise ValueError unless getattr(obj, name) is a finite real number and
    <rule> bound holds for every name, rule being ">", ">=" or "<"; the
    message names where and the field as check_finite's does. NaN is left to
    the rule, whose test is negated so that NaN fails it: the message then
    names the rule.
    """
    holds = _RULES[rule]
    for name in names:
        value = getattr(obj, name)
        if value == value:   # everything but NaN
            check_finite(where, obj, name)
        if not holds(value, bound):
            raise ValueError(f"{where} {name} must be {rule} {bound}, got {value!r}")


def check_integer(where: str, **values) -> None:
    """Raise ValueError unless every value is an int, Python's or numpy's,
    and not a bool; the message names where (the section, by its key in a
    scenario file) and the field."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise ValueError(f"{where} {name} must be an integer, got {value!r}")
