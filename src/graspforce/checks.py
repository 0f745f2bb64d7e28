"""The one type-and-bound check of config records; imports nothing from the package."""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers

# Lower bounds as (bound, inclusive) pairs; upper bounds take the same form.
POSITIVE = (0.0, False)
NON_NEGATIVE = (0.0, True)
_KINDS = {"float": "a finite number", "float | None": "null or a finite number",
          "int": "an integer", "bool": "true or false"}


@functools.cache
def _checked_fields(cls) -> tuple[tuple[str, str], ...]:
    return tuple((f.name, f.type) for f in dataclasses.fields(cls) if f.init and f.type in _KINDS)


def _has_kind(value, kind: str) -> bool:
    if kind == "bool" or isinstance(value, bool):
        return kind == "bool" and isinstance(value, bool)
    if kind == "int":
        return isinstance(value, numbers.Integral)
    try:
        return isinstance(value, numbers.Real) and math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def check_fields(record, lower: dict[str, tuple[float, bool]] | None = None,
                 upper: dict[str, tuple[float, bool]] | None = None) -> None:
    """Check each scalar init field of a dataclass record by its annotation.

    ``float`` is a finite real number, ``float | None`` the same or None,
    ``int`` an integer, and none of them a bool; ``bool`` is True or False.
    Other annotations are skipped. Annotations are read as strings, so the
    record's module starts with ``from __future__ import annotations``.
    lower maps a field name to (bound, inclusive), a bound the value must
    reach (inclusive) or exceed; upper likewise to a bound the value must
    not pass (inclusive) or must stay below. Raises ValueError starting
    with the name.
    """
    for name, kind in _checked_fields(type(record)):
        value = getattr(record, name)
        low, low_inclusive = (lower or {}).get(name, (None, True))
        high, high_inclusive = (upper or {}).get(name, (None, True))
        if (value is None and kind == "float | None") or _has_kind(value, kind) and (
            low is None or (value >= low if low_inclusive else value > low)
        ) and (high is None or (value <= high if high_inclusive else value < high)):
            continue
        need = _KINDS[kind]
        if low is not None:
            need += f" {'>=' if low_inclusive else '>'} {low:.15g}"
        if high is not None:
            joint = " and" if low is not None else ""
            need += f"{joint} {'<=' if high_inclusive else '<'} {high:.15g}"
        raise ValueError(f"{name} must be {need}, got {value!r}")
