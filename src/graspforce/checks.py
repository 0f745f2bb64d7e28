"""The one type-and-bound check of config records; imports nothing from the package."""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers

# Lower bounds as (bound, inclusive) pairs.
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


def check_fields(record, lower: dict[str, tuple[float, bool]] | None = None) -> None:
    """Check each scalar init field of a dataclass record by its annotation.

    ``float`` is a finite real number, ``float | None`` the same or None,
    ``int`` an integer, and none of them a bool; ``bool`` is True or False.
    Other annotations are skipped. Annotations are read as strings, so the
    record's module starts with ``from __future__ import annotations``.
    lower maps a field name to (bound, inclusive), a bound the value must
    reach (inclusive) or exceed. Raises ValueError starting with the name.
    """
    for name, kind in _checked_fields(type(record)):
        value = getattr(record, name)
        bound, inclusive = (lower or {}).get(name, (None, True))
        if (value is None and kind == "float | None") or _has_kind(value, kind) and (
            bound is None or (value >= bound if inclusive else value > bound)
        ):
            continue
        need = _KINDS[kind]
        if bound is not None:
            need += f" {'>=' if inclusive else '>'} {bound:g}"
        raise ValueError(f"{name} must be {need}, got {value!r}")
