"""Type rules for the scalar fields of the parameter dataclasses."""
from __future__ import annotations

import sys
from dataclasses import fields

# annotation -> accepted types and the phrase an error names them by
_RULES = {"int": ((int,), "an integer"),
          "float": ((int, float), "a finite number"),
          "bool": ((bool,), "true or false")}


def check_value(name: str, kind: str, value) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is of ``kind``;
    a bool is no number, and a number must fit a float (no inf or nan)."""
    types, phrase = _RULES[kind]
    ok = isinstance(value, types)
    if ok and kind != "bool":
        ok = not isinstance(value, bool) and abs(value) <= sys.float_info.max
    if not ok:
        raise ValueError(f"{name} must be {phrase}, got {value!r}")


def check_field_types(obj) -> None:
    """check_value on every int, float and bool field of a dataclass."""
    for f in fields(obj):
        kind = getattr(f.type, "__name__", f.type)
        if kind in _RULES:
            check_value(f.name, kind, getattr(obj, f.name))
