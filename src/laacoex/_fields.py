"""Type rules for the scalar fields of the parameter dataclasses, and the
key rule of the mappings they are read from."""
from __future__ import annotations

import sys
from dataclasses import fields
from functools import cache

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


@cache
def _typed_fields(cls) -> tuple[tuple[str, str], ...]:
    """(name, kind) of every int, float and bool field of a dataclass."""
    kinds = ((f.name, getattr(f.type, "__name__", f.type)) for f in fields(cls))
    return tuple((name, kind) for name, kind in kinds if kind in _RULES)


def check_field_types(obj) -> None:
    """check_value on every int, float and bool field of a dataclass."""
    for name, kind in _typed_fields(type(obj)):
        check_value(name, kind, getattr(obj, name))


def check_keys(mapping, where: str, allowed, required=()) -> None:
    """Raise ValueError unless ``mapping`` is a dict whose keys all lie in
    ``allowed`` and include each of ``required``, named in that order."""
    if not isinstance(mapping, dict):
        raise ValueError(f"{where} must be a mapping")
    unknown = set(mapping).difference(allowed)
    if unknown:
        raise ValueError(f"unknown field {sorted(unknown)[0]!r} in {where}")
    for key in required:
        if key not in mapping:
            raise ValueError(f"missing field {key!r} in {where}")
