"""The one check and the one JSON builder of the config dataclasses.

A field's type comes from its annotation and its range from its declaration
(`ranged`). Errors read `<field>: must be …, got …`: field names are unique
across the config sections, so the bare name is enough.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import typing
from enum import Enum

_PAIR = tuple[int, int]
_MAX = sys.float_info.max


def ranged(default, test, rule: str):
    """A dataclass field whose values must pass `test`, written so that NaN
    fails; `rule` completes "must be …" in the error."""
    return dataclasses.field(default=default, metadata={"range": (test, rule)})


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


_TYPES = {
    bool: (lambda v: isinstance(v, bool), "true or false"),
    int: (_is_int, "an int"),
    # an int counts, and is kept as given, so to_dict writes it back unchanged;
    # the bounds reject NaN, the infinities and ints that no float can hold
    float: (lambda v: (_is_int(v) or isinstance(v, float)) and -_MAX <= v <= _MAX, "a finite number"),
    _PAIR: (lambda v: isinstance(v, tuple) and len(v) == 2 and all(map(_is_int, v)), "a pair of ints"),
}


def _type_check(name: str, tp):
    if tp in _TYPES:
        return _TYPES[tp]
    if isinstance(tp, type) and issubclass(tp, Enum):
        return (lambda v: isinstance(v, tp)), "one of " + ", ".join(str(m.value) for m in tp)
    if dataclasses.is_dataclass(tp):
        return (lambda v: isinstance(v, tp)), f"a {tp.__name__}"
    raise TypeError(f"{name}: no check for a field annotated {tp!r}")


@functools.cache
def field_table(cls) -> dict:
    """Field name -> (annotation, type test, type name, range or None),
    derived once per config class."""
    hints = typing.get_type_hints(cls)
    return {
        f.name: (hints[f.name], *_type_check(f.name, hints[f.name]), f.metadata.get("range"))
        for f in dataclasses.fields(cls)
    }


def check_fields(config, error=ValueError) -> None:
    """Raises `error` naming the first field whose value has the wrong type
    or is out of its range."""
    for name, (_, is_type, type_name, bounds) in field_table(type(config)).items():
        value = getattr(config, name)
        if not is_type(value):
            raise error(f"{name}: must be {type_name}, got {value!r}")
        if bounds is not None and not bounds[0](value):
            raise error(f"{name}: must be {bounds[1]}, got {value!r}")


def from_json(cls, data, name: str = "config"):
    """The config `cls` of a parsed JSON object: nested sections, enums and
    pairs become their types, and an unknown key or a section that is not
    an object raises ValueError naming it."""
    if not isinstance(data, dict):
        raise ValueError(f"{name}: must be a JSON object, got {data!r}")
    table = field_table(cls)
    values = {}
    for key, value in data.items():
        if key not in table:
            raise ValueError(f"{key}: not a field of {cls.__name__}")
        tp = table[key][0]
        if dataclasses.is_dataclass(tp):
            value = from_json(tp, value, key)
        elif isinstance(tp, type) and issubclass(tp, Enum):
            value = next((m for m in tp if m.value == value), value)
        elif tp == _PAIR and isinstance(value, list):
            value = tuple(value)
        values[key] = value
    return cls(**values)
