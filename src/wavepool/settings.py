"""The one rule that turns values from outside the program into settings:
``typed`` checks one value against its annotation, ``decode`` builds a
settings dataclass from a JSON object, ``check_fields`` checks a built one."""

from __future__ import annotations

import dataclasses
import numbers
import sys
import types
import typing

from .errors import ConfigError

_SCALARS = {  # annotation: (description, test)
    bool: ("true or false", lambda v: isinstance(v, bool)),
    str: ("a string", lambda v: isinstance(v, str)),
    int: ("an integer", lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool)),
    # NaN fails the comparison, and an integer past the float range fails it
    # exactly, where converting it would raise OverflowError
    float: ("a finite number", lambda v: isinstance(v, numbers.Real)
            and not isinstance(v, bool) and abs(v) <= sys.float_info.max),
}


def typed(hint, value, where: str, error: type[Exception]):
    """``value`` in the stored form of ``hint``: an integer that is not a bool, a
    finite number as float, a list as a tuple of the element type, a JSON
    object as the nested dataclass. A mismatch raises ``error`` naming ``where``."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        (hint,) = set(args) - {type(None)}
        return None if value is None else typed(hint, value, where, error)
    if dataclasses.is_dataclass(hint):
        return decode(hint, value, where, error=error)
    if origin is tuple:
        size = None if args[-1] is Ellipsis else len(args)
        if not isinstance(value, (list, tuple)) or size not in (None, len(value)):
            raise error(f"{where} must be a list{f' of {size} items' if size else ''}, got {value!r}")
        kinds = args if size else args[:1] * len(value)
        return tuple(typed(kind, item, f"{where}[{i}]", error)
                     for i, (kind, item) in enumerate(zip(kinds, value)))
    kind, accepts = _SCALARS[hint]
    if not accepts(value):
        raise error(f"{where} must be {kind}, got {value!r}")
    return float(value) if hint is float else value


def decode(cls, data, where: str, flags=None, fixed: dict | None = None,
           error: type[Exception] = ConfigError):
    """The dataclass ``cls`` built from ``data``, the JSON object named ``where``. A
    field takes its ``fixed`` value, which ``data`` may not name; else the non-None
    attribute of that name of ``flags`` (parsed args); else ``data``'s; else its default."""
    if not isinstance(data, dict):
        raise error(f"'{where}' must be an object, got {data!r}")
    fixed = fixed or {}
    fields = [f for f in dataclasses.fields(cls) if f.name not in fixed]
    names = [f.name for f in fields]
    unknown = sorted(set(data) - set(names))
    if unknown:
        raise error(f"'{where}' has unknown keys {unknown}; accepted: {names}")
    values = {**data, **{name: getattr(flags, name) for name in names
                         if getattr(flags, name, None) is not None}}
    missing = [f.name for f in fields if f.name not in values
               and f.default is f.default_factory is dataclasses.MISSING]
    if missing:
        raise error(f"'{where}' lacks keys {missing}")
    hints = typing.get_type_hints(cls)
    return cls(**{name: typed(hints[name], value, f"{where}.{name}", error)
                  for name, value in values.items()}, **fixed)


def check_fields(obj, error: type[Exception]) -> None:
    """Check every field of the frozen dataclass ``obj``, storing the typed values."""
    hints = typing.get_type_hints(type(obj))
    for f in dataclasses.fields(obj):
        value = typed(hints[f.name], getattr(obj, f.name), f"{type(obj).__name__}.{f.name}", error)
        object.__setattr__(obj, f.name, value)
