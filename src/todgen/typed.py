"""One rule that turns a parsed JSON or YAML value into a typed dataclass,
driven by ``dataclasses.fields`` and the field annotations. Config loading
and schema loading both use it."""

from __future__ import annotations

import datetime as dt
from dataclasses import MISSING, fields, is_dataclass
from functools import cache
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

__all__ = ["BuildError", "build"]


class BuildError(ValueError):
    """A value that does not fit its field, named by its ``path``;
    ``unknown`` lists the keys a mapping has and its dataclass does not."""

    def __init__(self, path: tuple, message: str, unknown: tuple = ()):
        self.path = path
        self.unknown = unknown
        where = "".join(f"[{p}]" if isinstance(p, int) else f".{p}"
                        for p in path).lstrip(".")  # slots[0].name
        super().__init__(f"{where}: {message}" if path else message)


# per annotation, the other types its value may have
_STAND_INS = {float: (int,), str: (Path,)}
# an annotation as an error message names it
_NAMES = {int: "integer", float: "number", str: "string", bool: "boolean"}


def build(tp, value, path: tuple = ()):
    """``value`` as the value of a field annotated ``tp``: a mapping becomes
    the dataclass ``tp`` and a list a tuple, item by item. Any other value
    must be an instance of its annotation; an int may stand for a float and
    a ``Path`` for a string, a bool for nothing else."""
    if get_origin(tp) is tuple:
        if isinstance(value, (list, tuple)):
            types = get_args(tp)
            if types[1:] == (...,):
                types = types[:1] * len(value)
            if len(types) == len(value) and all(map(_fits, value, types)):
                return tuple(  # each item fits; only a mapping is built
                    _build_fields(t, v, (*path, i)) if isinstance(v, dict) else v
                    for i, (t, v) in enumerate(zip(types, value)))
    elif _fits(value, tp):
        return _build_fields(tp, value, path) if isinstance(value, dict) else value
    items = value if isinstance(value, list) else [value]
    hint = ("; YAML reads an unquoted date as a date, so write quoted ISO dates"
            if any(isinstance(v, dt.date) for v in items) else "")
    raise BuildError(path, f"expected {_describe(tp)}, got {value!r}{hint}")


@cache
def _fields(cls) -> tuple[dict, tuple]:
    """The annotation of each field of ``cls`` and the fields without a
    default; ``get_type_hints`` is slow, so this runs once per class."""
    hints = get_type_hints(cls)
    return ({f.name: hints[f.name] for f in fields(cls)},
            tuple(f.name for f in fields(cls)
                  if f.default is MISSING and f.default_factory is MISSING))


def _build_fields(cls, values: dict, path: tuple):
    """A ``cls`` from ``values``, its defaults filling the keys not given; a
    ``ValueError`` from its construction is re-raised at ``path``."""
    types, required = _fields(cls)
    unknown = tuple(sorted(str(k) for k in values if k not in types))
    if unknown:
        raise BuildError(path, f"unknown keys {list(unknown)}", unknown)
    for name in required:
        if name not in values:
            raise BuildError((*path, name), "missing required key")
    kwargs = {k: build(types[k], v, (*path, k)) for k, v in values.items()}
    try:
        return cls(**kwargs)
    except ValueError as e:
        raise BuildError(path, str(e)) from e


def _fits(value, tp) -> bool:
    if isinstance(value, dict) and is_dataclass(tp):
        return True
    if isinstance(value, bool) and tp is not bool:
        return False
    return isinstance(value, (tp, *_STAND_INS.get(tp, ())))


def _describe(tp) -> str:
    """The annotation ``tp`` as an error message names it."""
    if is_dataclass(tp):
        return "mapping"
    if get_origin(tp) is not tuple:
        return _NAMES[tp]
    item, *rest = get_args(tp)
    count = "" if rest == [...] else f"{len(rest) + 1} "
    return f"list of {count}{_describe(item)}s"
