"""One codec between frozen config dataclasses, JSON files and a schema.

Everything is driven by ``dataclasses.fields`` and the resolved type hints:
nested dataclasses recurse, tuples travel as lists, omitted keys take the
field defaults, and unknown keys are rejected by name.
"""

from __future__ import annotations

import dataclasses
import json
import types
import typing
from pathlib import Path


def to_dict(cfg) -> dict:
    """Plain nested dict of a dataclass instance; tuples become lists."""
    return {f.name: _encode(getattr(cfg, f.name)) for f in dataclasses.fields(cfg)}


def from_dict(cls, raw: dict):
    """Build dataclass ``cls`` from a dict produced by :func:`to_dict` or JSON."""
    hints = typing.get_type_hints(cls)
    unknown = sorted(set(raw) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        owner = f"{cls.__name__} {raw['name']!r}" if "name" in raw else cls.__name__
        raise ValueError(f"{owner}: unknown key(s) {', '.join(unknown)}")
    return cls(**{k: _decode(hints[k], v) for k, v in raw.items()})


def schema(obj) -> dict:
    """Every field of a dataclass (or instance) as ``"type = default"``; nested
    dataclasses expand in place, a tuple of them as a one-element list."""
    hints = typing.get_type_hints(obj if isinstance(obj, type) else type(obj))
    out = {}
    for f in dataclasses.fields(obj):
        hint, default = hints[f.name], getattr(obj, f.name, dataclasses.MISSING)
        tp = _optional(hint)
        item = typing.get_args(tp)[0] if typing.get_origin(tp) is tuple else None
        if dataclasses.is_dataclass(tp):
            out[f.name] = schema(tp if default is dataclasses.MISSING else default)
        elif dataclasses.is_dataclass(item):
            out[f.name] = [schema(item)]
        else:
            name = hint.__name__ if isinstance(hint, type) else str(hint)
            out[f.name] = name if default is dataclasses.MISSING else f"{name} = {default!r}"
    return out


def write_json(path: Path, payload: dict) -> None:
    """Write ``payload`` as indented, key-sorted JSON ending in a newline."""
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _encode(v):
    if dataclasses.is_dataclass(v):
        return to_dict(v)
    if isinstance(v, (tuple, list)):
        return [_encode(x) for x in v]
    return v


def _optional(tp):
    """``X`` for ``X | None``; any other type unchanged."""
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        return next(a for a in typing.get_args(tp) if a is not type(None))
    return tp


def _decode(tp, v):
    tp = _optional(tp)
    if v is None:
        return None
    if dataclasses.is_dataclass(tp):
        return from_dict(tp, v)
    if typing.get_origin(tp) is tuple:
        return tuple(_decode(typing.get_args(tp)[0], x) for x in v)
    return float(v) if tp is float else v
