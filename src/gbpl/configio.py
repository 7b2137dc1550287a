"""One codec between frozen config dataclasses, JSON files, flags and a schema.

Everything is driven by ``dataclasses.fields`` and the resolved type hints:
nested dataclasses recurse, tuples travel as lists, omitted keys take the
field defaults, and unknown keys, missing required keys and wrongly typed
values are rejected by name.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import numbers
import types
import typing
from pathlib import Path


def to_dict(cfg) -> dict:
    """Plain nested dict of a dataclass instance; tuples become lists."""
    return {f.name: _encode(getattr(cfg, f.name)) for f in dataclasses.fields(cfg)}


def from_dict(cls, raw: dict):
    """Build dataclass ``cls`` from a dict produced by :func:`to_dict` or JSON."""
    if not isinstance(raw, dict):
        raise ValueError(f"{cls.__name__} must be a JSON object, got {raw!r}")
    hints = typing.get_type_hints(cls)
    owner = f"{cls.__name__} {raw['name']!r}" if "name" in raw else cls.__name__
    fields = dataclasses.fields(cls)
    unknown = sorted(set(raw) - {f.name for f in fields})
    if unknown:
        raise ValueError(f"{owner}: unknown key(s) {', '.join(unknown)}")
    missing = [f.name for f in fields if f.name not in raw and f.default is dataclasses.MISSING]
    if missing:
        raise ValueError(f"{owner}: missing key(s) {', '.join(missing)}")
    return cls(**{k: _decode(hints[k], v, f"{owner}: {k}") for k, v in raw.items()})


def schema(obj) -> dict:
    """Every field of a dataclass (or instance) as ``"type = default"``; nested
    dataclasses expand in place, a tuple of them as a one-element list."""
    out = {}
    for path, hint, default in _leaves(obj):
        name = hint.__name__ if isinstance(hint, type) else str(hint)
        if dataclasses.is_dataclass(_item(hint)):
            _put(out, path, [schema(_item(hint))])
        else:
            _put(out, path, name if default is dataclasses.MISSING else f"{name} = {default!r}")
    return out


def add_flags(parser: argparse.ArgumentParser, obj, skip=()) -> None:
    """A ``--kebab-name`` flag per leaf field of dataclass ``obj`` (a class or an
    instance) not in ``skip``, defaulting to its value there or else required.
    Leaves of one name share a flag, so they must share a default."""
    seen = {}
    for path, hint, default in _leaves(obj):
        name = path[-1]
        if seen.get(name, default) != default:
            raise ValueError(f"{'.'.join(path)} defaults to {default!r}, "
                             f"another {name} to {seen[name]!r}")
        if name in seen or name in skip:
            continue
        seen[name] = default
        item = _item(hint)
        opts = ({"required": True} if default is dataclasses.MISSING
                else {"default": default, "help": "default: %(default)s"})
        parser.add_argument("--" + name.replace("_", "-"), type=item or _optional(hint),
                            nargs="*" if item else None, **opts)


def from_args(cls, args: argparse.Namespace, **fixed):
    """Dataclass ``cls`` from :func:`add_flags` flags and top-level ``fixed``
    fields, decoded by :func:`from_dict`; leaves without a flag keep defaults."""
    raw = {}
    for path, _, default in _leaves(cls):
        value = vars(args).get(path[-1], default)
        if value is not dataclasses.MISSING:
            _put(raw, path, value)
    return from_dict(cls, {**raw, **fixed})


def read_json(path: str | Path) -> dict:
    """The JSON object in file ``path``; a malformed file or one that holds
    another JSON value raises ``ValueError`` naming the file."""
    try:
        raw = json.loads(Path(path).read_text())
    except ValueError as err:
        raise ValueError(f"{path}: malformed JSON: {err}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(raw).__name__}")
    return raw


def write_json(path: Path, payload: dict) -> None:
    """Write ``payload`` as indented, key-sorted JSON, creating missing directories."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _encode(v):
    if dataclasses.is_dataclass(v):
        return to_dict(v)
    if isinstance(v, (tuple, list)):
        return [_encode(x) for x in v]
    return v


def _leaves(obj):
    """(path, type hint, default or ``MISSING``) of each non-dataclass field
    under dataclass ``obj``, depth first."""
    hints = typing.get_type_hints(obj if isinstance(obj, type) else type(obj))
    for f in dataclasses.fields(obj):
        default = getattr(obj, f.name, dataclasses.MISSING)
        if dataclasses.is_dataclass(hints[f.name]):
            node = hints[f.name] if default is dataclasses.MISSING else default
            for path, hint, leaf in _leaves(node):
                yield (f.name, *path), hint, leaf
        else:
            yield (f.name,), hints[f.name], default


def _put(tree: dict, path: tuple, value) -> None:
    for key in path[:-1]:
        tree = tree.setdefault(key, {})
    tree[path[-1]] = value


def _optional(tp):
    """``X`` for ``X | None``; any other type unchanged."""
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        return next(a for a in typing.get_args(tp) if a is not type(None))
    return tp


def _item(tp):
    """The item type of ``tuple[X, ...]`` (or of ``tuple[X, ...] | None``), else None."""
    tp = _optional(tp)
    return typing.get_args(tp)[0] if typing.get_origin(tp) is tuple else None


def _decode(tp, v, where: str):
    """``v`` as type ``tp``, else a ``ValueError`` naming ``where``; no number
    field takes a bool or a non-finite number (NaN, inf), and an int field
    takes only integral numbers."""
    if v is None and _optional(tp) is not tp:
        return None
    tp = _optional(tp)
    if dataclasses.is_dataclass(tp):
        if isinstance(v, dict):
            return from_dict(tp, v)
    elif _item(tp):
        if isinstance(v, (list, tuple)):
            return tuple(_decode(_item(tp), x, where) for x in v)
    elif not isinstance(v, bool) and isinstance(v, numbers.Real if tp in (int, float) else tp):
        if tp is float and not math.isfinite(v):
            raise ValueError(f"{where} must be finite, got {v!r}")
        if tp is not int or float(v).is_integer():
            return tp(v)
    raise ValueError(f"{where} must be {getattr(tp, '__name__', tp)}, got {v!r}")
