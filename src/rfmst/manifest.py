"""Field checks: as_count for the integer counts every constructor takes,
and readers for the model and corpus loaders, whose errors name the
manifest."""
from __future__ import annotations

import dataclasses
import functools
import json
import reprlib
import typing

import numpy as np

# the JSON value types a field declared int, float, str, list or dict
# accepts; a JSON true or false is a bool, which is neither number
_JSON_TYPES = {int: (int,), float: (int, float), str: (str,), list: (list,),
               dict: (dict,)}
_type_hints = functools.cache(typing.get_type_hints)


def as_count(name: str, value) -> int:
    """value as an int, if it is a Python or numpy integer; anything else,
    a float or a bool included, raises ValueError naming `name`."""
    if type(value) is int:      # the common case, at a quarter of the cost
        return value
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _fits(hint, value) -> bool:
    """Whether a JSON value has the type `hint` declares: one of
    _JSON_TYPES, list[X] of those, or X | None; any other hint takes every
    value."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is list:
        return type(value) is list and all(_fits(args[0], v) for v in value)
    if len(args) == 2 and type(None) in args:      # X | None
        (inner,) = (a for a in args if a is not type(None))
        return value is None or _fits(inner, value)
    return type(value) in _JSON_TYPES.get(hint, (type(value),))


def _type_error(path, what: str, value, hint) -> ValueError:
    name = hint.__name__ if type(hint) is type else hint
    return ValueError(f"{path}: {what} {reprlib.repr(value)} is not of type "
                      f"{name}")


def _check_keys(what: str, fields, names, path) -> None:
    if type(fields) is not dict:
        raise ValueError(f"{path}: {what} {reprlib.repr(fields)} is not an "
                         "object")
    for key in fields:
        if key not in names:
            raise ValueError(f"{path}: unknown {what} key {key!r}")
    for key in names:
        if key not in fields:
            raise ValueError(f"{path}: {what} key {key!r} is missing")


def read_manifest(path, keys, **hints) -> dict:
    """The JSON object at path, once its keys are exactly `keys` and the
    value of each key named in hints has that type (see _fits)."""
    try:
        fields = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise ValueError(f"{path}: {err}") from err
    _check_keys("manifest", fields, keys, path)
    for key, hint in hints.items():
        if not _fits(hint, fields[key]):
            raise _type_error(path, f"manifest {key}", fields[key], hint)
    return fields


def read_array(path, name: str, dtype: str, shape) -> np.ndarray:
    """The array in the raw file `name` beside the manifest at path, once
    the file exists and holds exactly its bytes (np.fromfile drops a
    trailing partial value, so the size is checked first)."""
    if not all(type(n) is int and n >= 0 for n in shape):
        raise ValueError(f"{path}: {name} shape {tuple(shape)} is not one "
                         "of non-negative integers")
    file = path.parent / name
    n_bytes = np.dtype(dtype).itemsize * int(np.prod(shape))
    if not file.is_file():
        raise ValueError(f"{path}: {file} is missing")
    size = file.stat().st_size
    if size != n_bytes:
        raise ValueError(f"{path}: {file} has {size} bytes, expected "
                         f"{n_bytes} for {tuple(shape)} {dtype}")
    return np.fromfile(file, dtype=dtype).reshape(shape)


def build(cls, fields: dict, path, **convert):
    """Dataclass cls from a manifest's JSON object `fields`, whose keys must
    be exactly cls's init fields.  A field declared as a dataclass is built
    from its own object, and any other value must have the JSON type its
    field declares (see _fits); convert maps a key to a function of its
    value.  A ValueError from cls's own checks, or a TypeError or
    ValueError from a converter, gets the manifest's path too."""
    _check_keys(cls.__name__, fields,
                [f.name for f in dataclasses.fields(cls) if f.init], path)
    hints = _type_hints(cls)
    values = {}
    for key, value in fields.items():
        hint = hints[key]
        if dataclasses.is_dataclass(hint) and type(value) is not hint:
            value = build(hint, value, path)
        elif not _fits(hint, value):
            raise _type_error(path, f"{cls.__name__} {key}", value, hint)
        elif key in convert:
            try:
                value = convert[key](value)
            except (TypeError, ValueError) as err:
                raise ValueError(f"{path}: {cls.__name__} {key} "
                                 f"{reprlib.repr(value)}: {err}") from err
        values[key] = value
    try:
        return cls(**values)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err
