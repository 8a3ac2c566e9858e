"""Field checks: as_count for the integer counts every constructor takes,
and readers for the model and corpus loaders, whose errors name the
manifest."""
from __future__ import annotations

import dataclasses
import functools
import json
import typing

import numpy as np

# the JSON value types a field declared int, float or str accepts; a JSON
# true or false is a bool, which is neither number
_JSON_TYPES = {int: (int,), float: (int, float), str: (str,)}
_type_hints = functools.cache(typing.get_type_hints)


def as_count(name: str, value) -> int:
    """value as an int, if it is a Python or numpy integer; anything else,
    a float or a bool included, raises ValueError naming `name`."""
    if type(value) is int:      # the common case, at a quarter of the cost
        return value
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _json_types(hint):
    """The JSON value types a field declared `hint` accepts, or None if
    build does not check it."""
    args = typing.get_args(hint)
    if len(args) == 2 and type(None) in args:      # X | None
        (inner,) = (a for a in args if a is not type(None))
        allowed = _JSON_TYPES.get(inner)
        return None if allowed is None else (*allowed, type(None))
    return _JSON_TYPES.get(hint)


def _check_keys(what: str, fields: dict, names, path) -> None:
    for key in fields:
        if key not in names:
            raise ValueError(f"{path}: unknown {what} key {key!r}")
    for key in names:
        if key not in fields:
            raise ValueError(f"{path}: {what} key {key!r} is missing")


def read_manifest(path, keys) -> dict:
    """The JSON object at path, once its keys are exactly `keys`."""
    fields = json.loads(path.read_text())
    _check_keys("manifest", fields, keys, path)
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
    """Dataclass cls from a manifest's fields, whose keys must be exactly
    cls's init fields; convert maps a key to a function of its value.
    A value of a field declared int, float or str must have that JSON type
    (an int will do for a float), and one of a field declared X | None
    that of X or JSON null.  A ValueError from cls's own checks gets the
    manifest's path too."""
    _check_keys(cls.__name__, fields,
                [f.name for f in dataclasses.fields(cls) if f.init], path)
    hints = _type_hints(cls)
    for key, value in fields.items():
        hint = hints[key]
        allowed = _json_types(hint)
        if allowed is not None and type(value) not in allowed:
            name = hint.__name__ if isinstance(hint, type) else hint
            raise ValueError(f"{path}: {cls.__name__} {key} {value!r} is "
                             f"not of type {name}")
    values = {k: convert[k](v) if k in convert else v
              for k, v in fields.items()}
    try:
        return cls(**values)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err
