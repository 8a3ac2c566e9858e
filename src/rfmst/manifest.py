"""Readers for the model and corpus loaders; every error names the manifest."""
from __future__ import annotations

import dataclasses
import json

import numpy as np


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
    the file holds exactly its bytes (np.fromfile drops a trailing partial
    value, so the size is checked first)."""
    file = path.parent / name
    n_bytes = np.dtype(dtype).itemsize * int(np.prod(shape))
    size = file.stat().st_size
    if size != n_bytes:
        raise ValueError(f"{path}: {file} has {size} bytes, expected "
                         f"{n_bytes} for {tuple(shape)} {dtype}")
    return np.fromfile(file, dtype=dtype).reshape(shape)


def build(cls, fields: dict, path, **convert):
    """Dataclass cls from a manifest's fields, whose keys must be exactly
    cls's init fields; convert maps a key to a function of its value.
    A ValueError from cls's own checks gets the manifest's path too."""
    _check_keys(cls.__name__, fields,
                [f.name for f in dataclasses.fields(cls) if f.init], path)
    values = {k: convert[k](v) if k in convert else v
              for k, v in fields.items()}
    try:
        return cls(**values)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err
