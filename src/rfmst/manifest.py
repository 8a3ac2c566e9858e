"""Checks shared by the loaders of saved models and corpora."""
from __future__ import annotations

import dataclasses


def checked_fields(cls, fields: dict, path) -> dict:
    """fields, once its keys are exactly the init fields of dataclass cls.

    A key the manifest holds that cls lacks, or one cls needs that the
    manifest lacks, raises ValueError naming the manifest and the key,
    instead of a bare TypeError from cls(**fields) or a silent default.
    """
    names = [f.name for f in dataclasses.fields(cls) if f.init]
    for key in fields:
        if key not in names:
            raise ValueError(f"{path}: unknown {cls.__name__} key {key!r}")
    for key in names:
        if key not in fields:
            raise ValueError(f"{path}: {cls.__name__} key {key!r} is missing")
    return fields
