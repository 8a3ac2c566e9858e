import functools
import json
import operator

import pytest

from rfmst.manifest import write_manifest


def _resign(out, edit):
    """Apply edit, a function of the JSON object, to the manifest saved in
    the directory out, and sign the result as write_manifest does, as an
    editor could: a load then reaches the field rules behind the digest."""
    manifest = json.loads((out / "manifest.json").read_text())
    del manifest["digest"]
    edit(manifest)
    write_manifest(out, manifest)


def _leaves(value, keys=()):
    """The path of each leaf of a JSON value: of each value in it that is
    not a non-empty list or object."""
    if value and type(value) in (dict, list):
        items = value.items() if type(value) is dict else enumerate(value)
        for key, item in items:
            yield from _leaves(item, (*keys, key))
    else:
        yield keys


def _unsigned_edits(out):
    """Set each leaf of the manifest saved in the directory out, one at a
    time, to a value of another JSON type and write it without signing it,
    yielding the leaf's path while the file holds that edit; the file is
    as saved again at the end."""
    path = out / "manifest.json"
    saved = path.read_text()
    for keys in _leaves(json.loads(saved)):
        manifest = json.loads(saved)
        *parents, last = keys
        parent = functools.reduce(operator.getitem, parents, manifest)
        parent[last] = 0 if parent[last] is None else None
        path.write_text(json.dumps(manifest))
        yield keys
    path.write_text(saved)


@pytest.fixture
def resign():
    return _resign


@pytest.fixture
def unsigned_edits():
    return _unsigned_edits
