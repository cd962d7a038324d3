"""Canonical JSON serialization for specs and result dataclasses.

One serializer shared by every structured-output surface: the CLI's
``--json`` flags, the content-addressed result store, and the sweep
cache in :func:`repro.experiments.common.fan_out`.  Two properties
matter and both are load-bearing:

* **Round-trip fidelity** — :func:`from_jsonable` inverts
  :func:`to_jsonable` *exactly*: tuples come back as tuples, dataclasses
  as the same dataclass type, dicts keep non-string keys.  A cached
  sweep cell must be indistinguishable from a freshly computed one, so
  plain ``json.dumps`` (which silently turns tuples into lists and
  tuple-keyed dicts into errors) is not enough.  Non-JSON shapes are
  encoded as tagged objects ``{"__repro__": <kind>, ...}``.
* **Canonical form** — :func:`canonical_json` emits a byte-stable
  encoding (sorted keys, fixed separators) so that
  :func:`fingerprint` is a pure function of the value: the same spec
  always hashes to the same content address, across processes and runs.

:func:`write_json_atomic` is the one temp-file-and-rename write behind
every JSON file the package persists (store blobs, the calibration
table, campaign manifests, recorded traces).

Dataclass reconstruction imports the recorded ``module:qualname`` and is
restricted to this package (``repro.``) plus the test trees — a stored
blob can name types to instantiate, and we only ever instantiate our
own result dataclasses, never arbitrary imports.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib
import json
import math
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Tuple

#: Tag key marking an encoded non-JSON-native value.
TAG = "__repro__"

#: Module prefixes dataclass reconstruction is allowed to import from.
_ALLOWED_MODULE_PREFIXES = ("repro.", "tests.", "benchmarks.")


class SerializationError(TypeError):
    """Raised for values the canonical serializer does not cover."""


def _is_topology(obj: Any) -> bool:
    from repro.topology.base import BaseTopology

    return isinstance(obj, BaseTopology)


def to_jsonable(obj: Any) -> Any:
    """Encode ``obj`` into JSON-native structures, tagging what JSON lacks.

    Covers: JSON scalars, lists, tuples, sets/frozensets, dicts (any
    hashable encodable key), dataclass instances, and any
    :class:`repro.topology.base.BaseTopology` (via its kind-tagged
    spec).  Raises
    :class:`SerializationError` for anything else — silently guessing a
    representation would break fingerprint stability.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            # JSON has no literal for these; a tagged string keeps the
            # canonical encoding portable across json parsers.
            return {TAG: "float", "value": repr(obj)}
        return obj
    if isinstance(obj, list):
        return [to_jsonable(item) for item in obj]
    if isinstance(obj, tuple):
        return {TAG: "tuple", "items": [to_jsonable(item) for item in obj]}
    if isinstance(obj, (set, frozenset)):
        items = sorted(
            (to_jsonable(item) for item in obj),
            key=lambda encoded: json.dumps(encoded, sort_keys=True, default=str),
        )
        kind = "set" if isinstance(obj, set) else "frozenset"
        return {TAG: kind, "items": items}
    if isinstance(obj, dict):
        if all(isinstance(k, str) for k in obj) and TAG not in obj:
            return {k: to_jsonable(v) for k, v in obj.items()}
        pairs = sorted(
            ([to_jsonable(k), to_jsonable(v)] for k, v in obj.items()),
            key=lambda pair: json.dumps(pair[0], sort_keys=True, default=str),
        )
        return {TAG: "dict", "items": pairs}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        cls = type(obj)
        return {
            TAG: "dataclass",
            "type": f"{cls.__module__}:{cls.__qualname__}",
            "fields": {
                f.name: to_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
            },
        }
    if _is_topology(obj):
        return {TAG: "topology", "spec": obj.to_spec()}
    raise SerializationError(
        f"cannot canonically serialize {type(obj).__module__}."
        f"{type(obj).__qualname__}"
    )


def _load_dataclass(type_path: str) -> type:
    module_name, _, qualname = type_path.partition(":")
    if not module_name.startswith(_ALLOWED_MODULE_PREFIXES):
        raise SerializationError(
            f"refusing to import dataclass from {module_name!r}"
        )
    module = importlib.import_module(module_name)
    obj: Any = module
    for part in qualname.split("."):
        obj = getattr(obj, part)
    if not (isinstance(obj, type) and dataclasses.is_dataclass(obj)):
        raise SerializationError(f"{type_path!r} is not a dataclass")
    return obj


def from_jsonable(obj: Any) -> Any:
    """Invert :func:`to_jsonable`."""
    if isinstance(obj, list):
        return [from_jsonable(item) for item in obj]
    if not isinstance(obj, dict):
        return obj
    kind = obj.get(TAG)
    if kind is None:
        return {k: from_jsonable(v) for k, v in obj.items()}
    if kind == "float":
        return float(obj["value"])
    if kind == "tuple":
        return tuple(from_jsonable(item) for item in obj["items"])
    if kind == "set":
        return set(from_jsonable(item) for item in obj["items"])
    if kind == "frozenset":
        return frozenset(from_jsonable(item) for item in obj["items"])
    if kind == "dict":
        return {
            from_jsonable(k): from_jsonable(v) for k, v in obj["items"]
        }
    if kind == "dataclass":
        cls = _load_dataclass(obj["type"])
        fields = {k: from_jsonable(v) for k, v in obj["fields"].items()}
        return cls(**fields)
    if kind == "topology":
        from repro.topology import topology_from_spec

        return topology_from_spec(obj["spec"])
    raise SerializationError(f"unknown tag {kind!r}")


def canonical_json(obj: Any) -> str:
    """Byte-stable canonical encoding (sorted keys, minimal separators)."""
    return json.dumps(
        to_jsonable(obj),
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=True,
        allow_nan=False,
    )


def write_json_atomic(path: os.PathLike, obj: Any, **dumps_kwargs: Any) -> int:
    """Write ``json.dumps(obj, **dumps_kwargs)`` to ``path`` atomically.

    The value is encoded before any file is created, so one that cannot
    be serialized leaves the directory as it was.  The bytes go to a
    uniquely named temp file beside ``path`` (``os.replace`` is atomic
    only within one filesystem), which is renamed over ``path`` or, if
    the write fails, removed: a reader sees the old file or the new one,
    never a torn one.  Returns the number of bytes written.
    """
    path = Path(path)
    data = json.dumps(obj, **dumps_kwargs).encode()
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    return len(data)


def fingerprint(obj: Any, salt: str = "") -> str:
    """Content address of ``obj``: SHA-256 hex of its canonical encoding.

    ``salt`` folds in anything that changes the *meaning* of equal specs
    — the result store salts with the code version so stale blobs from
    an older simulator never shadow fresh results.
    """
    digest = hashlib.sha256()
    if salt:
        digest.update(salt.encode())
        digest.update(b"\x00")
    digest.update(canonical_json(obj).encode())
    return digest.hexdigest()
