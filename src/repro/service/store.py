"""Content-addressed result store: fingerprint -> JSON blob, placed over shards.

Each completed simulation (or sweep cell) is keyed by the SHA-256
fingerprint of its canonical spec encoding, salted with the code version
(:data:`CODE_SALT`) so results computed by an older simulator can never
shadow fresh ones.  A blob lives at ``root/fp[:2]/fp.json`` under a shard
root, the first two hex digits keeping directories small at campaign
scale.

One class, :class:`ResultStore`, places blobs over a :class:`ShardMap`.
A bare root (``ResultStore(root)``, ``$REPRO_STORE``, the default
``~/.cache/repro``) is the one-shard map ``ShardMap.local([root],
replicas=1)``; a map is the fleet store.  Every operation below is
written once and is the same code for both.

Placement
---------

The map hashes ``vnodes`` virtual points per shard (scaled by ``weight``)
onto a 64-bit ring; a fingerprint lands on the first point clockwise from
its own 64-bit prefix, and its replica set is the next ``replicas``
*distinct* shards around the ring.  Adding one shard to an N-shard map
relocates ~1/(N+1) of the keyspace instead of rehashing everything.
Shard *names* are hashed, not roots, so a shard can move to a new disk
without relocating keys.

Replication and healing
-----------------------

* :meth:`ResultStore.put` writes the primary first, then best-effort
  copies to the remaining replicas (a replica whose disk is gone does
  not fail the put);
* :meth:`ResultStore.get` reads the primary, then *read-through* falls
  back to replicas, healing the primary from a replica hit.  Results are
  pure functions of the fingerprint, so storage loss costs time (the
  fabric re-executes), never correctness;
* :meth:`ResultStore.health` reports per-shard reachability; the server
  maps it to ``/healthz`` (degraded = 503).

:func:`rebalance` is the operator tool: after editing the shard map, one
pass copies every blob to its current owner set and optionally prunes
stale copies.

One shard's directory
---------------------

* writes are atomic (:func:`repro.utils.serialize.write_json_atomic`), so
  a killed run never leaves a torn blob, and concurrent writers of one
  fingerprint last-write-win with identical bytes;
* a corrupt blob is dropped and reported as a miss, so the caller
  recomputes rather than crashes;
* reads touch the blob's mtime, making eviction least-recently-*used*;
* each shard is capped (``max_bytes``, default ``$REPRO_STORE_MAX_BYTES``
  or 256 MiB): a running total of its bytes on disk is kept, and only
  when it crosses the cap is the directory listed and the oldest-touched
  blobs evicted.

Hit/miss/put/evict counters land in the store's
:class:`repro.obs.metrics.MetricsRegistry` (the per-process registry by
default; a server re-points ``store.registry`` at its own and every shard
follows), so ``GET /metrics`` and ``experiment --obs`` see cache
effectiveness for free.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import repro
from repro.obs.metrics import MetricsRegistry, proc_registry
from repro.utils.serialize import fingerprint as _fingerprint
from repro.utils.serialize import write_json_atomic

#: Environment variable overriding the store root directory.
STORE_ENV_VAR = "REPRO_STORE"
#: Environment variable overriding the size cap in bytes.
STORE_MAX_BYTES_ENV_VAR = "REPRO_STORE_MAX_BYTES"
#: Default size cap when neither argument nor environment specifies one.
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

#: Version salt folded into every fingerprint (see module docstring).
CODE_SALT = f"repro-{repro.__version__}-schema1"

#: Virtual points per unit of shard weight.  128 keeps the keyspace
#: split within a few percent of the weight ratio while the ring stays
#: small enough to rebuild on every map edit.
DEFAULT_VNODES = 128

#: The one key rule: the whole key is lowercase hex, at least 16
#: characters (placement reads the first 16 as a ring position).
_FINGERPRINT = re.compile(r"[0-9a-f]{16,}")


def spec_fingerprint(spec_obj: Any) -> str:
    """Content address of a spec-like value, salted with the code version."""
    return _fingerprint(spec_obj, salt=CODE_SALT)


def _check_fingerprint(fp: str) -> str:
    """``fp`` if it is a store key, else ``ValueError``."""
    if _FINGERPRINT.fullmatch(fp) is None:
        raise ValueError(f"not a fingerprint: {fp!r}")
    return fp


def default_store_root() -> Path:
    env = os.environ.get(STORE_ENV_VAR)
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro"


def _default_max_bytes() -> int:
    env = os.environ.get(STORE_MAX_BYTES_ENV_VAR)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return DEFAULT_MAX_BYTES


# -- placement -----------------------------------------------------------


def _ring_point(label: str) -> int:
    """64-bit position of a label on the hash ring."""
    return int.from_bytes(hashlib.sha256(label.encode()).digest()[:8], "big")


@dataclass(frozen=True)
class Shard:
    """One storage node: a name (its ring identity) and a blob root."""

    name: str
    root: str
    weight: int = 1

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "root": self.root, "weight": self.weight}


@dataclass
class ShardMap:
    """Declarative storage layout + the derived hash ring.

    The JSON form is the operator artifact (checked in, edited by hand,
    passed to ``repro serve --shard-map`` and ``repro shards``)::

        {"version": 1, "replicas": 2,
         "shards": [{"name": "s0", "root": "/data/s0", "weight": 1},
                    {"name": "s1", "root": "/data/s1", "weight": 1}]}

    ``replicas`` counts *copies* (primary included) and is clamped to
    the shard count.
    """

    shards: List[Shard]
    replicas: int = 2
    vnodes: int = DEFAULT_VNODES
    _ring: List[Tuple[int, str]] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if not self.shards:
            raise ValueError("shard map needs at least one shard")
        names = [shard.name for shard in self.shards]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate shard names in map: {names}")
        self.replicas = max(1, min(int(self.replicas), len(self.shards)))
        self._ring = []
        for shard in self.shards:
            for i in range(self.vnodes * max(1, shard.weight)):
                self._ring.append((_ring_point(f"{shard.name}#{i}"), shard.name))
        self._ring.sort()

    def owners(self, fp: str) -> List[str]:
        """Replica set (primary first) of shard names for a fingerprint."""
        point = int(_check_fingerprint(fp)[:16], 16)
        start = bisect_left(self._ring, (point, ""))
        owners: List[str] = []
        for offset in range(len(self._ring)):
            _, name = self._ring[(start + offset) % len(self._ring)]
            if name not in owners:
                owners.append(name)
                if len(owners) == self.replicas:
                    break
        return owners

    def primary(self, fp: str) -> str:
        return self.owners(fp)[0]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": 1,
            "replicas": self.replicas,
            "vnodes": self.vnodes,
            "shards": [shard.to_dict() for shard in self.shards],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ShardMap":
        if not isinstance(payload, dict) or "shards" not in payload:
            raise ValueError("shard map must be an object with a 'shards' list")
        shards = [
            Shard(
                name=str(entry["name"]),
                root=str(entry["root"]),
                weight=int(entry.get("weight", 1)),
            )
            for entry in payload["shards"]
        ]
        return cls(
            shards=shards,
            replicas=int(payload.get("replicas", 2)),
            vnodes=int(payload.get("vnodes", DEFAULT_VNODES)),
        )

    @classmethod
    def load(cls, path: os.PathLike) -> "ShardMap":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def save(self, path: os.PathLike) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=1, sort_keys=True))

    @classmethod
    def local(cls, roots: Sequence[os.PathLike], replicas: int = 2) -> "ShardMap":
        """Convenience map: one shard per root, named ``s0..sN-1``."""
        return cls(
            shards=[Shard(name=f"s{i}", root=str(root)) for i, root in enumerate(roots)],
            replicas=replicas,
        )


# -- one shard's directory -----------------------------------------------


class _ShardDir:
    """Blobs under one shard root; built only by :class:`ResultStore`.

    Counters go to the owning store's *current* ``registry`` and the cap
    is its ``max_bytes``, both read at use time.
    """

    def __init__(self, store: "ResultStore", root: Path) -> None:
        self.store = store
        self.root = root
        self.root.mkdir(parents=True, exist_ok=True)
        #: Running estimate of the bytes on disk: scanned once here, then
        #: adjusted by this shard's own puts and evictions.  Blobs other
        #: writers add under the same root go unseen until the estimate
        #: crosses the cap and ``_enforce_cap`` rescans, which corrects it.
        self._bytes = self.size_bytes()

    def _count(self, name: str) -> None:
        self.store.registry.counter(f"service.store.{name}").inc()

    def path_for(self, fp: str) -> Path:
        return self.root / fp[:2] / f"{_check_fingerprint(fp)}.json"

    def contains(self, fp: str) -> bool:
        return self.path_for(fp).exists()

    def get(self, fp: str) -> Optional[Dict[str, Any]]:
        path = self.path_for(fp)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            self._count("miss")
            return None
        try:
            payload = json.loads(raw)
        except ValueError:
            path.unlink(missing_ok=True)
            self._bytes -= len(raw)
            self._count("corrupt")
            self._count("miss")
            return None
        try:
            os.utime(path)  # LRU touch
        except OSError:
            pass
        self._count("hit")
        return payload

    def put(self, fp: str, payload: Dict[str, Any]) -> Path:
        path = self.path_for(fp)
        try:
            replaced = path.stat().st_size
        except FileNotFoundError:
            replaced = 0
        written = write_json_atomic(path, payload, sort_keys=True, separators=(",", ":"))
        self._count("put")
        self._bytes += written - replaced
        if self._bytes > self.store.max_bytes:
            self._enforce_cap()
        return path

    def _blobs(self) -> Iterator[Path]:
        for prefix in self.root.iterdir():
            if prefix.is_dir() and len(prefix.name) == 2:
                yield from prefix.glob("*.json")

    def fingerprints(self) -> Iterator[Tuple[str, Path]]:
        """``(fingerprint, blob path)`` for every blob."""
        for blob in self._blobs():
            yield blob.stem, blob

    def entries(self) -> Iterator[Tuple[str, Dict[str, Any]]]:
        for blob in self._blobs():
            try:
                payload = json.loads(blob.read_bytes())
            except FileNotFoundError:
                continue  # concurrent eviction
            except ValueError:
                self._count("corrupt")
                continue
            yield blob.stem, payload

    def size_bytes(self) -> int:
        total = 0
        for blob in self._blobs():
            try:
                total += blob.stat().st_size
            except FileNotFoundError:
                pass  # concurrent eviction
        return total

    def _enforce_cap(self) -> None:
        cap = self.store.max_bytes
        blobs = []
        total = 0
        for blob in self._blobs():
            try:
                stat = blob.stat()
            except FileNotFoundError:
                continue  # concurrent eviction
            blobs.append((stat.st_mtime, stat.st_size, blob))
            total += stat.st_size
        if total > cap:
            blobs.sort()  # oldest-touched first
            for _, size, blob in blobs:
                if total <= cap:
                    break
                try:
                    blob.unlink()
                except FileNotFoundError:
                    continue
                total -= size
                self._count("evict")
        self._bytes = total

    def clear(self) -> int:
        removed = 0
        for blob in list(self._blobs()):
            blob.unlink(missing_ok=True)
            removed += 1
        self._bytes = 0
        return removed


# -- the store -----------------------------------------------------------


class ResultStore:
    """Fingerprint -> JSON payload, placed over a :class:`ShardMap`.

    ``root`` is a directory (one shard named ``s0``; default
    ``$REPRO_STORE`` or ``~/.cache/repro``) or a :class:`ShardMap`.
    ``max_bytes`` caps each shard.  ``root`` (the first shard's
    directory) anchors sidecars such as the calibration table.
    """

    def __init__(
        self,
        root: Union[None, str, os.PathLike, ShardMap] = None,
        max_bytes: Optional[int] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if not isinstance(root, ShardMap):
            root = ShardMap.local([root if root is not None else default_store_root()], replicas=1)
        self.map = root
        self.max_bytes = max_bytes if max_bytes is not None else _default_max_bytes()
        self.registry = registry if registry is not None else proc_registry()
        self._shards = {shard.name: _ShardDir(self, Path(shard.root)) for shard in root.shards}
        self.root = self._shards[root.shards[0].name].root

    def shard_store(self, name: str) -> _ShardDir:
        return self._shards[name]

    def path_for(self, fp: str) -> Path:
        """Where the primary copy of ``fp`` lives."""
        return self._shards[self.map.owners(fp)[0]].path_for(fp)

    def _unreachable(self) -> None:
        self.registry.counter("service.shard.unreachable").inc()

    # -- read / write ----------------------------------------------------

    def get(self, fp: str) -> Optional[Dict[str, Any]]:
        """Primary read, then read-through replicas, healing the primary."""
        owners = self.map.owners(fp)
        for index, name in enumerate(owners):
            try:
                payload = self._shards[name].get(fp)
            except OSError:
                self._unreachable()
                continue
            if payload is not None:
                if index:
                    self.registry.counter("service.shard.readthrough").inc()
                    try:
                        self._shards[owners[0]].put(fp, payload)  # heal: next read is local
                    except OSError:
                        self.registry.counter("service.shard.heal_failed").inc()
                return payload
        return None

    def put(self, fp: str, payload: Dict[str, Any]) -> Path:
        """Write the primary, then the replicas best-effort; fails only
        when no owner took the blob.  Returns the first path written."""
        written: List[Path] = []
        error: Optional[OSError] = None
        for index, name in enumerate(self.map.owners(fp)):
            try:
                written.append(self._shards[name].put(fp, payload))
            except OSError as exc:
                error = error or exc
                if index:
                    self.registry.counter("service.shard.replica_failed").inc()
                else:
                    self._unreachable()
        if not written:
            raise error
        return written[0]

    def contains(self, fp: str) -> bool:
        return any(self._shards[name].contains(fp) for name in self.map.owners(fp))

    # -- scans -----------------------------------------------------------

    def _each_once(
        self, walk: Callable[[_ShardDir], Iterable[Tuple[str, Any]]]
    ) -> Iterator[Tuple[str, Any]]:
        """``walk(shard)``'s ``(fp, value)`` pairs over every shard, each
        fingerprint once.  Only fingerprints a later shard could repeat
        are remembered, so a one-shard scan keeps no set."""
        seen = set()
        last = len(self._shards) - 1
        for index, shard in enumerate(self._shards.values()):
            try:
                for fp, value in walk(shard):
                    if fp not in seen:
                        if index < last:
                            seen.add(fp)
                        yield fp, value
            except OSError:
                self._unreachable()

    def __len__(self) -> int:
        """Distinct fingerprints stored (replicas counted once)."""
        return sum(1 for _ in self._each_once(_ShardDir.fingerprints))

    def iter_fingerprints(self) -> Iterator[str]:
        return map(itemgetter(0), self._each_once(_ShardDir.fingerprints))

    def iter_entries(self) -> Iterator[Tuple[str, Dict[str, Any]]]:
        """Yield every stored ``(fingerprint, payload)`` pair.

        A bulk-read primitive for harvesters (e.g. surrogate
        calibration): it decodes blobs directly — no LRU touch, no
        hit/miss counters — so a full scan neither skews cache metrics
        nor rejuvenates cold entries.  Corrupt blobs are skipped (and
        counted), matching :meth:`get`'s tolerance.
        """
        return self._each_once(_ShardDir.entries)

    def size_bytes(self) -> int:
        return sum(shard.size_bytes() for shard in self._shards.values())

    def clear(self) -> int:
        """Remove every blob; returns how many were removed."""
        return sum(shard.clear() for shard in self._shards.values())

    def health(self) -> Dict[str, Any]:
        """Per-shard reachability (root exists and is a directory).

        A shard whose directory vanished (unmounted disk) turns ``ok``
        False; the server answers ``/healthz`` with 503 so balancers
        drain this front end while reads fall back to replicas.
        """
        shards: Dict[str, bool] = {}
        for name, shard in self._shards.items():
            try:
                shards[name] = shard.root.is_dir()
            except OSError:
                shards[name] = False
        return {"ok": all(shards.values()), "shards": shards}


def rebalance(store: ResultStore, prune: bool = False) -> Dict[str, int]:
    """Re-place every blob according to the store's *current* map.

    For each fingerprint found on any shard: copy it to every owner that
    lacks it; with ``prune=True`` also delete copies held by non-owners
    (safe, because each blob's copies are made before its prune).

    Returns ``{"scanned", "copied", "pruned", "skipped"}`` counts.
    ``skipped`` counts blobs whose bytes could not be read (corrupt or
    shard lost mid-scan) — they are left for the fabric's re-execution
    path rather than guessed at.
    """
    scanned = copied = pruned = skipped = 0
    # Snapshot fingerprint -> holders before mutating anything.
    holders: Dict[str, List[str]] = {}
    for shard in store.map.shards:
        try:
            for fp, _ in store.shard_store(shard.name).fingerprints():
                holders.setdefault(fp, []).append(shard.name)
        except OSError:
            continue
    for fp, present in holders.items():
        scanned += 1
        owners = store.map.owners(fp)
        payload: Optional[Dict[str, Any]] = None
        missing = [name for name in owners if name not in present]
        if missing:
            for name in present:
                try:
                    payload = store.shard_store(name).get(fp)
                except OSError:
                    payload = None
                if payload is not None:
                    break
            if payload is None:
                skipped += 1
                continue
            for name in missing:
                try:
                    store.shard_store(name).put(fp, payload)
                    copied += 1
                except OSError:
                    skipped += 1
        if prune:
            for name in present:
                if name in owners:
                    continue
                try:
                    store.shard_store(name).path_for(fp).unlink(missing_ok=True)
                    pruned += 1
                except OSError:
                    pass
    return {"scanned": scanned, "copied": copied, "pruned": pruned, "skipped": skipped}
