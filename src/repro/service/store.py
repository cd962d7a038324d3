"""Content-addressed result store: fingerprint -> JSON blob on disk.

Each completed simulation (or sweep cell) is keyed by the SHA-256
fingerprint of its canonical spec encoding, salted with the code version
(:data:`CODE_SALT`) so results computed by an older simulator can never
shadow fresh ones.  Blobs live under ``$REPRO_STORE`` (default
``~/.cache/repro``), sharded by the first two hex digits to keep
directories small at campaign scale.

Durability and concurrency:

* writes are atomic — serialize to a same-directory temp file, then
  ``os.replace`` — so a killed run never leaves a torn blob, and
  concurrent writers of the same fingerprint last-write-win with
  identical bytes (the payload is a pure function of the fingerprint);
* reads touch the blob's mtime, making eviction least-recently-*used*
  rather than least-recently-written;
* the store is capped (``max_bytes``, default ``$REPRO_STORE_MAX_BYTES``
  or 256 MiB); :meth:`ResultStore.put` evicts oldest-touched blobs until
  the cap holds.  Each store object keeps a running total of the bytes on
  disk and only lists the directory when that total crosses the cap.

Hit/miss/put/evict counters land in a
:class:`repro.obs.metrics.MetricsRegistry` (the per-process registry by
default), so ``GET /metrics`` and ``experiment --obs`` both see cache
effectiveness for free.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

import repro
from repro.obs.metrics import MetricsRegistry, proc_registry
from repro.utils.serialize import fingerprint as _fingerprint

#: Environment variable overriding the store root directory.
STORE_ENV_VAR = "REPRO_STORE"
#: Environment variable overriding the size cap in bytes.
STORE_MAX_BYTES_ENV_VAR = "REPRO_STORE_MAX_BYTES"
#: Default size cap when neither argument nor environment specifies one.
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

#: Version salt folded into every fingerprint (see module docstring).
CODE_SALT = f"repro-{repro.__version__}-schema1"


def spec_fingerprint(spec_obj: Any) -> str:
    """Content address of a spec-like value, salted with the code version."""
    return _fingerprint(spec_obj, salt=CODE_SALT)


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


class ResultStore:
    """Disk-backed, LRU-capped map from fingerprint to JSON payload."""

    def __init__(
        self,
        root: Optional[Path] = None,
        max_bytes: Optional[int] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.root = Path(root) if root is not None else default_store_root()
        self.max_bytes = max_bytes if max_bytes is not None else _default_max_bytes()
        self.registry = registry if registry is not None else proc_registry()
        self.root.mkdir(parents=True, exist_ok=True)
        #: Running estimate of the bytes on disk: scanned once here, then
        #: adjusted by this object's own puts and evictions.  Blobs other
        #: writers add under the same root go unseen until the estimate
        #: crosses the cap and ``_enforce_cap`` rescans, which corrects it.
        self._bytes = self.size_bytes()

    # -- paths -----------------------------------------------------------

    def path_for(self, fp: str) -> Path:
        if len(fp) < 8 or not all(c in "0123456789abcdef" for c in fp):
            raise ValueError(f"not a fingerprint: {fp!r}")
        return self.root / fp[:2] / f"{fp}.json"

    # -- read ------------------------------------------------------------

    def contains(self, fp: str) -> bool:
        return self.path_for(fp).exists()

    def get(self, fp: str) -> Optional[Dict[str, Any]]:
        path = self.path_for(fp)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            self.registry.counter("service.store.miss").inc()
            return None
        try:
            payload = json.loads(raw)
        except ValueError:
            # A torn/corrupt blob (should be impossible given atomic
            # writes, but disks happen): drop it and report a miss so the
            # caller recomputes rather than crashes.
            path.unlink(missing_ok=True)
            self._bytes -= len(raw)
            self.registry.counter("service.store.corrupt").inc()
            self.registry.counter("service.store.miss").inc()
            return None
        try:
            os.utime(path)  # LRU touch
        except OSError:
            pass
        self.registry.counter("service.store.hit").inc()
        return payload

    # -- write -----------------------------------------------------------

    def put(self, fp: str, payload: Dict[str, Any]) -> Path:
        path = self.path_for(fp)
        path.parent.mkdir(parents=True, exist_ok=True)
        data = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        try:
            replaced = path.stat().st_size
        except FileNotFoundError:
            replaced = 0
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=f".{fp[:8]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.registry.counter("service.store.put").inc()
        self._bytes += len(data) - replaced  # ``data`` is ASCII
        if self._bytes > self.max_bytes:
            self._enforce_cap()
        return path

    # -- maintenance -----------------------------------------------------

    def _blobs(self) -> Iterator[Path]:
        for shard in self.root.iterdir():
            if shard.is_dir() and len(shard.name) == 2:
                yield from shard.glob("*.json")

    def size_bytes(self) -> int:
        total = 0
        for blob in self._blobs():
            try:
                total += blob.stat().st_size
            except FileNotFoundError:
                pass  # concurrent eviction
        return total

    def __len__(self) -> int:
        return sum(1 for _ in self._blobs())

    def iter_fingerprints(self) -> Iterator[str]:
        for blob in self._blobs():
            yield blob.stem

    def iter_entries(self) -> Iterator[Tuple[str, Dict[str, Any]]]:
        """Yield every stored ``(fingerprint, payload)`` pair.

        A bulk-read primitive for harvesters (e.g. surrogate
        calibration): it decodes blobs directly — no LRU touch, no
        hit/miss counters — so a full scan neither skews cache metrics
        nor rejuvenates cold entries.  Corrupt blobs are skipped (and
        counted), matching :meth:`get`'s tolerance.
        """
        for blob in self._blobs():
            try:
                payload = json.loads(blob.read_bytes())
            except FileNotFoundError:
                continue  # concurrent eviction
            except ValueError:
                self.registry.counter("service.store.corrupt").inc()
                continue
            yield blob.stem, payload

    def query(
        self, predicate: Callable[[Dict[str, Any]], bool]
    ) -> Iterator[Tuple[str, Dict[str, Any]]]:
        """Yield stored entries whose payload satisfies ``predicate``.

        A predicate that raises on an unexpected payload shape is
        treated as "no match" rather than aborting the scan — stores mix
        simulation results with campaign manifests and sweep cells.
        """
        for fp, payload in self.iter_entries():
            try:
                keep = predicate(payload)
            except Exception:  # noqa: BLE001 — malformed entry: skip
                continue
            if keep:
                yield fp, payload

    def _enforce_cap(self) -> None:
        blobs = []
        total = 0
        for blob in self._blobs():
            try:
                stat = blob.stat()
            except FileNotFoundError:
                continue  # concurrent eviction
            blobs.append((stat.st_mtime, stat.st_size, blob))
            total += stat.st_size
        if total > self.max_bytes:
            blobs.sort()  # oldest-touched first
            for _, size, blob in blobs:
                if total <= self.max_bytes:
                    break
                try:
                    blob.unlink()
                except FileNotFoundError:
                    continue
                total -= size
                self.registry.counter("service.store.evict").inc()
        self._bytes = total

    def clear(self) -> int:
        """Remove every blob; returns how many were removed."""
        removed = 0
        for blob in list(self._blobs()):
            blob.unlink(missing_ok=True)
            removed += 1
        self._bytes = 0
        return removed
