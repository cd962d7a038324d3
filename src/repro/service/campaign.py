"""The store-memoised sweep, and the spec campaigns built on it.

:func:`sweep` is the one loop behind every offline sweep that memoises
through the result store: look each key up, run each missing key once,
store each result the moment it streams back.  Two faces call it:

* :func:`run_campaign` — a list of simulation specs keyed by their spec
  fingerprint, with an atomic JSON *manifest* naming every cell;
* ``fan_out(cached=True)`` in :mod:`repro.experiments.common` — the
  figure harnesses' function cells, keyed by ``("fan_out", func_id,
  args)``.

Every miss of a sweep runs in one :func:`repro.parallel.iter_jobs` pool
under :func:`~repro.service.queue._guarded_run`, so a failing cell is
data, not an exception, and every other cell is still run and stored.
The store is the resume state: a killed or failing sweep keeps each
cell it finished, and a rerun executes only what is missing.

A campaign is not a claimant of a :class:`~repro.service.queue.JobQueue`:
a lease exists so that another claimant can take over from a process
that dies, and an in-process sweep has no such other claimant.
"""

from __future__ import annotations

import json
import os
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.parallel import Job, iter_jobs
from repro.service.queue import _guarded_run
from repro.service.spec import run_sim_spec, spec_identity
from repro.service.store import ResultStore, spec_fingerprint
from repro.utils.serialize import write_json_atomic

#: Outcome statuses :func:`sweep` reports per cell.
HIT, OK, ERROR = "hit", "ok", "error"


def sweep(
    store: ResultStore,
    keys: Sequence[str],
    cells: Sequence[Any],
    runner: Callable[[Any], Dict[str, Any]],
    workers: Optional[int] = None,
) -> List[Tuple[str, Any]]:
    """Answer ``cells`` through ``store``; one ``(status, value)`` per cell.

    ``keys[i]`` is the store key of ``cells[i]``.  A key found in the
    store is a ``hit`` (its blob); each missing key runs once, as
    ``runner(cell)`` for its first cell, and ends ``ok`` (the blob
    returned, stored as it streams back) or ``error`` (the message).
    Later cells sharing a run key take its outcome, an ``ok`` run as a
    ``hit``, so a status counts each execution once.  ``runner`` must be
    module-level (picklable) to run in pool workers.
    """
    outcomes: List[Optional[Tuple[str, Any]]] = [None] * len(keys)
    #: key -> indices sharing it (in-sweep duplicates run once).
    runs: Dict[str, List[int]] = {}
    for i, key in enumerate(keys):
        if key in runs:
            runs[key].append(i)
            continue
        blob = store.get(key)
        if blob is None:
            runs[key] = [i]
        else:
            outcomes[i] = (HIT, blob)
    order = list(runs.items())
    jobs = [Job(_guarded_run, (runner, cells[idxs[0]], None)) for _, idxs in order]
    with closing(iter_jobs(jobs, workers)) as stream:
        for (key, (first, *rest)), (status, value) in zip(order, stream):
            if status == OK:
                store.put(key, value)
            outcomes[first] = (status, value)
            for i in rest:
                outcomes[i] = (HIT if status == OK else ERROR, value)
    return outcomes


@dataclass
class CampaignReport:
    """Outcome of one (possibly resumed) campaign run.

    ``hits + executed + failed == total``: every spec is counted once,
    a duplicate of an executed spec as a hit, a duplicate of a failed
    one as failed.
    """

    name: str
    total: int
    hits: int
    executed: int
    failed: int
    #: Result payloads in the order the specs were given (None on failure).
    results: List[Optional[Dict[str, Any]]]
    manifest_path: Optional[str] = None

    @property
    def all_hits(self) -> bool:
        return self.hits == self.total


def _write_manifest(path: Path, manifest: Dict[str, Any]) -> None:
    write_json_atomic(path, manifest, sort_keys=True, indent=1)


def run_campaign(
    specs: Sequence[Dict[str, Any]],
    store: Optional[ResultStore] = None,
    runner: Callable[[Dict[str, Any]], Dict[str, Any]] = run_sim_spec,
    workers: Optional[int] = None,
    manifest_path: Optional[os.PathLike] = None,
    name: str = "campaign",
) -> CampaignReport:
    """Run a spec list through the store, executing only what's missing.

    Identical specs within the list coalesce to one execution (specs
    differing only in execution-only fields, e.g. ``mode``, coalesce
    too).  The manifest — every cell, plus the fingerprints in the store
    as ``done`` — is written atomically before the sweep (``done`` as
    the previous manifest left it) and after it.  The store, not the
    manifest, is the resume state: each result is stored as it
    finishes, so a killed campaign reruns only its missing cells.
    """
    store = store if store is not None else ResultStore()
    specs = [dict(spec) for spec in specs]
    fps = [spec_fingerprint(spec_identity(spec)) for spec in specs]
    manifest: Dict[str, Any] = {
        "version": 1,
        "name": name,
        "cells": dict(zip(fps, specs)),
        "done": [],
    }
    path = Path(manifest_path) if manifest_path is not None else None
    if path is not None and path.exists():
        try:
            previous = json.loads(path.read_text())
            manifest["cells"].update(previous.get("cells", {}))
            manifest["done"] = previous.get("done", [])
        except ValueError:
            pass  # torn manifest: the store itself still carries resume state
    if path is not None:
        _write_manifest(path, manifest)

    outcomes = sweep(store, fps, specs, runner, workers)
    statuses = [status for status, _ in outcomes]
    failed_runs = len({fp for fp, status in zip(fps, statuses) if status == ERROR})
    if failed_runs:
        store.registry.counter("service.campaign.failed").inc(failed_runs)
    manifest["done"] = sorted({fp for fp, status in zip(fps, statuses) if status != ERROR})
    if path is not None:
        _write_manifest(path, manifest)
    return CampaignReport(
        name=name,
        total=len(specs),
        hits=statuses.count(HIT),
        executed=statuses.count(OK),
        failed=statuses.count(ERROR),
        results=[value if status != ERROR else None for status, value in outcomes],
        manifest_path=str(path) if path is not None else None,
    )
