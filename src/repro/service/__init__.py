"""Simulation-as-a-service: content-addressed store, job queue, HTTP server.

The memoizing service layer over the simulator (see DESIGN.md):

* :mod:`repro.service.spec` — :class:`SimSpec`, the canonical identity
  of one simulation, and its executable form :func:`run_sim_spec`;
* :mod:`repro.service.store` — :class:`ResultStore`, fingerprint-keyed
  JSON blobs with atomic writes and LRU size capping, placed over a
  :class:`ShardMap` (one root is a one-shard map; several roots are
  consistent-hashed with read-through replicas);
* :mod:`repro.service.queue` — :class:`JobQueue` (dedup, priorities,
  timeout/retry, and the claim / heartbeat / complete lease protocol
  through which every job — local or remote — is run and settled);
* :mod:`repro.service.campaign` — the one store-memoised sweep (look
  up, run the misses in one pool, store each as it finishes) behind
  :func:`run_campaign` (resumable manifest sweeps) and
  ``fan_out(cached=True)``;
* :mod:`repro.service.server` / :mod:`repro.service.client` — the HTTP
  face: one asyncio front end (``repro serve``) and its client
  (``repro submit``);
* :mod:`repro.service.fabric` — the distributed fabric: remote worker
  pools (``repro worker``).
"""

import importlib

#: Re-exported name -> the submodule that defines it.  Names resolve on
#: first access (PEP 562), so importing one submodule — ``repro simulate``
#: needs only :mod:`repro.service.spec` — does not import the server,
#: client, queue and fabric.
_EXPORTS = {
    "AsyncServiceServer": "fabric",
    "CampaignReport": "campaign",
    "FabricWorker": "fabric",
    "JobFailedError": "client",
    "JobQueue": "queue",
    "JobRecord": "queue",
    "QueueFull": "queue",
    "ResultStore": "store",
    "STORE_ENV_VAR": "store",
    "ServiceClient": "client",
    "ServiceError": "client",
    "ServiceServer": "server",
    "ShardMap": "fabric",
    "ShardedResultStore": "fabric",
    "SimSpec": "spec",
    "default_store_root": "store",
    "run_campaign": "campaign",
    "run_sim_spec": "spec",
    "run_worker": "fabric",
    "sim_result_payload": "spec",
    "spec_fingerprint": "store",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
