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

from repro.service.client import JobFailedError, ServiceClient, ServiceError
from repro.service.campaign import CampaignReport, run_campaign
from repro.service.queue import JobQueue, JobRecord, QueueFull
from repro.service.server import ServiceServer
from repro.service.fabric import (
    AsyncServiceServer,
    FabricWorker,
    ShardMap,
    ShardedResultStore,
    run_worker,
)
from repro.service.spec import SimSpec, run_sim_spec, sim_result_payload
from repro.service.store import (
    STORE_ENV_VAR,
    ResultStore,
    default_store_root,
    spec_fingerprint,
)

__all__ = [
    "AsyncServiceServer",
    "CampaignReport",
    "FabricWorker",
    "JobFailedError",
    "JobQueue",
    "JobRecord",
    "QueueFull",
    "ResultStore",
    "STORE_ENV_VAR",
    "ServiceClient",
    "ServiceError",
    "ServiceServer",
    "ShardMap",
    "ShardedResultStore",
    "SimSpec",
    "default_store_root",
    "run_campaign",
    "run_sim_spec",
    "run_worker",
    "sim_result_payload",
    "spec_fingerprint",
]
