"""Distributed campaign fabric: sharded store and remote workers.

Scales :mod:`repro.service` from one process to a fleet (see DESIGN §4e):

* :mod:`repro.service.fabric.shard` — :class:`ShardMap` /
  :class:`ShardedResultStore`, consistent-hash placement of result
  blobs over many storage roots with read-through replication, plus the
  :func:`rebalance` operator tool;
* :mod:`repro.service.fabric.worker` — :class:`FabricWorker` /
  :func:`run_worker`, the ``repro worker`` pull-execute-report loop
  with lease heartbeats and idempotent completion (at-least-once
  delivery, exactly one stored result).

The front end a fleet talks to is :class:`repro.service.server.ServiceServer`;
``AsyncServiceServer`` is that same class under the name it was born with.
"""

from repro.service.server import ServiceServer as AsyncServiceServer
from repro.service.fabric.shard import (
    Shard,
    ShardMap,
    ShardedResultStore,
    rebalance,
)
from repro.service.fabric.worker import FabricWorker, WorkerStats, run_worker

__all__ = [
    "AsyncServiceServer",
    "FabricWorker",
    "Shard",
    "ShardMap",
    "ShardedResultStore",
    "WorkerStats",
    "rebalance",
    "run_worker",
]
