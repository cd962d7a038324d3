"""Distributed campaign fabric: remote workers, and the store names a fleet uses.

Scales :mod:`repro.service` from one process to a fleet (see DESIGN §4e):

* :mod:`repro.service.fabric.worker` — :class:`FabricWorker` /
  :func:`run_worker`, the ``repro worker`` pull-execute-report loop
  with lease heartbeats and idempotent completion (at-least-once
  delivery, exactly one stored result).

Sharded storage is not a separate store: :class:`ShardMap`,
:class:`Shard` and :func:`rebalance` live in :mod:`repro.service.store`,
and ``ShardedResultStore`` is :class:`~repro.service.store.ResultStore`
under the name it was born with — a one-root store is a one-shard map.
Likewise the front end a fleet talks to is
:class:`repro.service.server.ServiceServer`; ``AsyncServiceServer`` is
that same class.
"""

from repro.service.server import ServiceServer as AsyncServiceServer
from repro.service.store import ResultStore as ShardedResultStore
from repro.service.store import Shard, ShardMap, rebalance
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
