"""Remote worker pool: ``repro worker`` — pull, execute, report.

A worker process owns no queue and no store; it long-polls a campaign
front end for leased jobs (``GET /jobs/claim``) and hands them to
:func:`repro.service.queue.execute_leased` — the one function every
claimant, the server's own local executor included, runs between claim
and completion — with ``POST /jobs/<id>/heartbeat`` and
``POST /jobs/<id>/complete`` as its heartbeat and completion calls.

Delivery semantics — at-least-once, exactly-one-result:

* while executing, a :class:`~repro.service.queue.LeaseKeeper` thread
  re-asserts the lease every ``lease_ttl / 3`` seconds; a worker that
  is killed simply stops heartbeating and the server requeues the job
  for the next claimant;
* a heartbeat answered ``ok: false`` means the lease is forfeit (the
  job was requeued and possibly finished elsewhere) — the worker still
  reports its result when it finishes, because completion is idempotent:
  the server coalesces duplicates by content fingerprint, so racing
  workers can never double-store or double-count a result;
* results reported by workers feed surrogate calibration on the server
  side through the queue's ``on_executed`` hook, fired by ``complete``
  for every claimant alike.

The executing simulation cannot be preempted mid-cycle; the portable
wall-clock budget (:func:`repro.parallel.call_with_timeout`) bounds each
job using the server-advertised per-job timeout.  Every claim reply also
says whether the front end is draining, which ends :meth:`run_forever`.
"""

from __future__ import annotations

import os
import threading
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.obs.metrics import MetricsRegistry, proc_registry
from repro.service.client import ServiceClient, ServiceError
from repro.service.queue import DEFAULT_LEASE_TTL, LeaseKeeper, execute_leased

#: Default long-poll window per claim request.
DEFAULT_POLL_WAIT = 15.0


def default_worker_id() -> str:
    """Stable-ish identity: host + pid + a nonce (restarts get fresh ids,
    so a restarted worker can never satisfy its dead predecessor's lease)."""
    return f"{os.uname().nodename}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


@dataclass
class WorkerStats:
    """Tallies one worker's life; printed on exit and after each batch."""

    claims: int = 0
    executed: int = 0
    failed: int = 0
    duplicates: int = 0
    lease_lost: int = 0
    idle_polls: int = 0
    outcomes: Dict[str, int] = field(default_factory=dict)

    def record_outcome(self, outcome: str) -> None:
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
        if outcome == "duplicate":
            self.duplicates += 1

    def summary(self) -> str:
        return (
            f"claims={self.claims} executed={self.executed} "
            f"failed={self.failed} duplicates={self.duplicates} "
            f"lease_lost={self.lease_lost} idle_polls={self.idle_polls}"
        )


class FabricWorker:
    """One pull-execute-report loop against a campaign front end."""

    def __init__(
        self,
        url: str,
        worker_id: Optional[str] = None,
        max_jobs: int = 4,
        poll_wait: float = DEFAULT_POLL_WAIT,
        exec_workers: int = 1,
        client: Optional[ServiceClient] = None,
        registry: Optional[MetricsRegistry] = None,
        quiet: bool = True,
    ) -> None:
        self.client = client if client is not None else ServiceClient(url)
        self.worker_id = worker_id if worker_id else default_worker_id()
        self.max_jobs = max(1, max_jobs)
        self.poll_wait = max(0.0, poll_wait)
        #: Local process fan-out per batch (1 = serial in-process, the
        #: right default when many single-core workers share a fleet).
        self.exec_workers = max(1, exec_workers)
        self.registry = registry if registry is not None else proc_registry()
        self.quiet = quiet
        self.stats = WorkerStats()
        self._stop = threading.Event()

    def stop(self) -> None:
        self._stop.set()

    # -- one cycle -------------------------------------------------------

    def run_once(self) -> int:
        """One claim + execute + report cycle; returns jobs settled."""
        claim = self.client.claim(
            self.worker_id, max_jobs=self.max_jobs, wait=self.poll_wait
        )
        if claim.get("draining"):
            self.stop()  # nothing more will be handed out
        jobs = claim.get("jobs", [])
        if not jobs:
            self.stats.idle_polls += 1
            return 0
        self.stats.claims += len(jobs)
        with LeaseKeeper(
            self._heartbeat,
            float(claim.get("lease_ttl", DEFAULT_LEASE_TTL)),
            release=self.client.close,  # the keeper thread's own connection
        ) as keeper:
            settled = execute_leased(
                [(job["job_id"], job["spec"]) for job in jobs],
                keeper,
                self._complete,
                timeout=claim.get("timeout"),
                workers=self.exec_workers,
            )
        self.stats.lease_lost += keeper.lost
        for ok, verdict in settled:
            if ok:
                self.stats.executed += 1
            else:
                self.stats.failed += 1
            self.stats.record_outcome(verdict)
        self.registry.counter("service.worker.settled").inc(len(jobs))
        if not self.quiet:
            print(f"[{self.worker_id}] {self.stats.summary()}", flush=True)
        return len(jobs)

    def _heartbeat(self, job_id: str) -> bool:
        try:
            return self.client.heartbeat(job_id, self.worker_id)
        except (ServiceError, OSError):
            return True  # transient; the lease may still hold

    def _complete(self, job_id: str, ok: bool, value: Any) -> str:
        if ok:
            return self.client.complete(job_id, self.worker_id, True, result=value)
        return self.client.complete(job_id, self.worker_id, False, error=str(value))

    # -- the loop --------------------------------------------------------

    def run_forever(self, max_idle_polls: Optional[int] = None) -> WorkerStats:
        """Pull until stopped, the server drains, or the idle budget is hit.

        ``max_idle_polls`` bounds *consecutive* empty claims (a batch
        worker that should exit when the campaign is done).  A claim
        reply that says the server is draining ends the loop at once.
        """
        idle_streak = 0
        with self.client:  # closes the connection on the way out
            while not self._stop.is_set():
                try:
                    settled = self.run_once()
                except (ServiceError, OSError):
                    # Transport retries are exhausted: the front end is
                    # gone or restarting.  Back off and try again rather
                    # than dying — workers are cattle, campaigns are not.
                    self.registry.counter("service.worker.poll_error").inc()
                    if self._stop.wait(1.0):
                        break
                    settled = 0
                if settled == 0:
                    idle_streak += 1
                    if max_idle_polls is not None and idle_streak >= max_idle_polls:
                        break
                else:
                    idle_streak = 0
        return self.stats


def run_worker(
    url: str,
    worker_id: Optional[str] = None,
    max_jobs: int = 4,
    poll_wait: float = DEFAULT_POLL_WAIT,
    exec_workers: int = 1,
    max_idle_polls: Optional[int] = None,
    quiet: bool = False,
) -> WorkerStats:
    """Module-level face of ``repro worker`` (and the soak harness)."""
    worker = FabricWorker(
        url,
        worker_id=worker_id,
        max_jobs=max_jobs,
        poll_wait=poll_wait,
        exec_workers=exec_workers,
        quiet=quiet,
    )
    if not quiet:
        print(f"repro worker {worker.worker_id} pulling from {url}", flush=True)
    try:
        return worker.run_forever(max_idle_polls=max_idle_polls)
    except KeyboardInterrupt:
        return worker.stats
