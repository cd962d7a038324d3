"""Remote worker pool: ``repro worker`` — pull, execute, report.

A worker process owns no queue and no store; it long-polls a campaign
front end for leased jobs (``GET /jobs/claim``), executes them through
exactly the same path local execution uses
(:func:`repro.service.queue._guarded_run` over
:func:`repro.service.spec.run_sim_spec`, fanned through
:func:`repro.parallel.run_jobs_batched` when the claim batch is large
enough to amortize warm caches), and reports each outcome
(``POST /jobs/<id>/complete``).

Delivery semantics — at-least-once, exactly-one-result:

* while executing, a heartbeat thread re-asserts the lease every
  ``lease_ttl / 3`` seconds; a worker that is killed simply stops
  heartbeating and the server requeues the job for the next claimant;
* a heartbeat answered ``ok: false`` means the lease is forfeit (the
  job was requeued and possibly finished elsewhere) — the worker still
  reports its result when it finishes, because completion is idempotent:
  the server coalesces duplicates by content fingerprint, so racing
  workers can never double-store or double-count a result;
* results reported by workers feed surrogate calibration on the server
  side through the queue's ``on_executed`` hook — remote execution is
  indistinguishable from local execution to the fast lane.

The executing simulation cannot be preempted mid-cycle; the portable
wall-clock budget (:func:`repro.parallel.call_with_timeout`) bounds each
job using the server-advertised per-job timeout.
"""

from __future__ import annotations

import os
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.metrics import MetricsRegistry, proc_registry
from repro.parallel import Job, run_jobs_batched
from repro.service.client import ServiceClient, ServiceError
from repro.service.queue import _guarded_run
from repro.service.spec import run_sim_spec

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


class _HeartbeatThread(threading.Thread):
    """Re-asserts leases on every in-flight job while a batch executes."""

    def __init__(
        self,
        client: ServiceClient,
        worker_id: str,
        job_ids: List[str],
        lease_ttl: float,
        stats: WorkerStats,
    ) -> None:
        super().__init__(name="repro-worker-heartbeat", daemon=True)
        self.client = client
        self.worker_id = worker_id
        self.lease_ttl = lease_ttl
        self.stats = stats
        self._job_ids = set(job_ids)
        self._lock = threading.Lock()
        self._stop = threading.Event()

    def settle(self, job_id: str) -> None:
        """Stop heartbeating a job once it has been reported."""
        with self._lock:
            self._job_ids.discard(job_id)

    def stop(self) -> None:
        self._stop.set()

    def run(self) -> None:
        interval = max(0.2, self.lease_ttl / 3.0)
        with self.client:  # closes this thread's connection, not the poller's
            while not self._stop.wait(interval):
                with self._lock:
                    pending = list(self._job_ids)
                if not pending:
                    return
                for job_id in pending:
                    try:
                        alive = self.client.heartbeat(job_id, self.worker_id)
                    except (ServiceError, OSError):
                        continue  # transient; the lease may still hold
                    if not alive:
                        # Forfeit: the server requeued it.  Keep executing —
                        # completion is idempotent — but stop asserting.
                        self.stats.lease_lost += 1
                        self.settle(job_id)


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
        jobs = claim.get("jobs", [])
        if not jobs:
            self.stats.idle_polls += 1
            return 0
        self.stats.claims += len(jobs)
        lease_ttl = float(claim.get("lease_ttl", 30.0))
        timeout = claim.get("timeout")
        heartbeat = _HeartbeatThread(
            self.client,
            self.worker_id,
            [job["job_id"] for job in jobs],
            lease_ttl,
            self.stats,
        )
        heartbeat.start()
        try:
            outcomes = run_jobs_batched(
                [
                    Job(_guarded_run, (run_sim_spec, job["spec"], timeout))
                    for job in jobs
                ],
                workers=self.exec_workers,
            )
            for job, (status, value) in zip(jobs, outcomes):
                job_id = job["job_id"]
                try:
                    if status == "ok":
                        outcome = self.client.complete(
                            job_id, self.worker_id, True, result=value
                        )
                        self.stats.executed += 1
                    else:
                        outcome = self.client.complete(
                            job_id, self.worker_id, False, error=str(value)
                        )
                        self.stats.failed += 1
                    self.stats.record_outcome(outcome)
                finally:
                    heartbeat.settle(job_id)
            self.registry.counter("service.worker.settled").inc(len(jobs))
        finally:
            heartbeat.stop()
        if not self.quiet:
            print(f"[{self.worker_id}] {self.stats.summary()}", flush=True)
        return len(jobs)

    # -- the loop --------------------------------------------------------

    def run_forever(
        self,
        max_idle_polls: Optional[int] = None,
        max_cycles: Optional[int] = None,
    ) -> WorkerStats:
        """Pull until stopped, the server drains, or idle/cycle budgets hit.

        ``max_idle_polls`` bounds *consecutive* empty claims (a batch
        worker that should exit when the campaign is done);
        ``max_cycles`` bounds total claim cycles (tests).  A draining
        server ends the loop immediately.
        """
        idle_streak = 0
        cycles = 0
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
                cycles += 1
                if settled == 0:
                    idle_streak += 1
                    if max_idle_polls is not None and idle_streak >= max_idle_polls:
                        break
                    if self._last_claim_draining():
                        break
                else:
                    idle_streak = 0
                if max_cycles is not None and cycles >= max_cycles:
                    break
        return self.stats

    def _last_claim_draining(self) -> bool:
        """Ask the front end whether it is draining (cheap healthz)."""
        try:
            status, payload, _ = self.client._request("GET", "/healthz")
        except (ServiceError, OSError):
            return False
        return bool(payload.get("draining", False))


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
