"""Job queue: deduplicating, prioritized, retrying — and settled one way.

The queue accepts *specs* (plain JSON dicts), addresses each by its
content fingerprint, and guarantees three service-grade properties the
raw pool lacks:

* **Dedup** — a spec already in the result store completes instantly
  (cache hit); a spec already pending or running is *coalesced* onto the
  existing record, so N concurrent identical submissions execute exactly
  one simulation;
* **Priorities and backpressure** — higher-priority submissions run
  first (FIFO within a priority); ``max_depth`` bounds the pending set
  and :class:`QueueFull` signals backpressure (the HTTP layer maps it to
  429);
* **Timeouts and retry** — each execution is wrapped with a portable
  wall-clock timeout (:func:`repro.parallel.call_with_timeout`: a
  join-with-deadline watchdog that works from any thread on any
  platform) and failed jobs are retried with exponential backoff before
  being marked FAILED.  Timed-out executions increment
  ``service.queue.timeout``.

**One worker loop.**  A job is only ever run and settled through the
lease protocol: :meth:`JobQueue.claim` hands PENDING records to a named
worker under a *lease*, :meth:`JobQueue.heartbeat` extends the lease
while the worker computes, and :meth:`JobQueue.complete` — the single
place a result is stored and the ``on_executed`` feedback fires —
settles the outcome.  Between claim and complete every claimant runs
:func:`execute_leased` under a :class:`LeaseKeeper`.  The queue's own scheduler thread is such a
claimant (worker id :data:`LOCAL_WORKER`); a remote
:class:`~repro.service.fabric.worker.FabricWorker` is another, speaking
the same three calls over HTTP.  Delivery is at-least-once: a claimant
that dies stops heartbeating, the lease expires, and the record is
requeued for the next one; because job identity *is* content identity
(the spec fingerprint), a late duplicate completion is detected and
coalesced — exactly one stored result, no matter how many claimants
raced.  ``local_exec=False`` keeps the scheduler thread from claiming
(it then only sweeps expired leases and TTL-prunes), which is how a
front end runs when all simulation happens on remote workers.
"""

from __future__ import annotations

import heapq
import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.parallel import (
    CallTimeout,
    Job,
    call_with_timeout,
    resolve_workers,
    run_jobs,
)
from repro.service.spec import run_sim_spec, spec_identity
from repro.service.store import ResultStore, spec_fingerprint

# Job lifecycle states.
PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"


class QueueFull(RuntimeError):
    """Pending depth hit ``max_depth`` — back off and resubmit."""


#: Error-message prefix marking a timeout outcome.  ``_guarded_run``
#: outcomes cross process (and, for remote workers, HTTP) boundaries as
#: plain strings, so the queue recognizes timeouts by prefix when it
#: bumps the ``service.queue.timeout`` counter.
TIMEOUT_ERROR_PREFIX = "JobTimeout"

#: Default seconds a claimed job's lease lasts without a heartbeat.
DEFAULT_LEASE_TTL = 30.0

#: The worker id under which a queue's own scheduler thread claims.
LOCAL_WORKER = "local"


@dataclass
class JobRecord:
    """Mutable bookkeeping for one submitted spec."""

    job_id: str  # the spec fingerprint — job identity IS content identity
    spec: Dict[str, Any]
    priority: int = 0
    state: str = PENDING
    attempts: int = 0
    cached: bool = False
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    not_before: float = 0.0
    #: ``time.monotonic()`` when the record reached DONE/FAILED (TTL clock).
    finished_at: float = 0.0
    #: Lease bookkeeping while RUNNING: the claiming worker's id and the
    #: ``time.monotonic()`` deadline after which the claim is forfeit.
    worker: Optional[str] = None
    lease_expiry: float = 0.0
    done_event: threading.Event = field(default_factory=threading.Event, repr=False)
    #: Response bodies of a DONE record, one per payload function (:meth:`encoded`).
    _bodies: Dict[Callable[..., Any], bytes] = field(default_factory=dict, repr=False)

    def encoded(self, payload: Callable[["JobRecord"], Any]) -> bytes:
        """``json.dumps(payload(self), sort_keys=True).encode()``, kept per
        ``payload`` function once the record is DONE: a DONE record is
        never written again, so its responses cannot go stale.  Before
        DONE every call encodes afresh (the state is read *before* the
        payload is built, so a record finishing meanwhile keeps nothing).
        Two threads may both miss and both fill: they store the same
        bytes, so the race is benign."""
        body = self._bodies.get(payload)
        if body is None:
            done = self.state == DONE
            body = json.dumps(payload(self), sort_keys=True).encode()
            if done:
                self._bodies[payload] = body
        return body

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "job_id": self.job_id,
            "fingerprint": self.job_id,
            "status": self.state,
            "priority": self.priority,
            "attempts": self.attempts,
            "cached": self.cached,
        }
        if self.worker is not None:
            payload["worker"] = self.worker
        if self.state == DONE:
            payload["result"] = self.result
        if self.error is not None:
            payload["error"] = self.error
        return payload


def _guarded_run(
    runner: Callable[[Dict[str, Any]], Dict[str, Any]],
    spec: Dict[str, Any],
    timeout: Optional[float],
) -> Tuple[str, Any]:
    """Run one spec, trapping failure into data (module-level: picklable).

    Returning ``("error", message)`` instead of raising keeps one bad
    cell from aborting the rest of its ``run_jobs`` list.  The timeout
    is :func:`repro.parallel.call_with_timeout` — a portable
    join-with-deadline watchdog that fires identically inside pool
    worker processes, on the serial in-thread path and in asyncio
    executor threads.  Timeout outcomes are reported with the
    :data:`TIMEOUT_ERROR_PREFIX` so the queue layer can count them.
    """
    try:
        return "ok", call_with_timeout(runner, (spec,), timeout=timeout)
    except CallTimeout:
        return "error", (
            f"{TIMEOUT_ERROR_PREFIX}: job exceeded {timeout:g}s wall clock"
        )
    except Exception as exc:  # noqa: BLE001 — converted to a FAILED record
        return "error", f"{type(exc).__name__}: {exc}"


class LeaseKeeper:
    """A claimant's heartbeat thread, alive inside its ``with`` block:
    every ``lease_ttl / 3`` seconds it calls ``heartbeat(job_id)`` for
    each job the claimant currently holds.

    A heartbeat answered False means the lease is forfeit (requeued,
    possibly finished elsewhere): the execution carries on — completion
    is idempotent — but the keeper stops asserting it and counts it in
    ``lost``.  ``release`` runs on the keeper thread as it exits (an HTTP
    claimant closes that thread's connection there).
    """

    def __init__(
        self,
        heartbeat: Callable[[str], bool],
        lease_ttl: float,
        release: Optional[Callable[[], None]] = None,
    ) -> None:
        self.heartbeat = heartbeat
        self.interval = max(0.2, lease_ttl / 3.0)
        self.release = release
        self.lost = 0
        self._held: set = set()
        self._guard = threading.Lock()
        self._closed = threading.Event()

    def __enter__(self) -> "LeaseKeeper":
        threading.Thread(
            target=self._run, name="repro-lease-keeper", daemon=True
        ).start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._closed.set()

    def hold(self, job_ids: Iterable[str]) -> None:
        with self._guard:
            self._held.update(job_ids)

    def settle(self, job_id: str) -> None:
        """Stop heartbeating a job once it has been reported."""
        with self._guard:
            self._held.discard(job_id)

    def _run(self) -> None:
        try:
            while not self._closed.wait(self.interval):
                with self._guard:
                    held = list(self._held)
                for job_id in held:
                    if not self.heartbeat(job_id):
                        self.lost += 1
                        self.settle(job_id)
        finally:
            if self.release is not None:
                self.release()


def execute_leased(
    jobs: Sequence[Tuple[str, Dict[str, Any]]],
    keeper: LeaseKeeper,
    complete: Callable[[str, bool, Any], str],
    runner: Callable[[Dict[str, Any]], Dict[str, Any]] = run_sim_spec,
    timeout: Optional[float] = None,
    workers: int = 1,
) -> List[Tuple[bool, str]]:
    """Run claimed ``(job_id, spec)`` pairs and settle each one: what
    every claimant does between ``claim`` and the next ``claim``.

    ``keeper`` holds the leases while the specs run
    (:func:`repro.parallel.run_jobs` over :func:`_guarded_run`); then
    ``complete(job_id, ok, value)`` reports each outcome — the payload,
    or the error message.  Returns each job's ``(ok, verdict)``.  If a
    completion raises, the jobs still held are let go when the caller's
    keeper closes: their leases lapse and the next claimant takes them.
    """
    keeper.hold(job_id for job_id, _ in jobs)
    results = run_jobs(
        [Job(_guarded_run, (runner, spec, timeout)) for _, spec in jobs],
        workers=workers,
    )
    settled: List[Tuple[bool, str]] = []
    for (job_id, _), (status, value) in zip(jobs, results):
        keeper.settle(job_id)  # first: a settled job's heartbeat says "forfeit"
        ok = status == "ok"
        settled.append((ok, complete(job_id, ok, value)))
    return settled


class JobQueue:
    """Deduplicating priority queue whose jobs run under leases."""

    def __init__(
        self,
        runner: Callable[[Dict[str, Any]], Dict[str, Any]] = run_sim_spec,
        store: Optional[ResultStore] = None,
        workers: Optional[int] = None,
        max_depth: int = 256,
        timeout: Optional[float] = None,
        retries: int = 1,
        backoff: float = 0.25,
        registry: Optional[MetricsRegistry] = None,
        record_ttl: Optional[float] = None,
        on_executed: Optional[
            Callable[[Dict[str, Any], Dict[str, Any]], None]
        ] = None,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        local_exec: bool = True,
    ) -> None:
        self.runner = runner
        self.store = store if store is not None else ResultStore()
        self.workers = resolve_workers(workers)
        self.max_depth = max_depth
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        #: Seconds a claim survives without a heartbeat before the job is
        #: requeued for the next claimant (at-least-once delivery).
        self.lease_ttl = max(0.5, float(lease_ttl))
        #: When False, the scheduler thread never claims — PENDING
        #: records wait for remote workers to :meth:`claim` them (the
        #: thread still sweeps expired leases and TTL-prunes finished
        #: records).
        self.local_exec = local_exec
        #: Seconds a DONE/FAILED record survives before pruning (the
        #: result itself lives on in the store; only the in-memory
        #: bookkeeping dict is bounded).  None = keep forever.
        self.record_ttl = record_ttl
        #: Called as ``on_executed(spec, payload)`` after each fresh
        #: execution persists — by :meth:`complete`, outside the queue
        #: lock, exceptions swallowed (feedback must never wedge a
        #: claimant).
        self.on_executed = on_executed
        #: Called as ``on_claimable(not_before)`` whenever a record becomes
        #: claimable — a submission, a lease requeue, a retry (claimable
        #: once ``time.monotonic()`` reaches ``not_before``) — under the
        #: queue lock, from whichever thread made it so: it must not block
        #: (a front end wakes its parked claims with it).
        self.on_claimable: Optional[Callable[[float], None]] = None
        self.registry = registry if registry is not None else self.store.registry
        self._records: Dict[str, JobRecord] = {}
        self._heap: List[Tuple[int, int, str]] = []  # (-priority, seq, job_id)
        self._seq = itertools.count()
        self._lock = threading.Condition()
        self._stopping = False
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "JobQueue":
        if self._thread is None:
            self._stopping = False
            self._thread = threading.Thread(
                target=self._loop, name="repro-jobqueue", daemon=True
            )
            self._thread.start()
        return self

    def stop(self, wait: bool = True) -> None:
        with self._lock:
            self._stopping = True
            self._lock.notify_all()
        if wait and self._thread is not None:
            self._thread.join()
        self._thread = None

    def __enter__(self) -> "JobQueue":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- introspection ---------------------------------------------------

    @property
    def depth(self) -> int:
        """Jobs admitted but not yet finished (pending + running)."""
        with self._lock:
            return sum(
                1
                for rec in self._records.values()
                if rec.state in (PENDING, RUNNING)
            )

    @property
    def records(self) -> int:
        """Records held in memory, finished ones inside their TTL included."""
        return len(self._records)

    def get(self, job_id: str) -> Optional[JobRecord]:
        with self._lock:
            return self._records.get(job_id)

    def finished(self, job_id: str) -> Optional[JobRecord]:
        """The DONE record of ``job_id`` inside its TTL, read without the
        lock (an event loop asks, once per warm request).  None is
        needed — the dict read is atomic, DONE is the last field written,
        and a DONE record never changes again."""
        record = self._records.get(job_id)
        if record is None or record.state != DONE:
            return None
        ttl = self.record_ttl
        if ttl is not None and record.finished_at <= time.monotonic() - ttl:
            return None  # ``submit`` would prune it first
        return record

    def wait(self, job_id: str, timeout: Optional[float] = None) -> JobRecord:
        record = self.get(job_id)
        if record is None:
            raise KeyError(job_id)
        record.done_event.wait(timeout)
        return record

    # -- submission ------------------------------------------------------

    def submit(
        self, spec: Dict[str, Any], priority: int = 0, job_id: Optional[str] = None
    ) -> Tuple[JobRecord, bool]:
        """Admit ``spec``; returns ``(record, fresh)``.

        ``fresh`` is True only when this call created new pending work;
        a store hit or coalescing onto an in-flight record returns False.
        Raises :class:`QueueFull` past ``max_depth``.  ``job_id`` is the
        spec's fingerprint, for a caller that has already computed it.
        """
        if job_id is None:
            job_id = spec_fingerprint(spec_identity(spec))
        with self._lock:
            self._prune_locked()
            record = self._live_record_locked(job_id)
        if record is not None:
            return record, False
        # The disk read happens outside the lock: heartbeats, claims and
        # status reads take it on an event loop.
        payload = self.store.get(job_id)
        with self._lock:
            # A racing submission or completion of this fingerprint may
            # have got here first: still one record, one execution.
            record = self._live_record_locked(job_id)
            if record is not None:
                return record, False
            if payload is not None:
                record = JobRecord(
                    job_id, dict(spec), priority, state=DONE, cached=True,
                    result=payload, finished_at=time.monotonic(),
                )
                record.done_event.set()
                self._records[job_id] = record
                return record, False
            depth = self.depth
            if depth >= self.max_depth:
                self.registry.counter("service.queue.rejected").inc()
                raise QueueFull(
                    f"queue depth {depth} at max_depth={self.max_depth}"
                )
            record = JobRecord(job_id, dict(spec), priority)
            self._records[job_id] = record
            self._push_locked(record)
            self.registry.counter("service.queue.submitted").inc()
            self._lock.notify_all()
            return record, True

    def _push_locked(self, record: JobRecord) -> None:
        """Make a PENDING record claimable: FIFO within its priority."""
        heapq.heappush(self._heap, (-record.priority, next(self._seq), record.job_id))
        if self.on_claimable is not None:
            self.on_claimable(record.not_before)

    def _live_record_locked(self, job_id: str) -> Optional[JobRecord]:
        """The record a submission of ``job_id`` lands on, counted; None
        for an unknown id or a FAILED record (those resubmit)."""
        record = self._records.get(job_id)
        if record is None or record.state == FAILED:
            return None
        self.registry.counter(
            "service.queue.memo_hit" if record.state == DONE
            else "service.queue.coalesced"
        ).inc()
        return record

    # -- the lease protocol: how every job is run and settled ------------

    def claim(self, worker_id: str, max_jobs: int = 1) -> List[JobRecord]:
        """Hand up to ``max_jobs`` PENDING records to ``worker_id``.

        Claimed records move to RUNNING under a lease of ``lease_ttl``
        seconds; the worker must :meth:`heartbeat` to keep it, and
        :meth:`complete` to settle it.  A record is handed to exactly one
        claimant at a time — concurrent claims of the same fingerprint
        are impossible by construction (dedup happens at submit, and a
        record leaves the ready heap when claimed) — but a lease that
        expires puts the record back, so delivery is at-least-once.
        """
        now = time.monotonic()
        claimed: List[JobRecord] = []
        deferred: List[Tuple[int, int, str]] = []
        with self._lock:
            self._requeue_expired_locked()
            while self._heap and len(claimed) < max(1, max_jobs):
                entry = heapq.heappop(self._heap)
                record = self._records.get(entry[2])
                if record is None or record.state != PENDING:
                    continue  # cancelled/stale entry
                if record.not_before > now:
                    deferred.append(entry)
                    continue
                record.state = RUNNING
                record.worker = worker_id
                record.lease_expiry = now + self.lease_ttl
                claimed.append(record)
            for entry in deferred:
                heapq.heappush(self._heap, entry)
            if claimed:
                self.registry.counter("service.queue.claimed").inc(len(claimed))
                self._lock.notify_all()  # the janitor re-arms on the new leases
        return claimed

    def heartbeat(self, job_id: str, worker_id: str) -> bool:
        """Extend ``worker_id``'s lease on ``job_id``; False if forfeit.

        A False return tells the worker its lease is gone (expired and
        requeued, completed elsewhere, or never claimed by it) — the
        worker should abandon the execution; a late duplicate completion
        is harmless either way.
        """
        with self._lock:
            record = self._records.get(job_id)
            if (
                record is None
                or record.state != RUNNING
                or record.worker != worker_id
            ):
                return False
            record.lease_expiry = time.monotonic() + self.lease_ttl
            return True

    def complete(
        self,
        job_id: str,
        worker_id: str,
        ok: bool,
        value: Any,
    ) -> str:
        """Settle a claimed job with the worker's outcome.

        Idempotent by content identity: completing an already-DONE
        record is a no-op (``"duplicate"``), and a late completion from
        a worker whose lease expired is *accepted* — the payload is a
        pure function of the fingerprint, so whoever finishes first wins
        and everyone else coalesces.  Completion of a record the queue
        no longer tracks (TTL-pruned) still persists a successful
        payload to the store (``"stored"``): at-least-once delivery must
        never drop a computed result.

        Returns one of ``"done"``, ``"duplicate"``, ``"stored"``,
        ``"retry"``, ``"failed"``, ``"unknown"``.
        """
        with self._lock:
            record = self._records.get(job_id)
            if record is None:
                if ok:
                    self.store.put(job_id, value)
                    self.registry.counter("service.queue.orphan_stored").inc()
                    return "stored"
                return "unknown"
            if record.state == DONE:
                self.registry.counter("service.queue.duplicate_completion").inc()
                return "duplicate"
            if record.state == RUNNING and record.worker != worker_id:
                # Lease moved on but this worker finished anyway: a
                # valid result is a valid result — take it.
                self.registry.counter("service.queue.late_completion").inc()
            self._lock.notify_all()
            if not ok:
                retried = self._record_failure_locked(record, str(value))
                return "retry" if retried else "failed"
            self._finish_ok_locked(record, value)
        # Feedback runs outside the lock: a slow (or broken) observer
        # must not stall submissions or other claimants.
        if self.on_executed is not None:
            try:
                self.on_executed(record.spec, value)
            except Exception:  # noqa: BLE001 — feedback is best-effort
                self.registry.counter("service.queue.feedback_error").inc()
        return "done"

    def requeue_expired(self) -> int:
        """Requeue RUNNING records whose lease lapsed; returns the count."""
        with self._lock:
            return self._requeue_expired_locked()

    def _requeue_expired_locked(self) -> int:
        """Caller holds the lock."""
        now = time.monotonic()
        expired = [
            rec
            for rec in self._records.values()
            if rec.state == RUNNING and rec.lease_expiry <= now
        ]
        for record in expired:
            record.state = PENDING
            record.worker = None
            record.lease_expiry = 0.0
            self._push_locked(record)
        if expired:
            self.registry.counter("service.queue.lease_expired").inc(len(expired))
            self._lock.notify_all()
        return len(expired)

    # -- outcome recording (complete only) -------------------------------

    def _finish_ok_locked(self, record: JobRecord, payload: Dict[str, Any]) -> None:
        self.store.put(record.job_id, payload)
        record.result = payload
        record.worker = None
        record.finished_at = time.monotonic()
        record.state = DONE  # last: ``finished`` reads without the lock
        record.done_event.set()
        self.registry.counter("service.queue.executed").inc()

    def _record_failure_locked(self, record: JobRecord, message: str) -> bool:
        """Retry-or-fail a record; True when it was requeued for retry."""
        if message.startswith(TIMEOUT_ERROR_PREFIX):
            self.registry.counter("service.queue.timeout").inc()
        record.attempts += 1
        record.worker = None
        if record.attempts <= self.retries:
            record.state = PENDING
            record.not_before = time.monotonic() + self.backoff * (
                2 ** (record.attempts - 1)
            )
            self._push_locked(record)
            self.registry.counter("service.queue.retried").inc()
            return True
        record.error = message
        record.state = FAILED
        record.finished_at = time.monotonic()
        record.done_event.set()
        self.registry.counter("service.queue.failed").inc()
        return False

    # -- maintenance -----------------------------------------------------

    def _prune_locked(self) -> int:
        """Drop DONE/FAILED records older than ``record_ttl``.

        Caller holds the lock.  Stale heap entries (retries of a pruned
        FAILED record) are already tolerated by ``claim``.
        """
        if self.record_ttl is None:
            return 0
        cutoff = time.monotonic() - self.record_ttl
        expired = [
            job_id
            for job_id, rec in self._records.items()
            if rec.state in (DONE, FAILED) and rec.finished_at <= cutoff
        ]
        for job_id in expired:
            del self._records[job_id]
        if expired:
            self.registry.counter("service.queue.pruned").inc(len(expired))
        return len(expired)

    def prune(self) -> int:
        """Public face of TTL pruning (also runs on submit and when idle)."""
        with self._lock:
            return self._prune_locked()

    # -- scheduler -------------------------------------------------------

    def _loop(self) -> None:
        """The scheduler thread: janitor (lease sweeps, TTL pruning) and,
        with ``local_exec``, a claimant of its own queue."""
        with LeaseKeeper(
            lambda job_id: self.heartbeat(job_id, LOCAL_WORKER), self.lease_ttl
        ) as keeper:
            while True:
                claimed = self._await_claim()
                if claimed is None:
                    return
                execute_leased(
                    [(record.job_id, record.spec) for record in claimed],
                    keeper,
                    complete=lambda job_id, ok, value: self.complete(
                        job_id, LOCAL_WORKER, ok, value
                    ),
                    runner=self.runner,
                    timeout=self.timeout,
                    workers=self.workers,
                )

    def _await_claim(self) -> Optional[List[JobRecord]]:
        """Do the janitor's rounds until the local claimant holds work;
        None once the queue is stopping."""
        with self._lock:
            while not self._stopping:
                self._prune_locked()
                if self.local_exec:
                    # Under the (re-entrant) lock, so a submission cannot
                    # slip between an empty claim and the wait below.
                    claimed = self.claim(LOCAL_WORKER, self.workers)
                    if claimed:
                        return claimed
                else:
                    self._requeue_expired_locked()
                # Sleep until the earliest retry backoff or lease expiry
                # (or until new work is notified).
                now = time.monotonic()
                delays = [
                    rec.lease_expiry - now
                    for rec in self._records.values()
                    if rec.state == RUNNING
                ]
                if self.local_exec:
                    delays.extend(
                        self._records[job_id].not_before - now
                        for _, _, job_id in self._heap
                        if job_id in self._records
                    )
                self._lock.wait(max(0.01, min(delays)) if delays else None)
        return None

