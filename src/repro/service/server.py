"""HTTP campaign server: simulations as a memoized service.

:class:`ServiceCore` holds the store, the queue, the surrogate oracle and
every route, and opens no socket; :class:`ServiceServer` is the one front
end, an asyncio loop in a daemon thread.  DESIGN §4e describes the
service, README lists its endpoints; this file keeps these invariants:

* **framing** — a request head ends at ``\\r\\n\\r\\n`` within
  :data:`MAX_HEAD_BYTES`, a body is ``Content-Length`` bytes up to
  :data:`MAX_BODY_BYTES`; a longer head closes the connection
  unanswered, a longer declared body is a 413 that closes it unread;
* **replies in order** — each connection answers its requests in the
  order they arrived: while a parked claim or a pool hop runs as a
  task, the requests behind it wait in the buffer;
* **what leaves the loop** — what memory holds is answered inside
  ``data_received`` (lock-only handlers, finished job records, warm
  surrogate answers); only disk, table builds and enqueueing hop to the
  thread pool, and a parked ``GET /jobs/claim`` is a future the queue
  resolves;
* **drain** — ``stop()`` turns ``/healthz`` to 503, closes the listener
  and every idle keep-alive connection, answers parked claims empty,
  lets in-flight requests finish with ``Connection: close``, then stops
  the queue.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Awaitable, Dict, List, Optional, Set, Tuple, Union
from urllib.parse import parse_qs, urlsplit

import repro
from repro.obs.metrics import MetricsRegistry, text_exposition
from repro.service.queue import DEFAULT_LEASE_TTL, DONE, JobQueue, JobRecord, QueueFull
from repro.service.spec import SimSpec, run_sim_spec, spec_identity
from repro.service.store import ResultStore, spec_fingerprint

#: Default bind address of ``repro serve``.
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8765

#: Upper bucket edges (milliseconds) for per-endpoint latency histograms.
HTTP_LATENCY_BOUNDS: Tuple[float, ...] = (
    0.5, 1, 2, 5, 10, 25, 50, 100, 250, 1000, 5000,
)

#: Hard ceiling on a single long poll (clients re-poll; a cap keeps
#: drain fast and broken clients bounded).
CLAIM_MAX_WAIT = 30.0

#: Longest request head (request line and headers) a connection buffers;
#: past it without a blank line, the connection is closed unanswered.
MAX_HEAD_BYTES = 64 * 1024
#: Largest accepted request body (a campaign of specs, with headroom).
MAX_BODY_BYTES = 32 * 1024 * 1024
#: Seconds stop() waits for in-flight requests before giving up.
DRAIN_TIMEOUT = 10.0
#: Distinct ``POST /jobs`` bodies whose parse the front end keeps (FIFO).
PARSE_MEMO_ENTRIES = 256

#: Endpoints that may touch disk or the surrogate: the only ones allowed
#: off the loop, and only once the core had no answer in memory
#: (``may_block=False``; a completion and a metrics scrape never have one).
_EXECUTOR_ENDPOINTS = frozenset(
    {"jobs_submit", "jobs_complete", "results_get", "surrogate", "metrics"}
)

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass
class Response:
    """One handler outcome, front-end agnostic."""

    status: int
    payload: Optional[Dict[str, Any]] = None
    text: Optional[str] = None
    headers: Dict[str, str] = field(default_factory=dict)
    #: A JSON body already encoded (a DONE record's, ``JobRecord.encoded``,
    #: or a kept surrogate answer's).
    encoded: Optional[bytes] = None

    def body_bytes(self) -> Tuple[bytes, str]:
        if self.encoded is not None:
            return self.encoded, "application/json"
        if self.text is not None:
            return self.text.encode(), "text/plain; charset=utf-8"
        return (
            json.dumps(self.payload, sort_keys=True).encode(),
            "application/json",
        )


@dataclass
class Submission:
    """A validated ``POST /jobs`` body (:meth:`ServiceCore.parse_submission`)."""

    spec: SimSpec
    spec_dict: Dict[str, Any]
    job_id: str
    priority: int
    #: The surrogate lane applies and has not been asked yet.
    ask_surrogate: bool


def _job_payload(job_id: str, state: str, cached: bool, **extra: Any) -> Dict[str, Any]:
    payload = {"status": state, "cached": cached, "job_id": job_id, "fingerprint": job_id}
    return {**payload, **extra}


def _job_response(
    status: int, job_id: str, state: str, cached: bool, **extra: Any
) -> Response:
    return Response(status, _job_payload(job_id, state, cached, **extra))


# The responses a DONE record answers, each encoded once by
# ``JobRecord.encoded`` (``GET /jobs/<id>`` encodes ``JobRecord.to_dict``).
def _hit_payload(record: JobRecord) -> Dict[str, Any]:
    """``POST /jobs`` answered by a finished record (memo hit)."""
    return _job_payload(record.job_id, DONE, True, result=record.result)


def _result_payload(record: JobRecord) -> Dict[str, Any]:
    """``GET /results/<fp>``: content-addressed, the very blob ``put`` wrote."""
    return record.result


def endpoint_label(method: str, path: str) -> str:
    """Normalize a request to a bounded histogram label.

    Dynamic path segments (job ids, fingerprints) collapse to one label
    per endpoint so the metric space stays finite.
    """
    path = path.rstrip("/") or "/"
    if path == "/jobs" and method == "POST":
        return "jobs_submit"
    if path == "/jobs/claim":
        return "jobs_claim"
    if path.startswith("/jobs/") and path.endswith("/heartbeat"):
        return "jobs_heartbeat"
    if path.startswith("/jobs/") and path.endswith("/complete"):
        return "jobs_complete"
    if path.startswith("/jobs/"):
        return "jobs_get"
    if path.startswith("/results/"):
        return "results_get"
    if path in ("/healthz", "/metrics", "/surrogate"):
        return path[1:]
    return "other"


class ServiceCore:
    """Store + queue + surrogate + route logic; opens no socket."""

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        runner=run_sim_spec,
        workers: Optional[int] = None,
        max_depth: int = 256,
        timeout: Optional[float] = None,
        retries: int = 1,
        quiet: bool = False,  # accepted, unused: the front end keeps no access log
        record_ttl: Optional[float] = None,
        surrogate: bool = True,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        local_exec: bool = True,
    ) -> None:
        self.registry = MetricsRegistry()
        self.store = store if store is not None else ResultStore(registry=self.registry)
        self.store.registry = self.registry
        self.oracle = None
        if surrogate:
            from repro.surrogate import SurrogateOracle

            # Batch calibration writes: a worker fleet settling results
            # through the queue hook would otherwise rewrite the table on
            # every completion.  stop() flushes the tail.
            self.oracle = SurrogateOracle(
                store=self.store, registry=self.registry, save_every=16
            )
        self.queue = JobQueue(
            runner=runner,
            store=self.store,
            workers=workers,
            max_depth=max_depth,
            timeout=timeout,
            retries=retries,
            registry=self.registry,
            record_ttl=record_ttl,
            on_executed=self.oracle.observe if self.oracle is not None else None,
            lease_ttl=lease_ttl,
            local_exec=local_exec,
        )
        #: True once shutdown has begun: /healthz degrades, new claims
        #: return empty immediately, in-flight requests finish.
        self.draining = False

    # -- health / metrics ------------------------------------------------

    def health(self) -> Response:
        """Liveness + serviceability; non-200 = take me out of rotation."""
        payload: Dict[str, Any] = {
            "ok": True,
            "version": repro.__version__,
            "depth": self.queue.depth,
            "draining": self.draining,
        }
        if self.draining:
            payload["ok"] = False
        storage = self.store.health()
        payload["shards"] = storage["shards"]
        if not storage["ok"]:
            payload["ok"] = False
            payload["degraded"] = "shard unreachable"
        return Response(200 if payload["ok"] else 503, payload)

    def render_metrics(self) -> str:
        """Blocks: ``len(store)`` walks every blob directory."""
        self.registry.gauge("service.queue.depth").set(self.queue.depth)
        self.registry.gauge("service.queue.records").set(self.queue.records)
        self.registry.gauge("service.store.blobs").set(len(self.store))
        return text_exposition(self.registry)

    def observe_latency(self, endpoint: str, seconds: float) -> None:
        self.registry.histogram(
            f"service.http.latency_ms.{endpoint}", HTTP_LATENCY_BOUNDS
        ).add(seconds * 1000.0)

    # -- worker protocol -------------------------------------------------

    def claim(self, worker_id: str, max_jobs: int) -> Dict[str, Any]:
        """One non-blocking claim attempt, as the reply payload (the
        front end adds the long poll).  Every reply carries the lease
        terms and whether the server is draining."""
        claimed = [] if self.draining else self.queue.claim(worker_id, max_jobs)
        return {
            "jobs": [
                {
                    "job_id": record.job_id,
                    "spec": record.spec,
                    "priority": record.priority,
                    "attempts": record.attempts,
                }
                for record in claimed
            ],
            "lease_ttl": self.queue.lease_ttl,
            "timeout": self.queue.timeout,
            "draining": self.draining,
        }

    # -- routes ----------------------------------------------------------

    def parse_submission(self, body: Dict[str, Any]) -> Union[Submission, Response]:
        """Validate a ``POST /jobs`` body (400s); serialise and
        fingerprint its spec once, for every later step."""
        try:
            priority = int(body.pop("priority", 0))
            spec = SimSpec.from_dict(body)
        except (ValueError, TypeError) as exc:
            return Response(400, {"error": str(exc)})
        spec_dict = spec.to_dict()
        job_id = spec_fingerprint(spec_identity(spec_dict))
        lane = spec.mode in ("surrogate", "auto") and self.oracle is not None
        return Submission(spec, spec_dict, job_id, priority, lane)

    def submit(self, sub: Submission, may_block: bool = True) -> Optional[Response]:
        """Answer a parsed submission.  ``may_block=False`` answers only
        from memory — a warm surrogate prediction, a finished record: no
        disk, no table build, no lock wait — and returns None where that
        is not enough; the front end asks so on its event loop and passes
        ``sub`` back in from a thread."""
        if sub.ask_surrogate and (may_block or self.oracle.is_warm(sub.spec)):
            sub.ask_surrogate = False
            try:
                payload = self.oracle.answer(sub.spec)
            except (ValueError, KeyError) as exc:
                # Forced surrogate mode on a spec the model cannot see
                # (unknown pattern/topology) is a client error, not an
                # excuse to silently burn simulation time.
                return Response(400, {"error": f"surrogate cannot model spec: {exc}"})
            if payload is not None:
                return _job_response(
                    200, sub.job_id, DONE, False, surrogate=True, result=payload
                )
            # Gate said "too uncertain": fall through and simulate.
        if sub.ask_surrogate:
            return None  # a cold profile: its table walk needs a thread
        record = self.queue.finished(sub.job_id)
        if record is not None:
            self.registry.counter("service.queue.memo_hit").inc()
        elif not may_block:
            return None
        else:
            try:
                record, _fresh = self.queue.submit(
                    sub.spec_dict, sub.priority, sub.job_id
                )
            except QueueFull as exc:
                return Response(
                    429,
                    {"error": str(exc), "retry_after": 1},
                    headers={"Retry-After": "1"},
                )
        if record.state == DONE:
            return Response(200, encoded=record.encoded(_hit_payload))
        return _job_response(202, sub.job_id, record.state, False)

    def handle_post(self, path: str, body: Dict[str, Any]) -> Response:
        """The worker's POSTs (a submission is :meth:`parse_submission`,
        then :meth:`submit`)."""
        path = path.rstrip("/")
        if path.startswith("/jobs/") and path.endswith("/heartbeat"):
            job_id = path[len("/jobs/"):-len("/heartbeat")]
            worker = str(body.get("worker", ""))
            alive = self.queue.heartbeat(job_id, worker)
            return Response(200, {"ok": alive, "job_id": job_id})
        if path.startswith("/jobs/") and path.endswith("/complete"):
            job_id = path[len("/jobs/"):-len("/complete")]
            worker = str(body.get("worker", ""))
            ok = bool(body.get("ok", False))
            if ok and not isinstance(body.get("result"), dict):
                return Response(400, {"error": "ok completion needs a result object"})
            value = body.get("result") if ok else str(body.get("error", "worker error"))
            outcome = self.queue.complete(job_id, worker, ok, value)
            return Response(200, {"outcome": outcome, "job_id": job_id})
        return Response(404, {"error": f"no such endpoint: {path}"})

    def handle_get(
        self, path: str, query: Dict[str, List[str]], may_block: bool = True
    ) -> Optional[Response]:
        """``may_block=False``: as in :meth:`submit` — None where the
        answer needs the disk (a result no record holds, the blob count
        of a metrics scrape) or a table load."""
        path = path.rstrip("/")
        if path == "/healthz":
            return self.health()
        if path == "/metrics":
            return Response(200, text=self.render_metrics()) if may_block else None
        if path == "/surrogate":
            if self.oracle is None:
                return Response(404, {"error": "surrogate lane disabled"})
            return Response(200, self.oracle.status()) if may_block else None
        if path.startswith("/jobs/"):
            job_id = path[len("/jobs/"):]
            record = self.queue.get(job_id)
            if record is None:
                return Response(404, {"error": f"unknown job {job_id!r}"})
            return Response(200, encoded=record.encoded(JobRecord.to_dict))
        if path.startswith("/results/"):
            fp = path[len("/results/"):]
            record = self.queue.finished(fp)
            if record is not None:
                return Response(200, encoded=record.encoded(_result_payload))
            if not may_block:
                return None
            try:
                payload = self.store.get(fp)
            except ValueError:
                payload = None
            if payload is None:
                return Response(404, {"error": f"no result for {fp!r}"})
            return Response(200, payload)
        return Response(404, {"error": f"no such endpoint: {path}"})

    @staticmethod
    def parse_claim_query(query: Dict[str, List[str]]) -> Tuple[str, int, float]:
        """(worker, max_jobs, wait_seconds) of a claim request."""
        worker = (query.get("worker") or ["anonymous"])[0]
        max_jobs = max(1, int((query.get("max") or ["1"])[0]))
        wait = min(
            max(0.0, float((query.get("wait") or ["0"])[0])), CLAIM_MAX_WAIT
        )
        return worker, max_jobs, wait


class ServiceServer(ServiceCore):
    """One store + one queue + one asyncio HTTP front end."""

    def __init__(
        self,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        **core_kwargs,
    ) -> None:
        super().__init__(**core_kwargs)
        self._host = host
        self._requested_port = port
        self._bound: Optional[Tuple[str, int]] = None
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        #: Open connections (loop thread only).
        self._connections: Set[_Connection] = set()
        #: One future per parked claim; resolved True at its deadline,
        #: False by :meth:`_wake_claims`.
        self._parked: Set[asyncio.Future] = set()
        self._executor = ThreadPoolExecutor(
            max_workers=8, thread_name_prefix="repro-async-io"
        )
        self._startup_error: Optional[BaseException] = None
        #: ``POST /jobs`` body bytes -> the immutable parts of its parsed
        #: ``Submission``, then its kept surrogate reply as
        #: ``(calibration fingerprint, encoded body)`` or None (loop
        #: thread only, so no lock; FIFO-bounded).
        self._parsed: Dict[
            bytes,
            Tuple[SimSpec, Dict[str, Any], str, int, bool, Optional[Tuple[str, bytes]]],
        ] = {}
        self.queue.on_claimable = self._claimable

    # -- info ------------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        assert self._bound is not None, "server not started"
        return self._bound

    @property
    def port(self) -> int:
        return self.address[1]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "ServiceServer":
        """Start the queue and the event-loop thread; returns once bound."""
        self.queue.start()
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run_loop, name="repro-async-httpd", daemon=True
            )
            self._thread.start()
            self._ready.wait(10.0)
            if self._startup_error is not None:
                raise RuntimeError(
                    f"server failed to start: {self._startup_error}"
                )
            if self._bound is None:
                raise RuntimeError("server did not come up within 10s")
        return self

    def stop(self) -> None:
        """Graceful drain: degrade health, finish in-flight, stop queue."""
        self.draining = True
        loop, stop_event = self._loop, self._stop_event
        if loop is not None and stop_event is not None:
            try:
                loop.call_soon_threadsafe(stop_event.set)
            except RuntimeError:
                pass  # loop already closed
        if self._thread is not None:
            self._thread.join(DRAIN_TIMEOUT + 5.0)
            self._thread = None
        self.queue.stop(wait=False)
        self._executor.shutdown(wait=False)
        if self.oracle is not None:
            self.oracle.flush()

    def __enter__(self) -> "ServiceServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- event loop ------------------------------------------------------

    def _run_loop(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 — surfaced in start()
            self._startup_error = exc
            self._ready.set()

    async def _main(self) -> None:
        self._loop = loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        server = await loop.create_server(
            lambda: _Connection(self), self._host, self._requested_port
        )
        sockname = server.sockets[0].getsockname()
        self._bound = (sockname[0], sockname[1])
        self._ready.set()
        try:
            await self._stop_event.wait()
        finally:
            server.close()
            # Drain: parked claims answer empty (``draining``), idle
            # keep-alive connections are closed, and a request in flight
            # is answered ``Connection: close``, which closes its
            # connection.  ``wait_closed()`` does none of this, and
            # differs across 3.11/3.12.
            self._wake_claims()
            deadline = time.monotonic() + DRAIN_TIMEOUT
            while self._connections and time.monotonic() < deadline:
                for conn in list(self._connections):
                    if conn.idle:
                        conn.transport.close()
                await asyncio.sleep(0.01)
            for conn in list(self._connections):
                conn.transport.abort()

    # -- HTTP ------------------------------------------------------------

    def _dispatch(
        self, method: str, endpoint: str, parts, body: bytes
    ) -> Union[Response, Awaitable[Response]]:
        """The response to one request, or an awaitable of it where the
        answer needs the pool (``_EXECUTOR_ENDPOINTS`` only, once memory
        had none) or must wait for work (a parked claim)."""
        path = parts.path
        if method == "GET" and path.rstrip("/") == "/jobs/claim":
            return self._claim(parse_qs(parts.query))
        if endpoint == "jobs_submit":
            sub = self._parse_submission_bytes(body)
            if isinstance(sub, Response):
                return sub
            response = self.submit(sub, may_block=False)
            if response is None:
                return self._submit_off_loop(body, sub)
            return self._keep(body, response)
        if method == "POST":
            payload = _json_object(body)
            if isinstance(payload, Response):
                return payload
            if endpoint not in _EXECUTOR_ENDPOINTS:
                return self.handle_post(path, payload)
            return self._off_loop(self.handle_post, path, payload)
        if method in ("GET", "HEAD"):
            # HEAD: the GET status and headers; the connection drops the body.
            query = parse_qs(parts.query)
            if endpoint not in _EXECUTOR_ENDPOINTS:
                return self.handle_get(path, query)
            return self.handle_get(
                path, query, may_block=False
            ) or self._off_loop(self.handle_get, path, query)
        return Response(405, {"error": f"method {method} not allowed"})

    def _parse_submission_bytes(self, body: bytes) -> Union[Submission, Response]:
        """``parse_submission`` once per distinct body.  A hit builds a
        fresh ``Submission`` (``submit`` clears its ``ask_surrogate``)
        and still goes through ``submit``, so TTLs, store reads and
        admission are decided per request; a 400 is never kept.  A hit
        whose surrogate reply is kept under the oracle's current
        calibration fingerprint is answered with those bytes."""
        parsed = self._parsed.get(body)
        if parsed is not None:
            kept = parsed[5]
            if kept is not None and kept[0] == self.oracle.known_fingerprint:
                # The counts ``oracle.answer`` makes per answer.
                self.registry.counter("surrogate.predictions").inc()
                self.registry.counter("surrogate.answered").inc()
                return Response(200, encoded=kept[1])
            return Submission(*parsed[:5])
        payload = _json_object(body)
        if isinstance(payload, Response):
            return payload
        sub = self.parse_submission(payload)
        if isinstance(sub, Response):
            return sub
        if len(self._parsed) >= PARSE_MEMO_ENTRIES:
            del self._parsed[next(iter(self._parsed))]
        self._parsed[body] = (
            sub.spec, sub.spec_dict, sub.job_id, sub.priority, sub.ask_surrogate, None
        )
        return sub

    def _keep(self, body: bytes, response: Response) -> Response:
        """A surrogate answer to ``body``, encoded once and kept beside
        its parse, tagged with the calibration fingerprint its
        provenance carries; every other reply (an escalation, a 400)
        passes through unkept."""
        payload = response.payload
        if payload is None or payload.get("surrogate") is not True:
            return response
        parsed = self._parsed.get(body)
        if parsed is None:
            return response  # evicted while the answer was computed
        encoded = json.dumps(payload, sort_keys=True).encode()
        provenance = payload["result"]["surrogate"]["provenance"]
        self._parsed[body] = parsed[:5] + ((provenance["calibration_fingerprint"], encoded),)
        return Response(response.status, encoded=encoded)

    async def _submit_off_loop(self, body: bytes, sub: Submission) -> Response:
        return self._keep(body, await self._off_loop(self.submit, sub))

    def _off_loop(self, func, *args) -> Awaitable[Response]:
        return self._loop.run_in_executor(self._executor, func, *args)

    def _claim(self, query: Dict[str, List[str]]) -> Union[Response, Awaitable[Response]]:
        worker, max_jobs, wait = ServiceCore.parse_claim_query(query)
        payload = self.claim(worker, max_jobs)
        if payload["jobs"] or self.draining or wait <= 0:
            return Response(200, payload)
        return self._park_claim(worker, max_jobs, wait)

    async def _park_claim(self, worker: str, max_jobs: int, wait: float) -> Response:
        """A parked claim: one more attempt per wake (a record became
        claimable, a retry's backoff ended, ``stop()``), the last at its
        deadline.  Its connection cancels it when the client hangs up."""
        loop = self._loop
        deadline = loop.time() + wait
        while True:
            wake = loop.create_future()
            timer = loop.call_at(deadline, _resolve, wake, True)
            self._parked.add(wake)
            try:
                expired = await wake
            finally:
                timer.cancel()
                self._parked.discard(wake)
            payload = self.claim(worker, max_jobs)
            if payload["jobs"] or self.draining or expired:
                return Response(200, payload)

    def _claimable(self, not_before: float) -> None:
        """``JobQueue.on_claimable``, from any thread: a record is
        claimable from ``not_before`` (``time.monotonic()``) on."""
        loop = self._loop
        if loop is not None:
            try:
                loop.call_soon_threadsafe(self._wake_claims, not_before)
            except RuntimeError:
                pass  # loop closed: nothing is parked

    def _wake_claims(self, not_before: float = 0.0) -> None:
        """Loop thread: give every parked claim another attempt, now or,
        for a retry still in its backoff, when the backoff ends."""
        delay = not_before - time.monotonic()
        if delay > 0:
            self._loop.call_later(delay, self._wake_claims)
            return
        for wake in self._parked:
            _resolve(wake, False)


def _failure(exc: Exception) -> Response:
    """The reply when a handler raised: malformed input (``ValueError``,
    bad JSON included) is the client's 400, anything else a 500."""
    if isinstance(exc, ValueError):
        return Response(400, {"error": str(exc)})
    return Response(500, {"error": f"{type(exc).__name__}: {exc}"})


def _resolve(future: asyncio.Future, value: bool) -> None:
    if not future.done():
        future.set_result(value)


class _Connection(asyncio.Protocol):
    """One client connection of a :class:`ServiceServer`.  It frames each
    request out of its buffer and answers it inside ``data_received``
    when the answer is in memory; a parked claim or a pool hop runs as
    ``pending``, and the requests behind it stay buffered, so replies
    leave in request order."""

    def __init__(self, server: ServiceServer) -> None:
        self.server = server
        self.transport: Optional[asyncio.Transport] = None
        self.buffer = bytearray()
        #: The task answering the request at the head of the line.
        self.pending: Optional[asyncio.Task] = None
        #: ``pending`` is a parked claim: a hang-up cancels it.
        self.parked = False
        self.eof = False
        self.write_paused = False

    @property
    def idle(self) -> bool:
        """Between requests: none in flight, none partly received."""
        return self.pending is None and not self.buffer

    # -- asyncio.Protocol ------------------------------------------------

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.server._connections.add(self)

    def connection_lost(self, exc) -> None:
        self.server._connections.discard(self)
        if self.parked:
            self.pending.cancel()  # a gone worker must lease nothing

    def eof_received(self) -> bool:
        """The client stopped sending.  A pool hop in flight is still
        answered (True keeps the transport open to write it); a parked
        claim is given up, like everything else, by closing."""
        self.eof = True
        return self.pending is not None and not self.parked

    def data_received(self, data: bytes) -> None:
        self.buffer += data
        if self.pending is None:
            self.serve()
        elif len(self.buffer) > MAX_HEAD_BYTES:
            self.transport.pause_reading()  # resumed once pending answers

    def pause_writing(self) -> None:
        self.write_paused = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.write_paused = False
        self.transport.resume_reading()
        self.serve()

    # -- requests --------------------------------------------------------

    def serve(self) -> None:
        """Answer the complete requests in the buffer, in order, until one
        needs a task, the client stops reading, or the connection closes."""
        buffer, transport = self.buffer, self.transport
        while self.pending is None and not self.write_paused and not transport.is_closing():
            end = buffer.find(b"\r\n\r\n")
            if not 0 <= end <= MAX_HEAD_BYTES:
                if self.eof or len(buffer) > MAX_HEAD_BYTES:
                    transport.close()
                return
            lines = buffer[:end].decode("latin-1").split("\r\n")
            try:
                method, target, version = lines[0].split(" ", 2)
            except ValueError:
                del buffer[:]
                if lines[0]:  # an empty request line is a hang-up
                    self.send(Response(400, {"error": "malformed request line"}), "", False)
                transport.close()
                return
            headers: Dict[str, str] = {}
            for line in lines[1:]:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
            try:
                parts = urlsplit(target)
                length = max(0, int(headers.get("content-length", 0) or 0))
            except ValueError as exc:
                length, refused = -1, Response(400, {"error": str(exc)})
            else:
                refused = None
            if length > MAX_BODY_BYTES:
                # Refused on the declared length: no byte of it is read.
                length, refused = -1, Response(413, {"error": "request body too large"})
            if refused is not None:
                # The rest of the stream cannot be framed: answer, close.
                del buffer[:]
                self.send(refused, method, False)
                return
            size = end + 4 + length
            if len(buffer) < size:
                if self.eof:
                    transport.close()
                return  # the body is still arriving
            body = bytes(buffer[end + 4:size])
            del buffer[:size]
            endpoint = endpoint_label(method, parts.path)
            request = (
                method,
                headers.get("connection", "").lower() != "close" and version != "HTTP/1.0",
                endpoint,
                time.perf_counter(),
            )
            answer = self._answer(method, endpoint, parts, body)
            if isinstance(answer, Response):
                self.send(answer, *request)
            else:
                self.parked = endpoint == "jobs_claim"
                self.pending = asyncio.ensure_future(self.finish(answer, request))

    def _answer(
        self, method: str, endpoint: str, parts, body: bytes
    ) -> Union[Response, Awaitable[Response]]:
        try:
            return self.server._dispatch(method, endpoint, parts, body)
        except Exception as exc:  # noqa: BLE001 — one request must not kill the loop
            return _failure(exc)

    async def finish(self, answer: Awaitable[Response], request: Tuple) -> None:
        """Await the request at the head of the line, answer it, then
        serve the requests buffered behind it."""
        try:
            response = await answer
        except Exception as exc:  # noqa: BLE001 — one request must not kill the loop
            response = _failure(exc)
        self.pending, self.parked = None, False
        if self.transport.is_closing():
            return
        self.send(response, *request)
        if not self.write_paused:
            self.transport.resume_reading()
        self.serve()

    def send(
        self,
        response: Response,
        method: str,
        keep_alive: bool,
        endpoint: Optional[str] = None,
        started: float = 0.0,
    ) -> None:
        """Write one reply; close after it unless both sides keep the
        connection alive.  A HEAD reply is the GET headers, framed by
        the body it does not send."""
        server = self.server
        keep_alive = keep_alive and not server.draining
        body, ctype = response.body_bytes()
        head = [
            f"HTTP/1.1 {response.status} {_REASONS.get(response.status, 'OK')}",
            f"Content-Type: {ctype}",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        head.extend(f"{k}: {v}" for k, v in response.headers.items())
        self.transport.write(
            ("\r\n".join(head) + "\r\n\r\n").encode("latin-1")
            + (body if method != "HEAD" else b"")
        )
        if endpoint is not None:
            server.observe_latency(endpoint, time.perf_counter() - started)
        if not keep_alive:
            self.transport.close()


def _json_object(body: bytes) -> Union[Dict[str, Any], Response]:
    """A POST body as a JSON object, or the 400 (malformed JSON raises
    ``ValueError``; the connection handler answers that 400)."""
    payload = json.loads(body) if body else None
    if not isinstance(payload, dict):
        return Response(400, {"error": "request body must be a JSON object"})
    return payload


def fingerprint_for(spec: SimSpec) -> str:
    """Fingerprint a spec exactly as ``POST /jobs`` would.

    Execution-only fields (``mode`` and the ignored ``engine``) are
    excluded, so submissions that differ only in how they are answered
    address the same stored result.
    """
    return spec_fingerprint(spec_identity(spec.to_dict()))
