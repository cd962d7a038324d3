"""HTTP campaign server: simulations as a memoized service.

Pure stdlib — no new dependencies.  The routing, submission, surrogate
fast-lane, and worker-protocol logic live in :class:`ServiceCore`, which
owns one :class:`~repro.service.store.ResultStore` (or a
:class:`~repro.service.fabric.shard.ShardedResultStore`) and one
:class:`~repro.service.queue.JobQueue`.  Two front ends drive the same
core:

* :class:`ServiceServer` — the classic thread-per-connection
  :class:`http.server.ThreadingHTTPServer` face (``repro serve``);
* :class:`repro.service.fabric.asyncserver.AsyncServiceServer` — the
  asyncio front end (``repro serve --backend async``) that lifts the
  thread-per-connection ceiling and adds graceful drain + per-endpoint
  latency histograms.

Endpoints (both front ends):

* ``POST /jobs`` — body is a :class:`~repro.service.spec.SimSpec` JSON
  dict (optional ``"priority"`` rides alongside).  Responds ``200`` with
  the full payload on a cache hit, ``202`` with the job id otherwise,
  ``400`` on a malformed spec, and ``429`` (+ ``Retry-After``) when the
  queue is at ``max_depth`` — clients are expected to back off.
* ``GET /jobs/claim?worker=ID&max=N&wait=S`` — remote-worker long poll:
  lease up to N pending jobs to worker ID, waiting up to S seconds for
  work before returning an empty claim.
* ``POST /jobs/<id>/heartbeat`` — extend a worker's lease
  (``{"worker": ID}``); ``ok: false`` tells the worker its lease is
  forfeit.
* ``POST /jobs/<id>/complete`` — report a worker's outcome
  (``{"worker": ID, "ok": bool, "result"|"error": ...}``); idempotent
  (duplicate completions coalesce — the response says which happened).
* ``GET /jobs/<id>`` — job status; includes the result once done.
* ``GET /results/<fingerprint>`` — the stored blob, or 404.
* ``GET /surrogate`` — calibration status of the surrogate fast lane.
* ``GET /metrics`` — text exposition of the merged metrics registry
  (store/queue/shard counters, per-endpoint latency histograms).
* ``GET /healthz`` — ``200 {"ok": true}`` only while the server is fully
  serviceable; ``503`` with the reason while draining or while a storage
  shard is unreachable, so load balancers (and the soak test) can key
  off the status code alone.

The surrogate fast lane rides ``POST /jobs``: a spec with ``mode``
``surrogate``/``auto`` may be answered synchronously (``200`` with a
``surrogate: true`` marker and an explicit error bound) without touching
the queue or the exact result store; ``auto`` submissions whose
uncertainty exceeds the gate threshold escalate into the normal queue
path, and each escalated execution — local *or* reported by a remote
worker — feeds the calibration table via the queue's ``on_executed``
hook.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple, Union
from urllib.parse import parse_qs, urlsplit

import repro
from repro.obs.metrics import MetricsRegistry, text_exposition
from repro.service.queue import DEFAULT_LEASE_TTL, DONE, JobQueue, QueueFull
from repro.service.spec import SimSpec, run_sim_spec, spec_identity
from repro.service.store import ResultStore, spec_fingerprint

#: Default bind address of ``repro serve``.
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8765

#: Upper bucket edges (milliseconds) for per-endpoint latency histograms.
HTTP_LATENCY_BOUNDS: Tuple[float, ...] = (
    0.5, 1, 2, 5, 10, 25, 50, 100, 250, 1000, 5000,
)

#: Interval between claim re-checks inside a long poll.
CLAIM_POLL_INTERVAL = 0.05
#: Hard ceiling on a single long poll (clients re-poll; a cap keeps
#: drain fast and broken clients bounded).
CLAIM_MAX_WAIT = 30.0


@dataclass
class Response:
    """One handler outcome, front-end agnostic."""

    status: int
    payload: Optional[Dict[str, Any]] = None
    text: Optional[str] = None
    headers: Dict[str, str] = field(default_factory=dict)

    def body_bytes(self) -> Tuple[bytes, str]:
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


def _job_response(
    status: int, job_id: str, state: str, cached: bool, **extra: Any
) -> Response:
    payload = {"status": state, "cached": cached, "job_id": job_id, "fingerprint": job_id}
    return Response(status, {**payload, **extra})


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
    """Store + queue + surrogate + route logic, shared by both front ends."""

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        runner=run_sim_spec,
        workers: Optional[int] = None,
        max_depth: int = 256,
        timeout: Optional[float] = None,
        retries: int = 1,
        quiet: bool = False,
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
        self.quiet = quiet
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
        store_health = getattr(self.store, "health", None)
        if store_health is not None:
            storage = store_health()
            payload["shards"] = storage.get("shards", {})
            if not storage.get("ok", True):
                payload["ok"] = False
                payload["degraded"] = "shard unreachable"
        return Response(200 if payload["ok"] else 503, payload)

    def render_metrics(self) -> str:
        self.registry.gauge("service.queue.depth").set(self.queue.depth)
        self.registry.gauge("service.queue.records").set(len(self.queue._records))
        self.registry.gauge("service.store.blobs").set(len(self.store))
        return text_exposition(self.registry)

    def observe_latency(self, endpoint: str, seconds: float) -> None:
        self.registry.histogram(
            f"service.http.latency_ms.{endpoint}", HTTP_LATENCY_BOUNDS
        ).add(seconds * 1000.0)

    # -- worker protocol -------------------------------------------------

    def claim_nowait(self, worker_id: str, max_jobs: int) -> List[Dict[str, Any]]:
        """One non-blocking claim attempt (front ends add the long poll)."""
        if self.draining:
            return []
        claimed = self.queue.claim(worker_id, max_jobs=max_jobs)
        return [
            {
                "job_id": record.job_id,
                "spec": record.spec,
                "priority": record.priority,
                "attempts": record.attempts,
            }
            for record in claimed
        ]

    def claim_payload(self, jobs: List[Dict[str, Any]]) -> Dict[str, Any]:
        return {
            "jobs": jobs,
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
        is not enough; the async front end asks so on its event loop and
        passes ``sub`` back in from a thread."""
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
            return _job_response(200, sub.job_id, DONE, True, result=record.result)
        return _job_response(202, sub.job_id, record.state, False)

    def handle_post_jobs(self, body: Dict[str, Any]) -> Response:
        sub = self.parse_submission(body)
        return sub if isinstance(sub, Response) else self.submit(sub)

    def handle_post(self, path: str, body: Dict[str, Any]) -> Response:
        path = path.rstrip("/")
        if path == "/jobs":
            return self.handle_post_jobs(body)
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
        answer needs the disk (a result no record holds) or a table load."""
        path = path.rstrip("/")
        if path == "/healthz":
            return self.health()
        if path == "/metrics":
            return Response(200, text=self.render_metrics())
        if path == "/surrogate":
            if self.oracle is None:
                return Response(404, {"error": "surrogate lane disabled"})
            return Response(200, self.oracle.status()) if may_block else None
        if path.startswith("/jobs/"):
            job_id = path[len("/jobs/"):]
            record = self.queue.get(job_id)
            if record is None:
                return Response(404, {"error": f"unknown job {job_id!r}"})
            return Response(200, record.to_dict())
        if path.startswith("/results/"):
            fp = path[len("/results/"):]
            record = self.queue.finished(fp)
            if record is not None:
                # Content-addressed: the very blob ``put`` wrote.
                return Response(200, record.result)
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


class ServiceHandler(BaseHTTPRequestHandler):
    """Routes requests onto the owning :class:`ServiceServer`."""

    server_version = f"repro-service/{repro.__version__}"
    protocol_version = "HTTP/1.1"
    #: ``_send`` writes head and body as two segments: on a keep-alive
    #: connection Nagle holds the second ~40 ms for a delayed ACK.
    disable_nagle_algorithm = True

    # The ThreadingHTTPServer subclass carries the service reference.
    @property
    def service(self) -> "ServiceServer":
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.service.quiet:
            super().log_message(format, *args)

    # -- plumbing --------------------------------------------------------

    def _send(self, response: Response) -> None:
        body, ctype = response.body_bytes()
        self.send_response(response.status)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(body)))
        for name, value in response.headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _read_json_body(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length", 0))
        if length <= 0:
            raise ValueError("empty request body")
        raw = self.rfile.read(length)
        payload = json.loads(raw)
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    # -- routes ----------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 — http.server contract
        started = time.perf_counter()
        parts = urlsplit(self.path)
        try:
            body = self._read_json_body()
        except ValueError as exc:
            self._send(Response(400, {"error": str(exc)}))
            return
        response = self.service.handle_post(parts.path, body)
        self._send(response)
        self.service.observe_latency(
            endpoint_label("POST", parts.path), time.perf_counter() - started
        )

    def do_GET(self) -> None:  # noqa: N802 — http.server contract
        started = time.perf_counter()
        parts = urlsplit(self.path)
        query = parse_qs(parts.query)
        if parts.path.rstrip("/") == "/jobs/claim":
            response = self._long_poll_claim(query)
        else:
            response = self.service.handle_get(parts.path, query)
        self._send(response)
        self.service.observe_latency(
            endpoint_label("GET", parts.path), time.perf_counter() - started
        )

    def _long_poll_claim(self, query: Dict[str, List[str]]) -> Response:
        """Blocking long poll — each parked claim costs a whole thread
        here, which is precisely the ceiling the async front end lifts."""
        worker, max_jobs, wait = ServiceCore.parse_claim_query(query)
        deadline = time.monotonic() + wait
        while True:
            jobs = self.service.claim_nowait(worker, max_jobs)
            if jobs or self.service.draining or time.monotonic() >= deadline:
                return Response(200, self.service.claim_payload(jobs))
            time.sleep(CLAIM_POLL_INTERVAL)


class _Httpd(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True


class ServiceServer(ServiceCore):
    """One store + one queue + one threaded HTTP front end."""

    def __init__(
        self,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        **core_kwargs,
    ) -> None:
        super().__init__(**core_kwargs)
        self.httpd = _Httpd((host, port), ServiceHandler)
        self.httpd.service = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    # -- info ------------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        return self.httpd.server_address[:2]

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "ServiceServer":
        """Start queue + HTTP threads; returns immediately (for tests)."""
        self.queue.start()
        if self._thread is None:
            self._thread = threading.Thread(
                target=self.httpd.serve_forever, name="repro-httpd", daemon=True
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Blocking form used by ``repro serve``."""
        self.queue.start()
        try:
            self.httpd.serve_forever()
        finally:
            self.queue.stop(wait=False)

    def stop(self) -> None:
        self.draining = True
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self.queue.stop(wait=False)
        if self.oracle is not None:
            self.oracle.flush()

    def __enter__(self) -> "ServiceServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def fingerprint_for(spec: SimSpec) -> str:
    """Fingerprint a spec exactly as ``POST /jobs`` would.

    Execution-only fields (``mode`` and the ignored ``engine``) are
    excluded, so submissions that differ only in how they are answered
    address the same stored result.
    """
    return spec_fingerprint(spec_identity(spec.to_dict()))
