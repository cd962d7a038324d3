"""Asyncio HTTP front end: the fleet-scale face of the campaign service.

The classic :class:`~repro.service.server.ServiceServer` spends one OS
thread per connection — fine for a laptop, a ceiling for a fleet: every
remote worker parks a long-poll claim connection, every dashboard scrape
and submission burns a thread spawn, and a few hundred concurrent
clients turn into a few hundred contending threads.
:class:`AsyncServiceServer` serves the *same* :class:`ServiceCore`
routes from a single event loop:

* **streaming request handling** — request bodies are read in bounded
  chunks as they arrive, so a large campaign submission never buffers
  through a thread stack, and a slow client costs a coroutine, not a
  thread;
* **long polls are free** — a parked ``GET /jobs/claim`` is an
  ``await``, so thousands of idle workers cost nothing;
* **graceful drain** — ``stop()`` flips ``/healthz`` to 503 (load
  balancers stop routing), closes the listener and every idle
  keep-alive connection, lets every in-flight request finish (answered
  ``Connection: close``), then stops the queue.  Parked claims return
  empty immediately so workers disconnect fast;
* **per-endpoint latency histograms** — every request lands in
  ``service.http.latency_ms.<endpoint>`` (visible in ``GET /metrics``),
  which is how the service bench reports front-end latency honestly.

What the process already holds in memory is answered on the event
loop: lock-only handlers (healthz, heartbeat, job status, claims), and a
submission or result read that a finished job record or a warm
surrogate profile can answer.  Only disk, table builds and enqueueing
(a first-time or store-only submission, a cold surrogate profile, a
result read from the store, a completion) hop to a small thread pool.

The server runs its event loop in a dedicated daemon thread so the
blocking ``repro serve`` CLI, tests, and context-manager usage look
exactly like the threaded server's.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.service.server import (
    CLAIM_POLL_INTERVAL,
    DEFAULT_HOST,
    DEFAULT_PORT,
    Response,
    ServiceCore,
    endpoint_label,
)

#: Bytes per streaming body-read chunk.
BODY_CHUNK = 64 * 1024
#: Largest accepted request body (a campaign of specs, with headroom).
MAX_BODY_BYTES = 32 * 1024 * 1024
#: Seconds stop() waits for in-flight requests before giving up.
DRAIN_TIMEOUT = 10.0

#: Endpoints that may touch disk or the surrogate: the only ones allowed
#: off the loop, and only once the core had no answer in memory
#: (``may_block=False``; a completion never has one).
_EXECUTOR_ENDPOINTS = frozenset(
    {"jobs_submit", "jobs_complete", "results_get", "surrogate"}
)


class AsyncServiceServer(ServiceCore):
    """Single-event-loop front end over :class:`ServiceCore`."""

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
        self._finished = threading.Event()
        #: Open connections -> True while parked on the request line.
        self._connections: Dict[asyncio.StreamWriter, bool] = {}
        self._executor = ThreadPoolExecutor(
            max_workers=8, thread_name_prefix="repro-async-io"
        )
        self._startup_error: Optional[BaseException] = None

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

    def start(self) -> "AsyncServiceServer":
        self.queue.start()
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run_loop, name="repro-async-httpd", daemon=True
            )
            self._thread.start()
            self._ready.wait(10.0)
            if self._startup_error is not None:
                raise RuntimeError(
                    f"async server failed to start: {self._startup_error}"
                )
            if self._bound is None:
                raise RuntimeError("async server did not come up within 10s")
        return self

    def serve_forever(self) -> None:
        """Blocking form used by ``repro serve --backend async``."""
        self.start()
        try:
            self._finished.wait()
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

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

    def __enter__(self) -> "AsyncServiceServer":
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
        finally:
            self._finished.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        server = await asyncio.start_server(
            self._handle_connection, self._host, self._requested_port
        )
        sockname = server.sockets[0].getsockname()
        self._bound = (sockname[0], sockname[1])
        self._ready.set()
        sweeper = asyncio.ensure_future(self._lease_sweeper())
        try:
            await self._stop_event.wait()
        finally:
            sweeper.cancel()
            server.close()
            # Drain: close idle keep-alive connections (EOF ends their
            # handler); one in flight is answered ``Connection: close``.
            # ``wait_closed()`` does neither, and differs across 3.11/3.12.
            deadline = time.monotonic() + DRAIN_TIMEOUT
            while self._connections and time.monotonic() < deadline:
                for writer, idle in list(self._connections.items()):
                    if idle:
                        writer.close()
                await asyncio.sleep(0.01)

    async def _lease_sweeper(self) -> None:
        """Requeue expired worker leases even when no claims arrive."""
        interval = max(0.5, self.queue.lease_ttl / 4.0)
        while True:
            await asyncio.sleep(interval)
            self.queue.requeue_expired()

    # -- HTTP ------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while await self._handle_one(reader, writer):
                pass
        except (
            asyncio.IncompleteReadError,
            ConnectionError,
            asyncio.LimitOverrunError,
        ):
            pass  # client went away mid-request
        finally:
            self._connections.pop(writer, None)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                # CancelledError: loop shutdown cancelled this handler
                # mid-close; the transport is torn down regardless.
                pass

    async def _handle_one(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        self._connections[writer] = True
        request_line = await reader.readline()
        self._connections[writer] = False
        if not request_line or request_line in (b"\r\n", b"\n"):
            return False
        try:
            method, target, version = (
                request_line.decode("latin-1").rstrip("\r\n").split(" ", 2)
            )
        except ValueError:
            await self._write_response(
                writer, Response(400, {"error": "malformed request line"}), False
            )
            return False
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        started = time.perf_counter()
        parts = urlsplit(target)
        try:
            body, overflow = await self._read_body(reader, headers)
            if overflow:
                response = Response(413, {"error": "request body too large"})
            else:
                response = await self._dispatch(method, parts, body)
        except (ValueError, json.JSONDecodeError) as exc:
            response = Response(400, {"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 — one request must not kill the loop
            response = Response(500, {"error": f"{type(exc).__name__}: {exc}"})
        keep_alive = (
            headers.get("connection", "").lower() != "close"
            and version != "HTTP/1.0"
            and not self.draining
        )
        await self._write_response(writer, response, keep_alive)
        self.observe_latency(
            endpoint_label(method, parts.path), time.perf_counter() - started
        )
        return keep_alive

    async def _read_body(
        self, reader: asyncio.StreamReader, headers: Dict[str, str]
    ) -> Tuple[bytes, bool]:
        """Stream the body in bounded chunks; flag oversized bodies."""
        length = int(headers.get("content-length", 0) or 0)
        if length <= 0:
            return b"", False
        if length > MAX_BODY_BYTES:
            return b"", True
        chunks: List[bytes] = []
        remaining = length
        while remaining > 0:
            chunk = await reader.readexactly(min(remaining, BODY_CHUNK))
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks), False

    async def _dispatch(self, method: str, parts, body: bytes) -> Response:
        path = parts.path
        query = parse_qs(parts.query)
        endpoint = endpoint_label(method, path)
        if method == "GET" and path.rstrip("/") == "/jobs/claim":
            return await self._long_poll_claim(query)
        if method == "POST":
            payload = json.loads(body) if body else None
            if not isinstance(payload, dict):
                return Response(400, {"error": "request body must be a JSON object"})
            if endpoint not in _EXECUTOR_ENDPOINTS:
                return self.handle_post(path, payload)
            if endpoint != "jobs_submit":
                return await self._off_loop(self.handle_post, path, payload)
            sub = self.parse_submission(payload)
            if isinstance(sub, Response):
                return sub
            response = self.submit(sub, may_block=False)
            return response or await self._off_loop(self.submit, sub)
        if method == "GET":
            if endpoint not in _EXECUTOR_ENDPOINTS:
                return self.handle_get(path, query)
            response = self.handle_get(path, query, may_block=False)
            return response or await self._off_loop(self.handle_get, path, query)
        if method == "HEAD":
            inner = self.handle_get(path, query)
            return Response(inner.status, text="")
        return Response(405, {"error": f"method {method} not allowed"})

    async def _off_loop(self, func, *args) -> Response:
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._executor, func, *args)

    async def _long_poll_claim(self, query: Dict[str, List[str]]) -> Response:
        """Parked claim = one coroutine await, not one OS thread."""
        worker, max_jobs, wait = ServiceCore.parse_claim_query(query)
        deadline = time.monotonic() + wait
        while True:
            jobs = self.claim_nowait(worker, max_jobs)
            if jobs or self.draining or time.monotonic() >= deadline:
                return Response(200, self.claim_payload(jobs))
            await asyncio.sleep(CLAIM_POLL_INTERVAL)

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        response: Response,
        keep_alive: bool,
    ) -> None:
        body, ctype = response.body_bytes()
        head = [
            f"HTTP/1.1 {response.status} {_REASONS.get(response.status, 'OK')}",
            f"Content-Type: {ctype}",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        head.extend(f"{k}: {v}" for k, v in response.headers.items())
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)
        await writer.drain()


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


def make_server(
    backend: str = "threaded",
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    **core_kwargs,
):
    """Front-end factory shared by the CLI and the soak harness."""
    if backend == "async":
        return AsyncServiceServer(host=host, port=port, **core_kwargs)
    if backend == "threaded":
        from repro.service.server import ServiceServer

        return ServiceServer(host=host, port=port, **core_kwargs)
    raise ValueError(f"unknown backend {backend!r}; have ('threaded', 'async')")
