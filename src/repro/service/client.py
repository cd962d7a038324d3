"""HTTP client for the campaign server (stdlib sockets only).

Small, dependency-free, and symmetric with the server's endpoints.  Three
pieces of client-side policy live here:

* **Persistent connections** — each thread using a client keeps one
  keep-alive socket (a worker's heartbeat thread and its long poll share
  one client); a reply is read by its ``Content-Length`` or refused.
  Any failure closes the socket, so a timed-out long poll can never
  leave a half-read response for the next request; a *reused*
  connection the server dropped while idle is reopened and the request
  resent once, at once, outside the retry budget below.
* **Transient-error retries** — every request in this API is idempotent
  (GETs trivially; job POSTs because submission is content-addressed
  dedup, heartbeats re-assert a lease, and completions coalesce on the
  server), so a dropped connection, a refused connect during a server
  restart, or a torn response is retried with capped exponential backoff
  plus jitter rather than surfaced.  HTTP *error responses* (4xx/5xx)
  are never blindly retried — the server answered; only 429
  backpressure gets its own loop in :meth:`ServiceClient.submit`,
  honoring the server's ``Retry-After``.
* **Polling** — :meth:`ServiceClient.run` submits and polls a job to
  completion; :meth:`ServiceClient.claim` long-polls the worker
  endpoint.
"""

from __future__ import annotations

import http.client
import json
import random
import socket
import ssl
import threading
import time
from typing import Any, Dict, Optional, Tuple
from urllib.parse import quote, urlencode, urlsplit

from repro.service.spec import SimSpec

#: Connection-level failures safe to retry on idempotent requests.
TRANSIENT_ERRORS = (
    ConnectionError,
    http.client.HTTPException,
    TimeoutError,
    socket.gaierror,  # a DNS hiccup
)

#: How a connection the server closed while it sat idle fails, on the send
#: or the status line (``RemoteDisconnected`` is both the first and the last).
_DROPPED_WHILE_IDLE = (ConnectionResetError, BrokenPipeError, http.client.BadStatusLine)

_MAX_LINE = 65536  # bytes per status or header line, as in ``http.client``
_PORTS = {"http": 80, "https": 443}


class ServiceError(RuntimeError):
    """Non-success response from the campaign server."""

    def __init__(self, status: int, payload: Dict[str, Any]) -> None:
        super().__init__(f"HTTP {status}: {payload.get('error', payload)}")
        self.status = status
        self.payload = payload


class JobFailedError(ServiceError):
    """The server executed the job and it failed (state ``failed``)."""


class ServiceClient:
    """Talk to a :class:`repro.service.server.ServiceServer`."""

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        transient_retries: int = 4,
        retry_backoff: float = 0.1,
        max_backoff: float = 2.0,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        #: Connection-error retries per request (0 disables the policy).
        self.transient_retries = transient_retries
        self.retry_backoff = retry_backoff
        self.max_backoff = max_backoff
        self._url = urlsplit(self.base_url)
        #: ``.conn``: the calling thread's keep-alive ``(socket, rfile)``.
        self._local = threading.local()

    def close(self) -> None:
        """Close the calling thread's connection (idempotent)."""
        conn, self._local.conn = getattr(self._local, "conn", None), None
        for part in conn or ():  # the socket, then its reader
            part.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- transport -------------------------------------------------------

    def _connect(self, timeout: float) -> Tuple[socket.socket, Any]:
        """A new ``(socket, rfile)``; https verifies as ``HTTPSConnection`` does."""
        url = self._url
        sock = socket.create_connection((url.hostname, url.port or _PORTS[url.scheme]), timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if url.scheme == "https":  # a failed handshake closes the socket
            sock = ssl.create_default_context().wrap_socket(sock, server_hostname=url.hostname)
        return sock, sock.makefile("rb")

    def _request_once(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        timeout: Optional[float] = None,
    ) -> Tuple[int, Dict[str, Any], str]:
        timeout = self.timeout if timeout is None else timeout
        data = json.dumps(body).encode() if body is not None else b""
        target = self._url.path + path
        if " " in target or not (target.isascii() and target.isprintable()):
            raise ValueError(f"request target must be percent-encoded: {target!r}")
        head = f"{method} {target} HTTP/1.1\r\nHost: {self._url.netloc}\r\n"
        if data:
            head += f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n"
        request = head.encode("ascii") + b"\r\n" + data
        conn = getattr(self._local, "conn", None)
        while True:
            reused, status = conn is not None, None
            try:
                if conn is None:
                    conn = self._local.conn = self._connect(timeout)
                sock, rfile = conn
                sock.settimeout(timeout)  # per request: ``claim`` waits longer
                sock.sendall(request)
                line = rfile.readline(_MAX_LINE)
                version, code = (line.split(None, 2) + [b"", b""])[:2]
                if not (version.startswith(b"HTTP/") and code.isdigit()):
                    bad = http.client.BadStatusLine if line else http.client.RemoteDisconnected
                    raise bad(repr(line))
                status, headers = int(code), {}
                while (line := rfile.readline(_MAX_LINE)) not in (b"\r\n", b"\n"):
                    if not line.endswith(b"\n"):  # EOF (or an endless line) mid-head
                        raise http.client.IncompleteRead(line)
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                length = headers.get("content-length", "")
                if "transfer-encoding" in headers or not length.isdecimal():
                    raise ServiceError(status, {"error": f"unframed reply: {headers}"})
                raw = rfile.read(int(length))
                if len(raw) < int(length):
                    raise http.client.IncompleteRead(raw, int(length) - len(raw))
                if headers.get("connection", "").lower() == "close":
                    self.close()
                break
            except BaseException as exc:
                self.close()
                if not (
                    reused and status is None and isinstance(exc, _DROPPED_WHILE_IDLE)
                ):
                    raise
                conn = None  # resend, once: every request here is idempotent
        raw = raw.decode()
        if "application/json" in headers.get("content-type", ""):
            payload = json.loads(raw)
            retry_after = headers.get("retry-after")
            if status == 429 and retry_after and "retry_after" not in payload:
                # Honor the header even when the body omits the hint.
                try:
                    payload["retry_after"] = float(retry_after)
                except ValueError:
                    pass
            return status, payload, raw
        return status, {}, raw

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        timeout: Optional[float] = None,
    ) -> Tuple[int, Dict[str, Any], str]:
        """One logical request, with transient-connection-error retries.

        Connection refused/reset, a DNS hiccup, torn responses
        (``http.client`` exceptions) and socket timeouts are retried
        ``transient_retries`` times with capped exponential backoff and
        full jitter; the final failure propagates to the caller.  An HTTP
        error status is an ordinary response, never an exception.
        """
        attempt = 0
        while True:
            try:
                return self._request_once(method, path, body, timeout=timeout)
            except TRANSIENT_ERRORS:
                if attempt >= self.transient_retries:
                    raise
                delay = min(
                    self.max_backoff, self.retry_backoff * (2 ** attempt)
                ) * (0.5 + random.random() / 2.0)
                attempt += 1
                time.sleep(delay)

    # -- endpoints -------------------------------------------------------

    def healthz(self) -> Dict[str, Any]:
        """Raises :class:`ServiceError` on degraded (non-200) health."""
        status, payload, _ = self._request("GET", "/healthz")
        if status != 200:
            raise ServiceError(status, payload)
        return payload

    def metrics(self) -> str:
        status, _, raw = self._request("GET", "/metrics")
        if status != 200:
            raise ServiceError(status, {"error": raw})
        return raw

    def submit(
        self,
        spec: SimSpec,
        priority: int = 0,
        max_backoff_retries: int = 5,
        backoff: float = 0.2,
    ) -> Dict[str, Any]:
        """``POST /jobs``; retries 429 backpressure with backoff."""
        body = spec.to_dict()
        if priority:
            body["priority"] = priority
        for attempt in range(max_backoff_retries + 1):
            status, payload, _ = self._request("POST", "/jobs", dict(body))
            if status in (200, 202):
                return payload
            if status == 429 and attempt < max_backoff_retries:
                time.sleep(
                    max(
                        float(payload.get("retry_after", 0)),
                        backoff * (2 ** attempt),
                    )
                )
                continue
            raise ServiceError(status, payload)
        raise ServiceError(429, payload)  # pragma: no cover — loop covers it

    def job(self, job_id: str) -> Dict[str, Any]:
        status, payload, _ = self._request("GET", "/jobs/" + quote(job_id, safe=""))
        if status != 200:
            raise ServiceError(status, payload)
        return payload

    def result(self, fingerprint: str) -> Dict[str, Any]:
        status, payload, _ = self._request("GET", "/results/" + quote(fingerprint, safe=""))
        if status != 200:
            raise ServiceError(status, payload)
        return payload

    def wait_job(
        self, job_id: str, timeout: float = 120.0, poll: float = 0.1
    ) -> Dict[str, Any]:
        """Poll ``GET /jobs/<id>`` until done/failed or ``timeout``."""
        deadline = time.monotonic() + timeout
        while True:
            payload = self.job(job_id)
            if payload["status"] == "done":
                return payload
            if payload["status"] == "failed":
                raise JobFailedError(500, payload)
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {payload['status']} after {timeout:g}s"
                )
            time.sleep(poll)

    def run(
        self,
        spec: SimSpec,
        priority: int = 0,
        timeout: float = 120.0,
        poll: float = 0.1,
    ) -> Dict[str, Any]:
        """Submit and wait: returns the terminal job payload."""
        payload = self.submit(spec, priority=priority)
        if payload["status"] == "done":
            return payload
        done = self.wait_job(payload["job_id"], timeout=timeout, poll=poll)
        done.setdefault("cached", False)
        return done

    # -- worker protocol (repro.service.fabric) --------------------------

    def claim(
        self, worker_id: str, max_jobs: int = 1, wait: float = 0.0
    ) -> Dict[str, Any]:
        """Long-poll ``GET /jobs/claim``: lease up to ``max_jobs`` specs.

        Returns the claim payload (``jobs``, ``lease_ttl``, ``timeout``,
        ``draining``); an empty ``jobs`` list after ``wait`` seconds
        means no work was available.
        """
        query = urlencode({"worker": worker_id, "max": max_jobs, "wait": f"{wait:g}"})
        status, payload, _ = self._request(
            "GET", "/jobs/claim?" + query, timeout=self.timeout + wait
        )
        if status != 200:
            raise ServiceError(status, payload)
        return payload

    def heartbeat(self, job_id: str, worker_id: str) -> bool:
        """Extend the lease; False = forfeit (abandon the execution)."""
        status, payload, _ = self._request(
            "POST", f"/jobs/{quote(job_id, safe='')}/heartbeat", {"worker": worker_id}
        )
        if status != 200:
            raise ServiceError(status, payload)
        return bool(payload.get("ok", False))

    def complete(
        self,
        job_id: str,
        worker_id: str,
        ok: bool,
        result: Optional[Dict[str, Any]] = None,
        error: Optional[str] = None,
    ) -> str:
        """Report an outcome; returns the server's coalescing verdict
        (``done``/``duplicate``/``stored``/``retry``/``failed``/``unknown``)."""
        body: Dict[str, Any] = {"worker": worker_id, "ok": ok}
        if ok:
            body["result"] = result if result is not None else {}
        else:
            body["error"] = error if error is not None else "worker error"
        status, payload, _ = self._request(
            "POST", f"/jobs/{quote(job_id, safe='')}/complete", body
        )
        if status != 200:
            raise ServiceError(status, payload)
        return str(payload.get("outcome", "unknown"))
