"""Tests for the asyncio HTTP front end and client retry policy.

The async server runs its real event loop on an ephemeral port; the
stdlib client exercises it over genuine sockets, including raw
``http.client`` connections for keep-alive and protocol-edge cases the
high-level client never produces.
"""

import asyncio
import http.client
import json
import logging
import os
import shutil
import socket
import ssl
import sys
import threading
import time
import urllib.error
from dataclasses import replace
from pathlib import Path

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.service.client import ServiceClient, ServiceError
from repro.service.fabric import (
    AsyncServiceServer,
    ShardMap,
    ShardedResultStore,
)
from repro.service.server import (
    MAX_BODY_BYTES,
    MAX_HEAD_BYTES,
    PARSE_MEMO_ENTRIES,
    Response,
    fingerprint_for,
)
from repro.service.spec import SimSpec, run_sim_spec
from repro.service.store import ResultStore

TINY = dict(width=3, height=3, rate=0.03, warmup=30, measure=80, seed=5)

#: Self-signed, ``subjectAltName = IP:127.0.0.1``, valid until 2126.
TLS_CERT = Path(__file__).parent / "data" / "tls_cert.pem"
TLS_KEY = Path(__file__).parent / "data" / "tls_key.pem"


@pytest.fixture()
def server(tmp_path):
    store = ResultStore(root=tmp_path / "store", registry=MetricsRegistry())
    with AsyncServiceServer(port=0, store=store, workers=2, quiet=True) as srv:
        yield srv


@pytest.fixture()
def client(server):
    return ServiceClient(server.url)


class TestAsyncEndpoints:
    def test_healthz(self, client):
        payload = client.healthz()
        assert payload["ok"] is True
        assert payload["draining"] is False

    def test_submit_cached_and_result(self, server, client):
        spec = SimSpec(**TINY)
        first = client.run(spec, timeout=60)
        assert first["status"] == "done"
        second = client.submit(spec)
        assert second["cached"] is True
        assert second["result"] == first["result"]
        blob = client.result(second["fingerprint"])
        assert blob == first["result"]

    def test_malformed_spec_400(self, client):
        status, payload, _ = client._request(
            "POST", "/jobs", {"definitely_not_a_field": 1}
        )
        assert status == 400

    def test_unknown_endpoint_404(self, client):
        status, _, _ = client._request("GET", "/nope")
        assert status == 404

    def test_non_object_body_400(self, server):
        conn = http.client.HTTPConnection(*server.address, timeout=10)
        try:
            conn.request(
                "POST", "/jobs", body=b"[1, 2, 3]",
                headers={"Content-Type": "application/json"},
            )
            assert conn.getresponse().status == 400
        finally:
            conn.close()

    def test_method_not_allowed_405(self, server):
        conn = http.client.HTTPConnection(*server.address, timeout=10)
        try:
            conn.request("DELETE", "/jobs")
            assert conn.getresponse().status == 405
        finally:
            conn.close()

    def test_per_endpoint_latency_histograms(self, server, client):
        client.healthz()
        client.submit(SimSpec(**TINY))
        text = client.metrics()
        assert "repro_service_http_latency_ms_healthz" in text
        assert "repro_service_http_latency_ms_jobs_submit" in text

    def test_keep_alive_reuses_connection(self, server):
        conn = http.client.HTTPConnection(*server.address, timeout=10)
        try:
            for _ in range(3):
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                assert response.status == 200
                json.loads(response.read())
        finally:
            conn.close()

    def test_oversized_body_413(self, server):
        conn = http.client.HTTPConnection(*server.address, timeout=10)
        try:
            conn.putrequest("POST", "/jobs")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", str(256 * 1024 * 1024))
            conn.endheaders()
            # The server rejects on the declared length without reading
            # the (never-sent) body.
            assert conn.getresponse().status == 413
        finally:
            conn.close()

    def test_malformed_request_line_400(self, server):
        import socket

        with socket.create_connection(server.address, timeout=10) as sock:
            sock.sendall(b"NONSENSE\r\n\r\n")
            assert b"400" in sock.recv(1024)

    def test_head_request(self, server):
        conn = http.client.HTTPConnection(*server.address, timeout=10)
        try:
            conn.request("HEAD", "/healthz")
            response = conn.getresponse()
            assert response.status == 200
            assert response.read() == b""
        finally:
            conn.close()

    def test_head_sends_the_get_headers_and_no_body(self, server, client):
        """RFC 9110 §9.3.2: a HEAD reply carries the GET status and headers
        (``Content-Length`` included) and no body, so the next request on
        the same keep-alive socket still parses."""
        spec = SimSpec(**TINY)
        client.run(spec, timeout=60)
        paths = ["/healthz", "/results/" + fingerprint_for(spec)]
        with socket.create_connection(server.address, timeout=10) as sock:
            rfile = sock.makefile("rb")
            for path in paths:
                head = _exchange(sock, rfile, "HEAD", path, read_body=False)
                status, headers, body = _exchange(sock, rfile, "GET", path)
                assert head == (status, headers, b"")
                assert status == 200
                assert headers["content-type"] == "application/json"
                assert int(headers["content-length"]) == len(body) > 0

    def test_claim_empty_when_no_work(self, client):
        payload = client.claim("w1", wait=0.1)
        assert payload["jobs"] == []
        assert payload["draining"] is False


class TestDrain:
    def test_draining_degrades_health_and_claims(self, server, client):
        server.draining = True
        with pytest.raises(ServiceError) as exc_info:
            client.healthz()
        assert exc_info.value.status == 503
        assert exc_info.value.payload["draining"] is True
        payload = client.claim("w1", wait=0.0)
        assert payload["jobs"] == []
        assert payload["draining"] is True

    def test_stop_is_graceful(self, tmp_path):
        store = ResultStore(root=tmp_path / "store", registry=MetricsRegistry())
        server = AsyncServiceServer(port=0, store=store, workers=2, quiet=True)
        server.start()
        client = ServiceClient(server.url, transient_retries=0)
        client.healthz()
        server.stop()
        with pytest.raises((ServiceError, OSError, urllib.error.URLError)):
            client.healthz()


class TestShardedHealth:
    def test_shard_outage_degrades_healthz(self, tmp_path):
        smap = ShardMap.local([tmp_path / "s0", tmp_path / "s1"], replicas=2)
        store = ShardedResultStore(smap, registry=MetricsRegistry())
        with AsyncServiceServer(
            port=0, store=store, workers=2, quiet=True
        ) as server:
            client = ServiceClient(server.url)
            assert client.healthz()["shards"] == {"s0": True, "s1": True}
            shutil.rmtree(tmp_path / "s1")
            with pytest.raises(ServiceError) as exc_info:
                client.healthz()
            assert exc_info.value.status == 503
            assert exc_info.value.payload["shards"]["s1"] is False


class TestClientRetries:
    def test_transient_errors_retried(self, monkeypatch):
        client = ServiceClient(
            "http://127.0.0.1:1", transient_retries=3, retry_backoff=0.001
        )
        calls = []

        def flaky(method, path, body=None, timeout=None):
            calls.append(path)
            if len(calls) < 3:
                raise ConnectionResetError("torn connection")
            return 200, {"ok": True}, "{}"

        monkeypatch.setattr(client, "_request_once", flaky)
        status, payload, _ = client._request("GET", "/healthz")
        assert status == 200
        assert len(calls) == 3

    def test_retries_exhausted_raises(self, monkeypatch):
        client = ServiceClient(
            "http://127.0.0.1:1", transient_retries=2, retry_backoff=0.001
        )
        calls = []

        def always_down(method, path, body=None, timeout=None):
            calls.append(path)
            raise ConnectionRefusedError("nobody home")

        monkeypatch.setattr(client, "_request_once", always_down)
        with pytest.raises(ConnectionRefusedError):
            client._request("GET", "/healthz")
        assert len(calls) == 3  # initial + 2 retries

    def test_http_errors_never_retried(self, monkeypatch):
        client = ServiceClient(
            "http://127.0.0.1:1", transient_retries=3, retry_backoff=0.001
        )
        calls = []

        def http_404(method, path, body=None, timeout=None):
            calls.append(path)
            raise urllib.error.HTTPError(path, 404, "nope", None, None)

        monkeypatch.setattr(client, "_request_once", http_404)
        with pytest.raises(urllib.error.HTTPError):
            client._request("GET", "/jobs/xyz")
        assert len(calls) == 1

    def test_retries_disabled(self, monkeypatch):
        client = ServiceClient("http://127.0.0.1:1", transient_retries=0)
        calls = []

        def down(method, path, body=None, timeout=None):
            calls.append(path)
            raise ConnectionResetError("down")

        monkeypatch.setattr(client, "_request_once", down)
        with pytest.raises(ConnectionResetError):
            client._request("GET", "/healthz")
        assert len(calls) == 1

    def test_submit_honors_retry_after(self, monkeypatch):
        client = ServiceClient("http://127.0.0.1:1")
        answers = iter(
            [
                (429, {"error": "backpressure", "retry_after": 0.01}, "{}"),
                (202, {"status": "pending", "job_id": "j"}, "{}"),
            ]
        )
        monkeypatch.setattr(
            client, "_request", lambda *a, **k: next(answers)
        )
        payload = client.submit(SimSpec(**TINY), backoff=0.001)
        assert payload["job_id"] == "j"

    def test_429_header_injected_into_payload(self, server, monkeypatch):
        """A 429 whose JSON body omits retry_after still carries the
        server's Retry-After header through to the backoff loop."""
        monkeypatch.setattr(
            server,
            "health",
            lambda: Response(
                429, {"error": "backpressure"}, headers={"Retry-After": "0.25"}
            ),
        )
        client = ServiceClient(server.url)
        status, payload, _ = client._request_once("GET", "/healthz")
        assert status == 429
        assert payload["retry_after"] == 0.25


@pytest.fixture()
def connects(monkeypatch):
    """Every TCP connection ``ServiceClient`` opens, as ``(host, port)``."""
    opened = []
    real = socket.create_connection

    def create_connection(address, *args, **kwargs):
        opened.append(address)
        return real(address, *args, **kwargs)

    monkeypatch.setattr(socket, "create_connection", create_connection)
    return opened


class _HangUpServer(threading.Thread):
    """Answers one request per connection *without* ``Connection: close``,
    then hangs up — what a keep-alive client sees when the server drops a
    connection it believed idle."""

    def __init__(self):
        super().__init__(daemon=True)
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.url = "http://127.0.0.1:%d" % self.listener.getsockname()[1]
        self.served = 0

    def run(self):
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return  # listener closed
            with conn:
                request = b""
                while b"\r\n\r\n" not in request:
                    request += conn.recv(65536)
                self.served += 1
                body = json.dumps({"ok": True, "n": self.served}).encode()
                conn.sendall(
                    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                    b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
                )


def _reply(head=b"", body=b'{"ok": true}', framed=True):
    """A canned 200 reply; ``framed`` adds the ``Content-Length``."""
    if framed:
        head += b"Content-Length: %d\r\n" % len(body)
    status = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
    return status + head + b"\r\n" + body


class _ScriptedServer(threading.Thread):
    """Answers the n-th request with the n-th ``(reply, hang_up)`` (the
    last one repeats), each connection in its own thread.  Without
    ``hang_up`` the connection stays open, so a client that waits for
    EOF hangs; ``tls`` serves https."""

    def __init__(self, *replies, tls=None):
        super().__init__(daemon=True)
        self.replies, self.tls, self.served, self.held = list(replies), tls, 0, []
        self.listener = socket.create_server(("127.0.0.1", 0))
        scheme = "https" if tls else "http"
        self.url = "%s://127.0.0.1:%d" % (scheme, self.listener.getsockname()[1])

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc_info):
        self.listener.close()
        for conn in self.held:
            conn.close()

    def run(self):
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return  # listener closed
            self.held.append(conn)
            threading.Thread(target=self._serve, args=(conn,), daemon=True).start()

    def _serve(self, conn):
        try:
            if self.tls:
                conn = self.tls.wrap_socket(conn, server_side=True)
                self.held.append(conn)
            rfile = conn.makefile("rb")
            while rfile.readline():
                length = 0
                while (line := rfile.readline()) not in (b"\r\n", b""):
                    name, _, value = line.partition(b":")
                    if name.lower() == b"content-length":
                        length = int(value)
                rfile.read(length)
                reply, hang_up = self.replies[min(self.served, len(self.replies) - 1)]
                self.served += 1
                conn.sendall(reply)
                if hang_up:
                    conn.close()
                    return
        except OSError:
            return  # closed under us, or a client that refused the certificate


class TestClientTransport:
    def test_dropped_idle_connection_reconnects_without_retry_budget(
        self, connects, monkeypatch
    ):
        hangup = _HangUpServer()
        hangup.start()
        monkeypatch.setattr(
            time, "sleep", lambda s: pytest.fail("the reconnect must not back off")
        )
        try:
            with ServiceClient(hangup.url, transient_retries=0) as client:
                assert [client.healthz()["n"] for _ in range(5)] == [1, 2, 3, 4, 5]
        finally:
            hangup.listener.close()
        assert len(connects) == 5  # one reconnect per hang-up, never more

    def test_fresh_connection_failure_is_not_resent(self, connects):
        """Only a *reused* connection earns the free resend: a server that
        hangs up on a new connection is a transient error like any other."""
        listener = socket.create_server(("127.0.0.1", 0))

        def slam():
            while True:
                try:
                    listener.accept()[0].close()
                except OSError:
                    return

        threading.Thread(target=slam, daemon=True).start()
        client = ServiceClient(
            "http://127.0.0.1:%d" % listener.getsockname()[1], transient_retries=0
        )
        try:
            with pytest.raises((ConnectionError, http.client.HTTPException)):
                client.healthz()
        finally:
            listener.close()
        assert len(connects) == 1

    def test_one_connection_per_thread_never_interleaves(self, server, connects):
        client = ServiceClient(server.url)
        wrong = []

        def hammer(name):
            for _ in range(200):
                _, payload, _ = client._request("GET", f"/nope-{name}")
                if payload["error"] != f"no such endpoint: /nope-{name}":
                    wrong.append((name, payload))
            client.close()

        threads = [threading.Thread(target=hammer, args=(n,)) for n in "ab"]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert len(connects) == 2

    def test_client_side_timeout_does_not_poison_next_request(self, server, connects):
        """A long poll the client gives up on is still answered by the
        server later; that answer must not be read as the next reply."""
        client = ServiceClient(server.url, transient_retries=0)
        client.healthz()
        with pytest.raises(TimeoutError):
            client._request(
                "GET", "/jobs/claim?worker=w&max=1&wait=1", timeout=0.1
            )
        assert client.healthz()["ok"] is True  # not the late claim payload
        assert len(connects) == 2  # the timed-out connection was discarded

    def test_close_is_idempotent_and_reopens(self, server, connects):
        client = ServiceClient(server.url)
        client.close()  # never opened
        client.healthz()
        client.close()
        client.close()
        with client:
            client.healthz()
        assert len(connects) == 2

    def test_connection_close_reply_opens_exactly_one_new_connection(self, connects):
        """The scripted server would keep answering on the first
        connection: only honouring ``Connection: close`` makes a second."""
        closing = _reply(b"Connection: close\r\n")
        with _ScriptedServer((closing, False), (_reply(), False)) as srv:
            with ServiceClient(srv.url, transient_retries=0) as client:
                assert [client.healthz() for _ in range(3)] == [{"ok": True}] * 3
        assert srv.served == 3
        assert len(connects) == 2

    @pytest.mark.parametrize(
        "head",
        [
            b"",
            b"Transfer-Encoding: chunked\r\n",
            b"Content-Length: 12\r\nTransfer-Encoding: chunked\r\n",
        ],
        ids=["no-length", "chunked", "length-and-chunked"],
    )
    def test_unframed_reply_is_refused_at_once(self, head, connects, monkeypatch):
        monkeypatch.setattr(time, "sleep", lambda s: pytest.fail("must not retry"))
        with _ScriptedServer((_reply(head, framed=False), False)) as srv:
            client = ServiceClient(srv.url, timeout=5.0)
            began = time.monotonic()
            with pytest.raises(ServiceError, match="unframed reply"):
                client.healthz()
            assert time.monotonic() - began < 2.0  # not read until EOF or timeout
        assert srv.served == 1
        assert len(connects) == 1

    def test_short_body_is_a_retried_transient(self, connects, monkeypatch):
        naps = []
        monkeypatch.setattr(time, "sleep", naps.append)
        torn = _reply(b"Content-Length: 100\r\n", framed=False)
        with _ScriptedServer((torn, True)) as srv:
            with pytest.raises(http.client.IncompleteRead):
                ServiceClient(srv.url, transient_retries=2).healthz()
        assert srv.served == 3 and len(naps) == 2
        assert len(connects) == 3

    def test_reply_torn_after_its_status_line_is_not_resent(self, connects):
        """Only a reused connection that dies *before* the status line
        earns the free resend; the torn one is closed, not dropped."""
        torn = _reply(b"Content-Length: 100\r\n", framed=False)
        with _ScriptedServer((_reply(), False), (torn, True)) as srv:
            client = ServiceClient(srv.url, transient_retries=0)
            client.healthz()  # the failure below closes this connection
            sock, _ = client._local.conn
            with pytest.raises(http.client.IncompleteRead):
                client.healthz()
        assert sock.fileno() == -1
        assert srv.served == 2
        assert len(connects) == 1

    def test_garbage_status_line_is_bad_status_line(self, connects):
        with _ScriptedServer((b"SPDY/9 hello\r\n\r\n", True)) as srv:
            with pytest.raises(http.client.BadStatusLine) as excinfo:
                ServiceClient(srv.url, transient_retries=0).healthz()
        assert excinfo.type is http.client.BadStatusLine
        assert len(connects) == 1

    def test_unsendable_requests_are_value_errors_never_retried(
        self, server, connects, monkeypatch
    ):
        monkeypatch.setattr(time, "sleep", lambda s: pytest.fail("must not retry"))
        client = ServiceClient(server.url)
        for path in ("/jobs/a b", "/jobs/x\r\nX-Injected: 1", "/jobs/\u00e9"):
            with pytest.raises(ValueError):
                client._request("GET", path)
        with pytest.raises(ValueError):
            client.claim("\ud800")  # a lone surrogate has no UTF-8 form
        assert connects == []

    def test_warm_round_trips_enter_no_http_client_or_email_frame(self, server):
        client = ServiceClient(server.url)
        spec = SimSpec(**TINY)
        client.run(spec, timeout=60)
        entered = set()

        def profile(frame, event, arg):
            if event == "call":
                entered.add(frame.f_code.co_filename)

        sys.setprofile(profile)  # this thread only: the client's side
        try:
            for _ in range(100):
                assert client.submit(spec)["cached"] is True
        finally:
            sys.setprofile(None)
            client.close()
        assert any(f.endswith(os.path.join("service", "client.py")) for f in entered)
        assert [
            f
            for f in entered
            if f.endswith(os.path.join("http", "client.py"))
            or f"{os.sep}email{os.sep}" in f
        ] == []


class TestHttps:
    """The client verifies certificates exactly as ``HTTPSConnection``
    does by default: the system trust store, or ``SSL_CERT_FILE``."""

    @pytest.fixture()
    def tls(self):
        context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        context.load_cert_chain(TLS_CERT, TLS_KEY)
        return context

    def test_round_trip_with_a_trusted_certificate(self, tls, monkeypatch):
        monkeypatch.setenv("SSL_CERT_FILE", str(TLS_CERT))
        with _ScriptedServer((_reply(), False), tls=tls) as srv:
            assert srv.url.startswith("https://127.0.0.1:")
            with ServiceClient(srv.url) as client:
                assert [client.healthz() for _ in range(2)] == [{"ok": True}] * 2
        assert srv.served == 2

    def test_untrusted_certificate_fails_verification(self, tls, monkeypatch):
        monkeypatch.delenv("SSL_CERT_FILE", raising=False)
        with _ScriptedServer((_reply(), False), tls=tls) as srv:
            with pytest.raises(ssl.SSLCertVerificationError):
                ServiceClient(srv.url).healthz()
        assert srv.served == 0


class TestDrainKeepAlive:
    def test_stop_closes_idle_and_finishes_in_flight(
        self, tmp_path, monkeypatch, caplog
    ):
        store = ResultStore(root=tmp_path / "store", registry=MetricsRegistry())
        server = AsyncServiceServer(port=0, store=store, workers=2, quiet=True)
        server.start()
        idle = ServiceClient(server.url, transient_retries=0)
        idle.healthz()  # its connection now sits parked on the request line
        entered, release = threading.Event(), threading.Event()

        def slow_get(fp):
            entered.set()
            release.wait(5)
            return {"slow": fp}

        monkeypatch.setattr(store, "get", slow_get)
        answers = []
        busy = threading.Thread(
            target=lambda: answers.append(
                ServiceClient(server.url, transient_retries=0).result("ab" * 32)
            )
        )
        busy.start()
        assert entered.wait(5)
        threading.Timer(0.3, release.set).start()
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            began = time.monotonic()
            server.stop()
            took = time.monotonic() - began
        busy.join(5)
        assert not busy.is_alive()
        assert answers == [{"slow": "ab" * 32}]  # started before stop(): served
        assert took < 2.0
        assert [r.getMessage() for r in caplog.records if r.name == "asyncio"] == []
        with pytest.raises(OSError):
            idle.healthz()


def _request(method, path, body=None, version="HTTP/1.1", extra=""):
    """The bytes of one request, as ``ServiceClient`` frames it."""
    head = f"{method} {path} {version}\r\nHost: test\r\n{extra}"
    if body is not None:
        head += f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
    return head.encode("latin-1") + b"\r\n" + (body or b"")


def _read_reply(rfile, read_body=True):
    """``(status, headers, body)`` of the next reply on ``rfile``."""
    status = int(rfile.readline().split()[1])
    headers = {}
    for line in iter(rfile.readline, b"\r\n"):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers["content-length"]) if read_body else 0
    return status, headers, rfile.read(length)


def _exchange(sock, rfile, method, path, body=None, read_body=True):
    """One request on a raw keep-alive socket: ``(status, headers, body)``
    with the body bytes exactly as sent (none read for a HEAD)."""
    sock.sendall(_request(method, path, body))
    return _read_reply(rfile, read_body)


def _run_observed(server, client, spec):
    """Run ``spec`` and wait until calibration has observed its payload
    (the feedback lands just after the job reads done)."""
    done = client.run(spec, timeout=60)
    observed = server.registry.counter("surrogate.observed")
    deadline = time.monotonic() + 10
    while observed.value < 1 and time.monotonic() < deadline:
        time.sleep(0.01)
    assert observed.value == 1
    return done


def _encode(payload):
    """A response body as the front end encodes every JSON reply."""
    return json.dumps(payload, sort_keys=True).encode()


class _LoopProfile:
    """``sys.setprofile`` on the server's event-loop thread, installed and
    removed by callbacks on that loop: Python frames entered there, and
    calls of the functions a warm request should not repeat."""

    WATCHED = {
        (os.path.join("json", "__init__.py"), "loads"): "loads",
        (os.path.join("json", "__init__.py"), "dumps"): "dumps",
        (os.path.join("service", "store.py"), "spec_fingerprint"): "spec_fingerprint",
    }

    def __init__(self, server):
        self.loop = server._loop
        self.counts = dict.fromkeys(["frames", *self.WATCHED.values()], 0)

    def _hook(self, frame, event, arg):
        if event == "call":
            self.counts["frames"] += 1
            code = frame.f_code
            for (tail, name), key in self.WATCHED.items():
                if code.co_name == name and code.co_filename.endswith(tail):
                    self.counts[key] += 1

    def _install(self, hook):
        done = threading.Event()
        self.loop.call_soon_threadsafe(lambda: (sys.setprofile(hook), done.set()))
        assert done.wait(5)

    def __enter__(self):
        self._install(self._hook)
        return self

    def __exit__(self, *exc_info):
        self._install(None)


class TestWarmPath:
    """Counts, not times: a warm request opens no connection and leaves
    the event loop for no thread."""

    N = 1000

    #: Per warm request on the loop thread: a memo resubmit and a result
    #: read are a finished record's encoded bytes, a surrogate answer the
    #: bytes kept beside its body; no lane re-parses, re-fingerprints or
    #: re-encodes a body it has seen.
    LOOP_CALLS = {
        "memo": dict(loads=0, dumps=0, spec_fingerprint=0),
        "read": dict(loads=0, dumps=0, spec_fingerprint=0),
        "surrogate": dict(loads=0, dumps=0, spec_fingerprint=0),
    }
    #: Frames entered per warm request (±2 %), per interpreter: asyncio's
    #: own frames differ between CPython minor versions, so each version
    #: pins the counts it was measured on.
    LOOP_FRAMES = {
        (3, 10): dict(memo=35, read=34, surrogate=33),
        (3, 11): dict(memo=32, read=31, surrogate=30),
        (3, 12): dict(memo=32, read=31, surrogate=30),
    }

    @pytest.fixture()
    def hops(self, server, monkeypatch):
        """``run_in_executor`` calls made on the server's loop so far."""
        calls = []
        real = asyncio.BaseEventLoop.run_in_executor

        def run_in_executor(loop, executor, func, *args):
            calls.append(getattr(func, "__name__", repr(func)))
            return real(loop, executor, func, *args)

        monkeypatch.setattr(asyncio.BaseEventLoop, "run_in_executor", run_in_executor)
        return calls

    def test_warm_requests_share_one_connection(self, server, connects):
        client = ServiceClient(server.url)
        for _ in range(self.N):
            client.healthz()
        assert len(connects) == 1

    def test_memory_answerable_requests_never_leave_the_loop(self, server, hops):
        client = ServiceClient(server.url)
        spec = SimSpec(**TINY)
        fp = fingerprint_for(spec)
        asked = replace(spec, rate=0.02, mode="surrogate")

        # Cold, each lane hops: a first-time spec enqueues, a cold
        # surrogate profile walks the tables.
        first = client.run(spec, timeout=60)
        assert hops == ["submit"]
        # The execution feeds calibration just after the job reads done;
        # the table must have settled before anything counts as warm.
        observed = server.registry.counter("surrogate.observed")
        deadline = time.monotonic() + 10
        while observed.value < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert observed.value == 1
        client.submit(asked)
        assert hops == ["submit"] * 2

        del hops[:]
        for _ in range(self.N):
            assert client.submit(spec)["cached"] is True
            assert client.result(fp) == first["result"]
            assert client.submit(asked)["surrogate"] is True
        assert hops == []

    def test_metrics_scrape_counts_blobs_off_the_loop(self, server, hops):
        """``len(store)`` walks every blob directory: one hop per scrape,
        while the lock-only health check stays on the loop."""
        client = ServiceClient(server.url)
        client.healthz()
        assert hops == []
        assert "repro_service_store_blobs 0" in client.metrics()
        assert hops == ["handle_get"]
        client.healthz()
        assert hops == ["handle_get"]

    def test_store_only_results_still_hop(self, server, hops):
        """What only the disk knows is read on the pool, submit or read."""
        client = ServiceClient(server.url)
        spec = SimSpec(**TINY)
        fp = fingerprint_for(spec)
        server.store.put(fp, run_sim_spec(spec.to_dict()))
        assert client.result(fp)["spec"]["seed"] == TINY["seed"]
        assert hops == ["handle_get"]
        assert client.submit(spec)["cached"] is True
        assert hops == ["handle_get", "submit"]
        # ...which loaded the record: from here on it is memory.
        client.submit(spec)
        client.result(fp)
        assert len(hops) == 2

    def test_observation_sends_one_surrogate_answer_back_to_the_pool(
        self, server, hops
    ):
        """An observation changes the calibration table; the next answer
        re-fingerprints it (every sample of every cell) — on the pool."""
        client = ServiceClient(server.url)
        asked = SimSpec(**TINY, mode="surrogate")
        client.submit(asked)
        client.submit(asked)
        assert hops == ["submit"]
        exact = SimSpec(**TINY)
        assert server.oracle.observe(exact.to_dict(), run_sim_spec(exact.to_dict()))
        client.submit(asked)
        client.submit(asked)
        assert hops == ["submit"] * 2

    def test_warm_requests_cost_pinned_calls_on_the_loop(self, server):
        client = ServiceClient(server.url)
        spec = SimSpec(**TINY)
        fp = fingerprint_for(spec)
        asked = replace(spec, rate=0.02, mode="surrogate")
        _run_observed(server, client, spec)
        lanes = {
            "memo": lambda: client.submit(spec)["cached"],
            "read": lambda: client.result(fp)["spec"],
            "surrogate": lambda: client.submit(asked)["surrogate"],
        }
        n = 200
        frames = self.LOOP_FRAMES.get(sys.version_info[:2], {})
        for lane, request in lanes.items():
            for _ in range(5):  # warm: record loaded, body parsed, profile memoized
                assert request()
            with _LoopProfile(server) as profile:
                for _ in range(n):
                    request()
            per_request = {k: v / n for k, v in profile.counts.items()}
            calls = {k: round(per_request[k], 2) for k in self.LOOP_CALLS[lane]}
            assert calls == self.LOOP_CALLS[lane], lane
            if lane in frames:
                assert per_request["frames"] == pytest.approx(frames[lane], rel=0.02), lane


class TestParseMemo:
    """``POST /jobs`` bodies are parsed once each; what a parse decides
    is shared, what ``submit`` decides is not."""

    @pytest.fixture()
    def remote(self, tmp_path):
        """A front end that never executes: jobs wait for a claimant."""
        store = ResultStore(root=tmp_path / "store", registry=MetricsRegistry())
        with AsyncServiceServer(
            port=0, store=store, local_exec=False, max_depth=1024, retries=0
        ) as srv:
            yield srv

    def test_memo_is_bounded_first_in_first_out(self, remote):
        client = ServiceClient(remote.url)
        seeds = range(1000, 1300)
        for seed in seeds:
            assert client.submit(SimSpec(**{**TINY, "seed": seed}))["status"] == "pending"
        kept = [json.loads(body)["seed"] for body in remote._parsed]
        assert len(kept) == PARSE_MEMO_ENTRIES == 256
        assert kept == list(seeds)[-256:]

    @pytest.mark.parametrize(
        "body",
        [b'{"width": 3, "height": -1}', b'{"pattern": "nope"}', b"[1, 2]", b"{not json"],
    )
    def test_refused_bodies_are_refused_every_time_and_never_kept(self, remote, body):
        with socket.create_connection(remote.address, timeout=10) as sock:
            rfile = sock.makefile("rb")
            for _ in range(3):
                status, _, _ = _exchange(sock, rfile, "POST", "/jobs", body)
                assert status == 400
        assert remote._parsed == {}

    def test_bodies_differing_only_in_priority_are_two_entries(self, remote):
        client = ServiceClient(remote.url)
        spec = SimSpec(**TINY)
        fp = fingerprint_for(spec)
        client.submit(spec)
        assert [job["job_id"] for job in client.claim("w", wait=0)["jobs"]] == [fp]
        remote.queue.complete(fp, "w", False, "lost")  # FAILED: a resubmit re-admits
        assert client.submit(spec, priority=7)["status"] == "pending"
        assert client.job(fp)["priority"] == 7
        assert sorted(parsed[3] for parsed in remote._parsed.values()) == [0, 7]

    def test_surrogate_answers_are_not_shared_between_hits(self, server):
        client = ServiceClient(server.url)
        spec = SimSpec(**TINY)
        client.run(spec, timeout=60)
        asked = replace(spec, rate=0.02, mode="surrogate")
        for _ in range(3):
            reply = client.submit(asked)
            assert reply["status"] == "done" and reply["surrogate"] is True
        assert len(server._parsed) == 2

    def test_memoised_body_past_its_record_ttl_reads_the_store(self, tmp_path):
        store = ResultStore(root=tmp_path / "store", registry=MetricsRegistry())
        with AsyncServiceServer(port=0, store=store, record_ttl=0.3) as srv:
            client = ServiceClient(srv.url)
            spec = SimSpec(**TINY)
            first = client.run(spec, timeout=60)
            assert client.submit(spec)["cached"] is True
            time.sleep(0.4)
            assert srv.queue.finished(fingerprint_for(spec)) is None
            again = client.submit(spec)
            assert again["cached"] is True and again["result"] == first["result"]
            assert srv.registry.counter("service.queue.pruned").value >= 1
            assert len(srv._parsed) == 1


class TestEncodedBodies:
    """A finished record's replies are encoded once and are the bytes
    the front end would encode afresh."""

    def test_warm_replies_are_the_bytes_of_a_fresh_encoding(self, server):
        client = ServiceClient(server.url)
        spec = SimSpec(**TINY)
        fp = fingerprint_for(spec)
        _run_observed(server, client, spec)  # the oracle has read the payload
        asked = replace(spec, rate=0.02, mode="surrogate")
        afp = fingerprint_for(asked)
        stored = server.store.get(fp)  # a fresh parse of the blob on disk
        expected = {
            "memo": _encode(
                {"status": "done", "cached": True, "job_id": fp,
                 "fingerprint": fp, "result": stored}
            ),
            "read": _encode(stored),
            "job": _encode(
                {"job_id": fp, "fingerprint": fp, "status": "done", "priority": 0,
                 "attempts": 0, "cached": False, "result": stored}
            ),
            "surrogate": _encode(
                {"status": "done", "cached": False, "job_id": afp, "fingerprint": afp,
                 "surrogate": True, "result": server.oracle.answer(asked)}
            ),
        }
        body = spec.to_dict()
        with socket.create_connection(server.address, timeout=10) as sock:
            rfile = sock.makefile("rb")
            for _ in range(3):  # first encodes, later ones reuse
                got = {
                    "memo": _exchange(sock, rfile, "POST", "/jobs", _encode(body)),
                    "read": _exchange(sock, rfile, "GET", f"/results/{fp}"),
                    "job": _exchange(sock, rfile, "GET", f"/jobs/{fp}"),
                    "surrogate": _exchange(
                        sock, rfile, "POST", "/jobs", _encode(asked.to_dict())
                    ),
                }
                assert {lane: reply[0] for lane, reply in got.items()} == dict.fromkeys(
                    expected, 200
                )
                assert {lane: reply[2] for lane, reply in got.items()} == expected
        record = server.queue.finished(fp)
        assert record.result == stored  # nothing mutated the kept payload

    def test_status_of_an_unfinished_job_is_never_kept(self, tmp_path):
        store = ResultStore(root=tmp_path / "store", registry=MetricsRegistry())
        with AsyncServiceServer(port=0, store=store, local_exec=False) as srv:
            client = ServiceClient(srv.url)
            spec = SimSpec(**TINY)
            fp = client.submit(spec)["job_id"]
            assert client.job(fp)["status"] == "pending"
            [job] = client.claim("w", wait=0)["jobs"]
            assert client.job(fp)["status"] == "running"
            payload = run_sim_spec(job["spec"])
            assert client.complete(fp, "w", True, result=payload) == "done"
            done = client.job(fp)
            assert done["status"] == "done" and done["result"]["spec"] == payload["spec"]


def _wait_for(condition, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


def _closed(rfile):
    """True once the server has closed the connection (EOF, or a reset
    when it closed with bytes of ours unread)."""
    try:
        return rfile.read() == b""
    except ConnectionResetError:
        return True


class TestFraming:
    """The front end frames HTTP/1.1 itself: requests are cut out of one
    buffer per connection and answered in the order they arrived."""

    def test_pipelined_requests_are_answered_in_order(self, server):
        # The first needs the pool (a metrics scrape); the two behind it
        # are answered on the loop, and still wait their turn.
        with socket.create_connection(server.address, timeout=10) as sock:
            rfile = sock.makefile("rb")
            sock.sendall(
                _request("GET", "/metrics")
                + _request("GET", "/healthz")
                + _request("GET", "/jobs/nope")
            )
            replies = [_read_reply(rfile) for _ in range(3)]
            assert _exchange(sock, rfile, "GET", "/healthz")[0] == 200
        assert [status for status, _, _ in replies] == [200, 200, 404]
        assert replies[0][1]["content-type"].startswith("text/plain")
        assert json.loads(replies[1][2])["ok"] is True
        assert json.loads(replies[2][2]) == {"error": "unknown job 'nope'"}

    def test_a_request_sent_one_byte_at_a_time(self, server):
        request = _request("POST", "/jobs/abc/heartbeat", _encode({"worker": "w"}))
        with socket.create_connection(server.address, timeout=10) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            rfile = sock.makefile("rb")
            for i in range(len(request)):
                sock.sendall(request[i:i + 1])
                time.sleep(0.001)
            status, headers, body = _read_reply(rfile)
            assert (status, headers["connection"]) == (200, "keep-alive")
            assert json.loads(body) == {"ok": False, "job_id": "abc"}
            assert _exchange(sock, rfile, "GET", "/healthz")[0] == 200

    def test_an_oversized_body_is_refused_unread_and_the_connection_closed(
        self, server
    ):
        head = b"POST /jobs HTTP/1.1\r\nHost: test\r\nContent-Length: %d\r\n\r\n"
        with socket.create_connection(server.address, timeout=10) as sock:
            rfile = sock.makefile("rb")
            sock.sendall(head % (MAX_BODY_BYTES + 1))  # and never a body byte
            status, headers, body = _read_reply(rfile)
            assert (status, headers["connection"]) == (413, "close")
            assert json.loads(body) == {"error": "request body too large"}
            assert _closed(rfile)

    def test_a_head_past_64_kib_closes_the_connection_unanswered(self, server):
        assert MAX_HEAD_BYTES == 64 * 1024
        pad = "a" * (60 * 1024)
        with socket.create_connection(server.address, timeout=10) as sock:
            rfile = sock.makefile("rb")
            sock.sendall(_request("GET", "/healthz", extra=f"X-Pad: {pad}\r\n"))
            assert _read_reply(rfile)[0] == 200  # 60 KiB of head is fine
            sock.sendall(b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * MAX_HEAD_BYTES)
            assert _closed(rfile)

    @pytest.mark.parametrize(
        "version, extra", [("HTTP/1.0", ""), ("HTTP/1.1", "Connection: close\r\n")]
    )
    def test_one_reply_then_close(self, server, version, extra):
        with socket.create_connection(server.address, timeout=10) as sock:
            rfile = sock.makefile("rb")
            sock.sendall(
                _request("GET", "/healthz", version=version, extra=extra)
                + _request("GET", "/healthz")
            )
            status, headers, _ = _read_reply(rfile)
            assert (status, headers["connection"]) == (200, "close")
            assert _closed(rfile)  # the pipelined second request is dropped

    def test_a_malformed_request_line_is_a_400_then_close(self, server):
        with socket.create_connection(server.address, timeout=10) as sock:
            rfile = sock.makefile("rb")
            sock.sendall(b"NONSENSE\r\n\r\n" + _request("GET", "/healthz"))
            status, headers, body = _read_reply(rfile)
            assert (status, headers["connection"]) == (400, "close")
            assert json.loads(body) == {"error": "malformed request line"}
            assert _closed(rfile)

    def test_a_half_closed_client_still_gets_its_pool_reply(self, server):
        with socket.create_connection(server.address, timeout=10) as sock:
            rfile = sock.makefile("rb")
            sock.sendall(_request("GET", "/metrics"))
            sock.shutdown(socket.SHUT_WR)
            assert _read_reply(rfile)[0] == 200
            assert _closed(rfile)

    def test_drain_answers_the_request_in_flight_with_connection_close(
        self, tmp_path, monkeypatch
    ):
        store = ResultStore(root=tmp_path / "store", registry=MetricsRegistry())
        server = AsyncServiceServer(port=0, store=store)
        server.start()
        entered, release = threading.Event(), threading.Event()

        def slow_get(fp):
            entered.set()
            release.wait(5)
            return {"slow": fp}

        monkeypatch.setattr(store, "get", slow_get)
        stopper = threading.Thread(target=server.stop)
        with socket.create_connection(server.address, timeout=10) as sock:
            rfile = sock.makefile("rb")
            sock.sendall(_request("GET", "/results/" + "ab" * 32) + _request("GET", "/healthz"))
            assert entered.wait(5)
            stopper.start()
            _wait_for(lambda: server.draining)
            release.set()
            status, headers, body = _read_reply(rfile)
            assert (status, headers["connection"]) == (200, "close")
            assert json.loads(body) == {"slow": "ab" * 32}
            assert _closed(rfile)
        stopper.join(5)
        assert not stopper.is_alive()

    def test_drain_answers_a_parked_claim_at_once(self, tmp_path):
        store = ResultStore(root=tmp_path / "store", registry=MetricsRegistry())
        server = AsyncServiceServer(port=0, store=store, local_exec=False)
        server.start()
        replies = []
        poll = threading.Thread(
            target=lambda: replies.append(ServiceClient(server.url).claim("w", wait=20))
        )
        poll.start()
        _wait_for(lambda: len(server._parked) == 1)
        began = time.monotonic()
        server.stop()
        poll.join(5)
        assert time.monotonic() - began < 2.0
        assert [(r["jobs"], r["draining"]) for r in replies] == [([], True)]


class TestParkedClaims:
    """A parked claim tries again when work becomes claimable, not on a
    timer, and a client that hangs up takes its claim with it."""

    @pytest.fixture()
    def remote(self, tmp_path):
        """A front end that never executes: jobs wait for a claimant."""
        store = ResultStore(root=tmp_path / "store", registry=MetricsRegistry())
        with AsyncServiceServer(
            port=0, store=store, local_exec=False, lease_ttl=0.5
        ) as srv:
            yield srv

    @pytest.fixture()
    def attempts(self, remote):
        """The worker id of every claim attempt the front end makes."""
        calls = []
        real = remote.claim

        def claim(worker, max_jobs):
            calls.append(worker)
            return real(worker, max_jobs)

        remote.claim = claim
        return calls

    @staticmethod
    def _park(remote, worker):
        replies = []
        thread = threading.Thread(
            target=lambda: replies.append(ServiceClient(remote.url).claim(worker, wait=10))
        )
        thread.start()
        return thread, replies

    def test_an_empty_poll_tries_on_arrival_and_at_its_deadline(self, remote, attempts):
        began = time.monotonic()
        assert ServiceClient(remote.url).claim("w", wait=0.5)["jobs"] == []
        assert time.monotonic() - began >= 0.5
        assert attempts == ["w", "w"]

    def test_a_submission_wakes_the_parked_claim(self, remote, attempts):
        thread, replies = self._park(remote, "w")
        _wait_for(lambda: attempts == ["w"])
        time.sleep(0.3)  # parked: a timer would have tried ~6 more times
        fp = ServiceClient(remote.url).submit(SimSpec(**TINY))["job_id"]
        thread.join(5)
        assert [job["job_id"] for job in replies[0]["jobs"]] == [fp]
        assert attempts == ["w", "w"]

    def test_a_requeued_lease_wakes_the_parked_claim(self, remote, attempts):
        client = ServiceClient(remote.url)
        fp = client.submit(SimSpec(**TINY))["job_id"]
        assert [job["job_id"] for job in client.claim("gone", wait=0)["jobs"]] == [fp]
        thread, replies = self._park(remote, "w")
        thread.join(5)  # the 0.5 s lease lapses; the janitor requeues it
        assert [job["job_id"] for job in replies[0]["jobs"]] == [fp]
        assert attempts == ["gone", "w", "w"]

    def test_a_retry_wakes_the_parked_claim_when_its_backoff_ends(
        self, remote, attempts
    ):
        remote.queue.retries, remote.queue.backoff = 1, 0.4
        client = ServiceClient(remote.url)
        fp = client.submit(SimSpec(**TINY))["job_id"]
        client.claim("w1", wait=0)
        thread, replies = self._park(remote, "w2")
        _wait_for(lambda: attempts == ["w1", "w2"])
        failed = time.monotonic()
        assert client.complete(fp, "w1", False, error="boom") == "retry"
        thread.join(5)
        assert time.monotonic() - failed >= 0.4
        assert [(job["job_id"], job["attempts"]) for job in replies[0]["jobs"]] == [(fp, 1)]
        assert attempts == ["w1", "w2", "w2"]

    def test_a_claim_whose_client_hung_up_leases_nothing(self, remote):
        with socket.create_connection(remote.address, timeout=10) as sock:
            sock.sendall(_request("GET", "/jobs/claim?worker=ghost&max=1&wait=10"))
            time.sleep(0.2)
        time.sleep(0.1)
        client = ServiceClient(remote.url)
        fp = client.submit(SimSpec(**TINY))["job_id"]
        time.sleep(0.2)
        assert client.job(fp)["status"] == "pending"
        assert [job["job_id"] for job in client.claim("live", wait=0)["jobs"]] == [fp]


class TestSurrogateMemo:
    """A surrogate answer is kept as bytes beside its body, tagged with
    the calibration fingerprint its provenance carries, and served only
    while that fingerprint is the table's."""

    def test_warm_repeats_are_the_kept_bytes_of_a_fresh_answer(self, server):
        asked = SimSpec(**TINY, mode="surrogate")
        fp = fingerprint_for(asked)
        body = _encode(asked.to_dict())
        with socket.create_connection(server.address, timeout=10) as sock:
            rfile = sock.makefile("rb")
            replies = [_exchange(sock, rfile, "POST", "/jobs", body) for _ in range(3)]
        fresh = _encode(
            {"status": "done", "cached": False, "job_id": fp, "fingerprint": fp,
             "surrogate": True, "result": server.oracle.answer(asked)}
        )
        assert [(status, reply) for status, _, reply in replies] == [(200, fresh)] * 3
        assert server._parsed[body][5] == (server.oracle.known_fingerprint, fresh)

    def test_a_changed_table_is_never_served_stale(self, server):
        client = ServiceClient(server.url)
        asked = SimSpec(**TINY, mode="surrogate")

        def served():
            reply = client.submit(asked)["result"]["surrogate"]
            return reply["provenance"]["calibration_fingerprint"]

        before = served()
        assert served() == before == server.oracle.known_fingerprint
        exact = SimSpec(**TINY)
        assert server.oracle.observe(exact.to_dict(), run_sim_spec(exact.to_dict()))
        after = served()
        assert after != before
        assert served() == after == server.oracle.calibration_fingerprint()

    def test_escalations_and_refusals_are_never_kept(self, tmp_path):
        store = ResultStore(root=tmp_path / "store", registry=MetricsRegistry())
        auto = _encode(SimSpec(**TINY, mode="auto").to_dict())
        unmodelled = _encode(
            SimSpec(**{**TINY, "width": 4, "pattern": "transpose"}, mode="surrogate").to_dict()
        )
        with AsyncServiceServer(port=0, store=store, local_exec=False) as srv:
            with socket.create_connection(srv.address, timeout=10) as sock:
                rfile = sock.makefile("rb")
                for _ in range(2):
                    # Nothing calibrated: the gate escalates into the queue.
                    assert _exchange(sock, rfile, "POST", "/jobs", auto)[0] == 202
                    status, _, reply = _exchange(sock, rfile, "POST", "/jobs", unmodelled)
                    assert status == 400
                    assert json.loads(reply)["error"].startswith("surrogate cannot model spec")
            assert [parsed[5] for parsed in srv._parsed.values()] == [None, None]

    def test_metrics_count_every_answer(self, server):
        client = ServiceClient(server.url)
        asked = SimSpec(**TINY, mode="surrogate")
        for _ in range(5):
            assert client.submit(asked)["surrogate"] is True
        lines = client.metrics().splitlines()
        assert "repro_surrogate_answered 5" in lines
        assert "repro_surrogate_predictions 5" in lines
