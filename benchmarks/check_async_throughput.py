#!/usr/bin/env python
"""Gate the async front end's concurrent-client throughput advantage.

Boots both HTTP front ends in this process over identical stores, drives
each with the same fleet of persistent keep-alive clients (one OS thread
and one ``http.client`` connection per client, the shape a worker fleet
presents), and fails when ``async_rps / threaded_rps`` drops below the
threshold.  Measuring both within one run sidesteps machine-to-machine
drift — the ratio is what the event-loop front end exists to deliver.

Usage::

    python benchmarks/check_async_throughput.py

Threshold: ``ASYNC_SPEEDUP_MIN`` env var, default 2.5.  Measured on a
2-core developer container, 13 runs: 3.1-5.4x (threaded 1,330-1,760
rps, async 5,330-8,190 rps).  The threaded front end answers a round
trip in one thread switch, so what separates the two is 32 handler
threads contending for one GIL against one loop that never switches.
(Until the threaded handler set ``TCP_NODELAY`` this gate read ~13-16x
and stood at 4.0: it was measuring a ~40 ms Nagle / delayed-ACK stall on
every keep-alive response of the threaded server — 500 rps is 32 clients
each waiting 64 ms — not thread spawns, which keep-alive connections
never pay per request.)
"""

from __future__ import annotations

import http.client
import os
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs.metrics import MetricsRegistry  # noqa: E402
from repro.service.fabric import AsyncServiceServer  # noqa: E402
from repro.service.server import ServiceServer  # noqa: E402
from repro.service.store import ResultStore  # noqa: E402

DEFAULT_MIN_SPEEDUP = 2.5
CLIENTS = 32
REQUESTS_PER_CLIENT = 60
WARMUP_CLIENTS = 8
WARMUP_REQUESTS = 20


def drive(server, clients: int, requests: int) -> float:
    """Requests/second across ``clients`` persistent connections."""
    host, port = server.address
    done = [0] * clients

    def one_client(i: int) -> None:
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            for _ in range(requests):
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                response.read()
                assert response.status == 200
                done[i] += 1
        finally:
            conn.close()

    threads = [
        threading.Thread(target=one_client, args=(i,)) for i in range(clients)
    ]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start
    total = sum(done)
    if total != clients * requests:
        raise AssertionError(
            f"lost requests: {total} != {clients * requests}"
        )
    return total / elapsed


def measure(server_cls, root: Path) -> float:
    store = ResultStore(root=root, registry=MetricsRegistry())
    with server_cls(port=0, store=store, workers=1, quiet=True) as server:
        drive(server, WARMUP_CLIENTS, WARMUP_REQUESTS)
        return drive(server, CLIENTS, REQUESTS_PER_CLIENT)


def main() -> int:
    threshold = float(os.environ.get("ASYNC_SPEEDUP_MIN", DEFAULT_MIN_SPEEDUP))
    with tempfile.TemporaryDirectory() as tmp:
        threaded_rps = measure(ServiceServer, Path(tmp) / "threaded")
        async_rps = measure(AsyncServiceServer, Path(tmp) / "async")
    ratio = async_rps / threaded_rps
    status = "ok" if ratio >= threshold else "FAIL"
    print(
        f"concurrent /healthz ({CLIENTS} clients x {REQUESTS_PER_CLIENT}): "
        f"threaded {threaded_rps:.0f} rps, async {async_rps:.0f} rps "
        f"-> {ratio:.2f}x (min {threshold:g}x) {status}"
    )
    return 0 if ratio >= threshold else 1


if __name__ == "__main__":
    sys.exit(main())
