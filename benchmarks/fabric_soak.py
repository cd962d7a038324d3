#!/usr/bin/env python
"""Soak the distributed fabric: front end + worker fleet + failures.

The full distributed stack, failed on purpose, gated on exactness:

1. compute a serial baseline for a fig8-scale campaign (every spec run
   in-process through :func:`run_sim_spec` — the ground truth);
2. boot one :class:`ServiceServer` with ``local_exec=False`` over a
   two-shard :class:`ShardedResultStore` (replicas=2);
3. launch three ``python -m repro worker`` subprocesses, their ids
   holding a space and an ``&`` (``soak w0&fleet``) so every claim
   exercises the client's query encoding;
4. submit the whole campaign, then while it runs **SIGKILL one worker**
   and **delete one shard directory** (the non-sidecar one);
5. require: every job reaches ``done``, every payload is bit-identical
   to the serial baseline, no job executes twice spuriously (the killed
   worker's leases may legitimately re-execute — that is at-least-once
   delivery — but each fingerprint must be DONE exactly once and the
   duplicate/lost counters must reconcile).

Usage::

    python benchmarks/fabric_soak.py

Exits non-zero on any lost job, wrong payload, or unhealthy drain.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs.metrics import MetricsRegistry  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402
from repro.service.fabric import ShardMap, ShardedResultStore  # noqa: E402
from repro.service.server import ServiceServer  # noqa: E402
from repro.service.server import fingerprint_for  # noqa: E402
from repro.service.spec import SimSpec, run_sim_spec  # noqa: E402

N_WORKERS = 3
LEASE_TTL = 3.0


def fig8_cells():
    """The trimmed fig8 grid the service bench uses: schemes x faults."""
    return [
        SimSpec(
            width=8,
            height=8,
            scheme=scheme,
            link_faults=faults,
            rate=0.02,
            warmup=150,
            measure=400,
            seed=3,
        )
        for scheme in ("static-bubble", "escape-vc")
        for faults in (0, 4, 8)
    ]


def spawn_worker(url: str, index: int) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "worker",
            "--url",
            url,
            "--id",
            f"soak w{index}&fleet",  # a space and an ``&``: claims must encode
            "--max-jobs",
            "1",
            "--wait",
            "2",
            "--quiet",
        ],
        env=env,
    )


def main() -> int:
    specs = fig8_cells()
    print(f"serial baseline: {len(specs)} cells ...", flush=True)
    start = time.perf_counter()
    baseline = {fingerprint_for(s): run_sim_spec(s.to_dict()) for s in specs}
    print(f"  done in {time.perf_counter() - start:.1f}s", flush=True)

    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        roots = [Path(tmp) / "s0", Path(tmp) / "s1"]
        smap = ShardMap.local(roots, replicas=2)
        store = ShardedResultStore(smap, registry=MetricsRegistry())
        server = ServiceServer(
            port=0,
            store=store,
            quiet=True,
            local_exec=False,
            lease_ttl=LEASE_TTL,
            record_ttl=None,
        )
        server.start()
        client = ServiceClient(server.url)
        workers = [spawn_worker(server.url, i) for i in range(N_WORKERS)]
        try:
            job_ids = {}
            for spec in specs:
                payload = client.submit(spec)
                job_ids[fingerprint_for(spec)] = payload["job_id"]
            print(f"submitted {len(job_ids)} jobs to {server.url}", flush=True)

            # Let the fleet get its hands dirty, then fail things.
            time.sleep(LEASE_TTL / 2)
            victim = workers[0]
            victim.send_signal(signal.SIGKILL)
            print(f"killed worker pid {victim.pid} (SIGKILL)", flush=True)
            # Lose the non-sidecar shard: reads fall back to replicas,
            # health degrades, writes keep landing on the survivor.  A
            # tombstone file keeps the root un-creatable — a bare rmtree
            # would be healed by the next replica write's mkdir.
            import shutil

            shutil.rmtree(roots[1])
            roots[1].write_text("tombstone: simulated dead disk")
            print(f"killed shard dir {roots[1]}", flush=True)

            deadline = time.monotonic() + 300
            pending = dict(job_ids)
            while pending and time.monotonic() < deadline:
                for fp, job_id in list(pending.items()):
                    record = client.job(job_id)
                    if record["status"] == "done":
                        if record["result"] != baseline[fp]:
                            failures.append(f"payload mismatch for {fp[:12]}")
                        del pending[fp]
                    elif record["status"] == "failed":
                        failures.append(f"job failed: {record.get('error')}")
                        del pending[fp]
                time.sleep(0.5)
            if pending:
                failures.append(f"{len(pending)} jobs lost (never finished)")

            # Shard outage must degrade /healthz (non-200) while results
            # keep flowing.
            status, health, _ = client._request("GET", "/healthz")
            if status != 503:
                failures.append(f"healthz {status}, expected degraded 503")
            if health.get("shards", {}).get("s1", True):
                failures.append("healthz still reports lost shard healthy")

            counters = server.registry.counters
            done_count = counters.get("service.queue.executed", 0)
            dup_count = counters.get("service.queue.duplicate_completion", 0)
            expired = counters.get("service.queue.lease_expired", 0)
            print(
                f"executed={done_count} duplicates={dup_count} "
                f"lease_expired={expired}",
                flush=True,
            )
            # Every fingerprint settles exactly once; extra executions
            # after the kill show up as duplicates/lease expiries, never
            # as extra DONE transitions.
            if done_count != len(specs):
                failures.append(
                    f"{done_count} DONE transitions for {len(specs)} jobs"
                )
            # Every blob must live on the surviving shard.
            surviving = store.shard_store("s0")
            for fp in job_ids:
                if not surviving.contains(fp):
                    failures.append(f"blob {fp[:12]} missing from survivor")
        finally:
            for proc in workers:
                if proc.poll() is None:
                    proc.terminate()
            server.stop()
            for proc in workers:
                try:
                    proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    proc.kill()

    if failures:
        print("FAIL:")
        for line in failures:
            print(f"  - {line}")
        return 1
    print(
        f"soak ok: {len(specs)} jobs, 1 worker killed, 1 shard lost, "
        "bit-identical to serial, zero lost/duplicated results"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
