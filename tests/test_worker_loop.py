"""The one worker loop: local execution is a claimant of its own queue.

A job the queue's scheduler thread runs goes claim -> heartbeat ->
complete under the worker id ``LOCAL_WORKER``, exactly as a remote
``FabricWorker`` does over HTTP; ``JobQueue.complete`` is the only place
a result is stored.  Each test here kills one hand-made mutant of that
loop (listed in ``BENCH_pr24.json``).
"""

import threading
import time

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.service.client import ServiceClient
from repro.service.fabric import FabricWorker
from repro.service.queue import DONE, FAILED, LOCAL_WORKER, JobQueue
from repro.service.server import ServiceServer, fingerprint_for
from repro.service.spec import SimSpec
from repro.service.store import ResultStore

TINY = dict(width=3, height=3, warmup=30, measure=80)


@pytest.fixture()
def store(tmp_path):
    return ResultStore(root=tmp_path / "store", registry=MetricsRegistry())


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


class _GatedRunner:
    """A runner that parks inside the job until the test lets it go."""

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()
        self.calls = 0

    def __call__(self, spec):
        self.calls += 1
        self.entered.set()
        assert self.release.wait(10)
        return {"value": 7}


class TestLocalExecutionIsAClaimant:
    def test_local_job_passes_through_the_lease_protocol(self, store):
        runner = _GatedRunner()
        with ServiceServer(
            port=0, store=store, runner=runner, workers=1, quiet=True,
            surrogate=False,
        ) as server:
            client = ServiceClient(server.url)
            job_id = client.submit(SimSpec(**TINY))["job_id"]
            assert runner.entered.wait(10)
            running = client.job(job_id)
            assert running["status"] == "running"
            assert running["worker"] == LOCAL_WORKER
            runner.release.set()
            done = client.wait_job(job_id, timeout=10, poll=0.01)
            assert "worker" not in done
        counters = store.registry.counters
        assert counters["service.queue.claimed"] == 1
        assert counters["service.queue.executed"] == 1

    def test_job_outliving_its_lease_runs_exactly_once(self, store):
        """The keeper thread heartbeats the local claim: a sweep (the
        front end runs one every ``lease_ttl / 4``) finds nothing expired."""
        calls = []

        def slow(spec):
            calls.append(spec["value"])
            time.sleep(1.4)
            return {"value": spec["value"]}

        with JobQueue(runner=slow, store=store, workers=1, lease_ttl=0.5) as queue:
            record, _ = queue.submit({"value": 1})
            while not record.done_event.wait(0.1):
                queue.requeue_expired()
        assert record.state == DONE
        assert calls == [1]
        assert "service.queue.lease_expired" not in store.registry.counters

    def test_failures_and_timeouts_are_settled_through_complete(self, store):
        def stuck(spec):
            time.sleep(5)  # abandoned by the 0.2 s budget, not preempted

        queue = JobQueue(
            runner=stuck, store=store, workers=1, timeout=0.2, retries=1,
            backoff=0.05,
        )
        reports = []
        complete = queue.complete

        def spy(job_id, worker_id, ok, value):
            verdict = complete(job_id, worker_id, ok, value)
            reports.append((worker_id, ok, verdict))
            return verdict

        queue.complete = spy
        with queue:
            record, _ = queue.submit({"value": 1})
            record = queue.wait(record.job_id, timeout=20)
        assert record.state == FAILED
        assert record.error.startswith("JobTimeout")
        assert reports == [
            (LOCAL_WORKER, False, "retry"),
            (LOCAL_WORKER, False, "failed"),
        ]
        counters = store.registry.counters
        assert counters["service.queue.timeout"] == 2
        assert counters["service.queue.retried"] == 1
        assert counters["service.queue.claimed"] == 2

    def test_remote_completion_racing_the_local_claimant(self, store):
        runner = _GatedRunner()
        with JobQueue(runner=runner, store=store, workers=1) as queue:
            record, _ = queue.submit({"value": 7})
            assert runner.entered.wait(10)
            assert queue.complete(record.job_id, "remote", True, {"value": 7}) == "done"
            runner.release.set()
            duplicates = store.registry.counter("service.queue.duplicate_completion")
            wait_until(lambda: duplicates.value == 1)
        counters = store.registry.counters
        assert counters["service.store.put"] == 1
        assert counters["service.queue.executed"] == 1
        assert counters["service.queue.late_completion"] == 1
        assert runner.calls == 1
        assert store.get(record.job_id) == {"value": 7}


def test_local_and_remote_execution_store_identical_bytes(tmp_path):
    """The same 12 cells through the local claimant and through a
    ``FabricWorker``: one execute function, one blob per cell, same bytes."""
    specs = [
        SimSpec(**TINY, rate=rate, seed=seed, link_faults=faults)
        for rate in (0.02, 0.05)
        for seed in (1, 2, 3)
        for faults in (0, 1)
    ]
    assert len({fingerprint_for(spec) for spec in specs}) == 12
    stores = {
        name: ResultStore(root=tmp_path / name, registry=MetricsRegistry())
        for name in ("local", "remote")
    }
    with ServiceServer(port=0, store=stores["local"], workers=2, quiet=True) as server:
        client = ServiceClient(server.url)
        for job_id in [client.submit(spec)["job_id"] for spec in specs]:
            client.wait_job(job_id, timeout=60, poll=0.01)
    with ServiceServer(
        port=0, store=stores["remote"], quiet=True, local_exec=False
    ) as server:
        client = ServiceClient(server.url)
        for spec in specs:
            client.submit(spec)
        worker = FabricWorker(server.url, max_jobs=4, poll_wait=0.1, quiet=True)
        while worker.stats.executed < len(specs):
            assert worker.run_once() > 0
        assert server.queue.depth == 0
    for spec in specs:
        fp = fingerprint_for(spec)
        blob = stores["local"].path_for(fp).read_bytes()
        assert blob and blob == stores["remote"].path_for(fp).read_bytes()
