"""End-to-end tests for remote worker pools and failover.

A no-local-exec server plays the front end; :class:`FabricWorker`
instances execute in-process (exec_workers=1 keeps each cycle cheap).
Failover is driven the way production fails: leases that stop being
heartbeated, shard directories that vanish, and duplicate completions
racing each other.
"""

import shutil
import time

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.service.client import ServiceClient
from repro.service.fabric import FabricWorker, ShardMap, ShardedResultStore
from repro.service.server import ServiceServer, fingerprint_for
from repro.service.spec import SimSpec
from repro.service.store import ResultStore

TINY = dict(width=3, height=3, rate=0.03, warmup=30, measure=80, seed=5)


@pytest.fixture(params=["async"])  # the param keeps the test ids stable
def server(tmp_path):
    store = ResultStore(root=tmp_path / "store", registry=MetricsRegistry())
    with ServiceServer(
        port=0,
        store=store,
        workers=2,
        quiet=True,
        local_exec=False,
        lease_ttl=1.0,
    ) as srv:
        yield srv


@pytest.fixture()
def client(server):
    return ServiceClient(server.url)


def spec_variant(seed):
    return SimSpec(**dict(TINY, seed=seed))


class TestWorkerExecution:
    def test_worker_executes_submitted_job(self, server, client):
        spec = spec_variant(5)
        submitted = client.submit(spec)
        assert submitted["status"] == "pending"
        worker = FabricWorker(server.url, max_jobs=4, poll_wait=0.2, quiet=True)
        worker.run_once()
        assert worker.stats.executed == 1
        done = client.job(submitted["job_id"])
        assert done["status"] == "done"
        assert done["result"]["stats"]["packets_ejected"] > 0
        # Exactly one stored result, addressed by the spec fingerprint.
        assert server.store.get(fingerprint_for(spec)) == done["result"]

    def test_worker_result_matches_local_execution(self, tmp_path):
        """Remote execution is bit-identical to the local pool path."""
        spec = spec_variant(6)
        local_store = ResultStore(
            root=tmp_path / "local", registry=MetricsRegistry()
        )
        with ServiceServer(
            port=0, store=local_store, workers=2, quiet=True
        ) as local_srv:
            local = ServiceClient(local_srv.url).run(spec, timeout=60)

        remote_store = ResultStore(
            root=tmp_path / "remote", registry=MetricsRegistry()
        )
        with ServiceServer(
            port=0, store=remote_store, workers=2, quiet=True,
            local_exec=False, lease_ttl=5.0,
        ) as remote_srv:
            remote_client = ServiceClient(remote_srv.url)
            submitted = remote_client.submit(spec)
            FabricWorker(remote_srv.url, poll_wait=0.2, quiet=True).run_once()
            remote = remote_client.job(submitted["job_id"])
        assert remote["result"] == local["result"]

    def test_worker_feeds_surrogate_calibration(self, server, client):
        before = server.oracle.calibration.sample_count
        client.submit(spec_variant(7))
        FabricWorker(server.url, poll_wait=0.2, quiet=True).run_once()
        assert server.oracle.calibration.sample_count == before + 1

    def test_idle_worker_exits_on_budget(self, server):
        worker = FabricWorker(server.url, poll_wait=0.05, quiet=True)
        stats = worker.run_forever(max_idle_polls=2)
        assert stats.idle_polls == 2
        assert stats.claims == 0

    def test_draining_server_releases_workers(self, server, client):
        server.draining = True
        worker = FabricWorker(server.url, poll_wait=0.05, quiet=True)
        stats = worker.run_forever(max_idle_polls=50)
        # Exits via the draining check long before the idle budget.
        assert stats.idle_polls < 50


    def test_draining_is_read_off_the_claim_reply(self, server):
        """Every claim reply says whether the front end is draining: the
        loop ends on the first one, and asks nothing else."""
        server.draining = True
        client = ServiceClient(server.url)
        sent = []
        request = client._request

        def counted(method, path, *args, **kwargs):
            sent.append(path)
            return request(method, path, *args, **kwargs)

        client._request = counted
        worker = FabricWorker(server.url, client=client, poll_wait=0.05, quiet=True)
        stats = worker.run_forever(max_idle_polls=50)
        assert stats.idle_polls == 1
        assert len(sent) == 1 and sent[0].startswith("/jobs/claim")


class TestEncodedWorkerIds:
    """A worker id is data, not URL syntax: it claims, heartbeats and
    completes as itself whatever characters it holds."""

    @pytest.mark.parametrize(
        "worker_id",
        ["rack 3", "a&b", "k=v", "w#1", "wörker-ü", "soak w0&fleet", "a+b%20c"],
    )
    def test_claim_heartbeat_complete_as_itself(self, server, client, worker_id):
        submitted = client.submit(spec_variant(20))
        claim = client.claim(worker_id, max_jobs=1, wait=0.5)
        assert [job["job_id"] for job in claim["jobs"]] == [submitted["job_id"]]
        assert client.job(submitted["job_id"])["worker"] == worker_id
        assert client.heartbeat(submitted["job_id"], worker_id) is True
        assert client.complete(
            submitted["job_id"], worker_id, True, result={"spec": {}, "stats": {}}
        ) == "done"
        late = server.registry.counter("service.queue.late_completion")
        assert late.value == 0

    def test_fabric_worker_with_spaced_id_runs_the_job(self, server, client):
        submitted = client.submit(spec_variant(21))
        worker = FabricWorker(
            server.url, worker_id="rack 3&fleet", poll_wait=0.5, quiet=True
        )
        worker.run_once()
        assert worker.stats.executed == 1
        assert client.job(submitted["job_id"])["status"] == "done"
        assert server.registry.counter("service.queue.late_completion").value == 0


class TestFailover:
    def test_killed_worker_lease_expires_and_requeues(self, server, client):
        """A worker that claims and dies (never heartbeats, never
        completes) loses its lease; the job requeues and the next worker
        stores exactly one result."""
        spec = spec_variant(8)
        submitted = client.submit(spec)
        # "Kill" a worker mid-job: claim directly, then go silent.
        dead = client.claim("doomed-worker", max_jobs=1, wait=0.5)
        assert len(dead["jobs"]) == 1
        assert client.job(submitted["job_id"])["status"] == "running"
        time.sleep(1.3)  # lease_ttl=1.0 lapses
        rescuer = FabricWorker(
            server.url, poll_wait=1.0, max_jobs=1, quiet=True
        )
        rescuer.run_once()
        assert rescuer.stats.executed == 1
        done = client.job(submitted["job_id"])
        assert done["status"] == "done"
        assert server.store.get(fingerprint_for(spec)) == done["result"]

    def test_duplicate_completion_after_failover_coalesces(
        self, server, client
    ):
        """The 'dead' worker finishes after all and reports anyway: the
        completion must coalesce, not double-store."""
        spec = spec_variant(9)
        submitted = client.submit(spec)
        dead = client.claim("slow-worker", max_jobs=1, wait=0.5)
        job_id = dead["jobs"][0]["job_id"]
        time.sleep(1.3)
        FabricWorker(server.url, poll_wait=1.0, quiet=True).run_once()
        done = client.job(submitted["job_id"])
        assert done["status"] == "done"
        outcome = client.complete(
            job_id, "slow-worker", True, result=done["result"]
        )
        assert outcome == "duplicate"
        assert client.job(submitted["job_id"])["result"] == done["result"]

    def test_heartbeat_holds_lease_past_ttl(self, server, client):
        spec = spec_variant(10)
        client.submit(spec)
        claim = client.claim("steady-worker", max_jobs=1, wait=0.5)
        job_id = claim["jobs"][0]["job_id"]
        deadline = time.monotonic() + 1.6  # > lease_ttl
        while time.monotonic() < deadline:
            assert client.heartbeat(job_id, "steady-worker")
            time.sleep(0.3)
        # Nobody can steal the job while the heartbeats keep landing.
        assert client.claim("thief", max_jobs=1, wait=0.1)["jobs"] == []
        assert client.complete(
            job_id, "steady-worker", True, result={"spec": {}, "stats": {}}
        ) == "done"


class TestShardFailover:
    def test_lost_shard_forces_reexecution(self, tmp_path):
        """replicas=1: losing the owning shard loses the blob; the next
        submission is a store miss and re-executes instead of serving a
        phantom cache hit."""
        smap = ShardMap.local(
            [tmp_path / "s0", tmp_path / "s1"], replicas=1
        )
        store = ShardedResultStore(smap, registry=MetricsRegistry())
        spec = spec_variant(11)
        fp = fingerprint_for(spec)
        with ServiceServer(
            port=0, store=store, workers=2, quiet=True, record_ttl=0.1
        ) as server:
            client = ServiceClient(server.url)
            first = client.run(spec, timeout=60)
            assert first["cached"] is False
            owner = smap.primary(fp)
            shutil.rmtree(tmp_path / ("s0" if owner == "s0" else "s1"))
            time.sleep(0.2)  # let the record TTL-prune so memo can't answer
            second = client.run(spec, timeout=60)
            assert second["cached"] is False  # re-executed, not a hit
            assert second["result"] == first["result"]

    def test_replicated_shard_loss_is_a_cache_hit(self, tmp_path):
        """replicas=2: the same outage read-throughs to the replica and
        stays a cache hit."""
        smap = ShardMap.local(
            [tmp_path / "s0", tmp_path / "s1"], replicas=2
        )
        store = ShardedResultStore(smap, registry=MetricsRegistry())
        spec = spec_variant(12)
        fp = fingerprint_for(spec)
        with ServiceServer(
            port=0, store=store, workers=2, quiet=True, record_ttl=0.1
        ) as server:
            client = ServiceClient(server.url)
            first = client.run(spec, timeout=60)
            owner = smap.primary(fp)
            shutil.rmtree(tmp_path / ("s0" if owner == "s0" else "s1"))
            time.sleep(0.2)
            second = client.submit(spec)
            assert second["cached"] is True
            assert second["result"] == first["result"]
