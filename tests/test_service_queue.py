"""Tests for the job queue, campaign manifests, and the fan_out cache.

The runners are module-level (picklable) and record each *execution* as
a uniquely named file in a directory passed through the spec — counting
those files proves the dedup/coalescing claims across process
boundaries, where in-memory counters cannot.
"""

import json
import sys
import threading
import time
import uuid
from pathlib import Path

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.experiments.common import fan_out
from repro.service import run_campaign
from repro.service.queue import (
    DONE,
    FAILED,
    PENDING,
    RUNNING,
    JobQueue,
    JobRecord,
    QueueFull,
)
from repro.service.store import ResultStore, spec_fingerprint


def _log_execution(spec):
    log_dir = spec.get("log_dir")
    if log_dir:
        stamp = f"{time.monotonic():.6f} {spec.get('tag', '')}"
        (Path(log_dir) / uuid.uuid4().hex).write_text(stamp)


def runner_ok(spec):
    _log_execution(spec)
    return {"value": spec["value"] * 2}


def runner_sleepy(spec):
    _log_execution(spec)
    time.sleep(spec["sleep"])
    return {"slept": spec["sleep"]}


def runner_flaky(spec):
    marker = Path(spec["marker"])
    if not marker.exists():
        marker.write_text("failed once")
        raise RuntimeError("transient failure")
    return {"recovered": True}


def runner_boom(spec):
    raise ValueError("this spec always fails")


def runner_boom_if_asked(spec):
    if spec.get("boom"):
        raise ValueError("this spec asked to fail")
    return runner_ok(spec)


@pytest.fixture()
def store(tmp_path):
    return ResultStore(root=tmp_path / "store", registry=MetricsRegistry())


def make_queue(store, runner, **kwargs):
    kwargs.setdefault("workers", 2)
    return JobQueue(runner=runner, store=store, **kwargs)


class TestJobQueue:
    def test_fresh_submit_executes_and_persists(self, store, tmp_path):
        with make_queue(store, runner_ok) as queue:
            record, fresh = queue.submit({"value": 21, "log_dir": str(tmp_path)})
            assert fresh
            record = queue.wait(record.job_id, timeout=30)
        assert record.state == DONE
        assert record.result == {"value": 42}
        assert store.get(record.job_id) == {"value": 42}
        assert store.registry.counters["service.queue.executed"] == 1

    def test_store_hit_completes_instantly(self, store):
        spec = {"value": 5}
        fp = spec_fingerprint(spec)
        store.put(fp, {"value": 10})
        queue = make_queue(store, runner_ok)  # never started: no execution
        record, fresh = queue.submit(spec)
        assert not fresh
        assert record.state == DONE
        assert record.cached
        assert record.result == {"value": 10}

    def test_engine_field_excluded_from_identity(self, store, tmp_path):
        """Specs differing only in ``engine`` coalesce onto one result:
        the field is ignored, so either spelling must hit the cache entry
        the other produced."""
        with make_queue(store, runner_ok) as queue:
            ref, fresh1 = queue.submit(
                {"value": 3, "engine": "reference", "log_dir": str(tmp_path)}
            )
            queue.wait(ref.job_id, timeout=30)
            fast, fresh2 = queue.submit(
                {"value": 3, "engine": "fast", "log_dir": str(tmp_path)}
            )
            assert fresh1 and not fresh2
            assert fast.job_id == ref.job_id
            assert fast.state == DONE

    def test_inflight_coalescing(self, store, tmp_path):
        spec = {"value": 1, "sleep": 0.4, "log_dir": str(tmp_path / "runs")}
        (tmp_path / "runs").mkdir()
        with make_queue(store, runner_sleepy) as queue:
            first, fresh1 = queue.submit(spec)
            second, fresh2 = queue.submit(spec)
            assert fresh1 and not fresh2
            assert first is second
            queue.wait(first.job_id, timeout=30)
        assert len(list((tmp_path / "runs").iterdir())) == 1
        assert store.registry.counters["service.queue.coalesced"] == 1

    def test_concurrent_duplicate_submissions_single_execution(
        self, store, tmp_path
    ):
        """Acceptance: N racing identical submissions -> one simulation."""
        runs = tmp_path / "runs"
        runs.mkdir()
        spec = {"value": 9, "sleep": 0.3, "log_dir": str(runs)}
        with make_queue(store, runner_sleepy) as queue:
            records = []
            barrier = threading.Barrier(8)

            def submit():
                barrier.wait()
                records.append(queue.submit(spec)[0])

            threads = [threading.Thread(target=submit) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            queue.wait(records[0].job_id, timeout=30)
        assert len({id(r) for r in records}) == 1
        assert len(list(runs.iterdir())) == 1

    def test_priority_order(self, store, tmp_path):
        runs = tmp_path / "runs"
        runs.mkdir()
        queue = make_queue(store, runner_ok, workers=1)
        # Submitted low-first; the high-priority spec must execute first.
        low, _ = queue.submit({"value": 1, "tag": "low", "log_dir": str(runs)}, priority=0)
        high, _ = queue.submit({"value": 2, "tag": "high", "log_dir": str(runs)}, priority=5)
        with queue:
            queue.wait(low.job_id, timeout=30)
            queue.wait(high.job_id, timeout=30)
        order = sorted(
            (f.read_text() for f in runs.iterdir()),
            key=lambda line: float(line.split()[0]),
        )
        assert [line.split()[1] for line in order] == ["high", "low"]

    def test_queue_full_backpressure(self, store, tmp_path):
        with make_queue(store, runner_sleepy, workers=1, max_depth=1) as queue:
            first, _ = queue.submit({"value": 0, "sleep": 1.0})
            with pytest.raises(QueueFull):
                queue.submit({"value": 1, "sleep": 1.0})
            queue.wait(first.job_id, timeout=30)
        assert store.registry.counters["service.queue.rejected"] == 1

    def test_retry_recovers_transient_failure(self, store, tmp_path):
        marker = tmp_path / "marker"
        with make_queue(
            store, runner_flaky, retries=2, backoff=0.01
        ) as queue:
            record, _ = queue.submit({"marker": str(marker)})
            record = queue.wait(record.job_id, timeout=30)
        assert record.state == DONE
        assert record.attempts == 1
        assert record.result == {"recovered": True}
        assert store.registry.counters["service.queue.retried"] == 1

    def test_permanent_failure_reports_error(self, store):
        with make_queue(store, runner_boom, retries=0) as queue:
            record, _ = queue.submit({"value": 1})
            record = queue.wait(record.job_id, timeout=30)
        assert record.state == FAILED
        assert "ValueError" in record.error
        assert store.registry.counters["service.queue.failed"] == 1

    def test_timeout_enforced_in_pool_workers(self, store):
        queue = make_queue(
            store, runner_sleepy, workers=2, timeout=0.4, retries=0
        )
        # Two pending jobs so the batch takes the pool path, where the
        # portable wall-clock budget (join-with-deadline, no signals)
        # bounds each job.
        a, _ = queue.submit({"value": 0, "sleep": 30.0})
        b, _ = queue.submit({"value": 1, "sleep": 30.0})
        start = time.monotonic()
        with queue:
            a = queue.wait(a.job_id, timeout=30)
            b = queue.wait(b.job_id, timeout=30)
        assert a.state == FAILED and b.state == FAILED
        assert "JobTimeout" in a.error
        assert store.registry.counters["service.queue.timeout"] == 2
        assert time.monotonic() - start < 20

    def test_wait_unknown_job(self, store):
        queue = make_queue(store, runner_ok)
        with pytest.raises(KeyError):
            queue.wait("no-such-job")


class TestSubmitReadsTheStoreUnlocked:
    """``submit`` reads the disk outside the queue lock: what an event
    loop calls inline (heartbeat, claim, status) never waits on it."""

    @pytest.fixture()
    def slow_store(self, store, monkeypatch):
        """Once ``hold`` is set, ``store.get`` parks (counted in
        ``parked``) until it is cleared again."""
        store.hold = threading.Event()
        store.parked = threading.Semaphore(0)
        store.resume = threading.Event()
        real_get = store.get

        def get(fp):
            if store.hold.is_set():
                store.parked.release()
                assert store.resume.wait(10)
            return real_get(fp)

        monkeypatch.setattr(store, "get", get)
        return store

    def test_lease_calls_return_while_a_submit_reads_the_disk(self, slow_store):
        queue = make_queue(slow_store, runner_ok, local_exec=False)
        held, _ = queue.submit({"value": 1})
        waiting, _ = queue.submit({"value": 2})
        assert queue.claim("w1") == [held]
        slow_store.hold.set()
        submitter = threading.Thread(target=queue.submit, args=({"value": 3},))
        submitter.start()
        assert slow_store.parked.acquire(timeout=5)
        answers = []

        def lease_calls():
            answers.append(queue.heartbeat(held.job_id, "w1"))
            answers.append(queue.get(held.job_id) is held)
            answers.append(queue.claim("w2") == [waiting])

        caller = threading.Thread(target=lease_calls, daemon=True)
        caller.start()
        caller.join(5)
        blocked = caller.is_alive()
        slow_store.resume.set()
        submitter.join(5)
        assert not blocked and not submitter.is_alive()
        assert answers == [True, True, True]

    def test_racing_submits_of_one_spec_yield_one_record(self, slow_store):
        queue = make_queue(slow_store, runner_ok, local_exec=False)
        slow_store.hold.set()
        got = []
        threads = [
            threading.Thread(target=lambda: got.append(queue.submit({"value": 4})))
            for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        # Both are past their first look at the records, inside get().
        assert slow_store.parked.acquire(timeout=5)
        assert slow_store.parked.acquire(timeout=5)
        slow_store.resume.set()
        for thread in threads:
            thread.join(5)
            assert not thread.is_alive()
        (first, fresh_a), (second, fresh_b) = got
        assert first is second
        assert sorted([fresh_a, fresh_b]) == [False, True]
        assert queue.records == 1
        assert len(queue.claim("w1", max_jobs=4)) == 1
        counters = slow_store.registry.counters
        assert counters["service.queue.submitted"] == 1
        assert counters["service.queue.coalesced"] == 1


class TestCampaign:
    def test_cold_run_executes_and_dedupes(self, store, tmp_path):
        runs = tmp_path / "runs"
        runs.mkdir()
        specs = [
            {"value": 1, "log_dir": str(runs)},
            {"value": 2, "log_dir": str(runs)},
            {"value": 1, "log_dir": str(runs)},  # in-batch duplicate
        ]
        report = run_campaign(
            specs, store=store, runner=runner_ok, workers=2,
            manifest_path=tmp_path / "manifest.json",
        )
        assert report.total == 3
        assert report.executed == 2
        assert report.hits == 1  # the duplicate piggybacks
        assert report.failed == 0
        assert report.results[0] == report.results[2] == {"value": 2}
        assert len(list(runs.iterdir())) == 2
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert len(manifest["done"]) == 2

    def test_warm_rerun_is_all_hits(self, store, tmp_path):
        specs = [{"value": i} for i in range(4)]
        run_campaign(specs, store=store, runner=runner_ok, workers=2)
        report = run_campaign(specs, store=store, runner=runner_ok, workers=2)
        assert report.all_hits
        assert report.executed == 0
        assert report.results == [{"value": i * 2} for i in range(4)]

    def test_resume_runs_only_missing_cells(self, store, tmp_path):
        runs = tmp_path / "runs"
        runs.mkdir()
        specs = [{"value": i, "log_dir": str(runs)} for i in range(4)]
        # Simulate a killed sweep: two cells already persisted.
        for spec in specs[:2]:
            store.put(spec_fingerprint(spec), runner_ok(dict(spec, log_dir=None)))
        report = run_campaign(
            specs, store=store, runner=runner_ok, workers=2,
            manifest_path=tmp_path / "manifest.json",
        )
        assert report.hits == 2
        assert report.executed == 2
        assert len(list(runs.iterdir())) == 2  # only the missing cells ran
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert len(manifest["done"]) == 4

    def test_failed_cell_reported_not_fatal(self, store):
        report = run_campaign(
            [{"value": 1}], store=store, runner=runner_boom, workers=1
        )
        assert report.failed == 1
        assert report.results == [None]

    def test_duplicate_of_a_failed_cell_is_failed_not_a_hit(self, store):
        report = run_campaign(
            [{"value": 1}] * 2, store=store, runner=runner_boom, workers=1
        )
        assert (report.hits, report.executed, report.failed) == (0, 0, 2)
        assert report.results == [None, None]
        # The counter counts failed executions: one per fingerprint.
        assert store.registry.counters["service.campaign.failed"] == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_cell_counted_once(self, store, workers):
        specs = [{"value": 1}, {"value": 2}, {"value": 1}, {"value": 3}]
        run_campaign(specs[1:2], store=store, runner=runner_ok, workers=1)
        report = run_campaign(
            specs + [{"value": -1, "boom": True}] * 2,
            store=store, runner=runner_boom_if_asked, workers=workers,
        )
        assert (report.hits, report.executed, report.failed) == (2, 2, 2)
        assert report.hits + report.executed + report.failed == report.total
        failed = {i for i, result in enumerate(report.results) if result is None}
        assert failed == {4, 5}


# -- fan_out cache --------------------------------------------------------


def _logged_pair(x, y, log_dir):
    _log_execution({"log_dir": log_dir})
    return (x + y, {"k": (x, y)})


class TestFanOutCached:
    def test_warm_rerun_identical_and_unexecuted(self, store, tmp_path):
        runs = tmp_path / "runs"
        runs.mkdir()
        argslist = [(1, 2, str(runs)), (3, 4, str(runs)), (1, 2, str(runs))]
        cold = fan_out(_logged_pair, argslist, workers=1, cached=True, store=store)
        assert len(list(runs.iterdir())) == 2  # in-sweep duplicate coalesced
        warm = fan_out(_logged_pair, argslist, workers=1, cached=True, store=store)
        assert len(list(runs.iterdir())) == 2  # nothing re-executed
        assert warm == cold
        # Round-trip fidelity: tuples stay tuples, nested keys included.
        assert isinstance(warm[0], tuple)
        assert warm[0][1]["k"] == (1, 2)
        assert store.registry.counters["service.store.hit"] >= 3

    def test_uncached_path_untouched(self, tmp_path, store):
        results = fan_out(
            _logged_pair,
            [(1, 1, str(tmp_path))],
            workers=1,
            cached=False,
            store=store,
        )
        assert results == [(2, {"k": (1, 1)})]
        assert len(store) == 0

    def test_env_var_gates_default(self, monkeypatch, store, tmp_path):
        from repro.experiments.common import CACHE_ENV_VAR, cache_enabled

        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        assert not cache_enabled()
        monkeypatch.setenv(CACHE_ENV_VAR, "1")
        assert cache_enabled()


class TestRecordTtl:
    def test_finished_records_pruned_after_ttl(self, store, tmp_path):
        with make_queue(store, runner_ok, record_ttl=0.05) as queue:
            record, _ = queue.submit({"value": 1, "log_dir": str(tmp_path)})
            queue.wait(record.job_id, timeout=30)
            assert queue.get(record.job_id) is not None
            time.sleep(0.1)
            assert queue.prune() == 1
            assert queue.get(record.job_id) is None
        assert store.registry.counters["service.queue.pruned"] == 1

    def test_submit_triggers_pruning(self, store, tmp_path):
        with make_queue(store, runner_ok, record_ttl=0.05) as queue:
            record, _ = queue.submit({"value": 2, "log_dir": str(tmp_path)})
            queue.wait(record.job_id, timeout=30)
            time.sleep(0.1)
            queue.submit({"value": 3, "log_dir": str(tmp_path)})
            assert queue.get(record.job_id) is None

    def test_pruned_spec_resubmits_as_store_hit(self, store, tmp_path):
        runs = tmp_path / "runs"
        runs.mkdir()
        spec = {"value": 4, "log_dir": str(runs)}
        with make_queue(store, runner_ok, record_ttl=0.05) as queue:
            record, _ = queue.submit(spec)
            queue.wait(record.job_id, timeout=30)
            time.sleep(0.1)
            queue.prune()
            # The result outlives the record: resubmission is a store hit,
            # not a re-execution.
            record2, fresh = queue.submit(spec)
            assert not fresh
            assert record2.state == DONE
            assert record2.cached
        assert len(list(runs.iterdir())) == 1

    def test_no_ttl_keeps_records_forever(self, store, tmp_path):
        with make_queue(store, runner_ok) as queue:
            record, _ = queue.submit({"value": 5, "log_dir": str(tmp_path)})
            queue.wait(record.job_id, timeout=30)
            assert queue.prune() == 0
            assert queue.get(record.job_id) is not None

    def test_pending_and_running_never_pruned(self, store, tmp_path):
        queue = make_queue(store, runner_ok, record_ttl=0.0)
        # Not started: the record stays PENDING indefinitely.
        record, _ = queue.submit({"value": 6, "log_dir": str(tmp_path)})
        assert queue.prune() == 0
        assert queue.get(record.job_id) is not None


class TestOnExecuted:
    def test_hook_sees_fresh_executions_only(self, store, tmp_path):
        seen = []
        done = threading.Event()

        def hook(spec, payload):
            seen.append((dict(spec), dict(payload)))
            done.set()

        with make_queue(store, runner_ok, on_executed=hook) as queue:
            spec = {"value": 7, "log_dir": str(tmp_path)}
            record, _ = queue.submit(spec)
            queue.wait(record.job_id, timeout=30)
            assert done.wait(timeout=5)
            # A warm resubmission is a store hit: the hook must not fire.
            queue.submit(spec)
            time.sleep(0.05)
        assert len(seen) == 1
        assert seen[0][0]["value"] == 7
        assert seen[0][1] == {"value": 14}

    def test_broken_hook_does_not_fail_the_job(self, store, tmp_path):
        def hook(spec, payload):
            raise RuntimeError("observer exploded")

        with make_queue(store, runner_ok, on_executed=hook) as queue:
            record, _ = queue.submit({"value": 8, "log_dir": str(tmp_path)})
            record = queue.wait(record.job_id, timeout=30)
        assert record.state == DONE
        assert store.registry.counters["service.queue.feedback_error"] == 1


class TestLeaseProtocol:
    """Queue-level claim/heartbeat/complete semantics (the fabric's
    at-least-once contract, without HTTP in the way)."""

    def make_remote_queue(self, store, **kwargs):
        kwargs.setdefault("local_exec", False)
        kwargs.setdefault("lease_ttl", 0.5)
        return make_queue(store, runner_ok, **kwargs)

    def test_claim_hands_out_pending_work(self, store):
        queue = self.make_remote_queue(store)
        record, _ = queue.submit({"value": 1})
        claimed = queue.claim("w1", max_jobs=4)
        assert [rec.job_id for rec in claimed] == [record.job_id]
        assert record.state == RUNNING
        assert record.worker == "w1"
        assert store.registry.counters["service.queue.claimed"] == 1

    def test_claimed_job_not_double_claimed(self, store):
        queue = self.make_remote_queue(store)
        queue.submit({"value": 1})
        assert len(queue.claim("w1")) == 1
        assert queue.claim("w2") == []

    def test_heartbeat_extends_lease(self, store):
        queue = self.make_remote_queue(store, lease_ttl=0.6)
        record, _ = queue.submit({"value": 1})
        queue.claim("w1")
        for _ in range(4):
            time.sleep(0.3)
            assert queue.heartbeat(record.job_id, "w1")
        # Lease held well past the raw TTL; nobody else can claim it.
        assert queue.claim("w2") == []

    def test_heartbeat_rejects_strangers(self, store):
        queue = self.make_remote_queue(store)
        record, _ = queue.submit({"value": 1})
        queue.claim("w1")
        assert not queue.heartbeat(record.job_id, "w2")
        assert not queue.heartbeat("no-such-job", "w1")

    def test_expired_lease_requeues(self, store):
        queue = self.make_remote_queue(store, lease_ttl=0.5)
        record, _ = queue.submit({"value": 1})
        queue.claim("w1")
        time.sleep(0.7)
        # The next claim sweeps expired leases first.
        claimed = queue.claim("w2")
        assert [rec.job_id for rec in claimed] == [record.job_id]
        assert record.worker == "w2"
        assert store.registry.counters["service.queue.lease_expired"] == 1

    def test_on_claimable_reports_each_record_that_becomes_claimable(self, store):
        """A submission, a lease requeue and a retry each call the hook
        once, with the time the record is claimable from; a coalesced
        resubmission, a claim and a success do not."""
        queue = self.make_remote_queue(store, retries=1, backoff=0.4)
        calls = []
        queue.on_claimable = calls.append
        record, _ = queue.submit({"value": 1})
        queue.submit({"value": 1})
        assert calls == [0.0]
        queue.claim("w1")
        time.sleep(0.6)
        assert queue.requeue_expired() == 1
        assert calls == [0.0, 0.0]
        queue.claim("w2")
        before = time.monotonic()
        assert queue.complete(record.job_id, "w2", False, "boom") == "retry"
        assert len(calls) == 3
        assert calls[2] == record.not_before >= before + 0.4
        assert queue.claim("w3") == []  # still backing off
        time.sleep(0.45)
        [again] = queue.claim("w3")
        assert queue.complete(again.job_id, "w3", True, {"value": 2}) == "done"
        assert len(calls) == 3

    def test_complete_settles_and_persists(self, store):
        queue = self.make_remote_queue(store)
        record, _ = queue.submit({"value": 3})
        queue.claim("w1")
        outcome = queue.complete(record.job_id, "w1", True, {"value": 6})
        assert outcome == "done"
        assert record.state == DONE
        assert store.get(record.job_id) == {"value": 6}

    def test_record_bodies_are_kept_only_once_done(self, store):
        """An encoded body is kept only once the record is DONE: the
        status of a running job is encoded afresh on every read."""
        queue = self.make_remote_queue(store)
        record, _ = queue.submit({"value": 3})
        queue.claim("w1")
        running = record.encoded(JobRecord.to_dict)
        assert json.loads(running)["status"] == RUNNING
        queue.complete(record.job_id, "w1", True, {"value": 6})
        done = record.encoded(JobRecord.to_dict)
        assert done == json.dumps(record.to_dict(), sort_keys=True).encode()
        assert json.loads(done)["result"] == {"value": 6}
        assert record.encoded(JobRecord.to_dict) is done

    def test_readers_racing_the_completion_keep_only_the_done_body(self, store):
        queue = self.make_remote_queue(store)
        record, _ = queue.submit({"value": 3})
        queue.claim("w1")
        stop = threading.Event()

        def read():
            while not stop.is_set():
                record.encoded(JobRecord.to_dict)

        readers = [threading.Thread(target=read) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for reader in readers:
                reader.start()
            time.sleep(0.05)
            queue.complete(record.job_id, "w1", True, {"value": 6})
            time.sleep(0.05)
        finally:
            stop.set()
            for reader in readers:
                reader.join(5)
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        fresh = json.dumps(record.to_dict(), sort_keys=True).encode()
        assert record.encoded(JobRecord.to_dict) == fresh

    def test_duplicate_completion_coalesces(self, store):
        """The failover invariant: two workers racing the same job yield
        exactly one stored result and a 'duplicate' verdict for the
        loser."""
        queue = self.make_remote_queue(store, lease_ttl=0.5)
        record, _ = queue.submit({"value": 3})
        queue.claim("w1")
        time.sleep(0.7)  # w1's lease lapses (worker "killed mid-job")
        assert queue.claim("w2"), "expired job should be reclaimable"
        assert queue.complete(record.job_id, "w2", True, {"value": 6}) == "done"
        # w1 resurfaces with the same (pure-function) payload.
        assert (
            queue.complete(record.job_id, "w1", True, {"value": 6})
            == "duplicate"
        )
        assert record.state == DONE
        assert store.get(record.job_id) == {"value": 6}
        assert (
            store.registry.counters["service.queue.duplicate_completion"] == 1
        )

    def test_late_completion_from_usurped_worker_accepted(self, store):
        queue = self.make_remote_queue(store, lease_ttl=0.5)
        record, _ = queue.submit({"value": 3})
        queue.claim("w1")
        time.sleep(0.7)
        queue.claim("w2")  # lease moved on
        # w1 finishes first anyway: a valid result is taken.
        assert queue.complete(record.job_id, "w1", True, {"value": 6}) == "done"
        assert store.registry.counters["service.queue.late_completion"] == 1

    def test_orphan_completion_still_stores(self, store):
        """A TTL-pruned record must never drop a computed result."""
        queue = self.make_remote_queue(store)
        fp = "ab" * 32
        assert queue.complete(fp, "w1", True, {"value": 9}) == "stored"
        assert store.get(fp) == {"value": 9}
        assert queue.complete("cd" * 32, "w1", False, "boom") == "unknown"

    def test_failed_completion_retries_then_fails(self, store):
        queue = self.make_remote_queue(store, retries=1, backoff=0.01)
        record, _ = queue.submit({"value": 1})
        queue.claim("w1")
        assert queue.complete(record.job_id, "w1", False, "boom") == "retry"
        assert record.state == PENDING
        time.sleep(0.05)
        queue.claim("w1")
        assert queue.complete(record.job_id, "w1", False, "boom") == "failed"
        assert record.state == FAILED

    def test_remote_timeout_report_counts(self, store):
        queue = self.make_remote_queue(store, retries=0)
        record, _ = queue.submit({"value": 1})
        queue.claim("w1")
        outcome = queue.complete(
            record.job_id, "w1", False, "JobTimeout: job exceeded 1s wall clock"
        )
        assert outcome == "failed"
        assert store.registry.counters["service.queue.timeout"] == 1

    def test_completion_fires_on_executed_hook(self, store):
        seen = []
        queue = make_queue(
            store,
            runner_ok,
            local_exec=False,
            on_executed=lambda spec, payload: seen.append((spec, payload)),
        )
        record, _ = queue.submit({"value": 5})
        queue.claim("w1")
        queue.complete(record.job_id, "w1", True, {"value": 10})
        assert seen == [({"value": 5}, {"value": 10})]

    def test_no_local_exec_leaves_jobs_for_claimants(self, store, tmp_path):
        """With local_exec off the scheduler never executes; the running
        queue thread still sweeps leases."""
        runs = tmp_path / "runs"
        runs.mkdir()
        with self.make_remote_queue(store) as queue:
            record, _ = queue.submit({"value": 1, "log_dir": str(runs)})
            time.sleep(0.4)
            assert record.state == PENDING
            assert list(runs.iterdir()) == []
            assert len(queue.claim("w1")) == 1
