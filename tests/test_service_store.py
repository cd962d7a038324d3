"""Tests for the content-addressed result store (repro.service.store)."""

import json
import os
import time

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.service.spec import SimSpec
from repro.service.store import (
    STORE_ENV_VAR,
    ResultStore,
    default_store_root,
    spec_fingerprint,
)


@pytest.fixture()
def store(tmp_path):
    return ResultStore(root=tmp_path / "store", registry=MetricsRegistry())


class TestFingerprint:
    def test_pure_function_of_spec(self):
        a = SimSpec(width=4, height=4, seed=3)
        b = SimSpec(width=4, height=4, seed=3)
        assert spec_fingerprint(a.to_dict()) == spec_fingerprint(b.to_dict())

    def test_every_field_matters(self):
        base = SimSpec()
        for change in (
            {"width": 6},
            {"scheme": "escape-vc"},
            {"rate": 0.06},
            {"seed": 2},
            {"sb_t_dd": 35},
            {"monitor": True},
        ):
            spec = SimSpec(**{**base.to_dict(), **change})
            assert spec_fingerprint(spec.to_dict()) != spec_fingerprint(
                base.to_dict()
            ), change

    def test_hex_shape(self):
        fp = spec_fingerprint(SimSpec().to_dict())
        assert len(fp) == 64
        assert set(fp) <= set("0123456789abcdef")

    def test_mesh_specs_omit_topology_field(self):
        # Mesh specs predate the ``topology`` field; it must stay out of
        # their dict form so every stored fingerprint remains valid.
        base = SimSpec().to_dict()
        assert "topology" not in base
        spec = SimSpec(topology="circulant:11,2,5")
        assert spec.to_dict()["topology"] == "circulant:11,2,5"
        assert spec_fingerprint(spec.to_dict()) != spec_fingerprint(base)
        # And the dict form round-trips through from_dict validation.
        clone = SimSpec.from_dict(spec.to_dict())
        assert clone.topology == "circulant:11,2,5"
        assert clone.build_topology().describe() == "circulant(n=11,s1=2,s2=5)"

    def test_bad_topology_spec_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            SimSpec.from_dict({**SimSpec().to_dict(), "topology": "hypercube:4"})


class TestStoreBasics:
    def test_miss_then_hit(self, store):
        fp = spec_fingerprint({"x": 1})
        assert store.get(fp) is None
        store.put(fp, {"value": 42})
        assert store.get(fp) == {"value": 42}
        assert store.registry.counters["service.store.miss"] == 1
        assert store.registry.counters["service.store.hit"] == 1
        assert store.registry.counters["service.store.put"] == 1

    def test_sharded_layout(self, store):
        fp = spec_fingerprint({"x": 2})
        path = store.put(fp, {"v": 1})
        assert path.parent.name == fp[:2]
        assert path.name == f"{fp}.json"

    def test_len_and_iteration(self, store):
        fps = [spec_fingerprint({"i": i}) for i in range(5)]
        for fp in fps:
            store.put(fp, {"fp": fp})
        assert len(store) == 5
        assert sorted(store.iter_fingerprints()) == sorted(fps)

    def test_rejects_non_fingerprint_keys(self, store):
        with pytest.raises(ValueError):
            store.get("../../etc/passwd")
        with pytest.raises(ValueError):
            store.put("short", {})

    def test_corrupt_blob_is_dropped_as_miss(self, store):
        fp = spec_fingerprint({"x": 3})
        path = store.put(fp, {"v": 1})
        path.write_text("{torn")
        assert store.get(fp) is None
        assert not path.exists()
        assert store.registry.counters["service.store.corrupt"] == 1

    def test_atomic_write_no_temp_leftovers(self, store):
        fp = spec_fingerprint({"x": 4})
        store.put(fp, {"v": 1})
        shard = store.path_for(fp).parent
        assert [p.name for p in shard.iterdir()] == [f"{fp}.json"]

    def test_overwrite_idempotent(self, store):
        fp = spec_fingerprint({"x": 5})
        store.put(fp, {"v": 1})
        store.put(fp, {"v": 1})
        assert store.get(fp) == {"v": 1}
        assert len(store) == 1

    def test_clear(self, store):
        store.put(spec_fingerprint({"x": 6}), {"v": 1})
        assert store.clear() == 1
        assert len(store) == 0


class TestQueryApi:
    def test_iter_entries_round_trips_payloads(self, store):
        blobs = {spec_fingerprint({"i": i}): {"value": i} for i in range(4)}
        for fp, payload in blobs.items():
            store.put(fp, payload)
        assert dict(store.iter_entries()) == blobs

    def test_iter_entries_skips_corrupt_blob(self, store):
        good = spec_fingerprint({"i": "good"})
        bad = spec_fingerprint({"i": "bad"})
        store.put(good, {"v": 1})
        store.put(bad, {"v": 2})
        store.path_for(bad).write_text("{torn")
        assert dict(store.iter_entries()) == {good: {"v": 1}}
        assert store.registry.counters["service.store.corrupt"] == 1

    def test_iter_entries_does_not_touch_cache_metrics(self, store):
        store.put(spec_fingerprint({"i": 0}), {"v": 0})
        before = dict(store.registry.counters)
        list(store.iter_entries())
        after = dict(store.registry.counters)
        assert before.get("service.store.hit", 0) == after.get("service.store.hit", 0)
        assert before.get("service.store.miss", 0) == after.get("service.store.miss", 0)


class TestEnvironment:
    def test_env_var_overrides_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv(STORE_ENV_VAR, str(tmp_path / "custom"))
        assert default_store_root() == tmp_path / "custom"
        store = ResultStore(registry=MetricsRegistry())
        assert store.root == tmp_path / "custom"

    def test_max_bytes_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_MAX_BYTES", "1234")
        store = ResultStore(root=tmp_path, registry=MetricsRegistry())
        assert store.max_bytes == 1234


class TestLruEviction:
    def test_cap_evicts_least_recently_used(self, tmp_path):
        registry = MetricsRegistry()
        # Each blob serializes to ~209 bytes; the cap fits two, not three.
        store = ResultStore(root=tmp_path, max_bytes=450, registry=registry)
        blob = {"pad": "x" * 200}
        old = spec_fingerprint({"i": "old"})
        hot = spec_fingerprint({"i": "hot"})
        store.put(old, blob)
        store.put(hot, blob)
        # Make `old` stale and `hot` fresh via explicit mtimes (touch on
        # get also bumps mtime, but clock granularity is not test-safe).
        now = time.time()
        os.utime(store.path_for(old), (now - 100, now - 100))
        os.utime(store.path_for(hot), (now, now))
        store.put(spec_fingerprint({"i": "new"}), blob)
        assert not store.contains(old)
        assert registry.counters["service.store.evict"] >= 1

    def test_get_refreshes_recency(self, tmp_path):
        store = ResultStore(root=tmp_path, max_bytes=10**9, registry=MetricsRegistry())
        fp = spec_fingerprint({"i": "touched"})
        store.put(fp, {"v": 1})
        past = time.time() - 1000
        os.utime(store.path_for(fp), (past, past))
        store.get(fp)
        assert store.path_for(fp).stat().st_mtime > past + 500

    def test_put_under_the_cap_lists_nothing_and_crossing_it_evicts_oldest(
        self, tmp_path, monkeypatch
    ):
        now = time.time()
        fps = [spec_fingerprint({"i": i}) for i in range(1000)]
        for age, fp in enumerate(fps):
            path = tmp_path / fp[:2] / f"{fp}.json"
            path.parent.mkdir(exist_ok=True)
            path.write_bytes(b'{"v":1}')
            os.utime(path, (now - 5000 + age, now - 5000 + age))
        store = ResultStore(root=tmp_path, max_bytes=10**9, registry=MetricsRegistry())
        shard = store.shard_store("s0")  # the one root's running total
        assert shard._bytes == 7 * 1000

        scans = []
        listing = shard._blobs
        monkeypatch.setattr(shard, "_blobs", lambda: scans.append(1) or listing())
        new = spec_fingerprint({"i": "new"})
        store.put(new, {"pad": "x" * 100})
        store.put(new, {"pad": "x" * 50})  # an overwrite replaces, not adds
        assert not scans
        assert shard._bytes == store.size_bytes() == 7000 + len('{"pad":""}') + 50

        store.max_bytes = 7000  # the next put crosses: rescan, oldest go first
        del scans[:]
        store.put(spec_fingerprint({"i": "newer"}), {"v": 2})
        assert len(scans) == 1
        assert shard._bytes == store.size_bytes() <= 7000
        gone = [fp for fp in fps if not store.contains(fp)]
        assert gone and gone == fps[: len(gone)]
        assert store.contains(new)

    def test_under_cap_keeps_everything(self, tmp_path):
        store = ResultStore(root=tmp_path, max_bytes=10**9, registry=MetricsRegistry())
        for i in range(4):
            store.put(spec_fingerprint({"i": i}), {"v": i})
        assert len(store) == 4
