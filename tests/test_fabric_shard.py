"""Tests for the sharded result store: placement, replication, rebalance.

Fingerprints are synthetic sha256 hex strings; payloads are tiny dicts.
Shard "outages" are simulated by deleting a shard's root directory —
exactly what an unmounted disk looks like to the local-filesystem
stand-in.
"""

import hashlib
import json
import shutil

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.service.fabric import Shard, ShardMap, ShardedResultStore, rebalance

N_KEYS = 400


def fps(n=N_KEYS):
    return [hashlib.sha256(str(i).encode()).hexdigest() for i in range(n)]


def make_map(tmp_path, n_shards, replicas=2, names=None):
    shards = [
        Shard(name=names[i] if names else f"s{i}", root=str(tmp_path / f"s{i}"))
        for i in range(n_shards)
    ]
    return ShardMap(shards=shards, replicas=replicas)


class TestShardMap:
    def test_owners_primary_first_and_distinct(self, tmp_path):
        smap = make_map(tmp_path, 3, replicas=2)
        for fp in fps(50):
            owners = smap.owners(fp)
            assert len(owners) == 2
            assert len(set(owners)) == 2
            assert smap.primary(fp) == owners[0]

    def test_owners_deterministic(self, tmp_path):
        a = make_map(tmp_path, 3)
        b = make_map(tmp_path, 3)
        for fp in fps(50):
            assert a.owners(fp) == b.owners(fp)

    def test_replicas_clamped_to_shard_count(self, tmp_path):
        smap = make_map(tmp_path, 2, replicas=5)
        assert smap.replicas == 2
        assert len(smap.owners(fps(1)[0])) == 2

    def test_duplicate_names_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            make_map(tmp_path, 2, names=["dup", "dup"])

    def test_empty_map_rejected(self):
        with pytest.raises(ValueError):
            ShardMap(shards=[])

    def test_bad_fingerprint_rejected(self, tmp_path):
        smap = make_map(tmp_path, 2)
        with pytest.raises(ValueError):
            smap.owners("not-hex!")

    def test_adding_shard_moves_minority_of_keys(self, tmp_path):
        """The consistent-hashing claim: growing 3 -> 4 shards relocates
        roughly 1/4 of primaries, never a majority."""
        before = make_map(tmp_path, 3, replicas=1)
        after = make_map(tmp_path, 4, replicas=1)
        moved = sum(
            1 for fp in fps() if before.primary(fp) != after.primary(fp)
        )
        assert 0 < moved < N_KEYS // 2

    def test_balance_roughly_even(self, tmp_path):
        smap = make_map(tmp_path, 4, replicas=1)
        counts = {}
        for fp in fps():
            counts[smap.primary(fp)] = counts.get(smap.primary(fp), 0) + 1
        assert len(counts) == 4
        assert min(counts.values()) > N_KEYS // 16

    def test_rerooting_preserves_placement(self, tmp_path):
        """Names are hashed, not roots: moving a shard to a new disk
        relocates zero keys."""
        a = ShardMap(shards=[Shard("x", str(tmp_path / "old"))], replicas=1)
        b = ShardMap(shards=[Shard("x", str(tmp_path / "new"))], replicas=1)
        fp = fps(1)[0]
        assert a.owners(fp) == b.owners(fp)

    def test_save_load_roundtrip(self, tmp_path):
        smap = make_map(tmp_path, 3, replicas=2)
        path = tmp_path / "map.json"
        smap.save(path)
        loaded = ShardMap.load(path)
        assert loaded.replicas == smap.replicas
        assert [s.to_dict() for s in loaded.shards] == [
            s.to_dict() for s in smap.shards
        ]
        for fp in fps(20):
            assert loaded.owners(fp) == smap.owners(fp)

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(["not", "a", "map"]))
        with pytest.raises(ValueError):
            ShardMap.load(path)

    def test_local_convenience(self, tmp_path):
        smap = ShardMap.local([tmp_path / "a", tmp_path / "b"])
        assert [s.name for s in smap.shards] == ["s0", "s1"]


@pytest.fixture()
def sharded(tmp_path):
    smap = make_map(tmp_path, 3, replicas=2)
    return ShardedResultStore(smap, registry=MetricsRegistry())


class TestShardedResultStore:
    def test_put_get_roundtrip(self, sharded):
        fp = fps(1)[0]
        sharded.put(fp, {"v": 1})
        assert sharded.get(fp) == {"v": 1}
        assert sharded.contains(fp)

    def test_put_replicates_to_owner_set(self, sharded):
        fp = fps(1)[0]
        sharded.put(fp, {"v": 1})
        for name in sharded.map.owners(fp):
            assert sharded.shard_store(name).contains(fp)
        for shard in sharded.map.shards:
            if shard.name not in sharded.map.owners(fp):
                assert not sharded.shard_store(shard.name).contains(fp)

    def test_len_dedups_replicas(self, sharded):
        keys = fps(10)
        for fp in keys:
            sharded.put(fp, {"fp": fp})
        assert len(sharded) == 10
        assert sorted(sharded.iter_fingerprints()) == sorted(keys)

    def test_readthrough_heals_primary(self, sharded):
        fp = fps(1)[0]
        sharded.put(fp, {"v": 42})
        primary = sharded.map.primary(fp)
        sharded.shard_store(primary).path_for(fp).unlink()
        assert not sharded.shard_store(primary).contains(fp)
        # Read falls through to the replica and heals the primary copy.
        assert sharded.get(fp) == {"v": 42}
        assert sharded.shard_store(primary).contains(fp)
        counters = sharded.registry.counters
        assert counters.get("service.shard.readthrough", 0) >= 1

    def test_all_replicas_lost_is_a_miss(self, sharded):
        fp = fps(1)[0]
        sharded.put(fp, {"v": 1})
        for name in sharded.map.owners(fp):
            sharded.shard_store(name).path_for(fp).unlink()
        assert sharded.get(fp) is None
        assert not sharded.contains(fp)

    def test_put_survives_replica_outage(self, sharded, tmp_path):
        fp = fps(1)[0]
        owners = sharded.map.owners(fp)
        replica_root = sharded.shard_store(owners[1]).root
        shutil.rmtree(replica_root)
        # Make the replica root un-creatable so its put really fails.
        replica_root.write_text("a file where a directory should be")
        sharded.put(fp, {"v": 1})
        assert sharded.get(fp) == {"v": 1}
        counters = sharded.registry.counters
        assert counters.get("service.shard.replica_failed", 0) >= 1

    def test_health_degrades_on_missing_shard_dir(self, sharded):
        assert sharded.health()["ok"] is True
        victim = sharded.map.shards[1]
        shutil.rmtree(victim.root)
        health = sharded.health()
        assert health["ok"] is False
        assert health["shards"][victim.name] is False

    def test_query_and_iter_entries(self, sharded):
        for i, fp in enumerate(fps(6)):
            sharded.put(fp, {"i": i})
        entries = dict(sharded.iter_entries())  # replicas yield each once
        assert sorted(entries) == sorted(fps(6))
        assert sorted(payload["i"] for payload in entries.values()) == list(range(6))

    def test_clear(self, sharded):
        for fp in fps(4):
            sharded.put(fp, {"v": 1})
        assert sharded.clear() > 0
        assert len(sharded) == 0


class TestRebalance:
    def test_new_shard_receives_its_keys(self, tmp_path):
        old = ShardedResultStore(
            make_map(tmp_path, 3, replicas=2), registry=MetricsRegistry()
        )
        keys = fps(60)
        for fp in keys:
            old.put(fp, {"fp": fp})
        new_map = make_map(tmp_path, 4, replicas=2)
        new = ShardedResultStore(new_map, registry=MetricsRegistry())
        report = rebalance(new)
        assert report["scanned"] == 60
        assert report["copied"] > 0
        assert report["skipped"] == 0
        for fp in keys:
            for name in new_map.owners(fp):
                assert new.shard_store(name).contains(fp)

    def test_prune_removes_stale_copies(self, tmp_path):
        old = ShardedResultStore(
            make_map(tmp_path, 3, replicas=2), registry=MetricsRegistry()
        )
        keys = fps(60)
        for fp in keys:
            old.put(fp, {"fp": fp})
        new_map = make_map(tmp_path, 4, replicas=2)
        new = ShardedResultStore(new_map, registry=MetricsRegistry())
        rebalance(new, prune=True)
        for fp in keys:
            owners = set(new_map.owners(fp))
            holders = {
                shard.name
                for shard in new_map.shards
                if new.shard_store(shard.name).contains(fp)
            }
            assert holders == owners
        # Nothing lost: every key still readable.
        for fp in keys:
            assert new.get(fp) == {"fp": fp}

    def test_rebalance_idempotent(self, tmp_path):
        store = ShardedResultStore(
            make_map(tmp_path, 3, replicas=2), registry=MetricsRegistry()
        )
        for fp in fps(20):
            store.put(fp, {"fp": fp})
        first = rebalance(store, prune=True)
        second = rebalance(store, prune=True)
        assert second["copied"] == 0
        assert second["pruned"] == 0
        assert second["scanned"] == first["scanned"]
